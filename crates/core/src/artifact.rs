//! Atomic, durable artifact writes — and the injectable I/O policy that
//! lets tests prove they are.
//!
//! Every artifact the framework produces — `manifest.json`,
//! `run_log.jsonl`, the resilience table, results CSVs, and the resume
//! journal — is written through [`write_atomic`]: the full contents go to
//! a sibling temporary file which is `fsync`ed, renamed over the
//! destination, and sealed with an `fsync` of the parent directory. On
//! POSIX filesystems the rename is atomic and the two syncs make it
//! *durable*: a crash (or a power loss) leaves either the previous
//! complete artifact or the new complete artifact on disk — never a torn
//! half-write, and never a renamed-but-empty file that only existed in the
//! page cache.
//!
//! # The `IoPolicy` seam
//!
//! Storage faults are injected the same way compute faults are (PR 5's
//! `ChaosPolicy`): through a deterministic policy object instead of ad-hoc
//! mocking. [`write_atomic`] decomposes into five observable operations —
//! `create-dir`, `write-temp`, `sync-temp`, `rename`, `sync-dir` — and an
//! installed [`IoPolicy`] sees each one before it executes. The
//! [`FaultyIo`] backend counts operations under a scope directory and, at
//! a chosen operation index, injects one of four [`FaultKind`]s (torn
//! write, short write, `ENOSPC`, failed rename); after the fault fires the
//! backend reports every further scoped operation as failed, simulating a
//! crashed process on a dead disk. The fault-point sweep harness drives a
//! whole campaign once per operation index and asserts the journal's
//! resume contract at every crash point.
//!
//! This module is the **only** sanctioned call site of raw file-writing
//! primitives (`fs::write`, `File::create`, `fs::rename`,
//! `File::sync_*`); the `artifact-io` xtask lint flags them elsewhere in
//! the result crates and the bench binaries.

use crate::error::{ReduceError, Result};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// One of the observable operations [`write_atomic`] decomposes into, in
/// execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// `create_dir_all` on the destination's parent.
    CreateDir,
    /// Writing the full contents to the sibling temporary file.
    WriteTemp,
    /// `sync_all` on the temporary file — the write must be on disk
    /// *before* the rename publishes it.
    SyncTemp,
    /// The atomic `rename` of the temporary file over the destination.
    Rename,
    /// `sync_all` on the parent directory — the rename itself must be on
    /// disk before the artifact is considered sealed.
    SyncDir,
}

impl IoOp {
    /// Stable kebab-case name (used in traces and error messages).
    pub fn name(self) -> &'static str {
        match self {
            IoOp::CreateDir => "create-dir",
            IoOp::WriteTemp => "write-temp",
            IoOp::SyncTemp => "sync-temp",
            IoOp::Rename => "rename",
            IoOp::SyncDir => "sync-dir",
        }
    }
}

/// The storage fault a [`FaultyIo`] injects at its armed operation index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A torn write: a seeded-length *prefix* of the data becomes visible
    /// at the destination (on a rename, the published file is truncated —
    /// the classic rename-without-fsync power-loss outcome) and the
    /// operation fails. This is the fault that actually corrupts visible
    /// artifacts, so it is the one that exercises journal self-healing.
    Torn,
    /// A short write: only half the bytes reach the temporary file before
    /// the write errors. The destination is never touched.
    Short,
    /// `ENOSPC`: the operation fails with "no space left on device" and
    /// has no side effect.
    Enospc,
    /// The rename itself fails, leaving the temporary file behind and the
    /// destination untouched.
    RenameFail,
}

impl FaultKind {
    /// Stable kebab-case name (the `--io-fault` CLI spelling).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Torn => "torn",
            FaultKind::Short => "short",
            FaultKind::Enospc => "enospc",
            FaultKind::RenameFail => "rename-fail",
        }
    }

    /// Parses a [`FaultKind::name`] spelling.
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidConfig`] naming the accepted
    /// spellings for anything else.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "torn" => Ok(FaultKind::Torn),
            "short" => Ok(FaultKind::Short),
            "enospc" => Ok(FaultKind::Enospc),
            "rename-fail" => Ok(FaultKind::RenameFail),
            other => Err(ReduceError::InvalidConfig {
                what: format!(
                    "unknown io-fault kind {other:?} (expected torn|short|enospc|rename-fail)"
                ),
            }),
        }
    }

    /// Every kind, in sweep order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Torn,
        FaultKind::Short,
        FaultKind::Enospc,
        FaultKind::RenameFail,
    ];
}

/// Deterministic storage-fault injection backend: counts every
/// [`IoOp`] under a scope directory and fails the one at the armed index
/// with the armed [`FaultKind`]; every later scoped operation fails too
/// (the process has conceptually crashed). Paths outside the scope run on
/// the real backend untouched, so a faulty policy installed by one test
/// cannot damage another test's artifacts.
#[derive(Debug)]
pub struct FaultyIo {
    scope: PathBuf,
    seed: u64,
    armed: Option<(u64, FaultKind)>,
    ops: AtomicU64,
    fired: AtomicBool,
    trace: Mutex<Vec<(IoOp, PathBuf)>>,
}

impl FaultyIo {
    /// A counting backend scoped to `scope`: no fault is armed, every
    /// operation executes for real, and [`FaultyIo::ops_seen`] reports
    /// how many fault points the run exposed.
    pub fn counting(scope: &Path) -> Self {
        FaultyIo {
            scope: scope.to_path_buf(),
            seed: 0,
            armed: None,
            ops: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
        }
    }

    /// Arms the fault: scoped operation number `index` (0-based) fails
    /// with `kind`; `seed` drives the torn-prefix length.
    #[must_use]
    pub fn armed(scope: &Path, seed: u64, index: u64, kind: FaultKind) -> Self {
        let mut io = Self::counting(scope);
        io.seed = seed;
        io.armed = Some((index, kind));
        io
    }

    /// Scoped operations observed so far (including the faulted one).
    pub fn ops_seen(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Whether the armed fault has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// The `(operation, path)` trace of every scoped operation, in
    /// execution order — the evidence for the durability ordering
    /// (`write-temp → sync-temp → rename → sync-dir`).
    pub fn trace(&self) -> Vec<(IoOp, PathBuf)> {
        match self.trace.lock() {
            Ok(t) => t.clone(),
            Err(poisoned) => poisoned.into_inner().clone(),
        }
    }

    fn in_scope(&self, path: &Path) -> bool {
        path.starts_with(&self.scope)
    }

    /// Registers one operation. `Ok(None)`: execute for real.
    /// `Ok(Some(kind))`: this is the armed index — inject `kind`.
    /// `Err(_)`: a fault already fired; the backend is offline.
    fn tick(&self, op: IoOp, path: &Path) -> std::io::Result<Option<FaultKind>> {
        if !self.in_scope(path) {
            return Ok(None);
        }
        if self.fired() {
            return Err(std::io::Error::other(
                "io fault injected earlier in this run; backend offline",
            ));
        }
        if let Ok(mut t) = self.trace.lock() {
            t.push((op, path.to_path_buf()));
        }
        let index = self.ops.fetch_add(1, Ordering::SeqCst);
        match self.armed {
            Some((at, kind)) if index == at => {
                self.fired.store(true, Ordering::SeqCst);
                Ok(Some(kind))
            }
            _ => Ok(None),
        }
    }

    /// Seeded torn-prefix length for `len` payload bytes: deterministic
    /// in `(seed, op index)`, covering the whole `0..len` range across a
    /// sweep (including 0 — a renamed-but-empty file).
    fn torn_len(&self, len: usize) -> usize {
        if len == 0 {
            return 0;
        }
        // splitmix64 finaliser over seed ⊕ fault index.
        let mut z = self
            .seed
            .wrapping_add(self.ops_seen())
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % len as u64) as usize
    }
}

/// The I/O policy [`write_atomic`] routes through: the real durable
/// backend, or a [`FaultyIo`] injection backend for crash testing.
#[derive(Debug, Clone, Default)]
pub enum IoPolicy {
    /// Real filesystem operations with full durability (the default).
    #[default]
    Real,
    /// Deterministic fault injection under the backend's scope directory.
    Faulty(Arc<FaultyIo>),
}

impl IoPolicy {
    fn faulty(&self) -> Option<&FaultyIo> {
        match self {
            IoPolicy::Real => None,
            IoPolicy::Faulty(io) => Some(io),
        }
    }
}

/// The process-wide installed policy ([`install_io_policy`]); `None`
/// means [`IoPolicy::Real`]. Only the binaries and crash tests install
/// anything; the slot is guarded so concurrent installers (parallel
/// tests) serialise instead of clobbering each other.
static INSTALLED: Mutex<Option<Arc<FaultyIo>>> = Mutex::new(None);
static INSTALL_GATE: Mutex<()> = Mutex::new(());

/// Keeps an installed [`IoPolicy`] active; dropping the guard restores
/// [`IoPolicy::Real`]. Holding the guard also holds the installer gate,
/// so two tests cannot interleave their policies.
#[derive(Debug)]
pub struct IoPolicyGuard {
    _gate: MutexGuard<'static, ()>,
}

impl Drop for IoPolicyGuard {
    fn drop(&mut self) {
        let mut slot = match INSTALLED.lock() {
            Ok(slot) => slot,
            Err(poisoned) => poisoned.into_inner(),
        };
        *slot = None;
    }
}

/// Installs `policy` as the process-wide I/O policy consulted by
/// [`write_atomic`] until the returned guard drops. Installing
/// [`IoPolicy::Real`] is a no-op that still takes the gate (useful to
/// serialise against fault-injecting tests).
pub fn install_io_policy(policy: IoPolicy) -> IoPolicyGuard {
    let gate = match INSTALL_GATE.lock() {
        Ok(gate) => gate,
        Err(poisoned) => poisoned.into_inner(),
    };
    let mut slot = match INSTALLED.lock() {
        Ok(slot) => slot,
        Err(poisoned) => poisoned.into_inner(),
    };
    *slot = match policy {
        IoPolicy::Real => None,
        IoPolicy::Faulty(io) => Some(io),
    };
    drop(slot);
    IoPolicyGuard { _gate: gate }
}

/// The currently installed fault-injection backend, if any — the
/// binaries use this to report whether an armed fault fired (and exit
/// with a distinct code for the sweep harness).
pub fn installed_fault_injection() -> Option<Arc<FaultyIo>> {
    match INSTALLED.lock() {
        Ok(slot) => slot.clone(),
        Err(poisoned) => poisoned.into_inner().clone(),
    }
}

/// Writes `contents` to `path` atomically and durably through the
/// process-wide installed [`IoPolicy`] (the real backend when none is
/// installed). See [`write_atomic_with`].
///
/// # Errors
///
/// Returns [`ReduceError::InvalidConfig`] naming the path when any
/// filesystem step fails (or an injected fault fires).
pub fn write_atomic(path: &Path, contents: &str) -> Result<()> {
    let policy = match installed_fault_injection() {
        Some(io) => IoPolicy::Faulty(io),
        None => IoPolicy::Real,
    };
    write_atomic_with(&policy, path, contents)
}

/// Writes `contents` to `path` atomically (temp file + rename) and
/// durably (temp `fsync` before the rename, parent-directory `fsync`
/// after), creating parent directories as needed, routing every
/// operation through `policy`.
///
/// The temporary file is `<file name>.tmp` in the same directory, so the
/// rename never crosses a filesystem boundary. A leftover `.tmp` from a
/// previous crash is simply overwritten.
///
/// # Errors
///
/// Returns [`ReduceError::InvalidConfig`] naming the path when any
/// filesystem step fails (or an injected fault fires).
pub fn write_atomic_with(policy: &IoPolicy, path: &Path, contents: &str) -> Result<()> {
    let fail = |what: &str, e: std::io::Error| ReduceError::InvalidConfig {
        what: format!("cannot {what} {}: {e}", path.display()),
    };
    let faulty = policy.faulty();
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => Some(p),
        _ => None,
    };
    if let Some(parent) = parent {
        match step(faulty, IoOp::CreateDir, path) {
            Ok(None) => {
                std::fs::create_dir_all(parent).map_err(|e| fail("create directories for", e))?;
            }
            Ok(Some(_kind)) => {
                // Directory creation has no partial state worth modelling;
                // every kind degrades to a plain failure.
                return Err(fail(
                    "create directories for",
                    injected("create_dir_all failed"),
                ));
            }
            Err(e) => return Err(fail("create directories for", e)),
        }
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| ReduceError::InvalidConfig {
            what: format!("cannot write {}: path has no file name", path.display()),
        })?
        .to_os_string();
    let mut tmp_name = file_name;
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let bytes = contents.as_bytes();

    // ① the full contents go to the sibling temporary file…
    match step(faulty, IoOp::WriteTemp, path) {
        Ok(None) => {
            write_file(&tmp, bytes).map_err(|e| fail("write temporary file for", e))?;
        }
        Ok(Some(kind)) => {
            let e = match kind {
                FaultKind::Enospc => enospc(),
                FaultKind::RenameFail => injected("write aborted"),
                FaultKind::Short | FaultKind::Torn => {
                    // Half the payload reaches the (still invisible)
                    // temporary file before the write errors.
                    let _ = write_file(&tmp, bytes.split_at(bytes.len() / 2).0);
                    injected("short write to temporary file")
                }
            };
            return Err(fail("write temporary file for", e));
        }
        Err(e) => return Err(fail("write temporary file for", e)),
    }

    // ② …which is fsynced, so the data is on disk before it can be
    // published…
    match step(faulty, IoOp::SyncTemp, path) {
        Ok(None) => {
            sync_file(&tmp).map_err(|e| fail("sync temporary file for", e))?;
        }
        Ok(Some(kind)) => {
            let e = match kind {
                FaultKind::Enospc => enospc(),
                _ => injected("fsync of temporary file failed"),
            };
            return Err(fail("sync temporary file for", e));
        }
        Err(e) => return Err(fail("sync temporary file for", e)),
    }

    // ③ …then atomically renamed over the destination…
    match step(faulty, IoOp::Rename, path) {
        Ok(None) => {
            std::fs::rename(&tmp, path).map_err(|e| fail("rename temporary file over", e))?;
        }
        Ok(Some(kind)) => {
            let e = match kind {
                FaultKind::Enospc => enospc(),
                FaultKind::RenameFail | FaultKind::Short => injected("rename failed"),
                FaultKind::Torn => {
                    // The power-loss outcome this module exists to
                    // prevent, kept injectable so the recovery path stays
                    // tested: the rename "happens" but only a seeded
                    // prefix of the data survives at the destination.
                    let keep = faulty.map_or(0, |io| io.torn_len(bytes.len()));
                    let _ = write_file(path, bytes.split_at(keep.min(bytes.len())).0);
                    let _ = std::fs::remove_file(&tmp);
                    injected("torn write published at destination")
                }
            };
            return Err(fail("rename temporary file over", e));
        }
        Err(e) => return Err(fail("rename temporary file over", e)),
    }

    // ④ …and the rename itself is made durable by fsyncing the parent
    // directory.
    match step(faulty, IoOp::SyncDir, path) {
        Ok(None) => {
            let dir = parent.unwrap_or_else(|| Path::new("."));
            sync_dir(dir).map_err(|e| fail("sync parent directory of", e))?;
        }
        Ok(Some(kind)) => {
            let e = match kind {
                FaultKind::Enospc => enospc(),
                _ => injected("fsync of parent directory failed"),
            };
            return Err(fail("sync parent directory of", e));
        }
        Err(e) => return Err(fail("sync parent directory of", e)),
    }
    Ok(())
}

fn step(faulty: Option<&FaultyIo>, op: IoOp, path: &Path) -> std::io::Result<Option<FaultKind>> {
    match faulty {
        Some(io) => io.tick(op, path),
        None => Ok(None),
    }
}

fn injected(what: &str) -> std::io::Error {
    std::io::Error::other(format!("io fault injected: {what}"))
}

fn enospc() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::StorageFull,
        "io fault injected: no space left on device",
    )
}

fn write_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut f = File::create(path)?;
    f.write_all(bytes)
}

fn sync_file(path: &Path) -> std::io::Result<()> {
    File::open(path)?.sync_all()
}

fn sync_dir(dir: &Path) -> std::io::Result<()> {
    // Opening a directory read-only is the POSIX way to fsync it; on
    // filesystems that refuse, durability of the rename cannot be
    // guaranteed and the error surfaces rather than being swallowed.
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("reduce-artifact-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn writes_and_overwrites_with_no_tmp_left_behind() {
        let dir = scratch_dir("basic");
        let path = dir.join("nested").join("out.json");
        write_atomic(&path, "{\"v\":1}").expect("first write");
        assert_eq!(
            std::fs::read_to_string(&path).expect("readable"),
            "{\"v\":1}"
        );
        write_atomic(&path, "{\"v\":2}").expect("overwrite");
        assert_eq!(
            std::fs::read_to_string(&path).expect("readable"),
            "{\"v\":2}"
        );
        assert!(
            !path.with_file_name("out.json.tmp").exists(),
            "temporary file must be renamed away"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pathological_paths_are_typed_errors() {
        let err = write_atomic(Path::new("/"), "x").expect_err("no file name");
        assert!(matches!(err, ReduceError::InvalidConfig { .. }));
        let dir = scratch_dir("errors");
        let blocked = dir.join("is-a-dir");
        std::fs::create_dir_all(&blocked).expect("dir");
        let err = write_atomic(&blocked, "x").expect_err("cannot rename over a directory");
        assert!(err.to_string().contains("is-a-dir"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durability_ordering_is_write_sync_rename_syncdir() {
        let dir = scratch_dir("ordering");
        let io = Arc::new(FaultyIo::counting(&dir));
        let _guard = install_io_policy(IoPolicy::Faulty(io.clone()));
        let path = dir.join("deep").join("out.json");
        write_atomic(&path, "{\"v\":1}").expect("write");
        let ops: Vec<IoOp> = io.trace().into_iter().map(|(op, _)| op).collect();
        assert_eq!(
            ops,
            vec![
                IoOp::CreateDir,
                IoOp::WriteTemp,
                IoOp::SyncTemp,
                IoOp::Rename,
                IoOp::SyncDir,
            ],
            "the temp file must be synced before the rename and the parent \
             directory after it"
        );
        assert_eq!(io.ops_seen(), 5);
        assert!(!io.fired());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn out_of_scope_paths_bypass_the_faulty_backend() {
        let dir = scratch_dir("scope-a");
        let other = scratch_dir("scope-b");
        let io = Arc::new(FaultyIo::armed(&dir, 1, 0, FaultKind::Enospc));
        let _guard = install_io_policy(IoPolicy::Faulty(io.clone()));
        // A write outside the scope is untouched and uncounted.
        write_atomic(&other.join("fine.json"), "{}").expect("out of scope");
        assert_eq!(io.ops_seen(), 0);
        // The scoped write hits the armed fault at op 0.
        let err = write_atomic(&dir.join("doomed.json"), "{}").expect_err("fault fires");
        assert!(err.to_string().contains("io fault injected"), "{err}");
        assert!(io.fired());
        // After the fault, the backend is offline for the scope…
        let err = write_atomic(&dir.join("later.json"), "{}").expect_err("offline");
        assert!(err.to_string().contains("backend offline"), "{err}");
        // …but still transparent outside it.
        write_atomic(&other.join("fine2.json"), "{}").expect("still out of scope");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&other).ok();
    }

    #[test]
    fn fault_kinds_have_their_documented_side_effects() {
        // Torn at the rename op (index 3 after create-dir/write/sync):
        // the destination holds a strict prefix of the payload.
        let dir = scratch_dir("torn");
        let payload = "0123456789abcdef0123456789abcdef";
        let path = dir.join("torn.json");
        let err = write_atomic_with(
            &IoPolicy::Faulty(Arc::new(FaultyIo::armed(&dir, 42, 3, FaultKind::Torn))),
            &path,
            payload,
        )
        .expect_err("torn rename fails");
        assert!(err.to_string().contains("torn write"), "{err}");
        let on_disk = std::fs::read_to_string(&path).unwrap_or_default();
        assert!(on_disk.len() < payload.len(), "must be a strict prefix");
        assert!(payload.starts_with(&on_disk));
        assert!(!path.with_file_name("torn.json.tmp").exists());

        // Short at the write op: destination untouched, temp torn.
        let path2 = dir.join("short.json");
        let err = write_atomic_with(
            &IoPolicy::Faulty(Arc::new(FaultyIo::armed(&dir, 7, 1, FaultKind::Short))),
            &path2,
            payload,
        )
        .expect_err("short write fails");
        assert!(err.to_string().contains("short write"), "{err}");
        assert!(!path2.exists(), "destination never published");

        // ENOSPC: typed storage-full error, nothing written.
        let path3 = dir.join("full.json");
        let err = write_atomic_with(
            &IoPolicy::Faulty(Arc::new(FaultyIo::armed(&dir, 7, 1, FaultKind::Enospc))),
            &path3,
            payload,
        )
        .expect_err("enospc fails");
        assert!(err.to_string().contains("no space left"), "{err}");
        assert!(!path3.exists());

        // Failed rename: temp survives, destination untouched.
        let path4 = dir.join("rn.json");
        let err = write_atomic_with(
            &IoPolicy::Faulty(Arc::new(FaultyIo::armed(&dir, 7, 3, FaultKind::RenameFail))),
            &path4,
            payload,
        )
        .expect_err("rename fails");
        assert!(err.to_string().contains("rename failed"), "{err}");
        assert!(!path4.exists());
        assert!(path4.with_file_name("rn.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_kind_names_round_trip() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.name()).expect("parses"), kind);
        }
        assert!(FaultKind::parse("gamma-ray").is_err());
    }
}
