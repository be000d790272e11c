//! Checkpoint journal — the pipeline's crash-recovery log.
//!
//! A [`Checkpoint`] records every *sealed* job outcome (a finished grid
//! cell or fleet batch, successful or quarantined) as one framed JSON
//! line. The journal format (version 3, the only one this code reads or
//! writes) splits the journal into fixed-size *shard* segments:
//! `journal.jsonl` holds only a one-line manifest naming the shard size
//! and each sealed shard's whole-file digest, and records live in
//! `journal-00000.jsonl`, `journal-00001.jsonl`, … files beside it. Each
//! append atomically rewrites only the active shard (through
//! [`crate::artifact::write_atomic`]), so the I/O cost of sealing a job is
//! bounded by the shard size — not by the total number of records — while
//! a killed process still always leaves a complete, parseable journal: the
//! worst case loses the in-flight jobs, never corrupts the finished ones.
//! The shard size therefore sets what an append costs: a shard of `n`
//! records is rewritten `n` times before it seals, so the bytes written
//! per shard grow as `n²` ([`DEFAULT_SHARD_RECORDS`] says why it is 32).
//!
//! # Integrity framing
//!
//! Every line is framed as `CCCCCCCC LEN JSON\n`: eight lowercase hex
//! digits of the payload's CRC-32 (IEEE), the payload's byte length in
//! decimal, one space, and the JSON payload. A sealed shard ends with a
//! framed footer `{"footer":"reduce-shard","records":N}` asserting its
//! record count, and the (itself framed) manifest records each sealed
//! shard's whole-file CRC-32 digest. The shard is sealed on disk *before*
//! the manifest names it, so a crash between the two leaves a footered
//! shard the manifest lags behind — resume detects and heals that without
//! data loss. A single flipped or lost byte anywhere in a journal is
//! therefore *detected* (frame length, frame CRC, footer count, or
//! manifest digest), never silently replayed: without the frames a torn
//! tail is indistinguishable from damage in the middle, and a bitflip
//! that keeps the JSON valid is silently wrong data.
//!
//! # Self-healing resume
//!
//! [`Checkpoint::resume`] (and [`Checkpoint::resume_observed`], which
//! reports healing through a [`crate::telemetry::Observer`]) verifies the
//! journal on open. Damage confined to the journal's *tail* — a torn
//! final shard write, trailing garbage, a detected bitflip with no valid
//! record after it — is healed by truncating back to the last valid
//! record, emitting [`Event::ShardTruncated`] / [`Event::RecordDropped`]
//! (one per discarded record slot, not per damaged line), and the dropped
//! jobs are simply recomputed. Damage in the *middle* — where truncation
//! would silently discard valid completed work after the damage — is a
//! typed [`ReduceError::JournalCorrupt`] naming the shard, record, and
//! [`crate::error::CorruptKind`]; `journal-tool repair`
//! ([`repair_journal`]) performs the explicit truncation. Two whole-file
//! checks are treated the same way: a sealed shard whose content digest
//! disagrees with the manifest (every record may verify individually, but
//! the content is not what the manifest committed to — repair adopts it
//! and recomputes the digest), and an unreadable manifest whose shard
//! files contain no framed line at all (a pre-v3 journal, whose bare-JSON
//! manifest and unframed lines are not frames, or not a journal — never
//! adopted and truncated as an empty one). Resume never panics on journal
//! bytes and never replays a record that fails verification.
//!
//! On `--resume`, [`Checkpoint::resume`] reloads the journal and the
//! resumable entry points ([`crate::ResilienceAnalysis::run_resumable`],
//! [`crate::FleetEvaluation::run`]) convert each recorded outcome once and
//! hand it to the executor's one resume driver, which replays it —
//! including its buffered telemetry events, re-emitted bit-identically —
//! in place of the job and computes only the missing jobs. Each fresh
//! job appends its own record from the worker thread that sealed it.
//! Records carry the stable job id the
//! retry/chaos layer keys on, so a resumed run salts and injects exactly
//! like an uninterrupted one.
//!
//! Journal lines are written in *completion* order, which depends on
//! thread scheduling; determinism lives in the replayed artifacts (run
//! log, manifest, CSVs), not in the journal files themselves.

use crate::artifact::write_atomic;
use crate::error::{CorruptKind, ReduceError, Result};
use crate::fleet::{ChipOutcome, QuarantinedChip, SealedChip};
use crate::resilience::ResiliencePoint;
use crate::telemetry::json::{parse, push_json_f32, push_json_f64, push_json_string, JsonValue};
use crate::telemetry::{parse_event, render_event, Event, NullObserver, Observer};
use reduce_nn::WorkspaceStats;
use reduce_systolic::Cluster;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Default records per shard segment. Every append rewrites the whole
/// active shard, so this size is what one append costs. The streaming
/// fleet journals one record per 32-chip batch (about 12.6 KB for the
/// toy workbench), so 32 records — one default 1 024-chip intake window
/// — keep the largest rewrite near 400 KB, where 256 records grew it to
/// 3.2 MB and wrote each shard's bytes about 110 times over. The price is
/// more seals, each one more manifest write (five artifact IO ops, two
/// fsyncs). A resumed journal keeps the size its manifest names.
pub const DEFAULT_SHARD_RECORDS: usize = 32;

/// CRC-32 (IEEE 802.3, the `cksum`/zlib polynomial), bit-reflected, one
/// table lookup per byte. A fleet batch line is about 12.6 KB and resume
/// runs the CRC over each shard twice (its frames, then its whole-file
/// digest), so the eight shift steps per byte of a bitwise loop show up.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        // xtask:allow(index): a `u8` index always lies inside the 256-entry table
        crc = (crc >> 8) ^ CRC32_TABLE[usize::from(crc as u8 ^ b)];
    }
    !crc
}

/// `CRC32_TABLE[n]`: the CRC register after byte `n` is shifted through
/// the eight steps of the bitwise loop.
const CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut crc = n as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        // xtask:allow(index): the loop bound keeps `n` below the table's 256 entries
        table[n] = crc;
        n += 1;
    }
    table
}

/// Frames a JSON payload as one v3 journal line:
/// `CCCCCCCC LEN JSON\n`.
fn frame_line(json: &str) -> String {
    format!("{:08x} {} {json}\n", crc32(json.as_bytes()), json.len())
}

/// Unframes one v3 line (without trailing newline), verifying the CRC and
/// length. Returns the JSON payload.
fn parse_frame(line: &str) -> std::result::Result<&str, CorruptKind> {
    let (crc_hex, rest) = line.split_once(' ').ok_or(CorruptKind::BadFrame)?;
    if crc_hex.len() != 8
        || crc_hex
            .bytes()
            .any(|b| !b.is_ascii_hexdigit() || b.is_ascii_uppercase())
    {
        return Err(CorruptKind::BadFrame);
    }
    let crc = u32::from_str_radix(crc_hex, 16).map_err(|_| CorruptKind::BadFrame)?;
    let (len_str, payload) = rest.split_once(' ').ok_or(CorruptKind::BadFrame)?;
    if len_str.is_empty() || len_str.bytes().any(|b| !b.is_ascii_digit()) {
        return Err(CorruptKind::BadFrame);
    }
    let len: usize = len_str.parse().map_err(|_| CorruptKind::BadFrame)?;
    if payload.len() != len {
        return Err(CorruptKind::BadFrame);
    }
    if crc32(payload.as_bytes()) != crc {
        return Err(CorruptKind::BadCrc);
    }
    Ok(payload)
}

fn render_footer(records: usize) -> String {
    frame_line(&format!(
        "{{\"footer\":\"reduce-shard\",\"records\":{records}}}"
    ))
}

/// `Some(record count)` if the (already unframed) payload is a shard
/// footer.
fn parse_footer(payload: &str) -> Option<usize> {
    let value = parse(payload).ok()?;
    if value.field("footer").and_then(JsonValue::as_str) != Some("reduce-shard") {
        return None;
    }
    value.field("records").and_then(JsonValue::as_usize)
}

fn render_manifest(shard_records: usize, sealed: &[String]) -> String {
    let mut json = format!(
        "{{\"journal\":\"reduce-journal\",\"version\":3,\"shard_records\":{shard_records},\"sealed\":["
    );
    for (i, digest) in sealed.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push('"');
        json.push_str(digest);
        json.push('"');
    }
    json.push_str("]}");
    frame_line(&json)
}

/// `Some((shard_records, sealed digests))` if the (already unframed)
/// payload is a manifest.
fn parse_manifest(payload: &str) -> Option<(usize, Vec<String>)> {
    let value = parse(payload).ok()?;
    if value.field("journal").and_then(JsonValue::as_str) != Some("reduce-journal") {
        return None;
    }
    if value.field("version").and_then(JsonValue::as_u64) != Some(3) {
        return None;
    }
    let shard_records = value
        .field("shard_records")
        .and_then(JsonValue::as_usize)
        .filter(|&n| n > 0)?;
    let sealed = match value.field("sealed") {
        Some(JsonValue::Arr(items)) => items
            .iter()
            .map(|d| d.as_str().map(str::to_string))
            .collect::<Option<Vec<String>>>()?,
        _ => return None,
    };
    Some((shard_records, sealed))
}

fn shard_digest(contents: &str) -> String {
    format!("{:08x}", crc32(contents.as_bytes()))
}

fn shard_path(manifest: &Path, index: usize) -> PathBuf {
    let stem = manifest.file_stem().map_or_else(
        || "journal".to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    manifest.with_file_name(format!("{stem}-{index:05}.jsonl"))
}

/// One sealed job outcome in the journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A completed resilience-grid cell.
    Point {
        /// Stable job id (full-grid linear index) the cell was salted with.
        job: u64,
        /// The measured point.
        point: ResiliencePoint,
        /// The cell's model-workspace counters (for the stage aggregate).
        workspace: WorkspaceStats,
        /// The cell's buffered telemetry events, in emission order.
        events: Vec<Event>,
    },
    /// A grid cell that exhausted its retry budget.
    PointFailed {
        /// Stable job id (full-grid linear index).
        job: u64,
        /// Rate index of the failed cell.
        rate_index: usize,
        /// Fault rate of the failed cell.
        rate: f64,
        /// Repeat index of the failed cell.
        repeat: usize,
        /// Attempts consumed (budget + 1).
        attempts: u32,
        /// The final attempt's error.
        error: String,
        /// The cell's failure telemetry, in emission order.
        events: Vec<Event>,
    },
    /// One sealed batch of the streaming fleet evaluator: every chip the
    /// epoch-budget scheduler ran through one shared workspace, with the
    /// batch's pooled workspace counters and buffered telemetry. The
    /// `(policy, window, budget, chunk)` key is a pure function of the
    /// evaluation config, so a resumed run recomputes the same batches and
    /// replays the sealed ones.
    FleetBatch {
        /// Label of the policy the batch was retrained under (one journal
        /// can hold several policies' batches, as `fig3` sweeps them).
        policy: String,
        /// Intake-window index the batch belongs to.
        window: usize,
        /// The epoch budget shared by every chip in the batch.
        budget: usize,
        /// Chunk index within the window's budget group.
        chunk: usize,
        /// Fault-similarity clusters the batch formed (empty for per-chip
        /// runs).
        clusters: Vec<Cluster>,
        /// Sealed per-chip fates, in ascending chip-id order.
        chips: Vec<SealedChip>,
        /// The batch's pooled-workspace counters.
        workspace: WorkspaceStats,
        /// The batch's buffered telemetry events, in emission order.
        events: Vec<Event>,
    },
}

/// Cumulative journal-write accounting for this process: the evidence that
/// per-append I/O is bounded by the shard size, not the journal length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Appends performed (replayed records don't count).
    pub appends: u64,
    /// Total bytes handed to the atomic writer across all appends.
    pub bytes_written: u64,
    /// Largest single append's bytes — bounded by one shard's rendered
    /// size plus the manifest.
    pub max_append_bytes: u64,
}

/// In-memory state of the on-disk layout: a manifest at the journal path
/// and CRC-framed records in fixed-size, footered shard segments beside
/// it.
struct Store {
    /// Records per shard segment.
    shard_records: usize,
    /// Whether the manifest file exists on disk yet (it is written lazily
    /// with the first append).
    manifest_written: bool,
    /// Whole-file digest of each sealed shard, in shard order; the active
    /// shard's index is `sealed.len()`.
    sealed: Vec<String>,
    /// The active (partial) shard's framed lines, exactly as on disk.
    active: String,
    /// Records in `active`.
    active_records: usize,
}

struct CheckpointState {
    records: Vec<JournalRecord>,
    store: Store,
    io: IoStats,
}

/// An append-only journal of sealed job outcomes backed by an atomically
/// maintained manifest-plus-shards layout.
///
/// Appends are serialised through an internal mutex, so a `Checkpoint` can
/// be shared by the executor's worker threads: each Step ① cell and each
/// fleet batch journals its sealed output from the job that produced it.
pub struct Checkpoint {
    path: PathBuf,
    state: Mutex<CheckpointState>,
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl Checkpoint {
    /// A fresh journal whose manifest lives at `path`. Nothing is written
    /// until the first [`Checkpoint::append`].
    pub fn create(path: &Path) -> Self {
        Checkpoint {
            path: path.to_path_buf(),
            state: Mutex::new(CheckpointState {
                records: Vec::new(),
                store: Store {
                    shard_records: DEFAULT_SHARD_RECORDS,
                    manifest_written: false,
                    sealed: Vec::new(),
                    active: String::new(),
                    active_records: 0,
                },
                io: IoStats::default(),
            }),
        }
    }

    /// Overrides the records-per-shard size of a fresh journal. Must be
    /// called before the first append; ignored once the manifest is on
    /// disk (resumed journals keep the shard size they were created with).
    /// Zero is ignored.
    #[must_use]
    pub fn with_shard_records(self, n: usize) -> Self {
        if n > 0 {
            if let Ok(mut state) = self.state.lock() {
                let store = &mut state.store;
                if !store.manifest_written && store.active_records == 0 {
                    store.shard_records = n;
                }
            }
        }
        self
    }

    /// Reloads the journal at `path`, verifying the manifest and every
    /// shard's frames, footers, and digests; a missing file is an empty
    /// journal (resuming a run that was killed before its first
    /// checkpoint).
    ///
    /// Healable tail damage is truncated away silently — use
    /// [`Checkpoint::resume_observed`] to watch it happen.
    ///
    /// # Errors
    ///
    /// [`ReduceError::JournalCorrupt`] when damage sits in the *middle*
    /// of the journal (valid records exist after it, so truncation would
    /// silently discard completed work — [`repair_journal`] performs it
    /// explicitly), when a sealed shard's content digest disagrees with
    /// the manifest, or when nothing in the directory is recognisably a
    /// v3 journal (a pre-v3 journal is refused this way, with
    /// [`CorruptKind::Manifest`], and left untouched);
    /// [`ReduceError::InvalidConfig`] for an unreadable file.
    pub fn resume(path: &Path) -> Result<Self> {
        Self::resume_observed(path, &NullObserver)
    }

    /// [`Checkpoint::resume`], reporting any self-healing through
    /// `observer`: one [`Event::ShardTruncated`] per truncated shard and
    /// one [`Event::RecordDropped`] per discarded record slot.
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::resume`].
    pub fn resume_observed(path: &Path, observer: &dyn Observer) -> Result<Self> {
        let Some(scan) = scan_journal(path)? else {
            return Ok(Self::create(path));
        };
        scan.corrupt_error()?;
        let healed = heal_journal(path, scan, observer)?;
        Ok(Checkpoint {
            path: path.to_path_buf(),
            state: Mutex::new(CheckpointState {
                records: healed.records,
                store: healed.store,
                io: IoStats::default(),
            }),
        })
    }

    /// The journal manifest path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn lock(&self) -> Result<std::sync::MutexGuard<'_, CheckpointState>> {
        self.state.lock().map_err(|_| ReduceError::Internal {
            invariant: "journal appends must not panic while holding the lock".to_string(),
        })
    }

    /// All records currently in the journal (replayed + appended).
    ///
    /// # Errors
    ///
    /// [`ReduceError::Internal`] if the journal lock was poisoned.
    pub fn records(&self) -> Result<Vec<JournalRecord>> {
        Ok(self.lock()?.records.clone())
    }

    /// This process's cumulative append-I/O accounting.
    ///
    /// # Errors
    ///
    /// [`ReduceError::Internal`] if the journal lock was poisoned.
    pub fn io_stats(&self) -> Result<IoStats> {
        Ok(self.lock()?.io)
    }

    /// Appends one sealed outcome, atomically rewriting only the active
    /// shard so the on-disk journal is complete after every append. The
    /// record is rendered and framed before the lock is taken, so
    /// concurrent appenders serialise only on the push and the writes,
    /// and records keep one order in memory and on disk.
    ///
    /// # Errors
    ///
    /// Propagates the atomic write's error; callers treat a failed
    /// checkpoint as fatal (the resume contract would otherwise be
    /// silently broken).
    pub fn append(&self, record: JournalRecord) -> Result<()> {
        let line = frame_line(&render_record(&record));
        let mut state = self.lock()?;
        state.records.push(record);
        let store = &mut state.store;
        let mut bytes: u64 = 0;
        if !store.manifest_written {
            let manifest = render_manifest(store.shard_records, &store.sealed);
            bytes += manifest.len() as u64;
            write_atomic(&self.path, &manifest)?;
            store.manifest_written = true;
        }
        store.active.push_str(&line);
        store.active_records += 1;
        let shard = shard_path(&self.path, store.sealed.len());
        if store.active_records >= store.shard_records {
            // Seal: the footered shard goes to disk *before* the manifest
            // that names its digest — a crash between the two leaves a
            // footered shard resume detects and adopts without data loss.
            let body = store.active.len();
            store.active.push_str(&render_footer(store.active_records));
            bytes += store.active.len() as u64;
            if let Err(e) = write_atomic(&shard, &store.active) {
                store.active.truncate(body);
                return Err(e);
            }
            store.sealed.push(shard_digest(&store.active));
            store.active.clear();
            store.active_records = 0;
            let manifest = render_manifest(store.shard_records, &store.sealed);
            bytes += manifest.len() as u64;
            write_atomic(&self.path, &manifest)?;
        } else {
            bytes += store.active.len() as u64;
            write_atomic(&shard, &store.active)?;
        }
        state.io.appends += 1;
        state.io.bytes_written += bytes;
        state.io.max_append_bytes = state.io.max_append_bytes.max(bytes);
        Ok(())
    }
}

/// Read-only verification scan of one shard file.
struct ShardScan {
    /// Whether the file exists (`false` only for manifest-named shards
    /// whose file is gone).
    exists: bool,
    /// File length in bytes.
    bytes: usize,
    /// The valid record prefix: `(on-disk line incl. newline, record)`.
    valid: Vec<(String, JournalRecord)>,
    /// Footer record-count, when a well-formed footer follows the valid
    /// prefix.
    footer: Option<usize>,
    /// First damage: `(record index, kind)`. Record index equals the
    /// valid-prefix length at the point of damage.
    damage: Option<(usize, CorruptKind)>,
    /// Fully valid record lines found *after* the damage — if nonzero,
    /// truncation would discard completed work (corrupt middle).
    valid_after: usize,
    /// Cleanly sealed (the footer verifies).
    sealed: bool,
    /// Footered but absent from the manifest (crash between the shard
    /// seal and the manifest update) — healed by adding its digest.
    needs_manifest_entry: bool,
    /// The manifest's digest disagrees with an otherwise-valid sealed
    /// shard. The append path's ordered seal protocol never leaves this
    /// behind (the footered shard reaches disk *before* the manifest
    /// names it), so the content is not what the manifest committed to —
    /// a wholesale-replaced shard, a restored backup, or a crash in the
    /// middle of an earlier repair. Resume refuses with
    /// [`CorruptKind::DigestMismatch`]; [`repair_journal`] adopts the
    /// shard and recomputes the digest (per-record CRCs are
    /// authoritative).
    digest_mismatch: bool,
    /// Lines whose `CRC LEN payload` frame structure parsed (CRC match
    /// or not). Zero across a contentful directory means the files are
    /// not recognisably v3 at all — a pre-v3 journal, whose unframed
    /// lines never parse as frames, or not a journal — and must not be
    /// adopted (and truncated) as an empty journal.
    framed_lines: usize,
    /// Whole-file CRC-32 digest, as eight hex digits.
    digest: String,
}

impl ShardScan {
    fn empty(exists: bool, bytes: usize) -> Self {
        ShardScan {
            exists,
            bytes,
            valid: Vec::new(),
            footer: None,
            damage: None,
            valid_after: 0,
            sealed: false,
            needs_manifest_entry: false,
            digest_mismatch: false,
            framed_lines: 0,
            digest: String::new(),
        }
    }

    fn missing() -> Self {
        let mut scan = Self::empty(false, 0);
        scan.damage = Some((0, CorruptKind::MissingShard));
        scan
    }

    fn has_content(&self) -> bool {
        !self.valid.is_empty() || self.valid_after > 0
    }

    /// Dropped lines that held (or were torn from) records: the fully
    /// valid records stranded after the damage point, plus the
    /// damage-point line itself when it failed *record* verification (a
    /// torn or corrupted record slot). Garbage and footer lines beyond
    /// those are dropped bytes, not dropped records —
    /// [`Event::RecordDropped`] is emitted once per slot counted here.
    fn dropped_record_slots(&self) -> usize {
        let torn = matches!(
            self.damage,
            Some((
                _,
                CorruptKind::BadFrame | CorruptKind::BadCrc | CorruptKind::BadRecord
            ))
        );
        self.valid_after + usize::from(torn)
    }
}

/// Splits a file into lines, dropping only the trailing empty segment
/// after a final newline (empty lines elsewhere are real content).
fn split_file_lines(bytes: &[u8]) -> Vec<&[u8]> {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if lines.last().is_some_and(|l| l.is_empty()) {
        lines.pop();
    }
    lines
}

/// Scans one shard: framed lines, optionally terminated by a footer.
fn scan_shard(bytes: &[u8]) -> ShardScan {
    enum Line<'a> {
        Footer(usize),
        Rec(&'a str, JournalRecord),
        Bad(CorruptKind),
    }
    let mut scan = ShardScan::empty(true, bytes.len());
    scan.digest = format!("{:08x}", crc32(bytes));
    for raw in split_file_lines(bytes) {
        let line = match std::str::from_utf8(raw) {
            Ok(line) => match parse_frame(line) {
                Ok(payload) => {
                    scan.framed_lines += 1;
                    match parse_footer(payload) {
                        Some(n) => Line::Footer(n),
                        None => match parse_record(payload) {
                            Some(r) => Line::Rec(line, r),
                            None => Line::Bad(CorruptKind::BadRecord),
                        },
                    }
                }
                Err(kind) => {
                    // A CRC mismatch still means the frame *structure*
                    // parsed — only a framed line fails that way.
                    if kind == CorruptKind::BadCrc {
                        scan.framed_lines += 1;
                    }
                    Line::Bad(kind)
                }
            },
            Err(_) => Line::Bad(CorruptKind::BadFrame),
        };
        if scan.damage.is_none() {
            match line {
                Line::Footer(n) if scan.footer.is_none() => scan.footer = Some(n),
                Line::Footer(_) => {
                    scan.damage = Some((scan.valid.len(), CorruptKind::BadFooter));
                }
                Line::Rec(line, r) if scan.footer.is_none() => {
                    scan.valid.push((format!("{line}\n"), r));
                }
                Line::Rec(..) => {
                    // A record after the footer: trailing garbage at best,
                    // a misplaced seal at worst.
                    scan.damage = Some((scan.valid.len(), CorruptKind::BadFooter));
                    scan.valid_after += 1;
                }
                Line::Bad(kind) => {
                    scan.damage = Some((scan.valid.len(), kind));
                }
            }
        } else if matches!(line, Line::Rec(..)) {
            scan.valid_after += 1;
        }
    }
    scan
}

/// The full verification scan [`Checkpoint::resume_observed`],
/// [`inspect_journal`], and [`repair_journal`] share.
struct JournalScan {
    /// Records per shard.
    shard_records: usize,
    /// Number of sealed digests the manifest names.
    manifest_sealed: usize,
    /// `Some` when the manifest itself is unreadable (rebuilt from the
    /// shard files when any exist).
    manifest_damage: Option<CorruptKind>,
    manifest_bytes: usize,
    shards: Vec<ShardScan>,
}

impl JournalScan {
    fn first_damage(&self) -> Option<(usize, usize, CorruptKind)> {
        self.shards
            .iter()
            .enumerate()
            .find_map(|(i, s)| s.damage.map(|(r, k)| (i, r, k)))
    }

    /// Errors out for damage self-healing must not touch: a missing
    /// sealed shard, valid records after the damage point, a sealed
    /// shard whose content digest disagrees with the manifest, or a
    /// manifest that is unreadable with no framed shard content to
    /// rebuild it from — a pre-v3 journal (or a non-journal) must never
    /// be adopted, and truncated, as an empty one.
    fn corrupt_error(&self) -> Result<()> {
        if self.manifest_damage.is_some() && self.shards.iter().all(|s| s.framed_lines == 0) {
            return Err(ReduceError::JournalCorrupt {
                shard: 0,
                record: 0,
                kind: CorruptKind::Manifest,
            });
        }
        if let Some(shard) = self.shards.iter().position(|s| s.digest_mismatch) {
            return Err(ReduceError::JournalCorrupt {
                shard,
                record: 0,
                kind: CorruptKind::DigestMismatch,
            });
        }
        if let Some((shard, record, kind)) = self.first_damage() {
            let valid_after = self.shards.get(shard).is_some_and(|s| s.valid_after > 0)
                || self
                    .shards
                    .iter()
                    .skip(shard + 1)
                    .any(ShardScan::has_content);
            if valid_after || kind == CorruptKind::MissingShard {
                return Err(ReduceError::JournalCorrupt {
                    shard,
                    record,
                    kind,
                });
            }
        }
        Ok(())
    }

    fn needs_heal(&self) -> bool {
        self.first_damage().is_some()
            || self.manifest_damage.is_some()
            || self
                .shards
                .iter()
                .any(|s| s.needs_manifest_entry || s.digest_mismatch)
    }
}

/// Largest index for which a shard file of `manifest` exists, found by
/// listing the journal's directory — shard numbering can be left gapped
/// by tampering or a restored backup, and a purely sequential probe
/// would stop at the first hole. `None` when no shard file exists (or
/// the directory cannot be read; scanning then covers only the
/// manifest-named range).
fn last_shard_on_disk(manifest: &Path) -> Option<usize> {
    let dir = match manifest.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let stem = manifest.file_stem().map_or_else(
        || "journal".to_string(),
        |s| s.to_string_lossy().into_owned(),
    );
    let prefix = format!("{stem}-");
    let mut last = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(digits) = name
            .strip_prefix(&prefix)
            .and_then(|rest| rest.strip_suffix(".jsonl"))
        else {
            continue;
        };
        if digits.len() < 5 || digits.bytes().any(|b| !b.is_ascii_digit()) {
            continue;
        }
        if let Ok(index) = digits.parse::<usize>() {
            last = Some(last.map_or(index, |l: usize| l.max(index)));
        }
    }
    last
}

/// Reads and scans every shard file of the journal at `path`: the
/// manifest-named range plus anything numbered beyond it on disk, with
/// [`ShardScan::missing`] placeholders for holes — so contentful files
/// past a numbering gap surface as orphans (refused by resume, removed
/// by explicit repair) instead of being silently ignored and eventually
/// overwritten by the writer. Trailing placeholders and empty files
/// beyond the named range are harmless and dropped from the scan.
fn scan_shard_files(path: &Path, named: usize) -> Result<Vec<ShardScan>> {
    let last_on_disk = last_shard_on_disk(path);
    let mut shards = Vec::new();
    let mut index = 0;
    while index < named || last_on_disk.is_some_and(|last| index <= last) {
        let shard = shard_path(path, index);
        match std::fs::read(&shard) {
            Ok(bytes) => shards.push(scan_shard(&bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                shards.push(ShardScan::missing());
            }
            Err(e) => {
                return Err(ReduceError::InvalidConfig {
                    what: format!("cannot read journal shard {}: {e}", shard.display()),
                })
            }
        }
        index += 1;
    }
    while shards.len() > named && shards.last().is_some_and(|s| !s.exists || s.bytes == 0) {
        shards.pop();
    }
    Ok(shards)
}

/// After per-shard classification: anything following the first unsealed
/// shard is orphaned — it must not be adopted as sealed, and content
/// there makes the unsealed shard a corrupt middle.
fn mark_orphans(shards: &mut [ShardScan]) {
    let Some(t) = shards.iter().position(|s| !s.sealed) else {
        return;
    };
    // `t` comes from `position`, so the split never panics.
    let Some((trunc, rest)) = shards.split_at_mut(t).1.split_first_mut() else {
        return;
    };
    if rest.iter().any(ShardScan::has_content) && trunc.damage.is_none() {
        trunc.damage = Some((trunc.valid.len(), CorruptKind::MissingShard));
    }
    for s in rest {
        s.sealed = false;
        s.needs_manifest_entry = false;
    }
}

/// Scans the journal at `path`. `Ok(None)` means the journal file does
/// not exist (an empty journal).
///
/// # Errors
///
/// [`ReduceError::InvalidConfig`] for filesystem read failures.
fn scan_journal(path: &Path) -> Result<Option<JournalScan>> {
    let manifest_bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(ReduceError::InvalidConfig {
                what: format!("cannot read journal {}: {e}", path.display()),
            })
        }
    };
    let manifest = std::str::from_utf8(&manifest_bytes).ok().and_then(|text| {
        let (first, rest) = text.split_once('\n').unwrap_or((text, ""));
        if !rest.trim().is_empty() {
            return None; // a manifest is exactly one line
        }
        parse_frame(first).ok().and_then(parse_manifest)
    });
    let (mut shard_records, digests, manifest_damage) = match manifest {
        Some((shard_records, digests)) => (shard_records, digests, None),
        None => (0, Vec::new(), Some(CorruptKind::Manifest)),
    };
    let mut shards = scan_shard_files(path, digests.len())?;
    for (i, shard) in shards.iter_mut().enumerate() {
        if !shard.exists || shard.damage.is_some() {
            continue;
        }
        match shard.footer {
            Some(n) if n == shard.valid.len() => {
                shard.sealed = true;
                match digests.get(i) {
                    Some(named) if *named == shard.digest => {}
                    Some(_) => shard.digest_mismatch = true,
                    None => shard.needs_manifest_entry = true,
                }
            }
            Some(_) => shard.damage = Some((shard.valid.len(), CorruptKind::BadFooter)),
            None if i < digests.len() => {
                shard.damage = Some((shard.valid.len(), CorruptKind::BadFooter));
            }
            None => {} // the active shard
        }
    }
    mark_orphans(&mut shards);
    if shard_records == 0 {
        // Manifest being rebuilt: recover the shard size from a footer.
        shard_records = shards
            .iter()
            .find_map(|s| s.footer.filter(|&n| n > 0))
            .unwrap_or(DEFAULT_SHARD_RECORDS);
    }
    Ok(Some(JournalScan {
        shard_records,
        manifest_sealed: digests.len(),
        manifest_damage,
        manifest_bytes: manifest_bytes.len(),
        shards,
    }))
}

/// The healed in-memory layout [`heal_journal`] hands back to resume.
struct HealedLayout {
    records: Vec<JournalRecord>,
    store: Store,
    kept: usize,
    dropped_records: usize,
    dropped_bytes: usize,
}

/// Truncates the journal at the first damage point (rewriting files as
/// needed), brings the manifest back in sync, and reports what happened
/// through `observer`. Callers enforcing the tail-only rule run
/// [`JournalScan::corrupt_error`] first; [`repair_journal`] calls this
/// unconditionally.
fn heal_journal(path: &Path, scan: JournalScan, observer: &dyn Observer) -> Result<HealedLayout> {
    let JournalScan {
        shard_records,
        manifest_sealed,
        manifest_damage,
        shards,
        ..
    } = scan;
    let shard_count = shards.len();
    let damage_shard = shards.iter().position(|s| s.damage.is_some());
    let mut records = Vec::new();
    let mut dropped_records = 0usize;
    let mut dropped_bytes = 0usize;

    let mut sealed_digests: Vec<String> = Vec::new();
    let mut active = String::new();
    let mut active_records = 0usize;
    let mut manifest_dirty = manifest_damage.is_some();
    for (i, shard) in shards.into_iter().enumerate() {
        if damage_shard == Some(i) {
            // Truncate this shard back to its valid record prefix.
            let dropped_slots = shard.dropped_record_slots();
            let kept_here = shard.valid.len();
            let mut contents = String::new();
            for (line, record) in shard.valid {
                contents.push_str(&line);
                records.push(record);
            }
            let resealable = kept_here == shard_records;
            if resealable {
                contents.push_str(&render_footer(kept_here));
            }
            write_atomic(&shard_path(path, i), &contents)?;
            manifest_dirty = true;
            let dropped = shard.bytes.saturating_sub(contents.len());
            if resealable {
                sealed_digests.push(shard_digest(&contents));
            } else {
                active = contents;
                active_records = kept_here;
            }
            observer.on_event(&Event::ShardTruncated {
                shard: i,
                kept: kept_here,
                dropped_bytes: dropped,
            });
            for record in kept_here..kept_here + dropped_slots {
                observer.on_event(&Event::RecordDropped { shard: i, record });
            }
            dropped_records += shard.valid_after;
            dropped_bytes += dropped;
        } else if damage_shard.is_some_and(|d| i > d) {
            // Everything after the truncation point is discarded. (Valid
            // content here only survives to this point under
            // [`repair_journal`] — resume's corrupt check refuses it.)
            dropped_records += shard.valid.len() + shard.valid_after;
            dropped_bytes += shard.bytes;
            manifest_dirty = true;
            if shard.exists {
                observer.on_event(&Event::ShardTruncated {
                    shard: i,
                    kept: 0,
                    dropped_bytes: shard.bytes,
                });
                for record in 0..shard.valid.len() + shard.dropped_record_slots() {
                    observer.on_event(&Event::RecordDropped { shard: i, record });
                }
                let _ = std::fs::remove_file(shard_path(path, i));
            }
        } else if shard.sealed {
            sealed_digests.push(shard.digest.clone());
            if shard.needs_manifest_entry || shard.digest_mismatch {
                manifest_dirty = true;
            }
            for (_, record) in shard.valid {
                records.push(record);
            }
        } else {
            // The clean active (partial) shard.
            active_records = shard.valid.len();
            for (line, record) in shard.valid {
                active.push_str(&line);
                records.push(record);
            }
        }
    }
    // Leftovers beyond the scanned range: the scan covered every
    // contentful shard on disk (contentful strays either entered the
    // shard list or refused resume upstream), so anything left here is
    // an empty file the trailing trim dropped — safe to clear.
    let mut stray = shard_count;
    while shard_path(path, stray).exists() {
        let _ = std::fs::remove_file(shard_path(path, stray));
        stray += 1;
    }
    if manifest_dirty || sealed_digests.len() != manifest_sealed {
        write_atomic(path, &render_manifest(shard_records, &sealed_digests))?;
    }
    let kept = records.len();
    Ok(HealedLayout {
        records,
        store: Store {
            shard_records,
            manifest_written: true,
            sealed: sealed_digests,
            active,
            active_records,
        },
        kept,
        dropped_records,
        dropped_bytes,
    })
}

fn record_kind_name(record: &JournalRecord) -> &'static str {
    match record {
        JournalRecord::Point { .. } => "point",
        JournalRecord::PointFailed { .. } => "point_failed",
        JournalRecord::FleetBatch { .. } => "fleet_batch",
    }
}

/// Verdict of [`inspect_journal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalStatus {
    /// Every frame, footer, and digest verifies; resume replays every
    /// record.
    Clean,
    /// Damage is confined to the journal's tail (or the manifest lags a
    /// sealed shard); resume heals it automatically, recomputing at most
    /// the dropped tail records.
    Healable,
    /// Damage sits in the middle: resume refuses with
    /// [`ReduceError::JournalCorrupt`]; [`repair_journal`] (or
    /// `journal-tool repair`) truncates explicitly.
    Corrupt,
}

impl JournalStatus {
    /// Stable lowercase name (the `journal-tool verify` output).
    pub fn name(self) -> &'static str {
        match self {
            JournalStatus::Clean => "clean",
            JournalStatus::Healable => "healable",
            JournalStatus::Corrupt => "corrupt",
        }
    }
}

/// Read-only integrity summary of a journal, produced by
/// [`inspect_journal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHealth {
    /// Records per shard segment.
    pub shard_records: usize,
    /// Cleanly sealed shard files.
    pub sealed_shards: usize,
    /// Records in the replayable valid prefix.
    pub records: usize,
    /// Valid-prefix record counts per kind, in first-seen order.
    pub kinds: Vec<(&'static str, usize)>,
    /// Total bytes across the manifest and every shard file.
    pub total_bytes: usize,
    /// Overall verdict.
    pub status: JournalStatus,
    /// Human-readable findings (empty when clean).
    pub notes: Vec<String>,
}

/// Verifies the journal at `path` without modifying anything — the
/// engine behind `journal-tool verify` and `stat`. A missing journal
/// file reports as an empty, clean journal.
///
/// # Errors
///
/// [`ReduceError::InvalidConfig`] for filesystem read failures;
/// corruption (including a pre-v3 journal, reported as
/// [`JournalStatus::Corrupt`]) is reported in the returned
/// [`JournalHealth`], not as an error.
pub fn inspect_journal(path: &Path) -> Result<JournalHealth> {
    let Some(scan) = scan_journal(path)? else {
        return Ok(JournalHealth {
            shard_records: DEFAULT_SHARD_RECORDS,
            sealed_shards: 0,
            records: 0,
            kinds: Vec::new(),
            total_bytes: 0,
            status: JournalStatus::Clean,
            notes: vec!["journal file does not exist (empty journal)".to_string()],
        });
    };
    let mut notes = Vec::new();
    if scan.manifest_damage.is_some() {
        if scan.shards.iter().any(|s| s.framed_lines > 0) {
            notes.push("manifest unreadable (rebuilt from shard files on heal)".to_string());
        } else {
            notes.push(
                "manifest unreadable and no shard content is v3-framed (a pre-v3 journal, \
                 or not a journal) — not adoptable; repair resets it"
                    .to_string(),
            );
        }
    }
    let damage_shard = scan.first_damage().map(|(i, _, _)| i);
    let mut records = 0usize;
    let mut kinds: Vec<(&'static str, usize)> = Vec::new();
    for (i, shard) in scan.shards.iter().enumerate() {
        if damage_shard.is_some_and(|d| i > d) {
            continue; // beyond the truncation point — not replayable
        }
        for (_, record) in &shard.valid {
            records += 1;
            let name = record_kind_name(record);
            match kinds.iter_mut().find(|(k, _)| *k == name) {
                Some((_, n)) => *n += 1,
                None => kinds.push((name, 1)),
            }
        }
        if let Some((record, kind)) = shard.damage {
            notes.push(format!("shard {i} record {record}: {kind}"));
        }
        if shard.needs_manifest_entry {
            notes.push(format!(
                "shard {i} sealed but not yet named in the manifest"
            ));
        }
        if shard.digest_mismatch {
            notes.push(format!(
                "shard {i}: content digest disagrees with the manifest"
            ));
        }
    }
    let status = if scan.corrupt_error().is_err() {
        JournalStatus::Corrupt
    } else if scan.needs_heal() {
        JournalStatus::Healable
    } else {
        JournalStatus::Clean
    };
    Ok(JournalHealth {
        shard_records: scan.shard_records,
        sealed_shards: scan.shards.iter().filter(|s| s.sealed).count(),
        records,
        kinds,
        total_bytes: scan.manifest_bytes + scan.shards.iter().map(|s| s.bytes).sum::<usize>(),
        status,
        notes,
    })
}

/// Outcome of [`repair_journal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairSummary {
    /// Records the repaired journal replays (the kept valid prefix).
    pub kept: usize,
    /// Fully valid records discarded because they sat after the damage
    /// point — the work an operator explicitly agreed to redo.
    pub dropped_records: usize,
    /// Bytes of damaged or discarded journal content removed.
    pub dropped_bytes: usize,
    /// Whether the journal was already clean (repair changed nothing).
    pub was_clean: bool,
}

/// Explicitly truncates the journal at `path` back to its last valid
/// record before the first damage point, discarding everything after —
/// including valid records a corrupt middle strands (which is exactly why
/// resume refuses to do this on its own). Healing is reported through
/// `observer`; a clean journal is left untouched. A corrupt manifest with
/// no shard content — which includes a pre-v3 journal — resets to an
/// empty journal.
///
/// # Errors
///
/// [`ReduceError::InvalidConfig`] for filesystem failures.
pub fn repair_journal(path: &Path, observer: &dyn Observer) -> Result<RepairSummary> {
    let Some(scan) = scan_journal(path)? else {
        return Ok(RepairSummary {
            kept: 0,
            dropped_records: 0,
            dropped_bytes: 0,
            was_clean: true,
        });
    };
    if scan.manifest_damage.is_some() && !scan.shards.iter().any(|s| s.exists) {
        let dropped = scan.manifest_bytes;
        write_atomic(path, &render_manifest(scan.shard_records, &[]))?;
        observer.on_event(&Event::ShardTruncated {
            shard: 0,
            kept: 0,
            dropped_bytes: dropped,
        });
        return Ok(RepairSummary {
            kept: 0,
            dropped_records: 0,
            dropped_bytes: dropped,
            was_clean: false,
        });
    }
    let was_clean = !scan.needs_heal();
    let healed = heal_journal(path, scan, observer)?;
    Ok(RepairSummary {
        kept: healed.kept,
        dropped_records: healed.dropped_records,
        dropped_bytes: healed.dropped_bytes,
        was_clean,
    })
}

fn push_workspace(out: &mut String, ws: &WorkspaceStats) {
    out.push_str(&format!(
        "{{\"hits\":{},\"misses\":{},\"bytes_allocated\":{}}}",
        ws.hits, ws.misses, ws.bytes_allocated
    ));
}

fn push_events(out: &mut String, events: &[Event]) {
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let line = render_event(e, false);
        out.push_str(line.trim_end());
    }
    out.push(']');
}

fn push_point(out: &mut String, p: &ResiliencePoint) {
    out.push_str(&format!("{{\"rate_index\":{},\"rate\":", p.rate_index));
    push_json_f64(out, p.rate);
    out.push_str(&format!(
        ",\"repeat\":{},\"pre_retrain_accuracy\":",
        p.repeat
    ));
    push_json_f32(out, p.pre_retrain_accuracy);
    out.push_str(",\"accuracy_after_epoch\":[");
    for (i, &a) in p.accuracy_after_epoch.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_f32(out, a);
    }
    out.push_str("],\"epochs_to_constraint\":");
    match p.epochs_to_constraint {
        Some(e) => out.push_str(&format!("{e}")),
        None => out.push_str("null"),
    }
    out.push('}');
}

fn push_chip_outcome(out: &mut String, c: &ChipOutcome) {
    out.push_str(&format!("{{\"chip_id\":{},\"fault_rate\":", c.chip_id));
    push_json_f64(out, c.fault_rate);
    out.push_str(&format!(
        ",\"epochs_budgeted\":{},\"epochs_run\":{},\"pre_retrain_accuracy\":",
        c.epochs_budgeted, c.epochs_run
    ));
    push_json_f32(out, c.pre_retrain_accuracy);
    out.push_str(",\"final_accuracy\":");
    push_json_f32(out, c.final_accuracy);
    out.push_str(&format!(
        ",\"meets_constraint\":{},\"pruned_fraction\":",
        c.meets_constraint
    ));
    push_json_f32(out, c.pruned_fraction);
    out.push_str(&format!(
        ",\"clamped\":{},\"warm_started\":{}}}",
        c.clamped, c.warm_started
    ));
}

fn push_sealed_chip(out: &mut String, sealed: &SealedChip) {
    match sealed {
        SealedChip::Retrained(outcome) => {
            out.push_str("{\"status\":\"ok\",\"outcome\":");
            push_chip_outcome(out, outcome);
            out.push('}');
        }
        SealedChip::Quarantined(q) => {
            out.push_str(&format!(
                "{{\"status\":\"quarantined\",\"chip_id\":{},\"fault_rate\":",
                q.chip_id
            ));
            push_json_f64(out, q.fault_rate);
            out.push_str(&format!(",\"attempts\":{},\"error\":", q.attempts));
            push_json_string(out, &q.error);
            out.push('}');
        }
    }
}

fn render_record(record: &JournalRecord) -> String {
    let mut s = String::with_capacity(256);
    match record {
        JournalRecord::Point {
            job,
            point,
            workspace,
            events,
        } => {
            s.push_str(&format!("{{\"kind\":\"point\",\"job\":{job},\"point\":"));
            push_point(&mut s, point);
            s.push_str(",\"workspace\":");
            push_workspace(&mut s, workspace);
            s.push_str(",\"events\":");
            push_events(&mut s, events);
            s.push('}');
        }
        JournalRecord::PointFailed {
            job,
            rate_index,
            rate,
            repeat,
            attempts,
            error,
            events,
        } => {
            s.push_str(&format!(
                "{{\"kind\":\"point_failed\",\"job\":{job},\"rate_index\":{rate_index},\"rate\":"
            ));
            push_json_f64(&mut s, *rate);
            s.push_str(&format!(
                ",\"repeat\":{repeat},\"attempts\":{attempts},\"error\":"
            ));
            push_json_string(&mut s, error);
            s.push_str(",\"events\":");
            push_events(&mut s, events);
            s.push('}');
        }
        JournalRecord::FleetBatch {
            policy,
            window,
            budget,
            chunk,
            clusters,
            chips,
            workspace,
            events,
        } => {
            s.push_str("{\"kind\":\"fleet_batch\",\"policy\":");
            push_json_string(&mut s, policy);
            s.push_str(&format!(
                ",\"window\":{window},\"budget\":{budget},\"chunk\":{chunk},\"clusters\":["
            ));
            for (i, cluster) in clusters.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    "{{\"representative\":{},\"members\":[",
                    cluster.representative
                ));
                for (j, member) in cluster.members.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    s.push_str(&format!("{member}"));
                }
                s.push_str("]}");
            }
            s.push_str("],\"chips\":[");
            for (i, sealed) in chips.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                push_sealed_chip(&mut s, sealed);
            }
            s.push_str("],\"workspace\":");
            push_workspace(&mut s, workspace);
            s.push_str(",\"events\":");
            push_events(&mut s, events);
            s.push('}');
        }
    }
    s
}

/// Parses one record payload, or `None` if it is not a well-formed
/// record: the scan reads that as [`CorruptKind::BadRecord`].
fn parse_record(line: &str) -> Option<JournalRecord> {
    let value = parse(line).ok()?;
    let u64_of = |v: &JsonValue, name: &str| v.field(name).and_then(JsonValue::as_u64);
    let usize_of = |v: &JsonValue, name: &str| v.field(name).and_then(JsonValue::as_usize);
    let f64_of = |v: &JsonValue, name: &str| v.field(name).and_then(JsonValue::as_f64);
    let f32_of = |v: &JsonValue, name: &str| v.field(name).and_then(JsonValue::as_f32);
    let str_of = |v: &JsonValue, name: &str| {
        v.field(name)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
    };
    let bool_of = |v: &JsonValue, name: &str| v.field(name).and_then(JsonValue::as_bool);
    let attempts_of = |v: &JsonValue| u32::try_from(u64_of(v, "attempts")?).ok();
    let events_of = |v: &JsonValue| match v.field("events") {
        Some(JsonValue::Arr(items)) => items.iter().map(parse_event).collect(),
        _ => None,
    };
    let workspace_of = |v: &JsonValue| {
        let ws = v.field("workspace")?;
        Some(WorkspaceStats {
            hits: u64_of(ws, "hits")?,
            misses: u64_of(ws, "misses")?,
            bytes_allocated: u64_of(ws, "bytes_allocated")?,
        })
    };
    let outcome_of = |c: &JsonValue| {
        Some(ChipOutcome {
            chip_id: usize_of(c, "chip_id")?,
            fault_rate: f64_of(c, "fault_rate")?,
            epochs_budgeted: usize_of(c, "epochs_budgeted")?,
            epochs_run: usize_of(c, "epochs_run")?,
            pre_retrain_accuracy: f32_of(c, "pre_retrain_accuracy")?,
            final_accuracy: f32_of(c, "final_accuracy")?,
            meets_constraint: bool_of(c, "meets_constraint")?,
            pruned_fraction: f32_of(c, "pruned_fraction")?,
            clamped: bool_of(c, "clamped")?,
            warm_started: bool_of(c, "warm_started")?,
        })
    };
    match value.field("kind").and_then(JsonValue::as_str)? {
        "point" => {
            let p = value.field("point")?;
            let accuracy_after_epoch = match p.field("accuracy_after_epoch") {
                Some(JsonValue::Arr(items)) => items
                    .iter()
                    .map(JsonValue::as_f32)
                    .collect::<Option<Vec<f32>>>()?,
                _ => return None,
            };
            let epochs_to_constraint = match p.field("epochs_to_constraint")? {
                v if v.is_null() => None,
                v => Some(v.as_usize()?),
            };
            Some(JournalRecord::Point {
                job: u64_of(&value, "job")?,
                point: ResiliencePoint {
                    rate_index: usize_of(p, "rate_index")?,
                    rate: f64_of(p, "rate")?,
                    repeat: usize_of(p, "repeat")?,
                    pre_retrain_accuracy: f32_of(p, "pre_retrain_accuracy")?,
                    accuracy_after_epoch,
                    epochs_to_constraint,
                },
                workspace: workspace_of(&value)?,
                events: events_of(&value)?,
            })
        }
        "point_failed" => Some(JournalRecord::PointFailed {
            job: u64_of(&value, "job")?,
            rate_index: usize_of(&value, "rate_index")?,
            rate: f64_of(&value, "rate")?,
            repeat: usize_of(&value, "repeat")?,
            attempts: attempts_of(&value)?,
            error: str_of(&value, "error")?,
            events: events_of(&value)?,
        }),
        "fleet_batch" => {
            let chips = match value.field("chips") {
                Some(JsonValue::Arr(items)) => items
                    .iter()
                    .map(
                        |entry| match entry.field("status").and_then(JsonValue::as_str)? {
                            "ok" => {
                                Some(SealedChip::Retrained(outcome_of(entry.field("outcome")?)?))
                            }
                            "quarantined" => Some(SealedChip::Quarantined(QuarantinedChip {
                                chip_id: usize_of(entry, "chip_id")?,
                                fault_rate: f64_of(entry, "fault_rate")?,
                                attempts: attempts_of(entry)?,
                                error: str_of(entry, "error")?,
                            })),
                            _ => None,
                        },
                    )
                    .collect::<Option<Vec<SealedChip>>>()?,
                _ => return None,
            };
            let clusters = match value.field("clusters") {
                Some(JsonValue::Arr(items)) => items
                    .iter()
                    .map(|entry| {
                        let members = match entry.field("members") {
                            Some(JsonValue::Arr(ids)) => ids
                                .iter()
                                .map(JsonValue::as_usize)
                                .collect::<Option<Vec<usize>>>()?,
                            _ => return None,
                        };
                        Some(Cluster {
                            representative: usize_of(entry, "representative")?,
                            members,
                        })
                    })
                    .collect::<Option<Vec<Cluster>>>()?,
                _ => return None,
            };
            Some(JournalRecord::FleetBatch {
                policy: str_of(&value, "policy")?,
                window: usize_of(&value, "window")?,
                budget: usize_of(&value, "budget")?,
                chunk: usize_of(&value, "chunk")?,
                clusters,
                chips,
                workspace: workspace_of(&value)?,
                events: events_of(&value)?,
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{EpochScope, Stage};

    fn scratch(name: &str) -> PathBuf {
        std::env::temp_dir()
            .join(format!("reduce_journal_{name}_{}", std::process::id()))
            .join("journal.jsonl")
    }

    fn point_record() -> JournalRecord {
        JournalRecord::Point {
            job: 3,
            point: ResiliencePoint {
                rate_index: 1,
                rate: 0.15,
                repeat: 0,
                pre_retrain_accuracy: 0.625,
                accuracy_after_epoch: vec![0.75, 0.875],
                epochs_to_constraint: Some(2),
            },
            workspace: WorkspaceStats {
                hits: 10,
                misses: 2,
                bytes_allocated: 4096,
            },
            events: vec![
                Event::EpochCompleted {
                    scope: EpochScope::Point {
                        rate_index: 1,
                        repeat: 0,
                    },
                    epoch: 1,
                    accuracy: 0.75,
                },
                Event::PointFinished {
                    rate_index: 1,
                    rate: 0.15,
                    repeat: 0,
                    epochs_to_constraint: Some(2),
                    pre_retrain_accuracy: 0.625,
                    final_accuracy: 0.875,
                },
            ],
        }
    }

    fn sample_outcome(chip_id: usize) -> ChipOutcome {
        ChipOutcome {
            chip_id,
            fault_rate: 0.1,
            epochs_budgeted: 2,
            epochs_run: 2,
            pre_retrain_accuracy: 0.5,
            final_accuracy: 0.9,
            meets_constraint: true,
            pruned_fraction: 0.25,
            clamped: false,
            warm_started: false,
        }
    }

    fn batch_record() -> JournalRecord {
        JournalRecord::FleetBatch {
            policy: "Reduce (max)".to_string(),
            window: 1,
            budget: 3,
            chunk: 0,
            clusters: vec![Cluster {
                representative: 7,
                members: vec![8],
            }],
            chips: vec![
                SealedChip::Retrained(sample_outcome(7)),
                SealedChip::Quarantined(QuarantinedChip {
                    chip_id: 8,
                    fault_rate: 0.15,
                    attempts: 2,
                    error: "training diverged: accuracy after epoch 1 is NaN".to_string(),
                }),
            ],
            workspace: WorkspaceStats {
                hits: 7,
                misses: 1,
                bytes_allocated: 1024,
            },
            events: vec![
                Event::ClusterFormed {
                    representative: 7,
                    size: 2,
                },
                Event::WarmStartHit {
                    chip_id: 8,
                    representative: 7,
                },
                Event::ChipRetrained {
                    chip_id: 7,
                    fault_rate: 0.1,
                    epochs_budgeted: 3,
                    epochs_run: 3,
                    final_accuracy: 0.9,
                    satisfied: true,
                },
            ],
        }
    }

    #[test]
    fn append_resume_round_trips_every_record_kind() {
        let path = scratch("round_trip");
        let journal = Checkpoint::create(&path);
        journal.append(point_record()).expect("append");
        journal
            .append(JournalRecord::PointFailed {
                job: 5,
                rate_index: 2,
                rate: 0.3,
                repeat: 1,
                attempts: 2,
                error: "training diverged: accuracy after epoch 1 is NaN".to_string(),
                events: vec![
                    Event::JobFailed {
                        stage: Stage::Characterize,
                        job: 5,
                        attempt: 0,
                        error: "quoted \"cause\"\nwith newline".to_string(),
                    },
                    Event::RetryScheduled {
                        stage: Stage::Characterize,
                        job: 5,
                        attempt: 1,
                        seed: 0x9E37_79B9_7F4A_7C15,
                    },
                ],
            })
            .expect("append");
        journal.append(batch_record()).expect("append");
        let original = journal.records().expect("records");
        let resumed = Checkpoint::resume(&path).expect("parseable journal");
        assert_eq!(resumed.records().expect("records"), original);
        // Appends after resume extend the same shard layout.
        resumed
            .append(JournalRecord::PointFailed {
                job: 9,
                rate_index: 0,
                rate: 0.0,
                repeat: 4,
                attempts: 1,
                error: "x".to_string(),
                events: vec![],
            })
            .expect("append after resume");
        let again = Checkpoint::resume(&path).expect("parseable journal");
        assert_eq!(again.records().expect("records").len(), original.len() + 1);
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn resume_of_a_missing_journal_is_empty() {
        let path = scratch("missing");
        let journal = Checkpoint::resume(&path).expect("missing file is fine");
        assert!(journal.records().expect("records").is_empty());
        assert_eq!(journal.path(), path.as_path());
    }

    #[test]
    fn malformed_journals_are_typed_errors() {
        let path = scratch("malformed");
        let dir = path.parent().expect("has parent");
        std::fs::create_dir_all(dir).expect("temp dir");
        // A file that is not a framed manifest.
        std::fs::write(&path, "not a journal\n").expect("temp write");
        match Checkpoint::resume(&path) {
            Err(ReduceError::JournalCorrupt { kind, .. }) => {
                assert_eq!(kind, CorruptKind::Manifest);
            }
            other => panic!("bad manifest must be JournalCorrupt, got {other:?}"),
        }
        std::fs::write(&path, render_manifest(8, &[])).expect("temp write");
        let shard = shard_path(&path, 0);
        let valid = frame_line(&render_record(&small_record(0)));
        // Framed, CRC-valid lines that are not valid records: an unknown
        // kind, and records missing a field every record carries.
        let batch = render_record(&batch_record());
        let unclustered =
            batch.replace("\"clusters\":[{\"representative\":7,\"members\":[8]}],", "");
        let unwarmed = batch.replace(",\"warm_started\":false", "");
        assert!(!unclustered.contains("clusters") && !unwarmed.contains("warm_started"));
        for bad in ["{\"kind\":\"mystery\",\"job\":0}", &unclustered, &unwarmed] {
            // In the MIDDLE (a valid record follows it) the damage cannot
            // be healed by tail truncation: typed corruption error.
            std::fs::write(&shard, format!("{}{valid}", frame_line(bad))).expect("temp write");
            match Checkpoint::resume(&path) {
                Err(ReduceError::JournalCorrupt {
                    shard,
                    record,
                    kind,
                }) => {
                    assert_eq!((shard, record, kind), (0, 0, CorruptKind::BadRecord));
                }
                other => panic!("corrupt middle must be JournalCorrupt, got {other:?}"),
            }
        }
        // The same damage at the TAIL self-heals: resume keeps the valid
        // prefix and truncates the bad record away.
        std::fs::write(
            &shard,
            format!("{valid}{}", frame_line("{\"kind\":\"mystery\",\"job\":0}")),
        )
        .expect("temp write");
        let journal = Checkpoint::resume(&path).expect("tail damage heals");
        assert_eq!(journal.records().expect("records"), vec![small_record(0)]);
        let text = std::fs::read_to_string(&shard).expect("shard exists");
        assert!(!text.contains("mystery"), "damaged tail was truncated away");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn shards_bound_bytes_per_append() {
        let path = scratch("shard_bound");
        let journal = Checkpoint::create(&path).with_shard_records(4);
        let mut max_line = 0u64;
        for i in 0..64 {
            let record = JournalRecord::PointFailed {
                job: i,
                rate_index: 0,
                rate: 0.1,
                repeat: i as usize,
                attempts: 1,
                error: "synthetic failure for shard accounting".to_string(),
                events: vec![],
            };
            max_line = max_line.max(frame_line(&render_record(&record)).len() as u64);
            journal.append(record).expect("append");
        }
        let io = journal.io_stats().expect("stats");
        assert_eq!(io.appends, 64);
        // The largest single rewrite covers at most one full shard (with
        // its seal footer) plus the manifest, never the whole 64-record
        // journal. The on-disk manifest names all 16 digests — the largest
        // it ever gets.
        let manifest_bytes = std::fs::metadata(&path).expect("manifest exists").len();
        let footer_bytes = render_footer(4).len() as u64;
        let bound = 4 * max_line + footer_bytes + manifest_bytes;
        assert!(
            io.max_append_bytes <= bound,
            "append rewrote more than a shard: {} > {bound}",
            io.max_append_bytes,
        );
        // 64 records over 4-record shards => 16 sealed segments on disk,
        // each holding its records plus the seal footer.
        for shard in 0..16 {
            let text = std::fs::read_to_string(shard_path(&path, shard)).expect("shard exists");
            assert_eq!(text.lines().count(), 5, "shard {shard}: 4 records + footer");
        }
        assert!(!shard_path(&path, 16).exists(), "no stray 17th shard");
        // Resume stitches every shard back together.
        let resumed = Checkpoint::resume(&path).expect("parseable journal");
        assert_eq!(resumed.records().expect("records").len(), 64);
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// A collecting observer for asserting on heal telemetry.
    #[derive(Default)]
    struct EventLog(Mutex<Vec<Event>>);

    impl Observer for EventLog {
        fn on_event(&self, event: &Event) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    fn small_record(i: u64) -> JournalRecord {
        JournalRecord::PointFailed {
            job: i,
            rate_index: 0,
            rate: 0.1,
            repeat: i as usize,
            attempts: 1,
            error: format!("synthetic failure {i}"),
            events: vec![],
        }
    }

    fn cleanup(path: &Path) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// The bitwise CRC-32 the lookup table is built from: eight shift
    /// steps per byte. The oracle [`crc32`] is held to.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Every single-byte input exercises one table entry.
        for b in 0..=u8::MAX {
            assert_eq!(crc32(&[b]), crc32_bitwise(&[b]), "byte {b:#04x}");
        }
    }

    proptest::proptest! {
        #[test]
        fn table_crc32_matches_the_bitwise_oracle(
            bytes in proptest::collection::vec(0u8..=u8::MAX, 0..4096),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    #[test]
    fn any_single_byte_flip_in_a_frame_is_detected() {
        let line = frame_line("{\"kind\":\"x\"}");
        let trimmed = line.trim_end();
        assert!(parse_frame(trimmed).is_ok());
        let bytes = trimmed.as_bytes();
        for pos in 0..bytes.len() {
            for bit in 0..8u8 {
                let mut flipped = bytes.to_vec();
                flipped[pos] ^= 1 << bit;
                let damaged = String::from_utf8_lossy(&flipped).into_owned();
                assert!(
                    parse_frame(&damaged).is_err(),
                    "flip at byte {pos} bit {bit} went undetected: {damaged:?}"
                );
            }
        }
    }

    #[test]
    fn pre_v3_journals_are_refused_untouched() {
        // Hand-written pre-v3 layouts: v1 (a bare JSON header and
        // unframed records in one file) and v2 (a bare JSON manifest and
        // unframed shard files). Neither holds a single frame, so resume
        // must refuse both with a typed error and touch no file.
        let line = |i| format!("{}\n", render_record(&small_record(i)));
        let v1 = scratch("pre_v3_v1");
        let v2 = scratch("pre_v3_v2");
        let layouts = [
            vec![(
                v1.clone(),
                format!(
                    "{{\"journal\":\"reduce-journal\",\"version\":1}}\n{}{}",
                    line(0),
                    line(1)
                ),
            )],
            vec![
                (
                    v2.clone(),
                    "{\"journal\":\"reduce-journal\",\"version\":2,\"shard_records\":2}\n"
                        .to_string(),
                ),
                (shard_path(&v2, 0), format!("{}{}", line(0), line(1))),
                (shard_path(&v2, 1), line(2)),
            ],
        ];
        for layout in &layouts {
            let path = &layout[0].0;
            std::fs::create_dir_all(path.parent().expect("has parent")).expect("temp dir");
            for (file, contents) in layout {
                std::fs::write(file, contents).expect("temp write");
            }
            match Checkpoint::resume(path) {
                Err(ReduceError::JournalCorrupt { kind, .. }) => {
                    assert_eq!(kind, CorruptKind::Manifest);
                }
                other => panic!("pre-v3 journal must refuse resume, got {other:?}"),
            }
            assert_eq!(
                inspect_journal(path).expect("inspect").status,
                JournalStatus::Corrupt
            );
            for (file, contents) in layout {
                assert_eq!(
                    &std::fs::read_to_string(file).expect("file survives"),
                    contents,
                    "refused resume must not touch {}",
                    file.display()
                );
            }
            cleanup(path);
        }
    }

    #[test]
    fn empty_active_shard_resumes_cleanly() {
        let path = scratch("empty_active");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..2 {
            journal.append(small_record(i)).expect("append");
        }
        // A crash immediately after sealing shard 0 can leave a created
        // but empty next shard file.
        std::fs::write(shard_path(&path, 1), "").expect("temp write");
        let health = inspect_journal(&path).expect("inspect");
        assert_eq!(health.status, JournalStatus::Clean);
        let resumed = Checkpoint::resume(&path).expect("resume");
        assert_eq!(resumed.records().expect("records").len(), 2);
        resumed
            .append(small_record(2))
            .expect("append after resume");
        assert_eq!(
            Checkpoint::resume(&path)
                .expect("resume")
                .records()
                .expect("records")
                .len(),
            3
        );
        cleanup(&path);
    }

    #[test]
    fn trailing_garbage_after_footer_heals() {
        let path = scratch("post_footer_garbage");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..2 {
            journal.append(small_record(i)).expect("append");
        }
        let shard = shard_path(&path, 0);
        let mut contents = std::fs::read_to_string(&shard).expect("sealed shard");
        contents.push_str("garbage tail\n");
        std::fs::write(&shard, &contents).expect("temp write");
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Healable
        );
        let log = EventLog::default();
        let resumed = Checkpoint::resume_observed(&path, &log).expect("heals");
        assert_eq!(resumed.records().expect("records").len(), 2);
        let events = log.0.lock().unwrap();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::ShardTruncated {
                shard: 0,
                kept: 2,
                ..
            }
        )));
        // The reseal restored a byte-valid sealed shard.
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Clean
        );
        cleanup(&path);
    }

    #[test]
    fn a_failed_seal_leaves_the_active_shard_unsealed() {
        use crate::artifact::{install_io_policy, FaultKind, FaultyIo, IoPolicy};
        use std::sync::Arc;

        let path = scratch("failed_seal");
        let scope = path.parent().expect("has parent").to_path_buf();
        std::fs::create_dir_all(&scope).expect("temp dir");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        journal.append(small_record(0)).expect("append");
        // The second append seals shard 0: its temporary-file write (the
        // seal's second IO op) runs out of space.
        {
            let io = Arc::new(FaultyIo::armed(&scope, 0, 1, FaultKind::Enospc));
            let _guard = install_io_policy(IoPolicy::Faulty(io.clone()));
            assert!(journal.append(small_record(1)).is_err());
            assert!(io.fired());
        }
        // The disk recovers and an appender already in flight carries on:
        // the failed seal's footer must not strand the record behind it.
        journal
            .append(small_record(2))
            .expect("append after the failed seal");
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Clean
        );
        assert_eq!(
            Checkpoint::resume(&path)
                .expect("resume")
                .records()
                .expect("records"),
            (0..3).map(small_record).collect::<Vec<_>>()
        );
        cleanup(&path);
    }

    #[test]
    fn manifest_naming_missing_shard_is_corrupt_and_repairable() {
        let path = scratch("missing_shard");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..2 {
            journal.append(small_record(i)).expect("append");
        }
        std::fs::remove_file(shard_path(&path, 0)).expect("remove sealed shard");
        match Checkpoint::resume(&path) {
            Err(ReduceError::JournalCorrupt { shard, kind, .. }) => {
                assert_eq!((shard, kind), (0, CorruptKind::MissingShard));
            }
            other => panic!("missing sealed shard must be corrupt, got {other:?}"),
        }
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Corrupt
        );
        let summary = repair_journal(&path, &NullObserver).expect("repair");
        assert!(!summary.was_clean);
        assert_eq!(summary.kept, 0);
        let resumed = Checkpoint::resume(&path).expect("repaired journal resumes");
        assert!(resumed.records().expect("records").is_empty());
        cleanup(&path);
    }

    #[test]
    fn zero_record_journal_round_trips() {
        let path = scratch("zero_records");
        let dir = path.parent().expect("has parent");
        std::fs::create_dir_all(dir).expect("temp dir");
        // A manifest naming no shards (what repair of a wrecked manifest
        // leaves behind).
        std::fs::write(&path, render_manifest(8, &[])).expect("temp write");
        let health = inspect_journal(&path).expect("inspect");
        assert_eq!(health.status, JournalStatus::Clean);
        assert_eq!(health.records, 0);
        let journal = Checkpoint::resume(&path).expect("resume");
        assert!(journal.records().expect("records").is_empty());
        journal.append(small_record(0)).expect("append");
        assert_eq!(
            Checkpoint::resume(&path)
                .expect("resume")
                .records()
                .expect("records")
                .len(),
            1
        );
        cleanup(&path);
    }

    #[test]
    fn torn_active_shard_heals_to_valid_prefix() {
        let path = scratch("torn_active");
        let journal = Checkpoint::create(&path).with_shard_records(8);
        for i in 0..3 {
            journal.append(small_record(i)).expect("append");
        }
        // Tear the last line of the active shard mid-write.
        let shard = shard_path(&path, 0);
        let contents = std::fs::read(&shard).expect("active shard");
        std::fs::write(&shard, &contents[..contents.len() - 7]).expect("temp write");
        let log = EventLog::default();
        let resumed = Checkpoint::resume_observed(&path, &log).expect("tail tear heals");
        assert_eq!(
            resumed.records().expect("records"),
            (0..2).map(small_record).collect::<Vec<_>>()
        );
        let events = log.0.lock().unwrap();
        assert!(events.iter().any(|e| matches!(
            e,
            Event::ShardTruncated {
                shard: 0,
                kept: 2,
                ..
            }
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            Event::RecordDropped {
                shard: 0,
                record: 2
            }
        )));
        drop(events);
        // The healed journal extends normally.
        resumed.append(small_record(2)).expect("append");
        assert_eq!(
            Checkpoint::resume(&path)
                .expect("resume")
                .records()
                .expect("records")
                .len(),
            3
        );
        cleanup(&path);
    }

    #[test]
    fn manifest_lag_behind_sealed_shard_heals() {
        let path = scratch("manifest_lag");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..2 {
            journal.append(small_record(i)).expect("append");
        }
        // Rewind the manifest to before the seal: the sealed shard exists
        // on disk but the manifest does not name it yet — exactly the
        // window a crash between the two writes leaves behind.
        std::fs::write(&path, render_manifest(2, &[])).expect("temp write");
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Healable
        );
        let resumed = Checkpoint::resume(&path).expect("manifest lag heals");
        assert_eq!(resumed.records().expect("records").len(), 2);
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Clean,
            "heal rewrote the manifest"
        );
        cleanup(&path);
    }

    #[test]
    fn any_single_byte_flip_in_a_v3_journal_is_never_clean() {
        let path = scratch("bitflip_sweep");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..3 {
            journal.append(small_record(i)).expect("append");
        }
        for target in [path.clone(), shard_path(&path, 0), shard_path(&path, 1)] {
            let pristine = std::fs::read(&target).expect("file exists");
            for pos in 0..pristine.len() {
                let mut flipped = pristine.clone();
                flipped[pos] ^= 0x04; // keeps ASCII printable bytes printable
                std::fs::write(&target, &flipped).expect("temp write");
                let health = inspect_journal(&path).expect("inspect never errors");
                assert_ne!(
                    health.status,
                    JournalStatus::Clean,
                    "flip at {} byte {pos} went undetected",
                    target.display()
                );
            }
            std::fs::write(&target, &pristine).expect("restore");
        }
        cleanup(&path);
    }

    #[test]
    fn replaced_sealed_shard_is_a_digest_mismatch_not_a_heal() {
        let path = scratch("digest_mismatch");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..2 {
            journal.append(small_record(i)).expect("append");
        }
        // Wholesale-replace the sealed shard with different, individually
        // valid framed records and a correct footer — a shard from another
        // run, or a restored backup. Every per-record CRC verifies; only
        // the manifest digest can tell the content is not what this
        // journal committed to, so resume must refuse instead of silently
        // adopting it.
        let mut replaced = String::new();
        for i in [7u64, 8] {
            replaced.push_str(&frame_line(&render_record(&small_record(i))));
        }
        replaced.push_str(&render_footer(2));
        std::fs::write(shard_path(&path, 0), &replaced).expect("temp write");
        match Checkpoint::resume(&path) {
            Err(ReduceError::JournalCorrupt { shard, kind, .. }) => {
                assert_eq!((shard, kind), (0, CorruptKind::DigestMismatch));
            }
            other => panic!("digest mismatch must refuse resume, got {other:?}"),
        }
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Corrupt
        );
        // Explicit repair adopts the shard content (per-record CRCs are
        // authoritative) and recomputes the manifest digest.
        repair_journal(&path, &NullObserver).expect("repair");
        assert_eq!(
            Checkpoint::resume(&path)
                .expect("repaired journal resumes")
                .records()
                .expect("records"),
            vec![small_record(7), small_record(8)]
        );
        assert_eq!(
            inspect_journal(&path).expect("inspect").status,
            JournalStatus::Clean
        );
        cleanup(&path);
    }

    #[test]
    fn contentful_shard_after_a_numbering_gap_refuses_resume() {
        let path = scratch("post_gap_stray");
        let journal = Checkpoint::create(&path).with_shard_records(2);
        for i in 0..4 {
            journal.append(small_record(i)).expect("append");
        }
        // Two sealed shards (0, 1), no active file yet. Plant a contentful
        // shard file past a numbering gap: it must neither be silently
        // ignored (the writer would eventually overwrite it) nor deleted
        // by resume — only explicit repair may discard it.
        let stray = shard_path(&path, 5);
        std::fs::copy(shard_path(&path, 0), &stray).expect("plant stray");
        match Checkpoint::resume(&path) {
            Err(ReduceError::JournalCorrupt { shard, kind, .. }) => {
                assert_eq!((shard, kind), (2, CorruptKind::MissingShard));
            }
            other => panic!("post-gap stray must refuse resume, got {other:?}"),
        }
        assert!(stray.exists(), "refused resume must not delete the stray");
        repair_journal(&path, &NullObserver).expect("repair");
        assert!(!stray.exists(), "repair removes the stray");
        let resumed = Checkpoint::resume(&path).expect("resume after repair");
        assert_eq!(resumed.records().expect("records").len(), 4);
        // An *empty* post-gap file is harmless: resume stays clean.
        std::fs::write(&stray, "").expect("empty stray");
        let resumed = Checkpoint::resume(&path).expect("empty stray is harmless");
        assert_eq!(resumed.records().expect("records").len(), 4);
        cleanup(&path);
    }

    #[test]
    fn heal_reports_one_drop_per_record_slot_not_per_garbage_line() {
        let path = scratch("drop_accounting");
        let journal = Checkpoint::create(&path).with_shard_records(8);
        for i in 0..2 {
            journal.append(small_record(i)).expect("append");
        }
        // Three garbage lines after the valid prefix: one torn record
        // slot's worth of loss, not three dropped records.
        let shard = shard_path(&path, 0);
        let mut contents = std::fs::read_to_string(&shard).expect("active shard");
        contents.push_str("torn half-written li\nnoise\nmore noise\n");
        std::fs::write(&shard, &contents).expect("temp write");
        let log = EventLog::default();
        let resumed = Checkpoint::resume_observed(&path, &log).expect("tail garbage heals");
        assert_eq!(resumed.records().expect("records").len(), 2);
        let events = log.0.lock().unwrap();
        let dropped: Vec<&Event> = events
            .iter()
            .filter(|e| matches!(e, Event::RecordDropped { .. }))
            .collect();
        assert_eq!(
            dropped.len(),
            1,
            "garbage lines are dropped bytes, not dropped records: {dropped:?}"
        );
        assert!(matches!(
            dropped[0],
            Event::RecordDropped {
                shard: 0,
                record: 2
            }
        ));
        cleanup(&path);
    }

    #[test]
    fn fault_sweep_every_io_op_resumes_or_reports_typed_corruption() {
        use crate::artifact::{install_io_policy, FaultKind, FaultyIo, IoPolicy};
        use std::sync::Arc;

        let records: Vec<JournalRecord> = (0..8).map(small_record).collect();
        // Pass 1: count the IO operations a clean run performs.
        let path = scratch("sweep_count");
        std::fs::create_dir_all(path.parent().unwrap()).expect("temp dir");
        let scope = path.parent().unwrap().to_path_buf();
        let counter = Arc::new(FaultyIo::counting(&scope));
        {
            let _guard = install_io_policy(IoPolicy::Faulty(counter.clone()));
            let journal = Checkpoint::create(&path).with_shard_records(3);
            for r in &records {
                journal.append(r.clone()).expect("clean run");
            }
        }
        let total_ops = counter.ops_seen();
        assert!(
            total_ops > 20,
            "expected a rich op sequence, got {total_ops}"
        );
        cleanup(&path);

        // Pass 2: re-run the same append sequence, killing the backend at
        // every operation index with every fault kind. Every crash point
        // must either resume to a strict prefix or report typed corruption
        // that `repair_journal` fixes — and re-appending the remainder must
        // always reconstruct the full record sequence.
        for index in 0..total_ops {
            for kind in FaultKind::ALL {
                let path = scratch(&format!("sweep_{index}_{}", kind.name()));
                std::fs::create_dir_all(path.parent().unwrap()).expect("temp dir");
                let scope = path.parent().unwrap().to_path_buf();
                let injected = Arc::new(FaultyIo::armed(&scope, 0xC0FFEE, index, kind));
                {
                    let _guard = install_io_policy(IoPolicy::Faulty(injected.clone()));
                    let journal = Checkpoint::create(&path).with_shard_records(3);
                    for r in &records {
                        if journal.append(r.clone()).is_err() {
                            break; // the crash point
                        }
                    }
                }
                assert!(injected.fired(), "op {index} never executed");
                // Recovery runs with real IO (the process restarted).
                let resumed = match Checkpoint::resume(&path) {
                    Ok(journal) => journal,
                    Err(ReduceError::JournalCorrupt { .. }) => {
                        repair_journal(&path, &NullObserver).expect("repair succeeds");
                        Checkpoint::resume(&path).expect("repaired journal resumes")
                    }
                    Err(other) => {
                        panic!("op {index} kind {} gave untyped {other}", kind.name())
                    }
                };
                let kept = resumed.records().expect("records");
                assert!(
                    kept.len() <= records.len(),
                    "op {index} kind {} resurrected records",
                    kind.name()
                );
                assert_eq!(
                    kept[..],
                    records[..kept.len()],
                    "op {index} kind {} broke the prefix property",
                    kind.name()
                );
                for r in &records[kept.len()..] {
                    resumed.append(r.clone()).expect("re-append");
                }
                let full = Checkpoint::resume(&path).expect("final resume");
                assert_eq!(
                    full.records().expect("records"),
                    records,
                    "op {index} kind {} lost records",
                    kind.name()
                );
                cleanup(&path);
            }
        }
    }
}
