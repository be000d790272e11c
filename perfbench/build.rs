//! Records what this benchmark was built from, so every result names the
//! build that produced it: the rustflags (`target-cpu=native` changes which
//! GEMM microkernel lanes exist) and a digest of the library sources (the
//! checkouts benchmarks run in are not git repositories).

use std::path::{Path, PathBuf};

fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let flags = flags.replace('\u{1f}', " ");
    let flags = if flags.is_empty() { "(none)" } else { &flags };
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");

    let crates = Path::new("../crates");
    let mut files = Vec::new();
    sources(crates, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for file in &files {
        let name = file
            .strip_prefix(crates)
            .unwrap_or(file)
            .to_string_lossy()
            .into_owned();
        let body = std::fs::read(file).unwrap_or_default();
        for b in name.bytes().chain(body) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    println!(
        "cargo:rustc-env=PERFBENCH_SOURCE_DIGEST=fnv1a64:{h:016x} over {} files in crates/",
        files.len()
    );
    println!("cargo:rerun-if-changed=../crates");
}
