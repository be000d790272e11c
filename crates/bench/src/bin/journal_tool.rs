//! `journal-tool` — verify, repair and summarise resume journals.
//!
//! The journals the experiment binaries write (`journal.jsonl` plus its
//! shard files) carry per-record CRC32 framing, sealed-shard footers and a
//! digest manifest (format v3). This tool is the operator's interface to
//! that integrity data:
//!
//! ```text
//! journal-tool verify PATH    # exit 0 clean, 2 healable, 3 corrupt
//! journal-tool repair PATH    # truncate to the valid prefix, fix manifest
//! journal-tool stat   PATH    # record counts, shard layout, byte sizes
//! ```
//!
//! `PATH` is the journal file or the run directory containing
//! `journal.jsonl`. `verify` and `stat` never modify anything. `repair`
//! performs the explicit truncation that self-healing resume refuses to do
//! on its own (dropping valid records stranded after a corrupt middle),
//! printing each heal action to stderr. Exit code 1 reports usage or
//! filesystem errors, a closed stdout included.

use reduce_bench::HealNotices;
use reduce_core::{inspect_journal, repair_journal, JournalStatus};
use std::error::Error;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: journal-tool verify|repair|stat PATH\n\
                     PATH is a journal file or a run directory containing journal.jsonl";

/// Resolves the journal path: a directory means `DIR/journal.jsonl`.
fn journal_path(arg: &str) -> PathBuf {
    let path = Path::new(arg);
    if path.is_dir() {
        path.join("journal.jsonl")
    } else {
        path.to_path_buf()
    }
}

/// Prints the journal's health; the exit code is its status.
fn verify(out: &mut impl Write, path: &Path, verbose: bool) -> Result<ExitCode, Box<dyn Error>> {
    let health = inspect_journal(path)?;
    writeln!(
        out,
        "{}: {} ({} record(s), {} sealed shard(s), {} B)",
        path.display(),
        health.status.name(),
        health.records,
        health.sealed_shards,
        health.total_bytes,
    )?;
    if verbose {
        if health.shard_records > 0 {
            writeln!(out, "  shard size: {} record(s)", health.shard_records)?;
        }
        for (kind, count) in &health.kinds {
            writeln!(out, "  {kind}: {count}")?;
        }
    }
    for note in &health.notes {
        writeln!(out, "  note: {note}")?;
    }
    Ok(match health.status {
        JournalStatus::Clean => ExitCode::SUCCESS,
        JournalStatus::Healable => ExitCode::from(2),
        JournalStatus::Corrupt => ExitCode::from(3),
    })
}

fn repair(out: &mut impl Write, path: &Path) -> Result<ExitCode, Box<dyn Error>> {
    let summary = repair_journal(path, &HealNotices)?;
    if summary.was_clean {
        writeln!(out, "{}: already clean, nothing to repair", path.display())?;
    } else {
        writeln!(
            out,
            "{}: repaired — kept {} record(s), dropped {} record(s) / {} B",
            path.display(),
            summary.kept,
            summary.dropped_records,
            summary.dropped_bytes,
        )?;
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, target) = match args.as_slice() {
        [command, target] => (command.as_str(), journal_path(target)),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(1);
        }
    };
    let out = &mut std::io::stdout().lock();
    let result = match command {
        "verify" => verify(out, &target, false),
        "stat" => verify(out, &target, true),
        "repair" => repair(out, &target),
        other => {
            eprintln!("unknown command {other:?}\n{USAGE}");
            return ExitCode::from(1);
        }
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(1)
    })
}
