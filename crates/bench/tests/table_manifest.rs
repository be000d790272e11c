//! A fig3 run that takes its Step-② budgets from `--table` instead of
//! characterising records which table it loaded: its manifest names the
//! table's CRC-32 and row count.

use std::path::Path;
use std::process::Command;

const FIG3: &str = env!("CARGO_BIN_EXE_fig3");

/// CRC-32 (IEEE 802.3, the zlib polynomial), bit by bit: an oracle kept
/// apart from the library's.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[test]
fn fig3_manifest_names_the_loaded_table() {
    // The fig2 smoke table CI pins: fig2 --table-out wrote these bytes.
    let table =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scripts/expected/fig2-smoke/table.json");
    let text = std::fs::read_to_string(&table).expect("read the pinned fig2 smoke table");
    let rows = text
        .lines()
        .skip(3)
        .filter(|l| !l.trim().is_empty())
        .count();
    let out = std::env::temp_dir().join(format!("reduce-table-manifest-{}", std::process::id()));
    std::fs::remove_dir_all(&out).ok();
    let run = Command::new(FIG3)
        .args(["--scale", "smoke", "--table"])
        .arg(&table)
        .arg("--out")
        .arg(&out)
        .arg("--redact-timing")
        .output()
        .expect("spawn fig3");
    assert!(
        run.status.success(),
        "fig3 --table failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let manifest = std::fs::read_to_string(out.join("manifest.json")).expect("read the manifest");
    std::fs::remove_dir_all(&out).ok();
    let section = format!(
        "  \"table\": {{\n    \"crc32\": \"{:08x}\",\n    \"rows\": {rows}\n  }},\n",
        crc32(text.as_bytes())
    );
    assert!(
        manifest.contains(&section),
        "expected\n{section}in\n{manifest}"
    );
    assert!(manifest.contains("  \"grid\": null,\n"), "{manifest}");
}
