//! Effect-analysis integration tests: the fixture mini-workspace under
//! `tests/effect_fixtures/`, the live-workspace gate, and a seeded
//! regression on a mutated copy of the real sources.

use std::path::{Path, PathBuf};
use xtask::graph::{analyze_workspace, check_against_baseline, Analysis, EffectPolicy};
use xtask::{find_workspace_root, is_crate_src, load_baseline, workspace_rs_files};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/effect_fixtures")
}

/// The fixture policy mirrors the real one in miniature: one io island
/// file, one wall-clock island type, one named replay root.
fn fixture_policy() -> EffectPolicy {
    EffectPolicy {
        io_island_files: vec!["crates/app/src/island.rs".to_string()],
        wallclock_island_prefixes: vec!["app::stopwatch::Stopwatch::".to_string()],
        unsafe_island_prefixes: Vec::new(),
        extra_root_suffixes: vec!["replay::apply_record".to_string()],
    }
}

fn fixture_analysis() -> Analysis {
    analyze_workspace(&fixture_root(), &fixture_policy()).expect("fixture workspace parses")
}

/// Violations whose root id starts with `prefix`, rendered.
fn chains_for(a: &Analysis, prefix: &str) -> Vec<(String, String)> {
    a.violations
        .iter()
        .filter(|v| v.root.starts_with(prefix))
        .map(|v| (v.effect.name().to_string(), v.render_chain()))
        .collect()
}

#[test]
fn direct_seed_in_job_body_is_flagged() {
    let a = fixture_analysis();
    let got = chains_for(&a, "app::spawn_direct::{closure@");
    assert_eq!(got.len(), 1, "one wall-clock violation: {got:?}");
    assert_eq!(got[0].0, "wall-clock");
    assert!(
        got[0].1.contains("Instant::now"),
        "chain names the seed: {}",
        got[0].1
    );
}

#[test]
fn two_hop_entropy_reports_the_full_chain() {
    let a = fixture_analysis();
    let got = chains_for(&a, "app::spawn_two_hop::{closure@");
    assert_eq!(got.len(), 1, "one entropy violation: {got:?}");
    assert_eq!(got[0].0, "entropy");
    assert!(
        got[0]
            .1
            .contains("app::util::step_one → app::util::step_two → thread_rng"),
        "chain walks both hops: {}",
        got[0].1
    );
}

#[test]
fn method_call_seed_propagates() {
    let a = fixture_analysis();
    let got = chains_for(&a, "app::spawn_method::{closure@");
    assert_eq!(got.len(), 1, "one wall-clock violation: {got:?}");
    assert!(
        got[0].1.contains("app::widget::Widget::sample") && got[0].1.contains("SystemTime::now"),
        "chain goes through the method: {}",
        got[0].1
    );
}

#[test]
fn clean_and_islanded_jobs_are_silent() {
    let a = fixture_analysis();
    for prefix in [
        "app::spawn_clean::{closure@",
        "app::spawn_island_ok::{closure@",
        "app::spawn_stopwatch_ok::{closure@",
        "app::spawn_allowed::{closure@",
    ] {
        let got = chains_for(&a, prefix);
        assert!(got.is_empty(), "{prefix}… must be clean, got {got:?}");
    }
}

#[test]
fn island_does_not_sanction_the_callers_own_seed() {
    let a = fixture_analysis();
    let got = chains_for(&a, "app::spawn_launder::{closure@");
    assert_eq!(got.len(), 1, "one io violation: {got:?}");
    assert_eq!(got[0].0, "io");
    assert!(
        got[0].1.contains("fs::write") && got[0].1.contains("lib.rs"),
        "the job's own write is the seed, not the island's: {}",
        got[0].1
    );
}

#[test]
fn island_absorbs_only_its_chartered_effect() {
    let a = fixture_analysis();
    let got = chains_for(&a, "app::spawn_stopwatch_entropy::{closure@");
    assert_eq!(got.len(), 1, "one entropy violation: {got:?}");
    assert_eq!(got[0].0, "entropy");
    assert!(
        got[0]
            .1
            .contains("app::stopwatch::Stopwatch::bad_entropy → thread_rng"),
        "entropy escapes the wall-clock island: {}",
        got[0].1
    );
}

#[test]
fn named_extra_root_is_enforced() {
    let a = fixture_analysis();
    let got = chains_for(&a, "app::replay::apply_record");
    assert_eq!(got.len(), 1, "one unordered-iter violation: {got:?}");
    assert_eq!(got[0].0, "unordered-iter");
    // The ordered twin is not even a root (suffix does not match).
    assert!(
        !a.nodes
            .get("app::replay::apply_record_ordered")
            .expect("ordered twin parsed")
            .is_root
    );
}

#[test]
fn defective_effect_allow_is_reported() {
    let a = fixture_analysis();
    let decoys: Vec<&str> = a
        .allow_findings
        .iter()
        .filter(|f| f.file == "crates/app/src/util.rs")
        .map(|f| f.message.as_str())
        .collect();
    assert_eq!(decoys.len(), 1, "exactly the decoy: {decoys:?}");
    assert!(
        decoys[0].contains("sanctions no effect seed"),
        "unused-allow message: {}",
        decoys[0]
    );
    // The *used* allow in `timed_step` is not reported.
    assert!(!decoys[0].contains("wall-clock"));
}

#[test]
fn fixture_root_census_is_exact() {
    let a = fixture_analysis();
    let roots: Vec<&String> = a
        .nodes
        .iter()
        .filter(|(_, n)| n.is_root)
        .map(|(id, _)| id)
        .collect();
    // Nine spawn closures + the named replay root.
    assert_eq!(roots.len(), 10, "roots: {roots:?}");
}

/// The repo-wide gate: the live workspace's parallel job roots and
/// journal replay path must infer effect-free (through the sanctioned
/// islands), with zero entries needed in the baseline's `effects`
/// section and zero allow findings.
#[test]
fn live_workspace_roots_are_effect_free() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/xtask");
    let baseline = load_baseline(&root).expect("baseline parses");
    assert!(
        baseline.effects.is_empty(),
        "the effects ratchet must stay empty — new violations need fixing, not baselining"
    );
    let a = analyze_workspace(&root, &EffectPolicy::default()).expect("live analysis runs");
    let roots = a.nodes.values().filter(|n| n.is_root).count();
    assert!(roots >= 5, "parallel roots went missing (found {roots})");
    let check = check_against_baseline(&a, &baseline);
    let fresh = check.fresh.join("\n");
    assert!(check.ok(&a.allow_findings), "effect gate failed:\n{fresh}");
}

/// The acceptance drill: seed a regression in a *copy* of the live
/// sources — a helper transitively called from a parallel job body
/// starts reading the wall clock — and assert the analysis flags it
/// with the full call chain.
#[test]
fn seeded_regression_in_live_sources_is_caught() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/xtask");
    let tmp = std::env::temp_dir().join(format!("xtask-effect-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);

    // Copy the crate sources (and manifests, for crate-name mapping).
    let mut copied_manifests = std::collections::BTreeSet::new();
    for rel in workspace_rs_files(&root).expect("live file walk") {
        if !is_crate_src(&rel) {
            continue;
        }
        let dst = tmp.join(&rel);
        std::fs::create_dir_all(dst.parent().expect("src files have parents"))
            .expect("mkdir for copy");
        std::fs::copy(root.join(&rel), &dst).expect("copy source file");
        let dir = rel.split('/').nth(1).expect("crates/<name>/…").to_string();
        if copied_manifests.insert(dir.clone()) {
            let manifest = Path::new("crates").join(&dir).join("Cargo.toml");
            if root.join(&manifest).exists() {
                std::fs::copy(root.join(&manifest), tmp.join(&manifest))
                    .expect("copy crate manifest");
            }
        }
    }

    // Mutation 1: a new helper in core's crate root that reads the clock.
    let lib = tmp.join("crates/core/src/lib.rs");
    let mut lib_src = std::fs::read_to_string(&lib).expect("copied core lib readable");
    lib_src.push_str(
        "\npub fn effect_probe() -> u32 {\n    \
         let t = std::time::Instant::now();\n    t.elapsed().subsec_nanos()\n}\n",
    );
    std::fs::write(&lib, lib_src).expect("write mutated lib");

    // Mutation 2: call it from inside the characterise cell body, which
    // runs as the retry-loop closure nested in the job closure Step ①
    // hands the resume driver.
    let res = tmp.join("crates/core/src/resilience.rs");
    let res_src = std::fs::read_to_string(&res).expect("copied resilience readable");
    let anchor = "outcome.ensure_finite()?;";
    assert!(
        res_src.contains(anchor),
        "mutation anchor `{anchor}` vanished from resilience.rs — \
         re-point the drill at another statement inside the characterize job closure"
    );
    let mutated = res_src.replacen(
        anchor,
        "outcome.ensure_finite()?; crate::effect_probe();",
        1,
    );
    std::fs::write(&res, mutated).expect("write mutated resilience");

    let a = analyze_workspace(&tmp, &EffectPolicy::default()).expect("mutated analysis runs");
    std::fs::remove_dir_all(&tmp).expect("cleanup temp copy");

    let hits: Vec<String> = a
        .violations
        .iter()
        .map(|v| format!("[{}] {}", v.effect.name(), v.render_chain()))
        .collect();
    // The cell body is reached from two roots: the job closure Step ①
    // passes to `run_resumable_stage` and, nested inside it, the retry
    // body it passes to `run_job_resilient`. Each must report the full
    // chain; line numbers are normalised away.
    let normalised: Vec<String> = hits
        .iter()
        .map(|h| {
            let mut out = String::new();
            let mut in_digits = false;
            for c in h.chars() {
                if c.is_ascii_digit() {
                    if !in_digits {
                        out.push('N');
                    }
                    in_digits = true;
                } else {
                    out.push(c);
                    in_digits = false;
                }
            }
            out
        })
        .collect();
    let chain = "[wall-clock] reduce_core::resilience::ResilienceAnalysis::run_resumable::\
                 {closure@N} → reduce_core::effect_probe → Instant::now \
                 (crates/core/src/lib.rs:N)";
    assert_eq!(
        normalised,
        vec![chain, chain],
        "exactly the seeded regression, once per root: {hits:?}"
    );
    assert_ne!(hits[0], hits[1], "two distinct roots: {hits:?}");
}
