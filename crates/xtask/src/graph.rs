//! Workspace call graph + transitive effect inference.
//!
//! This is the pass `cargo xtask graph` runs: parse every `crates/*/src`
//! file ([`crate::parser`]), build a call graph keyed by
//! `crate::module::fn`, seed each node with its token-level effects
//! ([`crate::effects`]), propagate effects transitively to a fixpoint,
//! and enforce that every *parallel job root* infers effect-free.
//!
//! **Roots.** The deterministic-executor contract says a job body must be
//! a pure function of `(inputs, seed)`. The roots are therefore the
//! closures passed to the one map (`exec::parallel_map`), the one retry
//! loop (`run_job_resilient`, whose closure is also every retry's body)
//! and the one resume driver (`run_resumable_stage`: a stage's replay
//! lookup, its job — which journals the sealed output — and its absorb
//! step), plus the named journal-replay functions
//! (`EXTRA_ROOT_SUFFIXES`): a resumed run must reconstruct
//! byte-identical state from the journal.
//!
//! **Islands.** Two sanctioned exceptions subtract their effect at the
//! island boundary, so callers observe them as pure: the
//! `telemetry::Stopwatch` wall-clock read (whose output is redacted
//! from result artifacts) and `reduce_core::artifact` (the atomic
//! temp-file+rename writer — the *only* way results reach disk). The
//! unsafe-island list is shared with the `unsafe-island` token lint and
//! is currently empty.
//!
//! **Resolution is best-effort and over-approximate by design.** Bare
//! calls resolve through the local module, `use` imports, then any
//! same-crate function of that name; method calls link to *every*
//! workspace method with that name; qualified paths suffix-match.
//! Over-linking can only create false positives (an effect reported
//! where none flows), never false negatives — the safe direction for a
//! gate. Calls into `std` or through generic callables simply do not
//! resolve and contribute nothing. DESIGN.md §11 documents the limits.

use crate::baseline::{push_json_string, Baseline};
use crate::effects::{
    collect_effect_allows, seed_effects, Effect, EffectAllow, EffectSet, Seed, ALL_EFFECTS,
};
use crate::lexer::{Token, TokenKind};
use crate::parser::{matching_brace, parse_file, ParsedFile};
use crate::{workspace_rs_files, UNSAFE_ISLANDS};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Call names whose closure arguments are parallel job roots.
pub const ROOT_MARKERS: [&str; 3] = ["parallel_map", "run_job_resilient", "run_resumable_stage"];

/// Function-id suffixes rooted directly: the resumable journal replay
/// path. `Checkpoint::resume`'s raw file read is intake, not replay; the
/// replay contract starts where parsed records are handed back.
pub const EXTRA_ROOT_SUFFIXES: [&str; 3] = [
    "journal::Checkpoint::records",
    "journal::parse_record",
    "journal::render_record",
];

/// Sanctioned islands and root configuration for one analysis run.
#[derive(Debug, Clone)]
pub struct EffectPolicy {
    /// Files whose functions never export `io` (the atomic writer).
    pub io_island_files: Vec<String>,
    /// Function-id prefixes that never export `wall-clock`.
    pub wallclock_island_prefixes: Vec<String>,
    /// Path prefixes that never export `unsafe` (shared with the lint).
    pub unsafe_island_prefixes: Vec<String>,
    /// Function-id suffixes treated as roots in addition to closures.
    pub extra_root_suffixes: Vec<String>,
}

impl Default for EffectPolicy {
    fn default() -> Self {
        EffectPolicy {
            io_island_files: vec!["crates/core/src/artifact.rs".to_string()],
            wallclock_island_prefixes: vec!["reduce_core::telemetry::Stopwatch::".to_string()],
            unsafe_island_prefixes: UNSAFE_ISLANDS.iter().map(|s| s.to_string()).collect(),
            extra_root_suffixes: EXTRA_ROOT_SUFFIXES.iter().map(|s| s.to_string()).collect(),
        }
    }
}

/// One function (or job closure) in the call graph.
#[derive(Debug)]
pub struct Node {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the `fn` keyword / closure opening `|`.
    pub line: u32,
    /// Own effects after `xtask:effect` allows and island subtraction.
    pub own: EffectSet,
    /// Own + transitive effects (the fixpoint result).
    pub effective: EffectSet,
    /// Resolved callees (node ids).
    pub calls: BTreeSet<String>,
    /// Own effect seeds (pre-island, post-allow), for reporting.
    pub seeds: Vec<Seed>,
    /// Whether this node is an enforcement root.
    pub is_root: bool,
    /// Per-effect witness: the callee the effect arrived through
    /// (`None` = a seed in this very body).
    pub via: BTreeMap<&'static str, Option<String>>,
}

/// One enforced-root violation, with its witness call chain.
#[derive(Debug)]
pub struct EffectViolation {
    /// The root node id.
    pub root: String,
    /// Which effect leaked into the root.
    pub effect: Effect,
    /// Call chain from the root to the seeding function (node ids).
    pub chain: Vec<String>,
    /// The concrete seed at the end of the chain.
    pub seed: Seed,
    /// File of the seeding function.
    pub seed_file: String,
}

impl EffectViolation {
    /// `root → helper → Instant::now (file:line)` rendering.
    pub fn render_chain(&self) -> String {
        let mut out = String::new();
        for id in &self.chain {
            out.push_str(id);
            out.push_str(" → ");
        }
        out.push_str(&format!(
            "{} ({}:{})",
            self.seed.what, self.seed_file, self.seed.line
        ));
        out
    }
}

/// A problem with an `xtask:effect` allow comment (bad name, missing
/// reason, or sanctioning nothing). Always hard errors — the hatch must
/// not rot.
#[derive(Debug)]
pub struct AllowFinding {
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

/// The full analysis result.
#[derive(Debug)]
pub struct Analysis {
    /// All nodes, keyed by id, sorted.
    pub nodes: BTreeMap<String, Node>,
    /// Root violations, sorted by (root, effect).
    pub violations: Vec<EffectViolation>,
    /// Defective `xtask:effect` comments.
    pub allow_findings: Vec<AllowFinding>,
}

/// Runs the whole pass over `root`. Only `crates/*/src/**` files take
/// part; tests, fixtures and vendored code are invisible to the graph.
pub fn analyze_workspace(root: &Path, policy: &EffectPolicy) -> std::io::Result<Analysis> {
    let mut files: Vec<(String, ParsedFile)> = Vec::new();
    for rel in workspace_rs_files(root)? {
        // Exactly `crates/<name>/src/**` — not `crates/<name>/tests/…`
        // and not fixture mini-workspaces nested under a tests tree.
        if !crate::is_crate_src(&rel) {
            continue;
        }
        let src = std::fs::read_to_string(root.join(&rel))?;
        files.push((rel, parse_file(&src)));
    }
    let crate_names = crate_names(root, &files);
    Ok(analyze_parsed(&files, &crate_names, policy))
}

/// `crates/<dir>` → crate module name, from each `Cargo.toml`'s
/// `[package] name` with `-` mapped to `_`; falls back to the directory
/// name so fixture workspaces need no manifests.
fn crate_names(root: &Path, files: &[(String, ParsedFile)]) -> BTreeMap<String, String> {
    let mut names = BTreeMap::new();
    for (rel, _) in files {
        let Some(dir) = rel.split('/').nth(1) else {
            continue;
        };
        if names.contains_key(dir) {
            continue;
        }
        let manifest = root.join("crates").join(dir).join("Cargo.toml");
        let name = std::fs::read_to_string(&manifest)
            .ok()
            .and_then(|text| {
                text.lines().find_map(|l| {
                    let l = l.trim();
                    l.strip_prefix("name")
                        .map(|r| r.trim_start().trim_start_matches('='))
                        .map(|r| r.trim().trim_matches('"').replace('-', "_"))
                })
            })
            .unwrap_or_else(|| dir.replace('-', "_"));
        names.insert(dir.to_string(), name);
    }
    names
}

/// The in-file half of a node, before cross-file resolution.
struct PendingNode {
    id: String,
    file_idx: usize,
    line: u32,
    /// Code-token range of the signature (empty for closures' headers).
    sig: (usize, usize),
    /// Code-token range of the body, inclusive.
    body: (usize, usize),
    owner: Option<String>,
    is_root: bool,
}

/// Core analysis over already-parsed files (unit tests drive this
/// directly with synthetic workspaces).
pub fn analyze_parsed(
    files: &[(String, ParsedFile)],
    crate_names: &BTreeMap<String, String>,
    policy: &EffectPolicy,
) -> Analysis {
    // ---- pass 1: enumerate nodes (named fns + job closures) ----------
    let mut pending: Vec<PendingNode> = Vec::new();
    for (file_idx, (rel, parsed)) in files.iter().enumerate() {
        let prefix = id_prefix(rel, crate_names);
        let code: Vec<&Token> = parsed.code.iter().collect();
        for f in &parsed.fns {
            if f.is_test {
                continue;
            }
            let Some((open, close)) = f.body else {
                continue;
            };
            let id = format!("{prefix}::{}", f.qualified());
            pending.push(PendingNode {
                id: id.clone(),
                file_idx,
                line: f.line,
                sig: (f.fn_idx, open),
                body: (open, close),
                owner: f.owner.clone(),
                is_root: false,
            });
            // Closures passed to the parallel-map entry points, rooted.
            for (pipe, body_range, line) in job_closures(&code, open, close) {
                pending.push(PendingNode {
                    id: format!("{id}::{{closure@{line}}}"),
                    file_idx,
                    line,
                    sig: (pipe, body_range.0),
                    body: body_range,
                    owner: f.owner.clone(),
                    is_root: !parsed.test_lines.contains(&line),
                });
            }
        }
    }

    // ---- pass 2: resolution indexes ----------------------------------
    // name → ids (all fns); methods (has_self) are a subset by name.
    let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    let mut methods_by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (idx, (rel, parsed)) in files.iter().enumerate() {
        let prefix = id_prefix(rel, crate_names);
        for f in &parsed.fns {
            if f.is_test || f.body.is_none() {
                continue;
            }
            let id_pos = pending
                .iter()
                .position(|p| p.file_idx == idx && p.id == format!("{prefix}::{}", f.qualified()));
            let Some(pos) = id_pos else { continue };
            by_name.entry(f.name.clone()).or_default().push(pos);
            if f.has_self {
                methods_by_name.entry(f.name.clone()).or_default().push(pos);
            }
        }
    }

    // ---- pass 3: seed effects + extract/resolve calls ----------------
    let mut nodes: BTreeMap<String, Node> = BTreeMap::new();
    let mut allow_findings: Vec<AllowFinding> = Vec::new();
    let mut file_allows: Vec<Vec<EffectAllow>> = files
        .iter()
        .map(|(_, p)| collect_effect_allows(&p.comments))
        .collect();

    for p in &pending {
        let (rel, parsed) = &files[p.file_idx];
        let code: Vec<&Token> = parsed.code.iter().collect();
        let sig = &code[p.sig.0..p.sig.1];
        let body = &code[p.body.0..=p.body.1.min(code.len() - 1)];
        let seeds = seed_effects(sig, body, &mut file_allows[p.file_idx]);
        let mut own = EffectSet::empty();
        for s in &seeds {
            own.insert(s.effect);
        }
        subtract_islands(&mut own, rel, &p.id, policy);
        let calls = resolve_calls(
            body,
            p,
            &files[p.file_idx].1,
            rel,
            crate_names,
            &pending,
            &by_name,
            &methods_by_name,
        );
        let is_root = p.is_root
            || policy
                .extra_root_suffixes
                .iter()
                .any(|s| p.id == *s || p.id.ends_with(&format!("::{s}")));
        nodes.insert(
            p.id.clone(),
            Node {
                file: rel.clone(),
                line: p.line,
                own,
                effective: own,
                calls,
                seeds,
                is_root,
                via: BTreeMap::new(),
            },
        );
    }

    // Defective xtask:effect comments (outside test code) are hard errors.
    for (file_idx, allows) in file_allows.iter().enumerate() {
        let (rel, parsed) = &files[file_idx];
        for a in allows {
            if parsed.test_lines.contains(&a.line) {
                continue;
            }
            let message = if a.effect.is_none() {
                format!("`{}` does not name a known effect", a.text)
            } else if a.used && !a.reason_ok {
                format!(
                    "`{}` needs a substantive reason after the colon (≥ 10 chars)",
                    a.text
                )
            } else if !a.used {
                format!(
                    "`{}` sanctions no effect seed on this or the next line",
                    a.text
                )
            } else {
                continue;
            };
            allow_findings.push(AllowFinding {
                file: rel.clone(),
                line: a.line,
                message,
            });
        }
    }

    // ---- pass 4: fixpoint propagation with islands -------------------
    let ids: Vec<String> = nodes.keys().cloned().collect();
    loop {
        let mut changed = false;
        for id in &ids {
            let (mut eff, calls, file) = {
                let n = &nodes[id];
                (n.own, n.calls.clone(), n.file.clone())
            };
            let mut via: BTreeMap<&'static str, Option<String>> = BTreeMap::new();
            for e in ALL_EFFECTS {
                if nodes[id].own.contains(e) {
                    via.insert(e.name(), None);
                }
            }
            for callee in &calls {
                if let Some(c) = nodes.get(callee) {
                    for e in c.effective.iter() {
                        if !eff.contains(e) {
                            eff.insert(e);
                            via.insert(e.name(), Some(callee.clone()));
                        }
                    }
                }
            }
            subtract_islands(&mut eff, &file, id, policy);
            let n = nodes.get_mut(id).expect("node id from keys");
            if n.effective != eff || n.via != via {
                n.effective = eff;
                n.via = via;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // ---- pass 5: enforce roots ---------------------------------------
    let mut violations = Vec::new();
    for id in &ids {
        let n = &nodes[id];
        if !n.is_root || n.effective.is_empty() {
            continue;
        }
        for effect in n.effective.iter() {
            if let Some((chain, seed, seed_file)) = witness_chain(&nodes, id, effect) {
                violations.push(EffectViolation {
                    root: id.clone(),
                    effect,
                    chain,
                    seed,
                    seed_file,
                });
            }
        }
    }
    violations.sort_by(|a, b| (&a.root, a.effect).cmp(&(&b.root, b.effect)));
    allow_findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    Analysis {
        nodes,
        violations,
        allow_findings,
    }
}

/// Removes island-sanctioned effects for the node at `file`/`id`.
fn subtract_islands(eff: &mut EffectSet, file: &str, id: &str, policy: &EffectPolicy) {
    if policy.io_island_files.iter().any(|f| f == file) {
        eff.remove(Effect::Io);
    }
    if policy
        .wallclock_island_prefixes
        .iter()
        .any(|p| id.starts_with(p.as_str()))
    {
        eff.remove(Effect::WallClock);
    }
    if policy
        .unsafe_island_prefixes
        .iter()
        .any(|p| file.starts_with(p.as_str()))
    {
        eff.remove(Effect::Unsafe);
    }
}

/// Follows `via` links from `root` until the node whose own body seeds
/// `effect`; returns the id chain, the seed, and the seeding file.
fn witness_chain(
    nodes: &BTreeMap<String, Node>,
    root: &str,
    effect: Effect,
) -> Option<(Vec<String>, Seed, String)> {
    let mut chain = vec![root.to_string()];
    let mut current = root.to_string();
    let mut visited: BTreeSet<String> = BTreeSet::new();
    loop {
        if !visited.insert(current.clone()) {
            return None; // cycle without a seed — should not happen
        }
        let n = nodes.get(&current)?;
        match n.via.get(effect.name()) {
            Some(None) | None => {
                // Own seed here (via=None), or an island-adjacent node
                // whose recorded via is stale; find the concrete seed.
                let seed = n.seeds.iter().find(|s| s.effect == effect)?.clone();
                return Some((chain, seed, n.file.clone()));
            }
            Some(Some(callee)) => {
                chain.push(callee.clone());
                current = callee.clone();
            }
        }
    }
}

/// `crates/core/src/telemetry/mod.rs` → `reduce_core::telemetry`;
/// `crates/bench/src/bin/fig2.rs` → `reduce_bench::bin::fig2`.
fn id_prefix(rel: &str, crate_names: &BTreeMap<String, String>) -> String {
    let parts: Vec<&str> = rel.split('/').collect();
    let dir = parts.get(1).copied().unwrap_or("");
    let krate = crate_names
        .get(dir)
        .cloned()
        .unwrap_or_else(|| dir.replace('-', "_"));
    let mut out = krate;
    // Path segments after `src/`, minus the file extension and the
    // `lib`/`main`/`mod` pseudo-names.
    if let Some(src_at) = parts.iter().position(|p| *p == "src") {
        for (i, part) in parts.iter().enumerate().skip(src_at + 1) {
            let name = if i == parts.len() - 1 {
                part.trim_end_matches(".rs")
            } else {
                part
            };
            if matches!(name, "lib" | "main" | "mod") {
                continue;
            }
            out.push_str("::");
            out.push_str(name);
        }
    }
    out
}

/// Finds closures passed (at argument depth) to the `ROOT_MARKERS`
/// calls inside `[open..=close]`. Returns `(pipe-token-idx, body-range,
/// line)` per closure.
fn job_closures(code: &[&Token], open: usize, close: usize) -> Vec<(usize, (usize, usize), u32)> {
    let mut out = Vec::new();
    let mut i = open;
    while i <= close && i < code.len() {
        let t = code[i];
        if t.kind == TokenKind::Ident && ROOT_MARKERS.contains(&t.text.as_str()) {
            // Skip an optional turbofish between the name and the paren.
            let mut j = i + 1;
            if code.get(j).is_some_and(|n| n.text == ":")
                && code.get(j + 1).is_some_and(|n| n.text == ":")
                && code.get(j + 2).is_some_and(|n| n.text == "<")
            {
                let mut angle = 0i32;
                j += 2;
                while j < code.len() {
                    match code[j].text.as_str() {
                        "<" => angle += 1,
                        ">" => {
                            angle -= 1;
                            if angle == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            if code.get(j).is_some_and(|n| n.text == "(") {
                let call_close = matching_paren(code, j);
                out.extend(closures_in_args(code, j, call_close));
                // Do not jump past the call: nested parallel_map calls
                // inside the arguments must be seen too; the scan just
                // continues token by token.
            }
        }
        i += 1;
    }
    out
}

/// Extracts top-level closure arguments between `open` and `close`
/// (the parens of one call).
fn closures_in_args(
    code: &[&Token],
    open: usize,
    close: usize,
) -> Vec<(usize, (usize, usize), u32)> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut i = open;
    while i <= close && i < code.len() {
        let t = code[i];
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "(" | "[" | "{") => depth += 1,
            (TokenKind::Punct, ")" | "]" | "}") => depth -= 1,
            // A closure argument: `|` as the first token of an argument
            // (preceded by `(` or `,` at depth 1), preceded by `move`, or
            // passed by reference (`&|…|`, as `run_job_resilient` takes).
            (TokenKind::Punct, "|") if depth == 1 => {
                let starts_arg = i > 0
                    && (code[i - 1].text == "("
                        || code[i - 1].text == ","
                        || code[i - 1].text == "move"
                        || (code[i - 1].text == "&"
                            && i > 1
                            && (code[i - 2].text == "(" || code[i - 2].text == ",")));
                if !starts_arg {
                    i += 1;
                    continue;
                }
                // Parameter list: up to the matching `|` (`||` is two
                // adjacent pipes = empty parameter list).
                let params_end = if code.get(i + 1).is_some_and(|n| n.text == "|") {
                    i + 1
                } else {
                    let mut k = i + 1;
                    let mut d = 0i32;
                    while k < code.len() {
                        match code[k].text.as_str() {
                            "(" | "[" | "<" => d += 1,
                            ")" | "]" | ">" => d -= 1,
                            "|" if d == 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    k
                };
                // Body: a braced block, or an expression up to the next
                // `,` at this depth / the call's closing paren. A `->`
                // annotation forces a braced body (expression closures
                // cannot carry one), so only then scan ahead to the `{`.
                let mut b = params_end + 1;
                if code.get(b).is_some_and(|n| n.text == "-")
                    && code.get(b + 1).is_some_and(|n| n.text == ">")
                {
                    while b < code.len() && code[b].text != "{" {
                        b += 1;
                    }
                }
                let (body, after) = if code.get(b).is_some_and(|n| n.text == "{") {
                    let end = matching_brace(code, b);
                    ((b, end), end + 1)
                } else {
                    // Expression closure: tokens from just after the
                    // params to the `,`/`)` ending the argument.
                    let mut k = params_end + 1;
                    let mut d = 0i32;
                    while k <= close && k < code.len() {
                        match code[k].text.as_str() {
                            "(" | "[" | "{" => d += 1,
                            ")" | "]" | "}" => {
                                if d == 0 {
                                    break;
                                }
                                d -= 1;
                            }
                            "," if d == 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    ((params_end + 1, k.saturating_sub(1)), k)
                };
                out.push(((i, body.0), body, t.line));
                i = after;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    // Flatten the sig tuple (pipe..body-open) into the expected shape.
    out.into_iter()
        .map(|((pipe, _), body, line)| (pipe, body, line))
        .collect()
}

fn matching_paren(code: &[&Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Rust keywords and control-flow idents that look like calls.
const NON_CALL_IDENTS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "else", "in", "as", "fn", "move", "let",
    "where", "impl",
];

/// Extracts calls from a body and resolves them to node indices.
#[allow(clippy::too_many_arguments)]
fn resolve_calls(
    body: &[&Token],
    p: &PendingNode,
    parsed: &ParsedFile,
    rel: &str,
    crate_names: &BTreeMap<String, String>,
    pending: &[PendingNode],
    by_name: &BTreeMap<String, Vec<usize>>,
    methods_by_name: &BTreeMap<String, Vec<usize>>,
) -> BTreeSet<String> {
    let prefix = id_prefix(rel, crate_names);
    let krate = prefix.split("::").next().unwrap_or("").to_string();
    let mut calls: BTreeSet<String> = BTreeSet::new();

    for (i, t) in body.iter().enumerate() {
        if t.kind != TokenKind::Ident || NON_CALL_IDENTS.contains(&t.text.as_str()) {
            continue;
        }
        // A call: ident directly followed by `(`; macros (`name!(..)`)
        // are skipped — they are not functions.
        if body.get(i + 1).is_none_or(|n| n.text != "(") {
            continue;
        }
        let name = t.text.as_str();
        // Leading path segments: `a :: b :: name (`.
        let mut segs: Vec<String> = vec![name.to_string()];
        let mut k = i;
        while k >= 2 && body[k - 1].text == ":" && body[k - 2].text == ":" {
            if k >= 3 && body[k - 3].kind == TokenKind::Ident {
                segs.insert(0, body[k - 3].text.clone());
                k -= 3;
            } else {
                break; // `::<turbofish>` or global `::` path head
            }
        }
        let is_method = k >= 1 && body[k - 1].text == ".";

        if is_method && segs.len() == 1 {
            // `.name(` — link every workspace method of that name.
            if let Some(hits) = methods_by_name.get(name) {
                for &h in hits {
                    calls.insert(pending[h].id.clone());
                }
            }
            continue;
        }
        if segs.len() == 1 {
            // Bare call: module-local, then imports, then same-crate.
            let local: Vec<&PendingNode> = by_name
                .get(name)
                .map(|hits| {
                    hits.iter()
                        .map(|&h| &pending[h])
                        .filter(|c| {
                            c.owner.is_none()
                                && module_of(&c.id) == module_of(&p.id)
                                && !c.id.contains("{closure")
                        })
                        .collect()
                })
                .unwrap_or_default();
            if !local.is_empty() {
                for c in local {
                    calls.insert(c.id.clone());
                }
                continue;
            }
            if resolve_import(name, parsed, by_name, pending, &mut calls) {
                continue;
            }
            if let Some(hits) = by_name.get(name) {
                for &h in hits {
                    let c = &pending[h];
                    if c.owner.is_none() && c.id.starts_with(&format!("{krate}::"))
                        || c.owner.is_none() && module_of(&c.id) == krate
                    {
                        calls.insert(c.id.clone());
                    }
                }
            }
            continue;
        }
        // Qualified path: normalise `crate`/`self`/`super`/`Self`, map
        // the head through imports, then suffix-match.
        let mut path = segs.clone();
        let mut same_crate_only = false;
        match path[0].as_str() {
            "crate" | "super" | "self" => {
                path.remove(0);
                same_crate_only = true;
                while path.first().is_some_and(|s| s == "super" || s == "self") {
                    path.remove(0);
                }
            }
            "Self" => {
                if let Some(owner) = &p.owner {
                    path[0] = owner.clone();
                }
            }
            head => {
                if let Some(u) = parsed.uses.iter().find(|u| u.alias == *head) {
                    let mut full = u.path.clone();
                    if full
                        .first()
                        .is_some_and(|s| s == "crate" || s == "super" || s == "self")
                    {
                        full.remove(0);
                        same_crate_only = true;
                    }
                    full.extend(path.drain(1..));
                    path = full;
                }
            }
        }
        if path.is_empty() {
            continue;
        }
        let suffix = format!("::{}", path.join("::"));
        let last = path.last().cloned().unwrap_or_default();
        if let Some(hits) = by_name.get(&last) {
            for &h in hits {
                let c = &pending[h];
                let id_matches = c.id.ends_with(&suffix) || c.id == path.join("::");
                let crate_ok = !same_crate_only || c.id.starts_with(&format!("{krate}::"));
                if id_matches && crate_ok {
                    calls.insert(c.id.clone());
                }
            }
        }
        // `Type::method(..)` UFCS: fall back to two-segment owner::name
        // matching when the full path found nothing.
        if segs.len() == 2 && !calls.iter().any(|c| c.ends_with(&suffix)) {
            if let Some(hits) = by_name.get(name) {
                for &h in hits {
                    let c = &pending[h];
                    if c.id.ends_with(&format!("::{}::{}", segs[0], name)) {
                        calls.insert(c.id.clone());
                    }
                }
            }
        }
    }
    calls.remove(&p.id); // direct self-recursion adds nothing
    calls
}

/// Resolves a bare name through the file's `use` aliases (including
/// globs); returns whether anything was linked.
fn resolve_import(
    name: &str,
    parsed: &ParsedFile,
    by_name: &BTreeMap<String, Vec<usize>>,
    pending: &[PendingNode],
    calls: &mut BTreeSet<String>,
) -> bool {
    let mut hit = false;
    for u in &parsed.uses {
        let path = if u.alias == name {
            u.path.clone()
        } else if u.alias.is_empty() {
            // Glob: try `prefix::name`.
            let mut p = u.path.clone();
            p.push(name.to_string());
            p
        } else {
            continue;
        };
        let mut p = path;
        while p
            .first()
            .is_some_and(|s| s == "crate" || s == "super" || s == "self")
        {
            p.remove(0);
        }
        if p.is_empty() {
            continue;
        }
        let suffix = format!("::{}", p.join("::"));
        if let Some(hits) = by_name.get(p.last().map(String::as_str).unwrap_or(name)) {
            for &h in hits {
                let c = &pending[h];
                if c.id.ends_with(&suffix) || c.id == p.join("::") {
                    calls.insert(c.id.clone());
                    hit = true;
                }
            }
        }
    }
    hit
}

/// `reduce_core::exec::parallel_map` → `reduce_core::exec`.
fn module_of(id: &str) -> String {
    match id.rsplit_once("::") {
        Some((m, _)) => m.to_string(),
        None => String::new(),
    }
}

// ---------------------------------------------------------------------------
// Rendering + the ratcheted check
// ---------------------------------------------------------------------------

/// Renders the analysis as one JSON document (nodes, edges, roots,
/// violations) — the `cargo xtask graph --format json` output.
pub fn render_json(a: &Analysis) -> String {
    let mut out = String::from("{\n  \"nodes\": [");
    let mut first = true;
    for (id, n) in &a.nodes {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    {\"id\": ");
        push_json_string(&mut out, id);
        out.push_str(", \"file\": ");
        push_json_string(&mut out, &n.file);
        out.push_str(&format!(", \"line\": {}, \"root\": {}", n.line, n.is_root));
        out.push_str(", \"own\": [");
        push_effect_list(&mut out, n.own);
        out.push_str("], \"effects\": [");
        push_effect_list(&mut out, n.effective);
        out.push_str("], \"calls\": [");
        for (j, c) in n.calls.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            push_json_string(&mut out, c);
        }
        out.push_str("]}");
    }
    out.push_str("\n  ],\n  \"violations\": [");
    let mut first = true;
    for v in &a.violations {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    {\"root\": ");
        push_json_string(&mut out, &v.root);
        out.push_str(", \"effect\": ");
        push_json_string(&mut out, v.effect.name());
        out.push_str(", \"chain\": ");
        push_json_string(&mut out, &v.render_chain());
        out.push('}');
    }
    out.push_str("\n  ],\n  \"allow_findings\": [");
    let mut first = true;
    for f in &a.allow_findings {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    {\"file\": ");
        push_json_string(&mut out, &f.file);
        out.push_str(&format!(", \"line\": {}, \"message\": ", f.line));
        push_json_string(&mut out, &f.message);
        out.push('}');
    }
    let roots = a.nodes.values().filter(|n| n.is_root).count();
    let edges: usize = a.nodes.values().map(|n| n.calls.len()).sum();
    out.push_str(&format!(
        "\n  ],\n  \"summary\": {{\"functions\": {}, \"edges\": {}, \"roots\": {}, \
         \"violations\": {}}}\n}}\n",
        a.nodes.len(),
        edges,
        roots,
        a.violations.len()
    ));
    out
}

fn push_effect_list(out: &mut String, set: EffectSet) {
    let mut first = true;
    for e in set.iter() {
        if !first {
            out.push_str(", ");
        }
        first = false;
        push_json_string(out, e.name());
    }
}

/// Renders the human-oriented summary (`cargo xtask graph`).
pub fn render_text(a: &Analysis) -> String {
    let roots: Vec<(&String, &Node)> = a.nodes.iter().filter(|(_, n)| n.is_root).collect();
    let edges: usize = a.nodes.values().map(|n| n.calls.len()).sum();
    let mut out = format!(
        "xtask graph: {} function(s), {} call edge(s), {} enforced root(s)\n",
        a.nodes.len(),
        edges,
        roots.len()
    );
    for (id, n) in &roots {
        let status = if n.effective.is_empty() {
            "effect-free".to_string()
        } else {
            let names: Vec<&str> = n.effective.iter().map(|e| e.name()).collect();
            names.join("+")
        };
        out.push_str(&format!("  root {id} [{status}] ({}:{})\n", n.file, n.line));
    }
    for v in &a.violations {
        out.push_str(&format!(
            "error[xtask::effect-{}]: effect `{}` reaches a parallel job root\n  chain: {}\n",
            v.effect.name(),
            v.effect.name(),
            v.render_chain()
        ));
    }
    for f in &a.allow_findings {
        out.push_str(&format!(
            "error[xtask::effect-allow]: {}\n  --> {}:{}\n",
            f.message, f.file, f.line
        ));
    }
    out
}

/// Outcome of comparing an analysis against the baseline's `effects`
/// section: what is new (fails), what is tolerated, and which baseline
/// entries are stale (also fails — tighten the file).
#[derive(Debug, Default)]
pub struct EffectCheck {
    /// Violations not covered by the baseline.
    pub fresh: Vec<String>,
    /// Baselined (tolerated) violation count.
    pub tolerated: usize,
    /// `(root, effect)` baseline entries nothing matched any more.
    pub stale: Vec<(String, String)>,
}

impl EffectCheck {
    /// Whether the check passes.
    pub fn ok(&self, allow_findings: &[AllowFinding]) -> bool {
        self.fresh.is_empty() && self.stale.is_empty() && allow_findings.is_empty()
    }
}

/// Ratchets `a.violations` against `baseline.effects`.
pub fn check_against_baseline(a: &Analysis, baseline: &Baseline) -> EffectCheck {
    let mut check = EffectCheck::default();
    let mut observed: BTreeMap<(String, String), u64> = BTreeMap::new();
    for v in &a.violations {
        *observed
            .entry((v.root.clone(), v.effect.name().to_string()))
            .or_insert(0) += 1;
    }
    for v in &a.violations {
        let key = (v.root.clone(), v.effect.name().to_string());
        let seen = observed.get(&key).copied().unwrap_or(0);
        if seen <= baseline.effect_allowed(&v.root, v.effect.name()) {
            check.tolerated += 1;
        } else {
            check.fresh.push(format!(
                "effect `{}` reaches root `{}`\n  chain: {}",
                v.effect.name(),
                v.root,
                v.render_chain()
            ));
        }
    }
    for (root, effects) in &baseline.effects {
        for (effect, allowed) in effects {
            let seen = observed
                .get(&(root.clone(), effect.clone()))
                .copied()
                .unwrap_or(0);
            if seen < *allowed {
                check.stale.push((root.clone(), effect.clone()));
            }
        }
    }
    check
}

/// The observed `effects` section (what `--update-baseline` writes).
pub fn observed_effects(a: &Analysis) -> BTreeMap<String, BTreeMap<String, u64>> {
    let mut out: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
    for v in &a.violations {
        *out.entry(v.root.clone())
            .or_default()
            .entry(v.effect.name().to_string())
            .or_insert(0) += 1;
    }
    out
}
