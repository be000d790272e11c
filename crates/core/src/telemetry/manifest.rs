//! Run manifests: one `manifest.json` per bench run recording everything
//! needed to reproduce its artifacts — workbench spec, seeds, grid
//! configuration, policies, thread count, and crate version.

use super::json::{push_json_f32, push_json_f64, push_json_string};
use super::StageWorkspace;
use crate::error::Result;
use crate::resilience::{ResilienceConfig, ResilienceTable};
use reduce_systolic::FleetConfig;
use std::path::Path;

/// Manifest format version, bumped on incompatible field changes.
const FORMAT_VERSION: u64 = 1;

/// The Step-① grid a run characterised, as recorded in its manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct GridManifest {
    /// The injected fault rates.
    pub fault_rates: Vec<f64>,
    /// Measured retraining budget per cell.
    pub max_epochs: usize,
    /// Repeats per rate.
    pub repeats: usize,
    /// The user accuracy constraint.
    pub constraint: f32,
    /// Spatial fault model (Debug-formatted).
    pub fault_model: String,
    /// Master seed for fault-map generation.
    pub seed: u64,
}

impl GridManifest {
    /// Records a characterisation config.
    pub fn from_config(config: &ResilienceConfig) -> Self {
        GridManifest {
            fault_rates: config.fault_rates.clone(),
            max_epochs: config.max_epochs,
            repeats: config.repeats,
            constraint: config.constraint,
            fault_model: format!("{:?}", config.fault_model),
            seed: config.seed,
        }
    }
}

/// The resilience table a run loaded instead of characterising Step ①
/// (`fig3 --table`), as recorded in its manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct TableManifest {
    /// CRC-32 (the journal's framing checksum) of the table's text as
    /// [`ResilienceTable::to_text`] renders it: the bytes of the file
    /// `fig2 --table-out` wrote.
    pub crc32: u32,
    /// Table rows: one per characterised fault rate.
    pub rows: usize,
}

impl TableManifest {
    /// Records a loaded table.
    pub fn of(table: &ResilienceTable) -> Self {
        TableManifest {
            crc32: crate::journal::crc32(table.to_text().as_bytes()),
            rows: table.entries().len(),
        }
    }
}

/// The Step-③ fleet a run deployed to, as recorded in its manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetManifest {
    /// Number of chips.
    pub chips: usize,
    /// Array rows per chip.
    pub rows: usize,
    /// Array columns per chip.
    pub cols: usize,
    /// Fault-rate distribution (Debug-formatted).
    pub rates: String,
    /// Spatial fault model (Debug-formatted).
    pub model: String,
    /// Master fleet seed.
    pub seed: u64,
}

impl FleetManifest {
    /// Records a fleet-generation config.
    pub fn from_config(config: &FleetConfig) -> Self {
        FleetManifest {
            chips: config.chips,
            rows: config.rows,
            cols: config.cols,
            rates: format!("{:?}", config.rates),
            model: format!("{:?}", config.model),
            seed: config.seed,
        }
    }
}

/// Fleet-evaluation throughput, as recorded in a run's manifest.
///
/// Wall-clock derived, so runs that redact timing leave the field
/// `None` — exactly like [`RunManifest::threads`] — keeping redacted
/// artifacts byte-identical across thread counts and machines.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputManifest {
    /// Chips evaluated (retrained or quarantined).
    pub chips: usize,
    /// Wall-clock seconds spent in the deploy stage.
    pub seconds: f64,
    /// `chips / seconds` (0 when `seconds` is 0).
    pub chips_per_sec: f64,
}

/// Everything needed to reproduce a bench run's artifacts.
///
/// Serialised as pretty-printed JSON with struct-driven key order, so a
/// manifest's bytes are deterministic for a given run configuration. The
/// `threads` field is the one knob that does not influence results (the
/// executor is deterministic); runs that redact timing set it to `None`
/// so redacted artifacts stay byte-identical across thread counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// The producing binary (e.g. `fig2`, `ablation:grid`).
    pub tool: String,
    /// `reduce-core` crate version.
    pub crate_version: String,
    /// Bench scale preset (`smoke`, `default`, `full`).
    pub scale: String,
    /// Worker thread count; `None` when timing is redacted (thread count
    /// never affects results, only wall-clock).
    pub threads: Option<usize>,
    /// The user accuracy constraint.
    pub constraint: f32,
    /// Workbench spec (Debug-formatted model + dataset description).
    pub workbench: String,
    /// Characterisation grid, when the run performed Step ①.
    pub grid: Option<GridManifest>,
    /// The loaded resilience table, when the run took its budgets from a
    /// file instead. Unlike the other optional sections it is left out of
    /// the JSON when absent, not written as `null`, so the manifests of
    /// runs that characterise keep their bytes.
    pub table: Option<TableManifest>,
    /// Retraining policies evaluated, in evaluation order.
    pub policies: Vec<String>,
    /// Per-stage workspace allocation counters (empty when the run did not
    /// record them). Deterministic for a given configuration, so recording
    /// them preserves cross-thread-count manifest identity.
    pub workspace: Vec<StageWorkspace>,
    /// Deploy-stage throughput; `None` when timing is redacted (like
    /// `threads`, wall-clock never affects results).
    pub throughput: Option<ThroughputManifest>,
    /// Deployed fleet, when the run performed Step ③.
    pub fleet: Option<FleetManifest>,
}

impl RunManifest {
    /// Starts a manifest for `tool` at `scale`; the crate version is
    /// stamped automatically.
    pub fn new(tool: &str, scale: &str) -> Self {
        RunManifest {
            tool: tool.to_string(),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            scale: scale.to_string(),
            threads: None,
            constraint: 0.0,
            workbench: String::new(),
            grid: None,
            table: None,
            policies: Vec::new(),
            workspace: Vec::new(),
            throughput: None,
            fleet: None,
        }
    }

    /// Serialises the manifest as pretty-printed, key-order-stable JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str("{\n");
        push_field(&mut s, "format_version", &FORMAT_VERSION.to_string());
        push_str_field(&mut s, "tool", &self.tool);
        push_str_field(&mut s, "crate_version", &self.crate_version);
        push_str_field(&mut s, "scale", &self.scale);
        match self.threads {
            Some(t) => push_field(&mut s, "threads", &t.to_string()),
            None => push_field(&mut s, "threads", "null"),
        }
        let mut constraint = String::new();
        push_json_f32(&mut constraint, self.constraint);
        push_field(&mut s, "constraint", &constraint);
        push_str_field(&mut s, "workbench", &self.workbench);
        match &self.grid {
            Some(grid) => {
                s.push_str("  \"grid\": {\n");
                let mut rates = String::from("[");
                for (i, r) in grid.fault_rates.iter().enumerate() {
                    if i > 0 {
                        rates.push_str(", ");
                    }
                    push_json_f64(&mut rates, *r);
                }
                rates.push(']');
                push_nested_field(&mut s, "fault_rates", &rates);
                push_nested_field(&mut s, "max_epochs", &grid.max_epochs.to_string());
                push_nested_field(&mut s, "repeats", &grid.repeats.to_string());
                let mut c = String::new();
                push_json_f32(&mut c, grid.constraint);
                push_nested_field(&mut s, "constraint", &c);
                push_nested_str_field(&mut s, "fault_model", &grid.fault_model);
                // Step ① always characterises FAP; the key keeps manifests
                // byte-identical to those of runs that recorded a choice.
                push_nested_str_field(&mut s, "strategy", "Fap");
                push_nested_field_last(&mut s, "seed", &grid.seed.to_string());
                s.push_str("  },\n");
            }
            None => s.push_str("  \"grid\": null,\n"),
        }
        if let Some(table) = &self.table {
            s.push_str("  \"table\": {\n");
            push_nested_str_field(&mut s, "crc32", &format!("{:08x}", table.crc32));
            push_nested_field_last(&mut s, "rows", &table.rows.to_string());
            s.push_str("  },\n");
        }
        let mut policies = String::from("[");
        for (i, p) in self.policies.iter().enumerate() {
            if i > 0 {
                policies.push_str(", ");
            }
            push_json_string(&mut policies, p);
        }
        policies.push(']');
        push_field(&mut s, "policies", &policies);
        let mut workspace = String::from("[");
        for (i, w) in self.workspace.iter().enumerate() {
            if i > 0 {
                workspace.push_str(", ");
            }
            workspace.push_str("{\"stage\": ");
            push_json_string(&mut workspace, &w.stage);
            workspace.push_str(&format!(
                ", \"hits\": {}, \"misses\": {}, \"bytes_allocated\": {}}}",
                w.hits, w.misses, w.bytes_allocated
            ));
        }
        workspace.push(']');
        push_field(&mut s, "workspace", &workspace);
        match &self.throughput {
            Some(t) => {
                s.push_str("  \"throughput\": {\n");
                push_nested_field(&mut s, "chips", &t.chips.to_string());
                let mut seconds = String::new();
                push_json_f64(&mut seconds, t.seconds);
                push_nested_field(&mut s, "seconds", &seconds);
                let mut rate = String::new();
                push_json_f64(&mut rate, t.chips_per_sec);
                push_nested_field_last(&mut s, "chips_per_sec", &rate);
                s.push_str("  },\n");
            }
            None => s.push_str("  \"throughput\": null,\n"),
        }
        match &self.fleet {
            Some(fleet) => {
                s.push_str("  \"fleet\": {\n");
                push_nested_field(&mut s, "chips", &fleet.chips.to_string());
                push_nested_field(&mut s, "rows", &fleet.rows.to_string());
                push_nested_field(&mut s, "cols", &fleet.cols.to_string());
                push_nested_str_field(&mut s, "rates", &fleet.rates);
                push_nested_str_field(&mut s, "model", &fleet.model);
                push_nested_field_last(&mut s, "seed", &fleet.seed.to_string());
                s.push_str("  }\n");
            }
            None => s.push_str("  \"fleet\": null\n"),
        }
        s.push_str("}\n");
        s
    }

    /// Writes the manifest to `path` (creating parent directories) via the
    /// shared atomic artifact writer, so an interrupted run never leaves a
    /// torn manifest behind.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ReduceError::InvalidConfig`] wrapping the I/O
    /// failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        crate::artifact::write_atomic(path, &self.to_json())
    }
}

fn push_field(out: &mut String, key: &str, raw: &str) {
    out.push_str(&format!("  \"{key}\": {raw},\n"));
}

fn push_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!("  \"{key}\": "));
    push_json_string(out, value);
    out.push_str(",\n");
}

fn push_nested_field(out: &mut String, key: &str, raw: &str) {
    out.push_str(&format!("    \"{key}\": {raw},\n"));
}

fn push_nested_field_last(out: &mut String, key: &str, raw: &str) {
    out.push_str(&format!("    \"{key}\": {raw}\n"));
}

fn push_nested_str_field(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!("    \"{key}\": "));
    push_json_string(out, value);
    out.push_str(",\n");
}

#[cfg(test)]
mod tests {
    use super::super::json::{self, JsonValue};
    use super::*;

    fn sample() -> RunManifest {
        let mut m = RunManifest::new("fig3", "smoke");
        m.threads = Some(4);
        m.constraint = 0.91;
        m.workbench = "TwoMoons 16x16".to_string();
        m.grid = Some(GridManifest {
            fault_rates: vec![0.0, 0.1, 0.25],
            max_epochs: 10,
            repeats: 5,
            constraint: 0.91,
            fault_model: "Random".to_string(),
            seed: 0xC0FFEE,
        });
        m.policies = vec!["reduce-max".to_string(), "fixed:4".to_string()];
        m.workspace = vec![
            StageWorkspace {
                stage: "characterize".to_string(),
                hits: 150,
                misses: 15,
                bytes_allocated: 6144,
            },
            StageWorkspace {
                stage: "deploy".to_string(),
                hits: 7,
                misses: 3,
                bytes_allocated: 512,
            },
        ];
        m.throughput = Some(ThroughputManifest {
            chips: 20,
            seconds: 1.25,
            chips_per_sec: 16.0,
        });
        m.fleet = Some(FleetManifest {
            chips: 20,
            rows: 16,
            cols: 16,
            rates: "Uniform { lo: 0.0, hi: 0.25 }".to_string(),
            model: "Random".to_string(),
            seed: 0xF1EE7,
        });
        m
    }

    #[test]
    fn json_parses_and_carries_every_section() {
        let doc = json::parse(&sample().to_json()).expect("own output parses");
        assert_eq!(
            doc.field("format_version").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(doc.field("tool").and_then(JsonValue::as_str), Some("fig3"));
        assert_eq!(
            doc.field("scale").and_then(JsonValue::as_str),
            Some("smoke")
        );
        assert_eq!(doc.field("threads").and_then(JsonValue::as_usize), Some(4));
        assert_eq!(
            doc.field("constraint").and_then(JsonValue::as_f32),
            Some(0.91)
        );
        let grid = doc.field("grid").expect("grid section");
        assert_eq!(
            grid.field("strategy").and_then(JsonValue::as_str),
            Some("Fap")
        );
        assert_eq!(
            grid.field("seed").and_then(JsonValue::as_u64),
            Some(0xC0FFEE)
        );
        match grid.field("fault_rates") {
            Some(JsonValue::Arr(rates)) => assert_eq!(rates.len(), 3),
            other => panic!("fault_rates: {other:?}"),
        }
        match doc.field("policies") {
            Some(JsonValue::Arr(policies)) => assert_eq!(policies.len(), 2),
            other => panic!("policies: {other:?}"),
        }
        match doc.field("workspace") {
            Some(JsonValue::Arr(stages)) => {
                assert_eq!(stages.len(), 2);
                let deploy = stages.get(1).expect("two stages");
                assert_eq!(
                    deploy.field("stage").and_then(JsonValue::as_str),
                    Some("deploy")
                );
                assert_eq!(deploy.field("misses").and_then(JsonValue::as_u64), Some(3));
            }
            other => panic!("workspace: {other:?}"),
        }
        let throughput = doc.field("throughput").expect("throughput section");
        assert_eq!(
            throughput
                .field("chips_per_sec")
                .and_then(JsonValue::as_f64),
            Some(16.0)
        );
        let fleet = doc.field("fleet").expect("fleet section");
        assert_eq!(
            fleet.field("seed").and_then(JsonValue::as_u64),
            Some(0xF1EE7)
        );
        // Absent optional sections are written as explicit nulls, except
        // the loaded table, which is left out.
        let bare = json::parse(&RunManifest::new("fig2", "default").to_json()).expect("parses");
        for key in ["threads", "grid", "throughput", "fleet"] {
            assert!(bare.field(key).is_some_and(JsonValue::is_null), "{key}");
        }
        assert!(bare.field("table").is_none());
    }

    #[test]
    fn a_loaded_table_is_recorded_by_digest_and_row_count() {
        let table = ResilienceTable::from_text(
            "# reduce resilience table v1\nepoch_cap 8\nrate mean_epochs max_epochs\n0 0 0\n0.3 1 2\n",
        )
        .expect("well-formed table");
        let recorded = TableManifest::of(&table);
        assert_eq!(recorded.rows, 2);
        let mut m = sample();
        m.table = Some(recorded.clone());
        let doc = json::parse(&m.to_json()).expect("own output parses");
        let section = doc.field("table").expect("table section");
        let digest = format!("{:08x}", recorded.crc32);
        assert_eq!(
            section.field("crc32").and_then(JsonValue::as_str),
            Some(digest.as_str())
        );
        assert_eq!(section.field("rows").and_then(JsonValue::as_usize), Some(2));
    }

    #[test]
    fn serialisation_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn version_is_stamped() {
        let m = RunManifest::new("fig2", "smoke");
        assert_eq!(m.crate_version, env!("CARGO_PKG_VERSION"));
    }
}
