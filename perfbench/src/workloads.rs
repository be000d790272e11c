//! The three workloads: set-up, measured rounds and output checks.
//!
//! * `characterize-vgg` — Step ① (`ResilienceAnalysis::run`, journal off)
//!   on a two-cell subset of fig2's default grid. Conv/GEMM passes
//!   dominate and the cells are equal-sized (`StopRule::Exact`), so
//!   tensor and nn gains show here while the executor stays balanced.
//! * `fleet-vgg-efat` — Steps ②+③ (`FleetEvaluation`, journal off) on 48
//!   paper-scale chips with eFAT clustering and Reduce(max) budgets from
//!   the checked-in fig2 default-scale table. The only workload where
//!   chips share work (warm starts) and batches are unequal.
//! * `fleet-fap-resume` — a streaming FAP-only fleet of 10 000 toy chips,
//!   journaled with a run log, crashed once mid-run through the `IoPolicy`
//!   seam and resumed. GEMM work is near zero, so journal writes, resume
//!   reads, chip generation and masking dominate.

use crate::check;
use crate::trace;
use crate::{peak_rss_mb, Metric, Report, Settings};
use reduce_core::artifact::{install_io_policy, FaultKind, FaultyIo, IoOp, IoPolicy};
use reduce_core::telemetry::{NullObserver, RunLog};
use reduce_core::ChipSource;
use reduce_core::{
    Checkpoint, ExecConfig, FatRunner, FleetEvaluation, FleetReport, FleetStrategy, IoStats,
    Pretrained, ResilienceAnalysis, ResilienceConfig, ResilienceTable, RetrainPolicy, SeededChips,
    Statistic, Workbench,
};
use reduce_systolic::{
    chip_rate, generate_chip, Chip, ClusterConfig, FaultMap, FaultModel, FleetConfig,
    RateDistribution,
};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub type Res<T> = Result<T, Box<dyn Error>>;

/// fig2/fig3 `--scale default`: nano-VGG on 500 + 500 synthetic images.
const VGG_SAMPLES: usize = 500;
pub const VGG_PRETRAIN_EPOCHS: usize = 40;
const VGG_CONSTRAINT: f32 = 0.91;
const VGG_MAX_EPOCHS: usize = 16;
/// The characterised grid subset: one cell per executor worker at two
/// threads, both of which reach the constraint on every seed tried.
const GRID_RATES: [f64; 2] = [0.10, 0.20];
const EFAT_CHIPS: usize = 48;

/// fig3 `--scale smoke` workbench, at fleet scale.
pub const TOY_PRETRAIN_EPOCHS: usize = 15;
const TOY_CONSTRAINT: f32 = 0.90;
const FAP_CHIPS: usize = 10_000;
/// The artifact IO operation the crash is injected at: a torn write part
/// way through the journal (the run performs ~1 600 operations).
pub const FAP_CRASH_OP: u64 = 800;

/// The workload seed selects the fault inputs: at the recorded seed they
/// are exactly the fig2/fig3 defaults (`base`), any other seed gives an
/// independent stream. (Fleets seed chip `i` from `seed + i`, so a plain
/// offset would just shift the same chips along.)
fn derived(base: u64, seed: u64) -> u64 {
    if seed == crate::DEFAULT_SEED {
        return base;
    }
    let mut z = (base ^ seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn grid_config(seed: u64) -> Res<ResilienceConfig> {
    Ok(ResilienceConfig::builder()
        .fault_rates(GRID_RATES.to_vec())
        .max_epochs(VGG_MAX_EPOCHS)
        .repeats(1)
        .constraint(VGG_CONSTRAINT)
        .seed(derived(0xC0FFEE, seed))
        .build()?)
}

/// fig3's default fleet (`Scale::fleet_config`) with `chips` chips.
fn fig3_fleet(chips: usize, seed: u64, array: (usize, usize)) -> FleetConfig {
    FleetConfig {
        chips,
        rows: array.0,
        cols: array.1,
        rates: RateDistribution::Uniform { lo: 0.0, hi: 0.3 },
        model: FaultModel::Random,
        seed,
    }
}

/// fig3's fleet with every chip's fault positions redrawn from the
/// workload seed. Chip `i` keeps the rate fig3 gives it, so epoch budgets
/// and resilience classes — and with them the work a round does — stay
/// comparable across seeds, while the fault maps are fresh. At the recorded
/// seed the chips are fig3's own, bit for bit.
pub struct RedrawnChips {
    fleet: FleetConfig,
    seed: u64,
}

impl ChipSource for RedrawnChips {
    fn len(&self) -> usize {
        self.fleet.chips
    }

    fn chip(&self, id: usize) -> reduce_core::Result<Chip> {
        if self.seed == crate::DEFAULT_SEED {
            return Ok(generate_chip(&self.fleet, id)?);
        }
        let rate = chip_rate(&self.fleet, id)?;
        let map_seed = derived(self.fleet.seed.wrapping_add(id as u64), self.seed);
        let map = FaultMap::generate(
            self.fleet.rows,
            self.fleet.cols,
            rate,
            self.fleet.model,
            map_seed,
        )?;
        Ok(Chip::new(id, map))
    }

    fn fault_rate(&self, id: usize) -> reduce_core::Result<f64> {
        Ok(chip_rate(&self.fleet, id)?)
    }
}

pub fn efat_evaluation<'a>(
    source: &'a dyn reduce_core::ChipSource,
    table: &'a ResilienceTable,
    exec: &'a ExecConfig,
) -> FleetEvaluation<'a> {
    FleetEvaluation::new(RetrainPolicy::Reduce(Statistic::Max), VGG_CONSTRAINT)
        .source(source)
        .fleet_strategy(FleetStrategy::Clustered(ClusterConfig::default()))
        .table(table)
        .exec(exec)
}

pub fn fap_evaluation<'a>(
    source: &'a dyn reduce_core::ChipSource,
    exec: &'a ExecConfig,
) -> FleetEvaluation<'a> {
    FleetEvaluation::new(RetrainPolicy::Fixed(0), TOY_CONSTRAINT)
        .source(source)
        .exec(exec)
}

/// Runs `setup` once and returns its wall time with its product.
fn timed<T>(setup: impl FnOnce() -> Res<T>) -> Res<(f64, T)> {
    let t = Instant::now();
    let made = setup()?;
    Ok((t.elapsed().as_secs_f64(), made))
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// One round's outputs as the counters and checks see them.
pub struct RoundOutput {
    jobs: u64,
    good: u64,
    epochs: u64,
    quarantined: u64,
    /// The canonical rendering compared across rounds and with `expected/`.
    rendered: String,
    /// Invariant violations.
    problems: Vec<String>,
}

impl RoundOutput {
    pub fn analysis(analysis: &ResilienceAnalysis, cells: usize, max_epochs: usize) -> Self {
        let points = analysis.points();
        RoundOutput {
            jobs: cells as u64,
            good: points
                .iter()
                .filter(|p| p.epochs_to_constraint.is_some())
                .count() as u64,
            epochs: points
                .iter()
                .map(|p| p.accuracy_after_epoch.len() as u64)
                .sum(),
            quarantined: analysis.failures().len() as u64,
            rendered: check::render_analysis(analysis),
            problems: check::analysis_invariants(analysis, cells, max_epochs),
        }
    }

    pub fn fleet(report: &FleetReport, chips: usize) -> Self {
        RoundOutput {
            jobs: chips as u64,
            good: report.satisfied as u64,
            epochs: report.total_epochs as u64,
            quarantined: report.quarantined.len() as u64,
            rendered: check::render_fleet(report),
            problems: check::fleet_invariants(report, chips),
        }
    }
}

/// Accumulates measured rounds and their output checks.
pub struct Rounds {
    budget: f64,
    /// The recorded outputs to compare the first round with (recorded
    /// seed only), and whether to rewrite them instead.
    expected: Option<PathBuf>,
    bless: bool,
    pub walls: Vec<f64>,
    /// `VmHWM` once the first round has been recorded: the peak of one
    /// set-up plus one batch, as a single fig2/fig3 process holds it.
    first_peak_mb: f64,
    jobs: u64,
    good: u64,
    epochs: u64,
    failed: u64,
    problems: Vec<String>,
    first_output: Option<String>,
}

impl Rounds {
    /// A traced run measures one untraced round, the baseline its tracing
    /// overhead is taken against; an untraced run fills the budget.
    pub fn new(s: &Settings) -> Self {
        Rounds {
            budget: if s.trace { 0.0 } else { s.seconds },
            expected: s
                .recorded_seed()
                .then(|| s.home.join("expected").join(format!("{}.txt", s.workload))),
            bless: s.bless,
            walls: Vec::new(),
            first_peak_mb: f64::NAN,
            jobs: 0,
            good: 0,
            epochs: 0,
            failed: 0,
            problems: Vec::new(),
            first_output: None,
        }
    }

    /// Whether another round fits the measuring budget (the first always
    /// runs).
    pub fn more(&self) -> bool {
        self.walls.is_empty() || self.total() < self.budget
    }

    pub fn total(&self) -> f64 {
        self.walls.iter().sum()
    }

    /// Records one round's wall time and outputs. A round whose outputs
    /// fail a check counts all its jobs failed.
    pub fn record(&mut self, wall: f64, out: RoundOutput) {
        let RoundOutput {
            jobs,
            good,
            epochs,
            quarantined,
            rendered,
            mut problems,
        } = out;
        if self.walls.is_empty() {
            self.first_peak_mb = peak_rss_mb();
        }
        self.walls.push(wall);
        self.jobs += jobs;
        self.good += good;
        self.epochs += epochs;
        match &self.first_output {
            None => {
                if let Some(path) = &self.expected {
                    problems.extend(check::against_expected(path, &rendered, self.bless));
                }
                self.first_output = Some(rendered);
            }
            Some(first) if *first != rendered => {
                problems.push(format!("round {} differs from round 1", self.walls.len()));
            }
            Some(_) => {}
        }
        self.failed += if problems.is_empty() {
            quarantined
        } else {
            jobs
        };
        self.problems.extend(problems);
    }

    /// Records a failed output check: every job of the run counts failed.
    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
        self.failed = self.jobs;
    }

    /// Checks another rendering of the same outputs against the first
    /// round's.
    pub fn check_same(&mut self, what: &str, rendered: &str) {
        if self.first_output.as_deref() != Some(rendered) {
            self.fail(format!("{what} differs from the measured rounds"));
        }
    }

    /// The end-to-end metrics of the measured phase, plus the result
    /// lines that go with them. Every round does the same work, so the
    /// rates are one round's work over the median round wall time: the
    /// median keeps a burst of machine slowness in one round out of the
    /// figure. `setup_s` is likewise the median of the run's set-ups.
    pub fn finish(
        self,
        setups: &[f64],
        mut lines: Vec<String>,
        config: Vec<(String, String)>,
    ) -> Report {
        let setup_s = median(setups);
        let rounds = self.walls.len() as f64;
        let wall_s = median(&self.walls);
        let per_round = |count: u64| count as f64 / rounds / wall_s;
        let chips_per_s = per_round(self.jobs);
        let good_chips_per_s = per_round(self.good);
        let rss = self.first_peak_mb;
        lines.push(format!(
            "set-up: median {setup_s:.4} s over {} ({})",
            setups.len(),
            fmt_list(setups)
        ));
        lines.push(format!(
            "measured: {} round(s) in {:.3} s; round walls {} (q1 {:.4}, q3 {:.4})",
            self.walls.len(),
            self.total(),
            fmt_list(&self.walls),
            quantile(&self.walls, 0.25),
            quantile(&self.walls, 0.75)
        ));
        lines.push(format!("  wall_s           {wall_s:.4} s (median round)"));
        lines.push(format!(
            "  chips_per_s      {chips_per_s:.4} 1/s ({} chips per round)",
            self.jobs as f64 / rounds
        ));
        lines.push(format!(
            "  good_chips_per_s {good_chips_per_s:.4} 1/s ({} good per round)",
            self.good as f64 / rounds
        ));
        if self.epochs > 0 {
            lines.push(format!(
                "  epochs_per_s     {:.4} 1/s ({} FAT epochs per round)",
                per_round(self.epochs),
                self.epochs as f64 / rounds
            ));
        } else {
            lines.push("  epochs_per_s     n/a (no FAT epochs: FAP only)".to_string());
        }
        lines.push(format!(
            "  peak_rss_mb      {rss:.3} MB (VmHWM after the first round; {:.3} MB at exit)",
            peak_rss_mb()
        ));
        lines.push(format!(
            "  fail_frac        {} ({} of {} jobs failed)",
            self.failed as f64 / self.jobs.max(1) as f64,
            self.failed,
            self.jobs
        ));
        for p in &self.problems {
            lines.push(format!("CHECK FAILED: {p}"));
        }
        Report {
            attempted: self.jobs.max(1),
            failed: self.failed,
            correct: self.problems.is_empty(),
            config,
            lines,
            metrics: vec![
                Metric::new("setup_s", "s", setup_s),
                Metric::new("wall_s", "s", wall_s),
                Metric::new("chips_per_s", "1/s", chips_per_s),
                Metric::new("good_chips_per_s", "1/s", good_chips_per_s),
                Metric::new("peak_rss_mb", "MB", rss),
            ],
        }
    }
}

pub fn fmt_list(xs: &[f64]) -> String {
    let v: Vec<String> = xs.iter().map(|x| format!("{x:.3}")).collect();
    v.join(" ")
}

fn vgg_workbench() -> Workbench {
    Workbench::paper_scale(VGG_SAMPLES, VGG_SAMPLES, 1)
}

fn vgg_config(s: &Settings, wb: &Workbench) -> Vec<(String, String)> {
    vec![
        ("model".into(), format!("{:?}", wb.model)),
        (
            "workbench".into(),
            format!(
                "paper_scale({VGG_SAMPLES}, {VGG_SAMPLES}, seed {}), pretrain {VGG_PRETRAIN_EPOCHS} epochs, constraint {VGG_CONSTRAINT}",
                wb.seed
            ),
        ),
        ("set-ups per run".into(), "1 (40 pretraining epochs)".into()),
        ("measuring budget".into(), format!("{} s", s.seconds)),
    ]
}

/// Step ① set-up: pretraining plus the runner's dataset synthesis, as
/// `fig2` performs them.
pub fn vgg_setup(wb: &Workbench) -> Res<(FatRunner, Pretrained)> {
    let pretrained = wb.pretrain(VGG_PRETRAIN_EPOCHS)?;
    let runner = FatRunner::new(wb.clone())?;
    Ok((runner, pretrained))
}

pub fn characterize_vgg(s: &Settings) -> Res<Report> {
    let wb = vgg_workbench();
    let grid = grid_config(s.seed)?;
    let mut config = vgg_config(s, &wb);
    config.push((
        "grid".into(),
        format!(
            "rates {:?} x {} repeat(s) x {} epochs, StopRule::Exact, grid seed {:#x}, journal off",
            grid.fault_rates, grid.repeats, grid.max_epochs, grid.seed
        ),
    ));
    let (setup_s, (runner, pretrained)) = timed(|| vgg_setup(&wb))?;
    let exec = ExecConfig::new(crate::threads());
    let cells = grid.fault_rates.len() * grid.repeats;
    let mut rounds = Rounds::new(s);
    while rounds.more() {
        let t = Instant::now();
        let analysis = ResilienceAnalysis::run(&runner, &pretrained, grid.clone(), &exec)?;
        let wall = t.elapsed().as_secs_f64();
        rounds.record(
            wall,
            RoundOutput::analysis(&analysis, cells, grid.max_epochs),
        );
    }
    let mut lines = vec![format!(
        "baseline accuracy {:.4}",
        pretrained.baseline_accuracy
    )];
    if s.trace {
        lines.push("(traced run: end-to-end figures below are from the untraced rounds)".into());
        return trace::characterize(
            s,
            &wb,
            &runner,
            &pretrained,
            &grid,
            rounds,
            vec![setup_s],
            lines,
            config,
        );
    }
    Ok(rounds.finish(&[setup_s], lines, config))
}

pub fn load_table(s: &Settings) -> Res<(ResilienceTable, String)> {
    let path = s.home.join("data").join("fig2-default-table.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((ResilienceTable::from_text(&text)?, check::digest(&text)))
}

pub fn fleet_vgg_efat(s: &Settings) -> Res<Report> {
    let wb = vgg_workbench();
    let fleet = fig3_fleet(EFAT_CHIPS, 0xF1EE7, wb.array_dims());
    let mut config = vgg_config(s, &wb);
    let (setup_s, (runner, pretrained, table, digest, source)) = timed(|| {
        let (runner, pretrained) = vgg_setup(&wb)?;
        let (table, digest) = load_table(s)?;
        Ok((
            runner,
            pretrained,
            table,
            digest,
            RedrawnChips {
                fleet,
                seed: s.seed,
            },
        ))
    })?;
    config.push(("policy".into(), "Reduce(max)".into()));
    config.push((
        "strategy".into(),
        format!("Clustered({:?})", ClusterConfig::default()),
    ));
    config.push((
        "chips".into(),
        format!(
            "{} fig3 chips ({:?} rates, fleet seed {:#x}), fault positions redrawn from the workload seed, journal off",
            fleet.chips, fleet.rates, fleet.seed
        ),
    ));
    config.push((
        "table".into(),
        format!("data/fig2-default-table.txt ({digest})"),
    ));
    let exec = ExecConfig::new(crate::threads());
    let mut rounds = Rounds::new(s);
    let mut last = None;
    while rounds.more() {
        let t = Instant::now();
        let report = efat_evaluation(&source, &table, &exec).run(&runner, &pretrained)?;
        let wall = t.elapsed().as_secs_f64();
        rounds.record(wall, RoundOutput::fleet(&report, fleet.chips));
        last = Some(report);
    }
    let report = last.ok_or("no round ran")?;
    let lines = vec![
        format!("baseline accuracy {:.4}", pretrained.baseline_accuracy),
        format!(
            "eFAT: satisfied {}/{} chips, {} FAT epochs, {} clusters, {} warm starts",
            report.satisfied,
            report.evaluated,
            report.total_epochs,
            report.clusters,
            report.warm_started
        ),
    ];
    if s.trace {
        return trace::fleet_efat(
            s,
            &runner,
            &pretrained,
            &table,
            &source,
            rounds,
            vec![setup_s],
            lines,
            config,
        );
    }
    Ok(rounds.finish(&[setup_s], lines, config))
}

/// Toy set-up: pretraining, the runner's datasets and the chip source.
pub fn toy_setup(seed: u64) -> Res<(FatRunner, Pretrained, SeededChips)> {
    let wb = Workbench::toy(1);
    let pretrained = wb.pretrain(TOY_PRETRAIN_EPOCHS)?;
    let source = SeededChips::new(fig3_fleet(
        FAP_CHIPS,
        derived(0xF1EE7, seed),
        wb.array_dims(),
    ));
    Ok((FatRunner::new(wb)?, pretrained, source))
}

/// What one crash-and-resume round observed besides its report.
pub struct CrashFacts {
    /// Journal appends of the crashed run.
    pub crash_io: IoStats,
    /// Every artifact IO operation before the crash, and after it.
    pub crash_trace: Vec<(IoOp, PathBuf)>,
    pub resume_trace: Vec<(IoOp, PathBuf)>,
    /// Journal records `resume_observed` recovered, and how long it took.
    pub replayed: usize,
    pub resume_s: f64,
    /// `RunLog::flush` of the resumed run.
    pub flush_s: f64,
}

/// One `fleet-fap-resume` round in a fresh `dir`: a journaled run crashed
/// by a torn write at [`FAP_CRASH_OP`], `Checkpoint::resume_observed`,
/// and the re-run to completion, as `fig3 --out` then `--resume` do.
pub fn fap_round(
    dir: &Path,
    threads: usize,
    runner: &FatRunner,
    pretrained: &Pretrained,
    source: &dyn reduce_core::ChipSource,
    observer: Option<Arc<dyn reduce_core::telemetry::Observer>>,
) -> Res<(FleetReport, CrashFacts, Checkpoint)> {
    std::fs::create_dir_all(dir)?;
    let journal = dir.join("journal.jsonl");
    let exec_with = |log: &Arc<RunLog>| {
        let sinks: Vec<Arc<dyn reduce_core::telemetry::Observer>> =
            std::iter::once(log.clone() as Arc<dyn reduce_core::telemetry::Observer>)
                .chain(observer.clone())
                .collect();
        ExecConfig::new(threads).with_observer(Arc::new(reduce_core::telemetry::Fanout::new(sinks)))
    };
    let io = Arc::new(FaultyIo::armed(
        dir,
        0xC0FFEE,
        FAP_CRASH_OP,
        FaultKind::Torn,
    ));
    let crash_io = {
        let _guard = install_io_policy(IoPolicy::Faulty(io.clone()));
        let log = Arc::new(RunLog::create(&dir.join("run_log.jsonl"), false)?);
        let exec = exec_with(&log);
        let checkpoint = Checkpoint::create(&journal);
        let crashed = fap_evaluation(source, &exec)
            .journal(&checkpoint)
            .run(runner, pretrained);
        if !io.fired() || crashed.is_ok() {
            return Err(format!("the crash at artifact op {FAP_CRASH_OP} did not fire").into());
        }
        checkpoint.io_stats()?
    };
    // After the crash the same operations are counted, not faulted.
    let counting = Arc::new(FaultyIo::counting(dir));
    let _guard = install_io_policy(IoPolicy::Faulty(counting.clone()));
    let t = Instant::now();
    let checkpoint = Checkpoint::resume_observed(&journal, &NullObserver)?;
    let resume_s = t.elapsed().as_secs_f64();
    let replayed = checkpoint.records()?.len();
    let log = Arc::new(RunLog::create(&dir.join("run_log.jsonl"), false)?);
    let exec = exec_with(&log);
    let report = fap_evaluation(source, &exec)
        .journal(&checkpoint)
        .run(runner, pretrained)?;
    let t = Instant::now();
    log.flush()?;
    let flush_s = t.elapsed().as_secs_f64();
    let facts = CrashFacts {
        crash_io,
        crash_trace: io.trace(),
        resume_trace: counting.trace(),
        replayed,
        resume_s,
        flush_s,
    };
    Ok((report, facts, checkpoint))
}

pub fn fleet_fap_resume(s: &Settings) -> Res<Report> {
    std::fs::create_dir_all(&s.scratch)?;
    // The journal's cost is mostly fsync latency, which a RAM-backed
    // filesystem does not have: such a run is marked, not refused.
    let mut journal_fs = filesystem_type(&s.scratch);
    if matches!(journal_fs.as_str(), "tmpfs" | "ramfs") {
        journal_fs.push_str(" (RAM-backed: fsync costs nothing, so journal costs read low)");
        eprintln!("warning: the journal directory is on {journal_fs}");
    }
    // One set-up before every round, so `setup_s` samples the same stretch
    // of machine time as the rounds; each round uses its own set-up's
    // product.
    let mut setups = Vec::new();
    let mut rounds = Rounds::new(s);
    let mut facts = Vec::new();
    let mut last = None;
    while rounds.more() {
        let (setup_s, (runner, pretrained, source)) = timed(|| toy_setup(s.seed))?;
        setups.push(setup_s);
        let dir = s.scratch.join(format!("round-{}", rounds.walls.len()));
        let t = Instant::now();
        let (report, fact, _) =
            fap_round(&dir, crate::threads(), &runner, &pretrained, &source, None)?;
        let wall = t.elapsed().as_secs_f64();
        std::fs::remove_dir_all(&dir)?;
        rounds.record(wall, RoundOutput::fleet(&report, source.len()));
        facts.push(fact);
        last = Some((runner, pretrained, source));
    }
    let (runner, pretrained, source) = last.ok_or("no round ran")?;
    let fleet = *source.config();
    let config = vec![
        ("model".into(), format!("{:?}", runner.workbench().model)),
        (
            "workbench".into(),
            format!("toy(seed 1), pretrain {TOY_PRETRAIN_EPOCHS} epochs, constraint {TOY_CONSTRAINT}"),
        ),
        ("set-ups per run".into(), format!("{} (one before each round)", setups.len())),
        ("measuring budget".into(), format!("{} s", s.seconds)),
        ("policy".into(), "Fixed(0) (FAP only)".into()),
        ("strategy".into(), "PerChip".into()),
        (
            "chips".into(),
            format!("{} SeededChips, {:?} rates, fleet seed {:#x}", fleet.chips, fleet.rates, fleet.seed),
        ),
        (
            "journal".into(),
            format!(
                "RunLog + Checkpoint on disk, torn write at artifact op {FAP_CRASH_OP}, resume_observed, re-run"
            ),
        ),
        ("journal filesystem".into(), journal_fs),
    ];
    // The resumed report must equal an uninterrupted run's (untimed; a
    // traced run compares its journal-free driven rounds with it).
    let exec = ExecConfig::new(crate::threads());
    let t = Instant::now();
    let clean = fap_evaluation(&source, &exec).run(&runner, &pretrained)?;
    let clean_s = t.elapsed().as_secs_f64();
    rounds.check_same("the uninterrupted run", &check::render_fleet(&clean));
    let replayed: Vec<f64> = facts.iter().map(|f| f.replayed as f64).collect();
    let resume: Vec<f64> = facts.iter().map(|f| f.resume_s).collect();
    let lines = vec![
        format!("baseline accuracy {:.4}", pretrained.baseline_accuracy),
        format!(
            "crash at artifact op {FAP_CRASH_OP}: journaled batches recovered per round {}; resume_observed {} s",
            fmt_list(&replayed),
            fmt_list(&resume)
        ),
    ];
    if s.trace {
        return trace::fleet_fap(
            s,
            &runner,
            &pretrained,
            &source,
            clean_s,
            rounds,
            setups,
            lines,
            config,
        );
    }
    Ok(rounds.finish(&setups, lines, config))
}

/// The type of the filesystem holding `path`, from `/proc/self/mounts`
/// (the longest mount point that contains it; the last one mounted there
/// wins).
fn filesystem_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            let point = fields.next()?.replace("\\040", " ");
            let kind = fields.next()?;
            path.starts_with(&point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}
