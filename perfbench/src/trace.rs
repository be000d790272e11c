//! The traced run: per-layer metrics timed from outside the library.
//!
//! Spans (name, start, end, parent, job id) are recorded around calls into
//! each layer's public functions and kept in memory until the run ends. A
//! span's self time is its duration minus the time its child spans cover.
//!
//! Counters and seam timings come from one round through the real entry
//! point with the library's own seams attached: an [`Observer`] counting
//! events, a timing [`ChipSource`] and a counting `IoPolicy`. Entry points
//! that hide their per-job calls (`ResilienceAnalysis::run`,
//! `FleetEvaluation::run`) are then driven again through the lower public
//! calls at the same thread count, with spans, and those "driven" rounds
//! must reproduce the untraced outputs bit for bit. Kernel times come from
//! replaying one training epoch's GEMM and im2col/col2im calls on the
//! model's shapes, single-threaded.

use crate::check;
use crate::workloads::{self, fap_round, median, quantile, Res, Rounds};
use crate::{Metric, Report, Settings};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use reduce_core::exec::{parallel_map, resolve_workers, ExecConfig};
use reduce_core::telemetry::{Event, Observer};
use reduce_core::{
    ChipSource, FatRunner, FleetReport, Mitigation, OptimSpec, Pretrained, ReduceError,
    ResilienceConfig, ResilienceTable, RetrainPolicy, SeededChips, Statistic, StopRule, Workbench,
};
use reduce_nn::layers::Mode;
use reduce_nn::{Adam, CrossEntropyLoss, Loss, Optimizer, Sgd, Target, Workspace};
use reduce_systolic::{cluster_fault_maps, Chip, ClusterConfig, FaultMap};
use reduce_tensor::ops::{self, Conv2dGeometry};
use reduce_tensor::Tensor;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

type CoreResult<T> = reduce_core::Result<T>;

/// One recorded span. `parent` indexes the same job's span list.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    job: u64,
}

/// A job's span recorder (one per executor job, so no locking while the
/// job runs).
pub struct Recorder {
    origin: Instant,
    job: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.origin.elapsed().as_secs_f64();
        out
    }
}

/// All spans of the traced rounds plus the executor fan-out accounting.
pub struct Trace {
    origin: Instant,
    /// Each job's spans, kept apart so parent indices stay local.
    jobs: Mutex<Vec<Vec<Span>>>,
    /// Per fan-out: (wall, workers, Σ job time).
    fanouts: Mutex<Vec<(f64, usize, f64)>>,
    /// Wall time of each driven round.
    rounds: Vec<f64>,
    /// FAT epochs trained in the driven rounds.
    epochs: u64,
}

impl Trace {
    fn new() -> Self {
        Trace {
            origin: Instant::now(),
            jobs: Mutex::new(Vec::new()),
            fanouts: Mutex::new(Vec::new()),
            rounds: Vec::new(),
            epochs: 0,
        }
    }

    fn recorder(&self, job: u64) -> Recorder {
        Recorder {
            origin: self.origin,
            job,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn absorb(&self, rec: Recorder) {
        self.jobs.lock().expect("trace lock").push(rec.spans);
    }

    /// `parallel_map` with one recorder per job and fan-out accounting.
    fn map<T: Sync, R: Send>(
        &self,
        items: &[T],
        threads: usize,
        job: impl Fn(&mut Recorder, usize, &T) -> CoreResult<R> + Sync,
    ) -> CoreResult<Vec<R>> {
        let busy = Mutex::new(0.0f64);
        let t = Instant::now();
        let out = parallel_map(items, threads, |i, item| {
            let started = Instant::now();
            let mut rec = self.recorder(i as u64);
            let r = job(&mut rec, i, item)?;
            self.absorb(rec);
            *busy.lock().expect("busy lock") += started.elapsed().as_secs_f64();
            Ok(r)
        })?;
        let wall = t.elapsed().as_secs_f64();
        let busy = busy.into_inner().expect("busy lock");
        self.fanouts.lock().expect("fanout lock").push((
            wall,
            resolve_workers(threads, items.len()),
            busy,
        ));
        Ok(out)
    }

    /// Σ durations and per-span durations of `name` over all jobs.
    fn durations(&self, name: &str) -> Vec<f64> {
        let jobs = self.jobs.lock().expect("trace lock");
        jobs.iter()
            .flatten()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Writes every span as `job name start end parent` (seconds since the
    /// trace began; parent indexes the job's spans, `-` for none).
    fn write(&self, path: &std::path::Path) {
        let jobs = self.jobs.lock().expect("trace lock");
        let mut out = String::from("job\tname\tstart_s\tend_s\tparent\n");
        for spans in jobs.iter() {
            for s in spans {
                let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
                out.push_str(&format!(
                    "{}\t{}\t{:.9}\t{:.9}\t{parent}\n",
                    s.job, s.name, s.start, s.end
                ));
            }
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("cannot write the span file {}: {e}", path.display());
        }
    }

    /// Self time by span name: duration minus the union of child spans.
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let jobs = self.jobs.lock().expect("trace lock");
        let mut out = BTreeMap::new();
        for spans in jobs.iter() {
            let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
            for s in spans {
                if let Some(p) = s.parent {
                    children[p].push((s.start, s.end));
                }
            }
            for (s, kids) in spans.iter().zip(children.iter_mut()) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = f64::NEG_INFINITY;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                    }
                    reach = reach.max(b);
                }
                *out.entry(s.name).or_insert(0.0) += (s.end - s.start - covered).max(0.0);
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// The traced FAT job: `FatRunner::run_inner` rebuilt from public calls.
// ---------------------------------------------------------------------

/// What a traced FAT run produces (the fields the checks compare).
pub struct FatResult {
    pub pre: f32,
    pub curve: Vec<f32>,
    pub state: Vec<(String, Tensor)>,
}

impl FatResult {
    fn final_accuracy(&self) -> f32 {
        self.curve.last().copied().unwrap_or(self.pre)
    }
}

fn layer_kind(name: &str) -> (&'static str, &'static str) {
    if name.starts_with("conv2d") {
        ("nn.conv2d.fwd", "nn.conv2d.bwd")
    } else if name.starts_with("linear") {
        ("nn.linear.fwd", "nn.linear.bwd")
    } else {
        ("nn.other.fwd", "nn.other.bwd")
    }
}

fn optimizer(spec: &OptimSpec) -> Box<dyn Optimizer> {
    match *spec {
        OptimSpec::Sgd {
            lr,
            momentum,
            weight_decay,
        } => Box::new(Sgd::with_momentum(lr, momentum).weight_decay(weight_decay)),
        OptimSpec::Adam { lr } => Box::new(Adam::new(lr)),
    }
}

/// Masks a fresh model like `FatRunner::masked_model_from_state`, with the
/// mask derivation as a child span.
fn traced_masked_model(
    rec: &mut Recorder,
    runner: &FatRunner,
    base: &[(String, Tensor)],
    map: &FaultMap,
) -> CoreResult<reduce_nn::Sequential> {
    rec.span("fat.masked_model", |rec| {
        let wb = runner.workbench();
        let mut model = wb.model.build(wb.seed)?;
        model.load_state_dict(base)?;
        let masks = rec.span("systolic.mask", |_| {
            runner.derive_masks(&model, map, Mitigation::Fap)
        })?;
        model.set_weight_masks(&masks)?;
        // The library also counts the pruned fraction here; keep the work.
        let pruned: usize = model
            .weight_params()
            .iter()
            .filter_map(|p| p.mask())
            .map(|m| m.data().iter().filter(|&&v| v == 0.0).count())
            .sum();
        std::hint::black_box(pruned);
        Ok(model)
    })
}

/// One training epoch, layer by layer, exactly as `Trainer::train_epoch`
/// orders its calls (same shuffle, batches, loss and optimizer step).
#[allow(clippy::too_many_arguments)] // mirrors the trainer's state
fn traced_epoch(
    rec: &mut Recorder,
    model: &mut reduce_nn::Sequential,
    opt: &mut dyn Optimizer,
    x: &Tensor,
    labels: &[usize],
    batch_size: usize,
    shuffle_seed: u64,
    epoch: usize,
) -> CoreResult<()> {
    rec.span("nn.train_epoch", |rec| {
        let n = labels.len();
        let stride: usize = x.dims().iter().skip(1).product();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = SmallRng::seed_from_u64(shuffle_seed.wrapping_add(epoch as u64));
        order.shuffle(&mut rng);
        let kinds: Vec<(&'static str, &'static str)> = model
            .layers()
            .iter()
            .map(|l| layer_kind(&l.name()))
            .collect();
        let mut ws = std::mem::take(model.workspace_mut());
        let mut by: Vec<usize> = Vec::with_capacity(batch_size);
        for chunk in order.chunks(batch_size) {
            let mut dims = x.dims().to_vec();
            dims[0] = chunk.len();
            let mut bx = ws.take(dims);
            {
                let dst = bx.data_mut();
                for (k, &i) in chunk.iter().enumerate() {
                    dst[k * stride..(k + 1) * stride]
                        .copy_from_slice(&x.data()[i * stride..(i + 1) * stride]);
                }
            }
            by.clear();
            by.extend(chunk.iter().map(|&i| labels[i]));
            let mut cur = bx.clone();
            for (i, (fwd, _)) in kinds.iter().enumerate() {
                let layer = model.layer_mut(i)?;
                let next = rec.span(fwd, |_| layer.forward_ws(&cur, Mode::Train, &mut ws))?;
                ws.give(std::mem::replace(&mut cur, next));
            }
            let logits = cur;
            ws.give(bx);
            let out = CrossEntropyLoss.evaluate(&logits, Target::Labels(&by))?;
            ws.give(logits);
            model.zero_grad();
            let mut cur = out.grad.clone();
            for (i, (_, bwd)) in kinds.iter().enumerate().rev() {
                let layer = model.layer_mut(i)?;
                let next = rec.span(bwd, |_| layer.backward_ws(&cur, &mut ws))?;
                ws.give(std::mem::replace(&mut cur, next));
            }
            ws.give(cur);
            ws.give(out.grad);
            rec.span("nn.optim", |_| opt.step(&mut model.params_mut()))?;
        }
        *model.workspace_mut() = ws;
        Ok(())
    })
}

/// `FatRunner::run_warm_pooled_observed` rebuilt from public calls, with
/// spans around every layer boundary.
#[allow(clippy::too_many_arguments)]
fn traced_fat(
    rec: &mut Recorder,
    runner: &FatRunner,
    base: &[(String, Tensor)],
    map: &FaultMap,
    max_epochs: usize,
    stop: StopRule,
    run_seed: u64,
    pool: Option<&mut Workspace>,
) -> CoreResult<FatResult> {
    rec.span("fat.job", |rec| {
        let wb = runner.workbench();
        let mut model = traced_masked_model(rec, runner, base, map)?;
        let mut pool = pool;
        if let Some(pool) = pool.as_deref_mut() {
            std::mem::swap(model.workspace_mut(), pool);
        }
        if wb.bn_recalibration_passes > 0 {
            runner.recalibrate_statistics(&mut model, wb.bn_recalibration_passes)?;
        }
        let test = runner.test_data();
        let pre = rec
            .span("nn.eval", |_| wb.evaluate(&mut model, test))?
            .accuracy;
        let mut curve = Vec::with_capacity(max_epochs);
        let met = matches!(stop, StopRule::AtAccuracy(c) if pre >= c);
        if !met {
            let spec = wb.fat_train.as_ref().unwrap_or(&wb.train);
            let mut opt = optimizer(&spec.optimizer);
            let base_lr = opt.learning_rate();
            let train = runner.train_data();
            for epoch in 0..max_epochs {
                opt.set_learning_rate(spec.schedule.rate(base_lr, epoch));
                traced_epoch(
                    rec,
                    &mut model,
                    opt.as_mut(),
                    train.features(),
                    train.labels(),
                    spec.batch_size,
                    run_seed,
                    epoch,
                )?;
                let acc = rec
                    .span("nn.eval", |_| wb.evaluate(&mut model, test))?
                    .accuracy;
                curve.push(acc);
                if matches!(stop, StopRule::AtAccuracy(c) if acc >= c) {
                    break;
                }
            }
            if !model.mask_invariants_hold() {
                return Err(ReduceError::Internal {
                    invariant: "mask invariant violated after traced FAT".to_string(),
                });
            }
        }
        let state = model.state_dict();
        if let Some(pool) = pool {
            std::mem::swap(model.workspace_mut(), pool);
        }
        Ok(FatResult { pre, curve, state })
    })
}

// ---------------------------------------------------------------------
// Seams: an event-counting observer and a timing chip source.
// ---------------------------------------------------------------------

/// Counts what the library reports through its `Observer` seam.
#[derive(Default)]
pub struct Counts {
    events: AtomicU64,
    ws_misses: AtomicU64,
    ws_bytes: AtomicU64,
    clusters: AtomicU64,
    retries: AtomicU64,
    warm: Mutex<BTreeSet<usize>>,
    warm_satisfied: AtomicU64,
}

impl Observer for Counts {
    fn on_event(&self, event: &Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
        match event {
            Event::WorkspaceUsed {
                misses,
                bytes_allocated,
                ..
            } => {
                self.ws_misses.fetch_add(*misses, Ordering::Relaxed);
                self.ws_bytes.fetch_add(*bytes_allocated, Ordering::Relaxed);
            }
            Event::ClusterFormed { .. } => {
                self.clusters.fetch_add(1, Ordering::Relaxed);
            }
            Event::WarmStartHit { chip_id, .. } => {
                self.warm.lock().expect("warm lock").insert(*chip_id);
            }
            Event::ChipRetrained {
                chip_id,
                satisfied: true,
                ..
            } if self.warm.lock().expect("warm lock").contains(chip_id) => {
                self.warm_satisfied.fetch_add(1, Ordering::Relaxed);
            }
            Event::JobFailed { .. } | Event::RetryScheduled { .. } => {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

impl Counts {
    fn get(counter: &AtomicU64) -> f64 {
        counter.load(Ordering::Relaxed) as f64
    }

    fn warm_starts(&self) -> f64 {
        self.warm.lock().expect("warm lock").len() as f64
    }

    fn warm_yield(&self) -> f64 {
        let warm = self.warm_starts();
        if warm == 0.0 {
            0.0
        } else {
            Self::get(&self.warm_satisfied) / warm
        }
    }
}

/// A `ChipSource` that times `chip` and `fault_rate` on the inner source.
pub struct TimedSource<'a> {
    inner: &'a dyn ChipSource,
    chip_ns: AtomicU64,
    rate_ns: AtomicU64,
}

impl<'a> TimedSource<'a> {
    fn new(inner: &'a dyn ChipSource) -> Self {
        TimedSource {
            inner,
            chip_ns: AtomicU64::new(0),
            rate_ns: AtomicU64::new(0),
        }
    }

    fn seconds(counter: &AtomicU64) -> f64 {
        counter.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

impl ChipSource for TimedSource<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn chip(&self, id: usize) -> CoreResult<Chip> {
        let t = Instant::now();
        let chip = self.inner.chip(id);
        self.chip_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        chip
    }

    fn fault_rate(&self, id: usize) -> CoreResult<f64> {
        let t = Instant::now();
        let rate = self.inner.fault_rate(id);
        self.rate_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        rate
    }
}

// ---------------------------------------------------------------------
// Kernel replays.
// ---------------------------------------------------------------------

/// Per-epoch GEMM and im2col/col2im replay of `wb`'s training epoch over
/// `samples` inputs: (gemm_s, macs, bytes, im2col_s, col2im_s).
fn replay_kernels(wb: &Workbench, samples: usize) -> Res<[f64; 5]> {
    let batch = wb.fat_train.as_ref().unwrap_or(&wb.train).batch_size;
    let mut batches = vec![(batch, samples / batch)];
    if !samples.is_multiple_of(batch) {
        batches.push((samples % batch, 1));
    }
    const REPS: usize = 5;
    let mut gemm = Vec::new();
    let mut im2col = Vec::new();
    let mut col2im = Vec::new();
    let (mut macs, mut bytes) = (0.0, 0.0);
    for rep in 0..=REPS {
        let (mut g, mut i2c, mut c2i) = (0.0, 0.0, 0.0);
        for &(b, count) in &batches {
            for (m, k, n) in wb.model.gemm_shapes(b)? {
                let x = Tensor::ones([m, k]);
                let w = Tensor::ones([n, k]);
                let gy = Tensor::ones([m, n]);
                let mut y = Tensor::zeros([m, n]);
                let mut dw = Tensor::zeros([n, k]);
                let mut dx = Tensor::zeros([m, k]);
                let t = Instant::now();
                ops::matmul_nt_into(&x, &w, &mut y)?;
                ops::matmul_tn_into(&gy, &x, &mut dw)?;
                ops::matmul_into(&gy, &w, &mut dx)?;
                g += t.elapsed().as_secs_f64() * count as f64;
                std::hint::black_box((&y, &dw, &dx));
                if rep == 0 {
                    let c = count as f64;
                    macs += 3.0 * (m * k * n) as f64 * c;
                    bytes += 4.0 * 3.0 * (m * k + k * n + m * n) as f64 * c;
                }
                // Convolutions: k = channels · 3 · 3 over an hw × hw map.
                let hw = ((m / b) as f64).sqrt() as usize;
                if k % 9 == 0
                    && hw * hw * b == m
                    && matches!(wb.model, reduce_core::ModelSpec::Vgg(_))
                {
                    let c = k / 9;
                    let geom = Conv2dGeometry::new(hw, hw, 3, 3, 1, 1)?;
                    let img = Tensor::ones([b, c, hw, hw]);
                    let mut cols = Tensor::zeros([m, k]);
                    let t = Instant::now();
                    ops::im2col_into(&img, &geom, &mut cols)?;
                    i2c += t.elapsed().as_secs_f64() * count as f64;
                    let mut back = Tensor::zeros([b, c, hw, hw]);
                    let t = Instant::now();
                    ops::col2im_into(&cols, b, c, &geom, &mut back)?;
                    c2i += t.elapsed().as_secs_f64() * count as f64;
                    std::hint::black_box(&back);
                }
            }
        }
        // Replay 0 warms caches and the allocator; it is not reported.
        if rep > 0 {
            gemm.push(g);
            im2col.push(i2c);
            col2im.push(c2i);
        }
    }
    Ok([median(&gemm), macs, bytes, median(&im2col), median(&col2im)])
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

/// Which end-to-end metric each per-layer metric should move, and on
/// which workload (printed with every traced result).
const LAYER_MAP: &[(&str, &str)] = &[
    ("data.synth_s", "setup_s (all)"),
    (
        "nn.pretrain_s",
        "setup_s (characterize-vgg, fleet-vgg-efat); flat on fleet-fap-resume",
    ),
    (
        "nn.train_epoch_s",
        "epochs_per_s/wall_s (VGG workloads); 0 on fleet-fap-resume",
    ),
    (
        "nn.eval_s",
        "wall_s (VGG workloads), chips_per_s (fleet-fap-resume)",
    ),
    ("nn.conv2d", "wall_s (VGG workloads); 0 on fleet-fap-resume"),
    ("nn.linear", "wall_s (VGG workloads); 0 on fleet-fap-resume"),
    ("nn.other", "wall_s (VGG workloads); 0 on fleet-fap-resume"),
    (
        "nn.optim_s",
        "wall_s (VGG workloads); 0 on fleet-fap-resume",
    ),
    ("nn.ws_", "peak_rss_mb (all)"),
    (
        "tensor.gemm",
        "wall_s (VGG workloads); flat on fleet-fap-resume",
    ),
    (
        "tensor.im2col_s",
        "wall_s (VGG workloads); 0 on fleet-fap-resume",
    ),
    (
        "tensor.col2im_s",
        "wall_s (VGG workloads); 0 on fleet-fap-resume",
    ),
    (
        "systolic.chip_gen_s",
        "chips_per_s (fleet-fap-resume); flat on characterize-vgg",
    ),
    (
        "systolic.rate_s",
        "chips_per_s (fleet-fap-resume); 0 on characterize-vgg",
    ),
    ("systolic.mask_s", "chips_per_s (fleet-fap-resume)"),
    (
        "systolic.cluster_s",
        "chips_per_s, good_chips_per_s (fleet-vgg-efat); 0 elsewhere",
    ),
    (
        "systolic.clusters",
        "chips_per_s, good_chips_per_s (fleet-vgg-efat); 0 elsewhere",
    ),
    (
        "systolic.warm_starts",
        "chips_per_s, good_chips_per_s (fleet-vgg-efat); 0 elsewhere",
    ),
    ("fat.masked_model_s", "chips_per_s (fleet-fap-resume)"),
    ("fat.job_s", "wall_s (characterize-vgg, fleet-vgg-efat)"),
    ("fat.warm_yield", "good_chips_per_s (fleet-vgg-efat)"),
    (
        "exec.",
        "wall_s (fleet-vgg-efat: unequal batches); idle ~0 on characterize-vgg",
    ),
    (
        "journal.",
        "chips_per_s, wall_s (fleet-fap-resume); 0 on VGG workloads (journal off)",
    ),
    ("telemetry.", "chips_per_s (fleet-fap-resume)"),
    ("trace.", "(coverage and cost of this trace)"),
];

fn maps_to(name: &str) -> &'static str {
    LAYER_MAP
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("", |(_, to)| to)
}

/// A timing's median, p90 and sample count. The p90 needs ≥10 samples
/// beyond it, so it reads 0 below 100 samples.
fn timing(base: &str, samples: &[f64]) -> [Metric; 3] {
    let p90 = if samples.len() >= 100 {
        quantile(samples, 0.9)
    } else {
        0.0
    };
    [
        Metric::new(&format!("{base}.p50"), "s", quantile(samples, 0.5)),
        Metric::new(&format!("{base}.p90"), "s", p90),
        Metric::new(&format!("{base}.n"), "count", samples.len() as f64),
    ]
}

/// Per-layer figures gathered by a traced run before rendering.
#[derive(Default)]
pub struct LayerFigures {
    pub synth_s: f64,
    pub pretrain_s: f64,
    pub chip_gen_s: f64,
    pub rate_s: f64,
    pub cluster_s: f64,
    pub kernels: [f64; 5],
    pub journal: Vec<Metric>,
    pub flush_s: f64,
    /// The untraced wall time the driven rounds are compared with.
    pub untraced_s: f64,
}

/// Renders every per-layer metric. Times that happen once per round are
/// per round; layer and kernel times are per FAT epoch.
fn layer_report(
    trace: &Trace,
    counts: &Counts,
    fig: &LayerFigures,
    threads: usize,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let rounds = trace.rounds.len().max(1) as f64;
    let epochs = trace.epochs as f64;
    let per_epoch = |x: f64| if epochs > 0.0 { x / epochs } else { 0.0 };
    let sum = |name: &str| trace.durations(name).iter().sum::<f64>();
    let mut m = Vec::new();
    m.push(Metric::new("data.synth_s", "s", fig.synth_s));
    m.push(Metric::new("nn.pretrain_s", "s", fig.pretrain_s));
    m.extend(timing(
        "nn.train_epoch_s",
        &trace.durations("nn.train_epoch"),
    ));
    m.extend(timing("nn.eval_s", &trace.durations("nn.eval")));
    for kind in ["conv2d", "linear", "other"] {
        for dir in ["fwd", "bwd"] {
            let total = sum(&format!("nn.{kind}.{dir}"));
            m.push(Metric::new(
                &format!("nn.{kind}.{dir}_s"),
                "s",
                per_epoch(total),
            ));
        }
    }
    m.push(Metric::new("nn.optim_s", "s", per_epoch(sum("nn.optim"))));
    m.push(Metric::new(
        "nn.ws_misses",
        "count",
        Counts::get(&counts.ws_misses),
    ));
    m.push(Metric::new(
        "nn.ws_bytes",
        "bytes",
        Counts::get(&counts.ws_bytes),
    ));
    let [gemm_s, macs, bytes, im2col_s, col2im_s] = fig.kernels;
    m.push(Metric::new("tensor.gemm_s", "s", gemm_s));
    m.push(Metric::new(
        "tensor.gemm_gflops",
        "GFLOP/s",
        if gemm_s > 0.0 {
            2.0 * macs / gemm_s * 1e-9
        } else {
            0.0
        },
    ));
    m.push(Metric::new("tensor.gemm_macs", "count", macs));
    m.push(Metric::new("tensor.gemm_bytes", "bytes", bytes));
    m.push(Metric::new("tensor.im2col_s", "s", im2col_s));
    m.push(Metric::new("tensor.col2im_s", "s", col2im_s));
    m.push(Metric::new("systolic.chip_gen_s", "s", fig.chip_gen_s));
    m.push(Metric::new("systolic.rate_s", "s", fig.rate_s));
    m.push(Metric::new(
        "systolic.mask_s",
        "s",
        sum("systolic.mask") / rounds,
    ));
    m.push(Metric::new("systolic.cluster_s", "s", fig.cluster_s));
    m.push(Metric::new(
        "systolic.clusters",
        "count",
        Counts::get(&counts.clusters),
    ));
    m.push(Metric::new(
        "systolic.warm_starts",
        "count",
        counts.warm_starts(),
    ));
    m.push(Metric::new(
        "fat.masked_model_s",
        "s",
        sum("fat.masked_model") / rounds,
    ));
    m.extend(timing("fat.job_s", &trace.durations("fat.job")));
    m.push(Metric::new("fat.warm_yield", "ratio", counts.warm_yield()));
    let fanouts = trace.fanouts.lock().expect("fanout lock");
    let busy: f64 = fanouts.iter().map(|f| f.2).sum();
    let capacity: f64 = fanouts.iter().map(|f| f.0 * f.1 as f64).sum();
    m.push(Metric::new("exec.busy_s", "s", busy / rounds));
    m.push(Metric::new(
        "exec.idle_frac",
        "ratio",
        if capacity > 0.0 {
            1.0 - busy / capacity
        } else {
            0.0
        },
    ));
    m.push(Metric::new(
        "exec.retries",
        "count",
        Counts::get(&counts.retries),
    ));
    m.extend(fig.journal.iter().cloned());
    m.push(Metric::new(
        "telemetry.events",
        "count",
        Counts::get(&counts.events),
    ));
    m.push(Metric::new("telemetry.flush_s", "s", fig.flush_s));
    let traced_wall = median(&trace.rounds);
    let untraced_wall = fig.untraced_s;
    let attributed: f64 = trace.self_times().values().sum::<f64>() / rounds;
    m.push(Metric::new(
        "trace.attributed_frac",
        "ratio",
        attributed / (threads as f64 * traced_wall),
    ));
    m.push(Metric::new(
        "trace.overhead_frac",
        "ratio",
        (traced_wall - untraced_wall) / untraced_wall,
    ));
    lines.push(format!(
        "traced: {} driven round(s), walls {} s; untraced round {untraced_wall:.3} s; {} FAT epochs",
        trace.rounds.len(),
        workloads::fmt_list(&trace.rounds),
        trace.epochs
    ));
    let selfs = trace.self_times();
    let mut by_self: Vec<(&&str, &f64)> = selfs.iter().collect();
    by_self.sort_by(|a, b| b.1.total_cmp(a.1));
    lines.push("self time per round by span (threads summed):".to_string());
    for (name, t) in by_self {
        lines.push(format!("  {name:<20} {:.4} s", t / rounds));
    }
    for metric in &m {
        lines.push(format!(
            "layer {:<26} {:>16} {:<8} -> {}",
            metric.name,
            format!("{:.6}", metric.value),
            metric.unit,
            maps_to(&metric.name)
        ));
    }
    m
}

/// The journal metrics of a workload that journals nothing.
fn no_journal() -> Vec<Metric> {
    JOURNAL_METRICS
        .iter()
        .map(|&(name, unit)| Metric::new(name, unit, 0.0))
        .collect()
}

const JOURNAL_METRICS: [(&str, &str); 12] = [
    ("journal.appends", "count"),
    ("journal.bytes", "bytes"),
    ("journal.max_append_bytes", "bytes"),
    ("journal.write_amp", "ratio"),
    ("journal.fsyncs", "count"),
    ("journal.io_ops", "count"),
    ("journal.append_s.p50", "s"),
    ("journal.append_s.p90", "s"),
    ("journal.append_s.n", "count"),
    ("journal.append_s.total", "s"),
    ("journal.resume_s", "s"),
    ("journal.replayed", "count"),
];

#[allow(clippy::too_many_arguments)]
fn finish(
    s: &Settings,
    rounds: Rounds,
    trace: &Trace,
    counts: &Counts,
    fig: &LayerFigures,
    setups: Vec<f64>,
    lines: Vec<String>,
    config: Vec<(String, String)>,
) -> Report {
    let mut extra = Vec::new();
    let metrics = layer_report(trace, counts, fig, crate::threads(), &mut extra);
    trace.write(
        &s.home
            .join("..")
            .join(".bench_trace")
            .join(format!("{}-seed{}.tsv", s.workload, s.seed)),
    );
    // Keep the untraced figures' lines and pass/fail accounting, but
    // report the per-layer metrics.
    let mut report = rounds.finish(&setups, lines, config);
    report.lines.extend(extra);
    report.metrics = metrics;
    report
}

/// Traced set-up timings: `Workbench::datasets` and `Workbench::pretrain`.
fn setup_figures(wb: &Workbench, epochs: usize) -> Res<LayerFigures> {
    let t = Instant::now();
    std::hint::black_box(wb.datasets()?);
    let synth_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    std::hint::black_box(wb.pretrain(epochs)?);
    Ok(LayerFigures {
        synth_s,
        pretrain_s: t.elapsed().as_secs_f64(),
        journal: no_journal(),
        ..LayerFigures::default()
    })
}

// ---------------------------------------------------------------------
// The three traced workloads.
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
pub fn characterize(
    s: &Settings,
    wb: &Workbench,
    runner: &FatRunner,
    pretrained: &Pretrained,
    grid: &ResilienceConfig,
    mut rounds: Rounds,
    setups: Vec<f64>,
    lines: Vec<String>,
    config: Vec<(String, String)>,
) -> Res<Report> {
    let mut fig = setup_figures(wb, workloads::VGG_PRETRAIN_EPOCHS)?;
    fig.untraced_s = rounds.walls[0];
    // Seamed round: the real entry point with a counting observer.
    let counts = Arc::new(Counts::default());
    let exec = ExecConfig::new(crate::threads()).with_observer(counts.clone());
    let analysis = reduce_core::ResilienceAnalysis::run(runner, pretrained, grid.clone(), &exec)?;
    rounds.check_same("the observed round", &check::render_analysis(&analysis));
    // Driven rounds: the same cells through the lower public calls.
    let (rows, cols) = wb.array_dims();
    let cells: Vec<(usize, f64)> = grid.fault_rates.iter().copied().enumerate().collect();
    let mut trace = Trace::new();
    while trace.rounds.is_empty() || trace.rounds.iter().sum::<f64>() < s.seconds {
        let t = Instant::now();
        let results = trace.map(&cells, crate::threads(), |rec, _, &(ri, rate)| {
            let map_seed = grid.seed.wrapping_add((ri as u64) << 32);
            let map = rec.span("systolic.chip_gen", |_| {
                FaultMap::generate(rows, cols, rate, grid.fault_model, map_seed)
            })?;
            traced_fat(
                rec,
                runner,
                &pretrained.state,
                &map,
                grid.max_epochs,
                StopRule::Exact,
                map_seed ^ 0x5EED,
                None,
            )
        })?;
        trace.rounds.push(t.elapsed().as_secs_f64());
        for (point, result) in analysis.points().iter().zip(&results) {
            trace.epochs += result.curve.len() as u64;
            if point.pre_retrain_accuracy.to_bits() != result.pre.to_bits()
                || point.accuracy_after_epoch.len() != result.curve.len()
                || point
                    .accuracy_after_epoch
                    .iter()
                    .zip(&result.curve)
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                rounds.fail(format!(
                    "driven cell rate {} differs from ResilienceAnalysis::run",
                    point.rate
                ));
            }
        }
    }
    fig.chip_gen_s =
        trace.durations("systolic.chip_gen").iter().sum::<f64>() / trace.rounds.len() as f64;
    fig.kernels = replay_kernels(wb, runner.train_data().len())?;
    Ok(finish(
        s, rounds, &trace, &counts, &fig, setups, lines, config,
    ))
}

/// A chip's result in a driven fleet round.
struct DrivenChip {
    budget: usize,
    result: FatResult,
    warm: bool,
}

/// Assembles a `FleetReport` from driven chips in scheduler order, the
/// way `FleetEvaluation` accumulates it.
fn driven_report(
    policy: String,
    constraint: f32,
    chips: &[DrivenChip],
    clusters: usize,
) -> FleetReport {
    let mut report = FleetReport {
        policy,
        constraint,
        evaluated: 0,
        quarantined: Vec::new(),
        total_epochs: 0,
        satisfied: 0,
        mean_accuracy: 0.0,
        min_accuracy: f32::INFINITY,
        max_accuracy: f32::NEG_INFINITY,
        epoch_histogram: BTreeMap::new(),
        retrain_cycles: None,
        clusters,
        warm_started: 0,
        warm_start_epochs_saved: 0,
        outcomes: None,
    };
    let mut sum = 0.0f64;
    for c in chips {
        let acc = c.result.final_accuracy();
        let epochs = c.result.curve.len();
        report.evaluated += 1;
        report.total_epochs += epochs;
        report.satisfied += usize::from(acc >= constraint);
        sum += f64::from(acc);
        report.min_accuracy = report.min_accuracy.min(acc);
        report.max_accuracy = report.max_accuracy.max(acc);
        *report.epoch_histogram.entry(epochs).or_insert(0) += 1;
        if c.warm {
            report.warm_started += 1;
            report.warm_start_epochs_saved += c.budget.saturating_sub(epochs);
        }
    }
    if report.evaluated > 0 {
        report.mean_accuracy = (sum / report.evaluated as f64) as f32;
    }
    report
}

/// One scheduled batch: its epoch budget and chip ids.
type Batch = (usize, Vec<usize>);

/// The fleet scheduler's plan: windows of chips grouped by epoch budget
/// and chunked at the batch cap, in scheduler order.
fn schedule(
    rec: &mut Recorder,
    source: &dyn ChipSource,
    policy: RetrainPolicy,
    table: Option<&ResilienceTable>,
) -> CoreResult<Vec<Vec<Batch>>> {
    let window = reduce_core::FleetEvaluation::DEFAULT_WINDOW;
    let cap = reduce_core::FleetEvaluation::DEFAULT_BATCH_CAP;
    let mut windows = Vec::new();
    let mut start = 0;
    while start < source.len() {
        let end = (start + window).min(source.len());
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for id in start..end {
            let rate = rec.span("systolic.rate", |_| source.fault_rate(id))?;
            let budget = policy.epochs_for_chip(table, rate)?.epochs;
            groups.entry(budget).or_default().push(id);
        }
        let mut plans = Vec::new();
        for (budget, ids) in groups {
            for chunk in ids.chunks(cap) {
                plans.push((budget, chunk.to_vec()));
            }
        }
        windows.push(plans);
        start = end;
    }
    Ok(windows)
}

#[allow(clippy::too_many_arguments)]
pub fn fleet_efat(
    s: &Settings,
    runner: &FatRunner,
    pretrained: &Pretrained,
    table: &ResilienceTable,
    source: &workloads::RedrawnChips,
    mut rounds: Rounds,
    setups: Vec<f64>,
    lines: Vec<String>,
    config: Vec<(String, String)>,
) -> Res<Report> {
    let wb = runner.workbench();
    let mut fig = setup_figures(wb, workloads::VGG_PRETRAIN_EPOCHS)?;
    fig.untraced_s = rounds.walls[0];
    // Seamed round.
    let counts = Arc::new(Counts::default());
    let exec = ExecConfig::new(crate::threads()).with_observer(counts.clone());
    let timed = TimedSource::new(source);
    let seamed = workloads::efat_evaluation(&timed, table, &exec).run(runner, pretrained)?;
    rounds.check_same("the observed round", &check::render_fleet(&seamed));
    fig.chip_gen_s = TimedSource::seconds(&timed.chip_ns);
    fig.rate_s = TimedSource::seconds(&timed.rate_ns);
    // Driven rounds: schedule, cluster, cold representatives, warm members.
    let constraint = seamed.constraint;
    let cluster_config = ClusterConfig::default();
    let policy = RetrainPolicy::Reduce(Statistic::Max);
    let mut trace = Trace::new();
    while trace.rounds.is_empty() || trace.rounds.iter().sum::<f64>() < s.seconds {
        let t = Instant::now();
        let mut main = trace.recorder(u64::MAX);
        let windows = schedule(&mut main, source, policy, Some(table))?;
        trace.absorb(main);
        let mut driven = Vec::new();
        let mut clusters = 0;
        for plans in windows {
            let batches = trace.map(&plans, crate::threads(), |rec, _, (budget, ids)| {
                let chips: Vec<Chip> = ids
                    .iter()
                    .map(|&id| rec.span("systolic.chip_gen", |_| source.chip(id)))
                    .collect::<CoreResult<_>>()?;
                let pairs: Vec<(usize, &FaultMap)> =
                    chips.iter().map(|c| (c.id(), c.fault_map())).collect();
                let formed = rec.span("systolic.cluster", |_| {
                    cluster_fault_maps(&pairs, &cluster_config)
                })?;
                let by_id: BTreeMap<usize, &Chip> = chips.iter().map(|c| (c.id(), c)).collect();
                let mut pool = Workspace::new();
                let mut out: BTreeMap<usize, DrivenChip> = BTreeMap::new();
                for cluster in &formed {
                    let rep = by_id[&cluster.representative];
                    let cold = traced_fat(
                        rec,
                        runner,
                        &pretrained.state,
                        rep.fault_map(),
                        *budget,
                        StopRule::AtAccuracy(constraint),
                        0xF1EE7u64.wrapping_add(rep.id() as u64),
                        Some(&mut pool),
                    )?;
                    for &member in &cluster.members {
                        let chip = by_id[&member];
                        let warm = traced_fat(
                            rec,
                            runner,
                            &cold.state,
                            chip.fault_map(),
                            *budget,
                            StopRule::AtAccuracy(constraint),
                            0xF1EE7u64.wrapping_add(member as u64),
                            Some(&mut pool),
                        )?;
                        out.insert(
                            member,
                            DrivenChip {
                                budget: *budget,
                                result: warm,
                                warm: true,
                            },
                        );
                    }
                    out.insert(
                        rep.id(),
                        DrivenChip {
                            budget: *budget,
                            result: cold,
                            warm: false,
                        },
                    );
                }
                Ok((formed.len(), out.into_values().collect::<Vec<_>>()))
            })?;
            for (formed, chips) in batches {
                clusters += formed;
                driven.extend(chips);
            }
        }
        trace.rounds.push(t.elapsed().as_secs_f64());
        trace.epochs += driven
            .iter()
            .map(|c| c.result.curve.len() as u64)
            .sum::<u64>();
        let report = driven_report(seamed.policy.clone(), constraint, &driven, clusters);
        rounds.check_same("a driven round", &check::render_fleet(&report));
    }
    fig.cluster_s =
        trace.durations("systolic.cluster").iter().sum::<f64>() / trace.rounds.len() as f64;
    fig.kernels = replay_kernels(wb, runner.train_data().len())?;
    Ok(finish(
        s, rounds, &trace, &counts, &fig, setups, lines, config,
    ))
}

#[allow(clippy::too_many_arguments)]
pub fn fleet_fap(
    s: &Settings,
    runner: &FatRunner,
    pretrained: &Pretrained,
    source: &SeededChips,
    clean_s: f64,
    mut rounds: Rounds,
    setups: Vec<f64>,
    lines: Vec<String>,
    config: Vec<(String, String)>,
) -> Res<Report> {
    let wb = runner.workbench();
    let mut fig = setup_figures(wb, workloads::TOY_PRETRAIN_EPOCHS)?;
    // Driven rounds journal nothing, so they compare with the
    // uninterrupted journal-free run.
    fig.untraced_s = clean_s;
    let chips = source.len();
    // Seamed round: crash, resume and re-run with the observer and the
    // timing chip source; the fault injector counts every artifact op.
    let counts = Arc::new(Counts::default());
    let timed = TimedSource::new(source);
    let dir = s.scratch.join("seamed");
    let (report, facts, checkpoint) = fap_round(
        &dir,
        crate::threads(),
        runner,
        pretrained,
        &timed,
        Some(counts.clone()),
    )?;
    rounds.check_same("the observed round", &check::render_fleet(&report));
    fig.chip_gen_s = TimedSource::seconds(&timed.chip_ns);
    fig.rate_s = TimedSource::seconds(&timed.rate_ns);
    fig.flush_s = facts.flush_s;
    let resumed = checkpoint.io_stats()?;
    let io = reduce_core::IoStats {
        appends: facts.crash_io.appends + resumed.appends,
        bytes_written: facts.crash_io.bytes_written + resumed.bytes_written,
        max_append_bytes: facts
            .crash_io
            .max_append_bytes
            .max(resumed.max_append_bytes),
    };
    let on_disk: u64 = std::fs::read_dir(&dir)?
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("journal"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum();
    let ops: Vec<_> = facts
        .crash_trace
        .iter()
        .chain(&facts.resume_trace)
        .collect();
    let fsyncs = ops
        .iter()
        .filter(|(op, _)| {
            matches!(
                op,
                reduce_core::artifact::IoOp::SyncTemp | reduce_core::artifact::IoOp::SyncDir
            )
        })
        .count();
    // Append replay: the run's records, in order, into a fresh journal on
    // the same filesystem.
    let replay_dir = s.scratch.join("append-replay");
    std::fs::create_dir_all(&replay_dir)?;
    let fresh = reduce_core::Checkpoint::create(&replay_dir.join("journal.jsonl"));
    let mut appends = Vec::new();
    for record in checkpoint.records()? {
        let t = Instant::now();
        fresh.append(record)?;
        appends.push(t.elapsed().as_secs_f64());
    }
    std::fs::remove_dir_all(&replay_dir)?;
    std::fs::remove_dir_all(&dir)?;
    let mut journal = vec![
        Metric::new("journal.appends", "count", io.appends as f64),
        Metric::new("journal.bytes", "bytes", io.bytes_written as f64),
        Metric::new(
            "journal.max_append_bytes",
            "bytes",
            io.max_append_bytes as f64,
        ),
        Metric::new(
            "journal.write_amp",
            "ratio",
            io.bytes_written as f64 / on_disk.max(1) as f64,
        ),
        Metric::new("journal.fsyncs", "count", fsyncs as f64),
        Metric::new("journal.io_ops", "count", ops.len() as f64),
    ];
    journal.extend(timing("journal.append_s", &appends));
    journal.extend([
        Metric::new("journal.append_s.total", "s", appends.iter().sum()),
        Metric::new("journal.resume_s", "s", facts.resume_s),
        Metric::new("journal.replayed", "count", facts.replayed as f64),
    ]);
    fig.journal = journal;
    // Driven rounds: schedule, then per chip generate, mask and evaluate.
    let policy = RetrainPolicy::Fixed(0);
    let constraint = report.constraint;
    let mut trace = Trace::new();
    while trace.rounds.is_empty() || trace.rounds.iter().sum::<f64>() < s.seconds {
        let t = Instant::now();
        let mut main = trace.recorder(u64::MAX);
        let windows = schedule(&mut main, source, policy, None)?;
        trace.absorb(main);
        let mut driven = Vec::with_capacity(chips);
        for plans in windows {
            let batches = trace.map(&plans, crate::threads(), |rec, _, (budget, ids)| {
                let mut pool = Workspace::new();
                ids.iter()
                    .map(|&id| {
                        let chip = rec.span("systolic.chip_gen", |_| source.chip(id))?;
                        let result = traced_fat(
                            rec,
                            runner,
                            &pretrained.state,
                            chip.fault_map(),
                            *budget,
                            StopRule::Exact,
                            0xF1EE7u64.wrapping_add(id as u64),
                            Some(&mut pool),
                        )?;
                        Ok(DrivenChip {
                            budget: *budget,
                            result,
                            warm: false,
                        })
                    })
                    .collect::<CoreResult<Vec<_>>>()
            })?;
            driven.extend(batches.into_iter().flatten());
        }
        trace.rounds.push(t.elapsed().as_secs_f64());
        let driven_report = driven_report(report.policy.clone(), constraint, &driven, 0);
        rounds.check_same("a driven round", &check::render_fleet(&driven_report));
    }
    fig.kernels = replay_kernels(wb, runner.train_data().len())?;
    Ok(finish(
        s, rounds, &trace, &counts, &fig, setups, lines, config,
    ))
}
