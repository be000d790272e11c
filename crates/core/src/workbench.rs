//! The experiment workbench: model/task/training specifications.
//!
//! A [`Workbench`] bundles everything the Reduce pipeline needs to train and
//! evaluate DNNs reproducibly: a model architecture, a dataset, and training
//! hyper-parameters — all as plain data, so experiment configurations can
//! be logged verbatim alongside results.

use crate::error::{ReduceError, Result};
use reduce_data::{blobs, spirals, Dataset, SynthImageConfig, SynthTask};
use reduce_nn::models::{lenet_with_init, mlp_with_init, vgg11_with_init, VggConfig};
use reduce_nn::{
    evaluate, Adam, CrossEntropyLoss, EvalStats, Init, LrSchedule, Sequential, Sgd, TrainConfig,
    Trainer,
};
use reduce_tensor::Tensor;

/// Model architecture specification.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelSpec {
    /// Multilayer perceptron with the given layer widths.
    Mlp {
        /// Layer widths including input and output.
        dims: Vec<usize>,
    },
    /// VGG11 family (the paper's model).
    Vgg(VggConfig),
    /// LeNet-style small CNN.
    Lenet {
        /// Square input resolution.
        input_hw: usize,
        /// Input channels.
        in_channels: usize,
        /// Output classes.
        classes: usize,
    },
}

impl ModelSpec {
    /// Builds a freshly initialised model.
    ///
    /// # Errors
    ///
    /// Propagates architecture validation errors.
    pub fn build(&self, seed: u64) -> Result<Sequential> {
        self.build_with_init(seed, Init::KaimingNormal)
    }

    /// Builds the architecture and loads `state` into it: bit for bit the
    /// model [`ModelSpec::build`] followed by
    /// [`Sequential::load_state_dict`] gives, without drawing the initial
    /// weights the load would overwrite. Layer state a state dict does not
    /// carry (dropout seeds, batch-norm statistics) never depends on those
    /// draws, so it comes out the same.
    ///
    /// # Errors
    ///
    /// Propagates architecture validation errors and the load's
    /// checkpoint-mismatch errors.
    pub fn build_from_state(&self, state: &[(String, Tensor)]) -> Result<Sequential> {
        let mut model = self.build_with_init(0, Init::Zeros)?;
        model.load_state_dict(state)?;
        Ok(model)
    }

    fn build_with_init(&self, seed: u64, init: Init) -> Result<Sequential> {
        Ok(match self {
            ModelSpec::Mlp { dims } => mlp_with_init(dims, seed, init)?,
            ModelSpec::Vgg(cfg) => vgg11_with_init(cfg, seed, init)?,
            ModelSpec::Lenet {
                input_hw,
                in_channels,
                classes,
            } => lenet_with_init(*input_hw, *in_channels, *classes, seed, init)?,
        })
    }

    /// The `(out, in)` shapes of the model's GEMM weight matrices — the
    /// tensors a systolic fault map masks.
    ///
    /// # Errors
    ///
    /// Propagates build errors.
    pub fn weight_dims(&self, seed: u64) -> Result<Vec<(usize, usize)>> {
        let model = self.build(seed)?;
        model
            .weight_params()
            .iter()
            .map(|p| {
                let d = p.value().dims();
                match (d.first(), d.get(1)) {
                    (Some(&out), Some(&inp)) => Ok((out, inp)),
                    _ => Err(ReduceError::Internal {
                        invariant: "weight parameters are rank-2 matrices".to_string(),
                    }),
                }
            })
            .collect()
    }

    /// The `(m, in, out)` GEMM shapes one forward pass over a batch of
    /// `batch` inputs executes on the accelerator — the input to the
    /// [`reduce_systolic::CostModel`] cycle accounting. Convolutions count
    /// their im2col GEMM (`m = batch · out_positions`).
    ///
    /// # Errors
    ///
    /// Returns [`ReduceError::InvalidConfig`] for a zero batch or invalid
    /// architecture.
    pub fn gemm_shapes(&self, batch: usize) -> Result<Vec<(usize, usize, usize)>> {
        if batch == 0 {
            return Err(ReduceError::InvalidConfig {
                what: "zero batch".to_string(),
            });
        }
        Ok(match self {
            ModelSpec::Mlp { dims } => {
                if dims.len() < 2 {
                    return Err(ReduceError::InvalidConfig {
                        what: format!("mlp needs >= 2 dims, got {dims:?}"),
                    });
                }
                // xtask:allow(index): windows(2) yields exactly-2-element slices
                dims.windows(2).map(|w| (batch, w[0], w[1])).collect()
            }
            ModelSpec::Vgg(cfg) => {
                // Mirrors the layer plan in `reduce_nn::models::vgg11`.
                let w = cfg.width;
                let plan: [(usize, bool); 8] = [
                    (w, true),
                    (2 * w, true),
                    (4 * w, false),
                    (4 * w, true),
                    (8 * w, false),
                    (8 * w, true),
                    (8 * w, false),
                    (8 * w, true),
                ];
                let mut shapes = Vec::with_capacity(10);
                let mut channels = cfg.in_channels;
                let mut hw = cfg.input_hw;
                for (out_ch, pool) in plan {
                    shapes.push((batch * hw * hw, channels * 9, out_ch));
                    if pool && hw >= 2 {
                        hw /= 2;
                    }
                    channels = out_ch;
                }
                let feat = channels * hw * hw;
                let hidden = 16 * w;
                shapes.push((batch, feat, hidden));
                shapes.push((batch, hidden, cfg.classes));
                shapes
            }
            ModelSpec::Lenet {
                input_hw,
                in_channels,
                classes,
            } => {
                let hw = *input_hw;
                let h2 = hw / 2;
                let h4 = hw / 4;
                vec![
                    (batch * hw * hw, in_channels * 25, 6),
                    (batch * h2 * h2, 6 * 25, 16),
                    (batch, 16 * h4 * h4, 120),
                    (batch, 120, *classes),
                ]
            }
        })
    }
}

/// Dataset specification.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskSpec {
    /// Synthetic CIFAR-like images (the paper-scale task).
    SynthImages {
        /// Generator configuration (prototypes derive from its seed).
        config: SynthImageConfig,
        /// Training-set size.
        train_samples: usize,
        /// Test-set size (drawn i.i.d. from the same task).
        test_samples: usize,
    },
    /// Gaussian blobs (fast tabular task for tests/CI).
    Blobs {
        /// Total samples before the split.
        samples: usize,
        /// Feature dimensionality.
        dim: usize,
        /// Number of classes.
        classes: usize,
        /// Cluster-centre radius.
        separation: f32,
        /// Per-cluster standard deviation.
        std: f32,
        /// Fraction of labels flipped (keeps accuracy off 100 %).
        label_noise: f32,
    },
    /// Interleaved spirals (harder 2-D task).
    Spirals {
        /// Total samples before the split.
        samples: usize,
        /// Number of arms/classes.
        classes: usize,
        /// Revolutions per arm.
        turns: f32,
        /// Coordinate noise.
        noise: f32,
    },
}

impl TaskSpec {
    /// Materialises `(train, test)` datasets from `seed`.
    ///
    /// # Errors
    ///
    /// Propagates generator errors.
    pub fn materialize(&self, seed: u64) -> Result<(Dataset, Dataset)> {
        match self {
            TaskSpec::SynthImages {
                config,
                train_samples,
                test_samples,
            } => {
                let mut cfg = *config;
                cfg.seed = seed;
                let task = SynthTask::new(cfg)?;
                let train = task.sample(*train_samples, seed.wrapping_add(1))?;
                let test = task.sample(*test_samples, seed.wrapping_add(2))?;
                Ok((train, test))
            }
            TaskSpec::Blobs {
                samples,
                dim,
                classes,
                separation,
                std,
                label_noise,
            } => {
                let data = blobs(*samples, *dim, *classes, *separation, *std, seed)?
                    .with_label_noise(*label_noise, seed.wrapping_add(3))?;
                Ok(data.split(0.8, seed.wrapping_add(4))?)
            }
            TaskSpec::Spirals {
                samples,
                classes,
                turns,
                noise,
            } => {
                let data = spirals(*samples, *classes, *turns, *noise, seed)?;
                Ok(data.split(0.8, seed.wrapping_add(4))?)
            }
        }
    }
}

/// Optimizer specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimSpec {
    /// SGD with momentum and optional weight decay.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient (0 disables).
        momentum: f32,
        /// L2 weight decay (0 disables).
        weight_decay: f32,
    },
    /// Adam.
    Adam {
        /// Learning rate.
        lr: f32,
    },
}

impl OptimSpec {
    /// Builds a trainer around this optimizer with the given config.
    fn trainer(&self, config: TrainConfig) -> Trainer {
        match *self {
            OptimSpec::Sgd {
                lr,
                momentum,
                weight_decay,
            } => Trainer::new(
                Sgd::with_momentum(lr, momentum).weight_decay(weight_decay),
                CrossEntropyLoss,
                config,
            ),
            OptimSpec::Adam { lr } => Trainer::new(Adam::new(lr), CrossEntropyLoss, config),
        }
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainSpec {
    /// Optimizer specification.
    pub optimizer: OptimSpec,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
}

impl Default for TrainSpec {
    fn default() -> Self {
        TrainSpec {
            optimizer: OptimSpec::Sgd {
                lr: 0.05,
                momentum: 0.9,
                weight_decay: 0.0,
            },
            batch_size: 32,
            schedule: LrSchedule::Constant,
        }
    }
}

/// A complete experiment specification.
#[derive(Debug, Clone, PartialEq)]
pub struct Workbench {
    /// Model architecture.
    pub model: ModelSpec,
    /// Dataset.
    pub task: TaskSpec,
    /// Training hyper-parameters for pre-training (and FAT, unless
    /// [`Workbench::fat_train`] overrides them).
    pub train: TrainSpec,
    /// Optional FAT-specific hyper-parameters. Fault-aware retraining is a
    /// fine-tuning problem: a lower learning rate than pre-training makes
    /// recovery epochs scale with damage instead of re-learning the task
    /// from scratch each epoch. `None` reuses [`Workbench::train`].
    pub fat_train: Option<TrainSpec>,
    /// Batch-norm recalibration passes performed after masking and before
    /// any FAT epoch (0 disables). Masking shifts layer statistics, so a
    /// batch-normalised network evaluated with stale running statistics
    /// collapses far below its true post-pruning accuracy; streaming the
    /// training set through the masked model in train mode (no weight
    /// updates) repairs the statistics. Irrelevant for BN-free models.
    pub bn_recalibration_passes: usize,
    /// Systolic-array geometry `(rows, cols)` of the target chips. The
    /// paper uses 256×256; CPU-scale experiments default to a smaller
    /// array so the scaled-down layers tile across it the same way large
    /// layers tile across 256×256.
    pub array: (usize, usize),
    /// Master seed: model init, data generation and shuffling derive from
    /// it.
    pub seed: u64,
}

impl Workbench {
    /// The fast tabular workbench used by tests: an MLP on Gaussian blobs
    /// with label noise, which trains in milliseconds and saturates in the
    /// mid-90s like the paper-scale task.
    pub fn toy(seed: u64) -> Self {
        Workbench {
            model: ModelSpec::Mlp {
                dims: vec![8, 48, 32, 4],
            },
            task: TaskSpec::Blobs {
                samples: 1200,
                dim: 8,
                classes: 4,
                separation: 3.6,
                std: 1.0,
                label_noise: 0.02,
            },
            train: TrainSpec::default(),
            fat_train: None,
            bn_recalibration_passes: 0,
            array: (8, 8),
            seed,
        }
    }

    /// The paper-scale workbench: nano-VGG11 on the synthetic CIFAR-like
    /// task (see DESIGN.md for the scale substitution rationale).
    ///
    /// Calibration notes: batch norm is disabled so that FAP-only accuracy
    /// degrades *gradually* with fault rate as in the paper's Fig. 2a
    /// (stale batch statistics otherwise collapse any masked network to
    /// chance); FAT runs at a fine-tuning learning rate so that
    /// epochs-to-constraint grows with fault rate (Fig. 2b) instead of
    /// every chip recovering in one aggressive epoch.
    pub fn paper_scale(train_samples: usize, test_samples: usize, seed: u64) -> Self {
        let mut vgg = VggConfig::nano(10);
        vgg.batch_norm = false;
        let mut images = SynthImageConfig::cifar_like(train_samples, seed);
        images.pixel_noise = 0.45;
        Workbench {
            model: ModelSpec::Vgg(vgg),
            task: TaskSpec::SynthImages {
                config: images,
                train_samples,
                test_samples,
            },
            train: TrainSpec {
                optimizer: OptimSpec::Sgd {
                    lr: 0.02,
                    momentum: 0.9,
                    weight_decay: 1e-4,
                },
                batch_size: 32,
                schedule: LrSchedule::Constant,
            },
            fat_train: Some(TrainSpec {
                optimizer: OptimSpec::Sgd {
                    lr: 0.0015,
                    momentum: 0.9,
                    weight_decay: 0.0,
                },
                batch_size: 32,
                schedule: LrSchedule::Constant,
            }),
            bn_recalibration_passes: 0,
            array: (32, 32),
            seed,
        }
    }

    /// Builds a pre-training trainer (fresh optimizer state).
    pub fn trainer(&self, shuffle_seed: u64) -> Trainer {
        self.train.optimizer.trainer(TrainConfig {
            batch_size: self.train.batch_size,
            shuffle_seed,
            schedule: self.train.schedule,
        })
    }

    /// Builds a fault-aware-retraining trainer: uses
    /// [`Workbench::fat_train`] if set, else the pre-training spec.
    pub fn fat_trainer(&self, shuffle_seed: u64) -> Trainer {
        let spec = self.fat_train.as_ref().unwrap_or(&self.train);
        spec.optimizer.trainer(TrainConfig {
            batch_size: spec.batch_size,
            shuffle_seed,
            schedule: spec.schedule,
        })
    }

    /// The target chips' array geometry `(rows, cols)`.
    pub fn array_dims(&self) -> (usize, usize) {
        self.array
    }

    /// Materialises the datasets.
    ///
    /// # Errors
    ///
    /// Propagates generator errors.
    pub fn datasets(&self) -> Result<(Dataset, Dataset)> {
        self.task.materialize(self.seed)
    }

    /// Evaluates a model on a dataset with this workbench's loss.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn evaluate(&self, model: &mut Sequential, data: &Dataset) -> Result<EvalStats> {
        Ok(evaluate(
            model,
            &CrossEntropyLoss,
            data.features(),
            data.labels(),
            self.train.batch_size,
        )?)
    }
}

/// A pre-trained (fault-free) model: the input to fault-aware retraining.
#[derive(Debug, Clone)]
pub struct Pretrained {
    /// Snapshot of the trained fault-free weights.
    pub state: Vec<(String, Tensor)>,
    /// Fault-free test accuracy (the accuracy ceiling retraining aims for).
    pub baseline_accuracy: f32,
    /// Epochs of pre-training performed.
    pub epochs: usize,
}

impl Workbench {
    /// Pre-trains the fault-free model for `epochs` epochs (Step 0 of the
    /// pipeline — the paper receives this DNN as input).
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn pretrain(&self, epochs: usize) -> Result<Pretrained> {
        if epochs == 0 {
            return Err(ReduceError::InvalidConfig {
                what: "pretraining needs at least one epoch".to_string(),
            });
        }
        let (train, test) = self.datasets()?;
        let mut model = self.model.build(self.seed)?;
        let mut trainer = self.trainer(self.seed ^ 0xA5A5);
        trainer.fit(&mut model, train.features(), train.labels(), epochs)?;
        let stats = self.evaluate(&mut model, &test)?;
        Ok(Pretrained {
            state: model.state_dict(),
            baseline_accuracy: stats.accuracy,
            epochs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reduce_nn::layers::Mode;

    #[test]
    fn toy_workbench_pretrains_to_high_accuracy() {
        let wb = Workbench::toy(1);
        let pre = wb.pretrain(12).expect("valid workbench");
        assert!(
            pre.baseline_accuracy > 0.9,
            "baseline accuracy only {}",
            pre.baseline_accuracy
        );
        assert!(!pre.state.is_empty());
        assert_eq!(pre.epochs, 12);
    }

    #[test]
    fn pretrain_is_deterministic() {
        let wb = Workbench::toy(2);
        let a = wb.pretrain(3).expect("valid workbench");
        let b = wb.pretrain(3).expect("valid workbench");
        assert_eq!(a.baseline_accuracy, b.baseline_accuracy);
        for ((_, t1), (_, t2)) in a.state.iter().zip(&b.state) {
            assert_eq!(t1, t2);
        }
    }

    #[test]
    fn zero_epoch_pretrain_rejected() {
        assert!(Workbench::toy(0).pretrain(0).is_err());
    }

    #[test]
    fn weight_dims_match_built_model() {
        let wb = Workbench::toy(3);
        let dims = wb.model.weight_dims(wb.seed).expect("builds");
        assert_eq!(dims, vec![(48, 8), (32, 48), (4, 32)]);
    }

    #[test]
    fn model_specs_build() {
        assert!(ModelSpec::Mlp { dims: vec![4, 2] }.build(0).is_ok());
        assert!(ModelSpec::Lenet {
            input_hw: 16,
            in_channels: 1,
            classes: 4
        }
        .build(0)
        .is_ok());
        assert!(ModelSpec::Vgg(VggConfig::nano(10)).build(0).is_ok());
        assert!(ModelSpec::Mlp { dims: vec![4] }.build(0).is_err());
    }

    #[test]
    fn build_from_state_equals_build_then_load() {
        // Dropout and batch norm carry state a state dict does not: the
        // dropout stream must come out the same too, which a train-mode
        // forward pass shows.
        let mut vgg = VggConfig::nano(10);
        vgg.dropout = 0.5;
        vgg.dropout_seed = 3;
        let specs = [
            (
                ModelSpec::Mlp {
                    dims: vec![8, 48, 32, 4],
                },
                vec![4, 8],
            ),
            (ModelSpec::Vgg(vgg), vec![2, 3, 16, 16]),
            (
                ModelSpec::Lenet {
                    input_hw: 16,
                    in_channels: 1,
                    classes: 4,
                },
                vec![2, 1, 16, 16],
            ),
        ];
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (spec, input) in specs {
            let state = spec.build(5).expect("valid spec").state_dict();
            let mut loaded = spec.build(9).expect("valid spec");
            loaded.load_state_dict(&state).expect("same architecture");
            let mut direct = spec.build_from_state(&state).expect("same architecture");
            let (a, b) = (loaded.state_dict(), direct.state_dict());
            assert_eq!(a.len(), b.len());
            for ((ka, va), (kb, vb)) in a.iter().zip(&b) {
                assert_eq!((ka, bits(va)), (kb, bits(vb)), "{spec:?}");
            }
            let x = Tensor::rand_uniform(input, -1.0, 1.0, 6);
            let ya = loaded.forward(&x, Mode::Train).expect("valid input");
            let yb = direct.forward(&x, Mode::Train).expect("valid input");
            assert_eq!(bits(&ya), bits(&yb), "{spec:?}");
        }
        // A state dict of another architecture is refused, as the load is.
        let wrong = ModelSpec::Mlp { dims: vec![4, 3] }
            .build(0)
            .expect("valid dims");
        let mlp = ModelSpec::Mlp { dims: vec![4, 2] };
        assert!(mlp.build_from_state(&wrong.state_dict()).is_err());
    }

    #[test]
    fn task_specs_materialize() {
        let (tr, te) = TaskSpec::Blobs {
            samples: 100,
            dim: 4,
            classes: 2,
            separation: 3.0,
            std: 0.5,
            label_noise: 0.0,
        }
        .materialize(0)
        .expect("valid");
        assert_eq!(tr.len() + te.len(), 100);

        let (tr, te) = TaskSpec::Spirals {
            samples: 50,
            classes: 2,
            turns: 1.0,
            noise: 0.05,
        }
        .materialize(0)
        .expect("valid");
        assert_eq!(tr.len() + te.len(), 50);

        let (tr, te) = TaskSpec::SynthImages {
            config: SynthImageConfig::cifar_like(10, 0),
            train_samples: 20,
            test_samples: 10,
        }
        .materialize(5)
        .expect("valid");
        assert_eq!(tr.len(), 20);
        assert_eq!(te.len(), 10);
    }

    #[test]
    fn adam_spec_builds_trainer() {
        let wb = Workbench {
            train: TrainSpec {
                optimizer: OptimSpec::Adam { lr: 0.01 },
                ..TrainSpec::default()
            },
            ..Workbench::toy(4)
        };
        let pre = wb.pretrain(2).expect("valid workbench");
        assert!(pre.baseline_accuracy > 0.3);
    }
}
