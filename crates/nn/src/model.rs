//! The sequential model container.

use crate::error::{NnError, Result};
use crate::layers::{Layer, Mode};
use crate::param::Parameter;
use crate::workspace::{Workspace, WorkspaceStats};
use reduce_tensor::Tensor;

/// A feed-forward stack of layers executed in order.
///
/// `Sequential` is the model type used throughout the reproduction: VGG-style
/// CNNs and MLPs are both built as sequences of [`Layer`]s. Parameters are
/// addressed by flattened position; rank-2 parameters (the GEMM weight
/// matrices of `Linear`/`Conv2d`) are the ones a systolic-array fault map
/// masks, and are exposed separately via [`Sequential::weight_params_mut`].
///
/// # Examples
///
/// ```
/// use rand::{rngs::SmallRng, SeedableRng};
/// use reduce_nn::layers::{Linear, Mode, Relu};
/// use reduce_nn::Sequential;
/// use reduce_tensor::Tensor;
///
/// # fn main() -> Result<(), reduce_nn::NnError> {
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut model = Sequential::new()
///     .push(Linear::new(4, 8, &mut rng))
///     .push(Relu::new())
///     .push(Linear::new(8, 2, &mut rng));
/// let y = model.forward(&Tensor::zeros([1, 4]), Mode::Eval)?;
/// assert_eq!(y.dims(), &[1, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Shape-keyed buffer arena shared by every layer; steady-state training
    /// iterations draw all intermediates from here instead of the allocator.
    workspace: Workspace,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Sequential {
            layers: Vec::new(),
            workspace: Workspace::new(),
        }
    }

    /// Appends a layer (builder style).
    pub fn push<L: Layer + 'static>(mut self, layer: L) -> Self {
        self.add(layer);
        self
    }

    /// Appends a layer in place.
    pub fn add<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layers, in execution order.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to layer `i`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `i` is out of range.
    pub fn layer_mut(&mut self, i: usize) -> Result<&mut Box<dyn Layer>> {
        let n = self.layers.len();
        self.layers.get_mut(i).ok_or(NnError::InvalidConfig {
            what: format!("layer index {i} out of range ({n} layers)"),
        })
    }

    /// Runs the full forward pass.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error.
    pub fn forward(&mut self, x: &Tensor, mode: Mode) -> Result<Tensor> {
        let ws = &mut self.workspace;
        let mut cur = x.clone();
        for layer in &mut self.layers {
            let next = layer.forward_ws(&cur, mode, ws)?;
            // Recycle the consumed intermediate. Tensors still shared (the
            // caller's input, a layer's cached clone) are dropped, which
            // leaves the layer cache as sole owner — the layer hands the
            // buffer back on its next forward.
            ws.give(std::mem::replace(&mut cur, next));
        }
        Ok(cur)
    }

    /// Runs the full backward pass, accumulating parameter gradients, and
    /// returns the gradient w.r.t. the model input.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (e.g. backward before forward).
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor> {
        let ws = &mut self.workspace;
        let mut cur = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            let next = layer.backward_ws(&cur, ws)?;
            ws.give(std::mem::replace(&mut cur, next));
        }
        Ok(cur)
    }

    /// Backward pass of a training step, which never reads the gradient
    /// w.r.t. the model input: accumulates the same parameter gradients
    /// as [`Sequential::backward`], bit for bit, but the first layer runs
    /// [`Layer::backward_params_ws`] and may skip its input gradient.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (e.g. backward before forward).
    pub fn backward_params(&mut self, grad: &Tensor) -> Result<()> {
        let ws = &mut self.workspace;
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut cur = grad.clone();
        for layer in rest.iter_mut().rev() {
            let next = layer.backward_ws(&cur, ws)?;
            ws.give(std::mem::replace(&mut cur, next));
        }
        first.backward_params_ws(&cur, ws)?;
        ws.give(cur);
        Ok(())
    }

    /// The model's shared buffer arena, e.g. for a trainer that wants its
    /// per-batch tensors to come from (and return to) the same pools the
    /// layers use.
    pub fn workspace_mut(&mut self) -> &mut Workspace {
        &mut self.workspace
    }

    /// Workspace hit/miss/allocation counters since the last reset.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.workspace.stats()
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// All parameters, flattened in layer order.
    pub fn params(&self) -> Vec<&Parameter> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// All parameters, mutable, flattened in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total number of scalar weights.
    pub fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// The rank-2 (GEMM weight-matrix) parameters — the ones a systolic
    /// array executes and a fault map masks — in layer order.
    pub fn weight_params(&self) -> Vec<&Parameter> {
        self.params()
            .into_iter()
            .filter(|p| p.value().rank() == 2)
            .collect()
    }

    /// Mutable variant of [`Sequential::weight_params`].
    pub fn weight_params_mut(&mut self) -> Vec<&mut Parameter> {
        self.params_mut()
            .into_iter()
            .filter(|p| p.value().rank() == 2)
            .collect()
    }

    /// Installs fault masks on the weight parameters, in order.
    ///
    /// `masks[i]` applies to the i-th rank-2 parameter; `None` clears it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the mask count differs from the
    /// weight-parameter count, or a mask error from [`Parameter::set_mask`].
    pub fn set_weight_masks(&mut self, masks: &[Option<Tensor>]) -> Result<()> {
        let mut weights = self.weight_params_mut();
        if masks.len() != weights.len() {
            return Err(NnError::InvalidConfig {
                what: format!(
                    "{} masks supplied for {} weight parameters",
                    masks.len(),
                    weights.len()
                ),
            });
        }
        for (p, m) in weights.iter_mut().zip(masks) {
            p.set_mask(m.clone())?;
        }
        Ok(())
    }

    /// Whether every masked weight is currently zero.
    pub fn mask_invariants_hold(&self) -> bool {
        self.params().iter().all(|p| p.mask_invariant_holds())
    }

    /// Snapshot of all parameter values, keyed `"{layer}.{param}"`.
    ///
    /// Tensors use copy-on-write storage, so each entry is a reference-count
    /// bump rather than a data copy: an N-parameter model costs N `Arc`
    /// increments and zero float copies. The entries stay bit-identical to
    /// the weights at capture time — the first later write to a parameter
    /// (an optimizer step, a fault-mask application) un-shares just that
    /// tensor, leaving the state dict untouched.
    pub fn state_dict(&self) -> Vec<(String, Tensor)> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter().enumerate() {
            for p in layer.params() {
                out.push((format!("{i}.{}", p.name()), p.value().clone()));
            }
        }
        out
    }

    /// Restores parameter values from a [`Sequential::state_dict`] snapshot.
    ///
    /// Masks installed on the model are re-applied to the loaded values
    /// (mask application is the copy-on-write trigger, so two models loaded
    /// from one state dict never observe each other's masked weights).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointMismatch`] if the entry count, any key,
    /// or any shape disagrees with the model.
    pub fn load_state_dict(&mut self, state: &[(String, Tensor)]) -> Result<()> {
        let expected: Vec<String> = self
            .layers
            .iter()
            .enumerate()
            .flat_map(|(i, l)| {
                l.params()
                    .into_iter()
                    .map(move |p| format!("{i}.{}", p.name()))
            })
            .collect();
        if expected.len() != state.len() {
            return Err(NnError::CheckpointMismatch {
                reason: format!(
                    "{} entries loaded into {} parameters",
                    state.len(),
                    expected.len()
                ),
            });
        }
        for (name, (key, _)) in expected.iter().zip(state) {
            if name != key {
                return Err(NnError::CheckpointMismatch {
                    reason: format!("expected key {name}, found {key}"),
                });
            }
        }
        let mut params = self.params_mut();
        for (p, (_, value)) in params.iter_mut().zip(state) {
            p.load_value(value.clone())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn model() -> Sequential {
        let mut rng = SmallRng::seed_from_u64(1);
        Sequential::new()
            .push(Linear::new(4, 8, &mut rng))
            .push(Relu::new())
            .push(Linear::new(8, 3, &mut rng))
    }

    #[test]
    fn forward_backward_shapes() {
        let mut m = model();
        let y = m
            .forward(&Tensor::zeros([5, 4]), Mode::Train)
            .expect("valid input");
        assert_eq!(y.dims(), &[5, 3]);
        let gx = m.backward(&Tensor::ones([5, 3])).expect("forward ran");
        assert_eq!(gx.dims(), &[5, 4]);
    }

    #[test]
    fn param_counting() {
        let m = model();
        assert_eq!(m.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
        assert_eq!(m.params().len(), 4);
        assert_eq!(m.weight_params().len(), 2);
    }

    #[test]
    fn zero_grad_clears_everything() {
        let mut m = model();
        let _ = m
            .forward(&Tensor::ones([2, 4]), Mode::Train)
            .expect("valid input");
        m.backward(&Tensor::ones([2, 3])).expect("forward ran");
        assert!(m.params().iter().any(|p| p.grad().norm_sq() > 0.0));
        m.zero_grad();
        assert!(m.params().iter().all(|p| p.grad().norm_sq() == 0.0));
    }

    #[test]
    fn set_weight_masks_in_order() {
        let mut m = model();
        let masks = vec![Some(Tensor::zeros([8, 4])), None];
        m.set_weight_masks(&masks).expect("count matches");
        assert!(m.weight_params()[0].mask().is_some());
        assert_eq!(m.weight_params()[0].value().norm_sq(), 0.0);
        assert!(m.weight_params()[1].mask().is_none());
        assert!(m.weight_params()[1].value().norm_sq() > 0.0);
        assert!(m.mask_invariants_hold());
        assert!(m.set_weight_masks(&[None]).is_err());
        m.set_weight_masks(&[None, None]).expect("count matches");
        assert!(m.weight_params().iter().all(|p| p.mask().is_none()));
    }

    #[test]
    fn state_dict_round_trip() {
        let mut m = model();
        let state = m.state_dict();
        assert_eq!(state.len(), 4);
        assert!(state[0].0.contains("linear.weight"));
        // Perturb then restore.
        for p in m.params_mut() {
            p.value_mut().fill(0.0);
        }
        m.load_state_dict(&state).expect("matching checkpoint");
        let back = m.state_dict();
        for ((k1, v1), (k2, v2)) in state.iter().zip(&back) {
            assert_eq!(k1, k2);
            assert_eq!(v1, v2);
        }
    }

    #[test]
    fn load_state_dict_validates() {
        let mut m = model();
        let mut state = m.state_dict();
        state.pop();
        assert!(m.load_state_dict(&state).is_err());
        let mut state = m.state_dict();
        state[0].0 = "bogus".to_string();
        assert!(m.load_state_dict(&state).is_err());
    }

    #[test]
    fn load_reapplies_masks() {
        let mut m = model();
        let mut mask = Tensor::ones([8, 4]);
        mask.data_mut()[0] = 0.0;
        m.set_weight_masks(&[Some(mask), None])
            .expect("count matches");
        let mut state = model().state_dict();
        state[0].1.fill(9.0);
        m.load_state_dict(&state).expect("matching checkpoint");
        assert_eq!(m.weight_params()[0].value().data()[0], 0.0);
        assert!(m.mask_invariants_hold());
    }

    #[test]
    fn empty_model_is_identity() {
        let mut m = Sequential::new();
        assert!(m.is_empty());
        let x = Tensor::ones([2, 2]);
        assert_eq!(m.forward(&x, Mode::Eval).expect("no layers"), x);
    }

    #[test]
    fn state_dict_is_zero_copy_and_load_round_trips() {
        let mut m = model();
        let state = m.state_dict();
        // State-dict entries alias the live parameters until a write happens.
        for ((_, t), p) in state.iter().zip(m.params()) {
            assert!(t.shares_storage(p.value()));
        }
        for p in m.params_mut() {
            p.value_mut().fill(7.0);
        }
        // The write un-shared the parameters; the state dict kept old values.
        for ((_, t), p) in state.iter().zip(m.params()) {
            assert!(!t.shares_storage(p.value()));
        }
        m.load_state_dict(&state).expect("matching state dict");
        for ((_, t), p) in state.iter().zip(m.params()) {
            assert_eq!(t, p.value());
        }
        assert!(m.load_state_dict(&[]).is_err());
    }

    #[test]
    fn steady_state_training_iterations_are_allocation_free() {
        let mut m = model();
        let x = Tensor::rand_uniform([8, 4], -1.0, 1.0, 5);
        let g = Tensor::ones([8, 3]);
        // Warm-up: two iterations fill the pools (cached clones hand their
        // buffers back with a one-iteration delay).
        for _ in 0..2 {
            let y = m.forward(&x, Mode::Train).expect("valid input");
            m.workspace_mut().give(y);
            let gx = m.backward(&g).expect("forward ran");
            m.workspace_mut().give(gx);
        }
        let warm = m.workspace_stats().misses;
        for _ in 0..3 {
            let y = m.forward(&x, Mode::Train).expect("valid input");
            m.workspace_mut().give(y);
            let gx = m.backward(&g).expect("forward ran");
            m.workspace_mut().give(gx);
        }
        let stats = m.workspace_stats();
        assert_eq!(
            stats.misses, warm,
            "steady-state iterations must not allocate: {stats:?}"
        );
        assert!(stats.hits > 0);
    }
}
