//! Trainable parameters with gradient storage and fault masks.

use crate::error::{NnError, Result};
use reduce_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A trainable parameter: value, gradient accumulator and an optional
/// **fault mask**.
///
/// The mask is the hook fault-aware training (FAT) plugs into: a mask is a
/// 0/1 tensor of the parameter's shape where 0 marks weights that are mapped
/// onto faulty (bypassed) processing elements. While a mask is installed the
/// parameter is *projected* onto the masked subspace — masked entries are
/// forced to zero in the value immediately, and the optimizer re-applies the
/// projection after every update so they can never drift away from zero.
///
/// Values are copy-on-write tensors: cloning one (a model snapshot, a
/// checkpoint entry) shares storage until the first write. [`Parameter::project`]
/// writes through `data_mut` and is therefore the copy-on-write trigger —
/// masking a parameter un-shares it from any snapshot it was restored from,
/// so per-chip models masked on different fault maps never alias.
///
/// # Examples
///
/// ```
/// use reduce_nn::Parameter;
/// use reduce_tensor::Tensor;
///
/// # fn main() -> Result<(), reduce_nn::NnError> {
/// let mut p = Parameter::new("w", Tensor::ones([2, 2]));
/// let mask = Tensor::from_vec(vec![1.0, 0.0, 1.0, 1.0], [2, 2])?;
/// p.set_mask(Some(mask))?;
/// assert_eq!(p.value().data(), &[1.0, 0.0, 1.0, 1.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Parameter {
    name: String,
    value: Tensor,
    grad: Tensor,
    mask: Option<Tensor>,
}

impl Parameter {
    /// Creates a parameter with a zeroed gradient and no mask.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims().to_vec());
        Parameter {
            name: name.into(),
            value,
            grad,
            mask: None,
        }
    }

    /// The parameter's diagnostic name (e.g. `"conv1.weight"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// Mutable value. Callers that write through this must re-apply the mask
    /// with [`Parameter::project`] if one is installed; the optimizers in
    /// this crate do so automatically.
    pub fn value_mut(&mut self) -> &mut Tensor {
        &mut self.value
    }

    /// Replaces the value wholesale (checkpoint loading), re-projecting onto
    /// the mask if one is installed.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CheckpointMismatch`] if the new value's shape
    /// differs from the current one.
    pub fn load_value(&mut self, value: Tensor) -> Result<()> {
        if value.dims() != self.value.dims() {
            return Err(NnError::CheckpointMismatch {
                reason: format!(
                    "parameter {}: shape {:?} loaded into {:?}",
                    self.name,
                    value.dims(),
                    self.value.dims()
                ),
            });
        }
        self.value = value;
        self.project();
        Ok(())
    }

    /// Accumulated gradient.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// Mutable gradient (layers accumulate into this during backward).
    pub fn grad_mut(&mut self) -> &mut Tensor {
        &mut self.grad
    }

    /// Simultaneous mutable-value / shared-gradient access (split borrow).
    ///
    /// Lets an optimizer read the accumulated gradient while updating the
    /// value in place, without copying the gradient to satisfy the borrow
    /// checker. Callers must re-apply the mask with [`Parameter::project`]
    /// afterwards, exactly as with [`Parameter::value_mut`].
    pub fn value_and_grad_mut(&mut self) -> (&mut Tensor, &Tensor) {
        (&mut self.value, &self.grad)
    }

    /// Zeroes the gradient.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// The installed fault mask, if any.
    pub fn mask(&self) -> Option<&Tensor> {
        self.mask.as_ref()
    }

    /// Installs (or clears, with `None`) a fault mask and immediately
    /// projects the value onto it.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] if the mask shape differs from the
    /// parameter shape or contains values other than 0 and 1.
    pub fn set_mask(&mut self, mask: Option<Tensor>) -> Result<()> {
        if let Some(m) = &mask {
            if m.dims() != self.value.dims() {
                return Err(NnError::BadInput {
                    layer: self.name.clone(),
                    reason: format!(
                        "mask shape {:?} does not match parameter shape {:?}",
                        m.dims(),
                        self.value.dims()
                    ),
                });
            }
            // xtask:allow(float-eq): validates masks hold exact 0.0/1.0 sentinels
            if m.data().iter().any(|&v| v != 0.0 && v != 1.0) {
                return Err(NnError::BadInput {
                    layer: self.name.clone(),
                    reason: "mask entries must be 0 or 1".to_string(),
                });
            }
        }
        self.mask = mask;
        self.project();
        Ok(())
    }

    /// Re-applies the mask projection to the value (no-op without a mask).
    pub fn project(&mut self) {
        if let Some(m) = &self.mask {
            for (v, &mv) in self.value.data_mut().iter_mut().zip(m.data()) {
                *v *= mv;
            }
        }
    }

    /// Applies the mask to the gradient so masked weights receive no update
    /// (no-op without a mask).
    pub fn project_grad(&mut self) {
        if let Some(m) = &self.mask {
            for (g, &mv) in self.grad.data_mut().iter_mut().zip(m.data()) {
                *g *= mv;
            }
        }
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Checks the mask invariant: every masked entry of the value is zero.
    pub fn mask_invariant_holds(&self) -> bool {
        match &self.mask {
            Some(m) => {
                self.value
                    .data()
                    .iter()
                    .zip(m.data())
                    // xtask:allow(float-eq): masks hold exact 0.0/1.0 sentinels
                    .all(|(&v, &mv)| mv != 0.0 || v == 0.0)
            }
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_parameter_has_zero_grad() {
        let p = Parameter::new("w", Tensor::ones([3]));
        assert_eq!(p.grad().data(), &[0.0, 0.0, 0.0]);
        assert_eq!(p.name(), "w");
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn set_mask_projects_value() {
        let mut p = Parameter::new("w", Tensor::ones([4]));
        p.set_mask(Some(
            Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], [4]).expect("ok"),
        ))
        .expect("valid mask");
        assert_eq!(p.value().data(), &[1.0, 0.0, 0.0, 1.0]);
        assert!(p.mask_invariant_holds());
    }

    #[test]
    fn set_mask_rejects_wrong_shape_and_values() {
        let mut p = Parameter::new("w", Tensor::ones([4]));
        assert!(p.set_mask(Some(Tensor::ones([3]))).is_err());
        assert!(p
            .set_mask(Some(Tensor::from_vec(vec![0.5; 4], [4]).expect("ok")))
            .is_err());
    }

    #[test]
    fn clear_mask_allows_drift() {
        let mut p = Parameter::new("w", Tensor::ones([2]));
        p.set_mask(Some(Tensor::from_vec(vec![0.0, 1.0], [2]).expect("ok")))
            .expect("valid");
        p.set_mask(None).expect("clearing is always valid");
        assert!(p.mask().is_none());
        p.value_mut().data_mut()[0] = 5.0;
        assert!(p.mask_invariant_holds());
    }

    #[test]
    fn project_grad_zeroes_masked_entries() {
        let mut p = Parameter::new("w", Tensor::ones([2]));
        p.set_mask(Some(Tensor::from_vec(vec![0.0, 1.0], [2]).expect("ok")))
            .expect("valid");
        p.grad_mut().fill(3.0);
        p.project_grad();
        assert_eq!(p.grad().data(), &[0.0, 3.0]);
    }

    #[test]
    fn load_value_reapplies_mask() {
        let mut p = Parameter::new("w", Tensor::ones([2]));
        p.set_mask(Some(Tensor::from_vec(vec![0.0, 1.0], [2]).expect("ok")))
            .expect("valid");
        p.load_value(Tensor::full([2], 7.0)).expect("same shape");
        assert_eq!(p.value().data(), &[0.0, 7.0]);
        assert!(p.load_value(Tensor::ones([3])).is_err());
    }
}
