//! First-order optimizers.
//!
//! Optimizers operate on a flat list of [`Parameter`]s (as produced by
//! [`crate::Sequential::params_mut`]) and keep their per-parameter state
//! (momentum buffers, Adam moments) indexed by position, so the same
//! optimizer instance must always be fed the same parameter list — which
//! the [`crate::Trainer`] guarantees.
//!
//! Every optimizer re-applies the fault-mask projection after its update,
//! so fault-aware training can never resurrect a pruned weight.

use crate::error::{NnError, Result};
use crate::param::Parameter;
use reduce_tensor::Tensor;

/// A gradient-based parameter updater.
pub trait Optimizer: std::fmt::Debug + Send {
    /// Applies one update step to `params` using their accumulated
    /// gradients, then re-applies each parameter's mask projection.
    ///
    /// # Errors
    ///
    /// Returns an error if the parameter list changes shape between calls.
    fn step(&mut self, params: &mut [&mut Parameter]) -> Result<()>;

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (used by schedulers).
    fn set_learning_rate(&mut self, lr: f32);
}

fn check_state_len(what: &'static str, state: &[Tensor], params: &[&mut Parameter]) -> Result<()> {
    if state.len() != params.len() {
        return Err(NnError::InvalidConfig {
            what: format!(
                "{what}: optimizer state tracks {} parameters but was given {}",
                state.len(),
                params.len()
            ),
        });
    }
    Ok(())
}

/// Stochastic gradient descent with optional momentum and weight decay.
///
/// # Examples
///
/// ```
/// use reduce_nn::{Optimizer, Parameter, Sgd};
/// use reduce_tensor::Tensor;
///
/// # fn main() -> Result<(), reduce_nn::NnError> {
/// let mut p = Parameter::new("w", Tensor::ones([2]));
/// p.grad_mut().fill(1.0);
/// let mut opt = Sgd::new(0.5);
/// opt.step(&mut [&mut p])?;
/// assert_eq!(p.value().data(), &[0.5, 0.5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// SGD with classical momentum.
    pub fn with_momentum(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Adds L2 weight decay (applied as a gradient term).
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// The momentum coefficient.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Parameter]) -> Result<()> {
        // xtask:allow(float-eq): momentum == 0.0 is the exact "plain SGD" sentinel
        if self.velocity.is_empty() && self.momentum != 0.0 {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value().dims().to_vec()))
                .collect();
        }
        // xtask:allow(float-eq): momentum == 0.0 is the exact "plain SGD" sentinel
        if self.momentum != 0.0 {
            check_state_len("sgd", &self.velocity, params)?;
        }
        for (i, p) in params.iter_mut().enumerate() {
            p.project_grad();
            // xtask:allow(float-eq): momentum == 0.0 is the exact "plain SGD" sentinel
            if self.momentum == 0.0 {
                let (wd, lr) = (self.weight_decay, self.lr);
                let (value, grad) = p.value_and_grad_mut();
                for (v, &g) in value.data_mut().iter_mut().zip(grad.data()) {
                    let g = g + wd * *v;
                    *v -= lr * g;
                }
            } else {
                let v = &mut self.velocity[i];
                if v.dims() != p.value().dims() {
                    return Err(NnError::InvalidConfig {
                        what: format!(
                            "sgd: parameter {} changed shape {:?} -> {:?}",
                            p.name(),
                            v.dims(),
                            p.value().dims()
                        ),
                    });
                }
                let (wd, lr, mom) = (self.weight_decay, self.lr, self.momentum);
                let (value, grad) = p.value_and_grad_mut();
                for ((vel, &g), w) in v
                    .data_mut()
                    .iter_mut()
                    .zip(grad.data())
                    .zip(value.data_mut().iter_mut())
                {
                    let g = g + wd * *w;
                    *vel = mom * *vel + g;
                    *w -= lr * *vel;
                }
            }
            p.project();
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba).
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Adam with default betas `(0.9, 0.999)`.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Parameter]) -> Result<()> {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value().dims().to_vec()))
                .collect();
            self.v = self.m.clone();
        }
        check_state_len("adam", &self.m, params)?;
        self.t += 1;
        let t = self.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        for (i, p) in params.iter_mut().enumerate() {
            p.project_grad();
            if self.m[i].dims() != p.value().dims() {
                return Err(NnError::InvalidConfig {
                    what: format!("adam: parameter {} changed shape", p.name()),
                });
            }
            let (b1, b2, eps, lr) = (self.beta1, self.beta2, self.eps, self.lr);
            let (value, grad) = p.value_and_grad_mut();
            let m = self.m[i].data_mut();
            let v = self.v[i].data_mut();
            let w = value.data_mut();
            let grad = grad.data();
            for j in 0..w.len() {
                let g = grad[j];
                m[j] = b1 * m[j] + (1.0 - b1) * g;
                v[j] = b2 * v[j] + (1.0 - b2) * g * g;
                let mhat = m[j] / bc1;
                let vhat = v[j] / bc2;
                w[j] -= lr * mhat / (vhat.sqrt() + eps);
            }
            p.project();
        }
        Ok(())
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(values: &[f32]) -> Parameter {
        Parameter::new(
            "w",
            Tensor::from_vec(values.to_vec(), [values.len()]).expect("ok"),
        )
    }

    #[test]
    fn sgd_moves_against_gradient() {
        let mut p = param(&[1.0, -1.0]);
        p.grad_mut().data_mut().copy_from_slice(&[2.0, -2.0]);
        Sgd::new(0.1).step(&mut [&mut p]).expect("stable params");
        assert!(p
            .value()
            .approx_eq(&Tensor::from_vec(vec![0.8, -0.8], [2]).expect("ok"), 1e-6));
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut plain = param(&[0.0]);
        let mut mom = param(&[0.0]);
        let mut o1 = Sgd::new(0.1);
        let mut o2 = Sgd::with_momentum(0.1, 0.9);
        for _ in 0..5 {
            plain.grad_mut().fill(1.0);
            mom.grad_mut().fill(1.0);
            o1.step(&mut [&mut plain]).expect("stable params");
            o2.step(&mut [&mut mom]).expect("stable params");
            plain.zero_grad();
            mom.zero_grad();
        }
        assert!(mom.value().data()[0] < plain.value().data()[0]);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = param(&[1.0]);
        // No gradient signal, only decay.
        Sgd::new(0.1)
            .weight_decay(0.5)
            .step(&mut [&mut p])
            .expect("stable params");
        assert!(p.value().data()[0] < 1.0);
    }

    #[test]
    fn sgd_respects_mask() {
        let mut p = param(&[1.0, 1.0]);
        p.set_mask(Some(Tensor::from_vec(vec![0.0, 1.0], [2]).expect("ok")))
            .expect("valid");
        p.grad_mut().fill(1.0);
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        for _ in 0..3 {
            opt.step(&mut [&mut p]).expect("stable params");
        }
        assert_eq!(p.value().data()[0], 0.0, "masked weight must stay zero");
        assert!(p.value().data()[1] < 1.0);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimise f(w) = (w - 3)^2 with gradient 2(w-3).
        let mut p = param(&[0.0]);
        let mut opt = Adam::new(0.1);
        for _ in 0..200 {
            let w = p.value().data()[0];
            p.zero_grad();
            p.grad_mut().data_mut()[0] = 2.0 * (w - 3.0);
            opt.step(&mut [&mut p]).expect("stable params");
        }
        assert!(
            (p.value().data()[0] - 3.0).abs() < 0.05,
            "w = {}",
            p.value().data()[0]
        );
        assert_eq!(opt.steps(), 200);
    }

    #[test]
    fn adam_respects_mask() {
        let mut p = param(&[1.0, 1.0]);
        p.set_mask(Some(Tensor::from_vec(vec![0.0, 1.0], [2]).expect("ok")))
            .expect("valid");
        let mut opt = Adam::new(0.05);
        for _ in 0..10 {
            p.zero_grad();
            p.grad_mut().fill(-1.0);
            opt.step(&mut [&mut p]).expect("stable params");
        }
        assert_eq!(p.value().data()[0], 0.0);
        assert!(p.value().data()[1] > 1.0);
    }

    #[test]
    fn learning_rate_is_adjustable() {
        let mut opt = Sgd::new(0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    fn state_length_mismatch_is_error() {
        let mut p1 = param(&[1.0]);
        let mut p2 = param(&[1.0]);
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        opt.step(&mut [&mut p1, &mut p2]).expect("stable params");
        assert!(opt.step(&mut [&mut p1]).is_err());
    }
}
