//! Learning-rate schedules.

use serde::{Deserialize, Serialize};

/// A learning-rate schedule mapping `(base_lr, epoch)` to the epoch's rate.
///
/// Schedules are plain data (serialisable) so experiment configurations can
/// be recorded alongside results.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum LrSchedule {
    /// Constant learning rate.
    #[default]
    Constant,
}

impl LrSchedule {
    /// The learning rate to use for `epoch` (0-based) given `base_lr`.
    pub fn rate(&self, base_lr: f32, _epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant => base_lr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_never_changes() {
        assert_eq!(LrSchedule::Constant.rate(0.1, 0), 0.1);
        assert_eq!(LrSchedule::Constant.rate(0.1, 100), 0.1);
    }
}
