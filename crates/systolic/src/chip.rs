//! Simulated fabricated chips and chip fleets.
//!
//! Each fabricated chip carries a unique permanent-fault map; the Reduce
//! framework's whole point is to tune the retraining amount per chip. This
//! module generates the chips of a seeded fleet one id at a time, with
//! configurable fault-rate distributions.

use crate::error::{Result, SystolicError};
use crate::fault::{FaultMap, FaultModel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Distribution of per-chip fault rates across a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RateDistribution {
    /// Every chip has the same fault rate.
    Fixed(f64),
    /// Uniform in `[lo, hi]` — the default for the Fig. 3 fleet, spreading
    /// chips across the whole characterised range.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (inclusive).
        hi: f64,
    },
}

impl RateDistribution {
    fn sample<R: Rng>(&self, rng: &mut R) -> Result<f64> {
        match *self {
            RateDistribution::Fixed(r) => {
                if !(0.0..=1.0).contains(&r) {
                    return Err(SystolicError::InvalidConfig {
                        what: format!("fixed rate {r} not in [0, 1]"),
                    });
                }
                Ok(r)
            }
            RateDistribution::Uniform { lo, hi } => {
                if !(0.0..=1.0).contains(&lo) || !(0.0..=1.0).contains(&hi) || lo > hi {
                    return Err(SystolicError::InvalidConfig {
                        what: format!("uniform bounds [{lo}, {hi}] invalid"),
                    });
                }
                Ok(if lo == hi { lo } else { rng.gen_range(lo..=hi) })
            }
        }
    }
}

/// A fabricated accelerator chip: an id plus its unique fault map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Chip {
    id: usize,
    fault_map: FaultMap,
}

impl Chip {
    /// Creates a chip from an id and fault map.
    pub fn new(id: usize, fault_map: FaultMap) -> Self {
        Chip { id, fault_map }
    }

    /// The chip's identifier within its fleet.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The chip's fault map.
    pub fn fault_map(&self) -> &FaultMap {
        &self.fault_map
    }

    /// The chip's fault rate (fraction of faulty PEs).
    pub fn fault_rate(&self) -> f64 {
        self.fault_map.fault_rate()
    }
}

/// Configuration of a simulated chip fleet.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of chips.
    pub chips: usize,
    /// Array rows per chip.
    pub rows: usize,
    /// Array columns per chip.
    pub cols: usize,
    /// Per-chip fault-rate distribution.
    pub rates: RateDistribution,
    /// Spatial fault model.
    pub model: FaultModel,
    /// Master seed; each chip derives its own stream.
    pub seed: u64,
}

impl FleetConfig {
    /// The paper's Fig. 3 setting: 100 chips on a 256×256 array with
    /// uniform-random fault maps spanning the characterised rate range.
    pub fn paper(max_rate: f64, seed: u64) -> Self {
        FleetConfig {
            chips: 100,
            rows: 256,
            cols: 256,
            rates: RateDistribution::Uniform {
                lo: 0.0,
                hi: max_rate,
            },
            model: FaultModel::Random,
            seed,
        }
    }
}

/// Generates chip `id` of the seeded fleet described by `config` without
/// materialising any other chip.
///
/// The chip's fault rate is drawn from `config.rates` and its map from
/// `config.model`. Each chip owns an independent RNG stream derived from
/// `splitmix64(seed + id)`, so fleets are reproducible and streaming
/// consumers can pull chips on demand in any order — the intake primitive
/// behind constant-memory fleet evaluation.
///
/// # Errors
///
/// Returns [`SystolicError::InvalidConfig`] for zero chips, an id outside
/// the fleet, or an invalid distribution, and propagates fault-map
/// generation errors.
///
/// # Examples
///
/// ```
/// use reduce_systolic::{generate_chip, FleetConfig};
///
/// # fn main() -> Result<(), reduce_systolic::SystolicError> {
/// let mut config = FleetConfig::paper(0.1, 42);
/// config.chips = 5;
/// config.rows = 32;
/// config.cols = 32;
/// let chip = generate_chip(&config, 4)?;
/// assert_eq!(chip.id(), 4);
/// assert_eq!(chip, generate_chip(&config, 4)?);
/// assert!(generate_chip(&config, 5).is_err());
/// # Ok(())
/// # }
/// ```
pub fn generate_chip(config: &FleetConfig, id: usize) -> Result<Chip> {
    validate_fleet(config)?;
    if id >= config.chips {
        return Err(SystolicError::InvalidConfig {
            what: format!("chip id {id} outside fleet of {} chips", config.chips),
        });
    }
    let mut rng = chip_rng(config, id);
    let rate = config.rates.sample(&mut rng)?;
    let map_seed: u64 = rng.gen();
    let map = FaultMap::generate(config.rows, config.cols, rate, config.model, map_seed)?;
    Ok(Chip::new(id, map))
}

/// The fault rate chip `id` would carry after generation — the rate draw
/// of [`generate_chip`] snapped to the whole-PE count the fault map would
/// realise (`round(rate · rows · cols) / (rows · cols)`), without paying
/// for the map itself. Scheduling passes use this to group chips by epoch
/// budget before materialising any of them; the value equals
/// `generate_chip(config, id)?.fault_rate()` for the random fault model.
///
/// # Errors
///
/// Same domain as [`generate_chip`].
pub fn chip_rate(config: &FleetConfig, id: usize) -> Result<f64> {
    validate_fleet(config)?;
    if id >= config.chips {
        return Err(SystolicError::InvalidConfig {
            what: format!("chip id {id} outside fleet of {} chips", config.chips),
        });
    }
    let sampled = config.rates.sample(&mut chip_rng(config, id))?;
    let total = (config.rows * config.cols) as f64;
    Ok((sampled * total).round() / total)
}

fn validate_fleet(config: &FleetConfig) -> Result<()> {
    if config.chips == 0 {
        return Err(SystolicError::InvalidConfig {
            what: "zero chips requested".to_string(),
        });
    }
    Ok(())
}

fn chip_rng(config: &FleetConfig, id: usize) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(config.seed.wrapping_add(id as u64)))
}

/// One splitmix64 mixing round: decorrelates the per-chip seeds so that
/// adjacent ids do not get adjacent (and thus correlated) SmallRng
/// states.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> FleetConfig {
        FleetConfig {
            chips: 20,
            rows: 16,
            cols: 16,
            rates: RateDistribution::Uniform { lo: 0.0, hi: 0.2 },
            model: FaultModel::Random,
            seed: 1,
        }
    }

    #[test]
    fn fleet_has_requested_size_and_ids() {
        let cfg = small_config();
        for id in 0..cfg.chips {
            let chip = generate_chip(&cfg, id).expect("valid id");
            assert_eq!(chip.id(), id);
            assert!(chip.fault_rate() <= 0.21);
        }
        assert!(generate_chip(&cfg, cfg.chips).is_err());
        assert!(chip_rate(&cfg, cfg.chips).is_err());
    }

    #[test]
    fn fleet_is_deterministic_and_chips_differ() {
        let cfg = small_config();
        for id in 0..cfg.chips {
            assert_eq!(
                generate_chip(&cfg, id).expect("valid id"),
                generate_chip(&cfg, id).expect("valid id")
            );
        }
        // Different chips in the same fleet have different maps.
        let first = generate_chip(&cfg, 0).expect("valid id");
        let second = generate_chip(&cfg, 1).expect("valid id");
        assert_ne!(first.fault_map(), second.fault_map());
    }

    #[test]
    fn chip_rate_matches_the_generated_chip() {
        let cfg = small_config();
        // Any chip can be regenerated in isolation and in any order, and
        // its rate is known without generating its map.
        for id in [19usize, 0, 7, 3] {
            let chip = generate_chip(&cfg, id).expect("valid id");
            let rate = chip_rate(&cfg, id).expect("valid id");
            assert_eq!(rate, chip.fault_rate());
        }
    }

    #[test]
    fn fixed_distribution_gives_constant_rate() {
        let mut cfg = small_config();
        cfg.rates = RateDistribution::Fixed(0.1);
        for id in 0..cfg.chips {
            let chip = generate_chip(&cfg, id).expect("valid id");
            assert!((chip.fault_rate() - 0.1).abs() < 0.01);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = small_config();
        cfg.chips = 0;
        assert!(generate_chip(&cfg, 0).is_err());
        assert!(chip_rate(&cfg, 0).is_err());
        let mut cfg = small_config();
        cfg.rates = RateDistribution::Uniform { lo: 0.5, hi: 0.2 };
        assert!(generate_chip(&cfg, 0).is_err());
        assert!(chip_rate(&cfg, 0).is_err());
        let mut cfg = small_config();
        cfg.rates = RateDistribution::Fixed(1.5);
        assert!(generate_chip(&cfg, 0).is_err());
        assert!(chip_rate(&cfg, 0).is_err());
    }

    #[test]
    fn paper_preset() {
        let cfg = FleetConfig::paper(0.05, 3);
        assert_eq!(cfg.chips, 100);
        assert_eq!((cfg.rows, cfg.cols), (256, 256));
    }
}
