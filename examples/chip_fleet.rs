//! The full Reduce pipeline (Fig. 1) on a fleet of faulty chips:
//! characterise once, then pick a per-chip retraining amount and compare
//! against fixed-policy baselines.
//!
//! ```text
//! cargo run --release --example chip_fleet
//! ```

use reduce_core::{
    report, ExecConfig, FatRunner, FleetEvaluation, ResilienceAnalysis, ResilienceConfig,
    RetrainPolicy, SeededChips, Statistic, Workbench,
};
use reduce_systolic::{FaultModel, FleetConfig, RateDistribution};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let workbench = Workbench::toy(42);
    let (rows, cols) = workbench.array_dims();

    println!("== Step 0: pre-train the fault-free DNN ==");
    // The constraint is set relative to the measured fault-free ceiling
    // (the paper uses an absolute 91%; both conventions are supported).
    let pretrained = workbench.pretrain(15)?;
    let constraint = ((pretrained.baseline_accuracy - 0.035) * 100.0).floor() / 100.0;
    let runner = FatRunner::new(workbench)?;
    println!(
        "baseline accuracy {:.2}% (constraint {:.0}%)\n",
        pretrained.baseline_accuracy * 100.0,
        constraint * 100.0
    );

    println!("== Step 1: resilience characterisation ==");
    let exec = ExecConfig::auto();
    let config = ResilienceConfig::builder()
        .max_rate(0.3)
        .points(5)
        .max_epochs(12)
        .constraint(constraint)
        .build()?;
    let analysis = ResilienceAnalysis::run(&runner, &pretrained, config, &exec)?;
    println!("{}", report::render_epochs_to_constraint(&analysis));
    let table = analysis.table();

    println!("== Steps 2+3: deploy to a 20-chip fleet under each policy ==");
    let fleet = SeededChips::new(FleetConfig {
        chips: 20,
        rows,
        cols,
        rates: RateDistribution::Uniform { lo: 0.0, hi: 0.3 },
        model: FaultModel::Random,
        seed: 99,
    });

    let policies = [
        RetrainPolicy::Reduce(Statistic::Max),
        RetrainPolicy::Reduce(Statistic::Mean),
        RetrainPolicy::Fixed(2),
        RetrainPolicy::Fixed(6),
        RetrainPolicy::Fixed(12),
    ];
    let mut reports = Vec::new();
    for policy in policies {
        println!("  running {} …", policy.label());
        reports.push(
            FleetEvaluation::new(policy, constraint)
                .source(&fleet)
                .table(&table)
                .exec(&exec)
                .run(&runner, &pretrained)?,
        );
    }
    println!("\n{}", report::render_fleet_summary(&reports));

    println!("total retraining epochs per policy:");
    let bars: Vec<(String, f64)> = reports
        .iter()
        .map(|r| (r.policy.clone(), r.total_epochs as f64))
        .collect();
    println!("{}", report::render_bars(&bars, 40));
    Ok(())
}
