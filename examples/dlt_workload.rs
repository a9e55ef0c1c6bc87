//! The Table II DLT workload end-to-end: a survey-derived mix of training
//! jobs with convergence / accuracy / runtime completion criteria on a
//! 4-GPU pool, under the three Rotary-DLT variants and the baselines.
//!
//! ```text
//! cargo run --release --example dlt_workload
//! ROTARY_FAULT_SEED=7 cargo run --release --example dlt_workload
//! ```

use rotary::core::SimTime;
use rotary::dlt::{DltPolicy, DltSystem, DltSystemConfig, DltWorkloadBuilder};
use rotary::faults::FaultPlan;
use rotary::sim::metrics::Distribution;

fn main() {
    // `ROTARY_FAULT_SEED=n` runs every policy under the chaos profile seeded at `n`.
    let seed = std::env::var("ROTARY_FAULT_SEED").ok().and_then(|v| v.parse().ok());
    let faults = seed.map_or_else(FaultPlan::none, FaultPlan::chaos);
    let specs = DltWorkloadBuilder::paper().seed(7).build();
    println!("workload: {} jobs", specs.len());
    for (i, spec) in specs.iter().take(6).enumerate() {
        println!(
            "  job{:<3} {:<16} batch {:<4} [{}]",
            i,
            spec.config.arch.to_string(),
            spec.config.batch_size,
            spec.criterion
        );
    }
    println!("  … (see `cargo run -p rotary-bench --bin table2` for the full list)\n");

    println!(
        "{:<20} {:>9} {:>10} | progress distribution at 120 min",
        "policy", "attained", "makespan"
    );
    for policy in DltPolicy::all() {
        let config = DltSystemConfig { seed: 3, faults: faults.clone(), ..Default::default() };
        let mut sys = DltSystem::new(config);
        sys.prepopulate_history(&specs, 99);
        let r = sys.run(&specs, policy);
        let phis = r.attainment_progress_at(SimTime::from_mins(120));
        let d = Distribution::of(&phis).unwrap();
        println!(
            "{:<20} {:>9} {:>10} | min {:.2}  median {:.2}  attained-by-then {}",
            r.policy,
            r.summary.attained,
            r.makespan.to_string(),
            d.min,
            d.median,
            r.attained_by(SimTime::from_mins(120)),
        );
    }
    println!(
        "\nreading: fairness (T=100%) lifts the minimum progress; efficiency (T=0%)\n\
         completes the most jobs early; adaptive (T=50%) starts fair and then\n\
         switches to efficiency once every job clears the threshold."
    );
}
