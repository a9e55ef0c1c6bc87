//! The Table I AQP workload end-to-end: 30 approximate TPC-H queries with
//! accuracy thresholds and deadlines, Poisson arrivals, arbitrated by
//! Rotary-AQP and compared against the paper's baselines.
//!
//! ```text
//! cargo run --release --example aqp_workload
//! ROTARY_FAULT_SEED=7 cargo run --release --example aqp_workload
//! ```

use rotary::aqp::{AqpPolicy, AqpSystem, AqpSystemConfig, WorkloadBuilder};
use rotary::faults::FaultPlan;
use rotary::tpch::Generator;

fn main() -> rotary::core::error::Result<()> {
    // `ROTARY_FAULT_SEED=n` runs every policy under the chaos profile seeded at `n`.
    let seed = std::env::var("ROTARY_FAULT_SEED").ok().and_then(|v| v.parse().ok());
    let faults = seed.map_or_else(FaultPlan::none, FaultPlan::chaos);
    let data = Generator::new(1, 0.005).generate();
    let specs = WorkloadBuilder::paper().seed(7).build();

    println!("workload: {} jobs, classes:", specs.len());
    for class in [
        rotary::engine::QueryClass::Light,
        rotary::engine::QueryClass::Medium,
        rotary::engine::QueryClass::Heavy,
    ] {
        let n = specs.iter().filter(|s| s.class() == class).count();
        println!("  {class:<7} {n}");
    }
    println!();

    println!(
        "{:<14} {:>9} {:>7} {:>8} {:>11} {:>12}",
        "policy", "attained", "false", "missed", "avg-wait", "checkpoints"
    );
    for policy in [
        AqpPolicy::RoundRobin,
        AqpPolicy::Edf,
        AqpPolicy::Laf,
        AqpPolicy::Relaqs,
        AqpPolicy::Rotary,
    ] {
        let config = AqpSystemConfig { seed: 3, faults: faults.clone(), ..Default::default() };
        let mut sys = AqpSystem::new(&data, config);
        if policy == AqpPolicy::Rotary {
            // Rotary's estimators draw on completed historical jobs.
            sys.prepopulate_history(9)?;
        }
        let r = sys.run(&specs, policy)?;
        println!(
            "{:<14} {:>9} {:>7} {:>8} {:>11} {:>12.1}",
            policy.name(),
            r.summary.attained,
            r.summary.falsely_attained,
            r.summary.deadline_missed,
            r.summary.avg_waiting_time.to_string(),
            r.summary.avg_checkpoints,
        );
    }
    Ok(())
}
