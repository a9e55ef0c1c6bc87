//! Host threads are a start-up resource (DESIGN.md §5): whatever `threads`
//! is set to, no OS thread outlives the call that spawned it, so the thread
//! count of the process after binding a system, prepopulating its history
//! and running a workload equals the count before. One test per binary: a
//! sibling test's thread would show up in `/proc/self/status`.
#![cfg(target_os = "linux")]

use rotary::aqp::{AqpPolicy, AqpSystem, AqpSystemConfig};
use rotary::core::progress::Objective;
use rotary::dlt::{DltPolicy, DltSystem, DltSystemConfig, DltWorkloadBuilder};
use rotary::tpch::Generator;

fn os_threads() -> u32 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:")).expect("Threads: line");
    line.trim().parse().expect("thread count")
}

#[test]
fn no_host_thread_outlives_start_up() {
    let data = Generator::new(77, 0.002).generate();
    let before = os_threads();

    let config = AqpSystemConfig { seed: 42, threads: 4, ..Default::default() };
    let mut aqp = AqpSystem::new(&data, config);
    aqp.prepopulate_history(3).expect("built-in plans bind");
    let specs = rotary::aqp::WorkloadBuilder::paper().jobs(4).seed(21).build();
    aqp.run(&specs, AqpPolicy::Rotary).expect("specs bind");
    assert_eq!(os_threads(), before, "AQP left host threads behind");

    let mut dlt = DltSystem::new(DltSystemConfig { seed: 5, threads: 4, ..Default::default() });
    let specs = DltWorkloadBuilder::paper().jobs(4).seed(3).build();
    dlt.prepopulate_history(&specs, 7);
    dlt.run(&specs, DltPolicy::Rotary(Objective::Threshold(0.5)));
    assert_eq!(os_threads(), before, "DLT left host threads behind");
}
