//! Trace pins for every arbitration policy of both systems.
//!
//! Each of the six AQP and six DLT policies runs a small workload under an
//! inert and a chaos fault plan, at two seeds. A run is pinned by the
//! FNV-1a of its metrics JSON (every span, progress row and recovery
//! counter) and its makespan, so any change to what a policy decides, or
//! to how the shared loop records it, fails here with the case named. The
//! same run killed after snapshot generation 2 and resumed in a fresh
//! system must reproduce the plain run's trace.
//!
//! The AQP pool is cut to four threads so the policies contend and rank
//! differently: with the testbed's twenty, five jobs rarely compete and
//! every baseline would share one trace.

use rotary::aqp::{AqpPolicy, AqpSystem, AqpSystemConfig, WorkloadBuilder};
use rotary::core::resources::CpuPoolSpec;
use rotary::core::SimTime;
use rotary::dlt::{DltPolicy, DltSystem, DltSystemConfig, DltWorkloadBuilder};
use rotary::faults::FaultPlan;
use rotary::sim::metrics::WorkloadMetrics;
use rotary::store::{DurableConfig, DurableOutcome};
use rotary::tpch::{Generator, TpchData};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const SEEDS: [u64; 2] = [3, 21];
const AQP_JOBS: usize = 5;
const DLT_JOBS: usize = 5;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(metrics FNV-1a, makespan ms)`.
fn pin(metrics: &WorkloadMetrics, makespan: SimTime) -> (u64, u64) {
    (fnv1a(&metrics.to_json().expect("metrics json")), makespan.as_millis())
}

fn plans(seed: u64) -> [(&'static str, FaultPlan); 2] {
    [("none", FaultPlan::none()), ("chaos", FaultPlan::chaos(seed))]
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rotary-pins-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The durable config of the kill: a snapshot every two completed epochs,
/// halted right after generation 2.
fn halting(dir: &Path) -> DurableConfig {
    let mut cfg = DurableConfig::new(dir, 2);
    cfg.halt_after = Some(2);
    cfg
}

/// Compares the measured pins against the expected table, printing the
/// whole measured table on a mismatch so an intended change can re-record
/// it in one paste.
fn assert_pins(measured: &[(String, u64, u64)], expected: &[(&str, u64, u64)]) {
    let table: String = measured
        .iter()
        .map(|(label, fnv, ms)| format!("    (\"{label}\", 0x{fnv:016x}, {ms}),\n"))
        .collect();
    let same = measured.len() == expected.len()
        && measured
            .iter()
            .zip(expected)
            .all(|((l, f, m), (el, ef, em))| l == el && f == ef && m == em);
    assert!(same, "policy traces moved; measured:\n{table}");
}

fn data() -> &'static TpchData {
    static DATA: OnceLock<TpchData> = OnceLock::new();
    DATA.get_or_init(|| Generator::new(7, 0.0005).generate())
}

/// Every AQP policy's trace. Change tracking, pausing and progress rows
/// are shared by all policies; a change there must not move a byte here.
const AQP_PINS: &[(&str, u64, u64)] = &[
    ("Round-robin none 3", 0xa43cf8923616b026, 1823272),
    ("EDF none 3", 0xa6827860ede48edc, 1931766),
    ("LAF none 3", 0x07fc342d84361e4f, 1958021),
    ("ReLAQS none 3", 0xbd35429ea4f830f5, 2083960),
    ("Rotary-AQP none 3", 0x8cc86e213f595ee7, 2043719),
    ("Rotary-AQP(random-est) none 3", 0x2af02bdaf9671ef2, 2068909),
    ("Round-robin chaos 3", 0x0d31c94b17ff4a6a, 2056145),
    ("EDF chaos 3", 0xd24b5e080bfd26f8, 2065012),
    ("LAF chaos 3", 0xd289cbc8f1617c12, 2115778),
    ("ReLAQS chaos 3", 0x6ab83bd748ba3b6a, 2100004),
    ("Rotary-AQP chaos 3", 0x626ac8abeaed9a71, 2066764),
    ("Rotary-AQP(random-est) chaos 3", 0xb107f959c728e193, 2080369),
    ("Round-robin none 21", 0xa539e09065bc38da, 2800807),
    ("EDF none 21", 0x43a594b8c8a6b47a, 2842894),
    ("LAF none 21", 0xc91f1badf29420dc, 2870778),
    ("ReLAQS none 21", 0x0804e93b0f69ffe3, 2840255),
    ("Rotary-AQP none 21", 0x4d3299086a0bdea5, 2791468),
    ("Rotary-AQP(random-est) none 21", 0x3d1055500da814c0, 2794938),
    ("Round-robin chaos 21", 0xa4e78a90ee268a5c, 2866121),
    ("EDF chaos 21", 0xc2cd4103dc3e0053, 2900715),
    ("LAF chaos 21", 0x5ac94ca719ee23d5, 2848696),
    ("ReLAQS chaos 21", 0x3eaa733fed37c5e1, 2796507),
    ("Rotary-AQP chaos 21", 0xa5860bae89872d8b, 2794162),
    ("Rotary-AQP(random-est) chaos 21", 0x1fbe411fafb4399c, 2807310),
];

/// Recorded alongside [`AQP_PINS`].
const DLT_PINS: &[(&str, u64, u64)] = &[
    ("SRF none 3", 0xa767e5cd77e715a8, 2545816),
    ("BCF none 3", 0xdb19e9516e23f420, 2746968),
    ("LAF none 3", 0xf7bcda967c071452, 2529136),
    ("Rotary-DLT(T=50%) none 3", 0x1d00d2daa36e326c, 2672790),
    ("Rotary-DLT(T=100%) none 3", 0x1d00d2daa36e326c, 2672790),
    ("Rotary-DLT(T=0%) none 3", 0xaf09f3f0c934622f, 2543832),
    ("SRF chaos 3", 0x4edd8ae7fc38ba79, 2889565),
    ("BCF chaos 3", 0xa4476f328c3e5399, 3041722),
    ("LAF chaos 3", 0x98e72a5c10cd361c, 2858467),
    ("Rotary-DLT(T=50%) chaos 3", 0x25ab7bb49202c12a, 3006315),
    ("Rotary-DLT(T=100%) chaos 3", 0x25ab7bb49202c12a, 3006315),
    ("Rotary-DLT(T=0%) chaos 3", 0xfa9f1f951f5f623a, 2873163),
    ("SRF none 21", 0xf2294ae2e772a539, 14330300),
    ("BCF none 21", 0x466f6eb10247b072, 14833010),
    ("LAF none 21", 0x08477d339cd5fe28, 14615877),
    ("Rotary-DLT(T=50%) none 21", 0x8055cee229f2c324, 14459262),
    ("Rotary-DLT(T=100%) none 21", 0x8055cee229f2c324, 14459262),
    ("Rotary-DLT(T=0%) none 21", 0x34b321bb49e7853a, 14867602),
    ("SRF chaos 21", 0x772ff35b2ae81f08, 17506833),
    ("BCF chaos 21", 0xcb741c514f6be050, 17870464),
    ("LAF chaos 21", 0x6117973feda10ff4, 17697277),
    ("Rotary-DLT(T=50%) chaos 21", 0xb65dfb4802168d9e, 17658964),
    ("Rotary-DLT(T=100%) chaos 21", 0xb65dfb4802168d9e, 17658964),
    ("Rotary-DLT(T=0%) chaos 21", 0x0a0f9cf962219b71, 18050083),
];

#[test]
fn every_aqp_policy_reproduces_its_pinned_trace_plain_and_resumed() {
    let mut measured = Vec::new();
    for seed in SEEDS {
        let specs = WorkloadBuilder::paper().jobs(AQP_JOBS).seed(seed).build();
        for (plan_name, plan) in plans(seed) {
            let make = || {
                let config = AqpSystemConfig {
                    seed,
                    threads: 1,
                    faults: plan.clone(),
                    pool: CpuPoolSpec { threads: 4, memory_mb: 180 * 1024 },
                    ..Default::default()
                };
                AqpSystem::new(data(), config)
            };
            for policy in AqpPolicy::all() {
                let label = format!("{} {plan_name} {seed}", policy.name());
                let plain = make().run(&specs, policy).expect("plain run");
                let (fnv, ms) = pin(&plain.metrics, plain.makespan);

                let dir = temp_store(&format!("aqp-{seed}-{plan_name}-{policy:?}"));
                let mut cfg = halting(&dir);
                let halted = make().run_durable(&specs, policy, &cfg).expect("durable run");
                assert!(matches!(halted, DurableOutcome::Halted { generation: 2 }), "{label}");
                cfg.halt_after = None;
                let resumed = make()
                    .resume_durable(&specs, policy, &cfg)
                    .expect("resume")
                    .completed()
                    .expect("resume runs to completion");
                assert_eq!(pin(&resumed.metrics, resumed.makespan), (fnv, ms), "{label} resumed");
                let _ = std::fs::remove_dir_all(&dir);
                measured.push((label, fnv, ms));
            }
        }
    }
    assert_pins(&measured, AQP_PINS);
}

#[test]
fn every_dlt_policy_reproduces_its_pinned_trace_plain_and_resumed() {
    let mut measured = Vec::new();
    for seed in SEEDS {
        let specs = DltWorkloadBuilder::paper().jobs(DLT_JOBS).seed(seed).build();
        for (plan_name, plan) in plans(seed) {
            let make = || {
                let config = DltSystemConfig {
                    seed,
                    threads: 1,
                    faults: plan.clone(),
                    ..Default::default()
                };
                DltSystem::new(config)
            };
            for policy in DltPolicy::all() {
                let label = format!("{} {plan_name} {seed}", policy.name());
                let plain = make().run(&specs, policy);
                let (fnv, ms) = pin(&plain.metrics, plain.makespan);

                let dir = temp_store(&format!("dlt-{seed}-{plan_name}-{}", policy.name()));
                let mut cfg = halting(&dir);
                let halted = make().run_durable(&specs, policy, &cfg).expect("durable run");
                assert!(matches!(halted, DurableOutcome::Halted { generation: 2 }), "{label}");
                cfg.halt_after = None;
                let resumed = make()
                    .resume_durable(&specs, policy, &cfg)
                    .expect("resume")
                    .completed()
                    .expect("resume runs to completion");
                assert_eq!(pin(&resumed.metrics, resumed.makespan), (fnv, ms), "{label} resumed");
                let _ = std::fs::remove_dir_all(&dir);
                measured.push((label, fnv, ms));
            }
        }
    }
    assert_pins(&measured, DLT_PINS);
}
