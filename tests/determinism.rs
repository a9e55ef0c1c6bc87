//! Cross-system determinism: the same seed must reproduce a bit-identical
//! run for both application families, and a different seed must actually
//! change the outcome. This pins down the hermetic in-tree RNG — any
//! accidental dependence on ambient entropy (hash order, time, thread
//! scheduling) breaks these tests.

use rotary::aqp::{AqpPolicy, AqpSystem, AqpSystemConfig, WorkloadBuilder};
use rotary::core::progress::Objective;
use rotary::dlt::{DltPolicy, DltSystem, DltSystemConfig, DltWorkloadBuilder};
use rotary::engine::{query, Executor, IndexCache, QueryId};
use rotary::faults::FaultPlan;
use rotary::par::ThreadPool;
use rotary::sim::metrics::WorkloadSummary;
use rotary::tpch::{BatchSource, Generator, TpchData};
use std::sync::OnceLock;

fn data() -> &'static TpchData {
    static DATA: OnceLock<TpchData> = OnceLock::new();
    DATA.get_or_init(|| Generator::new(7, 0.001).generate())
}

fn aqp_summary_threads(seed: u64, threads: usize) -> WorkloadSummary {
    let specs = WorkloadBuilder::paper().jobs(8).seed(seed).build();
    let mut sys = AqpSystem::new(data(), AqpSystemConfig { seed, threads, ..Default::default() });
    sys.prepopulate_history(seed).unwrap();
    sys.run(&specs, AqpPolicy::Rotary).unwrap().summary
}

fn aqp_summary(seed: u64) -> WorkloadSummary {
    aqp_summary_threads(seed, 1)
}

fn dlt_summary_threads(seed: u64, threads: usize) -> WorkloadSummary {
    let specs = DltWorkloadBuilder::paper().jobs(8).seed(seed).build();
    let mut sys = DltSystem::new(DltSystemConfig { seed, threads, ..Default::default() });
    sys.prepopulate_history(&specs, 5);
    sys.run(&specs, DltPolicy::Rotary(Objective::Threshold(0.5))).summary
}

fn dlt_summary(seed: u64) -> WorkloadSummary {
    dlt_summary_threads(seed, 1)
}

#[test]
fn aqp_same_seed_is_bit_identical() {
    let a = aqp_summary(42);
    let b = aqp_summary(42);
    // WorkloadSummary contains f64s; PartialEq equality here means every
    // float is bit-for-bit reproducible, not merely close.
    assert_eq!(a, b);
}

#[test]
fn dlt_same_seed_is_bit_identical() {
    let a = dlt_summary(42);
    let b = dlt_summary(42);
    assert_eq!(a, b);
}

#[test]
fn aqp_run_is_bit_identical_across_thread_counts() {
    // The data plane (batch execution, history prepopulation, per-job
    // epochs) fans out across a rotary-par pool, but the replay fold and
    // the fixed chunk grid make every float independent of the pool width.
    // Equality here is bit-for-bit: any scheduling leak fails this test.
    let baseline = aqp_summary_threads(42, 1);
    for threads in [2usize, 4, 8] {
        let swept = aqp_summary_threads(42, threads);
        assert_eq!(baseline, swept, "AQP summary diverged at threads={threads}");
    }
}

#[test]
fn dlt_run_is_bit_identical_across_thread_counts() {
    let baseline = dlt_summary_threads(42, 1);
    for threads in [2usize, 4, 8] {
        let swept = dlt_summary_threads(42, threads);
        assert_eq!(baseline, swept, "DLT summary diverged at threads={threads}");
    }
}

/// Grouped results with each aggregate as raw `f64` bits.
type GroupBits = Vec<(Vec<i64>, Vec<Option<u64>>)>;

/// Bit-level engine trace for one query: work counters plus every grouped
/// value's raw bits — `0` rows processed by the row-at-a-time oracle,
/// otherwise the columnar engine on a pool of that width.
fn engine_trace(qid: u8, threads: usize) -> (u64, u64, u64, GroupBits) {
    let d = data();
    let mut cache = IndexCache::new();
    let mut exec = Executor::bind(&query(QueryId(qid)), d, &mut cache).unwrap();
    let n = d.lineitem.rows();
    let mut src = BatchSource::new(5, n, n);
    let rows = src.next_batch().unwrap().to_vec();
    let stats = match threads {
        0 => exec.process_rows_rowwise(&rows),
        1 => exec.process_rows(&rows),
        t => exec.process_rows_with(&ThreadPool::new(t), &rows),
    };
    let groups = exec
        .state()
        .grouped_results()
        .into_iter()
        .map(|(k, vs)| (k, vs.into_iter().map(|v| v.map(f64::to_bits)).collect()))
        .collect();
    (stats.rows_scanned, stats.probes, stats.rows_aggregated, groups)
}

#[test]
fn row_and_columnar_engines_are_bit_identical_across_thread_counts() {
    // The cross-engine contract of the columnar rewrite: the retired
    // row-at-a-time interpreter (kept as `process_rows_rowwise`), the
    // sequential columnar engine, and the columnar replay fold at pools
    // 2/4/8 all produce the same bits — counters and every aggregate.
    for qid in [3u8, 6, 7] {
        let oracle = engine_trace(qid, 0);
        for threads in [1usize, 2, 4, 8] {
            let columnar = engine_trace(qid, threads);
            assert_eq!(oracle, columnar, "q{qid} diverged from oracle at threads={threads}");
        }
    }
}

#[test]
fn aqp_chaos_fault_profile_is_bit_identical_across_thread_counts() {
    // Same contract under deterministic fault injection: epoch faults
    // perturb scheduling and retries, but with the chaos plan seeded the
    // whole run — including every columnar batch result — must still be
    // independent of the pool width.
    let run = |threads: usize| {
        let specs = WorkloadBuilder::paper().jobs(6).seed(17).build();
        let config = AqpSystemConfig {
            seed: 17,
            threads,
            faults: FaultPlan::chaos(17),
            ..Default::default()
        };
        let mut sys = AqpSystem::new(data(), config);
        sys.prepopulate_history(17).unwrap();
        sys.run(&specs, AqpPolicy::Rotary).unwrap().summary
    };
    let baseline = run(1);
    for threads in [2usize, 4, 8] {
        assert_eq!(baseline, run(threads), "chaos AQP run diverged at threads={threads}");
    }
}

#[test]
fn different_seeds_change_the_outcome() {
    // A seed change must reach the sampled workload and the simulated run.
    // Compare a handful of seeds so one coincidental collision on the
    // summary statistics cannot produce a false failure.
    let aqp: Vec<WorkloadSummary> = [1u64, 2, 3].iter().map(|&s| aqp_summary(s)).collect();
    assert!(
        aqp.windows(2).any(|w| w[0] != w[1]),
        "AQP summaries identical across seeds 1..3: {aqp:?}"
    );
    let dlt: Vec<WorkloadSummary> = [1u64, 2, 3].iter().map(|&s| dlt_summary(s)).collect();
    assert!(
        dlt.windows(2).any(|w| w[0] != w[1]),
        "DLT summaries identical across seeds 1..3: {dlt:?}"
    );
}
