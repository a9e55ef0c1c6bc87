//! Microbenchmarks of the query-engine substrate: data generation, plan
//! binding (index construction), batch execution per query class, and
//! ground-truth computation. Batch execution is the per-epoch work every
//! AQP job performs.

use rotary_bench::timing::{bench, black_box};
use rotary_engine::online::compute_ground_truth;
use rotary_engine::{query, Executor, IndexCache, QueryId};
use rotary_tpch::{BatchSource, Generator};

fn bench_generation() {
    for sf in [0.001f64, 0.005] {
        bench(&format!("tpch_generate/{sf}"), || {
            black_box(Generator::new(1, sf).generate());
        });
    }
}

fn bench_batch_execution() {
    let data = Generator::new(1, 0.005).generate();
    // One representative per class: q6 light (no joins), q3 medium
    // (2 joins), q7 heavy (5 joins incl. double nation).
    for qid in [6u8, 3, 7] {
        let plan = query(QueryId(qid));
        let mut cache = IndexCache::new();
        // Pre-warm the shared indexes so the bench isolates probe cost.
        let _ = Executor::bind(&plan, &data, &mut cache).unwrap();
        let rows: Vec<u32> = {
            let mut src = BatchSource::new(3, data.lineitem.rows(), 1000);
            src.next_batch().unwrap().to_vec()
        };
        let mut exec = Executor::bind(&plan, &data, &mut cache).unwrap();
        bench(&format!("batch_execution/q{qid}"), || {
            black_box(exec.process_rows(black_box(&rows)));
        });
    }
}

fn bench_ground_truth() {
    let data = Generator::new(1, 0.002).generate();
    for qid in [1u8, 5] {
        let plan = query(QueryId(qid));
        let mut cache = IndexCache::new();
        bench(&format!("ground_truth_full_scan/q{qid}"), || {
            black_box(compute_ground_truth(&plan, &data, &mut cache).unwrap());
        });
    }
}

fn main() {
    bench_generation();
    bench_batch_execution();
    bench_ground_truth();
}
