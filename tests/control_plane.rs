//! Control-plane scaling suite: the incremental structures behind the
//! indexed arbitration path (DESIGN.md §13) proven equivalent to the dense
//! oracles they replaced.
//!
//! Three layers, each against its own oracle (256 seeded cases by default,
//! `ROTARY_CHECK_CASES` overrides):
//!
//! * [`rotary::core::arb::PriorityIndex`] under arbitrary upsert/remove
//!   interleavings — including heavy key ties — must enumerate exactly the
//!   full `(key, id)` re-sort of a model map;
//! * incremental estimator statistics ([`WlrStats`]) refit mid-stream must
//!   be **bit-identical** to statistics rebuilt from scratch over the same
//!   observations, and track the dense two-pass solver within float noise;
//! * whole-system: AQP and DLT runs with the indexed control plane, across
//!   policies and under arbitrary chaos fault plans, end every job. Debug
//!   builds hold every indexed pass of those runs to the dense re-sort
//!   (the systems' own `rank`), so a pass that diverges panics the case.

use rotary::aqp::{AqpPolicy, AqpSystem, AqpSystemConfig, WorkloadBuilder};
use rotary::core::arb::{OrdF64, PriorityIndex};
use rotary::core::estimate::wlr::{LinearFit, WeightedPoint, WlrStats};
use rotary::core::progress::Objective;
use rotary::core::SimTime;
use rotary::dlt::{DltPolicy, DltSystem, DltSystemConfig, DltWorkloadBuilder};
use rotary::faults::{FaultConfig, FaultPlan, RetryPolicy};
use rotary::tpch::{Generator, TpchData};
use rotary_check::{check, Source};
use std::collections::BTreeMap;
use std::sync::OnceLock;

fn data() -> &'static TpchData {
    static DATA: OnceLock<TpchData> = OnceLock::new();
    DATA.get_or_init(|| Generator::new(7, 0.0005).generate())
}

// ---------------------------------------------------------------------------
// Layer 1: the priority index vs a full re-sort.
// ---------------------------------------------------------------------------

#[test]
fn priority_index_matches_full_resort() {
    check("priority_index_resort", |src| {
        let mut index: PriorityIndex<(OrdF64, u32)> = PriorityIndex::new();
        let mut model: BTreeMap<u32, (OrdF64, u32)> = BTreeMap::new();
        let ops = src.usize_in(1, 60);
        for _ in 0..ops {
            let id = src.u32_in(0, 15);
            if src.bool(0.25) {
                assert_eq!(index.remove(id), model.remove(&id).is_some());
            } else {
                // Keys from a tiny quantized domain so ties are the norm,
                // not the exception; the secondary component exercises
                // composite keys the systems use (score, arrival).
                let key = (OrdF64::new(src.usize_in(0, 3) as f64 * 0.25), src.u32_in(0, 2));
                let changed = model.insert(id, key) != Some(key);
                assert_eq!(index.upsert(id, key), changed, "upsert change-report wrong");
            }
            // The standing order must equal a from-scratch sort of the
            // model by (key, id) — the dense path's exact comparator.
            let mut resort: Vec<((OrdF64, u32), u32)> =
                model.iter().map(|(&id, &key)| (key, id)).collect();
            resort.sort_unstable();
            assert_eq!(index.iter().collect::<Vec<_>>(), resort);
            assert_eq!(index.len(), model.len());
        }
        for (&id, &key) in &model {
            assert!(index.contains(id));
            assert_eq!(index.key_of(id), Some(key));
        }
    });
}

// ---------------------------------------------------------------------------
// Layer 2: incremental estimator statistics.
// ---------------------------------------------------------------------------

fn fit_bits(fit: &Result<LinearFit, rotary::core::RotaryError>) -> Option<(u64, u64)> {
    fit.as_ref().ok().map(|f| (f.intercept.to_bits(), f.slope.to_bits()))
}

#[test]
fn incremental_refit_is_bit_identical_to_scratch_rebuild() {
    check("wlr_incremental_refit", |src| {
        let n = src.usize_in(0, 24);
        let pts: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| {
                let w = if src.bool(0.15) { 0.0 } else { src.f64_in(0.1, 4.0) };
                (src.f64_in(-50.0, 50.0), src.f64_in(-50.0, 50.0), w)
            })
            .collect();
        // The long-lived statistics a running job's estimator carries across
        // epochs: one fold per observation, refit after each.
        let mut live = WlrStats::new();
        for (i, &(x, y, w)) in pts.iter().enumerate() {
            live.add(x, y, w).unwrap();
            // The retired full re-fit: rebuild from every observation seen
            // so far. Identical fold order ⇒ identical moments ⇒ the two
            // fits must agree to the bit, errors included.
            let mut scratch = WlrStats::new();
            for &(x, y, w) in &pts[..=i] {
                scratch.add(x, y, w).unwrap();
            }
            assert_eq!(live, scratch, "moments diverged after {} observations", i + 1);
            let (a, b) = (live.fit(), scratch.fit());
            assert_eq!(a.is_err(), b.is_err());
            assert_eq!(fit_bits(&a), fit_bits(&b), "refit not bit-identical at prefix {}", i + 1);
        }
    });
}

#[test]
fn stats_fit_tracks_dense_solver() {
    check("wlr_stats_vs_dense", |src| {
        // Well-conditioned data: distinct x's with real spread, so both
        // solvers succeed and the comparison is numeric, not structural.
        let n = src.usize_in(3, 30);
        let slope = src.f64_in(-3.0, 3.0);
        let intercept = src.f64_in(-10.0, 10.0);
        let pts: Vec<WeightedPoint> = (0..n)
            .map(|i| {
                let x = i as f64 + src.f64_in(0.0, 0.3);
                let y = intercept + slope * x + src.f64_in(-0.05, 0.05);
                WeightedPoint::new(x, y, src.f64_in(0.5, 2.0))
            })
            .collect();
        let dense = LinearFit::fit(&pts).unwrap();
        let mut stats = WlrStats::new();
        for p in &pts {
            stats.add(p.x, p.y, p.weight).unwrap();
        }
        let moment = stats.fit().unwrap();
        let tol = 1e-7 * (1.0 + dense.slope.abs() + dense.intercept.abs());
        assert!(
            (moment.slope - dense.slope).abs() < tol
                && (moment.intercept - dense.intercept).abs() < tol,
            "raw-moment solve drifted from the dense oracle: {moment:?} vs {dense:?}"
        );
    });
}

// ---------------------------------------------------------------------------
// Layer 3: whole-system runs whose every indexed pass is checked against
// the dense re-sort, with and without chaos.
// ---------------------------------------------------------------------------

/// An arbitrary — possibly hostile — fault configuration (the chaos
/// suite's generator, reused so the per-pass check holds under the same
/// adversary that the survival properties run against).
fn random_config(src: &mut Source) -> FaultConfig {
    let slowdown_lo = src.f64_in(1.0, 2.5);
    FaultConfig {
        seed: src.raw(),
        crash_prob: src.f64_in(0.0, 0.35),
        straggler_prob: src.f64_in(0.0, 0.35),
        straggler_slowdown: (slowdown_lo, slowdown_lo + src.f64_in(0.0, 2.5)),
        checkpoint_fail_prob: src.f64_in(0.0, 0.5),
        restore_fail_prob: src.f64_in(0.0, 0.5),
        snap_torn_prob: src.f64_in(0.0, 0.3),
        snap_bitflip_prob: src.f64_in(0.0, 0.3),
        mem_spike_prob: src.f64_in(0.0, 0.5),
        mem_spike_mb: src.u64_in(0, 6144),
        mem_spike_slot: SimTime::from_secs(src.u64_in(30, 1800)),
        retry: RetryPolicy {
            max_attempts: src.u64_in(1, 5) as u32,
            base_backoff: SimTime::from_secs(src.u64_in(1, 30)),
            max_backoff: SimTime::from_secs(src.u64_in(30, 300)),
        },
        submission: rotary::faults::SubmissionFaultConfig::none(),
        net: rotary::faults::NetFaultConfig::none(),
    }
}

fn draw_plan(src: &mut Source) -> FaultPlan {
    // A healthy share of fault-free runs: the fast path (no spike
    // rescheduling) must agree with the dense plane too.
    if src.bool(0.3) {
        FaultPlan::none()
    } else {
        FaultPlan::new(random_config(src))
    }
}

/// The per-pass checks are `debug_assertions` code: a test profile that
/// switched them off would leave layer 3 checking nothing but termination.
/// The asserted constant is the build profile, which is the point.
#[test]
#[allow(clippy::assertions_on_constants)]
fn the_per_pass_checks_are_compiled_in() {
    assert!(cfg!(debug_assertions), "layer 3 needs debug assertions");
}

#[test]
fn aqp_every_indexed_pass_matches_the_dense_rank() {
    check("aqp_indexed_passes", |src| {
        let plan = draw_plan(src);
        let seed = src.u64_in(0, 1 << 20);
        let policy = if src.bool(0.5) { AqpPolicy::Rotary } else { AqpPolicy::Relaqs };
        let warm = src.bool(0.5);
        let specs = WorkloadBuilder::paper().jobs(3).seed(seed).build();
        let config = AqpSystemConfig { seed, threads: 1, faults: plan, ..Default::default() };
        let mut sys = AqpSystem::new(data(), config);
        if warm {
            sys.prepopulate_history(seed).unwrap();
        }
        let r = sys.run(&specs, policy).unwrap();
        for (spec, state) in &r.jobs {
            assert!(
                state.status.is_terminal(),
                "{} left {} {:?}",
                policy.name(),
                spec.query,
                state.status
            );
        }
    });
}

#[test]
fn dlt_every_indexed_pass_matches_the_dense_rank() {
    check("dlt_indexed_passes", |src| {
        let plan = draw_plan(src);
        let seed = src.u64_in(0, 1 << 20);
        let objective = match src.usize_in(0, 2) {
            0 => Objective::Threshold(src.f64_in(0.2, 0.9)),
            1 => Objective::Fairness,
            _ => Objective::Efficiency,
        };
        let warm = src.bool(0.5);
        let specs = DltWorkloadBuilder::paper().jobs(4).seed(seed).build();
        let config = DltSystemConfig { seed, threads: 1, faults: plan, ..Default::default() };
        let mut sys = DltSystem::new(config);
        if warm {
            sys.prepopulate_history(&specs, 5);
        }
        let r = sys.run(&specs, DltPolicy::Rotary(objective));
        for (spec, state) in &r.jobs {
            assert!(
                state.status.is_terminal(),
                "{objective:?} left {:?} {:?}",
                spec.config.arch,
                state.status
            );
        }
    });
}
