//! The experiment table, `FIGURES.json` and EXPERIMENTS.md agree.
//!
//! `FIGURES.json` is what the `figures` binary measured over the table's
//! whole population; re-running that takes ≈ 35 s in release, so this gate
//! holds the file to the table at the population's first seed, and holds
//! the doc and the claims to the file:
//! - EXPERIMENTS.md's marked blocks are exactly what `FIGURES.json` renders;
//! - every run, re-run at the first seed, reproduces its values bit for bit;
//! - every claim's status, recomputed from the file, is the declared one.
//!
//! `./ci.sh` re-runs the full population and fails if `FIGURES.json`
//! changes. After a change that moves a figure, run
//! `cargo run --release -p rotary-bench --bin figures` from the repo root.

use std::path::Path;

use rotary_bench::figures::{self, margin, Estimate, Metric, Results, Status};

fn read(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn results() -> Results {
    figures::from_json(&read("FIGURES.json")).expect("FIGURES.json parses")
}

#[test]
fn experiments_md_is_rendered_from_figures_json() {
    let table = figures::table();
    let results = results();
    assert_eq!(
        table.to_json(&results).expect("FIGURES.json re-encodes"),
        read("FIGURES.json"),
        "FIGURES.json is not what the table's seeds and its own values encode to"
    );
    let doc = read("EXPERIMENTS.md");
    let rendered = figures::render_doc(&doc, &table, &results).expect("EXPERIMENTS.md renders");
    if rendered != doc {
        let line = doc.lines().zip(rendered.lines()).position(|(a, b)| a != b).unwrap_or(0);
        panic!(
            "EXPERIMENTS.md line {}: a marked block differs from what FIGURES.json renders;\n\
             run `cargo run --release -p rotary-bench --bin figures`",
            line + 1
        );
    }
}

#[test]
fn every_run_reproduces_its_first_seed() {
    let table = figures::table();
    let recorded = results();
    let measured = table.run(&table.seeds[..1]).expect("the table runs");
    assert_eq!(
        measured.keys().collect::<Vec<_>>(),
        recorded.keys().collect::<Vec<_>>(),
        "FIGURES.json holds other runs than the table"
    );
    for (run, metrics) in &measured {
        assert_eq!(metrics.len(), recorded[run].len(), "{run}: metric count");
        for (metric, values) in metrics {
            let (now, then) = (values[0], recorded[run][metric][0]);
            assert_eq!(
                now.to_bits(),
                then.to_bits(),
                "{run} {metric} at seed {}: measured {now}, FIGURES.json has {then}; \
                 run `cargo run --release -p rotary-bench --bin figures`",
                table.seeds[0]
            );
        }
    }
}

#[test]
fn every_claim_has_its_declared_status() {
    let flipped = figures::table().flipped(&results()).expect("every claim is judged");
    assert!(flipped.is_empty(), "claims whose status changed:\n{}", flipped.join("\n"));
}

// ------------------------------------------------------- the margin rule --

#[test]
fn a_margin_of_exactly_two_standard_errors_is_a_tie() {
    assert_eq!(Status::of(Estimate { mean: 0.5, se: 0.25 }), Status::Tie);
    assert_eq!(Status::of(Estimate { mean: -0.5, se: 0.25 }), Status::Tie);
    assert_eq!(Status::of(Estimate { mean: 0.5000001, se: 0.25 }), Status::Holds);
    assert_eq!(Status::of(Estimate { mean: -0.5000001, se: 0.25 }), Status::Loss);
    assert_eq!(Status::of(Estimate { mean: 0.0, se: 0.0 }), Status::Tie);
}

#[test]
fn fewer_than_two_seeds_is_an_error() {
    assert!(Estimate::of(&[]).is_err());
    assert!(Estimate::of(&[3.0]).is_err());
    assert!(margin(&[3.0], &[&[2.0]], Metric::Attained).is_err());
    let two = Estimate::of(&[1.0, 3.0]).expect("two seeds give an estimate");
    assert_eq!(two, Estimate { mean: 2.0, se: 1.0 });
}

#[test]
fn a_lower_is_better_claim_flips_the_sign() {
    // Fig 7b: Rotary waits 500 s against round-robin's 480 s and 470 s.
    let rotary = [500.0, 500.0];
    let rr = [480.0, 470.0];
    let wait = margin(&rotary, &[&rr], Metric::WaitS).expect("margin");
    let attained = margin(&rotary, &[&rr], Metric::Attained).expect("margin");
    assert_eq!(wait.mean, -25.0);
    assert_eq!(attained.mean, 25.0);
    assert_eq!(wait.se, attained.se);
    assert_eq!(Status::of(wait), Status::Loss);
    // Against several rivals the margin is taken from the best one per seed.
    let edf = [520.0, 460.0];
    assert_eq!(margin(&rotary, &[&rr, &edf], Metric::WaitS).expect("margin").mean, -30.0);
}

#[test]
fn a_value_that_is_not_finite_is_an_error_not_a_printed_nan() {
    // Fig 10's floor is `fold(INFINITY, min)` over the jobs: infinite when
    // there are none, and the mean of infinities is NaN.
    let empty_floor = Vec::<f64>::new().into_iter().fold(f64::INFINITY, f64::min);
    assert!(Estimate::of(&[0.1, empty_floor]).is_err());
    assert!(Estimate::of(&[0.1, f64::NAN]).is_err());
    let floor = Metric::Floor(120);
    assert!(margin(&[0.1, f64::NAN], &[&[0.0, 0.0]], floor).is_err());
    assert!(margin(&[0.1, 0.2], &[&[0.0, f64::NAN]], floor).is_err());
}
