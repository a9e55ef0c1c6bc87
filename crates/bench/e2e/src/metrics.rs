//! The benchmark's vocabulary: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repo root
//! states the same facts for the driver; a unit test keeps the two equal.
//!
//! Names are append-only: later changes compare against numbers recorded
//! under these names, so a workload or metric is never renamed in place.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Stable name.
    pub name: &'static str,
    /// Unit label.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

/// `(name, why)` of every workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "aqp_socket",
        "Table I AQP mix over loopback into the real arbitrator and engine: every layer on one \
         path, engine and arbitration do nearly all the work, transport almost none",
    ),
    (
        "door_overload",
        "one-shot submissions at 16k/s against 11.6k/s of simulated capacity: bypasses \
         engine/aqp/dlt, so wire, JSON, admission, shedding and the poll loop do all the work",
    ),
    (
        "dlt_inproc",
        "paper DLT criteria mix submitted in-process: pure control plane (priority index, \
         estimators, event queue), no engine and no sockets; cost grows faster than job count",
    ),
    (
        "aqp_durable_chaos",
        "AQP under a chaos fault plan with periodic snapshots and kill/restore cycles: the same \
         arbitrator code, but snapshot encode, commit, load and restore replay dominate",
    ),
];

/// End-to-end metrics: what a user of the service sees. Every workload
/// reports every one of them, with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("subs_per_s", "1/s", Better::Higher, 0.25),
    e2e("door_p50_us", "us", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("served_rate", "ratio", Better::Higher, 0.20),
];

/// Per-layer metrics, from the traced run. A value of 0 means the layer
/// is not on that workload's path.
pub const PER_LAYER: &[MetricDef] = &[
    layer("tpch.gen_s", "s", Better::Lower),
    layer("tpch.lineitem_rows", "count", Better::Higher),
    layer("engine.rows_per_s.light", "1/s", Better::Higher),
    layer("engine.rows_per_s.medium", "1/s", Better::Higher),
    layer("engine.rows_per_s.heavy", "1/s", Better::Higher),
    layer("engine.bind_us", "us", Better::Lower),
    layer("engine.bind_cold_us", "us", Better::Lower),
    layer("engine.par_speedup", "ratio", Better::Higher),
    layer("aqp.history_s", "s", Better::Lower),
    layer("aqp.validate_us", "us", Better::Lower),
    layer("aqp.admit_us", "us", Better::Lower),
    layer("aqp.step_us", "us", Better::Lower),
    layer("aqp.step_p99_us", "us", Better::Lower),
    layer("aqp.steps", "count", Better::Lower),
    layer("aqp.step_busy_share", "ratio", Better::Lower),
    layer("aqp.ctl_ns_per_event", "ns", Better::Lower),
    layer("dlt.history_s", "s", Better::Lower),
    layer("dlt.admit_us", "us", Better::Lower),
    layer("dlt.step_us", "us", Better::Lower),
    layer("dlt.steps", "count", Better::Lower),
    layer("dlt.step_busy_share", "ratio", Better::Lower),
    layer("dlt.scaling_exp", "ratio", Better::Lower),
    layer("core.json.parse_ns", "ns", Better::Lower),
    layer("core.json.emit_ns", "ns", Better::Lower),
    layer("wire.decode_ns", "ns", Better::Lower),
    layer("wire.encode_ns", "ns", Better::Lower),
    layer("wire.bytes_per_sub", "B", Better::Lower),
    layer("daemon.submit_ns", "ns", Better::Lower),
    layer("daemon.idle_step_ns", "ns", Better::Lower),
    layer("daemon.queue_peak", "count", Better::Lower),
    layer("daemon.admitted", "count", Better::Higher),
    layer("daemon.rejected", "count", Better::Lower),
    layer("daemon.shed", "count", Better::Lower),
    layer("daemon.attain_rate", "ratio", Better::Higher),
    layer("daemon.virt_wait_p99_ms", "ms", Better::Lower),
    layer("transport.poll_ns", "ns", Better::Lower),
    layer("transport.polls_per_sub", "ratio", Better::Lower),
    layer("transport.syscall_ns", "ns", Better::Lower),
    layer("transport.residual_ns", "ns", Better::Lower),
    layer("transport.socket_tax_ns", "ns", Better::Lower),
    layer("transport.door_p99_us", "us", Better::Lower),
    layer("transport.error_closes", "count", Better::Lower),
    layer("store.snapshot_encode_ms", "ms", Better::Lower),
    layer("store.commit_ms", "ms", Better::Lower),
    layer("store.load_ms", "ms", Better::Lower),
    layer("store.restore_ms", "ms", Better::Lower),
    layer("store.resume_s", "s", Better::Lower),
    layer("store.snap_mb", "MB", Better::Lower),
    layer("store.bytes_per_snapshot", "B", Better::Lower),
    layer("store.snapshots", "count", Better::Lower),
    layer("store.corrupt_skipped", "count", Better::Lower),
    layer("faults.crashes", "count", Better::Lower),
    layer("faults.retries", "count", Better::Lower),
    layer("faults.epochs_lost", "count", Better::Lower),
    layer("faults.sub_rejects", "count", Better::Lower),
    layer("gen.client_share", "ratio", Better::Lower),
    layer("trace.overhead_pct", "%", Better::Lower),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the contract's result object on one line. Every metric of
/// `defs` appears, in table order; a per-layer metric the workload did not
/// produce is 0 (the layer is not on its path). Errors when an end-to-end
/// metric is missing, zero, or any value is not finite — the contract
/// forbids those, so they must fail the run rather than reach the driver.
pub fn result_line(
    defs: &[MetricDef],
    values: &Values,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        let value = match (values.get(def.name), def.bound) {
            (Some(v), _) => *v,
            (None, None) => 0.0,
            (None, Some(_)) => {
                return Err(format!("end-to-end metric {} was not measured", def.name))
            }
        };
        if !value.is_finite() {
            return Err(format!("metric {} is not finite", def.name));
        }
        if def.bound.is_some() && value == 0.0 {
            return Err(format!("end-to-end metric {} is 0", def.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name, value, def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary::core::json::{parse, Json};

    /// The word `BENCHMARK.json` uses for a direction.
    fn label(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn name_ok(name: &str) -> bool {
        let first = name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_obey_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && seen.insert(*name), "workload name {name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "why of {name} too long");
        }
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(def.name) && seen.insert(def.name), "metric name {}", def.name);
            assert!(
                !def.unit.is_empty()
                    && def.unit.len() <= 16
                    && def.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {}",
                def.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        for def in END_TO_END {
            assert!(def.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "bound of {}", def.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the widest bound");
    }

    /// `BENCHMARK.json` must say exactly what the tables above say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let Json::Obj(top) = &doc else { panic!("top level is not an object") };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let strs = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|v| v.as_str().expect("string").to_string())
                .collect()
        };
        assert_eq!(strs("command"), ["bash", "crates/bench/e2e/run.sh"]);
        assert_eq!(strs("paths"), ["crates/bench/e2e"]);
        let seconds = doc.get("run_seconds").and_then(Json::as_u64).expect("run_seconds");
        assert!((1..=60).contains(&seconds));

        let field = |row: &Json, key: &str| row.get(key).and_then(Json::as_str).map(str::to_string);
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| (field(w, "name").expect("name"), field(w, "why").expect("why")))
            .collect();
        let expected: Vec<(String, String)> =
            WORKLOADS.iter().map(|(n, w)| (n.to_string(), w.to_string())).collect();
        assert_eq!(workloads, expected);

        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let rows = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(rows.len(), defs.len(), "{key} length");
            for (row, def) in rows.iter().zip(defs) {
                assert_eq!(field(row, "name").as_deref(), Some(def.name));
                assert_eq!(field(row, "unit").as_deref(), Some(def.unit), "{}", def.name);
                assert_eq!(field(row, "better").as_deref(), Some(label(def.better)));
                assert_eq!(row.get("bound").and_then(Json::as_f64), def.bound, "{}", def.name);
            }
        }
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let mut values = Values::new();
        for def in END_TO_END {
            values.insert(def.name, 1.25);
        }
        let line = result_line(END_TO_END, &values, true, 10, 0).unwrap();
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(10));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        let Some(Json::Obj(metrics)) = doc.get("metrics") else { panic!("metrics") };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(metrics[0].1.get("unit").and_then(Json::as_str), Some("s"));

        // Per-layer metrics default to 0; end-to-end ones may not.
        let layers = result_line(PER_LAYER, &Values::new(), true, 1, 0).unwrap();
        assert!(parse(&layers).is_ok());
        values.remove("subs_per_s");
        assert!(result_line(END_TO_END, &values, true, 1, 0).is_err());
        values.insert("subs_per_s", 0.0);
        assert!(result_line(END_TO_END, &values, true, 1, 0).is_err());
        values.insert("subs_per_s", f64::NAN);
        assert!(result_line(END_TO_END, &values, true, 1, 0).is_err());
    }
}
