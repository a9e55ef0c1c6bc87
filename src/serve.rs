//! Serve-layer adapters: the real arbitrators behind the daemon.
//!
//! `rotary-serve` is deliberately ignorant of AQP and DLT — it drives a
//! [`Backend`]. This module closes the loop: [`ServeBackend`] puts any
//! system's streaming [`Run`] (`admit` / `step` / `drain_finished`) behind
//! that trait, given the system's payload codec ([`ServeCodec`]), so a
//! daemon can accept live submissions against a real arbitrator, shed
//! load, and resume from a durable snapshot with a byte-identical trace.
//! [`AqpServeBackend`] and [`DltServeBackend`] are its two instantiations.
//!
//! Submission payloads are structural JSON. Floating-point fields travel
//! as IEEE-754 bit patterns (`*_bits`), so a payload that round-trips
//! through a snapshot reconstructs the *exact* spec — the restore
//! fingerprint check depends on it.
//!
//! * AQP: `{"query": 1..=22, "threshold_bits": …, "ci_bits"?: …,
//!   "est_ms"?: …}` — the job's deadline is the submission's own relative
//!   deadline, and its arrival is the instant the daemon admits it to the
//!   backend.
//! * DLT: `{"arch": "ResNet", "batch": 64, "optimizer": "Adam",
//!   "lr_bits": …, "pretrained": false, "criterion": {…}, "est_ms"?: …}`
//!   with the criterion encoded by [`criterion_json`].

pub use rotary_serve::*;

use rotary_aqp::{AqpJobSpec, AqpPolicy, AqpSystem};
use rotary_core::criteria::{CompletionCriterion, Deadline, Metric};
use rotary_core::error::{Result, RotaryError};
use rotary_core::job::JobStatus;
use rotary_core::json::{u64_json, Json};
use rotary_core::SimTime;
use rotary_dlt::parse::{resolve_architecture, resolve_optimizer};
use rotary_dlt::{DltJobSpec, DltPolicy, DltSystem, TrainingConfig};
use rotary_engine::QueryId;
use rotary_faults::arbiter::{Durable, Run};
use rotary_store::{json_record, record_json, SnapshotRecords};

/// Fallback service estimate when a payload does not declare `est_ms`.
const DEFAULT_ESTIMATE: SimTime = SimTime::from_millis(60_000);

fn malformed(detail: &str) -> RotaryError {
    RotaryError::InvalidConfig(format!("serve payload: {detail}"))
}

/// Maps a terminal arbitrator status onto the serve layer's completion
/// vocabulary. Non-terminal statuses never reach this (the streaming
/// seams only drain terminal jobs) — they map to `Failed` defensively.
fn completion_kind(status: JobStatus) -> CompletionKind {
    match status {
        JobStatus::Attained => CompletionKind::Attained,
        JobStatus::FalselyAttained => CompletionKind::FalselyAttained,
        JobStatus::DeadlineMissed => CompletionKind::DeadlineMissed,
        _ => CompletionKind::Failed,
    }
}

/// The payload's declared service estimate, or the default. Clamped to at
/// least one millisecond so laxity arithmetic never sees a zero estimate.
fn estimate_of(payload: &Json) -> SimTime {
    let est = uint(payload, "est_ms").map(SimTime::from_millis).unwrap_or(DEFAULT_ESTIMATE);
    est.max(SimTime::from_millis(1))
}

fn f64_bits(payload: &Json, key: &str) -> Option<f64> {
    payload.get(key).and_then(Json::as_u64_str).map(f64::from_bits)
}

/// Reads an unsigned integer field, accepting both the exact-width string
/// encoding ([`u64_json`]) and a plain JSON number from hand-written
/// payloads.
fn uint(json: &Json, key: &str) -> Option<u64> {
    let v = json.get(key)?;
    v.as_u64_str().or_else(|| v.as_u64())
}

// ---------------------------------------------------------------------------
// One backend over any arbiter
// ---------------------------------------------------------------------------

/// What a system adds to be served: how a submission payload becomes a
/// spec, and how an admitted spec is written to (and read back from) the
/// backend's `admitted` snapshot record.
pub trait ServeCodec: Durable {
    /// The backend's stable name (see [`Backend::name`]).
    const NAME: &'static str;

    /// Decodes a payload into a spec admitted at `now` that must finish by
    /// `deadline_at`.
    ///
    /// # Errors
    /// `InvalidConfig` when the payload is malformed.
    fn spec_of(payload: &Json, now: SimTime, deadline_at: SimTime) -> Result<Self::Spec>;
    /// The spec's fields of an `admitted` row.
    fn spec_row(spec: &Self::Spec) -> Vec<(&'static str, Json)>;
    /// Inverse of [`ServeCodec::spec_row`].
    fn spec_of_row(row: &Json) -> Option<Self::Spec>;
}

/// An arbitrator behind a serve daemon: live admissions stream into a
/// [`Run`], completions stream back out as typed [`BackendDone`]s.
pub struct ServeBackend<A: ServeCodec> {
    sys: A,
    run: Run<A>,
    /// `tickets[job_index]` — the daemon ticket each admitted job answers
    /// to, in admission order.
    tickets: Vec<u64>,
}

impl<A: ServeCodec> ServeBackend<A> {
    fn drain(&mut self, out: &mut Vec<BackendDone>) {
        for (i, status, at) in self.run.drain_finished() {
            out.push(BackendDone { ticket: self.tickets[i], kind: completion_kind(status), at });
        }
    }
}

impl<A: ServeCodec> Backend for ServeBackend<A> {
    fn name(&self) -> &'static str {
        A::NAME
    }

    fn validate(&self, payload: &Json) -> Result<SimTime> {
        // Any positive deadline works for structural validation — the real
        // one is bound at admission.
        A::spec_of(payload, SimTime::ZERO, SimTime::from_millis(1))?;
        Ok(estimate_of(payload))
    }

    fn admit(&mut self, now: SimTime, entry: &Pending, out: &mut Vec<BackendDone>) -> Result<()> {
        let spec = A::spec_of(&entry.payload, now, entry.deadline_at)?;
        let i = self.run.admit(&mut self.sys, spec, now).map_err(Into::<RotaryError>::into)?;
        debug_assert_eq!(i, self.tickets.len());
        self.tickets.push(entry.ticket);
        // A job can finish at the admission instant (no device can ever
        // host it); drain right away so its outcome is never deferred.
        self.drain(out);
        Ok(())
    }

    fn peek(&self) -> Option<SimTime> {
        self.run.peek()
    }

    fn step(&mut self, out: &mut Vec<BackendDone>) -> bool {
        let progressed = self.run.step(&mut self.sys);
        if progressed {
            self.drain(out);
        }
        progressed
    }

    fn inflight(&self) -> usize {
        self.run.inflight()
    }

    fn snapshot(&self) -> Result<SnapshotRecords> {
        let mut records = self.run.snapshot(&self.sys, 0)?;
        let rows = self.run.specs().iter().zip(&self.tickets).map(|(spec, ticket)| {
            let mut pairs = vec![("ticket", u64_json(*ticket))];
            pairs.extend(A::spec_row(spec));
            Json::obj(pairs)
        });
        records.push(json_record("admitted", &Json::Arr(rows.collect())));
        Ok(records)
    }

    fn restore(&mut self, records: &SnapshotRecords, admitted: &[Pending]) -> Result<()> {
        let corrupt = |detail: &str| RotaryError::SnapshotCorrupt {
            detail: format!("{} adapter: {detail}", A::NAME),
        };
        let doc = record_json(records, "admitted")?;
        let rows = doc.as_arr().ok_or_else(|| corrupt("admitted record is not an array"))?;
        let mut specs = Vec::with_capacity(rows.len());
        let mut tickets = Vec::with_capacity(rows.len());
        for row in rows {
            let ticket = row.get("ticket").and_then(Json::as_u64_str);
            let (Some(ticket), Some(spec)) = (ticket, A::spec_of_row(row)) else {
                return Err(corrupt("malformed admitted row"));
            };
            tickets.push(ticket);
            specs.push(spec);
        }
        // The daemon replays every admitted entry on restore; the ticket
        // table must agree with it ticket for ticket, or the snapshot and
        // the daemon state belong to different runs.
        if tickets.len() != admitted.len()
            || tickets.iter().zip(admitted).any(|(t, p)| *t != p.ticket)
        {
            return Err(corrupt(&format!(
                "admitted replay mismatch ({} snapshot rows, {} daemon entries)",
                tickets.len(),
                admitted.len()
            )));
        }
        self.run = Run::restore(&mut self.sys, specs, self.run.policy(), records)?;
        self.tickets = tickets;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// AQP
// ---------------------------------------------------------------------------

/// Builds an AQP submission payload from a job spec. The service estimate
/// is half the spec's own deadline, capped at the default — always leaving
/// positive laxity so a timely submission is never shed on arrival.
pub fn aqp_payload(spec: &AqpJobSpec) -> Json {
    let est = (spec.deadline.as_millis() / 2).min(DEFAULT_ESTIMATE.as_millis()).max(1);
    let mut pairs = vec![
        ("query", u64_json(u64::from(spec.query.0))),
        ("threshold_bits", u64_json(spec.threshold.to_bits())),
    ];
    if let Some(eps) = spec.ci_epsilon {
        pairs.push(("ci_bits", u64_json(eps.to_bits())));
    }
    pairs.push(("est_ms", u64_json(est)));
    Json::obj(pairs)
}

/// Decodes an AQP payload into a spec arriving at `arrival` with the given
/// relative deadline.
fn aqp_spec_of(payload: &Json, arrival: SimTime, deadline: SimTime) -> Result<AqpJobSpec> {
    let query = uint(payload, "query")
        .filter(|q| (1..=22).contains(q))
        .ok_or_else(|| malformed("query must be in 1..=22"))?;
    let threshold = f64_bits(payload, "threshold_bits")
        .filter(|t| t.is_finite() && *t > 0.0 && *t <= 1.0)
        .ok_or_else(|| malformed("threshold_bits must decode into (0, 1]"))?;
    let ci_epsilon = match payload.get("ci_bits") {
        None | Some(Json::Null) => None,
        Some(_) => Some(
            f64_bits(payload, "ci_bits")
                .filter(|e| e.is_finite() && *e > 0.0)
                .ok_or_else(|| malformed("ci_bits must decode into a positive ε"))?,
        ),
    };
    Ok(AqpJobSpec { query: QueryId(query as u8), threshold, deadline, arrival, ci_epsilon })
}

/// The AQP arbitrator behind a serve daemon.
pub type AqpServeBackend<'a> = ServeBackend<AqpSystem<'a>>;

impl<'a> AqpServeBackend<'a> {
    /// Wraps a system, opening an empty streaming run.
    ///
    /// # Errors
    /// [`RotaryError::PlanBind`] when the system's dataset cannot back a
    /// streaming run at all.
    pub fn new(mut sys: AqpSystem<'a>, policy: AqpPolicy) -> Result<AqpServeBackend<'a>> {
        let run = Run::start(&mut sys, &[], policy)?;
        Ok(ServeBackend { sys, run, tickets: Vec::new() })
    }
}

impl ServeCodec for AqpSystem<'_> {
    const NAME: &'static str = "aqp";

    fn spec_of(payload: &Json, now: SimTime, deadline_at: SimTime) -> Result<AqpJobSpec> {
        // The job's clock starts at backend admission; its absolute
        // deadline is the one promised at submit time.
        let deadline = deadline_at.saturating_sub(now).max(SimTime::from_millis(1));
        aqp_spec_of(payload, now, deadline)
    }

    fn spec_row(s: &AqpJobSpec) -> Vec<(&'static str, Json)> {
        vec![
            ("query", u64_json(u64::from(s.query.0))),
            ("threshold_bits", u64_json(s.threshold.to_bits())),
            ("deadline", u64_json(s.deadline.as_millis())),
            ("arrival", u64_json(s.arrival.as_millis())),
            ("ci_bits", s.ci_epsilon.map_or(Json::Null, |e| u64_json(e.to_bits()))),
        ]
    }

    fn spec_of_row(row: &Json) -> Option<AqpJobSpec> {
        let millis = |key: &str| row.get(key).and_then(Json::as_u64_str).map(SimTime::from_millis);
        aqp_spec_of(row, millis("arrival")?, millis("deadline")?).ok()
    }
}

// ---------------------------------------------------------------------------
// DLT
// ---------------------------------------------------------------------------

/// Encodes a completion criterion structurally (floats as bit patterns).
pub fn criterion_json(criterion: &CompletionCriterion) -> Json {
    let deadline_pairs = |d: &Deadline| -> Vec<(&'static str, Json)> {
        match d {
            Deadline::Epochs(e) => {
                vec![
                    ("deadline_kind", Json::Str("epochs".into())),
                    ("deadline_value", u64_json(*e)),
                ]
            }
            Deadline::Time(t) => vec![
                ("deadline_kind", Json::Str("time".into())),
                ("deadline_value", u64_json(t.as_millis())),
            ],
        }
    };
    match criterion {
        CompletionCriterion::Accuracy { metric, threshold, deadline } => {
            let mut pairs = vec![
                ("kind", Json::Str("acc".into())),
                ("metric", Json::Str(metric.keyword().to_string())),
                ("value_bits", u64_json(threshold.to_bits())),
            ];
            pairs.extend(deadline_pairs(deadline));
            Json::obj(pairs)
        }
        CompletionCriterion::Convergence { metric, delta, deadline } => {
            let mut pairs = vec![
                ("kind", Json::Str("conv".into())),
                ("metric", Json::Str(metric.keyword().to_string())),
                ("value_bits", u64_json(delta.to_bits())),
            ];
            pairs.extend(deadline_pairs(deadline));
            Json::obj(pairs)
        }
        CompletionCriterion::Runtime { runtime } => {
            let mut pairs = vec![("kind", Json::Str("runtime".into()))];
            pairs.extend(deadline_pairs(runtime));
            Json::obj(pairs)
        }
    }
}

/// Decodes a criterion written by [`criterion_json`]; `None` when it is
/// malformed or breaks the value rule the surface syntax enforces
/// ([`CompletionCriterion::validate`]).
pub fn criterion_of(json: &Json) -> Option<CompletionCriterion> {
    let deadline = match json.get("deadline_kind")?.as_str()? {
        "epochs" => Deadline::Epochs(json.get("deadline_value")?.as_u64_str()?),
        "time" => Deadline::Time(SimTime::from_millis(json.get("deadline_value")?.as_u64_str()?)),
        _ => return None,
    };
    let criterion = match json.get("kind")?.as_str()? {
        "acc" => CompletionCriterion::Accuracy {
            metric: Metric::from_keyword(json.get("metric")?.as_str()?),
            threshold: f64::from_bits(json.get("value_bits")?.as_u64_str()?),
            deadline,
        },
        "conv" => CompletionCriterion::Convergence {
            metric: Metric::from_keyword(json.get("metric")?.as_str()?),
            delta: f64::from_bits(json.get("value_bits")?.as_u64_str()?),
            deadline,
        },
        "runtime" => CompletionCriterion::Runtime { runtime: deadline },
        _ => return None,
    };
    criterion.validate().ok()?;
    Some(criterion)
}

/// The structural encoding of a DLT spec, shared by submission payloads
/// and `admitted` snapshot rows.
fn dlt_spec_pairs(spec: &DltJobSpec) -> Vec<(&'static str, Json)> {
    vec![
        ("arch", Json::Str(format!("{:?}", spec.config.arch))),
        ("batch", u64_json(u64::from(spec.config.batch_size))),
        ("optimizer", Json::Str(format!("{:?}", spec.config.optimizer))),
        ("lr_bits", u64_json(spec.config.learning_rate.to_bits())),
        ("pretrained", Json::Bool(spec.config.pretrained)),
        ("criterion", criterion_json(&spec.criterion)),
    ]
}

/// Builds a DLT submission payload from a job spec.
pub fn dlt_payload(spec: &DltJobSpec) -> Json {
    let mut pairs = dlt_spec_pairs(spec);
    pairs.push(("est_ms", u64_json(DEFAULT_ESTIMATE.as_millis())));
    Json::obj(pairs)
}

/// Decodes a DLT payload into a job spec.
fn dlt_spec_of(payload: &Json) -> Result<DltJobSpec> {
    let arch = payload
        .get("arch")
        .and_then(Json::as_str)
        .and_then(resolve_architecture)
        .ok_or_else(|| malformed("arch must name a Table II architecture"))?;
    let batch_size = uint(payload, "batch")
        .and_then(|b| u32::try_from(b).ok())
        .filter(|b| *b > 0)
        .ok_or_else(|| malformed("batch must be a positive integer"))?;
    let optimizer = payload
        .get("optimizer")
        .and_then(Json::as_str)
        .and_then(resolve_optimizer)
        .ok_or_else(|| malformed("optimizer must be SGD/Adam/Adagrad/Momentum"))?;
    let learning_rate = f64_bits(payload, "lr_bits")
        .filter(|lr| lr.is_finite() && *lr > 0.0)
        .ok_or_else(|| malformed("lr_bits must decode into a positive rate"))?;
    let pretrained = payload
        .get("pretrained")
        .and_then(Json::as_bool)
        .ok_or_else(|| malformed("pretrained must be a boolean"))?;
    let criterion = payload
        .get("criterion")
        .and_then(criterion_of)
        .ok_or_else(|| malformed("criterion failed to decode"))?;
    Ok(DltJobSpec {
        config: TrainingConfig { arch, batch_size, optimizer, learning_rate, pretrained },
        criterion,
    })
}

/// The DLT arbitrator behind a serve daemon.
pub type DltServeBackend = ServeBackend<DltSystem>;

impl DltServeBackend {
    /// Wraps a system, opening an empty streaming run.
    pub fn new(mut sys: DltSystem, policy: DltPolicy) -> DltServeBackend {
        let run = match Run::start(&mut sys, &[], policy) {
            Ok(run) => run,
            Err(never) => match never {},
        };
        ServeBackend { sys, run, tickets: Vec::new() }
    }
}

impl ServeCodec for DltSystem {
    const NAME: &'static str = "dlt";

    fn spec_of(payload: &Json, _now: SimTime, _deadline_at: SimTime) -> Result<DltJobSpec> {
        dlt_spec_of(payload)
    }

    fn spec_row(spec: &DltJobSpec) -> Vec<(&'static str, Json)> {
        dlt_spec_pairs(spec)
    }

    fn spec_of_row(row: &Json) -> Option<DltJobSpec> {
        dlt_spec_of(row).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary_core::parser::parse_criterion;
    use rotary_dlt::DltWorkloadBuilder;

    #[test]
    fn aqp_payload_round_trips_exactly() {
        let payload = aqp_payload(&AqpJobSpec {
            query: QueryId(14),
            threshold: 0.1 + 0.2,
            deadline: SimTime::from_secs(900),
            arrival: SimTime::ZERO,
            ci_epsilon: Some(0.05),
        });
        let spec =
            aqp_spec_of(&payload, SimTime::from_millis(123), SimTime::from_secs(900)).unwrap();
        assert_eq!(spec.query, QueryId(14));
        assert_eq!(spec.threshold.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(spec.ci_epsilon.map(f64::to_bits), Some(0.05f64.to_bits()));
        assert_eq!(spec.arrival, SimTime::from_millis(123));
        // Reparse after a print cycle (what a snapshot does).
        let reparsed = rotary_core::json::parse(&payload.to_pretty()).unwrap();
        let spec2 =
            aqp_spec_of(&reparsed, SimTime::from_millis(123), SimTime::from_secs(900)).unwrap();
        assert_eq!(spec, spec2);
    }

    #[test]
    fn aqp_payload_rejects_garbage_with_typed_errors() {
        let bad = [
            Json::Null,
            Json::obj(vec![("query", u64_json(23))]),
            Json::obj(vec![
                ("query", u64_json(5)),
                ("threshold_bits", u64_json(f64::NAN.to_bits())),
            ]),
            Json::obj(vec![
                ("query", u64_json(5)),
                ("threshold_bits", u64_json(0.5f64.to_bits())),
                ("ci_bits", u64_json((-1.0f64).to_bits())),
            ]),
        ];
        for payload in bad {
            assert!(
                matches!(
                    aqp_spec_of(&payload, SimTime::ZERO, SimTime::from_millis(1)),
                    Err(RotaryError::InvalidConfig(_))
                ),
                "{payload:?} should be malformed"
            );
        }
    }

    #[test]
    fn dlt_payload_round_trips_every_workload_spec() {
        // The survey workload covers all criteria kinds, architectures,
        // optimizers, and fractional learning rates.
        for spec in DltWorkloadBuilder::paper().jobs(40).seed(21).build() {
            let payload = dlt_payload(&spec);
            let reparsed = rotary_core::json::parse(&payload.to_pretty()).unwrap();
            let decoded = dlt_spec_of(&reparsed).unwrap();
            assert_eq!(decoded.config, spec.config);
            assert_eq!(decoded.criterion, spec.criterion);
        }
    }

    #[test]
    fn dlt_payload_rejects_garbage_with_typed_errors() {
        let good = dlt_payload(&DltWorkloadBuilder::paper().jobs(1).seed(1).build()[0]);
        let mut wrong_arch = good.clone();
        if let Json::Obj(pairs) = &mut wrong_arch {
            for (k, v) in pairs.iter_mut() {
                if k == "arch" {
                    *v = Json::Str("NotANetwork".into());
                }
            }
        }
        // Criteria the surface syntax rejects: a NaN threshold would make
        // progress NaN, which the durable metrics cannot store.
        let with_criterion = |criterion: CompletionCriterion| {
            let mut payload = good.clone();
            if let Json::Obj(pairs) = &mut payload {
                for (k, v) in pairs.iter_mut() {
                    if k == "criterion" {
                        *v = criterion_json(&criterion);
                    }
                }
            }
            payload
        };
        let acc = |threshold: f64| CompletionCriterion::Accuracy {
            metric: Metric::Accuracy,
            threshold,
            deadline: Deadline::Epochs(30),
        };
        let out_of_rule = [
            acc(f64::NAN),
            acc(f64::INFINITY),
            acc(f64::NEG_INFINITY),
            acc(-1.0),
            acc(1.5),
            CompletionCriterion::Convergence {
                metric: Metric::Loss,
                delta: f64::NAN,
                deadline: Deadline::Epochs(30),
            },
            CompletionCriterion::Runtime { runtime: Deadline::Epochs(0) },
            CompletionCriterion::Accuracy {
                metric: Metric::Accuracy,
                threshold: 0.9,
                deadline: Deadline::Time(SimTime::ZERO),
            },
        ]
        .map(with_criterion);
        for payload in [Json::Null, Json::obj(vec![]), wrong_arch].into_iter().chain(out_of_rule) {
            assert!(
                matches!(dlt_spec_of(&payload), Err(RotaryError::InvalidConfig(_))),
                "{payload:?} should be malformed"
            );
        }
    }

    #[test]
    fn criterion_codec_round_trips_all_kinds() {
        let cases = [
            CompletionCriterion::Accuracy {
                metric: Metric::Accuracy,
                threshold: 0.937,
                deadline: Deadline::Epochs(30),
            },
            CompletionCriterion::Convergence {
                metric: Metric::Loss,
                delta: 1e-3,
                deadline: Deadline::Time(SimTime::from_secs(7_201)),
            },
            CompletionCriterion::Runtime { runtime: Deadline::Time(SimTime::from_millis(1)) },
            CompletionCriterion::Accuracy {
                metric: Metric::Custom("BLEU".into()),
                threshold: 0.5,
                deadline: Deadline::Epochs(1),
            },
        ];
        for c in cases {
            let reparsed = rotary_core::json::parse(&criterion_json(&c).to_pretty()).unwrap();
            assert_eq!(criterion_of(&reparsed), Some(c));
        }

        // At the rule's boundaries the wire accepts exactly what the shared
        // value rule accepts, and so does the surface syntax.
        let values =
            [0.0, 1.0, 1.0 + f64::EPSILON, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0];
        let deadlines = [
            (Deadline::Epochs(0), "0 EPOCHS"),
            (Deadline::Epochs(1), "1 EPOCHS"),
            (Deadline::Time(SimTime::ZERO), "0 SECONDS"),
            (Deadline::Time(SimTime::from_millis(1)), "0.001 SECONDS"),
        ];
        for (deadline, within) in deadlines {
            let mut cases =
                vec![(CompletionCriterion::Runtime { runtime: deadline }, format!("FOR {within}"))];
            for metric in
                [Metric::Accuracy, Metric::F1, Metric::Loss, Metric::Custom("BLEU".into())]
            {
                for value in values {
                    cases.push((
                        CompletionCriterion::Accuracy {
                            metric: metric.clone(),
                            threshold: value,
                            deadline,
                        },
                        format!("{metric} MIN {value} WITHIN {within}"),
                    ));
                    cases.push((
                        CompletionCriterion::Convergence {
                            metric: metric.clone(),
                            delta: value,
                            deadline,
                        },
                        format!("{metric} DELTA {value} WITHIN {within}"),
                    ));
                }
            }
            for (c, text) in cases {
                let decoded = criterion_of(&criterion_json(&c));
                assert_eq!(decoded.is_some(), c.validate().is_ok(), "{c:?}");
                assert_eq!(decoded.is_some(), parse_criterion(&text).is_ok(), "{text}");
                if let Some(d) = decoded {
                    assert_eq!(d, c);
                }
            }
        }
    }
}
