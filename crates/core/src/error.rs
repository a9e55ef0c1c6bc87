//! Error types shared across the Rotary framework.

use crate::json::{u64_json, Json};
use std::fmt;

/// Convenience alias used throughout the framework crates.
pub type Result<T> = std::result::Result<T, RotaryError>;

/// Errors produced by the Rotary framework.
#[derive(Debug, Clone, PartialEq)]
pub enum RotaryError {
    /// A completion-criterion statement failed to parse.
    Parse {
        /// The offending input (possibly truncated).
        input: String,
        /// Human-readable description of what went wrong.
        message: String,
    },
    /// An estimator was asked to predict before it had any observations.
    InsufficientData {
        /// Which estimator raised the error.
        estimator: &'static str,
        /// How many observations it had.
        have: usize,
        /// How many it needs.
        need: usize,
    },
    /// A query plan failed to bind against a dataset (unknown table or
    /// column, alias misuse, unsupported join shape, ungroupable column).
    PlanBind {
        /// Label of the plan that failed to bind.
        plan: String,
        /// Human-readable description of the binding failure.
        message: String,
    },
    /// A job referenced by id does not exist in the system.
    UnknownJob(u64),
    /// An invalid configuration value was supplied.
    InvalidConfig(String),
    /// History-repository persistence failed.
    Persistence(String),
    /// A checkpoint write or restore failed (injected fault or I/O error).
    CheckpointFailed {
        /// The job whose state was being persisted or restored.
        job: u64,
        /// Which operation failed: `"write"` or `"restore"`.
        operation: &'static str,
    },
    /// A running epoch crashed mid-execution and was rolled back.
    EpochFailed {
        /// The job whose epoch crashed.
        job: u64,
        /// The (1-based) epoch that was lost.
        epoch: u64,
        /// Failed attempts at this epoch so far.
        attempts: u32,
    },
    /// Every retry attempt for an epoch was consumed; the job is failed.
    RetriesExhausted {
        /// The job that ran out of retries.
        job: u64,
        /// The epoch that could not be completed.
        epoch: u64,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A durable snapshot failed structural or checksum validation (bad
    /// magic, truncated record, CRC mismatch, trailing garbage).
    SnapshotCorrupt {
        /// Human-readable description of the first validation failure.
        detail: String,
    },
    /// A durable snapshot was written by a format version this build does
    /// not understand.
    SnapshotVersion {
        /// The version found in the snapshot header.
        found: u16,
        /// The newest version this build supports.
        supported: u16,
    },
    /// A structurally valid snapshot does not belong to the system trying
    /// to restore it (different configuration fingerprint or backend).
    SnapshotMismatch {
        /// Human-readable description of the incompatibility.
        detail: String,
    },
    /// A drive loop stopped making progress with work still outstanding.
    Stalled {
        /// Which loop detected the stall.
        site: &'static str,
        /// Tickets still open when progress stopped.
        outstanding: u64,
    },
}

impl fmt::Display for RotaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RotaryError::Parse { input, message } => {
                write!(f, "failed to parse completion criterion {input:?}: {message}")
            }
            RotaryError::InsufficientData { estimator, have, need } => {
                write!(f, "estimator {estimator} needs at least {need} observation(s), has {have}")
            }
            RotaryError::PlanBind { plan, message } => {
                write!(f, "failed to bind plan {plan}: {message}")
            }
            RotaryError::UnknownJob(id) => write!(f, "unknown job id {id}"),
            RotaryError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            RotaryError::Persistence(msg) => write!(f, "history persistence failed: {msg}"),
            RotaryError::CheckpointFailed { job, operation } => {
                write!(f, "checkpoint {operation} failed for job {job}")
            }
            RotaryError::EpochFailed { job, epoch, attempts } => write!(
                f,
                "job {job} lost epoch {epoch} (attempt {attempts}); rolling back to last checkpoint"
            ),
            RotaryError::RetriesExhausted { job, epoch, attempts } => {
                write!(f, "job {job} exhausted {attempts} attempts at epoch {epoch}; giving up")
            }
            RotaryError::SnapshotCorrupt { detail } => {
                write!(f, "snapshot failed validation: {detail}")
            }
            RotaryError::SnapshotVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is newer than supported version {supported}"
            ),
            RotaryError::SnapshotMismatch { detail } => {
                write!(f, "snapshot does not belong to this system: {detail}")
            }
            RotaryError::Stalled { site, outstanding } => {
                write!(f, "{site} stopped making progress with {outstanding} ticket(s) outstanding")
            }
        }
    }
}

impl std::error::Error for RotaryError {}

/// Lets code generic over a fallible step accept a step that cannot fail.
impl From<std::convert::Infallible> for RotaryError {
    fn from(never: std::convert::Infallible) -> Self {
        match never {}
    }
}

impl RotaryError {
    /// Serialises the error for durable snapshots. Exact-width integers go
    /// through decimal strings (see [`crate::json::u64_json`]).
    pub fn to_json(&self) -> Json {
        let kind = |k: &str, mut fields: Vec<(&str, Json)>| {
            let mut pairs = vec![("kind", Json::Str(k.to_string()))];
            pairs.append(&mut fields);
            Json::obj(pairs)
        };
        match self {
            RotaryError::Parse { input, message } => kind(
                "parse",
                vec![("input", Json::Str(input.clone())), ("message", Json::Str(message.clone()))],
            ),
            RotaryError::InsufficientData { estimator, have, need } => kind(
                "insufficient-data",
                vec![
                    ("estimator", Json::Str(estimator.to_string())),
                    ("have", Json::Num(*have as f64)),
                    ("need", Json::Num(*need as f64)),
                ],
            ),
            RotaryError::PlanBind { plan, message } => kind(
                "plan-bind",
                vec![("plan", Json::Str(plan.clone())), ("message", Json::Str(message.clone()))],
            ),
            RotaryError::UnknownJob(id) => kind("unknown-job", vec![("job", u64_json(*id))]),
            RotaryError::InvalidConfig(msg) => {
                kind("invalid-config", vec![("message", Json::Str(msg.clone()))])
            }
            RotaryError::Persistence(msg) => {
                kind("persistence", vec![("message", Json::Str(msg.clone()))])
            }
            RotaryError::CheckpointFailed { job, operation } => kind(
                "checkpoint-failed",
                vec![("job", u64_json(*job)), ("operation", Json::Str(operation.to_string()))],
            ),
            RotaryError::EpochFailed { job, epoch, attempts } => kind(
                "epoch-failed",
                vec![
                    ("job", u64_json(*job)),
                    ("epoch", u64_json(*epoch)),
                    ("attempts", Json::Num(f64::from(*attempts))),
                ],
            ),
            RotaryError::RetriesExhausted { job, epoch, attempts } => kind(
                "retries-exhausted",
                vec![
                    ("job", u64_json(*job)),
                    ("epoch", u64_json(*epoch)),
                    ("attempts", Json::Num(f64::from(*attempts))),
                ],
            ),
            RotaryError::SnapshotCorrupt { detail } => {
                kind("snapshot-corrupt", vec![("detail", Json::Str(detail.clone()))])
            }
            RotaryError::SnapshotVersion { found, supported } => kind(
                "snapshot-version",
                vec![
                    ("found", Json::Num(f64::from(*found))),
                    ("supported", Json::Num(f64::from(*supported))),
                ],
            ),
            RotaryError::SnapshotMismatch { detail } => {
                kind("snapshot-mismatch", vec![("detail", Json::Str(detail.clone()))])
            }
            RotaryError::Stalled { site, outstanding } => kind(
                "stalled",
                vec![
                    ("site", Json::Str(site.to_string())),
                    ("outstanding", u64_json(*outstanding)),
                ],
            ),
        }
    }

    /// Decodes an error written by [`RotaryError::to_json`]. Returns `None`
    /// on any structural mismatch — callers translate that into a
    /// [`RotaryError::SnapshotCorrupt`] of their own.
    pub fn from_json(json: &Json) -> Option<RotaryError> {
        let s = |key: &str| json.get(key).and_then(Json::as_str).map(str::to_string);
        let u = |key: &str| json.get(key).and_then(Json::as_u64_str);
        let n = |key: &str| json.get(key).and_then(Json::as_u64);
        match json.get("kind")?.as_str()? {
            "parse" => Some(RotaryError::Parse { input: s("input")?, message: s("message")? }),
            "insufficient-data" => Some(RotaryError::InsufficientData {
                estimator: intern_estimator(&s("estimator")?),
                have: usize::try_from(n("have")?).ok()?,
                need: usize::try_from(n("need")?).ok()?,
            }),
            "plan-bind" => Some(RotaryError::PlanBind { plan: s("plan")?, message: s("message")? }),
            "unknown-job" => Some(RotaryError::UnknownJob(u("job")?)),
            "invalid-config" => Some(RotaryError::InvalidConfig(s("message")?)),
            "persistence" => Some(RotaryError::Persistence(s("message")?)),
            "checkpoint-failed" => Some(RotaryError::CheckpointFailed {
                job: u("job")?,
                operation: match s("operation")?.as_str() {
                    "write" => "write",
                    "restore" => "restore",
                    _ => return None,
                },
            }),
            "epoch-failed" => Some(RotaryError::EpochFailed {
                job: u("job")?,
                epoch: u("epoch")?,
                attempts: u32::try_from(n("attempts")?).ok()?,
            }),
            "retries-exhausted" => Some(RotaryError::RetriesExhausted {
                job: u("job")?,
                epoch: u("epoch")?,
                attempts: u32::try_from(n("attempts")?).ok()?,
            }),
            "snapshot-corrupt" => Some(RotaryError::SnapshotCorrupt { detail: s("detail")? }),
            "snapshot-version" => Some(RotaryError::SnapshotVersion {
                found: u16::try_from(n("found")?).ok()?,
                supported: u16::try_from(n("supported")?).ok()?,
            }),
            "snapshot-mismatch" => Some(RotaryError::SnapshotMismatch { detail: s("detail")? }),
            "stalled" => Some(RotaryError::Stalled {
                site: intern_site(&s("site")?),
                outstanding: u("outstanding")?,
            }),
            _ => None,
        }
    }
}

/// Maps a decoded estimator name back onto the static names the estimators
/// use; unknown names are leaked once to satisfy the `&'static str` field.
fn intern_estimator(name: &str) -> &'static str {
    const KNOWN: &[&str] = &["wlr", "log-shifted", "joint-curve", "tee", "tme"];
    for k in KNOWN {
        if *k == name {
            return k;
        }
    }
    Box::leak(name.to_string().into_boxed_str())
}

/// Same interning scheme for [`RotaryError::Stalled`] site names.
fn intern_site(name: &str) -> &'static str {
    const KNOWN: &[&str] = &["closed loop", "listener drain"];
    for k in KNOWN {
        if *k == name {
            return k;
        }
    }
    Box::leak(name.to_string().into_boxed_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e =
            RotaryError::Parse { input: "ACC MAX".into(), message: "expected MIN or DELTA".into() };
        let s = e.to_string();
        assert!(s.contains("ACC MAX"));
        assert!(s.contains("expected MIN or DELTA"));

        let e = RotaryError::InsufficientData { estimator: "wlr", have: 1, need: 2 };
        assert!(e.to_string().contains("wlr"));

        let e = RotaryError::PlanBind { plan: "q6".into(), message: "unknown alias o".into() };
        let s = e.to_string();
        assert!(s.contains("q6") && s.contains("unknown alias o"), "{s}");
    }

    #[test]
    fn fault_errors_carry_their_context() {
        let e = RotaryError::CheckpointFailed { job: 7, operation: "restore" };
        assert!(e.to_string().contains("restore"));
        assert!(e.to_string().contains("7"));

        let e = RotaryError::EpochFailed { job: 2, epoch: 9, attempts: 1 };
        let s = e.to_string();
        assert!(s.contains("epoch 9") && s.contains("job 2"), "{s}");

        let e = RotaryError::RetriesExhausted { job: 3, epoch: 4, attempts: 3 };
        let s = e.to_string();
        assert!(s.contains("3 attempts") && s.contains("epoch 4"), "{s}");
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(RotaryError::UnknownJob(3), RotaryError::UnknownJob(3));
        assert_ne!(RotaryError::UnknownJob(3), RotaryError::UnknownJob(4));
    }

    #[test]
    fn snapshot_errors_display_their_context() {
        let e = RotaryError::SnapshotCorrupt { detail: "record 2 CRC mismatch".into() };
        assert!(e.to_string().contains("record 2 CRC mismatch"));

        let e = RotaryError::SnapshotVersion { found: 9, supported: 1 };
        let s = e.to_string();
        assert!(s.contains("version 9") && s.contains("version 1"), "{s}");
    }

    #[test]
    fn json_codec_round_trips_every_variant() {
        let errors = [
            RotaryError::Parse { input: "ACC".into(), message: "truncated".into() },
            RotaryError::InsufficientData { estimator: "wlr", have: 1, need: 2 },
            RotaryError::PlanBind { plan: "q6".into(), message: "unknown alias".into() },
            RotaryError::UnknownJob(u64::MAX),
            RotaryError::InvalidConfig("bad bandwidth".into()),
            RotaryError::Persistence("disk full".into()),
            RotaryError::CheckpointFailed { job: 7, operation: "restore" },
            RotaryError::EpochFailed { job: 2, epoch: 9, attempts: 1 },
            RotaryError::RetriesExhausted { job: 3, epoch: 4, attempts: 3 },
            RotaryError::SnapshotCorrupt { detail: "torn".into() },
            RotaryError::SnapshotVersion { found: 2, supported: 1 },
            RotaryError::SnapshotMismatch { detail: "different backend".into() },
            RotaryError::Stalled { site: "closed loop", outstanding: u64::MAX },
        ];
        for e in errors {
            let json = e.to_json();
            let text = json.to_pretty();
            let parsed = crate::json::parse(&text).unwrap();
            assert_eq!(RotaryError::from_json(&parsed), Some(e.clone()), "{text}");
        }
    }

    #[test]
    fn json_codec_rejects_malformed_shapes() {
        for bad in [
            Json::Null,
            Json::obj(vec![]),
            Json::obj(vec![("kind", Json::Str("no-such-kind".into()))]),
            Json::obj(vec![("kind", Json::Str("unknown-job".into()))]),
            Json::obj(vec![
                ("kind", Json::Str("checkpoint-failed".into())),
                ("job", u64_json(1)),
                ("operation", Json::Str("frobnicate".into())),
            ]),
        ] {
            assert_eq!(RotaryError::from_json(&bad), None, "{}", bad.to_pretty());
        }
    }
}
