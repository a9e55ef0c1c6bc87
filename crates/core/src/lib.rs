//! # Rotary core framework
//!
//! This crate implements the application-independent half of **Rotary**, the
//! resource arbitration framework for progressive iterative analytics
//! (Liu, Elmore, Franklin, Krishnan — ICDE 2023).
//!
//! A *progressive iterative analytic* job processes data in batches, emits an
//! intermediate result every *epoch*, and terminates when a user-defined
//! [completion criterion](criteria::CompletionCriterion) is met. Resource
//! arbitration continuously decides, per epoch, which jobs receive resources,
//! which are deferred (checkpointed), and how long each job's next running
//! epoch should be — driven by estimates of *attainment progress* `φ` and of
//! resource consumption.
//!
//! The crate provides:
//!
//! * the completion-criteria model and its SQL-like surface syntax
//!   ([`criteria`], [`parser`]) — `ACC MIN 95% WITHIN 3600 SECONDS`,
//!   `LOSS DELTA 0.001 WITHIN 30 EPOCHS`, `FOR 2 HOURS`;
//! * the job/state model ([`job`]) and attainment metrics `φ`/`ψ`
//!   ([`progress`]);
//! * the estimation toolkit ([`estimate`]): weighted linear regression over
//!   pluggable basis functions, the paper's joint historical+real-time curve
//!   fitting, similarity-based top-k neighbour selection, and the envelope
//!   convergence detector used by Rotary-AQP;
//! * the historical-job repository ([`history`]) and the in-tree JSON
//!   reader/writer backing its persistence ([`json`]);
//! * resource descriptions ([`resources`]).
//!
//! The application-specific halves live in the `rotary-aqp` and `rotary-dlt`
//! crates, which instantiate this framework for approximate query processing
//! and deep learning training respectively. They also hold the paper's
//! policies and cost model: the laxity and threshold rankings of each
//! system, and its adaptive epochs, which weigh progress against resources.

#![warn(missing_docs)]

pub mod arb;
pub mod criteria;
pub mod error;
pub mod estimate;
pub mod history;
pub mod job;
pub mod json;
pub mod parser;
pub mod progress;
pub mod resources;
pub mod time;

pub use criteria::{CompletionCriterion, Deadline, Metric};
pub use error::{Result, RotaryError};
pub use job::{IntermediateState, JobId, JobKind, JobState, JobStatus};
pub use parser::parse_statement;
pub use progress::{attainment_rate, Objective, Progress};
pub use time::SimTime;
