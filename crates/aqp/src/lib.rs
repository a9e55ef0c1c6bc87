//! # Rotary-AQP: resource arbitration for approximate query processing
//!
//! The paper's first prototype system (§IV-A): a multi-tenant online
//! aggregation service over TPC-H that arbitrates CPU threads and shared
//! memory among concurrent approximate queries, each carrying an
//! accuracy-oriented completion criterion (`ACC MIN θ WITHIN deadline`).
//!
//! * [`workload`] — the Table I synthetic workload generator (query
//!   classes, thresholds, deadlines, Poisson arrivals, Fig. 8 skews);
//! * [`estimator`] — the accuracy-progress estimator (joint historical +
//!   real-time weighted linear regression over query-feature-similar jobs)
//!   and the Fig. 9 random-estimation ablation;
//! * [`system`] — the event-driven arbitration loop implementing
//!   Algorithm 2 (memory-aware grants, adaptive running epochs,
//!   envelope-declared attainment) plus the baselines: ReLAQS, EDF, LAF,
//!   and round-robin.

#![warn(missing_docs)]

pub mod estimator;
pub mod system;
pub mod workload;

pub use estimator::{build_estimator, random_estimate, QueryFeatures};
pub use system::{AqpPolicy, AqpRunResult, AqpSystem, AqpSystemConfig};
pub use workload::{AqpJobSpec, ClassMix, WorkloadBuilder};
