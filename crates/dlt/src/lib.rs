//! # Rotary-DLT: resource arbitration for deep learning training
//!
//! The paper's second prototype system (§IV-B): threshold-based GPU
//! arbitration over a multi-tenant training cluster, where every job
//! carries a convergence-, accuracy-, or runtime-oriented completion
//! criterion from the Table II survey workload.
//!
//! * [`models`] — the Table II model zoo (all 17 architectures, shrunk
//!   variants, published parameter counts) and hyperparameter spaces;
//! * [`simulator`] — the TensorFlow stand-in: saturating learning curves
//!   with hyperparameter-dependent peaks/rates, batch-affine GPU memory,
//!   per-step timing with CUDA warm-up;
//! * [`workload`] — the survey-based workload generator (60/20/20 criteria
//!   mix) and the Fig. 11 eight-job micro-benchmark;
//! * [`estimators`] — TEE (epochs-to-accuracy), TME (batch-size→memory),
//!   TTR (training-time recorder), plus the Table III overhead meter;
//! * [`system`] — Algorithms 3–4 (threshold-T arbitration, progress
//!   computation) and the SRF/BCF/LAF baselines.

#![warn(missing_docs)]

pub mod estimators;
pub mod hpo;
pub mod models;
pub mod parse;
pub mod simulator;
pub mod system;
pub mod workload;

pub use estimators::{build_tee, estimate_epochs_to_accuracy, OverheadMeter, Tme, Ttr};
pub use hpo::{hyperband, HpoOutcome, SuccessiveHalving, TrialResult};
pub use models::{Architecture, Dataset, Domain, Optimizer};
pub use parse::parse_train_statement;
pub use simulator::{TrainingConfig, TrainingSim};
pub use system::{DltPolicy, DltRunResult, DltSystem, DltSystemConfig};
pub use workload::{fig11_microbenchmark, CriteriaMix, DltJobSpec, DltWorkloadBuilder};
