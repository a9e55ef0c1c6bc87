//! # Rotary — resource arbitration for progressive iterative analytics
//!
//! Facade crate re-exporting the full public API of the Rotary workspace, a
//! from-scratch Rust reproduction of *"Rotary: A Resource Arbitration
//! Framework for Progressive Iterative Analytics"* (Liu, Elmore, Franklin,
//! Krishnan — ICDE 2023).
//!
//! * [`core`] — the application-independent framework: completion-criteria
//!   DSL, attainment progress `φ`, estimators, policies, history repository.
//! * [`sim`] — the discrete-event substrate: virtual clock, Poisson
//!   arrivals, resource pools, checkpoint costs, evaluation metrics.
//! * [`tpch`] — deterministic TPC-H-style data generation and the
//!   progressive batch source.
//! * [`par`] — ordered `map`/`map_mut` over scoped host threads for
//!   start-up work (`ROTARY_THREADS`).
//! * [`engine`] — the mini relational engine with online aggregation that
//!   stands in for the paper's Spark-based AQP executor.
//! * [`aqp`] — Rotary-AQP (Algorithm 2) and its baselines (ReLAQS, EDF,
//!   LAF, round-robin).
//! * [`dlt`] — Rotary-DLT (Algorithms 3–4), the training simulator, TEE /
//!   TME / TTR, and its baselines (SRF, BCF, LAF).
//! * [`faults`] — deterministic seed-driven fault injection (crashes,
//!   stragglers, checkpoint failures, memory-pressure spikes) and the
//!   retry/backoff recovery policy (`ROTARY_FAULT_SEED`).
//! * [`arb`] — the one arbitration run loop both systems plug into: the
//!   [`arb::Arbiter`] / [`arb::Durable`] traits, the [`arb::Run`] handle,
//!   and its three drivers — batch [`arb::run`], durable
//!   [`arb::run_durable`] / [`arb::resume_durable`], and streaming
//!   `Run::admit` / `step` / `drain_finished`. `AqpSystem::run` and
//!   `DltSystem::run` (and their durable twins) delegate here.
//! * [`store`] — the durable snapshot store behind crash-restart recovery:
//!   checksummed generation files, atomic commits, newest-valid fallback.
//! * [`serve`] — the service layer: an event-driven daemon with per-tenant
//!   quotas, bounded admission queues, typed backpressure, deadline-aware
//!   load shedding, and the generic [`serve::ServeBackend`] that puts any
//!   arbitrator — AQP or DLT — behind it.
//!
//! See `examples/quickstart.rs` for a three-minute tour.

#![warn(missing_docs)]

pub mod serve;
pub mod unified;

pub use rotary_aqp as aqp;
pub use rotary_core as core;
pub use rotary_dlt as dlt;
pub use rotary_engine as engine;
pub use rotary_faults as faults;
pub use rotary_faults::arbiter as arb;
pub use rotary_par as par;
pub use rotary_sim as sim;
pub use rotary_store as store;
pub use rotary_tpch as tpch;
