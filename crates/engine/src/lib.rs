//! # Mini relational engine with online aggregation
//!
//! Rotary-AQP's execution platform in the paper is "a single-user
//! progressive query processing system based on Apache Spark" modified for
//! multi-tenancy. This crate is the corresponding from-scratch substrate: a
//! columnar engine evaluating star-join aggregation queries over the
//! `rotary-tpch` dataset, batch-at-a-time, exactly the way an online
//! aggregation system does —
//!
//! * [`expr`] — column references, scalar expressions, predicates;
//! * [`plan`] — query plans: a streamed *fact* table, a chain of hash-join
//!   edges to dimension tables, a filter, optional grouping, and aggregates;
//! * [`exec`] — the executor: binds a plan to a dataset (sharing primary-key
//!   hash indexes and per-plan row verdicts through one cache per dataset),
//!   then evaluates row batches chunk-at-a-time through the columnar data
//!   plane: survivors selected from the verdicts, their join edges
//!   resolved, their aggregate inputs projected and folded;
//! * [`kernels`] — the vectorized columnar kernels: selection bitmaps,
//!   gathers, element-wise arithmetic, deterministic open-addressed
//!   primary-key indexes, and sequential-order aggregate reductions;
//! * [`columnar`] — evaluation on top of the kernels: the filter-first
//!   verdict scan (join → filter, once per dataset) and the per-epoch
//!   projection, proven bit-identical to the row-at-a-time oracle;
//! * [`agg`] — running aggregate state (SUM / AVG / COUNT / MIN / MAX,
//!   grouped or scalar);
//! * [`online`] — progressive execution: feeds shuffled batches through the
//!   executor, tracks per-column accuracy `α_c / α_f` against ground truth
//!   (paper §IV-A), and reports per-epoch intermediate results;
//! * [`queries`] — definitions of all 22 TPC-H queries (simplified to the
//!   engine's star-join dialect; every simplification is documented on the
//!   query), with the light/medium/heavy classes of Table I;
//! * [`memory`] — the CBO-style memory-consumption estimator and the
//!   row-operation cost model that maps engine work to virtual time.

#![warn(missing_docs)]

pub mod agg;
pub mod columnar;
pub mod exec;
pub mod expr;
pub mod kernels;
pub mod memory;
pub mod online;
pub mod plan;
pub mod queries;

pub use agg::{AggFunc, AggSpec};
pub use exec::{Executor, IndexCache, PAR_CHUNK_ROWS, PAR_MIN_ROWS};
pub use expr::{ColRef, Expr, Pred};
pub use online::{EpochReport, OnlineAggregation};
pub use plan::{GroupKey, JoinEdge, QueryClass, QueryPlan};
pub use queries::{all_queries, query, QueryId};
