//! # TPC-H-style data generation for Rotary
//!
//! The paper evaluates Rotary-AQP on the TPC-H benchmark at scale factor 1,
//! streaming the dataset in batches from a Kafka cluster. This crate is the
//! corresponding substrate: a deterministic pseudo-`dbgen` producing the
//! eight TPC-H tables with the standard schema, key relationships, value
//! domains, and cardinality ratios, plus a progressive [`BatchSource`] that
//! stands in for Kafka by serving fact-table batches of (approximately)
//! equal size in randomised order.
//!
//! Fidelity notes (also recorded in `DESIGN.md`): value *distributions*
//! follow TPC-H's shapes (uniform domains, date ranges; free-text comment
//! columns dropped) but are not bit-compatible with `dbgen`; scheduling
//! behaviour only depends on cardinalities, join fan-outs, selectivities,
//! and group counts, all of which are preserved. Customer phone numbers are
//! reduced to their country code (the only part any TPC-H query inspects).

#![warn(missing_docs)]

pub mod batch;
pub mod date;
pub mod gen;
pub mod table;

pub use batch::{BatchSource, RowOrder};
pub use date::{date, Date};
pub use gen::{Generator, TpchData};
pub use table::{Column, ColumnType, Table};
