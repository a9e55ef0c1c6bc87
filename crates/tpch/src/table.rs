//! Columnar table representation.
//!
//! Tables are plain structs of columns; low-cardinality strings are
//! dictionary-encoded ([`Column::Cat`]) so predicates compare `u32` codes
//! instead of strings — both faithful to analytical engines and fast enough
//! to process millions of rows per epoch in the simulator.

use std::collections::HashMap;
use std::sync::Arc;

use crate::date::Date;

/// The logical type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integers (keys, quantities, sizes).
    Int,
    /// 64-bit floats (prices, discounts, balances).
    Float,
    /// Days since the TPC-H epoch.
    Date,
    /// Dictionary-encoded category (flags, segments, brands, …).
    Cat,
}

/// A column of values.
#[derive(Debug, Clone)]
pub enum Column {
    /// Integer data.
    Int(Vec<i64>),
    /// Floating-point data.
    Float(Vec<f64>),
    /// Date data.
    Date(Vec<Date>),
    /// Dictionary-encoded categories: codes index into `dict`.
    Cat {
        /// Per-row dictionary codes.
        codes: Vec<u32>,
        /// The dictionary, code → string.
        dict: Arc<Vec<String>>,
    },
}

impl Column {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Date(v) => v.len(),
            Column::Cat { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's logical type.
    pub fn column_type(&self) -> ColumnType {
        match self {
            Column::Int(_) => ColumnType::Int,
            Column::Float(_) => ColumnType::Float,
            Column::Date(_) => ColumnType::Date,
            Column::Cat { .. } => ColumnType::Cat,
        }
    }

    /// Integer value at `row`; panics on type mismatch (query definitions
    /// are static, so a mismatch is a programming error).
    pub fn int(&self, row: usize) -> i64 {
        match self {
            Column::Int(v) => v[row],
            other => panic!("expected Int column, found {:?}", other.column_type()),
        }
    }

    /// Float value at `row`.
    pub fn float(&self, row: usize) -> f64 {
        match self {
            Column::Float(v) => v[row],
            other => panic!("expected Float column, found {:?}", other.column_type()),
        }
    }

    /// Date value at `row`.
    pub fn date_at(&self, row: usize) -> Date {
        match self {
            Column::Date(v) => v[row],
            other => panic!("expected Date column, found {:?}", other.column_type()),
        }
    }

    /// Category code at `row`.
    pub fn cat_code(&self, row: usize) -> u32 {
        match self {
            Column::Cat { codes, .. } => codes[row],
            other => panic!("expected Cat column, found {:?}", other.column_type()),
        }
    }

    /// Category string at `row`.
    pub fn cat_str(&self, row: usize) -> &str {
        match self {
            Column::Cat { codes, dict } => &dict[codes[row] as usize],
            other => panic!("expected Cat column, found {:?}", other.column_type()),
        }
    }

    /// A numeric view of the value at `row` (codes for categories) — used by
    /// generic expression evaluation.
    pub fn numeric(&self, row: usize) -> f64 {
        match self {
            Column::Int(v) => v[row] as f64,
            Column::Float(v) => v[row],
            Column::Date(v) => v[row] as f64,
            Column::Cat { codes, .. } => codes[row] as f64,
        }
    }
}

/// A named, typed, columnar table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    columns: Vec<(String, Column)>,
    index: HashMap<String, usize>,
    rows: usize,
}

impl Table {
    /// Builds a table from `(name, column)` pairs.
    ///
    /// # Panics
    /// Panics if columns have inconsistent lengths or duplicate names.
    pub fn new(name: impl Into<String>, columns: Vec<(String, Column)>) -> Table {
        let rows = columns.first().map(|(_, c)| c.len()).unwrap_or(0);
        let mut index = HashMap::with_capacity(columns.len());
        for (i, (col_name, col)) in columns.iter().enumerate() {
            assert_eq!(
                col.len(),
                rows,
                "column {col_name} has {} rows, expected {rows}",
                col.len()
            );
            let prior = index.insert(col_name.clone(), i);
            assert!(prior.is_none(), "duplicate column {col_name}");
        }
        Table { name: name.into(), columns, index, rows }
    }

    /// The table's name (`lineitem`, `orders`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.index.get(name).map(|&i| &self.columns[i].1)
    }

    /// Column by name, panicking with a clear message when absent.
    pub fn column_required(&self, name: &str) -> &Column {
        self.column(name).unwrap_or_else(|| panic!("table {} has no column {name}", self.name))
    }

    /// Iterates `(name, column)` pairs in declaration order.
    pub fn columns(&self) -> impl Iterator<Item = (&str, &Column)> {
        self.columns.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Builds a primary-key index `key → row` over an integer column.
    ///
    /// # Panics
    /// Panics if the column has duplicate keys (it would not be a primary
    /// key) or is not an integer column.
    pub fn primary_index(&self, key_column: &str) -> HashMap<i64, u32> {
        let col = self.column_required(key_column);
        let Column::Int(values) = col else {
            panic!("primary key column {key_column} must be Int");
        };
        let mut map = HashMap::with_capacity(values.len());
        for (row, &k) in values.iter().enumerate() {
            let prior = map.insert(k, row as u32);
            assert!(prior.is_none(), "duplicate primary key {k} in {key_column}");
        }
        map
    }

    /// Approximate in-memory footprint in bytes (used by the CBO-style
    /// memory estimator).
    pub fn byte_size(&self) -> usize {
        self.columns
            .iter()
            .map(|(_, c)| match c {
                Column::Int(v) => v.len() * 8,
                Column::Float(v) => v.len() * 8,
                Column::Date(v) => v.len() * 4,
                Column::Cat { codes, dict } => {
                    codes.len() * 4 + dict.iter().map(|s| s.len() + 24).sum::<usize>()
                }
            })
            .sum()
    }
}

/// Convenience builder for dictionary columns from string data where the
/// dictionary is known up front.
pub fn cat_column(dict: &Arc<Vec<String>>, codes: Vec<u32>) -> Column {
    debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len()), "code out of dictionary");
    Column::Cat { codes, dict: Arc::clone(dict) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let dict = Arc::new(vec!["A".to_string(), "B".to_string()]);
        Table::new(
            "t",
            vec![
                ("id".into(), Column::Int(vec![1, 2, 3])),
                ("price".into(), Column::Float(vec![1.5, 2.5, 3.5])),
                ("d".into(), Column::Date(vec![0, 10, 20])),
                ("flag".into(), cat_column(&dict, vec![0, 1, 0])),
            ],
        )
    }

    #[test]
    fn accessors_work() {
        let t = sample();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.name(), "t");
        assert_eq!(t.column_required("id").int(1), 2);
        assert_eq!(t.column_required("price").float(2), 3.5);
        assert_eq!(t.column_required("d").date_at(1), 10);
        assert_eq!(t.column_required("flag").cat_str(1), "B");
        assert!(t.column("id").is_some());
        assert!(t.column("nope").is_none());
    }

    #[test]
    fn numeric_view_covers_all_types() {
        let t = sample();
        assert_eq!(t.column_required("id").numeric(0), 1.0);
        assert_eq!(t.column_required("price").numeric(0), 1.5);
        assert_eq!(t.column_required("d").numeric(2), 20.0);
        assert_eq!(t.column_required("flag").numeric(1), 1.0);
    }

    #[test]
    fn primary_index_maps_keys_to_rows() {
        let t = sample();
        let idx = t.primary_index("id");
        assert_eq!(idx[&1], 0);
        assert_eq!(idx[&3], 2);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    #[should_panic(expected = "duplicate primary key")]
    fn duplicate_keys_panic() {
        let t = Table::new("t", vec![("k".into(), Column::Int(vec![7, 7]))]);
        let _ = t.primary_index("k");
    }

    #[test]
    #[should_panic(expected = "expected Int column")]
    fn type_mismatch_panics() {
        let t = sample();
        let _ = t.column_required("price").int(0);
    }

    #[test]
    #[should_panic(expected = "has no column")]
    fn missing_column_panics() {
        let t = sample();
        let _ = t.column_required("ghost");
    }

    #[test]
    #[should_panic(expected = "rows, expected")]
    fn ragged_columns_panic() {
        let _ = Table::new(
            "bad",
            vec![("a".into(), Column::Int(vec![1])), ("b".into(), Column::Int(vec![1, 2]))],
        );
    }

    #[test]
    fn byte_size_is_positive_and_monotone() {
        let small = sample().byte_size();
        let dict = Arc::new(vec!["A".to_string()]);
        let big = Table::new(
            "big",
            vec![
                ("id".into(), Column::Int(vec![0; 1000])),
                ("flag".into(), cat_column(&dict, vec![0; 1000])),
            ],
        )
        .byte_size();
        assert!(small > 0);
        assert!(big > small);
    }
}
