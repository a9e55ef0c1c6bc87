//! Running aggregate state.
//!
//! Online aggregation maintains one accumulator per aggregate per group and
//! reads the *current* value off the accumulators after every batch. For
//! the paper's accuracy formula, each aggregate also exposes a **combined**
//! value across groups (the column-level `α` of §IV-A): sums/counts add up,
//! averages weight by count, min/max take the global extremum.

use crate::expr::Expr;

/// Aggregate functions supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of the expression.
    Sum,
    /// Arithmetic mean of the expression.
    Avg,
    /// Row count (the expression is ignored).
    Count,
    /// Count of distinct expression values (q16's `COUNT(DISTINCT …)`);
    /// values are distinguished by their bit pattern.
    CountDistinct,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// One aggregate column of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// Output column name.
    pub name: String,
    /// The function.
    pub func: AggFunc,
    /// Input expression (ignored for `Count`).
    pub expr: Expr,
}

impl AggSpec {
    /// Constructs an aggregate column.
    pub fn new(name: &str, func: AggFunc, expr: Expr) -> AggSpec {
        AggSpec { name: name.into(), func, expr }
    }

    /// `COUNT(*)`.
    pub fn count(name: &str) -> AggSpec {
        AggSpec::new(name, AggFunc::Count, Expr::Lit(1.0))
    }
}

/// A single accumulator (one aggregate within one group).
///
/// Besides the aggregate's value, the accumulator maintains Welford's
/// running variance, which online aggregation uses for the paper's optional
/// error bounds ("Additional error bounds, such as confidence interval, are
/// optional as well", §III-B).
#[derive(Debug, Clone, PartialEq)]
pub struct Accumulator {
    func: AggFunc,
    sum: f64,
    count: u64,
    min: f64,
    max: f64,
    mean: f64,
    m2: f64,
    // rotary-lint: allow(D001) -- membership set for COUNT(DISTINCT):
    // only `len`, `insert`, and `extend` are used, all order-independent.
    distinct: Option<std::collections::HashSet<u64>>,
}

impl Accumulator {
    /// Fresh accumulator for a function.
    pub fn new(func: AggFunc) -> Accumulator {
        Accumulator {
            func,
            sum: 0.0,
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            mean: 0.0,
            m2: 0.0,
            // rotary-lint: allow(D001) -- see the field's justification.
            distinct: matches!(func, AggFunc::CountDistinct).then(std::collections::HashSet::new),
        }
    }

    /// Feeds one row's expression value.
    #[inline]
    pub fn update(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
        // Welford's online variance update.
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        if let Some(set) = &mut self.distinct {
            set.insert(value.to_bits());
        }
    }

    /// The aggregate's current value; `None` before any row arrived (SQL
    /// aggregates over empty input are NULL, except COUNT).
    pub fn value(&self) -> Option<f64> {
        match self.func {
            AggFunc::Count => Some(self.count as f64),
            AggFunc::CountDistinct => {
                Some(self.distinct.as_ref().map(|s| s.len()).unwrap_or(0) as f64)
            }
            _ if self.count == 0 => None,
            AggFunc::Sum => Some(self.sum),
            AggFunc::Avg => Some(self.sum / self.count as f64),
            AggFunc::Min => Some(self.min),
            AggFunc::Max => Some(self.max),
        }
    }

    /// Sample variance of the fed values (Welford), `None` below 2 rows.
    pub fn variance(&self) -> Option<f64> {
        (self.count >= 2).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Standard error of the mean — the half-width driver of the paper's
    /// optional confidence intervals. `None` below 2 rows.
    pub fn std_error(&self) -> Option<f64> {
        self.variance().map(|v| (v / self.count as f64).sqrt())
    }

    /// A 95% confidence interval for the *mean* of the fed values,
    /// `mean ± 1.96·SE`. Meaningful for `Avg` aggregates (online
    /// aggregation's classic error bound).
    pub fn confidence_interval_95(&self) -> Option<(f64, f64)> {
        let se = self.std_error()?;
        Some((self.mean - 1.96 * se, self.mean + 1.96 * se))
    }

    /// Rows folded in.
    pub fn rows(&self) -> u64 {
        self.count
    }

    /// Merges another accumulator of the same function (used to combine
    /// groups into the column-level value).
    pub fn merge(&mut self, other: &Accumulator) {
        debug_assert_eq!(self.func, other.func);
        // Chan et al.'s parallel variance combination.
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        if n2 > 0.0 {
            let delta = other.mean - self.mean;
            let n = n1 + n2;
            self.mean = (n1 * self.mean + n2 * other.mean) / n;
            self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        }
        self.sum += other.sum;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if let (Some(mine), Some(theirs)) = (&mut self.distinct, &other.distinct) {
            mine.extend(theirs.iter().copied());
        }
    }
}

/// Aggregate state for a whole query: a map from group key to one
/// accumulator per aggregate column. Scalar queries use the empty key.
///
/// Groups live in a `BTreeMap` so every whole-state fold (e.g.
/// [`AggState::combined`]) visits them in key order. A hash map's
/// per-instance iteration order would reorder the floating-point merges and
/// perturb results by an ULP from one run to the next, breaking the
/// bit-identical reproducibility the simulators are pinned to.
#[derive(Debug, Clone)]
pub struct AggState {
    funcs: Vec<AggFunc>,
    groups: std::collections::BTreeMap<Vec<i64>, Vec<Accumulator>>,
}

impl AggState {
    /// Fresh state for the given aggregate columns.
    pub fn new(funcs: Vec<AggFunc>) -> AggState {
        AggState { funcs, groups: std::collections::BTreeMap::new() }
    }

    /// Feeds one row: the group key plus one expression value per aggregate.
    ///
    /// # Panics
    /// Panics (debug) if `values` does not match the aggregate arity.
    #[inline]
    pub fn update(&mut self, key: &[i64], values: &[f64]) {
        debug_assert_eq!(values.len(), self.funcs.len());
        self.with_group(key, |accs| {
            for (acc, &v) in accs.iter_mut().zip(values) {
                acc.update(v);
            }
        });
    }

    /// Applies `fold` to `key`'s accumulators. The lookup is by slice; the
    /// key is copied to the heap only on the group's first row.
    #[inline]
    fn with_group(&mut self, key: &[i64], fold: impl FnOnce(&mut [Accumulator])) {
        match self.groups.get_mut(key) {
            Some(accs) => fold(accs),
            None => {
                let mut accs: Vec<Accumulator> =
                    self.funcs.iter().map(|&f| Accumulator::new(f)).collect();
                fold(&mut accs);
                self.groups.insert(key.to_vec(), accs);
            }
        }
    }

    /// Drops every group, keeping the aggregate columns.
    pub fn clear(&mut self) {
        self.groups.clear();
    }

    /// The aggregate functions, in column order.
    pub fn funcs(&self) -> &[AggFunc] {
        &self.funcs
    }

    /// Number of groups materialised so far.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The column-level combined value of aggregate `i` across all groups —
    /// the `α` the accuracy formula compares. `None` until any row arrives.
    pub fn combined(&self, i: usize) -> Option<f64> {
        let mut merged = Accumulator::new(self.funcs[i]);
        let mut any = false;
        for accs in self.groups.values() {
            merged.merge(&accs[i]);
            any = true;
        }
        if any {
            merged.value()
        } else if matches!(self.funcs[i], AggFunc::Count | AggFunc::CountDistinct) {
            Some(0.0)
        } else {
            None
        }
    }

    /// All column-level values (one per aggregate).
    pub fn combined_all(&self) -> Vec<Option<f64>> {
        (0..self.funcs.len()).map(|i| self.combined(i)).collect()
    }

    /// The combined accumulator of aggregate `i` across all groups — gives
    /// access to variance / standard error / confidence intervals of the
    /// pooled stream. `None` until any row arrives.
    pub fn combined_accumulator(&self, i: usize) -> Option<Accumulator> {
        let mut merged = Accumulator::new(self.funcs[i]);
        let mut any = false;
        for accs in self.groups.values() {
            merged.merge(&accs[i]);
            any = true;
        }
        any.then_some(merged)
    }

    /// Per-group results, in key order (the map is ordered).
    pub fn grouped_results(&self) -> Vec<(Vec<i64>, Vec<Option<f64>>)> {
        self.groups
            .iter()
            .map(|(k, accs)| (k.clone(), accs.iter().map(|a| a.value()).collect()))
            .collect()
    }

    /// Total rows folded into the state.
    pub fn total_rows(&self) -> u64 {
        self.groups.values().map(|accs| accs.first().map(|a| a.rows()).unwrap_or(0)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_functions() {
        let feed = |f: AggFunc| {
            let mut a = Accumulator::new(f);
            for v in [3.0, 1.0, 4.0, 1.0, 5.0] {
                a.update(v);
            }
            a.value().unwrap()
        };
        assert_eq!(feed(AggFunc::Sum), 14.0);
        assert_eq!(feed(AggFunc::Avg), 2.8);
        assert_eq!(feed(AggFunc::Count), 5.0);
        assert_eq!(feed(AggFunc::Min), 1.0);
        assert_eq!(feed(AggFunc::Max), 5.0);
    }

    #[test]
    fn empty_accumulator_is_null_except_count() {
        assert_eq!(Accumulator::new(AggFunc::Sum).value(), None);
        assert_eq!(Accumulator::new(AggFunc::Avg).value(), None);
        assert_eq!(Accumulator::new(AggFunc::Min).value(), None);
        assert_eq!(Accumulator::new(AggFunc::Count).value(), Some(0.0));
    }

    #[test]
    fn merge_combines_streams() {
        let mut a = Accumulator::new(AggFunc::Avg);
        a.update(2.0);
        a.update(4.0);
        let mut b = Accumulator::new(AggFunc::Avg);
        b.update(10.0);
        a.merge(&b);
        assert_eq!(a.value(), Some(16.0 / 3.0));
        assert_eq!(a.rows(), 3);
    }

    #[test]
    fn grouped_state_tracks_groups_and_combined() {
        let mut s = AggState::new(vec![AggFunc::Sum, AggFunc::Count]);
        s.update(&[1], &[10.0, 1.0]);
        s.update(&[1], &[20.0, 1.0]);
        s.update(&[2], &[5.0, 1.0]);
        assert_eq!(s.group_count(), 2);
        assert_eq!(s.total_rows(), 3);
        assert_eq!(s.combined(0), Some(35.0));
        assert_eq!(s.combined(1), Some(3.0));

        let rows = s.grouped_results();
        assert_eq!(rows[0], (vec![1], vec![Some(30.0), Some(2.0)]));
        assert_eq!(rows[1], (vec![2], vec![Some(5.0), Some(1.0)]));
    }

    #[test]
    fn combined_avg_is_count_weighted() {
        let mut s = AggState::new(vec![AggFunc::Avg]);
        s.update(&[1], &[1.0]);
        s.update(&[1], &[1.0]);
        s.update(&[1], &[1.0]);
        s.update(&[2], &[5.0]);
        // Group averages are 1 and 5, but the combined average weights by
        // rows: (3·1 + 1·5)/4 = 2.
        assert_eq!(s.combined(0), Some(2.0));
    }

    #[test]
    fn empty_state_is_null() {
        let s = AggState::new(vec![AggFunc::Sum, AggFunc::Count]);
        assert_eq!(s.combined(0), None);
        assert_eq!(s.combined(1), Some(0.0));
        assert_eq!(s.group_count(), 0);
        assert!(s.grouped_results().is_empty());
    }

    #[test]
    fn count_distinct_counts_unique_values() {
        let mut a = Accumulator::new(AggFunc::CountDistinct);
        for v in [1.0, 2.0, 2.0, 3.0, 1.0] {
            a.update(v);
        }
        assert_eq!(a.value(), Some(3.0));
        // Merging unions the sets.
        let mut b = Accumulator::new(AggFunc::CountDistinct);
        b.update(3.0);
        b.update(4.0);
        a.merge(&b);
        assert_eq!(a.value(), Some(4.0));
        // Empty distinct counts are zero, not NULL.
        assert_eq!(Accumulator::new(AggFunc::CountDistinct).value(), Some(0.0));
    }

    #[test]
    fn welford_variance_matches_two_pass() {
        let values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut a = Accumulator::new(AggFunc::Avg);
        for v in values {
            a.update(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let two_pass =
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (values.len() - 1) as f64;
        assert!((a.variance().unwrap() - two_pass).abs() < 1e-12);
        let se = a.std_error().unwrap();
        assert!((se - (two_pass / values.len() as f64).sqrt()).abs() < 1e-12);
        let (lo, hi) = a.confidence_interval_95().unwrap();
        assert!(lo < mean && mean < hi);
        assert!((hi - lo - 2.0 * 1.96 * se).abs() < 1e-12);
    }

    #[test]
    fn variance_needs_two_rows() {
        let mut a = Accumulator::new(AggFunc::Avg);
        assert_eq!(a.variance(), None);
        a.update(5.0);
        assert_eq!(a.variance(), None);
        assert_eq!(a.confidence_interval_95(), None);
        a.update(5.0);
        assert_eq!(a.variance(), Some(0.0));
    }

    #[test]
    fn merged_variance_equals_single_stream() {
        let values: Vec<f64> = (0..40).map(|i| (i as f64 * 1.37).sin() * 10.0).collect();
        let mut whole = Accumulator::new(AggFunc::Avg);
        for &v in &values {
            whole.update(v);
        }
        let mut left = Accumulator::new(AggFunc::Avg);
        let mut right = Accumulator::new(AggFunc::Avg);
        for &v in &values[..17] {
            left.update(v);
        }
        for &v in &values[17..] {
            right.update(v);
        }
        left.merge(&right);
        assert!((left.variance().unwrap() - whole.variance().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn scalar_queries_use_empty_key() {
        let mut s = AggState::new(vec![AggFunc::Sum]);
        s.update(&[], &[1.5]);
        s.update(&[], &[2.5]);
        assert_eq!(s.group_count(), 1);
        assert_eq!(s.combined(0), Some(4.0));
    }
}
