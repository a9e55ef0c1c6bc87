//! Similarity-based top-k historical job selection (paper §IV-A and §IV-B).
//!
//! Rotary selects the top-k historical jobs most similar to the target job
//! before fitting estimation curves. Rotary-DLT's training memory estimator
//! defines `similarity(x, y) = 1 − |x − y| / max(x, y)` on model parameter
//! counts; Rotary-AQP compares query features (predicates, tables, columns,
//! batch size) — callers provide their own scoring function to [`top_k_by`]
//! and can reuse [`scalar_similarity`] for numeric features and
//! [`jaccard_sorted`] for categorical ones.

/// The paper's scalar similarity: `1 − |x − y| / max(x, y)`, in `[0, 1]`.
///
/// Both inputs must be positive for the formula to be meaningful; when either
/// is non-positive the function returns 1.0 if they are equal and 0.0
/// otherwise (a zero-parameter "model" is only like another zero-parameter
/// model).
pub fn scalar_similarity(x: f64, y: f64) -> f64 {
    if x <= 0.0 || y <= 0.0 {
        return if x == y { 1.0 } else { 0.0 };
    }
    1.0 - (x - y).abs() / x.max(y)
}

/// Selects the `k` items with the highest similarity score, in descending
/// score order. Ties preserve the input order (stable), making selection
/// deterministic. Items with non-finite scores are skipped.
///
/// The running best-`k` is kept sorted as items stream past, so the cost is
/// one score call per item plus O(k) per item that displaces a kept one —
/// exactly the prefix a stable sort of every scored item would produce.
pub fn top_k_by<T, F>(items: &[T], k: usize, mut score: F) -> Vec<(&T, f64)>
where
    F: FnMut(&T) -> f64,
{
    use crate::arb::OrdF64;
    let mut best: Vec<(&T, f64)> = Vec::with_capacity(k.min(items.len()));
    for item in items {
        let s = score(item);
        if !s.is_finite() {
            continue;
        }
        let key = OrdF64::new(s);
        if best.len() == k {
            // A later item loses ties, so it displaces the kept worst only
            // when strictly better.
            if best.last().is_none_or(|&(_, worst)| key <= OrdF64::new(worst)) {
                continue;
            }
            best.pop();
        }
        let at = best.partition_point(|&(_, kept)| OrdF64::new(kept) >= key);
        best.insert(at, (item, s));
    }
    best
}

/// Jaccard similarity of two sets given as strictly ascending slices — used
/// by the AQP estimator to compare query features such as referenced tables
/// and columns. One merge pass, no allocation.
pub fn jaccard_sorted<A: AsRef<str>, B: AsRef<str>>(a: &[A], b: &[B]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0].as_ref() < w[1].as_ref()));
    debug_assert!(b.windows(2).all(|w| w[0].as_ref() < w[1].as_ref()));
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter) = (0, 0, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].as_ref().cmp(b[j].as_ref()) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter as f64 / (a.len() + b.len() - inter) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_similarity_matches_paper_formula() {
        assert_eq!(scalar_similarity(10.0, 10.0), 1.0);
        // |25−20|/25 = 0.2 → similarity 0.8
        assert!((scalar_similarity(25.0, 20.0) - 0.8).abs() < 1e-12);
        assert!((scalar_similarity(20.0, 25.0) - 0.8).abs() < 1e-12);
        // Very different sizes → near zero.
        assert!(scalar_similarity(1.0, 1000.0) < 0.01);
    }

    #[test]
    fn scalar_similarity_degenerate_inputs() {
        assert_eq!(scalar_similarity(0.0, 0.0), 1.0);
        assert_eq!(scalar_similarity(0.0, 5.0), 0.0);
        assert_eq!(scalar_similarity(-3.0, 5.0), 0.0);
    }

    #[test]
    fn top_k_orders_and_truncates() {
        let params = [11.0_f64, 25.0, 9.5, 100.0, 10.5];
        let target = 10.0;
        let top = top_k_by(&params, 3, |&p| scalar_similarity(target, p));
        let picked: Vec<f64> = top.iter().map(|(p, _)| **p).collect();
        assert_eq!(picked, vec![10.5, 9.5, 11.0]);
        assert!(top[0].1 > top[1].1 && top[1].1 >= top[2].1);
    }

    #[test]
    fn top_k_with_k_larger_than_items() {
        let items = [1.0_f64, 2.0];
        assert_eq!(top_k_by(&items, 10, |&x| x).len(), 2);
        let empty: [f64; 0] = [];
        assert!(top_k_by(&empty, 3, |&x| x).is_empty());
    }

    #[test]
    fn top_k_skips_nan_scores() {
        let items = [1.0_f64, 2.0, 3.0];
        let top = top_k_by(&items, 3, |&x| if x == 2.0 { f64::NAN } else { x });
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn top_k_ties_are_stable() {
        let items = ["a", "b", "c"];
        let top = top_k_by(&items, 2, |_| 0.5);
        assert_eq!(*top[0].0, "a");
        assert_eq!(*top[1].0, "b");
    }

    #[test]
    fn top_k_matches_a_stable_sort_of_everything() {
        // Ties, a NaN, both zeros, and every k up to past the item count.
        let scores = [0.5, 0.9, f64::NAN, 0.5, -0.0, 0.9, 0.0, 0.1, 0.9, f64::INFINITY];
        let items: Vec<usize> = (0..scores.len()).collect();
        let mut sorted: Vec<usize> =
            items.iter().copied().filter(|&i| scores[i].is_finite()).collect();
        sorted.sort_by_key(|&i| (std::cmp::Reverse(crate::arb::OrdF64::new(scores[i])), i));
        for k in 0..=items.len() + 1 {
            let picked: Vec<usize> =
                top_k_by(&items, k, |&i| scores[i]).into_iter().map(|(i, _)| *i).collect();
            assert_eq!(picked, sorted[..k.min(sorted.len())], "k = {k}");
        }
    }

    #[test]
    fn jaccard_similarity() {
        assert_eq!(jaccard_sorted(&["lineitem"], &["lineitem"]), 1.0);
        assert_eq!(jaccard_sorted::<&str, &str>(&[], &[]), 1.0);
        assert_eq!(jaccard_sorted(&["a"], &["b"]), 0.0);
        assert_eq!(jaccard_sorted::<&str, &str>(&["a"], &[]), 0.0);
        // {a,b} ∩ {b,c} = {b}; union = {a,b,c}.
        assert!((jaccard_sorted(&["a", "b"], &["b", "c"]) - 1.0 / 3.0).abs() < 1e-12);
    }
}
