//! Kernel-equivalence property suite: every columnar kernel is proven
//! bit-identical to a naive row-at-a-time oracle over randomized inputs —
//! including NaN/±inf float payloads and empty/full selections. This is the
//! ground the columnar data plane's bit-identity contract stands on: if a
//! kernel diverges from the row loop by a single ULP on any input shape,
//! one of these properties shrinks to a counterexample.
//!
//! Each property runs `ROTARY_CHECK_CASES` seeded cases (256 by default).

use rotary_check::{check, Source};
use rotary_engine::expr::CmpOp;
use rotary_engine::kernels::{
    add_assign, cat_mask_bitmap, cmp_bitmap, date_range_bitmap, div_assign_guarded,
    float_range_bitmap, gather_group_keys, gather_numeric, int_in_bitmap, int_range_bitmap,
    mul_assign, probe_composite, probe_single, sub_assign, Bitmap, PkIndex, PkIndex2,
};
use rotary_tpch::Column;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A float mixing normal magnitudes with the special values the engine can
/// produce (±inf from overflow, NaN from inf arithmetic).
fn messy_f64(src: &mut Source) -> f64 {
    if src.bool(0.2) {
        *src.pick(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, f64::MIN_POSITIVE])
    } else {
        src.f64_in(-1e6, 1e6)
    }
}

/// A gather list over `n` backing rows: empty, full-in-order, or a random
/// multiset — the three selection shapes the engine produces.
fn rows_for(src: &mut Source, n: usize) -> Vec<u32> {
    match src.usize_in(0, 2) {
        0 => Vec::new(),
        1 => (0..n as u32).collect(),
        _ => src.vec_of(0, 2 * n, |s| s.u32_in(0, n as u32 - 1)),
    }
}

fn assert_bitmap_matches(bm: &Bitmap, expect: &[bool]) {
    assert_eq!(bm.len(), expect.len());
    for (i, &e) in expect.iter().enumerate() {
        assert_eq!(bm.get(i), e, "position {i}");
    }
    assert_eq!(bm.count(), expect.iter().filter(|&&b| b).count());
}

#[test]
fn int_range_bitmap_matches_row_oracle() {
    check("int_range_bitmap", |src| {
        let values = src.vec_of(1, 64, |s| s.i64_in(-100, 100));
        let rows = rows_for(src, values.len());
        let lo = src.i64_in(-120, 120);
        let hi = src.i64_in(-120, 120); // lo > hi (empty range) allowed
        let mut bm = Bitmap::new();
        int_range_bitmap(&values, &rows, lo, hi, &mut bm);
        let expect: Vec<bool> = rows
            .iter()
            .map(|&r| {
                let v = values[r as usize];
                lo <= v && v <= hi
            })
            .collect();
        assert_bitmap_matches(&bm, &expect);
    });
}

#[test]
fn int_in_bitmap_matches_row_oracle() {
    check("int_in_bitmap", |src| {
        let values = src.vec_of(1, 64, |s| s.i64_in(0, 20));
        let rows = rows_for(src, values.len());
        let needles = src.vec_of(0, 6, |s| s.i64_in(0, 20));
        let mut bm = Bitmap::new();
        int_in_bitmap(&values, &rows, &needles, &mut bm);
        let expect: Vec<bool> =
            rows.iter().map(|&r| needles.contains(&values[r as usize])).collect();
        assert_bitmap_matches(&bm, &expect);
    });
}

#[test]
fn float_range_bitmap_matches_row_oracle_with_nan_inf() {
    check("float_range_bitmap", |src| {
        let values = src.vec_of(1, 64, messy_f64);
        let rows = rows_for(src, values.len());
        let lo = messy_f64(src);
        let hi = messy_f64(src);
        let mut bm = Bitmap::new();
        float_range_bitmap(&values, &rows, lo, hi, &mut bm);
        let expect: Vec<bool> = rows
            .iter()
            .map(|&r| {
                let v = values[r as usize];
                lo <= v && v <= hi // NaN anywhere → false, like the row loop
            })
            .collect();
        assert_bitmap_matches(&bm, &expect);
    });
}

#[test]
fn date_range_bitmap_is_half_open_like_row_oracle() {
    check("date_range_bitmap", |src| {
        let values: Vec<i32> = src.vec_of(1, 64, |s| s.i64_in(0, 2500) as i32);
        let rows = rows_for(src, values.len());
        let lo = src.i64_in(0, 2500) as i32;
        let hi = src.i64_in(0, 2500) as i32;
        let mut bm = Bitmap::new();
        date_range_bitmap(&values, &rows, lo, hi, &mut bm);
        let expect: Vec<bool> = rows
            .iter()
            .map(|&r| {
                let v = values[r as usize];
                lo <= v && v < hi
            })
            .collect();
        assert_bitmap_matches(&bm, &expect);
    });
}

#[test]
fn cat_mask_bitmap_matches_row_oracle() {
    check("cat_mask_bitmap", |src| {
        let dict_len = src.usize_in(1, 8);
        let codes: Vec<u32> = src.vec_of(1, 64, |s| s.u32_in(0, dict_len as u32 - 1));
        let rows = rows_for(src, codes.len());
        let mask: Vec<bool> = (0..dict_len).map(|_| src.bool(0.5)).collect();
        let mut bm = Bitmap::new();
        cat_mask_bitmap(&codes, &rows, &mask, &mut bm);
        let expect: Vec<bool> = rows.iter().map(|&r| mask[codes[r as usize] as usize]).collect();
        assert_bitmap_matches(&bm, &expect);
    });
}

#[test]
fn cmp_bitmap_matches_scalar_comparisons_with_nan_inf() {
    check("cmp_bitmap", |src| {
        let n = src.usize_in(0, 80);
        let a: Vec<f64> = (0..n).map(|_| messy_f64(src)).collect();
        let b: Vec<f64> = (0..n).map(|_| messy_f64(src)).collect();
        let op = *src.pick(&[CmpOp::Lt, CmpOp::Le, CmpOp::Eq]);
        let mut bm = Bitmap::new();
        cmp_bitmap(&a, &b, op, &mut bm);
        let expect: Vec<bool> = (0..n)
            .map(|i| match op {
                CmpOp::Lt => a[i] < b[i],
                CmpOp::Le => a[i] <= b[i],
                CmpOp::Eq => a[i] == b[i],
            })
            .collect();
        assert_bitmap_matches(&bm, &expect);
    });
}

#[test]
fn bitmap_combinators_match_boolean_oracle() {
    check("bitmap_combinators", |src| {
        let n = src.usize_in(0, 200); // spans the 64-bit word boundary
        let xs: Vec<bool> = (0..n).map(|_| src.bool(0.5)).collect();
        let ys: Vec<bool> = (0..n).map(|_| src.bool(0.5)).collect();
        let build = |bits: &[bool]| {
            let mut bm = Bitmap::new();
            bm.reset(bits.len());
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    bm.set(i);
                }
            }
            bm
        };
        let (bx, by) = (build(&xs), build(&ys));

        let mut and = bx.clone();
        and.and(&by);
        let expect_and: Vec<bool> = xs.iter().zip(&ys).map(|(&x, &y)| x && y).collect();
        assert_bitmap_matches(&and, &expect_and);

        let mut or = bx.clone();
        or.or(&by);
        let expect_or: Vec<bool> = xs.iter().zip(&ys).map(|(&x, &y)| x || y).collect();
        assert_bitmap_matches(&or, &expect_or);

        let mut not = bx.clone();
        not.negate();
        let expect_not: Vec<bool> = xs.iter().map(|&x| !x).collect();
        assert_bitmap_matches(&not, &expect_not);
    });
}

/// Distinct keys in generation order (a synthetic primary-key column).
fn distinct_keys(src: &mut Source, max: usize) -> Vec<i64> {
    let raw = src.vec_of(0, max, |s| s.i64_in(-1000, 1000));
    let mut seen = BTreeSet::new();
    raw.into_iter().filter(|&k| seen.insert(k)).collect()
}

#[test]
fn pk_index_matches_linear_scan_oracle() {
    check("pk_index", |src| {
        let keys = distinct_keys(src, 120);
        let idx = PkIndex::build(&keys);
        assert_eq!(idx.len(), keys.len());
        for _ in 0..40 {
            let probe = src.i64_in(-1100, 1100);
            let expect = keys.iter().position(|&k| k == probe).map(|r| r as u32);
            assert_eq!(idx.get(probe), expect, "key {probe}");
        }
    });
}

#[test]
fn probe_single_matches_row_loop_oracle() {
    check("probe_single", |src| {
        let keys = distinct_keys(src, 60);
        let idx = PkIndex::build(&keys);
        let n = src.usize_in(0, 64);
        let fk: Vec<i64> = (0..n).map(|_| src.i64_in(-1100, 1100)).collect();
        let src_rows: Vec<u32> = (0..n as u32).collect();
        // Positions: full, empty, or an ascending strict subset — the shapes
        // left behind by earlier join edges.
        let mut positions: Vec<u32> = match src.usize_in(0, 2) {
            0 => Vec::new(),
            1 => (0..n as u32).collect(),
            _ => (0..n as u32).filter(|_| src.bool(0.6)).collect(),
        };
        let mut targets = vec![0u32; n];

        let mut expect_positions = Vec::new();
        let mut expect_targets = targets.clone();
        for &p in &positions {
            let probe = fk[src_rows[p as usize] as usize];
            if let Some(r) = keys.iter().position(|&k| k == probe) {
                expect_targets[p as usize] = r as u32;
                expect_positions.push(p);
            }
        }

        probe_single(&idx, &fk, &src_rows, &mut positions, &mut targets);
        assert_eq!(positions, expect_positions);
        assert_eq!(targets, expect_targets);
    });
}

#[test]
fn probe_composite_matches_row_loop_oracle() {
    check("probe_composite", |src| {
        // Distinct (a, b) pairs.
        let raw: Vec<(i64, i64)> = src.vec_of(0, 60, |s| (s.i64_in(0, 30), s.i64_in(0, 30)));
        let mut seen = BTreeSet::new();
        let pairs: Vec<(i64, i64)> = raw.into_iter().filter(|&p| seen.insert(p)).collect();
        let ka: Vec<i64> = pairs.iter().map(|p| p.0).collect();
        let kb: Vec<i64> = pairs.iter().map(|p| p.1).collect();
        let idx = PkIndex2::build(&ka, &kb);

        let n = src.usize_in(0, 64);
        let fa: Vec<i64> = (0..n).map(|_| src.i64_in(0, 35)).collect();
        let fb: Vec<i64> = (0..n).map(|_| src.i64_in(0, 35)).collect();
        let src_rows: Vec<u32> = (0..n as u32).collect();
        let mut positions: Vec<u32> = (0..n as u32).collect();
        let mut targets = vec![0u32; n];

        let mut expect_positions = Vec::new();
        let mut expect_targets = targets.clone();
        for p in 0..n {
            let probe = (fa[p], fb[p]);
            if let Some(r) = pairs.iter().position(|&q| q == probe) {
                expect_targets[p] = r as u32;
                expect_positions.push(p as u32);
            }
        }

        probe_composite(&idx, &fa, &fb, &src_rows, &mut positions, &mut targets);
        assert_eq!(positions, expect_positions);
        assert_eq!(targets, expect_targets);
    });
}

/// A random column of a random type, plus its length.
fn any_column(src: &mut Source) -> Column {
    let n = src.usize_in(1, 48);
    match src.usize_in(0, 3) {
        0 => Column::Int((0..n).map(|_| src.i64_in(-500, 500)).collect()),
        1 => Column::Float((0..n).map(|_| messy_f64(src)).collect()),
        2 => Column::Date((0..n).map(|_| src.i64_in(0, 2500) as i32).collect()),
        _ => {
            let dict: Vec<String> = (0..src.usize_in(1, 5)).map(|i| format!("c{i}")).collect();
            let codes = (0..n).map(|_| src.u32_in(0, dict.len() as u32 - 1)).collect();
            Column::Cat { codes, dict: Arc::new(dict) }
        }
    }
}

#[test]
fn gathers_match_per_row_accessors_bitwise() {
    check("gathers", |src| {
        let col = any_column(src);
        let n = col.len();
        let rows = rows_for(src, n);
        let positions: Vec<u32> = (0..rows.len() as u32).filter(|_| src.bool(0.7)).collect();

        let mut full = Vec::new();
        gather_numeric(&col, &rows, &mut full);
        assert_eq!(full.len(), rows.len());
        for (i, &r) in rows.iter().enumerate() {
            assert_eq!(full[i].to_bits(), col.numeric(r as usize).to_bits(), "position {i}");
        }

        if !matches!(col, Column::Float(_)) {
            let mut keys = Vec::new();
            gather_group_keys(&col, &rows, &positions, &mut keys);
            for (k, &p) in positions.iter().enumerate() {
                let r = rows[p as usize] as usize;
                let expect = match &col {
                    Column::Int(v) => v[r],
                    Column::Date(v) => v[r] as i64,
                    Column::Cat { codes, .. } => codes[r] as i64,
                    Column::Float(_) => unreachable!(),
                };
                assert_eq!(keys[k], expect, "selected {k}");
            }
        }
    });
}

#[test]
fn elementwise_arithmetic_matches_scalar_ops_bitwise() {
    check("elementwise_arithmetic", |src| {
        let n = src.usize_in(0, 64);
        let a: Vec<f64> = (0..n).map(|_| messy_f64(src)).collect();
        let b: Vec<f64> = (0..n).map(|_| messy_f64(src)).collect();
        type Case = (fn(&mut [f64], &[f64]), fn(f64, f64) -> f64);
        let cases: [Case; 4] = [
            (add_assign, |x, y| x + y),
            (sub_assign, |x, y| x - y),
            (mul_assign, |x, y| x * y),
            (div_assign_guarded, |x, y| if y == 0.0 { 0.0 } else { x / y }),
        ];
        for (kernel, scalar) in cases {
            let mut out = a.clone();
            kernel(&mut out, &b);
            for i in 0..n {
                assert_eq!(out[i].to_bits(), scalar(a[i], b[i]).to_bits(), "element {i}");
            }
        }
    });
}
