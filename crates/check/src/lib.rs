//! A small, dependency-free property-testing harness.
//!
//! `rotary-check` replaces the external `proptest` crate so the workspace
//! builds and tests fully offline. A property is a closure over a
//! [`Source`] of random choices; the harness runs it over many seeded
//! cases, and when a case fails it **shrinks** the failure and prints a
//! seed that replays it:
//!
//! ```
//! use rotary_check::check;
//!
//! check("addition_commutes", |src| {
//!     let a = src.i64_in(-1000, 1000);
//!     let b = src.i64_in(-1000, 1000);
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! * Every case is derived deterministically from the property name and the
//!   case index, so runs are reproducible without any global state.
//! * `ROTARY_CHECK_CASES=n` overrides the default of 256 cases per property.
//! * On failure the harness prints `ROTARY_CHECK_SEED=<seed>`; exporting
//!   that variable makes every `check` call replay exactly that one case.
//!
//! Shrinking works on the *choice tape*: the raw `u64` stream a failing
//! case consumed is recorded, then greedily simplified (truncate, zero,
//! halve, decrement) while the property keeps failing. Because generators
//! re-interpret the simplified tape through the same bounded draws, a
//! shrunken counterexample always stays inside the generator's domain.

use std::panic::{self, AssertUnwindSafe};

/// Default number of cases per property.
pub const DEFAULT_CASES: usize = 256;

const GOLDEN: u64 = 0x9e3779b97f4a7c15;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// A xoshiro256++ generator private to the harness (the production RNG
/// lives in `rotary-sim`; duplicating ~20 lines here keeps `rotary-check`
/// dependency-free and usable from `rotary-core`'s dev-tests without a
/// cycle).
struct Rng {
    s: [u64; 4],
}

impl Rng {
    fn seed_from_u64(seed: u64) -> Rng {
        let mut state = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut state);
        }
        Rng { s }
    }

    fn next_u64(&mut self) -> u64 {
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
}

enum Choices {
    /// Fresh case: draw from the RNG and record every raw value.
    Record(Rng),
    /// Shrink replay: consume a previously recorded (and mutated) tape;
    /// draws past the end yield 0, the simplest choice.
    Replay(Vec<u64>, usize),
}

/// The stream of random choices a property draws its inputs from.
///
/// All draws bottom out in [`Source::raw`], one tape entry per draw, so the
/// shrinker can simplify a failure positionally. Bounded draws map the raw
/// value with a modulo rather than rejection sampling — a negligible bias
/// for testing, and it keeps tape replay aligned.
pub struct Source {
    choices: Choices,
    tape: Vec<u64>,
}

impl Source {
    fn recording(seed: u64) -> Source {
        Source { choices: Choices::Record(Rng::seed_from_u64(seed)), tape: Vec::new() }
    }

    fn replaying(tape: Vec<u64>) -> Source {
        Source { choices: Choices::Replay(tape, 0), tape: Vec::new() }
    }

    /// The next raw choice. Every other draw is a deterministic function of
    /// raw values, which is what makes tape shrinking sound.
    pub fn raw(&mut self) -> u64 {
        let value = match &mut self.choices {
            Choices::Record(rng) => rng.next_u64(),
            Choices::Replay(tape, pos) => {
                let v = tape.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                v
            }
        };
        self.tape.push(value);
        value
    }

    /// Uniform `u64` in `[lo, hi]` (inclusive). Panics if `lo > hi`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "u64_in: empty range {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.raw();
        }
        lo + self.raw() % (span + 1)
    }

    /// Uniform `i64` in `[lo, hi]` (inclusive).
    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo <= hi, "i64_in: empty range {lo}..={hi}");
        let span = (hi as i128 - lo as i128) as u64;
        if span == u64::MAX {
            return self.raw() as i64;
        }
        (lo as i128 + (self.raw() % (span + 1)) as i128) as i64
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive).
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Uniform `u32` in `[lo, hi]` (inclusive).
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.u64_in(lo as u64, hi as u64) as u32
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "f64_in: empty range {lo}..{hi}");
        lo + self.unit_f64() * (hi - lo)
    }

    /// An arbitrary `f64` bit pattern — includes ±∞, NaN, and subnormals.
    /// Use for properties that must hold for *any* float.
    pub fn any_f64(&mut self) -> f64 {
        f64::from_bits(self.raw())
    }

    /// True with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        self.unit_f64() < p
    }

    /// A uniformly chosen element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.usize_in(0, items.len() - 1)]
    }

    /// A vector of `n ∈ [min_len, max_len]` elements drawn by `gen`.
    pub fn vec_of<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut gen: impl FnMut(&mut Source) -> T,
    ) -> Vec<T> {
        let n = self.usize_in(min_len, max_len);
        (0..n).map(|_| gen(self)).collect()
    }
}

fn cases_from_env() -> usize {
    // rotary-lint: allow(D002) test-harness root: ROTARY_CHECK_CASES scales every property run.
    std::env::var("ROTARY_CHECK_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_CASES)
}

fn replay_seed_from_env() -> Option<u64> {
    // rotary-lint: allow(D002) test-harness root: ROTARY_CHECK_SEED replays one failing case.
    let raw = std::env::var("ROTARY_CHECK_SEED").ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        raw.parse().ok()
    };
    // A typo'd seed must not silently fall back to a full run — the user
    // asked for one specific case.
    Some(parsed.unwrap_or_else(|| {
        panic!("rotary-check: ROTARY_CHECK_SEED={raw:?} is not a decimal or 0x-hex u64")
    }))
}

/// The seed of case `index` of the named property.
fn case_seed(name: &str, index: usize) -> u64 {
    let mut state = fnv1a(name.as_bytes()) ^ (index as u64).wrapping_mul(GOLDEN);
    splitmix64(&mut state)
}

/// Runs the property once and reports failure instead of unwinding.
/// Returns the recorded tape on failure.
fn run_once(
    prop: &(impl Fn(&mut Source) + panic::RefUnwindSafe),
    source: Source,
) -> Result<(), Vec<u64>> {
    let mut source = source;
    let result = panic::catch_unwind(AssertUnwindSafe(|| prop(&mut source)));
    match result {
        Ok(()) => Ok(()),
        Err(_) => Err(source.tape),
    }
}

fn still_fails(
    prop: &(impl Fn(&mut Source) + panic::RefUnwindSafe),
    tape: Vec<u64>,
) -> Option<Vec<u64>> {
    run_once(prop, Source::replaying(tape)).err()
}

/// Greedy tape shrinking: repeatedly try simpler tapes (shorter, then
/// element-wise smaller) and keep any that still fails, until a full pass
/// makes no progress or the attempt budget runs out.
fn shrink(prop: &(impl Fn(&mut Source) + panic::RefUnwindSafe), mut tape: Vec<u64>) -> Vec<u64> {
    let mut attempts = 0usize;
    const MAX_ATTEMPTS: usize = 2000;
    loop {
        let mut improved = false;

        // Truncation: drop the tail, halving first for big jumps.
        for keep in [tape.len() / 2, tape.len().saturating_sub(1)] {
            if keep < tape.len() && attempts < MAX_ATTEMPTS {
                attempts += 1;
                if let Some(t) = still_fails(prop, tape[..keep].to_vec()) {
                    tape = t;
                    improved = true;
                }
            }
        }

        // Element-wise simplification toward zero.
        let mut i = 0;
        while i < tape.len() && attempts < MAX_ATTEMPTS {
            let original = tape[i];
            for candidate in [0, original / 2, original.saturating_sub(1)] {
                if candidate >= original {
                    continue;
                }
                attempts += 1;
                let mut mutated = tape.clone();
                mutated[i] = candidate;
                if let Some(t) = still_fails(prop, mutated) {
                    tape = t;
                    improved = true;
                    break;
                }
            }
            i += 1;
        }

        if !improved || attempts >= MAX_ATTEMPTS {
            return tape;
        }
    }
}

/// Runs `prop` over many seeded cases, shrinking and reporting any failure.
///
/// `name` must be unique per property (the test function's name is the
/// convention); it keys the deterministic per-case seeds.
///
/// On failure, prints the failing case's replay seed, shrinks the choice
/// tape, and re-runs the shrunken case *without* catching the panic so the
/// original assertion message reaches the test runner.
pub fn check(name: &str, prop: impl Fn(&mut Source) + panic::RefUnwindSafe) {
    if let Some(seed) = replay_seed_from_env() {
        // Replay mode: run exactly one case, panicking normally.
        eprintln!("rotary-check: replaying `{name}` with ROTARY_CHECK_SEED={seed}");
        let mut source = Source::recording(seed);
        prop(&mut source);
        return;
    }

    let cases = cases_from_env();
    for index in 0..cases {
        let seed = case_seed(name, index);
        // Silence the per-candidate panic output while probing and
        // shrinking; the final replay below panics with the hook restored.
        let failing = {
            let hook = panic::take_hook();
            panic::set_hook(Box::new(|_| {}));
            let failing =
                run_once(&prop, Source::recording(seed)).err().map(|tape| shrink(&prop, tape));
            panic::set_hook(hook);
            failing
        };
        if let Some(tape) = failing {
            eprintln!(
                "rotary-check: property `{name}` failed at case {index}/{cases} \
                 (shrunk to {} choices)",
                tape.len()
            );
            eprintln!("rotary-check: replay with ROTARY_CHECK_SEED={seed}");
            // Deliberately unwinds with the property's own assertion message.
            let mut source = Source::replaying(tape);
            prop(&mut source);
            // rotary-lint: allow(P001) the harness reports a failing property by unwinding
            unreachable!("shrunken case stopped failing on final replay");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;

    #[test]
    fn passing_property_runs_all_cases() {
        // Counts cases via the tape: every case draws once.
        check("passing_property_runs_all_cases", |src| {
            let v = src.u64_in(0, 9);
            assert!(v < 10);
        });
    }

    #[test]
    fn failing_property_panics_with_original_message() {
        let result = catch_unwind(|| {
            check("failing_property_panics", |src| {
                let v = src.u64_in(0, 100);
                assert!(v < 101, "impossible");
                assert!(v < 50, "v was {v}");
            });
        });
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("v was"), "got panic message {msg:?}");
    }

    #[test]
    fn shrinking_reaches_a_minimal_counterexample() {
        // Property fails for v >= 50; the minimal failing tape re-interprets
        // to exactly 50 (tape entries shrink toward 0, and 50 is the
        // smallest raw % 101 that still fails).
        let result = catch_unwind(|| {
            check("shrinking_reaches_minimal", |src| {
                let v = src.u64_in(0, 100);
                assert!(v < 50, "counterexample {v}");
            });
        });
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("counterexample 50"), "shrink did not minimise: {msg:?}");
    }

    #[test]
    fn case_seeds_are_deterministic_and_name_keyed() {
        assert_eq!(case_seed("a", 0), case_seed("a", 0));
        assert_ne!(case_seed("a", 0), case_seed("a", 1));
        assert_ne!(case_seed("a", 0), case_seed("b", 0));
    }

    #[test]
    fn draws_respect_bounds() {
        check("draws_respect_bounds", |src| {
            let u = src.u64_in(5, 9);
            assert!((5..=9).contains(&u));
            let i = src.i64_in(-3, 3);
            assert!((-3..=3).contains(&i));
            let f = src.f64_in(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&f));
            let items = [10, 20, 30];
            assert!(items.contains(src.pick(&items)));
            let v = src.vec_of(2, 5, |s| s.u64_in(0, 1));
            assert!((2..=5).contains(&v.len()));
        });
    }

    #[test]
    fn replay_tape_out_of_bounds_yields_zero() {
        let mut src = Source::replaying(vec![7]);
        assert_eq!(src.raw(), 7);
        assert_eq!(src.raw(), 0);
        assert_eq!(src.u64_in(3, 9), 3, "exhausted tape draws the smallest value");
    }

    #[test]
    fn full_u64_range_is_reachable() {
        let mut src = Source::replaying(vec![u64::MAX, u64::MAX]);
        assert_eq!(src.u64_in(0, u64::MAX), u64::MAX);
        assert_eq!(src.i64_in(i64::MIN, i64::MAX), -1);
    }
}
