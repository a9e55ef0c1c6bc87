//! Shared helpers for the experiment harnesses that regenerate every table
//! and figure of the Rotary paper. Each binary under `src/bin/` prints the
//! paper's rows/series next to the values measured in this reproduction;
//! `EXPERIMENTS.md` records both.

#![warn(missing_docs)]

pub mod codec;
pub mod timing;

use rotary_sim::metrics::Distribution;

/// Seeds used when an experiment averages over independent runs (the paper
/// averages DLT results over 3 runs).
pub const SEEDS: [u64; 3] = [11, 23, 47];

/// Renders a unicode bar of `value` out of `max` with the given width.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let filled = ((value / max) * width as f64).round().max(0.0) as usize;
    let mut s = "█".repeat(filled.min(width));
    s.push_str(&"·".repeat(width.saturating_sub(filled)));
    s
}

/// Formats a five-number distribution summary on one line (a text violin).
pub fn violin(d: &Distribution) -> String {
    format!(
        "min {:>5.2}  q1 {:>5.2}  med {:>5.2}  q3 {:>5.2}  max {:>5.2}  mean {:>5.2}",
        d.min, d.q1, d.median, d.q3, d.max, d.mean
    )
}

/// Unwraps a harness-setup result, exiting with a one-line message on
/// failure. Experiment binaries drive fixed built-in workloads, so a
/// failure here means the environment is broken — there is nothing to
/// recover, but the exit should name the step rather than panic.
pub fn must<T, E: std::fmt::Display>(what: &str, result: Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{what}: {e}");
            std::process::exit(1);
        }
    }
}

/// Mean of a slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Prints the standard experiment header.
pub fn header(id: &str, claim: &str) {
    println!("════════════════════════════════════════════════════════════════════");
    println!("{id}");
    println!("paper claim: {claim}");
    println!("════════════════════════════════════════════════════════════════════");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "█████·····");
        assert_eq!(bar(10.0, 10.0, 4), "████");
        assert_eq!(bar(0.0, 10.0, 4), "····");
        assert_eq!(bar(1.0, 0.0, 4), "");
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn violin_formats() {
        let d = Distribution::of(&[0.0, 0.5, 1.0]).unwrap();
        let s = violin(&d);
        assert!(s.contains("med"));
        assert!(s.contains("0.50"));
    }
}
