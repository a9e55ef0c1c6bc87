//! Experiment harnesses that regenerate every table and figure of the
//! Rotary paper, plus the timing benches.
//!
//! Figs 6–10 and the two ablations come from one table of runs, views and
//! claims ([`figures`]), judged over a declared seed population: the
//! `figures` binary writes `FIGURES.json` and renders `EXPERIMENTS.md`'s
//! tables from it. `fig1a`, `fig1b`, `fig11` and `table1`–`table3` are one
//! binary each, printing the paper's rows next to the measured ones.

#![warn(missing_docs)]

pub mod codec;
pub mod figures;
pub mod timing;

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
}
