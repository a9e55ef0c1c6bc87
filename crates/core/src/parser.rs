//! Parser for the completion-criteria surface syntax (paper Fig. 3–4).
//!
//! Completion criteria are "add-ons to the regular query and training
//! commands and should be orthogonal to the execution of AQP and DLT without
//! modifying the original command parsers". Accordingly, [`parse_statement`]
//! splits a full statement into the *command prefix* (handed verbatim to the
//! execution platform) and the parsed [`CompletionCriterion`] suffix:
//!
//! ```
//! use rotary_core::parser::parse_statement;
//! use rotary_core::criteria::CompletionCriterion;
//!
//! let (cmd, crit) = parse_statement(
//!     "SELECT AVG(PROFIT) FROM O WHERE CUSTOMERID='cust1' \
//!      ACC MIN 95% WITHIN 3600 SECONDS",
//! ).unwrap();
//! assert_eq!(cmd, "SELECT AVG(PROFIT) FROM O WHERE CUSTOMERID='cust1'");
//! assert!(matches!(crit, CompletionCriterion::Accuracy { .. }));
//! ```

use crate::criteria::{CompletionCriterion, Deadline, Metric};
use crate::error::{Result, RotaryError};
use crate::time::SimTime;

/// Splits a statement into the command prefix and its completion criterion.
///
/// The criterion clause is recognised as the *last* occurrence of one of the
/// three templates:
///
/// * `<metric> MIN <threshold> WITHIN <deadline>`
/// * `<metric> DELTA <delta> WITHIN <deadline>`
/// * `FOR <runtime>`
///
/// so that `FOR`/`MIN` tokens inside the command itself (e.g. a SQL `FOR
/// UPDATE` or column named `MIN`) do not confuse the split — the clause must
/// parse cleanly to the end of the statement.
pub fn parse_statement(input: &str) -> Result<(String, CompletionCriterion)> {
    let tokens: Vec<&str> = input.split_whitespace().collect();
    if tokens.is_empty() {
        return Err(err(input, "empty statement"));
    }
    // Scan candidate split points from the right: the criterion clause is a
    // suffix of the token stream.
    for start in (0..tokens.len()).rev() {
        if let Ok(criterion) = parse_clause(&tokens[start..]) {
            let command = tokens[..start].join(" ");
            if command.is_empty() {
                return Err(err(input, "statement has a criterion but no command"));
            }
            return Ok((command, criterion));
        }
    }
    Err(err(
        input,
        "no completion criterion found; expected `<metric> MIN|DELTA … WITHIN …` or `FOR …`",
    ))
}

/// Parses a bare criterion clause (no command prefix), e.g.
/// `ACC DELTA 0.001 WITHIN 30 EPOCHS`.
pub fn parse_criterion(input: &str) -> Result<CompletionCriterion> {
    let tokens: Vec<&str> = input.split_whitespace().collect();
    parse_clause(&tokens).map_err(|e| match e {
        RotaryError::Parse { message, .. } => err(input, &message),
        other => other,
    })
}

fn parse_clause(tokens: &[&str]) -> Result<CompletionCriterion> {
    match tokens {
        // FOR <n> <unit>
        [kw, n, unit] if kw.eq_ignore_ascii_case("FOR") => {
            Ok(CompletionCriterion::Runtime { runtime: parse_deadline(n, unit)? })
        }
        // <metric> MIN <threshold> WITHIN <n> <unit>
        [metric, op, value, within, n, unit]
            if op.eq_ignore_ascii_case("MIN") && within.eq_ignore_ascii_case("WITHIN") =>
        {
            let metric = Metric::from_keyword(metric);
            validate_metric(&metric, tokens)?;
            Ok(CompletionCriterion::Accuracy {
                threshold: parse_value(value, &metric)?,
                metric,
                deadline: parse_deadline(n, unit)?,
            })
        }
        // <metric> DELTA <delta> WITHIN <n> <unit>
        [metric, op, value, within, n, unit]
            if op.eq_ignore_ascii_case("DELTA") && within.eq_ignore_ascii_case("WITHIN") =>
        {
            let metric = Metric::from_keyword(metric);
            validate_metric(&metric, tokens)?;
            Ok(CompletionCriterion::Convergence {
                delta: parse_value(value, &metric)?,
                metric,
                deadline: parse_deadline(n, unit)?,
            })
        }
        _ => Err(err(&tokens.join(" "), "not a criterion clause")),
    }
}

/// Rejects metric keywords that are clearly fragments of the command (pure
/// punctuation / SQL operators), which would otherwise let the right-to-left
/// scan steal command tokens into a bogus `Custom` metric.
fn validate_metric(metric: &Metric, tokens: &[&str]) -> Result<()> {
    if let Metric::Custom(name) = metric {
        let ok = !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
        if !ok {
            return Err(err(&tokens.join(" "), "metric keyword must be alphanumeric"));
        }
    }
    Ok(())
}

/// Parses a threshold/delta. Percentages (`95%`) are accepted for any metric
/// and divided by 100; bare numbers are taken at face value.
fn parse_value(token: &str, metric: &Metric) -> Result<f64> {
    let (body, percent) = match token.strip_suffix('%') {
        Some(b) => (b, true),
        None => (token, false),
    };
    let raw: f64 = body.parse().map_err(|_| err(token, "expected a number like 0.95 or 95%"))?;
    let value = if percent { raw / 100.0 } else { raw };
    // Ratio metrics live in [0,1]; this also catches `ACC MIN 95` (missing
    // the `%`).
    metric.check_value(value).map_err(|message| err(token, message))?;
    Ok(value)
}

fn parse_deadline(n: &str, unit: &str) -> Result<Deadline> {
    let count: f64 = n.parse().map_err(|_| err(n, "expected a number before the time unit"))?;
    let deadline = match unit.to_ascii_uppercase().as_str() {
        "EPOCH" | "EPOCHS" => {
            if count.fract() != 0.0 {
                return Err(err(n, "epoch counts must be whole numbers"));
            }
            Deadline::Epochs(count as u64)
        }
        "SECOND" | "SECONDS" | "SEC" | "SECS" | "S" => {
            Deadline::Time(SimTime::from_secs_f64(count))
        }
        "MINUTE" | "MINUTES" | "MIN" | "MINS" => {
            Deadline::Time(SimTime::from_secs_f64(count * 60.0))
        }
        "HOUR" | "HOURS" | "H" | "HR" | "HRS" => {
            Deadline::Time(SimTime::from_secs_f64(count * 3600.0))
        }
        other => return Err(err(other, "expected EPOCHS, SECONDS, MINUTES, or HOURS")),
    };
    // Zero, negative and sub-millisecond counts all land on a zero deadline
    // (`as u64` saturates, `from_secs_f64` clamps and rounds).
    deadline.check().map_err(|message| err(n, message))?;
    Ok(deadline)
}

fn err(input: &str, message: &str) -> RotaryError {
    let mut input = input.to_owned();
    if input.len() > 120 {
        input.truncate(117);
        input.push_str("...");
    }
    RotaryError::Parse { input, message: message.to_owned() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_fig4_left_example() {
        let (cmd, crit) = parse_statement(
            "SELECT AVG(PROFIT) FROM O WHERE CUSTOMERID='cust1' ACC MIN 95% WITHIN 3600 SECONDS",
        )
        .unwrap();
        assert_eq!(cmd, "SELECT AVG(PROFIT) FROM O WHERE CUSTOMERID='cust1'");
        assert_eq!(
            crit,
            CompletionCriterion::Accuracy {
                metric: Metric::Accuracy,
                threshold: 0.95,
                deadline: Deadline::Time(SimTime::from_secs(3600)),
            }
        );
    }

    #[test]
    fn parses_paper_fig4_middle_example() {
        let (cmd, crit) =
            parse_statement("TRAIN ResNet-50 ON CIFAR10 ACC DELTA 0.001 WITHIN 30 EPOCHS").unwrap();
        assert_eq!(cmd, "TRAIN ResNet-50 ON CIFAR10");
        assert_eq!(
            crit,
            CompletionCriterion::Convergence {
                metric: Metric::Accuracy,
                delta: 0.001,
                deadline: Deadline::Epochs(30),
            }
        );
    }

    #[test]
    fn parses_paper_fig4_right_example() {
        let (cmd, crit) = parse_statement("TRAIN MobileNet ON CIFAR10 FOR 2 HOURS").unwrap();
        assert_eq!(cmd, "TRAIN MobileNet ON CIFAR10");
        assert_eq!(
            crit,
            CompletionCriterion::Runtime { runtime: Deadline::Time(SimTime::from_hours(2)) }
        );
    }

    #[test]
    fn runtime_in_epochs() {
        let (_, crit) = parse_statement("TRAIN LeNet ON CIFAR10 FOR 100 EPOCHS").unwrap();
        assert_eq!(crit, CompletionCriterion::Runtime { runtime: Deadline::Epochs(100) });
    }

    #[test]
    fn custom_metric_and_loss() {
        let (_, crit) =
            parse_statement("TRAIN BERT ON IMDB PERPLEXITY MIN 12.5 WITHIN 4 HOURS").unwrap();
        assert!(matches!(
            crit,
            CompletionCriterion::Accuracy { metric: Metric::Perplexity, threshold, .. }
            if (threshold - 12.5).abs() < 1e-12
        ));

        let (_, crit) =
            parse_statement("TRAIN LSTM ON UD LOSS DELTA 0.01 WITHIN 20 EPOCHS").unwrap();
        assert!(matches!(crit, CompletionCriterion::Convergence { metric: Metric::Loss, .. }));
    }

    #[test]
    fn case_insensitive_keywords() {
        let (_, crit) = parse_statement("select * from t acc min 80% within 10 minutes").unwrap();
        assert_eq!(
            crit,
            CompletionCriterion::Accuracy {
                metric: Metric::Accuracy,
                threshold: 0.8,
                deadline: Deadline::Time(SimTime::from_mins(10)),
            }
        );
    }

    #[test]
    fn for_inside_command_does_not_confuse_split() {
        // `FOR` appears in the command; only the trailing clause parses.
        let (cmd, crit) = parse_statement("SELECT X FROM T FOR UPDATE FOR 6 HOURS").unwrap();
        assert_eq!(cmd, "SELECT X FROM T FOR UPDATE");
        assert_eq!(
            crit,
            CompletionCriterion::Runtime { runtime: Deadline::Time(SimTime::from_hours(6)) }
        );
    }

    #[test]
    fn rejects_missing_criterion() {
        assert!(parse_statement("SELECT * FROM LINEITEM").is_err());
        assert!(parse_statement("").is_err());
    }

    #[test]
    fn rejects_bare_criterion_without_command() {
        assert!(parse_statement("FOR 2 HOURS").is_err());
    }

    #[test]
    fn rejects_accuracy_above_one_without_percent() {
        assert!(parse_statement("TRAIN X ON Y ACC MIN 95 WITHIN 10 EPOCHS").is_err());
    }

    #[test]
    fn rejects_bad_numbers_and_units() {
        assert!(parse_criterion("ACC MIN banana WITHIN 10 EPOCHS").is_err());
        assert!(parse_criterion("ACC MIN 90% WITHIN ten EPOCHS").is_err());
        assert!(parse_criterion("ACC MIN 90% WITHIN 10 FORTNIGHTS").is_err());
        assert!(parse_criterion("FOR -2 HOURS").is_err());
        assert!(parse_criterion("FOR 1.5 EPOCHS").is_err());
        // The value rule shared with the wire decoder.
        assert!(parse_criterion("FOR 0 EPOCHS").is_err());
        assert!(parse_criterion("FOR 0.0004 SECONDS").is_err(), "rounds to 0 ms");
        assert!(parse_criterion("ACC MIN NaN WITHIN 10 EPOCHS").is_err());
        assert!(parse_criterion("LOSS MIN inf WITHIN 10 EPOCHS").is_err());
        assert!(parse_criterion("LOSS DELTA -1 WITHIN 10 EPOCHS").is_err());
        assert!(parse_criterion("F1 DELTA 150% WITHIN 10 EPOCHS").is_err());
    }

    #[test]
    fn fractional_time_deadlines_allowed() {
        let c = parse_criterion("FOR 0.5 HOURS").unwrap();
        assert_eq!(
            c,
            CompletionCriterion::Runtime { runtime: Deadline::Time(SimTime::from_mins(30)) }
        );
    }

    #[test]
    fn display_parse_round_trip() {
        for text in [
            "ACC MIN 95% WITHIN 1 HOURS",
            "ACC DELTA 0.001 WITHIN 30 EPOCHS",
            "FOR 2 HOURS",
            "LOSS DELTA 0.05 WITHIN 90 SECONDS",
            "F1 MIN 85% WITHIN 25 EPOCHS",
        ] {
            let parsed = parse_criterion(text).unwrap();
            let reparsed = parse_criterion(&parsed.to_string()).unwrap();
            assert_eq!(parsed, reparsed, "round-trip failed for {text}");
        }
    }
}
