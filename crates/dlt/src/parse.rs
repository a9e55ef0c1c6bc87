//! Parser for `TRAIN` statements (the DLT half of the paper's Fig. 4).
//!
//! The criterion suffix uses the shared grammar of `rotary_core::parser`;
//! the command prefix is parsed here:
//!
//! ```text
//! TRAIN <model> [ON <dataset>] [BATCH <n>] [LR <x>] [<optimizer>] [PRETRAINED] <criterion>
//! ```
//!
//! ```
//! use rotary_dlt::parse::parse_train_statement;
//! let spec = parse_train_statement("TRAIN MobileNet ON CIFAR10 FOR 2 HOURS").unwrap();
//! assert_eq!(spec.config.arch.to_string(), "MobileNet");
//! ```

use rotary_core::error::{Result, RotaryError};
use rotary_core::parser::parse_statement;

use crate::models::{Architecture, Dataset, Optimizer};
use crate::simulator::TrainingConfig;
use crate::workload::DltJobSpec;

fn parse_err(input: &str, message: impl Into<String>) -> RotaryError {
    RotaryError::Parse { input: input.to_string(), message: message.into() }
}

/// Resolves a model name (case/punctuation-insensitive) to an architecture:
/// the first whose profile name or variant name spells the same ASCII
/// letters and digits, ignoring case. Allocation-free — every DLT
/// submission payload is decoded through it.
pub fn resolve_architecture(name: &str) -> Option<Architecture> {
    let spells = |candidate: &str| canon(candidate).eq(canon(name));
    Architecture::ALL.iter().copied().find(|&a| spells(a.profile().name) || spells(variant_name(a)))
}

/// A name's ASCII letters and digits, lowercased. A non-ASCII character's
/// UTF-8 bytes are all ≥ 0x80, so filtering bytes drops exactly what
/// filtering characters would.
fn canon(name: &str) -> impl Iterator<Item = u8> + '_ {
    name.bytes().filter(u8::is_ascii_alphanumeric).map(|b| b.to_ascii_lowercase())
}

/// The architecture's variant name as `{:?}` prints it — the spelling
/// submission payloads carry.
fn variant_name(arch: Architecture) -> &'static str {
    use Architecture::*;
    match arch {
        Inception => "Inception",
        MobileNet => "MobileNet",
        MobileNetV2 => "MobileNetV2",
        SqueezeNet => "SqueezeNet",
        ShuffleNet => "ShuffleNet",
        ShuffleNetV2 => "ShuffleNetV2",
        ResNet18 => "ResNet18",
        ResNet34 => "ResNet34",
        ResNeXt => "ResNeXt",
        EfficientNetB0 => "EfficientNetB0",
        LeNet => "LeNet",
        Vgg16 => "Vgg16",
        AlexNet => "AlexNet",
        ZfNet => "ZfNet",
        DenseNet121 => "DenseNet121",
        Lstm => "Lstm",
        BiLstm => "BiLstm",
        Bert => "Bert",
    }
}

fn resolve_dataset(name: &str) -> Option<Dataset> {
    match name.to_ascii_uppercase().replace(['-', '_'], "").as_str() {
        "CIFAR10" => Some(Dataset::Cifar10),
        "UDTREEBANK" | "UD" => Some(Dataset::UdTreebank),
        "IMDB" | "LARGEMOVIEREVIEW" => Some(Dataset::Imdb),
        _ => None,
    }
}

/// Resolves an optimizer name, ignoring ASCII case. Allocation-free.
pub fn resolve_optimizer(name: &str) -> Option<Optimizer> {
    Optimizer::ALL.into_iter().find(|o| o.name().eq_ignore_ascii_case(name))
}

/// Parses a full `TRAIN …` statement into a runnable job spec.
///
/// Defaults when a clause is omitted: the architecture's first Table II
/// batch size at the largest end (32 for CV, 64 for NLP), SGD at its
/// sweet-spot learning rate, training from scratch.
pub fn parse_train_statement(input: &str) -> Result<DltJobSpec> {
    let (command, criterion) = parse_statement(input)?;
    let tokens: Vec<&str> = command.split_whitespace().collect();
    if tokens.is_empty() || !tokens[0].eq_ignore_ascii_case("TRAIN") {
        return Err(parse_err(input, "a DLT statement starts with TRAIN"));
    }
    let Some(&model_token) = tokens.get(1) else {
        return Err(parse_err(input, "expected a model name after TRAIN"));
    };
    let arch = resolve_architecture(model_token).ok_or_else(|| {
        let known: Vec<&str> = Architecture::ALL.iter().map(|a| a.profile().name).collect();
        parse_err(
            input,
            format!("unknown model {model_token:?}; known models: {}", known.join(", ")),
        )
    })?;

    let mut batch_size = match arch.profile().domain {
        crate::models::Domain::Vision => 32,
        crate::models::Domain::Language => 64,
    };
    let mut optimizer = Optimizer::Sgd;
    let mut learning_rate = None;
    let mut pretrained = false;

    let mut i = 2;
    while i < tokens.len() {
        let t = tokens[i].to_ascii_uppercase();
        match t.as_str() {
            "ON" => {
                let Some(&ds) = tokens.get(i + 1) else {
                    return Err(parse_err(input, "expected a dataset after ON"));
                };
                let dataset = resolve_dataset(ds)
                    .ok_or_else(|| parse_err(input, format!("unknown dataset {ds:?}")))?;
                if dataset != arch.dataset() {
                    return Err(parse_err(
                        input,
                        format!(
                            "{} trains on {} in this workload, not {}",
                            arch,
                            arch.dataset().name(),
                            dataset.name()
                        ),
                    ));
                }
                i += 2;
            }
            "BATCH" => {
                let Some(n) = tokens.get(i + 1).and_then(|s| s.parse::<u32>().ok()) else {
                    return Err(parse_err(input, "expected a number after BATCH"));
                };
                if n == 0 {
                    return Err(parse_err(input, "batch size must be positive"));
                }
                batch_size = n;
                i += 2;
            }
            "LR" => {
                let Some(x) = tokens.get(i + 1).and_then(|s| s.parse::<f64>().ok()) else {
                    return Err(parse_err(input, "expected a number after LR"));
                };
                if !(x.is_finite() && x > 0.0) {
                    return Err(parse_err(input, "learning rate must be positive"));
                }
                learning_rate = Some(x);
                i += 2;
            }
            "PRETRAINED" | "FINETUNE" | "FINE-TUNE" => {
                if !arch.profile().pretrainable {
                    return Err(parse_err(
                        input,
                        format!("no pre-trained checkpoint exists for {arch}"),
                    ));
                }
                pretrained = true;
                i += 1;
            }
            other => match resolve_optimizer(other) {
                Some(opt) => {
                    optimizer = opt;
                    i += 1;
                }
                None => {
                    return Err(parse_err(input, format!("unexpected token {other:?}")));
                }
            },
        }
    }

    let learning_rate = learning_rate.unwrap_or_else(|| optimizer.sweet_spot_lr());
    Ok(DltJobSpec {
        config: TrainingConfig { arch, batch_size, optimizer, learning_rate, pretrained },
        criterion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rotary_core::criteria::{CompletionCriterion, Deadline};
    use rotary_core::SimTime;

    #[test]
    fn parses_paper_fig4_examples() {
        // Middle example (ResNet-50 shrinks to our ResNet variants; use -34).
        let s =
            parse_train_statement("TRAIN ResNet-34 ON CIFAR10 ACC DELTA 0.001 WITHIN 30 EPOCHS")
                .unwrap();
        assert_eq!(s.config.arch, Architecture::ResNet34);
        assert!(matches!(s.criterion, CompletionCriterion::Convergence { .. }));

        // Right example.
        let s = parse_train_statement("TRAIN MobileNet ON CIFAR10 FOR 2 HOURS").unwrap();
        assert_eq!(s.config.arch, Architecture::MobileNet);
        assert_eq!(
            s.criterion,
            CompletionCriterion::Runtime { runtime: Deadline::Time(SimTime::from_hours(2)) }
        );
    }

    #[test]
    fn hyperparameter_clauses() {
        let s = parse_train_statement(
            "TRAIN BERT ON IMDB BATCH 128 LR 0.0001 ADAM PRETRAINED ACC MIN 88% WITHIN 5 EPOCHS",
        )
        .unwrap();
        assert_eq!(s.config.arch, Architecture::Bert);
        assert_eq!(s.config.batch_size, 128);
        assert_eq!(s.config.learning_rate, 0.0001);
        assert_eq!(s.config.optimizer, Optimizer::Adam);
        assert!(s.config.pretrained);
    }

    #[test]
    fn defaults_are_sensible() {
        let s = parse_train_statement("TRAIN LeNet FOR 10 EPOCHS").unwrap();
        assert_eq!(s.config.batch_size, 32);
        assert_eq!(s.config.optimizer, Optimizer::Sgd);
        assert_eq!(s.config.learning_rate, Optimizer::Sgd.sweet_spot_lr());
        assert!(!s.config.pretrained);
    }

    #[test]
    fn model_name_resolution_is_fuzzy() {
        assert_eq!(resolve_architecture("resnet-18"), Some(Architecture::ResNet18));
        assert_eq!(resolve_architecture("RESNET18"), Some(Architecture::ResNet18));
        assert_eq!(resolve_architecture("Bi-LSTM"), Some(Architecture::BiLstm));
        assert_eq!(resolve_architecture("bert-small"), Some(Architecture::Bert));
        assert_eq!(resolve_architecture("gpt4"), None);
    }

    /// The allocating resolvers these replaced, kept as oracles.
    fn resolve_architecture_by_strings(name: &str) -> Option<Architecture> {
        let canon = |s: &str| -> String {
            s.chars().filter(char::is_ascii_alphanumeric).collect::<String>().to_ascii_lowercase()
        };
        let wanted = canon(name);
        Architecture::ALL
            .iter()
            .copied()
            .find(|a| canon(a.profile().name) == wanted || canon(&format!("{a:?}")) == wanted)
    }

    fn resolve_optimizer_by_strings(name: &str) -> Option<Optimizer> {
        match name.to_ascii_uppercase().as_str() {
            "SGD" => Some(Optimizer::Sgd),
            "ADAM" => Some(Optimizer::Adam),
            "ADAGRAD" => Some(Optimizer::Adagrad),
            "MOMENTUM" => Some(Optimizer::Momentum),
            _ => None,
        }
    }

    /// `name` in upper, lower, alternating and its own case, each with a
    /// `-`, `_` or space inserted at every position.
    fn spellings(name: &str) -> Vec<String> {
        let alternating: String = name
            .chars()
            .enumerate()
            .map(|(i, c)| if i % 2 == 0 { c.to_ascii_uppercase() } else { c.to_ascii_lowercase() })
            .collect();
        let mut out = Vec::new();
        for cased in
            [name.to_string(), name.to_ascii_uppercase(), name.to_ascii_lowercase(), alternating]
        {
            for sep in ['-', '_', ' '] {
                out.push(cased.replace(['-', '_', ' '], &sep.to_string()));
                for at in (0..=cased.len()).filter(|&at| cased.is_char_boundary(at)) {
                    out.push(format!("{}{sep}{}", &cased[..at], &cased[at..]));
                }
            }
            out.push(cased);
        }
        out
    }

    const GARBAGE: [&str; 16] = [
        "",
        "-",
        "gpt4",
        "ResNet-1",
        "ResNet-180",
        "lenet5x",
        "R\u{e9}sNet18",
        "ResNet18\u{e9}",
        "\u{ff32}\u{ff45}\u{ff53}\u{ff2e}\u{ff45}\u{ff54}18",
        "ResNet\u{301}-18",
        "\u{0}Bert",
        "\u{17f}gd",
        "ADAMW",
        "Adam ",
        "K",
        "Σ",
    ];

    #[test]
    fn name_resolution_agrees_with_the_allocating_oracle() {
        for arch in Architecture::ALL {
            assert_eq!(variant_name(arch), format!("{arch:?}"));
            for name in spellings(arch.profile().name).iter().chain(&spellings(variant_name(arch)))
            {
                assert_eq!(resolve_architecture(name), Some(arch), "{name:?}");
                assert_eq!(resolve_architecture(name), resolve_architecture_by_strings(name));
            }
        }
        for optimizer in Optimizer::ALL {
            for name in
                spellings(optimizer.name()).iter().chain(&spellings(&format!("{optimizer:?}")))
            {
                assert_eq!(resolve_optimizer(name), resolve_optimizer_by_strings(name), "{name:?}");
            }
            assert_eq!(resolve_optimizer(&optimizer.name().to_lowercase()), Some(optimizer));
        }
        for name in GARBAGE {
            assert_eq!(
                resolve_architecture(name),
                resolve_architecture_by_strings(name),
                "{name:?}"
            );
            assert_eq!(resolve_optimizer(name), resolve_optimizer_by_strings(name), "{name:?}");
        }
    }

    #[test]
    fn helpful_errors() {
        let e = parse_train_statement("TRAIN Transformer FOR 1 HOURS").unwrap_err();
        assert!(e.to_string().contains("known models"));

        let e = parse_train_statement("TRAIN BERT ON CIFAR10 FOR 1 HOURS").unwrap_err();
        assert!(e.to_string().contains("trains on IMDB"));

        let e = parse_train_statement("TRAIN LeNet PRETRAINED FOR 1 HOURS").unwrap_err();
        assert!(e.to_string().contains("no pre-trained checkpoint"));

        assert!(parse_train_statement("EVAL LeNet FOR 1 HOURS").is_err());
        assert!(parse_train_statement("TRAIN LeNet BATCH zero FOR 1 HOURS").is_err());
        assert!(parse_train_statement("TRAIN LeNet WIBBLE FOR 1 HOURS").is_err());
    }

    #[test]
    fn time_budget_statement_runs_end_to_end() {
        use crate::system::{DltPolicy, DltSystem, DltSystemConfig};
        use rotary_core::progress::Objective;
        let spec = parse_train_statement("TRAIN LeNet FOR 600 SECONDS").unwrap();
        let mut sys = DltSystem::new(DltSystemConfig { seed: 1, ..Default::default() });
        let r = sys.run(&[spec], DltPolicy::Rotary(Objective::Efficiency));
        let (_, state) = &r.jobs[0];
        assert_eq!(state.status, rotary_core::job::JobStatus::Attained);
        // The job stops at the first epoch boundary at or past 600 s.
        let done = state.finished_at.unwrap();
        assert!(done >= SimTime::from_secs(600));
        assert!(done < SimTime::from_secs(900), "stopped promptly: {done}");
    }
}
