//! The model zoo of Table II.
//!
//! All seventeen architectures from the survey workload, using the shrunk
//! variants the paper trains ("ResNet-18, ResNet-34, DenseNet-121" etc., so
//! each fits a single 8 GB GPU). Parameter counts are the published sizes
//! of the variants; per-step base costs are relative compute weights used
//! by the training simulator's time model. CV models train on CIFAR-10, the
//! NLP models on UD Treebank (LSTM/Bi-LSTM tagging) or the Large Movie
//! Review dataset (BERT sentiment), as in Table II.

/// Task family of a model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Computer vision (CIFAR-10).
    Vision,
    /// Natural language processing (UD Treebank / Large Movie Review).
    Language,
}

/// A dataset a job trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// 50 000 training images, 10 classes.
    Cifar10,
    /// Universal Dependencies treebank (~12 000 sentences).
    UdTreebank,
    /// Large Movie Review Dataset (25 000 training reviews).
    Imdb,
}

impl Dataset {
    /// Every dataset.
    pub const ALL: [Dataset; 3] = [Dataset::Cifar10, Dataset::UdTreebank, Dataset::Imdb];

    /// Training-set size in samples.
    pub fn train_samples(self) -> u64 {
        match self {
            Dataset::Cifar10 => 50_000,
            Dataset::UdTreebank => 12_000,
            Dataset::Imdb => 25_000,
        }
    }

    /// Table name for display.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Cifar10 => "CIFAR-10",
            Dataset::UdTreebank => "UD Treebank",
            Dataset::Imdb => "IMDB",
        }
    }
}

/// A model architecture from Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Architecture {
    Inception,
    MobileNet,
    MobileNetV2,
    SqueezeNet,
    ShuffleNet,
    ShuffleNetV2,
    ResNet18,
    ResNet34,
    ResNeXt,
    EfficientNetB0,
    LeNet,
    Vgg16,
    AlexNet,
    ZfNet,
    DenseNet121,
    Lstm,
    BiLstm,
    Bert,
}

/// Static properties of an architecture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelProfile {
    /// Display name.
    pub name: &'static str,
    /// Task family.
    pub domain: Domain,
    /// Learnable parameters, in millions (published variant sizes).
    pub params_m: f64,
    /// Activation memory per sample, in MB (drives batch-size→memory).
    pub activation_mb_per_sample: f64,
    /// Milliseconds per optimisation step at batch 32 on the reference GPU
    /// (RTX 2080-class), before batch-size scaling.
    pub base_step_ms: f64,
    /// Best validation accuracy the architecture can reach on its dataset
    /// with well-chosen hyperparameters.
    pub peak_accuracy: f64,
    /// Convergence rate: roughly the reciprocal of the number of epochs to
    /// close half the remaining gap to the peak.
    pub base_rate: f64,
    /// Whether a pre-trained checkpoint is available (BERT, VGG, ResNet in
    /// the paper).
    pub pretrainable: bool,
}

impl Architecture {
    /// All Table II architectures.
    pub const ALL: [Architecture; 18] = [
        Architecture::Inception,
        Architecture::MobileNet,
        Architecture::MobileNetV2,
        Architecture::SqueezeNet,
        Architecture::ShuffleNet,
        Architecture::ShuffleNetV2,
        Architecture::ResNet18,
        Architecture::ResNet34,
        Architecture::ResNeXt,
        Architecture::EfficientNetB0,
        Architecture::LeNet,
        Architecture::Vgg16,
        Architecture::AlexNet,
        Architecture::ZfNet,
        Architecture::DenseNet121,
        Architecture::Lstm,
        Architecture::BiLstm,
        Architecture::Bert,
    ];

    /// The architecture's static profile.
    pub fn profile(self) -> ModelProfile {
        use Architecture::*;
        use Domain::*;
        match self {
            Inception => ModelProfile {
                name: "Inception-v1",
                domain: Vision,
                params_m: 6.6,
                activation_mb_per_sample: 9.0,
                base_step_ms: 95.0,
                peak_accuracy: 0.918,
                base_rate: 0.12,
                pretrainable: false,
            },
            MobileNet => ModelProfile {
                name: "MobileNet",
                domain: Vision,
                params_m: 4.2,
                activation_mb_per_sample: 5.0,
                base_step_ms: 48.0,
                peak_accuracy: 0.902,
                base_rate: 0.15,
                pretrainable: false,
            },
            MobileNetV2 => ModelProfile {
                name: "MobileNetV2",
                domain: Vision,
                params_m: 3.5,
                activation_mb_per_sample: 6.0,
                base_step_ms: 52.0,
                peak_accuracy: 0.915,
                base_rate: 0.14,
                pretrainable: false,
            },
            SqueezeNet => ModelProfile {
                name: "SqueezeNet",
                domain: Vision,
                params_m: 1.2,
                activation_mb_per_sample: 4.0,
                base_step_ms: 35.0,
                peak_accuracy: 0.885,
                base_rate: 0.16,
                pretrainable: false,
            },
            ShuffleNet => ModelProfile {
                name: "ShuffleNet",
                domain: Vision,
                params_m: 1.9,
                activation_mb_per_sample: 4.5,
                base_step_ms: 40.0,
                peak_accuracy: 0.898,
                base_rate: 0.15,
                pretrainable: false,
            },
            ShuffleNetV2 => ModelProfile {
                name: "ShuffleNetV2",
                domain: Vision,
                params_m: 2.3,
                activation_mb_per_sample: 4.5,
                base_step_ms: 38.0,
                peak_accuracy: 0.906,
                base_rate: 0.16,
                pretrainable: false,
            },
            ResNet18 => ModelProfile {
                name: "ResNet-18",
                domain: Vision,
                params_m: 11.7,
                activation_mb_per_sample: 7.0,
                base_step_ms: 60.0,
                peak_accuracy: 0.932,
                base_rate: 0.13,
                pretrainable: true,
            },
            ResNet34 => ModelProfile {
                name: "ResNet-34",
                domain: Vision,
                params_m: 21.8,
                activation_mb_per_sample: 9.5,
                base_step_ms: 92.0,
                peak_accuracy: 0.938,
                base_rate: 0.115,
                pretrainable: true,
            },
            ResNeXt => ModelProfile {
                name: "ResNeXt-29",
                domain: Vision,
                params_m: 25.0,
                activation_mb_per_sample: 11.0,
                base_step_ms: 140.0,
                peak_accuracy: 0.941,
                base_rate: 0.10,
                pretrainable: false,
            },
            EfficientNetB0 => ModelProfile {
                name: "EfficientNet-B0",
                domain: Vision,
                params_m: 5.3,
                activation_mb_per_sample: 8.0,
                base_step_ms: 85.0,
                peak_accuracy: 0.930,
                base_rate: 0.11,
                pretrainable: false,
            },
            LeNet => ModelProfile {
                name: "LeNet-5",
                domain: Vision,
                params_m: 0.06,
                activation_mb_per_sample: 0.5,
                base_step_ms: 6.0,
                peak_accuracy: 0.755,
                base_rate: 0.25,
                pretrainable: false,
            },
            Vgg16 => ModelProfile {
                name: "VGG-16",
                domain: Vision,
                params_m: 138.0,
                activation_mb_per_sample: 15.0,
                base_step_ms: 160.0,
                peak_accuracy: 0.925,
                base_rate: 0.10,
                pretrainable: true,
            },
            AlexNet => ModelProfile {
                name: "AlexNet",
                domain: Vision,
                params_m: 61.0,
                activation_mb_per_sample: 6.0,
                base_step_ms: 55.0,
                peak_accuracy: 0.865,
                base_rate: 0.14,
                pretrainable: false,
            },
            ZfNet => ModelProfile {
                name: "ZFNet",
                domain: Vision,
                params_m: 62.0,
                activation_mb_per_sample: 6.5,
                base_step_ms: 60.0,
                peak_accuracy: 0.872,
                base_rate: 0.13,
                pretrainable: false,
            },
            DenseNet121 => ModelProfile {
                name: "DenseNet-121",
                domain: Vision,
                params_m: 8.0,
                activation_mb_per_sample: 13.0,
                base_step_ms: 130.0,
                peak_accuracy: 0.940,
                base_rate: 0.105,
                pretrainable: false,
            },
            Lstm => ModelProfile {
                name: "LSTM",
                domain: Language,
                params_m: 8.5,
                activation_mb_per_sample: 2.0,
                // Recurrent steps serialise over the sequence dimension:
                // far slower per sample than CNN steps.
                base_step_ms: 140.0,
                peak_accuracy: 0.935,
                base_rate: 0.45,
                pretrainable: false,
            },
            BiLstm => ModelProfile {
                name: "Bi-LSTM",
                domain: Language,
                params_m: 15.0,
                activation_mb_per_sample: 3.5,
                base_step_ms: 240.0,
                peak_accuracy: 0.948,
                base_rate: 0.42,
                pretrainable: false,
            },
            Bert => ModelProfile {
                name: "BERT-small",
                domain: Language,
                params_m: 110.0,
                activation_mb_per_sample: 8.0,
                base_step_ms: 210.0,
                peak_accuracy: 0.912,
                base_rate: 0.55,
                pretrainable: true,
            },
        }
    }

    /// The dataset this architecture trains on in the Table II workload.
    pub fn dataset(self) -> Dataset {
        match self {
            Architecture::Bert => Dataset::Imdb,
            Architecture::Lstm | Architecture::BiLstm => Dataset::UdTreebank,
            _ => Dataset::Cifar10,
        }
    }

    /// Table II batch-size space: small for CV (per the cited empirical
    /// study), larger for NLP.
    pub fn batch_sizes(self) -> &'static [u32] {
        match self.profile().domain {
            Domain::Vision => &[2, 4, 8, 16, 32],
            Domain::Language => &[32, 64, 128, 256],
        }
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.profile().name)
    }
}

/// Optimizers of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Optimizer {
    Sgd,
    Adam,
    Adagrad,
    Momentum,
}

impl Optimizer {
    /// All Table II optimizers.
    pub const ALL: [Optimizer; 4] =
        [Optimizer::Sgd, Optimizer::Adam, Optimizer::Adagrad, Optimizer::Momentum];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Optimizer::Sgd => "SGD",
            Optimizer::Adam => "Adam",
            Optimizer::Adagrad => "Adagrad",
            Optimizer::Momentum => "Momentum",
        }
    }

    /// Extra parameter-state copies the optimizer keeps in GPU memory
    /// (momentum buffers, Adam moments, …), as a multiple of the weights.
    pub fn state_copies(self) -> f64 {
        match self {
            Optimizer::Sgd => 0.0,
            Optimizer::Momentum => 1.0,
            Optimizer::Adagrad => 1.0,
            Optimizer::Adam => 2.0,
        }
    }

    /// The learning rate at which this optimizer performs best in the
    /// simulator's effectiveness model.
    pub fn sweet_spot_lr(self) -> f64 {
        match self {
            Optimizer::Sgd | Optimizer::Momentum => 0.01,
            Optimizer::Adam => 0.001,
            Optimizer::Adagrad => 0.01,
        }
    }
}

/// Table II learning-rate space.
pub const LEARNING_RATES: [f64; 5] = [0.1, 0.01, 0.001, 0.0001, 0.00001];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_covers_table_two() {
        assert_eq!(Architecture::ALL.len(), 18);
        let nlp =
            Architecture::ALL.iter().filter(|a| a.profile().domain == Domain::Language).count();
        assert_eq!(nlp, 3, "LSTM, Bi-LSTM, BERT");
    }

    #[test]
    fn parameter_counts_are_published_sizes() {
        assert_eq!(Architecture::ResNet18.profile().params_m, 11.7);
        assert_eq!(Architecture::Vgg16.profile().params_m, 138.0);
        assert_eq!(Architecture::Bert.profile().params_m, 110.0);
        assert!(Architecture::LeNet.profile().params_m < 0.1);
    }

    #[test]
    fn datasets_match_domains() {
        for a in Architecture::ALL {
            match a.profile().domain {
                Domain::Vision => assert_eq!(a.dataset(), Dataset::Cifar10),
                Domain::Language => assert_ne!(a.dataset(), Dataset::Cifar10),
            }
        }
        assert_eq!(Architecture::Bert.dataset(), Dataset::Imdb);
        assert!(Dataset::Cifar10.train_samples() > Dataset::UdTreebank.train_samples());
    }

    #[test]
    fn batch_size_spaces_match_table_two() {
        assert_eq!(Architecture::ResNet18.batch_sizes(), &[2, 4, 8, 16, 32]);
        assert_eq!(Architecture::Bert.batch_sizes(), &[32, 64, 128, 256]);
    }

    #[test]
    fn pretrained_availability_matches_paper() {
        // "We also have pre-trained versions of BERT, VGG, and ResNet".
        for a in [
            Architecture::Bert,
            Architecture::Vgg16,
            Architecture::ResNet18,
            Architecture::ResNet34,
        ] {
            assert!(a.profile().pretrainable, "{a}");
        }
        assert!(!Architecture::LeNet.profile().pretrainable);
    }

    #[test]
    fn optimizer_state_and_sweet_spots() {
        assert_eq!(Optimizer::Sgd.state_copies(), 0.0);
        assert_eq!(Optimizer::Adam.state_copies(), 2.0);
        assert_eq!(Optimizer::Adam.sweet_spot_lr(), 0.001);
        assert_eq!(Optimizer::ALL.len(), 4);
    }

    #[test]
    fn profiles_are_sane() {
        for a in Architecture::ALL {
            let p = a.profile();
            assert!(p.params_m > 0.0, "{a}");
            assert!(p.base_step_ms > 0.0, "{a}");
            assert!((0.5..1.0).contains(&p.peak_accuracy), "{a}");
            assert!(p.base_rate > 0.0, "{a}");
            assert!(p.activation_mb_per_sample > 0.0, "{a}");
        }
    }
}
