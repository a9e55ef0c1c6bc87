//! The deep-learning-training simulator — the TensorFlow stand-in.
//!
//! Rotary-DLT never inspects the training loop: it observes `(epoch,
//! accuracy)` pairs, per-step wall times, and GPU memory footprints. This
//! module emits all three with the qualitative behaviour of real training
//! (and of the paper's Fig. 1b): saturating accuracy curves with fast early
//! gains and a plateau, hyperparameter-dependent peaks and rates, per-step
//! times that grow with model and batch size, a CUDA warm-up spike on the
//! first step, and memory that is affine in the batch size.
//!
//! The curve model is `acc(e) = peak − (peak − start) · exp(−rate · e)`
//! with evaluation noise. `peak` and `rate` degrade as the learning rate
//! moves away from the optimizer's sweet spot (a log-normal effectiveness
//! kernel), so the randomized hyperparameters of Table II produce the full
//! range from well-tuned runs to barely-learning ones. Pre-trained models
//! (fine-tuning jobs) start high and converge in a handful of epochs.

use rotary_core::SimTime;
use rotary_sim::rng::{sample_normal, Rng};

use crate::models::{Architecture, Optimizer};

/// Standard deviation of the per-epoch evaluation noise.
const EVAL_NOISE_STD: f64 = 0.003;
/// Accuracy of an untrained 10-class classifier / fresh tagger.
const COLD_START_ACCURACY: f64 = 0.1;
/// CUDA warm-up cost of the very first training step of a job (the paper's
/// TTR discards this step).
pub const CUDA_WARMUP: SimTime = SimTime::from_millis(2000);

/// Hyperparameters of one training job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// The architecture.
    pub arch: Architecture,
    /// Mini-batch size.
    pub batch_size: u32,
    /// The optimizer.
    pub optimizer: Optimizer,
    /// The learning rate.
    pub learning_rate: f64,
    /// Fine-tuning from a pre-trained checkpoint.
    pub pretrained: bool,
}

impl TrainingConfig {
    /// How effective this hyperparameter combination is, in `(0, 1]`:
    /// a log-normal kernel around the optimizer's sweet-spot learning rate.
    pub fn effectiveness(&self) -> f64 {
        let sweet = self.optimizer.sweet_spot_lr();
        let distance = (self.learning_rate / sweet).ln();
        // One order of magnitude off ≈ 0.66, two ≈ 0.19.
        let sigma = std::f64::consts::LN_10 * 1.1;
        (-(distance * distance) / (2.0 * sigma * sigma)).exp()
    }

    /// The accuracy this configuration converges to (noise-free).
    pub fn effective_peak(&self) -> f64 {
        let p = self.arch.profile();
        // Badly tuned jobs plateau well below the architecture's potential.
        p.peak_accuracy * (0.45 + 0.55 * self.effectiveness())
    }

    /// Per-epoch convergence rate (noise-free).
    pub fn effective_rate(&self) -> f64 {
        let p = self.arch.profile();
        let pretrain_boost = if self.pretrained { 4.0 } else { 1.0 };
        (p.base_rate * (0.3 + 0.7 * self.effectiveness()) * pretrain_boost).max(1e-3)
    }

    /// Starting accuracy (epoch 0).
    pub fn start_accuracy(&self) -> f64 {
        if self.pretrained {
            // A pre-trained checkpoint is already most of the way there.
            0.8 * self.effective_peak()
        } else {
            COLD_START_ACCURACY
        }
    }

    /// The noise-free accuracy after `epoch` epochs.
    pub fn accuracy_curve(&self, epoch: u64) -> f64 {
        let peak = self.effective_peak();
        let start = self.start_accuracy();
        peak - (peak - start) * (-self.effective_rate() * epoch as f64).exp()
    }

    /// The (noise-free) number of epochs to reach `target` accuracy, or
    /// `None` if the configuration plateaus below it.
    pub fn epochs_to_accuracy(&self, target: f64) -> Option<u64> {
        let peak = self.effective_peak();
        let start = self.start_accuracy();
        if target <= start {
            return Some(0);
        }
        // Leave room for evaluation noise: a target within one noise band
        // of the asymptote is effectively unreachable.
        if target >= peak - 2.0 * EVAL_NOISE_STD {
            return None;
        }
        let e = -((peak - target) / (peak - start)).ln() / self.effective_rate();
        Some(e.ceil().max(0.0) as u64)
    }

    /// Peak GPU memory of this job, in MB: weights + gradients + optimizer
    /// state (4 bytes per parameter each) + activations (affine in batch
    /// size) + framework/CUDA overhead.
    pub fn memory_mb(&self) -> u64 {
        let p = self.arch.profile();
        let param_copies = 2.0 + self.optimizer.state_copies();
        let params_mb = p.params_m * 4.0 * param_copies;
        let activations_mb = p.activation_mb_per_sample * self.batch_size as f64;
        (params_mb + activations_mb + 600.0).ceil() as u64
    }

    /// Optimisation steps per epoch.
    pub fn steps_per_epoch(&self) -> u64 {
        let samples = self.arch.dataset().train_samples();
        samples.div_ceil(self.batch_size as u64)
    }

    /// Duration of a full training epoch (all steps plus a 10% evaluation
    /// pass) on a device with relative speed `device_speed` (1.0 = the
    /// reference RTX 2080); the CUDA warm-up applies to a job's very first
    /// step only and is added by the caller. Computed in floating point
    /// end-to-end so the millisecond quantisation of a single step does not
    /// accumulate.
    pub fn epoch_time(&self, device_speed: f64) -> SimTime {
        let p = self.arch.profile();
        // Larger batches amortise kernel launches: sub-linear in batch.
        let scale = (self.batch_size as f64 / 32.0).powf(0.7);
        let step_secs = p.base_step_ms * scale / 1000.0 / device_speed.max(0.05);
        SimTime::from_secs_f64(self.steps_per_epoch() as f64 * step_secs * 1.1)
    }
}

/// A running simulated training job: the state TensorFlow would hold.
#[derive(Debug, Clone)]
pub struct TrainingSim {
    config: TrainingConfig,
    epoch: u64,
    last_eval: f64,
    rng: Rng,
}

impl TrainingSim {
    /// Starts a training run; `seed` controls evaluation noise.
    pub fn new(config: TrainingConfig, seed: u64) -> TrainingSim {
        TrainingSim {
            config,
            epoch: 0,
            last_eval: config.start_accuracy(),
            rng: Rng::seed_from_u64(seed).fork("eval-noise"),
        }
    }

    /// The job's hyperparameters.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    /// Trains one epoch and evaluates; returns the observed (noisy)
    /// validation accuracy.
    pub fn train_epoch(&mut self) -> f64 {
        self.epoch += 1;
        let clean = self.config.accuracy_curve(self.epoch);
        let noisy = clean + sample_normal(&mut self.rng, 0.0, EVAL_NOISE_STD);
        self.last_eval = noisy.clamp(0.0, 1.0);
        self.last_eval
    }

    /// Epochs trained so far.
    pub fn epochs(&self) -> u64 {
        self.epoch
    }

    /// The evaluation-noise RNG position, for durable snapshots.
    pub fn rng_state(&self) -> ([u64; 4], u64) {
        self.rng.snapshot_state()
    }

    /// Rebuilds a mid-run simulation from snapshotted parts: the epoch
    /// counter, the last observed accuracy, and the RNG position captured
    /// by [`TrainingSim::rng_state`].
    pub fn from_parts(
        config: TrainingConfig,
        epoch: u64,
        last_eval: f64,
        state: [u64; 4],
        root: u64,
    ) -> TrainingSim {
        TrainingSim { config, epoch, last_eval, rng: Rng::from_snapshot(state, root) }
    }

    /// Most recent observed validation accuracy.
    pub fn accuracy(&self) -> f64 {
        self.last_eval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuned(arch: Architecture) -> TrainingConfig {
        TrainingConfig {
            arch,
            batch_size: 32,
            optimizer: Optimizer::Sgd,
            learning_rate: 0.01,
            pretrained: false,
        }
    }

    #[test]
    fn tuned_jobs_are_fully_effective() {
        let c = tuned(Architecture::ResNet18);
        assert!((c.effectiveness() - 1.0).abs() < 1e-12);
        assert!((c.effective_peak() - Architecture::ResNet18.profile().peak_accuracy).abs() < 1e-9);
    }

    #[test]
    fn bad_learning_rate_degrades_peak_and_rate() {
        let good = tuned(Architecture::ResNet18);
        let bad = TrainingConfig { learning_rate: 0.00001, ..good };
        assert!(bad.effectiveness() < 0.3);
        assert!(bad.effective_peak() < good.effective_peak());
        assert!(bad.effective_rate() < good.effective_rate());
    }

    #[test]
    fn curve_is_monotone_and_saturating() {
        let c = tuned(Architecture::MobileNet);
        let accs: Vec<f64> = (0..200).map(|e| c.accuracy_curve(e)).collect();
        assert!(accs.windows(2).all(|w| w[1] >= w[0]), "monotone");
        // Diminishing returns: the first 10 epochs gain more than the next 10.
        let early = accs[10] - accs[0];
        let late = accs[20] - accs[10];
        assert!(early > late, "diminishing returns: {early} vs {late}");
        assert!((accs[199] - c.effective_peak()).abs() < 1e-3, "saturates at peak");
    }

    #[test]
    fn epochs_to_accuracy_inverts_the_curve() {
        let c = tuned(Architecture::ResNet18);
        let e = c.epochs_to_accuracy(0.85).unwrap();
        assert!(c.accuracy_curve(e) >= 0.85);
        assert!(e == 0 || c.accuracy_curve(e - 1) < 0.85);
        // Unreachable target.
        assert_eq!(c.epochs_to_accuracy(0.99), None);
        // Already-satisfied target.
        assert_eq!(c.epochs_to_accuracy(0.05), Some(0));
    }

    #[test]
    fn pretrained_models_start_high_and_converge_fast() {
        let scratch = TrainingConfig {
            arch: Architecture::Bert,
            batch_size: 64,
            optimizer: Optimizer::Adam,
            learning_rate: 0.001,
            pretrained: false,
        };
        let tuned_bert = TrainingConfig { pretrained: true, ..scratch };
        assert!(tuned_bert.start_accuracy() > 0.5);
        assert!(tuned_bert.effective_rate() > scratch.effective_rate() * 3.0);
        // Fine-tuning reaches a mid target within a couple of epochs —
        // the Fig. 11 scenario ("the number of epochs for meeting the
        // completion criteria is 2").
        let e = tuned_bert.epochs_to_accuracy(0.85).unwrap();
        assert!(e <= 3, "BERT fine-tune needs {e} epochs");
    }

    #[test]
    fn memory_is_affine_in_batch_size() {
        let c = tuned(Architecture::Vgg16);
        let m8 = TrainingConfig { batch_size: 8, ..c }.memory_mb();
        let m16 = TrainingConfig { batch_size: 16, ..c }.memory_mb();
        let m32 = TrainingConfig { batch_size: 32, ..c }.memory_mb();
        // Equal increments per doubling of the increment.
        assert_eq!(m32 - m16, 2 * (m16 - m8));
        // VGG-16 with Adam would not fit 8 GB at batch 32.
        let adam = TrainingConfig { optimizer: Optimizer::Adam, ..c };
        assert!(adam.memory_mb() > tuned(Architecture::LeNet).memory_mb());
    }

    #[test]
    fn step_and_epoch_times_scale_sanely() {
        let c = tuned(Architecture::ResNet18);
        let small = TrainingConfig { batch_size: 8, ..c };
        // Bigger batches: slower steps but fewer of them → faster epochs.
        let step_secs =
            |c: &TrainingConfig| c.epoch_time(1.0).as_secs_f64() / c.steps_per_epoch() as f64;
        assert!(step_secs(&c) > step_secs(&small));
        assert!(c.epoch_time(1.0) < small.epoch_time(1.0));
        // Faster device → faster epoch.
        assert!(c.epoch_time(2.0) < c.epoch_time(1.0));
        // Steps per epoch covers the dataset.
        assert_eq!(c.steps_per_epoch(), 50_000_u64.div_ceil(32));
    }

    #[test]
    fn training_sim_follows_the_curve_with_noise() {
        let config = tuned(Architecture::MobileNet);
        let mut sim = TrainingSim::new(config, 7);
        let mut max_err: f64 = 0.0;
        for e in 1..=50 {
            let observed = sim.train_epoch();
            let clean = config.accuracy_curve(e);
            max_err = max_err.max((observed - clean).abs());
        }
        assert_eq!(sim.epochs(), 50);
        assert!(max_err > 0.0, "noise present");
        assert!(max_err < 5.0 * EVAL_NOISE_STD, "noise bounded: {max_err}");
    }

    #[test]
    fn sim_is_deterministic_per_seed() {
        let config = tuned(Architecture::LeNet);
        let mut a = TrainingSim::new(config, 3);
        let mut b = TrainingSim::new(config, 3);
        for _ in 0..10 {
            assert_eq!(a.train_epoch(), b.train_epoch());
        }
        let mut c = TrainingSim::new(config, 4);
        c.train_epoch();
        assert_ne!(a.accuracy(), c.accuracy());
    }
}
