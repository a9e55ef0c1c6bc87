//! Hyperparameter optimisation on top of Rotary-DLT — the paper's §I
//! motivating scenario ("a set of hyperparameter configurations are sampled
//! from a hyperparameter space and formed a number of training trials …
//! resource arbitration could stop the trials that contain unpromising
//! hyperparameter configurations prematurely").
//!
//! [`SuccessiveHalving`] runs candidate configurations in rungs: every
//! trial gets the rung's epoch budget as a runtime-oriented completion
//! criterion, the arbitration system schedules the rung on the GPU pool,
//! and only the top `1/eta` of trials (by observed accuracy) are promoted
//! to the next rung with an `eta`-times larger budget.
//!
//! Trial learning curves are deterministic per configuration, so a promoted
//! trial re-trained under a larger budget reproduces its earlier epochs —
//! equivalent to resuming from a checkpoint, which is how the arbitration
//! system would realise promotion in production.

use rotary_core::criteria::{CompletionCriterion, Deadline};
use rotary_core::SimTime;

use crate::simulator::TrainingConfig;
use crate::system::{DltPolicy, DltSystem};
use crate::workload::DltJobSpec;

/// The outcome of one finished trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// The configuration trained.
    pub config: TrainingConfig,
    /// Final observed validation accuracy.
    pub accuracy: f64,
    /// Epochs trained in its last rung.
    pub epochs: u64,
}

/// Statistics of one rung.
#[derive(Debug, Clone, PartialEq)]
pub struct RungSummary {
    /// Epoch budget every trial in the rung received.
    pub budget_epochs: u64,
    /// Trials that entered the rung.
    pub candidates: usize,
    /// Trials promoted out of it.
    pub survivors: usize,
    /// Virtual time the rung occupied the pool.
    pub makespan: SimTime,
}

/// The search's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct HpoOutcome {
    /// The best configuration found, with its final accuracy.
    pub best: TrialResult,
    /// Per-rung statistics, in execution order.
    pub rungs: Vec<RungSummary>,
    /// Total virtual time across all rungs.
    pub total_time: SimTime,
}

/// Successive halving over a candidate set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SuccessiveHalving {
    /// Promotion factor: the top `1/eta` of each rung survives and the
    /// budget grows by `eta`. Must be ≥ 2.
    pub eta: usize,
    /// Epoch budget of the first rung.
    pub initial_epochs: u64,
    /// Budget cap: the search stops growing rungs past this.
    pub max_epochs: u64,
}

impl Default for SuccessiveHalving {
    fn default() -> Self {
        SuccessiveHalving { eta: 3, initial_epochs: 2, max_epochs: 32 }
    }
}

impl SuccessiveHalving {
    /// Runs the search on `system` under `policy`.
    ///
    /// # Panics
    /// Panics on an empty candidate set or `eta < 2` / zero budgets.
    pub fn run(
        &self,
        system: &mut DltSystem,
        candidates: &[TrainingConfig],
        policy: DltPolicy,
    ) -> HpoOutcome {
        assert!(!candidates.is_empty(), "need at least one candidate");
        assert!(self.eta >= 2, "eta must be at least 2");
        assert!(
            self.initial_epochs >= 1 && self.max_epochs >= self.initial_epochs,
            "budgets must be positive and ordered"
        );

        let mut alive: Vec<TrainingConfig> = candidates.to_vec();
        let mut budget = self.initial_epochs;
        let mut rungs = Vec::new();
        let mut total_time = SimTime::ZERO;

        let best = loop {
            let specs: Vec<DltJobSpec> = alive
                .iter()
                .map(|&config| DltJobSpec {
                    config,
                    criterion: CompletionCriterion::Runtime { runtime: Deadline::Epochs(budget) },
                })
                .collect();
            let run = system.run(&specs, policy);
            total_time += run.makespan;

            let mut results: Vec<TrialResult> = run
                .jobs
                .iter()
                .map(|(spec, state)| TrialResult {
                    config: spec.config,
                    accuracy: state.latest().map(|s| s.metric_value).unwrap_or(0.0),
                    epochs: state.epochs_run,
                })
                .collect();
            results.sort_by_key(|r| std::cmp::Reverse(rotary_core::arb::OrdF64::new(r.accuracy)));

            let survivors = if alive.len() == 1 { 1 } else { alive.len().div_ceil(self.eta) };
            rungs.push(RungSummary {
                budget_epochs: budget,
                candidates: alive.len(),
                survivors,
                makespan: run.makespan,
            });
            alive = results.iter().take(survivors).map(|r| r.config).collect();

            if alive.len() <= 1 || budget.saturating_mul(self.eta as u64) > self.max_epochs {
                break results.swap_remove(0);
            }
            budget = budget.saturating_mul(self.eta as u64);
        };

        HpoOutcome { best, rungs, total_time }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{Architecture, Optimizer};
    use crate::system::DltSystemConfig;
    use rotary_core::progress::Objective;

    fn lr_grid() -> Vec<TrainingConfig> {
        [0.1, 0.03, 0.01, 0.003, 0.001, 0.0003, 0.0001, 0.00001, 0.05, 0.005]
            .iter()
            .map(|&lr| TrainingConfig {
                arch: Architecture::MobileNet,
                batch_size: 32,
                optimizer: Optimizer::Sgd,
                learning_rate: lr,
                pretrained: false,
            })
            .collect()
    }

    fn system() -> DltSystem {
        DltSystem::new(DltSystemConfig { seed: 5, ..Default::default() })
    }

    #[test]
    fn sha_finds_the_sweet_spot() {
        let mut sys = system();
        let outcome = SuccessiveHalving::default().run(
            &mut sys,
            &lr_grid(),
            DltPolicy::Rotary(Objective::Efficiency),
        );
        // SGD's sweet spot is 0.01; the winner should be within a factor ~3.
        let lr = outcome.best.config.learning_rate;
        assert!((0.003..=0.05).contains(&lr), "winner lr {lr} far from the sweet spot");
        assert!(outcome.best.accuracy > 0.5);
        // Rungs shrink and budgets grow.
        for pair in outcome.rungs.windows(2) {
            assert!(pair[1].candidates <= pair[0].candidates);
            assert!(pair[1].budget_epochs >= pair[0].budget_epochs);
        }
        assert_eq!(outcome.rungs[0].candidates, 10);
        assert!(outcome.total_time > SimTime::ZERO);
    }

    #[test]
    fn sha_spends_far_less_than_exhaustive_search() {
        let grid = lr_grid();
        let mut sys = system();
        let sha = SuccessiveHalving { eta: 3, initial_epochs: 2, max_epochs: 18 }.run(
            &mut sys,
            &grid,
            DltPolicy::Rotary(Objective::Efficiency),
        );
        // Exhaustive: everyone trains to the full budget.
        let mut sys2 = system();
        let specs: Vec<DltJobSpec> = grid
            .iter()
            .map(|&config| DltJobSpec {
                config,
                criterion: CompletionCriterion::Runtime { runtime: Deadline::Epochs(18) },
            })
            .collect();
        let exhaustive = sys2.run(&specs, DltPolicy::Rotary(Objective::Efficiency));
        assert!(
            sha.total_time < exhaustive.makespan,
            "early stopping must save pool time: {} vs {}",
            sha.total_time,
            exhaustive.makespan
        );
    }

    #[test]
    fn single_candidate_short_circuits() {
        let mut sys = system();
        let grid = lr_grid();
        let outcome = SuccessiveHalving::default().run(&mut sys, &grid[..1], DltPolicy::Srf);
        assert_eq!(outcome.rungs.len(), 1);
        assert_eq!(outcome.best.config, grid[0]);
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_candidates_panic() {
        let mut sys = system();
        let _ = SuccessiveHalving::default().run(&mut sys, &[], DltPolicy::Srf);
    }
}
