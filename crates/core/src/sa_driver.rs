//! Simulated-annealing baseline driven by the same synthesis-backed
//! cost as the RL agents, so Fig. 12-style comparisons isolate the
//! search strategy.

use crate::cache::{CacheKey, EvalCache};
use crate::env::{EnvConfig, EnvSnapshot, Evaluation, MulEnv, Screen};
use crate::hooks::{emit_span_events, TrainHooks};
use crate::outcome::{NnStats, OptimizationOutcome, PipelineStats};
use crate::RlMulError;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlmul_baselines::{SaConfig, SaParts, SaRun};
use rlmul_telemetry::Event;

/// Complete state of a synthesis-backed SA run at a step boundary:
/// the annealer's walk ([`SaParts`]), the RNG stream, the
/// environment's mutable state and the run's cache working set.
///
/// Opaque outside the crate: produced by checkpointing runs
/// ([`run_sa_with`] with a store), serialized through
/// [`rlmul_ckpt::Record`], consumed by [`resume_sa`].
pub struct SaSnapshot {
    pub(crate) rng: [u64; 4],
    pub(crate) parts: SaParts,
    pub(crate) env: EnvSnapshot,
    pub(crate) cache: Vec<(CacheKey, Evaluation)>,
}

impl SaSnapshot {
    /// Proposal steps completed when the snapshot was taken.
    pub fn steps_done(&self) -> usize {
        self.parts.trajectory.len()
    }

    /// Best cost found up to the snapshot.
    pub fn best_cost(&self) -> f64 {
        self.parts.best_cost
    }

    /// The cache entries the snapshot carries (the run's working set,
    /// in [`EvalCache::export_entries`] order).
    pub fn cache_entries(&self) -> &[(CacheKey, Evaluation)] {
        &self.cache
    }
}

impl std::fmt::Debug for SaSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SaSnapshot(step {}, {} cache entries)", self.steps_done(), self.cache.len())
    }
}

/// Runs the SA baseline with the environment's Pareto-driven cost.
///
/// # Errors
///
/// Propagates environment construction and synthesis errors.
pub fn run_sa(
    env_config: &EnvConfig,
    sa_config: &SaConfig,
    seed: u64,
) -> Result<OptimizationOutcome, RlMulError> {
    run_sa_cached(env_config, sa_config, seed, EvalCache::new())
}

/// [`run_sa`] on top of a shared evaluation cache, so baseline and
/// RL runs over the same design reuse each other's synthesis results.
///
/// # Errors
///
/// As [`run_sa`].
pub fn run_sa_cached(
    env_config: &EnvConfig,
    sa_config: &SaConfig,
    seed: u64,
    cache: EvalCache,
) -> Result<OptimizationOutcome, RlMulError> {
    run_sa_with(env_config, sa_config, seed, cache, &TrainHooks::default(), None)
}

/// Rebuilds the annealing run captured in `snapshot` and continues it
/// to `sa_config.steps`. The snapshot's working set is imported before
/// the environment is constructed, so every previously evaluated
/// state is a hit and the resumed walk is bit-identical to an
/// uninterrupted one.
///
/// # Errors
///
/// As [`run_sa`], plus configuration/snapshot mismatches.
pub fn resume_sa(
    env_config: &EnvConfig,
    sa_config: &SaConfig,
    snapshot: SaSnapshot,
    hooks: &TrainHooks,
) -> Result<OptimizationOutcome, RlMulError> {
    // The seed is irrelevant on resume — the RNG stream continues
    // from the snapshot state.
    run_sa_with(env_config, sa_config, 0, EvalCache::new(), hooks, Some(snapshot))
}

/// [`run_sa_cached`] with runtime hooks (telemetry, periodic
/// snapshots, cooperative stop) and an optional resume point.
///
/// # Errors
///
/// As [`run_sa`], plus snapshot write/restore failures.
pub fn run_sa_with(
    env_config: &EnvConfig,
    sa_config: &SaConfig,
    seed: u64,
    cache: EvalCache,
    hooks: &TrainHooks,
    mut resume: Option<SaSnapshot>,
) -> Result<OptimizationOutcome, RlMulError> {
    let imported = resume.as_mut().map(|snap| std::mem::take(&mut snap.cache));
    let mut env = MulEnv::with_imported(env_config.clone(), cache, imported.unwrap_or_default())?;
    if hooks.telemetry.is_enabled() {
        env.set_telemetry(hooks.telemetry.clone());
    }
    if hooks.trace.is_enabled() {
        env.set_trace(hooks.trace.clone());
    }
    let (mut rng, mut run) = match resume {
        Some(snap) => {
            env.restore(&snap.env)?;
            (StdRng::from_state(snap.rng), SaRun::from_parts(*sa_config, snap.parts))
        }
        None => {
            let initial = env.current().clone();
            let initial_cost = env.evaluate(&initial)?.cost;
            (StdRng::seed_from_u64(seed), SaRun::new(initial, initial_cost, *sa_config))
        }
    };

    let obs = rlmul_obs::global();
    let _train_span = obs.span("train.sa");
    let spans_before = obs.span_stats();
    let agent_steps = obs.labeled_counter(
        "rlmul_agent_steps_total",
        "Optimization steps taken by each agent.",
        &[("method", "sa")],
    );
    let mut eval_error: Option<RlMulError> = None;
    let mut best_saved = f64::INFINITY;
    while !run.is_done() {
        if hooks.stop_requested() {
            break;
        }
        let _step_span = obs.span("sa.step");
        agent_steps.inc();
        {
            let env_ref = &mut env;
            let err_ref = &mut eval_error;
            // With the surrogate enabled, proposals predicted to be
            // unpromising, or whose predicted uphill delta makes
            // rejection certain at the current temperature, are
            // answered by the model instead of synthesis (the
            // `Screen::Anneal` policy of `MulEnv::evaluate_screened`).
            // Disabled, this is exactly `MulEnv::evaluate`. Cost and
            // temperature are fixed for the duration of one proposal,
            // so reading them before the step is exact.
            let screen =
                Screen::Anneal { current_cost: run.current_cost(), temperature: run.temperature() };
            run.step(&mut rng, |tree| match env_ref.evaluate_screened(tree, screen) {
                Ok((e, _)) => e.cost,
                Err(e) => {
                    // Surface the first error after the step;
                    // penalize the state so the annealer walks away
                    // from it.
                    if err_ref.is_none() {
                        *err_ref = Some(e);
                    }
                    f64::INFINITY
                }
            });
        }
        if let Some(e) = eval_error.take() {
            return Err(e);
        }
        hooks.report_progress(run.steps_done());
        if hooks.telemetry.is_enabled() {
            hooks.telemetry.emit(
                Event::new("episode")
                    .with("method", "sa")
                    .with("step", (run.steps_done() - 1) as u64)
                    .with("cost", run.current_cost()),
            );
        }
        if hooks.checkpoint_due(run.steps_done(), sa_config.steps) {
            save_sa_checkpoint(&run, &rng, &mut env, hooks, &mut best_saved, true)?;
        }
    }
    // Verification sweep on normal completion only: an interrupted
    // run sweeps when its resumption finishes, so resume stays
    // bit-identical to an uninterrupted run.
    if run.is_done() {
        env.verify_screened()?;
    }
    // Shutdown snapshot: rolled on normal completion and on
    // cooperative stop alike.
    if hooks.store.is_some() {
        save_sa_checkpoint(&run, &rng, &mut env, hooks, &mut best_saved, false)?;
    }

    // SA trains no network.
    let pipeline = PipelineStats::pooled(std::slice::from_ref(&env), NnStats::default());
    if hooks.telemetry.is_enabled() {
        hooks.telemetry.emit(pipeline.cache_event());
        emit_span_events(&hooks.telemetry, &obs.span_stats_since(&spans_before));
    }
    let outcome = run.into_outcome();
    Ok(OptimizationOutcome {
        best: outcome.best,
        best_cost: outcome.best_cost,
        trajectory: outcome.trajectory,
        pareto_points: env.pareto_points().to_vec(),
        states_visited: pipeline.cache_entries,
        synth_runs: env.stats().synth_runs,
        pipeline,
    })
}

/// Rolls the full annealing state at a step boundary into the
/// checkpoint store ([`TrainHooks::roll_checkpoint`]).
fn save_sa_checkpoint(
    run: &SaRun,
    rng: &StdRng,
    env: &mut MulEnv,
    hooks: &TrainHooks,
    best_saved: &mut f64,
    periodic: bool,
) -> Result<(), RlMulError> {
    let snap = SaSnapshot {
        rng: rng.state(),
        parts: run.to_parts(),
        env: env.snapshot(),
        cache: env.working_set().export(),
    };
    hooks.roll_checkpoint(run.steps_done(), &snap, run.best_cost(), best_saved, periodic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlmul_ct::PpgKind;

    #[test]
    fn sa_driver_produces_trajectory_and_legal_best() {
        let env_cfg = EnvConfig::new(4, PpgKind::And);
        let sa_cfg = SaConfig { steps: 20, ..Default::default() };
        let out = run_sa(&env_cfg, &sa_cfg, 42).unwrap();
        assert_eq!(out.trajectory.len(), 20);
        out.best.check_legal().unwrap();
        assert!(out.states_visited >= 1);
    }

    #[test]
    fn sa_resume_matches_uninterrupted_run() {
        let env_cfg = EnvConfig::new(4, PpgKind::And);
        let full_cfg = SaConfig { steps: 16, ..Default::default() };
        let full = run_sa(&env_cfg, &full_cfg, 7).unwrap();

        // Same schedule interrupted at step 8 by the stop flag, then
        // resumed from the snapshot.
        let dir = std::env::temp_dir().join(format!("rlmul-sa-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = rlmul_ckpt::SnapshotStore::new(&dir, "sa");
        let hooks =
            TrainHooks { store: Some(store.clone()), checkpoint_every: 8, ..Default::default() };
        let half_cfg = SaConfig { steps: 8, ..full_cfg };
        run_sa_with(&env_cfg, &half_cfg, 7, EvalCache::new(), &hooks, None).unwrap();
        let snap: SaSnapshot = store.load_latest().unwrap();
        assert_eq!(snap.steps_done(), 8);
        let resumed = resume_sa(&env_cfg, &full_cfg, snap, &TrainHooks::default()).unwrap();

        assert_eq!(full.trajectory, resumed.trajectory);
        assert_eq!(full.best_cost.to_bits(), resumed.best_cost.to_bits());
        assert_eq!(full.best, resumed.best);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
