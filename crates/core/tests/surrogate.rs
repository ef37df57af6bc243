//! Acceptance tests for the online learned surrogate evaluator:
//! resume determinism with screening active (the SA margin gate and
//! the DQN / A2C top-k gate), prediction-error
//! telemetry, and the synthesis-call contract (screened proposals
//! must not reach the synthesis pipeline or the evaluation cache).
//!
//! The configs force the surrogate warm early (`min_samples` far
//! below the step budget) so every run here actually screens;
//! a surrogate that never fires would pass these tests vacuously.

use rlmul_baselines::SaConfig;
use rlmul_ckpt::SnapshotStore;
use rlmul_core::{
    resume_a2c, resume_dqn, resume_sa, run_sa, run_sa_with, train_a2c_with, train_dqn_with,
    A2cConfig, A2cSnapshot, DqnConfig, DqnSnapshot, EnvConfig, EvalCache, MulEnv,
    OptimizationOutcome, SaSnapshot, TrainHooks,
};
use rlmul_ct::PpgKind;
use rlmul_nn::TrunkConfig;
use rlmul_telemetry::TelemetryWriter;
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlmul-surrogate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An 8-bit config whose surrogate warms up quickly enough to screen
/// within a short test run.
fn surrogate_env() -> EnvConfig {
    let mut cfg = EnvConfig::new(8, PpgKind::And);
    cfg.surrogate.enabled = true;
    cfg.surrogate.min_samples = 6;
    cfg.surrogate.refresh_every = 4;
    cfg
}

fn assert_bit_identical(full: &OptimizationOutcome, resumed: &OptimizationOutcome) {
    assert_eq!(full.trajectory.len(), resumed.trajectory.len());
    for (i, (a, b)) in full.trajectory.iter().zip(&resumed.trajectory).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "trajectory diverged at step {i}: {a} vs {b}");
    }
    assert_eq!(full.best_cost.to_bits(), resumed.best_cost.to_bits());
    assert_eq!(full.best, resumed.best);
    // The Pareto point stream covers the verification sweep too: a
    // watchlist lost (or reordered) across the snapshot boundary
    // would surface here even when the walk itself matched.
    assert_eq!(full.pareto_points.len(), resumed.pareto_points.len());
    for (i, (a, b)) in full.pareto_points.iter().zip(&resumed.pareto_points).enumerate() {
        assert_eq!(a.0.to_bits(), b.0.to_bits(), "pareto area diverged at point {i}");
        assert_eq!(a.1.to_bits(), b.1.to_bits(), "pareto delay diverged at point {i}");
    }
}

#[test]
fn sa_resume_is_bit_identical_with_surrogate_on() {
    let env_cfg = surrogate_env();
    let full_cfg = SaConfig { steps: 40, ..Default::default() };

    // One full run with a pinned mid-run checkpoint. (A shorter run's
    // shutdown snapshot would not do: a *completed* run sweeps its
    // verification watchlist first, so its final state is legitimately
    // ahead of the same step mid-flight.)
    let dir = scratch_dir("resume");
    let store = SnapshotStore::new(&dir, "sa");
    let hooks = TrainHooks {
        store: Some(store.clone()),
        checkpoint_every: 20,
        keep_history: true,
        ..Default::default()
    };
    let full = run_sa_with(&env_cfg, &full_cfg, 7, EvalCache::new(), &hooks, None).unwrap();
    assert!(full.pipeline.surrogate_screened > 0, "test must exercise screening");

    // Resume from the step-20 snapshot — MLP weights, Adam moments,
    // replay ring, honesty counter and verification watchlist all
    // cross the snapshot boundary.
    let snap: SaSnapshot = store.load_step(20).unwrap();
    assert_eq!(snap.steps_done(), 20);
    let resumed = resume_sa(&env_cfg, &full_cfg, snap, &TrainHooks::default()).unwrap();

    assert_bit_identical(&full, &resumed);
    std::fs::remove_dir_all(&dir).unwrap();
}

fn tiny_trunk() -> TrunkConfig {
    TrunkConfig { in_channels: 2, channels: vec![4, 8], blocks_per_stage: 1 }
}

/// Hooks pinning a step-tagged snapshot every `every` steps.
fn pinned_hooks(store: &SnapshotStore, every: usize) -> TrainHooks {
    TrainHooks {
        store: Some(store.clone()),
        checkpoint_every: every,
        keep_history: true,
        ..Default::default()
    }
}

#[test]
fn dqn_resume_is_bit_identical_with_top_k_screening() {
    let env_cfg = surrogate_env();
    let config = DqnConfig {
        steps: 40,
        warmup: 4,
        batch_size: 4,
        trunk: tiny_trunk(),
        ..Default::default()
    };
    let dir = scratch_dir("dqn");
    let store = SnapshotStore::new(&dir, "dqn");
    let mut env = MulEnv::new(env_cfg.clone()).unwrap();
    let full = train_dqn_with(&mut env, &config, &pinned_hooks(&store, 20), None).unwrap();
    assert!(full.pipeline.surrogate_screened > 0, "test must exercise top-k screening");
    assert_eq!(full.pipeline.cache_entries, full.pipeline.cache_misses);

    let snap: DqnSnapshot = store.load_step(20).unwrap();
    assert_eq!(snap.step(), 20);
    let resumed = resume_dqn(&env_cfg, &config, snap, &TrainHooks::default()).unwrap();
    assert_bit_identical(&full, &resumed);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a2c_resume_is_bit_identical_with_top_k_screening() {
    let env_cfg = surrogate_env();
    let config =
        A2cConfig { steps: 24, n_envs: 2, n_step: 3, trunk: tiny_trunk(), ..Default::default() };
    let dir = scratch_dir("a2c");
    let store = SnapshotStore::new(&dir, "a2c");
    let full = train_a2c_with(&env_cfg, &config, EvalCache::new(), &pinned_hooks(&store, 12), None)
        .unwrap();
    assert!(full.pipeline.surrogate_screened > 0, "test must exercise top-k screening");
    assert_eq!(full.pipeline.cache_entries, full.pipeline.cache_misses);

    let snap: A2cSnapshot = store.load_step(12).unwrap();
    assert_eq!(snap.step(), 12);
    let resumed = resume_a2c(&env_cfg, &config, snap, &TrainHooks::default()).unwrap();
    assert_bit_identical(&full, &resumed);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn surrogate_emits_mae_telemetry() {
    let path = scratch_dir("telemetry").join("events.jsonl");
    let (writer, sink) = TelemetryWriter::create(&path).unwrap();
    let hooks = TrainHooks { telemetry: sink, ..Default::default() };
    let env_cfg = surrogate_env();
    let sa_cfg = SaConfig { steps: 30, ..Default::default() };
    run_sa_with(&env_cfg, &sa_cfg, 3, EvalCache::new(), &hooks, None).unwrap();
    writer.close().unwrap();

    let text = std::fs::read_to_string(&path).unwrap();
    let surrogate_events: Vec<_> = text
        .lines()
        .filter_map(|l| rlmul_telemetry::Event::parse_json(l).ok())
        .filter(|e| e.kind() == "surrogate")
        .collect();
    assert!(!surrogate_events.is_empty(), "expected surrogate telemetry events");
    let last = surrogate_events.last().unwrap();
    for key in ["area_mae", "delay_mae", "area_mae_0", "delay_mae_0"] {
        let v = last.get_f64(key).unwrap_or_else(|| panic!("missing {key} field"));
        assert!(v.is_finite() && v >= 0.0, "{key} must be a finite non-negative MAE, got {v}");
    }
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}

#[test]
fn screening_cuts_synthesis_calls_without_touching_the_cache() {
    let sa_cfg = SaConfig { steps: 60, ..Default::default() };
    let mut off_cfg = surrogate_env();
    off_cfg.surrogate.enabled = false;
    let off = run_sa(&off_cfg, &sa_cfg, 5).unwrap();
    let on = run_sa(&surrogate_env(), &sa_cfg, 5).unwrap();

    assert_eq!(off.pipeline.surrogate_screened, 0);
    assert!(on.pipeline.surrogate_screened > 0);
    assert!(
        on.pipeline.synthesis_calls < off.pipeline.synthesis_calls,
        "screening must reduce synthesis calls: {} vs {}",
        on.pipeline.synthesis_calls,
        off.pipeline.synthesis_calls
    );
    // Screened evaluations are answered from the model: they must not
    // materialize as cache entries. Every cache entry therefore
    // corresponds to a real (synthesized) evaluation.
    assert_eq!(on.pipeline.cache_entries, on.pipeline.cache_misses);
    assert!(on.pipeline.cache_entries < off.pipeline.cache_entries);
}
