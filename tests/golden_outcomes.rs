//! Seeded-outcome pins: SA, DQN and A2C on the 8-bit AND multiplier,
//! each with the surrogate off and on, must reproduce the outcomes in
//! `tests/golden/outcomes_8bit.txt` exactly — best cost and trajectory
//! to the bit, the Pareto point count, and the pipeline counter line.
//!
//! A second pin, `tests/golden/dqn_default_8bit.txt`, runs the
//! benchmark's own DQN configuration (default `DqnConfig`, so the
//! 8/16/32 trunk at batch 8) in release builds only.
//!
//! Any change to the evaluation pipeline, the screening gates or the
//! agents that alters a seeded run shows up here as a failure. After
//! an *intended* behaviour change, the failure message carries the
//! complete new file contents.

use rlmul::baselines::SaConfig;
use rlmul::core::{
    run_sa_with, train_a2c_with, train_dqn_with, A2cConfig, DqnConfig, EnvConfig, EvalCache,
    MulEnv, OptimizationOutcome, TrainHooks,
};
use rlmul::ct::PpgKind;
use rlmul::nn::TrunkConfig;

const GOLDEN: &str = "tests/golden/outcomes_8bit.txt";
const GOLDEN_DQN_DEFAULT: &str = "tests/golden/dqn_default_8bit.txt";
const STEPS: usize = 40;
const SEED: u64 = 3;

fn trunk() -> TrunkConfig {
    TrunkConfig { in_channels: 2, channels: vec![4, 8], blocks_per_stage: 1 }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the little-endian bit patterns of `values`.
fn fnv_f64(values: &[f64]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Checks `actual` against the golden file at `rel`; the failure
/// message carries the new contents.
fn assert_golden(rel: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; new contents:\n{actual}", path.display()));
    assert!(expected == actual, "seeded outcomes diverged from {rel}; new contents:\n{actual}");
}

fn run(method: &str, surrogate: bool) -> OptimizationOutcome {
    let mut env_cfg = EnvConfig::new(8, PpgKind::And);
    env_cfg.surrogate.enabled = surrogate;
    let hooks = TrainHooks::default();
    match method {
        "sa" => {
            let sa_cfg = SaConfig { steps: STEPS, ..Default::default() };
            run_sa_with(&env_cfg, &sa_cfg, SEED, EvalCache::new(), &hooks, None).unwrap()
        }
        "dqn" => {
            let cfg = DqnConfig {
                steps: STEPS,
                warmup: 8,
                batch_size: 4,
                trunk: trunk(),
                seed: SEED,
                ..Default::default()
            };
            let mut env = MulEnv::new(env_cfg).unwrap();
            train_dqn_with(&mut env, &cfg, &hooks, None).unwrap()
        }
        "a2c" => {
            let cfg = A2cConfig {
                steps: STEPS,
                n_envs: 2,
                n_step: 3,
                trunk: trunk(),
                seed: SEED,
                ..Default::default()
            };
            train_a2c_with(&env_cfg, &cfg, EvalCache::new(), &hooks, None).unwrap()
        }
        _ => unreachable!("unknown method {method}"),
    }
}

fn render(method: &str, surrogate: bool, out: &OptimizationOutcome) -> String {
    format!(
        "{method} surrogate={} best={:016x} trajectory={:016x} pareto={} pipeline: {}",
        if surrogate { "on" } else { "off" },
        out.best_cost.to_bits(),
        fnv_f64(&out.trajectory),
        out.pareto_points.len(),
        out.pipeline.render()
    )
}

#[test]
fn seeded_outcomes_match_golden_file() {
    let mut lines = Vec::new();
    for method in ["sa", "dqn", "a2c"] {
        for surrogate in [false, true] {
            lines.push(render(method, surrogate, &run(method, surrogate)));
        }
    }
    assert_golden(GOLDEN, &(lines.join("\n") + "\n"));
}

/// The benchmark's DQN job: default `DqnConfig`, 8-bit AND, surrogate
/// on. Too slow for the debug build's per-call network oracles.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn benchmark_dqn_config_matches_golden_file() {
    let mut env_cfg = EnvConfig::new(8, PpgKind::And);
    env_cfg.surrogate.enabled = true;
    let cfg = DqnConfig { steps: STEPS, seed: SEED, ..Default::default() };
    let mut env = MulEnv::new(env_cfg).unwrap();
    let out = train_dqn_with(&mut env, &cfg, &TrainHooks::default(), None).unwrap();
    let tree = fnv1a(
        out.best
            .matrix()
            .counts()
            .iter()
            .flat_map(|&(fa, ha)| fa.to_le_bytes().into_iter().chain(ha.to_le_bytes())),
    );
    let line = format!(
        "dqn default surrogate=on best={:016x} tree={tree:016x} trajectory={:016x} pipeline: {}\n",
        out.best_cost.to_bits(),
        fnv_f64(&out.trajectory),
        out.pipeline.render()
    );
    assert_golden(GOLDEN_DQN_DEFAULT, &line);
}
