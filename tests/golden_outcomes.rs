//! Seeded-outcome pins: SA, DQN and A2C on the 8-bit AND multiplier,
//! each with the surrogate off and on, must reproduce the outcomes in
//! `tests/golden/outcomes_8bit.txt` exactly — best cost and trajectory
//! to the bit, the Pareto point count, and the pipeline counter line.
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
const STEPS: usize = 40;
const SEED: u64 = 3;

fn trunk() -> TrunkConfig {
    TrunkConfig { in_channels: 2, channels: vec![4, 8], blocks_per_stage: 1 }
}

/// 64-bit FNV-1a over the little-endian bit patterns of `values`.
fn fnv1a(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
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
        fnv1a(&out.trajectory),
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
    let actual = lines.join("\n") + "\n";
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; new contents:\n{actual}", path.display()));
    assert!(expected == actual, "seeded outcomes diverged from {GOLDEN}; new contents:\n{actual}");
}
