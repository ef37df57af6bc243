//! RL-MUL: multiplier design optimization with deep reinforcement
//! learning — the paper's core framework.
//!
//! The optimization loop (paper Fig. 3) couples:
//!
//! * a state space of legal compressor trees ([`rlmul_ct`]), encoded
//!   as the tensor representation of Algorithm 1;
//! * a masked 8N-action modification space with deterministic
//!   legalization (Algorithm 2);
//! * a **Pareto-driven reward**: every state is synthesized under
//!   several delay constraints by the [`rlmul_synth`] engine and the
//!   reward is the decrease of the weighted area/delay cost
//!   (Eqs. 9–10, reduced per Section IV-B);
//! * two agents — native RL-MUL, a DQN with replay buffer and ε-greedy
//!   masked action selection (Algorithm 3, [`train_dqn`]); and
//!   RL-MUL-E, a synchronous A2C whose environments step in lockstep
//!   under one shared residual trunk, with k-step returns
//!   (Algorithm 4, [`train_a2c`]);
//! * the simulated-annealing baseline on the identical cost
//!   ([`run_sa`]).
//!
//! Long runs are crash-safe: the `*_with` entry points
//! ([`train_dqn_with`], [`train_a2c_with`], [`run_sa_with`]) accept
//! [`TrainHooks`] carrying a JSONL telemetry sink, a rolling
//! [`rlmul_ckpt::SnapshotStore`] and a cooperative stop flag, and the
//! matching `resume_*` functions continue a snapshotted run
//! **bit-identically** — same RNG streams, same optimizer moments,
//! same batch-norm statistics, and every previously synthesized state
//! served from the re-imported evaluation cache.
//!
//! # Example
//!
//! ```no_run
//! use rlmul_core::{train_dqn, DqnConfig, EnvConfig, MulEnv};
//! use rlmul_ct::PpgKind;
//!
//! let mut env = MulEnv::new(EnvConfig::new(8, PpgKind::And))?;
//! let outcome = train_dqn(&mut env, &DqnConfig::default())?;
//! println!("best cost {:.3} after {} synthesis runs",
//!          outcome.best_cost, outcome.synth_runs);
//! # Ok::<(), rlmul_core::RlMulError>(())
//! ```

#![forbid(unsafe_code)]

mod a2c;
mod cache;
mod ckpt;
mod dqn;
mod env;
mod error;
mod hooks;
mod outcome;
mod reward;
mod sa_driver;
mod surrogate;

pub use a2c::{
    resume_a2c, train_a2c, train_a2c_cached, train_a2c_with, A2cConfig, A2cSnapshot, PolicyValueNet,
};
pub use cache::{
    context_fingerprint, AsCacheKey, CacheKey, CacheKeyRef, CacheStats, EvalCache, EvalTicket,
    Lookup, WorkingSet,
};
pub use dqn::{
    resume_dqn, resume_dqn_cached, train_dqn, train_dqn_with, DqnConfig, DqnSnapshot, QNetwork,
};
pub use env::{
    EnvConfig, EnvSnapshot, EnvStats, Evaluation, InitialStructure, MulEnv, Screen, StagePruning,
    StepOutcome,
};
pub use error::RlMulError;
pub use hooks::{emit_span_events, TrainHooks};
pub use outcome::{LintStats, NnStats, OptimizationOutcome, PipelineStats};
pub use reward::CostWeights;
pub use sa_driver::{resume_sa, run_sa, run_sa_cached, run_sa_with, SaSnapshot};
pub use surrogate::{SurrogateConfig, SurrogateSnapshot};
