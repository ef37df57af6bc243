//! Native RL-MUL: deep Q-learning over compressor-tree states
//! (paper Algorithm 3).
//!
//! The Q-network is a residual CNN over the tensor representation; a
//! validity mask zeroes illegal actions before the argmax (Eqs. 5–8).
//! Transitions go to a replay buffer; updates regress the masked
//! Q-values toward the bootstrapped target of Eq. 11 with RMSProp, as
//! in the paper.

use crate::cache::{CacheKey, EvalCache};
use crate::env::{EnvConfig, EnvSnapshot, Evaluation, MulEnv};
use crate::hooks::{emit_span_events, TrainHooks};
use crate::outcome::{OptimizationOutcome, PipelineStats};
use crate::RlMulError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlmul_nn::{
    clip_grad_norm, masked_argmax, restore_net, snapshot_net, Layer, Linear, NetSnapshot, NnStats,
    Optimizer, Param, RmsProp, Sequential, Tensor, TrunkConfig,
};
use rlmul_telemetry::Event;
use std::collections::VecDeque;

/// DQN hyper-parameters. Defaults follow the paper where stated
/// (γ = 0.8, ε: 0.95 → 0.05, RMSProp); budgets are scaled down from
/// the paper's 10 000 s wall-clock to step counts.
#[derive(Debug, Clone)]
pub struct DqnConfig {
    /// Total environment steps `T`.
    pub steps: usize,
    /// Warm-up steps `T_B` with uniformly random legal actions.
    pub warmup: usize,
    /// Discount factor γ.
    pub gamma: f32,
    /// Initial exploration rate.
    pub epsilon_start: f32,
    /// Final exploration rate.
    pub epsilon_end: f32,
    /// Replay batch size.
    pub batch_size: usize,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// RMSProp learning rate.
    pub lr: f32,
    /// Gradient-norm clip.
    pub grad_clip: f32,
    /// Agent-network trunk.
    pub trunk: TrunkConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            steps: 120,
            warmup: 20,
            gamma: 0.8,
            epsilon_start: 0.95,
            epsilon_end: 0.05,
            batch_size: 8,
            replay_capacity: 2000,
            lr: 1e-3,
            grad_clip: 5.0,
            trunk: TrunkConfig { in_channels: 2, channels: vec![8, 16, 32], blocks_per_stage: 1 },
            seed: 0,
        }
    }
}

/// The Q-network: residual trunk plus a linear head emitting one
/// Q-value per action (paper Eq. 5).
pub struct QNetwork {
    trunk: Sequential,
    head: Linear,
}

impl std::fmt::Debug for QNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "QNetwork({:?})", self.trunk)
    }
}

impl QNetwork {
    /// Builds a Q-network for `actions` outputs.
    pub fn new<R: Rng + ?Sized>(trunk_cfg: &TrunkConfig, actions: usize, rng: &mut R) -> Self {
        let trunk = rlmul_nn::build_trunk(trunk_cfg, rng);
        let mut head = Linear::new(trunk_cfg.feature_dim(), actions, rng);
        // Small initial Q-values stabilize the first bootstraps.
        head.scale_parameters(0.01);
        QNetwork { trunk, head }
    }
}

impl Layer for QNetwork {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let f = self.trunk.forward(x, train);
        self.head.forward(&f, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.head.backward(grad_out);
        self.trunk.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.trunk.visit_params(f);
        self.head.visit_params(f);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.trunk.visit_state(f);
        self.head.visit_state(f);
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Transition {
    pub(crate) state: Vec<f32>,
    pub(crate) action: usize,
    pub(crate) reward: f32,
    pub(crate) next_state: Vec<f32>,
    pub(crate) next_mask: Vec<bool>,
}

/// Complete training state of a DQN run at a step boundary: agent
/// weights (including batch-norm running statistics), optimizer
/// moments, the replay buffer, the RNG stream, the environment's
/// mutable state and the run's evaluation-cache working set.
///
/// Opaque outside the crate: produced by checkpointing runs
/// ([`train_dqn_with`] with a store), serialized through
/// [`rlmul_ckpt::Record`], consumed by [`resume_dqn`]. A run resumed
/// from a snapshot replays the exact trajectory of an uninterrupted
/// run with the same configuration.
pub struct DqnSnapshot {
    pub(crate) step: usize,
    pub(crate) rng: [u64; 4],
    pub(crate) net: NetSnapshot,
    pub(crate) opt: Vec<Tensor>,
    pub(crate) replay: Vec<Transition>,
    pub(crate) trajectory: Vec<f64>,
    pub(crate) state: Vec<f32>,
    pub(crate) env: EnvSnapshot,
    pub(crate) cache: Vec<(CacheKey, Evaluation)>,
}

impl DqnSnapshot {
    /// Environment steps completed when the snapshot was taken.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Best cost found up to the snapshot.
    pub fn best_cost(&self) -> f64 {
        self.env.best_cost()
    }

    /// The cache entries the snapshot carries (the run's working set,
    /// in [`EvalCache::export_entries`] order).
    pub fn cache_entries(&self) -> &[(CacheKey, Evaluation)] {
        &self.cache
    }
}

impl std::fmt::Debug for DqnSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DqnSnapshot(step {}, {} replay, {} cache entries)",
            self.step,
            self.replay.len(),
            self.cache.len()
        )
    }
}

/// Runs paper Algorithm 3 on `env`.
///
/// # Errors
///
/// [`RlMulError::InvalidConfig`] when `batch_size` is 0 or exceeds
/// `replay_capacity`; propagates environment (elaboration/synthesis)
/// errors.
pub fn train_dqn(env: &mut MulEnv, config: &DqnConfig) -> Result<OptimizationOutcome, RlMulError> {
    train_dqn_with(env, config, &TrainHooks::default(), None)
}

/// Rebuilds the training run captured in `snapshot` and continues it
/// to `config.steps`. The snapshot's cache entries are imported
/// before the environment is constructed, so every previously
/// synthesized state — including the anchor run — is a cache hit and
/// the resumed run is bit-identical to an uninterrupted one.
///
/// # Errors
///
/// As [`train_dqn`], plus configuration/snapshot mismatches.
pub fn resume_dqn(
    env_config: &EnvConfig,
    config: &DqnConfig,
    snapshot: DqnSnapshot,
    hooks: &TrainHooks,
) -> Result<OptimizationOutcome, RlMulError> {
    resume_dqn_cached(env_config, config, snapshot, EvalCache::new(), hooks)
}

/// [`resume_dqn`] on top of a caller-supplied (typically shared)
/// evaluation cache: the snapshot's entries are imported into `cache`
/// and the resumed run both reads from and publishes into it, so a
/// multi-tenant supervisor can resume a job without losing
/// cross-tenant synthesis reuse.
///
/// # Errors
///
/// As [`resume_dqn`].
pub fn resume_dqn_cached(
    env_config: &EnvConfig,
    config: &DqnConfig,
    mut snapshot: DqnSnapshot,
    cache: EvalCache,
    hooks: &TrainHooks,
) -> Result<OptimizationOutcome, RlMulError> {
    let entries = std::mem::take(&mut snapshot.cache);
    let mut env = MulEnv::with_imported(env_config.clone(), cache, entries)?;
    train_dqn_with(&mut env, config, hooks, Some(snapshot))
}

/// [`train_dqn`] with runtime hooks (telemetry, periodic snapshots,
/// cooperative stop) and an optional resume point.
///
/// # Errors
///
/// As [`train_dqn`], plus snapshot write/restore failures.
pub fn train_dqn_with(
    env: &mut MulEnv,
    config: &DqnConfig,
    hooks: &TrainHooks,
    resume: Option<DqnSnapshot>,
) -> Result<OptimizationOutcome, RlMulError> {
    if config.batch_size == 0 || config.replay_capacity < config.batch_size {
        return Err(RlMulError::InvalidConfig {
            what: format!(
                "batch_size ({}) must be ≥ 1 and ≤ replay_capacity ({})",
                config.batch_size, config.replay_capacity
            ),
        });
    }
    let nn_before = NnStats::snapshot();
    let actions = env.action_space();
    let shape = env.tensor_shape();
    if hooks.telemetry.is_enabled() {
        env.set_telemetry(hooks.telemetry.clone());
    }
    if hooks.trace.is_enabled() {
        env.set_trace(hooks.trace.clone());
    }
    let mut opt = RmsProp::new(config.lr);
    let (mut rng, mut net, mut buffer, mut trajectory, mut state, start) = match resume {
        Some(mut snap) => {
            env.import(std::mem::take(&mut snap.cache));
            env.restore(&snap.env)?;
            // The network is rebuilt from a throwaway RNG (shapes are
            // configuration-determined) and overwritten wholesale;
            // the training stream resumes from the snapshot state.
            let mut net =
                QNetwork::new(&config.trunk, actions, &mut StdRng::seed_from_u64(config.seed));
            restore_net(&mut net, &snap.net)?;
            opt.set_state(snap.opt);
            (
                StdRng::from_state(snap.rng),
                net,
                VecDeque::from(snap.replay),
                snap.trajectory,
                snap.state,
                snap.step,
            )
        }
        None => {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let net = QNetwork::new(&config.trunk, actions, &mut rng);
            let state = env.encode_current()?.data().to_vec();
            let buffer = VecDeque::with_capacity(config.replay_capacity);
            (rng, net, buffer, Vec::with_capacity(config.steps), state, 0)
        }
    };
    if start > config.steps {
        return Err(RlMulError::InvalidConfig {
            what: format!("snapshot at step {start} exceeds the {}-step budget", config.steps),
        });
    }

    let obs = rlmul_obs::global();
    let _train_span = obs.span("train.dqn");
    let spans_before = obs.span_stats();
    let agent_steps = obs.labeled_counter(
        "rlmul_agent_steps_total",
        "Optimization steps taken by each agent.",
        &[("method", "dqn")],
    );
    let mut best_saved = f64::INFINITY;
    let mut completed = start;
    for t in start..config.steps {
        if hooks.stop_requested() {
            break;
        }
        let _step_span = obs.span("dqn.step");
        agent_steps.inc();
        let mask = env.action_mask();
        let epsilon = if config.steps <= 1 {
            config.epsilon_end
        } else {
            let frac = t as f32 / (config.steps - 1) as f32;
            config.epsilon_start + (config.epsilon_end - config.epsilon_start) * frac
        };
        let action = if t < config.warmup || rng.gen::<f32>() < epsilon {
            random_legal(&mask, &mut rng)
        } else {
            let x = Tensor::from_vec(&shape, state.clone());
            let q = net.forward(&x, false);
            masked_argmax(q.data(), &mask).expect("legal actions always exist")
        };
        let outcome = env.step(action)?;
        trajectory.push(outcome.cost);
        if hooks.telemetry.is_enabled() {
            let r0 = &outcome.evaluation.reports[0];
            hooks.telemetry.emit(
                Event::new("episode")
                    .with("method", "dqn")
                    .with("step", t as u64)
                    .with("reward", outcome.reward)
                    .with("cost", outcome.cost)
                    .with("area_um2", r0.area_um2)
                    .with("delay_ns", r0.delay_ns),
            );
        }
        let next_state = env.encode_current()?.data().to_vec();
        let next_mask = env.action_mask();
        if buffer.len() == config.replay_capacity {
            buffer.pop_front();
        }
        buffer.push_back(Transition {
            state: std::mem::replace(&mut state, next_state.clone()),
            action,
            reward: outcome.reward as f32,
            next_state,
            next_mask,
        });

        if buffer.len() >= config.batch_size {
            let batch: Vec<&Transition> =
                (0..config.batch_size).map(|_| &buffer[rng.gen_range(0..buffer.len())]).collect();
            update(&mut net, &mut opt, &batch, config, &shape, actions);
        }
        completed = t + 1;
        hooks.report_progress(completed);
        if hooks.checkpoint_due(completed, config.steps) {
            save_dqn_checkpoint(
                completed,
                &rng,
                &mut net,
                &opt,
                &buffer,
                &trajectory,
                &state,
                env,
                hooks,
                &mut best_saved,
                true,
            )?;
        }
    }

    // Verification sweep on normal completion only: an interrupted
    // run sweeps when its resumption finishes, so resume stays
    // bit-identical to an uninterrupted run.
    if completed == config.steps {
        env.verify_screened()?;
    }
    // Shutdown snapshot: rolled on normal completion and on
    // cooperative stop alike, so `resume` always has the exact state
    // the run ended in.
    if hooks.store.is_some() {
        save_dqn_checkpoint(
            completed,
            &rng,
            &mut net,
            &opt,
            &buffer,
            &trajectory,
            &state,
            env,
            hooks,
            &mut best_saved,
            false,
        )?;
    }
    let pipeline =
        PipelineStats::pooled(std::slice::from_ref(env), NnStats::snapshot().since(nn_before));
    if hooks.telemetry.is_enabled() {
        hooks.telemetry.emit(pipeline.cache_event());
        hooks.telemetry.emit(Event::new("nn").with("flops", pipeline.nn.flops));
        emit_span_events(&hooks.telemetry, &obs.span_stats_since(&spans_before));
    }

    let (best, best_cost) = env.best();
    Ok(OptimizationOutcome {
        best: best.clone(),
        best_cost,
        trajectory,
        pareto_points: env.pareto_points().to_vec(),
        states_visited: pipeline.cache_entries,
        synth_runs: env.stats().synth_runs,
        pipeline,
    })
}

/// Rolls the full training state at a step boundary into the
/// checkpoint store ([`TrainHooks::roll_checkpoint`]).
#[allow(clippy::too_many_arguments)]
fn save_dqn_checkpoint(
    step: usize,
    rng: &StdRng,
    net: &mut QNetwork,
    opt: &RmsProp,
    buffer: &VecDeque<Transition>,
    trajectory: &[f64],
    state: &[f32],
    env: &mut MulEnv,
    hooks: &TrainHooks,
    best_saved: &mut f64,
    periodic: bool,
) -> Result<(), RlMulError> {
    let snap = DqnSnapshot {
        step,
        rng: rng.state(),
        net: snapshot_net(net),
        opt: opt.state().to_vec(),
        replay: buffer.iter().cloned().collect(),
        trajectory: trajectory.to_vec(),
        state: state.to_vec(),
        env: env.snapshot(),
        cache: env.working_set().export(),
    };
    hooks.roll_checkpoint(step, &snap, env.best().1, best_saved, periodic)
}

fn random_legal<R: Rng + ?Sized>(mask: &[bool], rng: &mut R) -> usize {
    let legal: Vec<usize> = mask.iter().enumerate().filter(|(_, &ok)| ok).map(|(i, _)| i).collect();
    legal[rng.gen_range(0..legal.len())]
}

/// Bootstrapped TD targets `r + γ·max_a' Q(s', a')` (paper Eq. 11),
/// evaluated with `train == false` so the pass caches nothing.
fn bootstrap_targets(
    net: &mut QNetwork,
    next: &Tensor,
    batch: &[&Transition],
    config: &DqnConfig,
    actions: usize,
) -> Vec<f32> {
    let q_next = net.forward(next, false);
    batch
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let row = &q_next.data()[i * actions..(i + 1) * actions];
            let best = masked_argmax(row, &t.next_mask).map(|a| row[a]).unwrap_or(0.0);
            t.reward + config.gamma * best
        })
        .collect()
}

/// One gradient step on the TD objective of paper Eqs. (11)–(12).
///
/// One network plays both roles here: the *training* forward over the
/// current states and the *bootstrap* evaluation forward over the
/// next states. The evaluation pass deliberately runs between the
/// training forward and its backward, which is only sound because of
/// the [`Layer`] caching contract — `train == false` forwards cache
/// nothing, so [`bootstrap_targets`] cannot clobber the intermediates
/// (cached inputs, ReLU masks, batch-norm statistics) the backward
/// consumes. `update_gradient_matches_two_net_reference` pins this
/// against a frozen-target-network reference implementation.
fn update(
    net: &mut QNetwork,
    opt: &mut RmsProp,
    batch: &[&Transition],
    config: &DqnConfig,
    shape: &[usize; 4],
    actions: usize,
) {
    let b = batch.len();
    let bshape = [b, shape[1], shape[2], shape[3]];
    let stack = |pick: &dyn Fn(&Transition) -> &[f32]| -> Tensor {
        let mut data = Vec::with_capacity(b * shape[1] * shape[2] * shape[3]);
        for t in batch {
            data.extend_from_slice(pick(t));
        }
        Tensor::from_vec(&bshape, data)
    };
    // Phase 1: training forward (caches intermediates, updates
    // batch-norm running statistics).
    opt.zero_grad(net);
    let cur = stack(&|t| &t.state);
    let q = net.forward(&cur, true);
    // Phase 2: bootstrap evaluation — no gradient through the next
    // state, and per the caching contract no effect on phase 1 state.
    let next = stack(&|t| &t.next_state);
    let targets = bootstrap_targets(net, &next, batch, config, actions);
    // Phase 3: masked MSE on the chosen actions, backward, step.
    let mut grad = Tensor::zeros(q.shape());
    for (i, t) in batch.iter().enumerate() {
        let pred = q.data()[i * actions + t.action];
        grad.data_mut()[i * actions + t.action] = 2.0 * (pred - targets[i]) / b as f32;
    }
    net.backward(&grad);
    clip_grad_norm(net, config.grad_clip);
    opt.step(net);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;
    use rlmul_ct::PpgKind;

    fn tiny_config() -> DqnConfig {
        DqnConfig {
            steps: 12,
            warmup: 4,
            batch_size: 4,
            trunk: TrunkConfig { in_channels: 2, channels: vec![4, 8], blocks_per_stage: 1 },
            ..Default::default()
        }
    }

    #[test]
    fn dqn_runs_and_tracks_best() {
        let mut env = MulEnv::new(EnvConfig::new(4, PpgKind::And)).unwrap();
        let out = train_dqn(&mut env, &tiny_config()).unwrap();
        assert_eq!(out.trajectory.len(), 12);
        assert!(out.best_cost <= out.trajectory[0] + 1e-9);
        out.best.check_legal().unwrap();
        assert!(out.synth_runs >= out.states_visited);
    }

    #[test]
    fn dqn_is_deterministic_given_seed() {
        let run = || {
            let mut env = MulEnv::new(EnvConfig::new(4, PpgKind::And)).unwrap();
            train_dqn(&mut env, &tiny_config()).unwrap().trajectory
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_batch_is_invalid() {
        let mut env = MulEnv::new(EnvConfig::new(4, PpgKind::And)).unwrap();
        let cfg = DqnConfig { batch_size: 0, ..tiny_config() };
        assert!(matches!(train_dqn(&mut env, &cfg), Err(RlMulError::InvalidConfig { .. })));
    }

    #[test]
    fn replay_smaller_than_batch_is_invalid() {
        let mut env = MulEnv::new(EnvConfig::new(4, PpgKind::And)).unwrap();
        let cfg = DqnConfig { replay_capacity: 3, ..tiny_config() };
        assert!(matches!(train_dqn(&mut env, &cfg), Err(RlMulError::InvalidConfig { .. })));
    }

    /// The single-net `update` interleaves an evaluation forward
    /// (bootstrap targets) between the training forward and its
    /// backward. This pins its gradient, bit for bit, against the
    /// unambiguous two-network formulation: a frozen target copy
    /// computes the bootstrap, so nothing can interfere with the
    /// training net's cached state.
    #[test]
    fn update_gradient_matches_two_net_reference() {
        let config = DqnConfig {
            trunk: TrunkConfig { in_channels: 2, channels: vec![4, 8], blocks_per_stage: 1 },
            ..Default::default()
        };
        let shape = [1usize, 2, 8, 8];
        let volume = shape[1] * shape[2] * shape[3];
        let actions = 6;
        let mut rng = StdRng::seed_from_u64(99);
        let transitions: Vec<Transition> = (0..4)
            .map(|_| Transition {
                state: (0..volume).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                action: rng.gen_range(0..actions),
                reward: rng.gen_range(-1.0..1.0),
                next_state: (0..volume).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                next_mask: (0..actions).map(|_| rng.gen::<f32>() < 0.7).collect(),
            })
            .map(|mut t| {
                if !t.next_mask.iter().any(|&m| m) {
                    t.next_mask[0] = true;
                }
                t
            })
            .collect();
        let batch: Vec<&Transition> = transitions.iter().collect();
        let grads_of = |net: &mut QNetwork| {
            let mut g = Vec::new();
            net.visit_params(&mut |p| g.extend_from_slice(p.grad.data()));
            g
        };

        // Single-net path (the production `update`).
        let mut net = QNetwork::new(&config.trunk, actions, &mut StdRng::seed_from_u64(7));
        let mut opt = RmsProp::new(config.lr);
        update(&mut net, &mut opt, &batch, &config, &shape, actions);

        // Two-net reference: a twin built from the same seed replays
        // the training forward (so its batch-norm running statistics
        // match), then serves as the frozen target network.
        let mut train_net = QNetwork::new(&config.trunk, actions, &mut StdRng::seed_from_u64(7));
        let mut target_net = QNetwork::new(&config.trunk, actions, &mut StdRng::seed_from_u64(7));
        let stack = |pick: &dyn Fn(&Transition) -> &[f32]| {
            let mut data = Vec::new();
            for t in &batch {
                data.extend_from_slice(pick(t));
            }
            Tensor::from_vec(&[batch.len(), shape[1], shape[2], shape[3]], data)
        };
        let cur = stack(&|t| &t.state);
        let next = stack(&|t| &t.next_state);
        target_net.forward(&cur, true); // sync running statistics
        let targets = bootstrap_targets(&mut target_net, &next, &batch, &config, actions);
        let q = train_net.forward(&cur, true);
        let mut grad = Tensor::zeros(q.shape());
        for (i, t) in batch.iter().enumerate() {
            let pred = q.data()[i * actions + t.action];
            grad.data_mut()[i * actions + t.action] =
                2.0 * (pred - targets[i]) / batch.len() as f32;
        }
        train_net.backward(&grad);
        clip_grad_norm(&mut train_net, config.grad_clip);

        assert_eq!(grads_of(&mut net), grads_of(&mut train_net));
    }

    #[test]
    fn qnetwork_output_width_matches_action_space() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TrunkConfig { in_channels: 2, channels: vec![4], blocks_per_stage: 1 };
        let mut net = QNetwork::new(&cfg, 32, &mut rng);
        let x = Tensor::zeros(&[2, 2, 8, 8]);
        let y = net.forward(&x, false);
        assert_eq!(y.shape(), &[2, 32]);
    }
}
