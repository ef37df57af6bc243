//! RL-MUL-E: synchronous parallel advantage actor–critic
//! (paper Section IV-A, Algorithm 4).
//!
//! `n` environment instances step in parallel threads; the policy and
//! value heads share the residual trunk (as the paper shares
//! ResNet-18's convolutional layers). Updates use `k`-step
//! bootstrapped returns, masked-softmax action sampling (Eqs. 13–15),
//! the policy gradient of Eq. 16 and the TD value loss of Eq. 19,
//! plus an entropy bonus for sustained exploration.

use crate::cache::{CacheKey, EvalCache, WorkingSet};
use crate::env::{EnvConfig, EnvSnapshot, Evaluation, MulEnv};
use crate::hooks::{emit_span_events, TrainHooks};
use crate::outcome::{OptimizationOutcome, PipelineStats};
use crate::RlMulError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlmul_check::sync::{channel, Receiver, Sender};
use rlmul_nn::{
    clip_grad_norm, entropy, masked_softmax, restore_net, snapshot_net, Adam, Layer, Linear,
    NetSnapshot, NnStats, Optimizer, Param, Sequential, Tensor, TrunkConfig,
};
use rlmul_telemetry::{Event, TelemetrySink};
use std::thread::{Scope, ScopedJoinHandle};

/// A2C hyper-parameters. The paper's RL-MUL-E uses four synchronized
/// workers and a five-step return; those are the defaults.
#[derive(Debug, Clone)]
pub struct A2cConfig {
    /// Environment steps per worker.
    pub steps: usize,
    /// Number of parallel environment instances `n`.
    pub n_envs: usize,
    /// Update interval / bootstrap horizon `t_up` (paper: 5).
    pub n_step: usize,
    /// Discount factor γ.
    pub gamma: f32,
    /// Learning rate.
    pub lr: f32,
    /// Entropy-bonus coefficient.
    pub entropy_coef: f32,
    /// Value-loss coefficient.
    pub value_coef: f32,
    /// Gradient-norm clip.
    pub grad_clip: f32,
    /// Shared trunk configuration.
    pub trunk: TrunkConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for A2cConfig {
    fn default() -> Self {
        A2cConfig {
            steps: 120,
            n_envs: 4,
            n_step: 5,
            gamma: 0.8,
            lr: 7e-4,
            entropy_coef: 0.01,
            value_coef: 0.5,
            grad_clip: 5.0,
            trunk: TrunkConfig { in_channels: 2, channels: vec![8, 16, 32], blocks_per_stage: 1 },
            seed: 0,
        }
    }
}

/// Actor–critic network with a shared convolutional trunk.
pub struct PolicyValueNet {
    trunk: Sequential,
    policy: Linear,
    value: Linear,
}

impl std::fmt::Debug for PolicyValueNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PolicyValueNet({:?})", self.trunk)
    }
}

impl PolicyValueNet {
    /// Builds the shared-trunk actor–critic for `actions` outputs.
    pub fn new<R: Rng + ?Sized>(trunk_cfg: &TrunkConfig, actions: usize, rng: &mut R) -> Self {
        let trunk = rlmul_nn::build_trunk(trunk_cfg, rng);
        let mut policy = Linear::new(trunk_cfg.feature_dim(), actions, rng);
        policy.scale_parameters(0.01); // near-uniform initial policy
        let value = Linear::new(trunk_cfg.feature_dim(), 1, rng);
        PolicyValueNet { trunk, policy, value }
    }

    /// Forward pass returning `(logits [b, A], values [b, 1])`.
    pub fn forward_both(&mut self, x: &Tensor, train: bool) -> (Tensor, Tensor) {
        let features = self.trunk.forward(x, train);
        let logits = self.policy.forward(&features, train);
        let values = self.value.forward(&features, train);
        (logits, values)
    }

    /// Backward pass combining both heads' gradients through the
    /// shared trunk.
    pub fn backward_both(&mut self, grad_logits: &Tensor, grad_values: &Tensor) {
        let mut g = self.policy.backward(grad_logits);
        g.add_assign(&self.value.backward(grad_values));
        self.trunk.backward(&g);
    }

    /// Visits all trainable parameters.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.trunk.visit_params(f);
        self.policy.visit_params(f);
        self.value.visit_params(f);
    }

    /// Visits non-trainable forward state (batch-norm running
    /// statistics), mirroring [`Layer::visit_state`].
    pub fn visit_state(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.trunk.visit_state(f);
        self.policy.visit_state(f);
        self.value.visit_state(f);
    }
}

/// Adapter so optimizers (which drive `Layer`) can update the
/// two-headed network.
struct NetAsLayer<'a>(&'a mut PolicyValueNet);
impl Layer for NetAsLayer<'_> {
    fn forward(&mut self, _x: &Tensor, _train: bool) -> Tensor {
        unreachable!("optimizer adapter never runs forward")
    }
    fn backward(&mut self, _g: &Tensor) -> Tensor {
        unreachable!("optimizer adapter never runs backward")
    }
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.0.visit_params(f);
    }
    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.0.visit_state(f);
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Sample {
    pub(crate) state: Vec<f32>,
    pub(crate) mask: Vec<bool>,
    pub(crate) action: usize,
    pub(crate) reward: f32,
}

/// Everything the main loop needs back from one environment step.
/// Computed inside the worker so encoding and mask derivation also
/// run in parallel.
struct StepReply {
    reward: f64,
    cost: f64,
    state: Vec<f32>,
    mask: Vec<bool>,
}

fn step_reply(env: &mut MulEnv, action: usize) -> Result<StepReply, RlMulError> {
    let out = env.step(action)?;
    let state = env.encode_current()?.data().to_vec();
    let mask = env.action_mask();
    Ok(StepReply { reward: out.reward, cost: out.cost, state, mask })
}

/// Commands the main thread sends a pool worker.
enum Cmd {
    /// Step the environment with this flattened action index.
    Step(usize),
    /// Capture the environment's [`EnvSnapshot`] and working set at
    /// the current step boundary (the checkpoint path).
    Snapshot,
}

/// Worker replies, matching [`Cmd`] one-to-one. A step reply carries
/// the telemetry the environment held back during the step.
enum Reply {
    Step(Box<(Result<StepReply, RlMulError>, Vec<Event>)>),
    Snapshot(Box<(EnvSnapshot, WorkingSet)>),
}

/// Every worker's [`EnvSnapshot`] plus the exported union of their
/// working sets — the environment half of an [`A2cSnapshot`].
type Captured = (Vec<EnvSnapshot>, Vec<(CacheKey, Evaluation)>);

fn capture(envs: &mut [MulEnv]) -> Captured {
    let snaps = envs.iter_mut().map(MulEnv::snapshot).collect();
    (snaps, WorkingSet::export_union(envs.iter().map(MulEnv::working_set)))
}

/// A persistent worker per environment, fed commands over a channel —
/// threads are spawned once per training run instead of once per
/// step. Workers hand their environment back at [`EnvPool::finish`].
///
/// With a single environment no threads are spawned at all (serial
/// fallback); results are identical either way because action
/// selection (and its RNG) stays on the main thread and replies are
/// collected in environment order.
enum EnvPool<'scope> {
    Serial(Vec<MulEnv>),
    Parallel(Vec<PoolWorker<'scope>>),
}

struct PoolWorker<'scope> {
    tx: Sender<Cmd>,
    rx: Receiver<Reply>,
    handle: ScopedJoinHandle<'scope, MulEnv>,
}

impl<'scope> EnvPool<'scope> {
    fn launch<'env>(scope: &'scope Scope<'scope, 'env>, envs: Vec<MulEnv>) -> Self {
        if envs.len() == 1 {
            return EnvPool::Serial(envs);
        }
        let workers = envs
            .into_iter()
            .map(|mut env| {
                env.hold_telemetry(true);
                let (tx_cmd, rx_cmd) = channel::<Cmd>("core.pool.cmd");
                let (tx_reply, rx_reply) = channel("core.pool.reply");
                let handle = scope.spawn(move || {
                    while let Ok(cmd) = rx_cmd.recv() {
                        let reply = match cmd {
                            Cmd::Step(action) => {
                                let reply = step_reply(&mut env, action);
                                Reply::Step(Box::new((reply, env.take_held_telemetry())))
                            }
                            Cmd::Snapshot => Reply::Snapshot(Box::new((
                                env.snapshot(),
                                env.working_set().clone(),
                            ))),
                        };
                        if tx_reply.send(reply).is_err() {
                            break;
                        }
                    }
                    env
                });
                PoolWorker { tx: tx_cmd, rx: rx_reply, handle }
            })
            .collect();
        EnvPool::Parallel(workers)
    }

    /// Steps every environment with its action; replies come back in
    /// environment order regardless of completion order, and so do the
    /// workers' telemetry events, which are emitted into `sink` here.
    fn step_all(
        &mut self,
        actions: &[usize],
        sink: &TelemetrySink,
    ) -> Vec<Result<StepReply, RlMulError>> {
        match self {
            EnvPool::Serial(envs) => {
                envs.iter_mut().zip(actions).map(|(env, &a)| step_reply(env, a)).collect()
            }
            EnvPool::Parallel(workers) => {
                for (w, &a) in workers.iter().zip(actions) {
                    w.tx.send(Cmd::Step(a)).expect("worker thread exited early");
                }
                workers
                    .iter()
                    .map(|w| match w.rx.recv().expect("worker thread panicked") {
                        Reply::Step(r) => {
                            let (reply, events) = *r;
                            for event in events {
                                sink.emit(event);
                            }
                            reply
                        }
                        Reply::Snapshot(_) => unreachable!("step command answered with snapshot"),
                    })
                    .collect()
            }
        }
    }

    /// Collects every environment's snapshot and working set at the
    /// current step boundary (workers are idle between `step_all`
    /// calls, so this observes a consistent global state).
    fn snapshot_all(&mut self) -> Captured {
        match self {
            EnvPool::Serial(envs) => capture(envs),
            EnvPool::Parallel(workers) => {
                for w in workers.iter() {
                    w.tx.send(Cmd::Snapshot).expect("worker thread exited early");
                }
                let (snaps, sets): (Vec<EnvSnapshot>, Vec<WorkingSet>) = workers
                    .iter()
                    .map(|w| match w.rx.recv().expect("worker thread panicked") {
                        Reply::Snapshot(s) => *s,
                        Reply::Step(_) => unreachable!("snapshot command answered with step"),
                    })
                    .unzip();
                (snaps, WorkingSet::export_union(&sets))
            }
        }
    }

    /// Shuts the workers down and returns the environments.
    fn finish(self) -> Vec<MulEnv> {
        match self {
            EnvPool::Serial(envs) => envs,
            EnvPool::Parallel(workers) => workers
                .into_iter()
                .map(|w| {
                    drop(w.tx);
                    let mut env = w.handle.join().expect("worker thread panicked");
                    env.hold_telemetry(false);
                    env
                })
                .collect(),
        }
    }
}

/// Trains RL-MUL-E: `config.n_envs` synchronized environments built
/// from `env_config`, one shared model. Returns the pooled outcome
/// (best design across workers, mean-cost trajectory, union of
/// synthesized points).
///
/// # Errors
///
/// Propagates environment construction and stepping errors.
pub fn train_a2c(
    env_config: &EnvConfig,
    config: &A2cConfig,
) -> Result<OptimizationOutcome, RlMulError> {
    train_a2c_cached(env_config, config, EvalCache::new())
}

/// [`train_a2c`] on top of an existing shared evaluation cache, so
/// several training runs (or a training run after a baseline sweep)
/// can reuse each other's synthesized states.
///
/// # Errors
///
/// As [`train_a2c`].
pub fn train_a2c_cached(
    env_config: &EnvConfig,
    config: &A2cConfig,
    cache: EvalCache,
) -> Result<OptimizationOutcome, RlMulError> {
    train_a2c_with(env_config, config, cache, &TrainHooks::default(), None)
}

/// Complete training state of an RL-MUL-E run at a step boundary:
/// the shared network (weights and batch-norm running statistics),
/// Adam moments, every worker's in-progress rollout, per-worker
/// environment snapshots, the RNG stream and the union of the
/// workers' cache working sets.
///
/// Opaque outside the crate: produced by checkpointing runs
/// ([`train_a2c_with`] with a store), serialized through
/// [`rlmul_ckpt::Record`], consumed by [`resume_a2c`].
pub struct A2cSnapshot {
    pub(crate) step: usize,
    pub(crate) rng: [u64; 4],
    pub(crate) net: NetSnapshot,
    pub(crate) adam_t: i64,
    pub(crate) adam_m: Vec<Tensor>,
    pub(crate) adam_v: Vec<Tensor>,
    pub(crate) rollout: Vec<Vec<Sample>>,
    pub(crate) states: Vec<Vec<f32>>,
    pub(crate) masks: Vec<Vec<bool>>,
    pub(crate) trajectory: Vec<f64>,
    pub(crate) envs: Vec<EnvSnapshot>,
    pub(crate) cache: Vec<(CacheKey, Evaluation)>,
}

impl A2cSnapshot {
    /// Synchronized steps completed when the snapshot was taken.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Best cost across all workers at the snapshot.
    pub fn best_cost(&self) -> f64 {
        self.envs.iter().map(EnvSnapshot::best_cost).fold(f64::INFINITY, f64::min)
    }

    /// The cache entries the snapshot carries (the run's working set,
    /// in [`EvalCache::export_entries`] order).
    pub fn cache_entries(&self) -> &[(CacheKey, Evaluation)] {
        &self.cache
    }
}

impl std::fmt::Debug for A2cSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "A2cSnapshot(step {}, {} workers, {} cache entries)",
            self.step,
            self.envs.len(),
            self.cache.len()
        )
    }
}

/// Rebuilds the training run captured in `snapshot` and continues it
/// to `config.steps`. The snapshot's cache entries are imported
/// before the worker environments are constructed, so their anchor
/// synthesis and every previously evaluated state are cache hits and
/// the resumed run is bit-identical to an uninterrupted one.
///
/// # Errors
///
/// As [`train_a2c`], plus configuration/snapshot mismatches.
pub fn resume_a2c(
    env_config: &EnvConfig,
    config: &A2cConfig,
    snapshot: A2cSnapshot,
    hooks: &TrainHooks,
) -> Result<OptimizationOutcome, RlMulError> {
    train_a2c_with(env_config, config, EvalCache::new(), hooks, Some(snapshot))
}

/// [`train_a2c_cached`] with runtime hooks (telemetry, periodic
/// snapshots, cooperative stop) and an optional resume point.
///
/// # Errors
///
/// As [`train_a2c`], plus snapshot write/restore failures.
pub fn train_a2c_with(
    env_config: &EnvConfig,
    config: &A2cConfig,
    cache: EvalCache,
    hooks: &TrainHooks,
    mut resume: Option<A2cSnapshot>,
) -> Result<OptimizationOutcome, RlMulError> {
    if config.n_envs == 0 || config.n_step == 0 {
        return Err(RlMulError::InvalidConfig { what: "n_envs and n_step must be ≥ 1".into() });
    }
    if let Some(snap) = &resume {
        let n = config.n_envs;
        if snap.envs.len() != n
            || snap.states.len() != n
            || snap.masks.len() != n
            || snap.rollout.len() != n
        {
            return Err(RlMulError::InvalidConfig {
                what: format!("snapshot has {} workers, configuration has {n}", snap.envs.len()),
            });
        }
        if snap.step > config.steps {
            return Err(RlMulError::InvalidConfig {
                what: format!(
                    "snapshot at step {} exceeds the {}-step budget",
                    snap.step, config.steps
                ),
            });
        }
    }
    // Network forwards/backwards all run on this thread; the env
    // workers only step environments, so a thread-local snapshot
    // captures the whole run's dense-kernel work.
    let nn_before = NnStats::snapshot();
    // All workers share one evaluation cache: a state synthesized by
    // any of them is a hit for the rest, and the in-flight coalescing
    // keeps two workers from ever synthesizing the same state at the
    // same time. The snapshot's entries are imported (into worker 0's
    // working set) before any worker is built, so every anchor run and
    // initial-state evaluation hits.
    let mut imported = resume.as_mut().map(|snap| std::mem::take(&mut snap.cache));
    let mut envs: Vec<MulEnv> = (0..config.n_envs)
        .map(|_| {
            let entries = imported.take().unwrap_or_default();
            MulEnv::with_imported(env_config.clone(), cache.clone(), entries)
        })
        .collect::<Result<_, _>>()?;
    if hooks.telemetry.is_enabled() {
        for env in &mut envs {
            env.set_telemetry(hooks.telemetry.clone());
        }
    }
    if hooks.trace.is_enabled() {
        for env in &mut envs {
            env.set_trace(hooks.trace.clone());
        }
    }
    let actions = envs[0].action_space();
    let shape = envs[0].tensor_shape();
    let volume: usize = shape[1] * shape[2] * shape[3];
    let mut opt = Adam::new(config.lr);

    let (mut rng, mut net, mut states, mut masks, mut rollout, mut trajectory, start) = match resume
    {
        Some(snap) => {
            for (env, es) in envs.iter_mut().zip(&snap.envs) {
                env.restore(es)?;
            }
            let mut net = PolicyValueNet::new(
                &config.trunk,
                actions,
                &mut StdRng::seed_from_u64(config.seed),
            );
            restore_net(&mut NetAsLayer(&mut net), &snap.net)?;
            opt.set_state(snap.adam_t, snap.adam_m, snap.adam_v);
            (
                StdRng::from_state(snap.rng),
                net,
                snap.states,
                snap.masks,
                snap.rollout,
                snap.trajectory,
                snap.step,
            )
        }
        None => {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let net = PolicyValueNet::new(&config.trunk, actions, &mut rng);
            let states: Vec<Vec<f32>> = envs
                .iter()
                .map(|e| Ok(e.encode_current()?.data().to_vec()))
                .collect::<Result<_, RlMulError>>()?;
            let masks: Vec<Vec<bool>> = envs.iter().map(|e| e.action_mask()).collect();
            let rollout: Vec<Vec<Sample>> = vec![Vec::new(); config.n_envs];
            (rng, net, states, masks, rollout, Vec::with_capacity(config.steps), 0)
        }
    };

    let obs = rlmul_obs::global();
    let _train_span = obs.span("train.a2c");
    let spans_before = obs.span_stats();
    let agent_steps = obs.labeled_counter(
        "rlmul_agent_steps_total",
        "Optimization steps taken by each agent.",
        &[("method", "a2c")],
    );
    let mut best_saved = f64::INFINITY;
    let mut completed = start;
    let mut envs = std::thread::scope(|scope| -> Result<Vec<MulEnv>, RlMulError> {
        let mut pool = EnvPool::launch(scope, envs);
        for t in start..config.steps {
            if hooks.stop_requested() {
                break;
            }
            let _step_span = obs.span("a2c.step");
            agent_steps.inc();
            // Policy forward over all workers at once; action
            // sampling stays on the main thread so the RNG stream —
            // and therefore the whole run — is independent of worker
            // scheduling.
            let mut batch = Vec::with_capacity(config.n_envs * volume);
            for s in &states {
                batch.extend_from_slice(s);
            }
            let x = Tensor::from_vec(&[config.n_envs, shape[1], shape[2], shape[3]], batch);
            let (logits, _) = net.forward_both(&x, false);
            let chosen: Vec<usize> = (0..config.n_envs)
                .map(|i| {
                    let row = &logits.data()[i * actions..(i + 1) * actions];
                    let probs = masked_softmax(row, &masks[i]);
                    sample_from(&probs, &mut rng)
                })
                .collect();

            // Synchronous parallel environment stepping (paper
            // Fig. 6), replies in environment order.
            let replies = pool.step_all(&chosen, &hooks.telemetry);
            let mut mean_cost = 0.0;
            let mut mean_reward = 0.0;
            for (i, res) in replies.into_iter().enumerate() {
                let reply = res?;
                mean_cost += reply.cost / config.n_envs as f64;
                mean_reward += reply.reward / config.n_envs as f64;
                rollout[i].push(Sample {
                    state: std::mem::take(&mut states[i]),
                    mask: std::mem::take(&mut masks[i]),
                    action: chosen[i],
                    reward: reply.reward as f32,
                });
                states[i] = reply.state;
                masks[i] = reply.mask;
            }
            trajectory.push(mean_cost);
            if hooks.telemetry.is_enabled() {
                hooks.telemetry.emit(
                    Event::new("episode")
                        .with("method", "a2c")
                        .with("step", t as u64)
                        .with("reward", mean_reward)
                        .with("cost", mean_cost),
                );
            }

            if rollout[0].len() >= config.n_step {
                update(&mut net, &mut opt, &mut rollout, &states, config, &shape, actions);
            }
            completed = t + 1;
            hooks.report_progress(completed);
            if hooks.checkpoint_due(completed, config.steps) {
                save_a2c_checkpoint(
                    completed,
                    &rng,
                    &mut net,
                    &opt,
                    &rollout,
                    &states,
                    &masks,
                    &trajectory,
                    pool.snapshot_all(),
                    hooks,
                    &mut best_saved,
                    true,
                )?;
            }
        }
        Ok(pool.finish())
    })?;

    // Verification sweep on normal completion only: an interrupted
    // run sweeps when its resumption finishes, so resume stays
    // bit-identical to an uninterrupted run. Environment order keeps
    // the shared cache's fill order deterministic.
    if completed == config.steps {
        for env in &mut envs {
            env.verify_screened()?;
        }
    }
    // Shutdown snapshot: rolled on normal completion and on
    // cooperative stop alike, so `resume` always has the exact state
    // the run ended in.
    if hooks.store.is_some() {
        save_a2c_checkpoint(
            completed,
            &rng,
            &mut net,
            &opt,
            &rollout,
            &states,
            &masks,
            &trajectory,
            capture(&mut envs),
            hooks,
            &mut best_saved,
            false,
        )?;
    }
    let pipeline = PipelineStats::pooled(&envs, NnStats::snapshot().since(nn_before));
    if hooks.telemetry.is_enabled() {
        hooks.telemetry.emit(pipeline.cache_event());
        hooks.telemetry.emit(Event::new("nn").with("flops", pipeline.nn.flops));
        emit_span_events(&hooks.telemetry, &obs.span_stats_since(&spans_before));
    }

    // The best design across workers and the union of their points.
    let mut best_cost = f64::INFINITY;
    let mut best = envs[0].best().0.clone();
    let mut pareto_points = Vec::new();
    let mut synth_runs = 0;
    for env in &envs {
        let (tree, cost) = env.best();
        if cost < best_cost {
            best_cost = cost;
            best = tree.clone();
        }
        pareto_points.extend_from_slice(env.pareto_points());
        synth_runs += env.stats().synth_runs;
    }
    Ok(OptimizationOutcome {
        best,
        best_cost,
        trajectory,
        pareto_points,
        states_visited: pipeline.cache_entries,
        synth_runs,
        pipeline,
    })
}

/// Rolls the full synchronized training state at a step boundary
/// into the checkpoint store ([`TrainHooks::roll_checkpoint`]).
#[allow(clippy::too_many_arguments)]
fn save_a2c_checkpoint(
    step: usize,
    rng: &StdRng,
    net: &mut PolicyValueNet,
    opt: &Adam,
    rollout: &[Vec<Sample>],
    states: &[Vec<f32>],
    masks: &[Vec<bool>],
    trajectory: &[f64],
    (env_snaps, cache): Captured,
    hooks: &TrainHooks,
    best_saved: &mut f64,
    periodic: bool,
) -> Result<(), RlMulError> {
    let (adam_t, adam_m, adam_v) = opt.state();
    let snap = A2cSnapshot {
        step,
        rng: rng.state(),
        net: snapshot_net(&mut NetAsLayer(net)),
        adam_t,
        adam_m: adam_m.to_vec(),
        adam_v: adam_v.to_vec(),
        rollout: rollout.to_vec(),
        states: states.to_vec(),
        masks: masks.to_vec(),
        trajectory: trajectory.to_vec(),
        envs: env_snaps,
        cache,
    };
    hooks.roll_checkpoint(step, &snap, snap.best_cost(), best_saved, periodic)
}

fn sample_from<R: Rng + ?Sized>(probs: &[f32], rng: &mut R) -> usize {
    let mut u: f32 = rng.gen();
    for (i, &p) in probs.iter().enumerate() {
        u -= p;
        if u <= 0.0 {
            return i;
        }
    }
    probs.iter().rposition(|&p| p > 0.0).expect("probabilities sum to 1")
}

/// One synchronous update over the collected `n_step` rollout
/// (paper Eqs. 16–19).
fn update(
    net: &mut PolicyValueNet,
    opt: &mut Adam,
    rollout: &mut [Vec<Sample>],
    bootstrap_states: &[Vec<f32>],
    config: &A2cConfig,
    shape: &[usize; 4],
    actions: usize,
) {
    let n_envs = rollout.len();
    let volume: usize = shape[1] * shape[2] * shape[3];
    // Bootstrap values v(s_{t+k}) for every worker.
    let mut tail = Vec::with_capacity(n_envs * volume);
    for s in bootstrap_states {
        tail.extend_from_slice(s);
    }
    let xt = Tensor::from_vec(&[n_envs, shape[1], shape[2], shape[3]], tail);
    let (_, v_tail) = net.forward_both(&xt, false);

    // k-step discounted returns per worker.
    let mut samples: Vec<Sample> = Vec::new();
    let mut returns: Vec<f32> = Vec::new();
    for (i, run) in rollout.iter_mut().enumerate() {
        let mut ret = v_tail.data()[i];
        let mut local: Vec<(Sample, f32)> = Vec::with_capacity(run.len());
        for s in run.drain(..).rev() {
            ret = s.reward + config.gamma * ret;
            local.push((s, ret));
        }
        for (s, r) in local.into_iter().rev() {
            samples.push(s);
            returns.push(r);
        }
    }
    let b = samples.len();
    let mut batch = Vec::with_capacity(b * volume);
    for s in &samples {
        batch.extend_from_slice(&s.state);
    }
    let x = Tensor::from_vec(&[b, shape[1], shape[2], shape[3]], batch);
    let adapter_zero = |net: &mut PolicyValueNet, opt: &mut Adam| {
        let mut a = NetAsLayer(net);
        opt.zero_grad(&mut a);
    };
    adapter_zero(net, opt);
    let (logits, values) = net.forward_both(&x, true);

    let mut grad_logits = Tensor::zeros(&[b, actions]);
    let mut grad_values = Tensor::zeros(&[b, 1]);
    for (i, s) in samples.iter().enumerate() {
        let row = &logits.data()[i * actions..(i + 1) * actions];
        let probs = masked_softmax(row, &s.mask);
        let v = values.data()[i];
        let advantage = returns[i] - v;
        let h = entropy(&probs);
        let gl = &mut grad_logits.data_mut()[i * actions..(i + 1) * actions];
        for j in 0..actions {
            if !s.mask[j] {
                continue;
            }
            // Policy-gradient (ascent ⇒ negative loss gradient) …
            let indicator = if j == s.action { 1.0 } else { 0.0 };
            let mut g = (probs[j] - indicator) * advantage;
            // … plus entropy-bonus gradient.
            if probs[j] > 0.0 {
                g += config.entropy_coef * probs[j] * (probs[j].ln() + h);
            }
            gl[j] = g / b as f32;
        }
        grad_values.data_mut()[i] = 2.0 * config.value_coef * (v - returns[i]) / b as f32;
    }
    net.backward_both(&grad_logits, &grad_values);
    {
        let mut a = NetAsLayer(net);
        clip_grad_norm(&mut a, config.grad_clip);
        opt.step(&mut a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlmul_ct::PpgKind;

    fn tiny() -> (EnvConfig, A2cConfig) {
        let env = EnvConfig::new(4, PpgKind::And);
        let a2c = A2cConfig {
            steps: 10,
            n_envs: 2,
            n_step: 3,
            trunk: TrunkConfig { in_channels: 2, channels: vec![4, 8], blocks_per_stage: 1 },
            ..Default::default()
        };
        (env, a2c)
    }

    #[test]
    fn a2c_runs_with_parallel_workers() {
        let (env_cfg, cfg) = tiny();
        let out = train_a2c(&env_cfg, &cfg).unwrap();
        assert_eq!(out.trajectory.len(), 10);
        out.best.check_legal().unwrap();
        // Two workers each synthesize at least their initial state.
        assert!(out.states_visited >= 2);
    }

    #[test]
    fn a2c_is_deterministic_given_seed() {
        let (env_cfg, cfg) = tiny();
        let a = train_a2c(&env_cfg, &cfg).unwrap().trajectory;
        let b = train_a2c(&env_cfg, &cfg).unwrap().trajectory;
        assert_eq!(a, b);
    }

    #[test]
    fn single_env_serial_fallback_runs() {
        let (env_cfg, mut cfg) = tiny();
        cfg.n_envs = 1;
        cfg.steps = 4;
        let out = train_a2c(&env_cfg, &cfg).unwrap();
        assert_eq!(out.trajectory.len(), 4);
    }

    #[test]
    fn workers_share_one_evaluation_cache() {
        let (env_cfg, cfg) = tiny();
        let out = train_a2c(&env_cfg, &cfg).unwrap();
        // The second worker's anchor and initial-state evaluations
        // are cache hits against the first worker's, so a shared run
        // always records hits — i.e. strictly fewer synthesis runs
        // than the same workers with private caches.
        assert!(out.pipeline.cache_hits >= 2, "hits = {}", out.pipeline.cache_hits);
        assert_eq!(out.pipeline.cache_misses, out.states_visited);
    }

    #[test]
    fn zero_workers_is_invalid() {
        let (env_cfg, mut cfg) = tiny();
        cfg.n_envs = 0;
        assert!(train_a2c(&env_cfg, &cfg).is_err());
    }

    #[test]
    fn policy_value_net_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = TrunkConfig { in_channels: 2, channels: vec![4], blocks_per_stage: 1 };
        let mut net = PolicyValueNet::new(&cfg, 16, &mut rng);
        let x = Tensor::zeros(&[3, 2, 8, 8]);
        let (logits, values) = net.forward_both(&x, false);
        assert_eq!(logits.shape(), &[3, 16]);
        assert_eq!(values.shape(), &[3, 1]);
    }
}
