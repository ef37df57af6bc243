//! The RL-MUL environment: compressor-tree states, masked actions,
//! and a synthesis-backed Pareto-driven reward (paper Fig. 3).

use crate::cache::{context_fingerprint, CacheKey, CacheKeyRef, EvalCache, Lookup, WorkingSet};
use crate::reward::CostWeights;
use crate::surrogate::{state_fingerprint, Surrogate, SurrogateConfig, SurrogateSnapshot};
use crate::RlMulError;
use rlmul_ct::{Action, CompressorTree, PpgKind};
use rlmul_nn::Tensor;
use rlmul_obs::TraceCtx;
use rlmul_rtl::{IncrementalMultiplier, LintStats, MultiplierNetlist};
use rlmul_synth::{IncrementalSynthesis, StaStats, SynthesisOptions, SynthesisReport, Synthesizer};
use rlmul_telemetry::{Event, TelemetrySink};
use std::sync::Arc;
// check: allow(wall-clock) import feeds the timing-stats sites below
use std::time::Instant;

/// Which legacy structure seeds the search (state `s_0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InitialStructure {
    /// Wallace tree (the paper's initial state).
    #[default]
    Wallace,
    /// Dadda tree.
    Dadda,
}

/// Search-space pruning on the reduction depth (paper Section IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StagePruning {
    /// Forbid actions exceeding the initial depth plus one stage.
    #[default]
    Auto,
    /// Forbid actions exceeding an explicit depth.
    Limit(usize),
    /// No depth pruning.
    Off,
}

/// How [`MulEnv::evaluate_screened`] may answer a state from the
/// online surrogate instead of real synthesis. Chosen by the search
/// driver, not configured: step agents screen by rank, the annealer
/// by cost margin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Screen {
    /// Step agents (DQN, A2C): `action` is the flattened index that
    /// produced the state. All legal successors of the current state
    /// are scored in one batched forward, and the chosen one is
    /// screened unless it ranks inside the predicted top-k.
    TopK {
        /// Flattened index of the chosen action.
        action: usize,
    },
    /// Single-proposal search (SA, where top-k ranking degenerates):
    /// the proposal is screened when its predicted cost is outside
    /// `sa_margin` of the best real cost (predicted-unpromising), or
    /// when the predicted uphill delta from `current_cost` makes
    /// acceptance at `temperature` less likely than `sa_accept_floor`
    /// (a rejection the walk reaches under real and predicted costs
    /// alike).
    Anneal {
        /// Cost of the walk's current state.
        current_cost: f64,
        /// Current annealing temperature.
        temperature: f64,
    },
}

impl Screen {
    /// The gate name carried by the surrogate trace events.
    fn gate(self) -> &'static str {
        match self {
            Screen::TopK { .. } => "topk",
            Screen::Anneal { .. } => "sa",
        }
    }
}

/// Environment configuration.
#[derive(Debug, Clone)]
pub struct EnvConfig {
    /// Operand width `N`.
    pub bits: usize,
    /// Partial-product scheme (including merged-MAC kinds).
    pub kind: PpgKind,
    /// Reward weights (paper Eq. 20).
    pub weights: CostWeights,
    /// Explicit synthesis delay targets in ns; empty derives four
    /// targets from the initial design (paper uses four constraints).
    pub delay_targets: Vec<f64>,
    /// Depth pruning policy.
    pub pruning: StagePruning,
    /// Stage-axis padding of the state tensor; 0 derives it from the
    /// pruning limit.
    pub tensor_stages: usize,
    /// Initial structure.
    pub initial: InitialStructure,
    /// Sizing move budget per synthesis run.
    pub max_upsizes: usize,
    /// Online surrogate evaluator (disabled by default; the disabled
    /// path is bit-identical to an environment without one).
    pub surrogate: SurrogateConfig,
}

impl EnvConfig {
    /// A ready-to-train configuration for `bits`-bit designs.
    pub fn new(bits: usize, kind: PpgKind) -> Self {
        EnvConfig {
            bits,
            kind,
            weights: CostWeights::default(),
            delay_targets: Vec::new(),
            pruning: StagePruning::default(),
            tensor_stages: 0,
            initial: InitialStructure::default(),
            max_upsizes: 800,
            surrogate: SurrogateConfig::default(),
        }
    }
}

/// One synthesized state evaluation (shared via [`Arc`] through the
/// cross-environment [`EvalCache`]).
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// One synthesis report per delay constraint.
    pub reports: Vec<SynthesisReport>,
    /// Scalar weighted cost (paper Eq. 20).
    pub cost: f64,
}

/// Evaluation-pipeline counters for one environment.
///
/// Every field counts work performed (or avoided) *by this
/// environment*: `distinct_states` is the size of its [`WorkingSet`],
/// not of the possibly shared [`EvalCache`], so one tenant's figure
/// never includes another's states.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnvStats {
    /// Environment steps taken.
    pub steps: usize,
    /// Distinct cache entries this environment read or produced (its
    /// working set; equal to the cache size on a private cache).
    pub distinct_states: usize,
    /// Synthesis runs this environment performed itself.
    pub synth_runs: usize,
    /// Evaluations answered from the cache.
    pub cache_hits: usize,
    /// Evaluations this environment had to synthesize.
    pub cache_misses: usize,
    /// Timing-engine work done by this environment's synthesis runs.
    pub sta: StaStats,
    /// Structural-lint gate counters (one check per elaboration).
    pub lint: LintStats,
    /// Real synthesis pipeline invocations (cache misses that ran the
    /// synthesizer). Kept distinct from `synth_runs` — which counts
    /// per-delay-target runs — so the surrogate bench reads one
    /// unambiguous call count.
    pub synthesis_calls: usize,
    /// Evaluations answered by the surrogate instead of synthesis.
    pub surrogate_screened: usize,
    /// Real evaluations forced by the surrogate honesty schedule.
    pub surrogate_forced_evals: usize,
}

/// Result of one environment step.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Reward `r_t = cost_t − cost_{t+1}` (paper Eq. 10).
    pub reward: f64,
    /// Cost of the new state.
    pub cost: f64,
    /// Evaluation of the new state.
    pub evaluation: Arc<Evaluation>,
}

/// The multiplier-optimization environment.
///
/// ```no_run
/// use rlmul_core::{EnvConfig, MulEnv};
/// use rlmul_ct::PpgKind;
///
/// let mut env = MulEnv::new(EnvConfig::new(8, PpgKind::And))?;
/// let mask = env.action_mask();
/// let action = mask.iter().position(|&ok| ok).expect("some legal action");
/// let outcome = env.step(action)?;
/// println!("reward {}", outcome.reward);
/// # Ok::<(), rlmul_core::RlMulError>(())
/// ```
pub struct MulEnv {
    config: EnvConfig,
    synthesizer: Synthesizer,
    current: CompressorTree,
    current_cost: f64,
    delay_targets: Vec<f64>,
    stage_limit: usize,
    tensor_stages: usize,
    cache: EvalCache,
    /// The cache entries this environment has read or produced — what
    /// its checkpoints carry.
    working: WorkingSet,
    /// Incremental miss-path state; `None` only during the anchor run,
    /// whose misses elaborate, lint and size from scratch.
    inc: Option<IncPipeline>,
    /// Context fingerprint for multi-target evaluations.
    eval_context: u64,
    pareto_points: Vec<(f64, f64)>,
    best: (f64, CompressorTree),
    steps_taken: usize,
    /// Work counters; `steps` and `distinct_states` are filled in by
    /// [`MulEnv::stats`].
    stats: EnvStats,
    sink: TelemetrySink,
    /// Per-job trace context for cache/surrogate/synthesis events;
    /// disabled (one branch per emit) unless a supervisor installs one
    /// via [`MulEnv::set_trace`].
    trace: TraceCtx,
    /// Online learned evaluator; `None` unless enabled in the config.
    surrogate: Option<Surrogate>,
    /// Per-step scratch (satellite: no fresh `Vec` per mask query or
    /// candidate encoding on the hot path).
    scratch_mask: Vec<bool>,
    scratch_dense: Vec<f32>,
    /// Screened states whose predictions landed nearest the Pareto
    /// front, sorted by descending screen-time nearness, each with
    /// its predicted per-constraint `(area, delay)` points; the
    /// end-of-run verification sweep ([`MulEnv::verify_screened`])
    /// re-scores them against the final front and real-evaluates the
    /// still-plausible extenders.
    watch: Vec<WatchEntry>,
}

/// A verification-watchlist entry: the screen-time front-nearness
/// score, the surrogate's predicted per-constraint `(area, delay)`
/// points, and the screened state itself.
pub(crate) type WatchEntry = (f64, Vec<(f64, f64)>, CompressorTree);

/// The mutable state of a [`MulEnv`] at a step boundary — everything
/// [`MulEnv::restore`] needs to continue a run bit-identically.
/// Produced by [`MulEnv::snapshot`]; serialized inside the agents'
/// training snapshots.
#[derive(Debug, Clone)]
pub struct EnvSnapshot {
    pub(crate) current: CompressorTree,
    pub(crate) current_cost: f64,
    pub(crate) best: CompressorTree,
    pub(crate) best_cost: f64,
    pub(crate) steps_taken: usize,
    pub(crate) pareto_points: Vec<(f64, f64)>,
    pub(crate) delay_targets: Vec<f64>,
    /// Surrogate state; `None` when the run had no surrogate.
    pub(crate) surrogate: Option<SurrogateSnapshot>,
    /// Verification-sweep watchlist (empty when the run had no
    /// surrogate).
    pub(crate) watch: Vec<WatchEntry>,
}

impl EnvSnapshot {
    /// Environment steps taken up to the snapshot.
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Cost of the best state at the snapshot.
    pub fn best_cost(&self) -> f64 {
        self.best_cost
    }
}

/// Long-lived state of the incremental miss path: the cached
/// elaboration (with per-column checkpoints and the connectivity table
/// lint and synthesis read) and the synthesis session (with the
/// previous loads and STA baseline).
struct IncPipeline {
    mul: IncrementalMultiplier,
    synth: IncrementalSynthesis,
}

impl std::fmt::Debug for MulEnv {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MulEnv({}b {}, {} steps, {} cached states)",
            self.config.bits,
            self.config.kind,
            self.steps_taken,
            self.cache.len()
        )
    }
}

impl MulEnv {
    /// Builds the environment, synthesizing the initial structure to
    /// derive delay targets and the reward baseline.
    ///
    /// # Errors
    ///
    /// Propagates tree, elaboration and synthesis errors.
    pub fn new(config: EnvConfig) -> Result<Self, RlMulError> {
        Self::with_cache(config, EvalCache::new())
    }

    /// Builds the environment on top of a shared evaluation cache, so
    /// environments sharing it (A2C's instances, concurrent serve
    /// jobs, sequential method comparisons over the same design) never
    /// synthesize the same state twice.
    ///
    /// # Errors
    ///
    /// As [`MulEnv::new`].
    pub fn with_cache(config: EnvConfig, cache: EvalCache) -> Result<Self, RlMulError> {
        Self::with_imported(config, cache, Vec::new())
    }

    /// [`MulEnv::with_cache`] for a resumed run: imports a snapshot's
    /// cache entries first, so the anchor run and every state
    /// evaluated before the checkpoint are hits, and seeds the
    /// environment's working set with them.
    ///
    /// # Errors
    ///
    /// As [`MulEnv::new`].
    pub fn with_imported(
        config: EnvConfig,
        cache: EvalCache,
        entries: Vec<(CacheKey, Evaluation)>,
    ) -> Result<Self, RlMulError> {
        let mut working = WorkingSet::default();
        cache.import_into(entries, Some(&mut working));
        let initial = match config.initial {
            InitialStructure::Wallace => CompressorTree::wallace(config.bits, config.kind)?,
            InitialStructure::Dadda => CompressorTree::dadda(config.bits, config.kind)?,
        };
        let weights = [config.weights.area, config.weights.delay, config.weights.power];
        // The anchor run below goes through the environment's own cache
        // path, so the environment starts without the delay targets and
        // surrogate derived from it, and without incremental state: the
        // anchor's miss elaborates and sizes from scratch.
        let mut env = MulEnv {
            config,
            synthesizer: Synthesizer::nangate45(),
            current: initial.clone(),
            current_cost: 0.0,
            delay_targets: Vec::new(),
            stage_limit: 0,
            tensor_stages: 0,
            cache,
            working,
            inc: None,
            eval_context: 0,
            pareto_points: Vec::new(),
            best: (f64::INFINITY, initial.clone()),
            steps_taken: 0,
            stats: EnvStats::default(),
            sink: TelemetrySink::disabled(),
            trace: TraceCtx::disabled(),
            surrogate: None,
            scratch_mask: Vec::new(),
            scratch_dense: Vec::new(),
            watch: Vec::new(),
        };
        // Min-area synthesis of s_0 anchors the delay constraints,
        // routed through the shared cache (empty target list as the
        // context) so sibling environments reuse one anchor run.
        let anchor_opts = SynthesisOptions::default();
        let anchor_context = context_fingerprint(&[], anchor_opts.max_upsizes, weights);
        let (anchor, _) =
            env.synthesize_cached(anchor_context, &initial, std::slice::from_ref(&anchor_opts))?;
        let config = &env.config;
        env.delay_targets = if config.delay_targets.is_empty() {
            let anchor_delay = anchor.reports[0].delay_ns;
            [0.7, 0.85, 1.0, 1.15].iter().map(|m| m * anchor_delay).collect()
        } else {
            config.delay_targets.clone()
        };
        let initial_stages = initial.stage_count()?;
        env.stage_limit = match config.pruning {
            StagePruning::Auto => initial_stages + 1,
            StagePruning::Limit(l) => l,
            StagePruning::Off => usize::MAX,
        };
        env.tensor_stages = if config.tensor_stages == 0 {
            (initial_stages + 2).next_power_of_two().max(8)
        } else {
            config.tensor_stages
        };
        env.eval_context = context_fingerprint(&env.delay_targets, config.max_upsizes, weights);
        if config.surrogate.enabled {
            let volume = 2 * 2 * config.bits * env.tensor_stages;
            env.surrogate = Some(Surrogate::new(
                config.surrogate.clone(),
                volume,
                &env.delay_targets,
                config.weights,
            ));
        }
        env.inc = Some(IncPipeline {
            mul: IncrementalMultiplier::new(&initial)?,
            synth: IncrementalSynthesis::nangate45(),
        });
        let cost = env.evaluate(&initial)?.cost;
        env.current_cost = cost;
        env.best.0 = cost;
        Ok(env)
    }

    /// The environment configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.config
    }

    /// Routes this environment's per-phase telemetry (elaborate, lint,
    /// synthesis timings on every cache miss) into `sink`.
    pub fn set_telemetry(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    /// Routes this environment's per-job trace events (cache hits and
    /// misses, surrogate screening decisions, synthesis calls) into
    /// `trace`. Disabled by default; `rlmul serve` installs the job's
    /// [`TraceCtx`] before a run starts.
    pub fn set_trace(&mut self, trace: TraceCtx) {
        self.trace = trace;
    }

    /// Captures the mutable state of this environment at a step
    /// boundary. Together with the export of its
    /// [`MulEnv::working_set`] this is everything a resumed run needs
    /// to continue bit-identically.
    pub fn snapshot(&mut self) -> EnvSnapshot {
        EnvSnapshot {
            current: self.current.clone(),
            current_cost: self.current_cost,
            best: self.best.1.clone(),
            best_cost: self.best.0,
            steps_taken: self.steps_taken,
            pareto_points: self.pareto_points.clone(),
            delay_targets: self.delay_targets.clone(),
            surrogate: self.surrogate.as_mut().map(Surrogate::snapshot),
            watch: self.watch.clone(),
        }
    }

    /// Restores the mutable state captured by [`MulEnv::snapshot`]
    /// into this (freshly constructed, same-configuration)
    /// environment. The evaluation-context fingerprint is recomputed
    /// from the restored delay targets so costs keep hitting the same
    /// cache entries as before the checkpoint.
    ///
    /// # Errors
    ///
    /// Rejects snapshots whose structure does not match this
    /// environment's operand width or partial-product kind.
    pub fn restore(&mut self, snap: &EnvSnapshot) -> Result<(), RlMulError> {
        if snap.current.bits() != self.config.bits
            || snap.current.profile().kind() != self.config.kind
        {
            return Err(RlMulError::InvalidConfig {
                what: format!(
                    "snapshot is a {}-bit {} design, environment expects {}-bit {}",
                    snap.current.bits(),
                    snap.current.profile().kind(),
                    self.config.bits,
                    self.config.kind
                ),
            });
        }
        self.current = snap.current.clone();
        self.current_cost = snap.current_cost;
        self.best = (snap.best_cost, snap.best.clone());
        self.steps_taken = snap.steps_taken;
        self.pareto_points = snap.pareto_points.clone();
        self.delay_targets = snap.delay_targets.clone();
        self.eval_context = context_fingerprint(
            &self.delay_targets,
            self.config.max_upsizes,
            [self.config.weights.area, self.config.weights.delay, self.config.weights.power],
        );
        if let (Some(s), Some(ss)) = (self.surrogate.as_mut(), snap.surrogate.as_ref()) {
            s.restore(ss)?;
        }
        self.watch = snap.watch.clone();
        Ok(())
    }

    /// The derived (or configured) synthesis delay targets.
    pub fn delay_targets(&self) -> &[f64] {
        &self.delay_targets
    }

    /// The current state.
    pub fn current(&self) -> &CompressorTree {
        &self.current
    }

    /// Cost of the current state.
    pub fn current_cost(&self) -> f64 {
        self.current_cost
    }

    /// Best (lowest-cost) state seen so far with its cost.
    pub fn best(&self) -> (&CompressorTree, f64) {
        (&self.best.1, self.best.0)
    }

    /// Size of the flattened action space (`8N`).
    pub fn action_space(&self) -> usize {
        self.current.action_space()
    }

    /// State-tensor shape `[1, 2, 2N, ST_pad]`.
    pub fn tensor_shape(&self) -> [usize; 4] {
        [1, 2, 2 * self.config.bits, self.tensor_stages]
    }

    /// Encodes a tree into the network input tensor (Algorithm 1
    /// assignment, zero-padded on the stage axis, scaled to ≈ unit
    /// range).
    ///
    /// # Errors
    ///
    /// Propagates assignment errors (unreachable from legal states).
    pub fn encode(&self, tree: &CompressorTree) -> Result<Tensor, RlMulError> {
        let mut dense = Vec::new();
        self.fill_encoding(tree, &mut dense)?;
        Ok(Tensor::from_vec(&self.tensor_shape(), dense))
    }

    /// Writes the flattened [`MulEnv::encode`] values into a
    /// caller-owned buffer (the per-candidate hot path of surrogate
    /// screening encodes every legal successor without allocating).
    ///
    /// # Errors
    ///
    /// Propagates assignment errors (unreachable from legal states).
    pub fn fill_encoding(
        &self,
        tree: &CompressorTree,
        out: &mut Vec<f32>,
    ) -> Result<(), RlMulError> {
        tree.assign_stages()?.to_dense_into(self.tensor_stages, out);
        for v in out.iter_mut() {
            *v *= 0.25;
        }
        Ok(())
    }

    /// Encodes the current state.
    ///
    /// # Errors
    ///
    /// Propagates assignment errors.
    pub fn encode_current(&self) -> Result<Tensor, RlMulError> {
        self.encode(&self.current)
    }

    /// Validity mask combining the structural mask (paper Eq. 6) with
    /// stage pruning (Section IV-C). If pruning would forbid every
    /// action, the unpruned mask is returned so the agent never
    /// deadlocks.
    pub fn action_mask(&self) -> Vec<bool> {
        let mut mask = Vec::new();
        self.action_mask_into(&mut mask);
        mask
    }

    /// [`MulEnv::action_mask`] writing into a caller-owned buffer, so
    /// per-step mask queries reuse one allocation.
    pub fn action_mask_into(&self, out: &mut Vec<bool>) {
        self.current.action_mask_into(out);
        if self.stage_limit == usize::MAX {
            return;
        }
        let ncols = self.current.matrix().num_columns();
        let mut any = false;
        for (idx, allowed) in out.iter_mut().enumerate() {
            if !*allowed {
                continue;
            }
            let action = Action::from_flat_index(idx, ncols).expect("mask-sized index");
            let successor =
                self.current.apply_action(action).expect("masked-in actions are applicable");
            let stages = successor.stage_count().unwrap_or(usize::MAX);
            if stages > self.stage_limit {
                *allowed = false;
            } else {
                any = true;
            }
        }
        if !any {
            // Pruning forbade everything; fall back to the structural
            // mask so the agent never deadlocks.
            self.current.action_mask_into(out);
        }
    }

    /// Applies the flattened action index, legalizes, synthesizes the
    /// successor and returns the reward.
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range or masked-out actions and
    /// propagates synthesis failures.
    pub fn step(&mut self, action_index: usize) -> Result<StepOutcome, RlMulError> {
        let obs = rlmul_obs::global();
        let _span = obs.span("env.step");
        let ncols = self.current.matrix().num_columns();
        let action = Action::from_flat_index(action_index, ncols)?;
        let next = self.current.apply_action(action)?;
        let (evaluation, screened) =
            self.evaluate_screened(&next, Screen::TopK { action: action_index })?;
        let reward = self.current_cost - evaluation.cost;
        if obs.is_enabled() {
            obs.counter("rlmul_env_steps_total", "Environment steps taken across all envs.").inc();
            obs.histogram("rlmul_env_step_reward_magnitude", "Absolute step reward (cost delta).")
                .observe(reward.abs());
        }
        self.current = next;
        self.current_cost = evaluation.cost;
        self.steps_taken += 1;
        // Screened costs are predictions; the best-state record only
        // ever holds real synthesis results.
        if !screened && evaluation.cost < self.best.0 {
            self.best = (evaluation.cost, self.current.clone());
        }
        Ok(StepOutcome { reward, cost: evaluation.cost, evaluation })
    }

    /// Synthesizes `tree` under every delay target, all targets along
    /// one shared sizing trajectory, and caches the results by
    /// `(structure, kind, context)` in the shared [`EvalCache`] — a
    /// state synthesized by any environment sharing the cache is a
    /// hit here.
    ///
    /// # Errors
    ///
    /// Propagates elaboration and synthesis errors.
    pub fn evaluate(&mut self, tree: &CompressorTree) -> Result<Arc<Evaluation>, RlMulError> {
        let options: Vec<SynthesisOptions> = self
            .delay_targets
            .iter()
            .map(|&t| SynthesisOptions {
                target_delay_ns: Some(t),
                max_upsizes: self.config.max_upsizes,
            })
            .collect();
        let (eval, fresh) = self.synthesize_cached(self.eval_context, tree, &options)?;
        if fresh {
            for r in &eval.reports {
                self.pareto_points.push((r.area_um2, r.delay_ns));
            }
        }
        if self.surrogate.is_some() {
            self.surrogate_ingest(tree, &eval);
        }
        Ok(eval)
    }

    /// Feeds one real (cache-backed) evaluation to the surrogate:
    /// resets the honesty counter, ingests the sample if this
    /// environment has not seen the state yet, and emits a
    /// `surrogate` telemetry event with the per-constraint MAE when a
    /// prediction-error probe was recorded.
    ///
    /// Ingestion is keyed on this environment's own evaluate stream
    /// (not on who synthesized the entry), so environments sharing
    /// one cache (concurrent serve jobs among them) train their
    /// surrogates deterministically: whether a sibling won the
    /// in-flight race changes hit/miss counters, never the
    /// bit-identical evaluation ingested here.
    fn surrogate_ingest(&mut self, tree: &CompressorTree, eval: &Evaluation) {
        let Some(mut s) = self.surrogate.take() else { return };
        s.note_real();
        let fp = state_fingerprint(tree.matrix().counts(), self.config.kind, self.eval_context);
        if s.wants(fp) {
            let mut dense = std::mem::take(&mut self.scratch_dense);
            if self.fill_encoding(tree, &mut dense).is_ok() {
                let recorded = s.observe(fp, &dense, eval);
                if recorded && self.sink.is_enabled() {
                    let mae = s.mae();
                    let n = mae.len().max(1) as f64;
                    // check: allow(trace-ctx) MAE aggregate; screening decisions are trace-correlated
                    let mut ev = Event::new("surrogate")
                        .with("observed", s.observed())
                        .with("area_mae", mae.iter().map(|m| m.0).sum::<f64>() / n)
                        .with("delay_mae", mae.iter().map(|m| m.1).sum::<f64>() / n);
                    for (i, &(a, d)) in mae.iter().enumerate() {
                        ev = ev
                            .with(format!("area_mae_{i}").as_str(), a)
                            .with(format!("delay_mae_{i}").as_str(), d);
                    }
                    self.sink.emit(ev); // check: allow(trace-ctx) the MAE aggregate above
                }
            }
            self.scratch_dense = dense;
        }
        self.surrogate = Some(s);
    }

    /// [`MulEnv::evaluate`] behind the surrogate's `screen` policy.
    /// The state goes to real synthesis when it is cached (free), the
    /// model is cold, or a forced honesty evaluation is due; otherwise
    /// the policy's prediction answers it, unless the front guard
    /// finds it might extend the Pareto front. Returns the evaluation
    /// and whether it was screened (a prediction, never cached). With
    /// the surrogate disabled this is exactly [`MulEnv::evaluate`].
    ///
    /// # Errors
    ///
    /// Propagates elaboration and synthesis errors.
    pub fn evaluate_screened(
        &mut self,
        tree: &CompressorTree,
        screen: Screen,
    ) -> Result<(Arc<Evaluation>, bool), RlMulError> {
        let Some(s) = self.surrogate.as_ref() else {
            return Ok((self.evaluate(tree)?, false));
        };
        let key = CacheKeyRef {
            counts: tree.matrix().counts(),
            kind: self.config.kind,
            context: self.eval_context,
        };
        if self.cache.peek(&key).is_some() || !s.is_warmed() {
            return Ok((self.evaluate(tree)?, false));
        }
        if s.forced_due() {
            self.stats.surrogate_forced_evals += 1;
            if self.trace.is_enabled() {
                let detail = format!("gate={} honesty eval due", screen.gate());
                self.trace.emit("surrogate_forced", &detail);
            }
            if let Some(s) = self.surrogate.as_mut() {
                s.note_forced();
            }
            return Ok((self.evaluate(tree)?, false));
        }
        let mut s = self.surrogate.take().expect("checked above");
        let predicted = match screen {
            Screen::TopK { action } => self.predict_topk(&mut s, action, tree),
            Screen::Anneal { current_cost, temperature } => {
                self.predict_anneal(&mut s, tree, current_cost, temperature)
            }
        };
        // Front guard: a state predicted to extend the Pareto front is
        // worth a real synthesis even if the policy would screen it —
        // screening it would silently cap the run's hypervolume.
        // Near-misses go on the verification watchlist.
        let screened = predicted.filter(|eval| {
            let score = self.front_nearness(eval);
            let guarded = score <= s.config().guard_slack;
            if guarded {
                self.watch_screened(score, eval, tree, s.config().verify_top);
            }
            guarded
        });
        if screened.is_some() {
            s.note_screened();
            self.stats.surrogate_screened += 1;
            if self.trace.is_enabled() {
                self.trace.emit("surrogate_screened", &format!("gate={}", screen.gate()));
            }
        }
        self.surrogate = Some(s);
        match screened {
            Some(eval) => Ok((Arc::new(eval), true)),
            None => Ok((self.evaluate(tree)?, false)),
        }
    }

    /// The [`Screen::TopK`] prediction: scores every legal successor
    /// of the current state in one batched forward and returns the
    /// predicted evaluation of `next` (reached by `action_index`) when
    /// it ranks outside the top-k, `None` when it should be
    /// synthesized.
    fn predict_topk(
        &mut self,
        s: &mut Surrogate,
        action_index: usize,
        next: &CompressorTree,
    ) -> Option<Evaluation> {
        let mut mask = std::mem::take(&mut self.scratch_mask);
        let mut dense = std::mem::take(&mut self.scratch_dense);
        let mut flat = s.take_flat();
        self.action_mask_into(&mut mask);
        flat.clear();
        let ncols = self.current.matrix().num_columns();
        let volume = 2 * 2 * self.config.bits * self.tensor_stages;
        let mut chosen_pos: Option<usize> = None;
        let mut n_cands = 0usize;
        for (idx, &ok) in mask.iter().enumerate() {
            let is_chosen = idx == action_index;
            if !ok && !is_chosen {
                continue;
            }
            let encoded = if is_chosen {
                self.fill_encoding(next, &mut dense).is_ok()
            } else {
                match Action::from_flat_index(idx, ncols)
                    .ok()
                    .and_then(|a| self.current.apply_action(a).ok())
                {
                    Some(succ) => self.fill_encoding(&succ, &mut dense).is_ok(),
                    None => false,
                }
            };
            if !encoded {
                if is_chosen {
                    break;
                }
                continue;
            }
            if is_chosen {
                chosen_pos = Some(n_cands);
            }
            flat.extend_from_slice(&dense);
            n_cands += 1;
        }
        let mut predicted = None;
        if let Some(pos) = chosen_pos {
            let costs = s.predict_costs(&flat, n_cands);
            let chosen_cost = costs[pos];
            // Stable rank: strictly better candidates, plus equal
            // candidates at an earlier index.
            let rank = costs
                .iter()
                .enumerate()
                .filter(|&(i, &c)| c < chosen_cost || (c == chosen_cost && i < pos))
                .count();
            if rank >= s.config().topk {
                predicted = Some(s.predict_evaluation(&flat[pos * volume..(pos + 1) * volume]));
            }
        }
        s.put_flat(flat);
        self.scratch_mask = mask;
        self.scratch_dense = dense;
        predicted
    }

    /// The [`Screen::Anneal`] prediction: the predicted evaluation of
    /// `tree` when its predicted cost is unpromising or certain to be
    /// rejected at `temperature`, `None` when it should be
    /// synthesized.
    fn predict_anneal(
        &mut self,
        s: &mut Surrogate,
        tree: &CompressorTree,
        current_cost: f64,
        temperature: f64,
    ) -> Option<Evaluation> {
        let mut dense = std::mem::take(&mut self.scratch_dense);
        let mut predicted = None;
        if self.fill_encoding(tree, &mut dense).is_ok() {
            let (margin, floor) = (s.config().sa_margin, s.config().sa_accept_floor);
            let cost = s.predict_costs(&dense, 1)[0];
            let unpromising = cost > s.best_real_cost() * (1.0 + margin);
            // exp(-delta / T) < floor  <=>  delta > T * ln(1/floor).
            let certain_reject =
                cost - current_cost > temperature * (1.0 / floor.clamp(1e-12, 1.0)).ln();
            if unpromising || certain_reject {
                predicted = Some(s.predict_evaluation(&dense));
            }
        }
        self.scratch_dense = dense;
        predicted
    }

    /// How close `eval`'s predicted per-constraint `(area, delay)`
    /// points come to extending the accumulated Pareto front: the
    /// smallest relative slack at which every predicted point is
    /// dominated by some front point. Negative means comfortably
    /// dominated, values above the configured `guard_slack` mean the
    /// state could grow the front's hypervolume (so the screening
    /// gates refuse to answer it from the surrogate), and anything in
    /// between is a near-miss worth remembering for the end-of-run
    /// verification sweep. `INFINITY` when the front is still empty.
    fn front_nearness(&self, eval: &Evaluation) -> f64 {
        self.points_nearness(eval.reports.iter().map(|r| (r.area_um2, r.delay_ns)))
    }

    /// [`MulEnv::front_nearness`] over raw `(area, delay)` points —
    /// also used to re-score watchlist predictions against the final
    /// front at sweep time.
    fn points_nearness(&self, points: impl Iterator<Item = (f64, f64)>) -> f64 {
        points
            .map(|(area, delay)| {
                self.pareto_points
                    .iter()
                    .map(|&(a, d)| (a / area).max(d / delay) - 1.0)
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Records a screened state on the verification watchlist, kept
    /// sorted by descending front nearness and bounded to a small
    /// multiple of the sweep size. Duplicate states keep their first
    /// (highest-information) entry; insertion order breaks score ties
    /// so the list is deterministic.
    fn watch_screened(
        &mut self,
        score: f64,
        eval: &Evaluation,
        tree: &CompressorTree,
        verify_top: usize,
    ) {
        if verify_top == 0 {
            return;
        }
        let cap = verify_top * 4;
        if self.watch.iter().any(|(_, _, t)| t == tree) {
            return;
        }
        let pos = self.watch.partition_point(|&(s, _, _)| s >= score);
        if pos >= cap {
            return;
        }
        let pred = eval.reports.iter().map(|r| (r.area_um2, r.delay_ns)).collect();
        self.watch.insert(pos, (score, pred, tree.clone()));
        self.watch.truncate(cap);
    }

    /// End-of-run verification sweep: re-scores every watched
    /// prediction against the *final* Pareto front (the front grows
    /// several-fold between an early screen and the end of a run, so
    /// screen-time scores go stale), then real-evaluates the states
    /// still predicted to extend it, best first, up to the configured
    /// `verify_top`. Fronts built with the surrogate on cannot
    /// silently miss a design the model mispredicted as dominated.
    /// Returns how many states were evaluated; a no-op without a
    /// surrogate.
    ///
    /// # Errors
    ///
    /// Propagates elaboration and synthesis errors.
    pub fn verify_screened(&mut self) -> Result<usize, RlMulError> {
        let Some(s) = self.surrogate.as_ref() else {
            return Ok(0);
        };
        let top = s.config().verify_top;
        let watch = std::mem::take(&mut self.watch);
        let mut rescored: Vec<(f64, usize)> = watch
            .iter()
            .enumerate()
            .map(|(i, (_, pred, _))| (self.points_nearness(pred.iter().copied()), i))
            .filter(|&(score, _)| score > 0.0)
            .collect();
        // Descending score; the stable original index breaks ties so
        // the sweep order is deterministic.
        rescored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut verified = 0;
        for &(_, i) in rescored.iter().take(top) {
            self.evaluate(&watch[i].2)?;
            verified += 1;
        }
        Ok(verified)
    }

    /// Cache-mediated synthesis of `tree` under `options`, shared by
    /// [`MulEnv::evaluate`] and the anchor run in
    /// [`MulEnv::with_cache`]. Returns the evaluation and whether this
    /// environment synthesized it (`false` for cache hits, including
    /// waits on another environment's in-flight run).
    ///
    /// Once the incremental pipeline exists (and the tree has the
    /// profile it was built for), the miss path re-elaborates only the
    /// changed columns, lints only the delta from the connectivity
    /// table the elaborator keeps, and hands synthesis that same table
    /// to patch the previous loads and STA baseline instead of
    /// rebuilding them; otherwise the miss runs the full pipeline. The cache
    /// lookup itself probes with a borrowed key, so hits never
    /// allocate.
    fn synthesize_cached(
        &mut self,
        context: u64,
        tree: &CompressorTree,
        options: &[SynthesisOptions],
    ) -> Result<(Arc<Evaluation>, bool), RlMulError> {
        let key = CacheKeyRef { counts: tree.matrix().counts(), kind: self.config.kind, context };
        match self.cache.lookup_or_begin(&key) {
            Lookup::Hit(eval) => {
                self.working.touch(&key, &eval);
                self.stats.cache_hits += 1;
                if self.trace.is_enabled() {
                    self.trace.emit("cache_hit", &format!("context={context:016x}"));
                }
                Ok((eval, false))
            }
            Lookup::Miss(ticket) => {
                self.stats.cache_misses += 1;
                if self.trace.is_enabled() {
                    self.trace.emit("cache_miss", &format!("context={context:016x}"));
                }
                let obs = rlmul_obs::global();
                let _eval_span = obs.span("env.evaluate");
                // On error the ticket drops un-completed, releasing
                // any coalesced waiters to retry for themselves.
                let inc = self.inc.as_mut().filter(|s| s.mul.tree().profile() == tree.profile());
                let mode = if inc.is_some() { "incremental" } else { "full" };
                // check: allow(wall-clock) phase timing for obs/telemetry stats only
                let t0 = Instant::now();
                let (t1, t2, reports) = match inc {
                    Some(state) => {
                        let replayed = {
                            let _s = obs.span("elaborate");
                            state.mul.retarget(tree)?.added.len()
                        };
                        if obs.is_enabled() {
                            obs.histogram(
                                "rlmul_env_splice_gates",
                                "Gates per incremental retarget in the replayed netlist suffix \
                                 (from the first changed gate on).",
                            )
                            .observe(replayed as f64);
                        }
                        // check: allow(wall-clock) phase timing stats only
                        let t1 = Instant::now();
                        // Structural lint gate before every synthesis
                        // call — restricted to the touched gates/nets
                        // on the incremental path (port-shape rules
                        // still re-run in full; they are O(ports)).
                        let lint_report = {
                            let _s = obs.span("lint");
                            rlmul_rtl::lint_delta(&state.mul.connected(), state.mul.last_delta())
                        };
                        self.stats.lint.record(&lint_report);
                        debug_assert_eq!(
                            lint_report.errors(),
                            0,
                            "delta lint gate failed before synthesis:\n{}",
                            lint_report.render()
                        );
                        // check: allow(wall-clock) phase timing stats only
                        let t2 = Instant::now();
                        let reports = {
                            let _s = obs.span("synth");
                            state.synth.run_connected(state.mul.connected(), options)?
                        };
                        (t1, t2, reports)
                    }
                    None => {
                        let netlist = {
                            let _s = obs.span("elaborate");
                            MultiplierNetlist::elaborate(tree)?.into_netlist()
                        };
                        // check: allow(wall-clock) phase timing stats only
                        let t1 = Instant::now();
                        // Structural lint gate before every synthesis
                        // call: counters always, hard stop on errors
                        // in debug builds (elaboration is validated,
                        // so an error here means an IR invariant was
                        // broken upstream).
                        let lint_report = {
                            let _s = obs.span("lint");
                            rlmul_rtl::lint(&netlist)
                        };
                        self.stats.lint.record(&lint_report);
                        debug_assert_eq!(
                            lint_report.errors(),
                            0,
                            "structural lint gate failed before synthesis:\n{}",
                            lint_report.render()
                        );
                        // check: allow(wall-clock) phase timing stats only
                        let t2 = Instant::now();
                        let reports = {
                            let _s = obs.span("synth");
                            self.synthesizer.run_many(&netlist, options)?
                        };
                        (t1, t2, reports)
                    }
                };
                // check: allow(wall-clock) phase timing stats only
                let t3 = Instant::now();
                self.stats.synthesis_calls += 1;
                if self.trace.is_enabled() {
                    self.trace.emit("synth", &format!("targets={} mode={mode}", options.len()));
                }
                self.stats.synth_runs += reports.len();
                for r in &reports {
                    self.stats.sta.merge(r.sta);
                }
                // Registering a metric allocates and locks the shared
                // registry, so a switched-off registry skips it.
                if obs.is_enabled() {
                    obs.labeled_counter(
                        "rlmul_env_pipeline_total",
                        "Evaluation-pipeline cache misses by pipeline mode.",
                        &[("mode", mode)],
                    )
                    .inc();
                    obs.counter(
                        "rlmul_synth_calls_total",
                        "Real synthesis pipeline invocations (cache misses that ran the \
                         synthesizer).",
                    )
                    .inc();
                    for (phase, from, to) in
                        [("elaborate", t0, t1), ("lint", t1, t2), ("synth", t2, t3)]
                    {
                        obs.labeled_histogram(
                            "rlmul_env_phase_seconds",
                            "Wall time per evaluation-pipeline phase.",
                            &[("phase", phase)],
                        )
                        .observe((to - from).as_secs_f64());
                    }
                }
                if self.sink.is_enabled() {
                    for (name, from, to) in
                        [("elaborate", t0, t1), ("lint", t1, t2), ("synth", t2, t3)]
                    {
                        let secs = (to - from).as_secs_f64();
                        // check: allow(trace-ctx) mirrors the cache_miss/synth trace events above
                        self.sink.emit(Event::new("phase").with("name", name).with("secs", secs));
                    }
                }
                let cost = self.config.weights.cost(&reports);
                let eval = Arc::new(Evaluation { reports, cost });
                ticket.complete(eval.clone());
                self.working.touch(&key, &eval);
                Ok((eval, true))
            }
        }
    }

    /// Every `(area µm², delay ns)` point synthesized so far — the
    /// raw material of the paper's Pareto-front figures.
    pub fn pareto_points(&self) -> &[(f64, f64)] {
        &self.pareto_points
    }

    /// Evaluation-pipeline statistics for this environment.
    pub fn stats(&self) -> EnvStats {
        EnvStats { steps: self.steps_taken, distinct_states: self.working.len(), ..self.stats }
    }

    /// Handle to the evaluation cache this environment uses; clone it
    /// into sibling environments to share synthesized states.
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// The cache entries this environment has read or produced.
    pub fn working_set(&self) -> &WorkingSet {
        &self.working
    }

    /// Imports a snapshot's cache entries into the cache after
    /// construction and adds them to the working set. Prefer
    /// [`MulEnv::with_imported`], which imports before the anchor run
    /// so that it hits too. Returns the number of entries new to the
    /// cache.
    pub fn import(&mut self, entries: Vec<(CacheKey, Evaluation)>) -> usize {
        self.cache.import_into(entries, Some(&mut self.working))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlmul_ct::{Action, CompressorTree};

    fn env8() -> MulEnv {
        MulEnv::new(EnvConfig::new(8, PpgKind::And)).unwrap()
    }

    #[test]
    fn four_delay_targets_are_derived() {
        let env = env8();
        assert_eq!(env.delay_targets().len(), 4);
        assert!(env.delay_targets().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn step_returns_cost_difference_as_reward() {
        let mut env = env8();
        let c0 = env.current_cost();
        let a = env.action_mask().iter().position(|&ok| ok).unwrap();
        let out = env.step(a).unwrap();
        assert!((out.reward - (c0 - out.cost)).abs() < 1e-9);
        assert!(env.current().is_legal());
    }

    #[test]
    fn cache_avoids_resynthesis() {
        let mut env = env8();
        let a = env.action_mask().iter().position(|&ok| ok).unwrap();
        env.step(a).unwrap();
        let before = env.stats();
        assert!(before.distinct_states >= 2);
        // Re-evaluating the current state hits the cache.
        let tree = env.current().clone();
        env.evaluate(&tree).unwrap();
        let after = env.stats();
        assert_eq!(before.synth_runs, after.synth_runs);
        assert_eq!(after.cache_hits, before.cache_hits + 1);
    }

    #[test]
    fn incremental_pipeline_matches_full_rebuild_costs() {
        // Two independent caches, identical action walks: the
        // incremental miss path must produce bit-identical costs and
        // rewards to the from-scratch oracle pipeline (an environment
        // without incremental state rebuilds on every miss).
        let mut inc_env = env8();
        let mut full_env = env8();
        full_env.inc = None;
        assert_eq!(inc_env.delay_targets(), full_env.delay_targets());
        assert_eq!(inc_env.current_cost().to_bits(), full_env.current_cost().to_bits());
        let mut seed = 0x9e3779b97f4a7c15u64;
        for _ in 0..4 {
            let mask = inc_env.action_mask();
            assert_eq!(mask, full_env.action_mask());
            let legal: Vec<usize> =
                mask.iter().enumerate().filter(|(_, &ok)| ok).map(|(i, _)| i).collect();
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let a = legal[(seed >> 33) as usize % legal.len()];
            let oi = inc_env.step(a).unwrap();
            let of = full_env.step(a).unwrap();
            assert_eq!(oi.cost.to_bits(), of.cost.to_bits());
            assert_eq!(oi.reward.to_bits(), of.reward.to_bits());
            for (ri, rf) in oi.evaluation.reports.iter().zip(&of.evaluation.reports) {
                assert_eq!(ri.area_um2.to_bits(), rf.area_um2.to_bits());
                assert_eq!(ri.delay_ns.to_bits(), rf.delay_ns.to_bits());
                assert_eq!(ri.power_mw.to_bits(), rf.power_mw.to_bits());
                assert_eq!(ri.met_target, rf.met_target);
            }
        }
        // The incremental env did real incremental work, not fallbacks.
        assert!(inc_env.stats().cache_misses >= 4);
    }

    #[test]
    fn shared_cache_dedups_across_envs() {
        let cache = crate::cache::EvalCache::new();
        let e1 = MulEnv::with_cache(EnvConfig::new(8, PpgKind::And), cache.clone()).unwrap();
        let e2 = MulEnv::with_cache(EnvConfig::new(8, PpgKind::And), cache.clone()).unwrap();
        // The first env synthesizes the anchor and the initial state;
        // the second env finds both in the shared cache.
        assert!(e1.stats().synth_runs > 0);
        assert_eq!(e2.stats().synth_runs, 0, "sibling env re-synthesized shared states");
        assert_eq!(e2.stats().cache_hits, 2);
        assert_eq!(e1.stats().distinct_states, e2.stats().distinct_states);
    }

    #[test]
    fn stage_pruning_masks_deepening_actions() {
        let env = env8();
        let pruned: usize = env.action_mask().iter().filter(|&&ok| ok).count();
        let unpruned: usize = env.current().action_mask().iter().filter(|&&ok| ok).count();
        assert!(pruned <= unpruned);
        assert!(pruned > 0);
    }

    #[test]
    fn encode_has_stable_shape() {
        let env = env8();
        let t = env.encode_current().unwrap();
        assert_eq!(t.shape(), env.tensor_shape());
        assert!(t.data().iter().all(|v| (0.0..=8.0).contains(v)));
    }

    #[test]
    fn mac_environment_steps() {
        let mut env = MulEnv::new(EnvConfig::new(4, PpgKind::MacAnd)).unwrap();
        let a = env.action_mask().iter().position(|&ok| ok).unwrap();
        let out = env.step(a).unwrap();
        assert!(out.cost.is_finite());
        assert!(env.current().profile().kind().is_mac());
    }

    #[test]
    fn explicit_stage_limit_is_respected() {
        let mut cfg = EnvConfig::new(8, PpgKind::And);
        let baseline_stages =
            CompressorTree::wallace(8, PpgKind::And).unwrap().stage_count().unwrap();
        cfg.pruning = StagePruning::Limit(baseline_stages);
        let env = MulEnv::new(cfg).unwrap();
        // Every unmasked action keeps the successor at or below the limit.
        let ncols = env.current().matrix().num_columns();
        for (idx, &ok) in env.action_mask().iter().enumerate() {
            if !ok {
                continue;
            }
            let a = Action::from_flat_index(idx, ncols).unwrap();
            let next = env.current().apply_action(a).unwrap();
            assert!(next.stage_count().unwrap() <= baseline_stages);
        }
    }

    #[test]
    fn invalid_action_index_is_an_error() {
        let mut env = env8();
        assert!(env.step(99_999).is_err());
        let masked = env.action_mask().iter().position(|&ok| !ok).unwrap();
        assert!(env.step(masked).is_err());
    }

    #[test]
    fn pareto_archive_grows_with_new_states() {
        let mut env = env8();
        let before = env.pareto_points().len();
        let a = env.action_mask().iter().position(|&ok| ok).unwrap();
        env.step(a).unwrap();
        assert!(env.pareto_points().len() > before);
    }

    #[test]
    fn explicit_delay_targets_are_used_verbatim() {
        let mut cfg = EnvConfig::new(4, PpgKind::And);
        cfg.delay_targets = vec![0.9, 1.1];
        let env = MulEnv::new(cfg).unwrap();
        assert_eq!(env.delay_targets(), &[0.9, 1.1]);
    }

    #[test]
    fn best_tracks_lowest_cost() {
        let mut env = env8();
        for _ in 0..5 {
            let a = env.action_mask().iter().position(|&ok| ok).unwrap();
            env.step(a).unwrap();
        }
        let (_, best_cost) = env.best();
        assert!(best_cost <= env.current_cost() + 1e-12);
    }
}
