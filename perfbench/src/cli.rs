//! The in-process workloads: seeded optimization jobs run back to back
//! (closed loop, one thread), each on a fresh evaluation cache.

use crate::loadgen::SplitMix;
use crate::pace;
use crate::quality::{calls_to_target, front_hv, HvSpec};
use crate::stats::{ceil_rank, mean, median};
use crate::{peak_rss_mb, Args, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rlmul_baselines::SaConfig;
use rlmul_core::{
    run_sa_with, train_dqn_with, CacheKeyRef, DqnConfig, EnvConfig, EvalCache, Lookup, MulEnv,
    OptimizationOutcome, PipelineStats, QNetwork, TrainHooks,
};
use rlmul_ct::{CompressorTree, PpgKind};
use rlmul_lec::{PortValues, Simulator};
use rlmul_nn::{clip_grad_norm, Layer, NnStats, Optimizer, RmsProp, Tensor};
use rlmul_rtl::{lint_delta, IncrementalMultiplier, MultiplierNetlist};
use rlmul_synth::{
    analyze, estimate_power, size_to_target, IncrementalSynthesis, MappedNetlist, SynthesisOptions,
};
use std::hint::black_box;
use std::time::Instant;

/// Search method of a CLI workload.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Method {
    /// Simulated annealing (default `SaConfig`).
    Sa,
    /// DQN (default `DqnConfig`).
    Dqn,
}

/// One in-process workload.
#[derive(Debug)]
pub struct CliWorkload {
    bits: usize,
    kind: PpgKind,
    method: Method,
    /// Environment steps per job.
    steps: usize,
    surrogate: bool,
    /// Jobs every run completes; the deterministic counts are averaged
    /// over exactly these, so they repeat for a given seed however
    /// fast the program is.
    counted_jobs: usize,
    /// Iso-quality target as a multiple of the initial design's
    /// hypervolume.
    target_gain: f64,
}

/// 16-bit MBE, simulated annealing, default environment: synthesis-bound.
pub const SA_MBE16: CliWorkload = CliWorkload {
    bits: 16,
    kind: PpgKind::Mbe,
    method: Method::Sa,
    steps: 100,
    surrogate: false,
    counted_jobs: 200,
    target_gain: 1.20,
};

/// 8-bit AND, DQN, surrogate on: agent-network-bound.
pub const DQN_AND8_SURROGATE: CliWorkload = CliWorkload {
    bits: 8,
    kind: PpgKind::And,
    method: Method::Dqn,
    steps: 40,
    surrogate: true,
    counted_jobs: 56,
    target_gain: 1.05,
};

/// Set-up repetitions per run at least; `setup_s` is their median.
const SETUP_REPS: usize = 21;

impl CliWorkload {
    fn env_config(&self) -> EnvConfig {
        let mut cfg = EnvConfig::new(self.bits, self.kind);
        cfg.surrogate.enabled = self.surrogate;
        cfg
    }
}

/// Seed of job `i` of a run with input seed `seed`.
fn job_seed(seed: u64, i: usize) -> u64 {
    SplitMix::new(seed, 0x10b + i as u64).next_u64() % 1_000_000
}

/// One measured job.
struct Job {
    secs: f64,
    out: OptimizationOutcome,
}

/// Runs one seeded job on `cache`; the wall time covers environment
/// construction and the whole optimization.
fn run_job(
    w: &CliWorkload,
    cfg: &EnvConfig,
    seed: u64,
    cache: EvalCache,
) -> Result<Job, rlmul_core::RlMulError> {
    let hooks = TrainHooks::default();
    let t0 = Instant::now();
    let steps = w.steps;
    let out = match w.method {
        Method::Sa => {
            let sa = SaConfig { steps, ..Default::default() };
            run_sa_with(cfg, &sa, seed, cache, &hooks, None)?
        }
        Method::Dqn => {
            let mut env = MulEnv::with_cache(cfg.clone(), cache)?;
            let dqn = DqnConfig { steps, seed, ..Default::default() };
            train_dqn_with(&mut env, &dqn, &hooks, None)?
        }
    };
    Ok(Job { secs: t0.elapsed().as_secs_f64(), out })
}

/// Set-up cost a user pays before the first step: the environment
/// (anchor and initial synthesis, surrogate) plus, for DQN, the network.
fn setup_once(w: &CliWorkload, cfg: &EnvConfig) -> Result<f64, String> {
    let t0 = Instant::now();
    let env = MulEnv::with_cache(cfg.clone(), EvalCache::new()).map_err(|e| e.to_string())?;
    if w.method == Method::Dqn {
        let trunk = DqnConfig::default().trunk;
        black_box(QNetwork::new(&trunk, env.action_space(), &mut StdRng::seed_from_u64(0)));
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(env);
    Ok(secs)
}

/// Jobs of one measured phase.
struct Measured {
    /// Every job in order; `None` for a failed one.
    jobs: Vec<Option<Job>>,
    /// Cache of the last successful job.
    last_cache: Option<EvalCache>,
    /// Peak resident set right after the `min_jobs`-th job, a fixed
    /// amount of work however fast the program is.
    rss_mb: f64,
}

/// Runs jobs back to back until at least `min_jobs` are done and
/// `seconds` have passed, calling `between` after each job, outside
/// its timing.
fn measure(
    w: &CliWorkload,
    cfg: &EnvConfig,
    seed: u64,
    seconds: f64,
    min_jobs: usize,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Measured, String> {
    let mut m = Measured { jobs: Vec::new(), last_cache: None, rss_mb: 0.0 };
    let start = Instant::now();
    while m.jobs.len() < min_jobs || start.elapsed().as_secs_f64() < seconds {
        let cache = EvalCache::new();
        match run_job(w, cfg, job_seed(seed, m.jobs.len()), cache.clone()) {
            Ok(job) => {
                m.jobs.push(Some(job));
                m.last_cache = Some(cache);
            }
            Err(e) => {
                eprintln!("job {} failed: {e}", m.jobs.len());
                m.jobs.push(None);
            }
        }
        if m.jobs.len() == min_jobs {
            m.rss_mb = peak_rss_mb("self")?;
        }
        between()?;
    }
    Ok(m)
}

/// Whether `tree` multiplies correctly: exhaustively through
/// `rlmul_lec::check_datapath` up to its exhaustive width, above it by
/// [`RANDOM_BATCHES`] batches of 64 seeded random vectors (after the
/// corner vectors) on the program's gate-level simulator.
///
/// `check_datapath`'s own randomized path is not used: it packs the
/// corner vectors' partial last batch together with the next 64 random
/// ones into a single batch of up to 127 lanes, while a batch holds 64,
/// so it reports a mismatch for every correct design wider than
/// `EXHAUSTIVE_BITS`.
fn equivalent(tree: &CompressorTree, bits: usize, kind: PpgKind) -> Result<bool, String> {
    let m = MultiplierNetlist::elaborate(tree).map_err(|e| e.to_string())?;
    if bits <= rlmul_lec::EXHAUSTIVE_BITS {
        return rlmul_lec::check_datapath(m.netlist(), bits, kind)
            .map(|r| r.equivalent)
            .map_err(|e| e.to_string());
    }
    let sim = Simulator::new(m.netlist()).map_err(|e| e.to_string())?;
    let mask = (1u64 << bits) - 1;
    let mut corners = vec![0, 1, mask, mask - 1, mask >> 1, (mask >> 1) + 1];
    for k in 0..bits {
        corners.extend([1u64 << k, mask ^ (1u64 << k)]);
    }
    let mut pairs: Vec<(u64, u64)> =
        corners.iter().flat_map(|&a| corners.iter().map(move |&b| (a, b))).collect();
    let mut rng = SplitMix::new(bits as u64, 0x1ec);
    pairs.extend((0..RANDOM_BATCHES * 64).map(|_| (rng.next_u64() & mask, rng.next_u64() & mask)));
    for batch in pairs.chunks(64) {
        let a: Vec<u64> = batch.iter().map(|p| p.0).collect();
        let b: Vec<u64> = batch.iter().map(|p| p.1).collect();
        let out = sim
            .run(&[PortValues::pack(&a, bits), PortValues::pack(&b, bits)])
            .map_err(|e| e.to_string())?;
        for (lane, &(a, b)) in batch.iter().enumerate() {
            let got = out[0]
                .bits
                .iter()
                .enumerate()
                .fold(0u128, |acc, (k, &w)| acc | ((((w >> lane) & 1) as u128) << k));
            if got != rlmul_lec::golden(a, b, 0, bits) {
                return Ok(false);
            }
        }
    }
    Ok(true)
}

/// Random 64-vector batches per design wider than the exhaustive width.
const RANDOM_BATCHES: usize = 1024;

/// Correctness gate, outside the timed phase. Returns the number of
/// jobs that violate it:
/// * the best design multiplies correctly (see [`equivalent`]);
/// * the run's first points are the configuration's initial design;
/// * job 0 rerun from scratch repeats its result bit for bit.
fn gate(w: &CliWorkload, cfg: &EnvConfig, seed: u64, hv: &HvSpec, jobs: &[Option<Job>]) -> usize {
    let mut proven = std::collections::HashMap::new();
    let mut failed = 0;
    for (i, job) in jobs.iter().enumerate() {
        let Some(job) = job else { continue };
        let counts = job.out.best.matrix().counts().to_vec();
        let equivalent = *proven.entry(counts).or_insert_with(|| {
            equivalent(&job.out.best, w.bits, w.kind).unwrap_or_else(|e| {
                eprintln!("job {i}: equivalence check error: {e}");
                false
            })
        });
        let anchored = job.out.pareto_points.get(..hv.initial_points.len())
            == Some(hv.initial_points.as_slice());
        if !equivalent || !anchored {
            eprintln!("job {i}: equivalent={equivalent} initial-points-match={anchored}");
            failed += 1;
        }
    }
    if let Some(Some(first)) = jobs.first() {
        let same = run_job(w, cfg, job_seed(seed, 0), EvalCache::new()).is_ok_and(|again| {
            again.out.best_cost.to_bits() == first.out.best_cost.to_bits()
                && counters(&again.out) == counters(&first.out)
                && again.out.pareto_points == first.out.pareto_points
        });
        if !same {
            eprintln!("job 0 did not repeat bit for bit");
            failed += 1;
        }
    }
    failed
}

/// Pipeline counters without the nn wall time, the only part of a
/// seeded run's outcome that may differ between reruns.
fn counters(o: &OptimizationOutcome) -> PipelineStats {
    let mut p = o.pipeline;
    p.nn.nanos = 0;
    p
}

/// Runs one CLI workload.
pub fn run(w: &CliWorkload, args: &Args) -> Result<Report, String> {
    let cfg = w.env_config();
    let hv = HvSpec::derive(w.bits, w.kind, cfg.max_upsizes, w.target_gain);
    let mut report = Report::default();
    if args.trace {
        return traced(w, &cfg, &hv, args, report);
    }
    // One set-up after each job, outside its timing, spreads the
    // samples over the whole run: the machine's speed drifts over
    // seconds, and a burst of set-ups at the start would catch one phase.
    // One untimed set-up first pages in code and data the rest find warm.
    // A reference loop before the first job and after each one gives
    // every job and set-up the machine's speed around it (see `pace`).
    setup_once(w, &cfg)?;
    let mut reference = vec![pace::reference_secs()];
    let mut setup = Vec::new();
    let Measured { jobs, rss_mb, .. } =
        measure(w, &cfg, args.seed, args.seconds, w.counted_jobs, &mut || {
            let r = pace::reference_secs();
            reference.push(r);
            setup.push(pace::at_reference(setup_once(w, &cfg)?, r, r));
            Ok(())
        })?;
    while setup.len() < SETUP_REPS {
        let r = pace::reference_secs();
        setup.push(pace::at_reference(setup_once(w, &cfg)?, r, r));
    }
    report.attempted = jobs.len();
    report.failed =
        jobs.iter().filter(|j| j.is_none()).count() + gate(w, &cfg, args.seed, &hv, &jobs);

    let ok = jobs.iter().flatten().count();
    let wall: Vec<f64> =
        jobs.iter().map(|j| j.as_ref().map_or(f64::INFINITY, |j| j.secs)).collect();
    let secs: Vec<f64> = wall
        .iter()
        .enumerate()
        .map(|(i, &t)| pace::at_reference(t, reference[i], reference[i + 1]))
        .collect();
    let finite_sum = |v: &[f64]| v.iter().filter(|t| t.is_finite()).sum::<f64>();
    let counted: Vec<&Job> = jobs.iter().take(w.counted_jobs).flatten().collect();
    let per_job = |f: &dyn Fn(&Job) -> f64| mean(&counted.iter().map(|j| f(j)).collect::<Vec<_>>());
    let curves: Vec<Vec<f64>> =
        counted.iter().map(|j| hv.curve(&j.out.pareto_points, hv.initial_points.len())).collect();
    let to_hv = calls_to_target(&curves, hv.target_ratio);
    eprintln!(
        "{} jobs, {} counted; HV reference ({:.1} um2, {:.4} ns), target ratio {:.3}",
        jobs.len(),
        counted.len(),
        hv.reference.x,
        hv.reference.y,
        hv.target_ratio,
    );
    eprintln!(
        "wall time: job p50 {:.1} ms, {:.1} steps/s; reference loop p50 {:.2} ms (nominal {:.2})",
        median(&wall) * 1e3,
        (ok * w.steps) as f64 / finite_sum(&wall),
        median(&reference) * 1e3,
        pace::NOMINAL_SECS * 1e3,
    );
    report.put("setup_s", median(&setup), "s");
    report.put("steps_per_s", (ok * w.steps) as f64 / finite_sum(&secs), "1/s");
    report.put("job_p50_ms", median(&secs) * 1e3, "ms");
    // Closed-loop runs finish far fewer than the 200 jobs the ten-beyond
    // rule needs, so this is a small-sample figure (see README).
    report.put("job_p95_ms", ceil_rank(&secs, 0.95) * 1e3, "ms");
    report.put("synth_calls", per_job(&|j| j.out.pipeline.synthesis_calls as f64), "count");
    report.put("synth_calls_to_hv", to_hv, "count");
    report.put("hypervolume", per_job(&|j| hv.ratio(&j.out.pareto_points)), "ratio");
    report.put("best_cost", per_job(&|j| j.out.best_cost), "cost");
    report.put("peak_rss_mb", rss_mb, "MB");
    Ok(report)
}

/// Per-call wall times of the layers on the workload's miss path,
/// replayed through their public functions.
#[derive(Default)]
struct Replay {
    apply: Vec<f64>,
    retarget: Vec<f64>,
    lint: Vec<f64>,
    run_many: Vec<f64>,
    map: Vec<f64>,
    size: Vec<f64>,
    sta: Vec<f64>,
    power: Vec<f64>,
    gates: Vec<f64>,
    sizing_moves: Vec<f64>,
    /// DQN act-shape forward (one state, inference).
    act_fwd: Vec<f64>,
    /// DQN replay-batch forwards: training plus bootstrap.
    batch_fwd: Vec<f64>,
    /// DQN gradient step: zero, backward, clip, RMSProp.
    batch_bwd: Vec<f64>,
}

fn secs_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Probes each layer the workload's jobs call, a few calls at a time
/// between traced jobs, so per-call times and job times are sampled
/// over the same stretch of a run on a machine whose speed drifts.
struct Probe {
    options: Vec<SynthesisOptions>,
    tree: CompressorTree,
    mul: IncrementalMultiplier,
    syn: IncrementalSynthesis,
    rng: SplitMix,
    steps: usize,
    nn: Option<NnProbe>,
    r: Replay,
}

/// The DQN network at the act and replay-batch shapes, with the conv
/// calls one network forward and backward make, to turn a run's
/// `NnStats` counters into network calls.
struct NnProbe {
    net: QNetwork,
    opt: RmsProp,
    grad_clip: f32,
    x1: Tensor,
    xb: Tensor,
    grad: Tensor,
    convs_per_fwd: u64,
    convs_per_bwd: u64,
}

/// Miss-path steps probed after each traced job.
const PROBES_PER_JOB: usize = 3;

impl Probe {
    fn new(w: &CliWorkload, cfg: &EnvConfig, seed: u64) -> Result<Probe, String> {
        let env = MulEnv::with_cache(cfg.clone(), EvalCache::new()).map_err(|e| e.to_string())?;
        let options: Vec<SynthesisOptions> = env
            .delay_targets()
            .iter()
            .map(|&t| SynthesisOptions { target_delay_ns: Some(t), max_upsizes: cfg.max_upsizes })
            .collect();
        let tree = env.current().clone();
        let mul = IncrementalMultiplier::new(&tree).map_err(|e| e.to_string())?;
        let mut syn = IncrementalSynthesis::nangate45();
        syn.run_many(mul.netlist(), &options).map_err(|e| e.to_string())?;
        let nn = (w.method == Method::Dqn).then(|| NnProbe::new(&env));
        let rng = SplitMix::new(seed, 0x4e9);
        Ok(Probe { options, tree, mul, syn, rng, steps: 0, nn, r: Replay::default() })
    }

    /// One proposal from the current design through the miss path:
    /// legal moves and the legalizing move, incremental re-elaboration,
    /// delta lint, incremental multi-target synthesis; every fourth
    /// step also the full-synthesis pieces, and one network update's
    /// calls for DQN.
    fn step(&mut self) -> Result<(), String> {
        let r = &mut self.r;
        let (next, t) = secs_of(|| {
            let actions = self.tree.valid_actions();
            self.tree.apply_action(actions[self.rng.below(actions.len())])
        });
        let next = next.map_err(|e| e.to_string())?;
        r.apply.push(t);
        let (res, t) = secs_of(|| self.mul.retarget(&next).map(|_| ()));
        res.map_err(|e| e.to_string())?;
        r.retarget.push(t);
        let (lint, t) = secs_of(|| lint_delta(self.mul.arena(), self.mul.last_delta()));
        if lint.errors() > 0 {
            return Err(format!("delta lint errors on a legal design\n{}", lint.render()));
        }
        r.lint.push(t);
        let (reports, t) = secs_of(|| self.syn.run_many(self.mul.netlist(), &self.options));
        let reports = reports.map_err(|e| e.to_string())?;
        r.run_many.push(t);
        r.sizing_moves.push(reports.iter().map(|x| x.sizing_moves as f64).sum());
        r.gates.push(self.mul.netlist().gates().len() as f64);
        if self.steps.is_multiple_of(4) {
            let lib = self.syn.library();
            let (mapped, t) = secs_of(|| MappedNetlist::map(self.mul.netlist(), lib));
            r.map.push(t);
            let (_, t) = secs_of(|| black_box(analyze(&mapped)));
            r.sta.push(t);
            let (mut size_t, mut power_t) = (0.0, 0.0);
            for o in &self.options {
                let mut m = mapped.clone();
                let target = o.target_delay_ns.expect("targeted options");
                let (out, t) = secs_of(|| size_to_target(&mut m, target, o.max_upsizes));
                size_t += t;
                let freq = 1.0 / out.timing.worst_delay_ns.max(1e-6);
                let (_, t) = secs_of(|| black_box(estimate_power(&m, freq)));
                power_t += t;
            }
            r.size.push(size_t);
            r.power.push(power_t);
        }
        if let Some(nn) = &mut self.nn {
            nn.sample(r);
        }
        // Like an annealer, keep about half of the proposals, so the
        // walk stays near where it started and each retarget is one or
        // two moves, as between an optimizer's consecutive evaluations.
        if self.rng.below(2) == 0 {
            self.tree = next;
        }
        self.steps += 1;
        Ok(())
    }
}

impl NnProbe {
    fn new(env: &MulEnv) -> NnProbe {
        let cfg = DqnConfig::default();
        let actions = env.action_space();
        let mut net = QNetwork::new(&cfg.trunk, actions, &mut StdRng::seed_from_u64(1));
        let shape = env.tensor_shape();
        let x1 = Tensor::from_vec(&shape, vec![0.5; shape.iter().product()]);
        let bshape = [cfg.batch_size, shape[1], shape[2], shape[3]];
        let xb = Tensor::from_vec(&bshape, vec![0.5; bshape.iter().product()]);
        let grad =
            Tensor::from_vec(&[cfg.batch_size, actions], vec![0.01; cfg.batch_size * actions]);
        let before = NnStats::snapshot();
        black_box(net.forward(&x1, false));
        let convs_per_fwd = NnStats::snapshot().since(before).conv_forwards;
        black_box(net.forward(&xb, true));
        let before = NnStats::snapshot();
        black_box(net.backward(&grad));
        let convs_per_bwd = NnStats::snapshot().since(before).conv_backwards;
        let opt = RmsProp::new(cfg.lr);
        NnProbe { net, opt, grad_clip: cfg.grad_clip, x1, xb, grad, convs_per_fwd, convs_per_bwd }
    }

    /// One act forward and one update's worth of calls.
    fn sample(&mut self, r: &mut Replay) {
        let net = &mut self.net;
        r.act_fwd.push(secs_of(|| black_box(net.forward(&self.x1, false))).1);
        let (_, t_train) = secs_of(|| black_box(net.forward(&self.xb, true)));
        let (_, t_boot) = secs_of(|| black_box(net.forward(&self.xb, false)));
        r.batch_fwd.push(t_train + t_boot);
        let (opt, grad, clip) = (&mut self.opt, &self.grad, self.grad_clip);
        r.batch_bwd.push(
            secs_of(|| {
                opt.zero_grad(net);
                black_box(net.backward(grad));
                clip_grad_norm(net, clip);
                opt.step(net);
            })
            .1,
        );
    }
}

/// The traced run: the jobs run twice for half the time each, first
/// plain and then with the layer probes between jobs, for the tracing
/// overhead; each layer's median per-call time is then multiplied by
/// the traced jobs' counters.
fn traced(
    w: &CliWorkload,
    cfg: &EnvConfig,
    hv: &HvSpec,
    args: &Args,
    mut report: Report,
) -> Result<Report, String> {
    let half = args.seconds / 2.0;
    let min_jobs = (w.counted_jobs / 4).max(2);
    let plain = measure(w, cfg, args.seed, half, min_jobs, &mut || Ok(()))?.jobs;
    let mut probe = Probe::new(w, cfg, args.seed)?;
    let Measured { jobs, last_cache: cache, .. } =
        measure(w, cfg, args.seed, half, min_jobs, &mut || {
            (0..PROBES_PER_JOB).try_for_each(|_| probe.step())
        })?;
    let r = probe.r;
    report.attempted = plain.len() + jobs.len();
    report.failed = plain.iter().chain(&jobs).filter(|j| j.is_none()).count();
    let jobs: Vec<&Job> = jobs.iter().flatten().collect();
    let plain_p50 = median(&plain.iter().flatten().map(|j| j.secs).collect::<Vec<_>>());
    let traced_p50 = median(&jobs.iter().map(|j| j.secs).collect::<Vec<_>>());
    if jobs.is_empty() {
        return Err("no traced job completed".into());
    }

    let avg = |f: &dyn Fn(&OptimizationOutcome) -> f64| {
        mean(&jobs.iter().map(|j| f(&j.out)).collect::<Vec<_>>())
    };
    let steps = w.steps as f64;
    let calls = avg(&|o| o.pipeline.synthesis_calls as f64);
    let lookups = avg(&|o| (o.pipeline.cache_hits + o.pipeline.cache_misses) as f64);
    let us = 1e6;

    // Cache: lookups that hit, and one export, at the end-of-run size.
    let cache = cache.ok_or("no traced job completed")?;
    let entries = cache.export_entries();
    let mut lookup_t = Vec::new();
    for (key, _) in entries.iter().cycle().take(2000) {
        let probe = CacheKeyRef { counts: &key.counts, kind: key.kind, context: key.context };
        let (hit, t) = secs_of(|| matches!(cache.lookup_or_begin(&probe), Lookup::Hit(_)));
        if !hit {
            return Err("cache probe of an exported key missed".into());
        }
        lookup_t.push(t);
    }
    let export_t: Vec<f64> =
        (0..9).map(|_| secs_of(|| black_box(cache.export_entries())).1).collect();
    let hv_t: Vec<f64> = jobs
        .iter()
        .map(|j| secs_of(|| black_box(front_hv(&j.out.pareto_points, hv.reference))).1)
        .collect();

    let nn = avg(&|o| o.pipeline.nn.flops as f64);
    let (nn_fwd, nn_bwd) = match &probe.nn {
        Some(t) => {
            let updates = avg(&|o| (o.pipeline.nn.conv_backwards / t.convs_per_bwd) as f64);
            let acts =
                avg(&|o| (o.pipeline.nn.conv_forwards / t.convs_per_fwd) as f64) - 2.0 * updates;
            (
                acts * median(&r.act_fwd) + updates * median(&r.batch_fwd),
                updates * median(&r.batch_bwd),
            )
        }
        None => (0.0, 0.0),
    };
    let apply = median(&r.apply) * steps;
    let retarget = median(&r.retarget) * calls;
    let lint = median(&r.lint) * calls;
    let run_many = median(&r.run_many) * calls;
    let lookup = median(&lookup_t) * lookups;
    let job = mean(&jobs.iter().map(|j| j.secs).collect::<Vec<_>>());
    let explained = apply + retarget + lint + run_many + lookup + nn_fwd + nn_bwd;
    let nanos: f64 = jobs.iter().map(|j| j.out.pipeline.nn.nanos as f64).sum();
    let flops: f64 = jobs.iter().map(|j| j.out.pipeline.nn.flops as f64).sum();
    let hits = avg(&|o| o.pipeline.cache_hits as f64);
    let screened = avg(&|o| o.pipeline.surrogate_screened as f64);

    report.put("ct.apply_us", apply * us, "us");
    report.put("rtl.retarget_us", retarget * us, "us");
    report.put("rtl.lint_us", lint * us, "us");
    report.put("rtl.gates", median(&r.gates), "count");
    report.put("synth.run_many_us", run_many * us, "us");
    report.put("synth.map_us", median(&r.map) * calls * us, "us");
    report.put("synth.size_us", median(&r.size) * calls * us, "us");
    report.put("synth.sta_us", median(&r.sta) * calls * us, "us");
    report.put("synth.power_us", median(&r.power) * calls * us, "us");
    report.put("synth.sizing_moves", mean(&r.sizing_moves) * calls, "count");
    report.put(
        "synth.sta_gate_visits",
        avg(&|o| (o.pipeline.sta.full_gate_visits + o.pipeline.sta.incremental_gate_visits) as f64),
        "count",
    );
    report.put("cache.hit_ratio", hits / lookups, "ratio");
    report.put("cache.lookup_us", lookup * us, "us");
    report.put("cache.entries", avg(&|o| o.pipeline.cache_entries as f64), "count");
    report.put("surrogate.screened_frac", screened / (screened + lookups), "ratio");
    report.put("surrogate.forced", avg(&|o| o.pipeline.surrogate_forced_evals as f64), "count");
    report.put("nn.forward_us", nn_fwd * us, "us");
    report.put("nn.backward_us", nn_bwd * us, "us");
    report.put("nn.mflop_per_step", nn / steps / 1e6, "MFLOP");
    report.put("nn.gflops", if nanos > 0.0 { flops / nanos } else { 0.0 }, "GFLOP/s");
    report.put("ckpt.snapshot_bytes", 0.0, "B");
    report.put("ckpt.export_us", median(&export_t) * us, "us");
    report.put("ckpt.ms_per_job", 0.0, "ms");
    for name in [
        "serve.submit_ms",
        "serve.status_ms",
        "serve.queue_wait_ms",
        "serve.run_ms",
        "serve.finish_ms",
    ] {
        report.put(name, 0.0, "ms");
    }
    report.put("serve.trace_events", 0.0, "count");
    report.put("pareto.hv_us", median(&hv_t) * us, "us");
    report.put("loadgen.late_p95_ms", 0.0, "ms");
    report.put("residual_frac", 1.0 - explained / job, "ratio");
    report.put("trace.overhead_frac", traced_p50 / plain_p50 - 1.0, "ratio");

    let synth_share = (retarget + lint + run_many) / job;
    let nn_share = (nn_fwd + nn_bwd) / job;
    eprintln!(
        "shares of a {:.1} ms job: rtl+synth {:.1}%, synth {:.1}%, nn {:.1}%, residual {:.1}%",
        job * 1e3,
        synth_share * 100.0,
        run_many / job * 100.0,
        nn_share * 100.0,
        (1.0 - explained / job) * 100.0
    );
    match w.method {
        Method::Sa => eprintln!(
            "synth >= 80% of the job: {}",
            if run_many / job >= 0.8 { "confirmed" } else { "NOT confirmed" }
        ),
        Method::Dqn => eprintln!(
            "nn >= 90% of the job: {}",
            if nn_share >= 0.9 { "confirmed" } else { "NOT confirmed" }
        ),
    }
    Ok(report)
}
