//! The serve-mix workload: the real `rlmul serve` binary as a child
//! process on a fresh state directory, driven by one open-loop client
//! (two threads, one keep-alive connection each) over HTTP.

use crate::http::Client;
use crate::loadgen::{poisson_arrivals, OpenLoopTiming, SplitMix};
use crate::pace;
use crate::quality::{calls_to_target, HvSpec};
use crate::stats::{mean, median, tail_percentile};
use crate::{peak_rss_mb, Args, Report};
use rlmul_baselines::SaConfig;
use rlmul_core::{run_sa_with, CacheKey, CacheKeyRef, EnvConfig, EvalCache, Lookup, TrainHooks};
use rlmul_ct::PpgKind;
use rlmul_serve::json::{parse_object, parse_object_array, JsonObject, JsonValue};
use rlmul_serve::Pref;
use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Offered load, jobs per second. The seed code keeps up with it
/// through the last job of a run (its backlog does not grow).
const RATE_PER_S: f64 = 6.0;
/// Jobs per run at least: enough for ten samples beyond the p95.
const MIN_JOBS: usize = 200;
/// SA steps of a short job; with the server's default `ckpt_every` of
/// 10 it rolls one periodic snapshot and one at the end.
const STEPS: usize = 20;
/// SA steps of a long job: three periodic snapshots and one at the end.
const LONG_STEPS: usize = 40;
/// Server default the jobs rely on (they omit `ckpt_every`).
const CKPT_EVERY: usize = 10;
/// Interval at which the client polls outstanding jobs.
const POLL: Duration = Duration::from_millis(5);
/// Daemon start-ups timed per run; `setup_s` is their median.
const SPAWN_REPS: usize = 16;
/// Least idle time ahead for an in-pass reference loop: no job may be
/// due sooner.
const REFERENCE_GAP: f64 = 0.015;
/// In-pass reference loops, nearest in time to a job's due time, whose
/// median gives the machine's speed for that job.
const REFERENCE_NEAREST: usize = 8;
/// Iso-quality target as a multiple of the initial design's hypervolume.
const TARGET_GAIN: f64 = 1.05;
/// The job mix, cycling with the job index modulo 8: a fresh job
/// `(bits, kind, steps)`, or a repeat, for another tenant, of an earlier
/// job at this position of the cycle. One job in eight is long, so the
/// p95 falls among the long jobs, which are spread over the whole run,
/// rather than on the few jobs that happened to arrive in a burst or
/// during one slow phase of the machine; one in four is a repeat, as
/// when several users optimize the same standard multiplier.
const MIX: [Slot; 8] = [
    Slot::Fresh(6, "and", STEPS),
    Slot::Fresh(8, "and", STEPS),
    Slot::Fresh(8, "mbe", STEPS),
    Slot::RepeatOf(0),
    Slot::Fresh(8, "mbe", LONG_STEPS),
    Slot::Fresh(8, "and", STEPS),
    Slot::Fresh(8, "mbe", STEPS),
    Slot::RepeatOf(5),
];
const TENANTS: usize = 4;

/// One position of the job mix.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Fresh(usize, &'static str, usize),
    RepeatOf(usize),
}

/// One submitted job.
#[derive(Debug, Clone)]
struct Spec {
    bits: usize,
    kind: &'static str,
    steps: usize,
    seed: u64,
    priority: u64,
    tenant: usize,
}

impl Spec {
    fn body(&self, i: usize) -> String {
        format!(
            "{{\"bits\":{},\"kind\":\"{}\",\"method\":\"sa\",\"steps\":{},\"seed\":{},\
             \"priority\":{},\"tenant\":\"t{}\",\"idempotency_key\":\"job-{i}\"}}",
            self.bits, self.kind, self.steps, self.seed, self.priority, self.tenant
        )
    }
}

fn specs(seed: u64, n: usize) -> Vec<Spec> {
    let mut rng = SplitMix::new(seed, 0x5e7);
    let mut out: Vec<Spec> = Vec::with_capacity(n);
    for i in 0..n {
        let spec = match MIX[i % MIX.len()] {
            Slot::RepeatOf(pos) => {
                let mut s = out[MIX.len() * rng.below(i / MIX.len() + 1) + pos].clone();
                s.tenant = (s.tenant + 1 + rng.below(TENANTS - 1)) % TENANTS;
                s
            }
            Slot::Fresh(bits, kind, steps) => Spec {
                bits,
                kind,
                steps,
                seed: rng.next_u64() % 1_000_000,
                priority: rng.below(3) as u64,
                tenant: rng.below(TENANTS),
            },
        };
        out.push(spec);
    }
    out
}

/// A running `rlmul serve` child on its own state directory.
struct Daemon {
    child: Child,
    // Held open so the daemon's later stdout writes do not fail.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Starts the daemon on a fresh `dir`; returns it with the seconds
    /// from spawn to the first `200` from `GET /healthz`.
    fn start(bin: &Path, dir: PathBuf) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--dir"])
            .arg(&dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let mut daemon = Daemon { child, _stdout: stdout, addr: String::new(), dir };
        daemon.addr = line
            .split("http://")
            .nth(1)
            .and_then(|s| s.split('/').next())
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_owned();
        loop {
            if let Ok((200, _)) = Client::new(&daemon.addr).call("GET", "/healthz", "") {
                break;
            }
            if t0.elapsed() > Duration::from_secs(20) {
                return Err("daemon never became healthy".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    /// Kills the daemon, waits for it, and removes its state.
    fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.halt();
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone)]
struct Seen {
    timing: OpenLoopTiming,
    id: Option<u64>,
    record: Option<JsonObject>,
    trace: Option<Vec<JsonObject>>,
}

/// One open-loop pass against a fresh daemon.
struct Pass {
    jobs: Vec<Seen>,
    submit_s: Vec<f64>,
    status_s: Vec<f64>,
    rss_mb: f64,
    snapshot_bytes: Vec<f64>,
    /// In-pass reference loops: (seconds into the pass, loop time).
    reference: Vec<(f64, f64)>,
}

fn state_root() -> PathBuf {
    PathBuf::from(".bench_state").join(format!("serve-{}", std::process::id()))
}

/// Submits `specs` on their Poisson schedule and polls each job until
/// it is terminal. With `fetch_traces`, each job's trace is fetched as
/// soon as the job is seen terminal.
fn pass(bin: &Path, specs: &[Spec], due: &[f64], fetch_traces: bool) -> Result<Pass, String> {
    let (daemon, _) = Daemon::start(bin, state_root().join("run"))?;
    let (tx, rx) = mpsc::channel::<(usize, f64, Option<u64>, f64)>();
    let start = Instant::now();
    let addr = daemon.addr.clone();
    let bodies: Vec<String> = specs.iter().enumerate().map(|(i, s)| s.body(i)).collect();
    let schedule = due.to_vec();
    let submitter = std::thread::spawn(move || {
        let mut c = Client::new(&addr);
        for (i, body) in bodies.iter().enumerate() {
            let wait = schedule[i] - start.elapsed().as_secs_f64();
            if wait > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wait));
            }
            let sent = start.elapsed().as_secs_f64();
            let id = match c.call("POST", "/jobs", body) {
                Ok((201, b)) => parse_object(&b).ok().and_then(|o| o.get_u64("id")),
                _ => None,
            };
            let took = start.elapsed().as_secs_f64() - sent;
            if tx.send((i, sent, id, took)).is_err() {
                return;
            }
        }
    });
    let mut jobs: Vec<Seen> = due
        .iter()
        .map(|&d| Seen {
            timing: OpenLoopTiming { due: d, sent: f64::INFINITY, observed: None },
            id: None,
            record: None,
            trace: None,
        })
        .collect();
    let (mut submit_s, mut status_s) = (Vec::new(), Vec::new());
    let mut poller = Client::new(&daemon.addr);
    let mut outstanding: Vec<(usize, u64)> = Vec::new();
    let mut reference = Vec::new();
    let (mut received, deadline) = (0, due.last().copied().unwrap_or(0.0) + 60.0);
    while received < specs.len() || !outstanding.is_empty() {
        while let Ok((i, sent, id, took)) = rx.try_recv() {
            received += 1;
            jobs[i].timing.sent = sent;
            jobs[i].id = id;
            submit_s.push(took);
            if let Some(id) = id {
                outstanding.push((i, id));
            }
        }
        let mut still = Vec::with_capacity(outstanding.len());
        for &(i, id) in &outstanding {
            let t0 = Instant::now();
            let resp = poller.call("GET", &format!("/jobs/{id}"), "");
            status_s.push(t0.elapsed().as_secs_f64());
            let record = match resp {
                Ok((200, b)) => parse_object(&b).ok(),
                _ => None,
            };
            let terminal = record
                .as_ref()
                .and_then(|r| r.get_str("state"))
                .is_some_and(|s| matches!(s, "done" | "failed" | "cancelled"));
            if terminal {
                jobs[i].timing.observed = Some(start.elapsed().as_secs_f64());
                jobs[i].record = record;
                if fetch_traces {
                    jobs[i].trace = fetch_trace(&mut poller, id);
                }
            } else {
                still.push((i, id));
            }
        }
        outstanding = still;
        // With no job in the server and none due soon, time the
        // reference loop (see `pace`): the machine's speed over the pass,
        // measured while the daemon idles, so the loop and the jobs do
        // not compete for the cores.
        let now = start.elapsed().as_secs_f64();
        let idle =
            outstanding.is_empty() && due.get(received).is_some_and(|&d| d - now > REFERENCE_GAP);
        if idle {
            reference.push((now, pace::reference_secs()));
        }
        if start.elapsed().as_secs_f64() > deadline {
            eprintln!("{} jobs never finished", outstanding.len());
            break;
        }
        std::thread::sleep(POLL);
    }
    // A submitter stuck past the deadline is released by the daemon's
    // exit below, which fails its pending call.
    let rss_mb = peak_rss_mb(&daemon.child.id().to_string())?;
    let snapshot_bytes = jobs
        .iter()
        .filter_map(|j| j.id)
        .filter_map(|id| daemon.dir.join(format!("ckpt-{id:08}/latest.ckpt")).metadata().ok())
        .map(|m| m.len() as f64)
        .collect();
    daemon.stop();
    submitter.join().map_err(|_| "submitter thread panicked")?;
    Ok(Pass { jobs, submit_s, status_s, rss_mb, snapshot_bytes, reference })
}

fn fetch_trace(c: &mut Client, id: u64) -> Option<Vec<JsonObject>> {
    let (status, body) = c.call("GET", &format!("/jobs/{id}/trace"), "").ok()?;
    if status != 200 {
        return None;
    }
    let o = parse_object(&body).ok()?;
    match o.get("events")? {
        JsonValue::Raw(raw) => parse_object_array(raw).ok(),
        _ => None,
    }
}

fn result_of(record: &JsonObject) -> Option<JsonObject> {
    match record.get("result")? {
        JsonValue::Raw(raw) => parse_object(raw.as_bytes()).ok(),
        _ => None,
    }
}

/// A job's quality, from its in-process rerun.
#[derive(Debug, Clone)]
struct Quality {
    best_cost: f64,
    hv_ratio: f64,
    /// Hypervolume ratio after each synthesis call.
    curve: Vec<f64>,
}

/// Reruns every distinct spec in-process on a fresh cache with the
/// server's configuration mapping (SA, trade-off weights); `None` for a
/// rerun that failed.
fn rerun(specs: &[Spec]) -> Vec<Option<Quality>> {
    let mut yardsticks = std::collections::HashMap::new();
    let mut done: std::collections::HashMap<(usize, &str, usize, u64), Option<Quality>> =
        std::collections::HashMap::new();
    specs
        .iter()
        .map(|s| {
            let key = (s.bits, s.kind, s.steps, s.seed);
            if let Some(q) = done.get(&key) {
                return q.clone();
            }
            let kind = if s.kind == "mbe" { PpgKind::Mbe } else { PpgKind::And };
            let mut cfg = EnvConfig::new(s.bits, kind);
            cfg.weights = Pref::Tradeoff.weights();
            let hv = yardsticks
                .entry((s.bits, s.kind))
                .or_insert_with(|| HvSpec::derive(s.bits, kind, cfg.max_upsizes, TARGET_GAIN));
            let sa = SaConfig { steps: s.steps, ..Default::default() };
            let q = run_sa_with(&cfg, &sa, s.seed, EvalCache::new(), &TrainHooks::default(), None)
                .ok()
                .map(|o| Quality {
                    best_cost: o.best_cost,
                    hv_ratio: hv.ratio(&o.pareto_points),
                    curve: hv.curve(&o.pareto_points, hv.initial_points.len()),
                });
            done.insert(key, q.clone());
            q
        })
        .collect()
}

/// Correctness gate, outside the timed phase: every job ends `done`
/// with all its steps, and its `best_cost` is bit-identical to the
/// in-process rerun of its spec. Returns the number of violating jobs.
fn gate(specs: &[Spec], jobs: &[Seen], reruns: &[Option<Quality>]) -> usize {
    let mut failed = 0;
    for (i, ((j, q), s)) in jobs.iter().zip(reruns).zip(specs).enumerate() {
        let result = j.record.as_ref().and_then(result_of);
        let done = j.record.as_ref().and_then(|r| r.get_str("state")) == Some("done")
            && result.as_ref().and_then(|r| r.get_u64("steps_done")) == Some(s.steps as u64);
        let served = result.as_ref().and_then(|r| r.get_f64("best_cost"));
        let local = q.as_ref().map(|q| q.best_cost);
        if !done || served.map(f64::to_bits) != local.map(f64::to_bits) {
            eprintln!("job {i}: done={done}, served best_cost {served:?}, in-process {local:?}");
            failed += 1;
        }
    }
    failed
}

fn count(jobs: &[Seen], field: &str) -> Vec<f64> {
    jobs.iter()
        .map(|j| {
            j.record.as_ref().and_then(result_of).and_then(|r| r.get_u64(field)).unwrap_or(0) as f64
        })
        .collect()
}

/// The seeded job specs and their due times: `n` jobs, at least
/// [`MIN_JOBS`], arriving over `n / RATE_PER_S` seconds.
fn schedule(seed: u64, seconds: f64) -> (Vec<Spec>, Vec<f64>) {
    let n = MIN_JOBS.max((RATE_PER_S * seconds).ceil() as usize);
    let due = poisson_arrivals(&mut SplitMix::new(seed, 0xa77), n, n as f64 / RATE_PER_S);
    (specs(seed, n), due)
}

/// Runs serve-mix.
pub fn run(args: &Args) -> Result<Report, String> {
    let bin = args.rlmul.as_deref().ok_or("serve-mix needs --rlmul PATH")?;
    let (specs, due) = schedule(args.seed, args.seconds);
    let result = if args.trace { traced(bin, &specs, &due) } else { end_to_end(bin, &specs, &due) };
    let _ = std::fs::remove_dir_all(state_root());
    let _ = std::fs::remove_dir(".bench_state");
    result
}

fn latencies(jobs: &[Seen]) -> Vec<f64> {
    jobs.iter().map(|j| j.timing.latency()).collect()
}

/// Median time of the [`REFERENCE_NEAREST`] in-pass reference loops
/// nearest to `t` seconds into the pass.
fn speed_near(reference: &[(f64, f64)], t: f64) -> f64 {
    let mut by_distance: Vec<(f64, f64)> =
        reference.iter().map(|&(at, secs)| ((at - t).abs(), secs)).collect();
    by_distance.sort_by(|a, b| a.0.total_cmp(&b.0));
    median(&by_distance.iter().take(REFERENCE_NEAREST).map(|x| x.1).collect::<Vec<_>>())
}

fn end_to_end(bin: &Path, specs: &[Spec], due: &[f64]) -> Result<Report, String> {
    // One untimed start first pages the binary in, as on any machine
    // that has run it before. The timed starts are split before and after
    // the pass, so they sample more than one phase of the machine's
    // drifting speed. Each is scaled by a reference loop run right before
    // it, with no daemon up (see `pace`).
    Daemon::start(bin, state_root().join("warm"))?.0.stop();
    let mut setup = Vec::with_capacity(SPAWN_REPS);
    let mut spawn = |n: usize| -> Result<(), String> {
        for _ in 0..n {
            let r = pace::reference_secs();
            let (d, secs) = Daemon::start(bin, state_root().join("setup"))?;
            d.stop();
            setup.push(pace::at_reference(secs, r, r));
        }
        Ok(())
    };
    spawn(SPAWN_REPS / 2)?;
    let p = pass(bin, specs, due, false)?;
    spawn(SPAWN_REPS - SPAWN_REPS / 2)?;
    let reruns = rerun(specs);
    let mut report = Report { attempted: p.jobs.len(), ..Report::default() };
    report.failed = gate(specs, &p.jobs, &reruns);
    if p.reference.is_empty() {
        return Err("the server never idled for a reference loop".into());
    }
    let wall = latencies(&p.jobs);
    let lat: Vec<f64> = p
        .jobs
        .iter()
        .zip(&wall)
        .map(|(j, &t)| {
            let speed = speed_near(&p.reference, j.timing.due);
            pace::at_reference(t, speed, speed)
        })
        .collect();
    let p95 = tail_percentile(&lat, 0.95).ok_or("too few jobs for a p95")?;
    eprintln!(
        "wall time: job p50 {:.2} ms, p95 {:.2} ms; {} reference loops, p50 {:.2} ms (nominal {:.2})",
        median(&wall) * 1e3,
        tail_percentile(&wall, 0.95).unwrap_or(f64::INFINITY) * 1e3,
        p.reference.len(),
        median(&p.reference.iter().map(|r| r.1).collect::<Vec<_>>()) * 1e3,
        pace::NOMINAL_SECS * 1e3,
    );
    let quarter = wall.len().div_ceil(4).max(1);
    let by_quarter: Vec<String> =
        wall.chunks(quarter).map(|q| format!("{:.1}", median(q) * 1e3)).collect();
    eprintln!("wall-time job p50 by quarter of the run (ms): {}", by_quarter.join(" "));
    let busy = p.jobs.iter().filter_map(|j| j.timing.observed).fold(0.0, f64::max)
        - due.first().copied().unwrap_or(0.0);
    let quality: Vec<&Quality> = reruns.iter().flatten().collect();
    report.put("setup_s", median(&setup), "s");
    report.put("steps_per_s", count(&p.jobs, "steps_done").iter().sum::<f64>() / busy, "1/s");
    report.put("job_p50_ms", median(&lat) * 1e3, "ms");
    report.put("job_p95_ms", p95 * 1e3, "ms");
    report.put("synth_calls", mean(&count(&p.jobs, "synthesis_calls")), "count");
    // Every shape's target is the same multiple of its initial
    // hypervolume, so the ratio curves of all jobs average together.
    let curves: Vec<Vec<f64>> = quality.iter().map(|q| q.curve.clone()).collect();
    report.put("synth_calls_to_hv", calls_to_target(&curves, TARGET_GAIN), "count");
    report.put(
        "hypervolume",
        mean(&quality.iter().map(|q| q.hv_ratio).collect::<Vec<_>>()),
        "ratio",
    );
    let best: Vec<f64> = p
        .jobs
        .iter()
        .filter_map(|j| j.record.as_ref().and_then(result_of).and_then(|r| r.get_f64("best_cost")))
        .collect();
    report.put("best_cost", mean(&best), "cost");
    report.put("peak_rss_mb", p.rss_mb, "MB");
    Ok(report)
}

/// Server-side phases of one job, in seconds, from its trace.
#[derive(Debug, Clone, Copy)]
struct Phases {
    /// `queued` → `claimed`.
    queue_wait: f64,
    /// `claimed` → last `step`, periodic checkpoints included.
    run: f64,
    /// Periodic checkpoint pauses: the step gaps that hold a snapshot,
    /// less the job's median plain gap.
    ckpt: f64,
    /// Last `step` → terminal: the shutdown snapshot and persistence.
    finish: f64,
    /// `submitted` → terminal.
    span: f64,
}

fn phases(events: &[JsonObject]) -> Option<Phases> {
    let at = |kind: &str| {
        events.iter().find(|e| e.get_str("kind") == Some(kind)).and_then(|e| e.get_u64("micros"))
    };
    let us = |v: u64| v as f64 * 1e-6;
    let (submitted, queued, claimed) = (at("submitted")?, at("queued")?, at("claimed")?);
    let terminal = events.last()?.get_u64("micros")?;
    let steps: Vec<u64> = events
        .iter()
        .filter(|e| e.get_str("kind") == Some("step"))
        .filter_map(|e| e.get_u64("micros"))
        .collect();
    let last = *steps.last()?;
    // Gap k (k >= 1) runs from step k to step k + 1; a periodic
    // snapshot taken after step c sits in gap c.
    let gaps: Vec<(usize, f64)> =
        steps.windows(2).enumerate().map(|(k, w)| (k + 1, us(w[1] - w[0]))).collect();
    let is_ckpt = |k: usize| k.is_multiple_of(CKPT_EVERY);
    let plain = median(&gaps.iter().filter(|g| !is_ckpt(g.0)).map(|g| g.1).collect::<Vec<_>>());
    let ckpt: f64 = gaps.iter().filter(|g| is_ckpt(g.0)).map(|g| (g.1 - plain).max(0.0)).sum();
    Some(Phases {
        queue_wait: us(claimed - queued),
        run: us(last - claimed),
        ckpt,
        finish: us(terminal - last),
        span: us(terminal - submitted),
    })
}

/// Median per-call times of a cache lookup hit and of a whole-cache
/// export, on a cache holding `entries` entries cloned from a real run.
fn cache_times(entries: usize, seed: u64) -> Result<(f64, f64), String> {
    let cfg = EnvConfig::new(8, PpgKind::And);
    let sa = SaConfig { steps: STEPS, ..Default::default() };
    let donor = EvalCache::new();
    run_sa_with(&cfg, &sa, seed, donor.clone(), &TrainHooks::default(), None)
        .map_err(|e| e.to_string())?;
    let real = donor.export_entries();
    let cache = EvalCache::new();
    let synthetic: Vec<(CacheKey, _)> = (0..entries.max(1))
        .map(|i| {
            let (key, eval) = &real[i % real.len()];
            let key = CacheKey { context: key.context ^ (i / real.len()) as u64, ..key.clone() };
            (key, eval.clone())
        })
        .collect();
    let keys: Vec<CacheKey> = synthetic.iter().map(|(k, _)| k.clone()).collect();
    cache.import(synthetic);
    let mut lookup = Vec::new();
    for key in keys.iter().cycle().take(2000) {
        let probe = CacheKeyRef { counts: &key.counts, kind: key.kind, context: key.context };
        let t0 = Instant::now();
        let hit = matches!(cache.lookup_or_begin(&probe), Lookup::Hit(_));
        lookup.push(t0.elapsed().as_secs_f64());
        if !hit {
            return Err("synthetic cache probe missed".into());
        }
    }
    let export: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            black_box(cache.export_entries());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    Ok((median(&lookup), median(&export)))
}

/// The traced run: one plain pass and one that fetches every job's
/// trace as it finishes (the difference is the tracing overhead);
/// phases come from the fetched traces, HTTP times from the client.
fn traced(bin: &Path, specs: &[Spec], due: &[f64]) -> Result<Report, String> {
    let plain = pass(bin, specs, due, false)?;
    let p = pass(bin, specs, due, true)?;
    let mut report = Report {
        attempted: plain.jobs.len() + p.jobs.len(),
        failed: p.jobs.iter().chain(&plain.jobs).filter(|j| j.timing.observed.is_none()).count(),
        ..Report::default()
    };
    let ph: Vec<Phases> =
        p.jobs.iter().filter_map(|j| j.trace.as_deref().and_then(phases)).collect();
    if ph.len() != p.jobs.len() {
        return Err(format!("{} of {} traces unusable", p.jobs.len() - ph.len(), p.jobs.len()));
    }
    let col = |f: fn(&Phases) -> f64| ph.iter().map(f).collect::<Vec<f64>>();
    let hits = count(&p.jobs, "cache_hits");
    let misses = count(&p.jobs, "cache_misses");
    let lookups = mean(&hits) + mean(&misses);
    let entries = count(&p.jobs, "states_visited").into_iter().fold(0.0, f64::max);
    let (lookup_t, export_t) = cache_times(entries as usize, specs[0].seed)?;
    let residual: Vec<f64> = p
        .jobs
        .iter()
        .zip(&ph)
        .map(|(j, x)| {
            let lat = j.timing.latency();
            1.0 - (j.timing.lateness() + x.span) / lat
        })
        .collect();
    let n_events =
        p.jobs.iter().map(|j| j.trace.as_ref().map_or(0, Vec::len) as f64).collect::<Vec<_>>();
    let late: Vec<f64> = p.jobs.iter().map(|j| j.timing.lateness()).collect();
    let ms = 1e3;

    for (name, unit) in [
        ("ct.apply_us", "us"),
        ("rtl.retarget_us", "us"),
        ("rtl.lint_us", "us"),
        ("rtl.gates", "count"),
        ("synth.run_many_us", "us"),
        ("synth.map_us", "us"),
        ("synth.size_us", "us"),
        ("synth.sta_us", "us"),
        ("synth.power_us", "us"),
        ("synth.sizing_moves", "count"),
        ("synth.sta_gate_visits", "count"),
    ] {
        report.put(name, 0.0, unit);
    }
    report.put("cache.hit_ratio", mean(&hits) / lookups, "ratio");
    report.put("cache.lookup_us", lookup_t * lookups * 1e6, "us");
    report.put("cache.entries", entries, "count");
    report.put("surrogate.screened_frac", 0.0, "ratio");
    report.put("surrogate.forced", 0.0, "count");
    report.put("nn.forward_us", 0.0, "us");
    report.put("nn.backward_us", 0.0, "us");
    report.put("nn.mflop_per_step", 0.0, "MFLOP");
    report.put("nn.gflops", 0.0, "GFLOP/s");
    report.put("ckpt.snapshot_bytes", mean(&p.snapshot_bytes), "B");
    report.put("ckpt.export_us", export_t * 1e6, "us");
    report.put("ckpt.ms_per_job", mean(&col(|x| x.ckpt)) * ms, "ms");
    report.put("serve.submit_ms", median(&p.submit_s) * ms, "ms");
    report.put("serve.status_ms", median(&p.status_s) * ms, "ms");
    report.put("serve.queue_wait_ms", median(&col(|x| x.queue_wait)) * ms, "ms");
    report.put("serve.run_ms", median(&col(|x| x.run)) * ms, "ms");
    report.put("serve.finish_ms", median(&col(|x| x.finish)) * ms, "ms");
    report.put("serve.trace_events", mean(&n_events), "count");
    report.put("pareto.hv_us", 0.0, "us");
    report.put(
        "loadgen.late_p95_ms",
        tail_percentile(&late, 0.95).unwrap_or(f64::INFINITY) * ms,
        "ms",
    );
    report.put("residual_frac", median(&residual), "ratio");
    report.put(
        "trace.overhead_frac",
        median(&latencies(&p.jobs)) / median(&latencies(&plain.jobs)) - 1.0,
        "ratio",
    );

    let m = |f: fn(&Phases) -> f64| mean(&col(f)) * ms;
    let (queue, ckpt, finish) = (m(|x| x.queue_wait), m(|x| x.ckpt), m(|x| x.finish));
    let steps = m(|x| x.run) - ckpt;
    eprintln!(
        "mean phases per job (ms): queue {queue:.2}, steps {steps:.2}, periodic ckpt {ckpt:.2}, \
         finish {finish:.2}"
    );
    let largest = ckpt >= queue.max(steps).max(finish);
    eprintln!(
        "ckpt the largest serve-mix phase: {}",
        if largest { "confirmed" } else { "NOT confirmed" }
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_takes_the_speed_of_the_loops_nearest_its_due_time() {
        // Loops every 50 ms: a slow phase (20 ms loops) for the first
        // second, a fast one (5 ms loops) after it.
        let reference: Vec<(f64, f64)> =
            (0..40).map(|k| (k as f64 * 0.05, if k < 20 { 0.020 } else { 0.005 })).collect();
        assert_eq!(speed_near(&reference, 0.3), 0.020);
        assert_eq!(speed_near(&reference, 1.8), 0.005);
    }
}
