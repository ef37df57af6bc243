//! The job daemon: crash recovery, the bounded worker pool, and the
//! HTTP front end.
//!
//! # Thread layout
//!
//! One accept thread (`serve-accept`) hands accepted sockets over a
//! facade channel to `http_workers` HTTP threads (`serve-http-N`),
//! each of which parses/answers one connection at a time through the
//! shared `rlmul-obs` wire functions. `workers` job threads
//! (`serve-worker-N`) block on the [`JobQueue`] and run one
//! optimization each. All coordination state lives in `Inner`
//! behind `rlmul-check` facade primitives.
//!
//! # Lock ordering
//!
//! `serve.jobs` (the job table) may be held while acquiring
//! `serve.queue` (submission pushes, cancellation removes), never the
//! reverse — workers release the queue lock (inside `pop`) before
//! touching the table. `--lockdep on` verifies this invariant in
//! production.
//!
//! # Durability protocol
//!
//! All job state lives in one group-committed [`Log`], `<dir>/serve.log`:
//! job records (kind `"job"`), frozen traces (`"trace"`) and driver
//! snapshots (the method's kind), each frame keyed by job id. Frames
//! are appended *while the table lock is held*, so log order equals
//! transition order; the fsync that makes them durable runs after the
//! lock is released, and one fsync covers every frame appended before
//! it.
//!
//! * `POST /jobs` answers only once its `Queued` record is durable.
//! * A terminal transition appends the frozen trace and the terminal
//!   record (after the driver's final snapshot) and commits them as one
//!   batch; the new state is published to the table — and so becomes
//!   visible over HTTP — only after that commit.
//! * Claims and periodic snapshots are appended without waiting for a
//!   commit: replay keeps only a valid prefix of the log, so a durable
//!   snapshot implies a durable claim.
//!
//! After `kill -9`, the next start replays the log: terminal records
//! become history, `Queued` records re-enter the queue, and `Running`
//! records take the recovery edge back to `Queued` (bumping `resumes`)
//! so a worker re-adopts them from their last driver snapshot —
//! completed synthesis work is served from the snapshot's re-imported
//! cache entries instead of being repeated. Start-up then compacts the
//! log down to its live frames.

use crate::job::{JobRecord, JobResult, JobSpec, JobState, Method, JOB_RECORD_KIND};
use crate::queue::JobQueue;
use crate::trace::{TraceRecord, TRACE_RECORD_KIND};
use rlmul_baselines::SaConfig;
use rlmul_check::sync::{channel, spawn_named, JoinHandle, Mutex, Receiver, RwLock};
use rlmul_ckpt::{DirStorage, Log, Lsn, SnapshotStore};
use rlmul_core::{
    resume_dqn_cached, run_sa_with, train_a2c_with, train_dqn_with, A2cConfig, DqnConfig,
    EnvConfig, EvalCache, MulEnv, OptimizationOutcome, RlMulError, TrainHooks,
};
use rlmul_obs::{handle_connection, Counter, Gauge, Histo, Registry, TraceCtx};
use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The job log's file name inside the state directory.
const LOG_NAME: &str = "serve.log";

/// Why a submission is refused when its record cannot be made durable.
const LOG_UNAVAILABLE: &str = "job log unavailable";

/// Daemon configuration (`rlmul serve` flags map 1:1 onto this).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port, which
    /// is then discoverable via `<dir>/serve.addr`).
    pub addr: String,
    /// State directory: every job record, trace and driver snapshot in
    /// the log `serve.log`, the bound address in `serve.addr`.
    pub dir: PathBuf,
    /// Job worker threads (concurrent optimizations).
    pub workers: usize,
    /// HTTP worker threads.
    pub http_workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7171".into(),
            dir: PathBuf::from("serve-state"),
            workers: 2,
            http_workers: 2,
        }
    }
}

/// What a cancellation request found (drives the HTTP status).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CancelOutcome {
    /// Cancelled before any worker ran it; now terminal `Cancelled`.
    WhileQueued,
    /// The stop flag is raised; the run winds down cooperatively
    /// (terminal state follows asynchronously).
    WhileRunning,
    /// Already terminal; nothing to cancel.
    Terminal(JobState),
    /// No such job.
    Unknown,
}

/// The job-scoped trace ID: `tr-<id:08>.<epoch>`, where the epoch is
/// the job's resume count — a daemon restart that re-adopts a job
/// starts a fresh trace under the next epoch, so IDs stay unique
/// across recoveries while remaining deterministic.
pub(crate) fn trace_id_for(id: u64, epoch: u32) -> String {
    format!("tr-{id:08}.{epoch}")
}

/// Live bookkeeping for one job: the authoritative record plus the
/// flags shared with its (possible) worker thread.
#[derive(Debug)]
pub(crate) struct JobEntry {
    pub(crate) record: JobRecord,
    /// Cooperative stop: cancellation *or* daemon shutdown.
    stop: Arc<AtomicBool>,
    /// User intent: set only by an explicit cancel request. Separates
    /// "stop because cancelled" (→ `Cancelled`) from "stop because
    /// the daemon is draining" (→ stays `Running` on disk, resumed by
    /// the next start).
    cancelled: Arc<AtomicBool>,
    /// Live step counter published by the driver via `TrainHooks`.
    progress: Arc<AtomicUsize>,
    /// The job's live trace timeline; disabled for jobs recovered
    /// already-terminal (their timeline lives in `stored_trace`).
    trace: TraceCtx,
    /// The durable trace, frozen and persisted at the terminal
    /// transition (or loaded from disk by recovery).
    stored_trace: Option<TraceRecord>,
    /// The terminal state whose batch is appended but not yet
    /// committed; claims and cancels treat the job as over.
    sealed: Option<JobState>,
    /// The LSN of the submission's `Queued` record: a duplicate
    /// submission answers once it is durable.
    queued_lsn: Lsn,
    /// When the job (re-)entered the queue; start of the queue-wait
    /// interval observed at worker claim.
    enqueued_at: Instant,
}

impl JobEntry {
    fn new(record: JobRecord) -> Self {
        let trace = if record.state.is_terminal() {
            TraceCtx::disabled()
        } else {
            TraceCtx::new(&trace_id_for(record.id, record.resumes))
        };
        JobEntry {
            record,
            stop: Arc::new(AtomicBool::new(false)),
            cancelled: Arc::new(AtomicBool::new(false)),
            progress: Arc::new(AtomicUsize::new(0)),
            trace,
            stored_trace: None,
            sealed: None,
            queued_lsn: Lsn::default(),
            enqueued_at: Instant::now(),
        }
    }

    /// Best progress estimate: the live counter while running, the
    /// recorded steps once terminal.
    fn progress(&self) -> usize {
        match &self.record.result {
            Some(r) => r.steps_done,
            None => self.progress.load(Ordering::Relaxed),
        }
    }
}

struct Metrics {
    jobs_submitted: Counter,
    jobs_done: Counter,
    jobs_cancelled: Counter,
    jobs_failed: Counter,
    jobs_resumed: Counter,
    queue_depth: Gauge,
    http_requests: Counter,
    http_seconds: Histo,
}

impl Metrics {
    fn new(reg: &Registry) -> Self {
        Metrics {
            jobs_submitted: reg
                .counter("rlmul_serve_jobs_submitted_total", "Jobs accepted by POST /jobs."),
            jobs_done: reg.counter("rlmul_serve_jobs_done_total", "Jobs finished normally."),
            jobs_cancelled: reg
                .counter("rlmul_serve_jobs_cancelled_total", "Jobs reaching the Cancelled state."),
            jobs_failed: reg.counter("rlmul_serve_jobs_failed_total", "Jobs whose driver errored."),
            jobs_resumed: reg.counter(
                "rlmul_serve_jobs_resumed_total",
                "Running jobs re-adopted by a daemon restart.",
            ),
            queue_depth: reg.gauge("rlmul_serve_queue_depth", "Jobs currently queued."),
            http_requests: reg
                .counter("rlmul_serve_http_requests_total", "HTTP connections handled."),
            http_seconds: reg
                .histogram("rlmul_serve_http_seconds", "Wall time per handled connection."),
        }
    }
}

/// All shared daemon state; `Arc<Inner>` is held by every thread and
/// by the [`Server`] handle.
pub(crate) struct Inner {
    /// The job table — lock class `serve.jobs`; see the module docs
    /// for the ordering against `serve.queue`.
    table: RwLock<BTreeMap<u64, JobEntry>>,
    queue: JobQueue,
    /// The cross-tenant shared evaluation cache (clones share one
    /// store).
    cache: EvalCache,
    /// Every record, trace and driver snapshot (see the module docs).
    log: Arc<Log>,
    next_id: AtomicU64,
    registry: Registry,
    shutting_down: AtomicBool,
    metrics: Metrics,
}

impl Inner {
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// Appends `record` to the job log. Called with the table lock
    /// held, so log order equals transition order. A failed append is
    /// logged, never panicked, and yields `None`.
    fn persist(&self, record: &JobRecord) -> Option<Lsn> {
        match self.log.append(JOB_RECORD_KIND, record.id, record) {
            Ok(lsn) => Some(lsn),
            Err(e) => {
                eprintln!("rlmul-serve: persisting job {} failed: {e}", record.id);
                None
            }
        }
    }

    /// Waits until every frame up to `lsn` is durable. Called without
    /// the table lock, so status polls never wait behind an fsync. A
    /// failure is logged and yields `false`.
    fn commit(&self, lsn: Lsn) -> bool {
        match self.log.commit(lsn) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("rlmul-serve: committing {} failed: {e}", self.log.path().display());
                false
            }
        }
    }

    /// Seals a job at its terminal transition to `record`'s state:
    /// records the final lifecycle event, closes the timeline (waking
    /// every live subscriber), freezes it and appends the trace, then
    /// the record — so a durable terminal record implies a durable
    /// trace. Called with the table lock held; the entry keeps its old
    /// state until [`Inner::publish`].
    fn seal(&self, entry: &mut JobEntry, record: JobRecord, kind: &str, detail: &str) -> Sealed {
        entry.trace.emit_forced(kind, detail);
        entry.trace.close();
        let trace = TraceRecord::from_ctx(record.id, &entry.trace);
        if let Err(e) = self.log.append(TRACE_RECORD_KIND, record.id, &trace) {
            eprintln!("rlmul-serve: persisting trace for job {} failed: {e}", record.id);
        }
        let lsn = self.persist(&record);
        entry.sealed = Some(record.state);
        Sealed { record, trace, lsn }
    }

    /// Commits a sealed batch, then makes it visible: the terminal
    /// record and trace replace the live ones, the job and per-tenant
    /// metrics settle, and the job's driver snapshot leaves the log's
    /// live set. A failed commit is logged and the state published
    /// anyway: the job is over either way.
    fn publish(&self, sealed: Sealed) {
        if let Some(lsn) = sealed.lsn {
            self.commit(lsn);
        }
        let mut table = self.table.write();
        let Some(entry) = table.get_mut(&sealed.record.id) else { return };
        let state = sealed.record.state;
        self.log.forget(sealed.record.spec.method.as_str(), sealed.record.id);
        entry.record = sealed.record;
        entry.stored_trace = Some(sealed.trace);
        entry.sealed = None;
        match state {
            JobState::Done => self.metrics.jobs_done.inc(),
            JobState::Cancelled => self.metrics.jobs_cancelled.inc(),
            JobState::Failed => self.metrics.jobs_failed.inc(),
            _ => {}
        }
        let tenant = entry.record.spec.tenant.as_str();
        self.tenant_active(tenant).add(-1.0);
        self.tenant_terminal(tenant, state.as_str()).inc();
    }

    /// Per-tenant gauge of jobs currently queued or running.
    fn tenant_active(&self, tenant: &str) -> Gauge {
        self.registry.labeled_gauge(
            "rlmul_serve_tenant_active_jobs",
            "Jobs currently queued or running, by tenant.",
            &[("tenant", tenant)],
        )
    }

    /// Per-tenant, per-terminal-state counter of transitions observed
    /// by this daemon process (recovery replays of already-terminal
    /// records do not count).
    fn tenant_terminal(&self, tenant: &str, state: &str) -> Counter {
        self.registry.labeled_counter(
            "rlmul_serve_tenant_jobs_terminal_total",
            "Terminal job transitions observed, by tenant and state.",
            &[("tenant", tenant), ("state", state)],
        )
    }

    /// Per-priority-class queue-wait histogram, observed at worker
    /// claim (submission or recovery requeue → claim).
    fn observe_queue_wait(&self, priority: u8, secs: f64) {
        self.registry
            .labeled_histogram(
                "rlmul_serve_queue_wait_seconds",
                "Queue wait from enqueue to worker claim, by priority class.",
                &[("priority", &priority.to_string())],
            )
            .observe(secs);
    }

    /// Accepts a job: assigns an id, appends the `Queued` record and
    /// enqueues it, then returns once the record is durable. Returns
    /// `(id, created)`; `created` is `false` when `(tenant,
    /// idempotency_key)` matched an existing job, which is returned
    /// instead of duplicated.
    ///
    /// # Errors
    ///
    /// Refused while the daemon is shutting down, and when the record
    /// cannot be made durable.
    pub(crate) fn submit(&self, spec: JobSpec) -> Result<(u64, bool), &'static str> {
        if self.is_shutting_down() {
            return Err("shutting down");
        }
        let mut table = self.table.write();
        if !spec.idempotency_key.is_empty() {
            if let Some(existing) = table.values().find(|e| {
                e.record.spec.tenant == spec.tenant
                    && e.record.spec.idempotency_key == spec.idempotency_key
            }) {
                // The first submission may still be awaiting its commit.
                let (id, lsn) = (existing.record.id, existing.queued_lsn);
                drop(table);
                return if self.commit(lsn) { Ok((id, false)) } else { Err(LOG_UNAVAILABLE) };
            }
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let record = JobRecord::new(id, spec);
        let Some(lsn) = self.persist(&record) else { return Err(LOG_UNAVAILABLE) };
        let priority = record.spec.priority;
        let mut entry = JobEntry::new(record);
        entry.queued_lsn = lsn;
        entry.trace.emit_forced(
            "submitted",
            &format!("tenant={} priority={priority}", entry.record.spec.tenant),
        );
        entry.trace.emit_forced("queued", &format!("depth={}", self.queue.len() + 1));
        self.tenant_active(&entry.record.spec.tenant).add(1.0);
        table.insert(id, entry);
        self.queue.push(priority, id, id);
        self.metrics.jobs_submitted.inc();
        self.metrics.queue_depth.set(self.queue.len() as f64);
        drop(table);
        // A worker may start the job while the fsync is in flight; its
        // later frames are only ever committed after this one.
        if self.commit(lsn) {
            Ok((id, true))
        } else {
            // Never acknowledged: stop the job again.
            let _ = self.cancel(id);
            Err(LOG_UNAVAILABLE)
        }
    }

    /// One job's record plus its live progress.
    pub(crate) fn snapshot_job(&self, id: u64) -> Option<(JobRecord, usize)> {
        let table = self.table.read();
        table.get(&id).map(|e| (e.record.clone(), e.progress()))
    }

    /// Every job's record plus live progress, in id order.
    pub(crate) fn list_jobs(&self) -> Vec<(JobRecord, usize)> {
        self.table.read().values().map(|e| (e.record.clone(), e.progress())).collect()
    }

    /// One job's trace as a frozen record: the durable store for
    /// terminal jobs, a live snapshot otherwise. `None` for unknown
    /// ids.
    pub(crate) fn trace_snapshot(&self, id: u64) -> Option<TraceRecord> {
        let table = self.table.read();
        let e = table.get(&id)?;
        Some(match &e.stored_trace {
            Some(stored) => stored.clone(),
            None => TraceRecord::from_ctx(id, &e.trace),
        })
    }

    /// Stream source for `GET /jobs/:id/events`: the live context
    /// (subscribable; closed-but-complete for jobs that finished in
    /// this process) plus the durable record for jobs recovered
    /// already-terminal, whose context is disabled. `None` for
    /// unknown ids.
    pub(crate) fn trace_stream(&self, id: u64) -> Option<(TraceCtx, Option<TraceRecord>)> {
        let table = self.table.read();
        let e = table.get(&id)?;
        Some((e.trace.clone(), e.stored_trace.clone()))
    }

    /// Cancels a job (see [`CancelOutcome`]). Queued jobs become
    /// terminal immediately; running jobs get their cooperative stop
    /// flag raised and wind down after the in-flight step.
    pub(crate) fn cancel(&self, id: u64) -> CancelOutcome {
        let mut table = self.table.write();
        let Some(entry) = table.get_mut(&id) else {
            return CancelOutcome::Unknown;
        };
        if let Some(state) = entry.sealed {
            // The terminal batch is on its way to disk; answer once it
            // is durable.
            drop(table);
            self.commit(self.log.tail());
            return CancelOutcome::Terminal(state);
        }
        match entry.record.state {
            JobState::Queued => {
                // Either the queue still holds the id (plain case) or
                // a worker popped it and is blocked on the table lock
                // we hold — the seal makes its claim step a no-op, so
                // both races resolve to one winner.
                let _ = self.queue.remove(id);
                entry.cancelled.store(true, Ordering::Relaxed);
                entry.stop.store(true, Ordering::Relaxed);
                let mut record = entry.record.clone();
                if record.transition(JobState::Cancelled, false).is_err() {
                    return CancelOutcome::Terminal(entry.record.state);
                }
                let sealed = self.seal(entry, record, "cancelled", "while queued");
                self.metrics.queue_depth.set(self.queue.len() as f64);
                drop(table);
                self.publish(sealed);
                CancelOutcome::WhileQueued
            }
            JobState::Running => {
                entry.cancelled.store(true, Ordering::Relaxed);
                entry.stop.store(true, Ordering::Relaxed);
                entry.trace.emit_forced("cancel_requested", "cooperative stop raised");
                CancelOutcome::WhileRunning
            }
            terminal => CancelOutcome::Terminal(terminal),
        }
    }

    /// The worker loop body: claim, execute, finish.
    fn run_job(self: &Arc<Self>, id: u64) {
        // Claim: Queued → Running. A cancel that won the race leaves
        // the record terminal and the claim refuses.
        let (spec, stop, cancelled, progress, trace, waited) = {
            let mut table = self.table.write();
            let Some(entry) = table.get_mut(&id) else { return };
            if entry.sealed.is_some() || entry.record.transition(JobState::Running, false).is_err()
            {
                return;
            }
            // Not committed: the next commit of any job covers it.
            self.persist(&entry.record);
            self.metrics.queue_depth.set(self.queue.len() as f64);
            let waited = entry.enqueued_at.elapsed().as_secs_f64();
            entry
                .trace
                .emit_forced("claimed", &format!("wait_ms={}", (waited * 1e3).round() as u64));
            (
                entry.record.spec.clone(),
                Arc::clone(&entry.stop),
                Arc::clone(&entry.cancelled),
                Arc::clone(&entry.progress),
                entry.trace.clone(),
                waited,
            )
        };
        self.observe_queue_wait(spec.priority, waited);

        let outcome = self.execute(id, &spec, &stop, &progress, &trace);

        let sealed = {
            let mut table = self.table.write();
            let Some(entry) = table.get_mut(&id) else { return };
            let mut record = entry.record.clone();
            match outcome {
                Ok(out) => {
                    let result = summarize(&out);
                    if cancelled.load(Ordering::Relaxed) {
                        let detail = format!("steps_done={}", result.steps_done);
                        record.result = Some(result);
                        record
                            .transition(JobState::Cancelled, false)
                            .ok()
                            .map(|()| self.seal(entry, record, "cancelled", &detail))
                    } else if self.is_shutting_down() {
                        // Drain stop, not user intent: leave the record
                        // `Running` on disk. The driver appended its
                        // final snapshot on the stop flag (the drain
                        // commits it); the next start takes the
                        // recovery edge and resumes. The open trace is
                        // in-memory only — the resumed run starts a
                        // fresh epoch.
                        entry.progress.store(result.steps_done, Ordering::Relaxed);
                        None
                    } else {
                        let detail = format!(
                            "best_cost={} steps_done={}",
                            result.best_cost, result.steps_done
                        );
                        record.result = Some(result);
                        record
                            .transition(JobState::Done, false)
                            .ok()
                            .map(|()| self.seal(entry, record, "done", &detail))
                    }
                }
                Err(err) => {
                    let detail = err.to_string();
                    record.error = Some(detail.clone());
                    record
                        .transition(JobState::Failed, false)
                        .ok()
                        .map(|()| self.seal(entry, record, "failed", &detail))
                }
            }
        };
        if let Some(sealed) = sealed {
            self.publish(sealed);
        }
    }

    /// Runs the optimization for one claimed job, resuming from its
    /// last driver snapshot when one exists. Config mapping mirrors
    /// `rlmul train` so server runs reproduce CLI runs bit-for-bit.
    fn execute(
        &self,
        id: u64,
        spec: &JobSpec,
        stop: &Arc<AtomicBool>,
        progress: &Arc<AtomicUsize>,
        trace: &TraceCtx,
    ) -> Result<OptimizationOutcome, RlMulError> {
        let mut env_cfg = EnvConfig::new(spec.bits, spec.kind);
        env_cfg.weights = spec.pref.weights();
        let store = SnapshotStore::in_log(Arc::clone(&self.log), id, spec.method.as_str());
        let hooks = TrainHooks {
            store: Some(store.clone()),
            checkpoint_every: spec.ckpt_every,
            stop: Some(Arc::clone(stop)),
            progress: Some(Arc::clone(progress)),
            trace: trace.clone(),
            ..Default::default()
        };
        let cache = self.cache.clone();
        match spec.method {
            Method::Sa => {
                let cfg = SaConfig { steps: spec.steps, ..Default::default() };
                let resume = store.load_latest().ok();
                run_sa_with(&env_cfg, &cfg, spec.seed, cache, &hooks, resume)
            }
            Method::Dqn => {
                let cfg = DqnConfig {
                    steps: spec.steps,
                    warmup: (spec.steps / 5).max(4),
                    seed: spec.seed,
                    ..Default::default()
                };
                match store.load_latest().ok() {
                    Some(snap) => resume_dqn_cached(&env_cfg, &cfg, snap, cache, &hooks),
                    None => {
                        let mut env = MulEnv::with_cache(env_cfg.clone(), cache)?;
                        train_dqn_with(&mut env, &cfg, &hooks, None)
                    }
                }
            }
            Method::A2c => {
                let cfg = A2cConfig {
                    steps: (spec.steps / 4).max(2),
                    n_envs: 4,
                    seed: spec.seed,
                    ..Default::default()
                };
                let resume = store.load_latest().ok();
                train_a2c_with(&env_cfg, &cfg, cache, &hooks, resume)
            }
        }
    }
}

/// A terminal transition whose frames are appended but not yet
/// committed; [`Inner::publish`] commits and then shows it.
struct Sealed {
    record: JobRecord,
    trace: TraceRecord,
    lsn: Option<Lsn>,
}

/// Refuses a state directory in the per-file layout of earlier
/// versions (`jobs/job-<id>.ckpt`, `ckpt-<id>/`): this version reads
/// only the job log, and starting empty beside those files would
/// silently orphan their jobs.
fn refuse_per_file_layout(dir: &Path) -> io::Result<()> {
    let per_job_dirs = std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.flatten().any(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
    });
    if dir.join("jobs").is_dir() || per_job_dirs {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{} holds job state in the per-file layout of an earlier `rlmul serve` \
                 (`jobs/`, `ckpt-<id>/`); this version keeps all job state in `{LOG_NAME}` \
                 and cannot read it: finish those jobs with the earlier version, or start \
                 with a fresh --dir",
                dir.display()
            ),
        ));
    }
    Ok(())
}

/// Collapses a driver outcome into the persisted result summary.
fn summarize(out: &OptimizationOutcome) -> JobResult {
    JobResult {
        best_cost: out.best_cost,
        steps_done: out.trajectory.len(),
        states_visited: out.states_visited,
        synth_runs: out.synth_runs,
        synthesis_calls: out.pipeline.synthesis_calls,
        cache_hits: out.pipeline.cache_hits,
        cache_misses: out.pipeline.cache_misses,
    }
}

/// Handle to a running daemon. [`Server::shutdown`] (or drop) drains
/// it gracefully: no new jobs, queued jobs stay persisted for the
/// next start, running jobs checkpoint and stay `Running` on disk.
pub struct Server {
    inner: Arc<Inner>,
    local: SocketAddr,
    accept_stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("local", &self.local).finish_non_exhaustive()
    }
}

impl Server {
    /// Starts the daemon: opens the job log in `cfg.dir`, binds
    /// `cfg.addr`, writes the bound address to `<dir>/serve.addr`,
    /// recovers the persisted jobs, and spawns the accept, HTTP and
    /// job worker threads.
    ///
    /// # Errors
    ///
    /// Bind and state-directory I/O failures, a job log damaged
    /// mid-file, and a state directory in the per-file layout of
    /// earlier versions.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let workers = cfg.workers.max(1);
        let http_workers = cfg.http_workers.max(1);
        refuse_per_file_layout(&cfg.dir)?;
        std::fs::create_dir_all(&cfg.dir)?;
        let log = Log::open(DirStorage::new(&cfg.dir), LOG_NAME).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", cfg.dir.join(LOG_NAME).display()),
            )
        })?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let local = listener.local_addr()?;
        std::fs::write(cfg.dir.join("serve.addr"), local.to_string())?;

        let registry = Registry::new();
        let metrics = Metrics::new(&registry);
        let inner = Arc::new(Inner {
            table: RwLock::new("serve.jobs", BTreeMap::new()),
            queue: JobQueue::new(),
            cache: EvalCache::new(),
            log: Arc::new(log),
            next_id: AtomicU64::new(1),
            registry,
            shutting_down: AtomicBool::new(false),
            metrics,
        });
        inner.recover()?;

        let mut threads = Vec::new();

        // HTTP: accept thread feeding a facade channel drained by the
        // HTTP worker pool. Dropping the sender (accept thread exit)
        // ends the workers via RecvError.
        let (conn_tx, conn_rx) = channel::<TcpStream>("serve.http");
        let conn_rx = Arc::new(Mutex::new("serve.http-recv", conn_rx));
        let handler = crate::api::router(Arc::clone(&inner));
        for n in 0..http_workers {
            let rx = Arc::clone(&conn_rx);
            let registry = inner.registry.clone();
            let handler = handler.clone();
            let http_inner = Arc::clone(&inner);
            threads.push(spawn_named(&format!("serve-http-{n}"), move || {
                http_worker(&rx, &registry, &handler, &http_inner)
            }));
        }
        let accept_stop = Arc::new(AtomicBool::new(false));
        {
            let stop = Arc::clone(&accept_stop);
            threads.push(spawn_named("serve-accept", move || {
                for conn in listener.incoming() {
                    if stop.load(Ordering::Relaxed) {
                        return; // conn_tx drops; HTTP workers drain out
                    }
                    let Ok(stream) = conn else { continue };
                    if conn_tx.send(stream).is_err() {
                        return;
                    }
                }
            }));
        }

        for n in 0..workers {
            let worker_inner = Arc::clone(&inner);
            threads.push(spawn_named(&format!("serve-worker-{n}"), move || {
                while let Some(id) = worker_inner.queue.pop() {
                    worker_inner.run_job(id);
                }
            }));
        }

        Ok(Server { inner, local, accept_stop, threads })
    }

    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// The daemon's metrics registry (exposed at `GET /metrics`).
    pub fn registry(&self) -> Registry {
        self.inner.registry.clone()
    }

    /// Drains the daemon: refuses new submissions, closes the queue
    /// (queued jobs stay persisted as `Queued`), raises the stop flag
    /// of every running job (they checkpoint and stay `Running` on
    /// disk for the next start), then joins every thread.
    pub fn shutdown(mut self) {
        self.drain();
    }

    fn drain(&mut self) {
        if self.threads.is_empty() {
            return;
        }
        self.inner.shutting_down.store(true, Ordering::Relaxed);
        self.inner.queue.close();
        {
            let table = self.inner.table.read();
            for entry in table.values() {
                if entry.record.state == JobState::Running {
                    entry.stop.store(true, Ordering::Relaxed);
                }
            }
        }
        self.accept_stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Make the drained jobs' final snapshots durable.
        self.inner.commit(self.inner.log.tail());
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

impl Inner {
    /// Replays the job log into the table: terminal records become
    /// history, `Queued` records re-enter the queue, `Running` records
    /// take the recovery edge (`Running → Queued`, bumping `resumes`)
    /// and re-enter the queue to be resumed from their last driver
    /// snapshot. Then commits the recovery edges and compacts the log.
    fn recover(self: &Arc<Self>) -> io::Result<()> {
        let path = self.log.path();
        if self.log.torn_bytes() > 0 {
            eprintln!(
                "rlmul-serve: cut a torn tail of {} bytes off {}",
                self.log.torn_bytes(),
                path.display()
            );
        }
        let mut records: Vec<JobRecord> = Vec::new();
        for id in self.log.keys(JOB_RECORD_KIND) {
            match self.log.read::<JobRecord>(JOB_RECORD_KIND, id) {
                Ok(Some(record)) => records.push(record),
                Ok(None) => {}
                // The log verified every frame when it opened; a frame
                // that rotted since is skipped loudly.
                Err(e) => eprintln!(
                    "rlmul-serve: skipping unreadable job {id} in {}: {e}",
                    path.display()
                ),
            }
        }
        let mut table = self.table.write();
        let mut max_id = 0;
        let mut requeued = Lsn::default();
        for mut record in records {
            max_id = max_id.max(record.id);
            let id = record.id;
            let requeue = match record.state {
                JobState::Queued => true,
                JobState::Running => {
                    // The previous daemon died (or drained) with this
                    // job in flight: re-adopt it via the recovery
                    // edge. `Running → Queued` with the recovery flag
                    // is always legal, so the error arm is dead; it
                    // is kept error-shaped to hold the no-panic
                    // contract of this file.
                    match record.transition(JobState::Queued, true) {
                        Ok(()) => {
                            record.resumes += 1;
                            self.metrics.jobs_resumed.inc();
                            requeued = self.persist(&record).unwrap_or(requeued);
                            true
                        }
                        Err(e) => {
                            eprintln!("rlmul-serve: cannot re-adopt job {}: {e}", record.id);
                            false
                        }
                    }
                }
                _ => false,
            };
            let priority = record.spec.priority;
            let mut entry = JobEntry::new(record);
            if entry.record.state.is_terminal() {
                // Re-attach the durable trace; a missing or unreadable
                // one leaves the timeline empty rather than failing
                // recovery. A finished job never resumes, so its
                // snapshot is dead.
                entry.stored_trace = self.log.read(TRACE_RECORD_KIND, id).ok().flatten();
                self.log.forget(entry.record.spec.method.as_str(), id);
            } else {
                // A trace of an unfinished job was sealed but never
                // published; the job runs again and seals a new one.
                self.log.forget(TRACE_RECORD_KIND, id);
                self.tenant_active(&entry.record.spec.tenant).add(1.0);
                entry.trace.emit_forced(
                    "recovered",
                    &format!("epoch={} state=queued", entry.record.resumes),
                );
            }
            table.insert(id, entry);
            if requeue {
                self.queue.push(priority, id, id);
            }
        }
        self.metrics.queue_depth.set(self.queue.len() as f64);
        self.next_id.store(max_id + 1, Ordering::Relaxed);
        drop(table);
        self.log.commit(requeued).map_err(io::Error::other)?;
        // A failed compaction leaves the old, complete log in place.
        if let Err(e) = self.log.compact() {
            eprintln!("rlmul-serve: compacting {} failed: {e}", path.display());
        }
        Ok(())
    }
}

/// One HTTP worker: drains the connection channel until the accept
/// thread drops the sender.
fn http_worker(
    rx: &Mutex<Receiver<TcpStream>>,
    registry: &Registry,
    handler: &rlmul_obs::Handler,
    inner: &Inner,
) {
    loop {
        // Holding the receiver lock while blocked in recv serializes
        // the *waiting*, not the handling: the lock drops before the
        // connection is served, so another worker picks up the next
        // socket immediately.
        let stream = match rx.lock().recv() {
            Ok(s) => s,
            Err(_) => return,
        };
        let started = Instant::now();
        // I/O errors mean the client went away; keep serving.
        let _ = handle_connection(stream, registry, handler);
        inner.metrics.http_requests.inc();
        inner.metrics.http_seconds.observe(started.elapsed().as_secs_f64());
    }
}
