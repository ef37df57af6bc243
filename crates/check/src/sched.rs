//! Loom-lite deterministic scheduler: model-checked interleavings.
//!
//! [`Model::check`] runs a closure many times, each time forcing a
//! different thread interleaving, until every schedule reachable
//! under the configured preemption bound has been explored (or one
//! fails). Concurrency primitives from [`crate::sync`] become
//! *switch points*: before a lock acquire, after a release, at
//! condvar waits/notifies, at spawn/join and at explicit
//! [`yield_now`] calls, the scheduler picks which virtual thread runs
//! next. Only one virtual thread executes at a time — the OS threads
//! backing them hand a scheduler token around — so every execution is
//! fully serialized and every scheduling decision is recorded.
//!
//! Exploration is depth-first over decision prefixes: an execution
//! records, at each switch point, which runnable threads were
//! available and which was chosen; the next execution replays the
//! longest prefix with an unexplored alternative and diverges there.
//! A preemption bound (default 2) keeps the space tractable: context
//! switches away from a still-runnable thread are limited per
//! execution, which is known to catch the vast majority of real
//! concurrency bugs at tiny bounds.
//!
//! Failures — assertion panics inside the closure, deadlocks, lost
//! wakeups (every thread blocked with no one left to notify) — are
//! reported with the exact schedule that produced them. Feed that
//! schedule to [`Model::replay`] to re-run the single failing
//! interleaving under a debugger, or reuse the printed seed with
//! [`Model::check_random`]. Random mode samples schedules instead of
//! enumerating them, for protocols too large to exhaust.
//!
//! Semantics modelled: mutexes and rwlocks are exclusive (readers are
//! conservatively serialized), condvars have no spurious wakeups and
//! `notify_one` wakes the longest-waiting thread. Code must therefore
//! still loop on its predicate — the model will not excuse a missing
//! loop, because an intervening thread can steal the state between
//! wakeup and reacquisition.

use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, MutexGuard, Once};

use crate::gate;

/// Panic payload used to unwind virtual threads when an execution
/// aborts (failure found elsewhere). Never escapes the harness.
pub(crate) struct SchedAbort;

/// One scheduling decision: which thread was chosen among the
/// runnable options at a switch point.
#[derive(Debug, Clone)]
struct Choice {
    chosen: usize,
    options: Vec<usize>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Blocked acquiring lock object `.0`.
    Lock(usize),
    /// Blocked in a condvar wait on cv object `.0`.
    Wait(usize),
    /// Blocked joining vthread `.0`.
    Join(usize),
    Finished,
}

#[derive(Debug)]
enum VObj {
    /// Mutexes and (conservatively exclusive) rwlocks.
    Lock { locked: bool },
    /// Condvar: waiting vthreads in FIFO order.
    Cv { waiters: Vec<usize> },
}

struct VThread {
    name: String,
    status: Status,
}

enum Mode {
    Dfs,
    Random(Rng),
}

struct ExecState {
    threads: Vec<VThread>,
    /// Vthread holding the token (`usize::MAX` once all finished).
    current: usize,
    objects: Vec<VObj>,
    by_addr: HashMap<usize, usize>,
    schedule: Vec<Choice>,
    prefix: Vec<usize>,
    cursor: usize,
    preemptions: usize,
    bound: usize,
    max_threads: usize,
    mode: Mode,
    failure: Option<String>,
    abort: bool,
    /// Replay prefix disagreed with the recorded options (the closure
    /// is itself nondeterministic — a modelling error worth flagging).
    divergent: bool,
    os_handles: Vec<std::thread::JoinHandle<()>>,
}

struct Exec {
    state: StdMutex<ExecState>,
    cv: StdCondvar,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Per-OS-thread handle into the active model execution.
#[derive(Clone)]
pub(crate) struct Ctx {
    exec: Arc<Exec>,
    tid: usize,
}

/// The model execution this OS thread belongs to, if any.
pub(crate) fn current() -> Option<Ctx> {
    if !gate::model_active() {
        return None;
    }
    CTX.with(|c| c.borrow().clone())
}

/// Silences panic output from inside model executions: expected
/// failing interleavings and `SchedAbort` unwinds would otherwise
/// spam stderr once per aborted thread. Failures are re-surfaced
/// through [`FailureReport`].
fn install_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<SchedAbort>().is_some() {
                return;
            }
            if CTX.with(|c| c.borrow().is_some()) {
                return;
            }
            prev(info);
        }));
    });
}

impl Exec {
    fn lock_state(&self) -> MutexGuard<'_, ExecState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Parks the calling OS thread until its vthread holds the token.
    /// Panics with [`SchedAbort`] if the execution aborts meanwhile.
    fn block_until(&self, mut st: MutexGuard<'_, ExecState>, tid: usize) {
        loop {
            if st.abort {
                drop(st);
                std::panic::panic_any(SchedAbort);
            }
            if st.current == tid {
                return;
            }
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// The scheduling decision: picks the next vthread to run.
    /// `from` is the deciding thread; if it is still runnable and the
    /// preemption budget is spent, it must keep running.
    fn pick_next(&self, st: &mut ExecState, from: usize) {
        let mut options: Vec<usize> = Vec::new();
        let from_runnable = st.threads[from].status == Status::Runnable;
        if from_runnable {
            options.push(from); // explore the preemption-free path first
        }
        for (tid, t) in st.threads.iter().enumerate() {
            if tid != from && t.status == Status::Runnable {
                options.push(tid);
            }
        }
        if options.is_empty() {
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                st.current = usize::MAX;
                self.cv.notify_all();
                return;
            }
            let states: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .map(|(tid, t)| format!("  thread {tid} `{}`: {:?}", t.name, t.status))
                .collect();
            self.fail(
                st,
                format!(
                    "deadlock: no runnable thread (lost wakeup or lock cycle)\n{}",
                    states.join("\n")
                ),
            );
            return;
        }
        let constrained =
            if from_runnable && st.preemptions >= st.bound { vec![from] } else { options };
        let pos = if st.cursor < st.prefix.len() {
            let forced = st.prefix[st.cursor];
            match constrained.iter().position(|&t| t == forced) {
                Some(p) => p,
                None => {
                    st.divergent = true;
                    0
                }
            }
        } else {
            match &mut st.mode {
                Mode::Dfs => 0,
                Mode::Random(rng) => (rng.next() as usize) % constrained.len(),
            }
        };
        let chosen = constrained[pos];
        st.schedule.push(Choice { chosen, options: constrained });
        st.cursor += 1;
        if from_runnable && chosen != from {
            st.preemptions += 1;
        }
        st.current = chosen;
        self.cv.notify_all();
    }

    /// A plain switch point: offer the scheduler a chance to run
    /// someone else, then wait for our turn again.
    fn switch(&self, tid: usize) {
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            std::panic::panic_any(SchedAbort);
        }
        self.pick_next(&mut st, tid);
        self.block_until(st, tid);
    }

    /// Records a failure (first one wins) and aborts the execution.
    fn fail(&self, st: &mut ExecState, message: String) {
        if st.failure.is_none() {
            st.failure = Some(message);
        }
        st.abort = true;
        self.cv.notify_all();
    }

    /// Vthread function returned normally.
    fn finish(&self, tid: usize) {
        let mut st = self.lock_state();
        st.threads[tid].status = Status::Finished;
        for t in st.threads.iter_mut() {
            if t.status == Status::Join(tid) {
                t.status = Status::Runnable;
            }
        }
        self.pick_next(&mut st, tid);
    }

    /// Vthread unwound via [`SchedAbort`]: account it as gone so the
    /// harness's bookkeeping stays consistent.
    fn thread_exited(&self, tid: usize) {
        let mut st = self.lock_state();
        st.threads[tid].status = Status::Finished;
        self.cv.notify_all();
    }

    fn fail_from_panic(&self, tid: usize, payload: Box<dyn std::any::Any + Send>) {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        };
        let mut st = self.lock_state();
        let name = st.threads[tid].name.clone();
        st.threads[tid].status = Status::Finished;
        self.fail(&mut st, format!("thread `{name}` panicked: {message}"));
    }
}

impl Ctx {
    /// Interns the lock object behind `addr` (stable per execution:
    /// objects live for the whole closure run).
    pub(crate) fn lock_object(&self, addr: usize) -> usize {
        self.object(addr, || VObj::Lock { locked: false })
    }

    /// Interns the condvar object behind `addr`.
    pub(crate) fn cv_object(&self, addr: usize) -> usize {
        self.object(addr, || VObj::Cv { waiters: Vec::new() })
    }

    fn object(&self, addr: usize, make: impl FnOnce() -> VObj) -> usize {
        let mut st = self.exec.lock_state();
        if let Some(&id) = st.by_addr.get(&addr) {
            return id;
        }
        let id = st.objects.len();
        st.objects.push(make());
        st.by_addr.insert(addr, id);
        id
    }

    /// Model-acquires lock `obj` (switch point before the acquire).
    pub(crate) fn lock(&self, obj: usize) {
        self.exec.switch(self.tid);
        self.acquire(obj);
    }

    /// The acquire loop without a leading switch point (used after a
    /// condvar wait, where being scheduled *was* the decision).
    fn acquire(&self, obj: usize) {
        loop {
            let mut st = self.exec.lock_state();
            if st.abort {
                drop(st);
                std::panic::panic_any(SchedAbort);
            }
            match &mut st.objects[obj] {
                VObj::Lock { locked } if !*locked => {
                    *locked = true;
                    return;
                }
                VObj::Lock { .. } => {}
                VObj::Cv { .. } => unreachable!("lock op on condvar object"),
            }
            st.threads[self.tid].status = Status::Lock(obj);
            self.exec.pick_next(&mut st, self.tid);
            self.exec.block_until(st, self.tid);
        }
    }

    /// Model-releases lock `obj` and offers a switch point. Callable
    /// from guard drops during a panic unwind: the state mutation
    /// still happens (other vthreads may outlive the unwind), but the
    /// switch point is skipped — a second panic there would abort the
    /// process.
    pub(crate) fn unlock(&self, obj: usize) {
        {
            let mut st = self.exec.lock_state();
            match &mut st.objects[obj] {
                VObj::Lock { locked } => *locked = false,
                VObj::Cv { .. } => unreachable!("unlock op on condvar object"),
            }
            for t in st.threads.iter_mut() {
                if t.status == Status::Lock(obj) {
                    t.status = Status::Runnable;
                }
            }
        }
        if !std::thread::panicking() {
            self.exec.switch(self.tid);
        }
    }

    /// Atomically releases `mutex`, waits on `cv`, and reacquires
    /// `mutex` once notified. No spurious wakeups.
    pub(crate) fn cv_wait(&self, cv: usize, mutex: usize) {
        {
            let mut st = self.exec.lock_state();
            match &mut st.objects[cv] {
                VObj::Cv { waiters } => waiters.push(self.tid),
                VObj::Lock { .. } => unreachable!("wait op on lock object"),
            }
            match &mut st.objects[mutex] {
                VObj::Lock { locked } => *locked = false,
                VObj::Cv { .. } => unreachable!("wait op released a condvar object"),
            }
            for t in st.threads.iter_mut() {
                if t.status == Status::Lock(mutex) {
                    t.status = Status::Runnable;
                }
            }
            st.threads[self.tid].status = Status::Wait(cv);
            self.exec.pick_next(&mut st, self.tid);
            self.exec.block_until(st, self.tid);
        }
        self.acquire(mutex);
    }

    /// Wakes the longest-waiting thread on `cv`, if any.
    pub(crate) fn notify_one(&self, cv: usize) {
        {
            let mut st = self.exec.lock_state();
            let woken = match &mut st.objects[cv] {
                VObj::Cv { waiters } if !waiters.is_empty() => Some(waiters.remove(0)),
                _ => None,
            };
            if let Some(tid) = woken {
                st.threads[tid].status = Status::Runnable;
            }
        }
        self.exec.switch(self.tid);
    }

    /// Wakes every thread waiting on `cv`.
    pub(crate) fn notify_all(&self, cv: usize) {
        {
            let mut st = self.exec.lock_state();
            let woken = match &mut st.objects[cv] {
                VObj::Cv { waiters } => std::mem::take(waiters),
                VObj::Lock { .. } => unreachable!("notify op on lock object"),
            };
            for tid in woken {
                st.threads[tid].status = Status::Runnable;
            }
        }
        self.exec.switch(self.tid);
    }

    /// Spawns a virtual thread; returns its vthread id for joining.
    pub(crate) fn spawn(&self, name: &str, f: Box<dyn FnOnce() + Send>) -> usize {
        let tid = {
            let mut st = self.exec.lock_state();
            if st.threads.len() >= st.max_threads {
                let max = st.max_threads;
                self.exec.fail(&mut st, format!("model: more than {max} vthreads"));
                drop(st);
                std::panic::panic_any(SchedAbort);
            }
            st.threads.push(VThread { name: name.to_string(), status: Status::Runnable });
            st.threads.len() - 1
        };
        let exec = Arc::clone(&self.exec);
        let handle = std::thread::Builder::new()
            .name(format!("model:{name}"))
            .spawn(move || {
                CTX.with(|c| *c.borrow_mut() = Some(Ctx { exec: Arc::clone(&exec), tid }));
                let r = catch_unwind(AssertUnwindSafe(|| {
                    let st = exec.lock_state();
                    exec.block_until(st, tid);
                    f();
                }));
                match r {
                    Ok(()) => exec.finish(tid),
                    Err(p) if p.downcast_ref::<SchedAbort>().is_some() => exec.thread_exited(tid),
                    Err(p) => exec.fail_from_panic(tid, p),
                }
                CTX.with(|c| *c.borrow_mut() = None);
            })
            .expect("spawn model vthread");
        self.exec.lock_state().os_handles.push(handle);
        // Offer the scheduler the chance to run the child first.
        self.exec.switch(self.tid);
        tid
    }

    /// Blocks until vthread `target` finishes.
    pub(crate) fn join(&self, target: usize) {
        loop {
            let mut st = self.exec.lock_state();
            if st.abort {
                drop(st);
                std::panic::panic_any(SchedAbort);
            }
            if st.threads[target].status == Status::Finished {
                return;
            }
            st.threads[self.tid].status = Status::Join(target);
            self.exec.pick_next(&mut st, self.tid);
            self.exec.block_until(st, self.tid);
        }
    }

    /// Explicit switch point.
    pub(crate) fn yield_now(&self) {
        self.exec.switch(self.tid);
    }
}

/// An explicit interleaving point. Inside a model execution this is a
/// full scheduling decision; outside it degrades to
/// [`std::thread::yield_now`] (useful in stress tests).
pub fn yield_now() {
    match current() {
        Some(ctx) => ctx.yield_now(),
        None => std::thread::yield_now(),
    }
}

/// splitmix64 — deterministic, dependency-free schedule sampling.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// One failing interleaving, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// What went wrong (assertion text, deadlock diagnostics…).
    pub message: String,
    /// The chosen vthread at each switch point. Pass to
    /// [`Model::replay`] to re-run exactly this interleaving.
    pub schedule: Vec<usize>,
    /// The per-iteration seed, when found by [`Model::check_random`].
    pub seed: Option<u64>,
}

impl FailureReport {
    /// Human-readable report with reproduction instructions.
    pub fn render(&self) -> String {
        let sched: Vec<String> = self.schedule.iter().map(|t| t.to_string()).collect();
        let mut out = format!(
            "model check failed: {}\nschedule: [{}]\nreproduce with: \
             Model::default().replay(&[{}], f)",
            self.message,
            sched.join(", "),
            sched.join(", "),
        );
        if let Some(seed) = self.seed {
            out.push_str(&format!("\n(found by random exploration, iteration seed {seed})"));
        }
        out
    }
}

/// Result of an exploration run.
#[derive(Debug)]
pub struct Outcome {
    /// Number of executions performed.
    pub executions: usize,
    /// Whether the bounded state space was fully enumerated (always
    /// `false` for random mode).
    pub complete: bool,
    /// The first failing interleaving, if any.
    pub failure: Option<FailureReport>,
}

struct RunResult {
    schedule: Vec<Choice>,
    failure: Option<String>,
}

/// Model-checking configuration.
#[derive(Debug, Clone)]
pub struct Model {
    /// Max context switches away from a still-runnable thread per
    /// execution. 2 catches most real bugs; raise for paranoia.
    pub preemption_bound: usize,
    /// Abort DFS exploration after this many executions.
    pub max_iterations: usize,
    /// Max virtual threads per execution.
    pub max_threads: usize,
}

impl Default for Model {
    fn default() -> Self {
        Model { preemption_bound: 2, max_iterations: 100_000, max_threads: 8 }
    }
}

impl Model {
    /// Exhaustively explores `f` under the preemption bound; panics
    /// with a [`FailureReport`] rendering on the first failure, or if
    /// the space could not be exhausted within `max_iterations`.
    pub fn check(&self, f: impl Fn()) {
        let outcome = self.explore(&f);
        if let Some(failure) = outcome.failure {
            panic!("{}", failure.render());
        }
        assert!(
            outcome.complete,
            "model: state space not exhausted after {} executions; \
             raise max_iterations or lower preemption_bound",
            outcome.executions
        );
    }

    /// Non-panicking exhaustive exploration (also used to assert that
    /// a deliberately buggy protocol IS caught).
    pub fn explore(&self, f: &dyn Fn()) -> Outcome {
        let mut prefix: Vec<usize> = Vec::new();
        let mut executions = 0;
        loop {
            if executions >= self.max_iterations {
                return Outcome { executions, complete: false, failure: None };
            }
            executions += 1;
            let run = self.run_one(prefix.clone(), Mode::Dfs, f);
            if let Some(message) = run.failure {
                let schedule = run.schedule.iter().map(|c| c.chosen).collect();
                return Outcome {
                    executions,
                    complete: false,
                    failure: Some(FailureReport { message, schedule, seed: None }),
                };
            }
            match next_prefix(&run.schedule) {
                Some(p) => prefix = p,
                None => return Outcome { executions, complete: true, failure: None },
            }
        }
    }

    /// Samples `iterations` random schedules derived from `seed`;
    /// panics with the failing schedule and per-iteration seed on the
    /// first failure.
    pub fn check_random(&self, seed: u64, iterations: usize, f: impl Fn()) {
        if let Some(failure) = self.explore_random(seed, iterations, &f) {
            panic!("{}", failure.render());
        }
    }

    /// Non-panicking random exploration.
    pub fn explore_random(
        &self,
        seed: u64,
        iterations: usize,
        f: &dyn Fn(),
    ) -> Option<FailureReport> {
        for i in 0..iterations {
            let iter_seed = Rng(seed ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d)).next();
            let run = self.run_one(Vec::new(), Mode::Random(Rng(iter_seed)), f);
            if let Some(message) = run.failure {
                let schedule = run.schedule.iter().map(|c| c.chosen).collect();
                return Some(FailureReport { message, schedule, seed: Some(iter_seed) });
            }
        }
        None
    }

    /// Re-runs the single interleaving recorded in `schedule` (from a
    /// [`FailureReport`]); returns its failure, if it still fails.
    pub fn replay(&self, schedule: &[usize], f: impl Fn()) -> Option<FailureReport> {
        let run = self.run_one(schedule.to_vec(), Mode::Dfs, &f);
        run.failure.map(|message| FailureReport {
            message,
            schedule: run.schedule.iter().map(|c| c.chosen).collect(),
            seed: None,
        })
    }

    fn run_one(&self, prefix: Vec<usize>, mode: Mode, f: &dyn Fn()) -> RunResult {
        install_hook();
        let exec = Arc::new(Exec {
            state: StdMutex::new(ExecState {
                threads: vec![VThread { name: "main".to_string(), status: Status::Runnable }],
                current: 0,
                objects: Vec::new(),
                by_addr: HashMap::new(),
                schedule: Vec::new(),
                prefix,
                cursor: 0,
                preemptions: 0,
                bound: self.preemption_bound,
                max_threads: self.max_threads,
                mode,
                failure: None,
                abort: false,
                divergent: false,
                os_handles: Vec::new(),
            }),
            cv: StdCondvar::new(),
        });
        gate::model_enter();
        CTX.with(|c| *c.borrow_mut() = Some(Ctx { exec: Arc::clone(&exec), tid: 0 }));
        let r = catch_unwind(AssertUnwindSafe(f));
        match r {
            Ok(()) => exec.finish(0),
            Err(p) if p.downcast_ref::<SchedAbort>().is_some() => exec.thread_exited(0),
            Err(p) => exec.fail_from_panic(0, p),
        }
        // Joining every OS thread (threads spawned by joined threads
        // included) is the only completion barrier we need: every
        // vthread ends in finish()/thread_exited()/fail_from_panic().
        loop {
            let handles: Vec<_> = {
                let mut st = exec.lock_state();
                st.os_handles.drain(..).collect()
            };
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
        CTX.with(|c| *c.borrow_mut() = None);
        gate::model_exit();
        let st = exec.lock_state();
        if st.divergent && st.failure.is_none() {
            return RunResult {
                schedule: st.schedule.clone(),
                failure: Some(
                    "model: replay diverged from recorded schedule — the closure itself \
                     is nondeterministic (wall clock? hash iteration?)"
                        .to_string(),
                ),
            };
        }
        RunResult { schedule: st.schedule.clone(), failure: st.failure.clone() }
    }
}

/// DFS backtracking: the longest prefix of `schedule` with an
/// unexplored alternative at its last position, or `None` when the
/// space is exhausted.
fn next_prefix(schedule: &[Choice]) -> Option<Vec<usize>> {
    for i in (0..schedule.len()).rev() {
        let c = &schedule[i];
        let pos = c.options.iter().position(|&t| t == c.chosen)?;
        if pos + 1 < c.options.len() {
            let mut p: Vec<usize> = schedule[..i].iter().map(|c| c.chosen).collect();
            p.push(c.options[pos + 1]);
            return Some(p);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync;
    use std::sync::Arc;

    #[test]
    fn exhausts_trivial_closure_in_one_execution() {
        let outcome = Model::default().explore(&|| {});
        assert!(outcome.complete);
        assert!(outcome.failure.is_none());
        assert_eq!(outcome.executions, 1);
    }

    #[test]
    fn correct_locked_increments_pass_exhaustively() {
        let outcome = Model::default().explore(&|| {
            let counter = Arc::new(sync::Mutex::new("t.counter", 0));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let c = Arc::clone(&counter);
                handles.push(sync::spawn_named("inc", move || {
                    *c.lock() += 1;
                }));
            }
            for h in handles {
                h.join().expect("vthread");
            }
            assert_eq!(*counter.lock(), 2);
        });
        assert!(outcome.failure.is_none(), "{:?}", outcome.failure);
        assert!(outcome.complete);
        assert!(outcome.executions > 1, "must explore multiple interleavings");
    }

    #[test]
    fn finds_lost_update_and_replays_it() {
        // Classic read-then-write race: load under one critical
        // section, store under another.
        let buggy = || {
            let counter = Arc::new(sync::Mutex::new("t.racy", 0));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let c = Arc::clone(&counter);
                handles.push(sync::spawn_named("rmw", move || {
                    let v = *c.lock();
                    *c.lock() = v + 1;
                }));
            }
            for h in handles {
                h.join().expect("vthread");
            }
            assert_eq!(*counter.lock(), 2, "lost update");
        };
        let outcome = Model::default().explore(&buggy);
        let failure = outcome.failure.expect("exploration must find the lost update");
        assert!(failure.message.contains("lost update"), "{}", failure.message);
        // The printed schedule reproduces the same failure on its own.
        let replayed = Model::default()
            .replay(&failure.schedule, buggy)
            .expect("replay must reproduce the failure");
        assert!(replayed.message.contains("lost update"), "{}", replayed.message);
        // A fresh exhaustive run of the *correct* protocol still passes,
        // so the failure is the bug, not the harness.
    }

    #[test]
    fn detects_lock_order_deadlock() {
        let outcome = Model { preemption_bound: 3, ..Model::default() }.explore(&|| {
            let a = Arc::new(sync::Mutex::new("t.dead-a", ()));
            let b = Arc::new(sync::Mutex::new("t.dead-b", ()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let h = sync::spawn_named("ba", move || {
                let _g1 = b2.lock();
                let _g2 = a2.lock();
            });
            let _g1 = a.lock();
            let _g2 = b.lock();
            drop(_g2);
            drop(_g1);
            let _ = h.join();
        });
        let failure = outcome.failure.expect("must find the AB/BA deadlock");
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
    }

    #[test]
    fn detects_lost_wakeup() {
        // A naked wait with no predicate: when the notifier fires
        // before the waiter parks, the notification is lost and the
        // waiter sleeps forever.
        let outcome = Model::default().explore(&|| {
            let m = Arc::new(sync::Mutex::new("t.lw", ()));
            let cv = Arc::new(sync::Condvar::new("t.lw-cv"));
            let cv2 = Arc::clone(&cv);
            let h = sync::spawn_named("notifier", move || {
                cv2.notify_one();
            });
            let g = m.lock();
            let g = cv.wait(g);
            drop(g);
            let _ = h.join();
        });
        let failure = outcome.failure.expect("must find the lost wakeup");
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
        assert!(
            failure.message.contains("Wait"),
            "must show the stuck waiter: {}",
            failure.message
        );
    }

    #[test]
    fn random_mode_is_seed_deterministic() {
        let buggy = || {
            let counter = Arc::new(sync::Mutex::new("t.rand", 0));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let c = Arc::clone(&counter);
                handles.push(sync::spawn_named("rmw", move || {
                    let v = *c.lock();
                    *c.lock() = v + 1;
                }));
            }
            for h in handles {
                h.join().expect("vthread");
            }
            assert_eq!(*counter.lock(), 2, "lost update");
        };
        let m = Model::default();
        let a = m.explore_random(42, 200, &buggy);
        let b = m.explore_random(42, 200, &buggy);
        match (a, b) {
            (Some(fa), Some(fb)) => {
                assert_eq!(fa.schedule, fb.schedule, "same seed must find the same schedule");
                assert_eq!(fa.seed, fb.seed);
            }
            (None, None) => panic!("200 random schedules should hit a 2-thread lost update"),
            _ => panic!("same seed must give the same outcome"),
        }
    }
}
