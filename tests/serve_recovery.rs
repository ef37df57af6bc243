//! Crash-recovery integration test of the real `rlmul serve` binary:
//! a daemon is killed with SIGKILL (no drain, no handler) mid-job and
//! a fresh daemon on the same state directory must
//!
//! * keep every completed job's record byte-identical — terminal work
//!   is never re-run, so finished synthesis is never repeated;
//! * re-adopt the in-flight job (`resumes` = 1) and finish it from
//!   its last driver snapshot, spending strictly fewer synthesis
//!   calls than an uninterrupted run of the same spec — the replayed
//!   prefix comes from the snapshot's cache, not from the tools;
//! * converge to the same `best_cost` as the uninterrupted run, the
//!   repo's bit-for-bit resume guarantee, now across a process death.

use rlmul::baselines::SaConfig;
use rlmul::core::{run_sa_with, CostWeights, EnvConfig, EvalCache, TrainHooks};
use rlmul::ct::PpgKind;
use rlmul::serve::client::http_call;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The in-flight job: long enough (in wall time) that SIGKILL lands
/// mid-run, checkpointed often enough that the resume skips most of
/// the replayed prefix.
const BITS: usize = 4;
const STEPS: usize = 4000;
const SEED: u64 = 99;
const CKPT_EVERY: usize = 10;

/// Kill-on-drop guard around the daemon process, so a failing
/// assertion anywhere in the test still reaps the child.
struct Daemon(Option<Child>);

impl Daemon {
    fn kill(&mut self) {
        if let Some(mut child) = self.0.take() {
            child.kill().expect("SIGKILL the daemon");
            child.wait().expect("reap the daemon");
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// The child is always reaped — `Daemon` kills and waits in `Drop` —
// but the lint cannot see through the guard's ownership transfer.
#[allow(clippy::zombie_processes)]
fn spawn_server(dir: &Path) -> (Daemon, String) {
    // A stale address file from a killed predecessor must not be
    // mistaken for the new daemon's address.
    let addr_file = dir.join("serve.addr");
    let _ = std::fs::remove_file(&addr_file);
    let mut child = Command::new(env!("CARGO_BIN_EXE_rlmul"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "1", "--dir"])
        .arg(dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rlmul serve");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = std::fs::read_to_string(&addr_file) {
            let addr = addr.trim().to_owned();
            if !addr.is_empty() {
                // The file is written before the listener threads
                // start; one accepted request proves readiness.
                if let Ok((200, _)) = http_call(&addr, "GET", "/healthz", "") {
                    return (Daemon(Some(child)), addr);
                }
            }
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon never published its address");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn field_u64(body: &str, key: &str) -> Option<u64> {
    let tagged = format!("\"{key}\":");
    let rest = &body[body.find(&tagged)? + tagged.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn field_f64(body: &str, key: &str) -> Option<f64> {
    let tagged = format!("\"{key}\":");
    let rest = &body[body.find(&tagged)? + tagged.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

fn field_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tagged = format!("\"{key}\":\"");
    let rest = &body[body.find(&tagged)? + tagged.len()..];
    Some(&rest[..rest.find('"')?])
}

fn status(addr: &str, id: u64) -> String {
    let (code, payload) = http_call(addr, "GET", &format!("/jobs/{id}"), "").expect("status");
    assert_eq!(code, 200, "{payload}");
    payload
}

fn wait_done(addr: &str, id: u64, secs: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let payload = status(addr, id);
        match field_str(&payload, "state") {
            Some("done") => return payload,
            Some("failed" | "cancelled") => panic!("job {id} ended badly: {payload}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "job {id} never finished: {payload}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlmul-serve-kill9-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill_minus_nine_resumes_without_repeating_finished_work() {
    let dir = tmpdir();
    let (mut first, addr) = spawn_server(&dir);

    // Job A runs to completion before the crash.
    let (code, done_payload) = http_call(
        &addr,
        "POST",
        "/jobs",
        r#"{"bits":4,"method":"sa","steps":5,"seed":11,"tenant":"acme"}"#,
    )
    .expect("submit A");
    assert_eq!(code, 201, "{done_payload}");
    let id_a = field_u64(&done_payload, "id").expect("id A");
    let record_a_before = wait_done(&addr, id_a, 60);
    let (code, trace_a_before) =
        http_call(&addr, "GET", &format!("/jobs/{id_a}/trace"), "").expect("trace A");
    assert_eq!(code, 200, "{trace_a_before}");

    // Job B is big enough that SIGKILL reliably lands mid-run.
    let body = format!(
        r#"{{"bits":{BITS},"method":"sa","steps":{STEPS},"seed":{SEED},"ckpt_every":{CKPT_EVERY},"tenant":"acme"}}"#
    );
    let (code, payload) = http_call(&addr, "POST", "/jobs", &body).expect("submit B");
    assert_eq!(code, 201, "{payload}");
    let id_b = field_u64(&payload, "id").expect("id B");

    // Wait until B is demonstrably mid-run with checkpointed progress
    // (well short of finishing), then kill without ceremony.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let payload = status(&addr, id_b);
        let progress = field_u64(&payload, "progress").unwrap_or(0);
        if field_str(&payload, "state") == Some("running")
            && (2 * CKPT_EVERY as u64..STEPS as u64 / 2).contains(&progress)
        {
            break;
        }
        assert!(
            field_str(&payload, "state") != Some("done"),
            "job B finished before the kill; raise STEPS: {payload}"
        );
        assert!(Instant::now() < deadline, "job B never got going: {payload}");
        std::thread::sleep(Duration::from_millis(5));
    }
    first.kill();

    // A fresh daemon on the same directory re-adopts the state.
    let (mut second, addr) = spawn_server(&dir);

    // Completed work is never repeated: A's record (state, result,
    // every counter) is byte-identical and its resume count stays 0.
    let record_a_after = status(&addr, id_a);
    assert_eq!(record_a_after, record_a_before, "terminal job must be untouched by recovery");
    assert_eq!(field_u64(&record_a_after, "resumes"), Some(0));

    // A's durable trace survives the kill byte-identically: the new
    // daemon serves the exposition from the persisted trace snapshot,
    // not from any in-memory buffer that died with the first process.
    let (code, trace_a_after) =
        http_call(&addr, "GET", &format!("/jobs/{id_a}/trace"), "").expect("trace A after");
    assert_eq!(code, 200, "{trace_a_after}");
    assert_eq!(
        trace_a_after, trace_a_before,
        "completed-job trace must survive kill -9 byte-identically"
    );

    // B was re-adopted exactly once and runs to the full step count.
    let record_b = wait_done(&addr, id_b, 300);
    assert_eq!(field_u64(&record_b, "resumes"), Some(1), "{record_b}");
    assert_eq!(field_u64(&record_b, "steps_done"), Some(STEPS as u64), "{record_b}");

    // B's post-crash trace opens a new epoch (`tr-<id>.1`) and begins
    // with the recovery event — the interruption is first-class in
    // the timeline, not silently elided.
    let (code, trace_b) =
        http_call(&addr, "GET", &format!("/jobs/{id_b}/trace"), "").expect("trace B");
    assert_eq!(code, 200, "{trace_b}");
    assert_eq!(field_str(&trace_b, "trace_id"), Some(format!("tr-{id_b:08}.1").as_str()));
    assert!(trace_b.contains(r#""kind":"recovered""#), "{trace_b}");
    assert!(trace_b.contains(r#""kind":"done""#), "{trace_b}");

    // The uninterrupted baseline: the same spec, fresh cache, no
    // server. The resumed run must (a) agree on the result bit for
    // bit and (b) have spent strictly fewer synthesis calls after the
    // crash — the replayed prefix is served from the snapshot cache.
    let mut env_cfg = EnvConfig::new(BITS, PpgKind::And);
    env_cfg.weights = CostWeights::TRADE_OFF;
    let sa_cfg = SaConfig { steps: STEPS, ..Default::default() };
    let baseline =
        run_sa_with(&env_cfg, &sa_cfg, SEED, EvalCache::new(), &TrainHooks::default(), None)
            .expect("baseline run");
    let resumed_cost = field_f64(&record_b, "best_cost").expect("best_cost");
    assert_eq!(
        resumed_cost, baseline.best_cost,
        "resume across kill -9 must replay to the uninterrupted result"
    );
    let resumed_synth = field_u64(&record_b, "synthesis_calls").expect("synthesis_calls");
    assert!(
        resumed_synth < baseline.pipeline.synthesis_calls as u64,
        "post-crash run must not repeat the replayed prefix's synthesis \
         ({resumed_synth} vs uninterrupted {})",
        baseline.pipeline.synthesis_calls
    );

    second.kill();
    let _ = std::fs::remove_dir_all(&dir);
}
