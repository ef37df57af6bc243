//! End-to-end lifecycle tests of the job server over the real wire
//! protocol: every state-machine edge, idempotent re-submission, the
//! two cancellation shapes, the HTTP error contract, and clean-
//! restart recovery from the persisted job records.

use rlmul_serve::client::{http_call, HttpClient};
use rlmul_serve::{JobState, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlmul-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(dir: &Path, workers: usize) -> (Server, String) {
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        dir: dir.to_path_buf(),
        workers,
        http_workers: 2,
    })
    .expect("start server");
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn field_u64(body: &str, key: &str) -> Option<u64> {
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

fn submit(addr: &str, body: &str) -> (u16, u64, String) {
    let (code, payload) = http_call(addr, "POST", "/jobs", body).expect("submit");
    let id = field_u64(&payload, "id").unwrap_or(0);
    (code, id, payload)
}

fn wait_for_state(addr: &str, id: u64, want: &str, secs: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let (code, payload) =
            http_call(addr, "GET", &format!("/jobs/{id}"), "").expect("status poll");
        assert_eq!(code, 200, "{payload}");
        if field_str(&payload, "state") == Some(want) {
            return payload;
        }
        assert!(Instant::now() < deadline, "job {id} never reached `{want}`; last: {payload}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn submit_runs_to_done_and_serves_the_result() {
    let dir = tmpdir("done");
    let (server, addr) = start(&dir, 2);

    // Result before the job exists: 404.
    let (code, _) = http_call(&addr, "GET", "/jobs/1/result", "").unwrap();
    assert_eq!(code, 404);

    let (code, id, payload) =
        submit(&addr, r#"{"bits":4,"method":"sa","steps":3,"seed":5,"tenant":"t1"}"#);
    assert_eq!(code, 201, "{payload}");
    assert!(id > 0);
    // The response snapshots the record *after* enqueueing, so a fast
    // worker may already have claimed (or even finished) the job.
    let state = field_str(&payload, "state").expect("state field");
    assert!(["queued", "running", "done"].contains(&state), "{payload}");
    assert_eq!(field_str(&payload, "tenant"), Some("t1"), "{payload}");

    let done = wait_for_state(&addr, id, "done", 120);
    assert_eq!(field_u64(&done, "resumes"), Some(0));
    assert!(done.contains("\"result\":{"), "{done}");
    assert_eq!(field_u64(&done, "steps_done"), Some(3), "{done}");

    let (code, result) = http_call(&addr, "GET", &format!("/jobs/{id}/result"), "").unwrap();
    assert_eq!(code, 200, "{result}");
    assert!(result.contains("\"best_cost\":"), "{result}");
    assert!(field_u64(&result, "synthesis_calls").is_some(), "{result}");

    // Cancelling a terminal job: 409.
    let (code, conflict) = http_call(&addr, "POST", &format!("/jobs/{id}/cancel"), "").unwrap();
    assert_eq!(code, 409, "{conflict}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_submission_is_idempotent() {
    let dir = tmpdir("idem");
    let (server, addr) = start(&dir, 1);
    let body = r#"{"bits":4,"steps":2,"tenant":"acme","idempotency_key":"run-42"}"#;
    let (code_a, id_a, _) = submit(&addr, body);
    let (code_b, id_b, _) = submit(&addr, body);
    assert_eq!(code_a, 201, "first submission creates");
    assert_eq!(code_b, 200, "duplicate returns the existing job");
    assert_eq!(id_a, id_b);
    // A different tenant with the same key is a different job.
    let other = r#"{"bits":4,"steps":2,"tenant":"umbrella","idempotency_key":"run-42"}"#;
    let (code_c, id_c, _) = submit(&addr, other);
    assert_eq!(code_c, 201);
    assert_ne!(id_c, id_a, "idempotency keys are tenant-scoped");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_while_queued_is_immediate_and_never_runs() {
    let dir = tmpdir("cancel-q");
    // One worker, so a second submission reliably waits in the queue
    // behind the first.
    let (server, addr) = start(&dir, 1);
    let (_, busy, _) = submit(&addr, r#"{"bits":4,"steps":4000,"seed":1}"#);
    let (_, queued, _) = submit(&addr, r#"{"bits":4,"steps":40,"seed":2}"#);
    wait_for_state(&addr, busy, "running", 60);

    let (code, payload) = http_call(&addr, "DELETE", &format!("/jobs/{queued}"), "").unwrap();
    assert_eq!(code, 200, "queued cancel is immediate: {payload}");
    assert_eq!(field_str(&payload, "state"), Some("cancelled"), "{payload}");
    assert_eq!(field_u64(&payload, "progress"), Some(0), "never ran a step");
    assert!(!payload.contains("\"result\""), "no result for a never-run job: {payload}");

    // Unblock the worker quickly: cancel the running job too.
    let (code, _) = http_call(&addr, "POST", &format!("/jobs/{busy}/cancel"), "").unwrap();
    assert_eq!(code, 202);
    wait_for_state(&addr, busy, "cancelled", 120);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_while_running_stops_cooperatively_with_partial_result() {
    let dir = tmpdir("cancel-r");
    let (server, addr) = start(&dir, 1);
    let (_, id, _) = submit(&addr, r#"{"bits":4,"steps":500,"seed":3}"#);
    // Wait until it is demonstrably mid-run.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, payload) = http_call(&addr, "GET", &format!("/jobs/{id}"), "").unwrap();
        if field_str(&payload, "state") == Some("running")
            && field_u64(&payload, "progress").unwrap_or(0) >= 1
        {
            break;
        }
        assert!(Instant::now() < deadline, "job never started: {payload}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let (code, payload) = http_call(&addr, "POST", &format!("/jobs/{id}/cancel"), "").unwrap();
    assert_eq!(code, 202, "running cancel is asynchronous: {payload}");
    assert_eq!(field_str(&payload, "state"), Some("running"), "{payload}");

    let final_payload = wait_for_state(&addr, id, "cancelled", 120);
    let steps_done = field_u64(&final_payload, "steps_done").expect("partial result attached");
    assert!(
        (1..500).contains(&(steps_done as usize)),
        "cooperative stop keeps the partial trajectory: {final_payload}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn http_error_contract() {
    let dir = tmpdir("errors");
    let (server, addr) = start(&dir, 1);
    for (method, path, body, want) in [
        ("POST", "/jobs", "not json", 400),
        ("POST", "/jobs", r#"{"bits":1}"#, 400),
        ("POST", "/jobs", r#"{"method":"ppo"}"#, 400),
        ("GET", "/jobs/999", "", 404),
        ("GET", "/jobs/xyz", "", 400),
        ("GET", "/jobs/999/result", "", 404),
        ("POST", "/jobs/999/cancel", "", 404),
        ("GET", "/nope", "", 404),
        ("PUT", "/jobs", "", 405),
    ] {
        let (code, payload) = http_call(&addr, method, path, body).unwrap();
        assert_eq!(code, want, "{method} {path}: {payload}");
        assert!(payload.contains("\"error\""), "{method} {path}: {payload}");
    }
    // The index and health endpoints answer.
    let (code, index) = http_call(&addr, "GET", "/", "").unwrap();
    assert_eq!(code, 200);
    assert!(index.contains("rlmul-serve"), "{index}");
    let (code, health) = http_call(&addr, "GET", "/healthz", "").unwrap();
    assert_eq!(code, 200);
    assert!(health.contains("\"ok\":true"), "{health}");
    let (code, metrics) = http_call(&addr, "GET", "/metrics", "").unwrap();
    assert_eq!(code, 200);
    assert!(metrics.contains("rlmul_serve_jobs_submitted_total"), "{metrics}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn submitted_seeds_keep_full_integer_precision() {
    let dir = tmpdir("seed-precision");
    let (server, addr) = start(&dir, 1);
    // 2^53 + 1 has no exact f64: a float-typed parser would run seed 2^53.
    let (code, id, payload) = submit(&addr, r#"{"bits":4,"steps":1,"seed":9007199254740993}"#);
    assert_eq!(code, 201, "{payload}");
    let (code, status) = http_call(&addr, "GET", &format!("/jobs/{id}"), "").unwrap();
    assert_eq!(code, 200, "{status}");
    assert!(status.contains("\"seed\":9007199254740993,"), "{status}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_seed_is_a_bad_request() {
    let dir = tmpdir("seed-range");
    let (server, addr) = start(&dir, 1);
    // 2^64 does not fit a seed: a 400 naming the field, not u64::MAX.
    let (code, payload) =
        http_call(&addr, "POST", "/jobs", r#"{"bits":4,"steps":1,"seed":18446744073709551616}"#)
            .unwrap();
    assert_eq!(code, 400, "{payload}");
    assert!(payload.contains("`seed`"), "{payload}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_restart_recovers_queued_and_running_jobs() {
    let dir = tmpdir("restart");
    let first_id;
    let queued_id;
    {
        let (server, addr) = start(&dir, 1);
        let (_, a, _) = submit(&addr, r#"{"bits":4,"steps":4000,"seed":7,"ckpt_every":4}"#);
        let (_, b, _) = submit(&addr, r#"{"bits":4,"steps":2,"seed":8}"#);
        first_id = a;
        queued_id = b;
        // Let the first job make checkpointed progress, then drain.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (_, payload) = http_call(&addr, "GET", &format!("/jobs/{a}"), "").unwrap();
            if field_u64(&payload, "progress").unwrap_or(0) >= 4 {
                break;
            }
            assert!(Instant::now() < deadline, "no progress: {payload}");
            std::thread::sleep(Duration::from_millis(10));
        }
        server.shutdown();
    }
    // The drained daemon left the running job `Running` on disk and
    // the queued one `Queued`; a new daemon re-adopts both.
    {
        let (server, addr) = start(&dir, 1);
        let done_a = wait_for_state(&addr, first_id, "done", 180);
        assert_eq!(field_u64(&done_a, "resumes"), Some(1), "re-adopted exactly once: {done_a}");
        assert_eq!(field_u64(&done_a, "steps_done"), Some(4000), "{done_a}");
        let done_b = wait_for_state(&addr, queued_id, "done", 180);
        assert_eq!(field_u64(&done_b, "resumes"), Some(0), "{done_b}");
        // Terminal states survive as history.
        let (code, listing) = http_call(&addr, "GET", "/jobs", "").unwrap();
        assert_eq!(code, 200);
        assert_eq!(field_u64(&listing, "count"), Some(2), "{listing}");
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn terminal_states_are_immutable() {
    use JobState::*;
    for terminal in [Done, Cancelled, Failed] {
        for to in [Queued, Running, Done, Cancelled, Failed] {
            assert!(!terminal.can_transition(to, true));
        }
    }
}

/// Sequential keep-alive requests must not wait on delayed ACKs: each
/// request leaves in one write on a `TCP_NODELAY` socket. A request
/// split over several writes stalls every round trip by a delayed-ACK
/// period (~40 ms on Linux loopback), so the median round trip — which
/// a few scheduling hiccups under parallel tests cannot move — must stay
/// well below it.
#[test]
fn keep_alive_client_does_not_stall() {
    let dir = tmpdir("nodelay");
    let (server, addr) = start(&dir, 1);
    let mut client = HttpClient::new(&addr);
    assert_eq!(client.call("GET", "/healthz", "").unwrap().0, 200);
    let mut rtts: Vec<Duration> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            let (code, _) = client.call("GET", "/healthz", "").unwrap();
            assert_eq!(code, 200);
            t0.elapsed()
        })
        .collect();
    assert_eq!(client.conns_opened, 1, "keep-alive connection was not reused");
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(median < Duration::from_millis(10), "median keep-alive round trip {median:?}");
    // Close the connection first so shutdown need not wait out the
    // server's keep-alive read timeout.
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// One load client: submits `jobs` small SA jobs over a keep-alive
/// connection, cancels every third right after submitting it, and polls
/// each to a terminal state. Returns (submitted, terminal states seen,
/// client errors), where an error is a transport failure, an unexpected
/// status or a job still not terminal after 300 s.
fn load_client(addr: &str, client: u64, jobs: u64) -> (u64, Vec<String>, u64) {
    let mut http = HttpClient::new(addr);
    let (mut submitted, mut states, mut errors) = (0, Vec::new(), 0);
    for j in 0..jobs {
        let seed = client * jobs + j + 1;
        let body = format!(
            concat!(
                r#"{{"bits":4,"method":"sa","steps":3,"seed":{},"ckpt_every":0,"#,
                r#""tenant":"load-{}","priority":{}}}"#
            ),
            seed,
            client,
            j % 3
        );
        let id = match http.call("POST", "/jobs", &body) {
            Ok((201, payload)) => field_u64(&payload, "id"),
            _ => None,
        };
        let Some(id) = id else {
            errors += 1;
            continue;
        };
        submitted += 1;
        if (j + 1) % 3 == 0 {
            // Queued (200), running (202) and already terminal (409)
            // are all legitimate answers to a racy cancel.
            let cancel = http.call("POST", &format!("/jobs/{id}/cancel"), "");
            if !matches!(cancel, Ok((200 | 202 | 409, _))) {
                errors += 1;
            }
        }
        let deadline = Instant::now() + Duration::from_secs(300);
        loop {
            let state = match http.call("GET", &format!("/jobs/{id}"), "") {
                Ok((200, payload)) => field_str(&payload, "state").map(str::to_owned),
                _ => None,
            };
            match state.as_deref() {
                Some(s @ ("done" | "cancelled" | "failed")) => {
                    states.push(s.to_owned());
                    break;
                }
                _ if Instant::now() > deadline => {
                    errors += 1;
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
    (submitted, states, errors)
}

/// Two concurrent load clients, three jobs each: every submitted job
/// must reach a terminal state, none may fail, and no client may see
/// an error.
#[test]
fn concurrent_clients_drive_every_job_terminal() {
    const CLIENTS: u64 = 2;
    const JOBS: u64 = 3;
    let dir = tmpdir("load");
    let (server, addr) = start(&dir, 2);
    let addr = addr.as_str();
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let clients: Vec<_> =
            (0..CLIENTS).map(|c| s.spawn(move || load_client(addr, c, JOBS))).collect();
        clients.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let submitted: u64 = outcomes.iter().map(|o| o.0).sum();
    let states: Vec<&str> = outcomes.iter().flat_map(|o| o.1.iter().map(String::as_str)).collect();
    let errors: u64 = outcomes.iter().map(|o| o.2).sum();
    assert_eq!(submitted, CLIENTS * JOBS, "every job submitted: {outcomes:?}");
    assert_eq!(states.len() as u64, CLIENTS * JOBS, "every job terminal: {outcomes:?}");
    assert!(!states.contains(&"failed"), "no job failed: {outcomes:?}");
    assert_eq!(errors, 0, "no client errors: {outcomes:?}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A state directory in the per-file layout of earlier versions is
/// refused with an error naming the layout, never read as empty.
#[test]
fn per_file_state_directory_is_refused() {
    for old in ["jobs", "ckpt-00000001"] {
        let dir = tmpdir(&format!("old-{old}"));
        std::fs::create_dir_all(dir.join(old)).unwrap();
        let err = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            dir: dir.clone(),
            ..Default::default()
        })
        .expect_err("a per-file state directory must be refused");
        assert!(err.to_string().contains("per-file layout"), "{err}");
        assert!(!dir.join("serve.log").exists(), "nothing written beside the old state");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A torn tail of the job log is cut off at start; damage with valid
/// frames after it refuses the start instead of dropping them.
#[test]
fn torn_log_tail_is_cut_and_mid_log_damage_is_refused() {
    let dir = tmpdir("log-damage");
    let id;
    {
        let (server, addr) = start(&dir, 1);
        (_, id, _) = submit(&addr, r#"{"bits":4,"steps":2,"seed":4}"#);
        wait_for_state(&addr, id, "done", 60);
        server.shutdown();
    }
    let log = dir.join("serve.log");
    let bytes = std::fs::read(&log).unwrap();

    // A crash mid-append: half a frame after the last one.
    let mut torn = bytes.clone();
    torn.extend_from_slice(&bytes[..bytes.len().min(40) / 2]);
    std::fs::write(&log, &torn).unwrap();
    {
        let (server, addr) = start(&dir, 1);
        wait_for_state(&addr, id, "done", 10);
        server.shutdown();
    }
    assert!(std::fs::read(&log).unwrap().len() <= bytes.len(), "the torn tail was cut off");

    // Bit-rot inside the first frame, with valid frames after it.
    let mut rotten = std::fs::read(&log).unwrap();
    rotten[30] ^= 0x40;
    std::fs::write(&log, &rotten).unwrap();
    let err = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        dir: dir.clone(),
        ..Default::default()
    })
    .expect_err("mid-log damage must refuse the start");
    assert!(err.to_string().contains("damaged"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
