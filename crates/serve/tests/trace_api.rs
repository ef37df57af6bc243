//! End-to-end tests of the per-job trace routes over the real wire
//! protocol: the golden `GET /jobs/:id/trace` exposition shape, the
//! chunked `GET /jobs/:id/events` live stream, and the contract the
//! tentpole promises — a live stream observed during a run matches
//! the stored trace event-for-event, byte-for-byte.

use rlmul_serve::client::http_call;
use rlmul_serve::json::{parse_object, parse_object_array, JsonValue};
use rlmul_serve::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rlmul-trace-{tag}-{}", std::process::id()));
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

fn field_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tagged = format!("\"{key}\":\"");
    let rest = &body[body.find(&tagged)? + tagged.len()..];
    Some(&rest[..rest.find('"')?])
}

fn submit(addr: &str, body: &str) -> u64 {
    let (code, payload) = http_call(addr, "POST", "/jobs", body).expect("submit");
    assert_eq!(code, 201, "{payload}");
    parse_object(payload.as_bytes()).unwrap().get_u64("id").expect("id")
}

fn wait_for_state(addr: &str, id: u64, want: &str, secs: u64) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    loop {
        let (_, payload) = http_call(addr, "GET", &format!("/jobs/{id}"), "").expect("poll");
        if field_str(&payload, "state") == Some(want) {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never reached `{want}`; last: {payload}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Performs one GET and decodes a chunked response body to the raw
/// streamed bytes (falls through for identity-framed bodies).
fn http_stream(addr: &str, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read stream to EOF");
    let code: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|c| c.parse().ok())
        .expect("status line");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    if !head.to_ascii_lowercase().contains("transfer-encoding: chunked") {
        return (code, body.to_owned());
    }
    let mut rest = body;
    let mut out = String::new();
    loop {
        let (len_line, tail) = rest.split_once("\r\n").expect("chunk length line");
        let len = usize::from_str_radix(len_line.trim(), 16).expect("hex chunk length");
        if len == 0 {
            break;
        }
        out.push_str(&tail[..len]);
        rest = &tail[len + 2..]; // past the data and its CRLF
    }
    (code, out)
}

#[test]
fn golden_trace_exposition() {
    let dir = tmpdir("golden");
    let (server, addr) = start(&dir, 1);
    let id = submit(&addr, r#"{"bits":4,"method":"sa","steps":3,"seed":11,"tenant":"golden"}"#);
    wait_for_state(&addr, id, "done", 120);

    let (code, body) = http_call(&addr, "GET", &format!("/jobs/{id}/trace"), "").unwrap();
    assert_eq!(code, 200, "{body}");
    let record = parse_object(body.as_bytes()).expect("trace body parses");
    let tid = format!("tr-{id:08}.0");
    assert_eq!(record.get_u64("job_id"), Some(id), "{body}");
    assert_eq!(record.get_str("trace_id"), Some(tid.as_str()), "{body}");
    assert_eq!(record.get_u64("dropped"), Some(0), "{body}");

    // Golden exposition shape: fixed field order per event, the known
    // lifecycle details verbatim.
    assert!(
        body.contains(&format!(r#"{{"trace_id":"{tid}","seq":0,"micros":"#)),
        "first event leads with trace_id then seq: {body}"
    );
    assert!(body.contains(r#""kind":"submitted","detail":"tenant=golden priority=0"}"#), "{body}");
    assert!(body.contains(r#""kind":"queued","detail":"depth=1"}"#), "{body}");
    assert!(body.contains(r#""kind":"claimed""#), "{body}");
    assert!(body.contains(r#""detail":"steps_done=3"}"#), "progress landed: {body}");

    // Structural invariants: dense seq from 0, nondecreasing time,
    // lifecycle order, terminal event last.
    let events = match record.get("events") {
        Some(JsonValue::Raw(raw)) => parse_object_array(raw).expect("events array"),
        other => panic!("events missing: {other:?}"),
    };
    assert!(events.len() >= 5, "submitted/queued/claimed/steps/done: {body}");
    let kinds: Vec<&str> = events.iter().map(|e| e.get_str("kind").unwrap()).collect();
    assert_eq!(&kinds[..3], &["submitted", "queued", "claimed"], "{kinds:?}");
    assert_eq!(*kinds.last().unwrap(), "done", "{kinds:?}");
    assert!(kinds.contains(&"synth"), "synthesis decisions traced: {kinds:?}");
    let mut last_micros = 0;
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.get_u64("seq"), Some(i as u64), "dense seq at {i}");
        let micros = e.get_u64("micros").expect("micros");
        assert!(micros >= last_micros, "time goes forward at {i}");
        last_micros = micros;
    }
    let done = events.last().unwrap().get_str("detail").unwrap();
    assert!(done.contains("best_cost=") && done.contains("steps_done=3"), "{done}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_event_stream_matches_stored_trace_byte_for_byte() {
    let dir = tmpdir("stream");
    let (server, addr) = start(&dir, 1);
    let id = submit(&addr, r#"{"bits":4,"method":"sa","steps":200,"seed":21,"tenant":"s"}"#);

    // Follow the stream while the job runs; the reader thread blocks
    // until the trace closes at the terminal transition.
    let stream_addr = addr.clone();
    let reader =
        std::thread::spawn(move || http_stream(&stream_addr, &format!("/jobs/{id}/events")));
    wait_for_state(&addr, id, "done", 180);
    let (code, streamed) = reader.join().expect("stream reader");
    assert_eq!(code, 200);

    let (code, body) = http_call(&addr, "GET", &format!("/jobs/{id}/trace"), "").unwrap();
    assert_eq!(code, 200, "{body}");
    let record = parse_object(body.as_bytes()).expect("trace body parses");
    let stored_events = match record.get("events") {
        Some(JsonValue::Raw(raw)) => raw.clone(),
        other => panic!("events missing: {other:?}"),
    };

    // Event-for-event byte identity: joining the stream's lines with
    // commas reconstructs the stored events array exactly — same IDs,
    // same seq order, same rendering.
    let lines: Vec<&str> = streamed.lines().collect();
    assert!(!lines.is_empty(), "stream delivered events");
    assert_eq!(format!("[{}]", lines.join(",")), stored_events);

    // And the stream is valid JSONL on its own.
    for line in &lines {
        let o = parse_object(line.as_bytes()).expect("stream line parses");
        assert_eq!(o.get_str("trace_id"), Some(format!("tr-{id:08}.0").as_str()));
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancelled_while_queued_trace_is_complete_and_durable() {
    let dir = tmpdir("cancelq");
    let (server, addr) = start(&dir, 1);
    // Occupy the single worker so the second job stays queued.
    // It must outlast the queued job's cancel: 4000 steps, checkpointed
    // every 10, run about 0.75 s in a release build on 2 cores (300
    // took 12 ms), against the one 20 ms poll before the cancel.
    let busy = submit(&addr, r#"{"bits":4,"steps":4000,"seed":1}"#);
    let queued = submit(&addr, r#"{"bits":4,"steps":5,"seed":2}"#);
    wait_for_state(&addr, busy, "running", 60);
    let (code, _) = http_call(&addr, "DELETE", &format!("/jobs/{queued}"), "").unwrap();
    assert_eq!(code, 200);

    let (code, body) = http_call(&addr, "GET", &format!("/jobs/{queued}/trace"), "").unwrap();
    assert_eq!(code, 200, "{body}");
    let record = parse_object(body.as_bytes()).unwrap();
    let events = match record.get("events") {
        Some(JsonValue::Raw(raw)) => parse_object_array(raw).unwrap(),
        other => panic!("events missing: {other:?}"),
    };
    let kinds: Vec<&str> = events.iter().map(|e| e.get_str("kind").unwrap()).collect();
    assert_eq!(kinds, ["submitted", "queued", "cancelled"], "{body}");

    // A terminal trace streams in full and ends immediately.
    let (code, streamed) = http_stream(&addr, &format!("/jobs/{queued}/events"));
    assert_eq!(code, 200);
    assert_eq!(streamed.lines().count(), 3, "{streamed}");

    // Unblock the worker.
    let (_, _) = http_call(&addr, "POST", &format!("/jobs/{busy}/cancel"), "").unwrap();
    wait_for_state(&addr, busy, "cancelled", 120);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_routes_error_contract() {
    let dir = tmpdir("errors");
    let (server, addr) = start(&dir, 1);
    for (path, want) in
        [("/jobs/999/trace", 404), ("/jobs/999/events", 404), ("/jobs/xyz/trace", 400)]
    {
        let (code, payload) = http_call(&addr, "GET", path, "").unwrap();
        assert_eq!(code, want, "GET {path}: {payload}");
        assert!(payload.contains("\"error\""), "GET {path}: {payload}");
    }
    // The index advertises the trace routes.
    let (_, index) = http_call(&addr, "GET", "/", "").unwrap();
    assert!(index.contains("GET /jobs/<id>/trace"), "{index}");
    assert!(index.contains("GET /jobs/<id>/events"), "{index}");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
