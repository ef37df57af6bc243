//! The HTTP API of the job server. Every route, status code and
//! example body is documented in DESIGN.md §16; this module is the
//! implementation, one function per route family.
//!
//! Routing contract:
//!
//! | Route                    | Method      | Success | Errors              |
//! |--------------------------|-------------|---------|---------------------|
//! | `/`                      | GET         | 200     | 405                 |
//! | `/healthz`               | GET         | 200     | 405                 |
//! | `/metrics`               | GET         | 200     | 405                 |
//! | `/jobs`                  | POST        | 201/200 | 400, 405, 503       |
//! | `/jobs`                  | GET         | 200     | 405                 |
//! | `/jobs/<id>`             | GET         | 200     | 400, 404, 405       |
//! | `/jobs/<id>`             | DELETE      | 200/202 | 400, 404, 409       |
//! | `/jobs/<id>/result`      | GET         | 200     | 400, 404, 409       |
//! | `/jobs/<id>/cancel`      | POST        | 200/202 | 400, 404, 409       |
//! | `/jobs/<id>/trace`       | GET         | 200     | 400, 404            |
//! | `/jobs/<id>/events`      | GET (chunked stream) | 200 | 400, 404       |
//!
//! This file is on the request path and therefore panic-free (the
//! repo's `panic-path` source lint enforces it); anything unexpected
//! degrades to a 4xx/5xx answer, never a dead serving thread.

use crate::job::{JobSpec, JobState};
use crate::server::{CancelOutcome, Inner};
use crate::trace::render_event;
use rlmul_obs::json::{json_array, parse_object, JsonBuilder};
use rlmul_obs::{render_prometheus, Handler, HttpRequest, HttpResponse, StreamBody};
use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

/// Builds the daemon's request handler over the shared state.
pub(crate) fn router(inner: Arc<Inner>) -> Handler {
    Arc::new(move |req| route(&inner, req))
}

fn route(inner: &Arc<Inner>, req: &HttpRequest) -> HttpResponse {
    let path = req.path.split('?').next().unwrap_or("");
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", []) => index(),
        ("GET", ["healthz"]) => healthz(inner),
        ("GET", ["metrics"]) => HttpResponse {
            status: "200 OK",
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: render_prometheus(inner.registry()),
            stream: None,
        },
        ("POST", ["jobs"]) => submit(inner, &req.body),
        ("GET", ["jobs"]) => list(inner),
        ("GET", ["jobs", id]) => with_id(id, |id| status(inner, id)),
        ("DELETE", ["jobs", id]) => with_id(id, |id| cancel(inner, id)),
        ("GET", ["jobs", id, "result"]) => with_id(id, |id| result(inner, id)),
        ("POST", ["jobs", id, "cancel"]) => with_id(id, |id| cancel(inner, id)),
        ("GET", ["jobs", id, "trace"]) => with_id(id, |id| trace(inner, id)),
        ("GET", ["jobs", id, "events"]) => with_id(id, |id| events(inner, id)),
        ("GET" | "POST" | "DELETE", _) => error("404 Not Found", "no such route"),
        _ => error("405 Method Not Allowed", "unsupported method"),
    }
}

/// Uniform error body: `{"error": "..."}`.
fn error(status: &'static str, message: &str) -> HttpResponse {
    HttpResponse::json(status, JsonBuilder::new().str("error", message).build())
}

/// Parses a path id segment, answering 400 for non-numeric ids.
fn with_id(raw: &str, f: impl FnOnce(u64) -> HttpResponse) -> HttpResponse {
    match raw.parse::<u64>() {
        Ok(id) => f(id),
        Err(_) => error("400 Bad Request", &format!("job id `{raw}` is not a number")),
    }
}

/// `GET /` — service index.
fn index() -> HttpResponse {
    let routes = [
        "GET /healthz",
        "GET /metrics",
        "POST /jobs",
        "GET /jobs",
        "GET /jobs/<id>",
        "GET /jobs/<id>/result",
        "GET /jobs/<id>/trace",
        "GET /jobs/<id>/events",
        "POST /jobs/<id>/cancel",
        "DELETE /jobs/<id>",
    ];
    let rendered: Vec<String> =
        routes.iter().map(|r| JsonBuilder::new().str("route", r).build()).collect();
    HttpResponse::json(
        "200 OK",
        JsonBuilder::new()
            .str("service", "rlmul-serve")
            .raw("routes", &json_array(&rendered))
            .build(),
    )
}

/// `GET /healthz` — liveness plus coarse load.
fn healthz(inner: &Inner) -> HttpResponse {
    let jobs = inner.list_jobs();
    let running = jobs.iter().filter(|(r, _)| r.state == JobState::Running).count();
    let queued = jobs.iter().filter(|(r, _)| r.state == JobState::Queued).count();
    HttpResponse::json(
        "200 OK",
        JsonBuilder::new()
            .bool("ok", true)
            .bool("shutting_down", inner.is_shutting_down())
            .u64("jobs", jobs.len() as u64)
            .u64("running", running as u64)
            .u64("queued", queued as u64)
            .build(),
    )
}

/// `POST /jobs` — submit. 201 on creation, 200 when the idempotency
/// key matched an existing job, 400 on a bad body, 503 while
/// draining.
fn submit(inner: &Inner, body: &[u8]) -> HttpResponse {
    let parsed = match parse_object(body) {
        Ok(o) => o,
        Err(e) => return error("400 Bad Request", &format!("bad JSON body: {e}")),
    };
    let spec = match JobSpec::from_json(&parsed) {
        Ok(s) => s,
        Err(e) => return error("400 Bad Request", &e),
    };
    match inner.submit(spec) {
        Ok((id, created)) => {
            let status = if created { "201 Created" } else { "200 OK" };
            match inner.snapshot_job(id) {
                Some((record, progress)) => HttpResponse::json(status, record.render(progress)),
                None => error("500 Internal Server Error", "job vanished after submit"),
            }
        }
        Err(reason) => error("503 Service Unavailable", reason),
    }
}

/// `GET /jobs` — every job, id-ordered.
fn list(inner: &Inner) -> HttpResponse {
    let rendered: Vec<String> =
        inner.list_jobs().iter().map(|(record, progress)| record.render(*progress)).collect();
    HttpResponse::json(
        "200 OK",
        JsonBuilder::new()
            .u64("count", rendered.len() as u64)
            .raw("jobs", &json_array(&rendered))
            .build(),
    )
}

/// `GET /jobs/<id>` — one job's full status.
fn status(inner: &Inner, id: u64) -> HttpResponse {
    match inner.snapshot_job(id) {
        Some((record, progress)) => HttpResponse::json("200 OK", record.render(progress)),
        None => error("404 Not Found", &format!("no job {id}")),
    }
}

/// `GET /jobs/<id>/result` — the result summary, only once `Done`
/// (409 with the current state otherwise, so pollers can
/// distinguish "not yet" from "never").
fn result(inner: &Inner, id: u64) -> HttpResponse {
    let Some((record, _)) = inner.snapshot_job(id) else {
        return error("404 Not Found", &format!("no job {id}"));
    };
    match (&record.state, &record.result) {
        (JobState::Done, Some(r)) => HttpResponse::json(
            "200 OK",
            JsonBuilder::new().u64("id", id).raw("result", &r.render()).build(),
        ),
        _ => error(
            "409 Conflict",
            &format!("job {id} is {}, result requires done", record.state.as_str()),
        ),
    }
}

/// `GET /jobs/<id>/trace` — the job's full structured timeline: the
/// durable record for terminal jobs, a live snapshot otherwise. Each
/// element of `events` is byte-identical to the corresponding
/// `/events` stream line.
fn trace(inner: &Inner, id: u64) -> HttpResponse {
    match inner.trace_snapshot(id) {
        Some(record) => HttpResponse::json("200 OK", record.render()),
        None => error("404 Not Found", &format!("no job {id}")),
    }
}

/// `GET /jobs/<id>/events` — the job's event timeline as a chunked
/// live stream, one JSON object per line. Events already recorded
/// arrive immediately; the stream then follows the job until its
/// trace closes at the terminal transition (or the daemon drains).
/// For jobs recovered already-terminal the durable trace streams in
/// full and the stream ends.
fn events(inner: &Arc<Inner>, id: u64) -> HttpResponse {
    let Some((ctx, stored)) = inner.trace_stream(id) else {
        return error("404 Not Found", &format!("no job {id}"));
    };
    let shutdown_probe = Arc::clone(inner);
    let stream: StreamBody = Arc::new(move |w: &mut dyn Write| {
        if let Some(record) = &stored {
            for e in &record.events {
                w.write_all(render_event(&record.trace_id, e).as_bytes())?;
                w.write_all(b"\n")?;
            }
            return Ok(());
        }
        let trace_id = ctx.trace_id().unwrap_or_default().to_string();
        let mut from = 0u64;
        loop {
            // The wait is bounded so a drain (which leaves running
            // jobs' traces open for the next daemon) still ends the
            // stream promptly.
            let Some((batch, closed)) = ctx.events_since(from, Duration::from_millis(500)) else {
                return Ok(()); // disabled context: nothing to stream
            };
            if let Some(last) = batch.last() {
                from = last.seq + 1;
            }
            for e in &batch {
                w.write_all(render_event(&trace_id, e).as_bytes())?;
                w.write_all(b"\n")?;
            }
            if batch.is_empty() && (closed || shutdown_probe.is_shutting_down()) {
                return Ok(());
            }
            w.flush()?;
        }
    });
    HttpResponse::streaming("200 OK", "application/jsonl", stream)
}

/// `POST /jobs/<id>/cancel` and `DELETE /jobs/<id>` — cancellation.
/// 200 when the job was still queued (now terminal), 202 when the
/// running job's stop flag was raised (terminal state follows), 409
/// when already terminal.
fn cancel(inner: &Inner, id: u64) -> HttpResponse {
    match inner.cancel(id) {
        CancelOutcome::WhileQueued => answer_cancel(inner, id, "200 OK"),
        CancelOutcome::WhileRunning => answer_cancel(inner, id, "202 Accepted"),
        CancelOutcome::Terminal(state) => {
            error("409 Conflict", &format!("job {id} is already {}", state.as_str()))
        }
        CancelOutcome::Unknown => error("404 Not Found", &format!("no job {id}")),
    }
}

fn answer_cancel(inner: &Inner, id: u64, status: &'static str) -> HttpResponse {
    match inner.snapshot_job(id) {
        Some((record, progress)) => HttpResponse::json(status, record.render(progress)),
        None => error("404 Not Found", &format!("no job {id}")),
    }
}
