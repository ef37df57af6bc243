//! The load-test harness: N synthetic clients submitting, polling and
//! cancelling jobs against a live daemon, publishing throughput and
//! latency percentiles.
//!
//! Driven by `rlmul loadtest` (against any address) and by the
//! `bench_serve` binary (which starts an in-process daemon, runs the
//! harness, and writes `results/BENCH_serve.json`). Clients speak the
//! real wire protocol over `TcpStream` — no shortcuts through the
//! server's in-process API — so the measured latencies include
//! request parsing, routing and response rendering.

use crate::json::{parse_object, JsonBuilder};
use rlmul_check::sync::spawn_named;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Load-harness configuration (`rlmul loadtest` flags map onto this).
#[derive(Debug, Clone)]
pub struct LoadtestConfig {
    /// Daemon address, e.g. `127.0.0.1:7171`.
    pub addr: String,
    /// Concurrent synthetic clients.
    pub clients: usize,
    /// Jobs each client submits (sequentially).
    pub jobs_per_client: usize,
    /// Operand width of the submitted jobs.
    pub bits: usize,
    /// Environment steps per job (SA; small keeps the harness fast).
    pub steps: usize,
    /// Cancel every k-th job right after submission (0 = never), so
    /// the cancel paths see load too.
    pub cancel_every: usize,
    /// Poll interval while waiting for a job to turn terminal.
    pub poll_ms: u64,
    /// Per-job wait budget before the client records an error.
    pub timeout_secs: u64,
}

impl Default for LoadtestConfig {
    fn default() -> Self {
        LoadtestConfig {
            addr: "127.0.0.1:7171".into(),
            clients: 4,
            jobs_per_client: 4,
            bits: 4,
            steps: 4,
            cancel_every: 3,
            poll_ms: 20,
            timeout_secs: 300,
        }
    }
}

/// p50/p95/p99/max over one latency population, in milliseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observation.
    pub max_ms: f64,
    /// Population size.
    pub count: usize,
}

/// Nearest-rank (ceil) percentile over an **ascending-sorted**
/// sample: the smallest observation such that at least `q` of the
/// population is ≤ it. Safe for any population size — including the
/// tiny ones a short harness run produces, where `N = 1` must return
/// the single observation for every quantile (a naive
/// `q * N as usize` index computes rank 0 and either panics or reads
/// the wrong element).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // ceil(q·N) is in [1, N] for q in (0, 1]; the clamp additionally
    // covers q = 0 (rank 0) and float rounding at either edge.
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl LatencySummary {
    /// Summarizes a population of millisecond samples (all zeros for
    /// an empty one).
    pub fn of(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        LatencySummary {
            p50_ms: percentile(&samples, 0.50),
            p95_ms: percentile(&samples, 0.95),
            p99_ms: percentile(&samples, 0.99),
            max_ms: samples[samples.len() - 1],
            count: samples.len(),
        }
    }

    fn render(&self) -> String {
        JsonBuilder::new()
            .f64("p50_ms", self.p50_ms)
            .f64("p95_ms", self.p95_ms)
            .f64("p99_ms", self.p99_ms)
            .f64("max_ms", self.max_ms)
            .u64("count", self.count as u64)
            .build()
    }
}

/// What the harness measured.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Jobs the clients submitted.
    pub submitted: usize,
    /// Jobs observed `done`.
    pub done: usize,
    /// Jobs observed `cancelled`.
    pub cancelled: usize,
    /// Jobs observed `failed`.
    pub failed: usize,
    /// Client-side errors: transport failures, unexpected statuses,
    /// or per-job timeouts.
    pub errors: usize,
    /// Wall time of the whole run in seconds.
    pub elapsed_secs: f64,
    /// Terminal jobs per second of wall time.
    pub jobs_per_sec: f64,
    /// `POST /jobs` round-trip latency.
    pub submit: LatencySummary,
    /// `GET /jobs/<id>` round-trip latency.
    pub status: LatencySummary,
    /// Submission → first terminal observation.
    pub end_to_end: LatencySummary,
    /// TCP connections the clients opened.
    pub conns_opened: usize,
    /// Requests served over an already-open (kept-alive) connection.
    pub conns_reused: usize,
}

impl LoadReport {
    /// Renders the report as the `results/BENCH_serve.json` document.
    pub fn render_json(&self, cfg: &LoadtestConfig) -> String {
        let config = JsonBuilder::new()
            .u64("clients", cfg.clients as u64)
            .u64("jobs_per_client", cfg.jobs_per_client as u64)
            .u64("bits", cfg.bits as u64)
            .u64("steps", cfg.steps as u64)
            .u64("cancel_every", cfg.cancel_every as u64)
            .build();
        JsonBuilder::new()
            .str("bench", "serve")
            .raw("config", &config)
            .u64("submitted", self.submitted as u64)
            .u64("done", self.done as u64)
            .u64("cancelled", self.cancelled as u64)
            .u64("failed", self.failed as u64)
            .u64("errors", self.errors as u64)
            .f64("elapsed_secs", self.elapsed_secs)
            .f64("jobs_per_sec", self.jobs_per_sec)
            .u64("conns_opened", self.conns_opened as u64)
            .u64("conns_reused", self.conns_reused as u64)
            .raw("submit", &self.submit.render())
            .raw("status", &self.status.render())
            .raw("end_to_end", &self.end_to_end.render())
            .build()
    }
}

/// One raw HTTP/1.1 exchange (`Connection: close` protocol, matching
/// the server).
///
/// # Errors
///
/// Transport failures, or a response without a parsable status line.
pub fn http_call(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let mut stream = connect(addr)?;
    stream.write_all(request(method, path, "", body).as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let code: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status line"))?;
    let payload = response.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    Ok((code, payload))
}

/// A persistent HTTP/1.1 client: sends `Connection: keep-alive` and
/// reuses one TCP connection across sequential requests, reconnecting
/// transparently when the server closes it (the server bounds reuse
/// at 64 requests per connection). Responses are framed by
/// `Content-Length`, so the client never has to read to EOF.
pub struct HttpClient {
    addr: String,
    stream: Option<TcpStream>,
    /// TCP connections opened over the client's lifetime.
    pub conns_opened: usize,
    /// Requests served over an already-open connection.
    pub conns_reused: usize,
}

impl HttpClient {
    /// A client for the daemon at `addr`; connects lazily.
    pub fn new(addr: &str) -> Self {
        HttpClient { addr: addr.to_string(), stream: None, conns_opened: 0, conns_reused: 0 }
    }

    /// One request/response exchange, reusing the open connection
    /// when possible. A send failure on a reused connection (the
    /// server closed it between requests) retries once on a fresh
    /// one.
    ///
    /// # Errors
    ///
    /// Transport failures, or a response without a parsable status
    /// line.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        if self.stream.is_some() {
            match self.exchange(method, path, body) {
                Ok(answer) => {
                    self.conns_reused += 1;
                    return Ok(answer);
                }
                Err(_) => self.stream = None, // stale connection; retry fresh
            }
        }
        self.stream = Some(connect(&self.addr)?);
        self.conns_opened += 1;
        self.exchange(method, path, body).inspect_err(|_| self.stream = None)
    }

    /// Writes one request and reads one `Content-Length`-framed
    /// response on the currently open connection.
    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let stream = self
            .stream
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotConnected, "no connection"))?;
        stream.write_all(request(method, path, "Connection: keep-alive\r\n", body).as_bytes())?;
        let (head, payload) = read_framed_response(stream)?;
        let code: u16 = head
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.split(' ').next())
            .and_then(|c| c.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status line"))?;
        if !header_value(&head, "connection").is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"))
        {
            self.stream = None; // server asked to close; honor it
        }
        Ok((code, payload))
    }
}

/// Opens a client connection with `TCP_NODELAY` set and 10 s I/O
/// timeouts.
fn connect(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    Ok(stream)
}

/// Frames one request into a single buffer, so it leaves in one
/// write: a request split over several small writes stalls on
/// Nagle's algorithm against the peer's delayed ACK.
fn request(method: &str, path: &str, headers: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: loadtest\r\n{headers}\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Reads one response head plus its `Content-Length` body, leaving the
/// connection positioned at the next response.
fn read_framed_response(stream: &mut TcpStream) -> io::Result<(String, String)> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        if buf.len() > 64 * 1024 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "response head too large"));
        }
        stream.read_exact(&mut byte)?;
        buf.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&buf).into_owned();
    let len: usize = header_value(&head, "content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no content-length"))?;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body)?;
    Ok((head, String::from_utf8_lossy(&body).into_owned()))
}

/// The value of the first `name:` header in `head` (case-insensitive
/// name), trimmed.
fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

/// Per-client measurement bundle, merged by the harness.
#[derive(Debug, Default)]
struct ClientStats {
    submitted: usize,
    done: usize,
    cancelled: usize,
    failed: usize,
    errors: usize,
    conns_opened: usize,
    conns_reused: usize,
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    e2e_ms: Vec<f64>,
}

/// Runs the harness against a live daemon at `cfg.addr` and merges
/// every client's measurements.
///
/// # Errors
///
/// Currently infallible at the harness level (client-side failures
/// are counted in [`LoadReport::errors`]); the `Result` keeps the
/// signature stable for future setup steps.
pub fn run_loadtest(cfg: &LoadtestConfig) -> io::Result<LoadReport> {
    let started = Instant::now();
    let handles: Vec<_> = (0..cfg.clients.max(1))
        .map(|c| {
            let cfg = cfg.clone();
            spawn_named(&format!("loadtest-client-{c}"), move || run_client(&cfg, c))
        })
        .collect();
    let mut merged = ClientStats::default();
    for h in handles {
        if let Ok(stats) = h.join() {
            merged.submitted += stats.submitted;
            merged.done += stats.done;
            merged.cancelled += stats.cancelled;
            merged.failed += stats.failed;
            merged.errors += stats.errors;
            merged.conns_opened += stats.conns_opened;
            merged.conns_reused += stats.conns_reused;
            merged.submit_ms.extend(stats.submit_ms);
            merged.status_ms.extend(stats.status_ms);
            merged.e2e_ms.extend(stats.e2e_ms);
        } else {
            merged.errors += 1;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let terminal = merged.done + merged.cancelled + merged.failed;
    Ok(LoadReport {
        submitted: merged.submitted,
        done: merged.done,
        cancelled: merged.cancelled,
        failed: merged.failed,
        errors: merged.errors,
        elapsed_secs: elapsed,
        jobs_per_sec: if elapsed > 0.0 { terminal as f64 / elapsed } else { 0.0 },
        submit: LatencySummary::of(merged.submit_ms),
        status: LatencySummary::of(merged.status_ms),
        end_to_end: LatencySummary::of(merged.e2e_ms),
        conns_opened: merged.conns_opened,
        conns_reused: merged.conns_reused,
    })
}

fn run_client(cfg: &LoadtestConfig, client: usize) -> ClientStats {
    let mut stats = ClientStats::default();
    let mut http = HttpClient::new(&cfg.addr);
    for j in 0..cfg.jobs_per_client {
        let body = JsonBuilder::new()
            .u64("bits", cfg.bits as u64)
            .str("method", "sa")
            .u64("steps", cfg.steps as u64)
            .u64("seed", (client * cfg.jobs_per_client + j + 1) as u64)
            .u64("ckpt_every", 0)
            .str("tenant", &format!("load-{client}"))
            .u64("priority", (j % 3) as u64)
            .build();
        let t0 = Instant::now();
        let id = match http.call("POST", "/jobs", &body) {
            Ok((201, payload)) => {
                match parse_object(payload.as_bytes()).ok().and_then(|o| o.get_u64("id")) {
                    Some(id) => id,
                    None => {
                        stats.errors += 1;
                        continue;
                    }
                }
            }
            _ => {
                stats.errors += 1;
                continue;
            }
        };
        stats.submit_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        stats.submitted += 1;

        if cfg.cancel_every > 0 && (j + 1) % cfg.cancel_every == 0 {
            // 200 (still queued), 202 (running) and 409 (already
            // terminal) are all legitimate outcomes of a racy cancel.
            match http.call("POST", &format!("/jobs/{id}/cancel"), "") {
                Ok((200 | 202 | 409, _)) => {}
                _ => stats.errors += 1,
            }
        }

        // Poll until terminal or the per-job budget runs out.
        let deadline = t0 + Duration::from_secs(cfg.timeout_secs);
        loop {
            if Instant::now() > deadline {
                stats.errors += 1;
                break;
            }
            let tq = Instant::now();
            let state = match http.call("GET", &format!("/jobs/{id}"), "") {
                Ok((200, payload)) => parse_object(payload.as_bytes())
                    .ok()
                    .and_then(|o| o.get_str("state").map(str::to_owned)),
                _ => None,
            };
            stats.status_ms.push(tq.elapsed().as_secs_f64() * 1e3);
            match state.as_deref() {
                Some("done") => {
                    stats.done += 1;
                    stats.e2e_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                Some("cancelled") => {
                    stats.cancelled += 1;
                    stats.e2e_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                Some("failed") => {
                    stats.failed += 1;
                    stats.e2e_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    break;
                }
                _ => std::thread::sleep(Duration::from_millis(cfg.poll_ms)),
            }
        }
    }
    stats.conns_opened = http.conns_opened;
    stats.conns_reused = http.conns_reused;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles() {
        let s = LatencySummary::of((1..=100).map(|v| v as f64).collect());
        assert_eq!(s.p50_ms, 50.0);
        assert_eq!(s.p95_ms, 95.0);
        assert_eq!(s.p99_ms, 99.0);
        assert_eq!(s.max_ms, 100.0);
        assert_eq!(s.count, 100);
        assert_eq!(LatencySummary::of(vec![]), LatencySummary::default());
        let single = LatencySummary::of(vec![7.5]);
        assert_eq!((single.p50_ms, single.p99_ms, single.count), (7.5, 7.5, 1));
    }

    #[test]
    fn percentile_handles_tiny_samples() {
        // N = 1: every quantile is the single observation — the whole
        // point of the ceil-rank clamp.
        for q in [0.0, 0.01, 0.50, 0.95, 0.99, 1.0] {
            assert_eq!(percentile(&[42.0], q), 42.0, "q = {q}");
        }
        // N = 2: p50 is the first element (ceil(1.0) = 1), the upper
        // quantiles the second.
        assert_eq!(percentile(&[1.0, 2.0], 0.50), 1.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.95), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.99), 2.0);
        // N = 3: ceil-rank picks 2nd/3rd/3rd.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.50), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.95), 3.0);
        // Empty population degrades to zero, never an index panic.
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn report_renders_valid_flatish_json() {
        let report = LoadReport {
            submitted: 8,
            done: 6,
            cancelled: 2,
            failed: 0,
            errors: 0,
            elapsed_secs: 1.5,
            jobs_per_sec: 8.0 / 1.5,
            submit: LatencySummary::of(vec![1.0, 2.0]),
            status: LatencySummary::of(vec![0.5]),
            end_to_end: LatencySummary::of(vec![100.0, 200.0]),
            conns_opened: 4,
            conns_reused: 28,
        };
        let body = report.render_json(&LoadtestConfig::default());
        assert!(body.contains("\"bench\":\"serve\""), "{body}");
        assert!(body.contains("\"jobs_per_sec\":"), "{body}");
        assert!(body.contains("\"p95_ms\":"), "{body}");
        assert!(body.contains("\"submitted\":8"), "{body}");
        assert!(body.contains("\"conns_opened\":4"), "{body}");
        assert!(body.contains("\"conns_reused\":28"), "{body}");
    }
}
