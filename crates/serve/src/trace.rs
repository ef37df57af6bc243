//! Durable per-job traces: the persisted record and the shared JSON
//! rendering used by both the stored-trace route and the live event
//! stream.
//!
//! A job's [`rlmul_obs::TraceCtx`] accumulates its causally-ordered
//! event timeline in memory while the job runs. At every *terminal*
//! transition the server freezes the timeline into a [`TraceRecord`]
//! and persists it through the same atomic `rlmul-ckpt` path as the
//! job record (`jobs/trace-<id>.ckpt`, written under the table lock),
//! so `kill -9` after completion cannot lose a finished job's trace.
//!
//! Rendering is deliberately shared: `GET /jobs/:id/trace` renders a
//! stored (or live-snapshotted) record via [`TraceRecord::render`],
//! and `GET /jobs/:id/events` streams one [`render_event`] line per
//! event — the same function the stored render uses per element — so
//! a live stream observed during a run matches the stored trace
//! event-for-event, byte-for-byte.

use rlmul_ckpt::{CkptError, Decoder, Encoder, Record};
use rlmul_obs::json::{json_array, JsonBuilder};
use rlmul_obs::{TraceCtx, TraceEvent};

/// The snapshot-record kind tag every trace record carries on disk.
pub const TRACE_RECORD_KIND: &str = "trace";

/// Codec version of [`TraceRecord`]; bumped on layout changes so
/// stale files are rejected instead of misread.
const TRACE_RECORD_VERSION: u8 = 1;

/// A frozen per-job trace: the job's id, its trace ID
/// (`tr-<id>.<resumes>`), how many events the bounded buffer had to
/// drop, and the ordered event timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The job this trace belongs to.
    pub job_id: u64,
    /// The job-scoped trace ID (`tr-<id:08>.<resumes>`); the resume
    /// epoch changes when a daemon restart re-adopts the job.
    pub trace_id: String,
    /// Events refused by the bounded buffer (drop-newest policy, so
    /// the retained prefix is exact).
    pub dropped: u64,
    /// The causally-ordered timeline; `events[i].seq == i`.
    pub events: Vec<TraceEvent>,
}

impl TraceRecord {
    /// Freezes `ctx`'s current timeline into a record.
    pub fn from_ctx(job_id: u64, ctx: &TraceCtx) -> Self {
        TraceRecord {
            job_id,
            trace_id: ctx.trace_id().unwrap_or_default().to_string(),
            dropped: ctx.dropped(),
            events: ctx.snapshot(),
        }
    }

    /// Renders the full structured timeline as one JSON object — the
    /// `GET /jobs/:id/trace` body. Each element of `events` is
    /// exactly one [`render_event`] line, so the stored exposition
    /// and the live stream agree byte-for-byte per event.
    pub fn render(&self) -> String {
        let events: Vec<String> =
            self.events.iter().map(|e| render_event(&self.trace_id, e)).collect();
        JsonBuilder::new()
            .u64("job_id", self.job_id)
            .str("trace_id", &self.trace_id)
            .u64("dropped", self.dropped)
            .raw("events", &json_array(&events))
            .build()
    }
}

/// Renders one trace event as a JSON object string — one line of the
/// `GET /jobs/:id/events` stream, and one element of
/// [`TraceRecord::render`]'s `events` array.
pub fn render_event(trace_id: &str, e: &TraceEvent) -> String {
    JsonBuilder::new()
        .str("trace_id", trace_id)
        .u64("seq", e.seq)
        .u64("micros", e.micros)
        .str("kind", &e.kind)
        .str("detail", &e.detail)
        .build()
}

impl Record for TraceRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(TRACE_RECORD_VERSION);
        enc.put_u64(self.job_id);
        enc.put_str(&self.trace_id);
        enc.put_u64(self.dropped);
        enc.put_usize(self.events.len());
        for e in &self.events {
            enc.put_u64(e.seq);
            enc.put_u64(e.micros);
            enc.put_str(&e.kind);
            enc.put_str(&e.detail);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CkptError> {
        let version = dec.get_u8()?;
        if version != TRACE_RECORD_VERSION {
            return Err(CkptError::Invalid { what: format!("trace record version {version}") });
        }
        let job_id = dec.get_u64()?;
        let trace_id = dec.get_str()?;
        let dropped = dec.get_u64()?;
        let len = dec.get_len(32)?; // 2×u64 + two 8-byte string length prefixes
        let mut events = Vec::with_capacity(len);
        for _ in 0..len {
            events.push(TraceEvent {
                seq: dec.get_u64()?,
                micros: dec.get_u64()?,
                kind: dec.get_str()?,
                detail: dec.get_str()?,
            });
        }
        Ok(TraceRecord { job_id, trace_id, dropped, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlmul_obs::json::parse_object;

    fn sample() -> TraceRecord {
        let ctx = TraceCtx::new("tr-00000003.1");
        ctx.emit("submitted", "tenant=acme priority=2");
        ctx.emit("claimed", "worker pool");
        ctx.emit("step", "steps_done=1");
        TraceRecord::from_ctx(3, &ctx)
    }

    #[test]
    fn record_round_trips_through_codec() {
        let r = sample();
        assert_eq!(TraceRecord::from_bytes(&r.to_bytes()).unwrap(), r);
    }

    #[test]
    fn truncated_record_is_rejected() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(TraceRecord::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn rendered_trace_embeds_exact_event_lines() {
        let r = sample();
        let rendered = r.render();
        assert!(rendered.contains("\"trace_id\":\"tr-00000003.1\""), "{rendered}");
        // Every stream line appears verbatim inside the stored render.
        for e in &r.events {
            let line = render_event(&r.trace_id, e);
            assert!(rendered.contains(&line), "missing {line} in {rendered}");
            // And each line is itself a parseable flat object.
            let o = parse_object(line.as_bytes()).unwrap();
            assert_eq!(o.get_u64("seq"), Some(e.seq));
            assert_eq!(o.get_str("kind").unwrap(), e.kind);
        }
    }

    #[test]
    fn empty_trace_renders_and_round_trips() {
        let r = TraceRecord::from_ctx(9, &TraceCtx::disabled());
        assert_eq!(r.events.len(), 0);
        assert_eq!(TraceRecord::from_bytes(&r.to_bytes()).unwrap(), r);
        assert!(r.render().contains("\"events\":[]"), "{}", r.render());
    }
}
