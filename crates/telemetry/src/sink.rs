//! The non-blocking ring-buffered JSONL writer.

use crate::event::Event;
use rlmul_check::sync::{spawn_named, Condvar, JoinHandle, Mutex};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default ring capacity: enough for thousands of episode events
/// between drains while bounding worst-case memory to a few MiB.
const DEFAULT_CAPACITY: usize = 8192;

#[derive(Debug, Default)]
struct RingState {
    queue: VecDeque<String>,
    /// Writer shutdown requested.
    closing: bool,
    /// Flush barrier: generation counters so `flush` can wait for
    /// exactly the records enqueued before it was called. A record is
    /// *resolved* once handed to the writer or discarded by the
    /// overflow policy — both must count, or a flush racing an
    /// overflow would wait forever for a record that no longer
    /// exists.
    enqueued: u64,
    resolved: u64,
    /// Deepest the queue ever got — the buffer high-water mark
    /// reported by the final `writer_stats` record.
    hwm: u64,
}

#[derive(Debug)]
struct Ring {
    state: Mutex<RingState>,
    /// Signals the writer thread that records (or shutdown) arrived.
    work: Condvar,
    /// Signals flushers that the written generation advanced.
    drained: Condvar,
    capacity: usize,
    /// Records discarded because the ring was full.
    dropped: AtomicU64,
    /// Monotonic sequence number stamped into every record.
    seq: AtomicU64,
}

/// Cheaply cloneable emit handle.
///
/// The environment, the agents, the SA driver and the bench runner
/// all hold one of these. Emitting through a disabled sink is one
/// branch; emitting through an active sink serializes the event on
/// the caller's thread and pushes the line into the ring without ever
/// blocking on I/O — a full ring drops the oldest line and counts it
/// instead of stalling the training loop.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    ring: Option<Arc<Ring>>,
}

impl TelemetrySink {
    /// A sink that discards everything (the default for library
    /// entry points not wired to a writer).
    pub fn disabled() -> Self {
        TelemetrySink { ring: None }
    }

    /// Whether events emitted here reach a writer.
    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Emits one event. Never blocks on I/O; see the type docs for
    /// the overflow policy.
    pub fn emit(&self, event: Event) {
        let Some(ring) = &self.ring else { return };
        // Serialize on the caller's thread, but stamp the sequence
        // number under the ring lock: drawing it from the atomic
        // before acquiring the lock let two racing emitters enqueue
        // in the opposite order of their seq values, so the log was
        // not sorted by "seq". Splicing the field in keeps the
        // serialized bytes identical to building the event with it.
        let mut line = event.to_json();
        let mut state = ring.state.lock();
        if state.closing {
            return;
        }
        let seq = ring.seq.fetch_add(1, Ordering::Relaxed);
        line.truncate(line.len() - 1);
        let _ = write!(line, ",\"seq\":{seq}}}");
        let mut overflowed = false;
        if state.queue.len() >= ring.capacity {
            // Ring overflow: drop the *oldest* record — the tail of a
            // run matters more than its middle when diagnosing.
            state.queue.pop_front();
            state.resolved += 1;
            ring.dropped.fetch_add(1, Ordering::Relaxed);
            overflowed = true;
        }
        state.queue.push_back(line);
        state.enqueued += 1;
        state.hwm = state.hwm.max(state.queue.len() as u64);
        drop(state);
        ring.work.notify_one();
        if overflowed {
            ring.drained.notify_all();
        }
    }

    /// Records dropped so far due to ring overflow (0 for a disabled
    /// sink).
    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.dropped.load(Ordering::Relaxed))
    }

    /// Blocks until every record emitted before this call has been
    /// handed to the underlying writer. A no-op on disabled sinks.
    pub fn flush(&self) {
        let Some(ring) = &self.ring else { return };
        let mut state = ring.state.lock();
        let target = state.enqueued;
        while state.resolved < target && !state.closing {
            state = ring.drained.wait(state);
        }
    }
}

/// Owning side of a telemetry stream: spawns the background writer
/// thread and joins it (draining every queued record) on [`close`] or
/// drop.
///
/// [`close`]: TelemetryWriter::close
#[derive(Debug)]
pub struct TelemetryWriter {
    ring: Arc<Ring>,
    handle: Option<JoinHandle<io::Result<()>>>,
}

impl TelemetryWriter {
    /// A writer appending JSONL to the file at `path` (created, along
    /// with missing parent directories, if necessary), plus the sink
    /// feeding it.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<(Self, TelemetrySink)> {
        let path = path.as_ref();
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let file = File::options().create(true).append(true).open(path)?;
        Ok(Self::from_output(Box::new(BufWriter::new(file)), DEFAULT_CAPACITY))
    }

    /// A writer over any byte sink with an explicit ring capacity
    /// (test hook and building block for custom transports).
    pub fn from_output(output: Box<dyn Write + Send>, capacity: usize) -> (Self, TelemetrySink) {
        let ring = Arc::new(Ring {
            state: Mutex::new("telemetry.ring", RingState::default()),
            work: Condvar::new("telemetry.ring.work"),
            drained: Condvar::new("telemetry.ring.drained"),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        });
        let thread_ring = ring.clone();
        let handle = spawn_named("rlmul-telemetry", move || writer_loop(&thread_ring, output));
        let sink = TelemetrySink { ring: Some(ring.clone()) };
        (TelemetryWriter { ring, handle: Some(handle) }, sink)
    }

    /// Number of records dropped to ring overflow.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped.load(Ordering::Relaxed)
    }

    /// Drains the ring, stops the writer thread and returns its I/O
    /// result. Sinks left alive keep accepting `emit` calls but
    /// silently discard them afterwards.
    ///
    /// # Errors
    ///
    /// Returns the first write/flush error the background thread hit.
    pub fn close(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let Some(handle) = self.handle.take() else { return Ok(()) };
        {
            let mut state = self.ring.state.lock();
            state.closing = true;
            drop(state);
        }
        self.ring.work.notify_all();
        self.ring.drained.notify_all();
        handle.join().expect("telemetry writer panicked")
    }
}

impl Drop for TelemetryWriter {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

fn writer_loop(ring: &Ring, mut output: Box<dyn Write + Send>) -> io::Result<()> {
    let mut result: io::Result<()> = Ok(());
    let mut written = 0u64;
    loop {
        let batch: Vec<String> = {
            let mut state = ring.state.lock();
            while state.queue.is_empty() && !state.closing {
                state = ring.work.wait(state);
            }
            if state.queue.is_empty() && state.closing {
                break;
            }
            state.queue.drain(..).collect()
        };
        let n = batch.len() as u64;
        if result.is_ok() {
            for line in &batch {
                if let Err(e) =
                    output.write_all(line.as_bytes()).and_then(|()| output.write_all(b"\n"))
                {
                    // Keep draining (so flush/close never wedge) but
                    // remember the first failure.
                    result = Err(e);
                    break;
                }
                written += 1;
            }
            if result.is_ok() {
                result = result.and(output.flush());
            }
        }
        let mut state = ring.state.lock();
        state.resolved += n;
        drop(state);
        ring.drained.notify_all();
    }
    // Final health record: without it, records silently discarded by
    // the overflow policy would leave no trace in the log itself.
    // Written after the drain so it is always the last line.
    if result.is_ok() {
        let hwm = ring.state.lock().hwm;
        let stats = Event::new("writer_stats")
            .with("written", written)
            .with("dropped", ring.dropped.load(Ordering::Relaxed))
            .with("buffer_hwm", hwm)
            .with("seq", ring.seq.fetch_add(1, Ordering::Relaxed));
        result =
            output.write_all(stats.to_json().as_bytes()).and_then(|()| output.write_all(b"\n"));
    }
    result.and(output.flush())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Write sink shared with the test through an Arc<Mutex<_>>.
    #[derive(Clone, Default)]
    struct Shared(Arc<std::sync::Mutex<Vec<u8>>>);
    impl Write for Shared {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_reach_the_output_in_order_with_sequence_numbers() {
        let out = Shared::default();
        let (writer, sink) = TelemetryWriter::from_output(Box::new(out.clone()), 64);
        for i in 0..10u64 {
            sink.emit(Event::new("tick").with("i", i));
        }
        sink.flush();
        writer.close().unwrap();
        let bytes = out.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 11, "10 events + the final writer_stats record");
        for (i, line) in lines.iter().take(10).enumerate() {
            let e = Event::parse_json(line).unwrap();
            assert_eq!(e.get_u64("i"), Some(i as u64));
            assert_eq!(e.get_u64("seq"), Some(i as u64));
        }
        let stats = Event::parse_json(lines[10]).unwrap();
        assert_eq!(stats.kind(), "writer_stats");
        assert_eq!(stats.get_u64("written"), Some(10));
        assert_eq!(stats.get_u64("dropped"), Some(0));
        assert!(stats.get_u64("buffer_hwm").unwrap() >= 1);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let out = Shared::default();
        let (writer, sink) = TelemetryWriter::from_output(Box::new(out.clone()), 4);
        // Emit far more than capacity quickly; the writer drains some,
        // but with a burst this large against a 4-slot ring overflows
        // are certain. Nothing may block, and written + dropped must
        // account for every emit.
        for i in 0..10_000u64 {
            sink.emit(Event::new("burst").with("i", i));
        }
        sink.flush();
        let dropped = sink.dropped();
        writer.close().unwrap();
        let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<_> = text.lines().collect();
        let written = (lines.len() - 1) as u64; // minus the writer_stats record
        assert_eq!(written + dropped, 10_000);
        // The final data record always survives (drop-oldest policy).
        let last_data = Event::parse_json(lines[lines.len() - 2]).unwrap();
        assert_eq!(last_data.get_u64("i"), Some(9_999));
        // The trailing writer_stats record accounts for the loss.
        let stats = Event::parse_json(lines[lines.len() - 1]).unwrap();
        assert_eq!(stats.kind(), "writer_stats");
        assert_eq!(stats.get_u64("written"), Some(written));
        assert_eq!(stats.get_u64("dropped"), Some(dropped));
        assert_eq!(stats.get_u64("buffer_hwm"), Some(4), "4-slot ring must have filled");
    }

    #[test]
    fn disabled_sink_is_a_no_op() {
        let sink = TelemetrySink::disabled();
        sink.emit(Event::new("x"));
        sink.flush();
        assert_eq!(sink.dropped(), 0);
        assert!(!sink.is_enabled());
    }

    #[test]
    fn close_drains_pending_records() {
        let out = Shared::default();
        let (writer, sink) = TelemetryWriter::from_output(Box::new(out.clone()), 1024);
        for i in 0..100u64 {
            sink.emit(Event::new("tick").with("i", i));
        }
        // No flush: close alone must drain everything emitted so far.
        writer.close().unwrap();
        let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 101, "100 events + writer_stats");
    }
}
