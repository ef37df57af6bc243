//! Aggregation of JSONL run logs into the summary `rlmul report`
//! prints.

use crate::event::Event;
use std::collections::BTreeMap;

/// Running min/mean/max/last over a stream of samples.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl Stats {
    fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.count += 1;
        self.sum += x;
        self.last = x;
    }

    /// Number of finite samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Most recent sample (0 if empty).
    pub fn last(&self) -> f64 {
        self.last
    }
}

/// Per-phase accumulated wall time.
#[derive(Debug, Clone, Default)]
struct PhaseStats {
    calls: u64,
    secs: f64,
}

/// Per-span-path accumulated timings from `span` events.
#[derive(Debug, Clone, Default)]
struct SpanAgg {
    calls: u64,
    incl_secs: f64,
    excl_secs: f64,
}

/// Final writer health snapshot from a `writer_stats` event.
#[derive(Debug, Clone, Copy, Default)]
struct WriterStats {
    written: u64,
    dropped: u64,
    buffer_hwm: u64,
}

/// Aggregated view of one run log.
///
/// Built by streaming [`Event`]s (or raw JSONL lines) through
/// [`Summary::observe`] / [`Summary::from_jsonl`]; rendered with
/// [`Summary::render`]. Malformed lines are counted, not fatal — a
/// run killed mid-write leaves a torn final line.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    events: u64,
    malformed: u64,
    kinds: BTreeMap<String, u64>,
    methods: BTreeMap<String, u64>,
    reward: Stats,
    area: Stats,
    delay: Stats,
    best_area: Option<f64>,
    best_reward: Option<f64>,
    phases: BTreeMap<String, PhaseStats>,
    cache_hits: u64,
    cache_misses: u64,
    nn_flops: f64,
    checkpoints: u64,
    dropped_reported: u64,
    spans: BTreeMap<String, SpanAgg>,
    writer: Option<WriterStats>,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary::default()
    }

    /// Parses every line of a JSONL log and aggregates it.
    pub fn from_jsonl(text: &str) -> Self {
        let mut s = Summary::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match Event::parse_json(line) {
                Ok(e) => s.observe(&e),
                Err(_) => s.malformed += 1,
            }
        }
        s
    }

    /// Folds one event into the aggregate.
    ///
    /// Conventions (matching what the instrumented training loops
    /// emit): `episode` events carry `reward`/`area_um2`/`delay_ns`
    /// and a `method` tag; `phase` events carry `name` and `secs`;
    /// `cache` events carry cumulative `hits`/`misses`; `nn` events
    /// carry `flops`; `checkpoint` and `run_end` events are counted.
    /// Unknown kinds only contribute to the per-kind tally.
    pub fn observe(&mut self, event: &Event) {
        self.events += 1;
        *self.kinds.entry(event.kind().to_owned()).or_insert(0) += 1;
        match event.kind() {
            "episode" => {
                if let Some(m) = event.get_str("method") {
                    *self.methods.entry(m.to_owned()).or_insert(0) += 1;
                }
                if let Some(r) = event.get_f64("reward") {
                    self.reward.push(r);
                    if r.is_finite() {
                        self.best_reward = Some(self.best_reward.map_or(r, |b: f64| b.max(r)));
                    }
                }
                if let Some(a) = event.get_f64("area_um2") {
                    self.area.push(a);
                    if a.is_finite() {
                        self.best_area = Some(self.best_area.map_or(a, |b: f64| b.min(a)));
                    }
                }
                if let Some(d) = event.get_f64("delay_ns") {
                    self.delay.push(d);
                }
            }
            "phase" => {
                let name = event.get_str("name").unwrap_or("?").to_owned();
                let p = self.phases.entry(name).or_default();
                p.calls += 1;
                p.secs += event.get_f64("secs").unwrap_or(0.0).max(0.0);
            }
            "cache" => {
                // Cumulative counters: keep the latest snapshot.
                if let Some(h) = event.get_u64("hits") {
                    self.cache_hits = h;
                }
                if let Some(m) = event.get_u64("misses") {
                    self.cache_misses = m;
                }
            }
            "nn" => {
                if let Some(f) = event.get_f64("flops") {
                    self.nn_flops += f.max(0.0);
                }
            }
            "checkpoint" => self.checkpoints += 1,
            "run_end" => {
                if let Some(d) = event.get_u64("dropped") {
                    self.dropped_reported = d;
                }
            }
            "span" => {
                // Each training run emits its span deltas once at
                // shutdown; summing merges multiple runs in one log.
                let path = event.get_str("path").unwrap_or("?").to_owned();
                let s = self.spans.entry(path).or_default();
                s.calls += event.get_u64("calls").unwrap_or(0);
                s.incl_secs += event.get_f64("incl_secs").unwrap_or(0.0).max(0.0);
                s.excl_secs += event.get_f64("excl_secs").unwrap_or(0.0).max(0.0);
            }
            "writer_stats" => {
                self.writer = Some(WriterStats {
                    written: event.get_u64("written").unwrap_or(0),
                    dropped: event.get_u64("dropped").unwrap_or(0),
                    buffer_hwm: event.get_u64("buffer_hwm").unwrap_or(0),
                });
            }
            _ => {}
        }
    }

    /// Total events observed (malformed lines excluded).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Lines that failed to parse.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// Episode count.
    pub fn episodes(&self) -> u64 {
        self.reward.count()
    }

    /// Episode reward statistics.
    pub fn reward(&self) -> &Stats {
        &self.reward
    }

    /// Best (lowest) synthesized area seen, if any episode reported
    /// one.
    pub fn best_area(&self) -> Option<f64> {
        self.best_area
    }

    /// Cache hit rate in `[0, 1]`, if any cache event was seen.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        (total > 0).then(|| self.cache_hits as f64 / total as f64)
    }

    /// Renders the summary as fixed-width text tables.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "events: {}  (malformed lines: {}, writer drops: {})\n",
            self.events, self.malformed, self.dropped_reported
        ));
        if !self.kinds.is_empty() {
            out.push_str("\nevent kinds\n");
            for (kind, n) in &self.kinds {
                out.push_str(&format!("  {kind:<14} {n:>10}\n"));
            }
        }
        if self.reward.count() > 0 {
            out.push_str("\nepisodes");
            if !self.methods.is_empty() {
                let tags: Vec<String> =
                    self.methods.iter().map(|(m, n)| format!("{m}:{n}")).collect();
                out.push_str(&format!("  [{}]", tags.join(", ")));
            }
            out.push('\n');
            out.push_str(&format!(
                "  {:<10} {:>12} {:>12} {:>12} {:>12}\n",
                "metric", "min", "mean", "max", "last"
            ));
            for (name, s) in
                [("reward", &self.reward), ("area_um2", &self.area), ("delay_ns", &self.delay)]
            {
                if s.count() > 0 {
                    out.push_str(&format!(
                        "  {:<10} {:>12.4} {:>12.4} {:>12.4} {:>12.4}\n",
                        name,
                        s.min(),
                        s.mean(),
                        s.max(),
                        s.last()
                    ));
                }
            }
            if let Some(a) = self.best_area {
                out.push_str(&format!("  best area : {a:.4} um^2\n"));
            }
            if let Some(r) = self.best_reward {
                out.push_str(&format!("  best reward: {r:.4}\n"));
            }
        }
        if !self.phases.is_empty() {
            let total: f64 = self.phases.values().map(|p| p.secs).sum();
            out.push_str("\nphase timings\n");
            out.push_str(&format!(
                "  {:<12} {:>10} {:>12} {:>8}\n",
                "phase", "calls", "secs", "share"
            ));
            for (name, p) in &self.phases {
                let share = if total > 0.0 { 100.0 * p.secs / total } else { 0.0 };
                out.push_str(&format!(
                    "  {:<12} {:>10} {:>12.3} {:>7.1}%\n",
                    name, p.calls, p.secs, share
                ));
            }
        }
        if self.cache_hits + self.cache_misses > 0 {
            let rate = self.cache_hit_rate().unwrap_or(0.0);
            out.push_str(&format!(
                "\neval cache: {} hits / {} misses ({:.1}% hit rate)\n",
                self.cache_hits,
                self.cache_misses,
                100.0 * rate
            ));
        }
        if self.nn_flops > 0.0 {
            out.push_str(&format!("\nnn work: {:.3e} flops\n", self.nn_flops));
        }
        if self.checkpoints > 0 {
            out.push_str(&format!("\ncheckpoints written: {}\n", self.checkpoints));
        }
        if let Some(w) = self.writer {
            out.push_str(&format!(
                "\nwriter: {} records written, {} dropped, buffer high-water {}\n",
                w.written, w.dropped, w.buffer_hwm
            ));
        }
        out
    }

    /// Renders the per-span-path time breakdown (`rlmul report
    /// --phase`): one row per span path from the run's `span` events,
    /// sorted by exclusive time descending, with the share of total
    /// exclusive time. Falls back to an explanatory line when the log
    /// carries no span events (runs predating the observability
    /// layer).
    pub fn render_phase_breakdown(&self) -> String {
        if self.spans.is_empty() {
            return "no span events in this log (re-run with telemetry enabled on an \
                    instrumented build)\n"
                .to_owned();
        }
        let total_excl: f64 = self.spans.values().map(|s| s.excl_secs).sum();
        let mut rows: Vec<(&String, &SpanAgg)> = self.spans.iter().collect();
        rows.sort_by(|a, b| b.1.excl_secs.total_cmp(&a.1.excl_secs));
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>8} {:>12} {:>12} {:>7}\n",
            "span path", "calls", "incl s", "excl s", "share"
        ));
        for (path, s) in rows {
            let share = if total_excl > 0.0 { 100.0 * s.excl_secs / total_excl } else { 0.0 };
            out.push_str(&format!(
                "{path:<44} {:>8} {:>12.4} {:>12.4} {share:>6.1}%\n",
                s.calls, s.incl_secs, s.excl_secs
            ));
        }
        out.push_str(&format!(
            "{:<44} {:>8} {:>12} {total_excl:>12.4} {:>6.1}%\n",
            "total", "", "", 100.0
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> String {
        let mut lines = Vec::new();
        for i in 0..4u64 {
            lines.push(
                Event::new("episode")
                    .with("method", "dqn")
                    .with("episode", i)
                    .with("reward", i as f64 * 0.5)
                    .with("area_um2", 100.0 - i as f64)
                    .with("delay_ns", 1.5)
                    .to_json(),
            );
        }
        lines.push(Event::new("phase").with("name", "synth").with("secs", 2.0).to_json());
        lines.push(Event::new("phase").with("name", "synth").with("secs", 1.0).to_json());
        lines.push(Event::new("phase").with("name", "sta").with("secs", 1.0).to_json());
        lines.push(Event::new("cache").with("hits", 30u64).with("misses", 10u64).to_json());
        lines.push(Event::new("nn").with("flops", 1.0e6).to_json());
        lines.push(Event::new("checkpoint").with("path", "latest.ckpt").to_json());
        lines.push("not json at all".to_owned());
        lines.join("\n")
    }

    #[test]
    fn aggregates_episodes_phases_and_cache() {
        let s = Summary::from_jsonl(&sample_log());
        assert_eq!(s.episodes(), 4);
        assert_eq!(s.malformed(), 1);
        assert_eq!(s.reward().min(), 0.0);
        assert_eq!(s.reward().max(), 1.5);
        assert_eq!(s.reward().last(), 1.5);
        assert_eq!(s.best_area(), Some(97.0));
        assert_eq!(s.cache_hit_rate(), Some(0.75));
        assert_eq!(s.checkpoints, 1);
        let p = &s.phases["synth"];
        assert_eq!(p.calls, 2);
        assert!((p.secs - 3.0).abs() < 1e-12);
    }

    #[test]
    fn render_mentions_every_section() {
        let text = Summary::from_jsonl(&sample_log()).render();
        for needle in [
            "events: 10",
            "episodes",
            "reward",
            "phase timings",
            "synth",
            "eval cache",
            "75.0%",
            "nn work",
            "checkpoints written: 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn empty_log_renders_without_panicking() {
        let s = Summary::from_jsonl("");
        assert_eq!(s.events(), 0);
        assert!(s.render().contains("events: 0"));
    }

    #[test]
    fn span_events_sum_across_runs_and_break_down_by_phase() {
        let log = [
            Event::new("span")
                .with("path", "train.sa;env.evaluate")
                .with("calls", 4u64)
                .with("incl_secs", 2.0)
                .with("excl_secs", 0.5)
                .to_json(),
            Event::new("span")
                .with("path", "train.sa;env.evaluate")
                .with("calls", 6u64)
                .with("incl_secs", 1.0)
                .with("excl_secs", 1.5)
                .to_json(),
            Event::new("span")
                .with("path", "train.sa")
                .with("calls", 1u64)
                .with("incl_secs", 3.5)
                .with("excl_secs", 6.0)
                .to_json(),
        ]
        .join("\n");
        let s = Summary::from_jsonl(&log);
        let agg = &s.spans["train.sa;env.evaluate"];
        assert_eq!(agg.calls, 10);
        assert!((agg.incl_secs - 3.0).abs() < 1e-12);
        assert!((agg.excl_secs - 2.0).abs() < 1e-12);

        let table = s.render_phase_breakdown();
        let lines: Vec<&str> = table.lines().collect();
        // Sorted by exclusive time descending: the root row first.
        assert!(lines[1].starts_with("train.sa "), "unexpected order:\n{table}");
        assert!(lines[1].contains("75.0%"), "root should own 6/8 of exclusive time:\n{table}");
        assert!(lines[2].starts_with("train.sa;env.evaluate"));
        assert!(lines[3].starts_with("total"));
        assert!(lines[3].contains("100.0%"));
    }

    #[test]
    fn phase_breakdown_explains_span_free_logs() {
        let s = Summary::from_jsonl(&sample_log());
        assert!(s.render_phase_breakdown().contains("no span events"));
    }

    #[test]
    fn writer_stats_surface_in_render() {
        let log = Event::new("writer_stats")
            .with("written", 42u64)
            .with("dropped", 3u64)
            .with("buffer_hwm", 7u64)
            .to_json();
        let s = Summary::from_jsonl(&log);
        let w = s.writer.expect("writer stats parsed");
        assert_eq!((w.written, w.dropped, w.buffer_hwm), (42, 3, 7));
        assert!(s.render().contains("writer: 42 records written, 3 dropped, buffer high-water 7"));
    }

    #[test]
    fn latest_cache_snapshot_wins() {
        let log = [
            Event::new("cache").with("hits", 1u64).with("misses", 1u64).to_json(),
            Event::new("cache").with("hits", 9u64).with("misses", 1u64).to_json(),
        ]
        .join("\n");
        let s = Summary::from_jsonl(&log);
        assert_eq!(s.cache_hit_rate(), Some(0.9));
    }
}
