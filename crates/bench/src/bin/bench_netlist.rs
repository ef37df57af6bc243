//! Netlist-pipeline benchmark: from-scratch vs incremental
//! elaborate→lint→map→size→STA step latency over one action walk per
//! width (8/16/32/64 bits), the two paths interleaved step by step,
//! with per-step allocation counts (from a counting global allocator,
//! read around each path's own step) and the obs span-profiler
//! breakdown.
//! Both paths run the same one-thread sizing trajectory, so the ratio
//! measures only the work the incremental path skips. Asserts the two
//! paths produce bit-identical PPA at every step and writes
//! `results/BENCH_netlist.json`.
//!
//! Run in release: debug builds re-run the from-scratch synthesis
//! inside the incremental path as an oracle, which is the very cost
//! being measured. `--ci-gate` runs the 16-bit comparison only and
//! exits non-zero if the incremental step is less than
//! [`MIN_SPEEDUP_16`] times as fast as the from-scratch one or makes
//! more than [`MAX_INC_ALLOCS_16`] allocations per step.

use rlmul_bench::report::results_dir;
use rlmul_ct::{CompressorTree, PpgKind};
use rlmul_rtl::{lint, lint_delta, IncrementalMultiplier, MultiplierNetlist};
use rlmul_synth::{IncrementalSynthesis, SynthesisOptions, SynthesisReport, Synthesizer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Allocation-counting wrapper around the system allocator. The obs
/// crate forbids `unsafe`, so the counter lives here in the binary.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct Json(String);

impl Json {
    fn new() -> Self {
        Json(String::from("{\n"))
    }
    fn field(&mut self, key: &str, value: f64) {
        writeln!(self.0, "  \"{key}\": {value:.6},").expect("write to string");
    }
    fn finish(mut self) -> String {
        let cut = self.0.trim_end().trim_end_matches(',').len();
        self.0.truncate(cut);
        self.0.push_str("\n}\n");
        self.0
    }
}

/// A deterministic walk of `steps` legal actions from `tree`.
fn walk(tree: &CompressorTree, steps: usize) -> Vec<CompressorTree> {
    let mut seed = 0x9e3779b97f4a7c15u64 ^ tree.bits() as u64;
    let mut cur = tree.clone();
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let actions = cur.valid_actions();
        if actions.is_empty() {
            break;
        }
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        cur = cur.apply_action(actions[(seed >> 33) as usize % actions.len()]).expect("legal");
        out.push(cur.clone());
    }
    out
}

/// Per-step measurements of one pipeline path over a walk.
#[derive(Default)]
struct PathLog {
    step_secs: Vec<f64>,
    allocs: u64,
    reports: Vec<Vec<SynthesisReport>>,
}

impl PathLog {
    /// Runs one step, timing it and counting only its own allocations.
    fn step(&mut self, f: impl FnOnce() -> Vec<SynthesisReport>) {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let reports = f();
        let secs = t0.elapsed().as_secs_f64();
        self.allocs += ALLOCS.load(Ordering::Relaxed) - a0;
        self.step_secs.push(secs);
        self.reports.push(reports);
    }

    /// Median per-step wall time — robust against scheduler hiccups,
    /// which matter at sub-millisecond step costs.
    fn secs_per_step(&self) -> f64 {
        let mut xs = self.step_secs.clone();
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    }

    fn allocs_per_step(&self) -> f64 {
        self.allocs as f64 / self.step_secs.len() as f64
    }
}

/// Steps the from-scratch and the incremental path over the same walk,
/// alternating state by state, so a load spike on the machine lands on
/// both paths instead of one. Returns `(full, incremental)`.
fn run_interleaved(
    initial: &CompressorTree,
    states: &[CompressorTree],
    options: &[SynthesisOptions],
) -> (PathLog, PathLog) {
    let obs = rlmul_obs::global();
    let scratch = Synthesizer::nangate45();
    let mut mul = IncrementalMultiplier::new(initial).expect("elaborates");
    let mut session = IncrementalSynthesis::nangate45();
    // Prime the session: the first run is necessarily a full one (it
    // builds the connectivity table and STA baseline the later steps
    // patch). Steady-state step cost is what the loop below measures.
    session.run_connected(mul.connected(), options).expect("synthesizes");
    let (mut full, mut inc) = (PathLog::default(), PathLog::default());
    for tree in states {
        full.step(|| {
            let _s = obs.span("bench.full_step");
            let netlist = {
                let _e = obs.span("bench.full_elaborate");
                MultiplierNetlist::elaborate(tree).expect("elaborates").into_netlist()
            };
            let report = {
                let _l = obs.span("bench.full_lint");
                lint(&netlist)
            };
            assert_eq!(report.errors(), 0, "lint gate: {}", report.render());
            let _y = obs.span("bench.full_synth");
            scratch.run_many(&netlist, options).expect("synthesizes")
        });
        inc.step(|| {
            let _s = obs.span("bench.inc_step");
            {
                let _r = obs.span("bench.retarget");
                mul.retarget(tree).expect("retargets");
            }
            let report = {
                let _l = obs.span("bench.lint_delta");
                lint_delta(&mul.connected(), mul.last_delta())
            };
            assert_eq!(report.errors(), 0, "delta lint gate: {}", report.render());
            session.run_connected(mul.connected(), options).expect("synthesizes")
        });
    }
    (full, inc)
}

/// Bit-exact PPA comparison between the two pipelines — the external
/// synthesis numbers must not drift by even one ULP.
fn assert_bit_identical(full: &PathLog, inc: &PathLog, bits: usize) {
    assert_eq!(full.reports.len(), inc.reports.len());
    for (step, (f, i)) in full.reports.iter().zip(&inc.reports).enumerate() {
        assert_eq!(f.len(), i.len());
        for (rf, ri) in f.iter().zip(i) {
            assert_eq!(
                rf.area_um2.to_bits(),
                ri.area_um2.to_bits(),
                "{bits}-bit step {step}: area diverged ({} vs {})",
                rf.area_um2,
                ri.area_um2
            );
            assert_eq!(rf.delay_ns.to_bits(), ri.delay_ns.to_bits(), "{bits}-bit step {step}");
            assert_eq!(rf.power_mw.to_bits(), ri.power_mw.to_bits(), "{bits}-bit step {step}");
            assert_eq!(rf.met_target, ri.met_target, "{bits}-bit step {step}");
            assert_eq!(rf.sizing_moves, ri.sizing_moves, "{bits}-bit step {step}");
        }
    }
}

/// Gate bound on the 16-bit median step speedup over the from-scratch
/// path (1.40–1.70x measured on first attempts when it was set).
const MIN_SPEEDUP_16: f64 = 1.25;

/// Gate bound on allocations per 16-bit incremental step. The count
/// does not swing with machine load as the speedup does, so the bound
/// can sit close to the measured count (94 when it was set).
const MAX_INC_ALLOCS_16: f64 = 104.0;

/// Median per-step wall times of the two paths at one width, in ms,
/// and the incremental path's allocations per step.
#[derive(Debug, Clone, Copy)]
struct StepTimes {
    full_ms: f64,
    inc_ms: f64,
    inc_allocs: f64,
}

impl StepTimes {
    fn speedup(self) -> f64 {
        self.full_ms / self.inc_ms
    }

    /// Whether both gate bounds hold.
    fn passes(self) -> bool {
        self.speedup() >= MIN_SPEEDUP_16 && self.inc_allocs <= MAX_INC_ALLOCS_16
    }
}

impl std::fmt::Display for StepTimes {
    /// The ratio with the two times behind it, so a gate line shows
    /// which path moved, and the allocation count.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2}x (full {:.3} ms/step, incremental {:.3} ms/step, {:.0} allocs/step)",
            self.speedup(),
            self.full_ms,
            self.inc_ms,
            self.inc_allocs
        )
    }
}

fn bench_width(bits: usize, steps: usize, json: &mut Json) -> StepTimes {
    let tree = CompressorTree::wallace(bits, PpgKind::And).expect("legal");
    let states = walk(&tree, steps);
    assert!(!states.is_empty(), "no legal actions at {bits} bits");

    // Four delay targets derived from a min-area anchor, mirroring
    // the RL environment's constraint setup.
    let netlist = MultiplierNetlist::elaborate(&tree).expect("elaborates").into_netlist();
    let anchor = Synthesizer::nangate45()
        .run(&netlist, &SynthesisOptions::default())
        .expect("anchor synthesizes");
    let options: Vec<SynthesisOptions> = [0.7, 0.85, 1.0, 1.15]
        .iter()
        .map(|m| SynthesisOptions { target_delay_ns: Some(m * anchor.delay_ns), max_upsizes: 800 })
        .collect();

    let before = rlmul_obs::global().span_stats();
    let (full, inc) = run_interleaved(&tree, &states, &options);
    let spans = rlmul_obs::global().span_stats_since(&before);
    assert_bit_identical(&full, &inc, bits);

    let (full_secs, inc_secs) = (full.secs_per_step(), inc.secs_per_step());
    let speedup = full_secs / inc_secs;
    println!(
        "{bits:>2}-bit ({} steps): full {:8.2} ms/step ({:9.0} allocs) | inc {:8.2} ms/step \
         ({:9.0} allocs) | {speedup:5.2}x, {:.1} steps/s",
        states.len(),
        full_secs * 1e3,
        full.allocs_per_step(),
        inc_secs * 1e3,
        inc.allocs_per_step(),
        1.0 / inc_secs
    );
    json.field(&format!("full_step_ms_{bits}"), full_secs * 1e3);
    json.field(&format!("inc_step_ms_{bits}"), inc_secs * 1e3);
    json.field(&format!("full_steps_per_sec_{bits}"), 1.0 / full_secs);
    json.field(&format!("inc_steps_per_sec_{bits}"), 1.0 / inc_secs);
    json.field(&format!("full_allocs_per_step_{bits}"), full.allocs_per_step());
    json.field(&format!("inc_allocs_per_step_{bits}"), inc.allocs_per_step());
    json.field(&format!("speedup_{bits}"), speedup);
    print!("{}", rlmul_obs::render_span_tree(&spans));
    StepTimes {
        full_ms: full_secs * 1e3,
        inc_ms: inc_secs * 1e3,
        inc_allocs: inc.allocs_per_step(),
    }
}

fn main() {
    let ci_gate = std::env::args().any(|a| a == "--ci-gate");
    if cfg!(debug_assertions) {
        eprintln!(
            "warning: debug build — the incremental path re-runs the full pipeline as an \
             oracle, so speedups are meaningless here"
        );
    }
    // The global registry is gated off by default; the profiler
    // breakdown below needs it recording.
    rlmul_obs::global().enable();

    let widths: &[(usize, usize)] =
        if ci_gate { &[(16, 24)] } else { &[(8, 24), (16, 24), (32, 12), (64, 8)] };
    // The gate measures wall time on whatever runner CI hands us, so a
    // borderline miss can be scheduler noise rather than a regression.
    // Retry up to three times in gate mode: noise passes on a later
    // attempt, a real regression fails all three.
    let attempts = if ci_gate && !cfg!(debug_assertions) { 3 } else { 1 };
    let mut json = Json::new();
    let mut times_16 = None;
    for attempt in 0..attempts {
        json = Json::new();
        times_16 = None;
        for &(bits, steps) in widths {
            let t = bench_width(bits, steps, &mut json);
            if bits == 16 {
                times_16 = Some(t);
            }
        }
        let Some(t) = times_16.filter(|t| !t.passes()) else { break };
        if attempt + 1 < attempts {
            eprintln!(
                "16-bit speedup {t} outside the gate (>= {MIN_SPEEDUP_16}x, \
                 <= {MAX_INC_ALLOCS_16} allocs/step); retrying (attempt {}/{attempts})",
                attempt + 2
            );
        }
    }

    // Span-profiler breakdown (flamegraph-collapsed stacks next to
    // the JSON so `inferno`/`flamegraph.pl` can render the two step
    // kinds side by side).
    let obs = rlmul_obs::global();
    let stats = obs.span_stats();
    print!("{}", rlmul_obs::render_span_tree(&stats));
    std::fs::create_dir_all(results_dir()).expect("results dir");
    let flame_path = results_dir().join("BENCH_netlist_flame.txt");
    std::fs::write(&flame_path, rlmul_obs::collapsed_from(&stats)).expect("write flame stacks");

    let path = results_dir().join("BENCH_netlist.json");
    std::fs::write(&path, json.finish()).expect("write BENCH_netlist.json");
    println!("wrote {} and {}", path.display(), flame_path.display());

    if let Some(t) = times_16.filter(|_| ci_gate && !cfg!(debug_assertions)) {
        assert!(
            t.speedup() >= MIN_SPEEDUP_16,
            "incremental pipeline regressed below {MIN_SPEEDUP_16}x at 16 bits: {t}"
        );
        assert!(
            t.inc_allocs <= MAX_INC_ALLOCS_16,
            "incremental pipeline allocates more than {MAX_INC_ALLOCS_16} times per 16-bit \
             step: {t}"
        );
        println!(
            "ci-gate OK: 16-bit incremental speedup {t} >= {MIN_SPEEDUP_16}x, \
             <= {MAX_INC_ALLOCS_16} allocs/step"
        );
    }
}
