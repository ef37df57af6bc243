//! Common result type of every optimizer (RL-MUL, RL-MUL-E, SA, …).

use crate::cache::WorkingSet;
use crate::env::MulEnv;
use rlmul_ct::CompressorTree;
pub use rlmul_nn::NnStats;
pub use rlmul_rtl::LintStats;
use rlmul_synth::StaStats;
use rlmul_telemetry::Event;

/// Evaluation-pipeline counters pooled over a whole optimization run:
/// how much synthesis was performed, how much the shared cache
/// avoided, how much timing work the incremental STA engine saved,
/// and how much dense-kernel work the agent networks performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Evaluations answered from the shared cache.
    pub cache_hits: usize,
    /// Evaluations that had to synthesize.
    pub cache_misses: usize,
    /// Finished entries in the shared cache at the end of the run.
    pub cache_entries: usize,
    /// Timing-engine work counters summed over all synthesis runs.
    pub sta: StaStats,
    /// Agent-network dense-kernel counters (zero for searches that
    /// train no network, e.g. simulated annealing).
    pub nn: NnStats,
    /// Structural-lint gate counters (every netlist is linted before
    /// it reaches synthesis).
    pub lint: LintStats,
    /// Real synthesis pipeline invocations (the number the surrogate
    /// evaluator exists to shrink).
    pub synthesis_calls: usize,
    /// Evaluations answered by the online surrogate instead of
    /// synthesis (zero with the surrogate disabled).
    pub surrogate_screened: usize,
    /// Real evaluations forced by the surrogate honesty schedule.
    pub surrogate_forced_evals: usize,
}

impl PipelineStats {
    /// Pools the counters of a run's environments: work counters sum
    /// per-environment contributions, `cache_entries` is the union of
    /// their working sets, and `nn` is the run's agent-network work.
    pub(crate) fn pooled(envs: &[MulEnv], nn: NnStats) -> Self {
        let mut p = PipelineStats {
            cache_entries: WorkingSet::union_len(envs.iter().map(MulEnv::working_set)),
            nn,
            ..Default::default()
        };
        for s in envs.iter().map(MulEnv::stats) {
            p.cache_hits += s.cache_hits;
            p.cache_misses += s.cache_misses;
            p.sta.merge(s.sta);
            p.lint.merge(s.lint);
            p.synthesis_calls += s.synthesis_calls;
            p.surrogate_screened += s.surrogate_screened;
            p.surrogate_forced_evals += s.surrogate_forced_evals;
        }
        p
    }

    /// The end-of-run `cache` telemetry event.
    pub(crate) fn cache_event(&self) -> Event {
        Event::new("cache")
            .with("hits", self.cache_hits as u64)
            .with("misses", self.cache_misses as u64)
    }

    /// One-line human-readable rendering for logs and bench reports.
    /// Deterministic for a seeded run (the nn part reports work
    /// counters, not wall time), so seeded CLI output stays
    /// byte-identical across reruns.
    pub fn render(&self) -> String {
        format!(
            "cache {} hits / {} misses ({} states); {} synth calls, \
             {} screened + {} forced by surrogate; sta {} full + {} incremental passes, \
             {} full / {} incremental gate visits; {}; {}",
            self.cache_hits,
            self.cache_misses,
            self.cache_entries,
            self.synthesis_calls,
            self.surrogate_screened,
            self.surrogate_forced_evals,
            self.sta.full_passes,
            self.sta.incremental_passes,
            self.sta.full_gate_visits,
            self.sta.incremental_gate_visits,
            self.nn.render_work(),
            self.lint.render(),
        )
    }
}

/// What an optimization run produced.
#[derive(Debug, Clone)]
pub struct OptimizationOutcome {
    /// Lowest-cost structure found.
    pub best: CompressorTree,
    /// Its weighted cost (paper Eq. 20).
    pub best_cost: f64,
    /// Cost of the *current* state after every step — the trajectory
    /// the paper plots in Fig. 12.
    pub trajectory: Vec<f64>,
    /// Every `(area µm², delay ns)` point synthesized during the run
    /// (raw material for Pareto fronts, Figs. 9–11).
    pub pareto_points: Vec<(f64, f64)>,
    /// Distinct states evaluated.
    pub states_visited: usize,
    /// Total synthesis runs.
    pub synth_runs: usize,
    /// Cache and timing-engine counters for the run.
    pub pipeline: PipelineStats,
}
