//! RL-MUL — multiplier design optimization with deep reinforcement
//! learning (reproduction of Zuo, Zhu, Ouyang, Ma; DAC 2023).
//!
//! This façade crate re-exports every subsystem of the workspace so
//! that examples and integration tests can drive the full stack
//! through one dependency:
//!
//! * [`ct`] — compressor-tree state (matrix/tensor representations,
//!   actions, legalization, Wallace/Dadda constructors);
//! * [`rtl`] — gate-level netlist IR and RTL generators (AND / MBE
//!   partial products, compressor-tree elaboration, carry-propagate
//!   adders, merged MACs, systolic PE arrays, Verilog emission);
//! * [`synth`] — standard-cell library, technology mapping, static
//!   timing analysis, gate sizing and power estimation;
//! * [`sat`] — a from-scratch CDCL SAT solver (two-watched literals,
//!   first-UIP learning, VSIDS, Luby restarts) with incremental
//!   assumption solving;
//! * [`lec`] — bit-parallel simulation, logic equivalence checking
//!   against golden models, and formal SAT-based CEC with
//!   fraig-style equivalence sweeping;
//! * [`nn`] — the from-scratch CPU neural-network substrate behind the
//!   agent networks;
//! * [`pareto`] — Pareto fronts, hypervolume, trajectory statistics;
//! * [`baselines`] — Wallace, Dadda, GOMIL (exact DP over the ILP) and
//!   simulated annealing;
//! * [`ckpt`] — versioned binary snapshot codec with CRC-checked
//!   atomic writes and rolling latest/best checkpoint stores;
//! * [`telemetry`] — non-blocking JSONL event stream (per-episode
//!   rewards, phase timings, cache hit rates) plus run summaries;
//! * [`obs`] — live observability: sharded metrics registry, span
//!   tracing, Prometheus `/metrics` endpoint and flamegraph export;
//! * [`core`] — the RL-MUL framework itself: environment,
//!   Pareto-driven reward, DQN (native RL-MUL) and synchronous A2C
//!   (RL-MUL-E) agents, with crash-safe checkpoint/resume
//!   (`core::TrainHooks`, `core::resume_dqn`, `core::resume_a2c`).
//!
//! Beyond the paper's evaluation, the workspace implements its named
//! extensions: 4:2 compressor trees (`ct::QuadSchedule`,
//! `rtl::quad_multiplier`, per-arc STA for ripple-free cout chains),
//! pipelined multipliers (`rtl::elaborate_pipelined`), cycle-accurate
//! sequential verification (`lec::SeqSimulator`), the unreduced
//! three-term reward (`core::CostWeights::power`), and agent
//! checkpointing (`nn::{save_params, load_params}`).
//!
//! # Quickstart
//!
//! ```
//! use rlmul::ct::{CompressorTree, PpgKind};
//! use rlmul::rtl::MultiplierNetlist;
//! use rlmul::synth::{SynthesisOptions, Synthesizer};
//!
//! let tree = CompressorTree::wallace(8, PpgKind::And)?;
//! let netlist = MultiplierNetlist::elaborate(&tree)?;
//! let synth = Synthesizer::nangate45();
//! let report = synth.run(netlist.netlist(), &SynthesisOptions::default())?;
//! assert!(report.area_um2 > 0.0 && report.delay_ns > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub use rlmul_baselines as baselines;
pub use rlmul_check as check;
pub use rlmul_ckpt as ckpt;
pub use rlmul_core as core;
pub use rlmul_ct as ct;
pub use rlmul_lec as lec;
pub use rlmul_nn as nn;
pub use rlmul_obs as obs;
pub use rlmul_pareto as pareto;
pub use rlmul_rtl as rtl;
pub use rlmul_sat as sat;
pub use rlmul_serve as serve;
pub use rlmul_synth as synth;
pub use rlmul_telemetry as telemetry;
