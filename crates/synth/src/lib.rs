//! Synthesis substrate for RL-MUL — the reproduction's stand-in for
//! the paper's Yosys + OpenROAD + OpenSTA flow over the NanGate 45nm
//! Open Cell Library.
//!
//! The flow is: technology mapping ([`MappedNetlist`]) onto a
//! NanGate45-flavoured [`Library`], static timing analysis with a
//! load-dependent linear delay model ([`analyze`]), TILOS-style
//! greedy gate sizing under a target delay ([`size_to_target`]), and
//! switching-activity power estimation ([`estimate_power`]).
//!
//! One engine produces every report: delay targets with a common move
//! budget share one sizing trajectory, each reported where its own run
//! would stop. The stateless [`Synthesizer`] serves the
//! multi-constraint runs and target-delay sweeps the paper's
//! Pareto-driven reward consumes; [`IncrementalSynthesis`] gives the
//! same report bits faster for a stream of closely related netlists.
//!
//! # Example
//!
//! ```
//! use rlmul_ct::{CompressorTree, PpgKind};
//! use rlmul_rtl::MultiplierNetlist;
//! use rlmul_synth::{SynthesisOptions, Synthesizer};
//!
//! let tree = CompressorTree::wallace(8, PpgKind::And)?;
//! let m = MultiplierNetlist::elaborate(&tree)?;
//! let report = Synthesizer::nangate45()
//!     .run(m.netlist(), &SynthesisOptions::default())?;
//! println!("{:.0} um^2 @ {:.3} ns, {:.3} mW",
//!          report.area_um2, report.delay_ns, report.power_mw);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod ckpt;
mod error;
mod inc;
mod library;
mod map;
mod power;
mod size;
mod sta;
mod synth;

pub use error::SynthError;
pub use inc::{IncrementalSynthesis, SynthMode};
pub use library::{Cell, Drive, Library};
pub use map::MappedNetlist;
pub use power::{estimate as estimate_power, PowerReport};
pub use size::{size_to_target, SizingOutcome};
pub use sta::{analyze, IncrementalSta, StaStats, TimingReport};
pub use synth::{SynthesisOptions, SynthesisReport, Synthesizer};
