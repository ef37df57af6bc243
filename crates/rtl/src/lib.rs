//! Gate-level RTL generation for RL-MUL.
//!
//! This crate is the reproduction's substitute for the paper's
//! EasyMAC-based RTL generator: it elaborates a
//! [`rlmul_ct::CompressorTree`] into a flattened gate-level netlist —
//! partial-product generator (AND array or radix-4 Modified Booth
//! Encoding), stage-scheduled compressor tree, and a parallel-prefix
//! carry-propagate adder (Brent–Kung by default; see [`AdderKind`]) —
//! and can compose the result into merged MACs and systolic
//! processing-element arrays. A structural Verilog-2001 emitter is
//! provided for interoperability.
//!
//! # Example
//!
//! ```
//! use rlmul_ct::{CompressorTree, PpgKind};
//! use rlmul_rtl::{to_verilog, MultiplierNetlist};
//!
//! let tree = CompressorTree::wallace(8, PpgKind::Mbe)?;
//! let m = MultiplierNetlist::elaborate(&tree)?;
//! let verilog = to_verilog(m.netlist());
//! assert!(verilog.contains("module mul8x8"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod adder;
mod arena;
mod conn;
mod ct_elab;
mod error;
mod inc;
mod lint;
mod mul;
pub mod mutate;
mod netlist;
mod pe_array;
mod pipeline;
mod ppg;
mod quad_elab;
mod verilog;
mod verilog_in;

pub use adder::{add, AdderKind};
pub use arena::{ArenaNetlist, NetlistDelta};
pub use conn::{Connected, NetConn};
pub use ct_elab::{elaborate_ct, CtRows};
pub use error::RtlError;
pub use inc::IncrementalMultiplier;
pub use lint::{lint, lint_delta, LintIssue, LintReport, LintRule, LintStats, NetGraph, Severity};
pub use mul::MultiplierNetlist;
pub use netlist::{
    shared_gate_prefix, BuilderCheckpoint, DffHandle, Gate, GateKind, GateStats, NetId, Netlist,
    NetlistBuilder, Port, CONST0, CONST1,
};
pub use pe_array::{pe_array, PeArrayConfig, PeStyle};
pub use pipeline::{elaborate_pipelined, PipelineCuts};
pub use ppg::{and_ppg, mbe_ppg, merge_mac_addend, PpColumns};
pub use quad_elab::{elaborate_quad_ct, quad_multiplier};
pub use verilog::to_verilog;
pub use verilog_in::{from_verilog, ParseVerilogError};
