use std::error::Error;
use std::fmt;

/// Errors produced by the synthesis engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SynthError {
    /// The netlist contains no gates (nothing to map).
    EmptyNetlist,
    /// A delay sweep was requested with a degenerate range.
    InvalidSweep {
        /// Sweep start, ns.
        from_ns: f64,
        /// Sweep end, ns.
        to_ns: f64,
        /// Requested sample count.
        points: usize,
    },
    /// A delay target is NaN or infinite.
    NonFiniteTarget {
        /// The offending target, ns.
        target_ns: f64,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::EmptyNetlist => write!(f, "netlist has no gates to synthesize"),
            SynthError::InvalidSweep { from_ns, to_ns, points } => {
                write!(f, "invalid sweep: {from_ns} ns .. {to_ns} ns with {points} points")
            }
            SynthError::NonFiniteTarget { target_ns } => {
                write!(f, "delay target {target_ns} ns is not a finite number")
            }
        }
    }
}

impl Error for SynthError {}
