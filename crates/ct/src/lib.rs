//! Compressor-tree state representation for RL-MUL.
//!
//! This crate implements the structural half of the RL-MUL paper
//! (Zuo, Zhu, Ouyang, Ma — DAC 2023): the matrix representation
//! `M ∈ N^{2N×2}` of a multiplier's compressor tree, the deterministic
//! stage-assignment (paper Algorithm 1) producing the tensor
//! `T ∈ N^{2×2N×ST}`, the 4-actions-per-column modification space with
//! validity masking (paper Section III-D), and the deterministic
//! legalization procedure (paper Algorithm 2).
//!
//! A compressor tree compresses the partial-product (PP) columns of a
//! multiplier, merged multiply-accumulator (MAC) or other datapath
//! block down to two rows that a final carry-propagate adder resolves.
//! With `a_j` 3:2 compressors (full adders) and `b_j` 2:2 compressors
//! (half adders) in column `j`, and `p_j` initial partial products, the
//! residual row count after complete compression is
//!
//! ```text
//! res_j = p_j − 2·a_j − b_j + a_{j−1} + b_{j−1}
//! ```
//!
//! (the trailing term is the carry-in from column `j − 1`). A structure
//! is *legal* when every active column ends with one or two rows.
//!
//! # Example
//!
//! ```
//! use rlmul_ct::{CompressorTree, PpgKind};
//!
//! // 8-bit AND-based multiplier, Wallace-reduced initial structure.
//! let tree = CompressorTree::wallace(8, PpgKind::And)?;
//! assert!(tree.is_legal());
//! let tensor = tree.assign_stages()?;
//! assert!(tensor.stage_count() >= 1);
//! # Ok::<(), rlmul_ct::CtError>(())
//! ```

#![forbid(unsafe_code)]

mod action;
mod assign;
mod ckpt;
mod error;
mod init;
mod legalize;
mod matrix;
mod profile;
mod quad;
mod render;
mod tree;

pub use action::{Action, ActionKind, ACTIONS_PER_COLUMN};
pub use assign::{assign_column, StageTensor};
pub use error::CtError;
pub use matrix::CompressorMatrix;
pub use profile::{mbe_constant, mbe_digit_count, PpProfile, PpgKind};
pub use quad::{QuadColumn, QuadSchedule};
pub use render::render_structure;
pub use tree::CompressorTree;
