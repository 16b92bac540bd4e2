//! Embedding representations for neural recommendation (paper §2).
//!
//! Sparse feature IDs must become dense embedding vectors before a
//! recommendation model can consume them. This crate implements the four
//! *embedding representations* MP-Rec chooses among:
//!
//! * [`EmbeddingTable`] — **storage**: learned rows, memory-bound gathers
//!   (§2.1);
//! * [`DheStack`] — **generation** (Deep Hash Embedding): `k` parallel
//!   encoder hash functions + normalization feed a decoder MLP that
//!   synthesizes the embedding, compute-bound (§2.2);
//! * **select** — per-feature choice of Table or DHE (§2.3), built by
//!   [`EmbeddingLayer`] with [`RepresentationKind::Select`];
//! * **hybrid** — Table *and* DHE concatenated per feature (§2.3), the
//!   paper's highest-accuracy representation.
//!
//! [`RepresentationConfig`] carries the hyperparameters
//! (`k`, decoder width/height, dims) and exposes the paper-scale capacity
//! and FLOPs accounting used by Table 3, Fig. 3 and Fig. 4.
//!
//! # Examples
//!
//! ```
//! use mprec_embed::{EmbeddingLayer, RepresentationConfig};
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! let cards = vec![100, 50, 1000];
//! let cfg = RepresentationConfig::table(8);
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut layer = EmbeddingLayer::new(&cfg, &cards, &mut rng)?;
//! let ids = vec![vec![0, 99], vec![1, 2], vec![500, 999]];
//! let embs = layer.forward(&ids)?;
//! assert_eq!(embs.len(), 3);           // one matrix per sparse feature
//! assert_eq!(embs[0].shape(), (2, 8)); // batch x dim
//! # Ok::<(), mprec_embed::EmbedError>(())
//! ```

mod config;
mod dhe;
mod layer;
mod table;

pub use config::{DheConfig, RepresentationConfig, RepresentationKind};
pub use dhe::{DheEncoder, DheStack};
pub use layer::{EmbeddingLayer, FeatureEmbedding};
pub use table::EmbeddingTable;

use std::error::Error;
use std::fmt;

/// Error raised by embedding construction or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbedError {
    /// Underlying neural-net error.
    Nn(mprec_nn::NnError),
    /// Underlying tensor error.
    Tensor(mprec_tensor::TensorError),
    /// A lookup ID was outside the table.
    IdOutOfRange {
        /// The offending ID.
        id: u64,
        /// Table cardinality.
        rows: u64,
    },
    /// Configuration was inconsistent (e.g. zero dims, empty hash family).
    BadConfig(String),
    /// Per-feature input count didn't match the layer's feature count.
    FeatureCountMismatch {
        /// Features the layer was built with.
        expected: usize,
        /// Features supplied to forward/backward.
        got: usize,
    },
}

impl fmt::Display for EmbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbedError::Nn(e) => write!(f, "nn error: {e}"),
            EmbedError::Tensor(e) => write!(f, "tensor error: {e}"),
            EmbedError::IdOutOfRange { id, rows } => {
                write!(f, "lookup id {id} out of range for table with {rows} rows")
            }
            EmbedError::BadConfig(msg) => write!(f, "bad representation config: {msg}"),
            EmbedError::FeatureCountMismatch { expected, got } => {
                write!(f, "layer has {expected} features but got {got} inputs")
            }
        }
    }
}

impl Error for EmbedError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EmbedError::Nn(e) => Some(e),
            EmbedError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mprec_nn::NnError> for EmbedError {
    fn from(e: mprec_nn::NnError) -> Self {
        EmbedError::Nn(e)
    }
}

impl From<mprec_tensor::TensorError> for EmbedError {
    fn from(e: mprec_tensor::TensorError) -> Self {
        EmbedError::Tensor(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EmbedError>;
