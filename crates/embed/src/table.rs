//! The storage representation: a learned embedding table (paper §2.1).

use mprec_tensor::{init, Matrix};
use rand::Rng;

use crate::{EmbedError, Result};

/// One learned embedding table with sparse-row training updates.
///
/// Rows are initialized `U(-1/sqrt(n), 1/sqrt(n))` as in DLRM. Training
/// uses sparse Adagrad: only rows touched by the batch are updated, with
/// per-element accumulators grown lazily.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    weights: Matrix,
    adagrad: Option<Matrix>,
    dim: usize,
}

impl EmbeddingTable {
    /// Creates a table of `rows x dim`.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::BadConfig`] if `rows` or `dim` is zero.
    pub fn new(rows: u64, dim: usize, rng: &mut impl Rng) -> Result<Self> {
        if rows == 0 || dim == 0 {
            return Err(EmbedError::BadConfig(format!(
                "embedding table needs positive shape, got {rows}x{dim}"
            )));
        }
        let bound = 1.0 / (rows as f32).sqrt();
        Ok(EmbeddingTable {
            weights: init::uniform(rows as usize, dim, bound, rng),
            adagrad: None,
            dim,
        })
    }

    /// Number of rows (IDs).
    pub fn rows(&self) -> u64 {
        self.weights.rows() as u64
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Parameter bytes (fp32 weights only).
    pub fn capacity_bytes(&self) -> u64 {
        self.weights.len() as u64 * 4
    }

    /// Borrow of one embedding row.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::IdOutOfRange`] for an invalid ID.
    pub fn row(&self, id: u64) -> Result<&[f32]> {
        if id >= self.rows() {
            return Err(EmbedError::IdOutOfRange {
                id,
                rows: self.rows(),
            });
        }
        Ok(self.weights.row(id as usize))
    }

    /// Gathers embeddings for a batch of IDs into a `batch x dim` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::IdOutOfRange`] if any ID is invalid.
    pub fn forward(&self, ids: &[u64]) -> Result<Matrix> {
        let mut out = Matrix::zeros(ids.len(), self.dim);
        self.forward_into(ids, &mut out)?;
        Ok(out)
    }

    /// Gathers embeddings into a caller-provided arena (resized to
    /// `batch x dim`, reusing its allocation): each row is one
    /// `copy_from_slice` from the table, so a warm arena makes the gather
    /// allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::IdOutOfRange`] if any ID is invalid.
    pub fn forward_into(&self, ids: &[u64], out: &mut Matrix) -> Result<()> {
        out.resize_zeroed(ids.len(), self.dim);
        for (i, &id) in ids.iter().enumerate() {
            let row = self.row(id)?;
            out.row_mut(i).copy_from_slice(row);
        }
        Ok(())
    }

    /// Adds the embedding of `ids[i]` onto row `i` of `out` — a gather
    /// fused with sum pooling, so a pooled feature never stages its rows
    /// in an arena. The float operations are exactly those of
    /// [`EmbeddingTable::forward`] followed by `out += rows`.
    ///
    /// # Errors
    ///
    /// Returns a tensor shape error if `out` is not `ids.len() x dim`, and
    /// [`EmbedError::IdOutOfRange`] on an invalid ID (rows before it
    /// have already been added).
    pub fn gather_add_into(&self, ids: &[u64], out: &mut Matrix) -> Result<()> {
        if out.shape() != (ids.len(), self.dim) {
            return Err(EmbedError::Tensor(mprec_tensor::TensorError::ShapeMismatch {
                op: "embedding gather-add",
                lhs: (ids.len(), self.dim),
                rhs: out.shape(),
            }));
        }
        for (dst, &id) in out.as_mut_slice().chunks_exact_mut(self.dim).zip(ids) {
            for (d, &w) in dst.iter_mut().zip(self.row(id)?) {
                *d += w;
            }
        }
        Ok(())
    }

    /// Sparse Adagrad update: applies `grad` (a `batch x dim` gradient, one
    /// row per lookup in `ids`) directly to the touched rows.
    ///
    /// Duplicate IDs within a batch accumulate naturally because updates
    /// are applied sequentially.
    ///
    /// # Errors
    ///
    /// Returns [`EmbedError::IdOutOfRange`] on an invalid ID, or a tensor
    /// error if `grad` has the wrong shape.
    pub fn backward_step(&mut self, ids: &[u64], grad: &Matrix, lr: f32) -> Result<()> {
        if grad.shape() != (ids.len(), self.dim) {
            return Err(EmbedError::Tensor(mprec_tensor::TensorError::ShapeMismatch {
                op: "embedding backward",
                lhs: (ids.len(), self.dim),
                rhs: grad.shape(),
            }));
        }
        if self.adagrad.is_none() {
            self.adagrad = Some(Matrix::zeros(self.weights.rows(), self.dim));
        }
        let state = self.adagrad.as_mut().expect("just initialized");
        for (i, &id) in ids.iter().enumerate() {
            if id >= self.weights.rows() as u64 {
                return Err(EmbedError::IdOutOfRange {
                    id,
                    rows: self.weights.rows() as u64,
                });
            }
            let g = grad.row(i);
            let srow = state.row_mut(id as usize);
            for (j, &gj) in g.iter().enumerate() {
                srow[j] += gj * gj;
            }
            // Reborrow weights after state to satisfy the borrow checker.
            let denom: Vec<f32> = srow.iter().map(|s| s.sqrt() + 1e-8).collect();
            let wrow = self.weights.row_mut(id as usize);
            for (j, &gj) in g.iter().enumerate() {
                wrow[j] -= lr * gj / denom[j];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(rows: u64, dim: usize) -> EmbeddingTable {
        EmbeddingTable::new(rows, dim, &mut StdRng::seed_from_u64(1)).unwrap()
    }

    #[test]
    fn rejects_degenerate_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(EmbeddingTable::new(0, 4, &mut rng).is_err());
        assert!(EmbeddingTable::new(4, 0, &mut rng).is_err());
    }

    #[test]
    fn init_respects_dlrm_bound() {
        let t = table(100, 8);
        let bound = 1.0 / 10.0 + 1e-6;
        assert!(t
            .weights
            .as_slice()
            .iter()
            .all(|&w| w.abs() <= bound));
    }

    #[test]
    fn forward_gathers_rows() {
        let t = table(10, 4);
        let out = t.forward(&[3, 3, 7]).unwrap();
        assert_eq!(out.shape(), (3, 4));
        assert_eq!(out.row(0), t.row(3).unwrap());
        assert_eq!(out.row(1), t.row(3).unwrap());
        assert_eq!(out.row(2), t.row(7).unwrap());
    }

    #[test]
    fn gather_add_into_matches_forward_plus_add() {
        // Heavy duplication, including back-to-back and interleaved
        // repeats: the fused path must produce byte-identical output.
        let t = table(50, 6);
        let ids = [3u64, 17, 3, 3, 42, 17, 0, 42, 3, 49, 49, 0];
        let mut rng = StdRng::seed_from_u64(9);
        let base = mprec_tensor::init::uniform(ids.len(), 6, 1.0, &mut rng);
        let mut plain = base.clone();
        plain.add_assign(&t.forward(&ids).unwrap()).unwrap();
        let mut fused = base;
        t.gather_add_into(&ids, &mut fused).unwrap();
        assert_eq!(fused, plain);
    }

    #[test]
    fn gather_add_into_rejects_bad_id_and_bad_shape() {
        let t = table(10, 4);
        let mut out = Matrix::zeros(2, 4);
        assert!(matches!(
            t.gather_add_into(&[1, 10], &mut out),
            Err(EmbedError::IdOutOfRange { id: 10, rows: 10 })
        ));
        assert!(matches!(
            t.gather_add_into(&[1, 2, 3], &mut out),
            Err(EmbedError::Tensor(_))
        ));
        // The output stays usable after an error.
        let mut out = Matrix::zeros(3, 4);
        t.gather_add_into(&[1, 1, 2], &mut out).unwrap();
        assert_eq!(out.row(0), out.row(1));
        assert_eq!(out.row(0), t.row(1).unwrap());
    }

    #[test]
    fn forward_into_reuses_arena() {
        let t = table(20, 8);
        let mut out = Matrix::zeros(0, 0);
        t.forward_into(&[5, 6, 7, 5], &mut out).unwrap();
        let ptr = out.as_slice().as_ptr();
        t.forward_into(&[1, 2, 3, 4], &mut out).unwrap();
        assert_eq!(out.as_slice().as_ptr(), ptr, "arena reused");
        assert_eq!(out.row(2), t.row(3).unwrap());
    }

    #[test]
    fn forward_rejects_bad_id() {
        let t = table(10, 4);
        assert!(matches!(
            t.forward(&[10]),
            Err(EmbedError::IdOutOfRange { id: 10, rows: 10 })
        ));
    }

    #[test]
    fn backward_moves_only_touched_rows() {
        let mut t = table(10, 2);
        let before5 = t.row(5).unwrap().to_vec();
        let before0 = t.row(0).unwrap().to_vec();
        let grad = Matrix::from_vec(1, 2, vec![1.0, -1.0]).unwrap();
        t.backward_step(&[5], &grad, 0.1).unwrap();
        assert_ne!(t.row(5).unwrap(), before5.as_slice());
        assert_eq!(t.row(0).unwrap(), before0.as_slice());
    }

    #[test]
    fn backward_descends_a_quadratic() {
        // Minimize ||w_row - target||^2 by repeated sparse updates.
        let mut t = table(4, 2);
        let target = [0.5f32, -0.25];
        for _ in 0..300 {
            let row = t.row(2).unwrap();
            let grad =
                Matrix::from_vec(1, 2, vec![row[0] - target[0], row[1] - target[1]]).unwrap();
            t.backward_step(&[2], &grad, 0.5).unwrap();
        }
        let row = t.row(2).unwrap();
        assert!((row[0] - target[0]).abs() < 0.05, "{row:?}");
        assert!((row[1] - target[1]).abs() < 0.05, "{row:?}");
    }

    #[test]
    fn duplicate_ids_accumulate() {
        let mut t = table(4, 1);
        let w0 = t.row(1).unwrap()[0];
        let grad = Matrix::from_vec(2, 1, vec![1.0, 1.0]).unwrap();
        t.backward_step(&[1, 1], &grad, 0.1).unwrap();
        let w1 = t.row(1).unwrap()[0];
        // Two sequential adagrad steps with g=1: first -0.1, second -0.1/sqrt(2).
        let expected = w0 - 0.1 - 0.1 / 2.0f32.sqrt();
        assert!((w1 - expected).abs() < 1e-5, "{w1} vs {expected}");
    }

    #[test]
    fn capacity_accounts_weights() {
        let t = table(100, 8);
        assert_eq!(t.capacity_bytes(), 100 * 8 * 4);
    }
}
