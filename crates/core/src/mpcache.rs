//! MP-Cache: the two-tier cache that makes compute-based embedding paths
//! viable (paper §4.3, Fig. 9, Fig. 16).
//!
//! * [`EncoderCache`] exploits **access frequency**: recommendation
//!   workloads follow power-law ID popularity, so pinning the
//!   pre-computed *final* embeddings of hot `(feature, id)` pairs lets
//!   hits skip the entire encoder-decoder stack.
//! * [`DecoderCache`] exploits **value similarity**: intermediate encoder
//!   outputs are profiled offline into `N` k-means centroids with
//!   pre-computed decoder outputs; at inference the nearest centroid
//!   (normalized dot product + argmax — cheap and parallel) replaces the
//!   decoder MLP run. A batch of misses is scored against every centroid
//!   with one `codes · Cᵀ` GEMM.
//!
//! Both tiers are functional (real data structures, measurable hit rates
//! and approximation error) and expose the cost parameters the hardware
//! model needs to price cached paths.
//!
//! For the multi-threaded serving runtime (`mprec-runtime`) the tiers sit
//! behind [`ShardedMpCache`]: the encoder tier is partitioned into N
//! shards keyed by a `(feature, id)` hash, each shard pairing an
//! immutable (lock-free) static map with an online dynamic tier behind a
//! `parking_lot::RwLock` and an atomic hit/miss/eviction stats block.
//!
//! Each shard also carries a **persistent disk tier**
//! ([`crate::persist::Segment`]): an append-only record log with an
//! in-memory `(feature, id) → offset` index, consulted only after both RAM
//! tiers miss. Disk hits copy the embedding out, count as `disk_hits`, and
//! promote the entry into the dynamic tier. The tier is fed by
//! [`ShardedMpCache::load_disk_segment`] (cluster warm-start on node join)
//! and by [`ShardedMpCache::restore_dynamic`]'s segment files
//! (snapshot/restore across process restarts).

use std::collections::{HashMap, VecDeque};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use mprec_data::SplitMixBuildHasher;
use mprec_embed::DheStack;
use mprec_nn::MlpScratch;
use mprec_tensor::{ops, Matrix};
use parking_lot::{Mutex, RwLock};

use crate::persist::Segment;
use crate::{CoreError, Result};

/// Configuration of both cache tiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpCacheConfig {
    /// Encoder-tier capacity in bytes (paper sweeps 2 KB .. 2 MB).
    pub encoder_bytes: u64,
    /// Decoder-tier centroid count `N` (0 disables the tier).
    pub decoder_centroids: usize,
    /// K-means iterations for centroid construction.
    pub kmeans_iters: usize,
}

impl Default for MpCacheConfig {
    fn default() -> Self {
        MpCacheConfig {
            encoder_bytes: 2_000_000, // the paper's 2 MB sweet spot
            decoder_centroids: 256,
            kmeans_iters: 8,
        }
    }
}

/// Hit/miss counters shared by both tiers.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Encoder-tier (static, profiled top-K) hits.
    pub encoder_hits: u64,
    /// Encoder-tier misses (accesses served by neither encoder tier).
    pub encoder_misses: u64,
    /// Decoder-tier lookups (encoder misses that used centroids).
    pub decoder_lookups: u64,
    /// Dynamic-tier hits (online warm entries; [`ShardedMpCache`] only).
    pub dynamic_hits: u64,
    /// Disk-tier hits (persistent segment entries promoted on access;
    /// [`ShardedMpCache`] only).
    pub disk_hits: u64,
    /// Dynamic-tier evictions ([`ShardedMpCache`] only).
    pub evictions: u64,
}

impl CacheStats {
    /// Encoder hit rate in [0, 1]: hits of any encoder tier (static,
    /// dynamic, or disk) over all lookups.
    pub fn encoder_hit_rate(&self) -> f64 {
        let hits = self.encoder_hits + self.dynamic_hits + self.disk_hits;
        let total = hits + self.encoder_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Total lookups observed. Every access lands in exactly one of the
    /// four buckets, so
    /// `encoder_hits + dynamic_hits + disk_hits + encoder_misses` equals
    /// the number of accesses (property-tested in
    /// `crates/core/tests/sharded_mpcache.rs`).
    pub fn lookups(&self) -> u64 {
        self.encoder_hits + self.dynamic_hits + self.disk_hits + self.encoder_misses
    }

    /// Field-wise sum of two snapshots (merging per-shard stats).
    pub fn merged(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            encoder_hits: self.encoder_hits + other.encoder_hits,
            encoder_misses: self.encoder_misses + other.encoder_misses,
            decoder_lookups: self.decoder_lookups + other.decoder_lookups,
            dynamic_hits: self.dynamic_hits + other.dynamic_hits,
            disk_hits: self.disk_hits + other.disk_hits,
            evictions: self.evictions + other.evictions,
        }
    }
}

/// Frequency-based cache of pre-computed final embeddings for hot IDs.
///
/// The paper's design is a *static* cache: profiled access counts pick the
/// top-K hottest IDs per deployment, and their embeddings are precomputed
/// at mapping time (so a hit costs one small-table lookup).
#[derive(Debug)]
pub struct EncoderCache {
    entries: HashMap<(usize, u64), Vec<f32>>,
    entry_bytes: u64,
    capacity_bytes: u64,
}

impl EncoderCache {
    /// Builds the cache from profiled access counts.
    ///
    /// `access_counts[f]` maps ID -> count for feature `f`; `embed` is
    /// called to pre-compute each cached embedding.
    ///
    /// # Errors
    ///
    /// Propagates embedding errors from `embed`.
    pub fn build(
        access_counts: &[HashMap<u64, u64>],
        emb_dim: usize,
        capacity_bytes: u64,
        mut embed: impl FnMut(usize, u64) -> Result<Vec<f32>>,
    ) -> Result<Self> {
        // Entry cost: id key (8) + feature (8) + vector.
        let entry_bytes = 16 + emb_dim as u64 * 4;
        let max_entries = (capacity_bytes / entry_bytes.max(1)) as usize;
        // Global hottest (feature, id) pairs.
        let mut all: Vec<(u64, usize, u64)> = access_counts
            .iter()
            .enumerate()
            .flat_map(|(f, m)| m.iter().map(move |(&id, &c)| (c, f, id)))
            .collect();
        // Break count ties on (feature, id) so the truncation boundary does
        // not depend on HashMap iteration order — cache contents must be
        // identical across runs for the determinism guarantees tests rely on.
        all.sort_unstable_by_key(|&(c, f, id)| (std::cmp::Reverse(c), f, id));
        all.truncate(max_entries);
        let mut entries = HashMap::with_capacity(all.len());
        for (_, f, id) in all {
            entries.insert((f, id), embed(f, id)?);
        }
        Ok(EncoderCache {
            entries,
            entry_bytes,
            capacity_bytes,
        })
    }

    /// Number of cached embeddings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes used by the cached entries.
    pub fn used_bytes(&self) -> u64 {
        self.entries.len() as u64 * self.entry_bytes
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Looks up a hot embedding.
    pub fn get(&self, feature: usize, id: u64) -> Option<&[f32]> {
        self.entries.get(&(feature, id)).map(Vec::as_slice)
    }

    /// Consumes the cache, yielding its `(feature, id) -> embedding` map
    /// (used by [`ShardedMpCache`] to partition entries across shards).
    pub fn into_entries(self) -> HashMap<(usize, u64), Vec<f32>> {
        self.entries
    }
}

/// An online LRU alternative to the static frequency cache (ablation:
/// the paper's design is static top-K by profiled frequency; LRU needs no
/// profiling pass but pays eviction churn on power-law traffic).
#[derive(Debug)]
pub struct LruEncoderCache {
    entries: HashMap<(usize, u64), (u64, Vec<f32>)>,
    clock: u64,
    max_entries: usize,
    hits: u64,
    misses: u64,
}

impl LruEncoderCache {
    /// Creates an LRU cache with the same byte budget semantics as
    /// [`EncoderCache::build`]: the budget rounds *down* to whole entries,
    /// so a sub-entry budget yields `max_entries == 0` — a disabled tier
    /// that computes every access — rather than silently rounding up to
    /// one entry and comparing a bigger budget than the static cell.
    pub fn new(emb_dim: usize, capacity_bytes: u64) -> Self {
        LruEncoderCache {
            entries: HashMap::new(),
            clock: 0,
            max_entries: budget_entries(emb_dim, capacity_bytes),
            hits: 0,
            misses: 0,
        }
    }

    /// Maximum entries the byte budget allows.
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Serves one embedding, computing and inserting on miss (evicting the
    /// least-recently-used entry at capacity).
    ///
    /// # Errors
    ///
    /// Propagates stack execution errors.
    pub fn embed(&mut self, stack: &DheStack, feature: usize, id: u64) -> Result<Vec<f32>> {
        self.clock += 1;
        let clock = self.clock;
        if let Some((stamp, v)) = self.entries.get_mut(&(feature, id)) {
            *stamp = clock;
            self.hits += 1;
            return Ok(v.clone());
        }
        self.misses += 1;
        let out = stack.infer(&[id])?;
        let v = out.row(0).to_vec();
        // A zero budget disables the tier: compute without caching.
        if self.max_entries == 0 {
            return Ok(v);
        }
        if self.entries.len() >= self.max_entries {
            if let Some((&oldest, _)) = self.entries.iter().min_by_key(|(_, (s, _))| *s) {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert((feature, id), (clock, v.clone()));
        Ok(v)
    }
}

/// Shared byte-budget arithmetic for the online encoder-cache variants:
/// identical to [`EncoderCache::build`] (round down; 0 bytes ⇒ disabled
/// tier) so ablation cells across policies compare equal budgets.
fn budget_entries(emb_dim: usize, capacity_bytes: u64) -> usize {
    let entry_bytes = 16 + emb_dim as u64 * 4;
    (capacity_bytes / entry_bytes.max(1)) as usize
}

/// An online FIFO alternative to the static frequency cache (ablation:
/// cheapest possible eviction bookkeeping — insertion order only — at the
/// cost of evicting hot IDs as readily as cold ones).
#[derive(Debug)]
pub struct FifoEncoderCache {
    entries: HashMap<(usize, u64), Vec<f32>>,
    fifo: VecDeque<(usize, u64)>,
    max_entries: usize,
    hits: u64,
    misses: u64,
}

impl FifoEncoderCache {
    /// Creates a FIFO cache with the same byte budget semantics as
    /// [`EncoderCache::build`] (round down; 0 bytes ⇒ disabled tier).
    pub fn new(emb_dim: usize, capacity_bytes: u64) -> Self {
        FifoEncoderCache {
            entries: HashMap::new(),
            fifo: VecDeque::new(),
            max_entries: budget_entries(emb_dim, capacity_bytes),
            hits: 0,
            misses: 0,
        }
    }

    /// Maximum entries the byte budget allows.
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Current entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Serves one embedding, computing and inserting on miss (evicting the
    /// oldest-inserted entry at capacity).
    ///
    /// # Errors
    ///
    /// Propagates stack execution errors.
    pub fn embed(&mut self, stack: &DheStack, feature: usize, id: u64) -> Result<Vec<f32>> {
        if let Some(v) = self.entries.get(&(feature, id)) {
            self.hits += 1;
            return Ok(v.clone());
        }
        self.misses += 1;
        let out = stack.infer(&[id])?;
        let v = out.row(0).to_vec();
        if self.max_entries == 0 {
            return Ok(v);
        }
        while self.entries.len() >= self.max_entries {
            let Some(oldest) = self.fifo.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
        }
        self.entries.insert((feature, id), v.clone());
        self.fifo.push_back((feature, id));
        Ok(v)
    }
}

/// An online segmented-LRU (SLRU) alternative: new entries enter a
/// *probation* segment; a probation hit promotes to a *protected* segment
/// (4/5 of the budget) whose overflow demotes back to probation. Scan
/// traffic churns only probation, so hot IDs survive one-shot floods —
/// the classic middle ground between FIFO and full LRU.
#[derive(Debug)]
pub struct SegmentedLruEncoderCache {
    /// `key → (stamp, protected?, embedding)`; segments share one map and
    /// are distinguished by the flag, keeping lookups to a single probe.
    entries: HashMap<(usize, u64), (u64, bool, Vec<f32>)>,
    clock: u64,
    max_entries: usize,
    protected_cap: usize,
    protected_len: usize,
    hits: u64,
    misses: u64,
}

impl SegmentedLruEncoderCache {
    /// Creates an SLRU cache with the same byte budget semantics as
    /// [`EncoderCache::build`] (round down; 0 bytes ⇒ disabled tier).
    pub fn new(emb_dim: usize, capacity_bytes: u64) -> Self {
        let max_entries = budget_entries(emb_dim, capacity_bytes);
        SegmentedLruEncoderCache {
            entries: HashMap::new(),
            clock: 0,
            max_entries,
            protected_cap: max_entries * 4 / 5,
            protected_len: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Maximum entries the byte budget allows.
    pub fn max_entries(&self) -> usize {
        self.max_entries
    }

    /// Current entry count across both segments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Least-recently-used key within one segment.
    fn lru_of(&self, protected: bool) -> Option<(usize, u64)> {
        self.entries
            .iter()
            .filter(|(_, (_, p, _))| *p == protected)
            .min_by_key(|(_, (s, _, _))| *s)
            .map(|(&k, _)| k)
    }

    /// Serves one embedding, computing on miss; misses enter probation and
    /// probation hits promote to the protected segment.
    ///
    /// # Errors
    ///
    /// Propagates stack execution errors.
    pub fn embed(&mut self, stack: &DheStack, feature: usize, id: u64) -> Result<Vec<f32>> {
        self.clock += 1;
        let clock = self.clock;
        if let Some((stamp, protected, v)) = self.entries.get_mut(&(feature, id)) {
            *stamp = clock;
            self.hits += 1;
            let out = v.clone();
            if !*protected && self.protected_cap > 0 {
                *protected = true;
                self.protected_len += 1;
                if self.protected_len > self.protected_cap {
                    // Demote the protected LRU back to probation.
                    if let Some(lru) = self.lru_of(true) {
                        if let Some((_, p, _)) = self.entries.get_mut(&lru) {
                            *p = false;
                            self.protected_len -= 1;
                        }
                    }
                }
            }
            return Ok(out);
        }
        self.misses += 1;
        let out = stack.infer(&[id])?;
        let v = out.row(0).to_vec();
        if self.max_entries == 0 {
            return Ok(v);
        }
        if self.entries.len() >= self.max_entries {
            // Evict from probation first; fall back to protected only
            // when probation is empty.
            let victim = self.lru_of(false).or_else(|| self.lru_of(true));
            if let Some(k) = victim {
                if let Some((_, true, _)) = self.entries.remove(&k) {
                    self.protected_len -= 1;
                }
            }
        }
        self.entries.insert((feature, id), (clock, false, v.clone()));
        Ok(v)
    }
}

/// Value-similarity cache: k-means centroids over encoder outputs with
/// pre-computed decoder results.
#[derive(Debug)]
pub struct DecoderCache {
    /// Unit-normalized centroids, stored transposed (`k x N`) so that
    /// scoring a batch of codes is one `codes · Cᵀ` GEMM.
    centroids_t: Matrix,
    /// Pre-computed decoder outputs, `N x out_dim`.
    outputs: Matrix,
}

/// Centroids scored per stack-buffer chunk by [`DecoderCache::nearest`].
const NEAREST_CHUNK: usize = 64;

/// Independent lanes of [`argmax_first`]'s running maxima.
const ARGMAX_LANES: usize = 8;

/// Index and value of the *first* maximum of `scores` — as a strict `>`
/// against a running best that starts at `-inf`: ties keep the lower
/// index, `+0` and `-0` tie, NaN never wins, and an all-NaN, all-`-inf`
/// or empty row yields index 0.
///
/// Branch-free and vectorizable: lane `l` keeps the first maximum of
/// elements `l, l + 8, ...` with selects, and the lanes then reduce to
/// the greatest value, ties to the lowest index — which is the first
/// index holding the row's maximum.
fn argmax_first(scores: &[f32]) -> (usize, f32) {
    let mut best_v = [f32::NEG_INFINITY; ARGMAX_LANES];
    let mut best = [0usize; ARGMAX_LANES];
    let chunks = scores.chunks_exact(ARGMAX_LANES);
    let tail = chunks.remainder();
    for (c, chunk) in chunks.enumerate() {
        for l in 0..ARGMAX_LANES {
            let better = chunk[l] > best_v[l];
            best[l] = if better { c * ARGMAX_LANES + l } else { best[l] };
            best_v[l] = if better { chunk[l] } else { best_v[l] };
        }
    }
    let base = scores.len() - tail.len();
    for (l, &v) in tail.iter().enumerate() {
        if v > best_v[l] {
            (best[l], best_v[l]) = (base + l, v);
        }
    }
    let (mut i, mut v) = (best[0], best_v[0]);
    for l in 1..ARGMAX_LANES {
        if best_v[l] > v || (best_v[l] == v && best[l] < i) {
            (i, v) = (best[l], best_v[l]);
        }
    }
    (i, v)
}

impl DecoderCache {
    /// Profiles `sample_codes` (rows are encoder outputs) into `n`
    /// centroids via Lloyd's k-means and pre-computes decoder outputs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] if there are no sample codes or
    /// `n == 0`; propagates decoder errors.
    pub fn build(
        stack: &DheStack,
        sample_codes: &Matrix,
        n: usize,
        kmeans_iters: usize,
    ) -> Result<Self> {
        if n == 0 || sample_codes.rows() == 0 {
            return Err(CoreError::BadConfig(
                "decoder cache needs samples and n > 0".into(),
            ));
        }
        let k = sample_codes.cols();
        let n = n.min(sample_codes.rows());
        // Init: spread over the sample set.
        let mut centroids = Matrix::zeros(n, k);
        let stride = sample_codes.rows() / n;
        for c in 0..n {
            centroids
                .row_mut(c)
                .copy_from_slice(sample_codes.row(c * stride));
        }
        let mut assignment = vec![0usize; sample_codes.rows()];
        for _ in 0..kmeans_iters {
            // Assign.
            for (i, a) in assignment.iter_mut().enumerate() {
                let row = sample_codes.row(i);
                let mut best = 0;
                let mut best_d = f32::INFINITY;
                for c in 0..n {
                    let d = ops::sq_dist(row, centroids.row(c));
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                *a = best;
            }
            // Update.
            let mut sums = Matrix::zeros(n, k);
            let mut counts = vec![0u64; n];
            for (i, &a) in assignment.iter().enumerate() {
                ops::axpy(1.0, sample_codes.row(i), sums.row_mut(a));
                counts[a] += 1;
            }
            for (c, &count) in counts.iter().enumerate() {
                if count > 0 {
                    let inv = 1.0 / count as f32;
                    for v in sums.row_mut(c).iter_mut() {
                        *v *= inv;
                    }
                    centroids.row_mut(c).copy_from_slice(sums.row(c));
                }
            }
        }
        let outputs = stack.decode(&centroids)?;
        // Normalize centroids so nearest-by-distance becomes
        // max-dot-product (the paper's parallelizable trick: a batch of
        // codes is then scored by one GEMM). We keep only the normalized
        // direction and rely on approximately equal norms of hash codes
        // (uniform in [-1,1]^k).
        for c in 0..centroids.rows() {
            ops::normalize(centroids.row_mut(c));
        }
        Ok(DecoderCache {
            centroids_t: centroids.transposed(),
            outputs,
        })
    }

    /// Number of centroids `N`.
    pub fn num_centroids(&self) -> usize {
        self.centroids_t.cols()
    }

    /// Nearest-centroid index for a code (dot product + argmax; ties go
    /// to the lowest index).
    ///
    /// The query is deliberately *not* normalized: dividing every dot
    /// product by the same positive `||code||` cannot change the argmax,
    /// so skipping it saves a copy + sqrt + divide per lookup and keeps
    /// the hot path allocation-free. (A zero-norm code yields all-zero
    /// dots either way.) Each dot product accumulates in `k` order from
    /// `+0`, exactly as the GEMM of [`DecoderCache::lookup_batch_into`]
    /// does, so the scalar and batched paths pick the same centroid.
    ///
    /// # Panics
    ///
    /// Panics if `code.len()` differs from the centroid dimension `k`.
    pub fn nearest(&self, code: &[f32]) -> usize {
        let (k, n) = self.centroids_t.shape();
        assert_eq!(code.len(), k, "nearest: code length mismatch");
        let ct = self.centroids_t.as_slice();
        let mut scores = [0.0f32; NEAREST_CHUNK];
        let (mut best, mut best_v) = (0, f32::NEG_INFINITY);
        for j0 in (0..n).step_by(NEAREST_CHUNK) {
            let chunk = &mut scores[..NEAREST_CHUNK.min(n - j0)];
            chunk.fill(0.0);
            for (kk, &cv) in code.iter().enumerate() {
                let row = &ct[kk * n + j0..kk * n + j0 + chunk.len()];
                for (s, &x) in chunk.iter_mut().zip(row) {
                    *s += cv * x;
                }
            }
            let (i, v) = argmax_first(chunk);
            if v > best_v {
                (best, best_v) = (j0 + i, v);
            }
        }
        best
    }

    /// Approximate embedding for a code: the pre-computed decoder output
    /// of its nearest centroid.
    pub fn lookup(&self, code: &[f32]) -> &[f32] {
        self.outputs.row(self.nearest(code))
    }

    /// `scores = codes · Cᵀ` (`rows x N`): every code against every
    /// centroid in one GEMM. The first maximum of score row `i` is
    /// `nearest(codes.row(i))`.
    fn score_into(&self, codes: &Matrix, scores: &mut Matrix) -> Result<()> {
        codes
            .matmul_into(&self.centroids_t, scores)
            .map_err(|e| CoreError::Embed(e.into()))
    }

    /// Batched [`DecoderCache::lookup`]: row `i` of `out` (resized to
    /// `rows x out_dim`, reusing its allocation) becomes
    /// `lookup(codes.row(i))`, with all rows scored by one `codes · Cᵀ`
    /// GEMM into `scores`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Embed`] if `codes` does not have `k` columns.
    pub fn lookup_batch_into(
        &self,
        codes: &Matrix,
        scores: &mut Matrix,
        out: &mut Matrix,
    ) -> Result<()> {
        self.score_into(codes, scores)?;
        out.resize_zeroed(codes.rows(), self.outputs.cols());
        for i in 0..codes.rows() {
            let (c, _) = argmax_first(scores.row(i));
            out.row_mut(i).copy_from_slice(self.outputs.row(c));
        }
        Ok(())
    }

    /// FLOPs per lookup (the kNN dot products), for the hardware model.
    pub fn flops_per_lookup(&self) -> u64 {
        (2 * self.centroids_t.rows() * self.centroids_t.cols()) as u64
    }
}

/// Both tiers plus shared statistics, ready to serve one DHE/hybrid path.
#[derive(Debug)]
pub struct MpCache {
    /// Encoder tier (hot-ID embeddings); `None` when capacity is 0.
    pub encoder: Option<EncoderCache>,
    /// Decoder tier (centroids); `None` when `decoder_centroids` is 0.
    pub decoder: Option<DecoderCache>,
    stats: Mutex<CacheStats>,
}

impl MpCache {
    /// Wraps built tiers.
    pub fn new(encoder: Option<EncoderCache>, decoder: Option<DecoderCache>) -> Self {
        MpCache {
            encoder,
            decoder,
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// Serves one embedding through the cache hierarchy:
    /// encoder-tier hit -> cached final embedding; otherwise encode and
    /// use the decoder tier if present; otherwise run the full stack.
    ///
    /// # Errors
    ///
    /// Propagates stack execution errors.
    pub fn embed(&self, stack: &DheStack, feature: usize, id: u64) -> Result<Vec<f32>> {
        if let Some(enc) = &self.encoder {
            if let Some(hit) = enc.get(feature, id) {
                self.stats.lock().encoder_hits += 1;
                return Ok(hit.to_vec());
            }
            self.stats.lock().encoder_misses += 1;
        }
        let mut code = vec![0.0f32; stack.encoder().k()];
        stack.encoder().encode_into(id, &mut code);
        if let Some(dec) = &self.decoder {
            self.stats.lock().decoder_lookups += 1;
            return Ok(dec.lookup(&code).to_vec());
        }
        let m = Matrix::from_vec(1, code.len(), code)
            .expect("code buffer matches encoder k");
        let out = stack.decode(&m)?;
        Ok(out.row(0).to_vec())
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }

    /// Resets the counters.
    pub fn reset_stats(&self) {
        *self.stats.lock() = CacheStats::default();
    }
}

/// Configuration of the sharded, thread-safe MP-Cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedCacheConfig {
    /// Number of shards (rounded up to a power of two, min 1).
    pub shards: usize,
    /// Per-cache budget of *dynamic* (online warm-up) entries, split
    /// evenly across shards; 0 disables the dynamic tier entirely.
    pub dynamic_entries: usize,
}

impl Default for ShardedCacheConfig {
    fn default() -> Self {
        ShardedCacheConfig {
            shards: 16,
            dynamic_entries: 0,
        }
    }
}

/// Lock-free hit/miss/eviction counters (relaxed ordering; the counters
/// are statistics, not synchronization).
#[derive(Debug, Default)]
pub struct AtomicCacheStats {
    encoder_hits: AtomicU64,
    encoder_misses: AtomicU64,
    decoder_lookups: AtomicU64,
    dynamic_hits: AtomicU64,
    disk_hits: AtomicU64,
    evictions: AtomicU64,
}

impl AtomicCacheStats {
    /// Consistent-enough snapshot of the counters (each counter is read
    /// atomically; the set may straddle in-flight updates).
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            encoder_hits: self.encoder_hits.load(Ordering::Relaxed),
            encoder_misses: self.encoder_misses.load(Ordering::Relaxed),
            decoder_lookups: self.decoder_lookups.load(Ordering::Relaxed),
            dynamic_hits: self.dynamic_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.encoder_hits.store(0, Ordering::Relaxed);
        self.encoder_misses.store(0, Ordering::Relaxed);
        self.decoder_lookups.store(0, Ordering::Relaxed);
        self.dynamic_hits.store(0, Ordering::Relaxed);
        self.disk_hits.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

/// Dynamic (online warm-up) tier of one shard: insert-on-miss with FIFO
/// eviction at the per-shard entry budget.
#[derive(Debug, Default)]
struct DynamicTier {
    entries: HashMap<(usize, u64), Vec<f32>, SplitMixBuildHasher>,
    fifo: VecDeque<(usize, u64)>,
}

/// One cache shard: an immutable slice of the static encoder tier (read
/// without any lock) plus a locked dynamic tier, a locked persistent disk
/// tier (consulted only on a RAM miss), and an atomic stats block.
#[derive(Debug)]
struct CacheShard {
    static_entries: HashMap<(usize, u64), Vec<f32>, SplitMixBuildHasher>,
    dynamic: RwLock<DynamicTier>,
    disk: RwLock<Segment>,
    stats: AtomicCacheStats,
}

/// Decoder-tier topology: none, one tier shared by every feature (valid
/// when all features share one decoder), or one tier per sparse feature
/// (each feature's centroids carry *its* decoder's precomputed outputs).
#[derive(Debug)]
enum DecoderTier {
    None,
    Shared(DecoderCache),
    PerFeature(Vec<Option<DecoderCache>>),
}

impl DecoderTier {
    fn for_feature(&self, feature: usize) -> Option<&DecoderCache> {
        match self {
            DecoderTier::None => None,
            DecoderTier::Shared(d) => Some(d),
            DecoderTier::PerFeature(v) => v.get(feature).and_then(Option::as_ref),
        }
    }
}

/// Per-shard probe counters of one [`ShardedMpCache::embed_batch_into`]
/// call, flushed into the shard's [`AtomicCacheStats`] once per call.
#[derive(Debug, Default, Clone, Copy)]
struct ProbeCounts {
    encoder_hits: u64,
    dynamic_hits: u64,
    disk_hits: u64,
    encoder_misses: u64,
    decoder_lookups: u64,
}

/// Reusable buffers for [`ShardedMpCache::embed_batch_into`], owned by
/// one worker and recycled across batches: the miss index, the batched
/// encoder codes, the decoder-tier score matrix, the decoder ping-pong
/// matrices, the output arena for computed misses, per-shard probe
/// counters, and the shard-grouped admission order. After warm-up, a
/// batch whose misses fit the high-water marks performs no heap
/// allocation outside dynamic-tier admission (which itself recycles
/// evicted entries once the tier is full).
#[derive(Debug, Default)]
pub struct BatchScratch {
    miss_slot_of: HashMap<u64, u32, SplitMixBuildHasher>,
    miss_ids: Vec<u64>,
    /// Shard index of each unique miss (parallel to `miss_ids`).
    miss_shard: Vec<u32>,
    cold_rows: Vec<(u32, u32)>,
    codes: Matrix,
    scores: Matrix,
    computed: Matrix,
    mlp: MlpScratch,
    disk_row: Vec<f32>,
    counts: Vec<ProbeCounts>,
    /// Counting-sort buffers grouping misses by shard for admission:
    /// `shard_start[s]..shard_start[s + 1]` indexes `admit_order`.
    shard_start: Vec<u32>,
    shard_fill: Vec<u32>,
    admit_order: Vec<u32>,
}

impl BatchScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Thread-safe MP-Cache for the serving runtime: the encoder tier is
/// partitioned into `N` shards keyed by a `(feature, id)` hash, so
/// concurrent workers contend only on their own shard — and only when
/// they touch the *dynamic* tier, because the static (profiled top-K)
/// entries and the decoder centroids are immutable and read lock-free.
///
/// Sharding never changes hit/miss semantics: the static tier is a pure
/// function of the key, and the dynamic tier partitions its entry budget
/// by the same key hash, so under a sequential access pattern the merged
/// per-shard stats of an `N`-shard cache equal a 1-shard cache's stats
/// whenever the dynamic tier is disabled or unsaturated (property-tested
/// in `crates/core/tests/sharded_mpcache.rs`).
#[derive(Debug)]
pub struct ShardedMpCache {
    shards: Vec<CacheShard>,
    decoder: DecoderTier,
    mask: u64,
    dynamic_per_shard: usize,
    /// Whether any disk segment was loaded since the last
    /// [`ShardedMpCache::clear_disk`]; while false, RAM misses skip the
    /// disk tier's lock.
    disk_loaded: AtomicBool,
}

impl ShardedMpCache {
    /// Builds the sharded cache from (optionally) a built static encoder
    /// tier and a decoder tier shared by every feature.
    pub fn new(
        encoder: Option<EncoderCache>,
        decoder: Option<DecoderCache>,
        cfg: ShardedCacheConfig,
    ) -> Self {
        Self::build(
            encoder,
            match decoder {
                Some(d) => DecoderTier::Shared(d),
                None => DecoderTier::None,
            },
            cfg,
        )
    }

    /// Builds the sharded cache with one decoder tier per sparse feature
    /// (index = feature): multi-feature deployments precompute each
    /// tier's outputs with that feature's own decoder.
    pub fn with_feature_decoders(
        encoder: Option<EncoderCache>,
        decoders: Vec<Option<DecoderCache>>,
        cfg: ShardedCacheConfig,
    ) -> Self {
        Self::build(encoder, DecoderTier::PerFeature(decoders), cfg)
    }

    fn build(encoder: Option<EncoderCache>, decoder: DecoderTier, cfg: ShardedCacheConfig) -> Self {
        let shards = cfg.shards.max(1).next_power_of_two();
        let mask = shards as u64 - 1;
        let mut maps: Vec<HashMap<(usize, u64), Vec<f32>, SplitMixBuildHasher>> =
            (0..shards).map(|_| HashMap::default()).collect();
        if let Some(enc) = encoder {
            for (key, v) in enc.into_entries() {
                maps[(shard_hash(key.0, key.1) & mask) as usize].insert(key, v);
            }
        }
        // A nonzero budget always yields a usable tier: round the
        // per-shard quota up to 1 rather than flooring a small budget
        // (e.g. 10 entries over 16 shards) down to "disabled".
        let dynamic_per_shard = if cfg.dynamic_entries == 0 {
            0
        } else {
            (cfg.dynamic_entries / shards).max(1)
        };
        ShardedMpCache {
            shards: maps
                .into_iter()
                .map(|static_entries| CacheShard {
                    static_entries,
                    dynamic: RwLock::new(DynamicTier::default()),
                    disk: RwLock::new(Segment::new()),
                    stats: AtomicCacheStats::default(),
                })
                .collect(),
            decoder,
            mask,
            dynamic_per_shard,
            disk_loaded: AtomicBool::new(false),
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Entries in the static tier across all shards.
    pub fn static_len(&self) -> usize {
        self.shards.iter().map(|s| s.static_entries.len()).sum()
    }

    /// Entries currently in the dynamic tier across all shards.
    pub fn dynamic_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.dynamic.read().entries.len())
            .sum()
    }

    /// The decoder tier serving `feature`, if any.
    pub fn decoder_for(&self, feature: usize) -> Option<&DecoderCache> {
        self.decoder.for_feature(feature)
    }

    fn shard_index(&self, feature: usize, id: u64) -> usize {
        (shard_hash(feature, id) & self.mask) as usize
    }

    fn shard(&self, feature: usize, id: u64) -> &CacheShard {
        &self.shards[self.shard_index(feature, id)]
    }

    /// Stats of one shard.
    pub fn shard_stats(&self, idx: usize) -> CacheStats {
        self.shards[idx].stats.snapshot()
    }

    /// Merged stats across all shards.
    pub fn stats(&self) -> CacheStats {
        self.shards
            .iter()
            .fold(CacheStats::default(), |acc, s| {
                acc.merged(&s.stats.snapshot())
            })
    }

    /// Resets all shard counters.
    pub fn reset_stats(&self) {
        for s in &self.shards {
            s.stats.reset();
        }
    }

    /// Empties every shard's dynamic (online warm-up) tier; the static
    /// and decoder tiers are immutable and unaffected. Together with
    /// [`ShardedMpCache::reset_stats`] this restores a freshly-built
    /// cache's behaviour between runs.
    pub fn clear_dynamic(&self) {
        for s in &self.shards {
            let mut tier = s.dynamic.write();
            tier.entries.clear();
            tier.fifo.clear();
        }
    }

    /// Entries currently indexed by the disk tier across all shards.
    pub fn disk_len(&self) -> usize {
        self.shards.iter().map(|s| s.disk.read().len()).sum()
    }

    /// Empties every shard's persistent disk tier (e.g. between serving
    /// runs, so warm-start segments loaded mid-run do not leak into the
    /// next run). Preserves any capacity bound set via
    /// [`ShardedMpCache::set_disk_capacity`].
    pub fn clear_disk(&self) {
        for s in &self.shards {
            let cap = s.disk.read().max_records();
            *s.disk.write() = Segment::bounded(cap);
        }
        self.disk_loaded.store(false, Ordering::Release);
    }

    /// Whether a RAM miss must consult the disk tier at all.
    fn disk_may_hit(&self) -> bool {
        self.disk_loaded.load(Ordering::Acquire)
    }

    /// Bounds every shard's disk tier to at most `per_shard_records` log
    /// records (`0` = unbounded, the default). Over-capacity appends first
    /// compact superseded records away; if the live set alone still
    /// exceeds the bound, the oldest live records are evicted. Applying a
    /// tighter bound to already-loaded tiers compacts/evicts immediately.
    pub fn set_disk_capacity(&self, per_shard_records: usize) {
        for s in &self.shards {
            s.disk.write().set_max_records(per_shard_records);
        }
    }

    /// Exports the dynamic-tier entries whose feature satisfies `keep` as
    /// one segment byte stream (shard index order, FIFO order within a
    /// shard — deterministic for a deterministically-warmed cache). This
    /// is the cluster warm-start hand-off: old owners export the moved
    /// features' warm entries for the joining node.
    pub fn export_dynamic_segment(&self, mut keep: impl FnMut(usize) -> bool) -> Vec<u8> {
        let mut seg = Segment::new();
        for shard in &self.shards {
            let tier = shard.dynamic.read();
            for key in &tier.fifo {
                if keep(key.0) {
                    if let Some(v) = tier.entries.get(key) {
                        seg.append(key.0, key.1, v);
                    }
                }
            }
        }
        seg.to_bytes()
    }

    /// Exports the *disk*-tier records whose feature satisfies `keep` as
    /// one segment byte stream (shard index order, log order within a
    /// shard — deterministic). Records are appended in their original
    /// log order, so last-write-wins semantics survive a re-load on the
    /// receiving node. This completes the warm-start hand-off: entries
    /// the old owner had demoted to its disk segment travel with the
    /// dynamic tier instead of being silently lost on migration.
    pub fn export_disk_segment(&self, mut keep: impl FnMut(usize) -> bool) -> Vec<u8> {
        let mut seg = Segment::new();
        for shard in &self.shards {
            let disk = shard.disk.read();
            for (feature, id, values) in disk.iter() {
                if keep(feature) {
                    seg.append(feature, id, &values);
                }
            }
        }
        seg.to_bytes()
    }

    /// Loads segment bytes into the per-shard disk tiers (each record is
    /// routed to its owning shard by key hash), returning the number of
    /// records loaded. Torn trailing records are tolerated and dropped.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] when the bytes do not start with a
    /// valid segment header.
    pub fn load_disk_segment(&self, bytes: &[u8]) -> Result<usize> {
        let seg = Segment::from_bytes(bytes)
            .map_err(|e| CoreError::BadConfig(format!("disk segment: {e}")))?;
        // Raised before the first append, so a reader that skips the
        // disk tier can only have run before this load.
        self.disk_loaded.store(true, Ordering::Release);
        let mut loaded = 0;
        for (feature, id, values) in seg.iter() {
            self.shard(feature, id)
                .disk
                .write()
                .append(feature, id, &values);
            loaded += 1;
        }
        Ok(loaded)
    }

    /// Snapshots the dynamic tier to `dir` as one segment file per shard
    /// (`shard-NNNN.seg`), each written durably (tmp file + rename), so a
    /// crash mid-snapshot leaves every shard file at either the previous
    /// or the new snapshot — never a torn one.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn snapshot_dynamic(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for (i, shard) in self.shards.iter().enumerate() {
            let mut seg = Segment::new();
            {
                let tier = shard.dynamic.read();
                for key in &tier.fifo {
                    if let Some(v) = tier.entries.get(key) {
                        seg.append(key.0, key.1, v);
                    }
                }
            }
            seg.write_to(&dir.join(format!("shard-{i:04}.seg")))?;
        }
        Ok(())
    }

    /// Restores the dynamic tier from a [`ShardedMpCache::snapshot_dynamic`]
    /// directory, replacing current dynamic contents. Records are routed
    /// to shards by key hash (so a snapshot survives a shard-count
    /// change), keep their FIFO order, respect the per-shard budget, and
    /// leave the stats counters untouched. Returns the number of entries
    /// restored. Stray `.tmp` files from an interrupted snapshot are
    /// ignored, so recovery always lands on the last durable snapshot.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; a file that is not a valid segment
    /// surfaces as [`io::ErrorKind::InvalidData`].
    pub fn restore_dynamic(&self, dir: &Path) -> io::Result<usize> {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "seg"))
            .collect();
        files.sort();
        self.clear_dynamic();
        let mut restored = 0;
        for path in files {
            let seg = Segment::read_from(&path)?;
            for (feature, id, values) in seg.iter() {
                let shard = self.shard(feature, id);
                let mut tier = shard.dynamic.write();
                if self.dynamic_per_shard == 0 || tier.entries.len() >= self.dynamic_per_shard {
                    continue;
                }
                if tier.entries.insert((feature, id), values).is_none() {
                    tier.fifo.push_back((feature, id));
                    restored += 1;
                }
            }
        }
        Ok(restored)
    }

    /// Serves one embedding through the sharded hierarchy: static tier
    /// (lock-free) -> dynamic tier (shared read lock) -> disk tier
    /// (persistent segment, RAM misses only) -> encode + decoder tier or
    /// full decoder, inserting the result into the dynamic tier. A disk
    /// hit copies the embedding out, counts `disk_hits`, and promotes the
    /// entry into the dynamic tier so repeats hit RAM.
    ///
    /// # Errors
    ///
    /// Propagates stack execution errors.
    pub fn embed(&self, stack: &DheStack, feature: usize, id: u64) -> Result<Vec<f32>> {
        let shard = self.shard(feature, id);
        let key = (feature, id);
        if let Some(hit) = shard.static_entries.get(&key) {
            shard.stats.encoder_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit.clone());
        }
        if self.dynamic_per_shard > 0 {
            if let Some(hit) = shard.dynamic.read().entries.get(&key) {
                shard.stats.dynamic_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit.clone());
            }
        }
        let mut v = Vec::new();
        if self.disk_may_hit() && shard.disk.read().get_into(feature, id, &mut v) {
            shard.stats.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.admit(shard, key, &v);
            return Ok(v);
        }
        shard.stats.encoder_misses.fetch_add(1, Ordering::Relaxed);
        let v = self.compute_miss(stack, shard, feature, id)?;
        self.admit(shard, key, &v);
        Ok(v)
    }

    /// Batched lookup: one output row per ID, computing all misses with a
    /// single batched encode/decode so workers amortize the decoder GEMMs.
    /// Duplicate cold IDs within the batch are computed once; their stats
    /// follow sequential-[`ShardedMpCache::embed`] semantics (a repeat is
    /// a dynamic hit when the dynamic tier is enabled, another miss when
    /// it is disabled), matching the scalar path exactly whenever the
    /// dynamic tier does not evict mid-batch.
    ///
    /// # Errors
    ///
    /// Propagates stack execution errors.
    pub fn embed_batch(&self, stack: &DheStack, feature: usize, ids: &[u64]) -> Result<Matrix> {
        let mut out = Matrix::zeros(ids.len(), stack.out_dim());
        let mut scratch = BatchScratch::new();
        self.embed_batch_into(stack, feature, ids, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// [`ShardedMpCache::embed_batch`] into caller-provided buffers: the
    /// output arena is resized (reusing its allocation) and every
    /// intermediate lives in `scratch`, so a warm worker serves batches
    /// with zero steady-state heap allocations — hits are row copies out
    /// of the cache tiers, and all misses share one batched encode plus
    /// either one decoder-tier scoring GEMM (`codes · Cᵀ`) or a single
    /// batched decoder MLP through the scratch ping-pong buffers. Probe
    /// counters accumulate per shard in `scratch` and reach the shared
    /// stats once per call (also when the call fails), and misses are
    /// admitted shard by shard under one write lock each, in per-shard
    /// miss order.
    ///
    /// # Errors
    ///
    /// Propagates stack execution errors.
    pub fn embed_batch_into(
        &self,
        stack: &DheStack,
        feature: usize,
        ids: &[u64],
        scratch: &mut BatchScratch,
        out: &mut Matrix,
    ) -> Result<()> {
        scratch.counts.clear();
        scratch.counts.resize(self.shards.len(), ProbeCounts::default());
        let result = self.probe_and_fill(stack, feature, ids, scratch, out);
        for (shard, c) in self.shards.iter().zip(&scratch.counts) {
            for (counter, n) in [
                (&shard.stats.encoder_hits, c.encoder_hits),
                (&shard.stats.dynamic_hits, c.dynamic_hits),
                (&shard.stats.disk_hits, c.disk_hits),
                (&shard.stats.encoder_misses, c.encoder_misses),
                (&shard.stats.decoder_lookups, c.decoder_lookups),
            ] {
                if n > 0 {
                    counter.fetch_add(n, Ordering::Relaxed);
                }
            }
        }
        result
    }

    /// The body of [`ShardedMpCache::embed_batch_into`], counting into
    /// `scratch.counts` (zeroed, one entry per shard) instead of the
    /// shared atomics.
    fn probe_and_fill(
        &self,
        stack: &DheStack,
        feature: usize,
        ids: &[u64],
        scratch: &mut BatchScratch,
        out: &mut Matrix,
    ) -> Result<()> {
        let dim = stack.out_dim();
        out.resize_zeroed(ids.len(), dim);
        let decoder = self.decoder.for_feature(feature);
        let disk_may_hit = self.disk_may_hit();
        // Unique cold IDs to compute, and for every output row of a cold
        // ID the slot its embedding comes from.
        scratch.miss_slot_of.clear();
        scratch.miss_ids.clear();
        scratch.miss_shard.clear();
        scratch.cold_rows.clear();
        for (row, &id) in ids.iter().enumerate() {
            let shard_idx = self.shard_index(feature, id);
            let shard = &self.shards[shard_idx];
            let counts = &mut scratch.counts[shard_idx];
            let key = (feature, id);
            if let Some(hit) = shard.static_entries.get(&key) {
                counts.encoder_hits += 1;
                out.row_mut(row).copy_from_slice(hit);
                continue;
            }
            if self.dynamic_per_shard > 0 {
                if let Some(hit) = shard.dynamic.read().entries.get(&key) {
                    counts.dynamic_hits += 1;
                    out.row_mut(row).copy_from_slice(hit);
                    continue;
                }
            }
            // Disk tier: segments are immutable during a batch (admits go
            // to the dynamic tier), so a disk-resident ID can never also
            // be a pending cold ID — check before the repeat map. With
            // the dynamic tier enabled the promoted entry turns repeats
            // into dynamic hits, exactly like the scalar path.
            if disk_may_hit && shard.disk.read().get_into(feature, id, &mut scratch.disk_row) {
                counts.disk_hits += 1;
                out.row_mut(row).copy_from_slice(&scratch.disk_row);
                self.admit(shard, key, &scratch.disk_row);
                continue;
            }
            if let Some(&slot) = scratch.miss_slot_of.get(&id) {
                // Repeat of a cold ID already pending in this batch: the
                // scalar path would have admitted it by now, so count a
                // dynamic hit when the tier exists; with the tier
                // disabled the scalar path recomputes (another miss, and
                // another decoder-tier lookup when that tier serves it).
                if self.dynamic_per_shard > 0 {
                    counts.dynamic_hits += 1;
                } else {
                    counts.encoder_misses += 1;
                    counts.decoder_lookups += u64::from(decoder.is_some());
                }
                scratch.cold_rows.push((row as u32, slot));
                continue;
            }
            counts.encoder_misses += 1;
            let slot = scratch.miss_ids.len() as u32;
            scratch.miss_slot_of.insert(id, slot);
            scratch.miss_ids.push(id);
            scratch.miss_shard.push(shard_idx as u32);
            scratch.cold_rows.push((row as u32, slot));
        }
        if scratch.miss_ids.is_empty() {
            return Ok(());
        }
        stack.encoder().encode_batch_into(&scratch.miss_ids, &mut scratch.codes);
        let computed: &Matrix = if let Some(dec) = decoder {
            dec.lookup_batch_into(&scratch.codes, &mut scratch.scores, &mut scratch.computed)?;
            for &s in &scratch.miss_shard {
                scratch.counts[s as usize].decoder_lookups += 1;
            }
            &scratch.computed
        } else {
            stack.decode_scratch(&scratch.codes, &mut scratch.mlp)?
        };
        for &(row, slot) in &scratch.cold_rows {
            out.row_mut(row as usize).copy_from_slice(computed.row(slot as usize));
        }
        if self.dynamic_per_shard == 0 {
            return Ok(());
        }
        // Group the misses by shard with a counting sort (stable, so each
        // shard admits in miss order and its FIFO evicts exactly as
        // one-at-a-time admission would), then admit each shard's group
        // under one write lock.
        let shards = self.shards.len();
        scratch.shard_start.clear();
        scratch.shard_start.resize(shards + 1, 0);
        for &s in &scratch.miss_shard {
            scratch.shard_start[s as usize + 1] += 1;
        }
        for s in 0..shards {
            scratch.shard_start[s + 1] += scratch.shard_start[s];
        }
        scratch.shard_fill.clear();
        scratch.shard_fill.extend_from_slice(&scratch.shard_start[..shards]);
        scratch.admit_order.resize(scratch.miss_ids.len(), 0);
        for (slot, &s) in scratch.miss_shard.iter().enumerate() {
            let fill = &mut scratch.shard_fill[s as usize];
            scratch.admit_order[*fill as usize] = slot as u32;
            *fill += 1;
        }
        for (shard, bounds) in self.shards.iter().zip(scratch.shard_start.windows(2)) {
            let group = &scratch.admit_order[bounds[0] as usize..bounds[1] as usize];
            if group.is_empty() {
                continue;
            }
            let mut tier = shard.dynamic.write();
            let mut evicted = 0;
            for &slot in group {
                let id = scratch.miss_ids[slot as usize];
                evicted += self.admit_locked(&mut tier, (feature, id), computed.row(slot as usize));
            }
            if evicted > 0 {
                shard.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    fn compute_miss(
        &self,
        stack: &DheStack,
        shard: &CacheShard,
        feature: usize,
        id: u64,
    ) -> Result<Vec<f32>> {
        let mut code = vec![0.0f32; stack.encoder().k()];
        stack.encoder().encode_into(id, &mut code);
        if let Some(dec) = self.decoder.for_feature(feature) {
            shard.stats.decoder_lookups.fetch_add(1, Ordering::Relaxed);
            return Ok(dec.lookup(&code).to_vec());
        }
        let m = Matrix::from_vec(1, code.len(), code).expect("code buffer matches encoder k");
        let out = stack.decode(&m)?;
        Ok(out.row(0).to_vec())
    }

    /// Inserts a computed embedding into the shard's dynamic tier (FIFO
    /// eviction at the per-shard budget); no-op when the tier is disabled
    /// or another thread already inserted the key.
    fn admit(&self, shard: &CacheShard, key: (usize, u64), v: &[f32]) {
        if self.dynamic_per_shard == 0 {
            return;
        }
        let evicted = self.admit_locked(&mut shard.dynamic.write(), key, v);
        if evicted > 0 {
            shard.stats.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// [`ShardedMpCache::admit`] under a held write lock, returning the
    /// number of entries evicted (for the caller to count).
    ///
    /// The evicted entry's buffer is recycled for the incoming value, so
    /// once a shard's tier is full, admission stops allocating: the map
    /// and FIFO stay at constant size and the embedding vector is reused.
    fn admit_locked(&self, tier: &mut DynamicTier, key: (usize, u64), v: &[f32]) -> u64 {
        if tier.entries.contains_key(&key) {
            return 0;
        }
        let mut evicted = 0;
        let mut recycled: Option<Vec<f32>> = None;
        while tier.entries.len() >= self.dynamic_per_shard {
            let Some(oldest) = tier.fifo.pop_front() else {
                break;
            };
            recycled = tier.entries.remove(&oldest);
            evicted += 1;
        }
        let mut buf = recycled.unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(v);
        tier.entries.insert(key, buf);
        tier.fifo.push_back(key);
        evicted
    }
}

/// Shard selector: a splitmix64-style mix of the feature-salted ID so
/// consecutive IDs of one feature spread across shards.
fn shard_hash(feature: usize, id: u64) -> u64 {
    mprec_data::splitmix64((feature as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mprec_embed::DheConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stack() -> DheStack {
        let mut rng = StdRng::seed_from_u64(0);
        DheStack::new(
            DheConfig {
                k: 16,
                dnn: 16,
                h: 1,
                out_dim: 8,
            },
            0,
            &mut rng,
        )
        .unwrap()
    }

    fn counts_single_feature(hot: u64) -> Vec<HashMap<u64, u64>> {
        let mut m = HashMap::new();
        for id in 0..100u64 {
            m.insert(id, if id == hot { 1000 } else { 1 });
        }
        vec![m]
    }

    #[test]
    fn encoder_cache_pins_hottest_ids() {
        let s = stack();
        let cache = EncoderCache::build(&counts_single_feature(42), 8, 200, |_, id| {
            Ok(s.infer(&[id]).unwrap().row(0).to_vec())
        })
        .unwrap();
        // 200 bytes / 48-byte entries = 4 entries; hottest id must be in.
        assert!(cache.len() <= 4);
        assert!(cache.get(0, 42).is_some());
        assert!(cache.used_bytes() <= 200);
    }

    #[test]
    fn encoder_cache_hit_matches_full_stack() {
        let s = stack();
        let cache = EncoderCache::build(&counts_single_feature(7), 8, 10_000, |_, id| {
            Ok(s.infer(&[id]).unwrap().row(0).to_vec())
        })
        .unwrap();
        let hit = cache.get(0, 7).unwrap();
        let full = s.infer(&[7]).unwrap();
        assert_eq!(hit, full.row(0));
    }

    #[test]
    fn decoder_cache_recovers_exact_centroid_points() {
        let s = stack();
        let ids: Vec<u64> = (0..64).collect();
        let codes = s.encoder().encode_batch(&ids);
        let cache = DecoderCache::build(&s, &codes, 64, 5).unwrap();
        // With as many centroids as points, each point is (close to) its
        // own centroid, so the approximation is near-exact.
        let code0 = codes.row(0);
        let approx = cache.lookup(code0);
        let exact = s.infer(&[0]).unwrap();
        let err: f32 = approx
            .iter()
            .zip(exact.row(0))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(err < 0.5, "approximation error {err}");
    }

    #[test]
    fn decoder_cache_flops_scale_with_n() {
        let s = stack();
        let ids: Vec<u64> = (0..128).collect();
        let codes = s.encoder().encode_batch(&ids);
        let small = DecoderCache::build(&s, &codes, 8, 3).unwrap();
        let large = DecoderCache::build(&s, &codes, 64, 3).unwrap();
        assert!(large.flops_per_lookup() > small.flops_per_lookup());
        assert_eq!(small.flops_per_lookup(), (2 * 8 * 16) as u64);
    }

    #[test]
    fn mpcache_counts_hits_and_misses() {
        let s = stack();
        let enc = EncoderCache::build(&counts_single_feature(3), 8, 64, |_, id| {
            Ok(s.infer(&[id]).unwrap().row(0).to_vec())
        })
        .unwrap();
        let cache = MpCache::new(Some(enc), None);
        let _ = cache.embed(&s, 0, 3).unwrap(); // hit
        let _ = cache.embed(&s, 0, 99).unwrap(); // miss -> full stack
        let stats = cache.stats();
        assert_eq!(stats.encoder_hits, 1);
        assert_eq!(stats.encoder_misses, 1);
        assert_eq!(stats.encoder_hit_rate(), 0.5);
    }

    #[test]
    fn mpcache_miss_path_without_decoder_is_exact() {
        let s = stack();
        let cache = MpCache::new(None, None);
        let via_cache = cache.embed(&s, 0, 55).unwrap();
        let exact = s.infer(&[55]).unwrap();
        assert_eq!(via_cache.as_slice(), exact.row(0));
    }

    #[test]
    fn lru_cache_hits_after_insert_and_respects_capacity() {
        let s = stack();
        let mut lru = LruEncoderCache::new(8, 200); // 4 entries
        assert_eq!(lru.max_entries(), 4);
        for id in 0..6u64 {
            let _ = lru.embed(&s, 0, id).unwrap();
        }
        assert!(lru.len() <= 4);
        // Recently used id hits; a long-evicted one misses.
        let before = lru.hit_rate();
        let _ = lru.embed(&s, 0, 5).unwrap();
        assert!(lru.hit_rate() >= before, "recent id should hit");
    }

    #[test]
    fn lru_matches_full_stack_output() {
        let s = stack();
        let mut lru = LruEncoderCache::new(8, 10_000);
        let via = lru.embed(&s, 0, 42).unwrap();
        let again = lru.embed(&s, 0, 42).unwrap();
        let direct = s.infer(&[42]).unwrap();
        assert_eq!(via, again);
        assert_eq!(via.as_slice(), direct.row(0));
        assert!(lru.hit_rate() > 0.0);
    }

    /// The batched decoder-tier kNN (one `codes · Cᵀ` GEMM + first-max
    /// argmax per row) against the scalar [`DecoderCache::nearest`].
    mod batched_knn {
        use super::*;
        use proptest::prelude::*;
        use rand::Rng;

        /// Checks that every row of `codes` gets the same centroid from
        /// the batched scores as from `nearest`, and the same embedding
        /// from `lookup_batch_into` as from `lookup`.
        fn batch_agrees_with_nearest(
            dec: &DecoderCache,
            codes: &Matrix,
        ) -> std::result::Result<(), TestCaseError> {
            let (mut scores, mut out) = (Matrix::default(), Matrix::default());
            dec.lookup_batch_into(codes, &mut scores, &mut out).unwrap();
            prop_assert_eq!(scores.shape(), (codes.rows(), dec.num_centroids()));
            for i in 0..codes.rows() {
                let nearest = dec.nearest(codes.row(i));
                prop_assert_eq!(argmax_first(scores.row(i)).0, nearest, "row {}", i);
                prop_assert_eq!(out.row(i), dec.lookup(codes.row(i)), "row {}", i);
            }
            Ok(())
        }

        /// Random codes uniform in `[-1, 1]^k` plus one all-zero code.
        fn random_codes(rows: usize, k: usize, rng: &mut StdRng) -> Matrix {
            Matrix::from_fn(rows + 1, k, |r, _| {
                if r == rows {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn batched_index_equals_nearest(
                // Centroid counts on both sides of the 16-wide GEMM tile
                // and of `nearest`'s 64-centroid chunk.
                n_idx in 0usize..6,
                rows in 1usize..40,
                seed in 0u64..1_000_000,
            ) {
                let n = [1, 7, 16, 33, 64, 70][n_idx];
                let s = stack();
                let ids: Vec<u64> = (0..160).map(|i| i * 31 + seed).collect();
                let dec = DecoderCache::build(&s, &s.encoder().encode_batch(&ids), n, 2).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                batch_agrees_with_nearest(&dec, &random_codes(rows, 16, &mut rng))?;
                // Codes the encoder actually produces, centroids' own
                // sample points included.
                batch_agrees_with_nearest(&dec, &s.encoder().encode_batch(&ids[..rows]))?;
            }

            #[test]
            fn lane_argmax_equals_a_sequential_strict_scan(
                len in 0usize..40,
                seed in 0u64..1_000_000,
            ) {
                // Few distinct values, so ties (also across lanes and the
                // tail), signed zeros, -inf and NaN all occur.
                let pool = [1.0, 0.5, 0.0, -0.0, f32::NEG_INFINITY, f32::NAN];
                let mut rng = StdRng::seed_from_u64(seed);
                let row: Vec<f32> = (0..len).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
                let mut expect = (0, f32::NEG_INFINITY);
                for (i, &v) in row.iter().enumerate() {
                    if v > expect.1 {
                        expect = (i, v);
                    }
                }
                prop_assert_eq!(argmax_first(&row).0, expect.0, "row {:?}", row);
            }

            #[test]
            fn duplicated_centroids_pick_the_first_index(
                distinct in 1usize..6,
                copies in 2usize..5,
                rows in 1usize..20,
                seed in 0u64..1_000_000,
            ) {
                let k = 16;
                let mut rng = StdRng::seed_from_u64(seed);
                let mut base = Matrix::from_fn(distinct, k, |_, _| rng.gen_range(-1.0f32..1.0));
                for c in 0..distinct {
                    ops::normalize(base.row_mut(c));
                }
                // Centroid j is base row j % distinct: every direction
                // appears `copies` times, each copy with its own output.
                let n = distinct * copies;
                let centroids = Matrix::from_fn(n, k, |j, l| base.row(j % distinct)[l]);
                let dec = DecoderCache {
                    centroids_t: centroids.transposed(),
                    outputs: Matrix::from_fn(n, 2, |j, l| (j * 2 + l) as f32),
                };
                let mut codes = random_codes(rows, k, &mut rng);
                codes.row_mut(0).copy_from_slice(base.row(0));
                batch_agrees_with_nearest(&dec, &codes)?;
                for i in 0..codes.rows() {
                    // Ties resolve to the first copy of the direction.
                    prop_assert!(dec.nearest(codes.row(i)) < distinct, "row {}", i);
                }
            }
        }
    }

    #[test]
    fn decoder_cache_rejects_empty_input() {
        let s = stack();
        let empty = Matrix::zeros(0, 16);
        assert!(DecoderCache::build(&s, &empty, 8, 3).is_err());
    }

    fn sharded(shards: usize, dynamic_entries: usize) -> (DheStack, ShardedMpCache) {
        let s = stack();
        let enc = EncoderCache::build(&counts_single_feature(3), 8, 10 * 48, |_, id| {
            Ok(s.infer(&[id]).unwrap().row(0).to_vec())
        })
        .unwrap();
        let cache = ShardedMpCache::new(
            Some(enc),
            None,
            ShardedCacheConfig { shards, dynamic_entries },
        );
        (s, cache)
    }

    #[test]
    fn sharded_static_hits_match_full_stack() {
        let (s, cache) = sharded(4, 0);
        assert_eq!(cache.num_shards(), 4);
        assert_eq!(cache.static_len(), 10);
        let via = cache.embed(&s, 0, 3).unwrap();
        let exact = s.infer(&[3]).unwrap();
        assert_eq!(via.as_slice(), exact.row(0));
        let stats = cache.stats();
        assert_eq!(stats.encoder_hits, 1);
        assert_eq!(stats.encoder_misses, 0);
    }

    #[test]
    fn sharded_miss_path_is_exact_without_decoder() {
        let (s, cache) = sharded(8, 0);
        let via = cache.embed(&s, 0, 999).unwrap();
        let exact = s.infer(&[999]).unwrap();
        assert_eq!(via.as_slice(), exact.row(0));
        assert_eq!(cache.stats().encoder_misses, 1);
        assert_eq!(cache.dynamic_len(), 0, "dynamic tier disabled");
    }

    #[test]
    fn sharded_dynamic_tier_warms_up_and_evicts() {
        let (s, cache) = sharded(1, 2);
        // Two distinct cold IDs fill the 2-entry shard budget.
        let _ = cache.embed(&s, 0, 500).unwrap();
        let _ = cache.embed(&s, 0, 501).unwrap();
        // Re-access hits the dynamic tier.
        let _ = cache.embed(&s, 0, 500).unwrap();
        assert_eq!(cache.stats().dynamic_hits, 1);
        // A third cold ID evicts the FIFO-oldest (500).
        let _ = cache.embed(&s, 0, 502).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.dynamic_len(), 2);
        let _ = cache.embed(&s, 0, 500).unwrap();
        assert_eq!(cache.stats().dynamic_hits, 1, "500 was evicted");
    }

    #[test]
    fn sharded_batch_matches_scalar_path() {
        // Includes duplicate cold IDs (21 appears three times, 25 twice):
        // the batch path must compute each once yet report the same stats
        // as sequential scalar embeds.
        for dynamic_entries in [0usize, 64] {
            let (s, cache) = sharded(4, dynamic_entries);
            let mut ids: Vec<u64> = (0..32).collect();
            ids.extend([21, 25, 21]);
            let batch = cache.embed_batch(&s, 0, &ids).unwrap();
            let (s2, cache2) = sharded(4, dynamic_entries);
            assert_eq!(s.infer(&[0]).unwrap(), s2.infer(&[0]).unwrap());
            for (i, &id) in ids.iter().enumerate() {
                let scalar = cache2.embed(&s2, 0, id).unwrap();
                assert_eq!(batch.row(i), scalar.as_slice(), "id {id}");
            }
            assert_eq!(
                cache.stats(),
                cache2.stats(),
                "dynamic_entries = {dynamic_entries}"
            );
        }
    }

    #[test]
    fn batched_admission_keeps_each_shards_fifo_order() {
        // 40 distinct cold IDs into 4 shards of 4 dynamic entries: every
        // shard evicts within the batch, so the surviving entries and
        // their FIFO order expose the admission order per shard.
        let ids: Vec<u64> = (1000..1040).collect();
        let (s, batched) = sharded(4, 16);
        let _ = batched.embed_batch(&s, 0, &ids).unwrap();
        let (s2, scalar) = sharded(4, 16);
        for &id in &ids {
            let _ = scalar.embed(&s2, 0, id).unwrap();
        }
        assert!(batched.stats().evictions > 0);
        assert_eq!(batched.stats(), scalar.stats());
        assert_eq!(
            batched.export_dynamic_segment(|_| true),
            scalar.export_dynamic_segment(|_| true),
            "same entries in the same per-shard FIFO order"
        );
    }

    #[test]
    fn embed_batch_into_matches_embed_batch_and_reuses_buffers() {
        for dynamic_entries in [0usize, 64] {
            let (s, cache) = sharded(4, dynamic_entries);
            let mut ids: Vec<u64> = (0..40).collect();
            ids.extend([7, 33, 7]);
            let (s2, cache2) = sharded(4, dynamic_entries);
            let owned = cache2.embed_batch(&s2, 0, &ids).unwrap();
            let mut scratch = BatchScratch::new();
            let mut out = Matrix::zeros(0, 0);
            cache.embed_batch_into(&s, 0, &ids, &mut scratch, &mut out).unwrap();
            assert_eq!(out, owned, "dynamic_entries = {dynamic_entries}");
            assert_eq!(cache.stats(), cache2.stats());
            // Steady state: a second identical batch reuses the arena.
            let ptr = out.as_slice().as_ptr();
            cache.embed_batch_into(&s, 0, &ids, &mut scratch, &mut out).unwrap();
            assert_eq!(out.as_slice().as_ptr(), ptr, "output arena reused");
        }
    }

    #[test]
    fn admit_recycles_evicted_buffers() {
        // A full dynamic tier keeps serving correct values while staying
        // at its budget (the recycled-allocation path).
        let (s, cache) = sharded(1, 2);
        for id in 500..510u64 {
            let via = cache.embed(&s, 0, id).unwrap();
            let exact = s.infer(&[id]).unwrap();
            assert_eq!(via.as_slice(), exact.row(0), "id {id}");
        }
        assert_eq!(cache.dynamic_len(), 2, "tier pinned at budget");
        assert_eq!(cache.stats().evictions, 8);
    }

    #[test]
    fn small_dynamic_budget_is_not_silently_disabled() {
        // 10 entries over 8 shards must still warm (>= 1 per shard), not
        // floor to zero.
        let (s, cache) = sharded(8, 10);
        let _ = cache.embed(&s, 0, 900).unwrap(); // cold -> admitted
        let _ = cache.embed(&s, 0, 900).unwrap(); // warm hit
        assert_eq!(cache.stats().dynamic_hits, 1);
    }

    #[test]
    fn online_cache_budgets_match_static_build_semantics() {
        // Regression for the ablation's budget parity: every online policy
        // must round the byte budget *down* to whole entries exactly like
        // EncoderCache::build — a sub-entry budget disables the tier
        // instead of silently granting one entry.
        let s = stack();
        for (bytes, want) in [(0u64, 0usize), (47, 0), (144, 3), (192, 4)] {
            let built = EncoderCache::build(&counts_single_feature(1), 8, bytes, |_, id| {
                Ok(s.infer(&[id]).unwrap().row(0).to_vec())
            })
            .unwrap();
            assert_eq!(built.len(), want, "{bytes} B static");
            assert_eq!(LruEncoderCache::new(8, bytes).max_entries(), want, "{bytes} B lru");
            assert_eq!(FifoEncoderCache::new(8, bytes).max_entries(), want, "{bytes} B fifo");
            assert_eq!(
                SegmentedLruEncoderCache::new(8, bytes).max_entries(),
                want,
                "{bytes} B slru"
            );
        }
    }

    #[test]
    fn zero_budget_online_caches_stay_empty_but_serve() {
        let s = stack();
        let mut lru = LruEncoderCache::new(8, 10);
        let mut fifo = FifoEncoderCache::new(8, 10);
        let mut slru = SegmentedLruEncoderCache::new(8, 10);
        let exact = s.infer(&[42]).unwrap();
        for _ in 0..2 {
            assert_eq!(lru.embed(&s, 0, 42).unwrap().as_slice(), exact.row(0));
            assert_eq!(fifo.embed(&s, 0, 42).unwrap().as_slice(), exact.row(0));
            assert_eq!(slru.embed(&s, 0, 42).unwrap().as_slice(), exact.row(0));
        }
        assert_eq!(lru.len(), 0, "disabled tier never stores");
        assert_eq!(fifo.len(), 0);
        assert_eq!(slru.len(), 0);
        assert_eq!(lru.hit_rate(), 0.0, "repeats recompute, never hit");
    }

    #[test]
    fn fifo_cache_evicts_in_insertion_order() {
        let s = stack();
        let mut fifo = FifoEncoderCache::new(8, 48 * 2);
        assert_eq!(fifo.max_entries(), 2);
        let _ = fifo.embed(&s, 0, 1).unwrap();
        let _ = fifo.embed(&s, 0, 2).unwrap();
        let _ = fifo.embed(&s, 0, 1).unwrap(); // hit; FIFO order unchanged
        let _ = fifo.embed(&s, 0, 3).unwrap(); // evicts 1 (oldest inserted)
        assert_eq!(fifo.len(), 2);
        let before = fifo.hit_rate();
        let _ = fifo.embed(&s, 0, 1).unwrap();
        assert!(fifo.hit_rate() < before, "1 was evicted despite its reuse");
    }

    #[test]
    fn slru_protects_reused_ids_from_scan_floods() {
        let s = stack();
        let mut slru = SegmentedLruEncoderCache::new(8, 48 * 5);
        let _ = slru.embed(&s, 0, 0).unwrap();
        let _ = slru.embed(&s, 0, 0).unwrap(); // probation hit -> protected
        for id in 1..=100u64 {
            let _ = slru.embed(&s, 0, id).unwrap(); // one-shot scan flood
        }
        assert!(slru.len() <= 5);
        let before = slru.hit_rate();
        let _ = slru.embed(&s, 0, 0).unwrap();
        assert!(slru.hit_rate() > before, "protected id survived the scan");
    }

    #[test]
    fn disk_tier_hits_promote_and_count() {
        let (sd, donor) = sharded(4, 64);
        for id in 200..210u64 {
            let _ = donor.embed(&sd, 0, id).unwrap();
        }
        let seg = donor.export_dynamic_segment(|_| true);
        let (s, cache) = sharded(4, 64);
        let loaded = cache.load_disk_segment(&seg).unwrap();
        assert_eq!(loaded, donor.dynamic_len());
        assert_eq!(cache.disk_len(), loaded);
        let via = cache.embed(&s, 0, 205).unwrap();
        let exact = s.infer(&[205]).unwrap();
        assert_eq!(via.as_slice(), exact.row(0), "disk hit is byte-exact");
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.encoder_misses, 0);
        // Promotion: the repeat hits the dynamic tier in RAM.
        let _ = cache.embed(&s, 0, 205).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.dynamic_hits, 1);
        assert_eq!(stats.lookups(), 2);
        cache.clear_disk();
        assert_eq!(cache.disk_len(), 0);
    }

    #[test]
    fn disk_tier_is_skipped_until_loaded_and_again_after_clear() {
        let (sd, warm) = sharded(4, 64);
        let _ = warm.embed(&sd, 0, 205).unwrap();
        let seg = warm.export_dynamic_segment(|_| true);
        let (s, cache) = sharded(4, 0);
        assert!(!cache.disk_may_hit(), "a fresh cache has no disk tier to probe");
        cache.load_disk_segment(&seg).unwrap();
        assert!(cache.disk_may_hit());
        let _ = cache.embed_batch(&s, 0, &[205]).unwrap();
        assert_eq!(cache.stats().disk_hits, 1);
        cache.clear_disk();
        assert!(!cache.disk_may_hit());
        let _ = cache.embed_batch(&s, 0, &[205]).unwrap();
        assert_eq!(cache.stats().encoder_misses, 1, "cleared disk tier misses");
        cache.load_disk_segment(&seg).unwrap();
        let _ = cache.embed_batch(&s, 0, &[205]).unwrap();
        assert_eq!(cache.stats().disk_hits, 2, "a reload raises the flag again");
    }

    #[test]
    fn failed_batch_still_flushes_its_probe_counts() {
        let s = stack();
        // A decoder tier whose centroids are 8-wide cannot score the
        // stack's 16-wide codes: the batched kNN GEMM fails after every
        // ID has been probed.
        let other = DheStack::new(
            DheConfig {
                k: 8,
                dnn: 16,
                h: 1,
                out_dim: 8,
            },
            0,
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap();
        let ids: Vec<u64> = (0..64).collect();
        let dec = DecoderCache::build(&other, &other.encoder().encode_batch(&ids), 4, 1).unwrap();
        let cache = ShardedMpCache::with_feature_decoders(
            None,
            vec![Some(dec)],
            ShardedCacheConfig {
                shards: 4,
                dynamic_entries: 0,
            },
        );
        let mut scratch = BatchScratch::new();
        let mut out = Matrix::default();
        let batch = [1u64, 2, 3, 2, 9, 40];
        assert!(cache
            .embed_batch_into(&s, 0, &batch, &mut scratch, &mut out)
            .is_err());
        let stats = cache.stats();
        assert_eq!(stats.encoder_misses, 6, "every probe is counted");
        // The repeat of id 2 counts its decoder lookup at probe time (the
        // scalar path would have looked it up again); the five unique
        // misses never reached a successful lookup.
        assert_eq!(stats.decoder_lookups, 1);
        // The scratch is reusable: the next call starts from zero counts.
        let good = ShardedMpCache::new(None, None, ShardedCacheConfig::default());
        good.embed_batch_into(&s, 0, &batch, &mut scratch, &mut out).unwrap();
        assert_eq!(good.stats().encoder_misses, 6);
    }

    #[test]
    fn disk_tier_capacity_bounds_each_shard() {
        let (sd, donor) = sharded(1, 64);
        for id in 0..24u64 {
            let _ = donor.embed(&sd, 0, id).unwrap();
        }
        let seg = donor.export_dynamic_segment(|_| true);
        // Ids that hit the static encoder tier never reach the dynamic
        // tier, so derive the exported set from the segment itself.
        let exported: Vec<(usize, u64)> = Segment::from_bytes(&seg)
            .unwrap()
            .iter()
            .map(|(f, id, _)| (f, id))
            .collect();
        assert!(exported.len() > 8, "need enough records to overflow the bound");
        let (_, cache) = sharded(1, 64);
        cache.set_disk_capacity(6);
        cache.load_disk_segment(&seg).unwrap();
        // One shard, bounded to 6 records: only the 6 newest survive.
        assert_eq!(cache.disk_len(), 6);
        let mut buf = Vec::new();
        for &(f, id) in &exported[exported.len() - 6..] {
            assert!(cache.shard(f, id).disk.read().get_into(f, id, &mut buf));
        }
        let (f0, id0) = exported[0];
        assert!(!cache.shard(f0, id0).disk.read().get_into(f0, id0, &mut buf));
        // Tightening an already-loaded tier evicts immediately; clearing
        // keeps the bound for the next load.
        cache.set_disk_capacity(2);
        assert_eq!(cache.disk_len(), 2);
        cache.clear_disk();
        assert_eq!(cache.disk_len(), 0);
        cache.load_disk_segment(&seg).unwrap();
        assert_eq!(cache.disk_len(), 2);
        // Unbounding (0) restores unbounded loads.
        cache.set_disk_capacity(0);
        cache.clear_disk();
        cache.load_disk_segment(&seg).unwrap();
        assert_eq!(cache.disk_len(), exported.len());
    }

    #[test]
    fn sharded_batch_matches_scalar_with_disk_tier() {
        for dynamic_entries in [0usize, 64] {
            let (sd, donor) = sharded(4, 64);
            for id in 0..20u64 {
                let _ = donor.embed(&sd, 0, id).unwrap();
            }
            let seg = donor.export_dynamic_segment(|_| true);
            let (s, cache) = sharded(4, dynamic_entries);
            cache.load_disk_segment(&seg).unwrap();
            let (s2, cache2) = sharded(4, dynamic_entries);
            cache2.load_disk_segment(&seg).unwrap();
            let mut ids: Vec<u64> = (0..32).collect();
            ids.extend([21, 25, 21, 5, 5]);
            let batch = cache.embed_batch(&s, 0, &ids).unwrap();
            for (i, &id) in ids.iter().enumerate() {
                let scalar = cache2.embed(&s2, 0, id).unwrap();
                assert_eq!(batch.row(i), scalar.as_slice(), "id {id}");
            }
            assert_eq!(
                cache.stats(),
                cache2.stats(),
                "dynamic_entries = {dynamic_entries}"
            );
            assert!(cache.stats().disk_hits > 0, "disk tier served lookups");
        }
    }

    #[test]
    fn export_respects_the_feature_filter() {
        let s = stack();
        let enc = EncoderCache::build(&counts_single_feature(3), 8, 0, |_, id| {
            Ok(s.infer(&[id]).unwrap().row(0).to_vec())
        })
        .unwrap();
        let cache = ShardedMpCache::new(
            Some(enc),
            None,
            ShardedCacheConfig { shards: 2, dynamic_entries: 32 },
        );
        for id in 0..8u64 {
            let _ = cache.embed(&s, 0, id).unwrap();
            let _ = cache.embed(&s, 1, id).unwrap();
        }
        let seg = cache.export_dynamic_segment(|f| f == 1);
        let (_, fresh) = sharded(2, 32);
        assert_eq!(fresh.load_disk_segment(&seg).unwrap(), 8);
        let mut buf = Vec::new();
        // Only feature 1 entries were shipped.
        assert_eq!(fresh.disk_len(), 8);
        for id in 0..8u64 {
            let hit = fresh
                .shard(1, id)
                .disk
                .read()
                .get_into(1, id, &mut buf);
            assert!(hit, "feature 1 id {id} shipped");
            assert!(!fresh.shard(0, id).disk.read().get_into(0, id, &mut buf));
        }
    }

    #[test]
    fn sharded_concurrent_access_counts_every_lookup() {
        use std::sync::Arc;
        let (s, cache) = sharded(8, 32);
        let s = Arc::new(s);
        let cache = Arc::new(cache);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        let id = (t * 13 + i) % 40;
                        let _ = cache.embed(&s, 0, id).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cache.stats().lookups(), 1000, "no lost or double counts");
    }
}
