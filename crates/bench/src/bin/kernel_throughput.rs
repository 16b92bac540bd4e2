//! Kernel throughput sweep: naive vs tiled GEMM GFLOP/s across sizes
//! (median, min and max over reps), table gather-add bandwidth, Zipf
//! draw cost, DHE encode rate, the batched decoder-tier kNN cost per
//! miss, and end-to-end `RuntimeModel` samples/s before (naive kernels +
//! allocating execute) vs after (tiled kernels + zero-allocation scratch
//! execute). Writes `BENCH_kernels.json` (the repo's kernel-perf
//! trajectory artifact) with the host it ran on.
//!
//! Usage:
//!   kernel_throughput \[reps\]  full sweep (default 9 reps/cell)
//!   kernel_throughput --smoke  CI smoke: tiny shapes, asserts the tiled
//!                              kernel matches naive, still writes JSON

use std::fmt::Write as _;
use std::time::Instant;

use mprec_core::mpcache::DecoderCache;
use mprec_data::Zipf;
use mprec_embed::{DheConfig, DheEncoder, DheStack, EmbeddingTable};
use mprec_runtime::{PathKind, RuntimeModel, RuntimeModelConfig};
use mprec_tensor::{init, kernels, Kernel, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Median, fastest and slowest of a set of measurements.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    /// Maps every statistic through `f`; a decreasing `f` (time to rate)
    /// swaps `min` and `max`.
    fn map(self, f: impl Fn(f64) -> f64) -> Spread {
        let (a, b) = (f(self.min), f(self.max));
        Spread {
            median: f(self.median),
            min: a.min(b),
            max: a.max(b),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"median\":{:.3},\"min\":{:.3},\"max\":{:.3}}}",
            self.median, self.min, self.max
        )
    }
}

/// Wall time in seconds of `reps` runs of `f` (at least one).
fn timed(reps: usize, mut f: impl FnMut()) -> Spread {
    let mut secs: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    Spread {
        median: secs[secs.len() / 2],
        min: secs[0],
        max: secs[secs.len() - 1],
    }
}

/// Best-of-N wall time of `f` (min over reps suppresses the noisy
/// shared-container scheduler).
fn best_of(reps: usize, f: impl FnMut()) -> f64 {
    timed(reps, f).min
}

struct GemmCell {
    m: usize,
    k: usize,
    n: usize,
    naive_gflops: Spread,
    tiled_gflops: Spread,
}

impl GemmCell {
    /// Ratio of the median rates.
    fn speedup(&self) -> f64 {
        self.tiled_gflops.median / self.naive_gflops.median.max(1e-12)
    }
}

fn gemm_cell(m: usize, k: usize, n: usize, reps: usize) -> GemmCell {
    let mut rng = StdRng::seed_from_u64(0x6e_37);
    let a = init::xavier_uniform(m, k, &mut rng);
    let b = init::xavier_uniform(k, n, &mut rng);
    let mut out = Matrix::zeros(m, n);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let mut gflops = |kernel: Kernel| {
        timed(reps, || {
            a.matmul_into_with(&b, &mut out, kernel).unwrap();
            std::hint::black_box(&out);
        })
        .map(|secs| flops / secs / 1e9)
    };
    GemmCell {
        m,
        k,
        n,
        naive_gflops: gflops(Kernel::Naive),
        tiled_gflops: gflops(Kernel::Tiled),
    }
}

/// Decoder-tier kNN in ns per miss at the serving default's shape
/// (`k = 16` codes, 32 centroids): 256 fresh codes scored per call with
/// one `codes · Cᵀ` GEMM plus a first-max argmax per row.
fn decoder_knn_ns_per_miss(reps: usize) -> Spread {
    let cfg = DheConfig {
        k: 16,
        dnn: 32,
        h: 2,
        out_dim: 8,
    };
    let stack = DheStack::new(cfg, 0, &mut StdRng::seed_from_u64(17)).expect("dhe stack");
    let hot: Vec<u64> = (0..256).collect();
    let dec = DecoderCache::build(&stack, &stack.encoder().encode_batch(&hot), 32, 4)
        .expect("decoder cache");
    let misses: Vec<u64> = (0..256u64).map(|i| 1_000_000 + i * 7919).collect();
    let codes = stack.encoder().encode_batch(&misses);
    let (mut scores, mut out) = (Matrix::default(), Matrix::default());
    let calls = 64;
    timed(reps, || {
        for _ in 0..calls {
            dec.lookup_batch_into(&codes, &mut scores, &mut out).unwrap();
            std::hint::black_box(&out);
        }
    })
    .map(|secs| secs * 1e9 / (calls * misses.len()) as f64)
}

/// Table gather: fused gather + pooling add over a Zipf trace, reported
/// as GB/s of embedding bytes moved (row read + pooled read + write).
fn gather_gbps(reps: usize) -> f64 {
    let rows = 200_000u64;
    let dim = 32usize;
    let batch = 8192usize;
    let mut rng = StdRng::seed_from_u64(11);
    let table = EmbeddingTable::new(rows, dim, &mut rng).unwrap();
    let zipf = Zipf::new(rows, 1.05);
    let ids: Vec<u64> = (0..batch).map(|_| zipf.sample(&mut rng)).collect();
    let mut out = Matrix::zeros(batch, dim);
    let t = best_of(reps, || {
        table.gather_add_into(&ids, &mut out).unwrap();
        std::hint::black_box(&out);
    });
    (3 * batch * dim * 4) as f64 / t / 1e9
}

/// Nanoseconds per Zipf draw over the serving default's support
/// (50K rows, exponent 1.05), RNG included.
fn zipf_sample_ns(reps: usize) -> f64 {
    let draws = 1 << 16;
    let zipf = Zipf::new(50_000, 1.05);
    let mut rng = StdRng::seed_from_u64(13);
    let t = best_of(reps, || {
        for _ in 0..draws {
            std::hint::black_box(zipf.sample(&mut rng));
        }
    });
    t * 1e9 / draws as f64
}

/// DHE encoder hashing rate in million samples (IDs) per second.
fn dhe_encode_msps(reps: usize) -> f64 {
    let k = 32usize;
    let batch = 8192usize;
    let enc = DheEncoder::new(k, 0, 7).unwrap();
    let ids: Vec<u64> = (0..batch as u64).map(|i| i * 7919).collect();
    let mut out = Matrix::zeros(0, 0);
    let t = best_of(reps, || {
        enc.encode_batch_into(&ids, &mut out);
        std::hint::black_box(&out);
    });
    batch as f64 / t / 1e6
}

/// End-to-end model execution in samples/s: `before` is the naive GEMM
/// kernels + the allocating per-batch path; `after` is the tiled kernels
/// + the persistent-scratch zero-allocation path.
fn runtime_sps(model: &RuntimeModel, path: PathKind, reps: usize, batches: usize) -> (f64, f64) {
    let queries: Vec<Vec<(u64, u64)>> = (0..batches as u64)
        .map(|b| (0..8u64).map(|q| (b * 8 + q, 32)).collect())
        .collect();
    let samples: u64 = batches as u64 * 8 * 32;

    kernels::set_global_kernel(Kernel::Naive);
    let before = best_of(reps, || {
        for batch in &queries {
            std::hint::black_box(model.execute_naive(path, batch).unwrap());
        }
    });
    kernels::set_global_kernel(Kernel::Tiled);
    let mut scratch = model.make_scratch();
    let after = best_of(reps, || {
        for batch in &queries {
            std::hint::black_box(model.execute_with(path, batch, &mut scratch).unwrap());
        }
    });
    (samples as f64 / before, samples as f64 / after)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    mprec_bench::header(
        "kernel_throughput",
        "tiled register-blocked kernels >= 2x naive GEMM at 256^3; serving hot path allocates zero",
    );

    let reps = if smoke { 3 } else { mprec_bench::arg_or(1, 9usize) };
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(64, 64, 64), (48, 33, 17)]
    } else {
        &[
            (64, 64, 64),
            (128, 128, 128),
            (256, 256, 256),
            (512, 512, 512),
            (256, 16, 64), // DHE decoder-shaped (batch x k x dnn)
            (256, 32, 8),  // DHE decoder output layer shape (dnn x emb_dim)
            (256, 32, 1),  // top-MLP output layer shape
        ]
    };

    let host = mprec_bench::host_json();
    println!("host {host}");
    println!(
        "\n{:>5} {:>5} {:>5} {:>22} {:>22} {:>9}",
        "m", "k", "n", "naive GFLOP/s med [min-max]", "tiled GFLOP/s med [min-max]", "speedup"
    );
    let cells: Vec<GemmCell> = shapes
        .iter()
        .map(|&(m, k, n)| {
            let c = gemm_cell(m, k, n, reps);
            let fmt = |s: Spread| format!("{:.2} [{:.2}-{:.2}]", s.median, s.min, s.max);
            println!(
                "{:>5} {:>5} {:>5} {:>22} {:>22} {:>8.2}x",
                c.m,
                c.k,
                c.n,
                fmt(c.naive_gflops),
                fmt(c.tiled_gflops),
                c.speedup()
            );
            c
        })
        .collect();

    if smoke {
        // Equivalence guard: the two kernels agree on an awkward shape.
        let mut rng = StdRng::seed_from_u64(5);
        let a = init::xavier_uniform(23, 37, &mut rng);
        let b = init::xavier_uniform(37, 19, &mut rng);
        let naive = a.matmul_with(&b, Kernel::Naive).unwrap();
        let tiled = a.matmul_with(&b, Kernel::Tiled).unwrap();
        for (t, n) in tiled.as_slice().iter().zip(naive.as_slice()) {
            assert!(
                (t - n).abs() <= 1e-4 * (1.0 + n.abs()),
                "smoke: kernel mismatch {t} vs {n}"
            );
        }
    }

    let gather = gather_gbps(reps);
    let zipf_ns = zipf_sample_ns(reps);
    let encode = dhe_encode_msps(reps);
    let knn = decoder_knn_ns_per_miss(reps);
    println!("\ntable gather-add (zipf 8192x32):     {gather:.2} GB/s");
    println!("zipf sample (50K ranks, s=1.05):    {zipf_ns:.2} ns/draw");
    println!("dhe encode (k=32, 8192 ids):        {encode:.2} Msamples/s");
    println!(
        "decoder-tier kNN (k=16, 32 centroids): {:.2} ns/miss [{:.2}-{:.2}]",
        knn.median, knn.min, knn.max
    );

    // Serving-default model: hybrid path through the full MP-Cache
    // hierarchy (cache hits, not GEMMs, dominate — this pair mostly
    // shows the allocation-elimination win).
    let model_cfg = RuntimeModelConfig {
        rows_per_feature: if smoke { 2_000 } else { 50_000 },
        profile_accesses: if smoke { 4_000 } else { 40_000 },
        ..RuntimeModelConfig::default()
    };
    let model = RuntimeModel::build(&model_cfg, 16, 42).expect("model builds");
    let batches = if smoke { 4 } else { 24 };
    let (before_sps, after_sps) = runtime_sps(&model, PathKind::Hybrid, reps, batches);
    println!(
        "end-to-end execute (hybrid, cached): before {:.0} samples/s -> after {:.0} samples/s ({:.2}x)",
        before_sps,
        after_sps,
        after_sps / before_sps.max(1e-12)
    );

    // Compute-bound model: every cache tier disabled, so each sample
    // runs the full DHE encode + decoder MLP — the paper's
    // compute-dominated generation path, where the GEMM kernels are the
    // whole story.
    let uncached_cfg = RuntimeModelConfig {
        encoder_cache_bytes: 0,
        decoder_centroids: 0,
        dynamic_cache_entries: 0,
        ..model_cfg.clone()
    };
    let uncached = RuntimeModel::build(&uncached_cfg, 16, 42).expect("model builds");
    let (dhe_before_sps, dhe_after_sps) = runtime_sps(&uncached, PathKind::Dhe, reps, batches);
    println!(
        "end-to-end execute (dhe, uncached):  before {:.0} samples/s -> after {:.0} samples/s ({:.2}x)",
        dhe_before_sps,
        dhe_after_sps,
        dhe_after_sps / dhe_before_sps.max(1e-12)
    );

    let mut json = String::from("{\n  \"bench\": \"kernel_throughput\",\n");
    let _ = writeln!(json, "  \"host\": {host},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"gemm\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"m\":{},\"k\":{},\"n\":{},\"naive_gflops\":{},\"tiled_gflops\":{},\"speedup\":{:.3}}}{}",
            c.m,
            c.k,
            c.n,
            c.naive_gflops.json(),
            c.tiled_gflops.json(),
            c.speedup(),
            sep
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"table_gather_gbps\": {gather:.3},");
    let _ = writeln!(json, "  \"zipf_sample_ns\": {zipf_ns:.3},");
    let _ = writeln!(json, "  \"dhe_encode_msamples_per_s\": {encode:.3},");
    let _ = writeln!(json, "  \"decoder_knn_ns_per_miss\": {},", knn.json());
    let _ = writeln!(json, "  \"runtime_before_samples_per_s\": {before_sps:.1},");
    let _ = writeln!(json, "  \"runtime_after_samples_per_s\": {after_sps:.1},");
    let _ = writeln!(
        json,
        "  \"runtime_speedup\": {:.3},",
        after_sps / before_sps.max(1e-12)
    );
    let _ = writeln!(json, "  \"dhe_uncached_before_samples_per_s\": {dhe_before_sps:.1},");
    let _ = writeln!(json, "  \"dhe_uncached_after_samples_per_s\": {dhe_after_sps:.1},");
    let _ = writeln!(
        json,
        "  \"dhe_uncached_speedup\": {:.3}",
        dhe_after_sps / dhe_before_sps.max(1e-12)
    );
    json.push_str("}\n");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!("\nwrote BENCH_kernels.json ({} gemm cells)", cells.len());
}
