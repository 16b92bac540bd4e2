//! Kernel throughput sweep: naive vs tiled GEMM GFLOP/s across sizes,
//! table gather-add bandwidth, Zipf draw cost, DHE encode rate, and
//! end-to-end `RuntimeModel` samples/s before (naive kernels +
//! allocating execute) vs after (tiled kernels + zero-allocation scratch
//! execute). Writes
//! `BENCH_kernels.json` (the repo's kernel-perf trajectory artifact).
//!
//! Usage:
//!   kernel_throughput \[reps\]  full sweep (default 9 reps/cell, best-of)
//!   kernel_throughput --smoke  CI smoke: tiny shapes, asserts the tiled
//!                              kernel matches naive, still writes JSON

use std::fmt::Write as _;
use std::time::Instant;

use mprec_data::Zipf;
use mprec_embed::{DheEncoder, EmbeddingTable};
use mprec_runtime::{PathKind, RuntimeModel, RuntimeModelConfig};
use mprec_tensor::{init, kernels, Kernel, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Best-of-N wall time of `f` (min over reps suppresses the noisy
/// shared-container scheduler).
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

struct GemmCell {
    m: usize,
    k: usize,
    n: usize,
    naive_gflops: f64,
    tiled_gflops: f64,
}

impl GemmCell {
    fn speedup(&self) -> f64 {
        self.tiled_gflops / self.naive_gflops.max(1e-12)
    }
}

fn gemm_cell(m: usize, k: usize, n: usize, reps: usize) -> GemmCell {
    let mut rng = StdRng::seed_from_u64(0x6e_37);
    let a = init::xavier_uniform(m, k, &mut rng);
    let b = init::xavier_uniform(k, n, &mut rng);
    let mut out = Matrix::zeros(m, n);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let naive = best_of(reps, || {
        a.matmul_into_with(&b, &mut out, Kernel::Naive).unwrap();
        std::hint::black_box(&out);
    });
    let tiled = best_of(reps, || {
        a.matmul_into_with(&b, &mut out, Kernel::Tiled).unwrap();
        std::hint::black_box(&out);
    });
    GemmCell {
        m,
        k,
        n,
        naive_gflops: flops / naive / 1e9,
        tiled_gflops: flops / tiled / 1e9,
    }
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
            (256, 32, 1),  // top-MLP output layer shape
        ]
    };

    println!(
        "\n{:>5} {:>5} {:>5} {:>14} {:>14} {:>9}",
        "m", "k", "n", "naive GFLOP/s", "tiled GFLOP/s", "speedup"
    );
    let cells: Vec<GemmCell> = shapes
        .iter()
        .map(|&(m, k, n)| {
            let c = gemm_cell(m, k, n, reps);
            println!(
                "{:>5} {:>5} {:>5} {:>14.2} {:>14.2} {:>8.2}x",
                c.m, c.k, c.n, c.naive_gflops, c.tiled_gflops, c.speedup()
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
    println!("\ntable gather-add (zipf 8192x32):     {gather:.2} GB/s");
    println!("zipf sample (50K ranks, s=1.05):    {zipf_ns:.2} ns/draw");
    println!("dhe encode (k=32, 8192 ids):        {encode:.2} Msamples/s");

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
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    json.push_str("  \"gemm\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"m\":{},\"k\":{},\"n\":{},\"naive_gflops\":{:.2},\"tiled_gflops\":{:.2},\"speedup\":{:.3}}}{}",
            c.m, c.k, c.n, c.naive_gflops, c.tiled_gflops, c.speedup(), sep
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"table_gather_gbps\": {gather:.3},");
    let _ = writeln!(json, "  \"zipf_sample_ns\": {zipf_ns:.3},");
    let _ = writeln!(json, "  \"dhe_encode_msamples_per_s\": {encode:.3},");
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
