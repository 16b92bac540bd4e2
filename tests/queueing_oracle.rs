//! Closed-form queueing oracle for the replay twin.
//!
//! The sim-vs-runtime harness pins the runtime to its replay twin, but
//! both sides encode the same serving contract, so a shared
//! misunderstanding would pass it. This test checks the twin against
//! queueing theory instead, sharing no code with either implementation:
//! with one platform, one mapping and a one-sample batch budget, every
//! query flushes alone at its arrival into a single FIFO server, so the
//! replay is an M/G/1 queue (Poisson arrivals, service time drawn from
//! the lognormal query sizes through the latency profile). Its mean
//! virtual wait in queue (latency minus service) must then match the
//! Pollaczek–Khinchine formula `W = λ·E[S²] / (2(1−ρ))`, `ρ = λ·E[S]`,
//! within batch-means confidence bounds at light, moderate and heavy
//! load.

use std::collections::HashMap;

use mprec::core::candidates::{CandidateRep, RepRole};
use mprec::core::planner::{Mapping, MappingSet};
use mprec::core::profile::LatencyProfile;
use mprec::data::query::{QueryGenerator, QueryTraceConfig};
use mprec::embed::RepresentationConfig;
use mprec::hwsim::{Platform, WorkloadBuilder};
use mprec::serving::replay::{replay, ReplayConfig};

/// Per-batch service overhead (µs) of the single mapping's linear
/// latency profile; the per-sample cost is set per target load.
const OVERHEAD_US: f64 = 20.0;
/// Offered rate (queries/s): a mean gap of 1 ms keeps the trace's
/// whole-microsecond arrival stamps far below the queueing scale.
const QPS: f64 = 1_000.0;
/// Batch-means layout: the first `WARMUP` share of the waits is
/// dropped, the rest split into `BATCHES` contiguous batches.
const WARMUP: f64 = 0.05;
const BATCHES: usize = 20;
/// Two-sided 99.9% Student-t quantile at `BATCHES - 1` degrees of
/// freedom.
const T_999_DF19: f64 = 3.883;

/// One platform, one table mapping with a linear service profile.
fn single_server(per_sample_us: f64) -> MappingSet {
    let sizes: Vec<u64> = vec![1, 16, 64, 256, 1024, 4096];
    let builder = WorkloadBuilder::new("oracle", vec![1000], 8);
    MappingSet {
        platforms: vec![Platform::cpu()],
        mappings: vec![Mapping {
            rep: CandidateRep {
                name: "table".into(),
                role: RepRole::Table,
                config: RepresentationConfig::table(8),
                workload: builder.table(8).expect("workload"),
                accuracy: 0.78,
            },
            platform_idx: 0,
            profile: LatencyProfile::from_points(
                sizes.clone(),
                sizes
                    .iter()
                    .map(|&n| OVERHEAD_US + n as f64 * per_sample_us)
                    .collect(),
            ),
        }],
    }
}

/// Replays `queries` Poisson arrivals at utilization near `rho` and
/// returns `(measured mean wait, P-K mean wait, batch-means half-width
/// at 99.9%)`, all in µs.
fn wait_vs_pollaczek_khinchine(rho: f64, queries: usize, seed: u64) -> (f64, f64, f64) {
    let trace = QueryGenerator::new(
        QueryTraceConfig {
            num_queries: queries,
            mean_size: 4.0,
            sigma: 0.8,
            max_size: 64,
            qps: QPS,
            poisson_arrivals: true,
        },
        seed,
    )
    .generate();
    // Scale the per-sample cost so the mean service time puts the
    // server at the target utilization for this size distribution.
    let mean_size = trace.iter().map(|q| q.size as f64).sum::<f64>() / queries as f64;
    let mean_gap_us = 1e6 / QPS;
    let per_sample_us = (rho * mean_gap_us - OVERHEAD_US) / mean_size;
    assert!(
        per_sample_us > 0.0,
        "overhead alone exceeds the target load"
    );
    let mappings = single_server(per_sample_us);
    let result = replay(
        &mappings,
        &trace,
        &ReplayConfig {
            sla_us: 1e12,
            max_batch_samples: 1,
            max_batch_wait_us: 1_000.0,
            classes: Vec::new(),
        },
    );
    assert_eq!(result.batches.len(), queries, "every query flushes alone");

    let arrival: HashMap<u64, f64> = trace.iter().map(|q| (q.id, q.arrival_us as f64)).collect();
    let profile = &mappings.mappings[0].profile;
    let mut waits = Vec::with_capacity(queries);
    let (mut s1, mut s2) = (0.0f64, 0.0f64);
    for b in &result.batches {
        let (id, size) = b.queries[0];
        let service = profile.latency_us(size);
        s1 += service;
        s2 += service * service;
        waits.push(b.done_us - arrival[&id] - service);
    }
    let n = queries as f64;
    let (es, es2) = (s1 / n, s2 / n);
    let span_us = trace.last().unwrap().arrival_us as f64 - trace[0].arrival_us as f64;
    let lambda = (n - 1.0) / span_us;
    let load = lambda * es;
    assert!(
        (load - rho).abs() < 0.05,
        "utilization {load} drifted from {rho}"
    );
    let pk = lambda * es2 / (2.0 * (1.0 - load));

    let kept = &waits[(WARMUP * n) as usize..];
    let per = kept.len() / BATCHES;
    let means: Vec<f64> = kept
        .chunks_exact(per)
        .take(BATCHES)
        .map(|c| c.iter().sum::<f64>() / per as f64)
        .collect();
    let grand = means.iter().sum::<f64>() / BATCHES as f64;
    let var = means.iter().map(|m| (m - grand).powi(2)).sum::<f64>() / (BATCHES - 1) as f64;
    let half_width = T_999_DF19 * (var / BATCHES as f64).sqrt();
    (grand, pk, half_width)
}

#[test]
fn replay_mean_wait_matches_pollaczek_khinchine() {
    for (rho, queries) in [(0.3, 50_000), (0.6, 100_000), (0.9, 400_000)] {
        let (measured, pk, half_width) = wait_vs_pollaczek_khinchine(rho, queries, 11);
        assert!(
            (measured - pk).abs() <= half_width,
            "rho {rho}: mean wait {measured:.2} us vs P-K {pk:.2} us \
             (batch-means half-width {half_width:.2} us)"
        );
        // The bound must be tight enough to catch a broken queue: a
        // half-width beyond a fifth of the prediction proves nothing.
        assert!(
            half_width < 0.2 * pk,
            "rho {rho}: confidence half-width {half_width:.2} us too wide for P-K {pk:.2} us"
        );
    }
}
