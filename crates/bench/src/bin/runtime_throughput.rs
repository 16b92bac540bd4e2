//! Runtime throughput sweep: real multi-threaded serving across worker
//! counts x offered QPS, measuring aggregate samples/s, latency
//! percentiles, SLA-violation rates, and the path mix. Writes
//! `BENCH_runtime.json` (the repo's serving-perf trajectory artifact).
//!
//! The sweep runs in throughput mode (`pace_ingress = false`): the trace
//! is fed as fast as the workers drain it, so samples/s measures the
//! compute capacity of the pool while the *virtual* QPS still shapes
//! micro-batch formation and routing.
//!
//! Usage:
//!   runtime_throughput \[num_queries\]  full sweep (default 10000/cell)
//!   runtime_throughput --smoke         CI smoke: one 4-worker cell,
//!                                      3000 queries, asserts completion
//!   runtime_throughput --smoke --tenants
//!                                      CI tenant guard: light + overload
//!                                      2-tenant open-loop cells, per-
//!                                      tenant SLA-class separation
//!                                      asserted (loose class shed first,
//!                                      strict never class-shed); the
//!                                      full sweep always includes it

use std::fmt::Write as _;
use std::time::Instant;

use mprec_data::query::QueryTraceConfig;
use mprec_data::traffic::{TenantSpec, TrafficConfig};
use mprec_runtime::{Engine, RuntimeConfig, RuntimeReport};

struct Cell {
    workers: usize,
    qps: f64,
    report: RuntimeReport,
    build_s: f64,
    serve_s: f64,
}

fn run_cell(workers: usize, qps: f64, num_queries: usize) -> Cell {
    let cfg = RuntimeConfig {
        workers,
        trace: QueryTraceConfig {
            num_queries,
            qps,
            mean_size: 32.0,
            max_size: 512,
            ..QueryTraceConfig::default()
        },
        ..RuntimeConfig::default()
    };
    let t0 = Instant::now();
    let engine = Engine::new(cfg).expect("engine builds");
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = engine.serve().expect("serve succeeds");
    let serve_s = t1.elapsed().as_secs_f64();
    Cell { workers, qps, report, build_s, serve_s }
}

fn cell_json(c: &Cell) -> String {
    let o = &c.report.outcome;
    let completed = o.completed.max(1) as f64;
    format!(
        concat!(
            "{{\"workers\":{},\"qps\":{},\"completed\":{},\"samples\":{},",
            "\"samples_per_s\":{:.1},\"correct_samples_per_s\":{:.1},",
            "\"span_s\":{:.4},\"p50_us\":{:.1},\"p95_us\":{:.1},\"p99_us\":{:.1},",
            "\"virtual_sla_violation_rate\":{:.5},\"measured_sla_violation_rate\":{:.5},",
            "\"cache_hit_rate\":{:.4},\"build_s\":{:.3},\"serve_s\":{:.3}}}"
        ),
        c.workers,
        c.qps,
        o.completed,
        o.samples,
        o.raw_sps(),
        o.correct_sps(),
        o.span_s,
        c.report.histogram.quantile_us(0.50),
        o.p95_latency_us,
        o.p99_latency_us,
        c.report.virtual_sla_violations as f64 / completed,
        c.report.measured_sla_violations as f64 / completed,
        c.report.cache.encoder_hit_rate(),
        c.build_s,
        c.serve_s,
    )
}

struct TenantCell {
    label: &'static str,
    mix: TrafficConfig,
    report: RuntimeReport,
    serve_s: f64,
}

/// Runs one 2-tenant open-loop cell: a strict 2 ms interactive tenant
/// and a loose 20 ms batch tenant, arrival rates scaled by `qps_mult`
/// over slow virtual compute. At `qps_mult >= 1` the cell is genuinely
/// overloaded and the loose class's degradation ladder engages.
fn run_tenant_cell(label: &'static str, qps_mult: f64) -> TenantCell {
    let mix = TrafficConfig::new(vec![
        TenantSpec::ranking("interactive", 1_500, 9_000.0 * qps_mult),
        TenantSpec::batch("batch-score", 1_000, 6_000.0 * qps_mult),
    ]);
    let cfg = RuntimeConfig {
        workers: 2,
        cache_shards: 4,
        tenants: mix.clone(),
        // A small model with slow virtual compute: capacity sits near
        // 1-2k qps, so the light cell (5% rates) is uncongested while
        // the overload cell's backlog climbs through the loose class's
        // ladder within the trace.
        model: mprec_runtime::RuntimeModelConfig {
            sparse_features: 3,
            rows_per_feature: 800,
            emb_dim: 4,
            dhe_k: 8,
            dhe_dnn: 8,
            dhe_h: 1,
            top_hidden: vec![8],
            encoder_cache_bytes: 2_048,
            decoder_centroids: 8,
            dynamic_cache_entries: 0,
            profile_accesses: 3_000,
            ..mprec_runtime::RuntimeModelConfig::default()
        },
        max_batch_samples: 40,
        // A batch deadline well inside the strict 2 ms target: at light
        // load the wait must not eat the whole latency budget.
        max_batch_wait_us: 400.0,
        seed: 42,
        virtual_gflops: 0.005,
        sla_us: 2_500.0,
        ..RuntimeConfig::default()
    };
    let engine = Engine::new(cfg).expect("tenant engine builds");
    let t0 = Instant::now();
    let report = engine.serve().expect("tenant cell serves");
    let serve_s = t0.elapsed().as_secs_f64();
    TenantCell { label, mix, report, serve_s }
}

fn tenant_cell_json(c: &TenantCell) -> String {
    let mut rows = String::new();
    for (i, row) in c.report.tenants.iter().enumerate() {
        let sep = if i + 1 < c.report.tenants.len() { "," } else { "" };
        let completed = row.completed.max(1) as f64;
        let _ = write!(
            rows,
            concat!(
                "{{\"tenant\":{},\"name\":\"{}\",\"sla_us\":{},\"completed\":{},",
                "\"shed_queries\":{},\"virtual_sla_violation_rate\":{:.5},",
                "\"virtual_p50_us\":{:.1},\"virtual_p95_us\":{:.1},\"virtual_p99_us\":{:.1}}}{}"
            ),
            row.tenant,
            c.mix.tenants[row.tenant as usize].name,
            row.sla_us,
            row.completed,
            row.shed_queries,
            row.virtual_sla_violations as f64 / completed,
            row.virtual_histogram.quantile_us(0.50),
            row.virtual_histogram.quantile_us(0.95),
            row.virtual_histogram.quantile_us(0.99),
            sep,
        );
    }
    format!(
        "{{\"cell\":\"{}\",\"completed\":{},\"shed_queries\":{},\"serve_s\":{:.3},\"tenants\":[{}]}}",
        c.label, c.report.outcome.completed, c.report.shed_queries, c.serve_s, rows
    )
}

/// Runs the light + overload tenant pair and asserts the SLA-class
/// separation contract in-process.
fn run_tenant_sweep() -> Vec<TenantCell> {
    let light = run_tenant_cell("light", 0.05);
    let overload = run_tenant_cell("overload", 1.0);
    for c in [&light, &overload] {
        let total = c.mix.total_queries() as u64;
        assert_eq!(
            c.report.outcome.completed + c.report.shed_queries,
            total,
            "tenants ({}): every query completes or is shed explicitly",
            c.label
        );
        let footed: u64 = c
            .report
            .tenants
            .iter()
            .map(|t| t.completed + t.shed_queries)
            .sum();
        assert_eq!(footed, total, "tenants ({}): rows partition the trace", c.label);
        assert_eq!(
            c.report.tenants[0].shed_queries, 0,
            "tenants ({}): the strict class is never class-shed",
            c.label
        );
    }
    assert_eq!(
        light.report.shed_queries, 0,
        "tenants (light): no backlog, no shedding"
    );
    assert!(
        overload.report.tenants[1].shed_queries > 0,
        "tenants (overload): the loose class must shed first under backlog \
         (got none; raise the rates or lower virtual_gflops)"
    );
    println!("\ntenant sweep (strict 2ms interactive vs loose 20ms batch, open loop):");
    println!(
        "{:>9} {:>12} {:>8} {:>10} {:>6} {:>10} {:>12} {:>12}",
        "cell", "tenant", "sla ms", "completed", "shed", "viol rate", "v-p50 ms", "v-p99 ms"
    );
    for c in [&light, &overload] {
        for row in &c.report.tenants {
            println!(
                "{:>9} {:>12} {:>8.0} {:>10} {:>6} {:>10.4} {:>12.2} {:>12.2}",
                c.label,
                c.mix.tenants[row.tenant as usize].name,
                row.sla_us / 1000.0,
                row.completed,
                row.shed_queries,
                row.virtual_sla_violations as f64 / row.completed.max(1) as f64,
                row.virtual_histogram.quantile_us(0.50) / 1000.0,
                row.virtual_histogram.quantile_us(0.99) / 1000.0,
            );
        }
    }
    println!(
        "(virtual-time latencies; under overload the loose class walks its \
         narrow -> table-only -> shed ladder while the strict class keeps its \
         full candidate set — the separation above is asserted in-process)"
    );
    vec![light, overload]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let tenants_flag = std::env::args().any(|a| a == "--tenants");
    mprec_bench::header(
        "runtime_throughput",
        "real multi-threaded serving scales with workers (>1.5x from 1 to 4)",
    );

    let cells: Vec<Cell> = if smoke {
        let c = run_cell(4, 4000.0, 3000);
        assert_eq!(
            c.report.outcome.completed, 3000,
            "smoke: every query must complete exactly once"
        );
        assert_eq!(
            c.report.routed_queries, c.report.outcome.completed,
            "smoke: routed == completed"
        );
        vec![c]
    } else {
        let num_queries = mprec_bench::arg_or(1, 10_000usize);
        let mut out = Vec::new();
        for &workers in &[1usize, 2, 4, 8] {
            for &qps in &[1000.0f64, 4000.0, 16_000.0] {
                out.push(run_cell(workers, qps, num_queries));
            }
        }
        out
    };

    println!(
        "\n{:>7} {:>8} {:>12} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "workers", "qps", "samples/s", "p50 ms", "p95 ms", "p99 ms", "viol %", "serve s"
    );
    for c in &cells {
        let o = &c.report.outcome;
        println!(
            "{:>7} {:>8.0} {:>12.0} {:>10.2} {:>10.2} {:>10.2} {:>8.2} {:>8.2}",
            c.workers,
            c.qps,
            o.raw_sps(),
            c.report.histogram.quantile_us(0.50) / 1000.0,
            o.p95_latency_us / 1000.0,
            o.p99_latency_us / 1000.0,
            100.0 * o.sla_violation_rate(),
            c.serve_s,
        );
    }

    // Tenant sweep: always part of the full sweep; opt-in for the CI
    // smoke via --tenants (the separation assertions run in-process).
    let tenant_cells: Vec<TenantCell> = if tenants_flag || !smoke {
        run_tenant_sweep()
    } else {
        Vec::new()
    };

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);

    // Scaling headline: samples/s at 4 workers vs 1 worker, mid QPS.
    // `None` (JSON null) in smoke mode — a single cell measures nothing
    // about scaling and must not masquerade as a 0.0x collapse.
    let mut scaling_1_to_4: Option<f64> = None;
    if !smoke {
        let sps = |workers: usize| {
            cells
                .iter()
                .find(|c| c.workers == workers && c.qps == 4000.0)
                .map(|c| c.report.outcome.raw_sps())
                .unwrap_or(0.0)
        };
        let (one, four) = (sps(1), sps(4));
        if one > 0.0 {
            scaling_1_to_4 = Some(four / one);
        }
        println!(
            "\nthroughput scaling 1 -> 4 workers @ 4000 qps: {:.2}x",
            scaling_1_to_4.unwrap_or(0.0)
        );
        if cores < 4 {
            println!(
                "note: host exposes only {cores} core(s); 1 -> 4 worker scaling cannot \
                 exceed ~{cores}x here — interpret the rest of the sweep on a larger host"
            );
        }
    }

    let mut json = String::from("{\n  \"bench\": \"runtime_throughput\",\n");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    match scaling_1_to_4 {
        Some(s) => {
            let _ = writeln!(json, "  \"scaling_1_to_4\": {s:.3},");
        }
        None => {
            let _ = writeln!(json, "  \"scaling_1_to_4\": null,");
        }
    }
    json.push_str("  \"sweep\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 < cells.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{}", cell_json(c), sep);
    }
    json.push_str(
        "  ],\n  \"tenant_note\": \"2-tenant open-loop mix (strict 2ms interactive vs \
         loose 20ms batch) over slow virtual compute; per-tenant virtual-time \
         percentiles and violation rates; loose-class-sheds-first and \
         strict-never-class-shed are asserted in-process\",\n",
    );
    json.push_str("  \"tenant_sweep\": [\n");
    for (i, c) in tenant_cells.iter().enumerate() {
        let sep = if i + 1 < tenant_cells.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{}", tenant_cell_json(c), sep);
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_runtime.json", &json).expect("write BENCH_runtime.json");
    println!("\nwrote BENCH_runtime.json ({} cells)", cells.len());
}
