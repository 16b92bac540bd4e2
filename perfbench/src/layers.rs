//! The traced run: per-layer timing from outside the program.
//!
//! 1. Build and serve the workload once (for its span, per-node leg
//!    counts and, on the cluster, the adaptive planner's replay spec).
//! 2. Regenerate the trace with the workload seed and take the batch
//!    trail from the replay twin; the trail must equal the served
//!    decision trail.
//! 3. On a fresh twin model, replay every batch through the public layer
//!    functions and record one span per call: `pool_features_into` with
//!    no features (the ID draw), then per feature another ID-draw call,
//!    the one-feature call (a table gather or an MP-Cache lookup) and
//!    the pooled `add_assign`, and last `score_pooled` (the top MLP).
//!    Spans stay in memory until the run ends and are then written out.
//! 4. Time `RuntimeModel::execute_with` and `Cluster::execute_with` over
//!    the same trail on further fresh twins, so no pass pre-warms
//!    another's MP-Cache.
//!
//! Each twin runs the whole trail in order, but the three passes take
//! turns chunk by chunk (in rotating order), so load from other
//! processes on the host falls on all three alike and the unattributed
//! share compares like with like.
//!
//! A feature call redraws every feature's IDs (the per-query RNG is one
//! stream across features), and it pools into a zeroed partial matrix
//! with one `add_assign` of its own. Its self time is therefore its
//! duration minus the ID-draw span just before it and minus the
//! pool-add span just after it, which times an add of the same size.
//! The draw is timed next to each feature call, not once per batch,
//! because a draw right after other work runs slower than a repeated
//! one, and the difference is as large as a table gather.

use std::fmt::Write as _;
use std::time::Instant;

use mprec_core::CacheStats;
use mprec_nn::MlpScratch;
use mprec_runtime::{
    Cluster, ClusterConfig, ClusterScratch, Engine, PathKind, RuntimeConfig, RuntimeModel,
    ScratchSpace,
};
use mprec_tensor::Matrix;

use crate::stats::{median, Metric};
use crate::workloads::{self, cluster_config, engine_config, timed, System, Workload};
use crate::{check_serve, check_twin, Checks, Outcome};

/// Directory (relative to the working directory) the span files go to.
const SPAN_DIR: &str = "perfbench/out";
/// Chunks the three passes take turns over.
const CHUNKS: usize = 24;

const NO_PARENT: u32 = u32::MAX;

/// One timed call: name, start and end (ns since the pass began), the
/// index of the enclosing span, and the batch it belongs to.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    batch: u32,
}

/// In-memory span log of one traced pass.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn with_capacity(n: usize) -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::with_capacity(n),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: u32, batch: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, idx: u32) {
        self.spans[idx as usize].end_ns = self.now_ns();
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    fn write_chrome(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 120);
        let _ = write!(
            out,
            "{{\"otherData\": {{\"workload\": \"{workload}\", \"seed\": {seed}}}, \"traceEvents\": ["
        );
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"span\": {i}, \"parent\": {}, \"batch\": {}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
                s.batch
            );
        }
        out.push_str("]}\n");
        std::fs::create_dir_all(path.parent().expect("span file has a directory"))?;
        std::fs::write(path, out)
    }
}

/// Per-layer totals of one traced pass.
#[derive(Debug, Default)]
struct LayerTotals {
    draw_ns: f64,
    table_ns: f64,
    dhe_ns: f64,
    add_ns: f64,
    score_ns: f64,
    /// Sum of all batch spans, and of their children's durations.
    batch_ns: f64,
    child_ns: f64,
    table_rows: u64,
    samples: u64,
    checksum: f64,
    cache: CacheStats,
}

type Batch = (PathKind, Vec<(u64, u64)>);

/// The span-recording pass over a fresh twin model.
struct TracedPass<'m> {
    model: &'m RuntimeModel,
    scratch: ScratchSpace,
    part: Matrix,
    pooled: Matrix,
    top: MlpScratch,
    spans: Spans,
    totals: LayerTotals,
    secs: f64,
}

impl<'m> TracedPass<'m> {
    fn new(model: &'m RuntimeModel, batches: usize) -> Self {
        TracedPass {
            model,
            scratch: model.make_scratch(),
            part: Matrix::default(),
            pooled: Matrix::default(),
            top: MlpScratch::default(),
            spans: Spans::with_capacity(batches * (3 * model.config().sparse_features + 3)),
            totals: LayerTotals::default(),
            secs: 0.0,
        }
    }

    /// Replays `batches` (numbered from `first`), one span per call.
    fn run(&mut self, batches: &[Batch], first: usize) -> Result<(), String> {
        let err = |e: mprec_runtime::RuntimeError| e.to_string();
        let model = self.model;
        let features = model.config().sparse_features;
        let dim = model.config().emb_dim;
        let (spans, t) = (&mut self.spans, &mut self.totals);
        let started = Instant::now();
        for (i, (path, queries)) in batches.iter().enumerate() {
            let b = (first + i) as u32;
            let batch = spans.open("batch", NO_PARENT, b);
            let mut total = 0;
            for f in 0..=features {
                // The ID draw alone, then (after the first draw) feature
                // f-1 with its own redraw: each feature call is paired
                // with the draw timed just before it.
                let s = spans.open("id_draw", batch, b);
                total = model
                    .pool_features_into(*path, queries, &[], &mut self.scratch, &mut self.part)
                    .map_err(err)?;
                spans.close(s);
                if f == 0 {
                    self.pooled.resize_zeroed(total as usize, dim);
                    continue;
                }
                let f = f - 1;
                let name = if model.path_uses_dhe(*path, f) {
                    "mpcache_feature"
                } else {
                    t.table_rows += total;
                    "table_feature"
                };
                let s = spans.open(name, batch, b);
                model
                    .pool_features_into(*path, queries, &[f], &mut self.scratch, &mut self.part)
                    .map_err(err)?;
                spans.close(s);
                let s = spans.open("pool_add", batch, b);
                self.pooled
                    .add_assign(&self.part)
                    .map_err(|e| e.to_string())?;
                spans.close(s);
            }
            let s = spans.open("score_pooled", batch, b);
            t.checksum += model
                .score_pooled(&self.pooled, &mut self.top)
                .map_err(err)?;
            spans.close(s);
            spans.close(batch);
            t.samples += total;
        }
        self.secs += started.elapsed().as_secs_f64();
        Ok(())
    }

    /// Folds the spans into per-layer self times. The spans of a batch
    /// are contiguous: batch, a leading id_draw, then (id_draw, feature,
    /// pool_add) per feature, then score_pooled. A feature's lookup time
    /// is its span minus the draw just before it and minus the pool add
    /// just after it; the batch's ID-draw cost is the mean of its draw
    /// spans.
    fn finish(mut self) -> (LayerTotals, Spans, f64) {
        let t = &mut self.totals;
        t.cache = self.model.cache().stats();
        let draws_per_batch = (self.model.config().sparse_features + 1) as f64;
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64;
        let mut draw = 0.0;
        let mut feature: Option<(&'static str, f64)> = None;
        for s in &self.spans.spans {
            if s.name == "batch" {
                t.batch_ns += dur(s);
                continue;
            }
            t.child_ns += dur(s);
            match s.name {
                "id_draw" => {
                    draw = dur(s);
                    t.draw_ns += draw / draws_per_batch;
                }
                "table_feature" | "mpcache_feature" => feature = Some((s.name, dur(s) - draw)),
                "pool_add" => {
                    t.add_ns += dur(s);
                    let (name, d) = feature.take().expect("a pool add follows each feature");
                    if name == "table_feature" {
                        t.table_ns += d - dur(s);
                    } else {
                        t.dhe_ns += d - dur(s);
                    }
                }
                "score_pooled" => t.score_ns += dur(s),
                _ => unreachable!("unknown span {}", s.name),
            }
        }
        (self.totals, self.spans, self.secs)
    }
}

/// `RuntimeModel::execute_with` over the trail on a fresh twin model.
struct ExecutePass<'m> {
    model: &'m RuntimeModel,
    scratch: ScratchSpace,
    checksum: f64,
    secs: f64,
}

impl ExecutePass<'_> {
    fn run(&mut self, batches: &[Batch]) -> Result<(), String> {
        let started = Instant::now();
        for (path, queries) in batches {
            self.checksum += self
                .model
                .execute_with(*path, queries, &mut self.scratch)
                .map_err(|e| e.to_string())?
                .checksum;
        }
        self.secs += started.elapsed().as_secs_f64();
        Ok(())
    }
}

/// `Cluster::execute_with` (scatter to the boot epoch's node assignment,
/// gather, top MLP) over the trail on a fresh twin cluster.
struct ClusterPass<'c> {
    cluster: &'c Cluster,
    scratch: ClusterScratch,
    samples: u64,
    secs: f64,
}

impl ClusterPass<'_> {
    fn run(&mut self, batches: &[Batch]) -> Result<(), String> {
        let started = Instant::now();
        for (path, queries) in batches {
            self.samples += self
                .cluster
                .execute_with(*path, queries, &mut self.scratch)
                .map_err(|e| e.to_string())?
                .samples;
        }
        self.secs += started.elapsed().as_secs_f64();
        Ok(())
    }
}

/// One repetition of the three passes.
struct Rep {
    layers: LayerTotals,
    traced_s: f64,
    exec_s: f64,
    cluster_s: f64,
}

/// The 2-node cluster twin whose scatter/gather pass is timed: the
/// workload's own cluster, or for an engine workload a 2-node x 1-worker
/// cluster over the engine's model.
fn cluster_twin_config(w: Workload, seed: u64) -> ClusterConfig {
    match w {
        Workload::OfflineClusterDrift => cluster_config(seed),
        _ => {
            let e = engine_config(w, seed);
            ClusterConfig {
                nodes: 2,
                workers_per_node: 1,
                cache_shards: e.cache_shards,
                tenants: e.tenants,
                seed,
                model: e.model,
                ..ClusterConfig::default()
            }
        }
    }
}

/// Cost of one `open` + `close` pair, measured on a scratch log.
fn span_cost_ns() -> f64 {
    const N: u32 = 200_000;
    let mut probe = Spans::with_capacity(N as usize);
    let t = Instant::now();
    for i in 0..N {
        let s = probe.open("probe", NO_PARENT, i);
        probe.close(s);
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

/// The traced run of one workload.
pub fn traced_run(
    w: Workload,
    seed: u64,
    seconds: f64,
    checks: &mut Checks,
) -> Result<Outcome, String> {
    let begin = Instant::now();

    let system = System::build(w, seed)?;
    let served = system.serve()?;
    let (trace, generate_s) = timed(|| system.trace());
    let (trail, route_s) = timed(|| system.replay_trail(&trace));
    let offered = trace.len() as u64;
    check_serve(checks, &served, offered);
    check_twin(checks, &served, &trail);

    // Bit-exact reference: a 1-worker engine serves the trail in order.
    let reference = match w {
        Workload::OfflineClusterDrift => None,
        _ => {
            let cfg = RuntimeConfig {
                workers: 1,
                pace_ingress: false,
                ..engine_config(w, seed)
            };
            let r = Engine::new(cfg)
                .and_then(|e| e.serve())
                .map_err(|e| e.to_string())?;
            Some((r.cache, r.checksum))
        }
    };

    let model_cfg = system.model_config().clone();
    let shards = system.cache_shards();
    let build_model = || RuntimeModel::build(&model_cfg, shards, seed).map_err(|e| e.to_string());
    let batches = trail.batches.len().max(1) as f64;
    let expected_samples: u64 = trail
        .batches
        .iter()
        .flat_map(|(_, q)| q)
        .map(|&(_, s)| s)
        .sum();
    let chunk = trail.batches.len().div_ceil(CHUNKS).max(1);
    let span_ns = span_cost_ns();
    let mut reps: Vec<Rep> = Vec::new();
    let mut last_spans = None;
    // Repeat while another repetition still fits in `seconds`; the first
    // always runs, however long the trail.
    let mut rep_s = 0.0;
    while reps.is_empty() || begin.elapsed().as_secs_f64() + rep_s <= seconds {
        let rep_start = Instant::now();
        let (twin_a, twin_b) = (build_model()?, build_model()?);
        let twin_c = Cluster::new(cluster_twin_config(w, seed)).map_err(|e| e.to_string())?;
        let mut traced = TracedPass::new(&twin_a, trail.batches.len());
        let mut exec = ExecutePass {
            model: &twin_b,
            scratch: twin_b.make_scratch(),
            checksum: 0.0,
            secs: 0.0,
        };
        let mut scatter = ClusterPass {
            cluster: &twin_c,
            scratch: twin_c.make_scratch(),
            samples: 0,
            secs: 0.0,
        };
        for (k, part) in trail.batches.chunks(chunk).enumerate() {
            for turn in 0..3 {
                match (k + turn) % 3 {
                    0 => traced.run(part, k * chunk)?,
                    1 => exec.run(part)?,
                    _ => scatter.run(part)?,
                }
            }
        }
        let (layers, spans, traced_s) = traced.finish();
        let exec_cache = twin_b.cache().stats();
        checks.require(
            layers.cache == exec_cache && layers.checksum == exec.checksum,
            || {
                format!(
                    "traced pass (cache {:?}, checksum {}) differs from the execute_with pass (cache {exec_cache:?}, checksum {})",
                    layers.cache, layers.checksum, exec.checksum
                )
            },
        );
        if let Some((cache, sum)) = &reference {
            checks.require(layers.cache == *cache && layers.checksum == *sum, || {
                format!(
                    "traced pass (cache {:?}, checksum {}) differs from a 1-worker serve (cache {cache:?}, checksum {sum})",
                    layers.cache, layers.checksum
                )
            });
        }
        checks.require(scatter.samples == expected_samples, || {
            format!(
                "cluster pass executed {} of {expected_samples} samples",
                scatter.samples
            )
        });
        reps.push(Rep {
            layers,
            traced_s,
            exec_s: exec.secs,
            cluster_s: scatter.secs,
        });
        last_spans = Some(spans);
        rep_s = rep_start.elapsed().as_secs_f64();
    }

    let spans = last_spans.expect("at least one traced pass");
    let span_path = std::path::Path::new(SPAN_DIR).join(format!("spans-{}.json", w.name()));
    spans
        .write_chrome(&span_path, w.name(), seed)
        .map_err(|e| format!("writing {}: {e}", span_path.display()))?;
    let first = &reps[0].layers;
    let traced_s = median(&reps.iter().map(|r| r.traced_s).collect::<Vec<_>>());
    println!(
        "diag spans {} written to {}; recording cost {:.1} ns per span = {:.4} of the traced pass ({:.3} s); the traced pass takes {:.2}x the execute_with pass because every feature call and its paired draw redraw all IDs",
        spans.spans.len(),
        span_path.display(),
        span_ns,
        spans.spans.len() as f64 * span_ns / (traced_s * 1e9),
        traced_s,
        traced_s / median(&reps.iter().map(|r| r.exec_s).collect::<Vec<_>>()),
    );
    if let Some((cache, sum)) = &reference {
        println!(
            "diag traced pass matches a 1-worker serve bit for bit: {cache:?}, checksum {sum}"
        );
    }

    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let samples = first.samples.max(1) as f64;
    let exec_ns = med(&|r| r.exec_s * 1e9);
    let cluster_ns = med(&|r| r.cluster_s * 1e9);
    let attributed = med(&|r| {
        r.layers.draw_ns + r.layers.table_ns + r.layers.dhe_ns + r.layers.add_ns + r.layers.score_ns
    });
    let c = &first.cache;
    let lookups = c.lookups().max(1) as f64;
    let share = |path: PathKind| {
        trail
            .batches
            .iter()
            .filter(|(p, _)| *p == path)
            .flat_map(|(_, q)| q)
            .map(|&(_, s)| s)
            .sum::<u64>() as f64
            / samples
    };
    let due_s = if w.paced() {
        workloads::last_arrival_s(&trace)
    } else {
        // Unpaced ingress: every query is due when the serve starts.
        0.0
    };
    let workers = system.workers() as f64;
    let dim = model_cfg.emb_dim as f64;
    let top_flops = build_model()?.top_flops_per_sample();
    let mut metrics = vec![
        Metric::new("data.generate_ms", generate_s * 1e3, "ms"),
        Metric::new("scheduler.batches", trail.batches.len() as f64, "count"),
        Metric::new("scheduler.mean_batch_samples", samples / batches, "count"),
        Metric::new(
            "scheduler.route_us_per_batch",
            route_s * 1e6 / batches,
            "us",
        ),
        Metric::new("scheduler.share.hybrid", share(PathKind::Hybrid), "ratio"),
        Metric::new("scheduler.share.dhe", share(PathKind::Dhe), "ratio"),
        Metric::new("scheduler.share.table", share(PathKind::Table), "ratio"),
        Metric::new("model.execute_us_per_batch", exec_ns / 1e3 / batches, "us"),
        Metric::new(
            "model.id_draw_ns_per_sample",
            med(&|r| r.layers.draw_ns) / samples,
            "ns",
        ),
        Metric::new(
            "model.pool_add_ns_per_sample",
            med(&|r| r.layers.add_ns) / samples,
            "ns",
        ),
        Metric::new(
            "model.unattributed_share",
            1.0 - attributed / exec_ns,
            "ratio",
        ),
        Metric::new(
            "embed.table_ns_per_row",
            med(&|r| r.layers.table_ns) / first.table_rows.max(1) as f64,
            "ns",
        ),
        Metric::new(
            "embed.table_gbps",
            first.table_rows as f64 * dim * 4.0 / med(&|r| r.layers.table_ns),
            "GB/s",
        ),
        Metric::new(
            "mpcache.ns_per_lookup",
            med(&|r| r.layers.dhe_ns) / lookups,
            "ns",
        ),
        Metric::new(
            "mpcache.static_share",
            c.encoder_hits as f64 / lookups,
            "ratio",
        ),
        Metric::new(
            "mpcache.dynamic_share",
            c.dynamic_hits as f64 / lookups,
            "ratio",
        ),
        Metric::new("mpcache.disk_share", c.disk_hits as f64 / lookups, "ratio"),
        Metric::new(
            "mpcache.miss_share",
            c.encoder_misses as f64 / lookups,
            "ratio",
        ),
        Metric::new(
            "top_mlp.ns_per_sample",
            med(&|r| r.layers.score_ns) / samples,
            "ns",
        ),
        Metric::new(
            "top_mlp.gflops",
            top_flops * samples / med(&|r| r.layers.score_ns),
            "GFLOP/s",
        ),
        Metric::new(
            "runtime.worker_busy_share",
            exec_ns / 1e9 / (served.span_s * workers),
            "ratio",
        ),
        Metric::new("runtime.drain_ms", (served.span_s - due_s) * 1e3, "ms"),
        Metric::new(
            "cluster.execute_us_per_batch",
            cluster_ns / 1e3 / batches,
            "us",
        ),
        Metric::new("cluster.scatter_overhead", cluster_ns / exec_ns, "ratio"),
    ];
    if w == Workload::OfflineClusterDrift {
        let legs: u64 = served.per_node_batches.iter().sum();
        let max_leg = served.per_node_batches.iter().copied().max().unwrap_or(0);
        metrics.extend([
            Metric::new(
                "cluster.node_busy_share",
                cluster_ns / 1e9 / (served.span_s * served.per_node_batches.len().max(1) as f64),
                "ratio",
            ),
            Metric::new(
                "cluster.max_node_leg_share",
                max_leg as f64 / legs.max(1) as f64,
                "ratio",
            ),
            Metric::new("cluster.replans", served.replans as f64, "count"),
            Metric::new(
                "cluster.migration_steps",
                served.migration_steps as f64,
                "count",
            ),
        ]);
    }
    println!(
        "diag traced passes {}; samples {}; unattributed share {:.4} (execute_with pass {:.3} s vs attributed spans {:.3} s; batch-span self time {:.3} s)",
        reps.len(),
        first.samples,
        1.0 - attributed / exec_ns,
        exec_ns / 1e9,
        attributed / 1e9,
        med(&|r| r.layers.batch_ns - r.layers.child_ns) / 1e9,
    );
    Ok(Outcome {
        attempted: offered,
        failed: offered - served.completed,
        metrics,
    })
}
