//! The benchmark's workloads, built only from the public `mprec_runtime`
//! API, and a uniform summary of one serve.
//!
//! The workload seed reaches the program only through
//! `RuntimeConfig::seed` / `ClusterConfig::seed`, which seeds the trace,
//! the model weights and the per-query ID draws alike.

use std::time::Instant;

use mprec_data::query::{Query, QueryTraceConfig};
use mprec_data::scenario::{self, LoadScenario};
use mprec_data::traffic::{SlaClass, TenantSpec, TrafficConfig};
use mprec_runtime::{
    Cluster, ClusterConfig, Engine, LatencyHistogram, PathKind, RebalanceConfig, RuntimeConfig,
    RuntimeModelConfig, TenantReport,
};
use mprec_serving::replay::{self, ReplayConfig};

/// Queries per serve on the offline workloads (~1 s of serving each on
/// two cores, so one run of the benchmark holds several serves).
const OFFLINE_QUERIES: usize = 30_000;
/// Virtual offered rate of the offline traces (shapes batching and
/// routing; ingress is not paced).
const OFFLINE_QPS: f64 = 16_000.0;
/// Total paced rate of the open-loop workload: the two workers are busy
/// about a third of the time (`runtime.worker_busy_share`), while the
/// virtual backlog is overloaded.
const TENANT_QPS: f64 = 60_000.0;
/// Queries per open-loop serve (0.75 s of paced arrivals).
const TENANT_QUERIES: usize = 45_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Engine`, 2 workers, throughput mode, steady Poisson trace.
    OfflineEngine,
    /// `Cluster`, 2 nodes x 1 worker, hot-key drift, adaptive planner.
    OfflineClusterDrift,
    /// `Engine`, 2 workers, paced two-tenant open-loop traffic.
    OpenLoopTenants,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OfflineEngine,
        Workload::OfflineClusterDrift,
        Workload::OpenLoopTenants,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineEngine => "offline-engine",
            Workload::OfflineClusterDrift => "offline-cluster-drift",
            Workload::OpenLoopTenants => "open-loop-tenants",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether ingress is paced to due times, so measured latency is a
    /// user-facing latency rather than time since dispatch.
    pub fn paced(self) -> bool {
        self == Workload::OpenLoopTenants
    }
}

fn offline_trace() -> QueryTraceConfig {
    QueryTraceConfig {
        num_queries: OFFLINE_QUERIES,
        mean_size: 32.0,
        sigma: 1.0,
        max_size: 512,
        qps: OFFLINE_QPS,
        poisson_arrivals: true,
    }
}

fn tenant_mix() -> TrafficConfig {
    let strict = TENANT_QUERIES * 3 / 5;
    TrafficConfig::new(vec![
        TenantSpec::ranking("ranking", strict, TENANT_QPS * 0.6),
        TenantSpec::batch("batch", TENANT_QUERIES - strict, TENANT_QPS * 0.4),
    ])
}

/// The engine configuration of an engine workload.
pub fn engine_config(w: Workload, seed: u64) -> RuntimeConfig {
    match w {
        Workload::OfflineEngine => RuntimeConfig {
            workers: 2,
            trace: offline_trace(),
            scenario: LoadScenario::SteadyPoisson,
            pace_ingress: false,
            seed,
            model: RuntimeModelConfig::default(),
            ..RuntimeConfig::default()
        },
        Workload::OpenLoopTenants => RuntimeConfig {
            workers: 2,
            tenants: tenant_mix(),
            max_batch_wait_us: 400.0,
            pace_ingress: true,
            seed,
            model: RuntimeModelConfig::default(),
            ..RuntimeConfig::default()
        },
        Workload::OfflineClusterDrift => unreachable!("the cluster workload has no engine config"),
    }
}

/// The cluster configuration of the cluster workload.
pub fn cluster_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        nodes: 2,
        workers_per_node: 1,
        trace: offline_trace(),
        scenario: LoadScenario::HotKeyDrift { epochs: 8 },
        rebalance: RebalanceConfig {
            adaptive: true,
            ..RebalanceConfig::default()
        },
        pace_ingress: false,
        seed,
        model: RuntimeModelConfig::default(),
        ..ClusterConfig::default()
    }
}

/// A built system under test.
// One lives at a time, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum System {
    Engine(Engine),
    Cluster(Cluster),
}

impl System {
    /// Builds the workload's system with `seed` (the timed part is the
    /// caller's: this is what `setup_s` measures).
    pub fn build(w: Workload, seed: u64) -> Result<System, String> {
        match w {
            Workload::OfflineClusterDrift => Cluster::new(cluster_config(seed))
                .map(System::Cluster)
                .map_err(|e| e.to_string()),
            _ => Engine::new(engine_config(w, seed))
                .map(System::Engine)
                .map_err(|e| e.to_string()),
        }
    }

    /// The model configuration the system built (after the engine or
    /// cluster applied per-tenant skews).
    pub fn model_config(&self) -> &RuntimeModelConfig {
        match self {
            System::Engine(e) => &e.config().model,
            System::Cluster(c) => &c.config().model,
        }
    }

    pub fn cache_shards(&self) -> usize {
        match self {
            System::Engine(e) => e.config().cache_shards,
            System::Cluster(c) => c.config().cache_shards,
        }
    }

    /// Total worker threads executing batches.
    pub fn workers(&self) -> usize {
        match self {
            System::Engine(e) => e.config().workers,
            System::Cluster(c) => c.config().nodes * c.config().workers_per_node,
        }
    }

    /// Regenerates the exact trace `serve` feeds itself.
    pub fn trace(&self) -> Vec<Query> {
        match self {
            System::Engine(e) => {
                let c = e.config();
                if c.tenants.is_enabled() {
                    c.tenants.generate(c.seed)
                } else {
                    scenario::generate(c.trace, c.scenario, c.seed)
                }
            }
            System::Cluster(c) => {
                let c = c.config();
                scenario::generate(c.trace, c.scenario, c.seed)
            }
        }
    }

    /// Serves the workload once and summarizes the report.
    pub fn serve(&self) -> Result<Served, String> {
        match self {
            System::Engine(e) => {
                let r = e.serve().map_err(|e| e.to_string())?;
                Ok(Served {
                    completed: r.outcome.completed,
                    shed: r.shed_queries,
                    routed: r.routed_queries,
                    samples: r.outcome.samples,
                    correct_samples: r.outcome.correct_samples,
                    span_s: r.outcome.span_s,
                    virtual_violations: r.virtual_sla_violations,
                    goodput: goodput(&r.tenants),
                    histogram: r.histogram,
                    decisions: r.path_decisions,
                    checksum: r.checksum,
                    per_node_batches: r.worker_batches,
                    replans: 0,
                    migration_steps: 0,
                })
            }
            System::Cluster(c) => {
                let r = c.serve().map_err(|e| e.to_string())?;
                Ok(Served {
                    completed: r.outcome.completed,
                    shed: r.shed_queries,
                    routed: r.routed_queries,
                    samples: r.outcome.samples,
                    correct_samples: r.outcome.correct_samples,
                    span_s: r.outcome.span_s,
                    virtual_violations: r.virtual_sla_violations,
                    goodput: goodput(&r.tenants),
                    histogram: r.histogram,
                    decisions: r.path_decisions,
                    checksum: r.checksum,
                    per_node_batches: r.per_node_batches,
                    replans: r.adaptive_replans,
                    migration_steps: r.migration_steps,
                })
            }
        }
    }

    /// The replay twin's batch trail for `trace`, in dispatch order. For
    /// the cluster this reads `replay_spec()`, so call it after a serve
    /// (the adaptive planner's overlay epochs are part of the spec).
    pub fn replay_trail(&self, trace: &[Query]) -> Trail {
        match self {
            System::Engine(e) => {
                let c = e.config();
                let sim = replay::replay(
                    e.mapping_set(),
                    trace,
                    &replay_config(
                        c.sla_us,
                        c.max_batch_samples,
                        c.max_batch_wait_us,
                        &c.tenants,
                    ),
                );
                Trail {
                    batches: sim
                        .batches
                        .into_iter()
                        .map(|b| (e.paths()[b.mapping_idx], b.queries))
                        .collect(),
                    completed: sim.outcome.completed,
                    shed: sim.shed_queries,
                    virtual_violations: sim.outcome.sla_violations,
                }
            }
            System::Cluster(cl) => {
                let c = cl.config();
                let sim = replay::replay_cluster(
                    &cl.replay_spec(),
                    trace,
                    &replay_config(
                        c.sla_us,
                        c.max_batch_samples,
                        c.max_batch_wait_us,
                        &c.tenants,
                    ),
                );
                Trail {
                    batches: sim
                        .batches
                        .into_iter()
                        .map(|b| (cl.paths()[b.mapping_idx], b.queries))
                        .collect(),
                    completed: sim.outcome.completed,
                    shed: sim.shed_queries,
                    virtual_violations: sim.outcome.sla_violations,
                }
            }
        }
    }
}

fn replay_config(
    sla_us: f64,
    max_batch_samples: usize,
    max_batch_wait_us: f64,
    tenants: &TrafficConfig,
) -> ReplayConfig {
    ReplayConfig {
        sla_us,
        max_batch_samples,
        max_batch_wait_us,
        classes: tenants
            .tenants
            .iter()
            .map(|t| t.sla)
            .collect::<Vec<SlaClass>>(),
    }
}

/// Queries completed within their class SLA (virtual time): overall and
/// for tenant 0 (the strict class on the open-loop workload, the only
/// tenant elsewhere).
fn goodput(rows: &[TenantReport]) -> (u64, u64) {
    let within = |t: &TenantReport| t.completed - t.virtual_sla_violations;
    (
        rows.iter().map(within).sum(),
        rows.first().map(within).unwrap_or(0),
    )
}

/// The replay twin's decision trail: `(path, (query id, size) pairs)`
/// per batch in dispatch order, plus its outcome counts.
pub struct Trail {
    pub batches: Vec<(PathKind, Vec<(u64, u64)>)>,
    pub completed: u64,
    pub shed: u64,
    pub virtual_violations: u64,
}

impl Trail {
    pub fn decisions(&self) -> Vec<PathKind> {
        self.batches.iter().map(|(p, _)| *p).collect()
    }
}

/// What one serve reports, in one shape for engine and cluster.
pub struct Served {
    pub completed: u64,
    pub shed: u64,
    pub routed: u64,
    pub samples: u64,
    pub correct_samples: f64,
    pub span_s: f64,
    pub virtual_violations: u64,
    /// (all tenants, tenant 0) queries completed within their class SLA.
    pub goodput: (u64, u64),
    pub histogram: LatencyHistogram,
    pub decisions: Vec<PathKind>,
    pub checksum: f64,
    /// Batches per worker (engine) or scatter legs per node (cluster).
    pub per_node_batches: Vec<u64>,
    pub replans: u64,
    pub migration_steps: u64,
}

/// Due time of the trace's last query, in seconds from trace start.
pub fn last_arrival_s(trace: &[Query]) -> f64 {
    trace.iter().map(|q| q.arrival_us).max().unwrap_or(0) as f64 / 1e6
}

/// Times `f` and returns its result with the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}
