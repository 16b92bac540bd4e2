//! Serving benchmark of record for the MP-Rec runtime.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--trace 0` serves the workload repeatedly for `S` seconds through
//! the public `Engine`/`Cluster` API with tracing off, checks every
//! serve, and prints the end-to-end metrics. `--trace 1` is the separate
//! traced run: it replays the workload's batch trail through the public
//! layer functions, timing each call from outside (see `layers.rs`), and
//! prints the per-layer metrics. The last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`; the
//! lines before it are the host descriptor, diagnostics and checks.
//!
//! The metric definitions, the layer-to-end-to-end map and the held-out
//! seed are in `perfbench/METRICS.md`.

mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use mprec_runtime::LatencyHistogram;
use stats::{json_str, median, quantile_ms, result_line, Metric};
use workloads::{timed, Served, System, Trail, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// Fewest serves a timed run makes, however short `--seconds` is, so
/// every reported figure is a median.
const MIN_SERVES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?)
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0)
                    .ok_or_else(|| format!("--seconds {value:?}: expected 0 < S <= 120"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Host facts every result is printed with.
fn host_line() -> String {
    let brand: String = (0x8000_0002u32..=0x8000_0004)
        .flat_map(|leaf| {
            let r = std::arch::x86_64::__cpuid(leaf);
            [r.eax, r.ebx, r.ecx, r.edx]
        })
        .flat_map(u32::to_le_bytes)
        .filter(|&b| b != 0)
        .map(char::from)
        .collect();
    let simd: Vec<&str> = [
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host {{\"available_parallelism\": {cores}, \"cpu\": {}, \"simd\": {}, \"rustc\": {}, \"build\": {}}}",
        json_str(brand.trim()),
        json_str(&simd.join(",")),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_BUILD")),
    )
}

/// The output checks of one run. Every failure is kept; any failure
/// makes the run print its result with `"correct": false` and exit
/// nonzero.
#[derive(Default)]
pub struct Checks(Vec<String>);

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.0.push(what());
        }
    }

    pub fn passed(&self) -> bool {
        self.0.is_empty()
    }
}

/// The served decision trail and outcome counts must equal the replay
/// twin's on the same trace.
fn check_twin(checks: &mut Checks, run: &Served, twin: &Trail) {
    checks.require(run.decisions == twin.decisions(), || {
        format!(
            "decision trail differs from the replay twin's ({} vs {} batches)",
            run.decisions.len(),
            twin.batches.len()
        )
    });
    checks.require(
        run.completed == twin.completed
            && run.shed == twin.shed
            && run.virtual_violations == twin.virtual_violations,
        || "outcome counts differ from the replay twin's".into(),
    );
}

/// What a run reports: queries offered, queries not completed, and the
/// metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Checks that hold for every serve: conservation of queries and a
/// routed query for every completion.
fn check_serve(checks: &mut Checks, run: &Served, offered: u64) {
    checks.require(run.completed + run.shed == offered, || {
        format!(
            "completed {} + shed {} != offered {offered}",
            run.completed, run.shed
        )
    });
    checks.require(run.routed == run.completed, || {
        format!("routed {} != completed {}", run.routed, run.completed)
    });
}

/// The untraced timed run: one checked warm-up serve, then repeated
/// setup + serve for `seconds`, every serve checked.
fn timed_run(w: Workload, seed: u64, seconds: f64, checks: &mut Checks) -> Result<Outcome, String> {
    // Warm-up: process-level lazy set-up (page faults, allocator growth)
    // is paid here, not by a measured serve. Its outcome is checked
    // against the replay twin and is the reference for the
    // deterministic counts of every later serve.
    let system = System::build(w, seed)?;
    let warm = system.serve()?;
    let trace = system.trace();
    let trace_len = trace.len() as u64;
    let trace_span_s = workloads::last_arrival_s(&trace);
    check_twin(checks, &warm, &system.replay_trail(&trace));
    checks.require(warm.checksum.is_finite(), || {
        "non-finite score checksum".into()
    });
    check_serve(checks, &warm, trace_len);
    drop((system, trace));

    let begin = Instant::now();
    let mut setup_s = Vec::new();
    let mut sps = Vec::new();
    let mut csps = Vec::new();
    let mut p50 = Vec::new();
    let mut p95 = Vec::new();
    let mut pooled = LatencyHistogram::new();
    let mut serves = 0usize;
    while serves < MIN_SERVES || begin.elapsed().as_secs_f64() < seconds {
        let (system, setup) = timed(|| System::build(w, seed));
        let run = system?.serve()?;
        serves += 1;
        setup_s.push(setup);
        sps.push(run.samples as f64 / run.span_s);
        csps.push(run.correct_samples / run.span_s);
        p50.push(quantile_ms(&run.histogram, 0.50));
        p95.push(quantile_ms(&run.histogram, 0.95));
        pooled.merge(&run.histogram);
        check_serve(checks, &run, trace_len);
        // Virtual-time results are a pure function of the trace.
        checks.require(
            run.decisions == warm.decisions
                && run.completed == warm.completed
                && run.shed == warm.shed
                && run.samples == warm.samples
                && run.correct_samples == warm.correct_samples
                && run.virtual_violations == warm.virtual_violations
                && run.goodput == warm.goodput,
            || format!("serve {serves} differs from the warm-up serve in a deterministic count"),
        );
        checks.require(
            (run.checksum - warm.checksum).abs() <= 1e-9 * warm.checksum.abs().max(1.0),
            || {
                format!(
                    "serve {serves} checksum {} != warm-up {}",
                    run.checksum, warm.checksum
                )
            },
        );
    }
    let offered = trace_len.max(1) as f64;
    println!(
        "diag {{\"serves\": {serves}, \"offered\": {trace_len}, \"completed\": {}, \"shed\": {}, \"failed_frac\": {}, \"samples\": {}, \"virtual_violation_rate\": {}, \"goodput_queries\": {}, \"goodput_strict_qps\": {}, \"trace_span_s\": {trace_span_s}, \"checksum\": {}}}",
        warm.completed,
        warm.shed,
        (trace_len - warm.completed) as f64 / offered,
        warm.samples,
        warm.virtual_violations as f64 / warm.completed.max(1) as f64,
        warm.goodput.0,
        warm.goodput.1 as f64 / trace_span_s,
        warm.checksum,
    );
    println!(
        "diag per-serve samples_per_s {:?} p95_ms {:?} setup_s {:?}",
        sps.iter().map(|v| v.round()).collect::<Vec<_>>(),
        p95.iter()
            .map(|v| (v * 1e3).round() / 1e3)
            .collect::<Vec<_>>(),
        setup_s
            .iter()
            .map(|v| (v * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    // Tail latencies are diagnostics: on a 2-core shared host they move
    // by more than any usable bound between runs.
    let n = pooled.count();
    let origin = if w.paced() { "due time" } else { "dispatch" };
    println!(
        "diag latency from {origin}: p95 {:.4} ms (median over {serves} serves)",
        median(&p95)
    );
    for q in [0.95, 0.99, 0.999] {
        println!(
            "diag p{} = {:.4} ms over {n} latencies pooled from {serves} serves ({} beyond it)",
            q * 100.0,
            quantile_ms(&pooled, q),
            ((1.0 - q) * n as f64).floor() as u64
        );
    }
    let metrics = vec![
        Metric::new("samples_per_s", median(&sps), "1/s"),
        Metric::new("correct_samples_per_s", median(&csps), "1/s"),
        Metric::new("p50_ms", median(&p50), "ms"),
        Metric::new("goodput_qps", warm.goodput.0 as f64 / trace_span_s, "1/s"),
        Metric::new(
            "mean_accuracy",
            warm.correct_samples / warm.samples.max(1) as f64,
            "ratio",
        ),
        Metric::new("setup_s", median(&setup_s), "s"),
    ];
    Ok(Outcome {
        attempted: trace_len,
        failed: trace_len - warm.completed,
        metrics,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line());
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut checks = Checks::default();
    let result = if args.trace {
        layers::traced_run(args.workload, args.seed, args.seconds, &mut checks)
    } else {
        timed_run(args.workload, args.seed, args.seconds, &mut checks)
    };
    match result {
        Ok(out) => {
            for m in &out.metrics {
                println!("metric {} = {} {}", m.name, m.value, m.unit);
                checks.require(m.value.is_finite(), || format!("{} is not finite", m.name));
            }
            for f in &checks.0 {
                eprintln!("perfbench: check failed: {f}");
            }
            println!(
                "{}",
                result_line(checks.passed(), out.attempted, out.failed, &out.metrics)
            );
            if checks.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
