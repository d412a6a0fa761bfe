//! End-to-end and per-layer benchmark for the replay-race workspace.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload browser|corpus|service --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Each workload is set up several times (the median is `setup_s`), then
//! one caller runs a closed loop of ops for `--seconds`. Every op's output
//! is checked. End-to-end times are read on the process CPU clock
//! ([`stats::cpu_ms`]), not the wall clock, and scaled to a reference core
//! by a calibration kernel sampled after every op ([`calibrate`]).
//! With `--trace 0` the last stdout line is a JSON object holding the
//! end-to-end metrics; with `--trace 1` the first half of the run is
//! untraced and the second half records a span around every layer call, and
//! the JSON holds the per-layer metrics. A human-readable table goes to
//! stderr. See `perfbench/README.md` for the workloads, the metrics and the
//! predictions they test.

mod browser;
mod calibrate;
mod corpus;
mod heap;
mod layers;
mod service;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use stats::{mean, median, percentile, ratio};
use trace::{Span, Tracer, ROOT};

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Calibration kernel samples taken right before and right after each
/// set-up, to scale its time.
const SETUP_KERNEL_SAMPLES: usize = 20;

/// The seed whose browser report digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The outcome of one op: its latency (process CPU ms, see
/// [`stats::cpu_ms`]) and, if it failed, why.
pub struct OpResult {
    pub latency_ms: f64,
    pub error: Option<String>,
}

/// A workload after set-up.
pub trait Workload: Sync {
    /// Runs op `id`: the timed part through [`Tracer::op`], then the check
    /// of its output.
    fn op(&self, tr: &Tracer, id: u64) -> OpResult;

    /// The exponent of the calibration kernel's speed ratio that scales
    /// this workload's op times ([`calibrate::scale`]): how closely its CPU
    /// time follows the kernel's when the core's speed changes.
    fn speed_elasticity(&self) -> f64 {
        1.0
    }

    /// Called right before the traced window starts.
    fn begin_window(&self) {}

    /// Layer metrics the workload reads itself over the traced window
    /// (the service's `svc-stats` deltas).
    fn window_metrics(&self, _tr: &Tracer) -> Vec<Metric> {
        Vec::new()
    }
}

/// Command-line options.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Smoke scale: small inputs, for the self-test.
    pub smoke: bool,
    /// Replaces the pinned browser digest (to check that a mismatch fails).
    pub pin: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        pin: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                };
            }
            "--pin" => {
                let v = value()?;
                opts.pin = Some(u64::from_str_radix(v, 16).map_err(|e| format!("--pin: {e}"))?);
            }
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

/// Where runs keep their scratch files: inside the benchmark's directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Op samples of one closed-loop window. Times are on the reference core
/// (see [`calibrate`]) unless named raw.
struct Window {
    latencies_ms: Vec<f64>,
    /// Process CPU time of the window's ops and their checks.
    work_ms: f64,
    raw_work_ms: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    elapsed: Duration,
    steal_ms: f64,
    /// Median time of one calibration kernel sample.
    raw_kernel_ms: f64,
}

/// Runs one closed-loop caller until `seconds` of wall time have passed: it
/// sends its next op only after the previous one completed, so one op is
/// in flight at a time and the process CPU clock times it alone. A
/// calibration kernel sample follows every op, outside its time.
fn closed_loop(w: &dyn Workload, tr: &Tracer, next_op: &AtomicU64, seconds: f64) -> Window {
    let deadline = Duration::from_secs_f64(seconds);
    let steal_start = stats::steal_ms();
    let start = Instant::now();
    let mut results = Vec::new();
    let mut work = Vec::new();
    let mut kernel = Vec::new();
    while start.elapsed() < deadline {
        let before = stats::cpu_ms();
        results.push(w.op(tr, next_op.fetch_add(1, Ordering::Relaxed)));
        work.push(stats::cpu_ms() - before);
        kernel.push(calibrate::sample());
    }
    let elapsed = start.elapsed();
    let steal_ms = stats::steal_ms() - steal_start;
    let scales = calibrate::local_scales(&kernel, w.speed_elasticity());
    let errors: Vec<String> = results.iter().filter_map(|r| r.error.clone()).collect();
    Window {
        latencies_ms: results.iter().zip(&scales).map(|(r, s)| r.latency_ms * s).collect(),
        work_ms: work.iter().zip(&scales).map(|(ms, s)| ms * s).sum(),
        raw_work_ms: work.iter().sum(),
        attempted: results.len() as u64,
        failed: errors.len() as u64,
        errors,
        elapsed,
        steal_ms,
        raw_kernel_ms: median(&kernel),
    }
}

/// Span layers and the metric each one's self time is reported as.
const SPAN_METRICS: [(&str, &str); 11] = [
    ("tvm.native", "tvm.native_ms"),
    ("idna.record", "idna.record_ms"),
    ("idna.encode", "idna.encode_ms"),
    ("idna.decode", "idna.decode_ms"),
    ("idna.replay", "idna.replay_ms"),
    ("racecheck.analyze", "racecheck.analyze_ms"),
    ("detect", "detect.ms"),
    ("classify", "classify.ms"),
    ("report.build", "report.build_ms"),
    ("report.json", "report.json_ms"),
    ("serviced.submit", "serviced.round_trip_ms"),
];

/// Counters read at layer boundaries, reported as their mean per op.
const COUNTERS: [(&str, &str); 17] = [
    ("tvm.instructions", "count"),
    ("idna.log_raw_bytes", "bytes"),
    ("idna.log_compressed_bytes", "bytes"),
    ("racecheck.candidate_pairs", "count"),
    ("racecheck.warnings", "count"),
    ("detect.instances", "count"),
    ("detect.unique_races", "count"),
    ("classify.vproc_replays", "count"),
    ("classify.analyzed_instances", "count"),
    ("classify.planned_hits", "count"),
    ("classify.batches", "count"),
    ("classify.forks", "count"),
    ("classify.prefix_executions", "count"),
    ("classify.static_skipped_races", "count"),
    ("report.json_bytes", "bytes"),
    ("serviced.replays", "count"),
    ("serviced.store_hits", "count"),
];

/// Per-layer metrics of the traced window, in a fixed order; a layer the
/// workload does not call reads 0.
fn layer_metrics(w: &dyn Workload, tr: &Tracer, untraced: &Window, traced: &Window) -> Vec<Metric> {
    let spans: Vec<Span> = tr.spans();
    let totals = trace::op_totals(&spans);
    let ops: Vec<u64> = totals.keys().copied().collect();
    let own = trace::self_times(&spans);
    let per_op = |by_op: Option<&BTreeMap<u64, f64>>| -> Vec<f64> {
        by_op.map_or_else(Vec::new, |m| {
            ops.iter().map(|op| m.get(op).copied().unwrap_or(0.0)).collect()
        })
    };
    let layer_median = |name: &str| median(&per_op(own.get(name)));
    let counts = tr.counts_by_op();
    let count_mean = |name: &str| mean(&per_op(counts.get(name)));

    let mut out = Vec::new();
    for (span, name) in SPAN_METRICS {
        out.push(metric(name, layer_median(span), "ms"));
    }
    for (name, unit) in COUNTERS {
        out.push(metric(name, count_mean(name), unit));
    }

    let native: Vec<f64> = per_op(own.get("tvm.native"));
    let instructions: Vec<f64> = per_op(counts.get("tvm.instructions"));
    let minstr: Vec<f64> =
        native.iter().zip(&instructions).map(|(ms, n)| ratio(*n, ms * 1e3)).collect();
    out.push(metric("tvm.minstr_per_s", median(&minstr), "Minstr/s"));
    out.push(metric(
        "classify.replay_ratio",
        ratio(count_mean("classify.vproc_replays"), count_mean("classify.analyzed_instances")),
        "ratio",
    ));
    // The paper's §5.1 ratios: phase medians over the native median.
    let native_ms = layer_median("tvm.native");
    for (span, name) in [
        ("idna.record", "overhead.record_x"),
        ("idna.replay", "overhead.replay_x"),
        ("detect", "overhead.detect_x"),
        ("classify", "overhead.classify_x"),
    ] {
        out.push(metric(name, ratio(layer_median(span), native_ms), "x"));
    }

    let untraced_p50 = median(&untraced.latencies_ms);
    let traced_p50 = median(&traced.latencies_ms);
    let glue = per_op(own.get(ROOT));
    let attributed: Vec<f64> = totals.values().zip(&glue).map(|(t, g)| ratio(t - g, *t)).collect();
    out.push(metric("trace.untraced_p50_ms", untraced_p50, "ms"));
    out.push(metric("trace.traced_p50_ms", traced_p50, "ms"));
    out.push(metric("trace.overhead_ms", traced_p50 - untraced_p50, "ms"));
    out.push(metric("trace.unattributed_ms", median(&glue), "ms"));
    out.push(metric("trace.attributed_frac", median(&attributed), "fraction"));
    out.push(metric("trace.ops", ops.len() as f64, "count"));
    out.push(metric("process.peak_rss_mb", stats::peak_rss_mb(), "MB"));
    out.push(metric(
        "process.cpu_ms_per_op",
        ratio(traced.raw_work_ms, traced.attempted as f64),
        "ms",
    ));
    let service = w.window_metrics(tr);
    out.extend(service::layer_metric_names().iter().map(|(name, unit)| {
        let value = service.iter().find(|m| m.name == *name).map_or(0.0, |m| m.value);
        metric(*name, value, unit)
    }));
    out
}

/// End-to-end metrics of an untraced window.
fn end_to_end(setup_s: f64, w: &Window) -> Vec<Metric> {
    let ok = (w.attempted - w.failed) as f64;
    vec![
        metric("setup_s", setup_s, "s"),
        metric("latency_p50_ms", median(&w.latencies_ms), "ms"),
        metric("latency_p90_ms", percentile(&w.latencies_ms, 90.0), "ms"),
        metric("throughput_ops_s", ratio(ok, w.work_ms / 1e3), "1/s"),
        metric("ok_frac", ratio(ok, w.attempted as f64), "fraction"),
        metric("peak_heap_mb", heap::peak_mb(), "MB"),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(r#""{}":{{"value":{},"unit":"{}"}}"#, m.name, json_number(m.value), m.unit)
        })
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    );
}

fn set_up(opts: &Options) -> Result<(Box<dyn Workload>, f64), String> {
    let mut times = Vec::new();
    let mut last: Option<Box<dyn Workload>> = None;
    for rep in 0..SETUP_REPS {
        // The previous set-up is torn down before the next one is timed.
        drop(last.take());
        let kernel_before = calibrate::samples(SETUP_KERNEL_SAMPLES);
        let start = stats::cpu_ms();
        let w: Box<dyn Workload> = match opts.workload.as_str() {
            "browser" => Box::new(browser::Browser::set_up(opts)?),
            "corpus" => Box::new(corpus::Corpus::set_up(opts)?),
            "service" => Box::new(service::Service::set_up(opts, rep)?),
            other => return Err(format!("unknown workload {other:?} (browser, corpus, service)")),
        };
        let raw_s = (stats::cpu_ms() - start) / 1e3;
        let kernel = [kernel_before, calibrate::samples(SETUP_KERNEL_SAMPLES)].concat();
        // Set-up is recording and one-shot analysis, which follow the
        // kernel as browser and corpus ops do.
        times.push(raw_s * calibrate::scale(&kernel, 1.0));
        last = Some(w);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

fn run(opts: &Options) -> Result<(), String> {
    let (w, setup_s) = set_up(opts)?;
    let tr = Tracer::new();
    let next_op = AtomicU64::new(0);
    let (metrics, windows) = if opts.trace {
        let untraced = closed_loop(w.as_ref(), &tr, &next_op, opts.seconds / 2.0);
        w.begin_window();
        tr.set_enabled(true);
        let traced = closed_loop(w.as_ref(), &tr, &next_op, opts.seconds / 2.0);
        tr.set_enabled(false);
        let metrics = layer_metrics(w.as_ref(), &tr, &untraced, &traced);
        let path = out_dir().join(format!("trace-{}-seed{}.jsonl", opts.workload, opts.seed));
        tr.write(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        (metrics, vec![untraced, traced])
    } else {
        let window = closed_loop(w.as_ref(), &tr, &next_op, opts.seconds);
        (end_to_end(setup_s, &window), vec![window])
    };
    drop(w);
    let attempted: u64 = windows.iter().map(|w| w.attempted).sum();
    let failed: u64 = windows.iter().map(|w| w.failed).sum();
    let distinct: std::collections::BTreeSet<&String> =
        windows.iter().flat_map(|w| w.errors.iter()).collect();
    for e in distinct.iter().take(40) {
        eprintln!("failed op: {e}");
    }
    let vcpu_ms: f64 = windows.iter().map(|w| w.elapsed.as_secs_f64() * 1e3).sum::<f64>()
        * std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64;
    let steal_ms: f64 = windows.iter().map(|w| w.steal_ms).sum();
    eprintln!(
        "{} seed {}{}: {attempted} ops, {failed} failed (failed_frac {}), setup {setup_s:.3} s, \
         host steal {:.1}% of vCPU time",
        opts.workload,
        opts.seed,
        if opts.trace { " traced" } else { "" },
        ratio(failed as f64, attempted as f64),
        100.0 * ratio(steal_ms, vcpu_ms),
    );
    for w in &windows {
        eprintln!(
            "  calibration kernel median {:.4} ms (reference {} ms); ops took {:.1} ms raw, \
             {:.1} ms on the reference core",
            w.raw_kernel_ms,
            calibrate::REFERENCE_MS,
            w.raw_work_ms,
            w.work_ms,
        );
    }
    for m in &metrics {
        eprintln!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    print_result(failed == 0, attempted, failed, &metrics);
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|opts| run(&opts));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
