//! End-to-end benchmark of the polysig GALS design flow.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--server PATH] [--out DIR]
//! ```
//!
//! Workloads: `estimate_sweep`, `verify_sweep`, `serve_mix` (needs
//! `--server`, the `polysig-serve` binary) and `federated_stream`. With
//! `--trace 0` the run measures the end-to-end metrics untraced; with
//! `--trace 1` it alternates untraced and traced windows and reports the
//! per-layer metrics, the span coverage and the tracing overhead. Every run
//! checks its answers; the last line of standard output is the result
//! object, and the same object plus run details is written under `--out`.

mod calib;
mod estimate;
mod federated;
mod measure;
mod serve;
mod stats;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use measure::{Measured, Report, Sweep};
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["estimate_sweep", "verify_sweep", "serve_mix", "federated_stream"];

/// Per-layer metrics, in output order, with their units.
const LAYER_METRICS: [(&str, &str); 39] = [
    ("lang.busy_ms", "ms"),
    ("lang.calls", "count"),
    ("lang.bytes", "bytes"),
    ("analyze.busy_ms", "ms"),
    ("analyze.proven_channels", "count"),
    ("desync.busy_ms", "ms"),
    ("desync.channels", "count"),
    ("desync.equations_out", "count"),
    ("estimate.busy_ms", "ms"),
    ("estimate.rounds", "count"),
    ("estimate.converged_ratio", "ratio"),
    ("estimate.depth_sum", "count"),
    ("sim.elab_ms", "ms"),
    ("sim.busy_ms", "ms"),
    ("sim.reactions", "count"),
    ("verify.busy_ms", "ms"),
    ("verify.states", "count"),
    ("verify.transitions", "count"),
    ("verify.states_per_s", "1/s"),
    ("bmc.busy_ms", "ms"),
    ("bmc.calls", "count"),
    ("bmc.unsupported_ratio", "ratio"),
    ("runtime.busy_ms", "ms"),
    ("runtime.reactions", "count"),
    ("runtime.pushes", "count"),
    ("runtime.stall_events", "count"),
    ("runtime.stalled_ms", "ms"),
    ("runtime.stalls_per_kpush", "1/kpush"),
    ("runtime.max_occupancy", "count"),
    ("serve.busy_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.cold_p50_us", "us"),
    ("serve.hit_p50_us", "us"),
    ("wire.busy_ms", "ms"),
    ("wire.hit_overhead_us", "us"),
    ("wire.cold_overhead_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage", "ratio"),
];

/// Span names whose self time counts as layer time (everything but `op`).
const LAYER_SPANS: [&str; 11] = [
    "lang", "analyze", "desync", "estimate", "sim.elab", "sim", "verify", "bmc", "runtime",
    "serve", "wire",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: Option<PathBuf>,
    out: PathBuf,
    /// Run as one measuring process of [`run_parts`].
    part: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        server: None,
        out: PathBuf::from(".bench_out"),
        part: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--part" {
            args.part = true;
            continue;
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds expects a number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                }
            }
            "--server" => args.server = Some(PathBuf::from(value()?)),
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A JSON array of numbers.
pub fn json_list(v: &[f64]) -> String {
    format!("[{}]", v.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(","))
}

fn json_str(s: &str) -> String {
    polysig::serve::Json::Str(s.to_string()).render()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_json() -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"commit\":{}}}",
        nproc(),
        json_str(&cpu_model()),
        json_str(&env("PERFBENCH_RUSTC")),
        json_str(&env("PERFBENCH_COMMIT"))
    )
}

/// Builds a single-caller workload: its corpus and any set-up checks.
fn build(workload: &str, seed: u64) -> Result<Box<dyn Sweep>, String> {
    Ok(match workload {
        "estimate_sweep" => Box::new(estimate::EstimateSweep::setup(seed)),
        "verify_sweep" => Box::new(verify::VerifySweep::setup(seed)?),
        "federated_stream" => Box::new(federated::FederatedStream::setup(seed, nproc())?),
        other => return Err(format!("`{other}` is not a single-caller workload")),
    })
}

/// Set-up of a single-caller workload: build the corpus and run one
/// untraced warm-up pass (the federated workload's set-up already runs
/// every design once, recorded, so it needs none). Returns the workload,
/// the set-up time and the warm-up's measurements.
fn setup(workload: &str, seed: u64) -> Result<(Box<dyn Sweep>, f64, Measured), String> {
    let start = Instant::now();
    let mut sweep = build(workload, seed)?;
    let mut warm = Measured::default();
    if workload != "federated_stream" {
        warm = measure::pass(sweep.as_mut(), &mut Tracer::new(false), 0);
    }
    Ok((sweep, start.elapsed().as_secs_f64(), warm))
}

/// [`setup`], timed and scaled to the reference host by the calibration
/// kernel run just before it.
fn calibrated_setup(workload: &str, seed: u64) -> Result<(Box<dyn Sweep>, f64, Measured), String> {
    let factor = calib::factor(calib::kernel_ms());
    let (sweep, seconds, warm) = setup(workload, seed)?;
    Ok((sweep, seconds * factor, warm))
}

/// Latency, throughput, set-up and memory metrics: `ok_ops` ops and
/// `events` work units completed in `seconds`.
pub fn end_to_end(
    report: &mut Report,
    latencies_ms: &[f64],
    ok_ops: f64,
    events: f64,
    seconds: f64,
    setup_times: &[f64],
    peak_rss_mb: Option<f64>,
) -> Result<(), String> {
    let tail = stats::tail(latencies_ms).ok_or("too few ops for a tail latency (need 21)")?;
    report.metrics.push(("ops_per_s", ok_ops / seconds, "1/s"));
    report.metrics.push(("op_p50_ms", stats::median(latencies_ms), "ms"));
    report.metrics.push(("op_tail_ms", tail.value, "ms"));
    report.metrics.push(("events_per_s", events / seconds, "1/s"));
    report.metrics.push(("setup_s", stats::median(setup_times), "s"));
    report.metrics.push(("peak_rss_mb", peak_rss_mb.ok_or("no peak RSS reading")?, "MB"));
    report.detail.push((
        "op_tail".into(),
        format!(
            "{{\"percentile\":{},\"samples\":{},\"beyond\":{}}}",
            tail.percentile, tail.samples, tail.beyond
        ),
    ));
    report.detail.push(("setup_runs_s".into(), json_list(setup_times)));
    report.detail.push(("measured_s".into(), seconds.to_string()));
    Ok(())
}

/// The per-layer metrics of single-caller traced passes.
fn layer_report(report: &mut Report, untraced: &Measured, traced: &Measured, t: &Tracer) {
    let passes = traced.passes.max(1) as f64;
    let busy = t.busy_times();
    let own = t.self_times();
    let ms = |name: &str| busy.get(name).copied().unwrap_or(0) as f64 / 1e6 / passes;
    let per_pass = |name: &str| t.counted(name) / passes;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let covered: u64 = LAYER_SPANS.iter().map(|l| own.get(l).copied().unwrap_or(0)).sum();
    let verify_s = busy.get("verify").copied().unwrap_or(0) as f64 / 1e9;
    let values: Vec<(&str, f64)> = vec![
        ("lang.busy_ms", ms("lang")),
        ("lang.calls", per_pass("lang.calls")),
        ("lang.bytes", per_pass("lang.bytes")),
        ("analyze.busy_ms", ms("analyze")),
        ("analyze.proven_channels", per_pass("analyze.proven_channels")),
        ("desync.busy_ms", ms("desync")),
        ("desync.channels", per_pass("desync.channels")),
        ("desync.equations_out", per_pass("desync.equations_out")),
        ("estimate.busy_ms", ms("estimate")),
        ("estimate.rounds", per_pass("estimate.rounds")),
        (
            "estimate.converged_ratio",
            ratio(t.counted("estimate.converged"), t.counted("estimate.calls")),
        ),
        ("estimate.depth_sum", per_pass("estimate.depth_sum")),
        ("sim.elab_ms", ms("sim.elab")),
        ("sim.busy_ms", ms("sim")),
        ("sim.reactions", per_pass("sim.reactions")),
        ("verify.busy_ms", ms("verify")),
        ("verify.states", per_pass("verify.states")),
        ("verify.transitions", per_pass("verify.transitions")),
        ("verify.states_per_s", ratio(t.counted("verify.states"), verify_s)),
        ("bmc.busy_ms", ms("bmc")),
        ("bmc.calls", per_pass("bmc.calls")),
        ("bmc.unsupported_ratio", ratio(t.counted("bmc.unsupported"), t.counted("bmc.calls"))),
        ("runtime.busy_ms", ms("runtime")),
        ("runtime.reactions", per_pass("runtime.reactions")),
        ("runtime.pushes", per_pass("runtime.pushes")),
        ("runtime.stall_events", per_pass("runtime.stall_events")),
        ("runtime.stalled_ms", per_pass("runtime.stalled_ms")),
        (
            "runtime.stalls_per_kpush",
            1e3 * ratio(t.counted("runtime.stall_events"), t.counted("runtime.pushes")),
        ),
        ("runtime.max_occupancy", t.maximum("runtime.max_occupancy")),
        (
            "trace.overhead_pct",
            100.0 * ratio(traced.elapsed_s - untraced.elapsed_s, untraced.elapsed_s),
        ),
        ("trace.coverage", ratio(covered as f64 / 1e9, traced.elapsed_s)),
    ];
    push_layers(report, &values);
    report.detail.push(("traced_passes".into(), traced.passes.to_string()));
    report.detail.push(("traced_wall_ms".into(), (traced.elapsed_s * 1e3).to_string()));
    report.detail.push(("untraced_wall_ms".into(), (untraced.elapsed_s * 1e3).to_string()));
    report.detail.push(("spans".into(), t.spans().len().to_string()));
}

/// Emits every per-layer metric in `LAYER_METRICS` order; a layer the
/// workload does not call reads 0.
pub fn push_layers(report: &mut Report, values: &[(&str, f64)]) {
    for (name, unit) in LAYER_METRICS {
        let v = values.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
        report.metrics.push((name, v, unit));
    }
}

/// The untraced measurement is split over this many processes run one
/// after another: measuring child processes for the single-caller
/// workloads, server processes for `serve_mix`.
pub const PARTS: usize = 4;

/// What one measuring process observed (see [`measure_part`]).
#[derive(Debug, Default)]
struct Part {
    attempted: u64,
    failed: u64,
    passes: u64,
    events: f64,
    rss_mb: f64,
    setup_s: Vec<f64>,
    /// Median calibration kernel time of each process.
    kernel_ms: Vec<f64>,
    best_ms: Vec<f64>,
    errors: Vec<String>,
}

impl Part {
    fn render(&self) -> String {
        let list = |v: &[f64]| v.iter().map(|x| format!(" {x}")).collect::<String>();
        let mut out = format!(
            "part.attempted {}\npart.failed {}\npart.passes {}\npart.events {}\npart.rss_mb {}\n\
             part.setup_s{}\npart.kernel_ms{}\npart.best_ms{}\n",
            self.attempted,
            self.failed,
            self.passes,
            self.events,
            self.rss_mb,
            list(&self.setup_s),
            list(&self.kernel_ms),
            list(&self.best_ms)
        );
        for e in &self.errors {
            out.push_str(&format!("part.error {}\n", e.replace('\n', " ")));
        }
        out
    }

    fn parse(text: &str) -> Result<Part, String> {
        let mut p = Part::default();
        let nums = |rest: &str| -> Result<Vec<f64>, String> {
            rest.split_whitespace()
                .map(|x| x.parse::<f64>().map_err(|e| format!("`{x}`: {e}")))
                .collect()
        };
        let one = |rest: &str| -> Result<f64, String> {
            nums(rest)?.first().copied().ok_or_else(|| "missing value".to_string())
        };
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "part.attempted" => p.attempted = one(rest)? as u64,
                "part.failed" => p.failed = one(rest)? as u64,
                "part.passes" => p.passes = one(rest)? as u64,
                "part.events" => p.events = one(rest)?,
                "part.rss_mb" => p.rss_mb = one(rest)?,
                "part.setup_s" => p.setup_s = nums(rest)?,
                "part.kernel_ms" => p.kernel_ms = nums(rest)?,
                "part.best_ms" => p.best_ms = nums(rest)?,
                "part.error" => p.errors.push(rest.to_string()),
                _ => {}
            }
        }
        if p.passes == 0 || p.best_ms.is_empty() {
            return Err("measuring process reported no pass".into());
        }
        Ok(p)
    }
}

/// One measuring process: set up, run whole passes for `seconds`, check.
fn measure_part(args: &Args) -> Result<Part, String> {
    let (mut sweep, setup_s, warm) = calibrated_setup(&args.workload, args.seed)?;
    let m = measure::closed_loop(sweep.as_mut(), args.seconds);
    let mut errors = warm.errors;
    errors.extend(m.errors.iter().cloned());
    let post = sweep.post_check();
    errors.extend(post.iter().cloned());
    errors.truncate(8);
    Ok(Part {
        attempted: warm.attempted + m.attempted + post.len() as u64,
        failed: warm.failed + m.failed + post.len() as u64,
        passes: m.passes as u64,
        events: m.events as f64,
        rss_mb: stats::peak_rss_mb(None).ok_or("no peak RSS reading")?,
        setup_s: vec![setup_s],
        kernel_ms: vec![stats::median(&m.kernel_ms)],
        best_ms: measure::best_of(&m, sweep.len()),
        errors,
    })
}

/// Runs [`PARTS`] measuring processes one after another and merges them:
/// every op's best latency over all of them. Co-tenants of a shared host
/// slow some processes as a whole (thread placement, neighbours' load);
/// several processes per run make the best repetition of each op a
/// property of the code rather than of one process's luck.
fn run_parts(args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut merged = Part::default();
    for _ in 0..PARTS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / PARTS as f64).to_string(), "--trace", "0"])
            .arg("--out")
            .arg(&args.out)
            .arg("--part")
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("start measuring process: {e}"))?;
        if !out.status.success() {
            return Err(format!("measuring process failed ({})", out.status));
        }
        let part = Part::parse(&String::from_utf8_lossy(&out.stdout))?;
        merged.attempted += part.attempted;
        merged.failed += part.failed;
        merged.passes += part.passes;
        merged.events += part.events;
        merged.rss_mb = merged.rss_mb.max(part.rss_mb);
        merged.setup_s.extend(part.setup_s);
        merged.kernel_ms.extend(part.kernel_ms);
        if merged.best_ms.is_empty() {
            merged.best_ms = part.best_ms;
        } else if merged.best_ms.len() == part.best_ms.len() {
            for (b, p) in merged.best_ms.iter_mut().zip(part.best_ms) {
                *b = b.min(p);
            }
        } else {
            return Err("measuring processes disagree on the op count".into());
        }
        merged.errors.extend(part.errors);
    }
    merged.errors.truncate(8);
    let mut report = Report {
        attempted: merged.attempted,
        failed: merged.failed,
        errors: merged.errors,
        ..Report::default()
    };
    // one pass made of every op's best repetition
    let best = &merged.best_ms;
    let ok_per_pass =
        best.len() as f64 * (1.0 - merged.failed as f64 / merged.attempted.max(1) as f64);
    end_to_end(
        &mut report,
        best,
        ok_per_pass,
        merged.events / merged.passes as f64,
        best.iter().sum::<f64>() / 1e3,
        &merged.setup_s,
        Some(merged.rss_mb),
    )?;
    report.detail.push(("processes".into(), PARTS.to_string()));
    report.detail.push(("passes".into(), merged.passes.to_string()));
    report.detail.push(("kernel_ms".into(), json_list(&merged.kernel_ms)));
    report.detail.push(("reference_kernel_ms".into(), calib::REFERENCE_KERNEL_MS.to_string()));
    report.detail.push(("op_best_ms".into(), json_list(best)));
    Ok(report)
}

/// The traced run of a single-caller workload, in this process.
fn run_traced(args: &Args) -> Result<(Report, Option<Tracer>), String> {
    let (mut sweep, _, warm) = setup(&args.workload, args.seed)?;
    let mut report = Report::default();
    report.fail(warm.errors.clone());
    let (untraced, traced, t) = measure::traced_loop(sweep.as_mut(), args.seconds);
    for m in [&untraced, &traced] {
        report.attempted += m.attempted;
        report.failed += m.failed;
        report.errors.extend(m.errors.iter().take(4).cloned());
    }
    layer_report(&mut report, &untraced, &traced, &t);
    report.fail(sweep.post_check());
    Ok((report, Some(t)))
}

fn render(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for (name, value, unit) in &report.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number"));
        }
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--server PATH] [--out DIR]"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    if args.part {
        return match measure_part(&args) {
            Ok(p) => {
                print!("{}", p.render());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = if args.workload == "serve_mix" {
        match &args.server {
            Some(bin) => serve::run(bin, &args.out, args.seed, args.seconds, args.trace, nproc()),
            None => Err("serve_mix needs --server PATH".to_string()),
        }
    } else if args.trace {
        run_traced(&args)
    } else {
        run_parts(&args).map(|r| (r, None))
    };
    let (report, spans) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match render(&report) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let mut detail = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("host".to_string(), host_json()),
        (
            "errors".to_string(),
            format!(
                "[{}]",
                report.errors.iter().map(|e| json_str(e)).collect::<Vec<_>>().join(",")
            ),
        ),
    ];
    detail.extend(report.detail.iter().cloned());
    detail.push(("result".to_string(), result.clone()));
    let detail = format!(
        "{{{}}}",
        detail.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect::<Vec<_>>().join(",")
    );
    let written = std::fs::write(args.out.join(format!("{stem}.json")), format!("{detail}\n"))
        .map_err(|e| e.to_string())
        .and_then(|()| match &spans {
            Some(t) => t
                .write_jsonl(&args.out.join(format!("{stem}.spans.jsonl")))
                .map_err(|e| e.to_string()),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("error: write results under {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("{detail}");
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let e2e = [
            ("ops_per_s", "1/s"),
            ("op_p50_ms", "ms"),
            ("op_tail_ms", "ms"),
            ("events_per_s", "1/s"),
            ("setup_s", "s"),
            ("peak_rss_mb", "MB"),
        ];
        for (name, unit) in e2e.iter().chain(LAYER_METRICS.iter()) {
            let at =
                spec.find(&format!("\"name\": \"{name}\"")).unwrap_or_else(|| panic!("{name}"));
            let unit_at = spec[at..].find("\"unit\": ").expect("a unit follows") + at + 8;
            assert!(spec[unit_at..].starts_with(&format!("\"{unit}\"")), "{name}: unit {unit}");
        }
        assert_eq!(spec.matches("\"better\"").count(), e2e.len() + LAYER_METRICS.len());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let report = Report {
            attempted: 3,
            failed: 1,
            metrics: vec![("op_p50_ms", 1.25, "ms")],
            ..Report::default()
        };
        assert_eq!(
            render(&report).unwrap(),
            "{\"correct\":false,\"attempted\":3,\"failed\":1,\
             \"metrics\":{\"op_p50_ms\":{\"value\":1.25,\"unit\":\"ms\"}}}"
        );
        let nan =
            Report { attempted: 1, metrics: vec![("x", f64::NAN, "ms")], ..Report::default() };
        assert!(render(&nan).is_err());
    }
}
