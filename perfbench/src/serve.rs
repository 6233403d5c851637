//! `serve_mix`: a `polysig-serve` child process under a seeded request
//! stream.
//!
//! One caller thread per connection (as many as CPUs) takes the next
//! request of a shared stream, sends it as a length-prefixed JSON frame and
//! waits for the answer before taking another (closed loop). Every request
//! is a `pipeline` request (lint + estimate + check) over a family of small
//! programs, in three classes:
//!
//! * `first`: a program not seen before (a cold pipeline);
//! * `rescenario`: a seen program under a new scenario (the program cache
//!   and the reused `Estimator` answer, the result cache misses);
//! * `repeat`: an exact repeat of one of the recent requests (a result-cache
//!   hit, or coalesced onto the identical request still in flight).
//!
//! Every eighth response is kept and, after the window, compared with the
//! answer a fresh in-process `Engine` gives to the same request.

use std::collections::HashMap;
use std::io::{BufRead as _, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use polysig::serve::proto::Envelope;
use polysig::serve::{read_frame, write_frame, Engine, EngineConfig, Json, Request, RequestKind};
use polysig::sim::{generator::master_clock, BurstyInputs, PeriodicInputs, ScenarioGenerator};
use polysig::tagged::ValueType;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib;
use crate::measure::Report;
use crate::stats;
use crate::trace::Tracer;

/// Percent of requests that are first sights.
pub const FIRST_PERCENT: u32 = 5;
/// Percent of requests that re-ask a seen program under a new scenario.
pub const RESCENARIO_PERCENT: u32 = 25;
/// Requests sent per second of `--seconds`: a run sends a fixed number of
/// requests, so the server's cache and memory growth, and hence
/// `peak_rss_mb`, do not depend on how fast it answers.
pub const REQUESTS_PER_SECOND: f64 = 2000.0;
/// Repeats pick among this many most recent requests.
const REPEAT_WINDOW: usize = 256;
/// Every `SAMPLE_EVERY`-th response is checked against a direct answer.
const SAMPLE_EVERY: usize = 8;
/// Instants per request scenario.
const SCENARIO_STEPS: usize = 48;
/// Stream length; the stream wraps (turning into pure repeats) beyond it.
const STREAM_LEN: usize = 1 << 18;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    First,
    Rescenario,
    Repeat,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    pub program: u32,
    pub scenario: u32,
    pub class: Class,
}

/// The seeded request stream.
pub fn stream(seed: u64, len: usize) -> Vec<Descriptor> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0073_6572_7665);
    let mut next_scenario: Vec<u32> = Vec::new();
    let mut out: Vec<Descriptor> = Vec::with_capacity(len);
    for i in 0..len {
        let roll = rng.gen_range(0..100u32);
        let d = if i == 0 || roll < FIRST_PERCENT {
            next_scenario.push(1);
            Descriptor { program: next_scenario.len() as u32 - 1, scenario: 0, class: Class::First }
        } else if roll < FIRST_PERCENT + RESCENARIO_PERCENT {
            let p = rng.gen_range(0..next_scenario.len());
            let s = next_scenario[p];
            next_scenario[p] += 1;
            Descriptor { program: p as u32, scenario: s, class: Class::Rescenario }
        } else {
            let lo = i.saturating_sub(REPEAT_WINDOW);
            let earlier = out[rng.gen_range(lo..i)];
            Descriptor { class: Class::Repeat, ..earlier }
        };
        out.push(d);
    }
    out
}

fn mix(seed: u64, a: u64, b: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    )
}

/// Program `id` of the family: two or three stages and an alarm-style
/// output `hi` for the reachability check. The offset makes every id's
/// source distinct.
pub fn program_source(seed: u64, id: u32) -> (String, Vec<&'static str>) {
    let mut rng = mix(seed, u64::from(id), 0);
    let offset = i64::from(id) + 1;
    let limit = rng.gen_range(0..=4i64) + 2 * offset;
    if id.is_multiple_of(2) {
        (
            format!(
                "process P {{ input a: int; output x: int; x := a + {offset}; }}\n\
                 process Q {{ input x: int; output y: int, hi: bool; y := x + (pre 0 x); hi := y > {limit}; }}\n"
            ),
            vec!["x"],
        )
    } else {
        (
            format!(
                "process P {{ input a: int; output x: int; x := a + {offset}; }}\n\
                 process Q {{ input x: int; output z: int; z := x * 2; }}\n\
                 process R {{ input z: int; output y: int, hi: bool; y := z + (pre 0 z); hi := y > {limit}; }}\n"
            ),
            vec!["x", "z"],
        )
    }
}

/// Scenario `sid` of program `pid`: a bursty writer, the first channel read
/// every one or two instants, later channels at every instant.
pub fn scenario_text(seed: u64, pid: u32, sid: u32, channels: &[&str]) -> String {
    let mut rng = mix(seed, u64::from(pid), u64::from(sid) + 1);
    let burst = rng.gen_range(1..=4usize);
    let period = 2 * burst + rng.gen_range(0..=burst);
    let read_period = rng.gen_range(1..=2usize);
    let mut env = BurstyInputs::new("a", ValueType::Int, burst, period)
        .generate(SCENARIO_STEPS)
        .zip_union(&master_clock("tick", SCENARIO_STEPS));
    for (j, ch) in channels.iter().enumerate() {
        let p = if j == 0 { read_period } else { 1 };
        env = env.zip_union(
            &PeriodicInputs::new(format!("{ch}_rd"), ValueType::Bool, p, 0)
                .generate(SCENARIO_STEPS),
        );
    }
    env.to_text()
}

/// The request a descriptor stands for (its id names program and scenario).
pub fn request(seed: u64, d: Descriptor) -> Request {
    let (source, channels) = program_source(seed, d.program);
    let id = (u64::from(d.program) << 32) | u64::from(d.scenario);
    let mut req = Request::new(id, RequestKind::Pipeline, source);
    req.scenario = Some(scenario_text(seed, d.program, d.scenario, &channels));
    req.property = Some("hi".into());
    req
}

/// A request and its encoded frame.
pub struct Built {
    pub request: Request,
    pub json: String,
}

/// The seeded stream with every distinct request built once (shared by all
/// caller threads), so repeats cost the callers a map lookup.
pub struct Requests {
    seed: u64,
    stream: Vec<Descriptor>,
    memo: Mutex<HashMap<(u32, u32), Arc<Built>>>,
}

impl Requests {
    pub fn new(seed: u64, stream: Vec<Descriptor>) -> Requests {
        Requests { seed, stream, memo: Mutex::new(HashMap::new()) }
    }

    /// Request `i` of the stream (the stream wraps).
    pub fn get(&self, i: usize) -> Arc<Built> {
        let d = self.stream[i % self.stream.len()];
        if let Some(b) = self.memo.lock().expect("request memo").get(&(d.program, d.scenario)) {
            return Arc::clone(b);
        }
        let request = request(self.seed, d);
        let built = Arc::new(Built { json: request.to_json(), request });
        self.memo.lock().expect("request memo").insert((d.program, d.scenario), Arc::clone(&built));
        built
    }
}

/// The outcome and payload of a response document, for comparison.
pub fn answer_of(frame: &str) -> Result<(Json, Json), String> {
    let v = Json::parse(frame)?;
    let outcome = v.get("outcome").cloned().ok_or("response without `outcome`")?;
    let payload = v.get("payload").cloned().ok_or("response without `payload`")?;
    Ok((outcome, payload))
}

/// Checks a served response against the direct in-process answer.
pub fn check_response(served: &str, direct: &str) -> Result<(), String> {
    let (o1, p1) = answer_of(served)?;
    let (o2, p2) = answer_of(direct)?;
    if o1 != o2 {
        return Err(format!("served outcome {} != direct {}", o1.render(), o2.render()));
    }
    if p1 != p2 {
        return Err("served payload differs from the direct answer".into());
    }
    match o1.as_str() {
        Some("pipeline") => Ok(()),
        other => Err(format!("request answered with outcome {other:?}")),
    }
}

/// The server child process; killed and reaped on drop.
pub struct ServerChild {
    child: Child,
    pub addr: String,
}

impl ServerChild {
    pub fn spawn(bin: &Path, dir: &Path, tag: usize) -> Result<ServerChild, String> {
        let port_file: PathBuf = dir.join(format!("serve-{}-{tag}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = ServerChild { child, addr: String::new() };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse::<u16>() {
                    server.addr = format!("127.0.0.1:{port}");
                    let _ = std::fs::remove_file(&port_file);
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                let mut err = String::new();
                if let Some(stderr) = server.child.stderr.take() {
                    for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                        err.push_str(&line);
                    }
                }
                return Err(format!("server exited ({status}) before listening: {err}"));
            }
            if Instant::now() > deadline {
                return Err("server did not write its port file within 30 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::stats::peak_rss_mb(Some(self.child.id()))
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Answer {
    pub index: usize,
    pub served: String,
    pub outcome: String,
    pub latency_us: f64,
    /// Completion time, from the start of the window.
    pub done_s: f64,
    pub error: Option<String>,
    /// The response document, kept for every `SAMPLE_EVERY`-th request.
    pub sample: Option<String>,
}

/// One round trip over an open connection.
pub fn round_trip(
    stream: &mut std::net::TcpStream,
    json: &str,
) -> Result<(Envelope, String), String> {
    write_frame(stream, json.as_bytes()).map_err(|e| e.to_string())?;
    let frame =
        read_frame(stream).map_err(|e| e.to_string())?.ok_or("server closed the connection")?;
    let text = String::from_utf8(frame).map_err(|e| e.to_string())?;
    let env = Envelope::from_json(&text)?;
    Ok((env, text))
}

/// Drives `addr` with `threads` closed-loop callers until the first `count`
/// requests of the stream are answered. Returns the answers (in completion
/// order per thread) and the window's length.
pub fn drive(
    addr: &str,
    requests: &Requests,
    threads: usize,
    count: usize,
    tracer: &Tracer,
) -> Result<(Vec<Answer>, f64, Tracer), String> {
    let next = AtomicUsize::new(0);
    let answers = Mutex::new(Vec::new());
    let spans = Mutex::new(tracer.sibling());
    let start = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for _ in 0..threads {
            let mut conn =
                std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            conn.set_nodelay(true).map_err(|e| e.to_string())?;
            let (next, answers, spans) = (&next, &answers, &spans);
            let mut t = tracer.sibling();
            handles.push(scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let req = requests.get(i);
                    let sent = Instant::now();
                    let result =
                        t.op(i as u64, |t| t.layer("wire", || round_trip(&mut conn, &req.json)));
                    let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                    let done_s = start.elapsed().as_secs_f64();
                    let failed = result.is_err();
                    local.push(match result {
                        Ok((env, text)) => Answer {
                            index: i,
                            served: env.served,
                            outcome: env.outcome,
                            latency_us,
                            done_s,
                            error: None,
                            sample: (i % SAMPLE_EVERY == 0).then_some(text),
                        },
                        Err(e) => Answer {
                            index: i,
                            served: String::new(),
                            outcome: String::new(),
                            latency_us,
                            done_s,
                            error: Some(format!("request {i}: transport error: {e}")),
                            sample: None,
                        },
                    });
                    if failed {
                        break;
                    }
                }
                answers.lock().expect("answer list").extend(local);
                spans.lock().expect("span list").absorb(t);
            }));
        }
        for h in handles {
            h.join().map_err(|_| "a caller thread panicked".to_string())?;
        }
        Ok(())
    })?;
    let elapsed = start.elapsed().as_secs_f64();
    Ok((
        answers.into_inner().expect("answer list"),
        elapsed,
        spans.into_inner().expect("span list"),
    ))
}

/// Replays the first `count` requests of `stream` through an in-process
/// engine with `threads` callers, one `serve` span per `Engine::submit`.
pub fn replay(
    requests: &Requests,
    count: usize,
    threads: usize,
    tracer: &Tracer,
) -> (Vec<(String, f64)>, f64, Tracer, polysig::serve::EngineStats) {
    for i in 0..count {
        requests.get(i);
    }
    let engine = Engine::new(EngineConfig::default());
    let next = AtomicUsize::new(0);
    let answers = Mutex::new(Vec::new());
    let spans = Mutex::new(tracer.sibling());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (next, answers, spans, engine) = (&next, &answers, &spans, &engine);
            let mut t = tracer.sibling();
            scope.spawn(move || {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let req = requests.get(i);
                    let t0 = Instant::now();
                    let resp = t.op(i as u64, |t| t.layer("serve", || engine.submit(&req.request)));
                    local
                        .push((resp.served.as_str().to_string(), t0.elapsed().as_secs_f64() * 1e6));
                }
                answers.lock().expect("answer list").extend(local);
                spans.lock().expect("span list").absorb(t);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let stats = engine.stats();
    (
        answers.into_inner().expect("answer list"),
        elapsed,
        spans.into_inner().expect("span list"),
        stats,
    )
}

/// Compares every sampled answer with a fresh in-process engine's answer.
pub fn check_samples(requests: &Requests, answers: &[Answer]) -> Vec<String> {
    let engine = Engine::new(EngineConfig::default());
    let mut errors = Vec::new();
    for a in answers {
        let Some(text) = &a.sample else { continue };
        let direct = engine.submit(&requests.get(a.index).request).to_json();
        if let Err(e) = check_response(text, &direct) {
            errors.push(format!("request {}: {e}", a.index));
        }
    }
    errors
}

/// Median of the latencies of answers served as `served`, in µs.
fn p50_of<'a>(answers: impl Iterator<Item = (&'a str, f64)>, served: &str) -> f64 {
    let v: Vec<f64> = answers.filter(|(s, _)| *s == served).map(|(_, l)| l).collect();
    stats::median(&v)
}

/// Set-up: start the server and get the first request answered, on a
/// program outside the stream. Returns the running server.
fn start(bin: &Path, dir: &Path, seed: u64, tag: usize) -> Result<ServerChild, String> {
    let server = ServerChild::spawn(bin, dir, tag)?;
    let mut conn = std::net::TcpStream::connect(&server.addr)
        .map_err(|e| format!("connect {}: {e}", server.addr))?;
    conn.set_nodelay(true).map_err(|e| e.to_string())?;
    let probe = Descriptor { program: u32::MAX - tag as u32, scenario: 0, class: Class::First };
    let (env, _) = round_trip(&mut conn, &request(seed, probe).to_json())?;
    if env.outcome != "pipeline" {
        return Err(format!("set-up request answered `{}`", env.outcome));
    }
    Ok(server)
}

/// Counts the answers that failed in transport or with a non-`pipeline`
/// outcome, and the sampled answers that differ from a direct answer.
fn failures(requests: &Requests, answers: &[Answer]) -> Vec<String> {
    let mut errors: Vec<String> = answers
        .iter()
        .filter_map(|a| match &a.error {
            Some(e) => Some(e.clone()),
            None if a.outcome != "pipeline" => {
                Some(format!("request {}: answered `{}`", a.index, a.outcome))
            }
            None => None,
        })
        .collect();
    errors.extend(check_samples(requests, answers));
    errors
}

/// The `serve_mix` run. Untraced: set up (repeated), drive the server for
/// `seconds`, check. Traced: drive a fresh server untraced and another one
/// traced for a third of `seconds` each, then replay the traced window's
/// requests through an in-process engine.
pub fn run(
    bin: &Path,
    dir: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
) -> Result<(Report, Option<Tracer>), String> {
    let mut report = Report::default();
    if !trace {
        // the requests are split over `PARTS` server processes, one after
        // another, each answering the same stream prefix from a cold start
        let count = (seconds * REQUESTS_PER_SECOND / crate::PARTS as f64).ceil() as usize;
        let (mut times, mut windows, mut rss, mut elapsed) = (Vec::new(), Vec::new(), 0.0f64, 0.0);
        let mut kernels = Vec::new();
        for part in 0..crate::PARTS {
            // the kernel runs next to each window, while the server idles
            let before = calib::kernel_ms();
            // set-up: generate the stream, start the server, get the first
            // request answered
            let t0 = Instant::now();
            let requests = Requests::new(seed, stream(seed, STREAM_LEN));
            let server = start(bin, dir, seed, part)?;
            let setup_s = t0.elapsed().as_secs_f64();
            let (answers, window_s, _) =
                drive(&server.addr, &requests, threads, count, &Tracer::new(false))?;
            rss = rss.max(server.peak_rss_mb().ok_or("no peak RSS reading for the server")?);
            drop(server);
            let kernel = (before + calib::kernel_ms()) / 2.0;
            kernels.push(kernel);
            times.push(setup_s * calib::factor(kernel));
            elapsed += window_s;
            report.attempted += answers.len() as u64;
            report.fail(failures(&requests, &answers));
            windows.push((answers, calib::factor(kernel)));
        }
        let (ok, span_s) = best_quarter(&windows);
        crate::end_to_end(
            &mut report,
            &ok,
            ok.len() as f64,
            2.0 * ok.len() as f64,
            span_s,
            &times,
            Some(rss),
        )?;
        report.detail.push(("processes".into(), crate::PARTS.to_string()));
        report.detail.push(("elapsed_s".into(), elapsed.to_string()));
        report.detail.push(("kernel_ms".into(), crate::json_list(&kernels)));
        report.detail.push(("reference_kernel_ms".into(), calib::REFERENCE_KERNEL_MS.to_string()));
        let all: Vec<Answer> = windows.into_iter().flat_map(|(a, _)| a).collect();
        report.detail.push(("p50_us_by_served".into(), served_p50s(&all)));
        return Ok((report, None));
    }
    let descriptors = stream(seed, STREAM_LEN);
    let requests = Requests::new(seed, descriptors.clone());
    let window = (seconds * REQUESTS_PER_SECOND / 3.0).ceil() as usize;
    let plain = start(bin, dir, seed, 0)?;
    // each window builds its requests afresh, so both pay the same
    // client-side encoding cost
    let (untraced, untraced_s, _) =
        drive(&plain.addr, &requests, threads, window, &Tracer::new(false))?;
    let requests = Requests::new(seed, descriptors);
    drop(plain);
    let traced_server = start(bin, dir, seed, 1)?;
    let root = Tracer::new(true);
    let (answers, traced_s, mut spans) =
        drive(&traced_server.addr, &requests, threads, window, &root)?;
    drop(traced_server);
    let (replayed, replay_s, replay_spans, engine) =
        replay(&requests, answers.len(), threads, &root);
    spans.absorb(replay_spans);
    report.attempted = (untraced.len() + answers.len()) as u64;
    report.fail(failures(&requests, &untraced));
    report.fail(failures(&requests, &answers));

    let busy = spans.busy_times();
    let own = spans.self_times();
    let ms = |name: &str| busy.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let engine_hit = p50_of(replayed.iter().map(|(s, l)| (s.as_str(), *l)), "hit");
    let engine_cold = p50_of(replayed.iter().map(|(s, l)| (s.as_str(), *l)), "cold");
    let wire =
        |served: &str| p50_of(answers.iter().map(|a| (a.served.as_str(), a.latency_us)), served);
    let hits = replayed.iter().filter(|(s, _)| s == "hit").count();
    let covered: u64 = ["wire", "serve"].iter().map(|l| own.get(l).copied().unwrap_or(0)).sum();
    let thread_wall = threads as f64 * (traced_s + replay_s);
    let rate = |n: usize, s: f64| n as f64 / s;
    let values = vec![
        ("serve.busy_ms", ms("serve")),
        ("serve.hit_ratio", hits as f64 / replayed.len().max(1) as f64),
        ("serve.coalesced", engine.coalesced as f64),
        ("serve.cold_p50_us", engine_cold),
        ("serve.hit_p50_us", engine_hit),
        ("wire.busy_ms", ms("wire")),
        ("wire.hit_overhead_us", wire("hit") - engine_hit),
        ("wire.cold_overhead_us", wire("cold") - engine_cold),
        (
            "trace.overhead_pct",
            100.0 * (rate(untraced.len(), untraced_s) / rate(answers.len(), traced_s) - 1.0),
        ),
        ("trace.coverage", covered as f64 / 1e9 / thread_wall),
    ];
    crate::push_layers(&mut report, &values);
    report.detail.push(("p50_us_by_served".into(), served_p50s(&answers)));
    report.detail.push(("traced_requests".into(), answers.len().to_string()));
    report.detail.push(("untraced_requests".into(), untraced.len().to_string()));
    report.detail.push(("spans".into(), spans.spans().len().to_string()));
    Ok((report, Some(spans)))
}

/// Length of the slices the window is cut into for [`best_quarter`].
const SLICE_S: f64 = 0.5;

/// The least-contended quarter of the windows. Each window (without its
/// last, partial slice) is cut into [`SLICE_S`] slices by completion time;
/// with every window's timings scaled to the reference host by its
/// calibration factor (see `calib`), the quarter of all slices that
/// completed the most requests per scaled second is kept. Returns the
/// kept answers' scaled latencies (ms) and the scaled time they span (s).
/// On a shared host, co-tenants slow whole stretches of a run; these
/// slices measure the server, not its neighbours, and are far steadier
/// from run to run.
pub fn best_quarter(windows: &[(Vec<Answer>, f64)]) -> (Vec<f64>, f64) {
    // (answers, factor) per slice
    let mut by_slice: Vec<(Vec<&Answer>, f64)> = Vec::new();
    for (answers, factor) in windows {
        let end = answers.iter().map(|a| a.done_s).fold(0.0, f64::max);
        let slices = ((end / SLICE_S).floor() as usize).max(1);
        let first = by_slice.len();
        by_slice.resize(first + slices, (Vec::new(), *factor));
        for a in answers {
            let j = (a.done_s / SLICE_S) as usize;
            if j < slices {
                by_slice[first + j].0.push(a);
            }
        }
    }
    let slices = by_slice.len();
    by_slice.sort_by(|a, b| (b.0.len() as f64 / b.1).total_cmp(&(a.0.len() as f64 / a.1)));
    let keep = slices.div_ceil(4);
    let mut latencies_ms = Vec::new();
    let mut span_s = 0.0;
    for (answers, factor) in by_slice.into_iter().take(keep) {
        span_s += SLICE_S * factor;
        latencies_ms.extend(
            answers.iter().filter(|a| a.error.is_none()).map(|a| a.latency_us / 1e3 * factor),
        );
    }
    (latencies_ms, span_s)
}

/// Round-trip p50 per served class, as a JSON object (µs).
fn served_p50s(answers: &[Answer]) -> String {
    let classes = ["cold", "hit", "coalesced"];
    let parts: Vec<String> = classes
        .iter()
        .map(|c| {
            let n = answers.iter().filter(|a| a.served == *c).count();
            let p50 = p50_of(answers.iter().map(|a| (a.served.as_str(), a.latency_us)), c);
            format!("\"{c}\":{{\"count\":{n},\"p50_us\":{p50}}}")
        })
        .collect();
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_has_the_declared_mix() {
        let s = stream(3, 20_000);
        let share = |c: Class| s.iter().filter(|d| d.class == c).count() as f64 / s.len() as f64;
        assert!((share(Class::First) - f64::from(FIRST_PERCENT) / 100.0).abs() < 0.02);
        assert!((share(Class::Rescenario) - f64::from(RESCENARIO_PERCENT) / 100.0).abs() < 0.02);
        assert_eq!(stream(3, 100), s[..100].to_vec());
    }

    #[test]
    fn direct_answers_pass_and_corruptions_fail() {
        let engine = Engine::new(EngineConfig::default());
        let s = stream(1, 8);
        let good = engine.submit(&request(1, s[0])).to_json();
        check_response(&good, &good).unwrap();
        // another program's answer in place of the right one
        let other = Engine::new(EngineConfig::default())
            .submit(&request(1, Descriptor { program: s[0].program + 1, ..s[0] }))
            .to_json();
        assert!(check_response(&other, &good).is_err());
        // a flipped verdict inside the payload
        let flipped = good.replacen("\"holds\":true", "\"holds\":false", 1).replacen(
            "\"holds\":false",
            "\"holds\":true",
            usize::from(!good.contains("\"holds\":true")),
        );
        assert_ne!(flipped, good);
        assert!(check_response(&flipped, &good).is_err());
        // a budget breach is never a correct answer
        let breach = "{\"id\":0,\"served\":\"cold\",\"outcome\":\"budget_exceeded\",\"payload\":{\"reason\":\"x\"}}";
        assert!(check_response(breach, breach).is_err());
    }

    #[test]
    fn every_request_answers_within_the_default_budget() {
        let engine = Engine::new(EngineConfig::default());
        for (i, d) in stream(2, 64).into_iter().enumerate() {
            let r = engine.submit(&request(2, d));
            assert_eq!(r.outcome.tag(), "pipeline", "request {i}: {}", r.to_json());
        }
    }
}
