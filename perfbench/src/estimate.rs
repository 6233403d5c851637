//! `estimate_sweep`: the paper's Section-5 design loop on a seeded corpus.
//!
//! An op sizes one design: `lang` (`check_program`) → `analyze`
//! (`analyze_with_scenario`) → `estimate` (`Estimator`) → `desync`
//! (`desynchronize` at the estimated depths, instrumented) → `sim`
//! (`Simulator::for_program` + `run` under the same environment).
//!
//! The corpus mixes `polysig-gen` `Shape::Pipeline` draws (2–4 stages)
//! with hand-written pipes. Every design's head channel sees a bursty writer
//! and a periodic reader, with later channels read at every instant, so the
//! closed-form `bursty_bound` is known for the head channel.
//!
//! Known answers checked on every op:
//!
//! * the rate prover and the estimator agree: a channel the prover calls
//!   `Exact { depth }` is estimated at exactly that depth, one it bounds
//!   by `UpperBound { depth }` at no more;
//! * re-simulating the sized design raises exactly as many alarms as the
//!   estimator's last round counted — none for a converged design;
//! * the head channel's depth is at least the ideal-queue `bursty_bound`,
//!   equal to it when the reader reads at every instant, and every later
//!   channel (read at every instant) needs one place.
//!
//! Each sized design is then deployed with `run_federated` (one federate
//! per component, the estimated depths as capacities) and its flows must
//! equal the synchronous simulation's. The deployment is a check and a
//! traced `runtime` call, not part of the op's latency.
//!
//! Once per design, after the measured window, the estimate is compared
//! with the plain desynchronize-simulate-grow reference loop
//! (`incremental: false`), which must produce the identical report.

use polysig::analyze::{analyze_with_scenario, ChannelBound, ProveOptions, StaticBounds};
use polysig::gals::analytic::{bursty_bound, PeriodicRate};
use polysig::gals::runtime::{run_federated, FederatedOptions};
use polysig::gals::{desynchronize, DesyncOptions, EstimationOptions, EstimationReport, Estimator};
use polysig::lang::{check_program, pretty_program, Program};
use polysig::sim::Simulator;
use polysig::sim::{
    generator::master_clock, BurstyInputs, PeriodicInputs, Scenario, ScenarioGenerator,
};
use polysig::tagged::{SigName, Value, ValueType};
use std::time::Instant;

use polysig_gen::{generate_case, GenConfig, Shape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::federated;
use crate::measure::{OpOutcome, Sweep};
use crate::trace::Tracer;
use crate::verify::shuffle;

/// Instants in every design's environment.
const STEPS: usize = 96;

/// The closed-form expectation for a design's environment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    pub read_period: usize,
    /// The channel the bursty writer feeds.
    pub channel: SigName,
    /// Channels read at every instant.
    pub downstream: Vec<SigName>,
    /// The ideal-queue bound on `channel`.
    pub bound: usize,
}

#[derive(Debug, Clone)]
pub struct Design {
    pub label: String,
    pub source: String,
    /// The desynchronized design's environment: writer, master clock and
    /// read requests.
    pub env: Scenario,
    /// The writer alone: the original program's environment.
    pub writer: Scenario,
    /// The synchronous simulation of the original program under `writer`.
    pub reference: polysig::sim::Run,
    pub expect: Expectation,
}

/// A design for a pipeline whose head stage reads `input` and writes the
/// channel `channels[0]`: the head is written in bursts of `burst` every
/// `burst_period` instants, `channels[0]` is read every `read_period`
/// instants and every later channel at every instant. Fails when the
/// synchronous reference run fails (e.g. arithmetic overflow).
pub fn design(
    label: String,
    source: String,
    input: &str,
    channels: &[SigName],
    (burst, burst_period, read_period): (usize, usize, usize),
) -> Result<Design, String> {
    let writer = BurstyInputs::new(input, ValueType::Int, burst, burst_period).generate(STEPS);
    let program = check_program(&source).map_err(|e| e.to_string())?;
    let reference = Simulator::for_program(&program)
        .and_then(|mut s| s.run(&writer))
        .map_err(|e| e.to_string())?;
    let mut env = writer.clone().zip_union(&master_clock("tick", STEPS));
    for (j, ch) in channels.iter().enumerate() {
        let period = if j == 0 { read_period } else { 1 };
        env = env.zip_union(
            &PeriodicInputs::new(format!("{ch}_rd"), ValueType::Bool, period, 0).generate(STEPS),
        );
    }
    let bound =
        bursty_bound(burst, burst_period, PeriodicRate { period: read_period, phase: 0 }, STEPS);
    Ok(Design {
        label: format!("{label} b{burst}/{burst_period} r{read_period}"),
        source,
        env,
        writer,
        reference,
        expect: Expectation {
            read_period,
            channel: channels[0].clone(),
            downstream: channels[1..].to_vec(),
            bound,
        },
    })
}

/// A hand-written pipe: `P` writes `x`, `Q` forwards it to `R` over `z`
/// (when `stages == 3`).
pub fn pipe_design(
    burst: usize,
    burst_period: usize,
    read_period: usize,
    stages: usize,
    offset: i64,
) -> Design {
    let mut source = format!("process P {{ input a: int; output x: int; x := a + {offset}; }}\n");
    let mut channels = vec![SigName::from("x")];
    if stages == 3 {
        source.push_str("process Q { input x: int; output z: int; z := x * 2; }\n");
        source.push_str("process R { input z: int; output y: int; y := z + 1; }\n");
        channels.push(SigName::from("z"));
    } else {
        source.push_str("process Q { input x: int; output y: int; y := x * 2; }\n");
    }
    design(format!("pipe s{stages}"), source, "a", &channels, (burst, burst_period, read_period))
        .expect("hand-written pipes simulate")
}

/// Environment slots every stage count gets: `(burst, read period)`. A
/// reader at every instant needs one place (one round); a reader every
/// second instant makes the loop grow the head channel over several rounds.
const SLOTS: [(usize, usize); 5] = [(4, 1), (3, 2), (5, 2), (8, 2), (12, 2)];

/// Generated draws per (stage count, slot).
const GEN_PER_SLOT: usize = 6;

/// The seeded corpus: for each stage count 2–4 and each slot,
/// [`GEN_PER_SLOT`] `polysig-gen` `Shape::Pipeline` draws and one
/// hand-written pipe. The
/// slots fix how much growing the loop has to do, so every seed yields the
/// same mix; the seed draws the generated programs, the burst periods and
/// the pipes' offsets.
pub fn corpus(seed: u64) -> Vec<Design> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6573_7469_6d61);
    let config = GenConfig { max_stages: 4, ..GenConfig::default() };
    let mut out = Vec::new();
    for stages in 2..=4usize {
        for (burst, read_period) in SLOTS {
            let burst_period = read_period * burst + rng.gen_range(burst..=2 * burst);
            let params = (burst, burst_period, read_period);
            // generated stage `j` writes `s{j}`; the last stage's output is
            // not a channel
            let channels: Vec<SigName> =
                (0..stages - 1).map(|j| SigName::from(format!("s{j}"))).collect();
            for _ in 0..GEN_PER_SLOT {
                // draws the desynchronization rejects (a component with
                // independent master clocks) or whose synchronous reference
                // fails are skipped
                let design = loop {
                    let case = generate_case(&mut rng, &config, Shape::Pipeline);
                    if case.program.components.len() != stages
                        || desynchronize(&case.program, &DesyncOptions::with_size(1)).is_err()
                    {
                        continue;
                    }
                    let source = pretty_program(&case.program);
                    if let Ok(d) = design(format!("gen s{stages}"), source, "a0", &channels, params)
                    {
                        break d;
                    }
                };
                out.push(design);
            }
            let pipe_stages = 2 + stages % 2;
            out.push(pipe_design(
                burst,
                burst_period,
                read_period,
                pipe_stages,
                rng.gen_range(-3..=3i64),
            ));
        }
    }
    shuffle(&mut rng, &mut out);
    out
}

/// Checks one op's answers: the estimate against the prover's verdicts and
/// the closed form, and the re-simulation against the estimator's last round.
pub fn check_design(
    design: &Design,
    bounds: &StaticBounds,
    report: &EstimationReport,
    resim_alarms: usize,
) -> Result<(), String> {
    let label = &design.label;
    for (signal, bound) in &bounds.bounds {
        let est = report.size_of(signal);
        match (bound, est) {
            (ChannelBound::Exact { depth }, Some(e)) if report.converged && e != *depth => {
                return Err(format!("{label}: `{signal}` estimated {e}, proven exactly {depth}"));
            }
            (ChannelBound::UpperBound { depth }, Some(e)) if report.converged && e > *depth => {
                return Err(format!("{label}: `{signal}` estimated {e}, proven at most {depth}"));
            }
            (_, None) => return Err(format!("{label}: no estimate for channel `{signal}`")),
            _ => {}
        }
    }
    let last_round_alarms: usize = report.history.last().map_or(0, |it| it.alarms.values().sum());
    if resim_alarms != last_round_alarms {
        return Err(format!(
            "{label}: re-simulation raised {resim_alarms} alarm(s), the estimator's last round \
             {last_round_alarms}"
        ));
    }
    let p = &design.expect;
    if !report.converged {
        return Err(format!("{label}: a stable environment did not converge"));
    }
    let head = report.size_of(&p.channel).unwrap_or(0);
    if head < p.bound || (p.read_period == 1 && head != p.bound) {
        return Err(format!("{label}: `{}` estimated {head}, closed form {}", p.channel, p.bound));
    }
    for ch in &p.downstream {
        match report.size_of(ch) {
            Some(1) => {}
            other => {
                return Err(format!(
                    "{label}: `{ch}` (read every instant) estimated {other:?}, expected 1"
                ))
            }
        }
    }
    Ok(())
}

pub struct EstimateSweep {
    designs: Vec<Design>,
    /// The last report per design, for the reference-loop check.
    reports: Vec<Option<EstimationReport>>,
}

impl EstimateSweep {
    pub fn setup(seed: u64) -> EstimateSweep {
        let designs = corpus(seed);
        let reports = vec![None; designs.len()];
        EstimateSweep { designs, reports }
    }

    /// Compares every recorded estimate with the reference loop.
    fn check_reference(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for (d, report) in self.designs.iter().zip(&self.reports) {
            let Some(report) = report else { continue };
            let reference = check_program(&d.source).map_err(|e| e.to_string()).and_then(|p| {
                let options =
                    EstimationOptions { incremental: false, ..EstimationOptions::default() };
                polysig::gals::estimate_buffer_sizes(&p, &d.env, &options)
                    .map_err(|e| e.to_string())
            });
            match reference {
                Ok(r) if &r == report => {}
                Ok(_) => errors.push(format!("{}: differs from the reference loop", d.label)),
                Err(e) => errors.push(format!("{}: reference loop failed: {e}", d.label)),
            }
        }
        errors
    }

    /// Sizes design `i`, then deploys it as a check. Returns the events
    /// and the latency of the sizing alone.
    fn size(&mut self, i: usize, t: &mut Tracer) -> Result<(u64, f64), String> {
        let start = Instant::now();
        let d = &self.designs[i];
        let program: Program =
            t.layer("lang", || check_program(&d.source)).map_err(|e| e.to_string())?;
        t.count("lang.calls", 1.0);
        t.count("lang.bytes", d.source.len() as f64);
        let analysis = t
            .layer("analyze", || analyze_with_scenario(&program, &d.env, &ProveOptions::default()));
        let bounds = analysis.bounds.expect("a scenario was supplied");
        let proven = bounds.bounds.values().filter(|b| matches!(b, ChannelBound::Exact { .. }));
        t.count("analyze.proven_channels", proven.count() as f64);
        let report = t
            .layer("estimate", || {
                Estimator::new(&program)
                    .and_then(|mut e| e.estimate(&d.env, &EstimationOptions::default()))
            })
            .map_err(|e| e.to_string())?;
        t.count("estimate.calls", 1.0);
        t.count("estimate.rounds", report.iterations() as f64);
        t.count("estimate.converged", f64::from(u8::from(report.converged)));
        t.count("estimate.depth_sum", report.final_sizes.values().sum::<usize>() as f64);
        let gals = t
            .layer("desync", || {
                desynchronize(
                    &program,
                    &DesyncOptions {
                        sizes: report.final_sizes.clone(),
                        ..DesyncOptions::with_size(1)
                    }
                    .instrumented(),
                )
            })
            .map_err(|e| e.to_string())?;
        t.count("desync.channels", gals.channels.len() as f64);
        let equations: usize = gals.program.components.iter().map(|c| c.equations().count()).sum();
        t.count("desync.equations_out", equations as f64);
        let mut sim = t
            .layer("sim.elab", || Simulator::for_program(&gals.program))
            .map_err(|e| e.to_string())?;
        let run = t.layer("sim", || sim.run(&d.env)).map_err(|e| e.to_string())?;
        t.count("sim.reactions", d.env.len() as f64);
        let alarms: usize = gals
            .channels
            .iter()
            .map(|c| run.flow(&c.alarm_signal).iter().filter(|v| **v == Value::TRUE).count())
            .sum();
        check_design(d, &bounds, &report, alarms)?;
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        // deploy: one federate per component, the estimated depths as
        // channel capacities; the flows must equal the synchronous ones.
        // Thread hand-off times on a shared host swing by tens of percent
        // between processes, so the deployment is a check (and a traced
        // layer), not part of the op's latency.
        let federates = federated::specs(&program, &d.writer, d.writer.len());
        let options = FederatedOptions::from_report(&report);
        let deployed = t
            .layer("runtime", || run_federated(&program, federates, &options))
            .map_err(|e| format!("{}: deployment: {e}", d.label))?;
        t.count("runtime.reactions", deployed.total_reactions() as f64);
        for c in deployed.channels.values() {
            t.count("runtime.pushes", c.pushes as f64);
            t.count("runtime.stall_events", c.stall_events as f64);
            t.count("runtime.stalled_ms", c.stalled.as_secs_f64() * 1e3);
            t.max("runtime.max_occupancy", c.max_occupancy as f64);
        }
        if deployed.teardown.spawned != deployed.teardown.joined {
            return Err(format!("{}: deployment leaked a federate thread", d.label));
        }
        federated::check_flows(&program, &deployed, &d.reference)
            .map_err(|e| format!("{}: deployment: {e}", d.label))?;
        let events = (report.iterations() + 1) as u64 * d.env.len() as u64;
        self.reports[i] = Some(report);
        Ok((events, latency_ms))
    }
}

impl Sweep for EstimateSweep {
    fn len(&self) -> usize {
        self.designs.len()
    }

    fn post_check(&self) -> Vec<String> {
        self.check_reference()
    }

    fn run_op(&mut self, i: usize, t: &mut Tracer) -> OpOutcome {
        match self.size(i, t) {
            Ok((events, latency_ms)) => {
                OpOutcome { latency_ms: Some(latency_ms), ..OpOutcome::ok(events) }
            }
            Err(e) => OpOutcome::failed(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answers(d: &Design) -> (StaticBounds, EstimationReport, usize) {
        let p = check_program(&d.source).unwrap();
        let bounds = analyze_with_scenario(&p, &d.env, &ProveOptions::default()).bounds.unwrap();
        let report =
            Estimator::new(&p).unwrap().estimate(&d.env, &EstimationOptions::default()).unwrap();
        let g = desynchronize(
            &p,
            &DesyncOptions { sizes: report.final_sizes.clone(), ..DesyncOptions::with_size(1) }
                .instrumented(),
        )
        .unwrap();
        let run = Simulator::for_program(&g.program).unwrap().run(&d.env).unwrap();
        let alarms = g
            .channels
            .iter()
            .map(|c| run.flow(&c.alarm_signal).iter().filter(|v| **v == Value::TRUE).count())
            .sum();
        (bounds, report, alarms)
    }

    #[test]
    fn corpus_designs_pass_their_checks() {
        for d in corpus(3) {
            let (bounds, report, alarms) = answers(&d);
            check_design(&d, &bounds, &report, alarms).unwrap();
        }
    }

    #[test]
    fn corrupted_estimates_are_rejected() {
        let d = pipe_design(4, 12, 2, 3, 1);
        let (bounds, report, alarms) = answers(&d);
        check_design(&d, &bounds, &report, alarms).unwrap();
        // one place short on the bursty channel
        let mut short = report.clone();
        *short.final_sizes.get_mut(&SigName::from("x")).unwrap() = bounds_floor(&d) - 1;
        assert!(check_design(&d, &bounds, &short, alarms).is_err());
        // a downstream channel oversized
        let mut wide = report.clone();
        *wide.final_sizes.get_mut(&SigName::from("z")).unwrap() = 2;
        assert!(check_design(&d, &bounds, &wide, alarms).is_err());
        // a re-simulation that disagrees with the last round
        assert!(check_design(&d, &bounds, &report, alarms + 1).is_err());
        // a lost convergence
        let mut lost = report.clone();
        lost.converged = false;
        assert!(check_design(&d, &bounds, &lost, alarms).is_err());
    }

    #[test]
    fn prover_disagreement_is_rejected() {
        // a generated design the prover sizes exactly
        let d = corpus(5)
            .into_iter()
            .find(|d| {
                let (bounds, report, _) = answers(d);
                d.label.starts_with("gen")
                    && report.converged
                    && bounds
                        .bounds
                        .values()
                        .any(|b| matches!(b, ChannelBound::Exact { depth } if *depth > 1))
            })
            .expect("some generated design has a proven depth above one");
        let (bounds, mut report, alarms) = answers(&d);
        let (signal, depth) = bounds
            .bounds
            .iter()
            .find_map(|(s, b)| match b {
                ChannelBound::Exact { depth } if *depth > 1 => Some((s.clone(), *depth)),
                _ => None,
            })
            .unwrap();
        report.final_sizes.insert(signal, depth + 1);
        assert!(check_design(&d, &bounds, &report, alarms).is_err());
    }

    #[test]
    fn reference_loop_rejects_a_corrupted_report() {
        let mut sweep = EstimateSweep::setup(7);
        let out = sweep.run_op(0, &mut Tracer::new(false));
        assert!(out.error.is_none(), "{:?}", out.error);
        assert!(sweep.check_reference().is_empty());
        let report = sweep.reports[0].as_mut().unwrap();
        report.history.push(report.history[0].clone());
        assert_eq!(sweep.check_reference().len(), 1);
    }

    fn bounds_floor(d: &Design) -> usize {
        d.expect.bound
    }
}
