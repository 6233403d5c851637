//! `federated_stream`: long soak runs of `run_federated`.
//!
//! Designs are `k`-stage integer pipelines (`k` from 2 up to the detected
//! parallelism, at most 4) and a 2-input join whose two channels come from
//! one producer, so no run has more federates than CPUs; the seed draws
//! several variants (stage offsets) of each topology. Each design
//! runs at capacity 1 (every push hands off) and at the capacities
//! `FederatedOptions::from_report` takes from an estimation report (slack).
//! Options are otherwise the defaults in soak mode: no occupancy sampling
//! and no watchdog, so the RTI never sleeps on a cadence and the run is
//! timed from outside the call.
//!
//! Known answers:
//!
//! * set-up runs every design once for a short recorded stream, whose
//!   per-federate flows must equal the synchronous `Simulator` flows;
//! * every soak run must deliver every value (`pushes` equal to the head's
//!   activations on every channel, every channel drained), run the head's
//!   full budget, and join every thread it spawned.

use polysig::gals::runtime::{run_federated, FederateSpec, FederatedOptions, FederatedRun};
use polysig::gals::{desynchronize, estimate_buffer_sizes, DesyncOptions, EstimationOptions};
use polysig::lang::{check_program, Program, Role};
use polysig::sim::Simulator;
use polysig::sim::{
    generator::master_clock, BurstyInputs, PeriodicInputs, Scenario, ScenarioGenerator,
};
use polysig::tagged::ValueType;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{OpOutcome, Sweep};
use crate::trace::Tracer;

/// Activations of the head federate in one soak run.
pub const SOAK_ACTIVATIONS: usize = 6_000;
/// Seeded variants (stage offsets) of every topology.
const VARIANTS: usize = 6;
/// Writer burst of the environment the slack capacities are estimated
/// under (fixed, so the capacities and hence the work per pass do not
/// depend on the seed).
const SLACK_BURST: usize = 4;
/// Activations in the recorded set-up run.
const RECORDED_ACTIVATIONS: usize = 256;

pub struct Design {
    pub label: String,
    pub program: Program,
    /// Soak-mode options: capacity 1 everywhere, or estimated capacities.
    pub options: FederatedOptions,
    env: Scenario,
}

/// A `stages`-stage pipeline `S0 → S1 → …`; stage `j` adds `offsets[j]`.
pub fn pipeline_source(offsets: &[i64]) -> String {
    let mut src =
        format!("process S0 {{ input a: int; output s0: int; s0 := a + {}; }}\n", offsets[0]);
    for (j, off) in offsets.iter().enumerate().skip(1) {
        src.push_str(&format!(
            "process S{j} {{ input s{p}: int; output s{j}: int; s{j} := s{p} + {off}; }}\n",
            p = j - 1
        ));
    }
    src
}

/// The join: `P` emits `x` and `z` from one input, `J` adds them.
pub fn join_source(offset: i64) -> String {
    format!(
        "process P {{ input a: int; output x: int, z: int; x := a + {offset}; z := a * 2; }}\n\
         process J {{ input x: int, z: int; output y: int; y := x + z; x ^= z; }}\n"
    )
}

/// One federate per component: the head replays `env` activation for
/// activation, the others react once per arriving value (data-driven).
pub fn specs(program: &Program, env: &Scenario, activations: usize) -> Vec<FederateSpec> {
    program
        .components
        .iter()
        .enumerate()
        .map(|(j, c)| {
            if j == 0 {
                FederateSpec::new(c.name.clone(), activations).with_environment(env.clone())
            } else {
                FederateSpec::new(c.name.clone(), 2 * activations + 8).data_driven()
            }
        })
        .collect()
}

/// Slack capacities: estimate under a bursty writer with every channel
/// read every second instant.
fn slack_options(program: &Program, burst: usize) -> Result<FederatedOptions, String> {
    let steps = 8 * burst;
    let probe = desynchronize(program, &DesyncOptions::with_size(1)).map_err(|e| e.to_string())?;
    let mut env = BurstyInputs::new("a", ValueType::Int, burst, 4 * burst)
        .generate(steps)
        .zip_union(&master_clock("tick", steps));
    for ch in &probe.channels {
        let period = 2;
        env = env.zip_union(
            &PeriodicInputs::new(ch.rd_signal.clone(), ValueType::Bool, period, 0).generate(steps),
        );
    }
    let report = estimate_buffer_sizes(program, &env, &EstimationOptions::default())
        .map_err(|e| e.to_string())?;
    if !report.converged {
        return Err("slack estimation did not converge".into());
    }
    Ok(FederatedOptions::from_report(&report).soak())
}

/// Compares a recorded federated run with the synchronous simulation.
pub fn check_flows(
    program: &Program,
    run: &FederatedRun,
    reference: &polysig::sim::Run,
) -> Result<(), String> {
    for c in &program.components {
        for d in c.decls.iter().filter(|d| d.role == Role::Output) {
            let got = run.flow(&c.name, &d.name);
            let want = reference.flow(&d.name);
            if got != want {
                return Err(format!(
                    "{}.{}: federated flow ({} values) differs from the synchronous flow ({} values)",
                    c.name,
                    d.name,
                    got.len(),
                    want.len()
                ));
            }
        }
    }
    Ok(())
}

/// Checks a soak run's delivery and teardown accounting.
pub fn check_soak(program: &Program, run: &FederatedRun, activations: usize) -> Result<(), String> {
    if run.teardown.spawned != run.teardown.joined {
        return Err(format!(
            "{} thread(s) spawned, {} joined",
            run.teardown.spawned, run.teardown.joined
        ));
    }
    if run.teardown.spawned != program.components.len() {
        return Err(format!(
            "{} federate thread(s) for {} components",
            run.teardown.spawned,
            program.components.len()
        ));
    }
    let head = &program.components[0].name;
    let reactions = run.federates.get(head).map_or(0, |s| s.reactions);
    if reactions != activations {
        return Err(format!("head ran {reactions} of {activations} activations"));
    }
    for (name, c) in &run.channels {
        if c.pushes != activations as u64 || !c.drained() {
            return Err(format!(
                "channel {name}: {} pushed / {} popped of {activations}",
                c.pushes, c.pops
            ));
        }
    }
    Ok(())
}

pub struct FederatedStream {
    designs: Vec<Design>,
}

impl FederatedStream {
    /// Builds the designs, sizes the slack variants, and checks a short
    /// recorded run of each against the synchronous simulation.
    pub fn setup(seed: u64, nproc: usize) -> Result<FederatedStream, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6665_6465_7261);
        let max_stages = nproc.clamp(2, 4);
        let mut sources = Vec::new();
        for v in 0..VARIANTS {
            for stages in 2..=max_stages {
                let offsets: Vec<i64> = (0..stages).map(|_| rng.gen_range(-5..=5i64)).collect();
                sources.push((format!("pipe{stages}.{v}"), pipeline_source(&offsets)));
            }
            sources.push((format!("join.{v}"), join_source(rng.gen_range(-5..=5i64))));
        }
        let soak_env = PeriodicInputs::new("a", ValueType::Int, 1, 0).generate(SOAK_ACTIVATIONS);

        let short_env =
            PeriodicInputs::new("a", ValueType::Int, 1, 0).generate(RECORDED_ACTIVATIONS);
        let mut designs = Vec::new();
        for (label, src) in sources {
            let program = check_program(&src).map_err(|e| e.to_string())?;
            let reference = Simulator::for_program(&program)
                .and_then(|mut s| s.run(&short_env))
                .map_err(|e| format!("{label}: synchronous reference: {e}"))?;
            let recorded = run_federated(
                &program,
                specs(&program, &short_env, RECORDED_ACTIVATIONS),
                &FederatedOptions::default(),
            )
            .map_err(|e| format!("{label}: recorded run: {e}"))?;
            check_flows(&program, &recorded, &reference).map_err(|e| format!("{label}: {e}"))?;
            let slack =
                slack_options(&program, SLACK_BURST).map_err(|e| format!("{label}: {e}"))?;
            for (capacity, options) in
                [("cap1", FederatedOptions::default().soak()), ("slack", slack.clone())]
            {
                designs.push(Design {
                    label: format!("{label} {capacity}"),
                    program: program.clone(),
                    options,
                    env: soak_env.clone(),
                });
            }
        }
        Ok(FederatedStream { designs })
    }

    #[cfg(test)]
    pub fn designs(&self) -> &[Design] {
        &self.designs
    }
}

impl Sweep for FederatedStream {
    fn len(&self) -> usize {
        self.designs.len()
    }

    fn run_op(&mut self, i: usize, t: &mut Tracer) -> OpOutcome {
        let d = &self.designs[i];
        let federates = specs(&d.program, &d.env, SOAK_ACTIVATIONS);
        let run = t.layer("runtime", || run_federated(&d.program, federates, &d.options));
        let run = match run {
            Ok(r) => r,
            Err(e) => return OpOutcome::failed(format!("{}: {e}", d.label)),
        };
        if let Err(e) = check_soak(&d.program, &run, SOAK_ACTIVATIONS) {
            return OpOutcome::failed(format!("{}: {e}", d.label));
        }
        let reactions = run.total_reactions() as u64;
        t.count("runtime.reactions", reactions as f64);
        for c in run.channels.values() {
            t.count("runtime.pushes", c.pushes as f64);
            t.count("runtime.stall_events", c.stall_events as f64);
            t.count("runtime.stalled_ms", c.stalled.as_secs_f64() * 1e3);
            t.max("runtime.max_occupancy", c.max_occupancy as f64);
        }
        OpOutcome::ok(reactions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polysig::tagged::SigName;

    #[test]
    fn designs_set_up_and_soak_cleanly() {
        let mut s = FederatedStream::setup(1, 2).unwrap();
        let mut t = Tracer::new(false);
        assert_eq!(s.len(), 4 * VARIANTS);
        assert!(s.designs().iter().any(|d| d.options.capacities.values().any(|&n| n > 1)));
        for i in 0..s.len() {
            let out = s.run_op(i, &mut t);
            assert!(out.error.is_none(), "{:?}", out.error);
        }
    }

    #[test]
    fn corrupted_runs_are_rejected() {
        let program = check_program(&pipeline_source(&[1, 2])).unwrap();
        let env = PeriodicInputs::new("a", ValueType::Int, 1, 0).generate(64);
        let run = run_federated(&program, specs(&program, &env, 64), &FederatedOptions::default())
            .unwrap();
        let reference = Simulator::for_program(&program).unwrap().run(&env).unwrap();
        check_flows(&program, &run, &reference).unwrap();
        check_soak(&program, &run, 64).unwrap();
        // one value changed in a recorded flow
        let mut bad = run.clone();
        let flow = bad.flows.get_mut("S1").unwrap().get_mut(&SigName::from("s1")).unwrap();
        flow[3] = polysig::tagged::Value::Int(-999);
        assert!(check_flows(&program, &bad, &reference).is_err());
        // a lost value
        let mut lost = run.clone();
        lost.channels.values_mut().next().unwrap().pops -= 1;
        assert!(check_soak(&program, &lost, 64).is_err());
        // a leaked thread
        let mut leaked = run.clone();
        leaked.teardown.joined -= 1;
        assert!(check_soak(&program, &leaked, 64).is_err());
        // a short head
        assert!(check_soak(&program, &run, 65).is_err());
    }
}
