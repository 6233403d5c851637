//! Deployment: a three-stage GALS pipeline on independent clocks.
//!
//! The end goal of the paper: "deploy [the design] on an asynchronous
//! network preserving all properties of the system proven in the synchronous
//! framework". This example runs a source → filter → sink pipeline twice —
//! once in the deterministic GALS executor with jittered local clocks, once
//! as federates on real OS threads over bounded credit channels — and
//! checks that the flows stay flow-equivalent (Definition 4) to each other
//! under lossless backpressure.
//!
//! Run with: `cargo run --example gals_pipeline`

use std::collections::BTreeMap;

use polysig::gals::runtime::{
    run_federated, ClockModel, ComponentSpec, FederateSpec, FederatedOptions, GalsExecutor,
};
use polysig::gals::ChannelPolicy;
use polysig::lang::parse_program;
use polysig::sim::{PeriodicInputs, ScenarioGenerator};
use polysig::tagged::ValueType;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse_program(
        "process Source { input sample: int; output x: int; x := sample; } \
         process Filter { input x: int; output y: int; \
             y := (x + (pre 0 x)) when (x /= 0); } \
         process Sink { input y: int; output total: int; \
             total := (pre 0 total) + y; }",
    )?;

    let n = 40;
    let env = PeriodicInputs::new("sample", ValueType::Int, 1, 0).generate(n);

    println!("== deterministic executor, jittered local clocks, blocking channels ==");
    let mut ex = GalsExecutor::new(
        &program,
        vec![
            ComponentSpec::periodic("Source", 2)
                .with_environment(env.clone())
                .with_clock(ClockModel::Jittered { period: 2, jitter: 1, seed: 11 }),
            ComponentSpec::periodic("Filter", 3),
            ComponentSpec::periodic("Sink", 2).with_clock(ClockModel::Random { p: 0.5, seed: 12 }),
        ],
        ChannelPolicy::Blocking,
        &BTreeMap::new(),
    )?;
    let run = ex.run(120)?;
    let sent = run.flow("Source", &"x".into());
    let filtered = run.flow("Filter", &"y".into());
    let received = run.flow("Sink", &"y".into());
    println!(
        "source emitted {} values, filter produced {}, sink consumed {}",
        sent.len(),
        filtered.len(),
        received.len()
    );
    for (sig, st) in &run.channel_stats {
        println!(
            "  channel {sig}: pushes={} pops={} max-occupancy={} masked-producer-activations={}",
            st.pushes,
            st.pops,
            st.max_occupancy,
            run.masked.values().sum::<usize>(),
        );
    }
    // losslessness: the sink's view is a prefix of the filter's output flow
    assert_eq!(&filtered[..received.len()], received.as_slice());
    println!("flow check passed: sink's flow is a prefix of the filter's flow\n");

    println!("== the same pipeline as federates on OS threads (real asynchrony) ==");
    // the downstream stages react once per arriving value and retire when
    // their producer is done and drained
    let trun = run_federated(
        &program,
        vec![
            FederateSpec::new("Source", n).with_environment(env),
            FederateSpec::new("Filter", 8 * n).data_driven(),
            FederateSpec::new("Sink", 16 * n).data_driven(),
        ],
        &FederatedOptions::default().with_capacity("x", 4).with_capacity("y", 4),
    )?;
    let tsent = trun.flow("Source", &"x".into());
    let tfiltered = trun.flow("Filter", &"y".into());
    let treceived = trun.flow("Sink", &"y".into());
    println!(
        "federates: source {} values, filter {}, sink {}",
        tsent.len(),
        tfiltered.len(),
        treceived.len()
    );
    assert_eq!(&tfiltered[..treceived.len()], treceived.as_slice());
    // both deployments carry the same source flow (the deterministic run may
    // stop mid-stream at its horizon: prefix relation, Definition 4 on a
    // finite prefix)
    assert_eq!(&tsent[..sent.len()], sent.as_slice());
    println!("flow check passed: thread deployment is flow-equivalent on the source link");
    Ok(())
}
