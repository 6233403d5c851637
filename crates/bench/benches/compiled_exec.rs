//! E10 — compiled execution: static schedules vs the micro-step interpreter.
//!
//! `compile/lower_fig2` measures the one-time lowering cost of the Figure-2
//! buffer; `compile/exec_fig2*` drives the raw per-reaction dispatch
//! (`react_dense`) of the fig2 components under both execution plans; and
//! `compile/full_loop_*` re-runs the Section-5.2 estimation loop with
//! compilation forced on and off, giving compiled-vs-interpreted comparison
//! rows next to the `fig2/*` and `estimation/full_loop/*` sections.
//! `compile/full_loop_gen` runs the same loop on a generated four-stage
//! pipeline with a stage that reads its channel only under `pre`, so its
//! network compiles only because the lowering defers equations whose clock
//! witness is defined later in the schedule order.

use criterion::{criterion_group, criterion_main, Criterion};

use polysig_bench::banner;
use polysig_gals::estimate::{estimate_buffer_sizes, EstimationOptions};
use polysig_gals::onefifo::{memory_cell_component, one_place_buffer_component};
use polysig_gals::{desynchronize, DesyncOptions};
use polysig_lang::ast::Program;
use polysig_lang::parse_program;
use polysig_sim::generator::master_clock;
use polysig_sim::{BurstyInputs, DenseEnv, PeriodicInputs, Reactor, Scenario, ScenarioGenerator};
use polysig_tagged::{Value, ValueType};

const STEPS: usize = 256;

/// The same workload as `fig2/*_256_reactions`, pre-rendered to dense
/// slot-indexed environments so the rows below time the reactor alone —
/// no `Behavior` recording, no name lookups.
fn dense_workload(r: &Reactor, steps: usize) -> Vec<DenseEnv> {
    let tick = r.sig_id("tick").unwrap();
    let msgin = r.sig_id("msgin").unwrap();
    let rd = r.sig_id("rd").unwrap();
    (0..steps)
        .map(|i| {
            let mut e = DenseEnv::new(r.signal_count());
            e.set(tick, Value::TRUE);
            if i % 2 == 0 {
                e.set(msgin, Value::Int(i as i64));
            } else {
                e.set(rd, Value::TRUE);
            }
            e
        })
        .collect()
}

fn drive(r: &mut Reactor, envs: &[DenseEnv]) -> usize {
    r.reset();
    let mut present = 0usize;
    for env in envs {
        present += r.react_dense(env).unwrap().present_count();
    }
    present
}

/// The `estimation/full_loop/*` workload (see `buffer_estimation.rs`).
fn bursty_env(steps: usize, burst: usize) -> Scenario {
    BurstyInputs::new("a", ValueType::Int, burst, 16)
        .generate(steps)
        .zip_union(&PeriodicInputs::new("x_rd", ValueType::Bool, 2, 0).generate(steps))
        .zip_union(&master_clock("tick", steps))
}

/// A `polysig-gen` four-stage pipeline draw: `P2` reads its channel only
/// under `pre`.
const GEN_S4: &str = "
process P0 {
    input a0: int;
    output s0: int;
    s0 := (((pre -3 a0) when (a0 <= -1)) default (a0 + a0));
}
process P1 {
    input s0: int;
    local p1_l0: int;
    output s1: int;
    p1_l0 := (s0 + (pre -2 p1_l0));
    s1 := ((s0 - ((p1_l0 when (s0 >= 0)) default p1_l0)) + (pre -1 s1));
}
process P2 {
    input s1: int;
    output s2: int;
    s2 := (pre -3 (s1 * 1));
}
process P3 {
    input s2: int;
    local p3_l0: int;
    output s3: int;
    p3_l0 := (s2 + (pre 1 p3_l0));
    s3 := ((pre -2 s2) * -1);
}";

/// The estimation environment of an `estimate_sweep` design: bursts of 8
/// writes every 28 instants, the head channel read every second instant
/// and the later channels at every instant.
fn gen_env(steps: usize) -> Scenario {
    let mut env = BurstyInputs::new("a0", ValueType::Int, 8, 28)
        .generate(steps)
        .zip_union(&master_clock("tick", steps));
    for (ch, period) in [("s0", 2), ("s1", 1), ("s2", 1)] {
        env = env.zip_union(
            &PeriodicInputs::new(format!("{ch}_rd"), ValueType::Bool, period, 0).generate(steps),
        );
    }
    env
}

fn bench(c: &mut Criterion) {
    let buffer = Program::single(one_place_buffer_component("B"));
    let cell = Program::single(memory_cell_component("M"));

    // the rows below are meaningless if the plans are not what their
    // names claim, so pin that down before measuring
    let compiled_buffer = Reactor::for_program_compiled(&buffer).unwrap();
    let compiled_cell = Reactor::for_program_compiled(&cell).unwrap();
    assert!(compiled_buffer.is_compiled(), "fig2 buffer must lower to a static schedule");
    assert!(compiled_cell.is_compiled(), "fig2 memory cell must lower to a static schedule");
    assert!(!Reactor::for_program_interpreted(&buffer).unwrap().is_compiled());
    banner(
        "E10 / compiled execution",
        &format!(
            "static schedules: buffer {} ops, memory cell {} ops",
            compiled_buffer.compiled_op_count().unwrap(),
            compiled_cell.compiled_op_count().unwrap(),
        ),
    );

    let mut group = c.benchmark_group("compile");
    group.bench_function("lower_fig2", |b| {
        b.iter(|| {
            let r = Reactor::for_program_compiled(&buffer).unwrap();
            assert!(r.is_compiled());
            std::hint::black_box(r.compiled_op_count())
        })
    });

    {
        let mut compiled = Reactor::for_program_compiled(&buffer).unwrap();
        let envs = dense_workload(&compiled, STEPS);
        group.bench_function("exec_fig2", |b| {
            b.iter(|| std::hint::black_box(drive(&mut compiled, &envs)))
        });
        let mut interp = Reactor::for_program_interpreted(&buffer).unwrap();
        let envs = dense_workload(&interp, STEPS);
        group.bench_function("exec_fig2_interpreted", |b| {
            b.iter(|| std::hint::black_box(drive(&mut interp, &envs)))
        });
    }
    {
        let mut compiled = Reactor::for_program_compiled(&cell).unwrap();
        let envs = dense_workload(&compiled, STEPS);
        group.bench_function("exec_fig2_memory_cell", |b| {
            b.iter(|| std::hint::black_box(drive(&mut compiled, &envs)))
        });
        let mut interp = Reactor::for_program_interpreted(&cell).unwrap();
        let envs = dense_workload(&interp, STEPS);
        group.bench_function("exec_fig2_memory_cell_interpreted", |b| {
            b.iter(|| std::hint::black_box(drive(&mut interp, &envs)))
        });
    }

    // estimation-loop comparison: the loop builds its reactors through
    // `Reactor::for_program`, which honours POLYSIG_COMPILE at build time,
    // so toggling the variable around the runs selects the plan. The
    // harness is single-threaded; restore the ambient value afterwards.
    let ambient = std::env::var("POLYSIG_COMPILE").ok();
    for burst in [2usize, 4, 8] {
        let env = bursty_env(80, burst);
        let baseline = {
            std::env::remove_var("POLYSIG_COMPILE");
            estimate_buffer_sizes(&polysig_bench::pipe(), &env, &EstimationOptions::default())
                .unwrap()
        };
        std::env::remove_var("POLYSIG_COMPILE");
        group.bench_function(format!("full_loop_{burst}"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    estimate_buffer_sizes(
                        &polysig_bench::pipe(),
                        &env,
                        &EstimationOptions::default(),
                    )
                    .unwrap()
                    .iterations(),
                )
            })
        });
        std::env::set_var("POLYSIG_COMPILE", "off");
        let interp =
            estimate_buffer_sizes(&polysig_bench::pipe(), &env, &EstimationOptions::default())
                .unwrap();
        assert_eq!(interp.final_sizes, baseline.final_sizes);
        assert_eq!(interp.iterations(), baseline.iterations());
        group.bench_function(format!("full_loop_{burst}_interpreted"), |b| {
            b.iter(|| {
                std::hint::black_box(
                    estimate_buffer_sizes(
                        &polysig_bench::pipe(),
                        &env,
                        &EstimationOptions::default(),
                    )
                    .unwrap()
                    .iterations(),
                )
            })
        });
        match &ambient {
            Some(v) => std::env::set_var("POLYSIG_COMPILE", v),
            None => std::env::remove_var("POLYSIG_COMPILE"),
        }
    }

    let gen = parse_program(GEN_S4).unwrap();
    let network = desynchronize(&gen, &DesyncOptions::with_size(1).instrumented()).unwrap();
    assert!(
        Reactor::for_program_compiled(&network.program).unwrap().is_compiled(),
        "the generated pipeline's network must lower to a static schedule"
    );
    let env = gen_env(96);
    group.bench_function("full_loop_gen", |b| {
        b.iter(|| {
            std::hint::black_box(
                estimate_buffer_sizes(&gen, &env, &EstimationOptions::default())
                    .unwrap()
                    .iterations(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
