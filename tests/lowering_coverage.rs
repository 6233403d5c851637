//! Lowering coverage: every generated program the fuzz smoke draws must
//! compile to a static schedule.
//!
//! The Section-5 loop simulates the instrumented, desynchronized network
//! once per estimation round, so a network the lowering rejects runs on the
//! micro-step interpreter — several times slower per reaction, with the
//! same results. The `CompiledEquiv` oracle pins *equivalence* of the two
//! plans; this test pins *coverage*, so a lowering change that quietly
//! sends designs back to the interpreter fails here instead of showing up
//! only as a slower benchmark.
//!
//! The cases are the fuzz smoke's (`POLYSIG_FUZZ_SEED=1`,
//! `POLYSIG_FUZZ_CASES=200`, the same per-case seed derivation as
//! `fuzz_conformance.rs`): every `Pipeline` case must lower both as drawn
//! and desynchronized at depth 2 with the Figure-4 instrumentation, and
//! every `Free` case as drawn. Cases that already lowered when lowering
//! was a single pass over the schedule order must keep byte-identical
//! schedules.

use polysig::gals::{desynchronize, DesyncOptions};
use polysig::lang::{pretty_program, Program};
use polysig::sim::Reactor;
use polysig_gen::{generate_case, GenConfig, Shape};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BASE_SEED: u64 = 1;
const CASES: u64 = 200;

/// splitmix64, the per-case seed derivation of `fuzz_conformance.rs`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn cases(shape: Shape, shape_bit: u64) -> impl Iterator<Item = (u64, Program)> {
    let config = GenConfig::default();
    (0..CASES).map(move |i| {
        let seed = splitmix64(BASE_SEED ^ splitmix64(i | shape_bit));
        (i, generate_case(&mut StdRng::seed_from_u64(seed), &config, shape).program)
    })
}

fn lowers(p: &Program) -> bool {
    Reactor::for_program_compiled(p).expect("generated programs elaborate").is_compiled()
}

/// 64-bit FNV-1a, folded over the `Debug` rendering (every op, slot,
/// constant and epilogue check) of each schedule in turn.
fn fold_schedule(h: u64, p: &Program) -> u64 {
    let r = Reactor::for_program_compiled(p).expect("generated programs elaborate");
    format!("{:?}", r.compiled_schedule().expect("a compiled schedule"))
        .bytes()
        .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn every_generated_pipeline_lowers_plain_and_desynchronized() {
    let mut networks = 0;
    for (i, program) in cases(Shape::Pipeline, 1 << 32) {
        assert!(
            lowers(&program),
            "pipeline case {i} does not lower:\n{}",
            pretty_program(&program)
        );
        // the endochrony gate may refuse a draw; the fuzz oracles skip
        // those too
        let Ok(d) = desynchronize(&program, &DesyncOptions::with_size(2).instrumented()) else {
            continue;
        };
        networks += 1;
        assert!(
            lowers(&d.program),
            "desynchronized network of pipeline case {i} does not lower:\n{}",
            pretty_program(&program)
        );
    }
    assert!(networks >= CASES * 9 / 10, "only {networks} of {CASES} draws desynchronized");
}

#[test]
fn every_generated_free_program_lowers() {
    for (i, program) in cases(Shape::Free, 0) {
        assert!(lowers(&program), "free case {i} does not lower:\n{}", pretty_program(&program));
    }
}

/// Case indices that only lower since equations can be deferred, per
/// category; every other case lowered in a single pass over the schedule
/// order, and its schedule is pinned by the digest.
const FREE_DEFERRED: &[u64] =
    &[5, 26, 40, 44, 61, 72, 73, 74, 79, 82, 97, 133, 137, 157, 165, 169, 174, 198];
const PIPELINE_DEFERRED: &[u64] = &[
    8, 10, 15, 16, 21, 28, 29, 36, 37, 40, 42, 43, 47, 53, 58, 68, 74, 80, 84, 88, 90, 91, 101,
    106, 121, 134, 136, 154, 158, 170,
];
const NETWORK_DEFERRED: &[u64] = &[
    2, 3, 5, 8, 9, 10, 11, 13, 15, 16, 18, 19, 21, 22, 23, 26, 27, 28, 29, 32, 33, 35, 36, 37, 39,
    40, 42, 43, 45, 47, 49, 53, 54, 55, 58, 63, 64, 65, 68, 69, 74, 78, 80, 84, 85, 88, 90, 91, 95,
    97, 99, 101, 102, 105, 106, 109, 121, 122, 125, 132, 133, 134, 136, 141, 142, 143, 146, 147,
    150, 151, 153, 154, 156, 158, 170, 172, 177, 178, 180, 184, 188, 189, 190, 191, 193, 196,
];
const FREE_DIGEST: u64 = 0xcaab_202f_aa31_c56f;
const PIPELINE_DIGEST: u64 = 0xc61d_e002_fa06_420b;
const NETWORK_DIGEST: u64 = 0x30f2_f547_d597_0b82;

#[test]
fn schedules_lowered_in_schedule_order_are_unchanged() {
    let mut free = FNV_OFFSET;
    for (i, program) in cases(Shape::Free, 0) {
        if !FREE_DEFERRED.contains(&i) {
            free = fold_schedule(free, &program);
        }
    }
    let (mut pipeline, mut network) = (FNV_OFFSET, FNV_OFFSET);
    for (i, program) in cases(Shape::Pipeline, 1 << 32) {
        if !PIPELINE_DEFERRED.contains(&i) {
            pipeline = fold_schedule(pipeline, &program);
        }
        if let Ok(d) = desynchronize(&program, &DesyncOptions::with_size(2).instrumented()) {
            if !NETWORK_DEFERRED.contains(&i) {
                network = fold_schedule(network, &d.program);
            }
        }
    }
    assert_eq!(free, FREE_DIGEST, "free schedules changed");
    assert_eq!(pipeline, PIPELINE_DIGEST, "pipeline schedules changed");
    assert_eq!(network, NETWORK_DIGEST, "desynchronized network schedules changed");
}
