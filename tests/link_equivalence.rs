//! Linking cached parts builds the reactor `Reactor::for_program` builds.
//!
//! The estimation loop does not assemble a `Program` per round: it links
//! the round's network from components elaborated once
//! (`DesyncCache::link`). That is only sound if the linked reactor is
//! indistinguishable from elaborating the assembled program. This suite
//! compares the two at every depth vector the estimator visits, on the
//! shipped `programs/*.sig` and on `polysig-gen` Pipeline, Free and Ring
//! draws (fuzz seed 1, the per-case seed derivation of
//! `fuzz_conformance.rs`): signal names and ids, register spans, initial
//! registers, the compiled schedule, and every reaction of the case's
//! scenario, errors included.
//!
//! Because `Reactor::for_program` itself now elaborates per component and
//! links, the layouts are also pinned by digest to what the whole-program
//! elaborator produced, and the first error on programs that mix several
//! faults is pinned verbatim. CI runs this file under `POLYSIG_COMPILE=off`
//! too, so linked rounds are checked against the interpreter plan as well
//! as the compiled one.

use std::collections::BTreeMap;

use polysig::gals::{estimate_buffer_sizes, DesyncCache, EstimationOptions};
use polysig::lang::{parse_program, Program};
use polysig::sim::{RandomInputs, Reactor, Scenario, ScenarioGenerator};
use polysig::tagged::SigName;
use polysig_gen::{external_inputs, generate_case, GenConfig, Shape};
use rand::rngs::StdRng;
use rand::SeedableRng;

const BASE_SEED: u64 = 1;
const CASES: u64 = 32;
const STEPS: usize = 24;

/// splitmix64, the per-case seed derivation of `fuzz_conformance.rs`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Everything static about an elaborated reactor, rendered.
fn layout(r: &Reactor) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        r.signal_names(),
        r.register_spans(),
        r.initial_registers(),
        r.input_ids(),
        r.compiled_schedule()
    )
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// 64-bit FNV-1a over the layout `Reactor::for_program_compiled` gives
/// `p` (forcing compilation keeps the digest independent of
/// `POLYSIG_COMPILE`).
fn fold_layout(h: u64, p: &Program) -> u64 {
    let r = Reactor::for_program_compiled(p).expect("elaborates");
    layout(&r).bytes().fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Same layout, same reactions (outputs or error) over `scenario`, same
/// final state.
fn assert_equivalent(mut linked: Reactor, mut built: Reactor, scenario: &Scenario, what: &str) {
    assert_eq!(layout(&linked), layout(&built), "{what}: layouts differ");
    assert_eq!(linked.is_compiled(), built.is_compiled(), "{what}: plans differ");
    for (k, inputs) in scenario.iter().enumerate() {
        let (a, b) = (linked.react(inputs), built.react(inputs));
        assert_eq!(a, b, "{what}: reaction {k} differs");
        if a.is_err() {
            break;
        }
    }
    assert_eq!(linked.snapshot(), built.snapshot(), "{what}: final states differ");
}

/// Every input of `p` present with probability 0.7, seeded.
fn random_environment(p: &Program, seed: u64) -> Scenario {
    let mut s = Scenario::new().silence(STEPS);
    for (k, (name, ty)) in external_inputs(p).into_iter().enumerate() {
        s = s.zip_union(&RandomInputs::new(name, ty, 0.7, seed + k as u64).generate(STEPS));
    }
    s
}

/// Desynchronizes `p` (instrumented) and checks the linked network against
/// `for_program` on the assembled program at every depth vector the
/// estimator visits under `est` (or, without one, under the program's
/// inputs plus the channel drivers), plus the uniform depth-2 vector.
/// Returns `h` folded with every visited network's layout.
fn check_networks(mut h: u64, p: &Program, est: Option<&Scenario>, what: &str) -> u64 {
    let Ok(mut cache) = DesyncCache::new(p, true) else { return h };
    let signals: Vec<SigName> = cache.signals().cloned().collect();
    if signals.is_empty() {
        return h;
    }
    let env = match est {
        Some(est) => est.clone(),
        None => {
            let d = cache.build(&BTreeMap::new(), 1).expect("the skeleton builds");
            random_environment(p, 7).zip_union(&d.driver_scenario(STEPS, 2))
        }
    };
    let options = EstimationOptions { threads: 1, ..Default::default() };
    let mut vectors: Vec<BTreeMap<SigName, usize>> = match estimate_buffer_sizes(p, &env, &options)
    {
        Ok(report) => report.history.into_iter().map(|it| it.sizes).collect(),
        Err(_) => vec![signals.iter().map(|s| (s.clone(), 1)).collect()],
    };
    vectors.push(signals.iter().map(|s| (s.clone(), 2)).collect());
    for sizes in &vectors {
        let depths: Vec<usize> = signals.iter().map(|s| sizes[s]).collect();
        let program = cache.build(sizes, 1).expect("known channels").program;
        let built = Reactor::for_program(&program);
        let linked = cache.link(&depths).map(|n| n.reactor);
        let what = format!("{what} at depths {depths:?}");
        match (linked, built) {
            (Ok(linked), Ok(built)) => assert_equivalent(linked, built, &env, &what),
            (linked, built) => assert_eq!(
                linked.map(|_| ()).map_err(|e| e.to_string()),
                built.map(|_| ()).map_err(|e| e.to_string()),
                "{what}: elaboration outcomes differ"
            ),
        }
        h = fold_layout(h, &program);
    }
    h
}

/// Layout digests recorded with the whole-program elaborator, which
/// resolved, type-checked and analyzed the assembled program as one.
const PROGRAMS_DIGEST: u64 = 0xc0e4_77cd_19f9_7010;
const FREE_DIGEST: u64 = 0x6a79_0070_43a2_355a;
const PIPELINE_DIGEST: u64 = 0xb287_d621_7982_d11f;
const RING_DIGEST: u64 = 0xaddc_afe5_0d3a_ec09;

#[test]
fn shipped_programs_link_like_they_elaborate() {
    let mut h = FNV_OFFSET;
    let mut paths: Vec<_> = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/programs"))
        .expect("programs/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "sig"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 3, "the shipped programs are found");
    for path in &paths {
        let what = path.file_name().unwrap().to_string_lossy().into_owned();
        let p = parse_program(&std::fs::read_to_string(path).unwrap()).expect("parses");
        let built = Reactor::for_program(&p).expect("shipped programs elaborate");
        let parts: Vec<_> =
            p.components.iter().map(polysig::sim::ComponentPart::elaborate).collect();
        let linked = Reactor::link(&parts).expect("shipped programs link");
        assert_equivalent(linked, built, &random_environment(&p, 3), &what);
        h = fold_layout(h, &p);
        h = check_networks(h, &p, None, &what);
    }
    assert_eq!(h, PROGRAMS_DIGEST, "shipped program layouts changed");
}

#[test]
fn generated_networks_link_like_they_elaborate() {
    let config = GenConfig::default();
    for (shape, shape_bit, digest) in [
        (Shape::Free, 0u64, FREE_DIGEST),
        (Shape::Pipeline, 1u64 << 32, PIPELINE_DIGEST),
        (Shape::Ring, 2u64 << 32, RING_DIGEST),
    ] {
        let mut h = FNV_OFFSET;
        for i in 0..CASES {
            let seed = splitmix64(BASE_SEED ^ splitmix64(i | shape_bit));
            let case = generate_case(&mut StdRng::seed_from_u64(seed), &config, shape);
            h = fold_layout(h, &case.program);
            h = check_networks(
                h,
                &case.program,
                case.est_scenario.as_ref(),
                &format!("{shape} case {i}"),
            );
        }
        assert_eq!(h, digest, "{shape} layouts changed");
    }
}

/// The first error `Reactor::for_program` reports.
fn first_error(src: &str) -> String {
    Reactor::for_program(&parse_program(src).expect("parses")).unwrap_err().to_string()
}

#[test]
fn first_error_on_mixed_faults_is_unchanged() {
    // a resolve error in a later component beats a type error in an
    // earlier one: every component resolves before any is type-checked
    assert_eq!(
        first_error(
            "process A { input a: int; output x: bool; x := a + 1; } \
             process B { input x: bool; output y: bool; y := ghost; }"
        ),
        "component `B`: signal `ghost` is not declared"
    );
    // two writers, detected at the second, beat an earlier type error
    assert_eq!(
        first_error(
            "process A { input a: int; output x: int; x := a and a; } \
             process B { input a: int; output x: int; x := a; }"
        ),
        "signal `x` is written by both `A` and `B`"
    );
    // a component's own resolve error beats the writer clash it is part of,
    // and the clash beats a later component's resolve error
    assert_eq!(
        first_error(
            "process A { input a: int; output x: int; x := a; } \
             process B { input a: int; output x: int; x := ghost; }"
        ),
        "component `B`: signal `ghost` is not declared"
    );
    assert_eq!(
        first_error(
            "process A { input a: int; output x: int; x := a; } \
             process B { input a: int; output x: int; x := a; } \
             process C { input a: int; output y: int; y := ghost; }"
        ),
        "signal `x` is written by both `A` and `B`"
    );
    // a type error beats an interface mismatch, wherever it sits
    assert_eq!(
        first_error(
            "process A { input a: int; output x: int; x := a; } \
             process B { input x: bool; output y: bool; y := x; } \
             process C { input a: int; output z: bool; z := a; }"
        ),
        "component `C`, equation for `z`: expected bool, found int (equation right-hand side)"
    );
    assert_eq!(
        first_error(
            "process A { input a: int; output x: int; x := a; } \
             process B { input x: bool; output y: bool; y := x; }"
        ),
        "component `B`, equation for `x`: expected int, found bool (interface mismatch with component `A`)"
    );
    // colliding locals are reported under their qualified names
    assert_eq!(
        first_error(
            "process A { input a: int; output x: int; local t: int; t := a; x := t; } \
             process B { input x: int; output y: int; local t: bool; t := x; y := x; }"
        ),
        "component `B`, equation for `B.t`: expected bool, found int (equation right-hand side)"
    );
    assert_eq!(
        first_error(
            "process A { input a: int; output x: int; local t: int; t := a; x := t; } \
             process B { input x: int; output y: int; local t: int; y := x; }"
        ),
        "component `B`: signal `B.t` has no defining equation"
    );
    assert_eq!(
        first_error("process A { input t: int; output x: int; local t: int; t := 1; x := t; }"),
        "component `A`: `A.t` is declared twice"
    );
}

#[test]
fn colliding_locals_are_qualified_and_kept_apart() {
    let p = parse_program(
        "process A { input a: int; output x: int; local t: int; t := a + 1; x := t; } \
         process B { input x: int; output y: int; local t: int; t := x * 2; y := t; }",
    )
    .unwrap();
    let mut r = Reactor::for_program(&p).unwrap();
    let names: Vec<&str> = r.signal_names().iter().map(|n| n.as_str()).collect();
    assert_eq!(names, ["a", "x", "A.t", "y", "B.t"]);
    let out = r.react(&[(SigName::from("a"), polysig::tagged::Value::Int(3))].into()).unwrap();
    let y = out.iter().find(|(n, _)| n.as_str() == "y").unwrap().1;
    assert_eq!(y, polysig::tagged::Value::Int(8));
}
