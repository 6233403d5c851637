//! E11 — the front end: elaborating and linking a desynchronized network.
//!
//! `sim/elaborate_network/{depth}` builds the reactor of the instrumented,
//! desynchronized two-process pipe with its FIFO at `depth` from the
//! assembled program (`Reactor::for_program`): every component elaborated
//! (resolution, type checking, clock calculus, equation compilation), then
//! linked (interning, relocation, clock-group merging, scheduling,
//! lowering). `estimation/round_relink` is what an estimation round pays
//! once every component is elaborated: `DesyncCache::link` at a depth the
//! cache has seen, so the round only links.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use polysig_bench::{banner, pipe};
use polysig_gals::{desynchronize, DesyncCache, DesyncOptions};
use polysig_sim::Reactor;

/// The depth `estimation/round_relink` links at.
const RELINK_DEPTH: usize = 8;

fn bench(c: &mut Criterion) {
    banner("E11 / front end", "elaborating and linking the desynchronized pipe");
    let mut group = c.benchmark_group("sim");
    for depth in [1usize, 16, 64] {
        let network =
            desynchronize(&pipe(), &DesyncOptions::with_size(depth).instrumented()).unwrap();
        let r = Reactor::for_program(&network.program).unwrap();
        eprintln!(
            "depth {depth:>3}: {} components, {} signals, {} registers",
            network.program.components.len(),
            r.signal_count(),
            r.register_count()
        );
        group.bench_with_input(BenchmarkId::new("elaborate_network", depth), &depth, |b, _| {
            b.iter(|| {
                std::hint::black_box(Reactor::for_program(&network.program).unwrap().signal_count())
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("estimation");
    let mut cache = DesyncCache::new(&pipe(), true).unwrap();
    cache.link(&[RELINK_DEPTH]).unwrap();
    let elaborated = cache.parts_elaborated();
    group.bench_function("round_relink", |b| {
        b.iter(|| std::hint::black_box(cache.link(&[RELINK_DEPTH]).unwrap().reactor.signal_count()))
    });
    assert_eq!(cache.parts_elaborated(), elaborated, "a relinked round elaborates nothing");
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
