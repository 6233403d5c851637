//! Serve-path benchmarks: the latency contract behind `polysig-serve`.
//!
//! Four rows, all in-process against [`polysig::serve::Engine`] so the
//! numbers measure the engine (hashing, caching, coalescing, analysis)
//! and the wire codec rather than loopback TCP:
//!
//! * `serve/cold_pipe` — a fresh engine answering the canonical pipeline
//!   request: full parse → analyze → estimate cost, the cache-miss floor;
//! * `serve/warm_hit` — the same request against a warmed engine: the
//!   content-hash hit path (normalize + hash + clone), which the bench
//!   gate holds far below the cold cost;
//! * `serve/mixed_c8` — a batch of 8 (4 duplicate warm, 4 unseen cold)
//!   through `submit_many` on 8 workers: the steady-state mix a loaded
//!   server sees;
//! * `serve/wire_hit` — `serve/warm_hit` as the server runs it, codec
//!   included: decode the request frame, submit (a hit), encode the
//!   response, and decode the client's envelope.

use std::sync::atomic::{AtomicUsize, Ordering};

use criterion::{criterion_group, criterion_main, Criterion};
use polysig::serve::loadgen::{cold_source, PIPE_SCENARIO, WARM_SOURCE};
use polysig::serve::proto::Envelope;
use polysig::serve::{
    read_frame, write_frame, Engine, EngineConfig, Request, RequestKind, Response, Served,
};
use polysig_bench::banner;

fn warm_request(id: u64) -> Request {
    let mut req = Request::new(id, RequestKind::Pipeline, WARM_SOURCE);
    req.scenario = Some(PIPE_SCENARIO.into());
    req
}

fn cold_request(id: u64, variant: usize) -> Request {
    let mut req = Request::new(id, RequestKind::Pipeline, cold_source(variant));
    req.scenario = Some(PIPE_SCENARIO.into());
    req
}

fn bench(c: &mut Criterion) {
    // Pin the behaviors the rows claim to measure before timing them: the
    // first submit is a cold execution, the repeat is a cache hit, and a
    // duplicate-heavy batch answers every request.
    let engine = Engine::new(EngineConfig::default());
    let cold = engine.submit(&warm_request(1));
    assert_eq!(cold.served, Served::Cold, "first submit must execute");
    assert_eq!(cold.outcome.tag(), "pipeline", "canonical request must analyze cleanly");
    let warm = engine.submit(&warm_request(2));
    assert_eq!(warm.served, Served::Hit, "repeat submit must hit the cache");
    assert_eq!(warm.outcome, cold.outcome, "hit must return the cold payload");
    let batch: Vec<Request> = (0..8)
        .map(|i| if i % 2 == 0 { warm_request(i) } else { cold_request(i, i as usize) })
        .collect();
    let answers = engine.submit_many(&batch, 8);
    assert_eq!(answers.len(), 8, "every batched request is answered");
    assert!(answers.iter().all(|r| r.outcome.tag() == "pipeline"));
    banner(
        "E11 / analysis serving",
        &format!(
            "engine after pinning: executed {}, hits {}",
            engine.stats().executed,
            engine.stats().results.hits,
        ),
    );

    let mut group = c.benchmark_group("serve");

    group.bench_function("cold_pipe", |b| {
        b.iter(|| {
            let engine = Engine::new(EngineConfig::default());
            std::hint::black_box(engine.submit(&warm_request(1)))
        })
    });

    {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(&warm_request(1));
        group.bench_function("warm_hit", |b| {
            b.iter(|| std::hint::black_box(engine.submit(&warm_request(2))))
        });
    }

    {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(&warm_request(1));
        // unseen cold variants each iteration, so half the batch always
        // misses; the LRU keeps the accumulated results bounded
        let next = AtomicUsize::new(1000);
        group.bench_function("mixed_c8", |b| {
            b.iter(|| {
                let base = next.fetch_add(4, Ordering::Relaxed);
                let batch: Vec<Request> = (0..8u64)
                    .map(|i| {
                        if i % 2 == 0 {
                            warm_request(i)
                        } else {
                            cold_request(i, base + i as usize)
                        }
                    })
                    .collect();
                std::hint::black_box(engine.submit_many(&batch, 8))
            })
        });
    }

    {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(&warm_request(1));
        let mut frame = Vec::new();
        write_frame(&mut frame, warm_request(2).to_json().as_bytes()).expect("encode frame");
        let hit = |frame: &[u8]| -> (Response, Envelope) {
            let body = read_frame(&mut &frame[..]).expect("read").expect("one frame");
            let req = Request::from_json(std::str::from_utf8(&body).expect("utf8"))
                .expect("decode request");
            let resp = engine.submit(&req);
            let env = Envelope::from_json(&resp.to_json()).expect("decode response");
            (resp, env)
        };
        let (resp, env) = hit(&frame);
        assert_eq!(resp.served, Served::Hit, "the framed request must hit");
        assert_eq!((env.id, env.served.as_str(), env.outcome.as_str()), (2, "hit", "pipeline"));
        group.bench_function("wire_hit", |b| b.iter(|| std::hint::black_box(hit(&frame))));
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
