//! Fork/join over contiguous chunks: the workspace's one parallel primitive.
//!
//! Every parallel path (the explicit checker's layer fan-out, ensemble
//! estimation, flow comparison) funnels through [`map_chunks`] or
//! [`map_chunks_mut`], so chunking — and therefore result *order* — is
//! decided in one place: items are split into at most `threads` balanced
//! contiguous chunks, each chunk runs on its own scoped thread, and
//! per-chunk results come back **in chunk order**. Callers merge
//! deterministically regardless of which worker finished first. A worker
//! that panics re-raises its own panic on the caller's thread.

use std::num::NonZeroUsize;
use std::panic::resume_unwind;
use std::sync::OnceLock;
use std::thread::ScopedJoinHandle;

/// The workspace-wide default worker count.
///
/// `POLYSIG_TEST_THREADS` (a positive integer) overrides the detected
/// parallelism — CI sets it to `1` to keep the sequential fallback path
/// covered; otherwise [`std::thread::available_parallelism`] decides
/// (falling back to `1` when undetectable). Computed once per process: the
/// detection reads procfs/cgroup files, far too slow for callers that build
/// an options struct per check.
pub fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        match std::env::var("POLYSIG_TEST_THREADS").ok().and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1),
        }
    })
}

/// Splits `0..len` into `chunks` balanced contiguous ranges `(start, size)`
/// (sizes differ by at most one, in order).
fn ranges(len: usize, chunks: usize) -> impl Iterator<Item = (usize, usize)> {
    let base = len / chunks;
    let rem = len % chunks;
    let mut start = 0usize;
    (0..chunks).map(move |i| {
        let size = base + usize::from(i < rem);
        let r = (start, size);
        start += size;
        r
    })
}

/// Joins every worker in spawn order, re-raising a worker's panic with its
/// original payload.
fn join_in_order<R>(handles: Vec<ScopedJoinHandle<'_, R>>) -> Vec<R> {
    handles.into_iter().map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload))).collect()
}

/// Maps balanced contiguous chunks of `items` across up to `threads` scoped
/// workers; returns one result per chunk, **in chunk order**.
///
/// `min_per_chunk` bounds the fan-out: no more chunks are cut than
/// `items.len() / min_per_chunk` (at least one), so tiny inputs run inline
/// on the caller's thread instead of paying spawn latency. The closure
/// receives each chunk's starting index into `items` alongside the chunk
/// itself. With one chunk the call degenerates to a plain inline invocation
/// — the sequential path and the parallel path are the same code.
pub fn map_chunks<T, R, F>(threads: usize, items: &[T], min_per_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let chunks = threads.max(1).min(items.len() / min_per_chunk.max(1)).max(1);
    if chunks == 1 {
        return vec![f(0, items)];
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles = ranges(items.len(), chunks)
            .map(|(start, size)| s.spawn(move || f(start, &items[start..start + size])))
            .collect();
        join_in_order(handles)
    })
}

/// Like [`map_chunks`], but each chunk also gets exclusive access to one
/// element of `workers` — persistent per-worker scratch state (e.g. a
/// cloned reactor) that survives across successive calls.
///
/// At most `workers.len()` chunks are cut; chunk `i` runs with
/// `workers[i]`. Results come back in chunk order.
///
/// # Panics
///
/// Panics when `items` is non-empty and `workers` is empty.
pub fn map_chunks_mut<W, T, R, F>(
    workers: &mut [W],
    items: &[T],
    min_per_chunk: usize,
    f: F,
) -> Vec<R>
where
    W: Send,
    T: Sync,
    R: Send,
    F: Fn(&mut W, usize, &[T]) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    assert!(!workers.is_empty(), "map_chunks_mut needs at least one worker");
    let chunks = workers.len().min(items.len() / min_per_chunk.max(1)).max(1);
    if chunks == 1 {
        return vec![f(&mut workers[0], 0, items)];
    }
    std::thread::scope(|s| {
        let f = &f;
        let handles = ranges(items.len(), chunks)
            .zip(workers.iter_mut())
            .map(|((start, size), worker)| {
                s.spawn(move || f(worker, start, &items[start..start + size]))
            })
            .collect();
        join_in_order(handles)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_results_come_back_in_order() {
        let items: Vec<usize> = (0..100).collect();
        let outs = map_chunks(4, &items, 1, |start, chunk| (start, chunk.to_vec()));
        let mut flat = Vec::new();
        let mut expected_start = 0;
        for (start, chunk) in outs {
            assert_eq!(start, expected_start);
            expected_start += chunk.len();
            flat.extend(chunk);
        }
        assert_eq!(flat, items);
    }

    #[test]
    fn chunks_are_balanced_and_contiguous() {
        let sizes: Vec<(usize, usize)> = ranges(10, 4).collect();
        assert_eq!(sizes, vec![(0, 3), (3, 3), (6, 2), (8, 2)]);
        let items: Vec<u8> = vec![0; 10];
        let outs = map_chunks(4, &items, 1, |start, chunk| (start, chunk.len()));
        assert_eq!(outs, sizes);
    }

    #[test]
    fn small_inputs_run_inline_as_one_chunk() {
        let items = [1, 2, 3];
        let outs = map_chunks(8, &items, 16, |start, chunk| (start, chunk.len()));
        assert_eq!(outs, vec![(0, 3)]);
    }

    #[test]
    fn workers_keep_per_chunk_state() {
        let items: Vec<u64> = (1..=40).collect();
        let mut workers = vec![0u64; 4];
        let outs = map_chunks_mut(&mut workers, &items, 1, |acc, _start, chunk| {
            *acc += chunk.iter().sum::<u64>();
            chunk.len()
        });
        assert_eq!(outs.iter().sum::<usize>(), 40);
        assert_eq!(workers.iter().sum::<u64>(), (1..=40).sum::<u64>());
    }

    #[test]
    fn a_worker_panic_keeps_its_payload() {
        let items: Vec<usize> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            map_chunks(4, &items, 1, |start, _chunk| {
                if start == 8 {
                    panic!("chunk at 8 failed");
                }
                start
            })
        })
        .expect_err("the worker's panic must reach the caller");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"chunk at 8 failed"));

        let mut workers = vec![(); 2];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            map_chunks_mut(&mut workers, &items, 1, |_, start, _chunk| {
                if start > 0 {
                    panic!("second worker failed");
                }
            })
        }))
        .expect_err("the worker's panic must reach the caller");
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"second worker failed"));
    }
}
