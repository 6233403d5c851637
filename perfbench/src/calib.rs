//! Host-speed calibration.
//!
//! On a shared host the same work runs at different speeds from one
//! stretch of a run, and from one process, to the next. A fixed kernel of
//! the benchmark's own (ordered-map inserts and range lookups, then a sort:
//! allocation- and pointer-heavy, like the simulator and the checkers) is
//! timed next to the measured work; timings are scaled by
//! `REFERENCE_KERNEL_MS / kernel time`, i.e. reported as they would read on
//! a host that runs the kernel in the reference time. The kernel is not
//! program code, so a change to the program moves the scaled figures
//! exactly as much as the raw ones.

use std::collections::BTreeMap;
use std::time::Instant;

/// The kernel's best time on the development host (2 vCPUs, Intel Xeon),
/// in milliseconds.
pub const REFERENCE_KERNEL_MS: f64 = 8.0;

/// The kernel's best time over three runs, in milliseconds.
pub fn kernel_ms() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let mut map = BTreeMap::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..20_000u64 {
            map.insert(next() % 100_000, i);
        }
        let mut sum = 0u64;
        for _ in 0..50_000 {
            let key = next() % 100_000;
            sum = sum.wrapping_add(map.range(key..).next().map_or(0, |(_, v)| *v));
        }
        let salt = next();
        let mut v: Vec<u64> = (0..50_000u64).map(|i| i.wrapping_mul(salt) ^ sum).collect();
        v.sort_unstable();
        std::hint::black_box(&v);
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// The factor that scales a timing taken next to a kernel time of
/// `kernel_ms` to the reference host.
pub fn factor(kernel_ms: f64) -> f64 {
    REFERENCE_KERNEL_MS / kernel_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_measurable_time() {
        let k = kernel_ms();
        assert!(k > 0.1 && k < 1000.0, "{k}");
        assert!((factor(REFERENCE_KERNEL_MS) - 1.0).abs() < 1e-12);
    }
}
