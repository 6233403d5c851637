//! The closed loop shared by the single-caller workloads.
//!
//! A workload is a fixed, seeded list of ops. One caller runs them in order,
//! each only after the previous one returns; a *pass* is one run over the
//! whole list. The untraced measurement runs whole passes until the time
//! budget is spent, so every measured window holds the same op mix. The
//! traced measurement alternates an untraced and a traced pass, which gives
//! the per-layer numbers and the tracing overhead from the same op mix.

use std::time::Instant;

use crate::trace::Tracer;

/// The result of one op.
pub struct OpOutcome {
    /// `Some` when the op failed or answered wrongly.
    pub error: Option<String>,
    /// Work units the op completed (the workload defines the unit).
    pub events: u64,
    /// The op's latency when only part of `run_op` is the op (the rest
    /// being checks); `None` times the whole call.
    pub latency_ms: Option<f64>,
}

impl OpOutcome {
    pub fn ok(events: u64) -> OpOutcome {
        OpOutcome { error: None, events, latency_ms: None }
    }

    pub fn failed(error: String) -> OpOutcome {
        OpOutcome { error: Some(error), events: 0, latency_ms: None }
    }
}

/// A workload run by one closed-loop caller.
pub trait Sweep {
    /// Ops per pass.
    fn len(&self) -> usize;
    /// Runs op `i` of the pass, recording layer calls on `t`.
    fn run_op(&mut self, i: usize, t: &mut Tracer) -> OpOutcome;
    /// Checks made once after the measured window; one message per wrong
    /// answer.
    fn post_check(&self) -> Vec<String> {
        Vec::new()
    }
}

/// What a measured window observed.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    pub latencies_ms: Vec<f64>,
    pub elapsed_s: f64,
    pub events: u64,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    pub passes: usize,
    /// The calibration kernel's time next to each pass (see `calib`).
    pub kernel_ms: Vec<f64>,
}

impl Measured {
    pub fn absorb(&mut self, other: Measured) {
        self.latencies_ms.extend(other.latencies_ms);
        self.elapsed_s += other.elapsed_s;
        self.events += other.events;
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.passes += other.passes;
        self.kernel_ms.extend(other.kernel_ms);
    }
}

/// What one benchmark run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// `(name, value, unit)`, in output order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra result fields: `(key, rendered JSON value)`.
    pub detail: Vec<(String, String)>,
}

impl Report {
    /// Counts `errors` as failed ops.
    pub fn fail(&mut self, errors: Vec<String>) {
        self.failed += errors.len() as u64;
        self.attempted = self.attempted.max(self.failed);
        for e in errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// Each op's fastest latency over the passes of `m` (ops per pass `n`),
/// every pass scaled to the reference host by the calibration kernel timed
/// just before it.
///
/// On a shared host, co-tenants slow whole stretches of a run by tens of
/// percent; an op's best scaled repetition is far steadier from run to run
/// than its mean or median, so the end-to-end metrics are built from these.
pub fn best_of(m: &Measured, n: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; n];
    for (k, ms) in m.latencies_ms.iter().enumerate() {
        let scaled = ms * crate::calib::factor(m.kernel_ms[k / n]);
        let b = &mut best[k % n];
        *b = b.min(scaled);
    }
    best
}

/// Runs one pass; op ids continue from `first_op`.
pub fn pass(sweep: &mut dyn Sweep, t: &mut Tracer, first_op: u64) -> Measured {
    let mut m = Measured { passes: 1, ..Measured::default() };
    let start = Instant::now();
    for i in 0..sweep.len() {
        let op_start = Instant::now();
        let out = t.op(first_op + i as u64, |t| sweep.run_op(i, t));
        let wall_ms = op_start.elapsed().as_secs_f64() * 1e3;
        m.latencies_ms.push(out.latency_ms.unwrap_or(wall_ms));
        m.attempted += 1;
        m.events += out.events;
        if let Some(e) = out.error {
            m.failed += 1;
            if m.errors.len() < 8 {
                m.errors.push(e);
            }
        }
    }
    m.elapsed_s = start.elapsed().as_secs_f64();
    m
}

/// Whole untraced passes until `seconds` have elapsed (at least one), each
/// after a run of the calibration kernel (not counted in `seconds`).
pub fn closed_loop(sweep: &mut dyn Sweep, seconds: f64) -> Measured {
    let mut t = Tracer::new(false);
    let mut total = Measured::default();
    while total.passes == 0 || total.elapsed_s < seconds {
        let first = total.attempted;
        let kernel = crate::calib::kernel_ms();
        let mut m = pass(sweep, &mut t, first);
        m.kernel_ms.push(kernel);
        total.absorb(m);
    }
    total
}

/// Alternating untraced/traced passes until `seconds` have elapsed (at
/// least one of each): `(untraced, traced, spans)`.
pub fn traced_loop(sweep: &mut dyn Sweep, seconds: f64) -> (Measured, Measured, Tracer) {
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let (mut untraced, mut traced) = (Measured::default(), Measured::default());
    while traced.passes == 0 || untraced.elapsed_s + traced.elapsed_s < seconds {
        let first = untraced.attempted + traced.attempted;
        untraced.absorb(pass(sweep, &mut off, first));
        let first = untraced.attempted + traced.attempted;
        traced.absorb(pass(sweep, &mut on, first));
    }
    (untraced, traced, on)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counting {
        calls: usize,
    }

    impl Sweep for Counting {
        fn len(&self) -> usize {
            3
        }
        fn run_op(&mut self, i: usize, t: &mut Tracer) -> OpOutcome {
            self.calls += 1;
            t.layer("sim", || ());
            if i == 2 {
                OpOutcome::failed("wrong".into())
            } else {
                OpOutcome::ok(5)
            }
        }
    }

    #[test]
    fn passes_count_failures_against_attempts() {
        let mut s = Counting { calls: 0 };
        let m = closed_loop(&mut s, 0.0);
        assert_eq!((m.passes, m.attempted, m.failed, m.events), (1, 3, 1, 10));
        assert_eq!(m.errors, vec!["wrong".to_string()]);
    }

    #[test]
    fn best_of_takes_each_ops_fastest_pass() {
        let reference = crate::calib::REFERENCE_KERNEL_MS;
        let m = Measured {
            latencies_ms: vec![3.0, 9.0, 1.0, 2.0, 8.0, 4.0],
            kernel_ms: vec![reference, reference],
            ..Measured::default()
        };
        assert_eq!(best_of(&m, 3), vec![2.0, 8.0, 1.0]);
        // a pass next to a twice-as-slow kernel counts half
        let m = Measured { kernel_ms: vec![reference, 2.0 * reference], ..m };
        assert_eq!(best_of(&m, 3), vec![1.0, 4.0, 1.0]);
    }

    #[test]
    fn traced_loop_records_only_traced_passes() {
        let mut s = Counting { calls: 0 };
        let (off, on, spans) = traced_loop(&mut s, 0.0);
        assert_eq!((off.passes, on.passes), (1, 1));
        assert_eq!(s.calls, 6);
        // one op span plus one layer span per traced op
        assert_eq!(spans.spans().len(), 6);
        assert!(spans.spans().iter().all(|sp| sp.op >= 3));
    }
}
