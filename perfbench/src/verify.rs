//! `verify_sweep`: the alarm-freedom proof of Section 5.2, asked of both
//! checker backends.
//!
//! Each design is a desynchronized integer pipeline `P0 → P1 → … → Pk`
//! with `k` (1–3) channels `x1 … xk`. The environment is a nondeterministic,
//! rate-limited automaton: in its write phase it may stay idle or write `a`
//! (value 0 or 1) at any instant, at most `burst` times; it may then enter a
//! drain phase of `2·burst + 3` consecutive reads of `x1` before writing
//! again. Downstream channels are read at every instant. With no read
//! during a write phase an `n`-place chain holds exactly `n` items, and the
//! drain phase empties it, so:
//!
//! * at depth `n = burst` the property `never_true(x1_alarm)` holds over
//!   every environment path (an exhaustive explicit search proves it);
//! * at depth `n = burst − 1` it is violated, and the shortest
//!   counterexample is `burst` reactions long.
//!
//! An op is one verdict pair: the explicit checker and the BMC backend
//! asked the same query. Both verdicts and counterexamples must agree with
//! each other and with that analytic answer.

use polysig::gals::{desynchronize, DesyncOptions};
use polysig::lang::{check_program, Program};
use polysig::sim::Simulator;
use polysig::tagged::{SigName, Value};
use polysig::verify::alphabet::Letter;
use polysig::verify::reach::{check, CheckOptions, CheckResult};
use polysig::verify::{Alphabet, Backend, EnvAutomaton, Property, VerifyError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{OpOutcome, Sweep};
use crate::trace::Tracer;

/// One design of the sweep.
#[derive(Debug, Clone)]
pub struct Design {
    pub channels: usize,
    pub burst: usize,
    /// Depth of the downstream channels `x2 … xk`.
    pub downstream_depth: usize,
    pub source: String,
    /// Position of the idle, write-0, write-1 and read letters in the
    /// alphabet (the order decides which shortest counterexample is the
    /// lexicographically least one both backends must return).
    pub letter_order: [usize; 4],
}

impl Design {
    /// A design whose stage `i` adds `offsets[i]` (one offset per channel).
    pub fn new(
        burst: usize,
        downstream_depth: usize,
        offsets: &[i64],
        letter_order: [usize; 4],
    ) -> Design {
        let channels = offsets.len();
        let mut source =
            format!("process P0 {{ input a: int; output x1: int; x1 := a + {}; }}\n", offsets[0]);
        for (i, offset) in offsets.iter().enumerate().skip(1) {
            source.push_str(&format!(
                "process P{i} {{ input x{i}: int; output x{j}: int; x{j} := x{i} + {offset}; }}\n",
                j = i + 1
            ));
        }
        source.push_str(&format!(
            "process P{channels} {{ input x{channels}: int; output y: int; y := x{channels} * 2; }}\n"
        ));
        Design { channels, burst, downstream_depth, source, letter_order }
    }

    /// The environment: alphabet plus the rate-limiting automaton.
    pub fn environment(&self) -> (Alphabet, EnvAutomaton) {
        let base = |read_x1: bool, write: Option<i64>| {
            let mut l = Letter::new();
            l.insert("tick".into(), Value::TRUE);
            if let Some(v) = write {
                l.insert("a".into(), Value::Int(v));
            }
            if read_x1 {
                l.insert("x1_rd".into(), Value::TRUE);
            }
            for i in 2..=self.channels {
                l.insert(format!("x{i}_rd").into(), Value::TRUE);
            }
            l
        };
        let [idle, w0, w1, rd] = self.letter_order;
        let mut letters = vec![Letter::new(); 4];
        letters[idle] = base(false, None);
        letters[w0] = base(false, Some(0));
        letters[w1] = base(false, Some(1));
        letters[rd] = base(true, None);
        let alphabet = Alphabet::from_letters(letters).expect("four letters");
        let b = self.burst;
        let drain = 2 * b + 2;
        let write_state = |w: usize| w;
        let drain_state = |j: usize| b + j;
        let mut env = EnvAutomaton::with_states(b + 1 + drain);
        for w in 0..=b {
            env.allow(write_state(w), idle, write_state(w));
            if w < b {
                env.allow(write_state(w), w0, write_state(w + 1));
                env.allow(write_state(w), w1, write_state(w + 1));
            }
            env.allow(write_state(w), rd, drain_state(1));
        }
        for j in 1..=drain {
            let next = if j < drain { drain_state(j + 1) } else { write_state(0) };
            env.allow(drain_state(j), rd, next);
        }
        (alphabet, env)
    }

    /// The analytic answer at depth `n`: `(holds, counterexample length)`.
    pub fn expected(&self, depth: usize) -> (bool, Option<usize>) {
        if depth >= self.burst {
            (true, None)
        } else {
            (false, Some(self.burst))
        }
    }
}

/// The seeded design set. The mix is fixed — for each channel count four
/// designs at each of two bursts, sized so every class explores state
/// spaces of a similar order — and the seed draws the stage offsets, the alphabet's letter order and
/// the op order. Renaming values or reordering letters leaves the state
/// count unchanged, so the work per pass does not depend on the seed while
/// the inputs, and hence the counterexamples, do.
pub fn corpus(seed: u64) -> Vec<Design> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7665_7269_6679);
    let mut out = Vec::new();
    for (channels, lo) in [(1usize, 6usize), (2, 4), (3, 3)] {
        for burst in [lo, lo, lo, lo, lo + 1, lo + 1, lo + 1, lo + 1] {
            let offsets: Vec<i64> = (0..channels).map(|_| rng.gen_range(1..=9i64)).collect();
            let mut order = [0usize, 1, 2, 3];
            shuffle(&mut rng, &mut order);
            out.push(Design::new(burst, 2, &offsets, order));
        }
    }
    shuffle(&mut rng, &mut out);
    out
}

/// Fisher–Yates with the seeded generator.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Checks one verdict pair against each other and the analytic answer.
pub fn check_pair(
    design: &Design,
    depth: usize,
    explicit: &CheckResult,
    bmc: &CheckResult,
) -> Result<(), String> {
    let (holds, cx_len) = design.expected(depth);
    let label = format!("{} channel(s), burst {}, depth {depth}", design.channels, design.burst);
    if explicit.holds != holds {
        return Err(format!("{label}: explicit verdict {} != analytic {holds}", explicit.holds));
    }
    if bmc.holds != holds {
        return Err(format!("{label}: BMC verdict {} != analytic {holds}", bmc.holds));
    }
    if holds && explicit.depth_bounded {
        return Err(format!("{label}: explicit search was not exhaustive"));
    }
    if explicit.counterexample != bmc.counterexample {
        return Err(format!("{label}: backends disagree on the counterexample"));
    }
    let got = explicit.counterexample.as_ref().map(|c| c.len());
    if got != cx_len {
        return Err(format!("{label}: counterexample length {got:?} != analytic {cx_len:?}"));
    }
    Ok(())
}

/// One prepared query.
struct Query {
    design: usize,
    depth: usize,
    program: Program,
    alphabet: Alphabet,
    env: EnvAutomaton,
}

pub struct VerifySweep {
    designs: Vec<Design>,
    queries: Vec<Query>,
}

impl VerifySweep {
    pub fn setup(seed: u64) -> Result<VerifySweep, String> {
        let designs = corpus(seed);
        let mut queries = Vec::new();
        for (i, d) in designs.iter().enumerate() {
            let program = check_program(&d.source).map_err(|e| e.to_string())?;
            let (alphabet, env) = d.environment();
            for depth in [d.burst, d.burst - 1] {
                queries.push(Query {
                    design: i,
                    depth,
                    program: program.clone(),
                    alphabet: alphabet.clone(),
                    env: env.clone(),
                });
            }
        }
        Ok(VerifySweep { designs, queries })
    }

    fn desynced(&self, q: &Query) -> Result<Program, String> {
        let d = &self.designs[q.design];
        let mut opts = DesyncOptions::with_size(d.downstream_depth);
        opts = opts.size_of("x1", q.depth);
        desynchronize(&q.program, &opts).map(|g| g.program).map_err(|e| e.to_string())
    }
}

impl Sweep for VerifySweep {
    fn len(&self) -> usize {
        self.queries.len()
    }

    fn run_op(&mut self, i: usize, t: &mut Tracer) -> OpOutcome {
        let q = &self.queries[i];
        let d = &self.designs[q.design];
        let program = match t.layer("desync", || self.desynced(q)) {
            Ok(p) => p,
            Err(e) => return OpOutcome::failed(format!("desynchronize: {e}")),
        };
        t.count("desync.channels", d.channels as f64);
        let equations: usize = program.components.iter().map(|c| c.equations().count()).sum();
        t.count("desync.equations_out", equations as f64);
        let property = Property::never_true("x1_alarm");
        let explicit = t.layer("verify", || {
            check(
                &program,
                &q.alphabet,
                &property,
                &CheckOptions { env: Some(q.env.clone()), ..CheckOptions::default() },
            )
        });
        let explicit = match explicit {
            Ok(r) => r,
            Err(e) => return OpOutcome::failed(format!("explicit check: {e}")),
        };
        t.count("verify.states", explicit.states_explored as f64);
        t.count("verify.transitions", explicit.transitions as f64);
        let bmc = t.layer("bmc", || {
            check(
                &program,
                &q.alphabet,
                &property,
                &CheckOptions {
                    env: Some(q.env.clone()),
                    backend: Backend::Bmc { depth: d.burst + 2 },
                    ..CheckOptions::default()
                },
            )
        });
        t.count("bmc.calls", 1.0);
        let bmc = match bmc {
            Ok(r) => r,
            Err(VerifyError::BmcUnsupported { reason }) => {
                t.count("bmc.unsupported", 1.0);
                return OpOutcome::failed(format!("BMC unsupported: {reason}"));
            }
            Err(e) => return OpOutcome::failed(format!("BMC check: {e}")),
        };
        if let Err(e) = check_pair(d, q.depth, &explicit, &bmc) {
            return OpOutcome::failed(e);
        }
        // replay the counterexample on the simulator: it must raise the alarm
        // at its last reaction
        if let Some(cx) = &explicit.counterexample {
            let replay = t
                .layer("sim.elab", || Simulator::for_program(&program))
                .and_then(|mut s| t.layer("sim", || s.run(&cx.to_scenario())));
            t.count("sim.reactions", cx.len() as f64);
            let alarm: SigName = "x1_alarm".into();
            match replay {
                Ok(run) if run.flow(&alarm).last() == Some(&Value::TRUE) => {}
                Ok(_) => return OpOutcome::failed("counterexample replay raised no alarm".into()),
                Err(e) => return OpOutcome::failed(format!("counterexample replay: {e}")),
            }
        }
        OpOutcome::ok(explicit.transitions as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answers(d: &Design, depth: usize) -> (CheckResult, CheckResult) {
        let p = check_program(&d.source).unwrap();
        let g =
            desynchronize(&p, &DesyncOptions::with_size(d.downstream_depth).size_of("x1", depth))
                .unwrap();
        let (alphabet, env) = d.environment();
        let prop = Property::never_true("x1_alarm");
        let e = check(
            &g.program,
            &alphabet,
            &prop,
            &CheckOptions { env: Some(env.clone()), ..Default::default() },
        )
        .unwrap();
        let b = check(
            &g.program,
            &alphabet,
            &prop,
            &CheckOptions {
                env: Some(env),
                backend: Backend::Bmc { depth: d.burst + 2 },
                ..Default::default()
            },
        )
        .unwrap();
        (e, b)
    }

    #[test]
    fn small_design_matches_the_analytic_verdicts() {
        let d = Design::new(2, 2, &[1], [2, 0, 3, 1]);
        for depth in [2, 1] {
            let (e, b) = answers(&d, depth);
            check_pair(&d, depth, &e, &b).unwrap();
        }
    }

    #[test]
    fn corrupted_answers_are_rejected() {
        let d = Design::new(2, 2, &[1], [0, 1, 2, 3]);
        let (e, b) = answers(&d, 1);
        // a flipped verdict
        let mut flipped = CheckResult { holds: true, counterexample: None, ..clone_result(&b) };
        assert!(check_pair(&d, 1, &e, &flipped).is_err());
        // a counterexample one reaction too long on one backend
        let mut longer = b.counterexample.clone().unwrap().letters().to_vec();
        longer.push(longer[0].clone());
        flipped = CheckResult {
            counterexample: Some(polysig::verify::Counterexample::new(longer)),
            ..clone_result(&b)
        };
        assert!(check_pair(&d, 1, &e, &flipped).is_err());
        // an explicit search that stopped early is no proof
        let (e_ok, b_ok) = answers(&d, 2);
        let cut = CheckResult { depth_bounded: true, ..clone_result(&e_ok) };
        assert!(check_pair(&d, 2, &cut, &b_ok).is_err());
    }

    fn clone_result(r: &CheckResult) -> CheckResult {
        CheckResult {
            holds: r.holds,
            counterexample: r.counterexample.clone(),
            states_explored: r.states_explored,
            transitions: r.transitions,
            pruned: r.pruned,
            depth_bounded: r.depth_bounded,
        }
    }
}
