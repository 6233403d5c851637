//! Proving exact worst-case bounds by exhaustive exploration.
//!
//! The paper's conclusion asks for algorithms "to make the buffer size
//! estimation and proof automatic". Given a finite-state program and a
//! rate-constrained environment automaton, [`max_signal_value`] explores
//! the *entire* reachable space and returns the largest value an integer
//! signal ever takes — applied to a channel's occupancy `count`, that is a
//! *proof* of the worst-case buffer requirement, not an estimate.
//!
//! The exploration runs on the same layer-synchronous engine as
//! [`crate::reach::check`]; [`max_signal_value_with`] exposes the worker
//! thread count (the maximum is a commutative fold, so the result is
//! identical at any thread count).

use polysig_lang::Program;
use polysig_sim::{par, ReactionView, Reactor};
use polysig_tagged::{SigId, SigName, Value};

use crate::alphabet::{Alphabet, EnvAutomaton};
use crate::bmc::Backend;
use crate::error::VerifyError;
use crate::frontier::{self, Inspect};

/// Result of a bound computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundResult {
    /// The maximum value the signal was ever observed to take (`None` when
    /// it never ticked on any reachable path).
    pub max: Option<i64>,
    /// Distinct states visited (the whole reachable space; `0` under the
    /// symbolic backend, which visits no explicit states).
    pub states_explored: usize,
    /// Reactions executed.
    pub transitions: usize,
    /// `true` iff the bound only covers traces up to a depth cutoff (the
    /// symbolic backend); the explicit exploration is exhaustive, so its
    /// maximum is a proven invariant and this is `false`.
    pub depth_bounded: bool,
}

/// Tracks the running maximum of the watched signal across reactions.
struct MaxInspect {
    watched: Option<SigId>,
}

impl Inspect for MaxInspect {
    type Acc = Option<i64>;

    #[inline]
    fn inspect(&self, reaction: ReactionView<'_>, acc: &mut Option<i64>) -> bool {
        if let Some(watched) = self.watched {
            if let Some(v) = reaction.get(watched).and_then(Value::as_int) {
                *acc = Some(acc.map_or(v, |m| m.max(v)));
            }
        }
        false
    }

    fn merge(into: &mut Option<i64>, from: Option<i64>) {
        if let Some(v) = from {
            *into = Some(into.map_or(v, |m| m.max(v)));
        }
    }
}

/// Explores every reachable state of `program` under `alphabet`/`env` and
/// returns the maximum value ever carried by integer signal `signal`.
///
/// Because the exploration is exhaustive (it aborts rather than truncate),
/// the returned maximum is a proven invariant: `signal ≤ max` on every
/// execution the environment permits.
///
/// Uses the workspace default worker count; see [`max_signal_value_with`]
/// to pin it.
///
/// # Errors
///
/// * [`VerifyError::EmptyAlphabet`] — nothing to explore;
/// * [`VerifyError::StateCapExceeded`] — the space exceeds `max_states`
///   (the bound would be unsound, so no partial answer is returned);
/// * [`VerifyError::Sim`] — a non-clock program error.
pub fn max_signal_value(
    program: &Program,
    alphabet: &Alphabet,
    env: Option<&EnvAutomaton>,
    signal: &SigName,
    max_states: usize,
) -> Result<BoundResult, VerifyError> {
    max_signal_value_with(program, alphabet, env, signal, max_states, par::default_threads())
}

/// [`max_signal_value`] with an explicit worker thread count.
///
/// `threads == 1` never spawns; larger values fan each sufficiently large
/// BFS layer across scoped workers. The proven bound and every counter are
/// identical for every `threads` value.
pub fn max_signal_value_with(
    program: &Program,
    alphabet: &Alphabet,
    env: Option<&EnvAutomaton>,
    signal: &SigName,
    max_states: usize,
    threads: usize,
) -> Result<BoundResult, VerifyError> {
    if alphabet.is_empty() {
        return Err(VerifyError::EmptyAlphabet);
    }
    let mut reactor = Reactor::for_program(program)?;
    let free_env;
    let env = match env {
        Some(e) => e,
        None => {
            free_env = EnvAutomaton::free(alphabet);
            &free_env
        }
    };

    let compiled = frontier::compile_boundary(&reactor, alphabet, env)?;
    // an undeclared signal never ticks, so `None` just leaves `max` empty
    let inspect = MaxInspect { watched: reactor.sig_id(signal) };
    let e = frontier::explore(&mut reactor, &compiled, &inspect, max_states, None, threads)?;
    Ok(BoundResult {
        max: e.acc,
        states_explored: e.states,
        transitions: e.transitions,
        depth_bounded: false,
    })
}

/// [`max_signal_value`] dispatched through [`CheckOptions`]: the explicit
/// exhaustive exploration under [`Backend::Explicit`] (using the options'
/// state cap, environment and thread count), or the symbolic bounded
/// maximization under [`Backend::Bmc`] (the returned bound then only covers
/// traces up to that depth — `depth_bounded` is set).
///
/// # Errors
///
/// As [`max_signal_value`]; the symbolic backend additionally reports
/// [`VerifyError::BmcUnsupported`] outside its encodable fragment.
pub fn max_signal_value_opts(
    program: &Program,
    alphabet: &Alphabet,
    signal: &SigName,
    options: &crate::reach::CheckOptions,
) -> Result<BoundResult, VerifyError> {
    match options.backend {
        Backend::Explicit => max_signal_value_with(
            program,
            alphabet,
            options.env.as_ref(),
            signal,
            options.max_states,
            options.threads,
        ),
        Backend::Bmc { depth } => {
            crate::bmc::run_bound(program, alphabet, options.env.as_ref(), signal, depth)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Letter;
    use polysig_gals::nfifo::nfifo_component;
    use polysig_gals::{desynchronize, DesyncOptions};
    use polysig_lang::parse_program;

    fn letters(seq: &[(&[(&str, Value)], usize)]) -> (Alphabet, EnvAutomaton) {
        // seq of (letter contents, _) cycled
        let ls: Vec<Letter> = seq
            .iter()
            .map(|(pairs, _)| {
                pairs.iter().map(|(n, v)| (SigName::from(*n), *v)).collect::<Letter>()
            })
            .collect();
        let mut alphabet = Alphabet::from_letters(ls.clone()).unwrap();
        let env = EnvAutomaton::cycle(&mut alphabet, &ls);
        (alphabet, env)
    }

    #[test]
    fn proves_fifo_occupancy_bound() {
        // 2 writes then 2 reads, cycled, on a depth-3 FIFO. The *ideal*
        // queue bound for this environment is 2; the chain's ripple latency
        // (early reads miss while items are still in transit) provably
        // retains one more item: the exhaustive exploration certifies 3 —
        // an honest measurement of the Section-5.1 construction's cost.
        let p = polysig_lang::Program::single(nfifo_component("ch", 3));
        let (alphabet, env) = letters(&[
            (&[("tick", Value::TRUE), ("ch_in", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("ch_in", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("ch_rd", Value::TRUE)], 0),
            (&[("tick", Value::TRUE), ("ch_rd", Value::TRUE)], 0),
        ]);
        let r = max_signal_value(&p, &alphabet, Some(&env), &"ch_count".into(), 100_000).unwrap();
        assert_eq!(r.max, Some(3), "ideal bound 2 + one in-ripple item");
        assert!(r.states_explored > 1);
        // sanity: the bound can never exceed the declared depth
        assert!(r.max.unwrap() <= 3);
    }

    #[test]
    fn proven_bound_equals_the_minimal_safe_depth() {
        // the "automatic proof" workflow: prove the occupancy bound on a
        // generously sized channel, then check the bound-sized channel is
        // alarm-free — estimation made exact
        let prog = parse_program(
            "process P { input a: int; output x: int; x := a; } \
             process Q { input x: int; output y: int; y := x; }",
        )
        .unwrap();
        let generous = desynchronize(&prog, &DesyncOptions::with_size(6)).unwrap();
        let (alphabet, env) = letters(&[
            (&[("tick", Value::TRUE), ("a", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("a", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("x_rd", Value::TRUE)], 0),
            (&[("tick", Value::TRUE), ("x_rd", Value::TRUE)], 0),
        ]);
        let r =
            max_signal_value(&generous.program, &alphabet, Some(&env), &"x_count".into(), 100_000)
                .unwrap();
        let bound = r.max.unwrap() as usize;
        // at least the ideal backlog of 2; bounded by the generous depth
        assert!((2..=6).contains(&bound), "got {bound}");
        // the proven bound is safe…
        let sized = desynchronize(&prog, &DesyncOptions::with_size(bound)).unwrap();
        let (alphabet2, env2) = letters(&[
            (&[("tick", Value::TRUE), ("a", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("a", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("x_rd", Value::TRUE)], 0),
            (&[("tick", Value::TRUE), ("x_rd", Value::TRUE)], 0),
        ]);
        let safe = crate::reach::check(
            &sized.program,
            &alphabet2,
            &crate::prop::Property::never_true("x_alarm"),
            &crate::reach::CheckOptions { env: Some(env2), ..Default::default() },
        )
        .unwrap();
        assert!(safe.holds);
    }

    #[test]
    fn never_ticking_signal_has_no_max() {
        // a mod-4 counter plus a signal sampled on an impossible condition
        let p = parse_program(
            "process P { input tick: bool; output n: int, m: int; \
             n := (0 when ((pre 0 n) = 3)) default ((pre 0 n) + 1); n ^= tick; \
             m := n when (n < 0); }",
        )
        .unwrap();
        let alphabet = Alphabet::exhaustive(&p, &[]).unwrap();
        let r = max_signal_value(&p, &alphabet, None, &"m".into(), 10_000).unwrap();
        assert_eq!(r.max, None, "m never ticks (n is never negative)");
        // while n's own maximum is proven
        let rn = max_signal_value(&p, &alphabet, None, &"n".into(), 10_000).unwrap();
        assert_eq!(rn.max, Some(3));
    }

    #[test]
    fn cap_aborts_rather_than_underestimates() {
        let p = parse_program(
            "process C { input tick: bool; output n: int; \
             n := ((pre 0 n) when tick) + 1; n ^= tick; }",
        )
        .unwrap();
        let alphabet = Alphabet::exhaustive(&p, &[]).unwrap();
        let err = max_signal_value(&p, &alphabet, None, &"n".into(), 10).unwrap_err();
        assert!(matches!(err, VerifyError::StateCapExceeded { .. }));
    }

    #[test]
    fn bound_is_thread_count_invariant() {
        let p = polysig_lang::Program::single(nfifo_component("ch", 3));
        let (alphabet, env) = letters(&[
            (&[("tick", Value::TRUE), ("ch_in", Value::Int(1))], 0),
            (&[("tick", Value::TRUE), ("ch_rd", Value::TRUE)], 0),
        ]);
        let seq = max_signal_value_with(&p, &alphabet, Some(&env), &"ch_count".into(), 100_000, 1)
            .unwrap();
        for threads in [2, 4, 8] {
            let par = max_signal_value_with(
                &p,
                &alphabet,
                Some(&env),
                &"ch_count".into(),
                100_000,
                threads,
            )
            .unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }
}
