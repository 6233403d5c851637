//! The bounded model checking driver: lazy unrolling, iterative deepening,
//! lexicographic counterexample minimization and bounded maximization.
//!
//! The transition relation is unrolled one step at a time, and each step's
//! feasibility constraints are asserted as *hard* clauses only once every
//! shorter depth has been queried — so a depth-`j` query is never
//! contaminated by step `j+1`'s constraints (a violating trace may well end
//! in a state with no feasible successor). The violation condition itself is
//! only ever passed as a solve-time *assumption*, never asserted.
//!
//! Because depths are queried in ascending order, the first satisfiable
//! depth is the minimal counterexample length — the same length the
//! explicit breadth-first checker finds. Within that depth the trace is
//! then minimized move by move in ascending letter order under the
//! violation assumption, which reproduces the explicit checker's
//! lexicographically-least counterexample exactly (BFS expands layers in
//! arena order and moves in letter order, so the first violation it reports
//! is the lexicographically-least shortest trace).

use std::collections::BTreeMap;

use minicdcl::Lit;
use polysig_lang::Program;
use polysig_sim::schedule::CompiledComponent;
use polysig_sim::Reactor;
use polysig_tagged::{SigName, Value, ValueType};

use crate::alphabet::{Alphabet, EnvAutomaton};
use crate::bound::BoundResult;
use crate::error::VerifyError;
use crate::prop::{Property, Shape};
use crate::reach::{CheckOptions, CheckResult};

use super::cnf::{Bit, Cnf};
use super::decode;
use super::encode::{encode_step, sym_of_value, SymFlow, SymVal};

fn unsupported(reason: impl Into<String>) -> VerifyError {
    VerifyError::BmcUnsupported { reason: reason.into() }
}

fn internal(reason: impl Into<String>) -> VerifyError {
    VerifyError::BmcInternal { reason: reason.into() }
}

/// One permitted environment move at one step of the unrolling.
struct Move {
    /// Source automaton state.
    state: u32,
    /// Letter index into the alphabet.
    letter: u32,
    /// Successor automaton state.
    next: u32,
    /// Selection literal: true iff the trace takes this move here.
    lit: Lit,
}

/// The lazily-unrolled transition relation.
struct Unroller {
    cnf: Cnf,
    cc: CompiledComponent,
    /// Per letter, per input (aligned with `cc.input_slots`): the driven
    /// value, `None` when the letter leaves the input absent.
    letters: Vec<Vec<Option<Value>>>,
    /// Environment automaton moves, tabulated per state in letter order.
    moves_of: Vec<Vec<(u32, u32)>>,
    /// Symbolic register file entering the next step.
    regs: Vec<SymVal>,
    /// Concretely-reachable automaton states at the current frontier, with
    /// their one-hot activation bits, in ascending state order.
    cur_states: Vec<(u32, Bit)>,
    /// Per encoded step: its moves, in (state, letter) order.
    step_moves: Vec<Vec<Move>>,
}

impl Unroller {
    fn new(
        program: &Program,
        alphabet: &Alphabet,
        env: Option<&EnvAutomaton>,
    ) -> Result<(Unroller, Reactor), VerifyError> {
        let reactor = Reactor::for_program_compiled(program)?;
        let cc = reactor
            .compiled_schedule()
            .cloned()
            .ok_or_else(|| unsupported("program does not lower to a static schedule"))?;

        // compile every letter onto the schedule's input layout; anything
        // the schedule would reject per-reaction (a driven non-input, an
        // ill-typed value) is rejected for the whole run instead
        let mut letters: Vec<Vec<Option<Value>>> = Vec::with_capacity(alphabet.len());
        for letter in alphabet.letters() {
            let mut row: Vec<Option<Value>> = vec![None; cc.input_slots.len()];
            for (name, v) in letter {
                let Some(id) = reactor.sig_id(name) else {
                    return Err(polysig_sim::SimError::NotAnInput { name: name.clone() }.into());
                };
                let Some(k) = cc.input_slots.iter().position(|&slot| slot as usize == id.index())
                else {
                    return Err(unsupported(format!("letter drives non-input signal `{name}`")));
                };
                if v.ty() != cc.input_types[k] {
                    return Err(unsupported(format!("letter value for `{name}` is ill-typed")));
                }
                row[k] = Some(*v);
            }
            letters.push(row);
        }

        let free_env;
        let env = match env {
            Some(e) => e,
            None => {
                free_env = EnvAutomaton::free(alphabet);
                &free_env
            }
        };
        let moves_of: Vec<Vec<(u32, u32)>> = (0..env.state_count())
            .map(|s| env.moves(s).map(|(li, to)| (li as u32, to as u32)).collect())
            .collect();

        let cnf = Cnf::new();
        let regs: Vec<SymVal> =
            reactor.registers().iter().map(|v| sym_of_value(&cnf, *v)).collect();
        let un = Unroller {
            cnf,
            cc,
            letters,
            moves_of,
            regs,
            cur_states: vec![(0, Bit::Const(true))],
            step_moves: Vec::new(),
        };
        Ok((un, reactor))
    }

    /// Encodes one more step of the transition relation, returning the
    /// step's decided signal flows. All feasibility constraints are hard;
    /// nothing here mentions the property.
    fn push_step(&mut self) -> Result<Vec<SymFlow>, VerifyError> {
        // the step's environment moves, from concretely-reachable states
        let mut moves: Vec<Move> = Vec::new();
        for &(s, sbit) in &self.cur_states {
            for &(li, next) in &self.moves_of[s as usize] {
                let lit = self.cnf.fresh_lit();
                // a move is only available when its source state is live
                self.cnf.assert_clause(&[Bit::Lit(!lit), sbit]);
                moves.push(Move { state: s, letter: li, next, lit });
            }
        }
        let move_bits: Vec<Bit> = moves.iter().map(|m| Bit::Lit(m.lit)).collect();
        self.cnf.exactly_one(&move_bits);

        // successor automaton states: one-hot by construction (exactly one
        // move fires and each move has one target)
        let mut incoming: BTreeMap<u32, Vec<Bit>> = BTreeMap::new();
        for m in &moves {
            incoming.entry(m.next).or_default().push(Bit::Lit(m.lit));
        }
        self.cur_states = incoming
            .into_iter()
            .map(|(s, bits)| {
                let b = self.cnf.or_many(&bits);
                (s, b)
            })
            .collect();

        // the step's inputs, as multiplexers over the selected move
        let mut inputs: Vec<(Bit, SymVal)> = Vec::with_capacity(self.cc.input_slots.len());
        for k in 0..self.cc.input_slots.len() {
            let driving: Vec<(&Move, Value)> = moves
                .iter()
                .filter_map(|m| self.letters[m.letter as usize][k].map(|v| (m, v)))
                .collect();
            let pres_bits: Vec<Bit> = driving.iter().map(|(m, _)| Bit::Lit(m.lit)).collect();
            let pres = self.cnf.or_many(&pres_bits);
            let val = match self.cc.input_types[k] {
                ValueType::Bool => {
                    let on: Vec<Bit> = driving
                        .iter()
                        .filter(|(_, v)| v.is_true())
                        .map(|(m, _)| Bit::Lit(m.lit))
                        .collect();
                    SymVal::B(self.cnf.or_many(&on))
                }
                ValueType::Int => {
                    // bits no driven value sets are constant false; the
                    // rest share one selection buffer
                    let set_bits = driving.iter().fold(0u64, |acc, (_, v)| match v {
                        Value::Int(i) => acc | *i as u64,
                        Value::Bool(_) => acc,
                    });
                    let mut on: Vec<Bit> = Vec::with_capacity(driving.len());
                    let mut word = Vec::with_capacity(super::cnf::W);
                    for j in 0..super::cnf::W {
                        if (set_bits >> j) & 1 == 0 {
                            word.push(Bit::Const(false));
                            continue;
                        }
                        on.clear();
                        on.extend(
                            driving
                                .iter()
                                .filter(|(_, v)| matches!(v, Value::Int(i) if (*i >> j) & 1 == 1))
                                .map(|(m, _)| Bit::Lit(m.lit)),
                        );
                        word.push(self.cnf.or_many(&on));
                    }
                    SymVal::I(word)
                }
            };
            inputs.push((pres, val));
        }

        let io = encode_step(&mut self.cnf, &self.cc, &self.regs, &inputs).map_err(unsupported)?;
        self.regs = io.regs_out;
        self.step_moves.push(moves);
        Ok(io.outputs)
    }

    /// After a SAT answer at the deepest encoded step, fixes the trace one
    /// move at a time in ascending letter order under the violation
    /// assumption, tracking the automaton state concretely. Returns the
    /// letter index sequence — the lexicographically-least shortest
    /// violating trace.
    ///
    /// The scan reuses models: the latest SAT model satisfies the fixed
    /// prefix plus the violation, so the move it takes at step `t` is known
    /// to be feasible there. Reaching that move, the scan takes it without
    /// a solve; only the smaller candidates before it are solved. The
    /// first feasible candidate in ascending order is therefore the same
    /// one an all-solving scan picks.
    fn lex_minimize(&mut self, viol: Lit) -> Result<Vec<usize>, VerifyError> {
        // kept explicitly: the scan's UNSAT solves discard the model
        let mut model_moves = self.model_moves();
        let mut fixed: Vec<Lit> = Vec::new();
        let mut assumptions: Vec<Lit> = Vec::new();
        let mut seq: Vec<usize> = Vec::new();
        let mut state = 0u32;
        for t in 0..self.step_moves.len() {
            let mut chosen: Option<(u32, u32)> = None;
            for (i, m) in self.step_moves[t].iter().enumerate().filter(|(_, m)| m.state == state) {
                if model_moves[t] != Some(i) {
                    assumptions.clear();
                    assumptions.extend_from_slice(&fixed);
                    assumptions.push(m.lit);
                    assumptions.push(viol);
                    if !self.cnf.solver.solve_assuming(&assumptions) {
                        continue;
                    }
                    model_moves = self.model_moves();
                }
                chosen = Some((m.letter, m.next));
                fixed.push(m.lit);
                break;
            }
            let Some((letter, next)) = chosen else {
                return Err(internal(format!(
                    "no feasible move at step {t} while minimizing a satisfiable trace"
                )));
            };
            seq.push(letter as usize);
            state = next;
        }
        Ok(seq)
    }

    /// Per encoded step, the position of the move the latest SAT model
    /// takes (exactly one move is selected per step).
    fn model_moves(&self) -> Vec<Option<usize>> {
        self.step_moves
            .iter()
            .map(|moves| moves.iter().position(|m| self.cnf.solver.model_value(m.lit)))
            .collect()
    }
}

/// The property shapes the encoder understands, bound to a signal's dense
/// index (`None`: the program never declares the signal — trivially safe).
enum PropSpec {
    NeverTrue(Option<usize>),
    NeverPresent(Option<usize>),
    InRange(Option<usize>, i64, i64),
}

fn prop_spec(property: &Property, reactor: &Reactor) -> Result<PropSpec, VerifyError> {
    let ix = |s: &SigName| reactor.sig_id(s).map(|id| id.index());
    match property.shape() {
        Shape::NeverTrue(s) => Ok(PropSpec::NeverTrue(ix(s))),
        Shape::NeverPresent(s) => Ok(PropSpec::NeverPresent(ix(s))),
        Shape::InRange(s, lo, hi) => Ok(PropSpec::InRange(ix(s), *lo, *hi)),
        Shape::Custom => {
            Err(unsupported("custom property predicates cannot be encoded symbolically"))
        }
    }
}

/// The violation bit of one step's outputs: true iff this reaction breaks
/// the property. Every signal slot is decided, so the bit is exact.
fn violation_bit(cnf: &mut Cnf, outputs: &[SymFlow], spec: &PropSpec) -> Bit {
    match spec {
        PropSpec::NeverTrue(Some(ix)) => match &outputs[*ix] {
            SymFlow::Dyn { pres, val: Some(SymVal::B(b)), .. } => cnf.and(*pres, *b),
            // integer-valued, never-valued or constant slots are never
            // present with `Value::TRUE`
            _ => Bit::Const(false),
        },
        PropSpec::NeverPresent(Some(ix)) => match &outputs[*ix] {
            SymFlow::Dyn { pres, .. } => *pres,
            SymFlow::Ubiq(_) => Bit::Const(false),
        },
        PropSpec::InRange(Some(ix), lo, hi) => match &outputs[*ix] {
            SymFlow::Dyn { pres, val: Some(SymVal::I(w)), .. } => {
                let low = cnf.word_const(*lo);
                let high = cnf.word_const(*hi);
                let below = cnf.slt(w, &low);
                let above = cnf.slt(&high, w);
                let out = cnf.or(below, above);
                cnf.and(*pres, out)
            }
            _ => Bit::Const(false),
        },
        _ => Bit::Const(false),
    }
}

/// Bounded check of `property` up to `depth` reactions — the
/// [`crate::bmc::Backend::Bmc`] implementation behind [`crate::check`].
pub(crate) fn run_check(
    program: &Program,
    alphabet: &Alphabet,
    property: &Property,
    options: &CheckOptions,
    depth: usize,
) -> Result<CheckResult, VerifyError> {
    check_counting_solves(program, alphabet, property, options, depth).map(|(r, _)| r)
}

/// [`run_check`], plus the number of SAT solves it made (depth queries and
/// lexicographic minimization together).
fn check_counting_solves(
    program: &Program,
    alphabet: &Alphabet,
    property: &Property,
    options: &CheckOptions,
    depth: usize,
) -> Result<(CheckResult, u64), VerifyError> {
    if alphabet.is_empty() {
        return Err(VerifyError::EmptyAlphabet);
    }
    let (mut un, reactor) = Unroller::new(program, alphabet, options.env.as_ref())?;
    let spec = prop_spec(property, &reactor)?;
    drop(reactor);

    for _ in 0..depth {
        let outputs = un.push_step()?;
        let viol = violation_bit(&mut un.cnf, &outputs, &spec);
        let vlit = un.cnf.lit(viol);
        if un.cnf.solver.solve_assuming(&[vlit]) {
            let seq = un.lex_minimize(vlit)?;
            let cx = decode::replay(program, alphabet, &seq, property)?;
            let result = CheckResult {
                holds: false,
                counterexample: Some(cx),
                states_explored: 0,
                transitions: 0,
                pruned: 0,
                depth_bounded: false,
            };
            return Ok((result, un.cnf.solver.num_solves()));
        }
    }
    let result = CheckResult {
        holds: true,
        counterexample: None,
        states_explored: 0,
        transitions: 0,
        pruned: 0,
        depth_bounded: true,
    };
    Ok((result, un.cnf.solver.num_solves()))
}

/// Bounded maximization of an integer signal up to `depth` reactions — the
/// symbolic counterpart of [`crate::bound::max_signal_value`].
pub(crate) fn run_bound(
    program: &Program,
    alphabet: &Alphabet,
    env: Option<&EnvAutomaton>,
    signal: &SigName,
    depth: usize,
) -> Result<BoundResult, VerifyError> {
    if alphabet.is_empty() {
        return Err(VerifyError::EmptyAlphabet);
    }
    let (mut un, reactor) = Unroller::new(program, alphabet, env)?;
    // an undeclared signal never ticks, exactly like the explicit bound
    let Some(ix) = reactor.sig_id(signal).map(|id| id.index()) else {
        return Ok(BoundResult {
            max: None,
            states_explored: 0,
            transitions: 0,
            depth_bounded: true,
        });
    };
    drop(reactor);

    let mut best: Option<i64> = None;
    for _ in 0..depth {
        let outputs = un.push_step()?;
        let (pres, word) = match &outputs[ix] {
            SymFlow::Dyn { pres, val: Some(SymVal::I(w)), .. } => (*pres, w.clone()),
            // boolean, never-valued or constant slots contribute no value
            _ => continue,
        };
        // threshold maximization: repeatedly demand a strictly larger
        // observation at this step until the solver refutes one
        loop {
            let above = match best {
                None => Bit::Const(true),
                Some(b) => {
                    let bw = un.cnf.word_const(b);
                    un.cnf.slt(&bw, &word)
                }
            };
            let q = un.cnf.and(pres, above);
            let qlit = un.cnf.lit(q);
            if un.cnf.solver.solve_assuming(&[qlit]) {
                best = Some(un.cnf.word_model(&word));
            } else {
                break;
            }
        }
    }
    Ok(BoundResult { max: best, states_explored: 0, transitions: 0, depth_bounded: true })
}

#[cfg(test)]
mod tests {
    use super::check_counting_solves;
    use crate::alphabet::Alphabet;
    use crate::bmc::Backend;
    use crate::prop::Property;
    use crate::reach::CheckOptions;
    use polysig_gals::nfifo::nfifo_component;
    use polysig_lang::Program;

    #[test]
    fn overflow_query_solve_count_is_pinned() {
        // depths 1 and 2 are refuted, depth 3 is satisfiable (3 solves);
        // minimizing its three moves then solves only the candidates that
        // sort before each model's own move (11 more). A scan that solved
        // every candidate, the model's move included, would make 15.
        let p = Program::single(nfifo_component("ch", 2));
        let alphabet = Alphabet::exhaustive(&p, &[1]).unwrap();
        let options = CheckOptions { backend: Backend::Bmc { depth: 3 }, ..Default::default() };
        let (r, solves) =
            check_counting_solves(&p, &alphabet, &Property::never_true("ch_alarm"), &options, 3)
                .unwrap();
        assert!(!r.holds);
        assert_eq!(r.counterexample.unwrap().len(), 3);
        assert_eq!(solves, 14, "depth queries plus minimization solves");
    }
}
