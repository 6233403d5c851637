//! Lowering a scheduled reaction system to a [`CompiledComponent`].
//!
//! The lowering succeeds exactly when the clock analysis plus the static
//! equation schedule yield a *total order* in which every signal's presence
//! and value can be decided by a single linear sweep — the operational
//! content of endochrony (Theorem 1): the clock hierarchy is rooted in the
//! inputs, so no micro-step fixpoint is required. Each equation gets its
//! presence from one of three sources, tried in order:
//!
//! 1. **Direct** — every signal the right-hand side reads is already
//!    decided, so evaluating it decides the left-hand side too.
//! 2. **Group fold** — the left-hand side's clock group contains an external
//!    input, so an [`Op::EvalClock`] decides its presence up front (the
//!    compiled mirror of the interpreter's first propagation sweep).
//! 3. **Structural clock** — a sub-expression of the right-hand side that
//!    avoids the (still undecided) left-hand side witnesses its presence:
//!    e.g. for `n := (pre 0 n) + (1 when tick)` the `1 when tick` branch is
//!    evaluated first and [`Op::SetClockFrom`] transfers its presence to
//!    `n`, exactly as the interpreter's synchronous-operand rule would.
//!
//! Equations are taken in the static schedule order, which respects only
//! *instantaneous* dependencies. An equation whose clock can only be
//! witnessed through a signal read under `pre` (e.g. `y := pre 0 x` where
//! `x`'s equation comes later) fits none of these yet; it is rolled back
//! and retried once more signals are decided, so the emitted order is the
//! schedule order with such equations moved after their witnesses.
//!
//! If a whole pass over the deferred equations lowers none of them (or the
//! schedule is cyclic, a signal is defined twice, or a non-input signal has
//! no defining equation at all), `lower` returns `None` and the reactor
//! keeps the interpreter — lowering failure is never an error, only a lost
//! optimization. The static admissibility predicates below are deliberately
//! conservative: they reject any equation whose compiled evaluation *could*
//! hit an undecided or unvalued operand at runtime, so a lowered schedule
//! bails only on genuinely ill-clocked reactions (which the interpreter
//! then reports identically). Rejecting undefined non-inputs also makes the
//! executor's "every signal slot decided" invariant a static fact, so no
//! runtime scan is needed.
//!
//! Expressions are flattened to three-address code: every sub-expression
//! result lives in a dedicated temporary slot, constants are interned once
//! into read-only ubiquitous slots, and the last op of each equation
//! carries the guarded-assign mode committing the left-hand side.

use std::collections::BTreeSet;

use polysig_tagged::{Value, ValueType};

use crate::ir::CExpr;
use crate::schedule::{CompiledComponent, Flow, Mode, Op};

/// Everything the lowering needs from an elaborated reactor.
pub(crate) struct LowerInput<'a> {
    /// Number of declared signals (dense slot count).
    pub signal_count: usize,
    /// `is_input[id]` — the signal is an external input.
    pub is_input: &'a [bool],
    /// Declared type per signal (seeding type-checks inputs).
    pub types: &'a [ValueType],
    /// Compiled equations in static schedule order (must be acyclic).
    pub equations: &'a [(usize, CExpr)],
    /// Clock-equality groups over dense indices.
    pub groups: &'a [Vec<usize>],
    /// `(sub, sup)` group-index pairs: sub's clock ⊆ sup's clock.
    pub subset_edges: &'a BTreeSet<(usize, usize)>,
}

/// Lowers a scheduled reaction system; `None` when no static total order
/// exists (the caller falls back to the interpreter).
pub(crate) fn lower(inp: &LowerInput<'_>) -> Option<CompiledComponent> {
    let n = inp.signal_count;
    let mut lw = Lowerer {
        value: inp.is_input.to_vec(),
        presence: inp.is_input.to_vec(),
        init_slots: vec![Flow::Absent; n],
        consts: Vec::new(),
        ops: Vec::new(),
    };

    // phase A: groups anchored by an input decide all their members up
    // front, mirroring the interpreter's first clock-propagation sweep.
    // `EvalClock` checks its fold's uniformity itself and every member's
    // guarded assign preserves the decided presence, so anchored groups
    // need no epilogue uniformity check.
    let mut anchored = vec![false; inp.groups.len()];
    for (g, group) in inp.groups.iter().enumerate() {
        let fold: Vec<u32> =
            group.iter().filter(|&&i| inp.is_input[i]).map(|&i| i as u32).collect();
        if fold.is_empty() {
            continue;
        }
        let members: Vec<u32> =
            group.iter().filter(|&&i| !inp.is_input[i]).map(|&i| i as u32).collect();
        if members.is_empty() {
            // an all-input group is still uniform-checked by the fold
            if fold.len() > 1 {
                anchored[g] = true;
                lw.ops.push(Op::EvalClock { fold: fold.into(), members: members.into() });
            }
            continue;
        }
        for &m in &members {
            lw.presence[m as usize] = true;
        }
        anchored[g] = true;
        lw.ops.push(Op::EvalClock { fold: fold.into(), members: members.into() });
    }

    // inputs with equations and double definitions would need join
    // machinery the linear schedule does not have, and a non-input the
    // equations never define would stay undecided at runtime (the
    // interpreter's UndeterminedClock error): no schedule either way
    let mut defined = vec![false; n];
    for &(lhs, _) in inp.equations {
        if inp.is_input[lhs] || defined[lhs] {
            return None;
        }
        defined[lhs] = true;
    }
    if (0..n).any(|i| !inp.is_input[i] && !defined[i]) {
        return None;
    }

    // phase B: one (witness +) evaluate-and-assign block per equation, in
    // passes over the pending equations in schedule order; an equation
    // whose witness is not decided yet waits for the next pass (see the
    // module docs), and a pass that lowers nothing means no static order
    // exists
    let mut pending: Vec<&(usize, CExpr)> = inp.equations.iter().collect();
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|&(lhs, rhs)| !lw.try_equation(*lhs, rhs));
        if pending.len() == before {
            return None;
        }
    }

    // phase C: register updates, re-evaluating each `pre` body in the
    // interpreter's collection order (everything is decided by now, so no
    // static admissibility applies)
    let split = lw.ops.len();
    for (_, rhs) in inp.equations {
        if rhs.has_pre() {
            lw.emit_register_updates(rhs);
        }
    }
    let reg_ops = coalesce_register_shifts(lw.ops.split_off(split));

    let input_slots: Box<[u32]> = (0..n).filter(|&i| inp.is_input[i]).map(|i| i as u32).collect();
    let input_types: Box<[ValueType]> =
        input_slots.iter().map(|&i| inp.types[i as usize]).collect();
    // epilogue checks: uniformity for multi-member groups `EvalClock` does
    // not cover, and every subset edge (by group representative — groups
    // are uniform once checked, so one member stands for all)
    let check_groups: Box<[Box<[u32]>]> = inp
        .groups
        .iter()
        .enumerate()
        .filter(|&(g, group)| !anchored[g] && group.len() > 1)
        .map(|(_, group)| group.iter().map(|&i| i as u32).collect())
        .collect();
    let discharged = discharged_edges(inp);
    let check_edges: Box<[(u32, u32)]> = inp
        .subset_edges
        .iter()
        .filter(|e| !discharged.contains(e))
        .map(|&(sub, sup)| (inp.groups[sub][0] as u32, inp.groups[sup][0] as u32))
        .collect();
    Some(CompiledComponent {
        ops: lw.ops,
        reg_ops,
        init_slots: lw.init_slots.into(),
        input_slots,
        input_types,
        signal_count: n as u32,
        check_groups,
        check_edges,
    })
}

/// Emission state: what is decided so far, the growing slot image and op
/// stream.
struct Lowerer {
    /// `value[i]` — slot `i`'s value is decided when read.
    value: Vec<bool>,
    /// `presence[i]` — slot `i`'s presence is decided when read.
    presence: Vec<bool>,
    /// Initial slot image (constants preloaded, everything else absent).
    init_slots: Vec<Flow>,
    /// Interned constants: value → slot.
    consts: Vec<(Value, u32)>,
    /// The op stream.
    ops: Vec<Op>,
}

impl Lowerer {
    /// Lowers `lhs := rhs` when every signal it needs is decided; otherwise
    /// rolls back the ops, slots, constants and presence mark the attempt
    /// allocated and returns `false`.
    fn try_equation(&mut self, lhs: usize, rhs: &CExpr) -> bool {
        let (ops, slots, consts, presence) =
            (self.ops.len(), self.init_slots.len(), self.consts.len(), self.presence[lhs]);
        if self.lower_equation(lhs, rhs).is_some() {
            return true;
        }
        self.ops.truncate(ops);
        self.init_slots.truncate(slots);
        self.consts.truncate(consts);
        self.presence[lhs] = presence;
        false
    }

    /// Emits `lhs := rhs` (with a structural witness when needed), or
    /// `None` when some signal it needs is still undecided.
    fn lower_equation(&mut self, lhs: usize, rhs: &CExpr) -> Option<()> {
        if !self.admissible(rhs) {
            if self.presence[lhs] {
                return None;
            }
            // structural clock: derive the presence from a decidable
            // sub-expression, then re-check admissibility with the
            // left-hand side's presence known
            let (witness, ubiquitous) = self.clock_plan(rhs)?;
            if ubiquitous {
                return None;
            }
            self.ops.push(Op::SetClockFrom { dst: lhs as u32, src: witness });
            self.presence[lhs] = true;
            if !self.admissible(rhs) {
                return None;
            }
        }
        // a possibly-ubiquitous result needs an already-decided clock to
        // anchor to
        if maybe_ubiquitous(rhs) && !self.presence[lhs] {
            return None;
        }
        let m = if self.presence[lhs] { Mode::GuardAtClock } else { Mode::Guard };
        self.emit(rhs, m, lhs as u32);
        self.value[lhs] = true;
        self.presence[lhs] = true;
        Some(())
    }

    /// A fresh expression temporary.
    fn temp(&mut self) -> u32 {
        self.init_slots.push(Flow::Absent);
        (self.init_slots.len() - 1) as u32
    }

    /// The read-only slot holding `v` as a ubiquitous constant.
    fn konst(&mut self, v: Value) -> u32 {
        if let Some(&(_, s)) = self.consts.iter().find(|&&(w, _)| w == v) {
            return s;
        }
        self.init_slots.push(Flow::Ubiquitous(v));
        let s = (self.init_slots.len() - 1) as u32;
        self.consts.push((v, s));
        s
    }

    /// The slot holding `e`'s value: signals and constants read in place,
    /// anything compound is evaluated into a temporary.
    fn operand(&mut self, e: &CExpr) -> u32 {
        match e {
            CExpr::Var(i) => *i as u32,
            CExpr::Const(v) => self.konst(*v),
            _ => {
                let t = self.temp();
                self.emit(e, Mode::Temp, t);
                t
            }
        }
    }

    /// Emits the evaluation of `e` with the root op storing into `dst`
    /// under `m` (the guarded-assign fusion point).
    fn emit(&mut self, e: &CExpr, m: Mode, dst: u32) {
        match e {
            CExpr::Var(i) => self.ops.push(Op::Mov { m, dst, src: *i as u32 }),
            CExpr::Const(v) => {
                let src = self.konst(*v);
                self.ops.push(Op::Mov { m, dst, src });
            }
            CExpr::Pre { reg, body } => {
                let body = self.operand(body);
                self.ops.push(Op::Pre { m, dst, reg: *reg as u32, body });
            }
            CExpr::When { body, cond } => match body.as_ref() {
                // the clocked-state idiom `(pre x) when c` fuses into one
                // op, as do sampled pointwise operators
                CExpr::Pre { reg, body: delayed } => {
                    let body = self.operand(delayed);
                    let cond = self.operand(cond);
                    self.ops.push(Op::PreWhen { m, dst, reg: *reg as u32, body, cond });
                }
                CExpr::Unary { op, arg } => {
                    let arg = self.operand(arg);
                    let cond = self.operand(cond);
                    self.ops.push(Op::UnaryWhen { m, dst, op: *op, arg, cond });
                }
                CExpr::Binary { op, left, right } => {
                    let left = self.operand(left);
                    let right = self.operand(right);
                    let cond = self.operand(cond);
                    self.ops.push(Op::BinaryWhen { m, dst, op: *op, left, right, cond });
                }
                _ => {
                    let body = self.operand(body);
                    let cond = self.operand(cond);
                    self.ops.push(Op::When { m, dst, body, cond });
                }
            },
            CExpr::Default { left, right } => {
                // the clocked-constant fallback `x default (k when c)`
                // fuses into one op
                if let CExpr::When { body, cond } = right.as_ref() {
                    if let CExpr::Const(v) = body.as_ref() {
                        let konst = self.konst(*v);
                        let left = self.operand(left);
                        let cond = self.operand(cond);
                        self.ops.push(Op::DefaultConstAt { m, dst, left, konst, cond });
                        return;
                    }
                }
                let left = self.operand(left);
                let right = self.operand(right);
                self.ops.push(Op::DefaultMerge { m, dst, left, right });
            }
            CExpr::Unary { op, arg } => {
                let arg = self.operand(arg);
                self.ops.push(Op::Unary { m, dst, op: *op, arg });
            }
            CExpr::Binary { op, left, right } => {
                let left = self.operand(left);
                let right = self.operand(right);
                self.ops.push(Op::Binary { m, dst, op: *op, left, right });
            }
        }
    }

    /// A signal readable during lowering: value known, or at least
    /// presence.
    fn readable(&self, i: usize) -> bool {
        self.value[i] || self.presence[i]
    }

    /// The equation can be compiled as-is: all reads decidable, no
    /// unvalued result can escape to the assignment or a condition.
    fn admissible(&self, e: &CExpr) -> bool {
        self.derivable(e) && self.conds_ok(e) && !self.maybe_unvalued(e)
    }

    /// Every signal the expression reads is readable.
    fn derivable(&self, e: &CExpr) -> bool {
        match e {
            CExpr::Var(i) => self.readable(*i),
            CExpr::Const(_) => true,
            CExpr::Pre { body, .. } => self.derivable(body),
            CExpr::When { body, cond } => self.derivable(body) && self.derivable(cond),
            CExpr::Default { left, right } | CExpr::Binary { left, right, .. } => {
                self.derivable(left) && self.derivable(right)
            }
            CExpr::Unary { arg, .. } => self.derivable(arg),
        }
    }

    /// Could the expression evaluate to an *unvalued* (present, value
    /// unknown) result? `pre` and `^` erase unvaluedness; everything else
    /// propagates it.
    fn maybe_unvalued(&self, e: &CExpr) -> bool {
        match e {
            CExpr::Var(i) => !self.value[*i],
            CExpr::Const(_) | CExpr::Pre { .. } => false,
            CExpr::When { body, .. } => self.maybe_unvalued(body),
            CExpr::Default { left, right } | CExpr::Binary { left, right, .. } => {
                self.maybe_unvalued(left) || self.maybe_unvalued(right)
            }
            CExpr::Unary { op, arg } => match op {
                polysig_lang::Unop::ClockOf => false,
                polysig_lang::Unop::Not | polysig_lang::Unop::Neg => self.maybe_unvalued(arg),
            },
        }
    }

    /// Every `when` condition in the tree evaluates to a *valued* result
    /// (an unvalued condition would make the executor bail every
    /// reaction).
    fn conds_ok(&self, e: &CExpr) -> bool {
        match e {
            CExpr::Var(_) | CExpr::Const(_) => true,
            CExpr::Pre { body, .. } => self.conds_ok(body),
            CExpr::When { body, cond } => {
                self.conds_ok(body) && self.conds_ok(cond) && !self.maybe_unvalued(cond)
            }
            CExpr::Default { left, right } | CExpr::Binary { left, right, .. } => {
                self.conds_ok(left) && self.conds_ok(right)
            }
            CExpr::Unary { arg, .. } => self.conds_ok(arg),
        }
    }

    /// Emits a *presence witness* for `e` — an expression over already
    /// readable signals whose presence equals `e`'s — returning its slot
    /// plus whether the witness could be ubiquitous at runtime (which
    /// would make it useless). Ops emitted for a failed branch are rolled
    /// back.
    fn clock_plan(&mut self, e: &CExpr) -> Option<(u32, bool)> {
        match e {
            CExpr::Var(i) => self.readable(*i).then_some((*i as u32, false)),
            CExpr::Const(v) => Some((self.konst(*v), true)),
            // a delay and a pointwise unary keep their operand's clock
            CExpr::Pre { body, .. } => self.clock_plan(body),
            CExpr::Unary { arg, .. } => self.clock_plan(arg),
            CExpr::When { body, cond } => {
                let mark = self.ops.len();
                let (b, body_ubiq) = self.clock_plan(body)?;
                if !(self.derivable(cond) && self.conds_ok(cond) && !self.maybe_unvalued(cond)) {
                    self.ops.truncate(mark);
                    return None;
                }
                let c = self.operand(cond);
                let t = self.temp();
                self.ops.push(Op::When { m: Mode::Temp, dst: t, body: b, cond: c });
                Some((t, body_ubiq && maybe_ubiquitous(cond)))
            }
            CExpr::Default { left, right } => {
                let mark = self.ops.len();
                let Some((l, lu)) = self.clock_plan(left) else {
                    self.ops.truncate(mark);
                    return None;
                };
                let Some((r, ru)) = self.clock_plan(right) else {
                    self.ops.truncate(mark);
                    return None;
                };
                let t = self.temp();
                self.ops.push(Op::DefaultMerge { m: Mode::Temp, dst: t, left: l, right: r });
                Some((t, lu || ru))
            }
            // synchronous operands share one clock: either side witnesses
            // it; prefer one that can never be ubiquitous
            CExpr::Binary { left, right, .. } => {
                let mark = self.ops.len();
                if let Some((s, false)) = self.clock_plan(left) {
                    return Some((s, false));
                }
                self.ops.truncate(mark);
                if let Some((s, false)) = self.clock_plan(right) {
                    return Some((s, false));
                }
                self.ops.truncate(mark);
                if let Some(p) = self.clock_plan(left) {
                    return Some(p);
                }
                self.ops.truncate(mark);
                self.clock_plan(right)
            }
        }
    }

    /// Emits register updates for every `pre` in `e`, in the interpreter's
    /// collection order: a `pre`'s own update (re-evaluating its body)
    /// comes before the updates of `pre`s nested inside that body.
    fn emit_register_updates(&mut self, e: &CExpr) {
        match e {
            CExpr::Var(_) | CExpr::Const(_) => {}
            CExpr::Pre { reg, body } => {
                let src = self.operand(body);
                self.ops.push(Op::RegisterShift { reg: *reg as u32, src });
                self.emit_register_updates(body);
            }
            CExpr::When { body, cond } => {
                self.emit_register_updates(body);
                self.emit_register_updates(cond);
            }
            CExpr::Default { left, right } | CExpr::Binary { left, right, .. } => {
                self.emit_register_updates(left);
                self.emit_register_updates(right);
            }
            CExpr::Unary { arg, .. } => self.emit_register_updates(arg),
        }
    }
}

/// Merges each run of consecutive [`Op::RegisterShift`]s into one
/// [`Op::RegisterShiftN`] dispatch (order preserved).
fn coalesce_register_shifts(ops: Vec<Op>) -> Vec<Op> {
    let mut out: Vec<Op> = Vec::with_capacity(ops.len());
    let mut run: Vec<(u32, u32)> = Vec::new();
    let flush = |out: &mut Vec<Op>, run: &mut Vec<(u32, u32)>| match run.len() {
        0 => {}
        1 => {
            let (reg, src) = run.pop().unwrap();
            out.push(Op::RegisterShift { reg, src });
        }
        _ => out.push(Op::RegisterShiftN { moves: std::mem::take(run).into() }),
    };
    for op in ops {
        if let Op::RegisterShift { reg, src } = op {
            run.push((reg, src));
        } else {
            flush(&mut out, &mut run);
            out.push(op);
        }
    }
    flush(&mut out, &mut run);
    out
}

/// Could the expression evaluate to a *ubiquitous* (context-clocked
/// constant) result?
fn maybe_ubiquitous(e: &CExpr) -> bool {
    match e {
        CExpr::Var(_) => false,
        CExpr::Const(_) => true,
        CExpr::Pre { body, .. } => maybe_ubiquitous(body),
        CExpr::When { body, cond } => maybe_ubiquitous(body) && maybe_ubiquitous(cond),
        CExpr::Default { left, right } => maybe_ubiquitous(left) || maybe_ubiquitous(right),
        CExpr::Binary { left, right, .. } => maybe_ubiquitous(left) && maybe_ubiquitous(right),
        CExpr::Unary { arg, .. } => maybe_ubiquitous(arg),
    }
}

/// Signals whose presence is implied whenever `e`'s compiled result is
/// non-absent (`Present`, `Unvalued`, or `Ubiquitous`) on a run that
/// commits (does not bail). Structural induction over the op semantics in
/// [`crate::schedule`]:
///
/// * `Var` — a present read is a present signal;
/// * `Const` — ubiquitous, implies nothing;
/// * `Pre` — `pre_flow` is non-absent exactly when its body is (an
///   `Unvalued` body still yields `Present(reg)`);
/// * `When` — `when_flow` is non-absent only when the sampled body is
///   non-absent *and* the condition is non-absent (and true);
/// * `Default` — the merge is non-absent when either branch is, so only
///   the branches' *common* implications survive;
/// * `Binary`/`Unary` — a non-absent pointwise result needs every operand
///   non-absent (a present/absent mix bails, absent/ubiquitous is absent).
fn presence_uppers(e: &CExpr, acc: &mut BTreeSet<usize>) {
    match e {
        CExpr::Var(i) => {
            acc.insert(*i);
        }
        CExpr::Const(_) => {}
        CExpr::Pre { body, .. } => presence_uppers(body, acc),
        CExpr::When { body, cond } => {
            presence_uppers(body, acc);
            presence_uppers(cond, acc);
        }
        CExpr::Default { left, right } => {
            let mut l = BTreeSet::new();
            let mut r = BTreeSet::new();
            presence_uppers(left, &mut l);
            presence_uppers(right, &mut r);
            acc.extend(l.intersection(&r));
        }
        CExpr::Binary { left, right, .. } => {
            presence_uppers(left, acc);
            presence_uppers(right, acc);
        }
        CExpr::Unary { arg, .. } => presence_uppers(arg, acc),
    }
}

/// Signals whose presence *forces* `e`'s compiled result non-absent on a
/// run that commits. The dual of [`presence_uppers`], and deliberately
/// weaker:
///
/// * `When` implies nothing — the condition may be absent or false while
///   the body ticks;
/// * `Default` propagates the right branch only when the left cannot
///   evaluate ubiquitous: for `x := (5 when c) default y` the left branch
///   can come back `Ubiquitous(5)` and adapt to an *absent* `x` while `y`
///   is present, so `y ⊆ x` must stay a runtime check.
fn presence_lowers(e: &CExpr, acc: &mut BTreeSet<usize>) {
    match e {
        CExpr::Var(i) => {
            acc.insert(*i);
        }
        CExpr::Const(_) => {}
        CExpr::Pre { body, .. } => presence_lowers(body, acc),
        CExpr::When { .. } => {}
        CExpr::Default { left, right } => {
            presence_lowers(left, acc);
            if !maybe_ubiquitous(left) {
                presence_lowers(right, acc);
            }
        }
        CExpr::Binary { left, right, .. } => {
            presence_lowers(left, acc);
            presence_lowers(right, acc);
        }
        CExpr::Unary { arg, .. } => presence_lowers(arg, acc),
    }
}

/// Subset edges (group-index pairs) the compiled equations enforce
/// operationally, making their epilogue re-check redundant.
///
/// For an equation `lhs := rhs` committed through `Guard`/`GuardAtClock`:
///
/// * every `u ∈ presence_uppers(rhs)`: a present `lhs` means `rhs`
///   evaluated non-absent (`Guard` stores the result directly;
///   `GuardAtClock` bails on a present/absent disagreement and only lets
///   `Ubiquitous` adapt, which also implies the uppers) — so
///   `lhs ⊆ u` holds on every committing run, discharging the edge
///   `(group(lhs), group(u))`;
/// * every `s ∈ presence_lowers(rhs)`: a present `s` forces the result
///   non-absent, and a non-absent result commits `lhs` present (`Guard`
///   rejects `Unvalued` roots statically via `admissible`; `GuardAtClock`
///   bails when the predetermined clock says absent) — so `s ⊆ lhs`
///   holds, discharging `(group(s), group(lhs))`.
///
/// Lifting slot pairs to group pairs is sound because the epilogue checks
/// group uniformity *before* edges and anchored groups are uniform by
/// `EvalClock` construction: on any committing run every group member
/// agrees with its representative.
fn discharged_edges(inp: &LowerInput<'_>) -> BTreeSet<(usize, usize)> {
    let mut group_of = vec![usize::MAX; inp.signal_count];
    for (g, group) in inp.groups.iter().enumerate() {
        for &i in group {
            group_of[i] = g;
        }
    }
    let mut discharged = BTreeSet::new();
    for (lhs, rhs) in inp.equations {
        let lg = group_of[*lhs];
        if lg == usize::MAX {
            continue;
        }
        let mut ups = BTreeSet::new();
        presence_uppers(rhs, &mut ups);
        for u in ups {
            if group_of[u] != usize::MAX {
                discharged.insert((lg, group_of[u]));
            }
        }
        let mut lows = BTreeSet::new();
        presence_lowers(rhs, &mut lows);
        for s in lows {
            if group_of[s] != usize::MAX {
                discharged.insert((group_of[s], lg));
            }
        }
    }
    discharged
}

#[cfg(test)]
mod tests {
    use super::*;

    // slots: 0 = input a (int), 1 = output x (int)
    fn two_sig_input() -> (Vec<bool>, Vec<ValueType>, Vec<Vec<usize>>) {
        (vec![true, false], vec![ValueType::Int, ValueType::Int], vec![vec![0, 1]])
    }

    #[test]
    fn direct_equation_lowers_without_witness() {
        let (is_input, types, groups) = two_sig_input();
        let equations = vec![(1usize, CExpr::Var(0))];
        let cc = lower(&LowerInput {
            signal_count: 2,
            is_input: &is_input,
            types: &types,
            equations: &equations,
            groups: &groups,
            subset_edges: &BTreeSet::new(),
        })
        .expect("x := a lowers");
        // EvalClock for the shared group, then a clocked guarded copy
        assert!(matches!(cc.ops[0], Op::EvalClock { .. }));
        assert!(cc
            .ops
            .iter()
            .any(|o| matches!(o, Op::Mov { m: Mode::GuardAtClock, dst: 1, src: 0 })));
        assert!(cc.reg_ops.is_empty());
        assert_eq!(cc.input_slots.as_ref(), &[0]);
        assert_eq!(cc.input_types.as_ref(), &[ValueType::Int]);
    }

    #[test]
    fn self_feedback_gets_a_structural_clock() {
        // n := (pre 0 n) + (1 when tick); groups: {tick}, {n} (no shared
        // input group, so the `1 when tick` branch must witness n's clock)
        let equations = vec![(
            1usize,
            CExpr::Binary {
                op: polysig_lang::Binop::Add,
                left: Box::new(CExpr::Pre { reg: 0, body: Box::new(CExpr::Var(1)) }),
                right: Box::new(CExpr::When {
                    body: Box::new(CExpr::Const(Value::Int(1))),
                    cond: Box::new(CExpr::Var(0)),
                }),
            },
        )];
        let cc = lower(&LowerInput {
            signal_count: 2,
            is_input: &[true, false],
            types: &[ValueType::Bool, ValueType::Int],
            equations: &equations,
            groups: &[vec![0], vec![1]],
            subset_edges: &BTreeSet::new(),
        })
        .expect("accumulator lowers via a structural clock");
        assert!(cc.ops.iter().any(|o| matches!(o, Op::SetClockFrom { dst: 1, .. })));
        assert!(cc.reg_ops.iter().any(|o| matches!(o, Op::RegisterShift { reg: 0, .. })));
        // the interned constant slot is preloaded as ubiquitous
        assert!(cc.init_slots.iter().any(|f| matches!(f, Flow::Ubiquitous(Value::Int(1)))));
    }

    #[test]
    fn free_clock_fails_to_lower() {
        // s := set default (pre 0 s): s's clock is not derivable from
        // decided signals (slot 0 = input set, slot 1 = s, own group)
        let equations = vec![(
            1usize,
            CExpr::Default {
                left: Box::new(CExpr::Var(0)),
                right: Box::new(CExpr::Pre { reg: 0, body: Box::new(CExpr::Var(1)) }),
            },
        )];
        assert!(lower(&LowerInput {
            signal_count: 2,
            is_input: &[true, false],
            types: &[ValueType::Int, ValueType::Int],
            equations: &equations,
            groups: &[vec![0], vec![1]],
            subset_edges: &BTreeSet::new(),
        })
        .is_none());
    }

    #[test]
    fn double_definition_fails_to_lower() {
        let (is_input, types, groups) = two_sig_input();
        let equations = vec![(1usize, CExpr::Var(0)), (1usize, CExpr::Var(0))];
        assert!(lower(&LowerInput {
            signal_count: 2,
            is_input: &is_input,
            types: &types,
            equations: &equations,
            groups: &groups,
            subset_edges: &BTreeSet::new(),
        })
        .is_none());
    }

    #[test]
    fn bare_constant_equation_fails_without_an_anchor() {
        // x := 5 with x in its own inputless group: nothing anchors the
        // constant's clock
        let equations = vec![(1usize, CExpr::Const(Value::Int(5)))];
        assert!(lower(&LowerInput {
            signal_count: 2,
            is_input: &[true, false],
            types: &[ValueType::Int, ValueType::Int],
            equations: &equations,
            groups: &[vec![0], vec![1]],
            subset_edges: &BTreeSet::new(),
        })
        .is_none());
        // but with x sharing the input's group, the fold anchors it
        let (is_input, types, groups) = two_sig_input();
        assert!(lower(&LowerInput {
            signal_count: 2,
            is_input: &is_input,
            types: &types,
            equations: &equations,
            groups: &groups,
            subset_edges: &BTreeSet::new(),
        })
        .is_some());
    }

    #[test]
    fn direct_copy_discharges_both_subset_edges() {
        // x := a with a and x in separate groups and both edges asserted:
        // the guarded copy enforces a ⊆ x and x ⊆ a operationally, so the
        // epilogue re-check is fused away entirely
        let equations = vec![(1usize, CExpr::Var(0))];
        let edges: BTreeSet<(usize, usize)> = [(0, 1), (1, 0)].into_iter().collect();
        let cc = lower(&LowerInput {
            signal_count: 2,
            is_input: &[true, false],
            types: &[ValueType::Int, ValueType::Int],
            equations: &equations,
            groups: &[vec![0], vec![1]],
            subset_edges: &edges,
        })
        .expect("x := a lowers");
        assert!(cc.check_edges.is_empty(), "both edges statically discharged");
    }

    #[test]
    fn when_keeps_the_sub_edge_it_cannot_enforce() {
        // x := a when c (slots: 0 = a, 1 = c, 2 = x): a present does NOT
        // force x present (c may be absent or false), so a ⊆ x must stay a
        // runtime check; x ⊆ a and x ⊆ c are enforced by the evaluation
        let equations = vec![(
            2usize,
            CExpr::When { body: Box::new(CExpr::Var(0)), cond: Box::new(CExpr::Var(1)) },
        )];
        let edges: BTreeSet<(usize, usize)> = [(0, 2), (2, 0), (2, 1)].into_iter().collect();
        let cc = lower(&LowerInput {
            signal_count: 3,
            is_input: &[true, true, false],
            types: &[ValueType::Int, ValueType::Bool, ValueType::Int],
            equations: &equations,
            groups: &[vec![0], vec![1], vec![2]],
            subset_edges: &edges,
        })
        .expect("x := a when c lowers");
        assert_eq!(cc.check_edges.as_ref(), &[(0, 2)], "only a ⊆ x survives");
    }

    #[test]
    fn ubiquitous_default_branch_keeps_the_edge() {
        // x := (5 when true) default y (slots: 0 = y, 1 = t anchoring x's
        // group, 2 = x): the left branch can evaluate Ubiquitous(5) and
        // adapt to an absent x while y is present, so y ⊆ x must stay a
        // runtime check — the `maybe_ubiquitous` guard in presence_lowers
        let equations = vec![(
            2usize,
            CExpr::Default {
                left: Box::new(CExpr::When {
                    body: Box::new(CExpr::Const(Value::Int(5))),
                    cond: Box::new(CExpr::Const(Value::Bool(true))),
                }),
                right: Box::new(CExpr::Var(0)),
            },
        )];
        let edges: BTreeSet<(usize, usize)> = [(0, 1)].into_iter().collect();
        let cc = lower(&LowerInput {
            signal_count: 3,
            is_input: &[true, true, false],
            types: &[ValueType::Int, ValueType::Bool, ValueType::Int],
            equations: &equations,
            groups: &[vec![0], vec![1, 2]],
            subset_edges: &edges,
        })
        .expect("anchored ubiquitous default lowers");
        assert_eq!(cc.check_edges.len(), 1, "y ⊆ x stays: left branch may be ubiquitous");

        // flipped merge: y default (5 when true) — now a present y forces
        // x present (the left branch is never ubiquitous), discharging it
        let equations = vec![(
            2usize,
            CExpr::Default {
                left: Box::new(CExpr::Var(0)),
                right: Box::new(CExpr::When {
                    body: Box::new(CExpr::Const(Value::Int(5))),
                    cond: Box::new(CExpr::Const(Value::Bool(true))),
                }),
            },
        )];
        let cc = lower(&LowerInput {
            signal_count: 3,
            is_input: &[true, true, false],
            types: &[ValueType::Int, ValueType::Bool, ValueType::Int],
            equations: &equations,
            groups: &[vec![0], vec![1, 2]],
            subset_edges: &edges,
        })
        .expect("flipped default lowers");
        assert!(cc.check_edges.is_empty(), "y ⊆ x discharged by the non-ubiquitous left");
    }

    #[test]
    fn undefined_non_input_fails_to_lower() {
        // slot 2 is a local no equation ever defines: the interpreter
        // would report UndeterminedClock, so no static schedule exists
        let equations = vec![(1usize, CExpr::Var(0))];
        assert!(lower(&LowerInput {
            signal_count: 3,
            is_input: &[true, false, false],
            types: &[ValueType::Int, ValueType::Int, ValueType::Int],
            equations: &equations,
            groups: &[vec![0, 1, 2]],
            subset_edges: &BTreeSet::new(),
        })
        .is_none());
    }
}
