//! Per-component elaboration: the half of building a [`Reactor`] that
//! depends on one component alone.
//!
//! [`ComponentPart::elaborate`] runs the language passes a component needs
//! in isolation — resolution, type checking and the clock calculus — and
//! compiles its equations to [`CExpr`] over *component-local* ids (a
//! local id is the declaration's index) with registers numbered from 0.
//! The result is immutable and holds no reference to the AST, so one part
//! can be shared (`Arc`) by every network that contains the component.
//!
//! [`Reactor::link`] does the rest: it interns the parts' names, renames
//! colliding locals, runs the program-level checks, remaps the local ids
//! and registers into one dense space, merges the clock groups, schedules
//! the equations and lowers the static plan. [`Reactor::for_program`] is
//! exactly "elaborate every component, then link", so a network linked
//! from cached parts is the network `for_program` would build.
//!
//! [`Reactor`]: crate::Reactor
//! [`Reactor::link`]: crate::Reactor::link
//! [`Reactor::for_program`]: crate::Reactor::for_program

use polysig_lang::ast::Declaration;
use polysig_lang::clock::analyze_component;
use polysig_lang::{Component, LangError, Statement};
use polysig_tagged::hash::FxHashMap;
use polysig_tagged::{SigName, Value};

use crate::ir::{compile, CExpr};

/// One component, elaborated on its own. See the module docs.
#[derive(Debug, Clone)]
pub struct ComponentPart {
    pub(crate) name: String,
    /// The declarations, in order; a local id indexes this list.
    pub(crate) decls: Vec<Declaration>,
    /// The elaborated body, or the first error the component raises on its
    /// own (program-level errors are the link's business).
    pub(crate) body: Result<PartBody, PartError>,
}

/// What a well-formed component contributes to a linked network.
#[derive(Debug, Clone)]
pub(crate) struct PartBody {
    /// `(lhs, rhs)` per equation, in statement order, over local ids and
    /// local register numbers.
    pub equations: Vec<(usize, CExpr)>,
    /// Per equation, the local ids its right-hand side reads at the
    /// current instant (outside any `pre`), ascending and deduplicated.
    pub instant_deps: Vec<Vec<usize>>,
    /// Initial value of each local register.
    pub registers: Vec<Value>,
    /// The clock calculus' equality classes with at least two members, as
    /// local ids.
    pub clock_classes: Vec<Vec<usize>>,
    /// `(sub, sup)` clock inclusions, each class named by its first
    /// member's local id.
    pub subset: Vec<(usize, usize)>,
}

/// A component's own error, tagged with the pass that raised it: the link
/// reports resolution errors (interleaved with the single-writer rule)
/// before any type error, as the whole-program passes always did.
#[derive(Debug, Clone)]
pub(crate) enum PartError {
    Resolve(LangError),
    Type(LangError),
}

impl ComponentPart {
    /// Elaborates one component. Never fails: a component that does not
    /// resolve or type-check yields a part that carries its error, and
    /// linking a network that contains it reports that error.
    pub fn elaborate(c: &Component) -> ComponentPart {
        let body = polysig_lang::resolve::resolve_component(c)
            .map_err(PartError::Resolve)
            .and_then(|()| polysig_lang::types::check_component(c).map_err(PartError::Type))
            .map(|()| elaborate_body(c));
        ComponentPart { name: c.name.clone(), decls: c.decls.clone(), body }
    }

    /// The fresh name a colliding local gets in a network.
    pub(crate) fn qualified(&self, local: &SigName) -> SigName {
        SigName::from(format!("{}.{}", self.name, local))
    }

    /// This part's own error as the network reports it: names of renamed
    /// locals (`renamed`) appear qualified, exactly as if the component
    /// had been renamed before it was checked.
    pub(crate) fn error_in_network(&self, e: &LangError, renamed: &[&SigName]) -> LangError {
        let q = |n: &SigName| if renamed.contains(&n) { self.qualified(n) } else { n.clone() };
        match e.clone() {
            LangError::UndeclaredSignal { component, name } => {
                LangError::UndeclaredSignal { component, name: q(&name) }
            }
            LangError::MultipleDefinitions { component, name } => {
                LangError::MultipleDefinitions { component, name: q(&name) }
            }
            LangError::InputDefined { component, name } => {
                LangError::InputDefined { component, name: q(&name) }
            }
            LangError::MissingDefinition { component, name } => {
                LangError::MissingDefinition { component, name: q(&name) }
            }
            LangError::DuplicateDeclaration { component, name } => {
                LangError::DuplicateDeclaration { component, name: q(&name) }
            }
            LangError::Type { component, signal, expected, found, context } => {
                LangError::Type { component, signal: q(&signal), expected, found, context }
            }
            other => other,
        }
    }
}

/// The body of a component that resolved and type-checked.
fn elaborate_body(c: &Component) -> PartBody {
    let local: FxHashMap<&SigName, usize> =
        c.decls.iter().enumerate().map(|(i, d)| (&d.name, i)).collect();
    let idx = |n: &SigName| local[n];

    let mut registers = Vec::new();
    let mut equations = Vec::new();
    let mut instant_deps = Vec::new();
    for stmt in &c.stmts {
        if let Statement::Eq(eq) = stmt {
            let rhs = compile(&eq.rhs, &idx, &mut registers);
            let mut deps = Vec::new();
            rhs.collect_instant_vars(&mut deps);
            deps.sort_unstable();
            deps.dedup();
            instant_deps.push(deps);
            equations.push((idx(&eq.lhs), rhs));
        }
    }

    // the calculus' classes as local ids; a class is named by its first
    // member, and singletons are dropped (they never join anything)
    let analysis = analyze_component(c);
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); analysis.classes.len()];
    for (i, &class) in analysis.decl_classes().iter().enumerate() {
        members[class].push(i);
    }
    let subset = analysis.edges().map(|(sub, sup)| (members[sub][0], members[sup][0])).collect();
    let clock_classes = members.into_iter().filter(|m| m.len() > 1).collect();

    PartBody { equations, instant_deps, registers, clock_classes, subset }
}

impl CExpr {
    /// Collects the signals read at the current instant (outside any
    /// `pre`), with repetitions.
    fn collect_instant_vars(&self, out: &mut Vec<usize>) {
        match self {
            CExpr::Var(i) => out.push(*i),
            CExpr::Const(_) | CExpr::Pre { .. } => {}
            CExpr::When { body: left, cond: right }
            | CExpr::Default { left, right }
            | CExpr::Binary { left, right, .. } => {
                left.collect_instant_vars(out);
                right.collect_instant_vars(out);
            }
            CExpr::Unary { arg, .. } => arg.collect_instant_vars(out),
        }
    }

    /// A copy with every signal id mapped through `ids` and every register
    /// shifted by `reg_offset` — a part's equation placed in a network.
    pub(crate) fn relocated(&self, ids: &[usize], reg_offset: usize) -> CExpr {
        let r = |e: &CExpr| Box::new(e.relocated(ids, reg_offset));
        match self {
            CExpr::Var(i) => CExpr::Var(ids[*i]),
            CExpr::Const(v) => CExpr::Const(*v),
            CExpr::Pre { reg, body } => CExpr::Pre { reg: reg + reg_offset, body: r(body) },
            CExpr::When { body, cond } => CExpr::When { body: r(body), cond: r(cond) },
            CExpr::Default { left, right } => CExpr::Default { left: r(left), right: r(right) },
            CExpr::Unary { op, arg } => CExpr::Unary { op: *op, arg: r(arg) },
            CExpr::Binary { op, left, right } => {
                CExpr::Binary { op: *op, left: r(left), right: r(right) }
            }
        }
    }
}
