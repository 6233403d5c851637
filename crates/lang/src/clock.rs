//! Clock calculus: synchronization constraints, clock-equivalence classes
//! and the clock-dominance hierarchy.
//!
//! Each Signal operator induces constraints between the *clocks* (sets of
//! presence instants) of the signals it touches:
//!
//! * `x := pre v y`, `x := f(y, z)` — `x`, `y`, `z` share one clock;
//! * `x := y when c` — `clk(x) = clk(y) ∩ [c]`, so `clk(x) ⊆ clk(y)` and
//!   `clk(x) ⊆ clk(c)`;
//! * `x := y default z` — `clk(x) = clk(y) ∪ clk(z)`, so `clk(y) ⊆ clk(x)`
//!   and `clk(z) ⊆ clk(x)`;
//! * `x ^= y` — `clk(x) = clk(y)`.
//!
//! [`analyze_component`] computes the clock-equivalence classes (union-find
//! over equality constraints), the dominance preorder between classes
//! (`⊆` edges from `when`/`default`), and reports the *master* classes —
//! the maximal elements of the hierarchy. A component whose hierarchy has a
//! single master rooted above every class is flagged by the endochrony
//! heuristic: its reactions can be driven deterministically from one clock
//! plus values, the classical sufficient condition for safe
//! desynchronization (Benveniste et al., "From synchrony to asynchrony").

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use polysig_tagged::{SigName, Value};

use crate::ast::{Component, Expr, Role, Statement};

/// A clock-equivalence class: signals provably sharing one clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClockClass {
    /// Stable class identifier (index into [`ClockAnalysis::classes`]).
    pub id: usize,
    /// The member signals, in declaration order.
    pub members: Vec<SigName>,
}

/// Result of the clock calculus on one component.
#[derive(Debug, Clone)]
pub struct ClockAnalysis {
    /// The clock-equivalence classes.
    pub classes: Vec<ClockClass>,
    /// The class of each declaration, in declaration order.
    decl_classes: Vec<usize>,
    /// The class of each declared name, computed on first use.
    class_of: OnceLock<BTreeMap<SigName, usize>>,
    /// `(a, b)` means class `a`'s clock is included in class `b`'s clock.
    edges: BTreeSet<(usize, usize)>,
    /// Transitive closure of `edges`, computed on first use: elaboration
    /// needs only the classes and direct edges.
    closure: OnceLock<BTreeSet<(usize, usize)>>,
}

impl ClockAnalysis {
    /// Transitive closure of the direct edges (tiny graphs — Floyd-Warshall
    /// style).
    fn closure(&self) -> &BTreeSet<(usize, usize)> {
        self.closure.get_or_init(|| {
            let n = self.classes.len();
            let mut closure = self.edges.clone();
            loop {
                let mut grew = false;
                let snapshot: Vec<(usize, usize)> = closure.iter().copied().collect();
                for &(a, b) in &snapshot {
                    for k in 0..n {
                        if closure.contains(&(b, k)) && a != k && closure.insert((a, k)) {
                            grew = true;
                        }
                    }
                }
                if !grew {
                    break closure;
                }
            }
        })
    }

    /// The class id of a signal, if analyzed.
    pub fn class_of(&self, name: &SigName) -> Option<usize> {
        let class_of = self.class_of.get_or_init(|| {
            let members =
                self.classes.iter().flat_map(|c| c.members.iter().map(move |m| (m, c.id)));
            members.map(|(m, id)| (m.clone(), id)).collect()
        });
        class_of.get(name).copied()
    }

    /// The class id of each declaration of the analyzed component, in
    /// declaration order.
    pub fn decl_classes(&self) -> &[usize] {
        &self.decl_classes
    }

    /// `true` iff two signals provably share a clock.
    pub fn same_clock(&self, a: &SigName, b: &SigName) -> bool {
        match (self.class_of(a), self.class_of(b)) {
            (Some(ca), Some(cb)) => ca == cb,
            _ => false,
        }
    }

    /// `true` iff `a`'s clock is provably included in `b`'s
    /// (`clk(a) ⊆ clk(b)`), including equality.
    pub fn dominated_by(&self, a: &SigName, b: &SigName) -> bool {
        match (self.class_of(a), self.class_of(b)) {
            (Some(ca), Some(cb)) => ca == cb || self.closure().contains(&(ca, cb)),
            _ => false,
        }
    }

    /// Direct `⊆` edges between class ids.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.edges.iter().copied()
    }

    /// The master classes: classes not strictly dominated by any other —
    /// roots of the clock hierarchy.
    pub fn masters(&self) -> Vec<usize> {
        (0..self.classes.len())
            .filter(|&c| {
                !(0..self.classes.len()).any(|d| {
                    d != c && self.closure().contains(&(c, d)) && !self.closure().contains(&(d, c))
                })
            })
            .collect()
    }

    /// Endochrony heuristic: the hierarchy has exactly one master class and
    /// every other class is (transitively) dominated by it. Programs passing
    /// this test have a deterministic reaction schedule driven by the master
    /// clock, the sufficient condition the paper relies on for replacing
    /// synchronous links with FIFOs.
    pub fn is_rooted(&self) -> bool {
        // a root dominates every class; several mutually-included roots are
        // one clock in disguise (the union-find only merges *syntactic*
        // equalities, while cyclic ⊆ edges prove semantic equality)
        self.classes.len() <= 1
            || (0..self.classes.len()).any(|m| {
                (0..self.classes.len()).all(|c| c == m || self.closure().contains(&(c, m)))
            })
    }

    /// The id of a class dominating every other class, if the hierarchy is
    /// rooted. With mutually-included top classes any of them qualifies; the
    /// smallest id is returned.
    pub fn root(&self) -> Option<usize> {
        if self.classes.len() <= 1 {
            return self.classes.first().map(|c| c.id);
        }
        (0..self.classes.len())
            .find(|&m| (0..self.classes.len()).all(|c| c == m || self.closure().contains(&(c, m))))
    }

    /// `true` iff `a` and `b` provably share presence instants: either the
    /// union-find merged them, or mutual `⊆` edges prove the two classes are
    /// one clock written two ways.
    pub fn equal_clock(&self, a: &SigName, b: &SigName) -> bool {
        match (self.class_of(a), self.class_of(b)) {
            (Some(ca), Some(cb)) => {
                ca == cb
                    || (self.closure().contains(&(ca, cb)) && self.closure().contains(&(cb, ca)))
            }
            _ => false,
        }
    }

    /// Classifies the component's determinism given its input set — the
    /// precondition Theorem 1 needs before a component may be desynchronized.
    pub fn endochrony(&self, inputs: &BTreeSet<SigName>) -> Endochrony {
        if self.classes.is_empty() {
            return Endochrony::Endochronous;
        }
        let Some(root) = self.root() else {
            let masters = self
                .masters()
                .into_iter()
                .filter_map(|m| self.classes[m].members.first().cloned())
                .collect();
            return Endochrony::NonDeterministic { masters };
        };
        // an input anchors the hierarchy when its class dominates every class
        let anchored = inputs.iter().any(|i| {
            self.class_of(i).is_some_and(|ci| {
                (0..self.classes.len()).all(|c| c == ci || self.closure().contains(&(c, ci)))
            })
        });
        if anchored {
            Endochrony::Endochronous
        } else {
            Endochrony::Endochronizable { master: self.classes[root].members.clone() }
        }
    }
}

/// The endochrony verdict of [`ClockAnalysis::endochrony`] /
/// [`classify_endochrony`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endochrony {
    /// The clock hierarchy is rooted in a class containing an input: every
    /// activation clock is determined by the input clocks (plus values), so
    /// reactions are reproducible from input flows alone.
    Endochronous,
    /// Rooted, but the master clock is internal. The component is
    /// deterministic, yet its alignment cannot be reconstructed from input
    /// flows; adding a master-clock input (`sync`ed to the listed signals)
    /// makes it endochronous.
    Endochronizable {
        /// Members of the internal master class.
        master: Vec<SigName>,
    },
    /// Several independent master clocks: reactions depend on relative clock
    /// rates the inputs do not determine — desynchronization may not
    /// preserve flows (Theorem 1's precondition fails).
    NonDeterministic {
        /// One representative signal per independent master class.
        masters: Vec<SigName>,
    },
}

/// Runs the clock calculus on `c` and classifies its endochrony against its
/// declared inputs.
///
/// ```
/// use polysig_lang::clock::{classify_endochrony, Endochrony};
/// use polysig_lang::parse_component;
///
/// let c = parse_component("process P { input a: int; output x: int; x := a + 1; }")?;
/// assert_eq!(classify_endochrony(&c), Endochrony::Endochronous);
///
/// let c = parse_component(
///     "process P { input y: int, z: int; output x: int, w: int; x := y; w := z; }",
/// )?;
/// assert!(matches!(classify_endochrony(&c), Endochrony::NonDeterministic { .. }));
/// # Ok::<(), polysig_lang::LangError>(())
/// ```
pub fn classify_endochrony(c: &Component) -> Endochrony {
    let inputs: BTreeSet<SigName> =
        c.decls.iter().filter(|d| d.role == Role::Input).map(|d| d.name.clone()).collect();
    analyze_component(c).endochrony(&inputs)
}

/// Guard-pattern query: the signal an expression is provably *synchronous*
/// with, treating constant-`true` guards as transparent (a constant adapts
/// to its context, so `e when true` and `e op k` keep `e`'s clock).
///
/// Returns `None` when the expression's clock is a strict subset or union
/// that no single signal determines. Used by the static rate analysis to
/// anchor a channel's write clock to an environment input.
pub fn const_guard_source(e: &Expr) -> Option<&SigName> {
    match e {
        Expr::Var(x) => Some(x),
        Expr::Const(_) => None,
        Expr::Pre { body, .. } => const_guard_source(body),
        Expr::Unary { arg, .. } => const_guard_source(arg),
        Expr::When { body, cond } => {
            if matches!(cond.as_ref(), Expr::Const(Value::Bool(true))) {
                const_guard_source(body)
            } else {
                None
            }
        }
        Expr::Default { left, right } => {
            match (const_guard_source(left), const_guard_source(right)) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            }
        }
        Expr::Binary { left, right, .. } => {
            match (const_guard_source(left), const_guard_source(right)) {
                (Some(a), Some(b)) if a == b => Some(a),
                // one constant operand adapts to the other side's clock
                (Some(a), None) if matches!(right.as_ref(), Expr::Const(_)) => Some(a),
                (None, Some(b)) if matches!(left.as_ref(), Expr::Const(_)) => Some(b),
                _ => None,
            }
        }
    }
}

/// Internal symbolic clock of an expression, over the analyzer's dense
/// signal indices (the hot path never touches a name). Index sets are
/// sorted, deduplicated vectors.
enum ClockTerm {
    /// Same clock as a signal.
    Sig(u32),
    /// Sampled: included in the clocks of `uppers`.
    Sampled { uppers: Vec<u32> },
    /// Union: includes the clocks of `lowers`; included in nothing known.
    Union { lowers: Vec<u32>, uppers: Vec<u32> },
    /// Adapts to context (constants).
    Context,
}

impl ClockTerm {
    fn uppers(&self) -> &[u32] {
        match self {
            ClockTerm::Sig(s) => std::slice::from_ref(s),
            ClockTerm::Sampled { uppers } | ClockTerm::Union { uppers, .. } => uppers,
            ClockTerm::Context => &[],
        }
    }

    fn lowers(&self) -> &[u32] {
        match self {
            ClockTerm::Sig(s) => std::slice::from_ref(s),
            ClockTerm::Union { lowers, .. } => lowers,
            ClockTerm::Sampled { .. } | ClockTerm::Context => &[],
        }
    }
}

/// The union of two sorted index sets.
fn set_union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out: Vec<u32> = a.iter().chain(b).copied().collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// The intersection of two sorted index sets.
fn set_intersection(a: &[u32], b: &[u32]) -> Vec<u32> {
    a.iter().copied().filter(|x| b.binary_search(x).is_ok()).collect()
}

struct Analyzer<'c> {
    /// Dense index per signal name, grown lazily for names the component
    /// never declares (resolution may not have run yet).
    index: polysig_tagged::hash::FxHashMap<&'c SigName, u32>,
    parent: Vec<u32>,
    /// subset edges between signals: (sub, sup)
    subset: Vec<(u32, u32)>,
}

impl<'c> Analyzer<'c> {
    fn id(&mut self, x: &'c SigName) -> u32 {
        let next = self.parent.len() as u32;
        let i = *self.index.entry(x).or_insert(next);
        if i == next {
            self.parent.push(i);
        }
        i
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // path compression
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }

    /// Clock of an expression; emits equality/subset constraints as a side
    /// effect.
    fn clock_of(&mut self, e: &'c Expr) -> ClockTerm {
        match e {
            Expr::Var(x) => ClockTerm::Sig(self.id(x)),
            Expr::Const(_) => ClockTerm::Context,
            Expr::Pre { body, .. } => self.clock_of(body),
            Expr::Unary { arg, .. } => self.clock_of(arg),
            Expr::When { body, cond } => {
                let tb = self.clock_of(body);
                let tc = self.clock_of(cond);
                ClockTerm::Sampled { uppers: set_union(tb.uppers(), tc.uppers()) }
            }
            Expr::Default { left, right } => {
                let tl = self.clock_of(left);
                let tr = self.clock_of(right);
                ClockTerm::Union {
                    lowers: set_union(tl.lowers(), tr.lowers()),
                    uppers: set_intersection(tl.uppers(), tr.uppers()),
                }
            }
            Expr::Binary { left, right, .. } => {
                let tl = self.clock_of(left);
                let tr = self.clock_of(right);
                // synchronous arguments: unify when both sides name a signal
                if let (ClockTerm::Sig(a), ClockTerm::Sig(b)) = (&tl, &tr) {
                    self.union(*a, *b);
                }
                match (&tl, &tr) {
                    (ClockTerm::Context, _) => tr,
                    _ => tl,
                }
            }
        }
    }
}

/// Runs the clock calculus on a component.
///
/// ```
/// use polysig_lang::{clock::analyze_component, parse_component};
///
/// let c = parse_component(
///     "process P { input a: int, c: bool; output x: int, y: int; \
///      x := a when c; y := a + a; }",
/// )?;
/// let analysis = analyze_component(&c);
/// assert!(analysis.same_clock(&"y".into(), &"a".into()));
/// assert!(analysis.dominated_by(&"x".into(), &"a".into()));
/// # Ok::<(), polysig_lang::LangError>(())
/// ```
pub fn analyze_component(c: &Component) -> ClockAnalysis {
    let mut az = Analyzer {
        index: polysig_tagged::hash::FxHashMap::default(),
        parent: Vec::with_capacity(c.decls.len()),
        subset: Vec::new(),
    };
    let decl_ids: Vec<u32> = c.decls.iter().map(|d| az.id(&d.name)).collect();
    for stmt in &c.stmts {
        match stmt {
            Statement::Eq(eq) => {
                let term = az.clock_of(&eq.rhs);
                let lhs = az.id(&eq.lhs);
                match &term {
                    ClockTerm::Sig(y) => az.union(lhs, *y),
                    ClockTerm::Context => {}
                    _ => {
                        az.subset.extend(term.uppers().iter().map(|&u| (lhs, u)));
                        az.subset.extend(term.lowers().iter().map(|&l| (l, lhs)));
                    }
                }
            }
            Statement::Sync(names) => {
                for w in names.windows(2) {
                    let (a, b) = (az.id(&w[0]), az.id(&w[1]));
                    az.union(a, b);
                }
            }
        }
    }

    // build classes over the declared signals, in declaration order
    let n = az.parent.len();
    let mut rep_to_class: Vec<usize> = vec![usize::MAX; n];
    let mut classes: Vec<ClockClass> = Vec::new();
    let mut decl_classes: Vec<usize> = Vec::with_capacity(c.decls.len());
    let mut class_of_id: Vec<usize> = vec![usize::MAX; n];
    for (&sid, d) in decl_ids.iter().zip(&c.decls) {
        let rep = az.find(sid) as usize;
        if rep_to_class[rep] == usize::MAX {
            rep_to_class[rep] = classes.len();
            classes.push(ClockClass { id: classes.len(), members: Vec::new() });
        }
        let id = rep_to_class[rep];
        classes[id].members.push(d.name.clone());
        decl_classes.push(id);
        class_of_id[sid as usize] = id;
    }

    // subset edges between classes
    let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
    for &(sub, sup) in &az.subset {
        let (a, b) = (class_of_id[sub as usize], class_of_id[sup as usize]);
        if a != b && a != usize::MAX && b != usize::MAX {
            edges.insert((a, b));
        }
    }

    ClockAnalysis {
        classes,
        decl_classes,
        class_of: OnceLock::new(),
        edges,
        closure: OnceLock::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_component;

    fn analyze(src: &str) -> ClockAnalysis {
        analyze_component(&parse_component(src).unwrap())
    }

    #[test]
    fn pre_and_pointwise_ops_synchronize() {
        let a =
            analyze("process P { input y: int; output x: int, z: int; x := pre 0 y; z := x + y; }");
        assert!(a.same_clock(&"x".into(), &"y".into()));
        assert!(a.same_clock(&"z".into(), &"y".into()));
    }

    #[test]
    fn when_gives_subset() {
        let a = analyze("process P { input y: int, c: bool; output x: int; x := y when c; }");
        assert!(a.dominated_by(&"x".into(), &"y".into()));
        assert!(a.dominated_by(&"x".into(), &"c".into()));
        assert!(!a.same_clock(&"x".into(), &"y".into()));
    }

    #[test]
    fn default_gives_superset() {
        let a = analyze("process P { input y: int, z: int; output x: int; x := y default z; }");
        assert!(a.dominated_by(&"y".into(), &"x".into()));
        assert!(a.dominated_by(&"z".into(), &"x".into()));
    }

    #[test]
    fn sync_constraints_unify() {
        let a =
            analyze("process P { input y: int, z: int; output x: int; x := y default z; x ^= y; }");
        assert!(a.same_clock(&"x".into(), &"y".into()));
        // z ⊆ x = y
        assert!(a.dominated_by(&"z".into(), &"y".into()));
    }

    #[test]
    fn dominance_is_transitive() {
        let a = analyze(
            "process P { input y: int, c: bool, d: bool; output x: int, w: int; \
             x := y when c; w := x when d; }",
        );
        assert!(a.dominated_by(&"w".into(), &"x".into()));
        assert!(a.dominated_by(&"w".into(), &"y".into()));
        assert!(!a.dominated_by(&"y".into(), &"w".into()));
    }

    #[test]
    fn masters_of_flat_component() {
        let a = analyze("process P { input y: int; output x: int; x := pre 0 y; }");
        // single class → single master → rooted
        assert_eq!(a.classes.len(), 1);
        assert_eq!(a.masters().len(), 1);
        assert!(a.is_rooted());
    }

    #[test]
    fn rooted_hierarchy_detected() {
        let a =
            analyze("process P { input y: int, c: bool; output x: int; x := y when c; y ^= c; }");
        // y = c is the unique master; x below it
        assert!(a.is_rooted());
    }

    #[test]
    fn unrooted_when_two_independent_inputs() {
        let a =
            analyze("process P { input y: int, z: int; output x: int, w: int; x := y; w := z; }");
        // y-class and z-class are unrelated maximal classes
        assert!(!a.is_rooted());
        assert!(a.masters().len() >= 2);
    }

    #[test]
    fn clock_of_has_operand_clock() {
        let a = analyze("process P { input y: int; output k: bool; k := ^y; }");
        assert!(a.same_clock(&"k".into(), &"y".into()));
    }

    #[test]
    fn constants_adapt_to_context() {
        let a = analyze("process P { input y: int; output x: int; x := y + 1; }");
        assert!(a.same_clock(&"x".into(), &"y".into()));
    }

    #[test]
    fn mutual_inclusion_is_equal_clock() {
        // x := (y when c) default y: x ⊆ y and y ⊆ x, different classes
        let a = analyze(
            "process P { input y: int, c: bool; output x: int; x := (y when c) default y; }",
        );
        assert!(!a.same_clock(&"x".into(), &"y".into()));
        assert!(a.equal_clock(&"x".into(), &"y".into()));
        // the guard only bounds the sampled branch: c stays unrelated
        assert!(!a.equal_clock(&"c".into(), &"y".into()));
    }

    #[test]
    fn root_of_rooted_hierarchy_dominates_all() {
        let a =
            analyze("process P { input y: int, c: bool; output x: int; x := y when c; y ^= c; }");
        let root = a.root().unwrap();
        assert!(a.classes[root].members.contains(&"y".into()));
        let flat = analyze("process P { input y: int; output x: int; x := pre 0 y; }");
        assert_eq!(flat.root(), Some(0));
        let split =
            analyze("process P { input y: int, z: int; output x: int, w: int; x := y; w := z; }");
        assert_eq!(split.root(), None);
    }

    #[test]
    fn endochrony_classification() {
        use crate::parser::parse_component;

        // input-anchored root: endochronous
        let c = parse_component("process P { input a: int; output x: int; x := a + 1; }").unwrap();
        assert_eq!(classify_endochrony(&c), Endochrony::Endochronous);

        // rooted in an internal master: endochronizable
        let c = parse_component(
            "process P { input a: int; output x: int; local m: bool; \
             m := (^a) default (pre false m); x := a when m; }",
        )
        .unwrap();
        match classify_endochrony(&c) {
            Endochrony::Endochronizable { master } => {
                assert!(master.contains(&"m".into()), "master {master:?}");
            }
            other => panic!("expected Endochronizable, got {other:?}"),
        }

        // two unrelated input clocks: non-deterministic
        let c = parse_component(
            "process P { input y: int, z: int; output x: int, w: int; x := y; w := z; }",
        )
        .unwrap();
        match classify_endochrony(&c) {
            Endochrony::NonDeterministic { masters } => assert!(masters.len() >= 2),
            other => panic!("expected NonDeterministic, got {other:?}"),
        }

        // the mutually-included accumulator stays endochronous
        let c = parse_component(
            "process Acc { input tick: bool; output n: int; local np: int; \
             np := (pre 0 n) when tick; n := (0 when (np = 3)) default (np + 1); n ^= tick; }",
        )
        .unwrap();
        assert_eq!(classify_endochrony(&c), Endochrony::Endochronous);
    }

    #[test]
    fn const_guard_source_peels_transparent_guards() {
        use crate::parser::parse_expr;

        let src = |s: &str| {
            let e = parse_expr(s).unwrap();
            const_guard_source(&e).map(|n| n.as_str().to_string())
        };
        assert_eq!(src("a + 1"), Some("a".into()));
        assert_eq!(src("pre 0 a"), Some("a".into()));
        assert_eq!(src("a when true"), Some("a".into()));
        assert_eq!(src("(a when true) default a"), Some("a".into()));
        assert_eq!(src("a when c"), None);
        assert_eq!(src("a default b"), None);
        assert_eq!(src("3"), None);
        assert_eq!(src("a + a"), Some("a".into()));
    }
}
