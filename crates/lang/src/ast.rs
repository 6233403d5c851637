//! Abstract syntax of core Signal (the paper's Figure 1, plus the shorthands
//! used in its Example 1).
//!
//! A [`Program`] is a list of [`Component`]s assumed to run synchronously in
//! parallel; components exchange data through signals that are outputs of one
//! component and inputs of another. A component consists of signal
//! declarations and [`Statement`]s: equations `x := e` and clock
//! synchronization constraints `x ^= y` (the latter are derived syntax in the
//! paper but ubiquitous in its examples).

use std::collections::BTreeSet;
use std::fmt;

use polysig_tagged::{SigName, Value, ValueType};

/// Unary pointwise operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unop {
    /// Boolean negation.
    Not,
    /// Integer negation.
    Neg,
    /// The paper's `^x` shorthand: `true when (x == x)` — a boolean `true`
    /// at exactly the instants where the operand is present.
    ClockOf,
}

impl fmt::Display for Unop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unop::Not => write!(f, "not"),
            Unop::Neg => write!(f, "-"),
            Unop::ClockOf => write!(f, "^"),
        }
    }
}

/// Binary synchronous pointwise operators (the paper's `f(y, z, …)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Binop {
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Equality on equal-typed operands (the paper's `==`).
    Eq,
    /// Inequality.
    Ne,
    /// Strictly less (integers).
    Lt,
    /// Less or equal (integers).
    Le,
    /// Strictly greater (integers).
    Gt,
    /// Greater or equal (integers).
    Ge,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
}

impl Binop {
    /// `true` for operators producing booleans.
    pub fn returns_bool(self) -> bool {
        !matches!(self, Binop::Add | Binop::Sub | Binop::Mul)
    }

    /// `true` for operators requiring integer operands.
    pub fn takes_ints(self) -> bool {
        matches!(
            self,
            Binop::Add | Binop::Sub | Binop::Mul | Binop::Lt | Binop::Le | Binop::Gt | Binop::Ge
        )
    }

    /// Applies the operator to two values.
    ///
    /// Returns `None` on a type mismatch (callers surface this as a runtime
    /// type error; the static checker rules it out for checked programs).
    #[inline]
    pub fn apply(self, a: Value, b: Value) -> Option<Value> {
        use Binop::*;
        Some(match self {
            Add => Value::Int(a.as_int()?.checked_add(b.as_int()?)?),
            Sub => Value::Int(a.as_int()?.checked_sub(b.as_int()?)?),
            Mul => Value::Int(a.as_int()?.checked_mul(b.as_int()?)?),
            Eq => Value::Bool(a == b && a.ty() == b.ty()),
            Ne => Value::Bool(a.ty() == b.ty() && a != b),
            Lt => Value::Bool(a.as_int()? < b.as_int()?),
            Le => Value::Bool(a.as_int()? <= b.as_int()?),
            Gt => Value::Bool(a.as_int()? > b.as_int()?),
            Ge => Value::Bool(a.as_int()? >= b.as_int()?),
            And => Value::Bool(a.as_bool()? && b.as_bool()?),
            Or => Value::Bool(a.as_bool()? || b.as_bool()?),
        })
    }
}

impl fmt::Display for Binop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Binop::Add => "+",
            Binop::Sub => "-",
            Binop::Mul => "*",
            Binop::Eq => "=",
            Binop::Ne => "/=",
            Binop::Lt => "<",
            Binop::Le => "<=",
            Binop::Gt => ">",
            Binop::Ge => ">=",
            Binop::And => "and",
            Binop::Or => "or",
        };
        f.write_str(s)
    }
}

/// A Signal expression (right-hand side of an equation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A signal reference.
    Var(SigName),
    /// A constant; its clock is taken from the context (the enclosing
    /// operator or, at top level, the defined signal).
    Const(Value),
    /// `pre init y` — the previous value of `y`, initially `init`
    /// (synchronous with `y`).
    Pre {
        /// Initial value delivered at `body`'s first instant.
        init: Value,
        /// The delayed expression.
        body: Box<Expr>,
    },
    /// `y when z` — `y`'s value at instants where `z` is present and true.
    When {
        /// The sampled expression.
        body: Box<Expr>,
        /// The boolean condition expression.
        cond: Box<Expr>,
    },
    /// `y default z` — `y` when present, else `z`.
    Default {
        /// The preferred expression.
        left: Box<Expr>,
        /// The fallback expression.
        right: Box<Expr>,
    },
    /// A unary pointwise operator.
    Unary {
        /// The operator.
        op: Unop,
        /// Its operand.
        arg: Box<Expr>,
    },
    /// A binary synchronous pointwise operator.
    Binary {
        /// The operator.
        op: Binop,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
}

impl Expr {
    /// A variable reference.
    pub fn var(name: impl Into<SigName>) -> Expr {
        Expr::Var(name.into())
    }

    /// An integer constant.
    pub fn int(v: i64) -> Expr {
        Expr::Const(Value::Int(v))
    }

    /// A boolean constant.
    pub fn bool(v: bool) -> Expr {
        Expr::Const(Value::Bool(v))
    }

    /// `pre init self`.
    pub fn pre(self, init: Value) -> Expr {
        Expr::Pre { init, body: Box::new(self) }
    }

    /// `self when cond`.
    pub fn when(self, cond: Expr) -> Expr {
        Expr::When { body: Box::new(self), cond: Box::new(cond) }
    }

    /// `self default other`.
    pub fn default(self, other: Expr) -> Expr {
        Expr::Default { left: Box::new(self), right: Box::new(other) }
    }

    /// `not self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Unary { op: Unop::Not, arg: Box::new(self) }
    }

    /// `^self` — the clock of the expression.
    pub fn clock(self) -> Expr {
        Expr::Unary { op: Unop::ClockOf, arg: Box::new(self) }
    }

    /// `self <op> other`.
    pub fn binop(self, op: Binop, other: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(self), right: Box::new(other) }
    }

    /// Calls `f` on every signal read by the expression, in reading order
    /// and with repetitions.
    pub fn for_each_var<'a>(&'a self, f: &mut impl FnMut(&'a SigName)) {
        match self {
            Expr::Var(x) => f(x),
            Expr::Const(_) => {}
            Expr::Pre { body, .. } => body.for_each_var(f),
            Expr::When { body: left, cond: right }
            | Expr::Default { left, right }
            | Expr::Binary { left, right, .. } => {
                left.for_each_var(f);
                right.for_each_var(f);
            }
            Expr::Unary { arg, .. } => arg.for_each_var(f),
        }
    }

    /// Collects every signal name read by the expression into `out`.
    pub fn collect_vars(&self, out: &mut BTreeSet<SigName>) {
        self.for_each_var(&mut |x| {
            out.insert(x.clone());
        });
    }

    /// The signals read by the expression.
    pub fn free_vars(&self) -> BTreeSet<SigName> {
        let mut out = BTreeSet::new();
        self.collect_vars(&mut out);
        out
    }

    /// Collects signals whose *current-instant value* flows into the result
    /// (i.e. excluding those only read under `pre`, which breaks
    /// instantaneous causality).
    pub fn collect_instant_vars(&self, out: &mut BTreeSet<SigName>) {
        match self {
            Expr::Var(x) => {
                out.insert(x.clone());
            }
            Expr::Const(_) => {}
            // pre decouples the instantaneous dependency — only the *clock*
            // of the body matters, which deps.rs accounts for separately.
            Expr::Pre { .. } => {}
            Expr::When { body, cond } => {
                body.collect_instant_vars(out);
                cond.collect_instant_vars(out);
            }
            Expr::Default { left, right } | Expr::Binary { left, right, .. } => {
                left.collect_instant_vars(out);
                right.collect_instant_vars(out);
            }
            Expr::Unary { arg, .. } => arg.collect_instant_vars(out),
        }
    }

    /// Renames every occurrence of signal `from` to `to`.
    pub fn rename_var(&self, from: &SigName, to: &SigName) -> Expr {
        match self {
            Expr::Var(x) if x == from => Expr::Var(to.clone()),
            Expr::Var(_) | Expr::Const(_) => self.clone(),
            Expr::Pre { init, body } => {
                Expr::Pre { init: *init, body: Box::new(body.rename_var(from, to)) }
            }
            Expr::When { body, cond } => Expr::When {
                body: Box::new(body.rename_var(from, to)),
                cond: Box::new(cond.rename_var(from, to)),
            },
            Expr::Default { left, right } => Expr::Default {
                left: Box::new(left.rename_var(from, to)),
                right: Box::new(right.rename_var(from, to)),
            },
            Expr::Unary { op, arg } => {
                Expr::Unary { op: *op, arg: Box::new(arg.rename_var(from, to)) }
            }
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.rename_var(from, to)),
                right: Box::new(right.rename_var(from, to)),
            },
        }
    }
}

/// A signal equation `x := e`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Equation {
    /// The defined signal.
    pub lhs: SigName,
    /// The defining expression.
    pub rhs: Expr,
}

/// A component statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// A defining equation.
    Eq(Equation),
    /// A clock synchronization constraint: all listed signals share one
    /// clock (`x ^= y ^= …`).
    Sync(Vec<SigName>),
}

/// The role a signal plays in a component's interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Role {
    /// Read from the environment (or another component).
    Input,
    /// Defined here and visible outside.
    Output,
    /// Defined and used here only.
    Local,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Input => write!(f, "input"),
            Role::Output => write!(f, "output"),
            Role::Local => write!(f, "local"),
        }
    }
}

/// A signal declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Declaration {
    /// The declared name.
    pub name: SigName,
    /// Its interface role.
    pub role: Role,
    /// Its value type.
    pub ty: ValueType,
}

/// A synchronous component: declarations plus statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Component {
    /// Component name (`CName` of Figure 1).
    pub name: String,
    /// Signal declarations.
    pub decls: Vec<Declaration>,
    /// Equations and synchronization constraints.
    pub stmts: Vec<Statement>,
}

impl Component {
    /// Creates an empty component.
    pub fn new(name: impl Into<String>) -> Self {
        Component { name: name.into(), decls: Vec::new(), stmts: Vec::new() }
    }

    /// Declared signals with a given role.
    pub fn signals_with_role(&self, role: Role) -> impl Iterator<Item = &Declaration> + '_ {
        self.decls.iter().filter(move |d| d.role == role)
    }

    /// Looks up a declaration by name.
    pub fn decl(&self, name: &SigName) -> Option<&Declaration> {
        self.decls.iter().find(|d| &d.name == name)
    }

    /// All declared names.
    pub fn names(&self) -> BTreeSet<SigName> {
        self.decls.iter().map(|d| d.name.clone()).collect()
    }

    /// The equations (skipping sync constraints).
    pub fn equations(&self) -> impl Iterator<Item = &Equation> + '_ {
        self.stmts.iter().filter_map(|s| match s {
            Statement::Eq(eq) => Some(eq),
            Statement::Sync(_) => None,
        })
    }

    /// The equation defining `name`, if any.
    pub fn defining_equation(&self, name: &SigName) -> Option<&Equation> {
        self.equations().find(|eq| &eq.lhs == name)
    }

    /// Renames a signal everywhere in the component (declaration, equations,
    /// sync constraints).
    pub fn rename_signal(&self, from: &SigName, to: &SigName) -> Component {
        Component {
            name: self.name.clone(),
            decls: self
                .decls
                .iter()
                .map(|d| Declaration {
                    name: if &d.name == from { to.clone() } else { d.name.clone() },
                    role: d.role,
                    ty: d.ty,
                })
                .collect(),
            stmts: self
                .stmts
                .iter()
                .map(|s| match s {
                    Statement::Eq(eq) => Statement::Eq(Equation {
                        lhs: if &eq.lhs == from { to.clone() } else { eq.lhs.clone() },
                        rhs: eq.rhs.rename_var(from, to),
                    }),
                    Statement::Sync(names) => Statement::Sync(
                        names
                            .iter()
                            .map(|n| if n == from { to.clone() } else { n.clone() })
                            .collect(),
                    ),
                })
                .collect(),
        }
    }
}

/// A program: components composed synchronously in parallel (`∥s`), wired by
/// name — a signal that is an output of one component and an input of
/// another is a shared variable in the sense of Definition 7.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Program name (`PName` of Figure 1).
    pub name: String,
    /// The synchronous components.
    pub components: Vec<Component>,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program { name: name.into(), components: Vec::new() }
    }

    /// Creates a single-component program.
    pub fn single(component: Component) -> Self {
        Program { name: component.name.clone(), components: vec![component] }
    }

    /// Finds a component by name.
    pub fn component(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.name == name)
    }

    /// Signals shared between two components of the program: outputs of one
    /// that are inputs of the other (the explicit data dependencies of
    /// Definition 7).
    pub fn shared_signals(&self, a: &str, b: &str) -> BTreeSet<SigName> {
        let (Some(ca), Some(cb)) = (self.component(a), self.component(b)) else {
            return BTreeSet::new();
        };
        let mut out = BTreeSet::new();
        for d in &ca.decls {
            if d.role == Role::Local {
                continue;
            }
            if let Some(other) = cb.decl(&d.name) {
                if other.role != Role::Local {
                    out.insert(d.name.clone());
                }
            }
        }
        out
    }

    /// All program-level input signals: inputs of some component that no
    /// component outputs.
    pub fn external_inputs(&self) -> BTreeSet<SigName> {
        let outputs: BTreeSet<SigName> = self
            .components
            .iter()
            .flat_map(|c| c.signals_with_role(Role::Output).map(|d| d.name.clone()))
            .collect();
        self.components
            .iter()
            .flat_map(|c| c.signals_with_role(Role::Input).map(|d| d.name.clone()))
            .filter(|n| !outputs.contains(n))
            .collect()
    }

    /// All program-level output signals (outputs of any component).
    pub fn external_outputs(&self) -> BTreeSet<SigName> {
        self.components
            .iter()
            .flat_map(|c| c.signals_with_role(Role::Output).map(|d| d.name.clone()))
            .collect()
    }

    /// Every declared name across components.
    pub fn all_names(&self) -> BTreeSet<SigName> {
        self.components.iter().flat_map(|c| c.names()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_apply_arithmetic() {
        assert_eq!(Binop::Add.apply(Value::Int(2), Value::Int(3)), Some(Value::Int(5)));
        assert_eq!(Binop::Sub.apply(Value::Int(2), Value::Int(3)), Some(Value::Int(-1)));
        assert_eq!(Binop::Mul.apply(Value::Int(4), Value::Int(3)), Some(Value::Int(12)));
        assert_eq!(Binop::Add.apply(Value::Bool(true), Value::Int(3)), None);
    }

    #[test]
    fn binop_apply_comparisons_and_logic() {
        assert_eq!(Binop::Eq.apply(Value::Int(2), Value::Int(2)), Some(Value::TRUE));
        assert_eq!(Binop::Ne.apply(Value::Int(2), Value::Int(3)), Some(Value::TRUE));
        assert_eq!(Binop::Lt.apply(Value::Int(2), Value::Int(3)), Some(Value::TRUE));
        assert_eq!(Binop::Ge.apply(Value::Int(2), Value::Int(3)), Some(Value::FALSE));
        assert_eq!(Binop::And.apply(Value::TRUE, Value::FALSE), Some(Value::FALSE));
        assert_eq!(Binop::Or.apply(Value::FALSE, Value::TRUE), Some(Value::TRUE));
        // cross-type equality is a static type error; dynamically it is false
        assert_eq!(Binop::Eq.apply(Value::Int(1), Value::Bool(true)), Some(Value::FALSE));
    }

    #[test]
    fn expr_builders_compose() {
        let e = Expr::var("y").when(Expr::var("z")).default(Expr::var("w").pre(Value::Int(0)));
        let vars = e.free_vars();
        assert_eq!(vars.len(), 3);
    }

    #[test]
    fn instant_vars_skip_pre() {
        let e = Expr::var("y").pre(Value::Int(0)).default(Expr::var("z"));
        let mut out = BTreeSet::new();
        e.collect_instant_vars(&mut out);
        assert!(out.contains(&SigName::from("z")));
        assert!(!out.contains(&SigName::from("y")));
    }

    #[test]
    fn rename_var_descends() {
        let e = Expr::var("x").when(Expr::var("x").clock()).default(Expr::var("y"));
        let r = e.rename_var(&"x".into(), &"x_p".into());
        let vars = r.free_vars();
        assert!(vars.contains(&SigName::from("x_p")));
        assert!(!vars.contains(&SigName::from("x")));
        assert!(vars.contains(&SigName::from("y")));
    }

    #[test]
    fn component_rename_touches_everything() {
        let mut c = Component::new("C");
        c.decls.push(Declaration { name: "x".into(), role: Role::Output, ty: ValueType::Int });
        c.decls.push(Declaration { name: "y".into(), role: Role::Input, ty: ValueType::Int });
        c.stmts.push(Statement::Eq(Equation { lhs: "x".into(), rhs: Expr::var("y") }));
        c.stmts.push(Statement::Sync(vec!["x".into(), "y".into()]));
        let r = c.rename_signal(&"x".into(), &"x2".into());
        assert!(r.decl(&"x2".into()).is_some());
        assert!(r.decl(&"x".into()).is_none());
        assert_eq!(r.defining_equation(&"x2".into()).unwrap().rhs, Expr::var("y"));
        match &r.stmts[1] {
            Statement::Sync(names) => assert!(names.contains(&"x2".into())),
            Statement::Eq(_) => panic!("expected sync statement"),
        }
    }

    #[test]
    fn program_shared_signals() {
        let mut p = Component::new("P");
        p.decls.push(Declaration { name: "x".into(), role: Role::Output, ty: ValueType::Int });
        let mut q = Component::new("Q");
        q.decls.push(Declaration { name: "x".into(), role: Role::Input, ty: ValueType::Int });
        q.decls.push(Declaration { name: "y".into(), role: Role::Output, ty: ValueType::Int });
        let mut prog = Program::new("PQ");
        prog.components.push(p);
        prog.components.push(q);
        let shared = prog.shared_signals("P", "Q");
        assert_eq!(shared.len(), 1);
        assert!(shared.contains(&SigName::from("x")));
        assert!(prog.external_inputs().is_empty());
        assert_eq!(prog.external_outputs().len(), 2);
    }

    #[test]
    fn display_ops() {
        assert_eq!(Unop::Not.to_string(), "not");
        assert_eq!(Binop::Le.to_string(), "<=");
        assert_eq!(Role::Local.to_string(), "local");
    }
}
