//! Type checking (bool/int, the paper's value domain `V`).

use polysig_tagged::hash::FxHashMap;
use polysig_tagged::{SigName, ValueType};

use crate::ast::{Binop, Component, Expr, Program, Statement, Unop};
use crate::error::LangError;

/// Infers the type of an expression inside a component.
///
/// # Errors
///
/// Returns a [`LangError::Type`] (attributed to `signal`, the equation's
/// left-hand side) on any mismatch, or [`LangError::UndeclaredSignal`] for
/// unknown names.
pub fn infer_expr(
    c: &Component,
    signal: &polysig_tagged::SigName,
    e: &Expr,
) -> Result<ValueType, LangError> {
    infer(c, &|x| c.decl(x).map(|d| d.ty), signal, e)
}

/// [`infer_expr`] with the declared types looked up through `ty`.
fn infer(
    c: &Component,
    ty: &impl Fn(&SigName) -> Option<ValueType>,
    signal: &SigName,
    e: &Expr,
) -> Result<ValueType, LangError> {
    let type_err = |expected: ValueType, found: ValueType, context: &str| LangError::Type {
        component: c.name.clone(),
        signal: signal.clone(),
        expected,
        found,
        context: context.to_string(),
    };
    let infer = |e: &Expr| infer(c, ty, signal, e);
    match e {
        Expr::Var(x) => ty(x).ok_or_else(|| LangError::UndeclaredSignal {
            component: c.name.clone(),
            name: x.clone(),
        }),
        Expr::Const(v) => Ok(v.ty()),
        Expr::Pre { init, body } => {
            let t = infer(body)?;
            if init.ty() != t {
                return Err(type_err(t, init.ty(), "initial value of pre"));
            }
            Ok(t)
        }
        Expr::When { body, cond } => {
            let tc = infer(cond)?;
            if tc != ValueType::Bool {
                return Err(type_err(ValueType::Bool, tc, "condition of when"));
            }
            infer(body)
        }
        Expr::Default { left, right } => {
            let tl = infer(left)?;
            let tr = infer(right)?;
            if tl != tr {
                return Err(type_err(tl, tr, "right operand of default"));
            }
            Ok(tl)
        }
        Expr::Unary { op, arg } => {
            let ta = infer(arg)?;
            match op {
                Unop::Not => {
                    if ta != ValueType::Bool {
                        return Err(type_err(ValueType::Bool, ta, "operand of not"));
                    }
                    Ok(ValueType::Bool)
                }
                Unop::Neg => {
                    if ta != ValueType::Int {
                        return Err(type_err(ValueType::Int, ta, "operand of unary -"));
                    }
                    Ok(ValueType::Int)
                }
                Unop::ClockOf => Ok(ValueType::Bool),
            }
        }
        Expr::Binary { op, left, right } => {
            let tl = infer(left)?;
            let tr = infer(right)?;
            if op.takes_ints() {
                if tl != ValueType::Int {
                    return Err(type_err(ValueType::Int, tl, "left operand"));
                }
                if tr != ValueType::Int {
                    return Err(type_err(ValueType::Int, tr, "right operand"));
                }
            } else if matches!(op, Binop::And | Binop::Or) {
                if tl != ValueType::Bool {
                    return Err(type_err(ValueType::Bool, tl, "left operand"));
                }
                if tr != ValueType::Bool {
                    return Err(type_err(ValueType::Bool, tr, "right operand"));
                }
            } else if tl != tr {
                // Eq / Ne over equal types
                return Err(type_err(tl, tr, "operands of comparison"));
            }
            Ok(if op.returns_bool() { ValueType::Bool } else { ValueType::Int })
        }
    }
}

/// Checks every equation of a component against its declarations.
///
/// # Errors
///
/// Returns the first type mismatch found.
pub fn check_component(c: &Component) -> Result<(), LangError> {
    // a name declared twice types as its first declaration, as
    // `Component::decl` finds it
    let mut declared: FxHashMap<&SigName, ValueType> = FxHashMap::default();
    declared.reserve(c.decls.len());
    for d in &c.decls {
        declared.entry(&d.name).or_insert(d.ty);
    }
    let ty = |x: &SigName| declared.get(x).copied();
    for stmt in &c.stmts {
        if let Statement::Eq(eq) = stmt {
            let declared = ty(&eq.lhs).ok_or_else(|| LangError::UndeclaredSignal {
                component: c.name.clone(),
                name: eq.lhs.clone(),
            })?;
            let inferred = infer(c, &ty, &eq.lhs, &eq.rhs)?;
            if declared != inferred {
                return Err(LangError::Type {
                    component: c.name.clone(),
                    signal: eq.lhs.clone(),
                    expected: declared,
                    found: inferred,
                    context: "equation right-hand side".to_string(),
                });
            }
        }
    }
    Ok(())
}

/// Checks every component of a program, plus cross-component interface
/// consistency (a shared signal must be declared with the same type
/// everywhere).
///
/// # Errors
///
/// Returns the first type mismatch found.
pub fn check_program(p: &Program) -> Result<(), LangError> {
    for c in &p.components {
        check_component(c)?;
    }
    // interface types agree across components
    let mut seen: std::collections::BTreeMap<polysig_tagged::SigName, (String, ValueType)> =
        std::collections::BTreeMap::new();
    for c in &p.components {
        for d in &c.decls {
            if d.role == crate::ast::Role::Local {
                continue;
            }
            if let Some((other, ty)) = seen.get(&d.name) {
                if *ty != d.ty {
                    return Err(LangError::Type {
                        component: c.name.clone(),
                        signal: d.name.clone(),
                        expected: *ty,
                        found: d.ty,
                        context: format!("interface mismatch with component `{other}`"),
                    });
                }
            } else {
                seen.insert(d.name.clone(), (c.name.clone(), d.ty));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_component, parse_program};

    #[test]
    fn accepts_well_typed_buffer_fragment() {
        let c = parse_component(
            r#"
            process P {
                input msgin: int, rd: bool;
                output msgout: int;
                local data: int, full: bool;
                data := (msgin when (not full)) default (pre 0 data);
                full := (^msgin) default (pre false full);
                msgout := data when rd;
            }
            "#,
        )
        .unwrap();
        assert!(check_component(&c).is_ok());
    }

    #[test]
    fn rejects_bool_plus_int() {
        let c = parse_component("process P { input b: bool; output x: int; x := b + 1; }").unwrap();
        assert!(matches!(check_component(&c), Err(LangError::Type { .. })));
    }

    #[test]
    fn rejects_int_condition() {
        let c =
            parse_component("process P { input a: int; output x: int; x := a when a; }").unwrap();
        let err = check_component(&c).unwrap_err();
        match err {
            LangError::Type { context, .. } => assert!(context.contains("when")),
            other => panic!("expected type error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_mixed_default() {
        let c = parse_component(
            "process P { input a: int, b: bool; output x: int; x := a default b; }",
        )
        .unwrap();
        assert!(matches!(check_component(&c), Err(LangError::Type { .. })));
    }

    #[test]
    fn rejects_pre_init_mismatch() {
        let c =
            parse_component("process P { input a: int; output x: int; x := pre true a; }").unwrap();
        let err = check_component(&c).unwrap_err();
        match err {
            LangError::Type { context, .. } => assert!(context.contains("pre")),
            other => panic!("expected type error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_lhs_mismatch() {
        let c = parse_component("process P { input a: int; output x: bool; x := a; }").unwrap();
        assert!(matches!(check_component(&c), Err(LangError::Type { .. })));
    }

    #[test]
    fn clock_of_is_bool() {
        let c = parse_component("process P { input a: int; output x: bool; x := ^a; }").unwrap();
        assert!(check_component(&c).is_ok());
    }

    #[test]
    fn comparison_requires_equal_types() {
        let c = parse_component("process P { input a: int, b: bool; output x: bool; x := a = b; }")
            .unwrap();
        assert!(matches!(check_component(&c), Err(LangError::Type { .. })));
    }

    #[test]
    fn interface_types_must_agree_across_components() {
        let p = parse_program(
            "process A { output x: int; x := 1 when true; } process B { input x: bool; }",
        )
        .unwrap();
        assert!(matches!(check_program(&p), Err(LangError::Type { .. })));
    }

    #[test]
    fn logic_ops_type_check() {
        let c = parse_component(
            "process P { input a: bool, b: bool; output x: bool; x := (a and b) or not a; }",
        )
        .unwrap();
        assert!(check_component(&c).is_ok());
    }
}
