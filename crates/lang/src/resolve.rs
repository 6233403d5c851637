//! Name resolution and single-writer checking.
//!
//! Enforces the static sanity rules the paper assumes:
//!
//! * every used signal is declared;
//! * inputs are never defined; outputs and locals are defined exactly once;
//! * across components, a signal has at most one writer (the paper's
//!   single-producer assumption below Theorem 2 — multi-producer designs
//!   must go through explicit fork/merge components).

use std::collections::BTreeMap;

use polysig_tagged::hash::FxHashMap;
use polysig_tagged::SigName;

use crate::ast::{Component, Program, Role, Statement};
use crate::error::LangError;

/// Resolves one component.
///
/// # Errors
///
/// Returns the first violated rule as a [`LangError`]: duplicate
/// declarations in declaration order, then statement by statement (an
/// equation's undeclared right-hand-side names in name order), then
/// missing definitions in declaration order.
pub fn resolve_component(c: &Component) -> Result<(), LangError> {
    // no duplicate declarations; `slot` maps a name to its declaration
    let mut slot: FxHashMap<&SigName, usize> = FxHashMap::default();
    slot.reserve(c.decls.len());
    for (i, d) in c.decls.iter().enumerate() {
        if slot.insert(&d.name, i).is_some() {
            return Err(LangError::DuplicateDeclaration {
                component: c.name.clone(),
                name: d.name.clone(),
            });
        }
    }
    let undeclared = |name: &SigName| LangError::UndeclaredSignal {
        component: c.name.clone(),
        name: name.clone(),
    };

    let mut defined = vec![false; c.decls.len()];
    for stmt in &c.stmts {
        match stmt {
            Statement::Eq(eq) => {
                let Some(&i) = slot.get(&eq.lhs) else { return Err(undeclared(&eq.lhs)) };
                if c.decls[i].role == Role::Input {
                    return Err(LangError::InputDefined {
                        component: c.name.clone(),
                        name: eq.lhs.clone(),
                    });
                }
                if std::mem::replace(&mut defined[i], true) {
                    return Err(LangError::MultipleDefinitions {
                        component: c.name.clone(),
                        name: eq.lhs.clone(),
                    });
                }
                let mut first: Option<&SigName> = None;
                eq.rhs.for_each_var(&mut |v| {
                    if !slot.contains_key(v) && first.is_none_or(|f| v < f) {
                        first = Some(v);
                    }
                });
                if let Some(v) = first {
                    return Err(undeclared(v));
                }
            }
            Statement::Sync(names) => {
                if let Some(n) = names.iter().find(|n| !slot.contains_key(n)) {
                    return Err(undeclared(n));
                }
            }
        }
    }

    // outputs and locals must be defined
    for (d, &defined) in c.decls.iter().zip(&defined) {
        if d.role != Role::Input && !defined {
            return Err(LangError::MissingDefinition {
                component: c.name.clone(),
                name: d.name.clone(),
            });
        }
    }
    Ok(())
}

/// Resolves a whole program: each component individually, plus the
/// program-level single-writer rule.
///
/// # Errors
///
/// Returns the first violated rule as a [`LangError`].
pub fn resolve_program(p: &Program) -> Result<(), LangError> {
    let mut writer: BTreeMap<SigName, String> = BTreeMap::new();
    for c in &p.components {
        resolve_component(c)?;
        for d in c.signals_with_role(Role::Output) {
            if let Some(prev) = writer.insert(d.name.clone(), c.name.clone()) {
                return Err(LangError::MultipleWriters {
                    name: d.name.clone(),
                    components: (prev, c.name.clone()),
                });
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
    fn accepts_well_formed_component() {
        let c = parse_component(
            "process P { input a: int; output b: int; local c: int; c := a; b := c + 1; }",
        )
        .unwrap();
        assert!(resolve_component(&c).is_ok());
    }

    #[test]
    fn rejects_undeclared_use() {
        let c = parse_component("process P { output b: int; b := mystery; }").unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::UndeclaredSignal { .. })));
    }

    #[test]
    fn rejects_undeclared_lhs() {
        let c =
            parse_component("process P { output b: int; b := 1 when true; ghost := b; }").unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::UndeclaredSignal { .. })));
    }

    #[test]
    fn rejects_defined_input() {
        let c = parse_component("process P { input a: int; a := 1 when true; }").unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::InputDefined { .. })));
    }

    #[test]
    fn rejects_double_definition() {
        let c = parse_component("process P { output b: int; b := 1 when true; b := 2 when true; }")
            .unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::MultipleDefinitions { .. })));
    }

    #[test]
    fn rejects_missing_definition() {
        let c = parse_component("process P { output b: int; }").unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::MissingDefinition { .. })));
    }

    #[test]
    fn rejects_duplicate_declaration() {
        let c =
            parse_component("process P { input a: int; local a: int; a := 1 when true; }").unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::DuplicateDeclaration { .. })));
    }

    #[test]
    fn rejects_undeclared_in_sync() {
        let c = parse_component("process P { input a: int; a ^= nothere; }").unwrap();
        assert!(matches!(resolve_component(&c), Err(LangError::UndeclaredSignal { .. })));
    }

    #[test]
    fn program_single_writer_rule() {
        let good = parse_program(
            "process A { output x: int; x := 1 when true; } process B { input x: int; }",
        )
        .unwrap();
        assert!(resolve_program(&good).is_ok());

        let bad = parse_program(
            "process A { output x: int; x := 1 when true; } process B { output x: int; x := 2 when true; }",
        )
        .unwrap();
        assert!(matches!(resolve_program(&bad), Err(LangError::MultipleWriters { .. })));
    }
}
