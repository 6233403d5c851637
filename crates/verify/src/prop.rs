//! Safety properties over reactions.
//!
//! A [`Property`] examines one reaction's present signals. The paper's
//! verification step needs exactly one shape — "the alarm signal is never
//! raised" — but the checker accepts any reaction predicate.

use std::fmt;

use polysig_sim::{ReactionView, Reactor};
use polysig_tagged::{SigId, SigName, Value};

/// A reaction as the checker sees it: present signals with their values,
/// sorted by name.
pub type Reaction = [(SigName, Value)];

/// The recognized shapes of a property, kept alongside the name-keyed
/// closure so the checkers can pre-bind signal names to [`SigId`]s and
/// evaluate the hot loop on dense environments.
pub(crate) enum Shape {
    NeverTrue(SigName),
    NeverPresent(SigName),
    InRange(SigName, i64, i64),
    Custom,
}

/// A named safety property over reactions.
pub struct Property {
    name: String,
    check: Box<dyn Fn(&Reaction) -> bool + Send + Sync>,
    shape: Shape,
}

impl Property {
    /// Builds a property from a predicate (`true` = reaction is fine).
    ///
    /// Custom predicates see name-keyed reactions, so the checkers must
    /// materialize signal names for every transition they examine; the
    /// shaped constructors ([`Property::never_true`] & co.) stay on dense
    /// ids throughout.
    pub fn new(
        name: impl Into<String>,
        check: impl Fn(&Reaction) -> bool + Send + Sync + 'static,
    ) -> Self {
        Property { name: name.into(), check: Box::new(check), shape: Shape::Custom }
    }

    /// The paper's property: `signal` is never present with value `true`
    /// (no alarm is ever raised).
    pub fn never_true(signal: impl Into<SigName>) -> Property {
        let signal = signal.into();
        let s = signal.clone();
        let mut p = Property::new(format!("never {signal}=true"), move |reaction| {
            !reaction.iter().any(|(n, v)| n == &signal && *v == Value::TRUE)
        });
        p.shape = Shape::NeverTrue(s);
        p
    }

    /// `signal` never ticks at all.
    pub fn never_present(signal: impl Into<SigName>) -> Property {
        let signal = signal.into();
        let s = signal.clone();
        let mut p = Property::new(format!("never {signal} present"), move |reaction| {
            !reaction.iter().any(|(n, _)| n == &signal)
        });
        p.shape = Shape::NeverPresent(s);
        p
    }

    /// An integer signal stays within `lo..=hi` whenever present.
    pub fn always_in_range(signal: impl Into<SigName>, lo: i64, hi: i64) -> Property {
        let signal = signal.into();
        let s = signal.clone();
        let mut p = Property::new(format!("{signal} in [{lo}, {hi}]"), move |reaction| {
            reaction
                .iter()
                .all(|(n, v)| n != &signal || v.as_int().is_none_or(|i| lo <= i && i <= hi))
        });
        p.shape = Shape::InRange(s, lo, hi);
        p
    }

    /// The property's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the property on a reaction.
    pub fn holds_on(&self, reaction: &Reaction) -> bool {
        (self.check)(reaction)
    }

    /// The recognized shape, for checkers that compile properties (the
    /// symbolic backend encodes shaped properties and rejects `Custom`).
    pub(crate) fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Pre-binds the property to a reactor's signal ids for dense checking.
    /// A name the program does not declare never appears in a reaction, so
    /// it binds to `None` and the property holds trivially.
    pub(crate) fn bind(&self, reactor: &Reactor) -> DenseCheck<'_> {
        match &self.shape {
            Shape::NeverTrue(s) => DenseCheck::NeverTrue(reactor.sig_id(s)),
            Shape::NeverPresent(s) => DenseCheck::NeverPresent(reactor.sig_id(s)),
            Shape::InRange(s, lo, hi) => DenseCheck::InRange(reactor.sig_id(s), *lo, *hi),
            Shape::Custom => DenseCheck::Custom(self),
        }
    }
}

/// A [`Property`] bound to one reactor's [`SigId`]s: evaluating it on a
/// dense reaction touches no names except in the `Custom` fallback.
pub(crate) enum DenseCheck<'p> {
    NeverTrue(Option<SigId>),
    NeverPresent(Option<SigId>),
    InRange(Option<SigId>, i64, i64),
    Custom(&'p Property),
}

impl DenseCheck<'_> {
    /// Evaluates the bound property on one reaction, reading the shaped
    /// properties' one signal in place. `names` is the reactor's id-ordered
    /// name table, used only by the `Custom` fallback.
    pub(crate) fn holds_dense(&self, env: ReactionView<'_>, names: &[SigName]) -> bool {
        match self {
            DenseCheck::NeverTrue(id) => id.is_none_or(|id| env.get(id) != Some(Value::TRUE)),
            DenseCheck::NeverPresent(id) => id.is_none_or(|id| !env.is_present(id)),
            DenseCheck::InRange(id, lo, hi) => id.is_none_or(|id| match env.get(id) {
                Some(Value::Int(i)) => *lo <= i && i <= *hi,
                _ => true,
            }),
            DenseCheck::Custom(p) => {
                let reaction: Vec<(SigName, Value)> =
                    env.iter().map(|(id, v)| (names[id.index()].clone(), v)).collect();
                p.holds_on(&reaction)
            }
        }
    }
}

impl fmt::Debug for Property {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Property").field("name", &self.name).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reaction(pairs: &[(&str, Value)]) -> Vec<(SigName, Value)> {
        pairs.iter().map(|(n, v)| (SigName::from(*n), *v)).collect()
    }

    #[test]
    fn never_true_fires_only_on_true() {
        let p = Property::never_true("alarm");
        assert!(p.holds_on(&reaction(&[])));
        assert!(p.holds_on(&reaction(&[("alarm", Value::FALSE)])));
        assert!(p.holds_on(&reaction(&[("other", Value::TRUE)])));
        assert!(!p.holds_on(&reaction(&[("alarm", Value::TRUE)])));
    }

    #[test]
    fn never_present_fires_on_any_tick() {
        let p = Property::never_present("x");
        assert!(p.holds_on(&reaction(&[])));
        assert!(!p.holds_on(&reaction(&[("x", Value::FALSE)])));
        assert!(!p.holds_on(&reaction(&[("x", Value::Int(0))])));
    }

    #[test]
    fn range_property() {
        let p = Property::always_in_range("n", 0, 3);
        assert!(p.holds_on(&reaction(&[("n", Value::Int(3))])));
        assert!(!p.holds_on(&reaction(&[("n", Value::Int(4))])));
        assert!(p.holds_on(&reaction(&[("m", Value::Int(100))])));
    }

    #[test]
    fn names_are_descriptive() {
        assert_eq!(Property::never_true("alarm").name(), "never alarm=true");
        assert!(Property::always_in_range("n", 0, 3).name().contains("[0, 3]"));
    }
}
