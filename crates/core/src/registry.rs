//! The property registry: attach-by-name factories.
//!
//! In the original Java system, active properties were code objects loaded
//! into the middleware at runtime. A statically compiled Rust system cannot
//! load arbitrary code, so the registry recovers the paper's dynamism: a
//! property *kind* is registered once (by a crate, at startup), and property
//! *instances* are data — a kind name plus a [`Params`] map — that users
//! attach to documents at runtime. The PropLang crate pushes this further by
//! registering an interpreter-backed kind whose behaviour is itself carried
//! in the parameters.

use crate::content::Params;
use crate::error::{PlacelessError, Result};
use crate::property::ActiveProperty;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A factory producing active-property instances from parameters.
pub type PropertyFactory = Box<dyn Fn(&Params) -> Result<Arc<dyn ActiveProperty>> + Send + Sync>;

/// A name → factory map for instantiating active properties at runtime.
///
/// # Examples
///
/// ```
/// use placeless_core::content::Params;
/// use placeless_core::event::Interests;
/// use placeless_core::property::ActiveProperty;
/// use placeless_core::registry::PropertyRegistry;
/// use std::sync::Arc;
///
/// struct Label(String);
/// impl ActiveProperty for Label {
///     fn name(&self) -> &str { &self.0 }
///     fn interests(&self) -> Interests { Interests::NONE }
/// }
///
/// let registry = PropertyRegistry::new();
/// registry.register("label", |params| {
///     let text = params.get_str("text").unwrap_or("unnamed").to_owned();
///     Ok(Arc::new(Label(text)))
/// });
/// let prop = registry.instantiate("label", &Params::new().with("text", "hi")).unwrap();
/// assert_eq!(prop.name(), "hi");
/// ```
#[derive(Default)]
pub struct PropertyRegistry {
    factories: RwLock<HashMap<String, PropertyFactory>>,
}

impl PropertyRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a factory under `kind`, replacing any previous one.
    pub fn register(
        &self,
        kind: &str,
        factory: impl Fn(&Params) -> Result<Arc<dyn ActiveProperty>> + Send + Sync + 'static,
    ) {
        self.factories
            .write()
            .insert(kind.to_owned(), Box::new(factory));
    }

    /// Instantiates a property of the named kind.
    pub fn instantiate(&self, kind: &str, params: &Params) -> Result<Arc<dyn ActiveProperty>> {
        let factories = self.factories.read();
        let factory = factories
            .get(kind)
            .ok_or_else(|| PlacelessError::UnknownPropertyKind(kind.to_owned()))?;
        factory(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Interests;

    struct Noop;
    impl ActiveProperty for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn interests(&self) -> Interests {
            Interests::NONE
        }
    }

    #[test]
    fn instantiate_unknown_kind_fails() {
        let registry = PropertyRegistry::new();
        let err = registry.instantiate("ghost", &Params::new()).err().unwrap();
        assert_eq!(err, PlacelessError::UnknownPropertyKind("ghost".into()));
    }

    #[test]
    fn register_and_instantiate() {
        let registry = PropertyRegistry::new();
        registry.register("noop", |_| Ok(Arc::new(Noop)));
        let prop = registry.instantiate("noop", &Params::new()).unwrap();
        assert_eq!(prop.name(), "noop");
    }

    #[test]
    fn factories_can_reject_params() {
        let registry = PropertyRegistry::new();
        registry.register("strict", |params| {
            if params.get_int("level").is_none() {
                return Err(PlacelessError::BadPropertyParams(
                    "`level` is required".into(),
                ));
            }
            Ok(Arc::new(Noop))
        });
        assert!(registry.instantiate("strict", &Params::new()).is_err());
        assert!(registry
            .instantiate("strict", &Params::new().with("level", 3i64))
            .is_ok());
    }

    #[test]
    fn reregistration_replaces() {
        struct Named(&'static str);
        impl ActiveProperty for Named {
            fn name(&self) -> &str {
                self.0
            }
            fn interests(&self) -> Interests {
                Interests::NONE
            }
        }
        let registry = PropertyRegistry::new();
        registry.register("x", |_| Ok(Arc::new(Named("v1"))));
        registry.register("x", |_| Ok(Arc::new(Named("v2"))));
        assert_eq!(
            registry.instantiate("x", &Params::new()).unwrap().name(),
            "v2"
        );
    }
}
