//! Registration of the standard property kinds.
//!
//! [`register_standard`] populates a [`PropertyRegistry`] with every
//! self-contained property in this crate, so documents can be personalized
//! at runtime by *name + parameters* — data, not code. Properties that need
//! environment handles (replication targets, portfolio sources) are
//! constructed directly instead.

use crate::compress::CompressAtRest;
use crate::markers::{TtlProperty, UncacheableMarker, Watermark};
use crate::notifiers::{ContentWriteNotifier, PropertyChangeNotifier};
use crate::rot13::Rot13AtRest;
use crate::spellcheck::SpellCheck;
use crate::summarize::Summarize;
use crate::translate::Translate;
use placeless_core::error::PlacelessError;
use placeless_core::id::UserId;
use placeless_core::qos::QosProperty;
use placeless_core::registry::PropertyRegistry;

/// Registers the standard property kinds under their conventional names.
///
/// | Kind | Parameters |
/// |---|---|
/// | `spell-corrector` | — |
/// | `translate` | `language` (string, default from `preferredLanguage`) |
/// | `summarize` | `sentences` (int, default 3) |
/// | `rot13-at-rest` | — |
/// | `compress-at-rest` | — |
/// | `watermark` | — |
/// | `uncacheable` | — |
/// | `ttl` | `micros` (int, required) |
/// | `qos` | `factor` (float) or `bound_micros` + `refetch_micros` |
/// | `notify-on-write` | `except_user` (int, optional) |
/// | `notify-on-property-change` | — |
pub fn register_standard(registry: &PropertyRegistry) {
    registry.register("spell-corrector", |_| Ok(SpellCheck::new()));

    registry.register("translate", |params| {
        Ok(match params.get_str("language") {
            Some(language) => Translate::to(language),
            None => Translate::from_preferred_language(),
        })
    });

    registry.register("summarize", |params| {
        let sentences = params.get_int("sentences").unwrap_or(3);
        if sentences < 1 {
            return Err(PlacelessError::BadPropertyParams(
                "`sentences` must be >= 1".to_owned(),
            ));
        }
        Ok(Summarize::first_sentences(sentences as usize))
    });

    registry.register("rot13-at-rest", |_| Ok(Rot13AtRest::new()));
    registry.register("compress-at-rest", |_| Ok(CompressAtRest::new()));
    registry.register("watermark", |_| Ok(Watermark::new()));
    registry.register("uncacheable", |_| Ok(UncacheableMarker::new()));

    registry.register("ttl", |params| {
        let micros = params
            .get_int("micros")
            .ok_or_else(|| PlacelessError::BadPropertyParams("`micros` is required".to_owned()))?;
        if micros < 0 {
            return Err(PlacelessError::BadPropertyParams(
                "`micros` must be non-negative".to_owned(),
            ));
        }
        Ok(TtlProperty::new(micros as u64))
    });

    registry.register("qos", |params| {
        if let Some(factor) = params.get_float("factor") {
            return Ok(QosProperty::with_factor("qos", factor));
        }
        match (
            params.get_int("bound_micros"),
            params.get_int("refetch_micros"),
        ) {
            (Some(bound), Some(refetch)) if bound >= 0 && refetch >= 0 => {
                Ok(QosProperty::access_time_bound(bound as u64, refetch as u64))
            }
            _ => Err(PlacelessError::BadPropertyParams(
                "need `factor` or `bound_micros` + `refetch_micros`".to_owned(),
            )),
        }
    });

    registry.register("notify-on-write", |params| {
        Ok(match params.get_int("except_user") {
            Some(user) => ContentWriteNotifier::except(UserId(user as u64)),
            None => ContentWriteNotifier::any(),
        })
    });

    registry.register("notify-on-property-change", |_| {
        Ok(PropertyChangeNotifier::any())
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::content::Params;

    #[test]
    fn all_standard_kinds_register() {
        let registry = PropertyRegistry::new();
        register_standard(&registry);
        for kind in [
            "spell-corrector",
            "translate",
            "summarize",
            "rot13-at-rest",
            "compress-at-rest",
            "watermark",
            "uncacheable",
            "ttl",
            "qos",
            "notify-on-write",
            "notify-on-property-change",
        ] {
            let made = registry.instantiate(kind, &Params::new());
            let unknown = PlacelessError::UnknownPropertyKind(kind.into());
            assert!(made.err() != Some(unknown), "missing {kind}");
        }
    }

    #[test]
    fn parameterized_instantiation() {
        let registry = PropertyRegistry::new();
        register_standard(&registry);
        let translate = registry
            .instantiate("translate", &Params::new().with("language", "fr"))
            .unwrap();
        assert_eq!(translate.name(), "translate");
        let summarize = registry
            .instantiate("summarize", &Params::new().with("sentences", 5i64))
            .unwrap();
        assert_eq!(summarize.name(), "summarize");
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let registry = PropertyRegistry::new();
        register_standard(&registry);
        assert!(registry
            .instantiate("summarize", &Params::new().with("sentences", 0i64))
            .is_err());
        assert!(registry.instantiate("ttl", &Params::new()).is_err());
        assert!(registry
            .instantiate("ttl", &Params::new().with("micros", -5i64))
            .is_err());
        assert!(registry.instantiate("qos", &Params::new()).is_err());
    }

    #[test]
    fn qos_both_forms() {
        let registry = PropertyRegistry::new();
        register_standard(&registry);
        assert!(registry
            .instantiate("qos", &Params::new().with("factor", 3.0))
            .is_ok());
        assert!(registry
            .instantiate(
                "qos",
                &Params::new()
                    .with("bound_micros", 25_000i64)
                    .with("refetch_micros", 250_000i64)
            )
            .is_ok());
    }
}
