//! The "translate to French" property.
//!
//! A word-map translation standing in for the paper's language translation
//! service. The target language can be fixed at attach time or resolved
//! from the document's `preferredLanguage` static property at read time —
//! the latter demonstrates a property depending on *other property values*
//! (changing `preferredLanguage` is then an invalidation cause).

use crate::wordmap::WordTable;
use bytes::Bytes;
use placeless_core::error::Result;
use placeless_core::event::{EventKind, Interests};
use placeless_core::property::{ActiveProperty, PathCtx, PathReport};
use placeless_core::streams::{InputStream, TransformingInput};
use std::collections::HashMap;
use std::sync::Arc;

/// English → French.
pub const EN_FR: &[(&str, &str)] = &[
    ("the", "le"),
    ("document", "document"),
    ("paper", "papier"),
    ("workshop", "atelier"),
    ("cache", "cache"),
    ("property", "propriété"),
    ("active", "actif"),
    ("draft", "brouillon"),
    ("hello", "bonjour"),
    ("world", "monde"),
    ("budget", "budget"),
    ("and", "et"),
    ("content", "contenu"),
    ("system", "système"),
];

/// English → Spanish.
pub const EN_ES: &[(&str, &str)] = &[
    ("the", "el"),
    ("document", "documento"),
    ("paper", "papel"),
    ("workshop", "taller"),
    ("cache", "caché"),
    ("property", "propiedad"),
    ("active", "activo"),
    ("draft", "borrador"),
    ("hello", "hola"),
    ("world", "mundo"),
    ("budget", "presupuesto"),
    ("and", "y"),
    ("content", "contenido"),
    ("system", "sistema"),
];

/// How the target language is chosen.
enum Target {
    /// Fixed at attach time.
    Fixed(String),
    /// Read from the `preferredLanguage` static property on each path.
    FromProperty,
}

/// Word-map translation on the read path.
pub struct Translate {
    target: Target,
    /// One compiled table per language, built here once: `wrap_input`
    /// (which runs on every stage hit too) only clones an `Arc`.
    tables: HashMap<&'static str, Arc<WordTable>>,
    cost_micros: u64,
}

impl Translate {
    fn with_target(target: Target) -> Arc<Self> {
        let tables = [("fr", EN_FR), ("es", EN_ES)]
            .into_iter()
            .map(|(lang, pairs)| (lang, Arc::new(WordTable::new(pairs.iter().copied()))))
            .collect();
        Arc::new(Self {
            target,
            tables,
            cost_micros: 2_000,
        })
    }

    /// Creates a translator with a fixed target language (`"fr"`, `"es"`).
    pub fn to(language: &str) -> Arc<Self> {
        Self::with_target(Target::Fixed(language.to_owned()))
    }

    /// Creates a translator that resolves `preferredLanguage` from the
    /// document's properties at read time.
    pub fn from_preferred_language() -> Arc<Self> {
        Self::with_target(Target::FromProperty)
    }

    /// Resolves the target language for one path.
    fn resolved_language<'a>(&'a self, ctx: &PathCtx<'a>) -> &'a str {
        match &self.target {
            Target::Fixed(lang) => lang,
            Target::FromProperty => ctx
                .props
                .get("preferredLanguage")
                .and_then(|v| v.as_str())
                .unwrap_or("en"),
        }
    }

    /// Translates a whole buffer through `table`, leaving unknown words
    /// untouched.
    pub fn translate(table: &WordTable, text: &[u8]) -> Bytes {
        table.rewrite(text, false)
    }
}

impl ActiveProperty for Translate {
    fn name(&self) -> &str {
        "translate"
    }

    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }

    fn execution_cost_micros(&self) -> u64 {
        self.cost_micros
    }

    fn wrap_input(
        &self,
        ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> Result<Box<dyn InputStream>> {
        // No table for the resolved language means no translation: hand
        // back `inner` itself, so the executor sees a pass-through stage
        // and carries the input's digest instead of hashing a copy.
        let Some(table) = self.tables.get(self.resolved_language(ctx)) else {
            return Ok(inner);
        };
        let table = table.clone();
        Ok(Box::new(TransformingInput::new(
            inner,
            Box::new(move |bytes| Ok(Self::translate(&table, &bytes))),
        )))
    }

    fn transform_token(&self, ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        // The output depends only on the resolved target language (the
        // word tables are built in), so the token is that language — which
        // also means a fixed-target translator and a preference-resolved
        // one share stage entries when they agree. A changed
        // `preferredLanguage` yields a new token, so the old stage entry
        // simply stops being addressed: invalidation by construction.
        let language = self.resolved_language(ctx);
        let mut token = b"translate-v1:".to_vec();
        token.extend_from_slice(language.as_bytes());
        Some(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::read_through;
    use placeless_core::property::PropsSnapshot;
    use placeless_core::streams::{read_all, MemoryInput};

    #[test]
    fn translates_to_french() {
        let prop = Translate::to("fr");
        assert_eq!(
            read_through(prop, b"hello world, the workshop paper"),
            "bonjour monde, le atelier papier"
        );
    }

    #[test]
    fn translates_to_spanish() {
        let prop = Translate::to("es");
        assert_eq!(read_through(prop, b"hello world"), "hola mundo");
    }

    #[test]
    fn unknown_language_is_identity() {
        let prop = Translate::to("klingon");
        assert_eq!(read_through(prop, b"hello world"), "hello world");
    }

    #[test]
    fn unknown_words_pass_through() {
        let prop = Translate::to("fr");
        assert_eq!(read_through(prop, b"hello xyzzy"), "bonjour xyzzy");
    }

    #[test]
    fn resolves_preferred_language_from_properties() {
        use placeless_core::event::EventSite;
        use placeless_core::id::{DocumentId, UserId};
        use placeless_core::property::{PathCtx, PathReport};
        use placeless_simenv::VirtualClock;

        let prop = Translate::from_preferred_language();
        let clock = VirtualClock::new();
        let snap = PropsSnapshot::from_pairs(vec![("preferredLanguage".to_owned(), "es".into())]);
        let ctx = PathCtx {
            clock: &clock,
            doc: DocumentId(1),
            user: UserId(1),
            site: EventSite::Reference(UserId(1)),
            props: &snap,
        };
        let mut report = PathReport::default();
        let inner = Box::new(MemoryInput::new(Bytes::from_static(b"hello world")));
        let mut wrapped = prop.wrap_input(&ctx, &mut report, inner).unwrap();
        assert_eq!(read_all(wrapped.as_mut()).unwrap(), "hola mundo");
    }

    #[test]
    fn no_preference_means_no_translation() {
        let prop = Translate::from_preferred_language();
        assert_eq!(read_through(prop, b"hello world"), "hello world");
    }

    #[test]
    fn token_tracks_resolved_language() {
        use crate::testutil::token_with_props;

        let fixed_fr = Translate::to("fr");
        let fixed_es = Translate::to("es");
        let preferred = Translate::from_preferred_language();

        // Different targets re-key the stage.
        assert_ne!(
            token_with_props(fixed_fr.as_ref(), &[]),
            token_with_props(fixed_es.as_ref(), &[])
        );
        // A fixed target and a matching preference share the token (and
        // hence the stage entry).
        assert_eq!(
            token_with_props(fixed_es.as_ref(), &[]),
            token_with_props(preferred.as_ref(), &[("preferredLanguage", "es")])
        );
        // Changing the preference changes the token.
        assert_ne!(
            token_with_props(preferred.as_ref(), &[("preferredLanguage", "es")]),
            token_with_props(preferred.as_ref(), &[("preferredLanguage", "fr")])
        );
    }
}
