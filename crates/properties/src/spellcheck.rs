//! The spelling-corrector property from the paper's running example.
//!
//! Eyal, not a native English speaker, attaches a personal property that
//! corrects the paper's spelling. It registers for both `getInputStream`
//! and `getOutputStream` (as in Figure 2) and rewrites known misspellings
//! word by word, preserving capitalization of the first letter.

use crate::wordmap::WordTable;
use bytes::Bytes;
use placeless_core::error::Result;
use placeless_core::event::{EventKind, Interests};
use placeless_core::property::{ActiveProperty, PathCtx, PathReport};
use placeless_core::streams::{InputStream, OutputStream, TransformingInput, TransformingOutput};
use std::sync::Arc;

/// The default dictionary of misspelling → correction pairs.
pub const DEFAULT_DICTIONARY: &[(&str, &str)] = &[
    ("teh", "the"),
    ("recieve", "receive"),
    ("adress", "address"),
    ("seperate", "separate"),
    ("definately", "definitely"),
    ("occured", "occurred"),
    ("untill", "until"),
    ("wich", "which"),
    ("goverment", "government"),
    ("enviroment", "environment"),
];

/// Dictionary-based spelling correction on the read and write paths.
pub struct SpellCheck {
    dictionary: Arc<WordTable>,
    cost_micros: u64,
}

impl SpellCheck {
    /// Creates a corrector with the default dictionary.
    pub fn new() -> Arc<Self> {
        Self::with_dictionary(DEFAULT_DICTIONARY.iter().copied())
    }

    /// Creates a corrector with a custom dictionary.
    pub fn with_dictionary<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Arc<Self> {
        let pairs = pairs.into_iter().map(|(a, b)| (a.to_lowercase(), b));
        Arc::new(Self {
            dictionary: Arc::new(WordTable::new(pairs)),
            cost_micros: 400,
        })
    }

    /// Corrects a whole buffer, preserving a misspelt word's leading
    /// capital.
    pub fn correct(dictionary: &WordTable, text: &[u8]) -> Bytes {
        dictionary.rewrite(text, true)
    }

    fn transform(&self) -> impl FnOnce(Bytes) -> Result<Bytes> + Send + 'static {
        let dictionary = self.dictionary.clone();
        move |bytes| Ok(Self::correct(&dictionary, &bytes))
    }
}

impl ActiveProperty for SpellCheck {
    fn name(&self) -> &str {
        "spell-corrector"
    }

    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream, EventKind::GetOutputStream])
    }

    fn execution_cost_micros(&self) -> u64 {
        self.cost_micros
    }

    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> Result<Box<dyn InputStream>> {
        Ok(Box::new(TransformingInput::new(
            inner,
            Box::new(self.transform()),
        )))
    }

    fn wrap_output(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn OutputStream>,
    ) -> Result<Box<dyn OutputStream>> {
        Ok(Box::new(TransformingOutput::new(
            inner,
            Box::new(self.transform()),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{read_through, write_through};

    #[test]
    fn corrects_known_misspellings() {
        let prop = SpellCheck::new();
        let out = read_through(prop, b"teh draft, recieve teh adress");
        assert_eq!(out, "the draft, receive the address");
    }

    #[test]
    fn preserves_leading_capitals() {
        let prop = SpellCheck::new();
        assert_eq!(
            read_through(prop, b"Teh end. Wich one?"),
            "The end. Which one?"
        );
    }

    #[test]
    fn leaves_unknown_words_alone() {
        let prop = SpellCheck::new();
        assert_eq!(
            read_through(prop, b"placeless documents 1999"),
            "placeless documents 1999"
        );
    }

    #[test]
    fn does_not_correct_inside_words() {
        let prop = SpellCheck::new();
        // "tehran" contains "teh" but is one word.
        assert_eq!(read_through(prop, b"tehran"), "tehran");
    }

    #[test]
    fn corrects_on_write_path_too() {
        let prop = SpellCheck::new();
        assert_eq!(write_through(prop, b"untill now"), "until now");
    }

    #[test]
    fn custom_dictionary() {
        let prop = SpellCheck::with_dictionary([("colour", "color")]);
        assert_eq!(read_through(prop, b"colour me Colour"), "color me Color");
    }

    #[test]
    fn registers_for_both_paths() {
        let prop = SpellCheck::new();
        assert!(prop.interests().contains(EventKind::GetInputStream));
        assert!(prop.interests().contains(EventKind::GetOutputStream));
        assert!(prop.execution_cost_micros() > 0);
    }
}
