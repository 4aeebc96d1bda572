//! A streaming at-rest scrambling property (ROT13).
//!
//! Stands in for an encryption property: content is scrambled on the write
//! path (so the repository stores ciphertext) and unscrambled on the read
//! path. Because ROT13 is an involution, the same byte map serves both
//! directions, and because it is byte-wise it uses the *streaming*
//! (non-buffering) wrappers — exercising the chunked half of the stream
//! machinery: the adapters make one dynamic call per *chunk*, into a slice
//! kernel with [`rot13_byte`] inlined in it.

use placeless_core::error::Result;
use placeless_core::event::{EventKind, Interests};
use placeless_core::property::{ActiveProperty, PathCtx, PathReport};
use placeless_core::streams::{InputStream, MappingInput, MappingOutput, OutputStream};
use std::sync::Arc;

/// Maps one byte through ROT13 (letters only).
///
/// Branch-free on case: `b | 0x20` folds both alphabets onto one index,
/// so the adapters' slice loop compiles to selects and vectorises.
#[inline]
pub fn rot13_byte(b: u8) -> u8 {
    let index = (b | 0x20).wrapping_sub(b'a');
    let shift = if index < 13 { 13 } else { 13u8.wrapping_neg() };
    if index < 26 {
        b.wrapping_add(shift)
    } else {
        b
    }
}

/// Scrambles at rest, unscrambles on read.
pub struct Rot13AtRest;

impl Rot13AtRest {
    /// Creates the property.
    pub fn new() -> Arc<Self> {
        Arc::new(Self)
    }
}

impl ActiveProperty for Rot13AtRest {
    fn name(&self) -> &str {
        "rot13-at-rest"
    }

    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream, EventKind::GetOutputStream])
    }

    fn execution_cost_micros(&self) -> u64 {
        50
    }

    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> Result<Box<dyn InputStream>> {
        Ok(Box::new(MappingInput::new(inner, rot13_byte)))
    }

    fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        // The byte map is fixed: the read transform depends on nothing but
        // its input, so a constant token makes the stage cacheable.
        Some(b"rot13-v1".to_vec())
    }

    fn wrap_output(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn OutputStream>,
    ) -> Result<Box<dyn OutputStream>> {
        Ok(Box::new(MappingOutput::new(inner, rot13_byte)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{read_through, write_through};

    #[test]
    fn byte_map_is_involution() {
        for b in 0..=255u8 {
            assert_eq!(rot13_byte(rot13_byte(b)), b);
        }
    }

    #[test]
    fn scrambles_on_write() {
        let prop = Rot13AtRest::new();
        assert_eq!(write_through(prop, b"Hello, World!"), "Uryyb, Jbeyq!");
    }

    #[test]
    fn unscrambles_on_read() {
        let prop = Rot13AtRest::new();
        assert_eq!(read_through(prop, b"Uryyb, Jbeyq!"), "Hello, World!");
    }

    #[test]
    fn write_then_read_roundtrips() {
        let stored = write_through(Rot13AtRest::new(), b"round trip 123");
        assert_eq!(read_through(Rot13AtRest::new(), &stored), "round trip 123");
    }

    #[test]
    fn non_letters_untouched() {
        let prop = Rot13AtRest::new();
        assert_eq!(read_through(prop, b"123 !@# \n"), "123 !@# \n");
    }

    #[test]
    fn token_is_constant() {
        use crate::testutil::token_with_props;
        let prop = Rot13AtRest::new();
        let token = token_with_props(prop.as_ref(), &[]);
        assert!(token.is_some());
        assert_eq!(token, token_with_props(prop.as_ref(), &[("x", "y")]));
    }
}
