//! Typed document operations — the unit of multi-writer merge.
//!
//! A [`DocOp`] describes *what a writer did* rather than the bytes that
//! resulted, so a journal replayed after a crash (or a flush racing a
//! concurrent writer through another cache) can re-apply the writer's
//! intent on top of whatever the origin holds *now* instead of blindly
//! clobbering it with a stale full-body snapshot.
//!
//! Ops are deliberately byte-oriented: the middleware treats content as an
//! opaque byte stream (properties do the interpretation), so the merge
//! substrate works at the same level. `Replace` is the unmergeable
//! fallback — a full-body write carries no information about which part of
//! the document the writer meant to change, so a conflicting `Replace`
//! still drops to the binary keep-mine/keep-theirs hooks.

use crate::content::PropertyValue;
use bytes::Bytes;

/// One typed edit to a document's content (or its property set).
#[derive(Debug, Clone, PartialEq)]
pub enum DocOp {
    /// Replace the entire body. Fallback with full-snapshot semantics;
    /// never rebasable onto concurrent edits.
    Replace(Bytes),
    /// Append bytes to the end of the document.
    Append(Bytes),
    /// Replace the byte range `start..end` (offsets into the base the op
    /// was authored against; clamped to the actual base on application).
    ReplaceRange {
        /// First byte replaced.
        start: u64,
        /// One past the last byte replaced.
        end: u64,
        /// Replacement bytes (may be empty ⇒ deletion).
        data: Bytes,
    },
    /// Set a per-user static property. Has no effect on content bytes;
    /// applied to the property chain after the content commit succeeds.
    SetProperty {
        /// Property name (attach-by-name semantics).
        name: String,
        /// Value the property is set to.
        value: PropertyValue,
    },
}

impl DocOp {
    /// Applies this op to `base`, returning the resulting content.
    ///
    /// Content-neutral ops ([`DocOp::SetProperty`]) return `base`
    /// unchanged. Range offsets are clamped to `base.len()` so an op
    /// rebased onto a shorter document degrades to an append-at-end
    /// rather than panicking.
    pub fn apply(&self, base: &Bytes) -> Bytes {
        match self {
            DocOp::Replace(data) => data.clone(),
            DocOp::Append(data) => {
                if data.is_empty() {
                    return base.clone();
                }
                let mut out = Vec::with_capacity(base.len() + data.len());
                out.extend_from_slice(base);
                out.extend_from_slice(data);
                Bytes::from(out)
            }
            DocOp::ReplaceRange { start, end, data } => {
                let len = base.len();
                let start = (*start as usize).min(len);
                let end = (*end as usize).clamp(start, len);
                let mut out = Vec::with_capacity(len - (end - start) + data.len());
                out.extend_from_slice(&base[..start]);
                out.extend_from_slice(data);
                out.extend_from_slice(&base[end..]);
                Bytes::from(out)
            }
            DocOp::SetProperty { .. } => base.clone(),
        }
    }
}

/// Applies `ops` to `base` in order, returning the final content.
pub fn apply_all(base: &Bytes, ops: &[DocOp]) -> Bytes {
    let mut view = base.clone();
    for op in ops {
        view = op.apply(&view);
    }
    view
}

/// True when the op list can be rebased onto a *different* base than it
/// was authored against: every op must express a relative edit. A full
/// [`DocOp::Replace`] pins the entire body, so any list containing one is
/// a snapshot, not a delta.
pub fn rebasable(ops: &[DocOp]) -> bool {
    !ops.is_empty() && !ops.iter().any(|op| matches!(op, DocOp::Replace(_)))
}

// ---------------------------------------------------------------------------
// Wire format (shared by the journal and batch writes)
// ---------------------------------------------------------------------------
//
//   op      := tag u8 ‖ payload
//   payload := Replace | Append   : len u32 LE ‖ bytes
//              ReplaceRange       : start u64 LE ‖ end u64 LE ‖ len u32 LE ‖ bytes
//              SetProperty        : nlen u32 LE ‖ name ‖ vtag u8 ‖ value
//   value   := Str  : len u32 LE ‖ utf8
//              Int  : i64 LE
//              Bool : u8
//              Float: f64 LE bits
//   ops     := count u32 LE ‖ op*

const TAG_REPLACE: u8 = 0;
const TAG_APPEND: u8 = 1;
const TAG_RANGE: u8 = 2;
const TAG_SET_PROPERTY: u8 = 3;

const VTAG_STR: u8 = 0;
const VTAG_INT: u8 = 1;
const VTAG_BOOL: u8 = 2;
const VTAG_FLOAT: u8 = 3;
const VTAG_BLOB: u8 = 4;

fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out.extend_from_slice(data);
}

fn take_u32(buf: &[u8], at: &mut usize) -> Option<u32> {
    let v = u32::from_le_bytes(buf.get(*at..*at + 4)?.try_into().ok()?);
    *at += 4;
    Some(v)
}

fn take_u64(buf: &[u8], at: &mut usize) -> Option<u64> {
    let v = u64::from_le_bytes(buf.get(*at..*at + 8)?.try_into().ok()?);
    *at += 8;
    Some(v)
}

fn take_bytes(buf: &[u8], at: &mut usize) -> Option<Bytes> {
    let len = take_u32(buf, at)? as usize;
    let slice = buf.get(*at..*at + len)?;
    *at += len;
    Some(Bytes::copy_from_slice(slice))
}

impl DocOp {
    /// Serializes this op onto `out` in the wire format above.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            DocOp::Replace(data) => {
                out.push(TAG_REPLACE);
                put_bytes(out, data);
            }
            DocOp::Append(data) => {
                out.push(TAG_APPEND);
                put_bytes(out, data);
            }
            DocOp::ReplaceRange { start, end, data } => {
                out.push(TAG_RANGE);
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&end.to_le_bytes());
                put_bytes(out, data);
            }
            DocOp::SetProperty { name, value } => {
                out.push(TAG_SET_PROPERTY);
                put_bytes(out, name.as_bytes());
                match value {
                    PropertyValue::Str(s) => {
                        out.push(VTAG_STR);
                        put_bytes(out, s.as_bytes());
                    }
                    PropertyValue::Int(i) => {
                        out.push(VTAG_INT);
                        out.extend_from_slice(&i.to_le_bytes());
                    }
                    PropertyValue::Bool(b) => {
                        out.push(VTAG_BOOL);
                        out.push(u8::from(*b));
                    }
                    PropertyValue::Float(f) => {
                        out.push(VTAG_FLOAT);
                        out.extend_from_slice(&f.to_bits().to_le_bytes());
                    }
                    PropertyValue::Blob(data) => {
                        out.push(VTAG_BLOB);
                        put_bytes(out, data);
                    }
                }
            }
        }
    }

    /// Decodes one op from `buf` at `*at`, advancing the cursor. Returns
    /// `None` on truncation or an unknown tag (corrupt record — the caller
    /// discards the whole record, the journal checksum makes this rare).
    pub fn decode(buf: &[u8], at: &mut usize) -> Option<DocOp> {
        let tag = *buf.get(*at)?;
        *at += 1;
        match tag {
            TAG_REPLACE => Some(DocOp::Replace(take_bytes(buf, at)?)),
            TAG_APPEND => Some(DocOp::Append(take_bytes(buf, at)?)),
            TAG_RANGE => {
                let start = take_u64(buf, at)?;
                let end = take_u64(buf, at)?;
                let data = take_bytes(buf, at)?;
                Some(DocOp::ReplaceRange { start, end, data })
            }
            TAG_SET_PROPERTY => {
                let name = String::from_utf8(take_bytes(buf, at)?.to_vec()).ok()?;
                let vtag = *buf.get(*at)?;
                *at += 1;
                let value = match vtag {
                    VTAG_STR => {
                        PropertyValue::Str(String::from_utf8(take_bytes(buf, at)?.to_vec()).ok()?)
                    }
                    VTAG_INT => PropertyValue::Int(i64::from_le_bytes(
                        buf.get(*at..*at + 8)?.try_into().ok()?,
                    )),
                    VTAG_BOOL => PropertyValue::Bool(*buf.get(*at)? != 0),
                    VTAG_FLOAT => PropertyValue::Float(f64::from_bits(u64::from_le_bytes(
                        buf.get(*at..*at + 8)?.try_into().ok()?,
                    ))),
                    VTAG_BLOB => PropertyValue::Blob(take_bytes(buf, at)?),
                    _ => return None,
                };
                match vtag {
                    VTAG_INT | VTAG_FLOAT => *at += 8,
                    VTAG_BOOL => *at += 1,
                    _ => {}
                }
                Some(DocOp::SetProperty { name, value })
            }
            _ => None,
        }
    }
}

/// Serializes an op list (count-prefixed) in the wire format.
pub fn encode_ops(ops: &[DocOp]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        op.encode_into(&mut out);
    }
    out
}

/// Decodes a count-prefixed op list from `buf` at `*at`.
pub fn decode_ops(buf: &[u8], at: &mut usize) -> Option<Vec<DocOp>> {
    let count = take_u32(buf, at)? as usize;
    // Each op is at least 5 bytes (tag + a length); reject absurd counts
    // before allocating.
    if count > buf.len().saturating_sub(*at) {
        return None;
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        ops.push(DocOp::decode(buf, at)?);
    }
    Some(ops)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    #[test]
    fn append_and_range_apply() {
        let base = b("hello world");
        assert_eq!(DocOp::Append(b("!")).apply(&base), b("hello world!"));
        let op = DocOp::ReplaceRange {
            start: 6,
            end: 11,
            data: b("rust"),
        };
        assert_eq!(op.apply(&base), b("hello rust"));
        // Deletion: empty replacement.
        let del = DocOp::ReplaceRange {
            start: 0,
            end: 6,
            data: b(""),
        };
        assert_eq!(del.apply(&base), b("world"));
    }

    #[test]
    fn range_clamps_to_short_base() {
        let op = DocOp::ReplaceRange {
            start: 100,
            end: 200,
            data: b("x"),
        };
        assert_eq!(op.apply(&b("ab")), b("abx"));
        let crossed = DocOp::ReplaceRange {
            start: 5,
            end: 2,
            data: b("y"),
        };
        // end < start clamps to an insertion at start.
        assert_eq!(crossed.apply(&b("abcdefgh")), b("abcdeyfgh"));
    }

    #[test]
    fn set_property_is_content_neutral() {
        let op = DocOp::SetProperty {
            name: "color".into(),
            value: PropertyValue::Str("blue".into()),
        };
        let base = b("body");
        assert_eq!(op.apply(&base), base);
    }

    #[test]
    fn apply_all_composes_in_order() {
        let base = b("v1");
        let ops = vec![
            DocOp::Append(b(";a")),
            DocOp::ReplaceRange {
                start: 0,
                end: 2,
                data: b("v2"),
            },
            DocOp::Append(b(";b")),
        ];
        assert_eq!(apply_all(&base, &ops), b("v2;a;b"));
    }

    #[test]
    fn rebasable_rejects_snapshots_and_empties() {
        assert!(!rebasable(&[]));
        assert!(!rebasable(&[DocOp::Replace(b("x"))]));
        assert!(!rebasable(&[DocOp::Append(b("x")), DocOp::Replace(b("y"))]));
        assert!(rebasable(&[
            DocOp::Append(b("x")),
            DocOp::SetProperty {
                name: "n".into(),
                value: PropertyValue::Int(3),
            },
        ]));
    }

    #[test]
    fn wire_roundtrip_all_variants() {
        let ops = vec![
            DocOp::Replace(b("full body")),
            DocOp::Append(b("tail")),
            DocOp::ReplaceRange {
                start: 3,
                end: 9,
                data: b("mid"),
            },
            DocOp::SetProperty {
                name: "s".into(),
                value: PropertyValue::Str("v".into()),
            },
            DocOp::SetProperty {
                name: "i".into(),
                value: PropertyValue::Int(-7),
            },
            DocOp::SetProperty {
                name: "b".into(),
                value: PropertyValue::Bool(true),
            },
            DocOp::SetProperty {
                name: "f".into(),
                value: PropertyValue::Float(2.5),
            },
            DocOp::SetProperty {
                name: "raw".into(),
                value: PropertyValue::Blob(b("\x00\x01\x02")),
            },
        ];
        let wire = encode_ops(&ops);
        let mut at = 0;
        let back = decode_ops(&wire, &mut at).expect("roundtrip decodes");
        assert_eq!(at, wire.len());
        assert_eq!(back, ops);
    }

    #[test]
    fn decode_rejects_truncation_and_bad_tags() {
        let wire = encode_ops(&[DocOp::Append(b("abc"))]);
        for cut in 0..wire.len() {
            let mut at = 0;
            assert!(decode_ops(&wire[..cut], &mut at).is_none(), "cut={cut}");
        }
        let mut bad = wire.clone();
        bad[4] = 0xEE; // unknown op tag
        let mut at = 0;
        assert!(decode_ops(&bad, &mut at).is_none());
    }
}
