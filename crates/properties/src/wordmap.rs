//! The word-map kernel [`Translate`](crate::translate::Translate) and
//! [`SpellCheck`](crate::spellcheck::SpellCheck) share: rewrite a document
//! word by word from a table keyed by the word's lowercase form, where a
//! word is a run of alphanumeric characters and apostrophes.
//!
//! A [`WordTable`] is compiled once, in the property's constructor. Its
//! `rewrite` marks the word bytes of the lossily-validated text in a bit
//! mask (ASCII by arithmetic, a non-ASCII character decoded where it
//! stands), visits the mask's edges and looks an all-ASCII word up as one
//! integer in a direct-mapped table: one multiply, one load, one compare.
//! The word or its replacement goes out as one sixteen-byte store, so
//! whether a word was found steers no branch. Only a word that is not
//! ASCII, is longer than the packed width, lands in a shared slot or is
//! found with `keep_capital` pays for a lowercased `String` and a hashed
//! lookup.

use bytes::Bytes;
use placeless_core::streams::{gather, utf8_lossy};
use std::collections::HashMap;

/// Bytes of an ASCII word that pack into one lookup integer.
const PACK: usize = std::mem::size_of::<u128>();
/// `0x20` in every byte: OR-ed into an ASCII word it lowercases it (digits
/// and the apostrophe have the bit already).
const LOWER: u128 = u128::from_le_bytes([0x20; PACK]);
/// `0x80` in every byte: the bits no ASCII word has.
const HIGH: u128 = u128::from_le_bytes([0x80; PACK]);
/// Held by a slot two keys hash to, or one whose replacement does not
/// pack: a word found there is looked up by its lowercase form.
const SHARED: u128 = u128::MAX;
/// The multipliers tried are its odd multiples.
const GOLDEN: u128 = 0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835;

/// One bit per byte of `text`, set where the byte belongs to a word, in
/// blocks of 64 with a clear bit after the last byte. Built without a
/// branch per byte: word ends are where a byte-at-a-time scanner
/// mispredicts, once per word.
fn word_mask(text: &str) -> Vec<u64> {
    let mut mask = vec![0u64; text.len() / 64 + 1];
    for (block, bytes) in text.as_bytes().chunks(64).enumerate() {
        let (mut word, mut wide) = ([0u8; 64], [0u8; 64]);
        for ((word, wide), &b) in word.iter_mut().zip(&mut wide).zip(bytes) {
            let letter = (b | 0x20).wrapping_sub(b'a') < 26;
            *word = (letter || b.wrapping_sub(b'0') < 10 || b == b'\'') as u8;
            *wide = b >> 7;
        }
        mask[block] |= gather(&word);
        let mut high = gather(&wide);
        while high != 0 {
            let at = block * 64 + high.trailing_zeros() as usize;
            high &= high - 1;
            // `None` at a continuation byte: settled with its lead.
            let ch = text.get(at..).and_then(|rest| rest.chars().next());
            if let Some(ch) = ch.filter(|ch| ch.is_alphanumeric()) {
                (at..at + ch.len_utf8()).for_each(|i| mask[i / 64] |= 1 << (i % 64));
            }
        }
    }
    mask
}

/// The bytes `src[start..end]` (at most [`PACK`]) little-endian in the low
/// end of an integer, read as one window that ends at `end`.
fn pack(src: &[u8], start: usize, end: usize) -> u128 {
    let mut window = [0u8; PACK];
    match end.checked_sub(PACK) {
        Some(from) => window.copy_from_slice(&src[from..end]),
        None => window[PACK - end..].copy_from_slice(&src[..end]),
    }
    u128::from_le_bytes(window)
        .checked_shr(8 * (PACK - (end - start)) as u32)
        .unwrap_or(0)
}

/// The slot of the packed word `key`: the top `128 - shift` bits of
/// `key * mul`.
fn slot(key: u128, mul: u128, shift: u32) -> usize {
    (key.wrapping_mul(mul) >> shift) as usize
}

/// A compiled word → replacement table.
pub struct WordTable {
    /// Direct-mapped: the ASCII keys of at most [`PACK`] bytes, packed,
    /// each in the slot [`slot`] names beside its replacement, packed, and
    /// that replacement's length. An empty slot holds 0, no word's packing.
    slots: Vec<(u128, (u128, usize))>,
    /// The odd multiplier of the multiply-shift hash and its shift.
    mul: u128,
    shift: u32,
    /// Every key, for the words the packed route cannot decide.
    by_key: HashMap<String, String>,
}

impl WordTable {
    /// Compiles `(key, replacement)` pairs; a later pair replaces an
    /// earlier one with the same key. Keys match a word's lowercase form,
    /// so a key with an uppercase letter in it never matches.
    ///
    /// Tries multipliers until no two keys share a slot, doubling the
    /// table after every 32 tries, three times at most: from over 4 slots
    /// a key to over 32 (16 384 for 300 keys). Should two keys still share
    /// a slot then (a table of a thousand keys), the last try stands.
    pub fn new<K: Into<String>, V: Into<String>>(pairs: impl IntoIterator<Item = (K, V)>) -> Self {
        let pairs = pairs.into_iter().map(|(key, to)| (key.into(), to.into()));
        let by_key: HashMap<String, String> = pairs.collect();
        // Only a key of lowercase word bytes can equal a packed word; with
        // no zero byte in it, its packed form also says its length.
        let word_byte = |b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'\'');
        let keys: Vec<_> = (by_key.iter())
            .filter(|(key, _)| (1..=PACK).contains(&key.len()) && key.bytes().all(word_byte))
            .collect();
        let (mut slots, mut mul, mut shift) = (Vec::new(), 0, 0);
        for attempt in 0..4 * 32 {
            let bits = (4 * keys.len().max(1)).ilog2() + 1 + attempt / 32;
            (mul, shift) = (u128::from(2 * attempt + 1).wrapping_mul(GOLDEN), 128 - bits);
            slots = vec![(0, (0, 0)); 1 << bits];
            let mut shared = false;
            for (key, to) in &keys {
                let key = pack(key.as_bytes(), 0, key.len());
                let to = (pack(to.as_bytes(), 0, to.len().min(PACK)), to.len());
                let slot = &mut slots[slot(key, mul, shift)];
                let fits = slot.0 == 0 && to.1 <= PACK;
                shared |= slot.0 != 0;
                *slot = (if fits { key } else { SHARED }, to);
            }
            if !shared {
                break;
            }
        }
        Self {
            slots,
            mul,
            shift,
            by_key,
        }
    }

    /// Rewrites every word of `text` (lossily validated as UTF-8) that has
    /// an entry and leaves all else as it stands. With `keep_capital`, the
    /// replacement of a word that starts uppercase does too.
    pub fn rewrite(&self, text: &[u8], keep_capital: bool) -> Bytes {
        let text = utf8_lossy(text);
        let src = text.as_bytes();
        let mut out = Vec::with_capacity(src.len() + src.len() / 8 + PACK);
        // `src[copied..]` is what has not reached `out` yet.
        let mut copied = 0;
        // A bit that differs from the one before it is where a word
        // starts or, by turns, ends.
        let (mut carry, mut start, mut in_word) = (0, 0, false);
        for (block, &bits) in word_mask(&text).iter().enumerate() {
            let mut edges = bits ^ (bits << 1 | carry);
            carry = bits >> 63;
            while edges != 0 {
                let at = block * 64 + edges.trailing_zeros() as usize;
                edges &= edges - 1;
                in_word = !in_word;
                if in_word {
                    start = at;
                    continue;
                }
                out.extend_from_slice(&src[copied..start]);
                copied = at;
                let len = at - start;
                let word = (len <= PACK).then(|| pack(src, start, at));
                if let Some(word) = word.filter(|word| word & HIGH == 0) {
                    // All ASCII, so its lowercase form is as long as it is
                    // and only a packed key can equal it.
                    let key = word | LOWER >> (8 * (PACK - len));
                    let (held, to) = self.slots[slot(key, self.mul, self.shift)];
                    let found = held == key;
                    if held != SHARED && !(keep_capital && found) {
                        // A word is found about as often as not, so the
                        // word or its replacement goes out by a select and
                        // a store of all sixteen bytes, not by a branch.
                        let (bytes, len) = [(word, len), to][usize::from(found)];
                        let end = out.len() + len;
                        out.extend_from_slice(&bytes.to_le_bytes());
                        out.truncate(end);
                        continue;
                    }
                }
                let word = &text[start..at];
                match self.by_key.get(&word.to_lowercase()) {
                    Some(to) if keep_capital && word.starts_with(char::is_uppercase) => {
                        let mut to = to.chars();
                        let first = to.next().into_iter().flat_map(char::to_uppercase);
                        out.extend(first.chain(to).collect::<String>().bytes());
                    }
                    Some(to) => out.extend_from_slice(to.as_bytes()),
                    None => out.extend_from_slice(word.as_bytes()),
                }
            }
        }
        out.extend_from_slice(&src[copied..]);
        Bytes::from(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The many-key table of `tests/kernels.rs`: `n` distinct keys of one
    /// to eighteen word bytes, each to a replacement of up to 23 bytes.
    fn many_pairs(n: usize) -> Vec<(String, String)> {
        let pair = |i: usize| {
            let key = format!("{}{i}", &"abcdefghijklmn"[..i % 15]);
            (key, format!("{i}{}", "x".repeat(i % 20)))
        };
        (0..n).map(pair).collect()
    }

    /// Slots marked [`SHARED`], and of those the ones no replacement too
    /// long to pack accounts for.
    fn shared(table: &WordTable, pairs: &[(String, String)]) -> (usize, usize) {
        let marked = table
            .slots
            .iter()
            .filter(|&&(key, _)| key == SHARED)
            .count();
        let long = pairs
            .iter()
            .filter(|(key, to)| key.len() <= PACK && to.len() > PACK);
        (marked, marked - long.count())
    }

    #[test]
    fn shipped_tables_fit_their_first_size() {
        for pairs in [crate::translate::EN_FR, crate::translate::EN_ES] {
            let table = WordTable::new(pairs.iter().copied());
            assert_eq!(table.slots.len(), 64, "over 4 slots a key");
            assert!(!table.slots.iter().any(|&(key, _)| key == SHARED));
        }
    }

    #[test]
    fn many_keys_make_the_table_try_multipliers_and_grow() {
        let pairs = many_pairs(300);
        let table = WordTable::new(pairs.clone());
        assert_ne!(table.mul, GOLDEN, "the first multiplier stood");
        assert_eq!(table.slots.len(), 16_384, "grew from 2 048 slots");
        assert_eq!(shared(&table, &pairs).1, 0, "two keys share a slot");
    }

    #[test]
    fn keys_still_sharing_a_slot_are_looked_up_by_their_lowercase_form() {
        let pairs = many_pairs(1000);
        let table = WordTable::new(pairs.clone());
        assert_eq!(table.slots.len(), 32_768, "three doublings at most");
        assert!(shared(&table, &pairs).1 > 0, "no two keys share a slot");
        for (key, to) in &pairs {
            assert_eq!(table.rewrite(key.as_bytes(), false), to.as_bytes(), "{key}");
            assert_eq!(
                table.rewrite(key.to_uppercase().as_bytes(), false),
                to.as_bytes()
            );
        }
    }
}
