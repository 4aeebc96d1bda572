//! The word-map kernel [`Translate`](crate::translate::Translate) and
//! [`SpellCheck`](crate::spellcheck::SpellCheck) share: rewrite a document
//! word by word from a table keyed by the word's lowercase form, where a
//! word is a run of alphanumeric characters and apostrophes.
//!
//! A [`WordTable`] is compiled once, in the property's constructor. Its
//! `rewrite` marks the word bytes of the lossily-validated text in a bit
//! mask (ASCII by arithmetic, a non-ASCII character decoded where it
//! stands), visits the mask's edges, looks an all-ASCII word up as one
//! integer and copies the spans between replaced words in bulk. Only a
//! word that is not ASCII, or longer than the packed width, pays for a
//! lowercased `String` and a hashed lookup.

use bytes::Bytes;
use std::collections::HashMap;

/// Bytes of an ASCII word that pack into one lookup integer.
const PACK: usize = std::mem::size_of::<u128>();
/// `0x20` in every byte: OR-ed into an ASCII word it lowercases it (digits
/// and the apostrophe have the bit already).
const LOWER: u128 = u128::from_le_bytes([0x20; PACK]);
/// `0x80` in every byte: the bits no ASCII word has.
const HIGH: u128 = u128::from_le_bytes([0x80; PACK]);

/// Gathers the low bit of each of 64 bytes into one integer.
fn gather(flags: &[u8; 64]) -> u64 {
    flags.chunks_exact(8).rev().fold(0, |bits, eight| {
        let eight = u64::from_le_bytes(eight.try_into().expect("chunks of eight"));
        bits << 8 | eight.wrapping_mul(0x0102_0408_1020_4080) >> 56
    })
}

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
    u128::from_le_bytes(window) >> (8 * (PACK - (end - start)))
}

/// A compiled word → replacement table.
pub struct WordTable {
    /// `packed[n]`: the ASCII keys of `n <= PACK` bytes as integers,
    /// sorted, beside their replacements.
    packed: Vec<Vec<(u128, String)>>,
    /// Every key, for the words the packed route cannot decide.
    by_key: HashMap<String, String>,
}

impl WordTable {
    /// Compiles `(key, replacement)` pairs; a later pair replaces an
    /// earlier one with the same key. Keys match a word's lowercase form,
    /// so a key with an uppercase letter in it never matches.
    pub fn new<K: Into<String>, V: Into<String>>(pairs: impl IntoIterator<Item = (K, V)>) -> Self {
        let pairs = pairs.into_iter().map(|(key, to)| (key.into(), to.into()));
        let by_key: HashMap<String, String> = pairs.collect();
        let mut packed = vec![Vec::new(); PACK + 1];
        for (key, to) in &by_key {
            if key.is_ascii() && (1..=PACK).contains(&key.len()) {
                packed[key.len()].push((pack(key.as_bytes(), 0, key.len()), to.clone()));
            }
        }
        packed.iter_mut().for_each(|bucket| bucket.sort_unstable());
        Self { packed, by_key }
    }

    /// Rewrites every word of `text` (lossily validated as UTF-8) that has
    /// an entry and leaves all else as it stands. With `keep_capital`, the
    /// replacement of a word that starts uppercase does too.
    pub fn rewrite(&self, text: &[u8], keep_capital: bool) -> Bytes {
        let text = String::from_utf8_lossy(text);
        let mut out = String::with_capacity(text.len() + text.len() / 8);
        // `text[copied..]` is what has not reached `out` yet.
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
                let Some(to) = self.lookup(&text, start, at) else {
                    continue;
                };
                out.push_str(&text[copied..start]);
                copied = at;
                let capital = keep_capital && text[start..].starts_with(char::is_uppercase);
                match to.chars().next().filter(|_| capital) {
                    Some(first) => {
                        out.extend(first.to_uppercase());
                        out.push_str(&to[first.len_utf8()..]);
                    }
                    None => out.push_str(to),
                }
            }
        }
        out.push_str(&text[copied..]);
        Bytes::from(out)
    }

    /// The replacement for the word `text[start..end]`, if it has one.
    fn lookup(&self, text: &str, start: usize, end: usize) -> Option<&str> {
        let len = end - start;
        let word = (len <= PACK).then(|| pack(text.as_bytes(), start, end));
        if let Some(word) = word.filter(|word| word & HIGH == 0) {
            // All ASCII, so its lowercase form is as long as it is and
            // only a packed key can equal it.
            let key = word | LOWER >> (8 * (PACK - len));
            let bucket = &self.packed[len];
            let found = bucket.binary_search_by_key(&key, |&(k, _)| k).ok()?;
            return Some(bucket[found].1.as_str());
        }
        let lower = text[start..end].to_lowercase();
        self.by_key.get(&lower).map(String::as_str)
    }
}
