//! The char-domain references the chain's byte kernels replaced: the
//! kernels are held to them, and the model renders with them.

use std::collections::HashMap;

/// `Translate::translate` as it stood before the word-map kernel.
pub fn reference_translate(table: &HashMap<String, String>, text: &[u8]) -> Vec<u8> {
    fn flush(table: &HashMap<String, String>, out: &mut String, word: &mut String) {
        if word.is_empty() {
            return;
        }
        match table.get(&word.to_lowercase()) {
            Some(t) => out.push_str(t),
            None => out.push_str(word),
        }
        word.clear();
    }
    let text = String::from_utf8_lossy(text);
    let mut out = String::with_capacity(text.len());
    let mut word = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() || ch == '\'' {
            word.push(ch);
        } else {
            flush(table, &mut out, &mut word);
            out.push(ch);
        }
    }
    flush(table, &mut out, &mut word);
    out.into_bytes()
}

/// `rot13_byte` as it stood before it went branch-free on case.
pub fn reference_rot13(b: u8) -> u8 {
    match b {
        b'a'..=b'z' => (b - b'a' + 13) % 26 + b'a',
        b'A'..=b'Z' => (b - b'A' + 13) % 26 + b'A',
        _ => b,
    }
}
