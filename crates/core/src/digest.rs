//! MD5 content signatures (RFC 1321), implemented in-tree.
//!
//! The paper proposes sharing cached entries between users by mapping
//! `(document, user)` pairs to a *content signature* ("e.g., MD5 hash") and
//! signatures to the actual bytes. The staged transform pipeline
//! ([`crate::plan`]) additionally derives per-stage signatures from these
//! digests, which is why the module lives in `core` rather than the cache
//! crate (which re-exports it). MD5 is long broken for security but remains
//! exactly what the paper specifies for content equality, and an in-tree
//! implementation keeps the workspace free of crypto dependencies.

/// A 128-bit MD5 digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature(pub [u8; 16]);

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

impl Signature {
    /// Renders the digest as lowercase hex.
    pub fn to_hex(&self) -> String {
        let mut out = [0u8; 32];
        for (i, b) in self.0.iter().enumerate() {
            out[i * 2] = HEX_DIGITS[(b >> 4) as usize];
            out[i * 2 + 1] = HEX_DIGITS[(b & 0x0f) as usize];
        }
        String::from_utf8(out.to_vec()).expect("hex digits are ASCII")
    }
}

impl std::fmt::Display for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Computes the MD5 digest of `data` in one shot.
pub fn md5(data: &[u8]) -> Signature {
    let mut ctx = Md5::new();
    ctx.update(data);
    ctx.finalize()
}

/// Incremental MD5 context.
///
/// # Examples
///
/// ```
/// use placeless_core::digest::{md5, Md5};
///
/// let mut ctx = Md5::new();
/// ctx.update(b"hello ");
/// ctx.update(b"world");
/// assert_eq!(ctx.finalize(), md5(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Md5 {
    state: [u32; 4],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

/// Per-round shift amounts.
const S: [u32; 64] = [
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
    5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
];

/// Binary integer parts of `abs(sin(i+1)) * 2^32`.
const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

impl Default for Md5 {
    fn default() -> Self {
        Self::new()
    }
}

impl Md5 {
    /// Creates a fresh context.
    pub fn new() -> Self {
        Self {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476],
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// Absorbs `data`. Whole blocks are compressed where they lie; only a
    /// trailing partial block is copied, into the context's buffer.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bytes = self.length_bytes.wrapping_add(data.len() as u64);
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            self.buffered = 0;
        }
        while let Some((block, rest)) = data.split_first_chunk::<64>() {
            compress(&mut self.state, block);
            data = rest;
        }
        self.buffer[..data.len()].copy_from_slice(data);
        self.buffered = data.len();
    }

    /// Finishes the digest.
    pub fn finalize(mut self) -> Signature {
        let bit_len = self.length_bytes.wrapping_mul(8);
        // Padding in one write: 0x80, zeros until 8 bytes remain in a
        // block, then the message length in bits.
        let zeros_end = if self.buffered < 56 { 56 } else { 120 } - self.buffered;
        let mut tail = [0u8; 72];
        tail[0] = 0x80;
        tail[zeros_end..zeros_end + 8].copy_from_slice(&bit_len.to_le_bytes());
        self.update(&tail[..zeros_end + 8]);
        debug_assert_eq!(self.buffered, 0);
        let mut out = [0u8; 16];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        Signature(out)
    }
}

/// One MD5 step: `b += rotl(a + f + k + m, s)`, then the registers rotate.
#[inline(always)]
fn step(regs: &mut [u32; 4], f: u32, i: usize, m: u32) {
    let [a, b, c, d] = *regs;
    let sum = a.wrapping_add(f).wrapping_add(K[i]).wrapping_add(m);
    *regs = [d, b.wrapping_add(sum.rotate_left(S[i])), b, c];
}

/// Folds one 64-byte block into `state`. Four loops of sixteen steps, one
/// per round function, so each unrolls with its message index constant.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
    }
    let mut regs = *state;
    for (i, &word) in m.iter().enumerate() {
        let [_, b, c, d] = regs;
        step(&mut regs, (b & c) | (!b & d), i, word);
    }
    for i in 16..32 {
        let [_, b, c, d] = regs;
        step(&mut regs, (d & b) | (!d & c), i, m[(5 * i + 1) % 16]);
    }
    for i in 32..48 {
        let [_, b, c, d] = regs;
        step(&mut regs, b ^ c ^ d, i, m[(3 * i + 5) % 16]);
    }
    for i in 48..64 {
        let [_, b, c, d] = regs;
        step(&mut regs, c ^ (b | !d), i, m[(7 * i) % 16]);
    }
    for (word, reg) in state.iter_mut().zip(regs) {
        *word = word.wrapping_add(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_vectors() {
        let cases: [(&[u8], &str); 7] = [
            (b"", "d41d8cd98f00b204e9800998ecf8427e"),
            (b"a", "0cc175b9c0f1b6a831c399e269772661"),
            (b"abc", "900150983cd24fb0d6963f7d28e17f72"),
            (b"message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                b"abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                b"12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expected) in cases {
            assert_eq!(md5(input).to_hex(), expected, "input: {input:?}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_odd_boundaries() {
        let data: Vec<u8> = (0..1_000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = md5(&data);
        for chunk in [1usize, 3, 63, 64, 65, 100, 999] {
            let mut ctx = Md5::new();
            for piece in data.chunks(chunk) {
                ctx.update(piece);
            }
            assert_eq!(ctx.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    /// Every padding shape (0x80 alone in its block, the length spilling
    /// into a second block, …) on every buffered/whole-block split of
    /// `update`, against an absorb that never sees two bytes together.
    #[test]
    fn every_short_length_matches_the_byte_at_a_time_path() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=200 {
            let data = &data[..len];
            let by_chunks = |chunk: usize| {
                let mut ctx = Md5::new();
                data.chunks(chunk).for_each(|piece| ctx.update(piece));
                ctx.finalize()
            };
            let bytewise = by_chunks(1);
            assert_eq!(md5(data), bytewise, "len {len}, one shot");
            for chunk in [63, 64, 65] {
                assert_eq!(by_chunks(chunk), bytewise, "len {len}, chunks of {chunk}");
            }
        }
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(md5(b"abc").to_string(), "900150983cd24fb0d6963f7d28e17f72");
    }

    #[test]
    fn different_content_different_signature() {
        assert_ne!(md5(b"hello"), md5(b"hello!"));
        assert_eq!(md5(b"same"), md5(b"same"));
    }

    #[test]
    fn block_boundary_lengths() {
        // 55, 56, 57, 63, 64, 65 bytes exercise the padding edge cases.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 128] {
            let data = vec![b'x'; len];
            let mut ctx = Md5::new();
            ctx.update(&data);
            assert_eq!(ctx.finalize(), md5(&data), "len {len}");
        }
    }
}
