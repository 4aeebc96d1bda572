//! Input/output streams and the transformer chains active properties build.
//!
//! The Placeless content I/O model follows Java streams: a `getInputStream`
//! call produces a raw stream from the bit-provider, and every active
//! property interested in the operation *wraps* it with a custom stream that
//! transforms the bytes flowing through. Properties on the write path do the
//! same in mirror image, wrapping the sink. Most content transforms
//! (translation, summarization) need the whole document, so this module also
//! provides buffering adapters ([`TransformingInput`],
//! [`TransformingOutput`]) that apply a whole-buffer function at the right
//! moment while still presenting a streaming interface to the layers above.
//!
//! ## Chunked fast path
//!
//! Beyond the byte-oriented `read`/`write` contract, streams expose a
//! chunked fast path: [`InputStream::read_chunk`] yields refcounted
//! [`Bytes`] slices and [`OutputStream::write_bytes`] accepts them, so
//! in-memory sources ([`MemoryInput`]) and whole-buffer sinks ([`CollectOutput`]) hand content through without
//! copying. [`InputStream::size_hint`] lets collectors preallocate exactly
//! once. [`read_all`] returns a source's single chunk as-is — a read
//! through a pass-through chain is zero-copy end to end.

use crate::error::{PlacelessError, Result};
use bytes::Bytes;

/// Chunk size of the copying [`InputStream::read_chunk`] fallback (and of
/// the byte-oriented [`read_all`] of old). Sources that can hand out
/// refcounted slices ignore it; the bound matters only for streams that
/// truly produce bytes incrementally.
pub const CHUNK_SIZE: usize = 4096;

/// A readable stream of document content.
pub trait InputStream: Send {
    /// Reads up to `buf.len()` bytes, returning how many were read; zero
    /// means end of stream.
    fn read(&mut self, buf: &mut [u8]) -> Result<usize>;

    /// Returns the number of bytes remaining on the stream, when cheaply
    /// known. Collectors use it to allocate once; `None` (the default)
    /// means unknown, not zero.
    fn size_hint(&self) -> Option<u64> {
        None
    }

    /// Reads the next chunk of the stream, or `None` at end of stream.
    ///
    /// The default bridges [`InputStream::read`] through a [`CHUNK_SIZE`]
    /// stack buffer (one copy). In-memory sources override it to hand out
    /// refcounted slices of their backing allocation — the zero-copy fast
    /// path the streaming stage executor rides.
    fn read_chunk(&mut self) -> Result<Option<Bytes>> {
        let mut buf = [0u8; CHUNK_SIZE];
        let n = self.read(&mut buf)?;
        Ok(if n == 0 {
            None
        } else {
            Some(Bytes::copy_from_slice(&buf[..n]))
        })
    }
}

/// A writable sink for document content.
pub trait OutputStream: Send {
    /// Writes the buffer, returning how many bytes were consumed.
    fn write(&mut self, buf: &[u8]) -> Result<usize>;

    /// Completes the write; transforms that buffer whole documents flush
    /// here, and bit-provider sinks commit here.
    fn close(&mut self) -> Result<()>;

    /// Writes a whole refcounted chunk. Semantically identical to
    /// `write`-ing the full slice; buffering sinks override it to adopt
    /// the chunk without copying when it is the only content they see.
    fn write_bytes(&mut self, chunk: Bytes) -> Result<()> {
        let mut data: &[u8] = &chunk;
        while !data.is_empty() {
            let n = self.write(data)?;
            if n == 0 {
                return Err(PlacelessError::StreamClosed);
            }
            data = &data[n..];
        }
        Ok(())
    }
}

/// Reads an input stream to the end.
///
/// Rides the chunk fast path: a source that yields exactly one chunk (any
/// in-memory buffer) is returned as that refcounted slice with no copy and
/// no allocation; multi-chunk streams collect into a single buffer sized
/// from [`InputStream::size_hint`].
pub fn read_all(stream: &mut dyn InputStream) -> Result<Bytes> {
    let first = match stream.read_chunk()? {
        None => return Ok(Bytes::new()),
        Some(c) => c,
    };
    let second = match stream.read_chunk()? {
        None => return Ok(first),
        Some(c) => c,
    };
    let hint = stream.size_hint().unwrap_or(0) as usize;
    let mut out = Vec::with_capacity(first.len() + second.len() + hint);
    out.extend_from_slice(&first);
    out.extend_from_slice(&second);
    while let Some(chunk) = stream.read_chunk()? {
        out.extend_from_slice(&chunk);
    }
    Ok(Bytes::from(out))
}

/// Writes an entire buffer to an output stream (without closing it).
pub fn write_all(stream: &mut dyn OutputStream, mut data: &[u8]) -> Result<()> {
    while !data.is_empty() {
        let n = stream.write(data)?;
        if n == 0 {
            return Err(PlacelessError::StreamClosed);
        }
        data = &data[n..];
    }
    Ok(())
}

/// Writes a refcounted buffer through the zero-copy chunk path (without
/// closing the stream). Buffering sinks adopt the allocation instead of
/// copying it.
pub fn write_all_bytes(stream: &mut dyn OutputStream, data: Bytes) -> Result<()> {
    stream.write_bytes(data)
}

/// An input stream over an in-memory buffer.
pub struct MemoryInput {
    data: Bytes,
    pos: usize,
}

impl MemoryInput {
    /// Creates a stream over `data`.
    pub fn new(data: Bytes) -> Self {
        Self { data, pos: 0 }
    }
}

impl InputStream for MemoryInput {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let remaining = &self.data[self.pos..];
        let n = remaining.len().min(buf.len());
        buf[..n].copy_from_slice(&remaining[..n]);
        self.pos += n;
        Ok(n)
    }

    fn size_hint(&self) -> Option<u64> {
        Some((self.data.len() - self.pos) as u64)
    }

    fn read_chunk(&mut self) -> Result<Option<Bytes>> {
        if self.pos >= self.data.len() {
            return Ok(None);
        }
        // The whole remainder as one refcounted slice: no copy, and if the
        // stream is unread this is the source buffer itself.
        let chunk = self.data.slice(self.pos..);
        self.pos = self.data.len();
        Ok(Some(chunk))
    }
}

/// Callback invoked with the complete content when the stream closes.
type OnClose = Box<dyn FnOnce(Bytes) -> Result<()> + Send>;

/// An output stream that buffers everything and hands the final bytes to a
/// callback on close.
///
/// A single [`OutputStream::write_bytes`] chunk is adopted as-is (the
/// callback receives the writer's own refcounted buffer); byte-oriented
/// writes or multiple chunks fall back to one collected allocation.
pub struct CollectOutput {
    buf: Vec<u8>,
    fast: Option<Bytes>,
    on_close: Option<OnClose>,
}

impl CollectOutput {
    /// Creates a collector whose `on_close` receives the complete content.
    pub fn new(on_close: impl FnOnce(Bytes) -> Result<()> + Send + 'static) -> Self {
        Self {
            buf: Vec::new(),
            fast: None,
            on_close: Some(Box::new(on_close)),
        }
    }

    /// Spills the fast-path chunk into the byte buffer when mixed writes
    /// force a real collection.
    fn spill(&mut self) {
        if let Some(chunk) = self.fast.take() {
            self.buf.extend_from_slice(&chunk);
        }
    }
}

impl OutputStream for CollectOutput {
    fn write(&mut self, buf: &[u8]) -> Result<usize> {
        if self.on_close.is_none() {
            return Err(PlacelessError::StreamClosed);
        }
        self.spill();
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn write_bytes(&mut self, chunk: Bytes) -> Result<()> {
        if self.on_close.is_none() {
            return Err(PlacelessError::StreamClosed);
        }
        if self.buf.is_empty() && self.fast.is_none() {
            self.fast = Some(chunk);
        } else {
            self.spill();
            self.buf.extend_from_slice(&chunk);
        }
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        match self.on_close.take() {
            Some(f) => {
                let content = match self.fast.take() {
                    Some(chunk) => chunk,
                    None => Bytes::from(std::mem::take(&mut self.buf)),
                };
                f(content)
            }
            None => Err(PlacelessError::StreamClosed),
        }
    }
}

/// A whole-content transform function, boxed so chains are heterogeneous.
pub type TransformFn = Box<dyn FnOnce(Bytes) -> Result<Bytes> + Send>;

/// An input stream that buffers its inner stream, applies a whole-content
/// transform once, and serves the result.
///
/// This is the "custom input-stream" of the paper for transforms that need
/// the full document (translation, summarization, spell correction).
pub struct TransformingInput {
    inner: Option<Box<dyn InputStream>>,
    transform: Option<TransformFn>,
    buffered: Option<MemoryInput>,
}

impl TransformingInput {
    /// Wraps `inner` with `transform`.
    pub fn new(inner: Box<dyn InputStream>, transform: TransformFn) -> Self {
        Self {
            inner: Some(inner),
            transform: Some(transform),
            buffered: None,
        }
    }

    fn materialize(&mut self) -> Result<()> {
        if self.buffered.is_none() {
            let mut inner = self.inner.take().expect("materialize runs once");
            // `read_all` honours the inner stream's size hint, so the
            // buffering this adapter cannot avoid is a single allocation —
            // or none, when the inner stream hands over one slice.
            let raw = read_all(inner.as_mut())?;
            let transform = self.transform.take().expect("materialize runs once");
            self.buffered = Some(MemoryInput::new(transform(raw)?));
        }
        Ok(())
    }
}

impl InputStream for TransformingInput {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        self.materialize()?;
        self.buffered
            .as_mut()
            .expect("materialized above")
            .read(buf)
    }

    fn size_hint(&self) -> Option<u64> {
        // Known only once materialized; must stay lazy before that.
        self.buffered.as_ref().and_then(|b| b.size_hint())
    }

    fn read_chunk(&mut self) -> Result<Option<Bytes>> {
        self.materialize()?;
        self.buffered
            .as_mut()
            .expect("materialized above")
            .read_chunk()
    }
}

/// An output stream that buffers writes, applies a whole-content transform
/// on close, and forwards the result to the inner sink.
pub struct TransformingOutput {
    inner: Option<Box<dyn OutputStream>>,
    transform: Option<TransformFn>,
    buf: Vec<u8>,
    fast: Option<Bytes>,
}

impl TransformingOutput {
    /// Wraps `inner` with `transform`.
    pub fn new(inner: Box<dyn OutputStream>, transform: TransformFn) -> Self {
        Self {
            inner: Some(inner),
            transform: Some(transform),
            buf: Vec::new(),
            fast: None,
        }
    }

    fn spill(&mut self) {
        if let Some(chunk) = self.fast.take() {
            self.buf.extend_from_slice(&chunk);
        }
    }
}

impl OutputStream for TransformingOutput {
    fn write(&mut self, buf: &[u8]) -> Result<usize> {
        if self.inner.is_none() {
            return Err(PlacelessError::StreamClosed);
        }
        self.spill();
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn write_bytes(&mut self, chunk: Bytes) -> Result<()> {
        if self.inner.is_none() {
            return Err(PlacelessError::StreamClosed);
        }
        if self.buf.is_empty() && self.fast.is_none() {
            self.fast = Some(chunk);
        } else {
            self.spill();
            self.buf.extend_from_slice(&chunk);
        }
        Ok(())
    }

    fn close(&mut self) -> Result<()> {
        let mut inner = self.inner.take().ok_or(PlacelessError::StreamClosed)?;
        let transform = self.transform.take().expect("present until close");
        let payload = match self.fast.take() {
            Some(chunk) => chunk,
            None => Bytes::from(std::mem::take(&mut self.buf)),
        };
        let transformed = transform(payload)?;
        inner.write_bytes(transformed)?;
        inner.close()
    }
}

/// A byte map applied to a whole chunk in place, boxed by [`slice_kernel`]
/// where the map's type is still known: the dynamic call is per chunk, and
/// the map inlines into (and vectorises with) the loop.
type SliceKernel = Box<dyn FnMut(&mut [u8]) + Send>;

fn slice_kernel(mut map: impl FnMut(u8) -> u8 + Send + 'static) -> SliceKernel {
    Box::new(move |chunk| {
        for b in chunk {
            *b = map(*b);
        }
    })
}

/// Gathers the low bit of each of 64 bytes into one integer: byte kernels
/// flag bytes in a branch-free loop the compiler vectorises, then visit
/// the set bits.
pub fn gather(flags: &[u8; 64]) -> u64 {
    flags.chunks_exact(8).rev().fold(0, |bits, eight| {
        let eight = u64::from_le_bytes(eight.try_into().expect("chunks of eight"));
        bits << 8 | eight.wrapping_mul(0x0102_0408_1020_4080) >> 56
    })
}

/// `String::from_utf8_lossy`, borrowing valid text after `str::from_utf8`'s word-wise check.
pub fn utf8_lossy(bytes: &[u8]) -> std::borrow::Cow<'_, str> {
    std::str::from_utf8(bytes).map_or_else(|_| String::from_utf8_lossy(bytes), Into::into)
}

/// A streaming (non-buffering) byte-wise input transform, for per-byte
/// transforms like case folding or ROT13 that do not need the whole
/// document.
pub struct MappingInput {
    inner: Box<dyn InputStream>,
    kernel: SliceKernel,
}

impl MappingInput {
    /// Wraps `inner`, mapping every byte through `map`.
    pub fn new(inner: Box<dyn InputStream>, map: impl FnMut(u8) -> u8 + Send + 'static) -> Self {
        Self {
            inner,
            kernel: slice_kernel(map),
        }
    }
}

impl InputStream for MappingInput {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        let n = self.inner.read(buf)?;
        (self.kernel)(&mut buf[..n]);
        Ok(n)
    }

    fn size_hint(&self) -> Option<u64> {
        // Byte-wise maps are length-preserving.
        self.inner.size_hint()
    }

    fn read_chunk(&mut self) -> Result<Option<Bytes>> {
        // The map rewrites every byte, so one copy per chunk is inherent;
        // chunk granularity still follows the inner stream. What is no
        // longer paid is a dynamic call per byte.
        Ok(match self.inner.read_chunk()? {
            None => None,
            Some(chunk) => {
                let mut mapped = chunk.to_vec();
                (self.kernel)(&mut mapped);
                Some(Bytes::from(mapped))
            }
        })
    }
}

/// A streaming byte-wise output transform (mirror of [`MappingInput`]).
pub struct MappingOutput {
    inner: Box<dyn OutputStream>,
    kernel: SliceKernel,
    scratch: Vec<u8>,
}

impl MappingOutput {
    /// Wraps `inner`, mapping every byte through `map`.
    pub fn new(inner: Box<dyn OutputStream>, map: impl FnMut(u8) -> u8 + Send + 'static) -> Self {
        Self {
            inner,
            kernel: slice_kernel(map),
            scratch: Vec::new(),
        }
    }
}

impl OutputStream for MappingOutput {
    fn write(&mut self, buf: &[u8]) -> Result<usize> {
        self.scratch.clear();
        self.scratch.extend_from_slice(buf);
        (self.kernel)(&mut self.scratch);
        write_all(self.inner.as_mut(), &self.scratch)?;
        Ok(buf.len())
    }

    fn close(&mut self) -> Result<()> {
        self.inner.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn mem(data: &[u8]) -> Box<dyn InputStream> {
        Box::new(MemoryInput::new(Bytes::copy_from_slice(data)))
    }

    #[test]
    fn memory_input_round_trip() {
        let mut stream = MemoryInput::new(Bytes::from_static(b"hello world"));
        assert_eq!(read_all(&mut stream).unwrap(), "hello world");
    }

    #[test]
    fn memory_input_partial_reads() {
        let mut stream = MemoryInput::new(Bytes::from_static(b"abcdef"));
        let mut buf = [0u8; 4];
        assert_eq!(stream.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf, b"abcd");
        assert_eq!(stream.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"ef");
        assert_eq!(stream.read(&mut buf).unwrap(), 0, "EOF");
    }

    #[test]
    fn memory_input_chunk_is_zero_copy() {
        let source = Bytes::from_static(b"refcounted");
        let mut stream = MemoryInput::new(source.clone());
        assert_eq!(stream.size_hint(), Some(10));
        let chunk = stream.read_chunk().unwrap().unwrap();
        assert!(
            std::ptr::eq(chunk.as_ptr(), source.as_ptr()),
            "chunk must alias the source allocation"
        );
        assert_eq!(stream.size_hint(), Some(0));
        assert!(stream.read_chunk().unwrap().is_none(), "EOF");
    }

    #[test]
    fn memory_input_chunk_after_partial_read_slices_the_remainder() {
        let source = Bytes::from_static(b"abcdef");
        let mut stream = MemoryInput::new(source.clone());
        let mut buf = [0u8; 2];
        stream.read(&mut buf).unwrap();
        let chunk = stream.read_chunk().unwrap().unwrap();
        assert_eq!(chunk, "cdef");
        assert!(std::ptr::eq(chunk.as_ptr(), source[2..].as_ptr()));
    }

    #[test]
    fn read_all_returns_single_chunk_without_copying() {
        let source = Bytes::from_static(b"zero copy end to end");
        let mut stream = MemoryInput::new(source.clone());
        let out = read_all(&mut stream).unwrap();
        assert_eq!(out, source);
        assert!(std::ptr::eq(out.as_ptr(), source.as_ptr()));
    }

    #[test]
    fn default_read_chunk_bridges_byte_readers() {
        // An input stream implementing only `read`, one byte at a time.
        struct OneByte(Vec<u8>);
        impl InputStream for OneByte {
            fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
                if self.0.is_empty() || buf.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0.remove(0);
                Ok(1)
            }
        }
        let mut s = OneByte(b"chunked".to_vec());
        assert_eq!(s.size_hint(), None, "default hint is unknown");
        assert_eq!(read_all(&mut s).unwrap(), "chunked");
    }

    #[test]
    fn collect_output_delivers_on_close() {
        let captured = Arc::new(Mutex::new(None));
        let sink = captured.clone();
        let mut out = CollectOutput::new(move |bytes| {
            *sink.lock().unwrap() = Some(bytes);
            Ok(())
        });
        write_all(&mut out, b"part one, ").unwrap();
        write_all(&mut out, b"part two").unwrap();
        assert!(captured.lock().unwrap().is_none(), "nothing until close");
        out.close().unwrap();
        assert_eq!(
            captured.lock().unwrap().as_ref().unwrap(),
            "part one, part two"
        );
    }

    #[test]
    fn collect_output_rejects_use_after_close() {
        let mut out = CollectOutput::new(|_| Ok(()));
        out.close().unwrap();
        assert_eq!(out.write(b"x").unwrap_err(), PlacelessError::StreamClosed);
        assert_eq!(
            out.write_bytes(Bytes::from_static(b"x")).unwrap_err(),
            PlacelessError::StreamClosed
        );
        assert_eq!(out.close().unwrap_err(), PlacelessError::StreamClosed);
    }

    #[test]
    fn collect_output_adopts_a_single_chunk_without_copying() {
        let source = Bytes::from_static(b"adopted wholesale");
        let captured = Arc::new(Mutex::new(None));
        let sink = captured.clone();
        let mut out = CollectOutput::new(move |bytes| {
            *sink.lock().unwrap() = Some(bytes);
            Ok(())
        });
        out.write_bytes(source.clone()).unwrap();
        out.close().unwrap();
        let got = captured.lock().unwrap().take().unwrap();
        assert_eq!(got, source);
        assert!(
            std::ptr::eq(got.as_ptr(), source.as_ptr()),
            "single chunk must pass through refcounted"
        );
    }

    #[test]
    fn collect_output_mixed_writes_still_collect_in_order() {
        let captured = Arc::new(Mutex::new(None));
        let sink = captured.clone();
        let mut out = CollectOutput::new(move |bytes| {
            *sink.lock().unwrap() = Some(bytes);
            Ok(())
        });
        out.write_bytes(Bytes::from_static(b"one ")).unwrap();
        write_all(&mut out, b"two ").unwrap();
        out.write_bytes(Bytes::from_static(b"three")).unwrap();
        out.close().unwrap();
        assert_eq!(captured.lock().unwrap().as_ref().unwrap(), "one two three");
    }

    #[test]
    fn transforming_input_applies_whole_buffer_transform() {
        let inner = mem(b"hello");
        let mut t =
            TransformingInput::new(inner, Box::new(|b| Ok(Bytes::from(b.to_ascii_uppercase()))));
        assert_eq!(read_all(&mut t).unwrap(), "HELLO");
    }

    #[test]
    fn transforming_input_is_lazy_until_first_read() {
        // The transform must not run during construction or on size_hint:
        // build with a transform that would fail, probe the hint, never
        // read, and observe no panic.
        let inner = mem(b"data");
        let t = TransformingInput::new(inner, Box::new(|_| Err(PlacelessError::StreamClosed)));
        assert_eq!(t.size_hint(), None, "hint unknown before materializing");
    }

    #[test]
    fn transforming_input_identity_passes_the_slice_through() {
        let source = Bytes::from_static(b"identity transform");
        let inner = Box::new(MemoryInput::new(source.clone()));
        let mut t = TransformingInput::new(inner, Box::new(Ok));
        let out = read_all(&mut t).unwrap();
        assert_eq!(out, source);
        assert!(
            std::ptr::eq(out.as_ptr(), source.as_ptr()),
            "identity chain must not materialize a copy"
        );
    }

    #[test]
    fn transforming_input_propagates_transform_errors() {
        let inner = mem(b"data");
        let mut t = TransformingInput::new(
            inner,
            Box::new(|_| {
                Err(PlacelessError::Property {
                    name: "boom".into(),
                    reason: "failed".into(),
                })
            }),
        );
        let mut buf = [0u8; 8];
        assert!(t.read(&mut buf).is_err());
    }

    #[test]
    fn transforming_output_applies_on_close() {
        let captured = Arc::new(Mutex::new(None));
        let sink = captured.clone();
        let collect = CollectOutput::new(move |bytes| {
            *sink.lock().unwrap() = Some(bytes);
            Ok(())
        });
        let mut out = TransformingOutput::new(
            Box::new(collect),
            Box::new(|b| Ok(Bytes::from(b.to_ascii_uppercase()))),
        );
        write_all(&mut out, b"save me").unwrap();
        out.close().unwrap();
        assert_eq!(captured.lock().unwrap().as_ref().unwrap(), "SAVE ME");
    }

    #[test]
    fn transforming_output_identity_chunk_reaches_the_sink_unscathed() {
        let source = Bytes::from_static(b"written once");
        let captured = Arc::new(Mutex::new(None));
        let sink = captured.clone();
        let collect = CollectOutput::new(move |bytes| {
            *sink.lock().unwrap() = Some(bytes);
            Ok(())
        });
        let mut out = TransformingOutput::new(Box::new(collect), Box::new(Ok));
        write_all_bytes(&mut out, source.clone()).unwrap();
        out.close().unwrap();
        let got = captured.lock().unwrap().take().unwrap();
        assert_eq!(got, source);
        assert!(
            std::ptr::eq(got.as_ptr(), source.as_ptr()),
            "identity write chain must forward the caller's buffer"
        );
    }

    #[test]
    fn chained_transforms_compose_outside_in() {
        // Outer transform runs on the result of the inner transform on the
        // read path: provider -> inner wrap -> outer wrap -> application.
        let inner = TransformingInput::new(
            mem(b"ab"),
            Box::new(|b| {
                let mut v = b.to_vec();
                v.push(b'1');
                Ok(Bytes::from(v))
            }),
        );
        let mut outer = TransformingInput::new(
            Box::new(inner),
            Box::new(|b| {
                let mut v = b.to_vec();
                v.push(b'2');
                Ok(Bytes::from(v))
            }),
        );
        assert_eq!(read_all(&mut outer).unwrap(), "ab12");
    }

    #[test]
    fn chained_output_transforms_compose_in_write_order() {
        // App writes into the outermost wrapper; its transform runs first,
        // then the next one, then the sink — the mirror of the read path.
        let captured = Arc::new(Mutex::new(None));
        let sink = captured.clone();
        let collect = CollectOutput::new(move |bytes| {
            *sink.lock().unwrap() = Some(bytes);
            Ok(())
        });
        let near_sink = TransformingOutput::new(
            Box::new(collect),
            Box::new(|b| {
                let mut v = b.to_vec();
                v.push(b'B');
                Ok(Bytes::from(v))
            }),
        );
        let mut app_side = TransformingOutput::new(
            Box::new(near_sink),
            Box::new(|b| {
                let mut v = b.to_vec();
                v.push(b'A');
                Ok(Bytes::from(v))
            }),
        );
        write_all(&mut app_side, b"x").unwrap();
        app_side.close().unwrap();
        assert_eq!(captured.lock().unwrap().as_ref().unwrap(), "xAB");
    }

    #[test]
    fn mapping_input_streams_bytewise() {
        let mut m = MappingInput::new(mem(b"abc"), |b| b.to_ascii_uppercase());
        let mut buf = [0u8; 2];
        assert_eq!(m.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf, b"AB");
        assert_eq!(m.read(&mut buf).unwrap(), 1);
        assert_eq!(&buf[..1], b"C");
    }

    #[test]
    fn mapping_input_chunk_path_maps_and_keeps_the_hint() {
        let mut m = MappingInput::new(mem(b"abc"), |b| b.to_ascii_uppercase());
        assert_eq!(m.size_hint(), Some(3));
        assert_eq!(m.read_chunk().unwrap().unwrap(), "ABC");
        assert!(m.read_chunk().unwrap().is_none());
    }

    #[test]
    fn mapping_output_streams_bytewise() {
        let captured = Arc::new(Mutex::new(None));
        let sink = captured.clone();
        let collect = CollectOutput::new(move |bytes| {
            *sink.lock().unwrap() = Some(bytes);
            Ok(())
        });
        let mut m = MappingOutput::new(Box::new(collect), |b| b.wrapping_add(1));
        write_all(&mut m, b"HAL").unwrap();
        m.close().unwrap();
        assert_eq!(captured.lock().unwrap().as_ref().unwrap(), "IBM");
    }

    #[test]
    fn write_all_loops_over_short_writes() {
        // An output stream that accepts one byte at a time.
        struct OneByte(Vec<u8>);
        impl OutputStream for OneByte {
            fn write(&mut self, buf: &[u8]) -> Result<usize> {
                if buf.is_empty() {
                    return Ok(0);
                }
                self.0.push(buf[0]);
                Ok(1)
            }
            fn close(&mut self) -> Result<()> {
                Ok(())
            }
        }
        let mut s = OneByte(Vec::new());
        write_all(&mut s, b"slow").unwrap();
        assert_eq!(s.0, b"slow");
    }
}
