//! A live content feed whose content changes on every read.
//!
//! Models the paper's "its source is live video" case: a bit-provider over a
//! feed must deem the document uncacheable, because no two reads return the
//! same bytes.

use bytes::Bytes;
use parking_lot::Mutex;
use placeless_simenv::{SimRng, VirtualClock};
use std::sync::Arc;

/// A deterministic frame generator standing in for a live video source.
pub struct LiveFeed {
    name: String,
    frame_bytes: usize,
    state: Mutex<(u64, SimRng)>,
}

impl LiveFeed {
    /// Creates a feed producing `frame_bytes`-sized frames.
    pub fn new(name: &str, frame_bytes: usize, seed: u64) -> Arc<Self> {
        Arc::new(Self {
            name: name.to_owned(),
            frame_bytes,
            state: Mutex::new((0, SimRng::seeded(seed))),
        })
    }

    /// Returns the feed's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Captures the next frame; every call yields different content.
    pub fn next_frame(&self, clock: &VirtualClock) -> Bytes {
        let mut state = self.state.lock();
        state.0 += 1;
        let frame_no = state.0;
        let mut frame = Vec::with_capacity(self.frame_bytes);
        frame.extend_from_slice(
            format!("frame {frame_no} @{} | ", clock.now().as_micros()).as_bytes(),
        );
        while frame.len() < self.frame_bytes {
            frame.push(b'a' + (state.1.next_below(26) as u8));
        }
        frame.truncate(self.frame_bytes);
        Bytes::from(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_frame_differs() {
        let clock = VirtualClock::new();
        let feed = LiveFeed::new("camera-1", 256, 7);
        let a = feed.next_frame(&clock);
        let b = feed.next_frame(&clock);
        assert_ne!(a, b);
        assert_eq!(a.len(), 256);
        assert_eq!(b.len(), 256);
    }

    #[test]
    fn frames_embed_the_virtual_time() {
        let clock = VirtualClock::new();
        clock.advance(42);
        let feed = LiveFeed::new("cam", 64, 1);
        let frame = feed.next_frame(&clock);
        assert!(std::str::from_utf8(&frame).unwrap().contains("@42"));
    }

    #[test]
    fn deterministic_per_seed() {
        let clock = VirtualClock::new();
        let a = LiveFeed::new("cam", 128, 5).next_frame(&clock);
        let b = LiveFeed::new("cam", 128, 5).next_frame(&clock);
        assert_eq!(a, b);
    }
}
