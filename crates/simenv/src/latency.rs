//! Link latency and bandwidth models.
//!
//! The paper's Table 1 measured access times for a local web server
//! (`parcweb`) and two remote WWW sites circa 1999; the dominant term is
//! where the bytes have to travel. [`Link`] models a network path with a
//! fixed round-trip latency, a bandwidth, and optional deterministic jitter;
//! [`LatencyModel`] bundles per-operation service costs for a component
//! (e.g. a repository's request-processing overhead).

use crate::clock::VirtualClock;
use crate::fault::{FaultError, FaultPlan};
use crate::rng::SimRng;
use parking_lot::Mutex;
use std::sync::Arc;

/// Coarse classes of network link, with 1999-plausible defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Same machine: function-call distance (~0.05 ms RTT).
    Local,
    /// Same building LAN (~1 ms RTT, 10 Mbit/s effective).
    Lan,
    /// Cross-country WAN (~80 ms RTT, 1 Mbit/s effective).
    Wan,
    /// Intercontinental WAN (~180 ms RTT, 0.5 Mbit/s effective).
    FarWan,
}

impl LinkClass {
    /// Returns the default round-trip latency in microseconds.
    pub fn default_rtt_micros(self) -> u64 {
        match self {
            LinkClass::Local => 50,
            LinkClass::Lan => 1_000,
            LinkClass::Wan => 80_000,
            LinkClass::FarWan => 180_000,
        }
    }

    /// Returns the default bandwidth in bytes per second.
    pub fn default_bytes_per_sec(self) -> u64 {
        match self {
            LinkClass::Local => 200_000_000,
            LinkClass::Lan => 1_250_000,
            LinkClass::Wan => 125_000,
            LinkClass::FarWan => 62_500,
        }
    }
}

/// A simulated network path with latency, bandwidth, and jitter.
///
/// Cloning a `Link` shares the underlying jitter stream and transfer
/// counters.
///
/// # Examples
///
/// ```
/// use placeless_simenv::{Link, LinkClass, VirtualClock};
///
/// let clock = VirtualClock::new();
/// let link = Link::of_class(LinkClass::Lan, 0);
/// let t0 = clock.now();
/// link.transfer(&clock, 1_250); // 1250 bytes over the LAN
/// assert!(clock.now().since(t0) >= LinkClass::Lan.default_rtt_micros());
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    rtt_micros: u64,
    bytes_per_sec: u64,
    jitter_frac: f64,
    shared: Arc<Mutex<LinkState>>,
}

#[derive(Debug)]
struct LinkState {
    rng: SimRng,
    fault: Option<FaultPlan>,
}

impl Link {
    /// Creates a link with explicit parameters.
    ///
    /// `jitter_frac` is the maximum fractional deviation applied to each
    /// transfer's latency (e.g. `0.1` for ±10 %); it is sampled from the
    /// deterministic per-link RNG stream.
    pub fn new(rtt_micros: u64, bytes_per_sec: u64, jitter_frac: f64, seed: u64) -> Self {
        Self {
            rtt_micros,
            bytes_per_sec: bytes_per_sec.max(1),
            jitter_frac: jitter_frac.clamp(0.0, 1.0),
            shared: Arc::new(Mutex::new(LinkState {
                rng: SimRng::seeded(seed ^ 0xC0FF_EE00_DEAD_BEEF),
                fault: None,
            })),
        }
    }

    /// Creates a link of a standard class with 5 % jitter.
    pub fn of_class(class: LinkClass, seed: u64) -> Self {
        Self::new(
            class.default_rtt_micros(),
            class.default_bytes_per_sec(),
            0.05,
            seed,
        )
    }

    /// Returns the configured round-trip latency in microseconds.
    pub fn rtt_micros(&self) -> u64 {
        self.rtt_micros
    }

    /// Estimates the jitter-free cost of transferring `bytes`, without
    /// charging anything or touching the counters.
    pub fn estimate_micros(&self, bytes: u64) -> u64 {
        self.rtt_micros + bytes.saturating_mul(1_000_000) / self.bytes_per_sec
    }

    /// Computes the latency a transfer of `bytes` would incur, including a
    /// jitter sample, and advances the shared counters.
    fn sample_cost(&self, bytes: u64) -> u64 {
        let serialization = bytes.saturating_mul(1_000_000) / self.bytes_per_sec;
        let base = self.rtt_micros + serialization;
        let mut state = self.shared.lock();
        if self.jitter_frac == 0.0 {
            base
        } else {
            // Uniform jitter in [-jitter_frac, +jitter_frac].
            let j = (state.rng.next_f64() * 2.0 - 1.0) * self.jitter_frac;
            ((base as f64) * (1.0 + j)).max(0.0) as u64
        }
    }

    /// Charges the cost of transferring `bytes` over this link against the
    /// clock and returns the charged microseconds.
    pub fn transfer(&self, clock: &VirtualClock, bytes: u64) -> u64 {
        let cost = self.sample_cost(bytes);
        clock.advance(cost);
        cost
    }

    /// Attaches a [`FaultPlan`]; all clones of this link share it.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        self.shared.lock().fault = Some(plan);
    }

    /// Returns a handle to the attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.shared.lock().fault.clone()
    }

    /// Consults the attached fault plan for one operation.
    ///
    /// On an injected failure the wire time of the doomed attempt — one
    /// round trip (a full timeout window for [`FaultError`] timeouts, when
    /// the window end is known) — is charged to the clock before the error
    /// returns. Links with no plan attached always succeed and charge nothing.
    pub fn faulted_op(&self, clock: &VirtualClock) -> Result<(), FaultError> {
        let Some(plan) = self.fault_plan() else {
            return Ok(());
        };
        match plan.assess(clock) {
            Ok(()) => Ok(()),
            Err(err) => {
                let attempt_cost = match (err.kind, err.retry_after) {
                    // A timeout hangs until its window closes.
                    (crate::fault::FaultErrorKind::Timeout, Some(remaining)) => {
                        self.rtt_micros.max(remaining)
                    }
                    _ => self.rtt_micros,
                };
                clock.advance(attempt_cost);
                Err(err)
            }
        }
    }
}

/// Per-operation service costs for a simulated component.
///
/// Bundles the fixed CPU/service overhead a component charges per request
/// and a per-byte processing cost.
#[derive(Debug, Clone, Copy)]
pub struct LatencyModel {
    /// Fixed microseconds charged per operation.
    pub per_op_micros: u64,
    /// Additional microseconds charged per kilobyte processed.
    pub per_kb_micros: u64,
}

impl LatencyModel {
    /// A model that charges nothing, for tests.
    pub const FREE: LatencyModel = LatencyModel {
        per_op_micros: 0,
        per_kb_micros: 0,
    };

    /// Creates a new model.
    pub fn new(per_op_micros: u64, per_kb_micros: u64) -> Self {
        Self {
            per_op_micros,
            per_kb_micros,
        }
    }

    /// Computes the cost of processing `bytes` without charging it.
    pub fn cost_micros(&self, bytes: u64) -> u64 {
        self.per_op_micros + self.per_kb_micros * bytes.div_ceil(1024)
    }

    /// Charges the cost of processing `bytes` against the clock and returns
    /// the charged microseconds.
    pub fn charge(&self, clock: &VirtualClock, bytes: u64) -> u64 {
        let cost = self.cost_micros(bytes);
        clock.advance(cost);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_classes_are_ordered_by_distance() {
        assert!(
            LinkClass::Local.default_rtt_micros() < LinkClass::Lan.default_rtt_micros()
                && LinkClass::Lan.default_rtt_micros() < LinkClass::Wan.default_rtt_micros()
                && LinkClass::Wan.default_rtt_micros() < LinkClass::FarWan.default_rtt_micros()
        );
    }

    #[test]
    fn transfer_advances_clock() {
        let clock = VirtualClock::new();
        let link = Link::new(1_000, 1_000_000, 0.0, 1);
        let cost = link.transfer(&clock, 2_000_000);
        // 1 ms RTT + 2 s serialization.
        assert_eq!(cost, 1_000 + 2_000_000);
        assert_eq!(clock.now().as_micros(), cost);
    }

    #[test]
    fn zero_jitter_is_exact() {
        let clock = VirtualClock::new();
        let link = Link::new(500, 1_000_000, 0.0, 2);
        for _ in 0..10 {
            assert_eq!(link.transfer(&clock, 1_000_000), 500 + 1_000_000);
        }
    }

    #[test]
    fn jitter_stays_in_bounds() {
        let clock = VirtualClock::new();
        let link = Link::new(10_000, 1_000_000_000, 0.10, 3);
        for _ in 0..200 {
            let cost = link.transfer(&clock, 0);
            assert!((9_000..=11_000).contains(&cost), "cost {cost} out of ±10 %");
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let clock = VirtualClock::new();
        let a = Link::new(10_000, 1_000_000, 0.1, 7);
        let b = Link::new(10_000, 1_000_000, 0.1, 7);
        let xs: Vec<u64> = (0..16).map(|_| a.transfer(&clock, 100)).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.transfer(&clock, 100)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn latency_model_charges_per_kb() {
        let clock = VirtualClock::new();
        let model = LatencyModel::new(10, 3);
        assert_eq!(model.cost_micros(0), 10);
        assert_eq!(model.cost_micros(1), 13);
        assert_eq!(model.cost_micros(1024), 13);
        assert_eq!(model.cost_micros(1025), 16);
        model.charge(&clock, 2048);
        assert_eq!(clock.now().as_micros(), 16);
    }

    #[test]
    fn free_model_is_free() {
        let clock = VirtualClock::new();
        assert_eq!(LatencyModel::FREE.charge(&clock, 1_000_000), 0);
        assert_eq!(clock.now().as_micros(), 0);
    }
}
