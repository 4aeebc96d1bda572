//! Simulation substrate for the Placeless Documents reproduction.
//!
//! The original 1999 evaluation ran on real machines at Xerox PARC with real
//! LAN/WAN links between applications, Placeless servers, and document
//! origins. This crate replaces that testbed with a deterministic simulated
//! environment:
//!
//! * [`clock::VirtualClock`] — a shared, monotonically advancing microsecond
//!   clock that the repositories, caches, and property framework all charge
//!   their costs against.
//! * [`latency::LatencyModel`] and [`latency::Link`] — per-link latency and
//!   bandwidth profiles (local, LAN, WAN) with deterministic jitter.
//! * [`rng::SimRng`] — a small, seedable xorshift generator so every
//!   experiment is reproducible bit-for-bit.
//! * [`fault::FaultPlan`] — scripted, deterministic failure schedules
//!   (outages, timeouts, partitions) attachable to links.
//! * [`stable::StableStore`] — a simulated stable-storage medium whose
//!   contents survive a process crash, backing the cache's write-ahead
//!   journal. Its module doc states the persistence model, and a store
//!   armed with a [`stable::CrashPoint`] dies at that point.
//! * [`sched`] — a seeded scheduler that runs threads one at a time over
//!   the `parking_lot` facade's switch points, jumping the virtual clock
//!   when every thread waits on a deadline, so a concurrent run replays
//!   from its seed.
//! * [`trace`] — workload generators (Zipf document popularity, read/write
//!   mixes, user populations) used by the benchmark harness.
//!
//! Nothing in this crate knows about documents or caches; it is a pure
//! substrate the rest of the workspace builds on.

pub mod clock;
pub mod fault;
pub mod latency;
pub mod rng;
pub mod sched;
pub mod stable;
pub mod trace;

pub use clock::{Instant, VirtualClock};
pub use fault::{FaultError, FaultErrorKind, FaultPlan};
pub use latency::{LatencyModel, Link, LinkClass};
pub use rng::SimRng;
pub use stable::{CrashPoint, MediumOp, StableStore};
pub use trace::{AccessEvent, TraceBuilder, TraceSampler, WorkloadBuilder, ZipfSampler};
