//! Verifiers: validity checks shipped to the cache with the content.
//!
//! "Verifiers are pieces of code returned to the cache along with the
//! document's content. They are executed each time an entry is retrieved
//! from the cache and can determine whether the entry is still valid at that
//! time. In particular, verifiers can check for conditions that may change
//! outside of Placeless control."
//!
//! Verifiers here are trait objects created by bit-providers and active
//! properties as the read path executes; the cache runs them on every hit
//! and charges their execution cost against the clock (verifier execution
//! trades cache consistency against hit latency — the trade-off the bench
//! harness measures).

use crate::external::ExternalSource;
use bytes::Bytes;
use placeless_simenv::{Instant, VirtualClock};
use std::sync::Arc;

/// The outcome of running a verifier on a cache hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Validity {
    /// The cached entry may be served.
    Valid,
    /// The cached entry is stale and must be discarded.
    Invalid,
    /// The cached entry should be *replaced in place* with these bytes and
    /// then served — the paper's "or even modify these values as needed"
    /// case for heavily customized documents like portfolio pages.
    Replace(Bytes),
    /// The check could not be performed (origin unreachable, probe timed
    /// out): freshness is *unknown*, not refuted. The cache decides
    /// whether its staleness bound permits serving the entry anyway.
    Unverifiable,
}

/// A validity check executed by the cache on each hit.
pub trait Verifier: Send + Sync {
    /// Runs the check at the current virtual time.
    fn check(&self, clock: &VirtualClock) -> Validity;

    /// Returns the simulated cost of running this check, in microseconds.
    /// The cache charges this on every hit.
    fn cost_micros(&self) -> u64 {
        5
    }

    /// Returns a short human-readable description.
    fn describe(&self) -> String;

    /// Whether `Valid` vouches that the provider's bytes have not changed
    /// since this verifier was made, as an mtime poll does and a TTL does not.
    fn attests_content(&self) -> bool {
        false
    }
}

/// A verifier that expires at a fixed virtual time, as an HTTP TTL does.
pub struct TtlVerifier {
    expires_at: Instant,
}

impl TtlVerifier {
    /// Creates a verifier valid until `expires_at`.
    pub fn until(expires_at: Instant) -> Box<dyn Verifier> {
        Box::new(Self { expires_at })
    }

    /// Creates a verifier valid for `ttl_micros` from `now`.
    pub fn for_ttl(now: Instant, ttl_micros: u64) -> Box<dyn Verifier> {
        Self::until(now.plus(ttl_micros))
    }
}

impl Verifier for TtlVerifier {
    fn check(&self, clock: &VirtualClock) -> Validity {
        if clock.now() <= self.expires_at {
            Validity::Valid
        } else {
            Validity::Invalid
        }
    }

    fn cost_micros(&self) -> u64 {
        1
    }

    fn describe(&self) -> String {
        format!("ttl(expires@{}µs)", self.expires_at.as_micros())
    }
}

/// A verifier that invalidates when an [`ExternalSource`]'s epoch moves past
/// the epoch observed when the entry was filled.
pub struct EpochVerifier {
    source: Arc<dyn ExternalSource>,
    seen: u64,
    cost: u64,
}

impl EpochVerifier {
    /// Creates a verifier pinned to the source's current epoch.
    pub fn pinned(source: Arc<dyn ExternalSource>) -> Box<dyn Verifier> {
        let seen = source.epoch();
        Box::new(Self {
            source,
            seen,
            cost: 20,
        })
    }
}

impl Verifier for EpochVerifier {
    fn check(&self, _clock: &VirtualClock) -> Validity {
        if self.source.epoch() == self.seen {
            Validity::Valid
        } else {
            Validity::Invalid
        }
    }

    fn cost_micros(&self) -> u64 {
        self.cost
    }

    fn describe(&self) -> String {
        format!("epoch({}@{})", self.source.name(), self.seen)
    }
}

/// The predicate a [`ClosureVerifier`] runs on each hit.
type CheckFn = Box<dyn Fn(&VirtualClock) -> Validity + Send + Sync>;

/// A verifier built from a closure, for document- or property-specific
/// checks (e.g. "invalidate only if the quote moved more than 1 %").
pub struct ClosureVerifier {
    check: CheckFn,
    cost: u64,
    label: String,
}

impl ClosureVerifier {
    /// Creates a verifier from `check` with the given probe cost.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        label: &str,
        cost: u64,
        check: impl Fn(&VirtualClock) -> Validity + Send + Sync + 'static,
    ) -> Box<dyn Verifier> {
        Box::new(Self {
            check: Box::new(check),
            cost,
            label: label.to_owned(),
        })
    }
}

impl Verifier for ClosureVerifier {
    fn check(&self, clock: &VirtualClock) -> Validity {
        (self.check)(clock)
    }

    fn cost_micros(&self) -> u64 {
        self.cost
    }

    fn describe(&self) -> String {
        self.label.clone()
    }
}

/// Runs a slice of verifiers in order, combining their verdicts.
///
/// The first [`Validity::Invalid`] wins; a [`Validity::Replace`] is carried
/// forward but can still be overridden to `Invalid` by a later verifier
/// (replacement content must itself pass the remaining checks). A
/// [`Validity::Unverifiable`] also overrides any carried `Replace` or
/// `Valid` — if one probe could not reach its origin, the combined
/// freshness is unknown — but a later definite `Invalid` still wins.
/// Returns the total probe cost alongside the verdict so the caller can
/// charge it.
pub fn run_all(verifiers: &[Box<dyn Verifier>], clock: &VirtualClock) -> (Validity, u64) {
    let mut verdict = Validity::Valid;
    let mut cost = 0;
    for v in verifiers {
        cost += v.cost_micros();
        match v.check(clock) {
            Validity::Valid => {}
            Validity::Invalid => return (Validity::Invalid, cost),
            Validity::Replace(bytes) => {
                if verdict != Validity::Unverifiable {
                    verdict = Validity::Replace(bytes);
                }
            }
            Validity::Unverifiable => verdict = Validity::Unverifiable,
        }
    }
    (verdict, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::external::SimpleExternal;

    #[test]
    fn ttl_valid_until_deadline() {
        let clock = VirtualClock::new();
        let v = TtlVerifier::for_ttl(clock.now(), 1_000);
        assert_eq!(v.check(&clock), Validity::Valid);
        clock.advance(1_000);
        assert_eq!(v.check(&clock), Validity::Valid, "inclusive deadline");
        clock.advance(1);
        assert_eq!(v.check(&clock), Validity::Invalid);
    }

    #[test]
    fn epoch_verifier_tracks_source_changes() {
        let clock = VirtualClock::new();
        let src = SimpleExternal::new("quotes", "100");
        let v = EpochVerifier::pinned(src.clone());
        assert_eq!(v.check(&clock), Validity::Valid);
        src.set("101");
        assert_eq!(v.check(&clock), Validity::Invalid);
    }

    #[test]
    fn epoch_verifier_pins_at_creation_time() {
        let clock = VirtualClock::new();
        let src = SimpleExternal::new("quotes", "100");
        src.set("101");
        let v = EpochVerifier::pinned(src.clone());
        assert_eq!(v.check(&clock), Validity::Valid, "created after the change");
    }

    #[test]
    fn closure_verifier_runs_arbitrary_predicates() {
        let clock = VirtualClock::new();
        let v = ClosureVerifier::new("after-5ms", 3, |c| {
            if c.now().as_micros() < 5_000 {
                Validity::Valid
            } else {
                Validity::Invalid
            }
        });
        assert_eq!(v.check(&clock), Validity::Valid);
        assert_eq!(v.cost_micros(), 3);
        clock.advance(6_000);
        assert_eq!(v.check(&clock), Validity::Invalid);
    }

    #[test]
    fn run_all_empty_is_valid_and_free() {
        let clock = VirtualClock::new();
        assert_eq!(run_all(&[], &clock), (Validity::Valid, 0));
    }

    #[test]
    fn run_all_first_invalid_short_circuits() {
        let clock = VirtualClock::new();
        let vs: Vec<Box<dyn Verifier>> = vec![
            ClosureVerifier::new("a", 10, |_| Validity::Valid),
            ClosureVerifier::new("b", 10, |_| Validity::Invalid),
            ClosureVerifier::new("c", 10, |_| panic!("must not run")),
        ];
        let (verdict, cost) = run_all(&vs, &clock);
        assert_eq!(verdict, Validity::Invalid);
        assert_eq!(cost, 20, "short-circuits after the invalid check");
    }

    #[test]
    fn run_all_accumulates_costs_when_valid() {
        let clock = VirtualClock::new();
        let vs: Vec<Box<dyn Verifier>> = vec![
            ClosureVerifier::new("a", 7, |_| Validity::Valid),
            ClosureVerifier::new("b", 11, |_| Validity::Valid),
        ];
        assert_eq!(run_all(&vs, &clock), (Validity::Valid, 18));
    }

    #[test]
    fn run_all_replace_is_carried_but_overridable() {
        let clock = VirtualClock::new();
        let vs: Vec<Box<dyn Verifier>> = vec![
            ClosureVerifier::new("fresh", 1, |_| {
                Validity::Replace(Bytes::from_static(b"new quote"))
            }),
            ClosureVerifier::new("ok", 1, |_| Validity::Valid),
        ];
        let (verdict, _) = run_all(&vs, &clock);
        assert_eq!(verdict, Validity::Replace(Bytes::from_static(b"new quote")));

        let vs: Vec<Box<dyn Verifier>> = vec![
            ClosureVerifier::new("fresh", 1, |_| {
                Validity::Replace(Bytes::from_static(b"new quote"))
            }),
            ClosureVerifier::new("dead", 1, |_| Validity::Invalid),
        ];
        let (verdict, _) = run_all(&vs, &clock);
        assert_eq!(
            verdict,
            Validity::Invalid,
            "later invalid overrides replace"
        );
    }

    #[test]
    fn run_all_unverifiable_dominates_valid_and_replace() {
        let clock = VirtualClock::new();
        let vs: Vec<Box<dyn Verifier>> = vec![
            ClosureVerifier::new("down", 1, |_| Validity::Unverifiable),
            ClosureVerifier::new("ok", 1, |_| Validity::Valid),
        ];
        assert_eq!(run_all(&vs, &clock).0, Validity::Unverifiable);

        let vs: Vec<Box<dyn Verifier>> = vec![
            ClosureVerifier::new("fresh", 1, |_| {
                Validity::Replace(Bytes::from_static(b"new"))
            }),
            ClosureVerifier::new("down", 1, |_| Validity::Unverifiable),
        ];
        assert_eq!(
            run_all(&vs, &clock).0,
            Validity::Unverifiable,
            "replacement bytes cannot be trusted if a later probe is blind"
        );

        let vs: Vec<Box<dyn Verifier>> = vec![
            ClosureVerifier::new("down", 1, |_| Validity::Unverifiable),
            ClosureVerifier::new("dead", 1, |_| Validity::Invalid),
        ];
        assert_eq!(
            run_all(&vs, &clock).0,
            Validity::Invalid,
            "a definite rejection beats an unknown"
        );
    }

    #[test]
    fn describe_is_informative() {
        let clock = VirtualClock::new();
        let src = SimpleExternal::new("db", "x");
        assert!(TtlVerifier::for_ttl(clock.now(), 10)
            .describe()
            .contains("ttl"));
        assert!(EpochVerifier::pinned(src).describe().contains("db"));
    }
}
