//! Greedy-Dual-Size-Frequency — the prototype's actual policy.
//!
//! §4: "The replacement policy used in the implementation is a version of
//! the Greedy-Dual-Size algorithm \[Cao & Irani 1997\], based on the replacement cost
//! supplied by the properties and bit-provider, as well as on the size of
//! the document **and the access frequency of the document at that
//! cache**." Plain GDS ignores frequency; the "version" described is
//! GDS-Frequency: `H = L + frequency · cost / size`, so repeatedly accessed
//! documents accumulate credit beyond what one touch grants.

/// The GDS-Frequency replacement policy: [`GreedyDual`](super::gds::GreedyDual)
/// with the hit count in the credit, kept across a re-insert.
pub type GdsFrequency = super::gds::GreedyDual<true>;
