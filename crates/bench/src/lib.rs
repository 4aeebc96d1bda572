//! # Model harness
//!
//! Scenario code behind the `experiments` binary, which prints
//! paper-style tables in *simulated* milliseconds and writes the five
//! `BENCH_*.json` artifacts through [`report`]. Every quantity here is a
//! count or a virtual-clock time: nothing reads the wall clock, so the
//! numbers are the *model* and can be diffed between commits. Wall-clock
//! numbers come from `benchmark/run.sh` only, run in pairs by
//! `scripts/pairs.sh`, which [`pairs`] judges (it counts, and times
//! nothing).
//!
//! | Module | Experiment | Paper anchor |
//! |---|---|---|
//! | [`table1`] | access times: no cache / miss / hit × 3 origins | Table 1 |
//! | [`nv`] | notifier vs verifier trade-off | §5 future work |
//! | [`replacement`] | GDS vs LRU/LFU/SIZE/FIFO/GD(1) | §3 cache management |
//! | [`sharing`] | content-signature sharing | §3 entry identification |
//! | [`consistency`] | the four invalidation causes | §3 cache consistency |
//! | [`qos`] | QoS cost inflation | §5 future work |
//! | [`collections`] | collection-aware prefetch | §5 future work |
//! | [`chain`] | property-chain length vs latency | §3 motivation |
//! | [`placement`] | app-level vs server-side cache placement | §4 |
//! | [`revalidation`] | TTL vs conditional-GET verifiers for web docs | §3 WWW discussion |
//! | [`fault`] | read availability under origin outages | §3 robustness ablation |
//! | [`stage`] | staged transform plans: partial hits over a shared base prefix | §3 per-user versions |
//! | [`crash`] | every crash state of the journaled write path | §3 write-back robustness |
//! | [`load`] | single-flight coalescing probe and grouped-flush write mix | §4 implementation |
//! | [`merge`] | op-based multi-writer merge vs binary conflict resolution | §3 write-back robustness |
//! | [`overload`] | deadline-aware admission and brownout under a 10× burst | §3 robustness ablation |

pub mod chain;
pub mod collections;
pub mod consistency;
pub mod crash;
pub mod fault;
pub mod load;
pub mod merge;
pub mod nv;
pub mod overload;
pub mod pairs;
pub mod placement;
pub mod qos;
pub mod replacement;
pub mod report;
pub mod revalidation;
pub mod sharing;
pub mod stage;
pub mod support;
pub mod table1;
