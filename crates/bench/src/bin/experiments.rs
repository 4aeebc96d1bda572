//! Prints the paper's evaluation tables (and the future-work ablations)
//! from the simulated substrate.
//!
//! ```text
//! cargo run -p placeless-bench --bin experiments            # everything
//! cargo run -p placeless-bench --bin experiments -- table1  # one experiment
//! ```
//!
//! The experiments are the names of [`EXPERIMENTS`]; a name not in it
//! exits 2 and lists them.
//!
//! The `stage`, `crash`, `load`, `merge`, and `overload` experiments
//! return a [`Report`], which `main` writes as `BENCH_<name>.json` into
//! the working directory so their numbers are machine-readable run over
//! run; a failed write exits 1. The `load` experiment honours
//! `E_LOAD_WMIX_WRITES` / `E_LOAD_WMIX_DOCS` / `E_LOAD_WMIX_FLUSH_EVERY`
//! for the write-mix flush smoke; the `overload` experiment honours
//! `E_OVERLOAD_THREADS` / `E_OVERLOAD_EVENTS` / `E_OVERLOAD_INTENSITY` /
//! `E_OVERLOAD_WALL_MICROS` for reduced CI smokes.

use placeless_bench::report::Report;
use placeless_bench::{
    chain, collections, consistency, crash, fault, load, merge, nv, overload, placement, qos,
    replacement, revalidation, sharing, stage, table1,
};
use placeless_cache::ALL_POLICIES;
use std::process::ExitCode;

/// Prints an experiment's tables; a [`Report`] it returns is written by
/// `main`.
type Experiment = fn() -> Option<Report>;

/// Every experiment, in the order a run of everything prints them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", run_table1),
    ("notifier-verifier", run_nv),
    ("replacement", run_replacement),
    ("sharing", run_sharing),
    ("consistency", run_consistency),
    ("qos", run_qos),
    ("collections", run_collections),
    ("chain", run_chain),
    ("placement", run_placement),
    ("revalidation", run_revalidation),
    ("fault", run_fault),
    ("stage", run_stage),
    ("crash", run_crash),
    ("load", run_load),
    ("merge", run_merge),
    ("overload", run_overload),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |arg: &String| EXPERIMENTS.iter().any(|(name, _)| name == arg);
    if let Some(unknown) = args.iter().find(|arg| !known(arg)) {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment `{unknown}`; known: {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    }
    for (name, run) in EXPERIMENTS {
        if !args.is_empty() && !args.iter().any(|arg| arg == name) {
            continue;
        }
        let Some(report) = run() else { continue };
        match report.write() {
            Ok(path) => println!("wrote {}\n", path.display()),
            Err(e) => {
                eprintln!("could not write the {} artifact: {e}", report.experiment);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn run_merge() -> Option<Report> {
    let params = merge::MergeParams::default();
    println!("== E-MERGE: op-based multi-writer merge across crash + partition ==\n");
    println!(
        "two writers, {}+{} edits each, crash after phase 1, partition [{:.0}ms, {:.0}ms)\n",
        params.edits_phase1,
        params.edits_phase2,
        params.partition_from as f64 / 1_000.0,
        params.partition_until as f64 / 1_000.0
    );
    println!(
        "{:<12} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "mode", "acked", "lost", "merged", "rebases", "replayed"
    );
    let results = merge::sweep(params);
    for r in &results {
        println!(
            "{:<12} {:>8} {:>8} {:>10} {:>10} {:>10}",
            r.mode.label(),
            r.acknowledged,
            r.lost,
            r.conflicts_merged,
            r.merge_rebases,
            r.replayed
        );
    }
    println!("\n(op-merge rebases every conflicted edit onto the origin's current content —");
    println!(" zero acknowledged edits lost; the binary modes pick a side and lose the other)\n");

    Some(merge::report(params, &results))
}

fn run_overload() -> Option<Report> {
    let params = overload::OverloadParams::default().from_env();
    println!(
        "== E-OVERLOAD: {}x burst over saturation ({} + {} + {} reads, {} base threads) ==\n",
        params.burst_intensity,
        params.sat_events,
        params.burst_events,
        params.recover_events,
        params.base_threads
    );
    println!(
        "service {} us virtual / {} us wall per fetch, deadline {} us, SLO {} us\n",
        params.service_virtual_micros,
        params.service_wall_micros,
        params.deadline_micros,
        params.slo_micros
    );
    let cells = overload::run_overload(params);
    for cell in &cells {
        println!(
            "{}:",
            if cell.protected {
                "protected (deadlines + overload control)"
            } else {
                "unprotected (no overload control)"
            }
        );
        println!(
            "  {:<12} {:>5} {:>8} {:>9} {:>6} {:>8} {:>10} {:>12}",
            "phase", "x", "offered", "admitted", "shed", "on-time", "p99v us", "goodput/s"
        );
        for p in &cell.phases {
            println!(
                "  {:<12} {:>5} {:>8} {:>9} {:>6} {:>8} {:>10} {:>12.0}",
                p.name,
                p.intensity,
                p.offered,
                p.admitted,
                p.shed,
                p.on_time,
                p.p99_virtual_micros,
                p.goodput()
            );
        }
        println!(
            "  retained {:.0}% of saturation goodput; sheds fg/refresh/prefetch \
             {}/{}/{}; brownout shifts {}\n",
            cell.retained() * 100.0,
            cell.stats.sheds_foreground,
            cell.stats.sheds_refresh,
            cell.stats.sheds_prefetch,
            cell.stats.brownout_shifts
        );
    }
    println!("(the protected cell trades explicit sheds for bounded latency; the");
    println!(" unprotected cell admits everything and lets queueing blow the SLO)\n");

    Some(overload::report(params, &cells))
}

fn run_load() -> Option<Report> {
    println!("== E-LOAD: single-flight coalescing probe + grouped-flush write mix ==\n");
    let probe = load::coalesce_probe(8);
    println!(
        "coalesce probe: {} racing cold readers -> {} origin fetch, {} coalesced waits, identical bytes: {}\n",
        probe.threads, probe.provider_fetches, probe.coalesced_waits, probe.identical
    );

    let wmix_params = load::WriteMixParams::default().from_env();
    println!(
        "write mix: {} write-back writes over {} docs, flush every {} (x{} users)",
        wmix_params.writes, wmix_params.documents, wmix_params.flush_every, wmix_params.users
    );
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>11} {:>13} {:>13}",
        "flush every", "entries", "flushes", "batches", "origin ops", "ops/entry", "flush us"
    );
    let wmix = load::write_mix(wmix_params);
    for r in &wmix {
        println!(
            "{:<12} {:>9} {:>9} {:>9} {:>11} {:>13.2} {:>13}",
            r.flush_every,
            r.entries_flushed,
            r.flush_calls,
            r.flush_batches,
            r.origin_ops,
            r.ops_per_entry(),
            r.flush_micros
        );
    }
    let amortization = wmix[0].ops_per_entry() / wmix[1].ops_per_entry();
    println!(
        "\n(grouped flushes amortize origin round-trips {amortization:.2}x; write_mix() \
         asserts >= 2x)\n"
    );

    Some(load::report(probe, wmix_params, &wmix))
}

fn run_crash() -> Option<Report> {
    let params = crash::CrashParams::default();
    println!("== E-CRASH: every crash state of the journaled write path ==\n");
    println!(
        "{} docs, {} write-back writes (some `write_op` appends, some {} KiB bodies), \
         flush every {}, seed {}\n",
        params.docs,
        params.writes,
        crash::BIG_BODY / 1024,
        params.flush_every,
        params.seed
    );
    println!(
        "{:<12} {:>7} {:>10} {:>6} {:>15} {:>15} {:>16} {:>8} {:>9}",
        "mode",
        "states",
        "medium ops",
        "lost",
        "2nd recovery ≠",
        "post-write lost",
        "after compaction",
        "torn op",
        "torn ack"
    );
    let results = crash::sweep(params);
    for r in &results {
        println!(
            "{:<12} {:>7} {:>10} {:>6} {:>15} {:>15} {:>16} {:>8} {:>9}",
            r.label(),
            r.states,
            r.medium_ops,
            r.lost,
            r.recover_differs,
            r.post_write_lost,
            r.after_compaction,
            r.torn_op,
            r.torn_ack
        );
    }
    println!("\n(a state is a cache-op boundary or a medium op with a prefix of it landed;");
    println!(" with the journal no state loses an acknowledged write)\n");

    Some(crash::report(params, &results))
}

fn run_stage() -> Option<Report> {
    let params = stage::StageParams::default();
    println!(
        "== E-STAGE: staged transform plans ({} users, {}-stage base chain, {} ms/stage) ==\n",
        params.users,
        params.base_chain,
        params.per_stage_micros as f64 / 1_000.0
    );
    println!(
        "{:<12} {:>10} {:>14} {:>10} {:>10} {:>10} {:>12}",
        "stage cache", "first ms", "later user ms", "hit ms", "st.hits", "entries", "physical KB"
    );
    let results = stage::sweep(params);
    for r in &results {
        println!(
            "{:<12} {:>10.2} {:>14.2} {:>10.3} {:>10} {:>10} {:>12.1}",
            if r.stage_cache { "on" } else { "off" },
            r.first_user_micros as f64 / 1_000.0,
            r.later_user_mean_micros as f64 / 1_000.0,
            r.repeat_hit_micros as f64 / 1_000.0,
            r.stats.stage_hits,
            r.stage_entries,
            r.physical_bytes as f64 / 1_024.0
        );
    }
    println!("\n(with staging, later users replay only the per-user suffix over the");
    println!(" shared base prefix; the base intermediates are resident exactly once)\n");

    // Acceptance gate: the lease-anchored streaming walk must serve a
    // later user's staged miss at no more than half the pre-lease cost
    // (two middleware hops + provider fetch + the per-user tag stage).
    let pre_lease_micros = 600 + params.fetch_micros + params.tag_micros;
    let on = results
        .iter()
        .find(|r| r.stage_cache)
        .expect("staged run present");
    assert!(
        on.later_user_mean_micros * 2 <= pre_lease_micros,
        "later-user staged read {} us regressed past half the pre-lease path {} us",
        on.later_user_mean_micros,
        pre_lease_micros
    );
    println!(
        "later-user gate: {} us <= {} us / 2 (plan lease + verified root, ok)",
        on.later_user_mean_micros, pre_lease_micros
    );

    // Zero-copy probe: a pass-through chain over a 4 MiB body must hand
    // the same refcounted slice through every stage — no materialization.
    let probe = stage::streaming_passthrough_probe(4 << 20, 3);
    assert!(
        probe.zero_copy,
        "pass-through chain materialized a copy of the body"
    );
    println!(
        "zero-copy probe: {} MiB through {} identity stages, output is the input slice",
        probe.body_bytes >> 20,
        probe.chain
    );

    // Big-document smoke: a 4 MiB live-feed frame through a three-stage
    // chain (uncacheable, nothing retained; asserts internally).
    let smoke = stage::big_doc_smoke(4 << 20);
    println!(
        "big-doc smoke: {} MiB live frame + 3 stages, {} uncacheable reads, {} bytes resident\n",
        smoke.frame_bytes >> 20,
        smoke.uncacheable_reads,
        smoke.resident_bytes
    );

    Some(stage::report(params, &results))
}

fn run_fault() -> Option<Report> {
    println!("== E-FAULT: read availability across a scripted origin outage ==\n");
    let params = fault::FaultParams::default();
    println!(
        "outage: [{:.1}s, {:.1}s) of a {:.1}s timeline, {} docs, {} reads\n",
        params.outage_from as f64 / 1e6,
        params.outage_until as f64 / 1e6,
        (params.reads * params.read_gap_micros) as f64 / 1e6,
        params.docs,
        params.reads
    );
    println!(
        "{:<15} {:>12} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "mode", "availability", "failed", "retries", "trips", "stale", "misses"
    );
    for r in fault::sweep(params) {
        println!(
            "{:<15} {:>11.1}% {:>8} {:>8} {:>8} {:>8} {:>8}",
            r.mode.label(),
            r.availability() * 100.0,
            r.failed,
            r.stats.retries,
            r.stats.breaker_trips,
            r.stats.stale_served,
            r.stats.misses
        );
    }
    println!();
    None
}

fn run_revalidation() -> Option<Report> {
    println!("== E-REVAL: web consistency — TTL vs conditional GET (200 reads, 60 s TTL) ==\n");
    println!(
        "{:<10} {:>12} {:>12} {:>10}",
        "edit rate", "mode", "read ms", "stale %"
    );
    for r in revalidation::sweep(200, &[0.0, 0.05, 0.2, 0.5], 77) {
        println!(
            "{:<10} {:>12} {:>12.3} {:>10.1}",
            r.edit_rate,
            r.mode.label(),
            r.mean_read_micros as f64 / 1_000.0,
            r.stale_frac * 100.0
        );
    }
    println!("\n(the TTL scheme serves stale pages for the whole window after an origin");
    println!(" edit; the revalidating verifier never does, at one RTT per hit)\n");
    None
}

fn run_placement() -> Option<Report> {
    println!("== E-PLACE: cache placement (8 KiB doc, 30 ms origin, 50 reads) ==\n");
    println!(
        "{:<14} {:>14} {:>14}",
        "placement", "mean read ms", "mean hit ms"
    );
    for r in placement::sweep(50) {
        println!(
            "{:<14} {:>14.3} {:>14.3}",
            r.placement.label(),
            r.mean_read_micros as f64 / 1_000.0,
            r.mean_hit_micros as f64 / 1_000.0
        );
    }
    println!("\n(an application-level cache serves hits at function-call distance; a");
    println!(" server-co-located cache pays a LAN hop per hit but is shared)\n");
    None
}

fn run_collections() -> Option<Report> {
    println!("== E-COLL: collection prefetch (8 chapters behind a 40 ms store) ==\n");
    println!(
        "{:<10} {:>12} {:>14} {:>12} {:>8}",
        "prefetch", "first ms", "rest mean ms", "total ms", "misses"
    );
    for r in collections::sweep(8, &[0, 3, 16]) {
        println!(
            "{:<10} {:>12.2} {:>14.3} {:>12.2} {:>8}",
            r.prefetch_budget,
            r.first_access_micros as f64 / 1_000.0,
            r.rest_mean_micros as f64 / 1_000.0,
            r.total_micros as f64 / 1_000.0,
            r.misses
        );
    }
    println!("\n(the first miss absorbs the sibling fetches; the rest of the browse is local)\n");
    None
}

fn run_chain() -> Option<Report> {
    println!("== E-CHAIN: property-chain length vs read latency (2 ms/property) ==\n");
    println!(
        "{:<8} {:>12} {:>10} {:>16}",
        "chain", "no cache ms", "hit ms", "reported cost ms"
    );
    for r in chain::sweep(&[0, 1, 2, 4, 8, 16, 32], 2_000) {
        println!(
            "{:<8} {:>12.2} {:>10.3} {:>16.2}",
            r.chain,
            r.no_cache_micros as f64 / 1_000.0,
            r.hit_micros as f64 / 1_000.0,
            r.reported_cost_micros / 1_000.0
        );
    }
    println!("\n(no-cache latency grows with the chain; hits stay flat — caching hides");
    println!(" active-property execution, the paper's core motivation)\n");
    None
}

fn run_table1() -> Option<Report> {
    println!("== Table 1: document content access times (simulated ms) ==");
    println!("   (paper: parcweb 1,915 B local; two remote sites 10,883 B / 1,104 B;");
    println!("    shape to match: hit << no-cache, miss ~ no-cache + small overhead)\n");
    let rows = table1::run(25);
    println!(
        "{:<24} {:>8} {:>10} {:>12} {:>10}",
        "original source", "size", "no cache", "cache miss", "cache hit"
    );
    for r in &rows {
        println!(
            "{:<24} {:>8} {:>10.2} {:>12.2} {:>10.3}",
            r.origin,
            r.size,
            r.no_cache_micros as f64 / 1_000.0,
            r.miss_micros as f64 / 1_000.0,
            r.hit_micros as f64 / 1_000.0
        );
    }
    println!(
        "\nshape holds (hit<<no-cache, miss overhead small, remote>>local): {}\n",
        table1::shape_holds(&rows)
    );
    None
}

fn run_nv() -> Option<Report> {
    println!("== E-NV: notifier vs verifier trade-off (500 reads, tick every 10) ==\n");
    println!(
        "{:<8} {:>10} {:>12} {:>10} {:>12} {:>10}",
        "change", "mechanism", "read ms", "stale %", "consist.ops", "hit %"
    );
    for r in nv::sweep(500, &[0.0, 0.01, 0.05, 0.2, 0.5], 10, 1999) {
        println!(
            "{:<8} {:>10} {:>12.3} {:>10.1} {:>12} {:>10.1}",
            r.change_rate,
            r.mechanism.label(),
            r.mean_read_micros as f64 / 1_000.0,
            r.stale_frac * 100.0,
            r.consistency_ops,
            r.hit_rate * 100.0
        );
    }
    println!("\n(verifier: zero staleness, pays probes on every hit; notifier: stale");
    println!(" between change and tick, pays timer + delivery load middleware-side)\n");
    None
}

fn run_replacement() -> Option<Report> {
    println!("== E-RP: replacement policies (300 docs, 5000 Zipf(0.8) reads) ==\n");
    let params = replacement::ReplacementParams::default();
    println!(
        "{:<10} {:>8} {:>8} {:>12} {:>10}",
        "capacity", "policy", "hit %", "mean ms", "evictions"
    );
    for frac in [0.02, 0.08, 0.32] {
        for r in replacement::sweep(&ALL_POLICIES, &[frac], params) {
            println!(
                "{:<10} {:>8} {:>8.1} {:>12.2} {:>10}",
                format!("{:.0}%", frac * 100.0),
                r.policy,
                r.hit_rate * 100.0,
                r.mean_access_micros as f64 / 1_000.0,
                r.evictions
            );
        }
        println!();
    }
    println!("(gds should win mean latency by keeping expensive property chains resident)\n");
    None
}

fn run_sharing() -> Option<Report> {
    println!("== E-SH: content-signature sharing (16 users x 20 docs) ==\n");
    println!(
        "{:<16} {:>14} {:>14} {:>10} {:>12}",
        "identical users", "physical KB", "logical KB", "ratio", "shared fills"
    );
    for r in sharing::sweep(16, 20, &[0.0, 0.25, 0.5, 0.75, 1.0]) {
        println!(
            "{:<16} {:>14.1} {:>14.1} {:>10.2} {:>12}",
            format!("{:.0}%", r.identical_frac * 100.0),
            r.physical_bytes as f64 / 1_024.0,
            r.logical_bytes as f64 / 1_024.0,
            r.savings_ratio(),
            r.shared_fills
        );
    }
    println!("\n(identical property chains store bytes once; per-user transforms cannot)\n");
    None
}

fn run_consistency() -> Option<Report> {
    println!("== E-CH: the four invalidation causes ==\n");
    for r in consistency::run() {
        println!(
            "  [{}] {:<44} caught by {}",
            if r.consistent { "PASS" } else { "FAIL" },
            r.cause,
            r.mechanism
        );
    }
    println!();
    None
}

fn run_qos() -> Option<Report> {
    println!("== E-QoS: QoS cost inflation (200 docs, 10% tagged, uniform reads) ==\n");
    println!(
        "{:<8} {:>14} {:>14} {:>12}",
        "policy", "QoS hit %", "plain hit %", "advantage"
    );
    for policy in ["gdsf", "gds", "gd1", "lru"] {
        let r = qos::run_one(policy, 200, 4_000, 3);
        println!(
            "{:<8} {:>14.1} {:>14.1} {:>12.1}",
            r.policy,
            r.qos_hit_rate * 100.0,
            r.plain_hit_rate * 100.0,
            r.advantage() * 100.0
        );
    }
    println!("\n(only the cost-aware policy honors the QoS inflation)\n");
    None
}
