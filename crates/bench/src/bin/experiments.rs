//! Prints the paper's evaluation tables (and the future-work ablations)
//! from the simulated substrate.
//!
//! ```text
//! cargo run -p placeless-bench --bin experiments            # everything
//! cargo run -p placeless-bench --bin experiments -- table1  # one experiment
//! ```
//!
//! Experiments: `table1`, `notifier-verifier`, `replacement`, `sharing`,
//! `consistency`, `qos`, `collections`, `chain`, `placement`,
//! `revalidation`, `scale`, `fault`, `stage`, `crash`, `load`, `merge`,
//! `overload`.
//!
//! The `stage`, `crash`, `load`, `merge`, and `overload` experiments
//! additionally write `BENCH_stage.json` / `BENCH_crash.json` /
//! `BENCH_load.json` / `BENCH_merge.json` / `BENCH_overload.json` next to
//! the working directory so their numbers are machine-readable run over
//! run. The `load` experiment honours `E_LOAD_USERS` / `E_LOAD_DOCS` /
//! `E_LOAD_OPS` / `E_LOAD_THREADS` overrides (and `E_LOAD_WMIX_WRITES` /
//! `E_LOAD_WMIX_DOCS` / `E_LOAD_WMIX_FLUSH_EVERY` for the write-mix flush
//! smoke); the `overload` experiment honours `E_OVERLOAD_THREADS` /
//! `E_OVERLOAD_EVENTS` / `E_OVERLOAD_INTENSITY` /
//! `E_OVERLOAD_WALL_MICROS` for reduced CI smokes.

use placeless_bench::{
    chain, collections, consistency, crash, fault, load, merge, nv, overload, placement, qos,
    replacement, revalidation, scale, sharing, stage, table1,
};
use placeless_cache::ALL_POLICIES;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty();
    let want = |name: &str| all || args.iter().any(|a| a == name);

    if want("table1") {
        run_table1();
    }
    if want("notifier-verifier") {
        run_nv();
    }
    if want("replacement") {
        run_replacement();
    }
    if want("sharing") {
        run_sharing();
    }
    if want("consistency") {
        run_consistency();
    }
    if want("qos") {
        run_qos();
    }
    if want("collections") {
        run_collections();
    }
    if want("chain") {
        run_chain();
    }
    if want("placement") {
        run_placement();
    }
    if want("revalidation") {
        run_revalidation();
    }
    if want("scale") {
        run_scale();
    }
    if want("fault") {
        run_fault();
    }
    if want("stage") {
        run_stage();
    }
    if want("crash") {
        run_crash();
    }
    if want("load") {
        run_load();
    }
    if want("merge") {
        run_merge();
    }
    if want("overload") {
        run_overload();
    }
}

fn run_merge() {
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

    let json = merge_json(params, &results);
    match std::fs::write("BENCH_merge.json", &json) {
        Ok(()) => println!("wrote BENCH_merge.json\n"),
        Err(e) => eprintln!("could not write BENCH_merge.json: {e}\n"),
    }
}

/// Hand-formats the E-MERGE results as JSON (no serde in the tree).
fn merge_json(params: merge::MergeParams, results: &[merge::MergeResult]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"merge\",\n");
    out.push_str(&format!(
        "  \"params\": {{\"edits_phase1\": {}, \"edits_phase2\": {}, \
         \"edit_gap_micros\": {}, \"partition_from\": {}, \"partition_until\": {}, \
         \"torn_tail_bytes\": {}, \"seed\": {}}},\n",
        params.edits_phase1,
        params.edits_phase2,
        params.edit_gap_micros,
        params.partition_from,
        params.partition_until,
        params.torn_tail_bytes,
        params.seed
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"acknowledged\": {}, \"lost\": {}, \
             \"conflicts_merged\": {}, \"merge_rebases\": {}, \"replayed\": {}}}{}\n",
            r.mode.label(),
            r.acknowledged,
            r.lost,
            r.conflicts_merged,
            r.merge_rebases,
            r.replayed,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_overload() {
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
                "unprotected (overload: None)"
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

    let json = overload_json(params, &cells);
    match std::fs::write("BENCH_overload.json", &json) {
        Ok(()) => println!("wrote BENCH_overload.json\n"),
        Err(e) => eprintln!("could not write BENCH_overload.json: {e}\n"),
    }
}

/// Hand-formats the E-OVERLOAD results as JSON (no serde in the tree).
fn overload_json(params: overload::OverloadParams, cells: &[overload::CellResult]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"overload\",\n");
    out.push_str(&format!(
        "  \"params\": {{\"base_threads\": {}, \"sat_events\": {}, \"burst_events\": {}, \
         \"recover_events\": {}, \"burst_intensity\": {}, \"service_virtual_micros\": {}, \
         \"service_wall_micros\": {}, \"deadline_micros\": {}, \"slo_micros\": {}, \
         \"seed\": {}}},\n",
        params.base_threads,
        params.sat_events,
        params.burst_events,
        params.recover_events,
        params.burst_intensity,
        params.service_virtual_micros,
        params.service_wall_micros,
        params.deadline_micros,
        params.slo_micros,
        params.seed
    ));
    out.push_str("  \"cells\": [\n");
    for (i, cell) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"protected\": {}, \"retained\": {:.4},\n",
            cell.protected,
            cell.retained()
        ));
        out.push_str(&format!(
            "     \"sheds_foreground\": {}, \"sheds_refresh\": {}, \"sheds_prefetch\": {}, \
             \"brownout_shifts\": {},\n",
            cell.stats.sheds_foreground,
            cell.stats.sheds_refresh,
            cell.stats.sheds_prefetch,
            cell.stats.brownout_shifts
        ));
        out.push_str("     \"phases\": [\n");
        for (j, p) in cell.phases.iter().enumerate() {
            out.push_str(&format!(
                "      {{\"name\": \"{}\", \"intensity\": {}, \"offered\": {}, \
                 \"admitted\": {}, \"shed\": {}, \"on_time\": {}, \
                 \"p99_virtual_micros\": {}, \"goodput_per_virtual_sec\": {:.2}}}{}\n",
                p.name,
                p.intensity,
                p.offered,
                p.admitted,
                p.shed,
                p.on_time,
                p.p99_virtual_micros,
                p.goodput(),
                if j + 1 == cell.phases.len() { "" } else { "," }
            ));
        }
        out.push_str(&format!(
            "     ]}}{}\n",
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_load() {
    let params = load::LoadParams::default().from_env();
    println!(
        "== E-LOAD: trace-driven load ({} users, {} docs, {} threads x {} ops, {:.0}% writes) ==\n",
        params.users,
        params.documents,
        params.threads,
        params.ops_per_thread,
        params.write_fraction * 100.0
    );
    println!(
        "{:<8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>8} {:>9} {:>10} {:>9} {:>9}",
        "shards",
        "reads/sec",
        "p50 us",
        "p99 us",
        "w p50 us",
        "w p99 us",
        "hit %",
        "partial",
        "coalesced",
        "stale",
        "peak"
    );
    let results = load::sweep(16, params);
    for r in &results {
        println!(
            "{:<8} {:>12.0} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>8.1} {:>9} {:>10} {:>9} {:>9}",
            r.shards,
            r.reads_per_sec(),
            r.p50_nanos as f64 / 1_000.0,
            r.p99_nanos as f64 / 1_000.0,
            r.write_p50_nanos as f64 / 1_000.0,
            r.write_p99_nanos as f64 / 1_000.0,
            r.hit_frac() * 100.0,
            r.class(load::HitClass::PartialHit),
            r.class(load::HitClass::CoalescedWait),
            r.class(load::HitClass::StaleServed),
            r.stats.inflight_peak
        );
    }
    println!("\n(the single-shard row is the global-lock design; the sharded cache must");
    println!(" sustain more reads/sec under the same trace — on a single-CPU host the");
    println!(" rows show parity instead)\n");

    let probe = load::coalesce_probe(params.threads.max(2));
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

    let json = load_json(params, &results, probe, wmix_params, &wmix);
    match std::fs::write("BENCH_load.json", &json) {
        Ok(()) => println!("wrote BENCH_load.json\n"),
        Err(e) => eprintln!("could not write BENCH_load.json: {e}\n"),
    }
}

/// Hand-formats the E-LOAD results as JSON (no serde in the tree).
fn load_json(
    params: load::LoadParams,
    results: &[load::LoadResult],
    probe: load::CoalesceReport,
    wmix_params: load::WriteMixParams,
    wmix: &[load::WriteMixResult],
) -> String {
    let mut out = String::from("{\n  \"experiment\": \"load\",\n");
    out.push_str(&format!(
        "  \"params\": {{\"users\": {}, \"documents\": {}, \"doc_bytes\": {}, \
         \"doc_theta\": {}, \"user_theta\": {}, \"locality\": {}, \"working_set\": {}, \
         \"write_fraction\": {}, \"base_chain\": {}, \"threads\": {}, \
         \"ops_per_thread\": {}, \"seed\": {}}},\n",
        params.users,
        params.documents,
        params.doc_bytes,
        params.doc_theta,
        params.user_theta,
        params.locality,
        params.working_set,
        params.write_fraction,
        params.base_chain,
        params.threads,
        params.ops_per_thread,
        params.seed
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"shards\": {}, \"threads\": {}, \"reads\": {}, \"writes\": {}, \
             \"write_errors\": {}, \"wall_micros\": {}, \"reads_per_sec\": {:.0}, \
             \"p50_nanos\": {}, \"p99_nanos\": {}, \"write_p50_nanos\": {}, \
             \"write_p99_nanos\": {}, \"hits\": {}, \"partial_hits\": {}, \
             \"misses\": {}, \"coalesced_waits\": {}, \"stale_served\": {}, \
             \"stage_hits\": {}, \"inflight_peak\": {}}}{}\n",
            r.shards,
            r.threads,
            r.reads,
            r.writes,
            r.write_errors,
            r.wall_micros,
            r.reads_per_sec(),
            r.p50_nanos,
            r.p99_nanos,
            r.write_p50_nanos,
            r.write_p99_nanos,
            r.class(load::HitClass::Hit),
            r.class(load::HitClass::PartialHit),
            r.class(load::HitClass::Miss),
            r.class(load::HitClass::CoalescedWait),
            r.class(load::HitClass::StaleServed),
            r.stats.stage_hits,
            r.stats.inflight_peak,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"probe\": {{\"threads\": {}, \"provider_fetches\": {}, \
         \"coalesced_waits\": {}, \"identical\": {}, \"inflight_peak\": {}}},\n",
        probe.threads,
        probe.provider_fetches,
        probe.coalesced_waits,
        probe.identical,
        probe.inflight_peak
    ));
    out.push_str("  \"write_mix\": {\n");
    out.push_str(&format!(
        "    \"params\": {{\"users\": {}, \"documents\": {}, \"writes\": {}, \
         \"flush_every\": {}, \"doc_theta\": {}, \"user_theta\": {}, \"seed\": {}}},\n",
        wmix_params.users,
        wmix_params.documents,
        wmix_params.writes,
        wmix_params.flush_every,
        wmix_params.doc_theta,
        wmix_params.user_theta,
        wmix_params.seed
    ));
    out.push_str("    \"runs\": [\n");
    for (i, r) in wmix.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"flush_every\": {}, \"entries_flushed\": {}, \"flush_calls\": {}, \
             \"flush_batches\": {}, \"origin_ops\": {}, \
             \"ops_per_entry\": {:.4}, \"flush_micros\": {}}}{}\n",
            r.flush_every,
            r.entries_flushed,
            r.flush_calls,
            r.flush_batches,
            r.origin_ops,
            r.ops_per_entry(),
            r.flush_micros,
            if i + 1 == wmix.len() { "" } else { "," }
        ));
    }
    out.push_str("    ],\n");
    let amortization = if wmix.len() == 2 {
        wmix[0].ops_per_entry() / wmix[1].ops_per_entry()
    } else {
        0.0
    };
    out.push_str(&format!(
        "    \"round_trip_amortization\": {amortization:.4}\n  }}\n"
    ));
    out.push_str("}\n");
    out
}

fn run_crash() {
    let params = crash::CrashParams::default();
    println!("== E-CRASH: acknowledged-write durability across a scripted crash ==\n");
    println!(
        "crash at {:.1}s of a {:.1}s write timeline, {} docs, {} writes, flush every {}\n",
        params.crash_at_micros as f64 / 1e6,
        (params.writes * params.write_gap_micros) as f64 / 1e6,
        params.docs,
        params.writes,
        params.flush_every
    );
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "mode", "acked", "pre-flush", "lost docs", "replayed", "torn B", "flushes"
    );
    let results = crash::sweep(params);
    for r in &results {
        println!(
            "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}",
            r.label(),
            r.acknowledged,
            r.flushed_before_crash,
            r.lost_docs,
            r.replayed,
            r.torn_bytes,
            r.stats.flushes
        );
    }
    println!("\n(the journal replays every acknowledged-but-unflushed write across the");
    println!(" crash — zero loss; the torn in-flight append was never acknowledged)\n");

    let json = crash_json(params, &results);
    match std::fs::write("BENCH_crash.json", &json) {
        Ok(()) => println!("wrote BENCH_crash.json\n"),
        Err(e) => eprintln!("could not write BENCH_crash.json: {e}\n"),
    }
}

/// Hand-formats the E-CRASH results as JSON (no serde in the tree).
fn crash_json(params: crash::CrashParams, results: &[crash::CrashResult]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"crash\",\n");
    out.push_str(&format!(
        "  \"params\": {{\"docs\": {}, \"writes\": {}, \"write_gap_micros\": {}, \
         \"flush_every\": {}, \"crash_at_micros\": {}, \"torn_tail_bytes\": {}, \
         \"seed\": {}}},\n",
        params.docs,
        params.writes,
        params.write_gap_micros,
        params.flush_every,
        params.crash_at_micros,
        params.torn_tail_bytes,
        params.seed
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"journaled\": {}, \"acknowledged\": {}, \"flushed_before_crash\": {}, \
             \"lost_docs\": {}, \"replayed\": {}, \"torn_bytes\": {}, \
             \"journal_appends\": {}, \"journal_replays\": {}, \"writes_parked\": {}, \
             \"flush_retries\": {}, \"write_conflicts\": {}, \"flushes\": {}}}{}\n",
            r.journaled,
            r.acknowledged,
            r.flushed_before_crash,
            r.lost_docs,
            r.replayed,
            r.torn_bytes,
            r.stats.journal_appends,
            r.stats.journal_replays,
            r.stats.writes_parked,
            r.stats.flush_retries,
            r.stats.write_conflicts,
            r.stats.flushes,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_stage() {
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
        "zero-copy probe: {} MiB through {} identity stages, {:.3} ns/byte, output is the input slice",
        probe.body_bytes >> 20,
        probe.chain,
        probe.ns_per_byte
    );

    // Big-document smoke: a 4 MiB live-feed frame through a three-stage
    // chain (uncacheable, nothing retained; asserts internally).
    let smoke = stage::big_doc_smoke(4 << 20);
    println!(
        "big-doc smoke: {} MiB live frame + 3 stages, {} uncacheable reads, {} bytes resident, {:.3} ns/byte\n",
        smoke.frame_bytes >> 20,
        smoke.uncacheable_reads,
        smoke.resident_bytes,
        smoke.ns_per_byte
    );

    let json = stage_json(params, &results);
    match std::fs::write("BENCH_stage.json", &json) {
        Ok(()) => println!("wrote BENCH_stage.json\n"),
        Err(e) => eprintln!("could not write BENCH_stage.json: {e}\n"),
    }
}

/// Hand-formats the E-STAGE results as JSON (no serde in the tree).
fn stage_json(params: stage::StageParams, results: &[stage::StageResult]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"stage\",\n");
    out.push_str(&format!(
        "  \"params\": {{\"users\": {}, \"base_chain\": {}, \"body_bytes\": {}, \
         \"per_stage_micros\": {}, \"tag_micros\": {}, \"fetch_micros\": {}}},\n",
        params.users,
        params.base_chain,
        params.body_bytes,
        params.per_stage_micros,
        params.tag_micros,
        params.fetch_micros
    ));
    out.push_str("  \"runs\": [\n");
    for (i, r) in results.iter().enumerate() {
        let reads = r.stats.hits + r.stats.misses;
        out.push_str(&format!(
            "    {{\"stage_cache\": {}, \"first_user_micros\": {}, \
             \"later_user_mean_micros\": {}, \"repeat_hit_micros\": {}, \
             \"mean_read_micros\": {:.1}, \"stage_hits\": {}, \
             \"stage_partial_hits\": {}, \"stage_hit_rate\": {:.4}, \
             \"stage_entries\": {}, \"stage_bytes\": {}, \
             \"physical_bytes\": {}, \"logical_bytes\": {}}}{}\n",
            r.stage_cache,
            r.first_user_micros,
            r.later_user_mean_micros,
            r.repeat_hit_micros,
            (r.stats.hit_micros + r.stats.miss_micros) as f64 / reads.max(1) as f64,
            r.stats.stage_hits,
            r.stats.stage_partial_hits,
            if r.stats.misses == 0 {
                0.0
            } else {
                r.stats.stage_partial_hits as f64 / r.stats.misses as f64
            },
            r.stage_entries,
            r.stats.stage_bytes,
            r.physical_bytes,
            r.logical_bytes,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn run_fault() {
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
}

fn run_scale() {
    println!("== E-SCALE: sharded-cache read throughput (wall clock, Zipf(0.9) reads) ==\n");
    println!(
        "{:<8} {:<8} {:>14} {:>10} {:>10}",
        "threads", "shards", "reads/sec", "hit %", "speedup"
    );
    let params = scale::ScaleParams::default();
    let shards = 16;
    for &threads in &[1usize, 2, 4, 8, 16] {
        let single = scale::run_one(threads, 1, params);
        let sharded = scale::run_one(threads, shards, params);
        for r in [&single, &sharded] {
            println!(
                "{:<8} {:<8} {:>14.0} {:>10.1} {:>10}",
                r.threads,
                r.shards,
                r.ops_per_sec(),
                r.hit_rate * 100.0,
                if r.shards == 1 {
                    "1.00x".to_string()
                } else {
                    format!("{:.2}x", r.ops_per_sec() / single.ops_per_sec())
                }
            );
        }
        println!();
    }
    println!("(the single-shard rows are the old global-lock design; shards should");
    println!(" scale read throughput with threads while the hit rate stays put —");
    println!(" a single-CPU host will show parity instead of speedup)\n");
}

fn run_revalidation() {
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
}

fn run_placement() {
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
}

fn run_collections() {
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
}

fn run_chain() {
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
}

fn run_table1() {
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
}

fn run_nv() {
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
}

fn run_replacement() {
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
}

fn run_sharing() {
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
}

fn run_consistency() {
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
}

fn run_qos() {
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
}
