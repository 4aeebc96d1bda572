//! The metric tables: every name the benchmark prints, with its unit,
//! its direction and (end to end) the bound by which it may worsen.
//! `BENCHMARK.json` is generated from these tables (`--manifest`), and
//! `--smoke` checks the two still agree.

use crate::json::quote;
use crate::workload::WORKLOADS;

/// How long one contract run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Allowed worsening as a share of the parent's median; end-to-end
    /// metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the cache sees, measured with tracing off. Every
/// workload reports all of them and none can be zero; the end-to-end
/// quantities that exist on some workloads only (writes, flush, recovery,
/// origin fetches) are listed with the layers instead.
///
/// The bounds are what the reference box (2 vCPUs of a shared host)
/// requires: between ten runs of one commit the interquartile range of a
/// timing was 2-10 % of its median in quiet periods and up to 22 % in
/// busy ones (see README.md), and a bound the spread exceeds gets the
/// benchmark itself refused.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("read_p50_us", "us", Lower, 0.25),
    e2e("read_p99_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.20),
];

/// Single-layer metrics from the traced run, `<layer>.<metric>`, plus the
/// workload-specific end-to-end quantities (unprefixed; taken from the
/// traced run's untraced rep).
pub const PER_LAYER: [MetricDef; 65] = [
    layer("write_p50_us", "us", Lower),
    layer("write_p99_us", "us", Lower),
    layer("flush_us_per_entry", "us", Lower),
    layer("recover_ms", "ms", Lower),
    layer("origin_fetches_per_kread", "count", Lower),
    layer("failed_ops_frac", "frac", Lower),
    layer("cache.manager.read_hit_ns_p50", "ns", Lower),
    layer("cache.manager.read_hit_ns_p99", "ns", Lower),
    layer("cache.manager.read_partial_ns_p50", "ns", Lower),
    layer("cache.manager.read_partial_ns_p99", "ns", Lower),
    layer("cache.manager.read_miss_ns_p50", "ns", Lower),
    layer("cache.manager.read_miss_ns_p99", "ns", Lower),
    layer("cache.manager.hit_frac", "frac", Higher),
    layer("cache.manager.partial_frac", "frac", Higher),
    layer("cache.manager.miss_frac", "frac", Lower),
    layer("cache.manager.coalesced_frac", "frac", Higher),
    layer("cache.manager.self_ns_per_read", "ns", Lower),
    layer("cache.manager.write_ns_p50", "ns", Lower),
    layer("cache.manager.write_op_ns_p50", "ns", Lower),
    layer("cache.manager.flush_ms_p50", "ms", Lower),
    layer("cache.manager.flush_ms_max", "ms", Lower),
    layer("cache.manager.bus_invalidate_doc_us_p50", "us", Lower),
    layer("cache.manager.resident_entries", "count", Higher),
    layer("cache.manager.stage_entries", "count", Higher),
    layer("cache.manager.scaling_eff", "frac", Higher),
    layer("cache.policy.on_hit_ns_mean", "ns", Lower),
    layer("cache.policy.on_insert_ns_mean", "ns", Lower),
    layer("cache.policy.evict_ns_mean", "ns", Lower),
    layer("cache.policy.evictions_per_read", "count", Lower),
    layer("cache.policy.busy_share", "frac", Lower),
    layer("cache.store.try_acquire_ns", "ns", Lower),
    layer("cache.store.get_ns", "ns", Lower),
    layer("cache.store.release_ns", "ns", Lower),
    layer("cache.store.dedup_ratio", "ratio", Higher),
    layer("cache.store.shared_fills", "count", Higher),
    layer("cache.journal.append_ns_mean", "ns", Lower),
    layer("cache.journal.ack_batch_us_mean", "us", Lower),
    layer("cache.journal.bytes_written_per_user_byte", "ratio", Lower),
    layer("cache.journal.rewrites_per_flush", "count", Lower),
    layer("cache.singleflight.coalesced_waits", "count", Higher),
    layer("cache.singleflight.inflight_peak", "count", Lower),
    layer("core.space.read_document_us_p50", "us", Lower),
    layer("core.space.read_plan_cached_ns_p50", "ns", Lower),
    layer("core.space.read_plan_ns_p50", "ns", Lower),
    layer("core.space.write_documents_us_per_entry", "us", Lower),
    layer("core.space.ops_per_read", "count", Lower),
    layer("core.space.ops_per_flushed_entry", "count", Lower),
    layer("core.plan.stage_execute_ns_per_kib", "ns/KiB", Lower),
    layer("core.plan.stages_run_per_read", "count", Lower),
    layer("core.plan.stage_hits_per_read", "count", Higher),
    layer("core.digest.md5_mib_per_s", "MiB/s", Higher),
    layer("core.verifier.check_ns_mean", "ns", Lower),
    layer("core.verifier.checks_per_read", "count", Lower),
    layer("core.verifier.invalid_frac", "frac", Lower),
    layer("core.bitprovider.fetch_ns_mean", "ns", Lower),
    layer("core.bitprovider.fetches", "count", Lower),
    layer("core.bitprovider.write_ns_mean", "ns", Lower),
    layer("core.bitprovider.writes", "count", Lower),
    layer("properties.rot13_ns_per_kib", "ns/KiB", Lower),
    layer("properties.translate_ns_per_kib", "ns/KiB", Lower),
    layer("proplang.script_ns_per_kib", "ns/KiB", Lower),
    layer("simenv.trace_next_event_ns", "ns", Lower),
    layer("simenv.clock_advance_ns", "ns", Lower),
    layer("trace.overhead_frac", "frac", Lower),
    layer("trace.root_coverage_frac", "frac", Higher),
];

/// One measured value. `samples` is set for percentiles and means: the
/// number of observations behind the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    pub samples: Option<u64>,
}

impl Reading {
    pub fn new(name: &'static str, value: f64) -> Self {
        Self {
            name,
            value,
            samples: None,
        }
    }

    pub fn of(name: &'static str, value: f64, samples: u64) -> Self {
        Self {
            name,
            value,
            samples: Some(samples),
        }
    }
}

/// Orders `readings` as `defs` lists them. A name `defs` lacks, a name
/// read twice, a missing name or a non-finite value is an error: the
/// table is the contract.
pub fn arrange(defs: &[MetricDef], readings: Vec<Reading>) -> Result<Vec<Reading>, String> {
    for reading in &readings {
        if !defs.iter().any(|def| def.name == reading.name) {
            return Err(format!("metric `{}` is not in the table", reading.name));
        }
        if !reading.value.is_finite() {
            return Err(format!("metric `{}` is {}", reading.name, reading.value));
        }
    }
    defs.iter()
        .map(|def| {
            let mut matching = readings.iter().filter(|r| r.name == def.name);
            match (matching.next(), matching.next()) {
                (Some(reading), None) => Ok(reading.clone()),
                (None, _) => Err(format!("metric `{}` was not measured", def.name)),
                (Some(_), Some(_)) => Err(format!("metric `{}` was measured twice", def.name)),
            }
        })
        .collect()
}

/// The `metrics` object of the contract's result line.
pub fn metrics_json(defs: &[MetricDef], readings: &[Reading]) -> String {
    let members: Vec<String> = defs
        .iter()
        .zip(readings)
        .map(|(def, reading)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(def.name),
                reading.value,
                quote(def.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// `BENCHMARK.json`, from the tables.
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.label()),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.label())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(
                (1..=16).contains(&def.unit.len())
                    && def
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                def.name,
                def.unit
            );
        }
        for def in &END_TO_END {
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn manifest_is_valid_json_with_exactly_the_contract_keys() {
        let text = manifest();
        assert!(text.len() < 64 * 1024);
        let Value::Object(members) = parse(&text).unwrap() else {
            panic!("manifest must be an object");
        };
        let keys: Vec<&str> = members.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(members["workloads"].as_array().len(), WORKLOADS.len());
        assert_eq!(members["per_layer"].as_array().len(), PER_LAYER.len());
        assert_eq!(members["end_to_end"].as_array().len(), END_TO_END.len());
    }

    #[test]
    fn arrange_enforces_the_table() {
        let defs = [layer("a", "ns", Lower), layer("b", "ns", Lower)];
        let ordered = arrange(&defs, vec![Reading::new("b", 2.0), Reading::new("a", 1.0)]).unwrap();
        assert_eq!(ordered[0].name, "a");
        assert!(arrange(&defs, vec![Reading::new("a", 1.0)]).is_err());
        assert!(arrange(
            &defs,
            vec![
                Reading::new("a", 1.0),
                Reading::new("a", 1.0),
                Reading::new("b", 2.0)
            ]
        )
        .is_err());
        assert!(arrange(
            &defs,
            vec![Reading::new("a", f64::NAN), Reading::new("b", 2.0)]
        )
        .is_err());
        assert!(arrange(&defs, vec![Reading::new("zz", 1.0)]).is_err());
    }
}
