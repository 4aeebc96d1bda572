//! The statistics of `scripts/pairs.sh`: the parent commit and a change
//! run the repo benchmark in alternating pairs, and this module judges
//! each end-to-end metric. It reads no clock; the script measures, this
//! only counts.
//!
//! For one workload and one metric, with `n` pairs:
//! - a pair is **won** when the change's value is better than the
//!   parent's (lower or higher, as `BENCHMARK.json` says);
//! - a **claim** is met when at least nine pairs in ten are won *and* the
//!   medians lie further apart than the parent's interquartile range;
//! - the change is **within bound** unless its median is worse than the
//!   parent's by more than the metric's `BENCHMARK.json` bound.
//!
//! An **A/A set** runs one build on both sides: whatever it claims, the
//! host claimed. Each run also carries its bill: the CPU seconds it used
//! and the host's parallel ceiling just before it ([`host_eff`]).

use crate::fields;
use crate::report::{Fields, Report, Value};
use placeless_core::digest::{md5, Signature};
use std::collections::BTreeMap;

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Parses `BENCHMARK.json`'s `"lower"` / `"higher"`.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    fn is_better(self, change: f64, parent: f64) -> bool {
        match self {
            Better::Lower => change < parent,
            Better::Higher => change > parent,
        }
    }
}

/// One end-to-end metric's runs: `parent[i]` and `change[i]` ran as pair
/// `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    pub workload: String,
    pub metric: String,
    pub better: Better,
    /// The fraction by which the change may be worse (`BENCHMARK.json`).
    pub bound: f64,
    pub parent: Vec<f64>,
    pub change: Vec<f64>,
}

/// What the pairs say about one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    pub parent_median: f64,
    pub change_median: f64,
    /// The parent's interquartile range.
    pub parent_iqr: f64,
    pub won: usize,
    pub pairs: usize,
    pub claim: bool,
    pub within_bound: bool,
}

/// The median of `xs` (the mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs`, interpolating linearly between order
/// statistics; `NaN` for no values.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else {
        return f64::NAN;
    };
    let at = q * last as f64;
    let (low, high) = (at.floor() as usize, at.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (at - low as f64)
}

impl Series {
    /// Judges the pairs: pairs won, the claim rule and the bound.
    pub fn verdict(&self) -> Verdict {
        let pairs = self.parent.len().min(self.change.len());
        let won = (0..pairs)
            .filter(|&i| self.better.is_better(self.change[i], self.parent[i]))
            .count();
        let (parent_median, change_median) = (median(&self.parent), median(&self.change));
        let parent_iqr = quantile(&self.parent, 0.75) - quantile(&self.parent, 0.25);
        let apart = (change_median - parent_median).abs() > parent_iqr;
        let worse_by = match self.better {
            Better::Lower => change_median / parent_median - 1.0,
            Better::Higher => 1.0 - change_median / parent_median,
        };
        Verdict {
            parent_median,
            change_median,
            parent_iqr,
            won,
            pairs,
            claim: pairs > 0 && won * 10 >= pairs * 9 && apart,
            within_bound: worse_by <= self.bound,
        }
    }
}

/// The host's parallel ceiling: the wall time of [`md5_load`] on one
/// thread over its wall time on two, each thread doing the one thread's
/// work. 1.0 when the second thread ran beside the first unhindered, 0.5
/// when the two took turns on one core.
pub fn host_eff(one_thread_s: f64, two_threads_s: f64) -> f64 {
    one_thread_s / two_threads_s
}

/// The fixed kernel [`host_eff`] times: `threads` threads, each hashing a
/// private 1 MiB buffer `rounds` times, a round's digest seeding the next.
/// Returns each thread's last digest.
pub fn md5_load(threads: usize, rounds: usize) -> Vec<Signature> {
    std::thread::scope(|scope| {
        let hash = move |seed: u8| {
            let mut buffer = vec![seed; 1 << 20];
            let mut digest = md5(&buffer);
            for _ in 0..rounds {
                buffer[..16].copy_from_slice(&digest.0);
                digest = md5(&buffer);
            }
            digest
        };
        let workers: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || hash(t as u8)))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    })
}

/// What one run cost the host, beside its metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bill {
    /// The run's user plus system CPU seconds, its children's included.
    pub cpu_s: f64,
    /// [`host_eff`] measured just before the run.
    pub host_eff: f64,
}

/// What the runs of one pair set had beside their metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSet {
    pub parent_rev: String,
    pub change_rev: String,
    pub seconds: f64,
    /// One seed per pair; both trees ran each pair on its seed.
    pub seeds: Vec<u64>,
    /// `/proc/loadavg` before the first run and after the last.
    pub load_before: String,
    pub load_after: String,
    /// Runs that printed no result, did not say `correct: true`, or
    /// failed operations, as `rev workload seed`.
    pub faults: Vec<String>,
    /// Each run's bill by workload, side (0 the parent, 1 the change) and
    /// pair.
    pub bills: BTreeMap<(String, usize, usize), Bill>,
}

impl RunSet {
    /// One build ran on both sides (an A/A set): a claim is the host's,
    /// not the code's.
    pub fn aa(&self) -> bool {
        self.parent_rev == self.change_rev
    }

    /// The bills of `workload`'s runs on `side`, in pair order, as two
    /// lists: CPU seconds and `host_eff`.
    fn bills(&self, workload: &str, side: usize) -> Fields {
        let runs = self
            .bills
            .iter()
            .filter(|((w, s, _), _)| w == workload && *s == side);
        let bills: Vec<&Bill> = runs.map(|(_, bill)| bill).collect();
        let list =
            |pick: fn(&Bill) -> f64| floats(&bills.iter().map(|b| pick(b)).collect::<Vec<_>>());
        fields! { "cpu_s": list(|b| b.cpu_s), "host_eff": list(|b| b.host_eff) }
    }
}

/// The `BENCH_wall.json` artifact of one pair set: two rows per workload
/// (the parent's and the change's, with every run's value and bill), the
/// change's row carrying the verdicts. An A/A set's rows are both `role:
/// aa`, told apart by `side`, and its `claim` is what the rule would have
/// claimed.
pub fn report(set: &RunSet, series: &[Series]) -> Report {
    let mut workloads: Vec<&str> = series.iter().map(|s| s.workload.as_str()).collect();
    workloads.dedup();
    let mut rows = Vec::new();
    for workload in workloads {
        let of = || series.iter().filter(move |s| s.workload == workload);
        let values = |pick: fn(&Series) -> &Vec<f64>| -> Fields {
            of().map(|s| (s.metric.clone(), floats(pick(s)))).collect()
        };
        let verdicts = |field: fn(&Verdict) -> Value| -> Fields {
            of().map(|s| (s.metric.clone(), field(&s.verdict())))
                .collect()
        };
        let role = |role: &'static str| if set.aa() { "aa" } else { role };
        let mut parent = fields! {
            "rev": set.parent_rev.as_str(),
            "role": role("parent"),
            "workload": workload,
        };
        let mut change = fields! {
            "rev": set.change_rev.as_str(),
            "role": role("change"),
            "workload": workload,
            "against": set.parent_rev.as_str(),
        };
        if set.aa() {
            parent.extend(fields! { "side": "parent" });
            change.extend(fields! { "side": "change" });
        }
        parent.extend(fields! { "values": values(|s| &s.parent) });
        parent.extend(set.bills(workload, 0));
        change.extend(fields! {
            "values": values(|s| &s.change),
            "ratio": verdicts(|v| Value::Float(v.change_median / v.parent_median, 4)),
            "parent_iqr_frac": verdicts(|v| Value::Float(v.parent_iqr / v.parent_median, 4)),
            "won": verdicts(|v| Value::Int(v.won as u64)),
            "claim": verdicts(|v| Value::Bool(v.claim)),
            "within_bound": verdicts(|v| Value::Bool(v.within_bound)),
        });
        change.extend(set.bills(workload, 1));
        rows.extend([Value::Map(parent), Value::Map(change)]);
    }
    let seeds = Value::List(set.seeds.iter().map(|&s| Value::Int(s)).collect());
    let faults = Value::List(set.faults.iter().map(|f| Value::from(f.as_str())).collect());
    Report {
        experiment: "wall",
        deterministic: false,
        clock: "wall",
        params: fields! {
            "parent": set.parent_rev.as_str(),
            "change": set.change_rev.as_str(),
            "aa": set.aa(),
            "pairs": set.seeds.len(),
            "seconds": Value::Float(set.seconds, 1),
            "seeds": seeds,
            "load_before": set.load_before.as_str(),
            "load_after": set.load_after.as_str(),
        },
        body: fields! { "faults": faults, "rows": Value::List(rows) },
    }
}

fn floats(xs: &[f64]) -> Value {
    Value::List(xs.iter().map(|&x| Value::Float(x, 4)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(better: Better, parent: &[f64], change: &[f64]) -> Series {
        Series {
            workload: "hit_hot".into(),
            metric: "ops_per_s".into(),
            better,
            bound: 0.25,
            parent: parent.to_vec(),
            change: change.to_vec(),
        }
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn ten_of_ten_far_apart_is_a_claim() {
        let parent = [
            100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0,
        ];
        let change: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
        let verdict = series(Better::Higher, &parent, &change).verdict();
        assert_eq!((verdict.won, verdict.pairs), (10, 10));
        assert!(verdict.claim && verdict.within_bound);
    }

    #[test]
    fn nine_of_ten_inside_the_parents_spread_is_no_claim() {
        // The change wins nine pairs by a hair, but the parent's runs
        // spread over 90..110: the medians sit inside its quartiles.
        let parent = [
            90.0, 95.0, 100.0, 105.0, 110.0, 92.0, 97.0, 102.0, 107.0, 108.0,
        ];
        let mut change: Vec<f64> = parent.iter().map(|p| p + 0.5).collect();
        change[0] = 89.0;
        let verdict = series(Better::Higher, &parent, &change).verdict();
        assert_eq!(verdict.won, 9);
        assert!(verdict.parent_iqr > (verdict.change_median - verdict.parent_median).abs());
        assert!(!verdict.claim);
        assert!(verdict.within_bound);
    }

    #[test]
    fn eight_of_ten_is_no_claim_however_far() {
        let parent = [100.0; 10];
        let mut change = [50.0; 10];
        change[0] = 150.0;
        change[1] = 150.0;
        let verdict = series(Better::Lower, &parent, &change).verdict();
        assert_eq!(verdict.won, 8);
        assert!(!verdict.claim);
    }

    #[test]
    fn a_median_worse_than_the_bound_is_out_of_bound() {
        let parent = [100.0; 4];
        let slower = series(Better::Lower, &parent, &[126.0; 4]).verdict();
        assert!(!slower.within_bound);
        let fewer = series(Better::Higher, &parent, &[76.0; 4]).verdict();
        assert!(fewer.within_bound);
        let far_fewer = series(Better::Higher, &parent, &[74.0; 4]).verdict();
        assert!(!far_fewer.within_bound);
    }

    #[test]
    fn report_has_a_parent_and_a_change_row_per_workload() {
        let set = RunSet {
            parent_rev: "aaa".into(),
            change_rev: "bbb".into(),
            seconds: 8.0,
            seeds: vec![1, 2],
            load_before: "0.1".into(),
            load_after: "0.2".into(),
            faults: vec![],
            bills: BTreeMap::new(),
        };
        let mut other = series(Better::Lower, &[2.0, 2.0], &[1.0, 1.0]);
        other.metric = "read_p50_us".into();
        let report = report(
            &set,
            &[series(Better::Higher, &[1.0, 1.0], &[2.0, 2.0]), other],
        );
        let text = report.render();
        assert!(!set.aa());
        assert_eq!(text.matches("\"role\": \"parent\"").count(), 1);
        assert_eq!(text.matches("\"role\": \"change\"").count(), 1);
        assert!(text.contains("\"clock\": \"wall\""));
        assert!(text.contains("\"read_p50_us\": 0.5000"));
    }

    #[test]
    fn host_eff_is_one_threads_time_over_twos() {
        assert_eq!(host_eff(0.1, 0.1), 1.0, "two cores, side by side");
        assert_eq!(host_eff(0.1, 0.2), 0.5, "one core, taking turns");
        let [one, two] = [1, 2].map(|threads| md5_load(threads, 2));
        assert_eq!(two.len(), 2);
        assert_eq!(one[0], two[0], "each thread does the one thread's work");
        assert_ne!(two[0], two[1], "over a buffer of its own");
    }

    #[test]
    fn an_aa_set_reports_what_the_rule_would_claim_on_one_build() {
        // One build both sides: a drift the pairs' order did not cancel
        // still wins every pair, and the rule claims it.
        let parent = [
            100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0,
        ];
        let drifted: Vec<f64> = parent.iter().map(|p| p + 3.0).collect();
        assert!(series(Better::Higher, &parent, &drifted).verdict().claim);
        let noise: Vec<f64> = parent.iter().rev().copied().collect();
        assert!(!series(Better::Higher, &parent, &noise).verdict().claim);
        let bill = |side, pair, cpu_s| {
            (
                ("hit_hot".into(), side, pair),
                Bill {
                    cpu_s,
                    host_eff: 0.9,
                },
            )
        };
        let set = RunSet {
            parent_rev: "aaa".into(),
            change_rev: "aaa".into(),
            seconds: 8.0,
            seeds: vec![1, 2],
            load_before: "0.1".into(),
            load_after: "0.2".into(),
            faults: vec![],
            bills: [
                bill(0, 0, 15.0),
                bill(1, 0, 15.5),
                bill(1, 1, 16.5),
                bill(0, 1, 16.0),
            ]
            .into(),
        };
        assert!(set.aa(), "one revision on both sides");
        let text = report(&set, &[series(Better::Higher, &parent[..2], &drifted[..2])]).render();
        assert_eq!(text.matches("\"role\": \"aa\"").count(), 2);
        assert!(!text.contains("\"role\": \"parent\""));
        assert!(text.contains("\"side\": \"change\""));
        assert_eq!(text.matches("\"host_eff\"").count(), 2);
        let change = &text[text.find("\"side\": \"change\"").unwrap()..];
        let at = |x: &str| change.find(x).unwrap();
        assert!(at("15.5000") < at("16.5000"), "in pair order");
    }
}
