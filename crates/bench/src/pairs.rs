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

use crate::fields;
use crate::report::{Fields, Report, Value};

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
}

/// The `BENCH_wall.json` artifact of one pair set: two rows per workload
/// (the parent's and the change's, with every run's value), the change's
/// row carrying the verdicts.
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
        let mut parent = fields! {
            "rev": set.parent_rev.as_str(),
            "role": "parent",
            "workload": workload,
        };
        parent.extend(fields! { "values": values(|s| &s.parent) });
        let mut change = fields! {
            "rev": set.change_rev.as_str(),
            "role": "change",
            "workload": workload,
            "against": set.parent_rev.as_str(),
        };
        change.extend(fields! {
            "values": values(|s| &s.change),
            "ratio": verdicts(|v| Value::Float(v.change_median / v.parent_median, 4)),
            "parent_iqr_frac": verdicts(|v| Value::Float(v.parent_iqr / v.parent_median, 4)),
            "won": verdicts(|v| Value::Int(v.won as u64)),
            "claim": verdicts(|v| Value::Bool(v.claim)),
            "within_bound": verdicts(|v| Value::Bool(v.within_bound)),
        });
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
        };
        let mut other = series(Better::Lower, &[2.0, 2.0], &[1.0, 1.0]);
        other.metric = "read_p50_us".into();
        let report = report(
            &set,
            &[series(Better::Higher, &[1.0, 1.0], &[2.0, 2.0]), other],
        );
        let text = report.render();
        assert_eq!(text.matches("\"role\": \"parent\"").count(), 1);
        assert_eq!(text.matches("\"role\": \"change\"").count(), 1);
        assert!(text.contains("\"clock\": \"wall\""));
        assert!(text.contains("\"read_p50_us\": 0.5000"));
    }
}
