//! Judges one pair set of `scripts/pairs.sh` and writes it as
//! `BENCH_wall.json` into the working directory (the script merges that
//! into the committed file).
//!
//! ```text
//! pairs VALUES --parent REV --change REV --seconds S --seeds 1,2,.. \
//!       --load-before L --load-after L [--faults FILE] [--runs FILE]
//! pairs --md5-load THREADS
//! ```
//!
//! `VALUES` holds one line per run and end-to-end metric:
//! `workload<TAB>metric<TAB>better<TAB>bound<TAB>side<TAB>pair<TAB>value`,
//! `side` being `parent` or `change`. `--faults` names a file of runs that
//! failed, one a line. `--runs` names each run's bill, one a line:
//! `workload<TAB>side<TAB>pair<TAB>cpu_s<TAB>one_thread_s<TAB>two_threads_s`,
//! the last two the kernel's wall times just before the run. A set whose
//! two revisions are one is an A/A set. Prints one line per workload and metric;
//! exits 1 when a median is out of its bound or a run failed.
//!
//! `--md5-load` runs the fixed kernel `host_eff` is timed on, on one
//! thread or two, and prints the first thread's digest.

use placeless_bench::pairs::{host_eff, md5_load, report, Better, Bill, RunSet, Series};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("pairs: {message}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut args = std::env::args().skip(1);
    let values = args.next().ok_or("usage: pairs VALUES --parent REV ...")?;
    if values == "--md5-load" {
        let threads = args
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or("bad thread count")?;
        println!("{}", md5_load(threads, 64)[0].to_hex());
        return Ok(true);
    }
    let mut flags = BTreeMap::new();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let flag = |name: &str| flags.get(name).cloned().ok_or(format!("missing {name}"));
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let seeds = flag("--seeds")?
        .split(',')
        .map(|s| s.parse().map_err(|_| format!("bad seed {s}")))
        .collect::<Result<_, _>>()?;
    let faults = match flags.get("--faults") {
        Some(path) => read(path)?.lines().map(str::to_owned).collect(),
        None => Vec::new(),
    };
    let bills = match flags.get("--runs") {
        Some(path) => parse_bills(&read(path)?)?,
        None => BTreeMap::new(),
    };
    let set = RunSet {
        parent_rev: flag("--parent")?,
        change_rev: flag("--change")?,
        seconds: flag("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        seeds,
        load_before: flag("--load-before")?,
        load_after: flag("--load-after")?,
        faults,
        bills,
    };
    let series = parse_values(&read(&values)?)?;
    let mut ok = set.faults.is_empty();
    println!(
        "{:<18} {:<12} {:>12} {:>12} {:>7} {:>8} {:>5}  verdict",
        "workload", "metric", "parent", "change", "ratio", "p-iqr", "won"
    );
    for s in &series {
        let v = s.verdict();
        ok &= v.within_bound;
        let verdict = match (v.claim, v.within_bound) {
            (_, false) => "OUT OF BOUND",
            (true, _) if set.aa() => "would claim",
            (true, _) => "claim met",
            (false, true) => "within bound",
        };
        println!(
            "{:<18} {:<12} {:>12.2} {:>12.2} {:>7.4} {:>7.2}% {:>2}/{:<2}  {verdict}",
            s.workload,
            s.metric,
            v.parent_median,
            v.change_median,
            v.change_median / v.parent_median,
            100.0 * v.parent_iqr / v.parent_median,
            v.won,
            v.pairs,
        );
    }
    for fault in &set.faults {
        println!("failed run: {fault}");
    }
    let path = report(&set, &series)
        .write()
        .map_err(|e| format!("writing BENCH_wall.json: {e}"))?;
    println!("wrote {}", path.display());
    Ok(ok)
}

/// Each run's bill by workload, side (0 the parent, 1 the change) and pair.
fn parse_bills(text: &str) -> Result<BTreeMap<(String, usize, usize), Bill>, String> {
    let mut bills = BTreeMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let cells: Vec<&str> = line.split('\t').collect();
        let [workload, side, pair, cpu_s, one, two] = cells[..] else {
            return Err(format!("bad line: {line}"));
        };
        let number = |cell: &str| {
            cell.parse::<f64>()
                .map_err(|_| format!("bad number in: {line}"))
        };
        let side = ["parent", "change"].iter().position(|s| *s == side);
        let side = side.ok_or(format!("bad side: {line}"))?;
        let pair = pair.parse().map_err(|_| format!("bad pair: {line}"))?;
        let host_eff = host_eff(number(one)?, number(two)?);
        let bill = Bill {
            cpu_s: number(cpu_s)?,
            host_eff,
        };
        bills.insert((workload.to_owned(), side, pair), bill);
    }
    Ok(bills)
}

/// One metric's values by pair: the parent's, then the change's.
type ByPair = BTreeMap<usize, [Option<f64>; 2]>;

/// Groups the value lines by workload and metric, in first-seen order.
/// A pair one side of which failed is left out of both sides.
fn parse_values(text: &str) -> Result<Vec<Series>, String> {
    let mut series: Vec<(Series, ByPair)> = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let cells: Vec<&str> = line.split('\t').collect();
        let [workload, metric, better, bound, side, pair, value] = cells[..] else {
            return Err(format!("bad line: {line}"));
        };
        let number = |cell: &str| {
            cell.parse::<f64>()
                .map_err(|_| format!("bad number in: {line}"))
        };
        let at = match series
            .iter()
            .position(|(s, _)| s.workload == workload && s.metric == metric)
        {
            Some(at) => at,
            None => {
                let new = Series {
                    workload: workload.to_owned(),
                    metric: metric.to_owned(),
                    better: Better::parse(better).ok_or(format!("bad direction: {line}"))?,
                    bound: number(bound)?,
                    parent: Vec::new(),
                    change: Vec::new(),
                };
                series.push((new, BTreeMap::new()));
                series.len() - 1
            }
        };
        let side = match side {
            "parent" => 0,
            "change" => 1,
            _ => return Err(format!("bad side: {line}")),
        };
        let pair: usize = pair.parse().map_err(|_| format!("bad pair: {line}"))?;
        series[at].1.entry(pair).or_default()[side] = Some(number(value)?);
    }
    Ok(series
        .into_iter()
        .map(|(mut s, pairs)| {
            for [parent, change] in pairs.into_values() {
                if let (Some(parent), Some(change)) = (parent, change) {
                    s.parent.push(parent);
                    s.change.push(change);
                }
            }
            s
        })
        .collect())
}
