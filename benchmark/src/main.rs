//! The repo benchmark. See `README.md` beside this package for the metric
//! glossary and how to compare two commits.
//!
//! With `--workload NAME` the process measures that one workload and
//! prints its metrics and, last, one JSON result line (the contract the
//! driver runs). Without it the process runs all five workloads, each in
//! a child process of its own so `peak_rss_mb` is per workload.

mod driver;
mod env;
mod hist;
mod json;
mod measure;
mod metrics;
mod probes;
mod span;
mod workload;
mod wrappers;

use env::Env;
use json::Value;
use measure::Summary;
use metrics::{
    arrange, metrics_json, Better, MetricDef, Reading, END_TO_END, PER_LAYER, RUN_SECONDS,
};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use workload::{Spec, WORKLOADS};

/// Where result files go, relative to the directory the benchmark is run
/// from (the repo root): never the root itself.
const ARTIFACTS: &str = "target/benchmark";

const USAGE: &str =
    "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--twice]
  (no --workload)  run all five workloads, each in its own child process:
                   the untraced run, then the traced run (--trace 0|1 picks one)
  --workload NAME  measure one workload and end with one JSON result line
  --seed N         trace seed, the only randomness (default 42)
  --seconds S      measured time per run (default 8)
  --trace [0|1]    0: untraced, end-to-end metrics; 1: traced, per-layer metrics
  --smoke          1/50 of the operations; checks every metric of BENCHMARK.json is printed
  --twice          two full untraced sets; fails if they differ by more than a metric's bound
  --manifest       print BENCHMARK.json as generated from the metric tables";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    twice: bool,
    manifest: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut args = Args {
            workload: None,
            seed: 42,
            seconds: RUN_SECONDS as f64,
            trace: None,
            smoke: false,
            twice: false,
            manifest: false,
        };
        let mut pending: Option<String> = None;
        while let Some(flag) = pending.take().or_else(|| argv.next()) {
            let mut value = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = Some(value("--workload")?),
                "--seed" => {
                    args.seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?
                }
                "--seconds" => {
                    args.seconds = value("--seconds")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds takes a number of seconds")?
                }
                "--trace" => match argv.next() {
                    Some(v) if v == "0" || v == "1" => args.trace = Some(v == "1"),
                    other => {
                        args.trace = Some(true);
                        pending = other;
                    }
                },
                "--smoke" => args.smoke = true,
                "--twice" => args.twice = true,
                "--manifest" => args.manifest = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(args)
    }
}

fn print_readings(defs: &[MetricDef], readings: &[Reading]) {
    for reading in readings {
        let def = defs.iter().find(|def| def.name == reading.name);
        let unit = def.map_or("", |def| def.unit);
        let samples = reading
            .samples
            .map_or(String::new(), |n| format!("  (n={n})"));
        let better = def.map_or(String::new(), |def| {
            format!("  [{} is better]", def.better.label())
        });
        println!(
            "  {:<46} {:>16.4} {unit}{samples}{better}",
            reading.name, reading.value
        );
    }
}

fn write_artifact(name: &str, contents: &str) {
    let path = format!("{ARTIFACTS}/{name}");
    let written = std::fs::create_dir_all(ARTIFACTS).and_then(|()| std::fs::write(&path, contents));
    match written {
        Ok(()) => println!("wrote {path}"),
        Err(error) => eprintln!("warning: could not write {path}: {error}"),
    }
}

fn spans_jsonl(summary: &Summary) -> String {
    let mut out = String::new();
    for thread in &summary.spans {
        for request in &thread.dumped {
            for (index, span) in request.spans.iter().enumerate() {
                let parent = if span.parent == span::NO_PARENT {
                    "null".to_owned()
                } else {
                    span.parent.to_string()
                };
                out.push_str(&format!(
                    "{{\"request\": {}, \"span\": {index}, \"parent\": {parent}, \"name\": \"{}\", \
                     \"start_ns\": {}, \"end_ns\": {}, \"tag\": \"{}\"}}\n",
                    request.request,
                    span.layer.name(),
                    span.start,
                    span.end,
                    request.tag
                ));
            }
        }
    }
    out
}

/// Measures one workload in this process: the contract mode.
fn run_workload(spec: Spec, args: &Args) -> ExitCode {
    let traced = args.trace.unwrap_or(false);
    let (spec, seconds) = if args.smoke {
        (spec.smoke(), 0.0)
    } else {
        (spec, args.seconds)
    };
    let env = Env::capture();
    let header = env.header_json(&spec, args.seed, seconds, args.smoke, traced);
    println!("env {header}");

    let started = std::time::Instant::now();
    let trace = workload::materialise(&spec, args.seed, env.clients);
    println!(
        "trace {}: {} operations in {} streams, {} distinct (user, document) pairs, materialised in {:.3} s",
        spec.name,
        trace.ops(),
        trace.streams.len(),
        trace.pairs.len(),
        started.elapsed().as_secs_f64()
    );
    let (defs, mut summary): (&[MetricDef], Summary) = if traced {
        (
            &PER_LAYER,
            measure::traced(&spec, &trace, args.seed, seconds),
        )
    } else {
        (
            &END_TO_END,
            measure::untraced(&spec, &trace, args.seed, seconds),
        )
    };

    for message in &summary.messages {
        println!("FAILED {message}");
    }
    let readings = match arrange(defs, std::mem::take(&mut summary.readings)) {
        Ok(readings) => readings,
        Err(error) => {
            eprintln!("error: {error}");
            return ExitCode::FAILURE;
        }
    };
    let kind = if traced {
        "per-layer (traced run)"
    } else {
        "end-to-end (untraced run)"
    };
    println!(
        "{} {kind}, {} reps, {:.1} s total:",
        spec.name,
        summary.reps,
        started.elapsed().as_secs_f64()
    );
    print_readings(defs, &readings);
    if !summary.notes.is_empty() {
        println!(
            "{} workload-specific, same untraced reps (listed with the layers in BENCHMARK.json):",
            spec.name
        );
        print_readings(&PER_LAYER, &summary.notes);
    }

    let correct = summary.failed == 0;
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        summary.attempted.max(1),
        summary.failed,
        metrics_json(defs, &readings)
    );
    let suffix = if traced { "layers" } else { "end_to_end" };
    write_artifact(
        &format!("{}.{suffix}.json", spec.name),
        &format!("{{\"env\": {header},\n \"result\": {result}}}\n"),
    );
    if traced {
        write_artifact(
            &format!("{}.spans.jsonl", spec.name),
            &spans_jsonl(&summary),
        );
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The parsed result line of one child run.
struct ChildResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process, passing its output through, and
/// parses the result line it ends with.
fn run_child(spec: &Spec, args: &Args, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", spec.name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    // Pass the child's lines through as they come; the last is its result.
    let mut child = command
        .spawn()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut line = String::new();
    for next in BufReader::new(stdout).lines() {
        line = next.map_err(|e| format!("{}: reading child output: {e}", spec.name))?;
        println!("{line}");
    }
    let status = child
        .wait()
        .map_err(|e| format!("{}: waiting for child: {e}", spec.name))?;
    let value = json::parse(&line).map_err(|e| format!("{}: no result line ({e})", spec.name))?;
    let metrics = match value.get("metrics") {
        Some(Value::Object(members)) => members
            .iter()
            .filter_map(|(name, metric)| Some((name.clone(), metric.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{}: result line has no metrics", spec.name)),
    };
    Ok(ChildResult {
        correct: value.get("correct") == Some(&Value::Bool(true)) && status.success(),
        metrics,
    })
}

/// The metric names `BENCHMARK.json` lists under `key`.
fn manifest_names(manifest: &Value, key: &str) -> Vec<String> {
    manifest
        .get(key)
        .map_or(&[][..], Value::as_array)
        .iter()
        .filter_map(|entry| entry.get("name")?.as_str().map(str::to_owned))
        .collect()
}

/// `--smoke`: every metric `BENCHMARK.json` names must come back exactly
/// once, finite, from every workload, and the manifest must be the one
/// the tables generate.
fn check_against_manifest(results: &[(&'static str, bool, ChildResult)]) -> Vec<String> {
    let mut problems = Vec::new();
    let text = match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => text,
        Err(error) => return vec![format!("cannot read BENCHMARK.json: {error}")],
    };
    if text != metrics::manifest() {
        problems.push("BENCHMARK.json differs from `--manifest` output; regenerate it".to_owned());
    }
    let manifest = match json::parse(&text) {
        Ok(manifest) => manifest,
        Err(error) => return vec![format!("BENCHMARK.json: {error}")],
    };
    for (workload, traced, result) in results {
        let expected = manifest_names(&manifest, if *traced { "per_layer" } else { "end_to_end" });
        for name in &expected {
            match result.metrics.get(name) {
                Some(value) if value.is_finite() => {}
                Some(value) => problems.push(format!("{workload}: {name} is {value}")),
                None => problems.push(format!("{workload}: {name} was not printed")),
            }
        }
        for name in result.metrics.keys() {
            if !expected.contains(name) {
                problems.push(format!("{workload}: {name} is not in BENCHMARK.json"));
            }
        }
    }
    problems
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(def: &MetricDef, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs().max(f64::MIN_POSITIVE);
    match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Runs every workload, each in its own child process.
fn run_all(args: &Args) -> ExitCode {
    let modes: &[bool] = match (args.twice, args.trace) {
        (true, _) => &[false, false],
        (false, Some(true)) => &[true],
        (false, Some(false)) => &[false],
        (false, None) => &[false, true],
    };
    let mut results = Vec::new();
    let mut ok = true;
    for &traced in modes {
        for spec in &WORKLOADS {
            match run_child(spec, args, traced) {
                Ok(result) => {
                    ok &= result.correct;
                    results.push((spec.name, traced, result));
                }
                Err(error) => {
                    eprintln!("error: {error}");
                    ok = false;
                }
            }
        }
    }
    if args.smoke {
        let problems = check_against_manifest(&results);
        for problem in &problems {
            println!("SMOKE {problem}");
        }
        ok &= problems.is_empty();
        println!("smoke: {} runs, {} problems", results.len(), problems.len());
    }
    if args.twice {
        println!("two sets of the same commit (worsening of the second set against the first, and the bound):");
        let (first, second) = results.split_at(results.len() / 2);
        for ((workload, _, a), (_, _, b)) in first.iter().zip(second) {
            for def in &END_TO_END {
                let (Some(&x), Some(&y)) = (a.metrics.get(def.name), b.metrics.get(def.name))
                else {
                    continue;
                };
                let worse = worsening(def, x, y).max(worsening(def, y, x));
                let verdict = if worse <= def.bound {
                    "ok"
                } else {
                    "EXCEEDS BOUND"
                };
                ok &= worse <= def.bound;
                println!(
                    "  {workload:<18} {:<12} {x:>14.4} {y:>14.4} {:>+7.2}%  bound {:>5.1}%  {verdict}",
                    def.name,
                    worse * 100.0,
                    def.bound * 100.0
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!(
            "error: this build has debug assertions on; the benchmark only measures release builds"
        );
        return ExitCode::from(2);
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("error: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        None => run_all(&args),
        Some(name) => match workload::find(name) {
            Some(spec) => run_workload(spec, &args),
            None => {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "error: unknown workload `{name}`; known: {}",
                    known.join(", ")
                );
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let args = parse("--workload hit_hot --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("hit_hot"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, Some(true)));
        assert_eq!(parse("--trace 0").unwrap().trace, Some(false));
    }

    #[test]
    fn a_bare_trace_flag_means_traced() {
        let args = parse("--trace --seed 9").unwrap();
        assert_eq!((args.trace, args.seed), (Some(true), 9));
        assert_eq!(parse("--smoke --trace").unwrap().trace, Some(true));
        assert_eq!(parse("").unwrap().trace, None);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--seed",
            "--seed x",
            "--seconds -1",
            "--bogus",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = &END_TO_END[0];
        let higher = END_TO_END
            .iter()
            .find(|m| m.better == Better::Higher)
            .unwrap();
        assert!((worsening(lower, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(higher, 100.0, 120.0) < 0.0);
    }
}
