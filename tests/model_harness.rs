//! The model harness (`placeless-bench`) under tier-1: the two E-LOAD
//! acceptance checks that a count decides, and the property its
//! artifacts rest on — a deterministic experiment builds the same report
//! every time, and the rendered file is JSON that reads back key for key
//! in the order it was written.

use placeless_bench::report::{Fields, Report, Value};
use placeless_bench::{crash, load, merge, stage};

#[test]
fn probe_coalesces_concurrent_misses() {
    // coalesce_probe() itself asserts the contract; the counts are pinned
    // here so a weakened assertion there cannot pass unnoticed.
    let r = load::coalesce_probe(6);
    assert_eq!(r.provider_fetches, 1);
    assert_eq!(r.coalesced_waits, 5);
    assert!(r.identical);
    assert!(r.inflight_peak >= 1);
}

fn small_write_mix() -> load::WriteMixParams {
    load::WriteMixParams {
        users: 2_000,
        documents: 32,
        writes: 600,
        flush_every: 300,
        ..load::WriteMixParams::default()
    }
}

#[test]
fn write_mix_amortizes_origin_round_trips() {
    let [singleton, grouped] = load::write_mix(small_write_mix());
    assert_eq!(singleton.flush_batches, singleton.entries_flushed);
    assert_eq!(singleton.origin_ops, 3 * singleton.entries_flushed);
    assert!(singleton.ops_per_entry() / grouped.ops_per_entry() >= 2.0);
    assert!(grouped.flush_calls < singleton.flush_calls);
    assert!(grouped.origin_ops < singleton.origin_ops);
    assert!(
        grouped.flush_micros <= singleton.flush_micros,
        "grouped commits must not cost more virtual time"
    );
    assert!(grouped.flush_batches >= grouped.flush_calls);
}

/// A recursive-descent reader for the JSON the harness writes. A number
/// with a point reads as a [`Value::Float`] carrying the decimals it was
/// written with, so rendering what was read reproduces the text.
struct Parser<'a> {
    rest: &'a str,
}

impl Parser<'_> {
    fn eat(&mut self, token: &str) -> bool {
        self.rest = self.rest.trim_start();
        match self.rest.strip_prefix(token) {
            Some(rest) => {
                self.rest = rest;
                true
            }
            None => false,
        }
    }

    fn expect(&mut self, token: &str) {
        assert!(self.eat(token), "expected {token:?} at {:?}", self.rest);
    }

    /// Reads `item`s separated by commas up to `close`.
    fn sequence<T>(&mut self, close: &str, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let mut items = Vec::new();
        if self.eat(close) {
            return items;
        }
        loop {
            items.push(item(self));
            if !self.eat(",") {
                self.expect(close);
                return items;
            }
        }
    }

    fn string(&mut self) -> String {
        self.expect("\"");
        let end = self.rest.find('"').expect("closing quote");
        let (text, rest) = self.rest.split_at(end);
        assert!(!text.contains('\\'), "no artifact string needs an escape");
        self.rest = &rest[1..];
        text.to_owned()
    }

    fn value(&mut self) -> Value {
        if self.eat("{") {
            return Value::Map(self.sequence("}", |p| {
                let key = p.string();
                p.expect(":");
                (key, p.value())
            }));
        }
        if self.eat("[") {
            return Value::List(self.sequence("]", Self::value));
        }
        if self.eat("true") {
            return Value::Bool(true);
        }
        if self.eat("false") {
            return Value::Bool(false);
        }
        if self.rest.starts_with('"') {
            return Value::Str(self.string());
        }
        let end = self
            .rest
            .find(|c: char| !c.is_ascii_digit() && c != '.')
            .unwrap_or(self.rest.len());
        let (number, rest) = self.rest.split_at(end);
        self.rest = rest;
        match number.split_once('.') {
            Some((_, decimals)) => Value::Float(number.parse().expect("float"), decimals.len()),
            None => Value::Int(number.parse().expect("integer")),
        }
    }
}

fn rendered(fields: Fields) -> String {
    let mut out = String::new();
    Value::Map(fields).render(&mut out, 0);
    out
}

/// `build` twice gives one report, and the report's file reads back.
fn check(build: impl Fn() -> Report) {
    let report = build();
    let again = build();
    assert!(report.deterministic);
    assert_eq!(report.params, again.params, "{}", report.experiment);
    assert_eq!(report.body, again.body, "{}", report.experiment);

    let text = report.render();
    let mut parser = Parser { rest: &text };
    let Value::Map(mut top) = parser.value() else {
        panic!("a report is a map: {text}");
    };
    assert_eq!(parser.rest.trim(), "", "nothing follows the report");

    let (first, Value::Map(env)) = top.remove(0) else {
        panic!("env is a map: {text}");
    };
    assert_eq!(first, "env");
    let env_keys: Vec<&str> = env.iter().map(|(key, _)| key.as_str()).collect();
    for key in ["git_rev", "rustc", "nproc", "profile", "clock"] {
        assert!(env_keys.contains(&key), "env lacks {key}: {env_keys:?}");
    }
    assert!(env.contains(&("clock".to_owned(), Value::Str("virtual".to_owned()))));

    let mut expected: Fields = vec![
        ("experiment".to_owned(), report.experiment.into()),
        ("deterministic".to_owned(), true.into()),
        ("params".to_owned(), report.params.clone().into()),
    ];
    expected.extend(report.body.iter().cloned());
    let keys = |fields: &Fields| -> Vec<String> { fields.iter().map(|(k, _)| k.clone()).collect() };
    assert_eq!(keys(&top), keys(&expected));
    // A float reads back as its written decimals, not as the value it was
    // rounded from, so the trees are compared as text.
    assert_eq!(rendered(top), rendered(expected));
}

#[test]
fn deterministic_reports_rebuild_equal_and_read_back() {
    let params = crash::CrashParams {
        writes: 20,
        ..crash::CrashParams::default()
    };
    check(|| crash::report(params, &crash::sweep(params)));
    let params = merge::MergeParams::default();
    check(|| merge::report(params, &merge::sweep(params)));
    let params = stage::StageParams::default();
    check(|| stage::report(params, &stage::sweep(params)));
    // Same seed, same write mix: every field of both rows is in the body.
    let probe = load::coalesce_probe(2);
    let params = load::WriteMixParams {
        users: 1_000,
        documents: 16,
        writes: 200,
        flush_every: 100,
        ..load::WriteMixParams::default()
    };
    check(|| load::report(probe, params, &load::write_mix(params)));
}
