//! The one writer of `BENCH_<experiment>.json`.
//!
//! Every artifact of the model harness is a [`Report`]: the environment it
//! ran in (the field names of `benchmark/src/env.rs`, with `"clock":
//! "virtual"` marking every quantity as virtual-clock), the experiment's
//! parameters and its results. Keys render in insertion order and floats
//! with a fixed number of decimals, so a deterministic experiment's
//! `params` and body are byte-stable and two commits' files can be
//! diffed.

use std::path::PathBuf;
use std::process::Command;

/// Key/value pairs in insertion order.
pub type Fields = Vec<(String, Value)>;

/// An ordered JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(u64),
    /// A float and the number of decimals it renders with.
    Float(f64, usize),
    Str(String),
    Bool(bool),
    List(Vec<Value>),
    Map(Fields),
}

/// Builds [`Fields`] from `"key": value` pairs; a value is anything
/// [`Value`] is `From`.
#[macro_export]
macro_rules! fields {
    ($($key:literal: $value:expr),* $(,)?) => {
        vec![$(($key.to_owned(), $crate::report::Value::from($value))),*]
    };
}

macro_rules! value_from {
    ($($from:ty => |$x:ident| $value:expr),* $(,)?) => {
        $(impl From<$from> for Value {
            fn from($x: $from) -> Self {
                $value
            }
        })*
    };
}

value_from! {
    u64 => |n| Value::Int(n),
    u32 => |n| Value::Int(n.into()),
    usize => |n| Value::Int(n as u64),
    bool => |b| Value::Bool(b),
    &str => |s| Value::Str(s.to_owned()),
    Fields => |fields| Value::Map(fields),
}

impl Value {
    /// A list of maps, one per item.
    pub fn rows<T>(items: &[T], row: impl Fn(&T) -> Fields) -> Value {
        Value::List(items.iter().map(|item| Value::Map(row(item))).collect())
    }

    /// Renders the value as JSON. A list or map of scalars stays on one
    /// line; one holding a list or map puts each child on its own line,
    /// two spaces deeper than `indent`.
    pub fn render(&self, out: &mut String, indent: usize) {
        match self {
            Value::Int(n) => out.push_str(&n.to_string()),
            Value::Float(x, decimals) => out.push_str(&format!("{x:.decimals$}")),
            Value::Str(s) => quote(out, s),
            Value::Bool(b) => out.push_str(&b.to_string()),
            Value::List(items) => {
                render_children(out, indent, ['[', ']'], items.iter().map(|v| (None, v)));
            }
            Value::Map(fields) => {
                let entries = fields
                    .iter()
                    .map(|(key, value)| (Some(key.as_str()), value));
                render_children(out, indent, ['{', '}'], entries);
            }
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Value::List(_) | Value::Map(_))
    }
}

/// Renders a list's items (no keys) or a map's entries between `open` and
/// `close`.
fn render_children<'a>(
    out: &mut String,
    indent: usize,
    [open, close]: [char; 2],
    children: impl Iterator<Item = (Option<&'a str>, &'a Value)> + Clone,
) {
    let inline = children.clone().all(|(_, value)| value.is_scalar());
    let line_start = |depth: usize| match inline {
        true => String::new(),
        false => format!("\n{:depth$}", ""),
    };
    out.push(open);
    for (i, (key, value)) in children.enumerate() {
        if i > 0 {
            out.push_str(if inline { ", " } else { "," });
        }
        out.push_str(&line_start(indent + 2));
        if let Some(key) = key {
            quote(out, key);
            out.push_str(": ");
        }
        value.render(out, indent + 2);
    }
    out.push_str(&line_start(indent));
    out.push(close);
}

fn quote(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Runs a tool to completion and returns its trimmed stdout.
fn tool_output(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_owned())
}

/// The environment of this process. An exported checkout has no
/// repository to ask: `git_rev` is then `"unknown"` and `git_dirty` is
/// left out.
fn capture_env() -> Fields {
    let git_rev = tool_output("git", &["rev-parse", "--short=12", "HEAD"]);
    let git_dirty = tool_output("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let rustc = tool_output("rustc", &["--version"]);
    let mut env = fields! { "git_rev": git_rev.as_deref().unwrap_or("unknown") };
    if let Some(dirty) = git_dirty {
        env.extend(fields! { "git_dirty": dirty });
    }
    env.extend(fields! {
        "rustc": rustc.as_deref().unwrap_or("unknown"),
        "nproc": std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "clock": "virtual",
    });
    env
}

/// One experiment's artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Names the file: `BENCH_<experiment>.json`.
    pub experiment: &'static str,
    /// Whether a rerun with the same `params` yields the same `body`.
    /// `false` where real threads interleave.
    pub deterministic: bool,
    pub params: Fields,
    /// The results; its entries follow `params` at the top level.
    pub body: Fields,
}

impl Report {
    /// The file's text: `env`, `experiment`, `deterministic`, `params`,
    /// then the body's entries.
    pub fn render(&self) -> String {
        let mut top = fields! {
            "env": capture_env(),
            "experiment": self.experiment,
            "deterministic": self.deterministic,
            "params": self.params.clone(),
        };
        top.extend(self.body.iter().cloned());
        let mut out = String::new();
        Value::Map(top).render(&mut out, 0);
        out.push('\n');
        out
    }

    /// Writes `BENCH_<experiment>.json` into the working directory and
    /// returns its path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, self.render())?;
        Ok(path)
    }
}
