//! PropLang interpreter.
//!
//! Executes a parsed [`Program`] over document content. The environment
//! supplies the two kinds of outside data a transform may consult: the
//! document's visible static properties and named external sources.

use crate::ast::{Cond, Program, Stage};
use parking_lot::RwLock;
use placeless_core::error::{PlacelessError, Result};
use placeless_core::external::ExternalSource;
use placeless_core::streams::gather;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Named external sources a program may reference via `append_ext` /
/// `${ext:...}` / `@watch_ext`.
#[derive(Default, Clone)]
pub struct ExtEnv {
    sources: Arc<RwLock<HashMap<String, Arc<dyn ExternalSource>>>>,
}

impl ExtEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a source under its own name.
    pub fn add(&self, source: Arc<dyn ExternalSource>) {
        self.sources
            .write()
            .insert(source.name().to_owned(), source);
    }

    /// Looks up a source by name.
    pub fn get(&self, name: &str) -> Option<Arc<dyn ExternalSource>> {
        self.sources.read().get(name).cloned()
    }
}

/// Property lookups the interpreter needs: `(name) -> Option<String>`.
pub type PropLookup<'a> = &'a dyn Fn(&str) -> Option<String>;

/// Runs `program` over `input`, using `props` for property lookups and
/// `env` for external sources.
///
/// Stages work on text, validated as UTF-8 (lossily; borrowed where valid)
/// when the first one runs. If none runs — none written, or every `if`
/// false — the program is the identity on *bytes*: `input` comes back.
pub fn run<'a>(
    program: &Program,
    input: &'a [u8],
    props: PropLookup<'_>,
    env: &ExtEnv,
) -> Result<Cow<'a, [u8]>> {
    let mut text: Option<Cow<'a, str>> = None;
    for stage in &program.stages {
        if !runs(stage, props) {
            continue;
        }
        let current = text.get_or_insert_with(|| String::from_utf8_lossy(input));
        text = Some(Cow::Owned(run_stage(stage, current, props, env)?));
    }
    Ok(match text {
        None => Cow::Borrowed(input),
        Some(text) => Cow::Owned(text.into_owned().into_bytes()),
    })
}

/// Whether every `if` guarding `stage` holds.
fn runs(stage: &Stage, props: PropLookup<'_>) -> bool {
    match stage {
        Stage::If(cond, inner) => eval_cond(cond, props) && runs(inner, props),
        _ => true,
    }
}

fn run_stage(stage: &Stage, text: &str, props: PropLookup<'_>, env: &ExtEnv) -> Result<String> {
    Ok(match stage {
        Stage::Upper => text.to_uppercase(),
        Stage::Lower => text.to_lowercase(),
        Stage::Trim => text.trim().to_owned(),
        Stage::Rot13 => text
            .chars()
            .map(|c| match c {
                'a'..='z' => (((c as u8 - b'a' + 13) % 26) + b'a') as char,
                'A'..='Z' => (((c as u8 - b'A' + 13) % 26) + b'A') as char,
                other => other,
            })
            .collect(),
        Stage::Replace(from, to) => replace(text, from, to),
        Stage::Prepend(s) => format!("{s}{text}"),
        Stage::Append(s) => format!("{text}{s}"),
        Stage::FirstSentences(n) => {
            let mut out = String::new();
            let mut count = 0;
            for ch in text.chars() {
                out.push(ch);
                if matches!(ch, '.' | '!' | '?') {
                    count += 1;
                    if count >= *n {
                        break;
                    }
                }
            }
            out
        }
        Stage::TakeLines(n) => text
            .lines()
            .take(*n as usize)
            .collect::<Vec<_>>()
            .join("\n"),
        Stage::Wrap(width) => wrap_text(text, *width as usize),
        Stage::NumberLines => text
            .lines()
            .enumerate()
            .map(|(i, line)| format!("{:>4}  {line}", i + 1))
            .collect::<Vec<_>>()
            .join("\n"),
        Stage::Redact(word) => replace(text, word, &"█".repeat(word.chars().count())),
        Stage::HeadBytes(n) => {
            let mut end = (*n as usize).min(text.len());
            while end > 0 && !text.is_char_boundary(end) {
                end -= 1;
            }
            text[..end].to_owned()
        }
        Stage::AppendExt(name) => {
            let source = env.get(name).ok_or_else(|| {
                PlacelessError::Script(format!("unknown external source `{name}`"))
            })?;
            format!("{text}{}", String::from_utf8_lossy(&source.read()))
        }
        Stage::Subst => substitute(text, props, env)?,
        Stage::If(cond, inner) if eval_cond(cond, props) => run_stage(inner, text, props, env)?,
        Stage::If(..) => text.to_owned(),
    })
}

/// `text.replace(from, to)`, its output reserved up front (to at most
/// twice `text`) and the needle found 64 places at a time: a place that
/// starts with the needle's first byte and has its last byte
/// `from.len() - 1` on is a candidate, compared whole. A match is whole
/// UTF-8 characters, so it begins and ends on character boundaries.
pub fn replace(text: &str, from: &str, to: &str) -> String {
    let (hay, needle, n) = (text.as_bytes(), from.as_bytes(), from.len());
    if n < 2 || hay.len() < n {
        return text.replace(from, to);
    }
    let growth = hay.len() / n * to.len().saturating_sub(n);
    let mut out = String::with_capacity(hay.len() + growth.min(hay.len()));
    // `text[copied..]` is what has not reached `out` yet.
    let mut copied = 0;
    for block in (0..=hay.len() - n).step_by(64) {
        let mut flags = [0u8; 64];
        let ends = hay[block..].iter().zip(&hay[block + n - 1..]);
        for (flag, (&head, &tail)) in flags.iter_mut().zip(ends) {
            *flag = u8::from(head == needle[0]) & u8::from(tail == needle[n - 1]);
        }
        let mut candidates = gather(&flags);
        while candidates != 0 {
            let at = block + candidates.trailing_zeros() as usize;
            candidates &= candidates - 1;
            if at >= copied && hay[at..].starts_with(needle) {
                out.push_str(&text[copied..at]);
                out.push_str(to);
                copied = at + n;
            }
        }
    }
    out.push_str(&text[copied..]);
    out
}

/// Replaces `${prop:NAME}` and `${ext:NAME}` placeholders; unknown names
/// substitute as empty strings.
fn substitute(text: &str, props: PropLookup<'_>, env: &ExtEnv) -> Result<String> {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(start) = rest.find("${") {
        out.push_str(&rest[..start]);
        let after = &rest[start + 2..];
        let Some(end) = after.find('}') else {
            return Err(PlacelessError::Script("unterminated ${...}".to_owned()));
        };
        let key = &after[..end];
        if let Some(name) = key.strip_prefix("prop:") {
            out.push_str(&props(name).unwrap_or_default());
        } else if let Some(name) = key.strip_prefix("ext:") {
            if let Some(source) = env.get(name) {
                out.push_str(&String::from_utf8_lossy(&source.read()));
            }
        } else {
            return Err(PlacelessError::Script(format!(
                "bad placeholder `${{{key}}}` (use prop: or ext:)"
            )));
        }
        rest = &after[end + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Greedy word wrap at `width` columns; words longer than the width get a
/// line of their own.
fn wrap_text(text: &str, width: usize) -> String {
    let mut out = String::with_capacity(text.len() + 16);
    for (i, line) in text.lines().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let mut column = 0;
        for word in line.split_whitespace() {
            let len = word.chars().count();
            if column > 0 && column + 1 + len > width {
                out.push('\n');
                column = 0;
            } else if column > 0 {
                out.push(' ');
                column += 1;
            }
            out.push_str(word);
            column += len;
        }
    }
    out
}

fn eval_cond(cond: &Cond, props: PropLookup<'_>) -> bool {
    match cond {
        Cond::PropEquals(name, value) => props(name).as_deref() == Some(value.as_str()),
        Cond::PropNotEquals(name, value) => props(name).as_deref() != Some(value.as_str()),
        Cond::PropExists(name) => props(name).is_some(),
        Cond::Not(inner) => !eval_cond(inner, props),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use placeless_core::external::SimpleExternal;

    fn no_props(_: &str) -> Option<String> {
        None
    }

    fn run_src(src: &str, input: &str) -> String {
        let program = parse(src).unwrap();
        let out = run(&program, input.as_bytes(), &no_props, &ExtEnv::new()).unwrap();
        String::from_utf8(out.into_owned()).unwrap()
    }

    #[test]
    fn basic_stages() {
        assert_eq!(run_src("upper", "abc"), "ABC");
        assert_eq!(run_src("lower", "ABC"), "abc");
        assert_eq!(run_src("trim", "  x  "), "x");
        assert_eq!(run_src("rot13", "Hello"), "Uryyb");
        assert_eq!(run_src(r#"replace("a", "o")"#, "banana"), "bonono");
        assert_eq!(run_src(r#"prepend("<")"#, "x"), "<x");
        assert_eq!(run_src(r#"append(">")"#, "x"), "x>");
        assert_eq!(run_src("first_sentences(1)", "A. B."), "A.");
        assert_eq!(run_src("take_lines(2)", "1\n2\n3"), "1\n2");
    }

    #[test]
    fn wrap_reflows_words() {
        assert_eq!(
            run_src("wrap(10)", "one two three four"),
            "one two\nthree four"
        );
        assert_eq!(
            run_src("wrap(5)", "supercalifragilistic"),
            "supercalifragilistic"
        );
        assert_eq!(run_src("wrap(80)", "short line"), "short line");
    }

    #[test]
    fn number_lines_prefixes() {
        assert_eq!(run_src("number_lines", "a\nb"), "   1  a\n   2  b");
    }

    #[test]
    fn redact_masks_words() {
        assert_eq!(
            run_src(r#"redact("secret")"#, "the secret plan"),
            "the ██████ plan"
        );
    }

    #[test]
    fn head_bytes_truncates_on_char_boundary() {
        assert_eq!(run_src("head_bytes(4)", "abcdef"), "abcd");
        assert_eq!(run_src("head_bytes(100)", "short"), "short");
        // 'é' is two bytes; cutting mid-char backs up to the boundary.
        assert_eq!(run_src("head_bytes(2)", "aéb"), "a");
    }

    #[test]
    fn pipeline_composes_left_to_right() {
        assert_eq!(
            run_src(r#"upper | append("!") | replace("B", "8")"#, "abc"),
            "A8C!"
        );
    }

    #[test]
    fn empty_program_is_identity() {
        assert_eq!(run_src("", "unchanged"), "unchanged");
    }

    #[test]
    fn conditionals_consult_properties() {
        let program = parse(r#"if(prop("lang") == "fr", append(" [fr]"))"#).unwrap();
        let fr = |name: &str| (name == "lang").then(|| "fr".to_owned());
        let en = |name: &str| (name == "lang").then(|| "en".to_owned());
        let env = ExtEnv::new();
        assert_eq!(&*run(&program, b"doc", &fr, &env).unwrap(), b"doc [fr]");
        assert_eq!(&*run(&program, b"doc", &en, &env).unwrap(), b"doc");
    }

    #[test]
    fn not_and_exists() {
        let program = parse(r#"if(!prop("draft"), prepend("FINAL: "))"#).unwrap();
        let has = |name: &str| (name == "draft").then(|| "yes".to_owned());
        let env = ExtEnv::new();
        assert_eq!(&*run(&program, b"x", &has, &env).unwrap(), b"x");
        assert_eq!(&*run(&program, b"x", &no_props, &env).unwrap(), b"FINAL: x");
    }

    #[test]
    fn append_ext_reads_sources() {
        let env = ExtEnv::new();
        env.add(SimpleExternal::new("stock:XRX", "42.50"));
        let program = parse(r#"append(" XRX=") | append_ext("stock:XRX")"#).unwrap();
        assert_eq!(
            &*run(&program, b"quotes:", &no_props, &env).unwrap(),
            b"quotes: XRX=42.50"
        );
        let missing = parse(r#"append_ext("nope")"#).unwrap();
        assert!(run(&missing, b"", &no_props, &env).is_err());
    }

    #[test]
    fn subst_placeholders() {
        let env = ExtEnv::new();
        env.add(SimpleExternal::new("clock", "9:41"));
        let props = |name: &str| (name == "owner").then(|| "eyal".to_owned());
        let program = parse("subst").unwrap();
        let out = run(
            &program,
            b"by ${prop:owner} at ${ext:clock} (${prop:missing})",
            &props,
            &env,
        )
        .unwrap();
        assert_eq!(&*out, b"by eyal at 9:41 ()");
    }

    #[test]
    fn subst_rejects_bad_placeholders() {
        let env = ExtEnv::new();
        let program = parse("subst").unwrap();
        assert!(run(&program, b"${unknown:x}", &no_props, &env).is_err());
        assert!(run(&program, b"${prop:unterminated", &no_props, &env).is_err());
    }
}
