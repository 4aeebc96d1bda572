//! Property profiles: a user's personalization as portable data.
//!
//! Placeless treats behaviour as something *attached* to documents, not
//! compiled into applications. A [`PropertySpec`] captures one active
//! property as registry kind + parameters; a profile is an ordered list of
//! specs (order matters — it is the transform chain order). Profiles render
//! to a line-oriented text format and parse back, so a user's
//! personalization can be stored, shipped, and re-applied:
//!
//! ```text
//! # eyal's defaults
//! spell-corrector
//! translate language="fr"
//! qos factor=10
//! proplang name="shout" source="upper | append(\"!\")"
//! ```

use crate::content::{Params, PropertyValue};
use crate::error::{PlacelessError, Result};
use crate::id::{DocumentId, PropertyId};
use crate::space::{DocumentSpace, Scope};
use std::sync::Arc;

/// One active property as data: registry kind + parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertySpec {
    /// The registered kind name.
    pub kind: String,
    /// Factory parameters.
    pub params: Params,
}

impl PropertySpec {
    /// Creates a spec.
    pub fn new(kind: &str, params: Params) -> Self {
        Self {
            kind: kind.to_owned(),
            params,
        }
    }
}

/// Renders specs in the profile text format.
pub fn format_profile(specs: &[PropertySpec]) -> String {
    let mut out = String::new();
    for spec in specs {
        out.push_str(&spec.kind);
        for (name, value) in spec.params.iter() {
            out.push(' ');
            out.push_str(name);
            out.push('=');
            match value {
                PropertyValue::Str(s) => {
                    out.push('"');
                    for c in s.chars() {
                        match c {
                            '"' => out.push_str("\\\""),
                            '\\' => out.push_str("\\\\"),
                            '\n' => out.push_str("\\n"),
                            other => out.push(other),
                        }
                    }
                    out.push('"');
                }
                PropertyValue::Int(i) => out.push_str(&i.to_string()),
                PropertyValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                PropertyValue::Float(x) => {
                    // Keep a decimal point so floats parse back as floats.
                    if x.fract() == 0.0 && x.is_finite() {
                        out.push_str(&format!("{x:.1}"));
                    } else {
                        out.push_str(&x.to_string());
                    }
                }
                PropertyValue::Blob(_) => out.push_str("\"<blob>\""),
            }
        }
        out.push('\n');
    }
    out
}

/// Parses the profile text format.
pub fn parse_profile(text: &str) -> Result<Vec<PropertySpec>> {
    let mut specs = Vec::new();
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut chars = line.chars().peekable();
        let kind = read_ident(&mut chars).ok_or_else(|| bad(lineno, "expected a property kind"))?;
        let mut params = Params::new();
        loop {
            while chars.peek() == Some(&' ') {
                chars.next();
            }
            if chars.peek().is_none() {
                break;
            }
            let name =
                read_ident(&mut chars).ok_or_else(|| bad(lineno, "expected parameter name"))?;
            if chars.next() != Some('=') {
                return Err(bad(lineno, "expected `=` after parameter name"));
            }
            let value = read_value(&mut chars).map_err(|msg| bad(lineno, &msg))?;
            params.set(&name, value);
        }
        specs.push(PropertySpec::new(&kind, params));
    }
    Ok(specs)
}

fn bad(lineno: usize, message: &str) -> PlacelessError {
    PlacelessError::BadPropertyParams(format!("profile line {}: {message}", lineno + 1))
}

fn read_ident(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    let mut ident = String::new();
    while let Some(&c) = chars.peek() {
        if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == ':' {
            ident.push(c);
            chars.next();
        } else {
            break;
        }
    }
    (!ident.is_empty()).then_some(ident)
}

fn read_value(
    chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
) -> std::result::Result<PropertyValue, String> {
    match chars.peek() {
        Some('"') => {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('"') => return Ok(PropertyValue::Str(s)),
                    Some('\\') => match chars.next() {
                        Some('"') => s.push('"'),
                        Some('\\') => s.push('\\'),
                        Some('n') => s.push('\n'),
                        other => return Err(format!("bad escape {other:?}")),
                    },
                    Some(c) => s.push(c),
                    None => return Err("unterminated string".to_owned()),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == '-' => {
            let mut number = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_ascii_digit() || c == '.' || c == '-' {
                    number.push(c);
                    chars.next();
                } else {
                    break;
                }
            }
            if number.contains('.') {
                number
                    .parse::<f64>()
                    .map(PropertyValue::Float)
                    .map_err(|_| format!("bad float `{number}`"))
            } else {
                number
                    .parse::<i64>()
                    .map(PropertyValue::Int)
                    .map_err(|_| format!("bad integer `{number}`"))
            }
        }
        _ => {
            let word = read_ident(chars).ok_or("expected a value")?;
            match word.as_str() {
                "true" => Ok(PropertyValue::Bool(true)),
                "false" => Ok(PropertyValue::Bool(false)),
                other => Err(format!("bad value `{other}`")),
            }
        }
    }
}

/// Applies a profile to a document at the given scope, instantiating each
/// spec through the space's registry. Returns the attached property ids,
/// in profile order.
pub fn apply_profile(
    space: &Arc<DocumentSpace>,
    scope: Scope,
    doc: DocumentId,
    specs: &[PropertySpec],
) -> Result<Vec<PropertyId>> {
    specs
        .iter()
        .map(|spec| space.attach_by_name(scope, doc, &spec.kind, &spec.params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bare_and_parameterized() {
        let specs = parse_profile(
            "# comment\n\nspell-corrector\ntranslate language=\"fr\"\nqos factor=10.5 pin=true\nttl micros=5000\n",
        )
        .unwrap();
        assert_eq!(specs.len(), 4);
        assert_eq!(
            specs[0],
            PropertySpec::new("spell-corrector", Params::new())
        );
        assert_eq!(specs[1].params.get_str("language"), Some("fr"));
        assert_eq!(specs[2].params.get_float("factor"), Some(10.5));
        assert_eq!(specs[2].params.get("pin"), Some(&PropertyValue::Bool(true)));
        assert_eq!(specs[3].params.get_int("micros"), Some(5_000));
    }

    #[test]
    fn format_then_parse_round_trips() {
        let specs = vec![
            PropertySpec::new("watermark", Params::new()),
            PropertySpec::new(
                "proplang",
                Params::new()
                    .with("name", "shout")
                    .with("source", "upper | append(\"!\")\nlower"),
            ),
            PropertySpec::new("qos", Params::new().with("factor", 3.0)),
            PropertySpec::new("summarize", Params::new().with("sentences", 2i64)),
            PropertySpec::new("flag", Params::new().with("enabled", false)),
        ];
        let text = format_profile(&specs);
        let reparsed = parse_profile(&text).unwrap();
        assert_eq!(reparsed, specs);
    }

    #[test]
    fn escaping_survives() {
        let specs = vec![PropertySpec::new(
            "proplang",
            Params::new().with("source", r#"replace("a\b", "c"d")"#),
        )];
        let reparsed = parse_profile(&format_profile(&specs)).unwrap();
        assert_eq!(reparsed, specs);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_profile("good-kind\nbad line =\n").err().unwrap();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(parse_profile("kind param=\"unterminated\n").is_err());
        assert!(parse_profile("kind param=1.2.3\n").is_err());
        assert!(parse_profile("kind param=maybe\n").is_err());
        assert!(parse_profile("=nokind\n").is_err());
    }

    #[test]
    fn apply_profile_attaches_in_order() {
        use crate::bitprovider::MemoryProvider;
        use crate::event::{EventKind, Interests};
        use crate::id::UserId;
        use crate::property::ActiveProperty;
        use placeless_simenv::VirtualClock;

        struct Named(String);
        impl ActiveProperty for Named {
            fn name(&self) -> &str {
                &self.0
            }
            fn interests(&self) -> Interests {
                Interests::of(&[EventKind::GetInputStream])
            }
        }

        let space = DocumentSpace::new(VirtualClock::new());
        space.registry().register("tag", |params| {
            Ok(Arc::new(Named(
                params.get_str("label").unwrap_or("tag").to_owned(),
            )))
        });
        let user = UserId(1);
        let doc = space.create_document(user, MemoryProvider::new("d", "x", 0));
        let specs = parse_profile("tag label=\"first\"\ntag label=\"second\"\n").unwrap();
        let ids = apply_profile(&space, Scope::Personal(user), doc, &specs).unwrap();
        assert_eq!(ids.len(), 2);
        let names: Vec<String> = space
            .list_properties(Scope::Personal(user), doc)
            .unwrap()
            .into_iter()
            .map(|(_, name)| name)
            .collect();
        assert_eq!(names, vec!["first", "second"]);
    }

    #[test]
    fn unknown_kinds_fail_atomically_per_spec() {
        use crate::bitprovider::MemoryProvider;
        use crate::id::UserId;
        use placeless_simenv::VirtualClock;

        let space = DocumentSpace::new(VirtualClock::new());
        let user = UserId(1);
        let doc = space.create_document(user, MemoryProvider::new("d", "x", 0));
        let specs = parse_profile("ghost-kind\n").unwrap();
        assert!(apply_profile(&space, Scope::Personal(user), doc, &specs).is_err());
    }
}
