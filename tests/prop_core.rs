//! Property-based tests over the core data structures: digests, the
//! cacheability lattice, stream transformer composition, the RLE codec,
//! stage signatures, and the PropLang front end.

use bytes::Bytes;
use placeless_cache::digest::{md5, Md5, Signature};
use placeless_core::bitprovider::MemoryProvider;
use placeless_core::cacheability::{aggregate, Cacheability};
use placeless_core::content::Params;
use placeless_core::error::Result as CoreResult;
use placeless_core::event::{EventKind, Interests};
use placeless_core::id::{DocumentId, UserId};
use placeless_core::plan::TransformPlan;
use placeless_core::profile::{format_profile, parse_profile, PropertySpec};
use placeless_core::property::{ActiveProperty, PathCtx, PathReport, PropsSnapshot};
use placeless_core::streams::{read_all, InputStream, MemoryInput, TransformingInput};
use placeless_properties::compress::{rle_compress, rle_decompress};
use placeless_proplang::{parse, run, ExtEnv, ScriptProperty};
use placeless_simenv::VirtualClock;
use proptest::prelude::*;
use std::sync::Arc;

fn any_cacheability() -> impl Strategy<Value = Cacheability> {
    prop_oneof![
        Just(Cacheability::Uncacheable),
        Just(Cacheability::CacheableWithEvents),
        Just(Cacheability::Unrestricted),
    ]
}

/// A pass-through property with an arbitrary name and token, for probing
/// the stage-signature scheme.
struct TokenProp {
    name: String,
    token: Vec<u8>,
}

impl ActiveProperty for TokenProp {
    fn name(&self) -> &str {
        &self.name
    }
    fn interests(&self) -> Interests {
        Interests::of(&[EventKind::GetInputStream])
    }
    fn wrap_input(
        &self,
        _ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> CoreResult<Box<dyn InputStream>> {
        Ok(inner)
    }
    fn transform_token(&self, _ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        Some(self.token.clone())
    }
}

/// Compiles a fresh one-stage plan and returns the stage's signature over
/// `input` — each call builds everything from scratch, so equal results
/// demonstrate cross-run stability.
fn stage_sig(prop: Arc<dyn ActiveProperty>, input: &[u8]) -> Signature {
    let clock = VirtualClock::new();
    let plan = TransformPlan::compile(
        &clock,
        DocumentId(1),
        UserId(1),
        MemoryProvider::new("p", "body", 0),
        vec![prop],
        Vec::new(),
        PropsSnapshot::default(),
    );
    plan.stage_signature(0, md5(input)).expect("tokened stage")
}

fn token_sig(name: &str, token: &[u8], input: &[u8]) -> Signature {
    stage_sig(
        Arc::new(TokenProp {
            name: name.to_owned(),
            token: token.to_vec(),
        }),
        input,
    )
}

fn script_sig(source: &str, input: &[u8]) -> Signature {
    let prop = ScriptProperty::compile("p", source, ExtEnv::new()).expect("compile");
    stage_sig(prop, input)
}

proptest! {
    #[test]
    fn md5_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        cuts in proptest::collection::vec(1usize..256, 0..16),
    ) {
        let oneshot = md5(&data);
        let mut ctx = Md5::new();
        let mut rest: &[u8] = &data;
        for cut in cuts {
            if rest.is_empty() {
                break;
            }
            let take = cut.min(rest.len());
            ctx.update(&rest[..take]);
            rest = &rest[take..];
        }
        ctx.update(rest);
        prop_assert_eq!(ctx.finalize(), oneshot);
    }

    #[test]
    fn md5_is_deterministic_and_sensitive(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        flip in any::<u8>(),
    ) {
        prop_assert_eq!(md5(&data), md5(&data));
        let mut other = data.clone();
        let i = flip as usize % other.len();
        other[i] ^= 0x01;
        prop_assert_ne!(md5(&data), md5(&other));
    }

    #[test]
    fn cacheability_aggregate_is_min(votes in proptest::collection::vec(any_cacheability(), 0..16)) {
        let agg = aggregate(votes.clone());
        let min = votes.iter().copied().min().unwrap_or(Cacheability::Unrestricted);
        prop_assert_eq!(agg, min);
    }

    #[test]
    fn cacheability_combine_laws(a in any_cacheability(), b in any_cacheability(), c in any_cacheability()) {
        prop_assert_eq!(a.combine(b), b.combine(a));
        prop_assert_eq!(a.combine(b).combine(c), a.combine(b.combine(c)));
        prop_assert_eq!(a.combine(a), a);
        prop_assert_eq!(a.combine(Cacheability::Unrestricted), a);
        prop_assert_eq!(a.combine(Cacheability::Uncacheable), Cacheability::Uncacheable);
    }

    #[test]
    fn transform_chain_equals_function_composition(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        suffix_a in proptest::collection::vec(any::<u8>(), 0..16),
        suffix_b in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        // Chain: raw → (+a) → (+b), as the read path composes wrappers.
        let sa = suffix_a.clone();
        let inner = TransformingInput::new(
            Box::new(MemoryInput::new(Bytes::from(data.clone()))),
            Box::new(move |b| {
                let mut v = b.to_vec();
                v.extend_from_slice(&sa);
                Ok(Bytes::from(v))
            }),
        );
        let sb = suffix_b.clone();
        let mut outer = TransformingInput::new(
            Box::new(inner),
            Box::new(move |b| {
                let mut v = b.to_vec();
                v.extend_from_slice(&sb);
                Ok(Bytes::from(v))
            }),
        );
        let streamed = read_all(&mut outer).unwrap();
        let mut expected = data;
        expected.extend_from_slice(&suffix_a);
        expected.extend_from_slice(&suffix_b);
        prop_assert_eq!(streamed, Bytes::from(expected));
    }

    #[test]
    fn partial_reads_see_the_same_bytes(
        data in proptest::collection::vec(any::<u8>(), 0..1024),
        bufsize in 1usize..64,
    ) {
        let mut stream = MemoryInput::new(Bytes::from(data.clone()));
        let mut out = Vec::new();
        let mut buf = vec![0u8; bufsize];
        loop {
            let n = stream.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        prop_assert_eq!(out, data);
    }

    #[test]
    fn rle_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let compressed = rle_compress(&data);
        prop_assert_eq!(rle_decompress(&compressed).unwrap(), data);
    }

    #[test]
    fn rle_runs_compress_well(byte in any::<u8>(), len in 1usize..4096) {
        let data = vec![byte; len];
        let compressed = rle_compress(&data);
        // Each 255-run costs 2 bytes.
        prop_assert!(compressed.len() <= (len / 255 + 1) * 2);
    }

    #[test]
    fn profile_format_parse_round_trips(
        kinds in proptest::collection::vec("[a-z][a-z0-9-]{0,12}", 1..6),
        names in proptest::collection::vec("[a-z][a-z0-9_]{0,8}", 0..4),
        strings in proptest::collection::vec("[ -~]{0,24}", 0..4),
        ints in proptest::collection::vec(any::<i32>(), 0..4),
    ) {
        let specs: Vec<PropertySpec> = kinds
            .iter()
            .enumerate()
            .map(|(i, kind)| {
                let mut params = Params::new();
                for (j, name) in names.iter().enumerate() {
                    match (i + j) % 3 {
                        0 => {
                            if let Some(s) = strings.get(j) {
                                params.set(name, s.as_str());
                            }
                        }
                        1 => {
                            if let Some(&v) = ints.get(j) {
                                params.set(name, v as i64);
                            }
                        }
                        _ => params.set(name, (i + j) % 2 == 0),
                    }
                }
                PropertySpec::new(kind, params)
            })
            .collect();
        let text = format_profile(&specs);
        let reparsed = parse_profile(&text).unwrap();
        prop_assert_eq!(reparsed, specs);
    }

    #[test]
    fn profile_parser_never_panics(source in "\\PC*") {
        let _ = parse_profile(&source);
    }

    #[test]
    fn proplang_lexer_never_panics(source in "\\PC*") {
        let _ = parse(&source);
    }

    #[test]
    fn proplang_replace_matches_std(
        text in "[a-z ]{0,200}",
        from in "[a-z]{1,5}",
        to in "[a-z]{0,5}",
    ) {
        let program = parse(&format!("replace(\"{from}\", \"{to}\")")).unwrap();
        let out = run(&program, text.as_bytes(), &|_| None, &ExtEnv::new()).unwrap();
        prop_assert_eq!(String::from_utf8(out.into_owned()).unwrap(), text.replace(&from, &to));
    }

    #[test]
    fn proplang_rot13_is_involution(text in "\\PC{0,200}") {
        let program = parse("rot13 | rot13").unwrap();
        let out = run(&program, text.as_bytes(), &|_| None, &ExtEnv::new()).unwrap();
        prop_assert_eq!(String::from_utf8(out.into_owned()).unwrap(), text);
    }

    #[test]
    fn proplang_upper_lower(text in "[a-zA-Z0-9 ]{0,200}") {
        let program = parse("upper | lower").unwrap();
        let out = run(&program, text.as_bytes(), &|_| None, &ExtEnv::new()).unwrap();
        prop_assert_eq!(String::from_utf8(out.into_owned()).unwrap(), text.to_lowercase());
    }

    /// Stage signatures are stable across independently compiled plans,
    /// and any change to the property's name, its parameters (token), or
    /// its input re-keys the stage.
    #[test]
    fn stage_signatures_stable_and_sensitive(
        name in "[a-z][a-z0-9-]{0,12}",
        token in proptest::collection::vec(any::<u8>(), 0..48),
        input in proptest::collection::vec(any::<u8>(), 0..256),
        tweak in any::<u8>(),
    ) {
        let sig = token_sig(&name, &token, &input);
        // Same (input, property, params) → same signature across runs.
        prop_assert_eq!(token_sig(&name, &token, &input), sig);
        // A parameter change re-keys.
        let mut other_token = token.clone();
        other_token.push(tweak);
        prop_assert_ne!(token_sig(&name, &other_token, &input), sig);
        // An input change re-keys.
        let mut other_input = input.clone();
        other_input.push(tweak);
        prop_assert_ne!(token_sig(&name, &token, &other_input), sig);
        // A different property re-keys.
        prop_assert_ne!(token_sig(&format!("{name}x"), &token, &input), sig);
    }

    /// Changing a PropLang property's program text changes its stage
    /// signature (the token folds in the source).
    #[test]
    fn proplang_program_text_rekeys_stages(
        n in 1i64..40,
        offset in 1i64..40,
        input in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let m = n + offset;
        let a = script_sig(&format!("take_lines({n})"), &input);
        prop_assert_eq!(script_sig(&format!("take_lines({n})"), &input), a);
        prop_assert_ne!(script_sig(&format!("take_lines({m})"), &input), a);
    }

    #[test]
    fn proplang_take_lines_bounds(text in "[a-z\\n]{0,300}", n in 0i64..20) {
        let program = parse(&format!("take_lines({n})")).unwrap();
        let out = run(&program, text.as_bytes(), &|_| None, &ExtEnv::new()).unwrap();
        let out = String::from_utf8(out.into_owned()).unwrap();
        prop_assert!(out.lines().count() <= n as usize);
    }
}
