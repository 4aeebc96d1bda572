//! The byte-domain kernels of the property chain against the char-domain
//! code they replaced.
//!
//! `translate`, `spell-corrector`, `rot13-at-rest` and PropLang's
//! interpreter used to work a `char` (or a boxed call) at a time; they now
//! run slice kernels. The old loops survive, here and in `tests/reference`
//! (which `tests/model.rs` shares), as the references the new code must
//! agree with byte for byte on arbitrary input: ASCII, valid
//! and invalid UTF-8, characters whose lowercase form changes length or
//! lands in ASCII, and tables whose keys the packed lookup cannot hold.
//! Random tables, the shipped ones and one large enough to make the
//! direct-mapped table grow are held to the same references, and the
//! `replace` finder to `str::replace`. The two pass-through tests pin
//! what an identity transform costs (the input allocation and its digest
//! are handed on, through a chain of them too) and what a walk charges,
//! and the last test is the release-only cost gate `scripts/check.sh` runs.

use bytes::Bytes;
use placeless::prelude::*;
use placeless_core::digest::{md5, Signature};
use placeless_core::event::EventSite;
use placeless_core::plan::{StagePipeline, TransformPlan};
use placeless_core::property::{ActiveProperty, PathCtx, PathReport, PropsSnapshot};
use placeless_core::streams::{
    read_all, utf8_lossy, write_all, CollectOutput, InputStream, MappingInput, MappingOutput,
    MemoryInput, OutputStream,
};
use placeless_properties::rot13::rot13_byte;
use placeless_properties::spellcheck::DEFAULT_DICTIONARY;
use placeless_properties::translate::{EN_ES, EN_FR};
use placeless_properties::wordmap::WordTable;
use placeless_proplang::interp::replace;
use placeless_proplang::{parse, run};
use placeless_simenv::trace::lorem_bytes;
use placeless_simenv::LatencyModel;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex};

mod reference;

use reference::{reference_rot13, reference_translate};

const USER: UserId = UserId(1);

// ---- the retained char-domain references --------------------------------

/// `SpellCheck::correct` as it stood before the word-map kernel.
fn reference_correct(dictionary: &HashMap<String, String>, text: &[u8]) -> Vec<u8> {
    fn flush_word(dictionary: &HashMap<String, String>, out: &mut String, word: &mut String) {
        if word.is_empty() {
            return;
        }
        let lower = word.to_lowercase();
        match dictionary.get(&lower) {
            Some(fix) => {
                // Preserve a leading capital.
                if word.chars().next().is_some_and(|c| c.is_uppercase()) {
                    let mut chars = fix.chars();
                    if let Some(first) = chars.next() {
                        out.extend(first.to_uppercase());
                        out.push_str(chars.as_str());
                    }
                } else {
                    out.push_str(fix);
                }
            }
            None => out.push_str(word),
        }
        word.clear();
    }
    let text = String::from_utf8_lossy(text);
    let mut out = String::with_capacity(text.len());
    let mut word = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() || ch == '\'' {
            word.push(ch);
        } else {
            flush_word(dictionary, &mut out, &mut word);
            out.push(ch);
        }
    }
    flush_word(dictionary, &mut out, &mut word);
    out.into_bytes()
}

// ---- tables and inputs ----------------------------------------------------

/// Keys the packed lookup holds, keys it cannot (seventeen bytes and up,
/// non-ASCII), keys only a length-changing lowercase reaches (`k` from
/// U+212A, `i̇` from U+0130), a key no word can equal (uppercase), and
/// replacements whose first letter uppercases to two.
const ODD_PAIRS: &[(&str, &str)] = &[
    ("k", "kelvin"),
    ("i\u{307}", "dotted"),
    ("i\u{307}stanbul", "city"),
    ("don't", "do not"),
    ("r2d2", "droid"),
    ("42", "answer"),
    ("sixteen_bytes_ok", "never: underscore splits words"),
    ("abcdefghijklmnop", "sixteen"),
    ("abcdefghijklmnopq", "seventeen"),
    ("pneumonoultramicroscopicsilicovolcanoconiosis", "long"),
    ("café", "coffee"),
    ("straße", "street"),
    ("ǆ", "ǆungla"),
    ("weiss", "ßig"),
    ("Upper", "never"),
    ("gone", ""),
    ("the", "le"),
];

fn tables() -> Vec<(&'static str, Vec<(&'static str, &'static str)>)> {
    vec![
        ("en-fr", EN_FR.to_vec()),
        ("dictionary", DEFAULT_DICTIONARY.to_vec()),
        ("odd", ODD_PAIRS.to_vec()),
        ("empty", Vec::new()),
    ]
}

/// Pieces a document is assembled from: every key of every table in
/// several casings, the characters the issue names, separators, and
/// fragments that are not UTF-8.
fn pieces() -> Vec<Vec<u8>> {
    let mut pieces: Vec<Vec<u8>> = Vec::new();
    for (_, pairs) in tables() {
        for (key, _) in pairs {
            pieces.push(key.as_bytes().to_vec());
            pieces.push(key.to_uppercase().into_bytes());
            let mut chars = key.chars();
            let first = chars.next().expect("keys are not empty");
            let capitalised: String = first.to_uppercase().chain(chars).collect();
            pieces.push(capitalised.into_bytes());
        }
    }
    for text in [
        "\u{212A}",
        "\u{212A}elvin",
        "\u{130}",
        "\u{130}stanbul",
        "\u{130}STANBUL",
        "Σ",
        "ΟΔΥΣΣΕΥΣ",
        "ǅ",
        "ß",
        "é",
        "É",
        "文書",
        "\u{663}",
        "\u{BD}",
        "x\u{B2}",
        "\u{301}",
        "\u{FFFD}",
        "—",
        "'",
        "''",
        "0",
        "7",
        "x",
        "Q",
        "tehran",
        "placeless",
        " ",
        "  ",
        "\n",
        "\t",
        ".",
        ", ",
        "-",
        "_",
        "\0",
        "",
    ] {
        pieces.push(text.as_bytes().to_vec());
    }
    for raw in [
        &[0xFF][..],
        &[0xC3],
        &[0xE2, 0x82],
        &[0xF0, 0x9F, 0x98],
        &[0x80],
        &[0xED, 0xA0, 0x80],
        &[0xC0, 0xAF],
    ] {
        pieces.push(raw.to_vec());
    }
    pieces
}

/// What may stand between two pieces: mostly something that ends a word,
/// sometimes nothing, so pieces also fuse into longer words.
const JOINTS: &[&str] = &[
    "", "", " ", " ", "\n", ". ", ",", "-", "\u{2014}", "'", "\0",
];

/// Documents glued from [`pieces`], so words, separators and broken
/// sequences meet in every order.
fn documents() -> impl Strategy<Value = Vec<u8>> {
    let piece = (
        proptest::sample::select(pieces()),
        proptest::sample::select(JOINTS.to_vec()),
    );
    proptest::collection::vec(piece, 0..40).prop_map(|parts| {
        let mut text = Vec::new();
        for (piece, joint) in parts {
            text.extend_from_slice(&piece);
            text.extend_from_slice(joint.as_bytes());
        }
        text
    })
}

fn arbitrary_bytes() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..300)
}

fn check_word_kernels(text: &[u8]) -> std::result::Result<(), String> {
    for (name, pairs) in tables() {
        let compiled = WordTable::new(pairs.iter().copied());
        let reference: HashMap<String, String> = pairs
            .iter()
            .map(|&(a, b)| (a.to_owned(), b.to_owned()))
            .collect();
        let got = Translate::translate(&compiled, text);
        if got != reference_translate(&reference, text) {
            return Err(format!("translate differs on table `{name}`"));
        }
        let got = SpellCheck::correct(&compiled, text);
        if got != reference_correct(&reference, text) {
            return Err(format!("correct differs on table `{name}`"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn word_kernels_match_the_char_reference_on_documents(text in documents()) {
        prop_assert_eq!(check_word_kernels(&text), Ok(()), "text {:?}", text);
    }

    #[test]
    fn word_kernels_match_the_char_reference_on_arbitrary_bytes(text in arbitrary_bytes()) {
        prop_assert_eq!(check_word_kernels(&text), Ok(()), "text {:?}", text);
    }

    #[test]
    fn word_kernels_match_the_char_reference_on_ascii(text in "[a-zA-Z0-9' .,\\n-]{0,300}") {
        prop_assert_eq!(check_word_kernels(text.as_bytes()), Ok(()), "text {:?}", text);
    }

    /// The kernels' validation is `String::from_utf8_lossy` to the byte,
    /// on valid text, broken sequences and arbitrary bytes, and borrows
    /// whenever the text is valid.
    #[test]
    fn utf8_lossy_is_from_utf8_lossy(text in documents(), raw in arbitrary_bytes()) {
        for bytes in [&text, &raw] {
            let got = utf8_lossy(bytes);
            prop_assert_eq!(&got, &String::from_utf8_lossy(bytes));
            let borrowed = matches!(got, std::borrow::Cow::Borrowed(_));
            prop_assert_eq!(borrowed, std::str::from_utf8(bytes).is_ok());
        }
    }

    /// `replace` and `upper` work on the lossily-validated text, as they
    /// did when `run` built that text before looking at the program; a
    /// stage that does not run leaves the *bytes* alone.
    #[test]
    fn proplang_run_matches_the_text_reference(text in documents(), raw in arbitrary_bytes()) {
        let no_props = |_: &str| None;
        let env = ExtEnv::new();
        let replace = parse("replace(\"the\", \"le\")").unwrap();
        let upper = parse("upper").unwrap();
        let taken = parse("if(!prop(\"absent\"), upper)").unwrap();
        let not_taken = parse("@ttl(5000)\nif(prop(\"absent\"), upper) | if(prop(\"a\") == \"b\", trim)")
            .unwrap();
        for input in [&text, &raw] {
            let lossy = String::from_utf8_lossy(input);
            let out = run(&replace, input, &no_props, &env).unwrap();
            prop_assert_eq!(&*out, lossy.replace("the", "le").as_bytes());
            let out = run(&upper, input, &no_props, &env).unwrap();
            prop_assert_eq!(&*out, lossy.to_uppercase().as_bytes());
            let out = run(&taken, input, &no_props, &env).unwrap();
            prop_assert_eq!(&*out, lossy.to_uppercase().as_bytes());
            let out = run(&not_taken, input, &no_props, &env).unwrap();
            prop_assert_eq!(&*out, input.as_slice());
        }
    }

    /// Reading a mapped stream through `read` with any buffer size yields
    /// what `read_chunk` yields: the kernel sees the same bytes whichever
    /// way they are cut.
    #[test]
    fn mapping_input_read_agrees_with_read_chunk(body in arbitrary_bytes(), size in 1usize..67) {
        let source = Bytes::from(body.clone());
        let mut chunked = MappingInput::new(Box::new(MemoryInput::new(source.clone())), rot13_byte);
        let whole = read_all(&mut chunked).unwrap();
        let mut piecewise = MappingInput::new(Box::new(MemoryInput::new(source)), rot13_byte);
        let mut got = Vec::new();
        let mut buf = vec![0u8; size];
        loop {
            let n = piecewise.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        prop_assert_eq!(&got, &whole);
        let expected: Vec<u8> = body.iter().map(|&b| reference_rot13(b)).collect();
        prop_assert_eq!(got, expected);
    }

    /// A write split anywhere maps to what one write maps to.
    #[test]
    fn mapping_output_split_writes_agree_with_one_write(
        body in arbitrary_bytes(),
        cuts in proptest::collection::vec(any::<u16>(), 0..6),
    ) {
        let mut bounds: Vec<usize> = cuts.iter().map(|&c| c as usize % (body.len() + 1)).collect();
        bounds.push(body.len());
        bounds.sort_unstable();
        let split = mapped_write(|out| {
            let mut from = 0;
            for &to in &bounds {
                write_all(out, &body[from..to]).unwrap();
                from = to;
            }
        });
        let once = mapped_write(|out| write_all(out, &body).unwrap());
        prop_assert_eq!(&split, &once);
        let expected: Vec<u8> = body.iter().map(|&b| reference_rot13(b)).collect();
        prop_assert_eq!(once, expected);
    }
}

/// Runs `writes` against a `MappingOutput` over `rot13_byte` and returns
/// what reached the sink.
fn mapped_write(writes: impl FnOnce(&mut MappingOutput)) -> Vec<u8> {
    let captured = Arc::new(Mutex::new(Vec::new()));
    let sink = captured.clone();
    let collect = CollectOutput::new(move |bytes| {
        sink.lock().unwrap().extend_from_slice(&bytes);
        Ok(())
    });
    let mut out = MappingOutput::new(Box::new(collect), rot13_byte);
    writes(&mut out);
    out.close().unwrap();
    let got = captured.lock().unwrap().clone();
    got
}

#[test]
fn word_kernels_on_empty_and_edge_inputs() {
    for text in [
        &b""[..],
        b"'",
        b"the",
        b"The",
        b"THE",
        b" the ",
        b"the'",
        b"abcdefghijklmnop abcdefghijklmnopq ABCDEFGHIJKLMNOPQR",
        "Weiss \u{212A} \u{130} \u{130}stanbul CAFÉ Straße".as_bytes(),
        &[b't', b'h', b'e', 0xFF, b't', b'h', b'e'],
    ] {
        assert_eq!(check_word_kernels(text), Ok(()), "text {text:?}");
    }
    let odd = WordTable::new(ODD_PAIRS.iter().copied());
    assert_eq!(
        SpellCheck::correct(&odd, "Weiss \u{212A} Gone THE.".as_bytes()),
        "SSig Kelvin  Le."
    );
}

#[test]
fn rot13_byte_equals_the_modular_formula_and_is_an_involution() {
    for b in 0..=255u8 {
        assert_eq!(rot13_byte(b), reference_rot13(b), "byte {b:#04x}");
        assert_eq!(rot13_byte(rot13_byte(b)), b, "byte {b:#04x}");
    }
}

// ---- the direct-mapped table and the `replace` finder ---------------------

/// What random words are made of: ASCII letters of both cases, digits, the
/// apostrophe, and letters that are not ASCII — one that lowercases into
/// ASCII (U+212A), one whose lowercase is longer (U+0130), titlecase ǅ.
const WORD_CHARS: &[char] = &[
    'a', 'e', 't', 'A', 'E', 'T', '0', '7', '\'', 'é', 'É', 'ß', 'Σ', 'σ', '\u{212A}', '\u{130}',
    'ǅ',
];

/// What stands between words.
const GAPS: &[&str] = &[" ", " ", ".\n", "-", "\u{2014}", "_", ""];

/// A word of one to `max - 1` [`WORD_CHARS`]: past sixteen bytes at the
/// longer end.
fn random_word(max: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(proptest::sample::select(WORD_CHARS.to_vec()), 1..max)
        .prop_map(|chars| chars.into_iter().collect())
}

/// Tables of up to 24 pairs: keys lowercased, as a table holds them, or
/// left as drawn; replacements empty, short, or past sixteen bytes.
fn random_pairs() -> impl Strategy<Value = Vec<(String, String)>> {
    let pair = (random_word(24), any::<bool>(), random_word(24), 0u8..4);
    proptest::collection::vec(pair, 0..24).prop_map(|pairs| {
        let pairs = pairs.into_iter();
        let pair = |(key, lower, to, empty): (String, bool, String, u8)| {
            let key = if lower { key.to_lowercase() } else { key };
            (key, if empty == 0 { String::new() } else { to })
        };
        pairs.map(pair).collect()
    })
}

/// Draws for a text: each picks a key of the table under test (as it
/// stands, uppercased or capitalised) or a random word, then a gap.
fn text_draws() -> impl Strategy<Value = Vec<(usize, u8, String, &'static str)>> {
    let draw = (
        any::<usize>(),
        0u8..5,
        random_word(20),
        proptest::sample::select(GAPS.to_vec()),
    );
    proptest::collection::vec(draw, 0..48)
}

/// The text `draws` spell over `keys`.
fn text_of(keys: &[&str], draws: &[(usize, u8, String, &str)]) -> String {
    let mut text = String::new();
    for (pick, case, random, gap) in draws {
        let key = keys.get(pick % keys.len().max(1)).copied().unwrap_or("");
        let mut chars = key.chars();
        match case {
            0 => text.push_str(key),
            1 => text.push_str(&key.to_uppercase()),
            2 => text.extend(
                chars
                    .next()
                    .into_iter()
                    .flat_map(char::to_uppercase)
                    .chain(chars),
            ),
            _ => text.push_str(random),
        }
        text.push_str(gap);
    }
    text
}

/// A table compiled from `pairs` beside the lowercase map the references
/// take.
fn compiled(pairs: &[(String, String)]) -> (WordTable, HashMap<String, String>) {
    (
        WordTable::new(pairs.iter().cloned()),
        pairs.iter().cloned().collect(),
    )
}

/// Checks `rewrite` both ways against the lowercase-map references on
/// `text`.
fn check_table(
    (table, map): &(WordTable, HashMap<String, String>),
    text: &str,
) -> std::result::Result<(), String> {
    if table.rewrite(text.as_bytes(), false) != reference_translate(map, text.as_bytes()) {
        return Err("translate differs".to_owned());
    }
    if table.rewrite(text.as_bytes(), true) != reference_correct(map, text.as_bytes()) {
        return Err("correct differs".to_owned());
    }
    Ok(())
}

/// `n` distinct keys of one to eighteen word bytes, each to a replacement
/// of up to 23 bytes: enough keys that the table's constructor tries more
/// than one multiplier and grows (`wordmap`'s own tests count its slots).
fn many_pairs(n: usize) -> Vec<(String, String)> {
    let pair = |i: usize| {
        let key = format!("{}{i}", &"abcdefghijklmn"[..i % 15]);
        (key, format!("{i}{}", "x".repeat(i % 20)))
    };
    (0..n).map(pair).collect()
}

/// A `replace` needle or replacement: empty, one byte, or several, with
/// two- and four-byte characters, over so few letters that matches
/// overlap (`aaa` against `aa`).
fn needle() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        proptest::sample::select(vec!['a', 'a', 'b', 'é', '🦀']),
        0..5,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn direct_mapped_table_matches_a_lowercase_map_on_random_tables(
        pairs in random_pairs(),
        draws in text_draws(),
    ) {
        let keys: Vec<&str> = pairs.iter().map(|(key, _)| key.as_str()).collect();
        let text = text_of(&keys, &draws);
        prop_assert_eq!(check_table(&compiled(&pairs), &text), Ok(()), "pairs {:?} text {:?}", pairs, text);
    }

    #[test]
    fn direct_mapped_table_matches_on_the_shipped_and_a_many_key_table(draws in text_draws()) {
        type Compiled = (Vec<String>, (WordTable, HashMap<String, String>));
        static TABLES: LazyLock<Vec<Compiled>> = LazyLock::new(|| {
            let owned = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
                pairs.iter().map(|&(key, to)| (key.to_owned(), to.to_owned())).collect()
            };
            let tables = [owned(EN_FR), owned(EN_ES), many_pairs(300)];
            let keys = |pairs: &[(String, String)]| pairs.iter().map(|(key, _)| key.clone()).collect();
            tables.iter().map(|pairs| (keys(pairs), compiled(pairs))).collect()
        });
        for (keys, table) in TABLES.iter() {
            let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
            let text = text_of(&keys, &draws);
            prop_assert_eq!(check_table(table, &text), Ok(()), "text {:?}", text);
        }
    }

    /// The finder behind `replace` and `redact` returns what `str::replace`
    /// does: across 64-byte blocks, on overlapping candidates, with a match
    /// at the very end, and for needles under two bytes, which it hands to
    /// `str::replace`.
    #[test]
    fn replace_and_redact_match_str_replace(
        parts in proptest::collection::vec(needle(), 0..60),
        from in needle(),
        to in needle(),
        ends_with_needle in any::<bool>(),
    ) {
        let mut text: String = parts.join(" ");
        if ends_with_needle {
            text.push_str(&from);
        }
        prop_assert_eq!(replace(&text, &from, &to), text.replace(&from, &to), "{:?} in {:?}", from, text);
        // Programs refuse an empty pattern; any other goes through the finder.
        let (no_props, env) = (|_: &str| None, ExtEnv::new());
        let program = parse(&format!("replace(\"{from}\", \"{to}\") | redact(\"{to}\")"));
        if from.is_empty() || to.is_empty() {
            prop_assert!(program.is_err());
        } else {
            let out = run(&program.unwrap(), text.as_bytes(), &no_props, &env).unwrap();
            let mask = "█".repeat(to.chars().count());
            let expected = text.replace(&from, &to).replace(&to, &mask);
            prop_assert_eq!(&*out, expected.as_bytes(), "{:?}, {:?} in {:?}", from, to, text);
        }
    }
}

// ---- identity transforms are pass-throughs --------------------------------

/// Runs `props` as the stages of one plan over `body`, carrying `carried`
/// as the input's digest, and returns the last stage's output. The walk
/// charges each stage's cost once, to the clock and to the report, and
/// records each stage's output at its size.
fn run_stages(
    props: Vec<Arc<dyn ActiveProperty>>,
    body: &Bytes,
    carried: Signature,
) -> (placeless_core::plan::StageOutput, PathReport) {
    let clock = VirtualClock::new();
    let plan = TransformPlan::compile(
        &clock,
        DocumentId(1),
        USER,
        MemoryProvider::new("p", "unused", 0),
        props,
        Vec::new(),
        PropsSnapshot::default(),
    );
    let (start, mut report, mut out) = (clock.now(), PathReport::default(), None);
    let mut pipeline = StagePipeline::from_root(&plan, body.clone(), carried);
    for index in 0..plan.len() {
        let stage = pipeline.execute(&clock, index, &mut report).unwrap();
        assert_eq!(report.stages[index].bytes, stage.bytes.len() as u64);
        out = Some(stage);
    }
    let cost: u64 = plan.stages.iter().map(|stage| stage.cost_micros).sum();
    let charged = (clock.now().since(start), report.cost.raw_micros());
    assert_eq!(charged, (cost, cost as f64), "each stage charged once");
    (out.expect("a stage"), report)
}

/// A digest no content has: if it comes back, it was carried, not computed.
const CARRIED: Signature = Signature([0xAB; 16]);

#[test]
fn translate_without_a_table_is_a_pass_through() {
    let body = Bytes::from_static(b"hello world, the workshop paper");
    let preferred: Arc<dyn ActiveProperty> = Translate::from_preferred_language();
    let klingon: Arc<dyn ActiveProperty> = Translate::to("klingon");
    // Each alone, and a chain of them: the walk hands the buffer on.
    for chain in [
        vec![preferred.clone()],
        vec![klingon.clone()],
        vec![preferred, klingon],
    ] {
        let (out, _) = run_stages(chain, &body, CARRIED);
        assert!(
            std::ptr::eq(out.bytes.as_ptr(), body.as_ptr()),
            "no table: the output chunk must be the input allocation"
        );
        assert_eq!(out.bytes.len(), body.len());
        assert_eq!(out.content_sig, CARRIED, "digest carried, not recomputed");
    }
    // With a table the stage transforms and is hashed.
    let (out, _) = run_stages(vec![Translate::to("fr")], &body, CARRIED);
    assert_eq!(out.bytes, "bonjour monde, le atelier papier");
    assert_eq!(out.content_sig, md5(&out.bytes));
}

#[test]
fn proplang_program_in_which_no_stage_runs_is_the_identity_on_bytes() {
    // Not UTF-8: a PNG header, a BOM-like pair and a NUL.
    let binary: &[u8] = &[0x89, 0x50, 0x4E, 0x47, 0xFF, 0xFE, 0x00];

    // A script of directives alone, on both paths of a real space.
    let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
    let doc = space.create_document(USER, MemoryProvider::new("png", binary.to_vec(), 0));
    let ttl_only = ScriptProperty::compile("t", "@on(both)\n@ttl(5000)", ExtEnv::new()).unwrap();
    space
        .attach_active(Scope::Personal(USER), doc, ttl_only.clone())
        .unwrap();
    let (bytes, report) = space.read_document(USER, doc).unwrap();
    assert_eq!(&bytes[..], binary, "read path must not touch the bytes");
    assert_eq!(report.verifiers.len(), 2, "provider verifier + the TTL");
    space.write_document(USER, doc, binary).unwrap();
    let (bytes, _) = space.read_document(USER, doc).unwrap();
    assert_eq!(&bytes[..], binary, "write path must not touch them either");

    // The same script as a stage: the executor sees a pass-through.
    let body = Bytes::copy_from_slice(binary);
    let (out, report) = run_stages(vec![ttl_only], &body, CARRIED);
    assert!(std::ptr::eq(out.bytes.as_ptr(), body.as_ptr()));
    assert_eq!(out.content_sig, CARRIED);
    assert_eq!(report.verifiers.len(), 1, "directives still register");

    // A script whose every `if` is false hands the buffer on as well.
    let all_false = ScriptProperty::compile(
        "f",
        "if(prop(\"lang\") == \"fr\", upper) | if(prop(\"draft\"), append(\"!\"))",
        ExtEnv::new(),
    )
    .unwrap();
    let (out, _) = run_stages(vec![all_false], &body, CARRIED);
    assert!(std::ptr::eq(out.bytes.as_ptr(), body.as_ptr()));
    assert_eq!(out.content_sig, CARRIED);
}

// ---- what a stage costs, in MD5 passes -------------------------------------

/// Wall time of one call of `f`, in nanoseconds.
fn time(mut f: impl FnMut()) -> u128 {
    let start = std::time::Instant::now();
    f();
    start.elapsed().as_nanos()
}

/// Relative, so it holds on any box: over 4 KiB documents, unscrambling
/// costs at most half an MD5 pass over the same bytes, translating at most
/// 1.8 and the benchmark's per-user `replace` at most 0.65. Each round
/// takes the next of 256 distinct documents, so no branch predictor learns
/// one: on one document alone, translating cost half what it costs on
/// varied text. Over varied text the sorted per-length buckets and
/// `str::replace` cost 2.5 and 0.75–0.8 passes. The kernels' UTF-8 check,
/// `utf8_lossy`, costs at most a quarter of `String::from_utf8_lossy`'s
/// byte-wise walk over the same document: a ratio of two validations,
/// which a busy host slows alike, where translate against MD5 moves by a
/// third. Optimised builds only: `scripts/check.sh` runs it with `--release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock ratio: release builds only")]
fn stage_kernels_cost_relative_to_md5() {
    let english: Vec<Bytes> = (0..256)
        .map(|seed| Bytes::from(lorem_bytes(seed, 4096)))
        .collect();
    let scrambled: Vec<Bytes> = english
        .iter()
        .map(|doc| doc.iter().map(|&b| rot13_byte(b)).collect())
        .collect();
    let clock = VirtualClock::new();
    let snap = PropsSnapshot::default();
    let ctx = PathCtx {
        clock: &clock,
        doc: DocumentId(1),
        user: USER,
        site: EventSite::Base,
        props: &snap,
    };
    let stage = |prop: &dyn ActiveProperty, body: &Bytes| {
        let inner: Box<dyn InputStream> = Box::new(MemoryInput::new(body.clone()));
        let mut wrapped = prop
            .wrap_input(&ctx, &mut PathReport::default(), inner)
            .unwrap();
        std::hint::black_box(read_all(wrapped.as_mut()).unwrap());
    };
    let (rot13, translate) = (Rot13AtRest::new(), Translate::to("fr"));
    // The benchmark's per-user suffix.
    let replace =
        ScriptProperty::compile("suffix", "replace(\"placeless\", \"u7\")", ExtEnv::new()).unwrap();

    // Best of many rounds, the six timed back to back in each, so a
    // disturbed stretch of the run costs all of them alike.
    let mut best = [u128::MAX; 6];
    for round in 0..2048 {
        let (english, scrambled) = (&english[round % 256], &scrambled[round % 256]);
        let times = [
            time(|| {
                std::hint::black_box(md5(std::hint::black_box(english)));
            }),
            time(|| stage(rot13.as_ref(), scrambled)),
            time(|| stage(translate.as_ref(), english)),
            time(|| stage(replace.as_ref(), english)),
            time(|| {
                std::hint::black_box(utf8_lossy(std::hint::black_box(english)));
            }),
            time(|| {
                std::hint::black_box(String::from_utf8_lossy(std::hint::black_box(english)));
            }),
        ];
        best.iter_mut()
            .zip(times)
            .for_each(|(best, t)| *best = (*best).min(t));
    }
    let [md5_ns, rot13_ns, translate_ns, replace_ns, utf8_ns, lossy_ns] = best;
    println!(
        "4 KiB: md5 {md5_ns} ns, rot13-at-rest {rot13_ns} ns, translate {translate_ns} ns, \
         replace {replace_ns} ns, utf8_lossy {utf8_ns} ns, from_utf8_lossy {lossy_ns} ns"
    );
    assert!(
        2 * rot13_ns <= md5_ns,
        "rot13-at-rest {rot13_ns} ns is more than half an MD5 pass ({md5_ns} ns)"
    );
    assert!(
        10 * translate_ns <= 18 * md5_ns,
        "translate {translate_ns} ns is more than 1.8 MD5 passes ({md5_ns} ns)"
    );
    assert!(
        100 * replace_ns <= 65 * md5_ns,
        "replace {replace_ns} ns is more than 0.65 MD5 passes ({md5_ns} ns)"
    );
    assert!(
        4 * utf8_ns <= lossy_ns,
        "utf8_lossy {utf8_ns} ns is more than a quarter of from_utf8_lossy ({lossy_ns} ns)"
    );
}
