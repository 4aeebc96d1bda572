//! Runtime-authored active properties with PropLang.
//!
//! The original Placeless system attached executable Java objects to
//! documents. A compiled Rust system can't load code at runtime, so this
//! reproduction carries behaviour as *data*: PropLang programs attached
//! through the property registry. This example authors several properties
//! from strings — including their caching metadata — and shows they are
//! full citizens of the caching architecture.
//!
//! Run with `cargo run --example runtime_properties`.

use placeless::prelude::*;

fn main() -> Result<()> {
    let clock = VirtualClock::new();
    let space = DocumentSpace::new(clock.clone());
    let user = UserId(1);

    let provider = MemoryProvider::new(
        "report",
        "draft report. teh numbers look good. final section pending.",
        2_000,
    );
    let doc = space.create_document(user, provider);

    // Register the interpreter-backed kind once...
    let env = ExtEnv::new();
    let quotes = SimpleExternal::new("stock:XRX", "42.50");
    env.add(quotes.clone());
    register_proplang(space.registry(), env);

    // ...then attach behaviour written as strings, at runtime.
    let programs: &[(&str, &str)] = &[
        (
            "fix-typos",
            r#"replace("teh", "the")"#,
        ),
        (
            "exec-summary",
            "@cost(1500)\nfirst_sentences(2) | prepend(\"EXEC SUMMARY: \")",
        ),
        (
            "ticker",
            "@watch_ext(\"stock:XRX\")\nappend(\"\\n[XRX \") | append_ext(\"stock:XRX\") | append(\"]\")",
        ),
    ];
    for (name, source) in programs {
        space.attach_by_name(
            Scope::Personal(user),
            doc,
            "proplang",
            &Params::new().with("name", *name).with("source", *source),
        )?;
        println!("attached proplang:{name}");
    }

    let (view, report) = space.read_document(user, doc)?;
    println!("\ncomposed view:\n{}\n", String::from_utf8_lossy(&view));
    println!(
        "pipeline executed: {:?}\ncost: {:.0}µs, verifiers: {}",
        report.stages.iter().map(|s| &s.name).collect::<Vec<_>>(),
        report.cost.effective_micros(),
        report.verifiers.len()
    );

    // The scripted properties collaborate with the cache like compiled
    // ones: the @watch_ext verifier invalidates on quote changes.
    let cache = DocumentCache::with_defaults(space.clone());
    cache.read(user, doc)?;
    cache.read(user, doc)?;
    println!("\nafter two cached reads: {:?}", cache.stats().hits);
    quotes.set("44.10");
    let fresh = cache.read(user, doc)?;
    assert!(String::from_utf8_lossy(&fresh).contains("44.10"));
    println!(
        "quote moved → verifier_invalidations={}, fresh ticker shown",
        cache.stats().verifier_invalidations
    );

    // Property *modification* (upgrading a script) is invalidation cause 2:
    // attach a change notifier, then swap the summary program in place.
    space.attach_active(Scope::Personal(user), doc, PropertyChangeNotifier::any())?;
    cache.read(user, doc)?;
    let props = space.list_properties(Scope::Personal(user), doc)?;
    let (summary_id, _) = props
        .iter()
        .find(|(_, name)| name == "proplang:exec-summary")
        .expect("attached above");
    let upgraded = ScriptProperty::compile(
        "exec-summary-v2",
        "first_sentences(1) | prepend(\"TL;DR: \")",
        ExtEnv::new(),
    )?;
    space.modify_property(
        Scope::Personal(user),
        doc,
        *summary_id,
        AttachedProperty::Active(upgraded),
    )?;
    let view = cache.read(user, doc)?;
    println!(
        "\nafter upgrading the script:\n{}",
        String::from_utf8_lossy(&view)
    );
    println!(
        "notifier_invalidations={}",
        cache.stats().notifier_invalidations
    );
    Ok(())
}
