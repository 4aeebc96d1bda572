//! PropLang programs as attachable active properties.
//!
//! [`ScriptProperty`] wraps a parsed program in the
//! [`ActiveProperty`] interface: the pipeline transforms the read path, the
//! `@cacheable` directive becomes the cacheability vote, `@cost` the
//! execution/replacement cost, `@ttl` ships a TTL verifier, and
//! `@watch_ext` ships epoch verifiers over the named external sources.
//!
//! [`register_proplang`] exposes the whole mechanism through the property
//! registry: `attach_by_name(..., "proplang", {name, source})` turns a
//! *string written at runtime* into live document behaviour — the paper's
//! executable attached properties without dynamic code loading.

use crate::ast::Program;
use crate::interp::{run, ExtEnv};
use crate::parser::parse;
use bytes::Bytes;
use placeless_core::error::{PlacelessError, Result};
use placeless_core::event::{EventKind, Interests};
use placeless_core::property::{ActiveProperty, PathCtx, PathReport};
use placeless_core::registry::PropertyRegistry;
use placeless_core::streams::{
    InputStream, OutputStream, TransformFn, TransformingInput, TransformingOutput,
};
use placeless_core::verifier::{EpochVerifier, TtlVerifier};
use std::borrow::Cow;
use std::sync::Arc;

/// A runtime-authored active property backed by the PropLang interpreter.
pub struct ScriptProperty {
    name: String,
    /// The program text, retained so the transform token can fingerprint
    /// it: editing a script re-keys every downstream stage signature.
    source: String,
    program: Arc<Program>,
    env: ExtEnv,
}

impl ScriptProperty {
    /// Compiles `source` into an attachable property.
    pub fn compile(name: &str, source: &str, env: ExtEnv) -> Result<Arc<Self>> {
        Ok(Arc::new(Self {
            name: format!("proplang:{name}"),
            source: source.to_owned(),
            program: Arc::new(parse(source)?),
            env,
        }))
    }

    /// Returns the parsed program (for inspection).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The lazily-run transform of one path, over a snapshot of the
    /// property values the (shared) program may consult. Content no stage
    /// touched is handed on as the buffer it arrived in.
    fn transform(&self, ctx: &PathCtx<'_>) -> TransformFn {
        let program = self.program.clone();
        let env = self.env.clone();
        let props: Vec<(String, String)> = collect_props(ctx, &program);
        Box::new(move |bytes| {
            let lookup = |name: &str| {
                props
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| v.clone())
            };
            let rewritten = match run(&program, &bytes, &lookup, &env)? {
                Cow::Borrowed(_) => None,
                Cow::Owned(out) => Some(Bytes::from(out)),
            };
            Ok(rewritten.unwrap_or(bytes))
        })
    }
}

impl ActiveProperty for ScriptProperty {
    fn name(&self) -> &str {
        &self.name
    }

    fn interests(&self) -> Interests {
        let mut interests = Interests::NONE;
        if self.program.run_on.reads() {
            interests = interests.and(EventKind::GetInputStream);
        }
        if self.program.run_on.writes() {
            interests = interests.and(EventKind::GetOutputStream);
        }
        interests
    }

    fn execution_cost_micros(&self) -> u64 {
        // Declared cost, or a default proportional to pipeline length (an
        // interpreted stage is pricier than a compiled one).
        self.program
            .cost_micros
            .unwrap_or(200 + 100 * self.program.stages.len() as u64)
    }

    fn wrap_output(
        &self,
        ctx: &PathCtx<'_>,
        _report: &mut PathReport,
        inner: Box<dyn OutputStream>,
    ) -> Result<Box<dyn OutputStream>> {
        if !self.program.run_on.writes() || self.program.stages.is_empty() {
            return Ok(inner);
        }
        Ok(Box::new(TransformingOutput::new(
            inner,
            self.transform(ctx),
        )))
    }

    fn wrap_input(
        &self,
        ctx: &PathCtx<'_>,
        report: &mut PathReport,
        inner: Box<dyn InputStream>,
    ) -> Result<Box<dyn InputStream>> {
        if !self.program.run_on.reads() {
            return Ok(inner);
        }
        if let Some(vote) = self.program.cacheability {
            report.vote(vote);
        }
        if let Some(ttl) = self.program.ttl_micros {
            report.add_verifier(TtlVerifier::for_ttl(ctx.clock.now(), ttl));
        }
        for name in &self.program.watch_ext {
            let source = self.env.get(name).ok_or_else(|| {
                PlacelessError::Script(format!("@watch_ext: unknown source `{name}`"))
            })?;
            report.add_verifier(EpochVerifier::pinned(source));
        }
        // A program of directives alone transforms nothing: with them
        // registered, the stream passes through as it is.
        if self.program.stages.is_empty() {
            return Ok(inner);
        }
        Ok(Box::new(TransformingInput::new(inner, self.transform(ctx))))
    }

    fn transform_token(&self, ctx: &PathCtx<'_>) -> Option<Vec<u8>> {
        // `subst` resolves `${prop:...}`/`${ext:...}` placeholders found in
        // the *content* at runtime — its dependency set cannot be declared
        // up front, so the stage stays opaque.
        if has_subst(&self.program.stages) {
            return None;
        }
        let mut token = Vec::new();
        push_field(&mut token, self.source.as_bytes());
        // Resolved static properties (already name-sorted): a changed value
        // or shadowing change re-keys every downstream stage.
        for (name, value) in collect_props(ctx, &self.program) {
            push_field(&mut token, name.as_bytes());
            push_field(&mut token, value.as_bytes());
        }
        // Declared external inputs, pinned by epoch — the paper's fourth
        // invalidation cause folded straight into the signature chain.
        let mut externals = ext_inputs(&self.program.stages);
        externals.extend(self.program.watch_ext.iter().cloned());
        externals.sort();
        externals.dedup();
        for name in externals {
            // An unresolvable source makes the read fail later anyway;
            // declare the stage opaque rather than sign a half-truth.
            let source = self.env.get(&name)?;
            push_field(&mut token, name.as_bytes());
            token.extend_from_slice(&source.epoch().to_le_bytes());
        }
        Some(token)
    }
}

/// Appends a length-prefixed field, keeping the token encoding
/// concatenation-unambiguous.
fn push_field(token: &mut Vec<u8>, field: &[u8]) {
    token.extend_from_slice(&(field.len() as u64).to_le_bytes());
    token.extend_from_slice(field);
}

/// Returns `true` if any stage (recursing through `if`) is `subst`.
fn has_subst(stages: &[crate::ast::Stage]) -> bool {
    use crate::ast::Stage;
    stages.iter().any(|stage| match stage {
        Stage::Subst => true,
        Stage::If(_, inner) => has_subst(std::slice::from_ref(inner)),
        _ => false,
    })
}

/// Collects the external sources the pipeline reads (`append_ext`,
/// recursing through `if`).
fn ext_inputs(stages: &[crate::ast::Stage]) -> Vec<String> {
    use crate::ast::Stage;
    let mut out = Vec::new();
    for stage in stages {
        match stage {
            Stage::AppendExt(name) => out.push(name.clone()),
            Stage::If(_, inner) => out.extend(ext_inputs(std::slice::from_ref(inner))),
            _ => {}
        }
    }
    out
}

/// Pre-resolves every property name the program mentions.
fn collect_props(ctx: &PathCtx<'_>, program: &Program) -> Vec<(String, String)> {
    let mut names = Vec::new();
    collect_names(&program.stages, &mut names);
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter_map(|name| ctx.props.get(&name).map(|value| (name, value.to_string())))
        .collect()
}

fn collect_names(stages: &[crate::ast::Stage], out: &mut Vec<String>) {
    use crate::ast::{Cond, Stage};
    fn cond_names(cond: &Cond, out: &mut Vec<String>) {
        match cond {
            Cond::PropEquals(name, _) | Cond::PropNotEquals(name, _) | Cond::PropExists(name) => {
                out.push(name.clone())
            }
            Cond::Not(inner) => cond_names(inner, out),
        }
    }
    for stage in stages {
        match stage {
            Stage::If(cond, inner) => {
                cond_names(cond, out);
                collect_names(std::slice::from_ref(inner), out);
            }
            Stage::Subst => {
                // `subst` can reference any property; resolve the common
                // ones by scanning is impossible here, so `subst` programs
                // should prefer explicit `if`/`append` forms. Placeholders
                // over unresolved names substitute as empty.
            }
            _ => {}
        }
    }
}

/// Registers the `proplang` kind: parameters `name` (label) and `source`
/// (the program text).
pub fn register_proplang(registry: &PropertyRegistry, env: ExtEnv) {
    registry.register("proplang", move |params| {
        let source = params
            .get_str("source")
            .ok_or_else(|| PlacelessError::BadPropertyParams("`source` is required".to_owned()))?;
        let name = params.get_str("name").unwrap_or("anonymous");
        Ok(ScriptProperty::compile(name, source, env.clone())? as Arc<dyn ActiveProperty>)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use placeless_core::cacheability::Cacheability;
    use placeless_core::content::Params;
    use placeless_core::external::SimpleExternal;
    use placeless_core::prelude::*;
    use placeless_core::verifier::Validity;
    use placeless_simenv::{LatencyModel, VirtualClock};

    const ALICE: UserId = UserId(1);

    fn setup(content: &str) -> (Arc<DocumentSpace>, DocumentId) {
        let space = DocumentSpace::with_middleware_cost(VirtualClock::new(), LatencyModel::FREE);
        let provider = MemoryProvider::new("t", content.to_owned(), 0);
        let doc = space.create_document(ALICE, provider);
        (space, doc)
    }

    #[test]
    fn script_transforms_the_read_path() {
        let (space, doc) = setup("teh draft");
        let prop =
            ScriptProperty::compile("fix", r#"replace("teh", "the") | upper"#, ExtEnv::new())
                .unwrap();
        space
            .attach_active(Scope::Personal(ALICE), doc, prop)
            .unwrap();
        let (bytes, _) = space.read_document(ALICE, doc).unwrap();
        assert_eq!(bytes, "THE DRAFT");
    }

    #[test]
    fn directives_flow_into_the_report() {
        let (space, doc) = setup("content");
        let prop = ScriptProperty::compile(
            "meta",
            "@cost(1234)\n@cacheable(events)\n@ttl(9000)\nupper",
            ExtEnv::new(),
        )
        .unwrap();
        assert_eq!(prop.execution_cost_micros(), 1_234);
        space
            .attach_active(Scope::Personal(ALICE), doc, prop)
            .unwrap();
        let (_, report) = space.read_document(ALICE, doc).unwrap();
        assert_eq!(report.cacheability, Cacheability::CacheableWithEvents);
        // Provider mtime verifier + TTL verifier.
        assert_eq!(report.verifiers.len(), 2);
        assert!(report.cost.raw_micros() >= 1_234.0);
    }

    #[test]
    fn watch_ext_ships_epoch_verifiers() {
        let env = ExtEnv::new();
        let quotes = SimpleExternal::new("stock:XRX", "42.50");
        env.add(quotes.clone());
        let (space, doc) = setup("body");
        let prop = ScriptProperty::compile(
            "quotes",
            "@watch_ext(\"stock:XRX\")\nappend_ext(\"stock:XRX\")",
            env,
        )
        .unwrap();
        space
            .attach_active(Scope::Personal(ALICE), doc, prop)
            .unwrap();
        let (bytes, report) = space.read_document(ALICE, doc).unwrap();
        assert_eq!(bytes, "body42.50");
        let clock = space.clock();
        let epoch_verifier = report.verifiers.last().unwrap();
        assert_eq!(epoch_verifier.check(clock), Validity::Valid);
        quotes.set("43.00");
        assert_eq!(epoch_verifier.check(clock), Validity::Invalid);
    }

    #[test]
    fn conditions_see_document_properties() {
        let (space, doc) = setup("doc");
        space
            .attach_static(Scope::Personal(ALICE), doc, "lang", "fr")
            .unwrap();
        let prop = ScriptProperty::compile(
            "tag",
            r#"if(prop("lang") == "fr", append(" [fr]"))"#,
            ExtEnv::new(),
        )
        .unwrap();
        space
            .attach_active(Scope::Personal(ALICE), doc, prop)
            .unwrap();
        let (bytes, _) = space.read_document(ALICE, doc).unwrap();
        assert_eq!(bytes, "doc [fr]");
    }

    #[test]
    fn registry_attaches_source_strings() {
        let (space, doc) = setup("runtime");
        register_proplang(space.registry(), ExtEnv::new());
        space
            .attach_by_name(
                Scope::Personal(ALICE),
                doc,
                "proplang",
                &Params::new()
                    .with("name", "shout")
                    .with("source", "upper | append(\"!\")"),
            )
            .unwrap();
        let (bytes, _) = space.read_document(ALICE, doc).unwrap();
        assert_eq!(bytes, "RUNTIME!");
    }

    #[test]
    fn bad_source_fails_at_attach_time() {
        let (space, doc) = setup("x");
        register_proplang(space.registry(), ExtEnv::new());
        let err = space
            .attach_by_name(
                Scope::Personal(ALICE),
                doc,
                "proplang",
                &Params::new().with("source", "bogus_transform"),
            )
            .err()
            .unwrap();
        assert!(matches!(err, PlacelessError::Script(_)));
        assert!(space
            .attach_by_name(Scope::Personal(ALICE), doc, "proplang", &Params::new())
            .is_err());
    }

    #[test]
    fn on_write_scripts_transform_the_write_path() {
        let (space, doc) = setup("original");
        let prop = ScriptProperty::compile(
            "normalize",
            "@on(write)\ntrim | replace(\"teh\", \"the\")",
            ExtEnv::new(),
        )
        .unwrap();
        space
            .attach_active(Scope::Personal(ALICE), doc, prop)
            .unwrap();
        space
            .write_document(ALICE, doc, b"  teh saved draft  ")
            .unwrap();
        let (bytes, _) = space.read_document(ALICE, doc).unwrap();
        assert_eq!(bytes, "the saved draft", "write-path pipeline ran");
    }

    #[test]
    fn on_both_scripts_run_twice() {
        let (space, doc) = setup("");
        let prop =
            ScriptProperty::compile("stamp", "@on(both)\nappend(\"+\")", ExtEnv::new()).unwrap();
        space
            .attach_active(Scope::Personal(ALICE), doc, prop)
            .unwrap();
        space.write_document(ALICE, doc, b"x").unwrap();
        let (bytes, _) = space.read_document(ALICE, doc).unwrap();
        assert_eq!(bytes, "x++", "once on write, once on read");
    }

    #[test]
    fn transform_tokens_fingerprint_source_props_and_epochs() {
        let env = ExtEnv::new();
        let quotes = SimpleExternal::new("stock:XRX", "42.50");
        env.add(quotes.clone());
        let (space, doc) = setup("body");
        let lang_id = space
            .attach_static(Scope::Personal(ALICE), doc, "lang", "fr")
            .unwrap();
        let prop = ScriptProperty::compile(
            "quotes",
            "if(prop(\"lang\") == \"fr\", append(\" [fr]\")) | append_ext(\"stock:XRX\")",
            env.clone(),
        )
        .unwrap();
        space
            .attach_active(Scope::Personal(ALICE), doc, prop)
            .unwrap();

        let token = |space: &Arc<DocumentSpace>| {
            let plan = space.read_plan(ALICE, doc).unwrap();
            plan.stages.last().unwrap().token.clone()
        };
        let t0 = token(&space).expect("declared dependencies yield a token");
        assert_eq!(token(&space).unwrap(), t0, "token is stable");

        // An external-source change re-keys the stage.
        quotes.set("43.00");
        let t1 = token(&space).expect("still tokenised");
        assert_ne!(t0, t1, "epoch bump must change the token");

        // A static-property change re-keys the stage.
        space
            .remove_property(Scope::Personal(ALICE), doc, lang_id)
            .unwrap();
        space
            .attach_static(Scope::Personal(ALICE), doc, "lang", "de")
            .unwrap();
        assert_ne!(token(&space).unwrap(), t1, "prop change must re-key");
    }

    #[test]
    fn subst_and_unknown_externals_stay_opaque() {
        let env = ExtEnv::new();
        let (space, doc) = setup("x");
        let subst = ScriptProperty::compile("s", "subst", env.clone()).unwrap();
        space
            .attach_active(Scope::Personal(ALICE), doc, subst)
            .unwrap();
        let plan = space.read_plan(ALICE, doc).unwrap();
        assert!(
            plan.stages.last().unwrap().token.is_none(),
            "subst has an undeclarable dependency set"
        );

        let (space, doc) = setup("x");
        let ghost = ScriptProperty::compile("g", "append_ext(\"ghost\")", ExtEnv::new()).unwrap();
        space
            .attach_active(Scope::Personal(ALICE), doc, ghost)
            .unwrap();
        let plan = space.read_plan(ALICE, doc).unwrap();
        assert!(
            plan.stages.last().unwrap().token.is_none(),
            "unresolvable external source must not be signed"
        );
    }

    #[test]
    fn missing_watch_ext_source_fails_at_read_time() {
        let (space, doc) = setup("x");
        let prop = ScriptProperty::compile("broken", "@watch_ext(\"ghost\")\nupper", ExtEnv::new())
            .unwrap();
        space
            .attach_active(Scope::Personal(ALICE), doc, prop)
            .unwrap();
        assert!(space.read_document(ALICE, doc).is_err());
    }
}
