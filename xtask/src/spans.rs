//! Span-name registration checker for the structured trace layer.
//!
//! Phase attribution in `ftclust_netsim::trace` is name-based: the
//! rollup and reconciliation machinery groups events by span name, and
//! exporters surface those names verbatim. Names are written in exactly
//! one place — the first argument of the `Phase::{span, indexed, repeat,
//! tail}` constructors that build an executor's span plan — so that is
//! where they are checked. A misspelled or ad-hoc span name silently
//! fragments the per-phase tables, so every name must appear in the
//! `REGISTERED_SPANS` registry in `crates/netsim/src/trace.rs`:
//!
//! * **span-registry-missing** — the registry constant could not be
//!   parsed out of the trace module (moved or renamed without updating
//!   this checker).
//! * **span-name-unregistered** — a `Phase` constructor is passed a
//!   string literal that is not in `REGISTERED_SPANS`.
//! * **span-name-not-literal** — a constructor is passed a computed
//!   name; the checker (and readers) must be able to see the name at the
//!   call site, so span names are literals by policy.

use crate::source::SourceFile;
use crate::Violation;

/// The module holding the `REGISTERED_SPANS` registry.
pub(crate) const TRACE_FILE: &str = "crates/netsim/src/trace.rs";

/// Source trees scanned for `Phase` constructor calls: the simulator
/// crate plus every protocol driver with a span plan.
pub(crate) const SPAN_SCOPES: &[&str] = &[
    "crates/netsim/src",
    "crates/core/src/fractional/protocol.rs",
    "crates/core/src/rounding/protocol.rs",
    "crates/core/src/udg/protocol.rs",
    "crates/core/src/repair.rs",
    "crates/core/src/portfolio",
];

/// Parses the registered span names out of the trace module.
///
/// Finds `REGISTERED_SPANS` in the scrubbed text (so mentions in
/// comments don't match), then reads the string literals between the
/// following `[` and `]` from the **raw** text — the scrubbed copy has
/// the literal bodies blanked, but offsets map 1:1.
pub(crate) fn registry(file: &SourceFile) -> Option<Vec<String>> {
    let at = file.scrubbed.find("REGISTERED_SPANS")?;
    // Skip past the `=`: the type annotation `&[&str]` has brackets too.
    let eq = at + file.scrubbed[at..].find('=')?;
    let open = eq + file.scrubbed[eq..].find('[')?;
    let close = open + file.scrubbed[open..].find(']')?;
    let names: Vec<String> = file.raw[open + 1..close]
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect();
    if names.is_empty() {
        None
    } else {
        Some(names)
    }
}

/// The `Phase` constructors whose first argument is a span name.
const CONSTRUCTORS: &[&str] = &[
    "Phase::span(",
    "Phase::indexed(",
    "Phase::repeat(",
    "Phase::tail(",
];

/// Checks the span name of every `Phase` constructor call in `file`
/// against the registered names.
pub(crate) fn check(file: &SourceFile, registered: &[String], out: &mut Vec<Violation>) {
    for needle in CONSTRUCTORS {
        let mut from = 0;
        while let Some(pos) = file.scrubbed[from..].find(needle) {
            let at = from + pos;
            from = at + needle.len();
            // A suffix of a longer path segment (`MyPhase::span(`).
            if file.scrubbed[..at]
                .chars()
                .last()
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                continue;
            }
            let arg = file.raw[at + needle.len()..].trim_start();
            if let Some(rest) = arg.strip_prefix('"') {
                let Some(end) = rest.find('"') else { continue };
                let name = &rest[..end];
                if !registered.iter().any(|r| r == name) {
                    out.push(Violation {
                        rule: "span-name-unregistered",
                        path: file.rel_path.clone(),
                        line: file.line_of(at),
                        message: format!(
                            "span name {name:?} is not in REGISTERED_SPANS ({TRACE_FILE}); \
                             register it or fix the typo"
                        ),
                    });
                }
            } else {
                out.push(Violation {
                    rule: "span-name-not-literal",
                    path: file.rel_path.clone(),
                    line: file.line_of(at),
                    message: "span name must be a string literal so the registry \
                              check can audit it"
                        .to_owned(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel_path: &str, src: &str) -> SourceFile {
        SourceFile::new(rel_path.into(), src.into())
    }

    fn run(src: &str, registered: &[&str]) -> Vec<Violation> {
        let reg: Vec<String> = registered.iter().map(|s| (*s).to_owned()).collect();
        let mut v = Vec::new();
        check(&file("test.rs", src), &reg, &mut v);
        v
    }

    const REGISTRY_SRC: &str = r#"
/// Doc mentioning REGISTERED_SPANS should not confuse the parser.
pub const REGISTERED_SPANS: &[&str] = &["dyndeg", "raise", "repair_iter"];
"#;

    #[test]
    fn parses_registry_from_trace_source() {
        let names = registry(&file("trace.rs", REGISTRY_SRC)).unwrap();
        assert_eq!(names, ["dyndeg", "raise", "repair_iter"]);
    }

    #[test]
    fn parses_the_real_registry() {
        let root = crate::workspace_root();
        let f = SourceFile::load(&root.join(TRACE_FILE), TRACE_FILE.to_owned()).unwrap();
        let names = registry(&f).expect("registry present in trace.rs");
        assert!(names.contains(&"dyndeg".to_owned()));
        assert!(names.contains(&"repair_iter".to_owned()));
    }

    #[test]
    fn registry_absent_yields_none() {
        assert!(registry(&file("other.rs", "pub fn nothing() {}")).is_none());
    }

    #[test]
    fn registered_names_pass() {
        let v = run(
            r#"
fn plan(m: u64) -> Vec<Phase> {
    vec![
        Phase::span("dyndeg", 1),
        Phase::indexed("raise", m, 1),
        exec::Phase::repeat("repair_iter", 3),
        Phase::tail( "dyndeg"),
    ]
}
"#,
            &["dyndeg", "raise", "repair_iter"],
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unregistered_name_is_flagged_with_line() {
        let v = run(
            r#"
fn plan() -> Vec<Phase> {
    vec![Phase::span("dyndeg", 1),
         Phase::repeat("dyndegg", 3)]
}
"#,
            &["dyndeg"],
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "span-name-unregistered");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn computed_name_is_flagged() {
        let v = run(
            r#"
fn plan(name: &'static str) -> Vec<Phase> {
    vec![Phase::repeat(name, 3)]
}
"#,
            &["dyndeg"],
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "span-name-not-literal");
    }

    #[test]
    fn definitions_comments_and_longer_identifiers_are_ignored() {
        let v = run(
            r#"
impl Phase {
    /// Calls Phase::span("bogus", 1) conceptually.
    pub fn span(name: &'static str, rounds: u64) -> Self { todo!() }
}
// Phase::tail("also-bogus");
fn plan(sim: &mut Simulator) {
    MyPhase::span("bogus", 1);
    sim.span_enter("bogus", None);
}
"#,
            &["dyndeg"],
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
