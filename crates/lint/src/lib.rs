//! `storm-lint`: static enforcement of StorM's dataplane invariants.
//!
//! The evaluation figures only reproduce because two properties survive
//! every refactor: simulation runs are **bit-for-bit deterministic**
//! (equal seeds produce byte-identical traces) and the active-relay
//! datapath stays **zero-copy** (`bytes_copied_per_pdu = 0`). Runtime
//! tests (`tests/trace_determinism.rs`, `tests/zero_copy_relay.rs`)
//! catch violations late; this crate catches them at the source level in
//! seconds, the way verification-oriented dataplane work (Dobrescu &
//! Argyraki, NSDI'14) checks invariants statically.
//!
//! Because the offline build vendors no parser crates, the scanner is a
//! small hand-rolled token lexer ([`lexer`]) rather than a `syn` AST
//! walk. On top of it, [`symbols`] extracts per-file item summaries
//! (functions, calls, imports, direct taint sources), [`callgraph`]
//! links call sites to definitions workspace-wide, and [`taint`] runs a
//! fixpoint that propagates source properties backward along calls — so
//! a simulation function that reaches `Instant::now()` three crates
//! away is flagged at the boundary call with the full chain.
//!
//! # Rules
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `no-wall-clock` | determinism crates | no `SystemTime`/`Instant`/`std::time` |
//! | `no-ambient-rand` | determinism crates | no `thread_rng`/`OsRng`/`rand::random` |
//! | `no-hash-iter` | determinism crates | no iteration over `HashMap`/`HashSet` |
//! | `no-hot-path-copy` | datapath modules | no `.to_vec()`/`copy_from_slice`/`extend_from_slice` |
//! | `no-panic` | datapath modules | no `unwrap`/`expect`/`panic!` |
//! | `forbid-unsafe` | every crate root | `#![forbid(unsafe_code)]` present |
//! | `no-transitive-nondeterminism` | determinism crates | no call chain reaching clock/rand/hash-order sources |
//! | `no-alloc-on-datapath` | curated hot functions | no reachable allocation (`vec!`, `Box::new`, `.collect()`, ...) |
//! | `no-blocking-in-shard` | `ShardSim` impls | no reachable `sleep`/`.lock()`/`.recv()` |
//! | `metric-name-registry` | whole workspace | metric-name literals must match `storm_telemetry::names` constants |
//! | `stale-allow` | whole workspace | every allow-comment must suppress something |
//!
//! Escape hatches: a per-rule path allowlist in [`Config`], and inline
//! `// storm-lint: allow(<rule>): <why>` comments covering their own
//! line and the next code line (the justification may continue over
//! further comment lines). For chain findings an allow on **any frame**
//! of the chain silences the finding. Test code (`#[cfg(test)]` /
//! `#[test]` items) is exempt from all location rules. Allows that
//! suppress nothing are themselves findings (`stale-allow`).
//!
//! # Invocation
//!
//! ```text
//! cargo run -p storm-lint -- --workspace            # human diagnostics
//! cargo run -p storm-lint -- --workspace --json     # machine-readable
//! cargo run -p storm-lint -- --workspace --sarif    # code-scanning upload
//! ```

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod symbols;
pub mod taint;
pub mod walk;

pub use config::{Config, FileClass};
pub use diag::{render_human, render_json, render_sarif, Finding};
pub use rules::{Rule, ALL_RULES};

use std::fs;
use std::io;
use std::path::Path;

/// Analyzes one file's source text under `class`, appending findings.
/// Findings within the file come out in source order. Single-file mode
/// runs only the lexical rules — interprocedural rules need the whole
/// workspace ([`analyze_workspace`]).
pub fn analyze_source(class: &FileClass, source: &str, cfg: &Config) -> Vec<Finding> {
    let lexed = lexer::lex(source);
    let mut out = Vec::new();
    rules::check_file(class, &lexed, cfg, &mut out);
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Scans the whole workspace rooted at `root`: summarize every file,
/// build the call graph, run taint propagation, and evaluate every rule.
/// Returns the findings sorted by `(file, line, col, rule)` and the
/// number of files scanned.
pub fn analyze_workspace(root: &Path, cfg: &Config) -> io::Result<(Vec<Finding>, usize)> {
    let files = walk::workspace_files(root)?;
    let mut summaries = Vec::with_capacity(files.len());
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        summaries.push(symbols::summarize(rel, &source));
    }
    let ws = callgraph::Workspace::build(summaries);
    let t = taint::propagate(&ws);
    let mut findings = taint::evaluate(&ws, &t, cfg);
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    Ok((findings, files.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net_class(name: &str) -> FileClass {
        FileClass::from_rel_path(&format!("crates/net/src/{name}"))
    }

    #[test]
    fn clean_source_has_no_findings() {
        let src = "use std::collections::BTreeMap;\nfn f(m: &BTreeMap<u32, u32>) -> u32 {\n    m.values().sum()\n}\n";
        let out = analyze_source(&net_class("clean.rs"), src, &Config::default());
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn findings_sorted_in_source_order() {
        let src = "fn f() {\n    let t = SystemTime::now();\n    let r = thread_rng();\n}\n";
        let out = analyze_source(&net_class("dirty.rs"), src, &Config::default());
        assert_eq!(out.len(), 2);
        assert!(out[0].line < out[1].line);
        assert_eq!(out[0].rule, "no-wall-clock");
        assert_eq!(out[1].rule, "no-ambient-rand");
    }

    #[test]
    fn out_of_scope_crate_is_untouched() {
        let src = "fn f() { let t = SystemTime::now(); }\n";
        let class = FileClass::from_rel_path("crates/workloads/src/x.rs");
        assert!(analyze_source(&class, src, &Config::default()).is_empty());
    }
}
