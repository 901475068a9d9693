//! Scope and allowlist configuration.
//!
//! The scopes are part of the invariant story, so they live in code
//! (reviewed like any other change) rather than in a config file:
//!
//! - **Determinism rules** cover every crate whose state feeds the
//!   simulation, traces or metrics.
//! - **Datapath rules** cover the modules on the relay fast path, where
//!   PR 3's `bytes_copied_per_pdu = 0` result and the no-abort
//!   guarantee are measured.

use crate::rules::Rule;

/// How a scanned file is classified. Paths are workspace-relative with
/// `/` separators (`crates/net/src/tcp.rs`).
#[derive(Debug, Clone)]
pub struct FileClass {
    /// Short crate name: `net`, `sim`, ... (`storm` for the root crate).
    pub crate_name: String,
    /// Workspace-relative path.
    pub rel_path: String,
    /// True for `src/lib.rs` of a workspace crate.
    pub is_crate_root: bool,
}

impl FileClass {
    /// Classifies a workspace-relative path.
    pub fn from_rel_path(rel_path: &str) -> FileClass {
        let rel = rel_path.replace('\\', "/");
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("storm")
            .to_string();
        let is_crate_root = rel.ends_with("src/lib.rs");
        FileClass {
            crate_name,
            rel_path: rel,
            is_crate_root,
        }
    }
}

/// Lint configuration: rule scopes and per-rule path allowlists.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates whose code must be deterministic (wall-clock, ambient
    /// randomness and hash-order rules).
    pub determinism_crates: Vec<String>,
    /// Individual files under determinism rules in crates that are
    /// otherwise exempt (e.g. the fleet model inside storm-bench, whose
    /// smoke binary legitimately reads wall clocks).
    pub determinism_files: Vec<String>,
    /// Path suffixes of zero-copy / no-panic datapath modules.
    pub datapath_files: Vec<String>,
    /// `(rule, path suffix)` pairs exempting whole files from a rule.
    pub allow_paths: Vec<(Rule, String)>,
    /// `(file suffix, fn name)` roots of the `no-alloc-on-datapath`
    /// rule: the hot functions from which reachable allocations are
    /// flagged. Curated rather than "every fn in a datapath file" so
    /// that constructors and setup paths stay free to allocate.
    pub alloc_roots: Vec<(String, String)>,
    /// Trait names whose impl methods root `no-blocking-in-shard`.
    pub shard_traits: Vec<String>,
    /// Files whose `pub const NAME: &str = "..."` items define the
    /// legal metric names for `metric-name-registry`.
    pub metric_name_files: Vec<String>,
    /// Extra metric names accepted by `metric-name-registry` on top of
    /// the constants harvested from `metric_name_files`. Workspace mode
    /// unions both; single-file mode (`analyze_source`) only checks the
    /// rule at all when this list is non-empty.
    pub metric_names: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            determinism_crates: [
                "sim",
                "net",
                "core",
                "cloud",
                "telemetry",
                "faults",
                "qos",
                "services",
                "nvmeq",
            ]
            .map(String::from)
            .to_vec(),
            determinism_files: ["crates/bench/src/fleet.rs"].map(String::from).to_vec(),
            datapath_files: [
                "crates/core/src/relay/active.rs",
                "crates/core/src/relay/codec.rs",
                "crates/core/src/relay/queue.rs",
                "crates/iscsi/src/stream.rs",
                "crates/nvmeq/src/stream.rs",
                "crates/net/src/tcp.rs",
                "crates/net/src/frame.rs",
                "crates/services/src/assembly.rs",
                "crates/services/src/cache.rs",
                "crates/services/src/dedup.rs",
                "crates/services/src/compress.rs",
                "crates/services/src/snapshot.rs",
            ]
            .map(String::from)
            .to_vec(),
            allow_paths: Vec::new(),
            // The curation line: these functions move bytes per PDU and
            // are allocation-free today — the rule locks that in.
            // Deliberately absent: the chain orchestrators
            // (`run_unit`, `handle_pair_data`, `release`, ...) whose
            // contract is to *produce* new PDUs and side actions, the
            // relay codec's message and frame builders (`decode`,
            // `frame_ingress`, `encode_frame`), and the wire-image
            // extractors (`take_wire`, `extract`, `split_units`,
            // `next_frame`) which return owned buffers by design.
            alloc_roots: [
                ("crates/core/src/relay/codec.rs", "queue_pdu"),
                ("crates/core/src/relay/active.rs", "outbound"),
                ("crates/core/src/relay/active.rs", "retire_in_chain"),
                ("crates/core/src/service.rs", "of_scsi"),
                ("crates/core/src/service.rs", "open"),
                ("crates/core/src/service.rs", "get"),
                ("crates/core/src/service.rs", "retire"),
                ("crates/iscsi/src/stream.rs", "feed_bytes"),
                ("crates/iscsi/src/stream.rs", "push_chunk"),
                ("crates/iscsi/src/stream.rs", "peek_into"),
                ("crates/iscsi/src/stream.rs", "next_pdu"),
                ("crates/iscsi/src/stream.rs", "push_bytes"),
                ("crates/nvmeq/src/stream.rs", "feed_bytes"),
                ("crates/nvmeq/src/stream.rs", "push_chunk"),
                ("crates/nvmeq/src/stream.rs", "peek_into"),
                ("crates/net/src/tcp.rs", "send_bytes"),
                ("crates/net/src/tcp.rs", "send_chunks"),
                ("crates/net/src/tcp.rs", "input"),
                ("crates/net/src/tcp.rs", "rx_data"),
                ("crates/net/src/tcp.rs", "pump"),
                ("crates/net/src/tcp.rs", "unsent_payload"),
            ]
            .map(|(f, n)| (f.to_string(), n.to_string()))
            .to_vec(),
            shard_traits: ["ShardSim"].map(String::from).to_vec(),
            metric_name_files: ["crates/telemetry/src/names.rs"].map(String::from).to_vec(),
            metric_names: Vec::new(),
        }
    }
}

impl Config {
    /// Whether determinism rules apply to `class`.
    pub fn is_determinism_scoped(&self, class: &FileClass) -> bool {
        self.determinism_crates
            .iter()
            .any(|c| c == &class.crate_name)
            || self
                .determinism_files
                .iter()
                .any(|f| class.rel_path.ends_with(f.as_str()))
    }

    /// Whether `class` is a datapath module (zero-copy + panic rules).
    pub fn is_datapath(&self, class: &FileClass) -> bool {
        self.datapath_files
            .iter()
            .any(|f| class.rel_path.ends_with(f.as_str()))
    }

    /// Whether `rule` is allowlisted for this file by configuration.
    pub fn is_path_allowed(&self, rule: Rule, class: &FileClass) -> bool {
        self.allow_paths
            .iter()
            .any(|(r, p)| *r == rule && class.rel_path.ends_with(p.as_str()))
    }

    /// Whether `fn_name` in `rel_path` roots `no-alloc-on-datapath`.
    pub fn is_alloc_root(&self, rel_path: &str, fn_name: &str) -> bool {
        self.alloc_roots
            .iter()
            .any(|(f, n)| rel_path.ends_with(f.as_str()) && n == fn_name)
    }

    /// Whether `trait_name` roots `no-blocking-in-shard`.
    pub fn is_shard_trait(&self, trait_name: &str) -> bool {
        self.shard_traits.iter().any(|t| t == trait_name)
    }

    /// Whether `rel_path` defines the legal metric names.
    pub fn is_metric_name_file(&self, rel_path: &str) -> bool {
        self.metric_name_files
            .iter()
            .any(|f| rel_path.ends_with(f.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_crate_and_root() {
        let c = FileClass::from_rel_path("crates/net/src/tcp.rs");
        assert_eq!(c.crate_name, "net");
        assert!(!c.is_crate_root);
        let r = FileClass::from_rel_path("crates/sim/src/lib.rs");
        assert!(r.is_crate_root);
        let top = FileClass::from_rel_path("src/lib.rs");
        assert_eq!(top.crate_name, "storm");
        assert!(top.is_crate_root);
    }

    #[test]
    fn default_scopes() {
        let cfg = Config::default();
        assert!(cfg.is_determinism_scoped(&FileClass::from_rel_path("crates/sim/src/rng.rs")));
        assert!(
            !cfg.is_determinism_scoped(&FileClass::from_rel_path("crates/workloads/src/fio.rs"))
        );
        // The fleet model is determinism-scoped by file even though the
        // rest of storm-bench (wall-clock measurement) is exempt.
        assert!(cfg.is_determinism_scoped(&FileClass::from_rel_path("crates/bench/src/fleet.rs")));
        assert!(!cfg.is_determinism_scoped(&FileClass::from_rel_path(
            "crates/bench/src/bin/bench_smoke.rs"
        )));
        assert!(cfg.is_datapath(&FileClass::from_rel_path("crates/net/src/frame.rs")));
        assert!(!cfg.is_datapath(&FileClass::from_rel_path("crates/net/src/nat.rs")));
        // The multi-queue wire path and its relay bridge are datapath;
        // the whole nvmeq crate is determinism-scoped.
        assert!(cfg.is_datapath(&FileClass::from_rel_path("crates/nvmeq/src/stream.rs")));
        assert!(cfg.is_datapath(&FileClass::from_rel_path("crates/core/src/relay/queue.rs")));
        assert!(cfg.is_determinism_scoped(&FileClass::from_rel_path("crates/nvmeq/src/codec.rs")));
    }

    #[test]
    fn path_allowlist() {
        let mut cfg = Config::default();
        cfg.allow_paths
            .push((Rule::NoPanic, "net/src/tcp.rs".to_string()));
        let c = FileClass::from_rel_path("crates/net/src/tcp.rs");
        assert!(cfg.is_path_allowed(Rule::NoPanic, &c));
        assert!(!cfg.is_path_allowed(Rule::NoHashIter, &c));
    }
}
