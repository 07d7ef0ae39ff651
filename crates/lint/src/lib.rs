//! `surveyor-lint` — a workspace static-analysis pass enforcing the
//! determinism and panic-freedom invariants earlier PRs promised.
//!
//! Surveyor guarantees bit-identical output across thread counts,
//! schema-stable run reports, and panic-isolated fault-tolerant
//! sharding — none of which the compiler checks. A stray `unwrap()` in
//! a shard worker silently converts a typed `ShardError` into a
//! quarantine; an `Instant::now()` or unseeded RNG in a decision path
//! breaks reproducibility; a `std::collections::HashMap` feeding a
//! report breaks `diff`-ability. Clippy has no notion of these domain
//! rules, and the offline vendored toolchain rules out dylint/syn, so
//! this crate rebuilds the analyzer from scratch, in two layers:
//!
//! - [`lexer`] — a hand-rolled, panic-free Rust lexer (comments,
//!   strings, raw strings, char-vs-lifetime, byte-range spans);
//! - [`syntax`] — brace-matched token trees and item extraction
//!   (fn/impl/mod/use with spans and visibility) over the lexer;
//! - [`config`] — the committed `lint.toml` scoping rules to
//!   crates/paths, parsed by a minimal hand-rolled TOML-subset reader;
//! - [`rules`] — the rule table and token-level scan engine, with
//!   per-line `// lint:allow(<rule>)` pragmas and unused-allow
//!   detection;
//! - [`callgraph`] — per-crate function call graphs and the four
//!   flow-aware rules (panic reachability, lock ordering, unordered
//!   iteration taint, deadline propagation);
//! - [`walker`] — deterministic sorted workspace traversal;
//! - [`cache`] — the incremental cache under `artifacts/`, keyed on
//!   (content hash, lint.toml hash, rule-set version);
//! - [`json`] — a panic-free JSON reader for the cache and report
//!   re-hydration;
//! - [`output`] — `file:line:col` human listings and the versioned
//!   (v2) JSON report, with a v1-compatible reader.
//!
//! Files are scanned in parallel on the ordered `surveyor_par` worker
//! pool and merged back in walk order, then the flow rules run over the full
//! summary set — so the report is byte-identical at any worker count
//! and with a cold or warm cache.
//!
//! The binary (`cargo run --release -p surveyor-lint`) exits 0 on a
//! clean workspace, 1 when there are findings (after `--max-severity`
//! filtering), and 2 on usage or configuration errors —
//! `scripts/verify.sh` treats any nonzero exit as a gate failure.
//!
//! ```
//! use surveyor_lint::{config::LintConfig, rules};
//!
//! let mut findings = Vec::new();
//! rules::scan_file(
//!     "crates/demo/src/lib.rs",
//!     b"fn f(x: Option<u8>) -> u8 { x.unwrap() }",
//!     false,
//!     &LintConfig::default(),
//!     &mut findings,
//! );
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "no-panic-in-lib");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod callgraph;
pub mod config;
pub mod json;
pub mod lexer;
pub mod output;
pub mod rules;
pub mod syntax;
pub mod walker;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Result of linting a workspace: sorted findings plus scan stats.
#[derive(Debug, Clone, Default)]
pub struct LintRun {
    /// All findings, sorted by `(file, line, col, rule, message)`.
    pub findings: Vec<rules::Finding>,
    /// How many files were scanned.
    pub files_scanned: usize,
    /// How many of those were reused from the incremental cache.
    pub files_reused: usize,
}

/// Errors that stop a lint run before any file is judged.
#[derive(Debug)]
pub enum LintError {
    /// `lint.toml` is missing or malformed.
    Config(String),
    /// The workspace could not be read.
    Io(String),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(m) | Self::Io(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for LintError {}

/// Execution options for [`lint_workspace_with`].
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Worker threads for the file-scan phase; 0 means "available
    /// parallelism" (capped at 8 — scans are short).
    pub workers: usize,
    /// Where to load/store the incremental cache; `None` disables it.
    pub cache_path: Option<PathBuf>,
}

/// Lints every `.rs` file under `root` using `config`, on one worker
/// per available core (capped at 8) and without a cache. Findings come
/// back sorted, so two runs over the same tree are byte-identical.
/// Equivalent to [`lint_workspace_with`] with default [`LintOptions`].
pub fn lint_workspace(root: &Path, config: &config::LintConfig) -> Result<LintRun, LintError> {
    lint_workspace_with(root, config, &LintOptions::default())
}

/// Lints every `.rs` file under `root` using `config`, on the ordered
/// worker pool and with the incremental cache.
///
/// The pipeline: collect files (sorted), scan each in parallel (cache
/// hits skip the lex/parse entirely), merge per-file scans back in
/// walk order, run the flow rules over all summaries, then apply
/// pragmas globally and sort. Worker count and cache state can only
/// change wall-time, never the findings — which is why neither appears
/// in the JSON report.
pub fn lint_workspace_with(
    root: &Path,
    config: &config::LintConfig,
    opts: &LintOptions,
) -> Result<LintRun, LintError> {
    let files = walker::collect_rust_files(root, config)
        .map_err(|e| LintError::Io(format!("walking {}: {e}", root.display())))?;
    let config_hash = cache::fnv1a(format!("{config:?}").as_bytes());
    let mut cached = match &opts.cache_path {
        Some(path) => cache::load(path, config_hash).entries,
        None => BTreeMap::new(),
    };
    let cache_total = cached.len();

    let workers = match opts.workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get().min(8)),
        n => n,
    };

    // Scan files on the ordered pool; results come back in walk order
    // regardless of timing. A cache hit returns no scan: its cached scan
    // is moved out below, on the calling thread, because cloning scans
    // is the largest cost of a warm run after parsing the cache.
    let (scanned, _) = surveyor_par::map(
        files.len(),
        workers,
        || (),
        |(), idx| {
            let file = &files[idx];
            let src = std::fs::read(&file.abs)
                .map_err(|e| LintError::Io(format!("reading {}: {e}", file.rel)))?;
            let hash = cache::fnv1a(&src);
            let fresh = match cached.get(&file.rel) {
                Some(entry) if entry.hash == hash => None,
                _ => Some(rules::analyze_file(
                    &file.rel,
                    &src,
                    file.is_crate_root,
                    config,
                )),
            };
            Ok((hash, fresh))
        },
    );
    let mut scans: Vec<rules::FileScan> = Vec::with_capacity(files.len());
    let mut hashes: Vec<u64> = Vec::with_capacity(files.len());
    let mut files_reused = 0usize;
    for (file, scanned) in files.iter().zip(scanned) {
        let (hash, fresh) = scanned?;
        let scan = match fresh {
            Some(scan) => scan,
            None => {
                files_reused += 1;
                cached
                    .remove(&file.rel)
                    .ok_or_else(|| LintError::Io(format!("cache entry for {} vanished", file.rel)))?
                    .scan
            }
        };
        hashes.push(hash);
        scans.push(scan);
    }

    let (flow, gated) = callgraph::run_flow_rules(&scans, config);
    let findings = rules::finalize(&scans, flow, &gated);

    if let Some(path) = &opts.cache_path {
        // A fully warm run (every file reused, no stale entries) leaves
        // the cache byte-identical; skip the rewrite so warm runs pay
        // for one JSON parse, not parse+print. Best-effort either way:
        // a read-only checkout must not fail the gate.
        if files_reused != files.len() || cache_total != files.len() {
            let mut entries: BTreeMap<String, cache::CacheEntry> = BTreeMap::new();
            for (hash, scan) in hashes.into_iter().zip(scans) {
                entries.insert(scan.rel.clone(), cache::CacheEntry { hash, scan });
            }
            let _ = cache::store(path, config_hash, &entries);
        }
    }

    Ok(LintRun {
        findings,
        files_scanned: files.len(),
        files_reused,
    })
}

/// Loads `lint.toml` from `path`.
pub fn load_config(path: &Path) -> Result<config::LintConfig, LintError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| LintError::Config(format!("reading {}: {e}", path.display())))?;
    let parsed = config::parse(&src).map_err(|e| LintError::Config(e.to_string()))?;
    for rule in parsed.rules.keys() {
        if rules::rule_by_name(rule).is_none() {
            return Err(LintError::Config(format!(
                "lint.toml configures unknown rule `{rule}` (known: {})",
                rules::RULES
                    .iter()
                    .map(|r| r.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )));
        }
    }
    Ok(parsed)
}
