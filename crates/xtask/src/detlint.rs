//! The determinism lint: scan engine-crate sources for constructs whose
//! behavior depends on anything other than the program inputs.
//!
//! The scanner is lexical, not syntactic — the workspace deliberately
//! vendors no Rust parser — so it strips comments and string literals
//! and then searches for forbidden tokens. That makes it conservative
//! in the right direction: a token inside real code is always seen, and
//! prose about a token (doc comments, log strings) never trips it.
//!
//! Forbidden everywhere in the engine crates:
//!
//! * `Instant::now` / `SystemTime` — wall-clock reads; simulated time
//!   comes from the tick counter.
//! * `thread_rng` / `from_entropy` / `rand::` — ambient randomness; all
//!   randomness flows through seeded `dlp_common::SplitMix64`.
//! * `.par_iter` / `.par_bridge` / `par_chunks` — unordered parallel
//!   reductions; the sweep's parallelism merges results in cell order.
//!
//! Additionally forbidden in the *hot* crates (`sim`, `noc`, `mem`),
//! where an iteration-order dependence silently changes statistics:
//!
//! * `HashMap` / `HashSet` — use `BTreeMap`/`BTreeSet`, sorted `Vec`s,
//!   or index-keyed arrays; a justified lookup-only site goes in the
//!   allowlist.
//!
//! Additionally forbidden in the lane-batched engine
//! (`crates/sim/src/batch/`) and in the instruction semantics it calls
//! once per lane class (`crates/sim/src/semantics/`), whose bit-identity
//! contract (DESIGN.md §10) rests on every observable per-class step
//! walking lane classes in ascending index order:
//!
//! * `.rev()` — descending iteration would reorder per-class fault
//!   rolls and stats updates relative to the scalar engines.
//! * `sort_unstable` — unspecified tie order; use a stable sort keyed
//!   on the class index if ordering is ever needed.
//! * `swap_remove` — reorders the tail; lane-indexed tables must keep
//!   their positions.
//! * `.keys()` / `.values()` — map iteration hides what order classes
//!   are visited in; iterate the class index range instead.
//! * `continue` between `detlint: simd-loop-begin` / `simd-loop-end`
//!   markers — the tagged word-at-a-time passes (DESIGN.md §12) are
//!   branch-free by contract so the autovectorizer can keep them SIMD
//!   (`cargo xtask asmcheck` greps the release assembly for vector
//!   ops); a per-lane early-`continue` reintroduces control flow.
//!   Select with a mask word instead.
//!
//! Additionally forbidden in the persistence layer
//! (`crates/core/src/store/`), whose crash-consistency contract
//! (DESIGN.md §11) requires every durable write to go through the
//! atomic writer — bare writes have no fsync, no rename commit point,
//! no seal, and no crashpoint instrumentation:
//!
//! * `fs::write` / `File::create` — use `atomic_write_file`. Test
//!   modules are exempt (corrupting files is how the tests exercise the
//!   recovery paths): the store rule scans only the code before the
//!   first `#[cfg(test)]`.
//!
//! The allowlist (`detlint.allow`) holds one entry per line:
//! `<path> <token> # <justification>`. Entries without a justification
//! and entries matching no finding are themselves errors, so the file
//! can only shrink or stay honest. A batch-rule escape hatch works the
//! same way: an entry like `crates/sim/src/batch.rs .rev() # <why the
//! reversal cannot reach per-class observable state>` admits one
//! justified site — the store rule's own escape hatch is the
//! `crates/core/src/store/atomic.rs File::create` entry, the single
//! place a file may be created directly (the atomic writer's tempfile).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dlp_common::json::ToJson;

/// Crates whose hot paths must not iterate hash containers.
const HOT_CRATES: &[&str] = &["crates/sim", "crates/noc", "crates/mem"];

/// All engine crates subject to the clock/RNG/parallelism rules. The
/// bench crate is excluded (measuring wall-clock is its purpose), as is
/// the xtask itself and the vendored `third_party` stand-ins.
const ENGINE_CRATES: &[&str] = &[
    "crates/common",
    "crates/isa",
    "crates/kernel-ir",
    "crates/verify",
    "crates/noc",
    "crates/mem",
    "crates/sim",
    "crates/sched",
    "crates/kernels",
    "crates/classic",
    "crates/core",
];

/// Tokens forbidden in every engine crate.
const AMBIENT_TOKENS: &[(&str, &str)] = &[
    ("Instant::now", "wall-clock read; simulated time is the tick counter"),
    ("SystemTime", "wall-clock read; simulated time is the tick counter"),
    ("thread_rng", "ambient RNG; use seeded dlp_common::SplitMix64"),
    ("from_entropy", "ambient RNG; use seeded dlp_common::SplitMix64"),
    ("rand::", "ambient RNG; use seeded dlp_common::SplitMix64"),
    (".par_iter", "unordered parallel reduction"),
    (".par_bridge", "unordered parallel reduction"),
    ("par_chunks", "unordered parallel reduction"),
];

/// Tokens additionally forbidden in the hot crates.
const HASH_TOKENS: &[(&str, &str)] = &[
    ("HashMap", "hash iteration order is unspecified; use BTreeMap or indexed Vec"),
    ("HashSet", "hash iteration order is unspecified; use BTreeSet or sorted Vec"),
];

/// The persistence layer, where every durable write must go through
/// the atomic writer.
const STORE_DIR: &str = "crates/core/src/store/";

/// Tokens forbidden in non-test code under [`STORE_DIR`].
const STORE_TOKENS: &[(&str, &str)] = &[
    ("fs::write", "bare write has no fsync/rename commit point; use atomic_write_file"),
    ("File::create", "bare creation bypasses the atomic writer; use atomic_write_file"),
];

/// The lane-batched engine sources and the shared instruction semantics
/// it runs per lane class, held to the strictest rule set.
const BATCH_DIRS: &[&str] = &["crates/sim/src/batch/", "crates/sim/src/semantics/"];

/// Raw-source markers bracketing the tagged SIMD loops in the batch
/// engine's word-at-a-time passes. Comments are stripped before token
/// scanning, so the marker search runs on the raw source while the
/// `continue` search runs on the stripped code between the markers.
const SIMD_BEGIN: &str = "detlint: simd-loop-begin";
/// Closing marker; see [`SIMD_BEGIN`].
const SIMD_END: &str = "detlint: simd-loop-end";

/// Tokens forbidden in [`BATCH_DIRS`]: anything that iterates lane
/// classes in other than ascending index order (or an unspecified
/// order) can desync the batched engines from the scalar engines while
/// every test still passes on symmetric workloads.
const BATCH_TOKENS: &[(&str, &str)] = &[
    (".rev()", "descending iteration reorders observable per-class steps"),
    ("sort_unstable", "unspecified tie order across lane classes"),
    ("swap_remove", "reorders lane-indexed storage"),
    (".keys()", "map iteration order hides the class visit order"),
    (".values()", "map iteration order hides the class visit order"),
];

/// One forbidden-token occurrence.
struct Finding {
    path: String,
    line: usize,
    token: &'static str,
    why: &'static str,
}

/// One `detlint.allow` entry.
struct AllowEntry {
    path: String,
    token: String,
    line: usize,
    used: bool,
}

/// How findings are rendered.
#[derive(Clone, Copy, PartialEq)]
pub enum Format {
    /// One line per violation on stderr — the interactive default.
    Human,
    /// A single JSON document on stdout (every finding, allowed or
    /// not, plus allowlist problems) for downstream tooling.
    Json,
    /// GitHub Actions workflow commands (`::error file=…,line=…::…`),
    /// so CI renders violations as inline source annotations.
    Github,
}

/// One finding in the `--format json` report.
#[derive(ToJson)]
struct JsonFinding {
    path: String,
    line: usize,
    token: String,
    why: String,
    allowed: bool,
}

/// The `--format json` document.
#[derive(ToJson)]
struct JsonReport {
    findings: Vec<JsonFinding>,
    problems: Vec<String>,
    allowed: usize,
    violations: usize,
}

/// Entry point: parse `[allowlist] [--format human|json|github]`.
pub fn main(args: &[String]) -> ExitCode {
    let mut allow = "detlint.allow".to_string();
    let mut format = Format::Human;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                Some("github") => format = Format::Github,
                other => {
                    eprintln!(
                        "detlint: --format expects human, json, or github (got {})",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::FAILURE;
                }
            },
            path => allow = path.to_string(),
        }
    }
    run(&allow, format)
}

/// Run the lint from the workspace root. Returns a failing exit code on
/// any unallowed finding, unjustified allowlist entry, or stale entry.
pub fn run(allow_path: &str, format: Format) -> ExitCode {
    let root = workspace_root();
    let (mut allow, mut errors) = parse_allowlist(&root.join(allow_path), allow_path);

    let mut findings = Vec::new();
    for krate in ENGINE_CRATES {
        let hot = HOT_CRATES.contains(krate);
        for file in rust_files(&root.join(krate)) {
            let rel = file
                .strip_prefix(&root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            let source = match std::fs::read_to_string(&file) {
                Ok(s) => s,
                Err(e) => {
                    errors.push(format!("detlint: cannot read {rel}: {e}"));
                    continue;
                }
            };
            let code = strip_comments_and_strings(&source);
            scan(&rel, &code, AMBIENT_TOKENS, &mut findings);
            if hot {
                scan(&rel, &code, HASH_TOKENS, &mut findings);
            }
            if is_batch_file(&rel) {
                scan(&rel, &code, BATCH_TOKENS, &mut findings);
                scan_simd_continue(&rel, &source, &code, &mut findings);
            }
            if rel.starts_with(STORE_DIR) {
                scan(&rel, before_tests(&code), STORE_TOKENS, &mut findings);
            }
        }
    }

    let mut violations = 0usize;
    let mut allowed = 0usize;
    let mut classified: Vec<(&Finding, bool)> = Vec::with_capacity(findings.len());
    for f in &findings {
        let entry = allow.iter_mut().find(|e| e.path == f.path && e.token == f.token);
        let is_allowed = match entry {
            Some(entry) => {
                entry.used = true;
                allowed += 1;
                true
            }
            None => {
                violations += 1;
                false
            }
        };
        classified.push((f, is_allowed));
    }
    for e in &allow {
        if !e.used {
            errors.push(format!(
                "detlint: {allow_path}:{}: stale allowlist entry `{} {}` matches nothing",
                e.line, e.path, e.token
            ));
        }
    }

    match format {
        Format::Human => {
            for (f, is_allowed) in &classified {
                if !is_allowed {
                    eprintln!(
                        "detlint: {}:{}: forbidden `{}` ({})",
                        f.path, f.line, f.token, f.why
                    );
                }
            }
            for e in &errors {
                eprintln!("{e}");
            }
            println!(
                "detlint: {} findings ({allowed} allowlisted, {violations} violations, {} \
                 allowlist problems)",
                findings.len(),
                errors.len()
            );
        }
        Format::Json => {
            let report = JsonReport {
                findings: classified
                    .iter()
                    .map(|(f, is_allowed)| JsonFinding {
                        path: f.path.clone(),
                        line: f.line,
                        token: f.token.to_string(),
                        why: f.why.to_string(),
                        allowed: *is_allowed,
                    })
                    .collect(),
                problems: errors.clone(),
                allowed,
                violations,
            };
            println!("{}", dlp_common::json::to_string(&report));
        }
        Format::Github => {
            // Workflow commands render as inline annotations on the PR
            // diff; the run still fails through the exit code.
            for (f, is_allowed) in &classified {
                if !is_allowed {
                    println!(
                        "::error file={},line={},title=detlint::forbidden `{}` ({})",
                        f.path, f.line, f.token, f.why
                    );
                }
            }
            for e in &errors {
                println!("::error title=detlint allowlist::{e}");
            }
            println!(
                "detlint: {} findings ({allowed} allowlisted, {violations} violations, {} \
                 allowlist problems)",
                findings.len(),
                errors.len()
            );
        }
    }
    if violations == 0 && errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root: this binary lives at `crates/xtask`, and CI runs
/// it through the `cargo xtask` alias from the root, so prefer the
/// manifest-relative location and fall back to the current directory.
pub(crate) fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// Parse `detlint.allow`: `<path> <token> # <justification>` per line.
fn parse_allowlist(path: &Path, display: &str) -> (Vec<AllowEntry>, Vec<String>) {
    let mut entries = Vec::new();
    let mut errors = Vec::new();
    let Ok(text) = std::fs::read_to_string(path) else {
        // No allowlist is a valid (maximally strict) configuration.
        return (entries, errors);
    };
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (spec, justification) = match line.split_once('#') {
            Some((s, j)) => (s.trim(), j.trim()),
            None => (line, ""),
        };
        let fields: Vec<&str> = spec.split_whitespace().collect();
        if fields.len() != 2 {
            errors.push(format!(
                "detlint: {display}:{line_no}: expected `<path> <token> # <justification>`"
            ));
            continue;
        }
        if justification.is_empty() {
            errors.push(format!(
                "detlint: {display}:{line_no}: allowlist entry `{} {}` has no justification \
                 comment",
                fields[0], fields[1]
            ));
            continue;
        }
        entries.push(AllowEntry {
            path: fields[0].to_string(),
            token: fields[1].to_string(),
            line: line_no,
            used: false,
        });
    }
    (entries, errors)
}

/// Whether workspace-relative `rel` is held to the [`BATCH_TOKENS`] and
/// SIMD-loop rules.
fn is_batch_file(rel: &str) -> bool {
    BATCH_DIRS.iter().any(|dir| rel.starts_with(dir))
}

/// All `.rs` files under `dir`, sorted for deterministic reports.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else { continue };
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                files.push(p);
            }
        }
    }
    files.sort();
    files
}

/// The prefix of `code` before its first `#[cfg(test)]` — the store
/// write-path rule exempts test modules, whose whole point is writing
/// corrupt bytes directly.
fn before_tests(code: &str) -> &str {
    code.find("#[cfg(test)]").map_or(code, |at| &code[..at])
}

/// Flag `continue` inside the tagged SIMD loops of a batch-engine file.
///
/// Markers live in comments (which [`strip_comments_and_strings`]
/// blanks), so marker state tracks the *raw* source while the token
/// search reads the stripped *code* of the same line — prose about
/// `continue` never fires, and a marker can't be smuggled inside a
/// string. The allowlist escape hatch works like every other rule: an
/// entry `<file> continue # <why the branch cannot reach a vector
/// lane>` admits one justified site.
fn scan_simd_continue(path: &str, raw: &str, code: &str, out: &mut Vec<Finding>) {
    let mut inside = false;
    for (i, (raw_line, code_line)) in raw.lines().zip(code.lines()).enumerate() {
        if raw_line.contains(SIMD_BEGIN) {
            inside = true;
        } else if raw_line.contains(SIMD_END) {
            inside = false;
        } else if inside && code_line.contains("continue") {
            out.push(Finding {
                path: path.to_string(),
                line: i + 1,
                token: "continue",
                why: "per-lane early-continue inside a tagged SIMD loop reintroduces \
                      control flow the autovectorizer cannot remove; select with a mask word",
            });
        }
    }
}

/// Record every line of `code` containing one of `tokens`.
fn scan(path: &str, code: &str, tokens: &[(&'static str, &'static str)], out: &mut Vec<Finding>) {
    for (i, line) in code.lines().enumerate() {
        for &(token, why) in tokens {
            if line.contains(token) {
                out.push(Finding { path: path.to_string(), line: i + 1, token, why });
            }
        }
    }
}

/// Replace comments and string/char literal contents with spaces,
/// preserving the line structure so findings keep real line numbers.
///
/// Handles line comments, nested block comments, plain and raw strings,
/// and char literals (distinguished from lifetimes by lookahead).
fn strip_comments_and_strings(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    // Emit `c` verbatim when it shapes the layout, a space otherwise.
    fn blank(out: &mut String, c: char) {
        if c == '\n' { out.push('\n') } else { out.push(' ') }
    }
    while i < bytes.len() {
        let rest = &src[i..];
        if rest.starts_with("//") {
            let end = rest.find('\n').map_or(src.len(), |n| i + n);
            for c in src[i..end].chars() {
                blank(&mut out, c);
            }
            i = end;
        } else if rest.starts_with("/*") {
            let mut depth = 0usize;
            let mut j = i;
            while j < bytes.len() {
                let r = &src[j..];
                if r.starts_with("/*") {
                    depth += 1;
                    blank(&mut out, ' ');
                    blank(&mut out, ' ');
                    j += 2;
                } else if r.starts_with("*/") {
                    depth -= 1;
                    blank(&mut out, ' ');
                    blank(&mut out, ' ');
                    j += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    let c = r.chars().next().expect("in bounds");
                    blank(&mut out, c);
                    j += c.len_utf8();
                }
            }
            i = j;
        } else if rest.starts_with("r\"") || rest.starts_with("r#") {
            // Raw string: r"..." or r#"..."# with any number of hashes.
            let hashes = rest[1..].bytes().take_while(|&b| b == b'#').count();
            let open = 1 + hashes + 1; // r, hashes, quote
            let closer: String = std::iter::once('"').chain("#".repeat(hashes).chars()).collect();
            out.push('r');
            for _ in 0..hashes {
                out.push('#');
            }
            out.push('"');
            let body = &src[i + open..];
            let end = body.find(&closer).map_or(src.len(), |n| i + open + n);
            for c in src[i + open..end].chars() {
                blank(&mut out, c);
            }
            if end < src.len() {
                out.push_str(&closer);
                i = end + closer.len();
            } else {
                i = src.len();
            }
        } else if rest.starts_with('"') {
            out.push('"');
            let mut j = i + 1;
            while j < bytes.len() {
                let c = src[j..].chars().next().expect("in bounds");
                if c == '\\' {
                    blank(&mut out, ' ');
                    blank(&mut out, ' ');
                    j += 1 + src[j + 1..].chars().next().map_or(0, char::len_utf8);
                } else if c == '"' {
                    out.push('"');
                    j += 1;
                    break;
                } else {
                    blank(&mut out, c);
                    j += c.len_utf8();
                }
            }
            i = j;
        } else if let Some(after) = rest.strip_prefix('\'') {
            // Char literal vs lifetime: 'x' or '\...' is a literal.
            let is_char = after.starts_with('\\')
                || (after.chars().next().is_some_and(|c| c != '\'')
                    && after.chars().nth(1) == Some('\''));
            if is_char {
                out.push('\'');
                let mut j = i + 1;
                while j < bytes.len() {
                    let c = src[j..].chars().next().expect("in bounds");
                    if c == '\\' {
                        blank(&mut out, ' ');
                        blank(&mut out, ' ');
                        j += 1 + src[j + 1..].chars().next().map_or(0, char::len_utf8);
                    } else if c == '\'' {
                        out.push('\'');
                        j += 1;
                        break;
                    } else {
                        blank(&mut out, c);
                        j += c.len_utf8();
                    }
                }
                i = j;
            } else {
                out.push('\'');
                i += 1;
            }
        } else {
            let c = rest.chars().next().expect("in bounds");
            out.push(c);
            i += c.len_utf8();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_stripped() {
        let src = r#"
// HashMap in a comment
let x = "HashMap in a string";
/* block HashMap /* nested HashMap */ still comment */
let m: HashMap<u32, u32> = HashMap::new();
"#;
        let code = strip_comments_and_strings(src);
        let hits: Vec<usize> = code
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains("HashMap"))
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(hits, vec![5], "only the real code line fires:\n{code}");
    }

    #[test]
    fn lifetimes_do_not_confuse_the_lexer() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }\nlet t = Instant::now();\n";
        let code = strip_comments_and_strings(src);
        assert!(code.contains("Instant::now"));
        assert!(!code.contains("'x'") || code.contains("''"), "char body blanked");
    }

    #[test]
    fn raw_strings_are_stripped() {
        let src = "let s = r#\"thread_rng\"#;\nthread_rng();\n";
        let code = strip_comments_and_strings(src);
        let hits = code.lines().filter(|l| l.contains("thread_rng")).count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn line_numbers_survive_stripping() {
        let src = "a\n/* x\ny */\nb\n";
        let code = strip_comments_and_strings(src);
        assert_eq!(code.lines().count(), src.lines().count());
    }

    #[test]
    fn batch_rules_cover_the_lockstep_engines_and_their_semantics() {
        assert!(is_batch_file("crates/sim/src/batch/mimd.rs"));
        assert!(is_batch_file("crates/sim/src/semantics/dataflow.rs"));
        assert!(is_batch_file("crates/sim/src/semantics/mod.rs"));
        assert!(!is_batch_file("crates/sim/src/dataflow.rs"));
        assert!(!is_batch_file("crates/core/src/runner.rs"));
        let mut findings = Vec::new();
        let code = "let v: Vec<_> = m.values().collect();\nv.sort_unstable();\n";
        scan("crates/sim/src/semantics/mimd.rs", code, BATCH_TOKENS, &mut findings);
        let tokens: Vec<&str> = findings.iter().map(|f| f.token).collect();
        assert_eq!(tokens, vec![".values()", "sort_unstable"]);
    }

    #[test]
    fn batch_tokens_catch_lane_order_dependence() {
        let mut findings = Vec::new();
        let code = "for c in (0..nc).rev() {\n}\nlive.swap_remove(i);\n";
        scan("crates/sim/src/batch/mimd.rs", code, BATCH_TOKENS, &mut findings);
        let tokens: Vec<&str> = findings.iter().map(|f| f.token).collect();
        assert_eq!(tokens, vec![".rev()", "swap_remove"]);
    }

    #[test]
    fn simd_continue_fires_only_between_markers() {
        let raw = "loop {\n    continue;\n}\n// detlint: simd-loop-begin\nfor c in 0..nc {\n    \
                   if skip { continue; }\n    // a comment about continue\n}\n\
                   // detlint: simd-loop-end\nif x { continue; }\n";
        let code = strip_comments_and_strings(raw);
        let mut findings = Vec::new();
        scan_simd_continue("crates/sim/src/batch/mask.rs", raw, &code, &mut findings);
        assert_eq!(findings.len(), 1, "only the in-marker code continue fires");
        assert_eq!(findings[0].line, 6);
        assert_eq!(findings[0].token, "continue");
    }

    #[test]
    fn store_rule_exempts_test_modules() {
        let code = "std::fs::write(&tmp, data)?;\n#[cfg(test)]\nmod tests {\n    \
                    std::fs::write(&p, b\"junk\");\n    let f = File::create(&p);\n}\n";
        let mut findings = Vec::new();
        scan("crates/core/src/store/mod.rs", before_tests(code), STORE_TOKENS, &mut findings);
        assert_eq!(findings.len(), 1, "only the pre-test write fires");
        assert_eq!(findings[0].token, "fs::write");
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn scan_reports_token_and_line() {
        let mut findings = Vec::new();
        scan("f.rs", "ok\nlet t = SystemTime::now();\n", AMBIENT_TOKENS, &mut findings);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[0].token, "SystemTime");
    }
}
