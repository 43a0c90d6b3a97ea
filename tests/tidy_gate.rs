//! Tier-1 gate: the workspace must pass its own static-analysis lint,
//! `sysunc-tidy`, with zero standing violations, and clippy under the
//! root `[workspace.lints]` table. The first tests run the real
//! binaries the way CI does, so a regression in either the code base or
//! a lint fails the ordinary test suite; the rest exercise tidy
//! in-process against the real tree — the suppression ledger equals the
//! committed [`LEDGER`] table and moves when a real file gains an
//! `#[expect]`, the `facade` rule demonstrably fires when a real
//! re-export is knocked out, and `lock-hygiene` when a real lock scope
//! is made to block — and seed one case per retired tidy rule
//! into a fixture crate that clippy must reject under the table. The
//! retired reachability, panic-path and float-eq rules keep their own
//! fixtures, now checked by clippy in place of tidy.

use std::path::{Path, PathBuf};
use std::process::Command;

use sysunc::prob::json;
use sysunc_tidy::{check_files, walk, FileKind, Report, SourceFile};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn cargo() -> String {
    std::env::var("CARGO").unwrap_or_else(|_| "cargo".into())
}

/// The lints ci.sh passes to clippy for `perfbench/`, which is a
/// workspace of its own and does not inherit the root table.
const PERFBENCH_LINTS: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::todo",
    "clippy::unimplemented",
    "clippy::float_cmp",
];

fn run_tidy(extra: &[&str]) -> (bool, String, String) {
    let output = Command::new(cargo())
        .args(["run", "--quiet", "--offline", "-p", "sysunc-tidy", "--"])
        .args(extra)
        .arg(root())
        .current_dir(root())
        .output()
        .expect("sysunc-tidy should spawn");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn workspace_passes_sysunc_tidy_with_zero_violations() {
    let (ok, stdout, stderr) = run_tidy(&[]);
    assert!(ok, "sysunc-tidy found violations:\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("0 violation(s)"),
        "expected a clean summary, got:\n{stdout}"
    );
    // The gate must actually have scanned the tree, not vacuously passed.
    let scanned: usize = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sysunc-tidy: scanned ")?.split(' ').next()?.parse().ok())
        .expect("summary line present");
    assert!(scanned > 100, "suspiciously few files scanned: {scanned}");
}

/// The suppression ledger: acknowledged exceptions per rule, sorted by
/// rule name. Every `// tidy: allow(<rule>)` and every library
/// `#[expect]` of a table lint (counted under the rule the lint
/// replaced, `sysunc_tidy::rules::GATED_LINTS`) is one entry. Adding an
/// acknowledgement means raising its count here in the same diff;
/// retiring one means lowering it.
const LEDGER: &[(&str, usize)] = &[("float-eq", 15), ("panic", 27), ("prob-contract", 3)];

/// `report`'s ledger, sorted by rule name like [`LEDGER`].
fn sorted_ledger(report: &Report) -> Vec<(&'static str, usize)> {
    let mut ledger = report.ledger();
    ledger.sort_unstable();
    ledger
}

#[test]
fn suppression_ledger_matches_the_committed_table() {
    let report = sysunc_tidy::check_workspace(root()).expect("workspace walks");
    assert_eq!(
        sorted_ledger(&report),
        LEDGER,
        "the acknowledged exceptions changed; update LEDGER in the same diff:\n{:#?}",
        report.allowed
    );
}

#[test]
fn ledger_moves_when_a_real_file_gains_an_expect() {
    // One more `#[expect]` in a real library file, in memory, raises
    // exactly its rule's count, so the table comparison above fails.
    let mut files = walk::collect(root()).expect("workspace walks");
    let before = sorted_ledger(&check_files(&files));
    let stats = files
        .iter_mut()
        .find(|f| f.path == Path::new("crates/prob/src/stats.rs"))
        .expect("prob stats present");
    let item = "fn ranks(xs: &[f64]) -> Vec<f64> {";
    let edited = stats.content.replacen(
        item,
        &format!("#[expect(clippy::float_cmp, reason = \"knockout\")]\n{item}"),
        1,
    );
    assert_ne!(edited, stats.content, "the item to annotate must exist");
    *stats = SourceFile::new(stats.path.clone(), edited, FileKind::RustLibrary);
    let report = check_files(&files);
    assert!(report.clean(), "an #[expect] is counted, not a violation: {:?}", report.violations);
    let expected: Vec<(&str, usize)> = before
        .iter()
        .map(|&(rule, n)| (rule, if rule == "float-eq" { n + 1 } else { n }))
        .collect();
    let after = sorted_ledger(&report);
    assert_eq!(after, expected);
    assert_ne!(after, LEDGER, "the committed table would catch the new entry");
}

#[test]
fn retired_flags_are_unknown() {
    for flag in ["--json", "--serial", "--baseline", "--write-baseline"] {
        let (ok, _, stderr) = run_tidy(&[flag]);
        assert!(!ok, "`{flag}` must fail");
        assert!(stderr.contains("unknown flag"), "`{flag}`: {stderr}");
    }
}

#[test]
fn bare_explain_lists_rules_and_unknown_rules_exit_two() {
    // No workspace-root argument here: a bare `--explain` would take a
    // following non-flag token as the rule name.
    let output = Command::new(cargo())
        .args(["run", "--quiet", "--offline", "-p", "sysunc-tidy", "--", "--explain"])
        .current_dir(root())
        .output()
        .expect("sysunc-tidy should spawn");
    assert!(output.status.success(), "bare --explain must exit 0");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let listed: Vec<&str> =
        stdout.lines().filter_map(|l| l.split_whitespace().next()).collect();
    assert_eq!(
        listed,
        [
            "manifest",
            "prob-contract",
            "error-impl",
            "suite-error",
            "seed-discipline",
            "lock-hygiene",
            "facade",
            "seed-discipline-drift",
            "unused-allow",
        ],
        "only the project-specific rules remain:\n{stdout}"
    );

    let output = Command::new(cargo())
        .args(["run", "--quiet", "--offline", "-p", "sysunc-tidy", "--", "--explain", "no-such"])
        .current_dir(root())
        .output()
        .expect("sysunc-tidy should spawn");
    assert_eq!(output.status.code(), Some(2), "unknown rule must exit 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown rule"), "{stderr}");
    assert!(stderr.contains("lock-hygiene"), "stderr lists the known rules: {stderr}");
}

#[test]
fn facade_fires_when_a_real_substrate_reexport_is_knocked_out() {
    // The live facade re-exports every substrate crate, so the rule has
    // nothing to flag; prove it guards that state by removing one real
    // re-export in memory and checking the gap is caught.
    let mut files = walk::collect(root()).expect("workspace walks");
    let lib = files
        .iter_mut()
        .find(|f| f.path == Path::new("crates/core/src/lib.rs"))
        .expect("facade crate root present");
    let knocked: String = lib
        .content
        .lines()
        .filter(|l| !l.contains("pub use sysunc_prob"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(knocked, lib.content, "fixture line must exist to knock out");
    *lib = SourceFile::new(lib.path.clone(), knocked, FileKind::RustLibrary);
    let report = check_files(&files);
    let hits: Vec<_> = report.violations.iter().filter(|v| v.rule == "facade").collect();
    assert_eq!(hits.len(), 1, "got: {hits:?}");
    assert!(hits[0].message.contains("`prob`"), "{hits:?}");
    assert_eq!(hits[0].file, Path::new("crates/core/src/lib.rs"));
}

/// The workspace's lock helper: the guard never leaves it.
const WITH_HELPER: &str = "\
use std::sync::{Mutex, PoisonError};
/// Runs `f` under the lock.
fn with<T, R>(m: &Mutex<T>, f: impl FnOnce(&mut T) -> R) -> R {
    f(&mut m.lock().unwrap_or_else(PoisonError::into_inner))
}
";

fn lock_hygiene_hits(src: &str) -> Vec<sysunc_tidy::Violation> {
    let files = vec![SourceFile::new("crates/x/src/lib.rs", src, FileKind::RustLibrary)];
    let report = check_files(&files);
    report.violations.into_iter().filter(|v| v.rule == "lock-hygiene").collect()
}

#[test]
fn lock_hygiene_fires_on_a_seeded_fixture() {
    // A raw guard held across a sleep is an acquisition outside `with`;
    // a `with` closure that sleeps blocks under the lock.
    let hits = lock_hygiene_hits(&format!(
        "//! Fixture.\n{WITH_HELPER}\
         /// Locks, then sleeps on the guard.\n\
         pub fn raw(m: &Mutex<u32>) -> u32 {{\n\
             let g = m.lock().unwrap_or_else(PoisonError::into_inner);\n\
             std::thread::sleep(std::time::Duration::from_millis(1));\n\
             *g\n\
         }}\n\
         /// Sleeps inside the lock scope.\n\
         pub fn scoped(m: &Mutex<u32>) -> u32 {{\n\
             with(m, |x| {{ std::thread::sleep(std::time::Duration::from_millis(1)); *x }})\n\
         }}\n"
    ));
    assert_eq!(hits.len(), 2, "one finding per shape, got: {hits:?}");
    assert!(hits[0].message.contains("outside a `with` helper"), "{hits:?}");
    assert!(hits[1].message.contains("`sleep` blocks under the lock"), "{hits:?}");
}

#[test]
fn lock_hygiene_ignores_guards_gone_before_the_blocking_call() {
    // The value leaves the lock scope; the guard died inside `with`.
    let hits = lock_hygiene_hits(&format!(
        "//! Fixture.\n{WITH_HELPER}\
         /// Reads under the lock, then joins outside it.\n\
         pub fn read_then_join(m: &Mutex<u32>, h: std::thread::JoinHandle<u32>) -> u32 {{\n\
             let v = with(m, |x| *x);\n\
             v + h.join().unwrap_or(0)\n\
         }}\n"
    ));
    assert!(hits.is_empty(), "no lock is held across `join`, got: {hits:?}");
}

#[test]
fn lock_order_cycle_fires_when_two_fns_acquire_in_opposite_orders() {
    // Opposite orders need nested lock scopes, and each nesting fires.
    let hits = lock_hygiene_hits(&format!(
        "//! Fixture.\n{WITH_HELPER}\
         /// Takes `a` then `b`.\n\
         pub fn ab(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {{\n\
             with(a, |x| with(b, |y| *x + *y))\n\
         }}\n\
         /// Takes `b` then `a`: the opposite order.\n\
         pub fn ba(a: &Mutex<u32>, b: &Mutex<u32>) -> u32 {{\n\
             with(b, |y| with(a, |x| *x + *y))\n\
         }}\n"
    ));
    assert_eq!(hits.len(), 2, "one finding per nesting, got: {hits:?}");
    assert!(hits.iter().all(|v| v.message.contains("nested lock scopes")), "{hits:?}");
}

#[test]
fn lock_hygiene_fires_when_a_real_lock_scope_blocks() {
    // The fleet's child-slot locks are visible to the rule: a sleep
    // inserted into a real `with` closure of the supervisor, in memory,
    // is the one finding on the tree.
    let mut files = walk::collect(root()).expect("workspace walks");
    let supervisor = files
        .iter_mut()
        .find(|f| f.path == Path::new("crates/fleet/src/supervisor.rs"))
        .expect("fleet supervisor present");
    let scope = "with(m, |s| s.as_mut().map(ShardChild::is_alive).unwrap_or(false))";
    let blocking = "with(m, |s| { std::thread::sleep(PROBE_TIMEOUT); \
                    s.as_mut().map(ShardChild::is_alive).unwrap_or(false) })";
    let edited = supervisor.content.replacen(scope, blocking, 1);
    assert_ne!(edited, supervisor.content, "the liveness check's lock scope must exist");
    *supervisor = SourceFile::new(supervisor.path.clone(), edited, FileKind::RustLibrary);
    let report = check_files(&files);
    assert_eq!(report.violations.len(), 1, "got: {:?}", report.violations);
    let hit = &report.violations[0];
    assert_eq!(hit.rule, "lock-hygiene");
    assert_eq!(hit.file, Path::new("crates/fleet/src/supervisor.rs"));
    assert!(hit.message.contains("`sleep` blocks under the lock"), "{hit:?}");
}

#[test]
fn former_textual_false_positives_do_not_fire() {
    // Regression fixtures for the line-heuristic gate's false-positive
    // classes, on the rules tidy keeps: forbidden constructs inside
    // string literals and doc comments, braces inside strings around
    // `#[cfg(test)]`, lint attributes quoted in strings.
    let files = vec![
        SourceFile::new(
            "crates/x/src/lib.rs",
            "//! Fixture crate root.\npub mod fixture;\n",
            FileKind::RustLibrary,
        ),
        SourceFile::new(
            "crates/x/src/fixture.rs",
            "//! Notes: `Rng::seed_from_u64(42)` is what seed-discipline forbids.\n\
             /// Also prose: `let g = m.lock(); sleep(d);` holds a guard.\n\
             pub fn shipped() -> &'static str {\n\
                 \"Rng::seed_from_u64(42); thread_rng(); #![allow(clippy::unwrap_used)]\"\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 const BRACES: &str = \"}}}\";\n\
                 fn t() { let _r = Rng::seed_from_u64(7); }\n\
             }\n",
            FileKind::RustLibrary,
        ),
    ];
    let report = check_files(&files);
    assert!(
        report.violations.is_empty() && report.allowed.is_empty(),
        "fixture should be clean, got: {:?}",
        report.violations
    );
}

#[test]
fn workspace_libraries_pass_clippy_under_the_lint_table() {
    // The toolchain half of the gate: every library and binary target,
    // checked by clippy with the root `[workspace.lints]` table each
    // member inherits, as ci.sh does. `-D warnings` fails the run on
    // clippy's default-level warnings as well as on the table's denials.
    let output = Command::new(cargo())
        .args(["clippy", "--quiet", "--offline", "--workspace", "--lib", "--bins"])
        .args(["--", "-D", "warnings"])
        .current_dir(root())
        .output()
        .expect("cargo clippy should spawn");
    assert!(
        output.status.success(),
        "cargo clippy --workspace --lib --bins -- -D warnings failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn perfbench_passes_clippy_panic_and_float_checks() {
    // perfbench/ is a workspace of its own, so it does not inherit the
    // table; the panic-family and float lints are passed explicitly,
    // as ci.sh does, keeping the coverage tidy's walk used to give it.
    let target = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-clippy");
    let mut cmd = Command::new(cargo());
    cmd.args(["clippy", "--quiet", "--offline", "--manifest-path"])
        .arg(root().join("perfbench/Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .arg("--");
    for lint in PERFBENCH_LINTS {
        cmd.args(["-D", lint]);
    }
    let output = cmd.output().expect("cargo clippy should spawn");
    assert!(
        output.status.success(),
        "perfbench fails the panic/float clippy check:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// The `key = "level"` lines of one `[workspace.lints.<tool>]` section
/// of the root manifest.
fn lint_table_section(manifest: &str, tool: &str) -> Vec<String> {
    let header = format!("[workspace.lints.{tool}]");
    manifest
        .lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .filter(|l| l.contains('='))
        .map(|l| l.trim().to_string())
        .collect()
}

/// `(lint code, file under the fixture, 1-based line)` of one
/// diagnostic's primary span.
type Diagnostic = (String, String, u64);

/// Every primary span clippy reported, from `--message-format json`
/// output.
fn diagnostics(stdout: &str) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for line in stdout.lines() {
        let Ok(doc) = json::parse(line) else { continue };
        if doc.get("reason").and_then(json::Json::as_str) != Some("compiler-message") {
            continue;
        }
        let Some(message) = doc.get("message") else { continue };
        let Some(code) =
            message.get("code").and_then(|c| c.get("code")).and_then(json::Json::as_str)
        else {
            continue;
        };
        let spans = message.get("spans").and_then(json::Json::as_arr).unwrap_or(&[]);
        for span in spans {
            if span.get("is_primary").and_then(json::Json::as_bool) != Some(true) {
                continue;
            }
            let file = span.get("file_name").and_then(json::Json::as_str);
            let line = span.get("line_start").and_then(json::Json::as_u64);
            if let (Some(file), Some(line)) = (file, line) {
                out.push((code.to_string(), file.to_string(), line));
            }
        }
    }
    out
}

/// Writes a fixture crate under the test tmpdir whose `[lints]` is
/// copied from the root table, with `sources` as `(path under src/,
/// contents)`, runs clippy on its library, and returns whether clippy
/// passed and what it reported.
fn clippy_fixture(name: &str, sources: &[(String, String)]) -> (bool, Vec<Diagnostic>) {
    let manifest =
        std::fs::read_to_string(root().join("Cargo.toml")).expect("root manifest reads");
    let fixture: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src = fixture.join("src");
    if src.exists() {
        std::fs::remove_dir_all(&src).expect("stale fixture sources clear");
    }
    for (path, content) in sources {
        let file = src.join(path);
        std::fs::create_dir_all(file.parent().expect("fixture file has a dir"))
            .expect("fixture dir");
        std::fs::write(file, content).expect("fixture writes");
    }
    std::fs::write(
        fixture.join("Cargo.toml"),
        format!(
            "[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n\
             publish = false\n\n[workspace]\n\n[lints.rust]\n{}\n\n[lints.clippy]\n{}\n",
            lint_table_section(&manifest, "rust").join("\n"),
            lint_table_section(&manifest, "clippy").join("\n")
        ),
    )
    .expect("fixture manifest writes");
    let output = Command::new(cargo())
        .args(["clippy", "--quiet", "--offline", "--lib", "--message-format", "json"])
        .arg("--target-dir")
        .arg(fixture.join("target"))
        .current_dir(&fixture)
        .output()
        .expect("cargo clippy should spawn");
    (output.status.success(), diagnostics(&String::from_utf8_lossy(&output.stdout)))
}

/// Lint codes `found` reports on one line of one fixture file.
fn codes_at<'a>(found: &'a [Diagnostic], file: &str, line: u64) -> Vec<&'a str> {
    found
        .iter()
        .filter(|(_, f, l)| f == file && *l == line)
        .map(|(c, _, _)| c.as_str())
        .collect()
}

#[test]
fn lint_table_knockouts_fire_under_clippy() {
    // One fixture crate whose `[lints]` is copied from the root table,
    // with one seeded case per retired tidy rule: dropping a table
    // entry (or the serve attribute) makes its case pass, failing this
    // test. Cases sit on one line each so a diagnostic's line names it.
    let manifest =
        std::fs::read_to_string(root().join("Cargo.toml")).expect("root manifest reads");
    let rust = lint_table_section(&manifest, "rust");
    let clippy = lint_table_section(&manifest, "clippy");
    // Every lint that replaced a tidy rule is denied by the table, except
    // `indexing_slicing`, which serve and fleet deny crate-wide.
    for (lint, rule) in sysunc_tidy::rules::GATED_LINTS {
        let (section, key) = match lint.strip_prefix("clippy::") {
            Some(key) => (&clippy, key),
            None => (&rust, *lint),
        };
        if *lint == "clippy::indexing_slicing" {
            continue;
        }
        assert!(
            section.iter().any(|l| l.replace(' ', "") == format!("{key}=\"deny\"")),
            "the table must deny `{lint}`, which replaced tidy's `{rule}` rule"
        );
    }
    let serve_lib = std::fs::read_to_string(root().join("crates/serve/src/lib.rs"))
        .expect("serve lib reads");
    let slicing_attr = serve_lib
        .lines()
        .find(|l| l.trim() == "#![deny(clippy::indexing_slicing)]")
        .expect("serve denies clippy::indexing_slicing crate-wide");
    let fleet_lib = std::fs::read_to_string(root().join("crates/fleet/src/lib.rs"))
        .expect("fleet lib reads");
    assert!(fleet_lib.lines().any(|l| l == slicing_attr), "fleet denies it too");

    // (source line, lint codes that must be reported on it)
    let cases: &[(&str, &[&str])] = &[
        ("pub fn unwrap_case(o: Option<u8>) -> u8 { o.unwrap() }", &["clippy::unwrap_used"]),
        ("pub fn expect_case(o: Option<u8>) -> u8 { o.expect(\"set\") }", &["clippy::expect_used"]),
        ("pub fn panic_case() { panic!(\"boom\") }", &["clippy::panic"]),
        ("pub fn todo_case() { todo!() }", &["clippy::todo"]),
        ("pub fn unimplemented_case() { unimplemented!() }", &["clippy::unimplemented"]),
        ("pub fn float_case() -> bool { reading() == reading() }", &["clippy::float_cmp"]),
        ("pub fn slice_case(v: &[u8]) -> &[u8] { &v[1..] }", &["clippy::indexing_slicing"]),
        (
            "#[expect(clippy::unwrap_used, reason = \"stale\")] pub fn stale_case() {}",
            &["unfulfilled_lint_expectations"],
        ),
        (
            "#[allow(dead_code)] fn bare_allow_case() {}",
            &["clippy::allow_attributes", "clippy::allow_attributes_without_reason"],
        ),
        // Clean lines: literal-zero comparisons are exempt, and code
        // quoted in strings or comments is not code.
        ("pub fn zero_case() -> bool { reading() == 0.0 }", &[]),
        (
            "pub fn quoted_case() -> &'static str { \"o.unwrap() == 0.5; panic!()\" } \
             // o.unwrap(); a == b; panic!()",
            &[],
        ),
    ];
    let mut src = vec![
        "//! Lint-table knockout fixture: one seeded case per retired tidy rule.".to_string(),
        slicing_attr.to_string(),
        "fn reading() -> f64 { 0.5 }".to_string(),
        "pub fn undocumented_case() {}".to_string(),
        "mod private { pub fn unreachable_case() {} }".to_string(),
    ];
    let mut expected: Vec<(u64, &[&str])> = vec![
        (4, &["missing_docs"]),
        (5, &["unreachable_pub"]),
    ];
    for (line, codes) in cases {
        src.push("/// A seeded case.".to_string());
        src.push((*line).to_string());
        expected.push((src.len() as u64, codes));
    }

    let (ok, found) =
        clippy_fixture("lint-knockout", &[("lib.rs".to_string(), src.join("\n") + "\n")]);
    assert!(!ok, "the seeded cases must fail clippy");
    for (line, codes) in &expected {
        let here = codes_at(&found, "src/lib.rs", *line);
        for code in *codes {
            assert!(
                here.contains(code),
                "line {line} ({}) lacks `{code}`; reported there: {here:?}\nall: {found:?}",
                src[*line as usize - 1]
            );
        }
        if codes.is_empty() {
            assert!(
                here.is_empty(),
                "clean line {line} ({}) reported {here:?}",
                src[*line as usize - 1]
            );
        }
    }
}

#[test]
fn dead_pub_use_chain_seeded_into_the_real_tree_is_caught() {
    // Seed a copy of the real prob crate with a module whose only
    // re-export chain stops short of the root: `seeded_dead` re-exports
    // `inner::SeededSecret`, but `mod seeded_dead;` is private and
    // nothing re-exports it upward. A name match ("SeededSecret is
    // re-exported somewhere") stays silent; rustc's `unreachable_pub`,
    // denied by the table, resolves reachability from the crate root.
    let prob = Path::new("crates/prob/src");
    let mut sources: Vec<(String, String)> = walk::collect(root())
        .expect("workspace walks")
        .into_iter()
        .filter_map(|f| {
            let rel = f.path.strip_prefix(prob).ok()?.to_string_lossy().into_owned();
            Some((rel, f.content))
        })
        .collect();
    let lib = sources
        .iter_mut()
        .find(|(path, _)| path == "lib.rs")
        .expect("prob crate root present");
    lib.1.push_str("mod seeded_dead;\n");
    sources.push((
        "seeded_dead.rs".to_string(),
        "//! Seeded fixture.\nmod inner;\npub use inner::SeededSecret;\n".to_string(),
    ));
    sources.push((
        "seeded_dead/inner.rs".to_string(),
        "//! Seeded fixture.\n/// Never reachable.\npub struct SeededSecret;\n".to_string(),
    ));
    let (ok, found) = clippy_fixture("seeded-prob", &sources);
    assert!(!ok, "the dead pub use chain must fail clippy");
    assert!(
        codes_at(&found, "src/seeded_dead/inner.rs", 3).contains(&"unreachable_pub"),
        "dead pub use chain must be caught, got: {found:?}"
    );
    let hits: Vec<_> = found.iter().filter(|(code, _, _)| code == "unreachable_pub").collect();
    assert!(
        hits.iter().all(|(_, file, _)| file.starts_with("src/seeded_dead")),
        "only the seeded chain is unreachable; the real tree is clean: {hits:?}"
    );
}

#[test]
fn panic_path_walks_call_edges_from_serve_entry_points() {
    // `handle_request` itself is panic-free; the unwrap and the index
    // sit one call edge away in private helpers, so a check of the
    // entry point's own body finds nothing. The panic-family denies and
    // serve's crate-wide `indexing_slicing` deny flag every site, so
    // the helpers fail the gate — and so does `offline_tool`, which no
    // entry point calls: the lints hold per site, not only on paths.
    let serve_lib = std::fs::read_to_string(root().join("crates/serve/src/lib.rs"))
        .expect("serve lib reads");
    let slicing_attr = serve_lib
        .lines()
        .find(|l| l.trim() == "#![deny(clippy::indexing_slicing)]")
        .expect("serve denies clippy::indexing_slicing crate-wide");
    let sources = [
        (
            "lib.rs".to_string(),
            format!("//! Fixture serve crate.\n{slicing_attr}\npub mod server;\n"),
        ),
        (
            "server.rs".to_string(),
            "//! Fixture.\n\
             /// Handles one request.\n\
             pub fn handle_request(body: &str) -> usize { decode(body) + first(body.as_bytes()) }\n\
             /// Decodes a body.\n\
             fn decode(body: &str) -> usize { body.parse().unwrap() }\n\
             /// The first byte.\n\
             fn first(bytes: &[u8]) -> usize { usize::from(bytes[0]) }\n\
             /// Never called from an entry point.\n\
             pub fn offline_tool(body: &str) -> usize { body.parse().unwrap() }\n"
                .to_string(),
        ),
    ];
    let (ok, found) = clippy_fixture("serve-panic-path", &sources);
    assert!(!ok, "the seeded panics must fail clippy");
    let at = |line| codes_at(&found, "src/server.rs", line);
    assert!(at(3).is_empty(), "the entry point itself is panic-free: {found:?}");
    assert!(at(5).contains(&"clippy::unwrap_used"), "helper unwrap caught: {found:?}");
    assert!(at(7).contains(&"clippy::indexing_slicing"), "helper index caught: {found:?}");
    assert!(at(9).contains(&"clippy::unwrap_used"), "off-path unwrap caught: {found:?}");
}

#[test]
fn float_eq_type_flow_fires_for_all_three_sources() {
    // One case per float source: a float parameter, a float-returning
    // call (defined in a *different* file), and an inferred float let.
    // `clippy::float_cmp` reads rustc's types, so each is flagged once.
    let sources = [
        (
            "lib.rs".to_string(),
            "//! Fixture.\n\
             pub mod measure;\n\
             /// Parameter-typed flow.\n\
             pub fn param(a: f64, b: f64) -> bool { a == b }\n\
             /// Call-result flow; `reading` lives in measure.rs.\n\
             pub fn call(t: u64) -> bool { measure::reading(t) == measure::reading(t + 1) }\n\
             /// Inferred-let flow.\n\
             pub fn local(flag: bool) -> bool {\n\
                 let x = 0.5;\n\
                 let y = if flag { x } else { x };\n\
                 x == y\n\
             }\n"
                .to_string(),
        ),
        (
            "measure.rs".to_string(),
            "//! Fixture.\n/// A reading.\npub fn reading(_t: u64) -> f64 { 0.0 }\n".to_string(),
        ),
    ];
    let (ok, found) = clippy_fixture("float-eq-sources", &sources);
    assert!(!ok, "the float comparisons must fail clippy");
    let lines: Vec<(&str, u64)> = found
        .iter()
        .filter(|(code, _, _)| code == "clippy::float_cmp")
        .map(|(_, file, line)| (file.as_str(), *line))
        .collect();
    assert_eq!(
        lines,
        [("src/lib.rs", 4), ("src/lib.rs", 6), ("src/lib.rs", 11)],
        "one finding per flow source, got: {found:?}"
    );
}
