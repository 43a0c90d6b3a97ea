//! In-tree property-based testing with strategy combinators and
//! automatic minimal-counterexample shrinking — the workspace's
//! replacement for the external `proptest` crate, applied to itself:
//! the paper's thesis is that epistemic uncertainty is *engineered
//! away* by systematic observation, and a failing property that
//! reports an unshrunk 6-tuple of random floats leaves most of its
//! information content unobserved. This harness reduces every failure
//! to a locally minimal counterexample, reports the exact seed that
//! reproduces it, and persists that seed so the bug stays fatal until
//! fixed.
//!
//! ```
//! use sysunc_prob::propcheck::{self, f64_range, Strategy as _};
//! propcheck::check(
//!     "abs_bounded",
//!     32,
//!     (f64_range(-10.0, 10.0), f64_range(0.0, 1.0)),
//!     |&(x, t)| assert!((x * t).abs() <= 10.0),
//! );
//! ```
//!
//! # Runner semantics
//!
//! [`check`] runs a [`Strategy`] over `cases` generated cases. Each
//! case has its own 64-bit seed, derived from the run seed and the
//! case index; the generated value is a pure function of that seed.
//! On failure the runner:
//!
//! 1. **shrinks**: walks the failing [`ValueTree`] with
//!    simplify/complicate probes (bounded by
//!    [`Config::max_shrink_iters`]) to a *locally minimal*
//!    counterexample — no single remaining simplification step still
//!    fails;
//! 2. **reports**: panics with the minimal value (`Debug`), the
//!    original assertion message, and the case seed as a
//!    `PROPCHECK_SEED=0x...` replay recipe;
//! 3. **persists**: appends `name seed` to the regression corpus
//!    (`propcheck.regressions` at the workspace root), which every
//!    later run replays *before* its random cases.
//!
//! Setting the `PROPCHECK_SEED` environment variable replays exactly
//! that one case seed (same generation, same shrink) instead of the
//! random schedule — deterministic replay of any reported failure.
//!
//! Rejection: [`assume`] discards the current case without failing
//! it, and [`Strategy::prop_filter`] narrows a strategy's domain;
//! both count against [`Config::max_rejects`].

pub mod corpus;
mod strategy;

pub use strategy::{
    any_bool, f64_range, gen_with, just, one_of, prob_vec, recursive, u64_range, usize_range,
    vec_of, AnyBool, BoolTree, BoxTree, BoxedStrategy, F64Range, F64Tree, Filter, FilterTree,
    Gen, GenWith, Just, JustTree, Map, MapTree, OneOf, Strategy, U64Range, U64Tree, ValueTree,
    VecOf, VecTree,
};

pub use corpus::{default_path as corpus_path, parse_seed};

use crate::rng::{SeedableRng as _, StdRng};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Default base seed of the random case schedule; `case i` of a run
/// derives its seed from this and `i` unless replaying.
const BASE_SEED: u64 = 0x5EED_0000;

/// Configuration of one property run. Construct with [`Config::new`],
/// refine with the builder methods, execute with [`check_config`].
#[derive(Debug, Clone)]
pub struct Config {
    /// The property's stable name: the corpus key and the label in
    /// failure reports. Conventionally the `#[test]` function name.
    pub name: &'static str,
    /// Number of random cases to run.
    pub cases: u64,
    /// Upper bound on simplify/complicate probes during shrinking.
    pub max_shrink_iters: u64,
    /// Upper bound on rejected cases ([`assume`] / `prop_filter`).
    pub max_rejects: u64,
    /// Replay exactly this case seed instead of the random schedule.
    /// `None` defers to the `PROPCHECK_SEED` environment variable.
    pub seed: Option<u64>,
    /// Whether failures are appended to the regression corpus.
    pub persist: bool,
    /// Corpus file override; `None` resolves per [`corpus_path`].
    pub corpus: Option<PathBuf>,
    /// Whether recorded corpus seeds replay before random cases.
    pub replay_corpus: bool,
}

impl Config {
    /// A default configuration: 64 cases, 4096 shrink iterations,
    /// 4096 rejects, corpus replay and persistence on.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            cases: 64,
            max_shrink_iters: 4096,
            max_rejects: 4096,
            seed: None,
            persist: true,
            corpus: None,
            replay_corpus: true,
        }
    }

    /// Sets the number of random cases.
    pub fn cases(mut self, cases: u64) -> Self {
        self.cases = cases;
        self
    }

    /// Replays exactly one case from `seed` (as reported by a prior
    /// failure) instead of the random schedule.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Disables corpus persistence and replay — for knockout tests
    /// that fail on purpose.
    pub fn ephemeral(mut self) -> Self {
        self.persist = false;
        self.replay_corpus = false;
        self
    }
}

/// The case seed replay request from the environment, if any.
/// `PROPCHECK_SEED` accepts `0x`-hex or decimal.
pub fn seed_from_env() -> Option<u64> {
    std::env::var("PROPCHECK_SEED").ok().as_deref().and_then(parse_seed)
}

/// A property failure: the minimal counterexample and its replay
/// recipe. Rendered into the panic message by [`check`]; inspected
/// directly in tests of the shrinker itself via [`check_config`].
#[derive(Debug, Clone)]
pub struct Failure<T> {
    /// The property name from [`Config::name`].
    pub name: &'static str,
    /// The locally minimal failing value.
    pub minimal: T,
    /// The case seed that reproduces the failure deterministically.
    pub seed: u64,
    /// Which case failed (index into the replay + random schedule).
    pub case: u64,
    /// Simplify/complicate probes spent shrinking.
    pub shrink_iters: u64,
    /// The assertion message of the minimal counterexample.
    pub message: String,
    /// Whether the seed was newly recorded in the corpus.
    pub persisted: bool,
}

impl<T: fmt::Debug> fmt::Display for Failure<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "property '{}' failed (case {}):", self.name, self.case)?;
        writeln!(f, "  minimal counterexample: {:?}", self.minimal)?;
        writeln!(f, "  assertion: {}", self.message)?;
        writeln!(f, "  shrink iterations: {}", self.shrink_iters)?;
        write!(f, "  replay: PROPCHECK_SEED={:#x} cargo test {}", self.seed, self.name)?;
        if self.persisted {
            write!(f, "\n  seed recorded in propcheck.regressions")?;
        }
        Ok(())
    }
}

/// Aggregate statistics of a passing run, from [`check_config`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Total cases evaluated (corpus replays + random).
    pub cases_run: u64,
    /// Cases discarded by [`assume`] / `prop_filter`.
    pub rejects: u64,
    /// Corpus seeds replayed before the random schedule.
    pub corpus_replayed: u64,
}

/// Discards the current case unless `condition` holds; the
/// `prop_assume` of this harness. Rejections are accounted against
/// [`Config::max_rejects`], not treated as failures.
pub fn assume(condition: bool) {
    if !condition {
        #[expect(
            clippy::panic,
            reason = "unwinds with a Rejection payload, which the runner counts as a discarded case"
        )]
        std::panic::panic_any(Rejection);
    }
}

/// Marker payload distinguishing a rejected case from a failed one.
struct Rejection;

/// The outcome of evaluating the property once.
enum Outcome {
    Pass,
    Reject,
    Fail(String),
}

fn eval<T, F: Fn(&T)>(prop: &F, value: &T) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(()) => Outcome::Pass,
        Err(payload) => {
            if payload.is::<Rejection>() {
                return Outcome::Reject;
            }
            let detail = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            Outcome::Fail(detail.to_string())
        }
    }
}

/// Derives the seed of case `index` from the run's base seed. The
/// result is what failure reports print and `PROPCHECK_SEED` replays.
fn case_seed(base: u64, index: u64) -> u64 {
    let mut s = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    crate::rng::splitmix64(&mut s)
}

/// Runs `property` over `cases` generated cases with default
/// configuration, panicking with the shrunk counterexample, its
/// assertion message and a seed replay recipe on the first failure.
///
/// `name` is the property's stable identity (by convention the test
/// function name): the key under which failing seeds are persisted to
/// and replayed from `propcheck.regressions`.
///
/// # Panics
///
/// Panics when the property fails, rendering the [`Failure`]; also
/// panics when more than [`Config::max_rejects`] cases are rejected.
pub fn check<S, F>(name: &'static str, cases: u64, strategy: S, property: F)
where
    S: Strategy,
    S::Value: Clone + fmt::Debug,
    F: Fn(&S::Value),
{
    #[expect(
        clippy::panic,
        reason = "the test-facing entry point: a failing property must fail the test"
    )]
    if let Err(failure) = check_config(&Config::new(name).cases(cases), strategy, property) {
        panic!("{failure}");
    }
}

/// Runs a property under an explicit [`Config`], returning the
/// failure (with minimal counterexample) instead of panicking — the
/// entry point for replay tooling and for tests of the shrinker
/// itself.
///
/// # Panics
///
/// Panics when more than [`Config::max_rejects`] cases are rejected —
/// a generator problem, not a property failure.
pub fn check_config<S, F>(
    config: &Config,
    strategy: S,
    property: F,
) -> Result<RunSummary, Failure<S::Value>>
where
    S: Strategy,
    S::Value: Clone + fmt::Debug,
    F: Fn(&S::Value),
{
    let corpus_file = if config.persist || config.replay_corpus {
        config.corpus.clone().or_else(corpus::default_path)
    } else {
        None
    };

    // The case schedule: an explicit or environment replay seed runs
    // exactly once; otherwise recorded corpus seeds replay first,
    // then the random schedule.
    let replay_seed = config.seed.or_else(seed_from_env);
    let mut schedule: Vec<u64> = Vec::new();
    let mut corpus_replayed = 0u64;
    match replay_seed {
        Some(seed) => schedule.push(seed),
        None => {
            if config.replay_corpus {
                if let Some(path) = &corpus_file {
                    let recorded = corpus::seeds_for(path, config.name);
                    corpus_replayed = recorded.len() as u64;
                    schedule.extend(recorded);
                }
            }
            schedule.extend((0..config.cases).map(|i| case_seed(BASE_SEED, i)));
        }
    }

    let mut rejects = 0u64;
    let mut cases_run = 0u64;
    for (case, &seed) in schedule.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tree = strategy.new_tree(&mut rng);
        cases_run += 1;
        if !tree.valid() {
            rejects += 1;
            assert!(
                rejects <= config.max_rejects,
                "property '{}': {} cases rejected by filters/assume — \
                 the generator's domain is too narrow",
                config.name,
                rejects
            );
            continue;
        }
        let message = match eval(&property, &tree.current()) {
            Outcome::Pass => continue,
            Outcome::Reject => {
                rejects += 1;
                assert!(
                    rejects <= config.max_rejects,
                    "property '{}': {} cases rejected by filters/assume — \
                     the generator's domain is too narrow",
                    config.name,
                    rejects
                );
                continue;
            }
            Outcome::Fail(message) => message,
        };

        // Shrink: simplify while the property keeps failing, back off
        // (complicate) when a probe passes, within the iteration
        // budget. `best` is always the smallest value seen to fail.
        let mut best = tree.current();
        let mut best_message = message;
        let mut iters = 0u64;
        'shrink: while iters < config.max_shrink_iters {
            if !tree.simplify() {
                break;
            }
            iters += 1;
            loop {
                let mut out_of_domain = !tree.valid();
                if !out_of_domain {
                    match eval(&property, &tree.current()) {
                        Outcome::Fail(msg) => {
                            best = tree.current();
                            best_message = msg;
                            continue 'shrink;
                        }
                        Outcome::Reject => out_of_domain = true,
                        Outcome::Pass => {}
                    }
                }
                iters += 1;
                let more = if out_of_domain { tree.reject() } else { tree.complicate() };
                if iters >= config.max_shrink_iters || !more {
                    continue 'shrink;
                }
            }
        }

        let persisted = if config.persist {
            match &corpus_file {
                Some(path) => corpus::append(path, config.name, seed).unwrap_or(false),
                None => false,
            }
        } else {
            false
        };
        return Err(Failure {
            name: config.name,
            minimal: best,
            seed,
            case: case as u64,
            shrink_iters: iters,
            message: best_message,
            persisted,
        });
    }
    Ok(RunSummary { cases_run, rejects, corpus_replayed })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An ephemeral config pointed at a throwaway corpus path so
    /// knockout failures never touch the real regression file.
    fn quiet(name: &'static str) -> Config {
        Config::new(name).ephemeral()
    }

    #[test]
    fn passes_trivially_true_properties() {
        check("passes_trivially_true_properties", 16, f64_range(0.0, 1.0), |&x| {
            assert!((0.0..1.0).contains(&x));
        });
    }

    #[test]
    fn cases_are_deterministic_across_runs() {
        let collect = || {
            let seen = std::cell::RefCell::new(Vec::new());
            let result = check_config(
                &quiet("cases_are_deterministic_across_runs").cases(8),
                (f64_range(0.0, 1.0), u64_range(0..100)),
                |v| seen.borrow_mut().push(format!("{v:?}")),
            );
            assert!(result.is_ok());
            seen.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn failure_reports_seed_and_shrinks_to_minimal() {
        // Knockout: fails for x >= 123. The minimal counterexample is
        // exactly 123 and the reported seed replays it.
        let failure = check_config(
            &quiet("failure_reports_seed_and_shrinks_to_minimal"),
            u64_range(0..100_000),
            |&x| assert!(x < 123, "x was {x}"),
        )
        .expect_err("property must fail");
        assert_eq!(failure.minimal, 123, "shrunk to the exact boundary");
        assert!(failure.message.contains("x was 123"), "got: {}", failure.message);

        // Local minimality: no single further simplification fails —
        // every value below the boundary passes the property.
        for below in 0..123 {
            assert!(below < 123, "witness {below} passes");
        }

        // Deterministic replay from the reported seed.
        let replay = check_config(
            &quiet("failure_reports_seed_and_shrinks_to_minimal").with_seed(failure.seed),
            u64_range(0..100_000),
            |&x| assert!(x < 123, "x was {x}"),
        )
        .expect_err("replay must fail too");
        assert_eq!(replay.minimal, failure.minimal);
        assert_eq!(replay.seed, failure.seed);
        assert_eq!(replay.case, 0, "replay runs exactly one case");
    }

    #[test]
    fn shrinking_is_locally_minimal_on_tuples() {
        // The classic: fails when a*b > threshold. Minimal means
        // neither component can shrink further without passing.
        let failure = check_config(
            &quiet("shrinking_is_locally_minimal_on_tuples"),
            (u64_range(0..10_000), u64_range(0..10_000)),
            |&(a, b)| assert!(a + b <= 100, "sum {}", a + b),
        )
        .expect_err("property must fail");
        let (a, b) = failure.minimal;
        assert!(a + b > 100, "minimal counterexample still fails");
        // One single simplification step on either component passes.
        assert!(a == 0 || (a - 1) + b <= 100, "a is locally minimal: ({a}, {b})");
        assert!(b == 0 || a + (b - 1) <= 100, "b is locally minimal: ({a}, {b})");
    }

    #[test]
    fn rendered_failure_contains_replay_recipe() {
        let failure = check_config(
            &quiet("rendered_failure_contains_replay_recipe"),
            u64_range(0..100),
            |&x| assert!(x < 1, "x was {x}"),
        )
        .expect_err("property must fail");
        let rendered = failure.to_string();
        assert!(rendered.contains("PROPCHECK_SEED=0x"), "got: {rendered}");
        assert!(rendered.contains("minimal counterexample: 1"), "got: {rendered}");
        assert!(
            rendered.contains("rendered_failure_contains_replay_recipe"),
            "got: {rendered}"
        );
    }

    #[test]
    fn assume_rejects_without_failing() {
        let summary = check_config(
            &quiet("assume_rejects_without_failing"),
            u64_range(0..100),
            |&x| {
                assume(x % 2 == 0);
                assert!(x % 2 == 0, "assume filtered the odd cases");
            },
        )
        .expect("rejection is not failure");
        assert!(summary.rejects > 0, "some cases were odd");
        assert_eq!(summary.cases_run, 64);
    }

    #[test]
    fn too_many_rejects_panics_with_diagnosis() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut cfg = quiet("too_many_rejects_panics_with_diagnosis");
            cfg.max_rejects = 4;
            let _ = check_config(&cfg, u64_range(0..100), |_| assume(false));
        }));
        let payload = result.expect_err("must panic");
        let message = payload.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("rejected"), "got: {message}");
    }

    #[test]
    fn corpus_seeds_replay_before_random_cases() {
        let path = {
            let mut p = std::env::temp_dir();
            p.push(format!("propcheck-runner-corpus-{}", std::process::id()));
            p
        };
        let _ = std::fs::remove_file(&path);

        // First run fails and persists its seed.
        let mut cfg = Config::new("corpus_seeds_replay_before_random_cases");
        cfg.corpus = Some(path.clone());
        let failure = check_config(&cfg, u64_range(0..1000), |&x| assert!(x < 5))
            .expect_err("property must fail");
        assert!(failure.persisted, "seed recorded");

        // Second run replays the recorded seed as case 0.
        let replay = check_config(&cfg, u64_range(0..1000), |&x| assert!(x < 5))
            .expect_err("still failing");
        assert_eq!(replay.case, 0, "corpus seed ran first");
        assert_eq!(replay.seed, failure.seed);

        // Once fixed, the summary accounts the corpus replay.
        let summary = check_config(&cfg, u64_range(0..1000), |_| {})
            .expect("fixed property passes");
        assert_eq!(summary.corpus_replayed, 1);
        assert_eq!(summary.cases_run, 64 + 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn filtered_strategy_shrinks_within_domain() {
        let failure = check_config(
            &quiet("filtered_strategy_shrinks_within_domain"),
            u64_range(0..10_000).prop_filter("multiple of 3", |v| v % 3 == 0),
            |&x| assert!(x < 100, "x was {x}"),
        )
        .expect_err("property must fail");
        assert_eq!(failure.minimal % 3, 0, "minimal stays in the filtered domain");
        assert_eq!(failure.minimal, 102, "smallest multiple of 3 that is >= 100");
    }

    #[test]
    fn env_seed_parse_roundtrip() {
        assert_eq!(parse_seed("0x5eed0011"), Some(0x5EED_0011));
        assert_eq!(parse_seed("12345"), Some(12_345));
    }

    #[test]
    fn case_seeds_are_distinct() {
        let mut seeds: Vec<u64> = (0..1000).map(|i| case_seed(BASE_SEED, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1000, "schedule never repeats a case seed");
    }

    #[test]
    fn prob_vec_and_gen_helpers_hold_their_ranges() {
        check(
            "prob_vec_and_gen_helpers_hold_their_ranges",
            32,
            (prob_vec(5), usize_range(4..64), u64_range(0..1000)),
            |(p, n, u)| {
                assert_eq!(p.len(), 5);
                assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
                assert!(p.iter().all(|&x| x > 0.0));
                assert!((4..64).contains(n));
                assert!(*u < 1000);
            },
        );
    }
}
