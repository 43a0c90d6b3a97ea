//! Property-based tests on the core invariants of the uncertainty
//! substrates, driven by the in-tree `sysunc_prob::propcheck` harness
//! (replacing the external `proptest` crate): each test states its
//! input domain as a [`propcheck`] strategy, so a failure shrinks to a
//! minimal counterexample and reports a `PROPCHECK_SEED` replay line.

use sysunc::bayesnet::BayesNet;
use sysunc::evidence::{DsStructure, Frame, FuzzyNumber, Interval, MassFunction};
use sysunc::fta::{minimal_cut_sets, FaultTree, GateKind};
use sysunc::prob::dist::{Continuous, LogNormal, Normal, Triangular, Uniform, Weibull};
use sysunc::prob::info::{entropy, js_divergence, kl_divergence};
use sysunc::prob::stats::{select_quantiles, SortedSample};
use sysunc_prob::propcheck::{
    self, f64_range, one_of, prob_vec, u64_range, usize_range, vec_of, OneOf, Strategy as _,
};
use sysunc_prob::rng::{SeedableRng, StdRng};

// ------------------------------------------------------------------
// Distribution invariants (sysunc-prob).
// ------------------------------------------------------------------

#[test]
fn normal_cdf_monotone_and_quantile_inverse() {
    propcheck::check(
        "normal_cdf_monotone_and_quantile_inverse",
        64,
        (f64_range(-10.0, 10.0), f64_range(0.01, 10.0), f64_range(0.001, 0.999)),
        |&(mu, sigma, p)| {
            let d = Normal::new(mu, sigma).expect("valid");
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-9);
            assert!(d.cdf(x + sigma) >= d.cdf(x));
            assert!(d.pdf(x) >= 0.0);
        },
    );
}

#[test]
fn lognormal_and_weibull_support_nonnegative() {
    propcheck::check(
        "lognormal_and_weibull_support_nonnegative",
        64,
        (f64_range(0.1, 3.0), f64_range(0.1, 3.0), f64_range(0.001, 0.999)),
        |&(a, b, p)| {
            let ln = LogNormal::new(a - 1.0, b).expect("valid");
            let wb = Weibull::new(a, b).expect("valid");
            assert!(ln.quantile(p) >= 0.0);
            assert!(wb.quantile(p) >= 0.0);
            assert!(ln.cdf(-1.0) == 0.0);
            assert!(wb.cdf(-1.0) == 0.0);
        },
    );
}

#[test]
fn triangular_quantile_round_trip() {
    propcheck::check(
        "triangular_quantile_round_trip",
        64,
        (
            f64_range(-5.0, 0.0),
            f64_range(0.01, 5.0),
            f64_range(0.01, 5.0),
            f64_range(0.001, 0.999),
        ),
        |&(a, w1, w2, p)| {
            let d = Triangular::new(a, a + w1, a + w1 + w2).expect("valid");
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-9);
            assert!(x >= a && x <= a + w1 + w2);
        },
    );
}

// ------------------------------------------------------------------
// Information theory invariants.
// ------------------------------------------------------------------

#[test]
fn entropy_bounds_and_kl_nonnegative() {
    propcheck::check(
        "entropy_bounds_and_kl_nonnegative",
        64,
        (prob_vec(5), prob_vec(5)),
        |(p, q)| {
            let h = entropy(p);
            assert!(h >= -1e-12);
            assert!(h <= (5.0f64).ln() + 1e-12);
            let d = kl_divergence(p, q).expect("same length");
            assert!(d >= -1e-12, "KL must be non-negative, got {d}");
            let j = js_divergence(p, q).expect("same length");
            assert!(j >= -1e-12 && j <= std::f64::consts::LN_2 + 1e-9);
        },
    );
}

// ------------------------------------------------------------------
// Interval arithmetic: containment soundness.
// ------------------------------------------------------------------

#[test]
fn interval_arithmetic_contains_pointwise_results() {
    propcheck::check(
        "interval_arithmetic_contains_pointwise_results",
        64,
        (
            f64_range(-10.0, 10.0),
            f64_range(0.0, 5.0),
            f64_range(-10.0, 10.0),
            f64_range(0.0, 5.0),
            f64_range(0.0, 1.0),
            f64_range(0.0, 1.0),
        ),
        |&(a_lo, a_w, b_lo, b_w, ta, tb)| {
            let a = Interval::new(a_lo, a_lo + a_w).expect("ordered");
            let b = Interval::new(b_lo, b_lo + b_w).expect("ordered");
            let x = a_lo + ta * a_w;
            let y = b_lo + tb * b_w;
            assert!((a + b).contains(x + y));
            assert!((a - b).contains(x - y));
            // Multiplication with a small tolerance for rounding at corners.
            let m = a * b;
            assert!(x * y >= m.lo() - 1e-9 && x * y <= m.hi() + 1e-9);
        },
    );
}

// ------------------------------------------------------------------
// Dempster-Shafer invariants.
// ------------------------------------------------------------------

#[test]
fn mass_function_bel_pl_invariants() {
    propcheck::check(
        "mass_function_bel_pl_invariants",
        64,
        (prob_vec(4), f64_range(0.0, 0.9)),
        |(probs, ignorance)| {
            let frame = Frame::new(vec!["a", "b", "c", "d"]).expect("valid");
            // Mix a Bayesian core with mass on Theta.
            let mut focal: Vec<(u64, f64)> = probs
                .iter()
                .enumerate()
                .map(|(i, &p)| (1u64 << i, p * (1.0 - ignorance)))
                .collect();
            focal.push((frame.theta(), *ignorance));
            let m = MassFunction::from_focal(&frame, focal).expect("valid");
            for set in 1u64..16 {
                let bel = m.belief(set);
                let pl = m.plausibility(set);
                assert!(bel <= pl + 1e-12);
                let compl = !set & frame.theta();
                assert!((pl - (1.0 - m.belief(compl))).abs() < 1e-12);
            }
            // Pignistic is a probability distribution.
            let bet = m.pignistic();
            assert!((bet.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // Dempster combination with the vacuous mass is the identity.
            let same = m.combine_dempster(&MassFunction::vacuous(&frame)).expect("no conflict");
            for set in 1u64..16 {
                assert!((same.mass(set) - m.mass(set)).abs() < 1e-12);
            }
        },
    );
}

// ------------------------------------------------------------------
// P-box invariants.
// ------------------------------------------------------------------

#[test]
fn ds_structure_cdf_envelope_is_monotone_and_ordered() {
    propcheck::check(
        "ds_structure_cdf_envelope_is_monotone_and_ordered",
        64,
        (vec_of(f64_range(-5.0, 5.0), 2..6), f64_range(0.01, 2.0)),
        |(centers, width)| {
            let n = centers.len();
            let focal: Vec<(Interval, f64)> = centers
                .iter()
                .map(|&c| {
                    (Interval::new(c - width, c + width).expect("ordered"), 1.0 / n as f64)
                })
                .collect();
            let ds = DsStructure::new(focal).expect("valid");
            let mut prev_lo = 0.0;
            let mut prev_hi = 0.0;
            for i in -20..=20 {
                let x = i as f64 * 0.5;
                let b = ds.cdf_bounds(x);
                assert!(b.lo() <= b.hi() + 1e-12);
                assert!(b.lo() >= prev_lo - 1e-12, "lower CDF must be monotone");
                assert!(b.hi() >= prev_hi - 1e-12, "upper CDF must be monotone");
                prev_lo = b.lo();
                prev_hi = b.hi();
            }
            let mean = ds.mean_bounds();
            assert!(mean.width() <= 2.0 * width + 1e-9);
        },
    );
}

// ------------------------------------------------------------------
// Fuzzy number invariants.
// ------------------------------------------------------------------

#[test]
fn fuzzy_cuts_nest_under_arithmetic() {
    propcheck::check(
        "fuzzy_cuts_nest_under_arithmetic",
        64,
        (
            f64_range(-3.0, 0.0),
            f64_range(0.0, 1.0),
            f64_range(1.0, 4.0),
            f64_range(-3.0, 0.0),
            f64_range(0.0, 1.0),
            f64_range(1.0, 4.0),
        ),
        |&(a, m, b, a2, m2, b2)| {
            let x = FuzzyNumber::triangular(a, m, b).expect("ordered");
            let y = FuzzyNumber::triangular(a2, m2, b2).expect("ordered");
            for op in [FuzzyNumber::add, FuzzyNumber::sub, FuzzyNumber::mul] {
                let z = op(&x, &y);
                let mut prev = z.alpha_cut(0.0);
                for i in 1..=10 {
                    let cut = z.alpha_cut(i as f64 / 10.0);
                    assert!(prev.lo() <= cut.lo() + 1e-9);
                    assert!(cut.hi() <= prev.hi() + 1e-9);
                    prev = cut;
                }
            }
        },
    );
}

// ------------------------------------------------------------------
// Bayesian network invariants.
// ------------------------------------------------------------------

#[test]
fn bn_marginals_normalize_and_respect_priors() {
    propcheck::check(
        "bn_marginals_normalize_and_respect_priors",
        64,
        (prob_vec(3), prob_vec(4)),
        |(prior, row_seed)| {
            let mut bn = BayesNet::new();
            let root = bn
                .add_root("root", vec!["a", "b", "c"], prior.clone())
                .expect("valid prior");
            // Derive three distinct CPT rows from the seed by rotation.
            let rows: Vec<Vec<f64>> = (0..3)
                .map(|k| {
                    let mut r = row_seed.clone();
                    r.rotate_left(k);
                    r
                })
                .collect();
            bn.add_node("leaf", vec!["w", "x", "y", "z"], vec![root], rows.clone())
                .expect("valid CPT");
            let m = bn.marginal("leaf", &[]).expect("query");
            assert!((m.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            // Law of total probability by hand.
            for j in 0..4 {
                let expect: f64 = (0..3).map(|i| prior[i] * rows[i][j]).sum();
                assert!((m[j] - expect).abs() < 1e-9);
            }
            // Posterior of the root given any leaf state normalizes.
            for state in ["w", "x", "y", "z"] {
                let post = bn.marginal("root", &[("leaf", state)]).expect("query");
                assert!((post.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            }
        },
    );
}

// ------------------------------------------------------------------
// Fault tree invariants.
// ------------------------------------------------------------------

#[test]
fn cut_sets_are_minimal_and_sufficient() {
    propcheck::check(
        "cut_sets_are_minimal_and_sufficient",
        64,
        (vec_of(f64_range(0.01, 0.5), 4..5), usize_range(1..4)),
        |(p, k)| {
            let mut ft = FaultTree::new();
            let events: Vec<_> = p
                .iter()
                .enumerate()
                .map(|(i, &pi)| ft.add_basic_event(format!("e{i}"), pi).expect("valid"))
                .collect();
            let vote = ft
                .add_gate("koon", GateKind::KOfN(*k), events.clone())
                .expect("valid");
            let extra =
                ft.add_gate("and01", GateKind::And, vec![events[0], events[1]]).expect("valid");
            let top = ft.add_gate("top", GateKind::Or, vec![vote, extra]).expect("valid");
            ft.set_top(top).expect("valid");
            let cuts = minimal_cut_sets(&ft).expect("small tree");
            // Every cut set triggers the top event.
            for cut in &cuts {
                let mut failed = vec![false; 4];
                for &i in cut {
                    failed[i] = true;
                }
                assert!(ft.structure_function(&failed).expect("valid state"));
                // Minimality: removing any element deactivates the cut.
                for &i in cut {
                    failed[i] = false;
                    let still = ft.structure_function(&failed).expect("valid state");
                    failed[i] = true;
                    // The state may still fail through ANOTHER cut set, but
                    // then this cut would not be minimal only if a subset is a
                    // cut — which subsumption already removed. Check subsets
                    // directly instead:
                    let sub: std::collections::BTreeSet<usize> =
                        cut.iter().copied().filter(|&j| j != i).collect();
                    assert!(
                        !cuts.contains(&sub) || !still,
                        "subset of a minimal cut set must not be a cut set"
                    );
                }
            }
            // Probability bounds bracket the exact value.
            let exact = ft.top_probability_exact().expect("small tree");
            let rare = sysunc::fta::rare_event_approximation(&ft, &cuts);
            assert!(exact <= rare + 1e-9);
        },
    );
}

// ------------------------------------------------------------------
// Sampling invariants.
// ------------------------------------------------------------------

#[test]
fn lhs_projections_cover_all_strata() {
    propcheck::check(
        "lhs_projections_cover_all_strata",
        64,
        (usize_range(4..64), usize_range(1..5), u64_range(0..1000)),
        |&(n, dim, seed)| {
            use sysunc::sampling::{Design, LatinHypercubeDesign};
            let mut rng = StdRng::seed_from_u64(seed);
            let pts = LatinHypercubeDesign.generate(n, dim, &mut rng).expect("valid");
            for j in 0..dim {
                let mut seen = vec![false; n];
                for p in &pts {
                    seen[((p[j] * n as f64) as usize).min(n - 1)] = true;
                }
                assert!(seen.iter().all(|&s| s));
            }
        },
    );
}

#[test]
fn uniform_distribution_sampling_within_support() {
    propcheck::check(
        "uniform_distribution_sampling_within_support",
        64,
        (f64_range(-10.0, 10.0), f64_range(0.1, 5.0), u64_range(0..100)),
        |&(a, w, seed)| {
            let d = Uniform::new(a, a + w).expect("valid");
            let mut rng = StdRng::seed_from_u64(seed);
            for x in d.sample_n(&mut rng, 100) {
                assert!(d.support().contains(x));
            }
        },
    );
}

// ------------------------------------------------------------------
// Ranked-node CPT invariants.
// ------------------------------------------------------------------

#[test]
fn ranked_cpt_rows_normalize_and_order() {
    propcheck::check(
        "ranked_cpt_rows_normalize_and_order",
        32,
        (vec_of(usize_range(2..5), 1..4), usize_range(2..6), f64_range(0.05, 2.0)),
        |(parents, child_states, sigma)| {
            use sysunc::bayesnet::ranked_cpt;
            let weights = vec![1.0; parents.len()];
            let cpt =
                ranked_cpt(parents, &weights, *child_states, *sigma).expect("valid spec");
            let rows: usize = parents.iter().product();
            assert_eq!(cpt.len(), rows);
            for row in &cpt {
                assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                assert!(row.iter().all(|&p| p >= 0.0));
            }
            // The all-low and all-high parent rows are ordered in expected rank.
            let rank = |row: &Vec<f64>| -> f64 {
                row.iter().enumerate().map(|(i, &p)| i as f64 * p).sum()
            };
            assert!(rank(&cpt[0]) <= rank(&cpt[rows - 1]) + 1e-9);
        },
    );
}

// ------------------------------------------------------------------
// Distribution fitting: round trips on generated data.
// ------------------------------------------------------------------

#[test]
fn normal_fit_round_trip() {
    propcheck::check(
        "normal_fit_round_trip",
        32,
        (f64_range(-5.0, 5.0), f64_range(0.2, 3.0), u64_range(0..50)),
        |&(mu, sigma, seed)| {
            use sysunc::prob::fit::fit_normal;
            let truth = Normal::new(mu, sigma).expect("valid");
            let mut rng = StdRng::seed_from_u64(seed);
            let xs = truth.sample_n(&mut rng, 4_000);
            let fit = fit_normal(&xs).expect("fits");
            assert!((fit.mu() - mu).abs() < 5.0 * sigma / (4000f64).sqrt() + 0.05);
            assert!((fit.sigma() - sigma).abs() < 0.2 * sigma);
        },
    );
}

// ------------------------------------------------------------------
// Murphy combination stays a valid mass function.
// ------------------------------------------------------------------

#[test]
fn murphy_combination_is_valid_mass() {
    propcheck::check(
        "murphy_combination_is_valid_mass",
        32,
        (prob_vec(3), prob_vec(3)),
        |(p, q)| {
            use sysunc::evidence::combine_murphy;
            let frame = Frame::new(vec!["a", "b", "c"]).expect("valid");
            let m1 = MassFunction::bayesian(&frame, p).expect("valid");
            let m2 = MassFunction::bayesian(&frame, q).expect("valid");
            let fused = combine_murphy(&[m1, m2]).expect("combines");
            let total: f64 = fused.focal_elements().map(|(_, m)| m).sum();
            assert!((total - 1.0).abs() < 1e-9);
            for set in 1u64..8 {
                assert!(fused.belief(set) <= fused.plausibility(set) + 1e-12);
            }
        },
    );
}

// ------------------------------------------------------------------
// Common-cause installation conserves single-member probability.
// ------------------------------------------------------------------

#[test]
fn common_cause_member_probability() {
    propcheck::check(
        "common_cause_member_probability",
        32,
        (f64_range(1e-4, 0.2), f64_range(0.0, 0.9), usize_range(2..5)),
        |&(p, beta, n)| {
            use sysunc::fta::install_common_cause_group;
            let mut ft = FaultTree::new();
            let group = install_common_cause_group(&mut ft, "g", n, p, beta).expect("valid");
            ft.set_top(group.member_events[0]).expect("valid");
            let member = ft.top_probability_exact().expect("small");
            // member = 1 - (1 - p(1-β))(1 - pβ) = p - p²β(1-β) ∈ [p - p²/4, p].
            assert!(member <= p + 1e-12);
            assert!(member >= p - p * p * 0.25 - 1e-12);
        },
    );
}

// ------------------------------------------------------------------
// MPE probability is consistent with the joint.
// ------------------------------------------------------------------

#[test]
fn mpe_probability_bounded_by_evidence_probability() {
    propcheck::check(
        "mpe_probability_bounded_by_evidence_probability",
        32,
        (prob_vec(2), prob_vec(2)),
        |(prior, row_seed)| {
            use sysunc::bayesnet::most_probable_explanation;
            let mut bn = BayesNet::new();
            let a = bn.add_root("a", vec!["0", "1"], prior.clone()).expect("valid");
            let mut r2 = row_seed.clone();
            r2.reverse();
            bn.add_node("b", vec!["0", "1"], vec![a], vec![row_seed.clone(), r2])
                .expect("valid");
            let (assignment, p) = most_probable_explanation(&bn, &[(1, 0)]).expect("tractable");
            let p_evidence = bn.evidence_probability(&[("b", "0")]).expect("query");
            assert!(p <= p_evidence + 1e-12, "MPE joint cannot exceed P(e)");
            assert_eq!(assignment[1], 0, "evidence is respected");
        },
    );
}

// ------------------------------------------------------------------
// Order-statistic quantiles (sysunc-prob stats).
// ------------------------------------------------------------------

/// A sample value: one of a few tie-heavy atoms (signed zeros,
/// infinities, the smallest subnormal) or a continuous draw.
fn sample_value() -> OneOf<f64> {
    const ATOMS: [f64; 8] = [f64::NEG_INFINITY, -1.5, -0.0, 0.0, 5e-324, 1.0, 2.0, f64::INFINITY];
    one_of(vec![
        usize_range(0..ATOMS.len()).map(|k| ATOMS[k]).boxed(),
        f64_range(-100.0, 100.0).boxed(),
    ])
}

/// A quantile level: one of the served defaults, the ends of `[0, 1]`
/// and their nearest neighbours, or a uniform draw.
fn quantile_level() -> OneOf<f64> {
    const EDGES: [f64; 8] =
        [0.0, 1e-12, 0.05, 0.5, 0.95, 1.0 - 1e-12, 1.0 - f64::EPSILON / 2.0, 1.0];
    one_of(vec![
        usize_range(0..EDGES.len()).map(|k| EDGES[k]).boxed(),
        f64_range(0.0, 1.0).boxed(),
    ])
}

/// Selection answers every level with the sort's bits — on tie-heavy
/// samples with mixed signed zeros and infinities, for level lists in
/// any order with repeats — and only permutes its buffer. A NaN
/// anywhere gets the sort's error and leaves the buffer as it was.
#[test]
fn selected_quantiles_equal_the_sorted_sample_bit_for_bit() {
    propcheck::check(
        "selected_quantiles_equal_the_sorted_sample_bit_for_bit",
        64,
        (vec_of(sample_value(), 1..5000), vec_of(quantile_level(), 1..9), usize_range(0..5000)),
        |(xs, levels, at)| {
            let sorted = SortedSample::from_slice(xs).expect("non-empty and NaN-free");
            let mut buf = xs.clone();
            let picked = select_quantiles(&mut buf, levels).expect("non-empty and NaN-free");
            assert_eq!(picked.len(), levels.len());
            for (&p, q) in levels.iter().zip(&picked) {
                assert_eq!(
                    q.to_bits(),
                    sorted.interpolated(p).to_bits(),
                    "level {p}: selected {q}, sorted {}",
                    sorted.interpolated(p)
                );
            }
            let by_bits = |v: &[f64]| {
                let mut bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
                bits.sort_unstable();
                bits
            };
            assert_eq!(by_bits(&buf), by_bits(xs), "selection only permutes");

            let mut poisoned = xs.clone();
            poisoned.insert(at % (xs.len() + 1), f64::NAN);
            let mut buf = poisoned.clone();
            assert_eq!(
                select_quantiles(&mut buf, levels).expect_err("NaN is refused"),
                SortedSample::from_slice(&poisoned).expect_err("NaN is refused")
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&buf), bits(&poisoned), "a refused buffer is untouched");
        },
    );
}
