//! E1 — Table I + Fig. 4: exact reproduction of the paper's conditional
//! probability table, the implied marginals, and all diagnostic
//! posteriors, cross-checked by likelihood-weighted sampling.

use sysunc_prob::rng::StdRng;
use sysunc_prob::rng::SeedableRng;
use sysunc::bayesnet::likelihood_weighting;
use sysunc::casestudy::{
    ground_truth_prior, paper_bayes_net, table1_cpt, GROUND_TRUTH_STATES, PERCEPTION_STATES,
};
use sysunc_bench::{header, prob_vec, section};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("E1", "Table I / Fig. 4 — the perception-chain Bayesian network");

    section("Table I, verbatim (rows: ground truth; columns: perception)");
    println!("  {:<14} {:>8} {:>12} {:>16} {:>8}", "", "car", "pedestrian", "car/pedestrian", "none");
    for (state, row) in GROUND_TRUTH_STATES.iter().zip(table1_cpt()) {
        println!(
            "  {:<14} {:>8.3} {:>12.3} {:>16.3} {:>8.3}   (row sum {:.2})",
            state,
            row[0],
            row[1],
            row[2],
            row[3],
            row.iter().sum::<f64>()
        );
    }
    println!("  prior P(ground truth) = {}", prob_vec(&ground_truth_prior()));
    println!("  note: the unknown row sums to 0.9 in the paper; the Bayesian");
    println!("  reading renormalizes it, the evidential reading (E7) sends the");
    println!("  missing 0.1 to Θ.");

    let bn = paper_bayes_net()?;

    section("Prior marginal of the perception node");
    let marginal = bn.marginal("perception", &[])?;
    for (state, p) in PERCEPTION_STATES.iter().zip(&marginal) {
        println!("  P(perception = {state:<15}) = {p:.6}");
    }

    section("Diagnostic posteriors P(ground truth | perception) — exact VE");
    for state in PERCEPTION_STATES {
        let post = bn.marginal("ground_truth", &[("perception", state)])?;
        println!("  given {state:<15} -> {}", prob_vec(&post));
    }

    section("Cross-check: likelihood weighting, 500k samples");
    let gt = bn.node_id("ground_truth").ok_or("no ground_truth node")?;
    let perc = bn.node_id("perception").ok_or("no perception node")?;
    let mut rng = StdRng::seed_from_u64(1);
    for (sid, state) in PERCEPTION_STATES.iter().enumerate() {
        let approx = likelihood_weighting(&bn, gt, &[(perc, sid)], 500_000, &mut rng)?;
        let exact = bn.marginal("ground_truth", &[("perception", state)])?;
        let max_err = approx
            .iter()
            .zip(&exact)
            .map(|(a, e)| (a - e).abs())
            .fold(0.0f64, f64::max);
        println!("  given {state:<15} -> {}  (max |err| vs exact {max_err:.4})", prob_vec(&approx));
    }

    section("Key numbers for EXPERIMENTS.md");
    println!("  P(perception=car)             = {:.6} (paper-implied 0.5415)", marginal[0]);
    println!("  P(perception=pedestrian)      = {:.6} (paper-implied 0.2730)", marginal[1]);
    let post_none = bn.marginal("ground_truth", &[("perception", "none")])?;
    println!("  P(unknown | none)             = {:.6}", post_none[2]);
    Ok(())
}
