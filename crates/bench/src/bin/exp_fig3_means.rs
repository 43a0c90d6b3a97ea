//! E5 — Fig. 3: the types × means effectiveness matrix, measured.
//!
//! A closed-loop fleet simulation quantifies, for each of the paper's four
//! means, how much it reduces three per-kind risk components relative to
//! a baseline single-camera system in the open-context world:
//!
//! - **aleatory risk**: rate of hazardous misclassification of *known*
//!   objects (pedestrian perceived as car) — inherent to the chosen
//!   perception model;
//! - **epistemic risk**: remaining 95% credible width on that hazard rate
//!   given the available observation budget — what we do not yet know
//!   about the system's own performance;
//! - **ontological risk**: rate of *novel* objects confidently accepted
//!   as a known class — the unknown-unknown getting through.

use sysunc_prob::rng::StdRng;
use sysunc_prob::rng::SeedableRng;
use sysunc::perception::{
    ClassifierModel, FieldCampaign, FusedVerdict, FusionSystem, PerceptionError,
    ReleaseForecast, Truth, WorldModel,
};
use sysunc::prob::dist::Beta;
use sysunc_bench::{header, section};

struct RiskProfile {
    aleatory: f64,
    epistemic: f64,
    ontological: f64,
}

/// A perception configuration under test.
enum System {
    SingleCamera(ClassifierModel),
    AgreementFusion(FusionSystem),
}

impl System {
    /// Returns (hazard on this known-pedestrian encounter, accepted as
    /// known on this novel encounter) indicator outcomes.
    fn hazard_on(&self, truth: Truth, rng: &mut StdRng) -> Result<(bool, bool), PerceptionError> {
        match self {
            System::SingleCamera(c) => {
                let label = c.classify(truth, rng).label;
                let ped_as_car = truth == Truth::Known(1) && label == 0;
                let novel_accepted = truth.is_novel() && label < c.known_len();
                Ok((ped_as_car, novel_accepted))
            }
            System::AgreementFusion(f) => {
                let labels = f.observe(truth, rng);
                let verdict = f.fuse_vote(&labels)?;
                let ped_as_car = truth == Truth::Known(1) && verdict == FusedVerdict::Known(0);
                let novel_accepted =
                    truth.is_novel() && matches!(verdict, FusedVerdict::Known(_));
                Ok((ped_as_car, novel_accepted))
            }
        }
    }
}

fn measure(
    world: &WorldModel,
    system: &System,
    observation_budget: usize,
    forecast_gate: bool,
    seed: u64,
) -> Result<RiskProfile, Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let trials = 300_000;
    let mut ped_encounters = 0u64;
    let mut ped_hazards = 0u64;
    let mut novel_encounters = 0u64;
    let mut novel_accepted = 0u64;
    for _ in 0..trials {
        let truth = world.sample(&mut rng);
        let (hazard, accepted) = system.hazard_on(truth, &mut rng)?;
        if truth == Truth::Known(1) {
            ped_encounters += 1;
            if hazard {
                ped_hazards += 1;
            }
        }
        if truth.is_novel() {
            novel_encounters += 1;
            if accepted {
                novel_accepted += 1;
            }
        }
    }
    let aleatory = ped_hazards as f64 / ped_encounters.max(1) as f64;
    // Epistemic: credible width on the hazard rate from the observation
    // budget (the fleet can only label so much data).
    let observed_hazards = (aleatory * observation_budget as f64).round() as u64;
    let posterior = Beta::new(1.0, 1.0)?
        .updated(observed_hazards, observation_budget as u64 - observed_hazards);
    let epistemic = posterior.credible_width(0.95);
    // Ontological: per-encounter rate of accepted unknowns; with a
    // forecast gate, release is withheld until the Good–Turing residual
    // rate clears a target, which caps the exposure-weighted risk.
    let mut ontological =
        world.novel_mass() * novel_accepted as f64 / novel_encounters.max(1) as f64;
    if forecast_gate {
        let mut campaign = FieldCampaign::new(2);
        campaign.observe_world(world, observation_budget, &mut rng);
        let residual = ReleaseForecast::from_campaign(&campaign).residual_novelty_rate;
        // The gate limits the *unvetted* novelty stream to the residual.
        ontological = ontological.min(residual);
    }
    Ok(RiskProfile { aleatory, epistemic, ontological })
}

fn fusion_system() -> Result<FusionSystem, PerceptionError> {
    let camera = ClassifierModel::paper_camera()?;
    let radar = ClassifierModel::new(
        vec!["car".into(), "pedestrian".into()],
        vec![vec![0.95, 0.0, 0.05], vec![0.0, 0.8, 0.2]],
        vec![0.05, 0.05, 0.9],
    )?;
    FusionSystem::new(vec![camera, radar], vec![0.6, 0.3, 0.1], vec![0.9, 0.9])
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("E5", "Fig. 3 — measured types x means effectiveness matrix");
    let world = WorldModel::paper_example()?;
    let camera = ClassifierModel::paper_camera()?;

    let baseline = measure(&world, &System::SingleCamera(camera.clone()), 2_000, false, 1)?;
    section("baseline: single camera, open context, 2k labeled observations");
    println!(
        "  aleatory {:.5}   epistemic {:.5}   ontological {:.5}",
        baseline.aleatory, baseline.epistemic, baseline.ontological
    );

    // The four means.
    let restricted = WorldModel::new(
        vec!["car".into(), "pedestrian".into()],
        vec![0.653, 0.327],
        0.02,
        1_000,
        1.1,
    )?;
    let configs: Vec<(&str, WorldModel, System, usize, bool)> = vec![
        (
            "prevention: ODD restriction",
            restricted,
            System::SingleCamera(camera.clone()),
            2_000,
            false,
        ),
        (
            "removal: field obs (100k labels)",
            world.clone(),
            System::SingleCamera(camera.clone()),
            100_000,
            false,
        ),
        (
            "tolerance: diverse fusion",
            world.clone(),
            System::AgreementFusion(fusion_system()?),
            2_000,
            false,
        ),
        (
            "forecasting: release gate",
            world.clone(),
            System::SingleCamera(camera.clone()),
            2_000,
            true,
        ),
    ];

    section("reduction factor vs baseline (higher = more effective)");
    println!(
        "  {:<36} {:>10} {:>10} {:>12}",
        "means", "aleatory", "epistemic", "ontological"
    );
    for (name, w, sys, budget, gate) in configs {
        let r = measure(&w, &sys, budget, gate, 2)?;
        let f = |base: f64, now: f64| {
            if now <= 0.0 {
                f64::INFINITY
            } else {
                base / now
            }
        };
        println!(
            "  {:<36} {:>9.1}x {:>9.1}x {:>11.1}x",
            name,
            f(baseline.aleatory, r.aleatory),
            f(baseline.epistemic, r.epistemic),
            f(baseline.ontological, r.ontological)
        );
    }
    println!("\n  Expected shape (paper Sec. IV): prevention and removal-in-use are");
    println!("  the strong levers against ontological uncertainty; tolerance is");
    println!("  strong against aleatory/epistemic but weaker against ontological;");
    println!("  removal by observation is the epistemic lever; forecasting mainly");
    println!("  bounds the ontological exposure at release.");
    Ok(())
}
