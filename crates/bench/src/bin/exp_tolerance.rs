//! E8 — Sec. IV tolerance: redundant architectures with *diverse*
//! uncertainties. Sweeps fusion rules and channel diversity, including a
//! common-cause sensitivity study: when both channels share the same
//! blind spot, redundancy stops helping — which the paper's
//! "common parent nodes" analysis is designed to reveal.

use sysunc_prob::rng::StdRng;
use sysunc_prob::rng::SeedableRng;
use sysunc::perception::{
    ClassifierModel, FusedVerdict, FusionSystem, PerceptionError, RejectingClassifier, Truth,
    Verdict, WorldModel,
};
use sysunc_bench::{header, section};

struct Rates {
    ped_as_car: f64,
    novel_accepted: f64,
    availability: f64,
}

fn eval<F: FnMut(Truth, &mut StdRng) -> Result<Option<usize>, PerceptionError>>(
    world: &WorldModel,
    mut system: F,
    seed: u64,
) -> Result<Rates, PerceptionError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let trials = 200_000;
    let (mut ped_n, mut ped_bad) = (0u64, 0u64);
    let (mut novel_n, mut novel_bad) = (0u64, 0u64);
    let (mut known_n, mut answered) = (0u64, 0u64);
    for _ in 0..trials {
        let truth = world.sample(&mut rng);
        let out = system(truth, &mut rng)?;
        match truth {
            Truth::Known(1) => {
                ped_n += 1;
                if out == Some(0) {
                    ped_bad += 1;
                }
            }
            Truth::Known(_) => {}
            Truth::Novel(_) => {
                novel_n += 1;
                if out.is_some() {
                    novel_bad += 1;
                }
            }
        }
        if let Truth::Known(_) = truth {
            known_n += 1;
            if out.is_some() {
                answered += 1;
            }
        }
    }
    Ok(Rates {
        ped_as_car: ped_bad as f64 / ped_n.max(1) as f64,
        novel_accepted: novel_bad as f64 / novel_n.max(1) as f64,
        availability: answered as f64 / known_n.max(1) as f64,
    })
}

fn print_rates(name: &str, r: &Rates) {
    println!(
        "  {:<34} {:>12.5} {:>14.5} {:>12.3}",
        name, r.ped_as_car, r.novel_accepted, r.availability
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    header("E8", "Sec. IV — tolerance by redundant diverse architectures");
    let world = WorldModel::paper_example()?;
    let camera = ClassifierModel::paper_camera()?;
    let radar = ClassifierModel::new(
        vec!["car".into(), "pedestrian".into()],
        vec![vec![0.95, 0.0, 0.05], vec![0.0, 0.8, 0.2]],
        vec![0.05, 0.05, 0.9],
    )?;
    // A "same-technology" second camera: identical confusion structure —
    // redundant but NOT diverse.
    let camera2 = ClassifierModel::paper_camera()?;

    let diverse = FusionSystem::new(
        vec![camera.clone(), radar.clone()],
        vec![0.6, 0.3, 0.1],
        vec![0.9, 0.9],
    )?;
    let homogeneous = FusionSystem::new(
        vec![camera.clone(), camera2],
        vec![0.6, 0.3, 0.1],
        vec![0.9, 0.9],
    )?;

    section("architectures (ped-as-car | novel accepted | availability on knowns)");
    println!(
        "  {:<34} {:>12} {:>14} {:>12}",
        "architecture", "ped-as-car", "novel-accept", "availability"
    );

    let r = eval(&world, |t, rng| {
        let label = camera.classify(t, rng).label;
        Ok((label < camera.known_len()).then_some(label))
    }, 1)?;
    print_rates("single camera", &r);

    let rej = RejectingClassifier::new(camera.clone(), 0.55)?;
    let r = eval(&world, |t, rng| match rej.classify(t, rng) {
        Verdict::Label(l) if l < rej.inner().known_len() => Ok(Some(l)),
        _ => Ok(None),
    }, 2)?;
    print_rates("uncertainty-aware camera (reject)", &r);

    for (name, sys) in [("diverse camera+radar", &diverse), ("homogeneous camera+camera", &homogeneous)] {
        for (rule, idx) in [("vote", 0usize), ("bayes", 1), ("dempster", 2)] {
            let r = eval(&world, |t, rng| {
                let labels = sys.observe(t, rng);
                let verdict = match idx {
                    0 => sys.fuse_vote(&labels)?,
                    1 => sys.fuse_bayes(&labels)?.0,
                    _ => sys.fuse_dempster(&labels).map(|(v, _)| v).unwrap_or(FusedVerdict::Unknown),
                };
                Ok(match verdict {
                    FusedVerdict::Known(l) => Some(l),
                    FusedVerdict::Unknown => None,
                })
            }, 3 + idx as u64)?;
            print_rates(&format!("{name} [{rule}]"), &r);
        }
    }

    section("common-cause sensitivity: shared blind spot");
    // Both channels share a failure mode: in fog, both misread pedestrians
    // as cars with elevated probability. Model by degrading both confusion
    // rows identically.
    let foggy = ClassifierModel::new(
        vec!["car".into(), "pedestrian".into()],
        vec![vec![0.9, 0.01, 0.09], vec![0.25, 0.6, 0.15]],
        vec![0.1, 0.1, 0.8],
    )?;
    let foggy_pair =
        FusionSystem::new(vec![foggy.clone(), foggy], vec![0.6, 0.3, 0.1], vec![0.9, 0.9])?;
    let r = eval(&world, |t, rng| {
        let labels = foggy_pair.observe(t, rng);
        Ok(match foggy_pair.fuse_vote(&labels)? {
            FusedVerdict::Known(l) => Some(l),
            FusedVerdict::Unknown => None,
        })
    }, 11)?;
    print_rates("common-cause degraded pair [vote]", &r);
    println!("\n  Expected shape: diverse fusion cuts ped-as-car and novel");
    println!("  acceptance by an order of magnitude at modest availability cost;");
    println!("  homogeneous redundancy helps much less; a shared (common-cause)");
    println!("  blind spot defeats redundancy — diversity, not duplication, is");
    println!("  what buys tolerance (paper Sec. IV/V-B).");
    Ok(())
}
