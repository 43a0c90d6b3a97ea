//! Epistemic importance: which basic event's *lack of knowledge*
//! contributes most to the uncertainty about the top event?
//!
//! Classic importance measures (Birnbaum, FV — see [`crate::importance`])
//! rank events by their contribution to the top-event *probability*. Under
//! the paper's taxonomy there is a second, distinct question: which
//! event's epistemic interval contributes most to the *width* of the
//! top-event interval — i.e. where would better knowledge (uncertainty
//! removal) pay off most? This is the pinning (freeze-one-at-a-time)
//! sensitivity of interval FTA.

use crate::error::Result;
use crate::tree::FaultTree;
use crate::uncertain::quantify_with;
use sysunc_evidence::Interval;

/// Epistemic importance of one basic event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpistemicImportance {
    /// Basic-event index.
    pub event: usize,
    /// Top-event interval width with this event pinned to its midpoint.
    pub pinned_width: f64,
    /// Width reduction achieved by pinning (baseline width − pinned
    /// width): the value of perfect information about this event.
    pub width_reduction: f64,
}

/// Computes the epistemic importance of every basic event: for each, the
/// top-event interval is re-quantified with that event's interval pinned
/// to its midpoint; the width reduction ranks where knowledge is most
/// valuable. Results are sorted by descending reduction.
///
/// # Errors
///
/// Propagates [`crate::quantify_with`] errors (probability count
/// mismatch, missing top event).
///
/// # Examples
///
/// ```
/// use sysunc_evidence::Interval;
/// use sysunc_fta::{epistemic_importance, FaultTree, GateKind};
/// let mut ft = FaultTree::new();
/// let a = ft.add_basic_event("well-known", 0.01)?;
/// let b = ft.add_basic_event("poorly-known", 0.01)?;
/// let top = ft.add_gate("top", GateKind::Or, vec![a, b])?;
/// ft.set_top(top)?;
/// let bands = vec![
///     Interval::new(0.009, 0.011)?, // tight
///     Interval::new(0.001, 0.1)?,   // wide
/// ];
/// let ranking = epistemic_importance(&ft, &bands)?;
/// assert_eq!(ranking[0].event, 1, "the poorly-known event dominates");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn epistemic_importance(
    tree: &FaultTree,
    intervals: &[Interval],
) -> Result<Vec<EpistemicImportance>> {
    let baseline = quantify_with(tree, intervals)?;
    let baseline_width = baseline.width();
    let mut out = Vec::with_capacity(intervals.len());
    for i in 0..intervals.len() {
        let mut pinned = intervals.to_vec();
        pinned[i] = Interval::degenerate(intervals[i].midpoint());
        let width = quantify_with(tree, &pinned)?.width();
        out.push(EpistemicImportance {
            event: i,
            pinned_width: width,
            width_reduction: (baseline_width - width).max(0.0),
        });
    }
    out.sort_by(|a, b| b.width_reduction.total_cmp(&a.width_reduction));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::GateKind;

    fn tree() -> FaultTree {
        let mut ft = FaultTree::new();
        let a = ft.add_basic_event("a", 0.01).unwrap();
        let b = ft.add_basic_event("b", 0.02).unwrap();
        let c = ft.add_basic_event("c", 0.001).unwrap();
        let g = ft.add_gate("ab", GateKind::And, vec![a, b]).unwrap();
        let top = ft.add_gate("top", GateKind::Or, vec![g, c]).unwrap();
        ft.set_top(top).unwrap();
        ft
    }

    #[test]
    fn wide_band_on_dominant_event_ranks_first() {
        let ft = tree();
        // c dominates the top event (single-point); give it a wide band.
        let bands = vec![
            Interval::new(0.009, 0.011).unwrap(),
            Interval::new(0.019, 0.021).unwrap(),
            Interval::new(1e-4, 1e-2).unwrap(),
        ];
        let ranking = epistemic_importance(&ft, &bands).unwrap();
        assert_eq!(ranking[0].event, 2);
        assert!(ranking[0].width_reduction > 10.0 * ranking[1].width_reduction);
    }

    #[test]
    fn pinning_everything_recovers_zero_width() {
        let ft = tree();
        let degenerate: Vec<Interval> = ft
            .basic_events()
            .iter()
            .map(|e| Interval::degenerate(e.probability))
            .collect();
        let ranking = epistemic_importance(&ft, &degenerate).unwrap();
        for r in &ranking {
            assert_eq!(r.width_reduction, 0.0);
            assert_eq!(r.pinned_width, 0.0);
        }
    }

    #[test]
    fn reductions_are_bounded_by_baseline_width() {
        let ft = tree();
        let bands: Vec<Interval> = ft
            .basic_events()
            .iter()
            .map(|e| Interval::new(e.probability * 0.5, e.probability * 2.0).unwrap())
            .collect();
        let baseline = quantify_with(&ft, &bands).unwrap().width();
        for r in epistemic_importance(&ft, &bands).unwrap() {
            assert!(r.width_reduction <= baseline + 1e-15);
            assert!(r.pinned_width <= baseline + 1e-15);
        }
    }

    #[test]
    fn mismatched_band_count_errors() {
        let ft = tree();
        assert!(epistemic_importance(&ft, &[Interval::unit()]).is_err());
    }
}
