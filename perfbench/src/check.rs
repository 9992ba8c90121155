//! Correctness checks computed apart from the program's own code paths:
//! the benchmark's own argmax and accuracy, the majority-class baseline,
//! and the degree fixed point every normalized operator must satisfy.

use sgnn_data::Dataset;
use sgnn_dense::DMat;
use sgnn_sparse::PropMatrix;

use crate::ledger::Ledger;

/// Index of the first largest entry; NaN never wins.
pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in row.iter().enumerate() {
        if v > row[best] || row[best].is_nan() {
            best = i;
        }
    }
    best
}

/// Share of `idx` whose logits row argmax equals its label, computed as
/// `correct / |idx|`.
pub fn accuracy(logits: &DMat, labels: &[u32], idx: &[u32]) -> f64 {
    let correct = idx
        .iter()
        .filter(|&&i| argmax(logits.row(i as usize)) as u32 == labels[i as usize])
        .count();
    correct as f64 / idx.len().max(1) as f64
}

/// Share of `idx` that carries its most frequent label.
pub fn majority_rate(labels: &[u32], idx: &[u32]) -> f64 {
    let classes = labels.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut counts = vec![0usize; classes];
    for &i in idx {
        counts[labels[i as usize] as usize] += 1;
    }
    counts.iter().copied().max().unwrap_or(0) as f64 / idx.len().max(1) as f64
}

/// Accuracy must clear the majority-class rate by this much.
pub const MIN_MARGIN_OVER_MAJORITY: f64 = 0.10;

/// Recomputes test accuracy from `logits` and checks it against the
/// trainer's report and the majority-class rate.
pub fn check_accuracy(
    name: &str,
    logits: &DMat,
    data: &Dataset,
    reported: f64,
    ledger: &mut Ledger,
) -> f64 {
    let acc = accuracy(logits, &data.labels, &data.splits.test);
    let majority = majority_rate(&data.labels, &data.splits.test);
    let finite = !logits.has_non_finite();
    ledger.check(
        name,
        finite && acc == reported && acc >= majority + MIN_MARGIN_OVER_MAJORITY,
        format!("recomputed {acc}, reported {reported}, majority {majority:.4}, finite {finite}"),
    );
    acc
}

/// Unit roundoff of f32.
const U: f64 = f32::EPSILON as f64 / 2.0;

/// Worst-case relative rounding error of one f32 hop at a node of
/// self-loop degree `d`: a sum of `d` terms, each carrying a few roundings
/// (two scale powers, their product, the product with the input), with a
/// factor of two to spare.
fn rounding_bound(d: f64) -> f64 {
    2.0 * (d + 8.0) * U
}

/// Largest deviation of `y` from `x`, relative to `x` and in units of the
/// node's rounding bound.
fn max_scaled_err(y: &DMat, x: &[f64], degs: &[f64]) -> f64 {
    x.iter()
        .zip(degs)
        .enumerate()
        .map(|(i, (&xi, &d))| ((y.get(i, 0) as f64 - xi) / xi).abs() / rounding_bound(d))
        .fold(0.0, f64::max)
}

/// Errors of the two degree fixed points of `Ã = D̄^(ρ−1) Ā D̄^(−ρ)`:
/// `Ã·d̄^ρ = d̄^ρ` and `Ãᵀ·d̄^(1−ρ) = d̄^(1−ρ)`, where `self_loop_degs`
/// holds `d̄` (structural degree + 1). Each is the largest relative error
/// over the nodes in units of that node's f32 rounding bound, so a correct
/// operator stays at or below 1. The targets are computed here in f64.
pub fn fixed_point_errors(pm: &PropMatrix, self_loop_degs: &[f64], rho: f64) -> (f64, f64) {
    let n = self_loop_degs.len();
    let fwd: Vec<f64> = self_loop_degs.iter().map(|d| d.powf(rho)).collect();
    let adj: Vec<f64> = self_loop_degs.iter().map(|d| d.powf(1.0 - rho)).collect();
    let col = |v: &[f64]| DMat::from_vec(n, 1, v.iter().map(|&x| x as f32).collect());
    let y = pm.prop(1.0, 0.0, &col(&fwd));
    let yt = pm.prop_t(1.0, 0.0, &col(&adj));
    (
        max_scaled_err(&y, &fwd, self_loop_degs),
        max_scaled_err(&yt, &adj, self_loop_degs),
    )
}

/// A fixed-point error above this many rounding bounds fails the check.
pub const FIXED_POINT_TOL: f64 = 1.0;

#[cfg(test)]
mod tests {
    use super::*;
    use sgnn_sparse::Graph;

    fn toy() -> Graph {
        // A path 0-1-2-3 plus a triangle 3-4-5 and a pendant 6.
        Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3), (4, 6)])
    }

    fn loop_degs(g: &Graph) -> Vec<f64> {
        g.degrees().iter().map(|&d| d as f64 + 1.0).collect()
    }

    #[test]
    fn operator_fixes_degree_powers_for_any_rho() {
        let g = toy();
        for rho in [0.0f64, 0.3, 0.5, 1.0] {
            let pm = PropMatrix::new(&g, rho as f32);
            let (f, a) = fixed_point_errors(&pm, &loop_degs(&g), rho);
            assert!(
                f < FIXED_POINT_TOL && a < FIXED_POINT_TOL,
                "rho {rho}: {f} {a}"
            );
        }
    }

    #[test]
    fn wrong_degrees_break_the_fixed_point() {
        let g = toy();
        let pm = PropMatrix::new(&g, 0.5);
        let no_loops: Vec<f64> = g.degrees().iter().map(|&d| d as f64).collect();
        let (f, _) = fixed_point_errors(&pm, &no_loops, 0.5);
        assert!(
            f > 1e3 * FIXED_POINT_TOL,
            "a check that cannot fail shows nothing: {f}"
        );
    }

    #[test]
    fn argmax_takes_the_first_maximum_and_skips_nan() {
        assert_eq!(argmax(&[0.1, 0.9, 0.9, -1.0]), 1);
        assert_eq!(argmax(&[f32::NAN, 0.2, 0.1]), 1);
        assert_eq!(argmax(&[3.0]), 0);
    }

    #[test]
    fn accuracy_and_majority_on_hand_built_logits() {
        let logits = DMat::from_vec(4, 2, vec![1.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 3.0]);
        let labels = [0u32, 1, 1, 1];
        assert_eq!(accuracy(&logits, &labels, &[0, 1, 2, 3]), 0.75);
        assert_eq!(accuracy(&logits, &labels, &[2]), 0.0);
        assert_eq!(majority_rate(&labels, &[0, 1, 2, 3]), 0.75);
        assert_eq!(majority_rate(&labels, &[0]), 1.0);
    }
}
