//! Kernel probes on a workload's own matrices: one propagation hop, one
//! adjoint hop, an epoch's GEMM shapes, and row gathers. They split the
//! compound calls of a traced replay into their kernels.

use sgnn_dense::matmul::{matmul, matmul_a_bt, matmul_at_b};
use sgnn_dense::DMat;
use sgnn_sparse::PropMatrix;

use crate::ledger::{timed, MIB};
use crate::stats::{median, SplitMix64};

/// Repeats per probe; the probe reports the median.
pub const REPEATS: usize = 5;

pub fn random_mat(rows: usize, cols: usize, rng: &mut SplitMix64) -> DMat {
    DMat::from_vec(rows, cols, rng.uniform_vec(rows * cols))
}

/// Median seconds of one `prop_into` and one `prop_t_into` hop over an
/// `n × width` input.
pub fn hops(pm: &PropMatrix, width: usize, seed: u64) -> (f64, f64) {
    let mut rng = SplitMix64::new(seed ^ 0x40b5);
    let x = random_mat(pm.n(), width, &mut rng);
    let mut out = DMat::zeros(pm.n(), width);
    let fwd: Vec<f64> = (0..REPEATS)
        .map(|_| timed(|| pm.prop_into(1.0, 0.0, &x, &mut out)).1)
        .collect();
    let adj: Vec<f64> = (0..REPEATS)
        .map(|_| timed(|| pm.prop_t_into(1.0, 0.0, &x, &mut out)).1)
        .collect();
    std::hint::black_box(&out);
    (median(&fwd), median(&adj))
}

/// Bytes one CSR hop moves, computed from sizes under an ideal cache: the
/// column indices and values, the row pointers, one read of the input and
/// one write of the output.
pub fn hop_mib(n: usize, nnz: usize, width: usize) -> f64 {
    (nnz * 8 + (n + 1) * 8 + 2 * n * width * 4) as f64 / MIB
}

/// One dense layer `x (m × fan_in) · w (fan_in × fan_out)`; `input_grad`
/// says whether backward also forms the gradient of `x`.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    pub fan_in: usize,
    pub fan_out: usize,
    pub input_grad: bool,
}

/// An epoch's GEMMs: for every batch of `rows` (one batch of all nodes in
/// full-batch training), each layer's forward `matmul`, its weight
/// gradient `matmul_at_b`, and — where the input needs one — its input
/// gradient `matmul_a_bt`. Returns median (forward s, backward s) and the
/// epoch's floating-point operations.
pub fn epoch_gemms(layers: &[Layer], batches: &[usize], seed: u64) -> (f64, f64, f64) {
    let mut rng = SplitMix64::new(seed ^ 0x6e33);
    let max_rows = batches.iter().copied().max().unwrap_or(0);
    let mats: Vec<(DMat, DMat, DMat)> = layers
        .iter()
        .map(|l| {
            (
                random_mat(max_rows, l.fan_in, &mut rng),
                random_mat(l.fan_in, l.fan_out, &mut rng),
                random_mat(max_rows, l.fan_out, &mut rng),
            )
        })
        .collect();
    // Inputs per distinct batch height, cut once outside the timed loop.
    let mut heights: Vec<usize> = batches.to_vec();
    heights.sort_unstable();
    heights.dedup();
    let cut = |m: &DMat, rows: usize| {
        DMat::from_vec(rows, m.cols(), m.data()[..rows * m.cols()].to_vec())
    };
    let per_height: Vec<Vec<(DMat, DMat)>> = heights
        .iter()
        .map(|&h| {
            mats.iter()
                .map(|(x, _, g)| (cut(x, h), cut(g, h)))
                .collect()
        })
        .collect();
    let mut flops = 0.0;
    for &b in batches {
        for l in layers {
            let mm = 2.0 * (b * l.fan_in * l.fan_out) as f64;
            flops += mm * if l.input_grad { 3.0 } else { 2.0 };
        }
    }
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        let (mut f, mut g) = (0.0, 0.0);
        for &b in batches {
            let hs = &per_height[heights.binary_search(&b).expect("height was cut")];
            for (l, ((_, w, _), (x, gout))) in layers.iter().zip(mats.iter().zip(hs)) {
                f += timed(|| std::hint::black_box(matmul(x, w))).1;
                g += timed(|| std::hint::black_box(matmul_at_b(x, gout))).1;
                if l.input_grad {
                    g += timed(|| std::hint::black_box(matmul_a_bt(gout, w))).1;
                }
            }
        }
        fwd.push(f);
        bwd.push(g);
    }
    (median(&fwd), median(&bwd), flops)
}

/// Rows per second of `DMat::gather_rows` over every term matrix, for the
/// given index batches (a row of one term matrix counts once).
pub fn gather_rows_per_s(terms: &[Vec<sgnn_dense::DMat>], batches: &[Vec<u32>]) -> f64 {
    let mats: Vec<&DMat> = terms.iter().flatten().collect();
    let rows: usize = batches.iter().map(Vec::len).sum::<usize>() * mats.len();
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            timed(|| {
                for idx in batches {
                    for m in &mats {
                        std::hint::black_box(m.gather_rows(idx));
                    }
                }
            })
            .1
        })
        .collect();
    rows as f64 / median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_flops_count_each_product_once() {
        let layers = [
            Layer {
                fan_in: 4,
                fan_out: 3,
                input_grad: false,
            },
            Layer {
                fan_in: 3,
                fan_out: 2,
                input_grad: true,
            },
        ];
        let (f, b, flops) = epoch_gemms(&layers, &[5, 5, 2], 1);
        assert!(f > 0.0 && b > 0.0);
        // Per row: layer 1 forward + weight grad, layer 2 all three.
        let per_row = 2.0 * (12.0 * 2.0 + 6.0 * 3.0);
        assert_eq!(flops, per_row * 12.0);
    }

    #[test]
    fn hop_bytes_follow_the_sizes() {
        assert_eq!(hop_mib(1, 1, 1) * MIB, 8.0 + 16.0 + 8.0);
    }
}
