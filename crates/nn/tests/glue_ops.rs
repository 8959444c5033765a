//! The row-slice glue ops (`MeanRows`, `Upsample2x`, `CausalMask`) against
//! the per-element index loops they replaced, bit for bit.

use ptq_nn::GraphBuilder;
use ptq_tensor::rng::TensorRng;
use ptq_tensor::Tensor;

/// One-op graph `op(input)` run on `x`.
fn run(x: &Tensor, op: fn(&mut GraphBuilder, ptq_nn::ValueId) -> ptq_nn::ValueId) -> Tensor {
    let mut b = GraphBuilder::new();
    let i = b.input();
    let y = op(&mut b, i);
    let g = b.finish(vec![y]);
    g.infer(std::slice::from_ref(x))
        .expect("valid graph")
        .remove(0)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn mean_rows_sums_each_column_in_row_order() {
    let mut rng = TensorRng::seed(3);
    for (r, d) in [(1, 1), (5, 3), (64, 128), (7, 33)] {
        let x = rng.normal(&[r, d], 0.0, 10.0);
        let mut want = Tensor::zeros(&[1, d]);
        for i in 0..r {
            for j in 0..d {
                want.data_mut()[j] += x.at(&[i, j]);
            }
        }
        let inv = 1.0 / r as f32;
        want.map_inplace(|v| v * inv);
        let got = run(&x, GraphBuilder::mean_rows);
        assert_eq!(got.shape(), want.shape());
        assert_eq!(bits(&got), bits(&want), "[{r}, {d}]");
    }
}

#[test]
fn upsample2x_repeats_each_pixel_in_a_2x2_block() {
    let mut rng = TensorRng::seed(4);
    for shape in [[1, 1, 1, 1], [2, 3, 5, 7], [1, 4, 2, 9]] {
        let x = rng.normal(&shape, 0.0, 1.0);
        let [n, c, h, w] = shape;
        let mut want = Tensor::zeros(&[n, c, 2 * h, 2 * w]);
        for ni in 0..n {
            for ci in 0..c {
                for y in 0..2 * h {
                    for xx in 0..2 * w {
                        *want.at_mut(&[ni, ci, y, xx]) = x.at(&[ni, ci, y / 2, xx / 2]);
                    }
                }
            }
        }
        assert_eq!(run(&x, GraphBuilder::upsample2x), want, "{shape:?}");
    }
}

#[test]
fn causal_mask_is_bottom_aligned() {
    let mut rng = TensorRng::seed(5);
    for shape in [[1, 1, 1], [2, 5, 5], [3, 1, 6], [2, 3, 7]] {
        let x = rng.normal(&shape, 0.0, 1.0);
        let [b, s1, s2] = shape;
        let mut want = x.clone();
        for bi in 0..b {
            for i in 0..s1 {
                for j in (i + 1 + s2 - s1)..s2 {
                    *want.at_mut(&[bi, i, j]) = f32::NEG_INFINITY;
                }
            }
        }
        assert_eq!(
            bits(&run(&x, GraphBuilder::causal_mask)),
            bits(&want),
            "{shape:?}"
        );
    }
}
