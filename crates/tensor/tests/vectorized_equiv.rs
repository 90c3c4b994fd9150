//! Randomized `scalar ≡ vectorized` bit-equality sweep.
//!
//! The vectorized kernels (lockstep leaf blocks in `blocked_sum`, lockstep
//! K-tiles in `dot`, row-vectorized matmuls, chunked `axpy_`) claim to keep
//! the profile-pinned accumulation tree *exactly* — same leaf boundaries,
//! same left-to-right order inside a leaf, same `algo_id` traversal of the
//! partials — and only interleave independent chains. These proptests hold
//! them to that claim against the in-tree scalar oracles
//! (`blocked_sum_scalar`, `dot_scalar`, `matmul*_scalar`), bit for bit,
//! across randomized profiles (including `deterministic: false`), ragged
//! lengths, and empty/one-element inputs.

use proptest::prelude::*;
use tensor::kernels::{
    blocked_sum, blocked_sum_scalar, combine_partials_with_rot, leaf_partials, leaf_partials_scalar,
};
use tensor::ops::{
    col2im, dot, dot_scalar, im2col, matmul, matmul_a_bt, matmul_a_bt_scalar, matmul_at_b,
    matmul_at_b_scalar, matmul_scalar, ConvGeom,
};
use tensor::{KernelProfile, Tensor};

fn det_profile() -> impl Strategy<Value = KernelProfile> {
    (1usize..300, 1usize..80, 0u8..3).prop_map(|(reduce_block, tile_k, algo_id)| KernelProfile {
        reduce_block,
        tile_k,
        algo_id,
        deterministic: true,
    })
}

fn any_profile() -> impl Strategy<Value = KernelProfile> {
    (1usize..300, 1usize..80, 0u8..3, any::<bool>()).prop_map(
        |(reduce_block, tile_k, algo_id, deterministic)| KernelProfile {
            reduce_block,
            tile_k,
            algo_id,
            deterministic,
        },
    )
}

/// Mixed-magnitude values (spanning ~7 decades): regrouping additions over
/// such data almost always changes the bits, so bit-equality here is a real
/// statement about the accumulation tree, not an accident of benign inputs.
/// Length range starts at 0 so empty and one-element inputs are in-domain.
fn rough_data(max: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-100.0f32..100.0, 0..max).prop_map(|v| {
        v.into_iter().enumerate().map(|(i, x)| x * 10f32.powi((i % 7) as i32 - 3)).collect()
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// blocked_sum (vectorized) ≡ blocked_sum_scalar, bitwise, for every
    /// deterministic profile and every length (ragged tails included).
    #[test]
    fn sum_vectorized_eq_scalar(data in rough_data(3000), profile in det_profile()) {
        prop_assert_eq!(
            blocked_sum(&data, &profile).to_bits(),
            blocked_sum_scalar(&data, &profile).to_bits(),
            "len={} profile={:?}", data.len(), profile
        );
    }

    /// The same equivalence under `deterministic: false`, where a naive
    /// cross-call comparison would see two different noise draws: leaves
    /// never see the rotation, so the partials must agree bitwise, and with
    /// the rotation pinned the combine step must agree for *every* rotation.
    #[test]
    fn sum_nondet_pipeline_eq_scalar_with_pinned_rotation(
        data in rough_data(2000),
        profile in any_profile(),
        rot_seed in any::<u32>(),
    ) {
        let fast = leaf_partials(&data, &profile);
        let slow = leaf_partials_scalar(&data, &profile);
        prop_assert_eq!(bits(&fast), bits(&slow));
        if !fast.is_empty() {
            let n = fast.len();
            for rot in [0, rot_seed as usize % n, n - 1] {
                prop_assert_eq!(
                    combine_partials_with_rot(&fast, &profile, rot).to_bits(),
                    combine_partials_with_rot(&slow, &profile, rot).to_bits(),
                    "rot={} profile={:?}", rot, profile
                );
            }
        }
    }

    /// dot (lockstep K-tiles) ≡ dot_scalar, bitwise.
    #[test]
    fn dot_vectorized_eq_scalar(data in rough_data(2000), profile in det_profile()) {
        let b: Vec<f32> = data.iter().enumerate().map(|(i, x)| x * 0.5 + (i % 3) as f32).collect();
        prop_assert_eq!(
            dot(&data, &b, &profile).to_bits(),
            dot_scalar(&data, &b, &profile).to_bits(),
            "len={} profile={:?}", data.len(), profile
        );
    }

    /// All three row-vectorized matmul kernels ≡ their scalar oracles,
    /// bitwise, across random shapes (including K below, at, and far above
    /// tile_k — the single-tile fast path and the combine path — and the
    /// conv shapes: 8×72×64 weight gradients, 16×72×16, and mini-batch-wide
    /// n = 512 forwards).
    #[test]
    fn matmuls_vectorized_eq_scalar(
        m in 1usize..20, k in 1usize..200, n in 1usize..600,
        seed in any::<u32>(),
        profile in det_profile(),
    ) {
        let gen = |count: usize, salt: u32| -> Vec<f32> {
            (0..count)
                .map(|i| {
                    let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed ^ salt);
                    (h % 1999) as f32 * 0.01 * 10f32.powi((h % 7) as i32 - 3)
                })
                .collect()
        };
        let a = Tensor::from_vec(gen(m * k, 1), &[m, k]);
        let b = Tensor::from_vec(gen(k * n, 2), &[k, n]);
        let at = Tensor::from_vec(gen(k * m, 3), &[k, m]);
        let bt = Tensor::from_vec(gen(n * k, 4), &[n, k]);
        prop_assert!(matmul(&a, &b, &profile).bitwise_eq(&matmul_scalar(&a, &b, &profile)),
            "matmul m={} k={} n={} profile={:?}", m, k, n, profile);
        prop_assert!(
            matmul_at_b(&at, &b, &profile).bitwise_eq(&matmul_at_b_scalar(&at, &b, &profile)),
            "matmul_at_b m={} k={} n={} profile={:?}", m, k, n, profile);
        prop_assert!(
            matmul_a_bt(&a, &bt, &profile).bitwise_eq(&matmul_a_bt_scalar(&a, &bt, &profile)),
            "matmul_a_bt m={} k={} n={} profile={:?}", m, k, n, profile);
    }

    /// Chunked axpy_ ≡ the one-element-at-a-time reference. Elementwise, so
    /// this holds for any data; the property pins the remainder handling.
    #[test]
    fn axpy_chunked_eq_elementwise(data in rough_data(500), alpha in -10.0f32..10.0) {
        let y = Tensor::from_vec(
            data.iter().enumerate().map(|(i, x)| x * 0.25 - (i % 5) as f32).collect(),
            &[data.len()],
        );
        let mut fast = Tensor::from_slice(&data);
        fast.axpy_(alpha, &y);
        let mut slow = data.clone();
        for (x, &v) in slow.iter_mut().zip(y.data()) {
            *x += alpha * v;
        }
        prop_assert!(fast.bitwise_eq(&Tensor::from_vec(slow, &[data.len()])));
    }

    /// im2col / col2im (in-bounds run copies, mini-batch wide) ≡ the
    /// per-element bounds-checked loops they replaced, bitwise, over random
    /// batch/channel/size/kernel/stride/pad — col2im keeps every input
    /// pixel's `(ky, kx)` addition order.
    #[test]
    fn im2col_col2im_eq_per_element_reference(
        b in 1usize..4, cin in 1usize..4, h in 1usize..9, w in 1usize..9,
        kernel in 1usize..5, stride in 1usize..4, pad in 0usize..3,
        seed in any::<u32>(),
    ) {
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let geom = ConvGeom { kernel, stride, pad };
        let (oh, ow) = (geom.out_size(h), geom.out_size(w));
        let spatial = oh * ow;
        let rows = cin * kernel * kernel;
        let x = Tensor::from_vec(rough(b * cin * h * w, seed), &[b, cin, h, w]);
        let cols = im2col(&x, geom);
        prop_assert_eq!(cols.shape(), &[rows, b * spatial]);
        let g = Tensor::from_vec(rough(rows * b * spatial, seed ^ 0x5555), &[rows, b * spatial]);
        let back = col2im(&g, x.shape(), geom);
        let plane = cin * h * w;
        for i in 0..b {
            let xi = &x.data()[i * plane..(i + 1) * plane];
            let want = im2col_reference(xi, cin, h, w, geom);
            let mut gi = Vec::with_capacity(rows * spatial);
            for r in 0..rows {
                let got = &cols.data()[r * b * spatial + i * spatial..][..spatial];
                prop_assert_eq!(bits(got), bits(&want[r * spatial..(r + 1) * spatial]),
                    "im2col sample {} row {} geom {:?}", i, r, geom);
                gi.extend_from_slice(&g.data()[r * b * spatial + i * spatial..][..spatial]);
            }
            prop_assert_eq!(
                bits(&back.data()[i * plane..(i + 1) * plane]),
                bits(&col2im_reference(&gi, cin, h, w, geom)),
                "col2im sample {} geom {:?}", i, geom
            );
        }
        // A [cin,h,w] input is the one-sample batch.
        let x0 = Tensor::from_vec(x.data()[..plane].to_vec(), &[cin, h, w]);
        let cols0 = im2col(&x0, geom);
        prop_assert_eq!(bits(cols0.data()), bits(&im2col_reference(x0.data(), cin, h, w, geom)));
    }
}

/// Mixed-magnitude values from a hash of `(i, seed)`.
fn rough(n: usize, seed: u32) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            (h % 1999) as f32 * 0.01 * 10f32.powi((h % 7) as i32 - 3) - 5.0
        })
        .collect()
}

/// One sample's im2col with a bounds check per element.
fn im2col_reference(x: &[f32], cin: usize, h: usize, w: usize, geom: ConvGeom) -> Vec<f32> {
    let (oh, ow) = (geom.out_size(h), geom.out_size(w));
    let k = geom.kernel;
    let mut out = vec![0.0f32; cin * k * k * oh * ow];
    for c in 0..cin {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                            out[row * oh * ow + oy * ow + ox] =
                                x[(c * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
            }
        }
    }
    out
}

/// One sample's col2im with a bounds check per element, accumulating in
/// `(c, ky, kx, oy, ox)` loop order.
fn col2im_reference(cols: &[f32], cin: usize, h: usize, w: usize, geom: ConvGeom) -> Vec<f32> {
    let (oh, ow) = (geom.out_size(h), geom.out_size(w));
    let k = geom.kernel;
    let mut out = vec![0.0f32; cin * h * w];
    for c in 0..cin {
        for ky in 0..k {
            for kx in 0..k {
                let row = (c * k + ky) * k + kx;
                for oy in 0..oh {
                    let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                        if iy >= 0 && (iy as usize) < h && ix >= 0 && (ix as usize) < w {
                            out[(c * h + iy as usize) * w + ix as usize] +=
                                cols[row * oh * ow + oy * ow + ox];
                        }
                    }
                }
            }
        }
    }
    out
}
