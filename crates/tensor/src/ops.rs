//! Tensor operations whose floating-point accumulation order is controlled by
//! a [`KernelProfile`].
//!
//! Everything reduction-shaped (matmul, conv, sums, softmax denominators)
//! routes its additions through the profile's tree shape; everything
//! elementwise (relu, scaling) is order-free and therefore trivially
//! deterministic. Convolution is implemented as im2col + matmul so its
//! profile sensitivity is exactly the matmul's, and its backward scatter
//! (col2im) uses a fixed loop order.

use crate::kernels::{combine_partials, KernelProfile, ALGO_COUNT, SUM_LANES};
use crate::{scratch, Tensor};

pub use crate::kernels::blocked_sum;

/// Reduce `f(0) + f(1) + … + f(len-1)` using the profile's K-tiling: each
/// tile of `tile_k` consecutive terms is summed left-to-right, and tile
/// partials are combined in the profile's traversal order.
///
/// This is the scalar reference schedule — the oracle every vectorized
/// kernel in this module is proven bit-identical against. The vectorized
/// evaluators keep exactly this tree (tile boundaries, left-to-right order
/// inside a tile, `algo_id` traversal of the partials) and only interleave
/// *independent* accumulation chains.
#[inline]
pub fn tiled_reduce(len: usize, profile: &KernelProfile, mut f: impl FnMut(usize) -> f32) -> f32 {
    let tile = profile.tile_k.max(1);
    if len <= tile {
        let mut acc = 0.0;
        for i in 0..len {
            acc += f(i);
        }
        return acc;
    }
    let ntiles = len.div_ceil(tile);
    let mut partials = Vec::with_capacity(ntiles);
    let mut i = 0;
    while i < len {
        let end = (i + tile).min(len);
        let mut acc = 0.0;
        for j in i..end {
            acc += f(j);
        }
        partials.push(acc);
        i = end;
    }
    combine_partials(&partials, profile)
}

/// Dot product with profile-controlled accumulation, vectorized: groups of
/// [`SUM_LANES`] full K-tiles are evaluated in lockstep (one accumulator per
/// tile, products formed in the same left-to-right order), then the tile
/// partials are combined exactly as [`tiled_reduce`] combines them. Bit-
/// identical to [`dot_scalar`].
pub fn dot(a: &[f32], b: &[f32], profile: &KernelProfile) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let len = a.len();
    let tile = profile.tile_k.max(1);
    if len <= tile {
        let mut acc = 0.0;
        for i in 0..len {
            acc += a[i] * b[i];
        }
        return acc;
    }
    let ntiles = len.div_ceil(tile);
    let nfull = len / tile;
    let mut partials = Vec::with_capacity(ntiles);
    let mut t = 0usize;
    while t + SUM_LANES <= nfull {
        let base = t * tile;
        let ga = &a[base..base + SUM_LANES * tile];
        let gb = &b[base..base + SUM_LANES * tile];
        let mut acc = [0.0f32; SUM_LANES];
        for j in 0..tile {
            for (l, x) in acc.iter_mut().enumerate() {
                *x += ga[l * tile + j] * gb[l * tile + j];
            }
        }
        partials.extend_from_slice(&acc);
        t += SUM_LANES;
    }
    while t < ntiles {
        let s = t * tile;
        let e = (s + tile).min(len);
        let mut acc = 0.0;
        for i in s..e {
            acc += a[i] * b[i];
        }
        partials.push(acc);
        t += 1;
    }
    combine_partials(&partials, profile)
}

/// Scalar reference dot product (per-element [`tiled_reduce`]); the oracle
/// for [`dot`].
pub fn dot_scalar(a: &[f32], b: &[f32], profile: &KernelProfile) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    tiled_reduce(a.len(), profile, |i| a[i] * b[i])
}

/// Sum of all elements.
pub fn sum(t: &Tensor, profile: &KernelProfile) -> f32 {
    blocked_sum(t.data(), profile)
}

/// Mean of all elements.
pub fn mean(t: &Tensor, profile: &KernelProfile) -> f32 {
    if t.is_empty() {
        return 0.0;
    }
    sum(t, profile) / t.len() as f32
}

/// Row-vectorized matmul core shared by every matmul in this module: for
/// each output row `i`, all `n` output columns advance together. Per output
/// element `(i, j)` the addition chain is *identical* to
/// `tiled_reduce(k, profile, |p| a_at(i, p) * bd[p*n + j])`: products are
/// formed for `p` ascending within each K-tile, tile partials start at 0.0,
/// and the partials are combined in the profile's `algo_id` order. Only the
/// interleaving across the (independent) columns changes, which makes the
/// inner loops contiguous over `j` and auto-vectorizable. `od` is
/// overwritten.
fn matmul_rows_into(
    m: usize,
    k: usize,
    n: usize,
    bd: &[f32],
    profile: &KernelProfile,
    od: &mut [f32],
    a_at: impl Fn(usize, usize) -> f32,
) {
    assert_eq!(bd.len(), k * n, "matmul: B is not [{k}, {n}]");
    assert_eq!(od.len(), m * n, "matmul: output is not [{m}, {n}]");
    let tile = profile.tile_k.max(1);
    if k <= tile {
        // Single-tile fast path: mirrors tiled_reduce's short-circuit branch
        // (no combine step, accumulators start at 0.0).
        od.fill(0.0);
        for i in 0..m {
            let orow = &mut od[i * n..(i + 1) * n];
            for p in 0..k {
                let av = a_at(i, p);
                let brow = &bd[p * n..(p + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        return;
    }
    let ntiles = k.div_ceil(tile);
    // partials[t*n + j] = tile t's partial for output column j of the
    // current row (the row of the accumulation tree `combine_rows` walks).
    let mut partials = scratch::take_zeroed(ntiles * n);
    for i in 0..m {
        partials.fill(0.0);
        for t in 0..ntiles {
            let p0 = t * tile;
            let p1 = (p0 + tile).min(k);
            let prow = &mut partials[t * n..(t + 1) * n];
            for p in p0..p1 {
                let av = a_at(i, p);
                let brow = &bd[p * n..(p + 1) * n];
                for (o, &bv) in prow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        combine_rows(&partials, ntiles, n, profile, &mut od[i * n..(i + 1) * n]);
    }
    scratch::give(partials);
}

/// Combine per-tile partial rows into the output row, walking tiles in the
/// profile's `algo_id` order — elementwise over the row, so each output
/// element sees exactly the scalar [`combine_partials`] chain (rotation 0 in
/// deterministic mode). Non-deterministic profiles fall back to a per-element
/// combine so every output element draws its own noise rotation, matching
/// the scalar evaluator's behavior.
fn combine_rows(
    partials: &[f32],
    ntiles: usize,
    n: usize,
    profile: &KernelProfile,
    out: &mut [f32],
) {
    if !profile.deterministic {
        let mut col = vec![0.0f32; ntiles];
        for (j, o) in out.iter_mut().enumerate() {
            for (t, c) in col.iter_mut().enumerate() {
                *c = partials[t * n + j];
            }
            *o = combine_partials(&col, profile);
        }
        return;
    }
    out.iter_mut().for_each(|x| *x = 0.0);
    let add_tile = |t: usize, out: &mut [f32]| {
        let prow = &partials[t * n..(t + 1) * n];
        for (o, &p) in out.iter_mut().zip(prow) {
            *o += p;
        }
    };
    match profile.algo_id % ALGO_COUNT {
        0 => {
            for t in 0..ntiles {
                add_tile(t, out);
            }
        }
        1 => {
            for t in (0..ntiles).rev() {
                add_tile(t, out);
            }
        }
        _ => {
            let mut t = 0;
            while t < ntiles {
                add_tile(t, out);
                t += 2;
            }
            let mut t = 1;
            while t < ntiles {
                add_tile(t, out);
                t += 2;
            }
        }
    }
}

/// `out = A · B` over row-major slices, `a: [m,k]`, `b: [k,n]`,
/// `out: [m,n]` (overwritten). Row-vectorized; bit-identical to
/// [`matmul_into_scalar`]. The tensor-level matmuls all run through the
/// same core.
pub fn matmul_into(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    profile: &KernelProfile,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "matmul: A is not [{m}, {k}]");
    matmul_rows_into(m, k, n, b, profile, out, |i, p| a[i * k + p]);
}

/// Scalar reference for [`matmul_into`] (per-element [`tiled_reduce`]).
pub fn matmul_into_scalar(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    profile: &KernelProfile,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "matmul: A is not [{m}, {k}]");
    assert_eq!(b.len(), k * n, "matmul: B is not [{k}, {n}]");
    assert_eq!(out.len(), m * n, "matmul: output is not [{m}, {n}]");
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            out[i * n + j] = tiled_reduce(k, profile, |p| arow[p] * b[p * n + j]);
        }
    }
}

/// `out = Aᵀ · B` over row-major slices, `a: [k,m]`, `b: [k,n]`,
/// `out: [m,n]` (overwritten; the weight-gradient shape). Bit-identical to
/// [`matmul_at_b_into_scalar`].
pub fn matmul_at_b_into(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    profile: &KernelProfile,
    out: &mut [f32],
) {
    assert_eq!(a.len(), k * m, "matmul_at_b: A is not [{k}, {m}]");
    matmul_rows_into(m, k, n, b, profile, out, |i, p| a[p * m + i]);
}

/// Scalar reference for [`matmul_at_b_into`].
pub fn matmul_at_b_into_scalar(
    a: &[f32],
    b: &[f32],
    k: usize,
    m: usize,
    n: usize,
    profile: &KernelProfile,
    out: &mut [f32],
) {
    assert_eq!(a.len(), k * m, "matmul_at_b: A is not [{k}, {m}]");
    assert_eq!(b.len(), k * n, "matmul_at_b: B is not [{k}, {n}]");
    assert_eq!(out.len(), m * n, "matmul_at_b: output is not [{m}, {n}]");
    for i in 0..m {
        for j in 0..n {
            out[i * n + j] = tiled_reduce(k, profile, |p| a[p * m + i] * b[p * n + j]);
        }
    }
}

/// `C = A · B` for `A: [m,k]`, `B: [k,n]`; [`matmul_into`] into a new
/// tensor. Bit-identical to [`matmul_scalar`].
pub fn matmul(a: &Tensor, b: &Tensor, profile: &KernelProfile) -> Tensor {
    let (m, k) = mat_dims(a);
    let (k2, n) = mat_dims(b);
    assert_eq!(k, k2, "matmul inner-dimension mismatch: {k} vs {k2}");
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into(a.data(), b.data(), m, k, n, profile, out.data_mut());
    out
}

/// Scalar reference `A · B`; the oracle for [`matmul`].
pub fn matmul_scalar(a: &Tensor, b: &Tensor, profile: &KernelProfile) -> Tensor {
    let (m, k) = mat_dims(a);
    let (k2, n) = mat_dims(b);
    assert_eq!(k, k2, "matmul inner-dimension mismatch: {k} vs {k2}");
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into_scalar(a.data(), b.data(), m, k, n, profile, out.data_mut());
    out
}

/// `C = Aᵀ · B` for `A: [k,m]`, `B: [k,n]` (weight-gradient shape);
/// [`matmul_at_b_into`] into a new tensor. Bit-identical to
/// [`matmul_at_b_scalar`].
pub fn matmul_at_b(a: &Tensor, b: &Tensor, profile: &KernelProfile) -> Tensor {
    let (k, m) = mat_dims(a);
    let (k2, n) = mat_dims(b);
    assert_eq!(k, k2, "matmul_at_b inner-dimension mismatch");
    let mut out = Tensor::zeros(&[m, n]);
    matmul_at_b_into(a.data(), b.data(), k, m, n, profile, out.data_mut());
    out
}

/// Scalar reference `Aᵀ · B`; the oracle for [`matmul_at_b`].
pub fn matmul_at_b_scalar(a: &Tensor, b: &Tensor, profile: &KernelProfile) -> Tensor {
    let (k, m) = mat_dims(a);
    let (k2, n) = mat_dims(b);
    assert_eq!(k, k2, "matmul_at_b inner-dimension mismatch");
    let mut out = Tensor::zeros(&[m, n]);
    matmul_at_b_into_scalar(a.data(), b.data(), k, m, n, profile, out.data_mut());
    out
}

/// `C = A · Bᵀ` for `A: [m,k]`, `B: [n,k]` (input- and weight-gradient
/// shape). `B` is transposed once into `[k,n]` and handed to
/// [`matmul_into`], so each output element keeps the [`dot`] chain (K-tiles
/// from 0.0, `p` ascending inside a tile, partials combined in `algo_id`
/// order, one noise draw per element in row-major order). Bit-identical to
/// [`matmul_a_bt_scalar`].
pub fn matmul_a_bt(a: &Tensor, b: &Tensor, profile: &KernelProfile) -> Tensor {
    let (m, k) = mat_dims(a);
    let (n, k2) = mat_dims(b);
    assert_eq!(k, k2, "matmul_a_bt inner-dimension mismatch");
    let bd = b.data();
    let mut bt = vec![0.0f32; k * n];
    for j in 0..n {
        for p in 0..k {
            bt[p * n + j] = bd[j * k + p];
        }
    }
    let mut out = Tensor::zeros(&[m, n]);
    matmul_into(a.data(), &bt, m, k, n, profile, out.data_mut());
    out
}

/// Scalar reference `A · Bᵀ`; the oracle for [`matmul_a_bt`].
pub fn matmul_a_bt_scalar(a: &Tensor, b: &Tensor, profile: &KernelProfile) -> Tensor {
    let (m, k) = mat_dims(a);
    let (n, k2) = mat_dims(b);
    assert_eq!(k, k2, "matmul_a_bt inner-dimension mismatch");
    let mut out = Tensor::zeros(&[m, n]);
    let ad = a.data();
    let bd = b.data();
    let od = out.data_mut();
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &bd[j * k..(j + 1) * k];
            od[i * n + j] = tiled_reduce(k, profile, |p| arow[p] * brow[p]);
        }
    }
    out
}

fn mat_dims(t: &Tensor) -> (usize, usize) {
    let s = t.shape();
    assert_eq!(s.len(), 2, "expected a 2-D tensor, got shape {s:?}");
    (s[0], s[1])
}

/// Geometry of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Kernel height/width (square kernels only).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every side.
    pub pad: usize,
}

impl ConvGeom {
    /// Output spatial size for an input of `h` pixels.
    ///
    /// Panics, naming the geometry, on a zero stride or on a kernel larger
    /// than the padded input — geometries with no output.
    pub fn out_size(&self, h: usize) -> usize {
        assert!(self.stride > 0, "invalid conv geometry {self:?}: stride must be at least 1");
        assert!(
            h + 2 * self.pad >= self.kernel,
            "invalid conv geometry {self:?}: kernel {} is larger than the padded input \
             {h} + 2*{} = {}",
            self.kernel,
            self.pad,
            h + 2 * self.pad
        );
        (h + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// The output positions `o` in `0..out` whose input coordinate
    /// `o*stride + k - pad` (kernel offset `k`) lies inside `0..len`, as a
    /// half-open range. Outside it the unfolded value is padding.
    fn in_bounds(&self, k: usize, len: usize, out: usize) -> std::ops::Range<usize> {
        if len + self.pad <= k {
            return 0..0;
        }
        let lo = self.pad.saturating_sub(k).div_ceil(self.stride);
        let hi = ((len + self.pad - k - 1) / self.stride + 1).min(out);
        lo.min(hi)..hi
    }
}

/// `(batch, cin, h, w)` of a conv input: `[cin,h,w]` is one sample.
fn conv_input_dims(s: &[usize]) -> (usize, usize, usize, usize) {
    match *s {
        [cin, h, w] => (1, cin, h, w),
        [b, cin, h, w] => (b, cin, h, w),
        _ => panic!("conv input must be [cin,h,w] or [B,cin,h,w], got {s:?}"),
    }
}

/// im2col: unfold `input: [cin, h, w]` (or a mini-batch `[B, cin, h, w]`)
/// into a `[cin*k*k, B*oh*ow]` matrix; sample `i` owns columns
/// `i*oh*ow..(i+1)*oh*ow`. Pure gather — no reductions, so no profile
/// needed. [`im2col_into`] into a new tensor.
pub fn im2col(input: &Tensor, geom: ConvGeom) -> Tensor {
    let (b, cin, h, w) = conv_input_dims(input.shape());
    let rows = cin * geom.kernel * geom.kernel;
    let mut out = Tensor::zeros(&[rows, b * geom.out_size(h) * geom.out_size(w)]);
    im2col_into(input, geom, out.data_mut());
    out
}

/// [`im2col`] into `out`, which must hold `cin*k*k * B*oh*ow` zeros: each
/// row copies the in-bounds run of every output row, and padding is left
/// at the zero already there.
pub fn im2col_into(input: &Tensor, geom: ConvGeom, out: &mut [f32]) {
    let (b, cin, h, w) = conv_input_dims(input.shape());
    let (oh, ow) = (geom.out_size(h), geom.out_size(w));
    let (k, stride) = (geom.kernel, geom.stride);
    let spatial = oh * ow;
    let ncols = b * spatial;
    assert_eq!(out.len(), cin * k * k * ncols, "im2col: output is not [{}, {ncols}]", cin * k * k);
    let id = input.data();
    let od = out;
    for c in 0..cin {
        for ky in 0..k {
            let oys = geom.in_bounds(ky, h, oh);
            for kx in 0..k {
                let oxs = geom.in_bounds(kx, w, ow);
                if oxs.is_empty() {
                    continue;
                }
                let ix0 = oxs.start * stride + kx - geom.pad;
                let row = (c * k + ky) * k + kx;
                for i in 0..b {
                    let plane = &id[(i * cin + c) * h * w..][..h * w];
                    let dst = &mut od[row * ncols + i * spatial..][..spatial];
                    for oy in oys.clone() {
                        let iy = oy * stride + ky - geom.pad;
                        let src = &plane[iy * w + ix0..(iy + 1) * w];
                        let run = &mut dst[oy * ow + oxs.start..oy * ow + oxs.end];
                        if stride == 1 {
                            run.copy_from_slice(&src[..run.len()]);
                        } else {
                            for (d, &v) in run.iter_mut().zip(src.iter().step_by(stride)) {
                                *d = v;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// col2im: fold a `[cin*k*k, B*oh*ow]` gradient back onto the conv input
/// of `shape` (`[cin, h, w]` or `[B, cin, h, w]`), the adjoint of
/// [`im2col`]. Each sample folds its own columns; every input pixel
/// accumulates its overlaps in `(ky, kx)` order (the deterministic-scatter
/// alternative to atomic col2im kernels).
pub fn col2im(cols: &Tensor, shape: &[usize], geom: ConvGeom) -> Tensor {
    let (b, cin, h, w) = conv_input_dims(shape);
    let (oh, ow) = (geom.out_size(h), geom.out_size(w));
    let (k, stride) = (geom.kernel, geom.stride);
    let spatial = oh * ow;
    let ncols = b * spatial;
    assert_eq!(cols.shape(), &[cin * k * k, ncols], "col2im shape mismatch");
    let mut out = Tensor::zeros(shape);
    let cd = cols.data();
    let od = out.data_mut();
    for i in 0..b {
        for c in 0..cin {
            let plane = &mut od[(i * cin + c) * h * w..][..h * w];
            for ky in 0..k {
                let oys = geom.in_bounds(ky, h, oh);
                for kx in 0..k {
                    let oxs = geom.in_bounds(kx, w, ow);
                    if oxs.is_empty() {
                        continue;
                    }
                    let ix0 = oxs.start * stride + kx - geom.pad;
                    let row = (c * k + ky) * k + kx;
                    let src = &cd[row * ncols + i * spatial..][..spatial];
                    for oy in oys.clone() {
                        let iy = oy * stride + ky - geom.pad;
                        let dst = &mut plane[iy * w + ix0..(iy + 1) * w];
                        let run = &src[oy * ow + oxs.start..oy * ow + oxs.end];
                        for (d, &v) in dst.iter_mut().step_by(stride).zip(run) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
    out
}

/// 2-D convolution of one sample: `input: [cin,h,w]`, `weight:
/// [cout, cin*k*k]` (pre-flattened), producing `[cout, oh, ow]`.
pub fn conv2d(input: &Tensor, weight: &Tensor, geom: ConvGeom, profile: &KernelProfile) -> Tensor {
    let cols = im2col(input, geom);
    let out = matmul(weight, &cols, profile);
    let s = input.shape();
    let (oh, ow) = (geom.out_size(s[1]), geom.out_size(s[2]));
    let cout = weight.shape()[0];
    out.reshape(&[cout, oh, ow])
}

/// ReLU into a fresh tensor.
pub fn relu(t: &Tensor) -> Tensor {
    let data = t.data().iter().map(|&x| if x > 0.0 { x } else { 0.0 }).collect();
    Tensor::from_vec(data, t.shape())
}

/// ReLU gradient: `grad * (pre > 0)`.
pub fn relu_backward(grad: &Tensor, pre: &Tensor) -> Tensor {
    assert_eq!(grad.shape(), pre.shape());
    let data =
        grad.data().iter().zip(pre.data()).map(|(&g, &x)| if x > 0.0 { g } else { 0.0 }).collect();
    Tensor::from_vec(data, grad.shape())
}

/// Row-wise softmax of a `[n, c]` tensor; denominator sums go through the
/// profile (they are reductions too).
pub fn softmax_rows(t: &Tensor, profile: &KernelProfile) -> Tensor {
    let (n, c) = mat_dims(t);
    let mut out = Tensor::zeros(&[n, c]);
    let id = t.data();
    let od = out.data_mut();
    let mut row_exp = vec![0.0f32; c];
    for i in 0..n {
        let row = &id[i * c..(i + 1) * c];
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        for (e, &x) in row_exp.iter_mut().zip(row) {
            *e = (x - max).exp();
        }
        let denom = blocked_sum(&row_exp, profile);
        for j in 0..c {
            od[i * c + j] = row_exp[j] / denom;
        }
    }
    out
}

/// Mean cross-entropy of softmax probabilities `probs: [n, c]` against
/// integer labels, plus the gradient w.r.t. the logits (`(p - onehot)/n`).
pub fn cross_entropy(probs: &Tensor, labels: &[u32], profile: &KernelProfile) -> (f32, Tensor) {
    let (n, c) = mat_dims(probs);
    assert_eq!(labels.len(), n, "label count mismatch");
    let pd = probs.data();
    let losses: Vec<f32> =
        (0..n).map(|i| -(pd[i * c + labels[i] as usize].max(1e-12)).ln()).collect();
    let loss = blocked_sum(&losses, profile) / n as f32;
    let mut grad = probs.clone();
    {
        let gd = grad.data_mut();
        let inv_n = 1.0 / n as f32;
        for i in 0..n {
            gd[i * c + labels[i] as usize] -= 1.0;
        }
        for g in gd.iter_mut() {
            *g *= inv_n;
        }
    }
    (loss, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> KernelProfile {
        KernelProfile::hardware_agnostic()
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let eye = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        assert!(matmul(&a, &eye, &profile()).bitwise_eq(&a));
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = matmul(&a, &b, &profile());
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transposed_variants_agree_with_explicit_transpose() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32 * 0.3).collect(), &[3, 4]);
        let b = Tensor::from_vec((0..12).map(|x| (x as f32).sin()).collect(), &[3, 4]);
        // Aᵀ·B via dedicated kernel vs manual transpose then matmul.
        let mut at = Tensor::zeros(&[4, 3]);
        for i in 0..3 {
            for j in 0..4 {
                at.data_mut()[j * 3 + i] = a.data()[i * 4 + j];
            }
        }
        let expect = matmul(&at, &b, &profile());
        let got = matmul_at_b(&a, &b, &profile());
        assert!(got.bitwise_eq(&expect));

        // A·Bᵀ with square inner dims.
        let c = Tensor::from_vec((0..8).map(|x| x as f32).collect(), &[2, 4]);
        let d = Tensor::from_vec((0..12).map(|x| x as f32 * 0.5).collect(), &[3, 4]);
        let mut dt = Tensor::zeros(&[4, 3]);
        for i in 0..3 {
            for j in 0..4 {
                dt.data_mut()[j * 3 + i] = d.data()[i * 4 + j];
            }
        }
        let expect = matmul(&c, &dt, &profile());
        let got = matmul_a_bt(&c, &d, &profile());
        assert!(got.bitwise_eq(&expect));
    }

    #[test]
    fn matmul_bits_depend_on_tile_k() {
        // Larger K with rough values: tiling must change the bits.
        let k = 257;
        let a = Tensor::from_vec(
            (0..k).map(|i| (i as f32).sin() * 10f32.powi((i % 7) as i32 - 3)).collect(),
            &[1, k],
        );
        let b = Tensor::from_vec(
            (0..k).map(|i| (i as f32 * 0.7).cos() * 10f32.powi((i % 5) as i32 - 2)).collect(),
            &[k, 1],
        );
        let results: Vec<f32> = [4usize, 8, 16, 32, 64]
            .iter()
            .map(|&t| matmul(&a, &b, &KernelProfile { tile_k: t, ..profile() }).data()[0])
            .collect();
        let distinct: std::collections::HashSet<u32> =
            results.iter().map(|r| r.to_bits()).collect();
        assert!(distinct.len() > 1, "tile size must influence bits: {results:?}");
        // But all are the same real number to high tolerance.
        let spread = results.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
            - results.iter().fold(f32::INFINITY, |m, &x| m.min(x));
        assert!(spread / results[0].abs() < 1e-4);
    }

    #[test]
    fn im2col_col2im_adjoint_on_ones() {
        // col2im(im2col(x)) multiplies each pixel by its receptive-field
        // multiplicity; with kernel=1 stride=1 pad=0 it is the identity.
        let x = Tensor::from_vec((0..27).map(|i| i as f32).collect(), &[3, 3, 3]);
        let geom = ConvGeom { kernel: 1, stride: 1, pad: 0 };
        let cols = im2col(&x, geom);
        let back = col2im(&cols, x.shape(), geom);
        assert!(back.bitwise_eq(&x));
    }

    #[test]
    fn conv2d_matches_direct_computation() {
        // 1 input channel, 4x4 image, 3x3 kernel of ones, no pad: each output
        // is the sum of the 3x3 neighborhood.
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 4, 4]);
        let w = Tensor::full(&[1, 9], 1.0);
        let geom = ConvGeom { kernel: 3, stride: 1, pad: 0 };
        let y = conv2d(&x, &w, geom, &profile());
        assert_eq!(y.shape(), &[1, 2, 2]);
        // Neighborhood sums: top-left window covers indices {0,1,2,4,5,6,8,9,10} = 45.
        assert_eq!(y.data()[0], 45.0);
        assert_eq!(y.data()[3], 45.0 + 9.0 * 5.0);
    }

    #[test]
    fn conv_padding_zero_extends() {
        let x = Tensor::full(&[1, 2, 2], 1.0);
        let w = Tensor::full(&[1, 9], 1.0);
        let geom = ConvGeom { kernel: 3, stride: 1, pad: 1 };
        let y = conv2d(&x, &w, geom, &profile());
        assert_eq!(y.shape(), &[1, 2, 2]);
        // Every output sees exactly the 4 real pixels.
        assert!(y.data().iter().all(|&v| v == 4.0));
    }

    #[test]
    #[should_panic(expected = "invalid conv geometry")]
    fn out_size_rejects_a_kernel_larger_than_the_padded_input() {
        ConvGeom { kernel: 5, stride: 1, pad: 1 }.out_size(2);
    }

    #[test]
    #[should_panic(expected = "stride must be at least 1")]
    fn out_size_rejects_a_zero_stride() {
        ConvGeom { kernel: 3, stride: 0, pad: 1 }.out_size(8);
    }

    #[test]
    fn out_size_accepts_a_kernel_equal_to_the_padded_input() {
        assert_eq!(ConvGeom { kernel: 4, stride: 1, pad: 1 }.out_size(2), 1);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let s = softmax_rows(&t, &profile());
        for i in 0..2 {
            let row: f32 = s.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((row - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
        let b = Tensor::from_vec(vec![101.0, 102.0, 103.0], &[1, 3]);
        let sa = softmax_rows(&a, &profile());
        let sb = softmax_rows(&b, &profile());
        assert!(sa.max_abs_diff(&sb) < 1e-6);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero_per_row() {
        let logits = Tensor::from_vec(vec![0.2, 0.5, -0.1, 1.0, 0.0, -1.0], &[2, 3]);
        let probs = softmax_rows(&logits, &profile());
        let (loss, grad) = cross_entropy(&probs, &[2, 0], &profile());
        assert!(loss > 0.0);
        for i in 0..2 {
            let s: f32 = grad.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!(s.abs() < 1e-6, "softmax-CE grad rows sum to ~0, got {s}");
        }
    }

    #[test]
    fn relu_and_backward() {
        let pre = Tensor::from_slice(&[-1.0, 0.0, 2.0]);
        let y = relu(&pre);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
        let g = relu_backward(&Tensor::from_slice(&[5.0, 5.0, 5.0]), &pre);
        assert_eq!(g.data(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn dot_matches_reference() {
        let a: Vec<f32> = (0..100).map(|i| i as f32 * 0.01).collect();
        let b: Vec<f32> = (0..100).map(|i| (i as f32).cos()).collect();
        let reference: f64 = a.iter().zip(&b).map(|(&x, &y)| (x * y) as f64).sum();
        let got = dot(&a, &b, &profile()) as f64;
        assert!((got - reference).abs() < 1e-4);
    }

    fn rough(n: usize, salt: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 31 + salt * 7) as f32).sin() * 10f32.powi(((i + salt) % 7) as i32 - 3))
            .collect()
    }

    #[test]
    fn vectorized_matmuls_match_scalar_bitwise() {
        // Fixed sweep over shapes and profiles; the randomized sweep lives
        // in tests/vectorized_equiv.rs.
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 257, 5), (4, 64, 7), (2, 16, 16)] {
            let a = Tensor::from_vec(rough(m * k, 1), &[m, k]);
            let b = Tensor::from_vec(rough(k * n, 2), &[k, n]);
            let at = Tensor::from_vec(rough(k * m, 3), &[k, m]);
            let bt = Tensor::from_vec(rough(n * k, 4), &[n, k]);
            for tile in [1usize, 4, 16, 64, 300] {
                for algo in 0..ALGO_COUNT {
                    let p = KernelProfile {
                        reduce_block: 32,
                        tile_k: tile,
                        algo_id: algo,
                        deterministic: true,
                    };
                    assert!(
                        matmul(&a, &b, &p).bitwise_eq(&matmul_scalar(&a, &b, &p)),
                        "matmul m={m} k={k} n={n} tile={tile} algo={algo}"
                    );
                    assert!(
                        matmul_at_b(&at, &b, &p).bitwise_eq(&matmul_at_b_scalar(&at, &b, &p)),
                        "matmul_at_b m={m} k={k} n={n} tile={tile} algo={algo}"
                    );
                    assert!(
                        matmul_a_bt(&a, &bt, &p).bitwise_eq(&matmul_a_bt_scalar(&a, &bt, &p)),
                        "matmul_a_bt m={m} k={k} n={n} tile={tile} algo={algo}"
                    );
                    let va: Vec<f32> = rough(k, 5);
                    let vb: Vec<f32> = rough(k, 6);
                    assert_eq!(
                        dot(&va, &vb, &p).to_bits(),
                        dot_scalar(&va, &vb, &p).to_bits(),
                        "dot k={k} tile={tile} algo={algo}"
                    );
                }
            }
        }
    }
}
