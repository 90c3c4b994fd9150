//! 2-D convolution layer (im2col + matmul formulation).
//!
//! This is the layer whose vendor-optimized kernels the paper's D2 analysis
//! is about: its forward/backward matmuls inherit their accumulation order
//! from the `KernelProfile`, so the same weights on "different GPUs"
//! (different vendor profiles) produce different bits unless the hardware-
//! agnostic profile is pinned.

use crate::model::{ExecCtx, Layer};
use esrng::EsRng;
use tensor::ops::{self, ConvGeom};
use tensor::{KernelProfile, Tensor};

/// Conv2d: input `[B, cin, h, w]` → output `[B, cout, oh, ow]`.
pub struct Conv2d {
    /// `[cout, cin*k*k]` (pre-flattened for the im2col matmul).
    weight: Tensor,
    bias: Tensor,
    gw: Tensor,
    gb: Tensor,
    cin: usize,
    cout: usize,
    geom: ConvGeom,
    cached: Option<Cached>,
}

struct Cached {
    /// Mini-batch im2col matrix `[cin*k*k, B*oh*ow]`; sample `i` owns
    /// columns `i*oh*ow..(i+1)*oh*ow`.
    cols: Tensor,
    /// Input shape `[B, cin, h, w]`.
    in_shape: [usize; 4],
}

impl Conv2d {
    /// Kaiming-uniform initialized convolution.
    pub fn init(
        cin: usize,
        cout: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        rng: &mut EsRng,
    ) -> Self {
        let fan_in = cin * kernel * kernel;
        let bound = (6.0 / fan_in as f32).sqrt();
        let weight = Tensor::from_vec(
            (0..cout * fan_in).map(|_| rng.uniform_range_f32(-bound, bound)).collect(),
            &[cout, fan_in],
        );
        Conv2d {
            gw: Tensor::zeros(&[cout, fan_in]),
            gb: Tensor::zeros(&[cout]),
            bias: Tensor::zeros(&[cout]),
            weight,
            cin,
            cout,
            geom: ConvGeom { kernel, stride, pad },
            cached: None,
        }
    }

    /// Output spatial dims for an input of `(h, w)`.
    pub fn out_dims(&self, h: usize, w: usize) -> (usize, usize) {
        (self.geom.out_size(h), self.geom.out_size(w))
    }

    /// Parameter-gradient half of the backward pass, per sample in sample
    /// order: `dW += g_i · cols_iᵀ` and `db += row sums of g_i`.
    fn accumulate_param_grads(&mut self, grad: &Tensor, cached: &Cached, profile: &KernelProfile) {
        let [b, _, h, w] = cached.in_shape;
        let (oh, ow) = self.out_dims(h, w);
        let spatial = oh * ow;
        let out_plane = self.cout * spatial;
        assert_eq!(grad.shape(), &[b, self.cout, oh, ow], "grad shape mismatch");
        let rows = cached.cols.shape()[0];
        let ncols = b * spatial;
        let cd = cached.cols.data();
        for i in 0..b {
            let gi = &grad.data()[i * out_plane..(i + 1) * out_plane];
            let g = Tensor::from_vec(gi.to_vec(), &[self.cout, spatial]);
            let mut col = Tensor::zeros(&[rows, spatial]);
            for (r, dst) in col.data_mut().chunks_exact_mut(spatial).enumerate() {
                dst.copy_from_slice(&cd[r * ncols + i * spatial..][..spatial]);
            }
            // dW += g · colᵀ   ([cout, spatial]·[spatial, cin·k²]).
            self.gw.axpy_(1.0, &ops::matmul_a_bt(&g, &col, profile));
            for (db, grow) in self.gb.data_mut().iter_mut().zip(gi.chunks_exact(spatial)) {
                *db += ops::blocked_sum(grow, profile);
            }
        }
    }

    /// Input-gradient half of the backward pass: one `dcol = Wᵀ · g` over
    /// the whole mini-batch (`g` regrouped to `[cout, B*oh*ow]`), folded
    /// back per sample with col2im.
    fn input_grad(&self, grad: &Tensor, in_shape: [usize; 4], profile: &KernelProfile) -> Tensor {
        let [b, _, h, w] = in_shape;
        let (oh, ow) = self.out_dims(h, w);
        let spatial = oh * ow;
        let ncols = b * spatial;
        let mut g = Tensor::zeros(&[self.cout, ncols]);
        let (src, dst) = (grad.data(), g.data_mut());
        for i in 0..b {
            for c in 0..self.cout {
                dst[c * ncols + i * spatial..][..spatial]
                    .copy_from_slice(&src[(i * self.cout + c) * spatial..][..spatial]);
            }
        }
        let dcol = ops::matmul_at_b(&self.weight, &g, profile);
        ops::col2im(&dcol, &in_shape, self.geom)
    }
}

impl Layer for Conv2d {
    /// One mini-batch-wide GEMM: `W · im2col(x)` over `[cin*k*k, B*oh*ow]`.
    /// Every output column is its own accumulation chain, so batching the
    /// columns gives the per-sample bits.
    fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 4, "Conv2d expects [B,cin,h,w], got {s:?}");
        assert_eq!(s[1], self.cin, "channel mismatch");
        let (b, h, w) = (s[0], s[2], s[3]);
        let (oh, ow) = self.out_dims(h, w);
        let spatial = oh * ow;
        let cols = ops::im2col(x, self.geom);
        let y = ops::matmul(&self.weight, &cols, &ctx.profile);
        // [cout, B*oh*ow] → [B, cout, oh, ow], adding the bias.
        let mut out = Tensor::zeros(&[b, self.cout, oh, ow]);
        let (yd, od) = (y.data(), out.data_mut());
        for i in 0..b {
            for (c, &bias) in self.bias.data().iter().enumerate() {
                let src = &yd[(c * b + i) * spatial..][..spatial];
                let dst = &mut od[(i * self.cout + c) * spatial..][..spatial];
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o = v + bias;
                }
            }
        }
        self.cached = Some(Cached { cols, in_shape: [b, self.cin, h, w] });
        out
    }

    fn backward(&mut self, grad: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let cached = self.cached.take().expect("backward before forward");
        self.accumulate_param_grads(grad, &cached, &ctx.profile);
        self.input_grad(grad, cached.in_shape, &ctx.profile)
    }

    fn backward_params(&mut self, grad: &Tensor, ctx: &mut ExecCtx) {
        let cached = self.cached.take().expect("backward before forward");
        self.accumulate_param_grads(grad, &cached, &ctx.profile);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.gw, &self.gb]
    }

    fn zero_grads(&mut self) {
        self.gw.zero_();
        self.gb.zero_();
    }

    fn name(&self) -> &'static str {
        "Conv2d"
    }

    fn uses_conv(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esrng::{StreamKey, StreamKind};

    fn init_rng() -> EsRng {
        EsRng::for_stream(2, StreamKey::global(StreamKind::ModelInit))
    }

    fn mk_ctx(rng: &mut EsRng) -> ExecCtx<'_> {
        ExecCtx { profile: KernelProfile::default(), training: true, dropout: rng }
    }

    #[test]
    fn forward_shape() {
        let mut rng = init_rng();
        let mut conv = Conv2d::init(3, 8, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(&[2, 3, 8, 8]);
        let mut drng = init_rng();
        let mut ctx = mk_ctx(&mut drng);
        let y = conv.forward(&x, &mut ctx);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn strided_forward_shrinks() {
        let mut rng = init_rng();
        let mut conv = Conv2d::init(1, 2, 3, 2, 1, &mut rng);
        let x = Tensor::zeros(&[1, 1, 8, 8]);
        let mut drng = init_rng();
        let mut ctx = mk_ctx(&mut drng);
        let y = conv.forward(&x, &mut ctx);
        assert_eq!(y.shape(), &[1, 2, 4, 4]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = init_rng();
        let mut conv = Conv2d::init(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::from_vec(
            (0..2 * 2 * 4 * 4).map(|i| ((i * 7) % 13) as f32 * 0.1 - 0.6).collect(),
            &[2, 2, 4, 4],
        );

        let loss = |conv: &mut Conv2d, x: &Tensor| -> f32 {
            let mut drng = init_rng();
            let mut ctx = mk_ctx(&mut drng);
            let y = conv.forward(x, &mut ctx);
            y.data().iter().sum()
        };

        let base = loss(&mut conv, &x);
        {
            let mut drng = init_rng();
            let mut ctx = mk_ctx(&mut drng);
            let y = conv.forward(&x, &mut ctx);
            conv.backward(&Tensor::full(y.shape(), 1.0), &mut ctx);
        }
        let eps = 1e-2f32;

        // Check a few weight entries.
        for &wi in &[0usize, 5, 17] {
            let analytic = conv.grads()[0].data()[wi];
            conv.params_mut()[0].data_mut()[wi] += eps;
            let bumped = loss(&mut conv, &x);
            conv.params_mut()[0].data_mut()[wi] -= eps;
            let fd = (bumped - base) / eps;
            assert!((fd - analytic).abs() < 0.05, "dW[{wi}] fd {fd} vs {analytic}");
        }

        // Bias gradient: dL/db_c = number of output positions = B*oh*ow.
        let expected = (2 * 4 * 4) as f32;
        for c in 0..3 {
            let got = conv.grads()[1].data()[c];
            assert!((got - expected).abs() < 1e-3, "db[{c}] = {got}, want {expected}");
        }
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = init_rng();
        let mut conv = Conv2d::init(1, 2, 3, 1, 0, &mut rng);
        let x = Tensor::from_vec((0..16).map(|i| i as f32 * 0.1).collect(), &[1, 1, 4, 4]);
        let mut drng = init_rng();
        let mut ctx = mk_ctx(&mut drng);
        let y = conv.forward(&x, &mut ctx);
        let gx = conv.backward(&Tensor::full(y.shape(), 1.0), &mut ctx);

        let loss = |conv: &mut Conv2d, x: &Tensor| -> f32 {
            let mut drng = init_rng();
            let mut ctx = mk_ctx(&mut drng);
            conv.forward(x, &mut ctx).data().iter().sum()
        };
        let base = loss(&mut conv, &x);
        let eps = 1e-2f32;
        for &xi in &[0usize, 5, 10, 15] {
            let mut x2 = x.clone();
            x2.data_mut()[xi] += eps;
            let fd = (loss(&mut conv, &x2) - base) / eps;
            assert!((fd - gx.data()[xi]).abs() < 0.05, "dx[{xi}] fd {fd} vs {}", gx.data()[xi]);
        }
    }

    #[test]
    fn profile_changes_conv_bits() {
        let mut rng = init_rng();
        let mut conv = Conv2d::init(3, 16, 3, 1, 1, &mut rng);
        let x = Tensor::from_vec(
            (0..3 * 64).map(|i| (i as f32).sin() * 10f32.powi((i % 5) - 2)).collect(),
            &[1, 3, 8, 8],
        );
        let run = |conv: &mut Conv2d, profile: KernelProfile| {
            let mut drng = init_rng();
            let mut ctx = ExecCtx { profile, training: true, dropout: &mut drng };
            conv.forward(&x, &mut ctx)
        };
        let y_v100 = run(&mut conv, KernelProfile::vendor_optimized(80));
        let y_t4 = run(&mut conv, KernelProfile::vendor_optimized(40));
        assert!(!y_v100.bitwise_eq(&y_t4), "vendor kernels must differ across GPU types");
        assert!(y_v100.max_abs_diff(&y_t4) < 1e-3, "but only in low-order bits");
        let y_agn1 = run(&mut conv, KernelProfile::hardware_agnostic());
        let y_agn2 = run(&mut conv, KernelProfile::hardware_agnostic());
        assert!(y_agn1.bitwise_eq(&y_agn2));
    }

    #[test]
    fn conv_reports_conv_usage() {
        let mut rng = init_rng();
        let conv = Conv2d::init(1, 1, 3, 1, 1, &mut rng);
        assert!(conv.uses_conv());
    }
}
