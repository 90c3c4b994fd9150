//! Property-based tests for the model layer: gradient correctness by finite
//! differences over random shapes/values, and bit-purity of forward passes.

use esrng::{EsRng, StreamKey, StreamKind};
use models::conv::Conv2d;
use models::layers::Dense;
use models::model::{ExecCtx, Layer};
use models::zoo::{self, build_proxy};

use proptest::prelude::*;
use tensor::kernels::blocked_sum_scalar;
use tensor::ops::{
    col2im, im2col, matmul_a_bt_scalar, matmul_at_b_scalar, matmul_scalar, ConvGeom,
};
use tensor::{KernelProfile, Tensor};

fn rng(seed: u64) -> EsRng {
    EsRng::for_stream(seed, StreamKey::global(StreamKind::ModelInit))
}

proptest! {
    /// Dense gradients match finite differences for arbitrary shapes,
    /// inputs, and weight entries.
    #[test]
    fn dense_fd_check(
        n in 1usize..4,
        inp in 1usize..6,
        out in 1usize..5,
        seed in any::<u64>(),
        probe in any::<u32>(),
    ) {
        let mut init = rng(seed);
        let mut layer = Dense::init(inp, out, &mut init);
        let x = Tensor::from_vec(
            (0..n * inp).map(|i| ((i as f32) * 0.73 + seed as f32 * 1e-9).sin()).collect(),
            &[n, inp],
        );
        let loss = |layer: &mut Dense, x: &Tensor| -> f32 {
            let mut d = rng(0);
            let mut ctx = ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut d };
            layer.forward(x, &mut ctx).data().iter().sum()
        };
        let base = loss(&mut layer, &x);
        let gx = {
            let mut d = rng(0);
            let mut ctx = ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut d };
            let y = layer.forward(&x, &mut ctx);
            layer.backward(&Tensor::full(y.shape(), 1.0), &mut ctx)
        };
        // Probe one random weight and one random input element.
        let wi = (probe as usize) % (inp * out);
        let eps = 1e-2f32;
        let analytic_w = layer.grads()[0].data()[wi];
        layer.params_mut()[0].data_mut()[wi] += eps;
        let fd_w = (loss(&mut layer, &x) - base) / eps;
        layer.params_mut()[0].data_mut()[wi] -= eps;
        prop_assert!((fd_w - analytic_w).abs() < 0.05, "dW[{wi}]: fd {fd_w} vs {analytic_w}");

        let xi = (probe as usize) % (n * inp);
        let mut x2 = x.clone();
        x2.data_mut()[xi] += eps;
        let fd_x = (loss(&mut layer, &x2) - base) / eps;
        prop_assert!((fd_x - gx.data()[xi]).abs() < 0.05, "dx[{xi}]: fd {fd_x} vs {}", gx.data()[xi]);
    }

    /// Every proxy's forward pass is a pure function of (seed, input, RNG
    /// position) — two evaluations agree bitwise.
    #[test]
    fn proxy_forward_is_pure(widx in 0usize..8, seed in any::<u64>()) {
        let w = models::WORKLOADS[widx];
        let mut m1 = build_proxy(w, seed);
        let mut m2 = build_proxy(w, seed);
        let x = match zoo::input_kind(w) {
            zoo::InputKind::Image => Tensor::from_vec(
                (0..2 * 3 * 8 * 8).map(|i| (i as f32 * 0.31).sin()).collect(),
                &[2, 3, 8, 8],
            ),
            zoo::InputKind::Sequence => Tensor::from_vec(
                (0..2 * zoo::SEQ_LEN).map(|i| (i % zoo::VOCAB) as f32).collect(),
                &[2, zoo::SEQ_LEN],
            ),
        };
        let run = |m: &mut models::Model| {
            let mut d = EsRng::for_stream(seed, StreamKey::ranked(StreamKind::Dropout, 0));
            let mut ctx = ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut d };
            m.forward(&x, &mut ctx)
        };
        let a = run(&mut m1);
        let b = run(&mut m2);
        prop_assert!(a.bitwise_eq(&b));
    }

    /// The training backward (`Model::backward_params`, which skips the
    /// model-input gradient) accumulates the same gradient bits as the full
    /// `Model::backward` on every proxy, under random deterministic
    /// profiles.
    #[test]
    fn backward_params_eq_backward_grads(
        widx in 0usize..8, seed in any::<u64>(), tile_k in 1usize..40, algo_id in 0u8..3,
    ) {
        let w = models::WORKLOADS[widx];
        let profile = KernelProfile { reduce_block: 32, tile_k, algo_id, deterministic: true };
        let x = match zoo::input_kind(w) {
            zoo::InputKind::Image => Tensor::from_vec(
                (0..3 * 3 * 8 * 8).map(|i| (i as f32 * 0.37 + seed as f32 * 1e-9).sin()).collect(),
                &[3, 3, 8, 8],
            ),
            zoo::InputKind::Sequence => Tensor::from_vec(
                (0..3 * zoo::SEQ_LEN).map(|i| ((i * 7) % zoo::VOCAB) as f32).collect(),
                &[3, zoo::SEQ_LEN],
            ),
        };
        let grads = |params_only: bool| {
            let mut m = build_proxy(w, seed);
            let mut d = EsRng::for_stream(seed, StreamKey::ranked(StreamKind::Dropout, 0));
            let mut ctx = ExecCtx { profile, training: true, dropout: &mut d };
            let y = m.forward(&x, &mut ctx);
            let g = Tensor::from_vec((0..y.len()).map(|i| (i as f32 * 0.11).cos()).collect(), y.shape());
            if params_only {
                m.backward_params(&g, &mut ctx);
            } else {
                m.backward(&g, &mut ctx);
            }
            m.flat_grads().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        };
        prop_assert_eq!(grads(true), grads(false), "{}", w.name());
    }

    /// flat_params / load_flat_params round-trips on every proxy.
    #[test]
    fn flat_param_roundtrip(widx in 0usize..8, seed in any::<u64>()) {
        let w = models::WORKLOADS[widx];
        let mut m = build_proxy(w, seed);
        let flat = m.flat_params();
        prop_assert_eq!(flat.len(), m.num_params());
        let perturbed: Vec<f32> = flat.iter().map(|v| v * 1.5 + 0.01).collect();
        m.load_flat_params(&perturbed);
        prop_assert_eq!(m.flat_params(), perturbed);
    }

    /// Implicit-state capture/restore round-trips on every proxy.
    #[test]
    fn implicit_state_roundtrip(widx in 0usize..8) {
        let w = models::WORKLOADS[widx];
        let mut m = build_proxy(w, 3);
        // Run a training step so BN stats move off their init values.
        let x = match zoo::input_kind(w) {
            zoo::InputKind::Image => Tensor::from_vec((0..3 * 64).map(|i| (i as f32).cos()).collect(), &[1, 3, 8, 8]),
            zoo::InputKind::Sequence => Tensor::from_vec(vec![5.0; zoo::SEQ_LEN], &[1, zoo::SEQ_LEN]),
        };
        let mut d = EsRng::for_stream(0, StreamKey::ranked(StreamKind::Dropout, 0));
        let mut ctx = ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut d };
        m.forward(&x, &mut ctx);
        let state = m.implicit_state();
        let mut fresh = build_proxy(w, 3);
        fresh.set_implicit_state(&state);
        prop_assert_eq!(fresh.implicit_state(), state);
    }

    /// The mini-batch-wide Conv2d (one im2col matrix and one GEMM per
    /// layer, a per-sample weight gradient) ≡ a per-sample reference built
    /// from im2col + the scalar matmul oracles + col2im, with parameter
    /// gradients added in sample order — bitwise, for output, `gw`, `gb`
    /// and the input gradient, under random deterministic profiles. The
    /// parameter-only backward leaves the same `gw`/`gb` bits.
    #[test]
    fn conv2d_batched_eq_per_sample_reference(
        b in 1usize..5, cin in 1usize..5, cout in 1usize..9,
        h in 1usize..9, w in 1usize..9,
        kernel in 1usize..4, stride in 1usize..3, pad in 0usize..2,
        tile_k in 1usize..80, algo_id in 0u8..3, reduce_block in 1usize..100,
        seed in any::<u64>(),
    ) {
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let profile = KernelProfile { reduce_block, tile_k, algo_id, deterministic: true };
        let geom = ConvGeom { kernel, stride, pad };
        let (oh, ow) = (geom.out_size(h), geom.out_size(w));
        let spatial = oh * ow;
        let rough = |n: usize, salt: u64| -> Vec<f32> {
            (0..n)
                .map(|i| {
                    let v = ((i as u64 * 2654435761 + seed.wrapping_mul(salt)) % 1999) as f32;
                    v * 0.01 * 10f32.powi((i % 5) as i32 - 2) - 3.0
                })
                .collect()
        };
        let x = Tensor::from_vec(rough(b * cin * h * w, 3), &[b, cin, h, w]);
        let grad = Tensor::from_vec(rough(b * cout * spatial, 7), &[b, cout, oh, ow]);

        let mut conv = Conv2d::init(cin, cout, kernel, stride, pad, &mut rng(seed));
        let mut d = rng(0);
        let mut ctx = ExecCtx { profile, training: true, dropout: &mut d };
        let y = conv.forward(&x, &mut ctx);
        let gx = conv.backward(&grad, &mut ctx);

        let weight = conv.params()[0].clone();
        let bias = conv.params()[1].clone();
        let mut y_ref = Vec::new();
        let mut gx_ref = Vec::new();
        let mut gw_ref = Tensor::zeros(weight.shape());
        let mut gb_ref = vec![0.0f32; cout];
        let (in_plane, out_plane) = (cin * h * w, cout * spatial);
        for i in 0..b {
            let xi = Tensor::from_vec(x.data()[i * in_plane..(i + 1) * in_plane].to_vec(), &[cin, h, w]);
            let col = im2col(&xi, geom);
            let yi = matmul_scalar(&weight, &col, &profile);
            for c in 0..cout {
                y_ref.extend(yi.data()[c * spatial..(c + 1) * spatial].iter().map(|v| v + bias.data()[c]));
            }
            let gi = Tensor::from_vec(
                grad.data()[i * out_plane..(i + 1) * out_plane].to_vec(),
                &[cout, spatial],
            );
            gw_ref.axpy_(1.0, &matmul_a_bt_scalar(&gi, &col, &profile));
            for (gb, row) in gb_ref.iter_mut().zip(gi.data().chunks(spatial)) {
                *gb += blocked_sum_scalar(row, &profile);
            }
            let dcol = matmul_at_b_scalar(&weight, &gi, &profile);
            gx_ref.extend_from_slice(col2im(&dcol, xi.shape(), geom).data());
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(y.data()), bits(&y_ref), "output geom {:?} profile {:?}", geom, profile);
        prop_assert_eq!(bits(conv.grads()[0].data()), bits(gw_ref.data()), "gw");
        prop_assert_eq!(bits(conv.grads()[1].data()), bits(&gb_ref), "gb");
        prop_assert_eq!(gx.shape(), x.shape());
        prop_assert_eq!(bits(gx.data()), bits(&gx_ref), "input gradient");

        let mut params_only = Conv2d::init(cin, cout, kernel, stride, pad, &mut rng(seed));
        params_only.forward(&x, &mut ctx);
        params_only.backward_params(&grad, &mut ctx);
        prop_assert_eq!(bits(params_only.grads()[0].data()), bits(gw_ref.data()), "gw, params only");
        prop_assert_eq!(bits(params_only.grads()[1].data()), bits(&gb_ref), "gb, params only");
    }
}
