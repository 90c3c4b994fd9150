//! The sequential model container, execution context, and implicit state.

use esrng::EsRng;
use serde::{Deserialize, Serialize};
use tensor::{KernelProfile, Tensor};

/// Execution context for a forward/backward pass: the kernel profile
/// (accumulation-order policy), the training/eval switch, and the dropout
/// generator — which belongs to the *EST*, not the model, because it is part
/// of the per-logical-worker state that must move with the EST.
pub struct ExecCtx<'a> {
    /// Kernel profile every reduction in the pass uses.
    pub profile: KernelProfile,
    /// Training mode (dropout active, BatchNorm uses batch stats).
    pub training: bool,
    /// Dropout mask generator (owned by the calling EST).
    pub dropout: &'a mut EsRng,
}

/// A differentiable layer. `forward` caches whatever `backward` needs; the
/// pair must be called in strict alternation (standard tape-free reverse
/// mode for a sequential network). Parameter gradients accumulate inside the
/// layer until [`Layer::zero_grads`].
pub trait Layer: Send {
    /// Forward pass.
    fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor;
    /// Backward pass: takes dL/d(output), returns dL/d(input), accumulates
    /// parameter gradients.
    fn backward(&mut self, grad: &Tensor, ctx: &mut ExecCtx) -> Tensor;
    /// Backward pass whose input gradient nobody reads (the first layer of
    /// a model): accumulates the parameter gradients exactly as
    /// [`Layer::backward`] does. Layers that compute their input gradient
    /// separately skip it; the default runs `backward` and drops it.
    fn backward_params(&mut self, grad: &Tensor, ctx: &mut ExecCtx) {
        self.backward(grad, ctx);
    }
    /// Learnable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }
    /// Mutable learnable parameters, same order as [`Layer::params`].
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }
    /// Accumulated gradients, same order as [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }
    /// Reset accumulated gradients to zero.
    fn zero_grads(&mut self) {}
    /// Implicit (non-learnable, per-replica) state — BatchNorm running
    /// stats. Part of the EST context, not of the shared parameters.
    fn implicit_state(&self) -> Vec<Tensor> {
        Vec::new()
    }
    /// Restore implicit state captured by [`Layer::implicit_state`].
    fn set_implicit_state(&mut self, state: &[Tensor]) {
        assert!(state.is_empty(), "layer {} has no implicit state", self.name());
    }
    /// Human-readable layer kind.
    fn name(&self) -> &'static str;
    /// Whether the layer's forward relies on convolution kernels (drives the
    /// paper's D2 vendor-kernel analysis).
    fn uses_conv(&self) -> bool {
        false
    }
}

/// Implicit per-replica state of a whole model (the BatchNorm running stats
/// of every layer, in layer order). Saved inside EST contexts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImplicitState {
    /// Per-layer captured tensors (empty vectors for stateless layers).
    pub per_layer: Vec<Vec<Tensor>>,
}

/// A sequential stack of layers.
pub struct Model {
    layers: Vec<Box<dyn Layer>>,
}

impl Model {
    /// Build from layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Model { layers }
    }

    /// Layer count.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Forward through all layers.
    pub fn forward(&mut self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, ctx);
        }
        cur
    }

    /// Backward through all layers (reverse order), accumulating gradients;
    /// returns the gradient w.r.t. the model input.
    pub fn backward(&mut self, grad: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let cur = self.backward_to_first(grad, ctx);
        match self.layers.first_mut() {
            Some(first) => first.backward(&cur, ctx),
            None => cur,
        }
    }

    /// The training backward pass: accumulates the same parameter gradients
    /// as [`Model::backward`] but skips the model-input gradient, which
    /// nothing reads (see [`Layer::backward_params`]).
    pub fn backward_params(&mut self, grad: &Tensor, ctx: &mut ExecCtx) {
        let cur = self.backward_to_first(grad, ctx);
        if let Some(first) = self.layers.first_mut() {
            first.backward_params(&cur, ctx);
        }
    }

    /// Backward through every layer but the first; returns the gradient
    /// w.r.t. the first layer's output.
    fn backward_to_first(&mut self, grad: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let mut cur = grad.clone();
        for layer in self.layers.iter_mut().skip(1).rev() {
            cur = layer.backward(&cur, ctx);
        }
        cur
    }

    /// Zero all parameter gradients.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Total parameter element count.
    pub fn num_params(&self) -> usize {
        self.layers.iter().flat_map(|l| l.params()).map(|p| p.len()).sum()
    }

    /// Flatten all parameters into one vector. Order: **reverse layer order**
    /// (the "reversed topological order of the computation graph" PyTorch
    /// DDP uses to lay out gradient buckets), parameters within a layer in
    /// declaration order.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in self.layers.iter().rev() {
            for p in layer.params() {
                out.extend_from_slice(p.data());
            }
        }
        out
    }

    /// Flatten all gradients, same order as [`Model::flat_params`].
    pub fn flat_grads(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in self.layers.iter().rev() {
            for g in layer.grads() {
                out.extend_from_slice(g.data());
            }
        }
        out
    }

    /// Sizes of each parameter tensor in flat order — the unit the gradient
    /// bucketer maps into buckets.
    pub fn param_sizes(&self) -> Vec<usize> {
        self.layers.iter().rev().flat_map(|l| l.params().into_iter().map(|p| p.len())).collect()
    }

    /// Load a flat parameter vector (inverse of [`Model::flat_params`]).
    pub fn load_flat_params(&mut self, flat: &[f32]) {
        let mut off = 0;
        for layer in self.layers.iter_mut().rev() {
            for p in layer.params_mut() {
                let n = p.len();
                p.data_mut().copy_from_slice(&flat[off..off + n]);
                off += n;
            }
        }
        assert_eq!(off, flat.len(), "flat parameter vector has wrong length");
    }

    /// Apply `update[i]` to parameter element `i` (flat order):
    /// `p[i] += update[i]`. Used by optimizers operating on flat vectors.
    pub fn apply_flat_delta(&mut self, delta: &[f32]) {
        let mut off = 0;
        for layer in self.layers.iter_mut().rev() {
            for p in layer.params_mut() {
                let n = p.len();
                for (x, d) in p.data_mut().iter_mut().zip(&delta[off..off + n]) {
                    // Elementwise update, one addend per element.
                    // detlint::allow(no-raw-float-accum): no reduction order
                    *x += d;
                }
                off += n;
            }
        }
        assert_eq!(off, delta.len(), "flat delta vector has wrong length");
    }

    /// Capture implicit (per-replica) state — BatchNorm running stats.
    pub fn implicit_state(&self) -> ImplicitState {
        ImplicitState { per_layer: self.layers.iter().map(|l| l.implicit_state()).collect() }
    }

    /// Restore implicit state.
    pub fn set_implicit_state(&mut self, state: &ImplicitState) {
        assert_eq!(state.per_layer.len(), self.layers.len(), "implicit state layer count mismatch");
        for (layer, s) in self.layers.iter_mut().zip(&state.per_layer) {
            layer.set_implicit_state(s);
        }
    }

    /// Whether any layer relies on convolution kernels — the model scan
    /// EasyScale performs to decide if D2 (heterogeneous GPUs) is safe
    /// without vendor-kernel slowdown considerations (§3.3).
    pub fn uses_conv(&self) -> bool {
        self.layers.iter().any(|l| l.uses_conv())
    }

    /// Layer kind names, for diagnostics.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use esrng::{StreamKey, StreamKind};

    fn ctx_rng() -> EsRng {
        EsRng::for_stream(0, StreamKey::ranked(StreamKind::Dropout, 0))
    }

    fn tiny_model() -> Model {
        let mut rng = EsRng::for_stream(1, StreamKey::global(StreamKind::ModelInit));
        Model::new(vec![
            Box::new(Dense::init(4, 8, &mut rng)),
            Box::new(Relu::new()),
            Box::new(Dense::init(8, 3, &mut rng)),
        ])
    }

    #[test]
    fn flat_params_roundtrip() {
        let mut m = tiny_model();
        let flat = m.flat_params();
        assert_eq!(flat.len(), m.num_params());
        let mut scaled: Vec<f32> = flat.iter().map(|x| x * 2.0).collect();
        m.load_flat_params(&scaled);
        let back = m.flat_params();
        assert_eq!(back, scaled);
        // apply_flat_delta adds elementwise.
        let delta = vec![1.0f32; scaled.len()];
        m.apply_flat_delta(&delta);
        for (a, b) in m.flat_params().iter().zip(scaled.iter_mut()) {
            assert_eq!(*a, *b + 1.0);
        }
    }

    #[test]
    fn flat_order_is_reverse_topological() {
        let m = tiny_model();
        let sizes = m.param_sizes();
        // Reverse order: last Dense (8→3: w=24, b=3) first.
        assert_eq!(sizes, vec![24, 3, 32, 8]);
    }

    #[test]
    fn forward_backward_shapes() {
        let mut m = tiny_model();
        let mut rng = ctx_rng();
        let mut ctx =
            ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut rng };
        let x = Tensor::zeros(&[5, 4]);
        let y = m.forward(&x, &mut ctx);
        assert_eq!(y.shape(), &[5, 3]);
        let gx = m.backward(&Tensor::zeros(&[5, 3]), &mut ctx);
        assert_eq!(gx.shape(), &[5, 4]);
    }

    #[test]
    fn zero_grads_clears() {
        let mut m = tiny_model();
        let mut rng = ctx_rng();
        let mut ctx =
            ExecCtx { profile: KernelProfile::default(), training: true, dropout: &mut rng };
        let x = Tensor::full(&[2, 4], 0.5);
        let y = m.forward(&x, &mut ctx);
        m.backward(&Tensor::full(y.shape(), 1.0), &mut ctx);
        assert!(m.flat_grads().iter().any(|&g| g != 0.0));
        m.zero_grads();
        assert!(m.flat_grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn mlp_does_not_use_conv() {
        assert!(!tiny_model().uses_conv());
    }
}
