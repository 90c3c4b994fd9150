//! Deterministic dense-tensor math with explicit control of floating-point
//! accumulation order.
//!
//! # Why accumulation order is the whole story
//!
//! EasyScale's D0/D1/D2 determinism levels (paper §3.3) all bottom out in one
//! physical fact: **f32 addition is not associative**. On real GPUs the
//! grouping of additions is decided by the kernel implementation — the number
//! of thread blocks (a function of the SM count), the tile sizes picked by
//! cuDNN/cuBLAS heuristics, and whether atomics are used. Change any of those
//! and the same mathematical sum produces different bits.
//!
//! This crate reproduces that mechanism honestly on the CPU:
//!
//! * every reduction-bearing kernel ([`ops::blocked_sum`], [`ops::matmul`],
//!   [`ops::conv2d`]) takes a [`KernelProfile`] that fixes the accumulation
//!   tree shape (block size / inner tile),
//! * "vendor-optimized" profiles are derived from the simulated device's SM
//!   count ([`KernelProfile::vendor_optimized`]), so two GPU types genuinely
//!   produce different bits for the same op — exactly the D2 problem,
//! * a *non-deterministic* mode emulates atomic-order races by perturbing the
//!   accumulation order with a process-global noise counter — the D0 problem,
//! * [`autotune::Autotuner`] emulates cuDNN benchmark mode: it picks the
//!   "fastest" profile using noisy measurements unless pinned — the other
//!   D0 problem.
//!
//! The hardware-agnostic profile ([`KernelProfile::hardware_agnostic`]) is
//! the D2 fix: one fixed tree shape regardless of device, at a simulated
//! performance cost recorded in [`KernelProfile::slowdown`].

#![deny(missing_docs)]

pub mod autotune;
pub mod kernels;
pub mod ops;
pub mod scratch;
mod tensor_impl;

pub use autotune::{AutotunePolicy, Autotuner};
pub use kernels::{KernelProfile, NoiseSource};
pub use tensor_impl::Tensor;

/// Convenience alias for shapes.
pub type Shape = Vec<usize>;
