//! Randomized `scalar ≡ vectorized` bit-equality sweep for the ring kernels.
//!
//! `ring_allreduce` (chunk-outer / rank-middle / contiguous-run-inner)
//! claims to reproduce the scalar oracle `ring_allreduce_scalar` — element-outer,
//! rank-inner — bit for bit: every element keeps its chunk's ring order
//! starting from 0.0, only the interleaving across independent element
//! chains differs. These proptests sweep that claim across random rank
//! counts, gradient widths, and position shapes (contiguous prefixes,
//! shuffled run boundaries, sparse subsets, singletons, empty), and push it
//! up one level: the bucketed `allreduce_avg` against a from-scratch scalar
//! oracle.

use comm::{ring_allreduce, ring_allreduce_scalar, ElasticDdp, RingSpec};
use proptest::prelude::*;

/// Mixed-magnitude per-rank gradients (deterministic in `seed`): regrouping
/// the rank sums over such data almost always changes the bits.
fn mk_grads(nranks: usize, n: usize, seed: u32) -> Vec<Vec<f32>> {
    (0..nranks)
        .map(|r| {
            (0..n)
                .map(|i| {
                    let h = (i as u32)
                        .wrapping_mul(2654435761)
                        .wrapping_add(seed ^ (r as u32).wrapping_mul(0x9E3779B9));
                    ((h % 1999) as f32 * 0.01 - 10.0) * 10f32.powi((h % 7) as i32 - 3)
                })
                .collect()
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Distinct positions inside `0..n`: a shuffled permutation truncated to a
/// random length. Exercises ragged chunking, run boundaries at arbitrary
/// places, and (at `keep = 0`) the empty-bucket path.
fn positions_strategy(n: usize) -> impl Strategy<Value = Vec<usize>> {
    (Just((0..n).collect::<Vec<usize>>()).prop_shuffle(), 0usize..=n).prop_map(
        |(mut perm, keep)| {
            perm.truncate(keep);
            perm
        },
    )
}

proptest! {
    /// ring_allreduce ≡ ring_allreduce_scalar, bitwise, for random distinct
    /// positions.
    #[test]
    fn ring_vectorized_eq_scalar(
        (n, positions) in (1usize..500).prop_flat_map(|n| (Just(n), positions_strategy(n))),
        nranks in 1usize..8,
        seed in any::<u32>(),
    ) {
        let g = mk_grads(nranks, n, seed);
        let views: Vec<&[f32]> = g.iter().map(|v| v.as_slice()).collect();
        let spec = RingSpec { nranks };
        let mut fast = vec![f32::NAN; n];
        let mut slow = vec![f32::NAN; n];
        ring_allreduce(&views, &positions, &spec, &mut fast);
        ring_allreduce_scalar(&views, &positions, &spec, &mut slow);
        prop_assert_eq!(bits(&fast), bits(&slow), "nranks={} n={} plen={}",
            nranks, n, positions.len());
    }

    /// The bucketed reduce path end to end: `allreduce_avg` (vectorized ring
    /// per bucket) must reproduce a from-scratch oracle built on the scalar
    /// ring kernel, bit for bit, across random layouts.
    #[test]
    fn bucketed_reduce_eq_scalar_oracle(
        param_sizes in prop::collection::vec(1usize..150, 1..8),
        vworld in 1u32..6,
        cap_words in 4usize..200,
        seed in any::<u32>(),
    ) {
        let ddp = ElasticDdp::new(&param_sizes, vworld, cap_words * 4);
        let n: usize = param_sizes.iter().sum();
        let g = mk_grads(vworld as usize, n, seed);

        // Oracle: scalar ring over each bucket's positions, then the same
        // single average multiply — no vectorized code on this path.
        let views: Vec<&[f32]> = g.iter().map(|v| v.as_slice()).collect();
        let spec = RingSpec { nranks: vworld as usize };
        let mut oracle = vec![0.0f32; n];
        for bucket in ddp.layout().buckets() {
            ring_allreduce_scalar(&views, &ddp.layout().bucket_positions(bucket), &spec, &mut oracle);
        }
        for v in &mut oracle {
            *v *= 1.0 / vworld as f32;
        }

        let monolithic = ddp.allreduce_avg(&g);
        prop_assert_eq!(bits(&monolithic), bits(&oracle), "monolithic path diverged");
    }
}
