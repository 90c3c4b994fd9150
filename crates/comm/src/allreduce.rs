//! Ring all-reduce with honest floating-point semantics.
//!
//! In NCCL's ring algorithm a bucket is cut into `nranks` chunks; chunk `c`
//! is reduced by circulating around the ring, so its values are summed in a
//! rank order *rotated by the chunk index*. Two consequences this module
//! reproduces exactly:
//!
//! 1. Moving an element to a different chunk (because the bucket layout
//!    changed) changes its addition order ⇒ different f32 bits.
//! 2. Changing the rank count changes both the chunking and the number of
//!    addends ⇒ different bits.

/// Ring topology parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingSpec {
    /// Number of ranks in the ring.
    pub nranks: usize,
}

/// All-reduce (sum) the elements at `positions` (a bucket's flat-gradient
/// positions, in bucket order; positions must be distinct) across
/// `grads[rank][...]`, writing sums into `out` at the same positions.
///
/// The reduction order of the element at bucket-relative position `p` is the
/// ring order of chunk `p / chunk_len`: starting at rank `(chunk + 1) % n`
/// and proceeding around the ring — matching the reduce-scatter phase of a
/// ring all-reduce where chunk `c` ends fully reduced at rank `c`.
///
/// This is the vectorized evaluator: the loop nest is chunk-outer /
/// rank-middle / element-inner, with elements walked by maximal *contiguous
/// runs* of positions so the inner loop is a straight slice-add the compiler
/// auto-vectorizes (bucket positions are concatenations of whole-parameter
/// ranges, so runs are long in practice). Every element still receives its
/// addends in exactly the chunk's ring order starting from 0.0 — element
/// chains are independent, so hoisting the rank loop outward interleaves
/// chains without reassociating any of them. Bit-identical to
/// [`ring_allreduce_scalar`], the in-tree oracle.
pub fn ring_allreduce(grads: &[&[f32]], positions: &[usize], spec: &RingSpec, out: &mut [f32]) {
    let n = spec.nranks;
    assert!(n > 0, "empty ring");
    assert_eq!(grads.len(), n, "one gradient slice per rank");
    if positions.is_empty() {
        return;
    }
    let chunk_len = positions.len().div_ceil(n);
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for (chunk, cp) in positions.chunks(chunk_len).enumerate() {
        collect_runs(cp, &mut runs);
        for &(start, len) in &runs {
            out[start..start + len].iter_mut().for_each(|x| *x = 0.0);
        }
        for k in 1..=n {
            let rank = (chunk + k) % n;
            let g = grads[rank];
            for &(start, len) in &runs {
                let o = &mut out[start..start + len];
                let s = &g[start..start + len];
                for (x, &v) in o.iter_mut().zip(s) {
                    *x += v;
                }
            }
        }
    }
}

/// The scalar reference evaluator: element-outer, rank-inner, exactly the
/// pre-vectorization implementation. Kept in-tree as the oracle for the
/// `scalar ≡ vectorized` bit-equality proptests.
pub fn ring_allreduce_scalar(
    grads: &[&[f32]],
    positions: &[usize],
    spec: &RingSpec,
    out: &mut [f32],
) {
    let n = spec.nranks;
    assert!(n > 0, "empty ring");
    assert_eq!(grads.len(), n, "one gradient slice per rank");
    if positions.is_empty() {
        return;
    }
    let chunk_len = positions.len().div_ceil(n);
    for (bp, &pos) in positions.iter().enumerate() {
        let chunk = bp / chunk_len;
        // Ring order for this chunk: (chunk+1)%n, (chunk+2)%n, …, chunk.
        let mut acc = 0.0f32;
        for k in 1..=n {
            let rank = (chunk + k) % n;
            acc += grads[rank][pos];
        }
        out[pos] = acc;
    }
}

/// Split `positions` into maximal runs of consecutive indices, as
/// `(start_position, length)` pairs appended to `runs` (cleared first).
fn collect_runs(positions: &[usize], runs: &mut Vec<(usize, usize)>) {
    runs.clear();
    let mut i = 0;
    while i < positions.len() {
        let start = positions[i];
        let mut j = i + 1;
        while j < positions.len() && positions[j] == positions[j - 1] + 1 {
            j += 1;
        }
        runs.push((start, j - i));
        i = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_grads(n: usize, len: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|r| {
                (0..len)
                    .map(|i| ((i + r * 13) as f32).sin() * 10f32.powi(((i + r) % 5) as i32 - 2))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn sums_are_correct() {
        let g = mk_grads(4, 32);
        let views: Vec<&[f32]> = g.iter().map(|v| v.as_slice()).collect();
        let positions: Vec<usize> = (0..32).collect();
        let mut out = vec![0.0; 32];
        ring_allreduce(&views, &positions, &RingSpec { nranks: 4 }, &mut out);
        for i in 0..32 {
            let expect: f64 = g.iter().map(|r| r[i] as f64).sum();
            assert!((out[i] as f64 - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn chunk_rotation_affects_bits() {
        // The same element, placed in different chunks (by permuting the
        // bucket positions), is summed in a different rank order.
        let g = mk_grads(3, 300);
        let views: Vec<&[f32]> = g.iter().map(|v| v.as_slice()).collect();
        let forward: Vec<usize> = (0..300).collect();
        let reversed: Vec<usize> = (0..300).rev().collect();
        let mut out_f = vec![0.0; 300];
        let mut out_r = vec![0.0; 300];
        ring_allreduce(&views, &forward, &RingSpec { nranks: 3 }, &mut out_f);
        ring_allreduce(&views, &reversed, &RingSpec { nranks: 3 }, &mut out_r);
        let differs = out_f.iter().zip(&out_r).any(|(a, b)| a.to_bits() != b.to_bits());
        assert!(differs, "chunk placement must influence addition order");
    }

    #[test]
    fn single_rank_is_identity() {
        let g = mk_grads(1, 16);
        let views: Vec<&[f32]> = g.iter().map(|v| v.as_slice()).collect();
        let positions: Vec<usize> = (0..16).collect();
        let mut out = vec![0.0; 16];
        ring_allreduce(&views, &positions, &RingSpec { nranks: 1 }, &mut out);
        assert!(out.iter().zip(&g[0]).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn sparse_positions_only_touch_their_slots() {
        let g = mk_grads(2, 10);
        let views: Vec<&[f32]> = g.iter().map(|v| v.as_slice()).collect();
        let mut out = vec![f32::NAN; 10];
        ring_allreduce(&views, &[3, 7], &RingSpec { nranks: 2 }, &mut out);
        assert!(!out[3].is_nan() && !out[7].is_nan());
        assert!(out
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3 && *i != 7)
            .all(|(_, v)| v.is_nan()));
    }

    #[test]
    fn empty_positions_is_noop() {
        let g = mk_grads(2, 4);
        let views: Vec<&[f32]> = g.iter().map(|v| v.as_slice()).collect();
        let mut out = vec![0.0; 4];
        ring_allreduce(&views, &[], &RingSpec { nranks: 2 }, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn vectorized_matches_scalar_bitwise() {
        // Contiguous, strided, reversed-run, and singleton position shapes;
        // the randomized sweep lives in tests/vectorized_equiv.rs.
        for nranks in [1usize, 2, 3, 4, 7] {
            let g = mk_grads(nranks, 400);
            let views: Vec<&[f32]> = g.iter().map(|v| v.as_slice()).collect();
            let spec = RingSpec { nranks };
            let shapes: Vec<Vec<usize>> = vec![
                (0..400).collect(),
                (0..400).step_by(3).collect(),
                (100..200).chain(0..50).chain(300..301).collect(),
                vec![7],
                (0..399).rev().collect(),
            ];
            for positions in shapes {
                let mut fast = vec![f32::NAN; 400];
                let mut slow = vec![f32::NAN; 400];
                ring_allreduce(&views, &positions, &spec, &mut fast);
                ring_allreduce_scalar(&views, &positions, &spec, &mut slow);
                assert!(
                    fast.iter().zip(&slow).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "nranks={nranks} positions len={}",
                    positions.len()
                );
            }
        }
    }
}
