//! Per-thread scratch buffers for the conv layer's mini-batch matrices.
//!
//! A training step allocates and frees the same few large buffers (the
//! im2col batch matrix, its gradient, the GEMM partials) once per EST. On a
//! pool thread each such free can trim the thread's allocator arena, and the
//! next step page-faults the memory back in. Taking the buffers from a
//! per-thread free list and giving them back keeps them mapped.
//!
//! The list never influences a result: [`take_zeroed`] hands out exactly
//! `len` zeros whatever buffer it reuses, so callers see the same values as
//! from a fresh `vec![0.0; len]`. The list is per thread, so there is no
//! sharing and no locking; a thread's buffers are freed when it exits.

use std::cell::RefCell;

thread_local! {
    static FREE: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// A buffer of exactly `len` zeros. Reuses the smallest listed buffer whose
/// capacity fits; allocates only when none does.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let reused = FREE.with(|free| {
        let mut free = free.borrow_mut();
        let best = free
            .iter()
            .enumerate()
            .filter(|(_, v)| v.capacity() >= len)
            .min_by_key(|(_, v)| v.capacity())
            .map(|(i, _)| i);
        best.map(|i| free.swap_remove(i))
    });
    match reused {
        Some(mut v) => {
            v.clear();
            v.resize(len, 0.0);
            v
        }
        None => vec![0.0; len],
    }
}

/// Return a buffer to this thread's list for a later [`take_zeroed`].
pub fn give(v: Vec<f32>) {
    if v.capacity() > 0 {
        FREE.with(|free| free.borrow_mut().push(v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_the_smallest_fitting_buffer_and_zeroes_it() {
        give(vec![f32::NAN; 100]);
        give(vec![f32::NAN; 10]);
        give(vec![f32::NAN; 50]);
        let v = take_zeroed(40);
        assert_eq!(v.len(), 40);
        assert!(v.iter().all(|&x| x.to_bits() == 0));
        assert_eq!(v.capacity(), 50, "smallest buffer with enough capacity");
        let big = take_zeroed(200);
        assert_eq!(big.len(), 200);
        assert!(big.iter().all(|&x| x.to_bits() == 0));
    }
}
