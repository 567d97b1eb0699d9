//! Runtime-dispatched implementations of the three hot decode kernels:
//! the 8×8 fixed-point IDCT, half-pel motion-compensation averaging and
//! the residual add/store with saturating clamp.
//!
//! Every member of a [`KernelSet`] is **bit-exact** with the scalar
//! reference implementation (the property tests in
//! `tests/kernel_exactness.rs` prove it on random blocks), so switching
//! kernels can never change decoder output — tile-parallel decode stays
//! bit-identical to the sequential decoder no matter which set is active.
//!
//! Selection happens once, lazily, from `is_x86_feature_detected!`;
//! [`set_active`] overrides it for tests and benchmarks. Non-x86 targets
//! always get the scalar set.

pub mod scalar;
// Miri interprets MIR and cannot execute `#[target_feature]` SIMD fns;
// under Miri only the scalar set exists, which keeps the VLD and
// bitstream suites runnable there without touching decode semantics
// (kernel sets are bit-exact by contract).
#[cfg(all(target_arch = "x86_64", not(miri)))]
pub mod x86;

use std::sync::atomic::{AtomicPtr, Ordering};

/// Signature of a strided motion-compensation kernel: reads a
/// `size × size` block (plus a column and/or row for the half-pel forms)
/// from rows `src_stride` apart and writes `size × size` samples into rows
/// `dst_stride` apart, `dst[0]` being the block's top-left sample.
pub type McKernel =
    fn(src: &[u8], src_stride: usize, dst: &mut [u8], dst_stride: usize, size: usize);

/// A complete, interchangeable set of hot decode kernels.
///
/// The motion-compensation members read from a strided source (either a
/// tightly packed fetch buffer or a borrowed plane region) and write
/// straight into the destination rows the reconstructor was lent; `size`
/// is 16 for luma and 8 for chroma. The reconstruction members operate on
/// an 8×8 block whose top-left byte is `dst[0]`, with rows `stride` bytes
/// apart.
pub struct KernelSet {
    /// Kernel set name: `"scalar"`, `"sse2"` or `"avx2"`.
    pub name: &'static str,
    /// In-place 8×8 inverse DCT, bit-exact with [`crate::dct::idct_scalar`].
    pub idct: fn(&mut [i32; 64]),
    /// [`idct`](Self::idct) for callers that guarantee every coefficient
    /// lies in the dequantiser's saturation range `[-2048, 2047]`, which
    /// is what lets the SIMD sets run in 32-bit lanes without scanning
    /// the block first. Outside that range the result is unspecified
    /// (lanes wrap) but the call stays memory-safe.
    pub idct_in_range: fn(&mut [i32; 64]),
    /// Full-pel prediction: row-wise copy of `size × size` pixels.
    pub mc_copy_strided: McKernel,
    /// Horizontal half-pel average: `(a + b + 1) >> 1` of each pixel and
    /// its right neighbour (reads `size + 1` columns).
    pub mc_avg_h_strided: McKernel,
    /// Vertical half-pel average (reads `size + 1` rows).
    pub mc_avg_v_strided: McKernel,
    /// Diagonal half-pel average: `(a + b + c + d + 2) >> 2` of the 2×2
    /// neighbourhood (reads `size + 1` rows and columns).
    pub mc_avg_hv_strided: McKernel,
    /// Bidirectional combine: `dst = (dst + src + 1) >> 1` over a
    /// `size × size` block, in place in the destination rows.
    pub average: McKernel,
    // The four packed members below (`dst_stride == size`) stay only
    // because the frozen `benchmark/src/layers.rs` calls `mc_copy` and
    // `mc_avg_hv` with these signatures; they go with the next
    // `benchmark/` PR.
    /// [`mc_copy_strided`](Self::mc_copy_strided) into a packed block.
    pub mc_copy: fn(src: &[u8], src_stride: usize, dst: &mut [u8], size: usize),
    /// [`mc_avg_h_strided`](Self::mc_avg_h_strided) into a packed block.
    pub mc_avg_h: fn(src: &[u8], src_stride: usize, dst: &mut [u8], size: usize),
    /// [`mc_avg_v_strided`](Self::mc_avg_v_strided) into a packed block.
    pub mc_avg_v: fn(src: &[u8], src_stride: usize, dst: &mut [u8], size: usize),
    /// [`mc_avg_hv_strided`](Self::mc_avg_hv_strided) into a packed block.
    pub mc_avg_hv: fn(src: &[u8], src_stride: usize, dst: &mut [u8], size: usize),
    /// Adds an 8×8 residual onto prediction pixels, clamping to `[0, 255]`.
    pub add_residual: fn(dst: &mut [u8], stride: usize, residual: &[i32; 64]),
    /// Stores an 8×8 intra block, clamping samples to `[0, 255]`.
    pub set_block: fn(dst: &mut [u8], stride: usize, samples: &[i32; 64]),
    /// Software-prefetch hint covering `bytes` (one request per cache
    /// line). Purely advisory — a no-op on the scalar set — and never
    /// observable in output, so it is exempt from the bit-exactness
    /// property tests. Used by `Plane::prefetch_rect` to warm reference
    /// tiles named in a picture's MEI block list before its pixel pass.
    pub prefetch: fn(bytes: &[u8]),
}

/// The portable scalar baseline (always available, every arch).
pub static SCALAR: KernelSet = KernelSet {
    name: "scalar",
    idct: crate::dct::idct_scalar,
    idct_in_range: crate::dct::idct_scalar,
    mc_copy_strided: scalar::mc_copy_strided,
    mc_avg_h_strided: scalar::mc_avg_h_strided,
    mc_avg_v_strided: scalar::mc_avg_v_strided,
    mc_avg_hv_strided: scalar::mc_avg_hv_strided,
    average: scalar::average,
    mc_copy: scalar::mc_copy,
    mc_avg_h: scalar::mc_avg_h,
    mc_avg_v: scalar::mc_avg_v,
    mc_avg_hv: scalar::mc_avg_hv,
    add_residual: scalar::add_residual,
    set_block: scalar::set_block,
    prefetch: scalar::prefetch,
};

static ACTIVE: AtomicPtr<KernelSet> = AtomicPtr::new(std::ptr::null_mut());

/// The kernel set every decode path dispatches through.
///
/// Resolved once (the fastest set [`available`] detects) and cached;
/// subsequent calls are a single atomic load.
#[inline]
pub fn active() -> &'static KernelSet {
    let p = ACTIVE.load(Ordering::Relaxed);
    if !p.is_null() {
        // SAFETY: the pointer only ever holds `&'static KernelSet` values.
        return unsafe { &*p };
    }
    detect()
}

/// First-call path of [`active`], kept out of line so the hot call sites
/// inline only the atomic load.
#[cold]
fn detect() -> &'static KernelSet {
    let chosen = available().last().copied().unwrap_or(&SCALAR);
    set_active(chosen);
    chosen
}

/// Forces a specific kernel set for the rest of the process (used by the
/// benchmarks to measure scalar-vs-SIMD on the same host, and by tests).
pub fn set_active(set: &'static KernelSet) {
    ACTIVE.store(set as *const KernelSet as *mut KernelSet, Ordering::Relaxed);
}

/// Every kernel set usable on this host, slowest first (`scalar` always,
/// then `sse2`/`avx2` as detected). Tests iterate this to prove each
/// available set bit-exact; benches iterate it to report per-set speed.
pub fn available() -> Vec<&'static KernelSet> {
    #[allow(unused_mut)]
    let mut sets = vec![&SCALAR];
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if std::arch::is_x86_feature_detected!("sse2") {
            sets.push(&x86::SSE2);
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            sets.push(&x86::AVX2);
        }
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available() {
        let sets = available();
        assert_eq!(sets[0].name, "scalar");
    }

    #[test]
    fn active_is_idempotent() {
        let a = active();
        let b = active();
        assert!(std::ptr::eq(a, b));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_sets_detected_in_order() {
        let names: Vec<_> = available().iter().map(|s| s.name).collect();
        if names.contains(&"avx2") {
            assert!(names.contains(&"sse2"), "avx2 implies sse2");
        }
    }
}
