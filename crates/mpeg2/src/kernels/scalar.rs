//! Portable scalar kernels — the bit-exactness reference for every SIMD
//! set and the fallback on non-x86 targets.
//!
//! The arithmetic here is the canonical definition of decoder output:
//! half-pel interpolation rounds up (`+1` / `+2` before the shift) and
//! reconstruction clamps to `[0, 255]`, exactly as `motion.rs` and
//! `recon.rs` did before the kernel layer existed.

/// Row-wise copy of a `size × size` block (full-pel prediction) into rows
/// `dst_stride` apart.
pub fn mc_copy_strided(
    src: &[u8],
    src_stride: usize,
    dst: &mut [u8],
    dst_stride: usize,
    size: usize,
) {
    match size {
        16 => copy_rows::<16>(src, src_stride, dst, dst_stride),
        8 => copy_rows::<8>(src, src_stride, dst, dst_stride),
        _ => {
            for y in 0..size {
                let s = &src[y * src_stride..y * src_stride + size];
                dst[y * dst_stride..y * dst_stride + size].copy_from_slice(s);
            }
        }
    }
}

/// `N` rows of `N` bytes: a length the compiler knows, so each row is one
/// or two register moves instead of a `memcpy` call.
fn copy_rows<const N: usize>(src: &[u8], src_stride: usize, dst: &mut [u8], dst_stride: usize) {
    for y in 0..N {
        let s = &src[y * src_stride..y * src_stride + N];
        dst[y * dst_stride..y * dst_stride + N].copy_from_slice(s);
    }
}

/// Horizontal half-pel average: `(a + b + 1) >> 1` with the right neighbour.
pub fn mc_avg_h_strided(
    src: &[u8],
    src_stride: usize,
    dst: &mut [u8],
    dst_stride: usize,
    size: usize,
) {
    for y in 0..size {
        let row = &src[y * src_stride..];
        for x in 0..size {
            let a = row[x] as u16;
            let b = row[x + 1] as u16;
            dst[y * dst_stride + x] = ((a + b + 1) >> 1) as u8;
        }
    }
}

/// Vertical half-pel average: `(a + b + 1) >> 1` with the row below.
pub fn mc_avg_v_strided(
    src: &[u8],
    src_stride: usize,
    dst: &mut [u8],
    dst_stride: usize,
    size: usize,
) {
    for y in 0..size {
        let row0 = &src[y * src_stride..];
        let row1 = &src[(y + 1) * src_stride..];
        for x in 0..size {
            let a = row0[x] as u16;
            let b = row1[x] as u16;
            dst[y * dst_stride + x] = ((a + b + 1) >> 1) as u8;
        }
    }
}

/// Diagonal half-pel average: `(a + b + c + d + 2) >> 2` of the 2×2
/// neighbourhood.
pub fn mc_avg_hv_strided(
    src: &[u8],
    src_stride: usize,
    dst: &mut [u8],
    dst_stride: usize,
    size: usize,
) {
    for y in 0..size {
        let row0 = &src[y * src_stride..];
        let row1 = &src[(y + 1) * src_stride..];
        for x in 0..size {
            let a = row0[x] as u16;
            let b = row0[x + 1] as u16;
            let c = row1[x] as u16;
            let d = row1[x + 1] as u16;
            dst[y * dst_stride + x] = ((a + b + c + d + 2) >> 2) as u8;
        }
    }
}

/// Bidirectional combine of a `size × size` block:
/// `dst = (dst + src + 1) >> 1` sample by sample.
pub fn average(src: &[u8], src_stride: usize, dst: &mut [u8], dst_stride: usize, size: usize) {
    for y in 0..size {
        let s = &src[y * src_stride..y * src_stride + size];
        let d = &mut dst[y * dst_stride..y * dst_stride + size];
        for (d, s) in d.iter_mut().zip(s) {
            *d = ((*d as u16 + *s as u16 + 1) >> 1) as u8;
        }
    }
}

// The four packed forms below (`dst_stride == size`) stay only because the
// frozen `benchmark/src/layers.rs` and `KernelSet`'s packed members call
// them; they go with the next `benchmark/` PR.

/// [`mc_copy_strided`] into a tightly packed `size × size` block.
pub fn mc_copy(src: &[u8], src_stride: usize, dst: &mut [u8], size: usize) {
    mc_copy_strided(src, src_stride, dst, size, size)
}

/// [`mc_avg_h_strided`] into a tightly packed `size × size` block.
pub fn mc_avg_h(src: &[u8], src_stride: usize, dst: &mut [u8], size: usize) {
    mc_avg_h_strided(src, src_stride, dst, size, size)
}

/// [`mc_avg_v_strided`] into a tightly packed `size × size` block.
pub fn mc_avg_v(src: &[u8], src_stride: usize, dst: &mut [u8], size: usize) {
    mc_avg_v_strided(src, src_stride, dst, size, size)
}

/// [`mc_avg_hv_strided`] into a tightly packed `size × size` block.
pub fn mc_avg_hv(src: &[u8], src_stride: usize, dst: &mut [u8], size: usize) {
    mc_avg_hv_strided(src, src_stride, dst, size, size)
}

/// Adds an 8×8 residual block onto prediction pixels with saturation.
///
/// `dst[0]` is the top-left pixel of the block; rows are `stride` apart.
pub fn add_residual(dst: &mut [u8], stride: usize, residual: &[i32; 64]) {
    for row in 0..8 {
        let base = row * stride;
        for col in 0..8 {
            let d = &mut dst[base + col];
            *d = (*d as i32 + residual[row * 8 + col]).clamp(0, 255) as u8;
        }
    }
}

/// Prefetch hint: the portable set has no cache-control primitive, so
/// this is a deliberate no-op (prefetching is advisory by contract).
pub fn prefetch(_bytes: &[u8]) {}

/// Stores an 8×8 intra block, clamping each sample to `[0, 255]`.
pub fn set_block(dst: &mut [u8], stride: usize, samples: &[i32; 64]) {
    for row in 0..8 {
        let base = row * stride;
        for col in 0..8 {
            dst[base + col] = samples[row * 8 + col].clamp(0, 255) as u8;
        }
    }
}
