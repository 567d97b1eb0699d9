//! Microbenchmarks for the runtime-dispatched decode kernels: every
//! available kernel set (scalar, SSE2, AVX2) over the IDCT, half-pel
//! motion compensation and residual reconstruction — the per-sample hot
//! loops behind the paper's `t_d` decode cost.

use std::hint::black_box;
use tiledec_bench::microbench::Criterion;
use tiledec_bench::{bench_group, bench_main};
use tiledec_mpeg2::kernels;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn random_blocks(n: usize) -> Vec<[i32; 64]> {
    let mut s = 0x12345678u64;
    (0..n)
        .map(|_| {
            let mut b = [0i32; 64];
            for v in &mut b {
                *v = (xorshift(&mut s) % 601) as i32 - 300;
            }
            b
        })
        .collect()
}

fn sparse_blocks(n: usize) -> Vec<[i32; 64]> {
    // DC plus a couple of low-frequency coefficients: the common shape in
    // real streams, where most rows/columns take the zero-AC shortcut.
    let mut s = 0xABCDEFu64;
    (0..n)
        .map(|_| {
            let mut b = [0i32; 64];
            b[0] = (xorshift(&mut s) % 2001) as i32 - 1000;
            b[1] = (xorshift(&mut s) % 101) as i32 - 50;
            b[8] = (xorshift(&mut s) % 101) as i32 - 50;
            b
        })
        .collect()
}

fn random_bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..n).map(|_| xorshift(&mut s) as u8).collect()
}

fn bench_idct_dispatch(c: &mut Criterion) {
    let dense = random_blocks(64);
    let sparse = sparse_blocks(64);
    let mut g = c.benchmark_group("idct_dispatch");
    for set in kernels::available() {
        g.bench_function(format!("{}_dense", set.name), |b| {
            b.iter(|| {
                for blk in &dense {
                    let mut x = *blk;
                    (set.idct)(black_box(&mut x));
                    black_box(x[0]);
                }
            })
        });
        g.bench_function(format!("{}_sparse", set.name), |b| {
            b.iter(|| {
                for blk in &sparse {
                    let mut x = *blk;
                    (set.idct)(black_box(&mut x));
                    black_box(x[0]);
                }
            })
        });
    }
    g.finish();
}

type McFn = fn(&[u8], usize, &mut [u8], usize);

fn bench_mc_halfpel(c: &mut Criterion) {
    let stride = 64usize;
    let src = random_bytes(stride * 20, 7);
    let mut dst = [0u8; 256];
    let mut g = c.benchmark_group("mc_halfpel");
    for set in kernels::available() {
        let variants: [(&str, McFn); 4] = [
            ("copy", set.mc_copy),
            ("avg_h", set.mc_avg_h),
            ("avg_v", set.mc_avg_v),
            ("avg_hv", set.mc_avg_hv),
        ];
        for (vname, f) in variants {
            g.bench_function(format!("{}_{vname}_16x16", set.name), |b| {
                b.iter(|| {
                    f(black_box(&src), stride, black_box(&mut dst), 16);
                    black_box(dst[0]);
                })
            });
        }
    }
    g.finish();
}

/// The members the reconstructor calls: the same kernels writing into rows
/// a whole HD line apart, as they do into a lent frame, where the packed
/// rows above write one 256-byte block. `benchmark/` can only time the
/// packed ones until it is unfrozen.
fn bench_mc_strided(c: &mut Criterion) {
    let (src_stride, dst_stride) = (64usize, 1920usize);
    let src = random_bytes(src_stride * 20, 7);
    let mut dst = random_bytes(15 * dst_stride + 16, 9);
    let mut g = c.benchmark_group("mc_strided");
    for set in kernels::available() {
        let variants: [(&str, kernels::McKernel); 5] = [
            ("copy", set.mc_copy_strided),
            ("avg_h", set.mc_avg_h_strided),
            ("avg_v", set.mc_avg_v_strided),
            ("avg_hv", set.mc_avg_hv_strided),
            ("average", set.average),
        ];
        for (vname, f) in variants {
            g.bench_function(format!("{}_{vname}_16x16_into_1920", set.name), |b| {
                b.iter(|| {
                    f(
                        black_box(&src),
                        src_stride,
                        black_box(&mut dst),
                        dst_stride,
                        16,
                    );
                    black_box(dst[0]);
                })
            });
        }
    }
    g.finish();
}

fn bench_recon_add(c: &mut Criterion) {
    let residuals = random_blocks(16);
    let mut mb = [128u8; 256];
    let mut g = c.benchmark_group("recon_add");
    for set in kernels::available() {
        g.bench_function(format!("{}_add_residual", set.name), |b| {
            b.iter(|| {
                for r in &residuals {
                    (set.add_residual)(black_box(&mut mb), 16, black_box(r));
                }
                black_box(mb[0]);
            })
        });
        g.bench_function(format!("{}_set_block", set.name), |b| {
            b.iter(|| {
                for r in &residuals {
                    (set.set_block)(black_box(&mut mb), 16, black_box(r));
                }
                black_box(mb[0]);
            })
        });
    }
    g.finish();
}

/// The decoder's mask-dispatched entry, one case per path it can take:
/// the two broadcast shortcuts, each with and without the mismatch-control
/// toggle at `[63]`, and the range-guaranteed full transform.
fn bench_idct_masked(c: &mut Criterion) {
    let shapes: [(&str, &[(usize, i32)]); 5] = [
        ("dc_only", &[(0, 345)]),
        ("dc_mismatch", &[(0, 344), (63, 1)]),
        ("row0", &[(0, 345), (1, -37), (2, 22), (5, 9)]),
        (
            "row0_mismatch",
            &[(0, 344), (1, -37), (2, 22), (5, 9), (63, -1)],
        ),
        ("full", &[(0, 345), (1, -37), (8, 31), (9, -18), (16, 13)]),
    ];
    let mut g = c.benchmark_group("idct_masked");
    for set in kernels::available() {
        kernels::set_active(set);
        for (name, coeffs) in shapes {
            let mut block = [0i32; 64];
            let mut out = [0i32; 64];
            let mask = coeffs.iter().fold(0u64, |m, &(i, _)| m | 1 << i);
            g.bench_function(format!("{}_{name}", set.name), |b| {
                b.iter(|| {
                    for &(i, v) in coeffs {
                        block[i] = v;
                    }
                    tiledec_mpeg2::dct::idct_masked(black_box(&mut block), mask, &mut out);
                    black_box(out[0]);
                })
            });
        }
    }
    g.finish();
}

bench_group!(
    benches,
    bench_idct_dispatch,
    bench_idct_masked,
    bench_mc_halfpel,
    bench_mc_strided,
    bench_recon_add
);
bench_main!(benches);
