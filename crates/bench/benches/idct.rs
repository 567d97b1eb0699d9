//! Microbenchmark: the fixed-point IDCT against the double-precision
//! reference (the hot inner loop of `t_d`).

use std::hint::black_box;
use tiledec_bench::microbench::Criterion;
use tiledec_bench::{bench_group, bench_main};

fn random_blocks(n: usize) -> Vec<[i32; 64]> {
    let mut s = 0x12345678u64;
    (0..n)
        .map(|_| {
            let mut b = [0i32; 64];
            for v in &mut b {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *v = (s % 601) as i32 - 300;
            }
            b
        })
        .collect()
}

fn bench_idct(c: &mut Criterion) {
    let blocks = random_blocks(64);
    let mut g = c.benchmark_group("idct");
    g.bench_function("fixed_point", |b| {
        b.iter(|| {
            for blk in &blocks {
                let mut x = *blk;
                (tiledec_mpeg2::kernels::active().idct)(black_box(&mut x));
                black_box(x[0]);
            }
        })
    });
    g.bench_function("reference_f64", |b| {
        b.iter(|| {
            for blk in &blocks {
                black_box(tiledec_mpeg2::dct::idct_reference(black_box(blk))[0]);
            }
        })
    });
    g.bench_function("fdct", |b| {
        b.iter(|| {
            for blk in &blocks {
                black_box(tiledec_mpeg2::dct::fdct(black_box(blk))[0]);
            }
        })
    });
    g.finish();
}

bench_group!(benches, bench_idct);
bench_main!(benches);
