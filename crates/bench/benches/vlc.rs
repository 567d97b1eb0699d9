//! Microbenchmark: VLC coefficient-block decode — the dominant cost of the
//! splitter's parse-only pass (`t_s` is mostly this).
//!
//! The density benches exercise realistic mixed streams; the short/long
//! variants isolate the two levels of the dct_coeff LUT: small levels stay
//! entirely in the 8-bit root table while large levels force the
//! second-level subtable (or the 24-bit escape form). Each runs against
//! both coefficient sinks: `discard` is the splitter's parse-only cost,
//! `dequant` adds inverse quantisation into the sparse workspace (and its
//! re-zeroing) — the difference is what reconstruction pays inside the
//! VLD. The dc_differential and mv_component benches cover the other
//! fused single-peek decoders.

use std::hint::black_box;
use tiledec_bench::microbench::Criterion;
use tiledec_bench::{bench_group, bench_main};
use tiledec_bitstream::{BitReader, BitWriter};
use tiledec_mpeg2::block::{parse_block, write_block, Discard, MbCoeffs};
use tiledec_mpeg2::quant::Dequant;
use tiledec_mpeg2::slice::SliceContext;
use tiledec_mpeg2::tables::dc_size::{decode_dc_differential, encode_dc_differential};
use tiledec_mpeg2::tables::motion::{decode_mv_component, encode_mv_component};

/// Encodes `count` non-intra blocks whose levels are drawn by `pick` from a
/// xorshift stream at the given per-coefficient density (percent).
fn encoded_blocks(count: usize, density: u64, pick: impl Fn(u64) -> i32) -> (Vec<u8>, usize) {
    let mut w = BitWriter::new();
    let mut s = 0x9E3779B9u64;
    for _ in 0..count {
        let mut levels = [0i32; 64];
        for v in levels.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s % 100 < density {
                *v = pick(s >> 9);
            }
        }
        if levels.iter().all(|&v| v == 0) {
            levels[0] = 1;
        }
        let mut dc = 0;
        write_block(&mut w, false, true, false, &mut dc, &levels);
    }
    (w.into_bytes(), count)
}

fn bench_parse(g: &mut tiledec_bench::microbench::Group, name: &str, bytes: &[u8], count: usize) {
    let enc = tiledec_mpeg2::Encoder::new(tiledec_mpeg2::EncoderConfig::for_size(16, 16)).unwrap();
    let seq = enc.sequence_info();
    let pic = tiledec_mpeg2::types::PictureInfo::new(
        tiledec_mpeg2::PictureKind::P,
        0,
        [[1, 1], [15, 15]],
    );
    let ctx = SliceContext { seq, pic: &pic };
    let q = Dequant::new(&ctx, false, 8);
    g.bench_function(format!("{name}_discard"), |b| {
        b.iter(|| {
            let mut r = BitReader::new(bytes);
            for _ in 0..count {
                parse_block(black_box(&mut r), &q, 0, false, &mut 0, &mut Discard).unwrap();
            }
            black_box(r.bit_position());
        })
    });
    g.bench_function(format!("{name}_dequant"), |b| {
        let mut ws = MbCoeffs::default();
        b.iter(|| {
            let mut r = BitReader::new(bytes);
            let mut sum = 0;
            for _ in 0..count {
                parse_block(black_box(&mut r), &q, 0, false, &mut 0, &mut ws).unwrap();
                ws.drain_block(0, |_, v| sum += v);
            }
            black_box(sum);
        })
    });
}

fn bench_vlc(c: &mut Criterion) {
    let mut g = c.benchmark_group("vlc");
    let mixed = |s: u64| {
        let v = (s % 61) as i32 - 30;
        if v == 0 {
            1
        } else {
            v
        }
    };
    for density in [10u64, 40] {
        let (bytes, count) = encoded_blocks(128, density, mixed);
        bench_parse(
            &mut g,
            &format!("parse_block_density{density}"),
            &bytes,
            count,
        );
    }
    // Levels of ±1/±2 after short runs decode entirely from the root table.
    let (bytes, count) = encoded_blocks(128, 40, |s| if s % 4 < 2 { 1 } else { -2 });
    bench_parse(&mut g, "parse_block_short_codes", &bytes, count);
    // Levels of magnitude 16–40 use the longest (15/16-bit) codes, which
    // resolve through the second-level subtable, or the escape form.
    let (bytes, count) = encoded_blocks(128, 40, |s| {
        let v = 16 + (s % 25) as i32;
        if s % 2 == 0 {
            v
        } else {
            -v
        }
    });
    bench_parse(&mut g, "parse_block_long_codes", &bytes, count);
    g.bench_function("mba_increment", |b| {
        let mut w = BitWriter::new();
        for i in 1..200u32 {
            tiledec_mpeg2::tables::mba::encode_increment(&mut w, i % 40 + 1);
        }
        let bytes = w.into_bytes();
        b.iter(|| {
            let mut r = BitReader::new(&bytes);
            for _ in 1..200 {
                black_box(tiledec_mpeg2::tables::mba::decode_increment(&mut r).unwrap());
            }
        })
    });
    g.bench_function("dc_differential", |b| {
        let mut w = BitWriter::new();
        for i in 0..256i32 {
            encode_dc_differential(&mut w, i % 2 == 0, (i * 37) % 511 - 255);
        }
        let bytes = w.into_bytes();
        b.iter(|| {
            let mut r = BitReader::new(&bytes);
            for i in 0..256i32 {
                black_box(decode_dc_differential(&mut r, i % 2 == 0).unwrap());
            }
        })
    });
    g.bench_function("mv_component", |b| {
        let mut w = BitWriter::new();
        for i in 0..256i32 {
            encode_mv_component(&mut w, 3, 0, (i * 11) % 127 - 63);
        }
        let bytes = w.into_bytes();
        b.iter(|| {
            let mut r = BitReader::new(&bytes);
            for _ in 0..256 {
                black_box(decode_mv_component(&mut r, 3, 0).unwrap());
            }
        })
    });
    g.finish();
}

bench_group!(benches, bench_vlc);
bench_main!(benches);
