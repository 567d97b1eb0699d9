//! Microbenchmark: entropy decode a block and a macroblock at a time — the
//! whole of the splitter's `t_s` and the share of `t_d` it is paid again.
//!
//! The inputs are real: a few pictures of the `spr` (720×480, 1.2 bpp) and
//! `nbc` (1920×1088, quantiser 24) presets. Every coded block of their
//! slices is recorded as raw levels and written back out, block after
//! block, so `parse_block` can be timed alone on the streams' own
//! coefficient statistics — into [`Discard`] (the parse-only cost) and
//! into [`MbCoeffs`] (plus dequantisation and the workspace's re-zeroing).
//! `parse_one_macroblock` is timed in place, over the slices as coded:
//! address increment, type, quantiser, motion vectors, pattern, blocks.

use std::hint::black_box;
use tiledec_bench::microbench::Criterion;
use tiledec_bench::{bench_group, bench_main};
use tiledec_bitstream::{BitReader, BitWriter};
use tiledec_core::vld_parallel::Plan;
use tiledec_mpeg2::block::{parse_block, write_block, CoeffSink, Discard, MbCoeffs};
use tiledec_mpeg2::quant::Dequant;
use tiledec_mpeg2::slice::{
    parse_one_macroblock, parse_slice, slice_done, AddrMode, MbMeta, MbMotion, SliceContext,
    SliceVisitor, WalkState,
};
use tiledec_mpeg2::{Encoder, Result};
use tiledec_workload::StreamPreset;

/// Raw quantised levels of the macroblock being parsed, per block.
struct Levels {
    blocks: [[i32; 64]; 6],
    cur: usize,
}

impl CoeffSink for Levels {
    fn begin_block(&mut self, i: usize) {
        self.blocks[i] = [0; 64];
        self.cur = i;
    }
    fn coeff(&mut self, _q: &Dequant<'_>, idx: usize, level: i32) {
        self.blocks[self.cur][idx] = level;
    }
}

/// Every coded block of the walked slices, written back out end to end.
#[derive(Default)]
struct Blocks {
    bits: BitWriter,
    /// Per block: intra, block index in its macroblock.
    shape: Vec<(bool, usize)>,
    tokens: u64,
    dc_pred: i32,
}

impl SliceVisitor for Blocks {
    type Coeffs = Levels;

    fn skipped(&mut self, _: &SliceContext<'_>, _: u32, _: u32, _: &MbMotion) -> Result<()> {
        Ok(())
    }

    fn macroblock(
        &mut self,
        _: &SliceContext<'_>,
        meta: &MbMeta,
        levels: &mut Levels,
    ) -> Result<()> {
        for i in 0..6 {
            if meta.cbp & (1 << (5 - i)) != 0 {
                let block = &levels.blocks[i];
                let intra = meta.flags.intra;
                write_block(
                    &mut self.bits,
                    intra,
                    i < 4,
                    false,
                    &mut self.dc_pred,
                    block,
                );
                self.shape.push((intra, i));
                // One token per level and one for the end of block.
                self.tokens += 1 + block.iter().filter(|&&v| v != 0).count() as u64;
            }
        }
        Ok(())
    }
}

fn bench_stream(c: &mut Criterion, name: &str, number: u32, frames: usize, qscale: Option<u8>) {
    let preset = *StreamPreset::by_number(number).expect("Table 4 stream");
    let mut cfg = preset.encoder_config();
    if let Some(q) = qscale {
        cfg.qscale = q;
        cfg.target_bits_per_picture = None;
    }
    let data = Encoder::new(cfg)
        .and_then(|enc| enc.encode(&preset.generate(frames)))
        .expect("encode");
    let plan = Plan::build(&data);
    assert!(plan.complete);

    let mut recorded = Blocks::default();
    let mut levels = Levels {
        blocks: [[0; 64]; 6],
        cur: 0,
    };
    for pic in &plan.pictures {
        let ctx = SliceContext {
            seq: &pic.seq,
            pic: &pic.info,
        };
        for s in &pic.slices {
            let mut r = BitReader::at(&data, (s.offset + 4) * 8);
            parse_slice(&mut r, &ctx, s.row, &mut recorded, &mut levels).expect("clean stream");
        }
    }
    let Blocks {
        bits,
        shape,
        tokens,
        ..
    } = recorded;
    let bytes = bits.into_bytes();
    let first = &plan.pictures[0];
    let ctx = SliceContext {
        seq: &first.seq,
        pic: &first.info,
    };
    let dequant = [Dequant::new(&ctx, false, 8), Dequant::new(&ctx, true, 8)];

    eprintln!("{name}: {} coded blocks, {tokens} tokens", shape.len());
    let mut g = c.benchmark_group(format!("vlc_{name}"));
    g.throughput(tokens, "tokens");
    g.bench_function("parse_block_discard", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&bytes);
            let mut dc = 0;
            for &(intra, i) in &shape {
                parse_block(
                    &mut r,
                    &dequant[intra as usize],
                    i,
                    false,
                    &mut dc,
                    &mut Discard,
                )
                .unwrap();
            }
            black_box(r.bit_position())
        })
    });
    g.bench_function("parse_block_dequant", |b| {
        let mut ws = MbCoeffs::default();
        b.iter(|| {
            let mut r = BitReader::new(&bytes);
            let (mut dc, mut sum) = (0, 0);
            for &(intra, i) in &shape {
                parse_block(&mut r, &dequant[intra as usize], i, false, &mut dc, &mut ws).unwrap();
                ws.drain_block(i, |_, v| sum += v);
            }
            black_box(sum)
        })
    });
    let walk = || {
        let mut coded = 0u64;
        for pic in &plan.pictures {
            let ctx = SliceContext {
                seq: &pic.seq,
                pic: &pic.info,
            };
            for s in &pic.slices {
                // The slice header's five quantiser bits and extra bit.
                let mut r = BitReader::at(&data, (s.offset + 4) * 8);
                let q = r.read_bits(5).unwrap() as u8;
                r.skip(1).unwrap();
                let mut st = WalkState::slice_start(&ctx, s.row, q);
                let mut mode = AddrMode::FirstInSlice;
                loop {
                    black_box(parse_one_macroblock(
                        &mut r,
                        &ctx,
                        &mut st,
                        mode,
                        &mut Discard,
                    ))
                    .unwrap();
                    coded += 1;
                    mode = AddrMode::Continuation;
                    if slice_done(&r) {
                        break;
                    }
                }
            }
        }
        coded
    };
    g.throughput(walk(), "macroblocks");
    g.bench_function("parse_one_macroblock", |b| b.iter(walk));
    g.finish();
}

fn bench_vlc(c: &mut Criterion) {
    bench_stream(c, "spr", 1, 4, None);
    bench_stream(c, "nbc", 10, 3, Some(24));
}

bench_group!(benches, bench_vlc);
bench_main!(benches);
