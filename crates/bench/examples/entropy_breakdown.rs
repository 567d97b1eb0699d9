//! Where a picture's decode time goes, entropy decode outward: four nested
//! walks over the same slices ([`Plan::build`]), each adding one thing to
//! the one before, in ms per picture (median of `--reps` walks).
//!
//! 1. parse only — `parse_slice` into the `Discard` sink (the splitter's
//!    `t_s` without its bookkeeping);
//! 2. + dequant — the same walk into `MbCoeffs`, blocks drained;
//! 3. `record_slice` — what a VLD worker of the node-local engine does;
//! 4. full decode — `decode_all`, pixels included.
//!
//! The two streams are the `benchmark/` recipes for `dvd_seq` (`spr`,
//! 720×480, 12 frames, rate-controlled) and `hd_seq` (`nbc`, 1920×1088,
//! 6 frames, quantiser 24), `--seed` folded in the same way.
//!
//! `cargo run --release -p tiledec-bench --example entropy_breakdown [-- --seed N --reps N]`

use std::hint::black_box;
use std::time::Instant;

use tiledec_bitstream::BitReader;
use tiledec_core::vld_parallel::Plan;
use tiledec_mpeg2::block::{Discard, MbCoeffs};
use tiledec_mpeg2::slice::{parse_slice, MbMeta, MbMotion, SliceContext, SliceVisitor};
use tiledec_mpeg2::vld::{record_slice, SliceRecording};
use tiledec_mpeg2::{decode_all, Encoder, Result};
use tiledec_workload::StreamPreset;

/// Counts what it is shown and keeps nothing.
#[derive(Default)]
struct Count<C> {
    coded: u64,
    sum: i64,
    sink: std::marker::PhantomData<C>,
}

trait Drain {
    fn drain(&mut self, cbp: u8) -> i64;
}

impl Drain for Discard {
    fn drain(&mut self, _cbp: u8) -> i64 {
        0
    }
}

impl Drain for MbCoeffs {
    fn drain(&mut self, cbp: u8) -> i64 {
        let mut sum = 0i64;
        for i in 0..6 {
            if cbp & (1 << (5 - i)) != 0 {
                self.drain_block(i, |_, v| sum += v as i64);
            }
        }
        sum
    }
}

impl<C: tiledec_mpeg2::block::CoeffSink + Drain> SliceVisitor for Count<C> {
    type Coeffs = C;

    fn skipped(&mut self, _: &SliceContext<'_>, _: u32, _: u32, _: &MbMotion) -> Result<()> {
        Ok(())
    }

    fn macroblock(&mut self, _: &SliceContext<'_>, meta: &MbMeta, coeffs: &mut C) -> Result<()> {
        self.coded += 1;
        self.sum += coeffs.drain(meta.cbp);
        Ok(())
    }
}

fn walk<C: tiledec_mpeg2::block::CoeffSink + Drain + Default>(data: &[u8], plan: &Plan) -> u64 {
    let mut visitor = Count::<C>::default();
    let mut coeffs = C::default();
    for pic in &plan.pictures {
        let ctx = SliceContext {
            seq: &pic.seq,
            pic: &pic.info,
        };
        for s in &pic.slices {
            let mut r = BitReader::at(data, (s.offset + 4) * 8);
            parse_slice(&mut r, &ctx, s.row, &mut visitor, &mut coeffs).expect("clean stream");
        }
    }
    black_box(visitor.sum);
    visitor.coded
}

fn record(data: &[u8], plan: &Plan) -> u64 {
    let mut rec = SliceRecording::default();
    let mut scratch = MbCoeffs::default();
    let mut events = 0u64;
    for pic in &plan.pictures {
        let ctx = SliceContext {
            seq: &pic.seq,
            pic: &pic.info,
        };
        for s in &pic.slices {
            record_slice(data, s.offset, s.row, &ctx, &mut rec, &mut scratch);
            assert!(rec.outcome().is_none(), "clean stream");
            events += rec.event_count() as u64;
        }
    }
    events
}

/// Median ms per picture of `reps` runs of `f`.
fn time(reps: usize, pictures: usize, mut f: impl FnMut() -> u64) -> f64 {
    black_box(f());
    let mut ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e3 / pictures as f64
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[ms.len() / 2]
}

/// SplitMix64, as `benchmark/` folds `--seed` into a preset's texture seed.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn arg(name: &str) -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == name)?;
    Some(args.get(i + 1)?.parse().expect("a number"))
}

fn main() {
    let reps = arg("--reps").unwrap_or(15) as usize;
    let seed = arg("--seed").unwrap_or(1);
    let phase = mix(seed) % 64;
    println!("stream      pictures  coded_mbs  parse_only  +dequant  record_slice  full_decode   (ms/picture, median of {reps})");
    for (name, number, frames, qscale) in [
        ("dvd 720x480", 1, 12, None),
        ("hd 1920x1088", 10, 6, Some(24)),
    ] {
        let mut preset = *StreamPreset::by_number(number).expect("Table 4 stream");
        preset.seed ^= phase as u32;
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
        let n = plan.pictures.len();
        let coded = walk::<Discard>(&data, &plan);
        let parse = time(reps, n, || walk::<Discard>(&data, &plan));
        let dequant = time(reps, n, || walk::<MbCoeffs>(&data, &plan));
        let rec = time(reps, n, || record(&data, &plan));
        let full = time(reps, n, || decode_all(&data).expect("decode").len() as u64);
        println!(
            "{name:<12}{n:>8}{:>11}{parse:>12.3}{dequant:>10.3}{rec:>14.3}{full:>13.3}",
            coded / n as u64
        );
    }
}
