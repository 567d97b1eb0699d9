//! Benchmark inputs: the three streams, made from `--seed` by the
//! repository's own scene generators and encoder, with fingerprints and
//! the guards that keep one workload from silently turning into another.

use std::time::Instant;

use tiledec_bitstream::fault::{Fault, FaultPlan};
use tiledec_mpeg2::encoder::Encoder;
use tiledec_mpeg2::{Frame, StreamDamage};
use tiledec_workload::StreamPreset;

/// Which stream a workload decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Table 4 stream 1 `spr`, 720×480, rate-controlled DVD bit rate.
    Dvd,
    /// Table 4 stream 10 `nbc`, 1920×1088, constant quantiser.
    Hd,
    /// Table 4 stream 16 `orion4`, 3840×2800, localised detail.
    Uhd,
}

/// How to make one stream.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Short name used in reports.
    pub name: &'static str,
    /// Scene and resolution.
    pub preset: StreamPreset,
    /// Frames rendered and encoded.
    pub frames: usize,
    /// Constant quantiser replacing the preset's rate control, if any.
    pub qscale: Option<u8>,
    /// GOP length replacing the preset's, if any.
    pub gop_size: Option<u32>,
    /// Bits per pixel the encoded stream must land in.
    pub bpp_band: (f64, f64),
}

impl StreamKind {
    /// The stream's recipe. `tiny` swaps every stream for the 128×96 test
    /// preset so the harness tests run in seconds; the benchmark binary
    /// never sets it.
    ///
    /// Frame counts are what the run-time budget of `BENCHMARK.json`
    /// leaves room for (the encoder costs 0.15 / 0.75 / 3.5 s per frame at
    /// the three sizes); resolutions are the paper's and are not cut.
    pub fn spec(self, tiny: bool) -> StreamSpec {
        if tiny {
            return StreamSpec {
                name: self.name(),
                preset: StreamPreset::tiny_test(),
                frames: 8,
                qscale: None,
                gop_size: None,
                bpp_band: (0.02, 4.0),
            };
        }
        let preset = |n| *StreamPreset::by_number(n).expect("Table 4 has streams 1-16");
        match self {
            StreamKind::Dvd => StreamSpec {
                name: self.name(),
                preset: preset(1),
                frames: 12,
                qscale: None,
                gop_size: None,
                bpp_band: (1.0, 1.5),
            },
            // The rate-controlled default overshoots Table 4's 0.30 bpp
            // badly on a stream this short; a constant quantiser lands
            // near it. One I picture in six keeps the rate above the
            // long-run figure, hence the band.
            StreamKind::Hd => StreamSpec {
                name: self.name(),
                preset: preset(10),
                frames: 6,
                qscale: Some(24),
                gop_size: None,
                bpp_band: (0.30, 0.60),
            },
            StreamKind::Uhd => StreamSpec {
                name: self.name(),
                preset: preset(16),
                frames: 3,
                qscale: Some(24),
                gop_size: Some(6),
                bpp_band: (0.25, 0.50),
            },
        }
    }

    /// Short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            StreamKind::Dvd => "dvd",
            StreamKind::Hd => "hd",
            StreamKind::Uhd => "uhd",
        }
    }
}

/// An encoded stream with its fingerprint and what it cost to make.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Recipe it was made from.
    pub spec: StreamSpec,
    /// The MPEG-2 elementary stream the decoders receive.
    pub bytes: Vec<u8>,
    /// Achieved bits per pixel.
    pub bpp: f64,
    /// Seconds spent rendering the scene.
    pub render_s: f64,
    /// Seconds spent encoding.
    pub encode_s: f64,
}

impl Stream {
    /// Luma width.
    pub fn width(&self) -> usize {
        self.spec.preset.width as usize
    }

    /// Luma height.
    pub fn height(&self) -> usize {
        self.spec.preset.height as usize
    }

    /// Pixels per picture, in thousands.
    pub fn kpixels(&self) -> f64 {
        (self.width() * self.height()) as f64 / 1e3
    }

    /// Macroblocks per picture.
    pub fn mbs_per_picture(&self) -> usize {
        (self.width() / 16) * (self.height() / 16)
    }
}

/// SplitMix64: decorrelates neighbouring seeds.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, 64 bit.
pub fn fnv64(data: &[u8]) -> u64 {
    data.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Renders and encodes `spec` for `seed`, and checks the bit-rate guard.
///
/// The seed is folded into the low six bits of the preset's texture seed:
/// that changes texture phase and object positions in every scene, while
/// the `orion4` detail window (whose position is `seed mod width`) stays
/// inside one tile of a 2×2 wall — the straggler the stream was chosen
/// for — whatever seed the driver picks.
pub fn build_stream(spec: StreamSpec, seed: u64) -> Result<Stream, String> {
    let mut preset = spec.preset;
    preset.seed ^= (mix(seed) % 64) as u32;
    let t0 = Instant::now();
    let frames = preset.generate(spec.frames);
    let render_s = t0.elapsed().as_secs_f64();

    let mut cfg = preset.encoder_config();
    if let Some(q) = spec.qscale {
        cfg.qscale = q;
        cfg.target_bits_per_picture = None;
    }
    if let Some(g) = spec.gop_size {
        cfg.gop_size = g;
    }
    let t0 = Instant::now();
    let bytes = Encoder::new(cfg)
        .and_then(|enc| enc.encode(&frames))
        .map_err(|e| format!("{}: encode failed: {e}", spec.name))?;
    let encode_s = t0.elapsed().as_secs_f64();

    let pixels = (preset.width as usize * preset.height as usize * spec.frames) as f64;
    let bpp = bytes.len() as f64 * 8.0 / pixels;
    let (lo, hi) = spec.bpp_band;
    if !(lo..=hi).contains(&bpp) {
        return Err(format!(
            "{}: stream_bpp {bpp:.3} left its declared band {lo}-{hi}; the encoder or scene \
             changed and this is no longer the workload the benchmark describes",
            spec.name
        ));
    }
    Ok(Stream {
        spec,
        bytes,
        bpp,
        render_s,
        encode_s,
    })
}

/// Bit flips and erasure bursts of the damaged workload's fault plan.
const FLIPS: usize = 8;
const BURSTS: usize = 4;

/// A stream after the seeded fault plan of `dvd_damaged`, with what the
/// sequential resilient decoder makes of it (the reference every damaged
/// pass is checked against).
pub struct Damaged {
    /// The damaged bytes the decoders receive.
    pub bytes: Vec<u8>,
    /// Seed of the fault plan that was applied.
    pub plan_seed: u64,
    /// `decode_all_resilient` output: display-order frames.
    pub frames: Vec<Frame>,
    /// `decode_all_resilient` output: the damage ledger.
    pub ledger: StreamDamage,
}

/// Damages `stream` with a fault plan sampled from `seed`.
///
/// On top of the sampled flips and bursts the plan erases 16 bytes about
/// 1.5 % into the stream, inside the first picture. The resilient decoder
/// tries a strict decode first and abandons it at the first error; without
/// the early burst the length of that abandoned attempt — anywhere from 2 %
/// to 25 % of a decode, by where the seed's first fault fell — was most of
/// the seed-to-seed spread and none of what the workload is for.
///
/// A plan can, rarely, hit nothing the decoder notices or destroy the
/// sequence header beyond repair; either would make the pass measure
/// something else (or fail), so the plan seed is stepped — deterministic in
/// `seed` — until the resilient decoder both succeeds and conceals at
/// least one macroblock.
pub fn damage(stream: &[u8], seed: u64) -> Result<Damaged, String> {
    for attempt in 0..16 {
        let plan_seed = mix(seed.wrapping_add(attempt));
        let mut plan = FaultPlan::sample(plan_seed, stream.len(), FLIPS, BURSTS, false);
        plan.faults.push(Fault::Erase {
            offset: stream.len() / 64 + (plan_seed % 256) as usize,
            len: 16,
        });
        let bytes = plan.apply(stream);
        if let Ok((frames, ledger)) = tiledec_mpeg2::decode_all_resilient(&bytes) {
            if concealed_mbs(&ledger) > 0 {
                return Ok(Damaged {
                    bytes,
                    plan_seed,
                    frames,
                    ledger,
                });
            }
        }
    }
    Err("no fault plan in 16 tries gave a recoverable stream with concealed macroblocks".into())
}

/// Macroblocks concealed according to a damage ledger.
pub fn concealed_mbs(ledger: &StreamDamage) -> u64 {
    ledger.reports.iter().map(|r| r.mbs_concealed as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let spec = StreamKind::Dvd.spec(true);
        let a = build_stream(spec, 7).unwrap();
        let b = build_stream(spec, 7).unwrap();
        let c = build_stream(spec, 8).unwrap();
        assert_eq!(fnv64(&a.bytes), fnv64(&b.bytes));
        assert_ne!(fnv64(&a.bytes), fnv64(&c.bytes));
    }

    #[test]
    fn bpp_guard_refuses_a_stream_outside_its_band() {
        let mut spec = StreamKind::Hd.spec(true);
        spec.bpp_band = (5.0, 6.0);
        let err = build_stream(spec, 1).unwrap_err();
        assert!(err.contains("stream_bpp"), "{err}");
    }

    #[test]
    fn damage_is_deterministic_and_conceals_something() {
        let s = build_stream(StreamKind::Dvd.spec(true), 3).unwrap();
        let a = damage(&s.bytes, 3).unwrap();
        let b = damage(&s.bytes, 3).unwrap();
        assert_eq!(
            (fnv64(&a.bytes), a.plan_seed),
            (fnv64(&b.bytes), b.plan_seed)
        );
        assert!(a.ledger == b.ledger && a.frames == b.frames);
        assert!(concealed_mbs(&a.ledger) > 0);
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
