//! Property test: for *randomised* stream parameters and wall
//! configurations, the parallel system is bit-exact with the sequential
//! decoder. Cases are kept small (this exercises the full pipeline per
//! case) but cover the interaction space: GOP structure × motion × grid ×
//! splitter count × overlap. A second property pins every decode
//! back-end to the sequential decoder on the coding options the encoder
//! leaves off by default.

use tiledec::bitstream::{BitReader, BitWriter, StartCode, StartCodeIndex};
use tiledec::core::recon_parallel::PipelineDecoder;
use tiledec::core::{SystemConfig, ThreadedSystem};
use tiledec::mpeg2::encoder::{Encoder, EncoderConfig};
use tiledec::mpeg2::frame::Frame;
use tiledec::mpeg2::{decode_all, decode_all_resilient, headers};

fn clip(w: usize, h: usize, n: usize, seed: u32) -> Vec<Frame> {
    let s = seed as usize;
    (0..n)
        .map(|t| {
            let mut f = Frame::black(w, h);
            for y in 0..h {
                for x in 0..w {
                    let v = ((x + 2 * t) * (3 + s % 5) + y * 7 + s) % 200;
                    f.y.set(x, y, v as u8 + 20);
                }
            }
            let sq = 16.min(w / 2).min(h / 2);
            let ox = (t * (2 + s % 3)) % (w - sq);
            let oy = (t + s) % (h - sq);
            for y in oy..oy + sq {
                for x in ox..ox + sq {
                    f.y.set(x, y, 220);
                }
            }
            for y in 0..h / 2 {
                for x in 0..w / 2 {
                    f.cb.set(x, y, ((x * 2 + y + t + s) % 100) as u8 + 70);
                    f.cr.set(x, y, ((x + y * 2 + t) % 100) as u8 + 70);
                }
            }
            f
        })
        .collect()
}

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[test]
fn parallel_equals_sequential() {
    // Cases are kept few (each exercises the full pipeline) but the
    // seeded generator covers the interaction space deterministically.
    for case in 0..10u64 {
        let mut rng = Rng::new(case);
        let grid_idx = rng.below(4) as usize;
        let k = rng.below(4) as usize;
        let use_overlap = rng.next() & 1 == 1;
        let gop = 3 + rng.below(5) as u32;
        let b_frames = rng.below(3) as u32;
        let qscale = 3 + rng.below(13) as u8;
        let seed = rng.below(1000) as u32;
        let frames = 3 + rng.below(4) as usize;

        // Grids that divide 192x96 with and without a 16 px overlap.
        let grids = [(1u32, 1u32), (2, 1), (2, 2), (3, 1)];
        let (m, n) = grids[grid_idx];
        let overlap = if use_overlap && m > 1 { 16 } else { 0 };
        // 192 + (m-1)*16 must divide by m with an even pitch: (2,1) -> 208
        // fails parity; regenerate dims per grid instead.
        let (w, h) = match (m, n, overlap) {
            (2, _, 16) => (176, 96), // (176+16)/2 = 96, pitch 80 even
            (3, _, 16) => (160, 96), // (160+32)/3 = 64, pitch 48 even
            _ => (192, 96),
        };

        let mut cfg = EncoderConfig::for_size(w, h);
        cfg.gop_size = gop;
        cfg.b_frames = b_frames;
        cfg.qscale = qscale;
        let enc = Encoder::new(cfg).unwrap();
        let stream = enc
            .encode(&clip(w as usize, h as usize, frames, seed))
            .unwrap();
        let reference = decode_all(&stream).unwrap();

        let sys = ThreadedSystem::new(SystemConfig::new(k, (m, n)).with_overlap(overlap));
        let out = sys.play(&stream).unwrap();
        assert_eq!(out.frames.len(), reference.len(), "case {case}");
        for (i, (a, b)) in out.frames.iter().zip(&reference).enumerate() {
            assert!(
                a == b,
                "case {case}: frame {i} differs (k={k}, grid=({m},{n}), ov={overlap})"
            );
        }
    }
}

/// Rewrites every sequence header (plus its sequence extension) of
/// `stream` to download custom quantiser matrices. The encoder only ever
/// emits the defaults, so the pictures drift from what it intended — what
/// matters here is that every decoder dequantises the *same* levels with
/// the *same* downloaded matrices.
fn with_custom_matrices(stream: &[u8]) -> Vec<u8> {
    let index = StartCodeIndex::build(stream);
    let codes = index.codes();
    let mut out = Vec::with_capacity(stream.len() + 256);
    let mut copied = 0;
    for (k, code) in codes.iter().enumerate() {
        if code.code != StartCode::SEQUENCE_HEADER {
            continue;
        }
        assert_eq!(
            codes[k + 1].code,
            StartCode::EXTENSION,
            "sequence extension"
        );
        let mut seq =
            headers::parse_sequence_header(&mut BitReader::at(stream, (code.offset + 4) * 8))
                .unwrap();
        for i in 0..64 {
            seq.intra_quant_matrix[i] = (8 + (i * 5) % 23 + i / 2) as u8;
            seq.non_intra_quant_matrix[i] = (12 + (i * 11) % 17 + i / 4) as u8;
        }
        let mut w = BitWriter::new();
        headers::write_sequence_header(&mut w, &seq);
        out.extend_from_slice(&stream[copied..code.offset]);
        out.extend_from_slice(&w.into_bytes());
        copied = codes[k + 2].offset;
    }
    assert!(copied > 0, "stream has no sequence header");
    out.extend_from_slice(&stream[copied..]);
    out
}

/// Sequential, slice-parallel VLD, the VLD ‖ band-recon pipeline, a
/// threaded 1-1-(2,2) wall and the resilient driver all walk one
/// coefficient path (VLC → dequantising sink → sparse workspace or sparse
/// recording → masked IDCT); on a stream using alternate scan, the
/// non-linear quantiser scale, 10-bit intra DC and downloaded matrices
/// they must produce the same frames.
#[test]
fn every_backend_agrees_on_off_default_coding_options() {
    let (w, h) = (192, 96);
    let mut cfg = EncoderConfig::for_size(w, h);
    cfg.gop_size = 6;
    cfg.b_frames = 2;
    cfg.qscale = 5;
    cfg.alternate_scan = true;
    cfg.q_scale_type = true;
    cfg.intra_dc_precision = 2;
    let encoded = Encoder::new(cfg)
        .unwrap()
        .encode(&clip(w as usize, h as usize, 8, 77))
        .unwrap();
    let stream = with_custom_matrices(&encoded);

    let reference = decode_all(&stream).unwrap();
    assert_eq!(reference.len(), 8);
    assert!(
        decode_all(&encoded).unwrap() != reference,
        "downloaded matrices had no effect"
    );

    for (vld, recon) in [(2, 1), (2, 2)] {
        let pipe = PipelineDecoder::new(vld, recon)
            .decode_all(&stream)
            .unwrap();
        assert!(pipe == reference, "PipelineDecoder({vld},{recon}) differs");
    }
    let wall = ThreadedSystem::new(SystemConfig::new(1, (2, 2)))
        .play(&stream)
        .unwrap();
    assert!(wall.frames == reference, "1-1-(2,2) threaded wall differs");
    let (resilient, damage) = decode_all_resilient(&stream).unwrap();
    assert!(resilient == reference, "resilient decode differs");
    assert!(damage.clean, "clean stream reported damage");
}
