//! Property-based tests on codec invariants, driven by a seeded xorshift
//! generator so every case is deterministic and reproducible.

mod common;

use std::collections::BTreeSet;

use common::{dequant_intra, dequant_non_intra, Levels};
use tiledec_bitstream::{BitReader, BitWriter};
use tiledec_mpeg2::block::{parse_block, write_block, MbCoeffs};
use tiledec_mpeg2::quant::{quant_intra, quant_non_intra, Dequant};
use tiledec_mpeg2::slice::SliceContext;
use tiledec_mpeg2::tables::motion::{decode_mv_component, encode_mv_component, max_component};
use tiledec_mpeg2::tables::quant::{
    quantiser_scale, DEFAULT_INTRA_MATRIX, DEFAULT_NON_INTRA_MATRIX,
};
use tiledec_mpeg2::types::{PictureInfo, PictureKind, SequenceInfo};

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

    /// Uniform in the half-open range `lo..hi`.
    fn range(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((hi - lo) as u64) as i32
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

const CASES: u64 = 256;

fn sequence(intra: [u8; 64], non_intra: [u8; 64]) -> SequenceInfo {
    SequenceInfo {
        width: 16,
        height: 16,
        frame_rate_code: 5,
        bit_rate_400: 0,
        intra_quant_matrix: intra,
        non_intra_quant_matrix: non_intra,
    }
}

fn default_sequence() -> SequenceInfo {
    sequence(DEFAULT_INTRA_MATRIX, DEFAULT_NON_INTRA_MATRIX)
}

fn picture() -> PictureInfo {
    PictureInfo::new(PictureKind::P, 0, [[1, 1], [15, 15]])
}

#[test]
fn mv_components_round_trip() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let f_code = rng.range(1, 8) as u8;
        let max = max_component(f_code);
        let pred = rng.range(-2048, 2048).clamp(-max, max);
        let value = rng.range(-2048, 2048).clamp(-max, max);
        let mut w = BitWriter::new();
        encode_mv_component(&mut w, f_code, pred, value);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(
            decode_mv_component(&mut r, f_code, pred).unwrap(),
            value,
            "case {case}: f_code={f_code} pred={pred}"
        );
    }
}

#[test]
fn non_intra_quant_dequant_is_contractive() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        // Dequantised values must stay within one quantisation step of the
        // original (the defining property of a mid-tread quantiser).
        let mut c = [0i32; 64];
        for v in &mut c {
            *v = rng.range(-1800, 1800);
        }
        let scale = 2 * rng.range(1, 32) as u16;
        let q = quant_non_intra(&c, &DEFAULT_NON_INTRA_MATRIX, scale);
        let dq = dequant_non_intra(&q, &DEFAULT_NON_INTRA_MATRIX, scale);
        for i in 0..63 {
            // step = 2*W*scale/32
            let step = 2 * DEFAULT_NON_INTRA_MATRIX[i] as i32 * scale as i32 / 32;
            assert!(
                (dq[i] - c[i]).abs() <= step + 1,
                "case {case}: i={} c={} dq={} step={}",
                i,
                c[i],
                dq[i],
                step
            );
        }
    }
}

#[test]
fn intra_quant_dequant_is_contractive() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let mut c = [0i32; 64];
        for v in &mut c {
            *v = rng.range(-1800, 1800);
        }
        c[0] = rng.range(0, 2040);
        let scale = 2 * rng.range(1, 32) as u16;
        let q = quant_intra(&c, &DEFAULT_INTRA_MATRIX, scale, 0);
        let dq = dequant_intra(&q, &DEFAULT_INTRA_MATRIX, scale, 0);
        assert!(
            (dq[0] - c[0]).abs() <= 4,
            "case {case}: DC {} -> {}",
            c[0],
            dq[0]
        );
        for i in 1..63 {
            let step = DEFAULT_INTRA_MATRIX[i] as i32 * scale as i32 / 16;
            let bound = step + 2;
            // Saturation clips very large products; skip those.
            if c[i].abs() < 1900
                && (c[i].unsigned_abs() as u64 * 16)
                    < 2047 * DEFAULT_INTRA_MATRIX[i] as u64 * scale as u64 / 16
            {
                assert!(
                    (dq[i] - c[i]).abs() <= bound,
                    "case {case}: i={} c={} dq={} step={}",
                    i,
                    c[i],
                    dq[i],
                    step
                );
            }
        }
    }
}

#[test]
fn coefficient_blocks_round_trip() {
    let (seq, pic) = (default_sequence(), picture());
    let ctx = SliceContext {
        seq: &seq,
        pic: &pic,
    };
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let count = 1 + rng.below(19) as usize;
        let mut positions = BTreeSet::new();
        while positions.len() < count {
            positions.insert(rng.below(64) as usize);
        }
        let alt = rng.flag();
        let luma = rng.flag();
        let mut block = [0i32; 64];
        for pos in &positions {
            let lvl = rng.range(-2000, 2000);
            block[*pos] = if lvl == 0 { 1 } else { lvl };
        }
        let mut w = BitWriter::new();
        let mut dc = 0;
        assert!(block.iter().any(|&v| v != 0));
        write_block(&mut w, false, luma, alt, &mut dc, &block);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut out = Levels([0; 64]);
        let q = Dequant::new(&ctx, false, 8);
        parse_block(&mut r, &q, if luma { 0 } else { 4 }, alt, &mut 0, &mut out).unwrap();
        assert_eq!(out.0, block, "case {case}");
        // The parser consumed exactly the written bits (mod padding).
        assert!(bytes.len() * 8 - r.bit_position() < 8, "case {case}");
    }
}

#[test]
fn intra_dc_chain_round_trips() {
    let (seq, pic) = (default_sequence(), picture());
    let ctx = SliceContext {
        seq: &seq,
        pic: &pic,
    };
    let q = Dequant::new(&ctx, true, 8);
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let luma = rng.flag();
        let dcs: Vec<i32> = (0..1 + rng.below(11)).map(|_| rng.range(0, 2040)).collect();
        // A chain of intra blocks sharing a DC predictor must reproduce the
        // same absolute DC values after decode.
        let mut w = BitWriter::new();
        let mut enc_pred = 1024;
        for &dc in &dcs {
            let mut block = [0i32; 64];
            block[0] = dc;
            write_block(&mut w, true, luma, false, &mut enc_pred, &block);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut dec_pred = 1024;
        for &dc in &dcs {
            let mut out = Levels([0; 64]);
            let i = if luma { 0 } else { 4 };
            parse_block(&mut r, &q, i, false, &mut dec_pred, &mut out).unwrap();
            assert_eq!(out.0[0], dc, "case {case}");
        }
    }
}

/// A matrix with every legal extreme in it: 1 (products that dequantise
/// to zero), 255 (saturation at small levels) and everything between.
fn custom_matrix(seed: u64) -> [u8; 64] {
    let mut rng = Rng::new(seed);
    let mut m = [0u8; 64];
    for (i, v) in m.iter_mut().enumerate() {
        *v = match i % 7 {
            0 => 1,
            1 => 255,
            _ => rng.range(1, 256) as u8,
        };
    }
    m[0] = 8; // intra DC does not use the matrix, but the header insists
    m
}

/// The fused path — VLC → `MbCoeffs` sink dequantising on the spot,
/// saturating, summing and toggling `[63]` at EOB — equals the dense
/// reference dequantiser on the same levels, over the whole parameter
/// space a picture can select: both `q_scale_type`s, every
/// `quantiser_scale_code`, default and custom matrices, all four
/// `intra_dc_precision`s, both scans, intra and non-intra, sparse to dense
/// blocks, with levels out to the ±2047 the escape code can carry.
#[test]
fn fused_dequantiser_matches_dense_reference() {
    let sequences = [
        default_sequence(),
        sequence(custom_matrix(1), custom_matrix(2)),
    ];
    // Miri interprets ~1000x slower: sample the scale codes there.
    let codes: Vec<u8> = if cfg!(miri) {
        vec![1, 9, 31]
    } else {
        (1..=31).collect()
    };
    let mut ws = MbCoeffs::default();
    let mut blocks = 0u32;
    let mut saturated = 0u32;
    let mut toggled = 0u32;
    for (si, seq) in sequences.iter().enumerate() {
        for q_scale_type in [false, true] {
            for &code in &codes {
                for precision in 0..4u8 {
                    for alt in [false, true] {
                        let mut pic = picture();
                        pic.q_scale_type = q_scale_type;
                        pic.intra_dc_precision = precision;
                        pic.alternate_scan = alt;
                        let ctx = SliceContext { seq, pic: &pic };
                        let scale = quantiser_scale(q_scale_type, code);
                        let seed = (si as u64) << 40
                            | (q_scale_type as u64) << 32
                            | (code as u64) << 16
                            | (precision as u64) << 8
                            | alt as u64;
                        let mut rng = Rng::new(seed);
                        for intra in [true, false] {
                            let i = rng.below(6) as usize;
                            let mut levels = [0i32; 64];
                            let density = [2, 8, 30, 90][rng.below(4) as usize];
                            for v in levels.iter_mut() {
                                if rng.below(100) < density {
                                    *v = match rng.below(8) {
                                        0 => 2047,
                                        1 => -2047,
                                        2 | 3 => rng.range(-2047, 2048),
                                        _ => rng.range(-6, 7),
                                    };
                                }
                            }
                            if intra {
                                // Any level the DC differential can reach,
                                // far enough out that the multiplier saturates.
                                levels[0] = rng.range(0, (1 << (8 + precision)).min(1900)) + 200;
                            } else if levels.iter().all(|&v| v == 0) {
                                levels[rng.below(64) as usize] = 1;
                            }

                            let mut w = BitWriter::new();
                            let mut enc_pred = 128;
                            write_block(&mut w, intra, i < 4, alt, &mut enc_pred, &levels);
                            let bytes = w.into_bytes();
                            let mut r = BitReader::new(&bytes);
                            let q = Dequant::new(&ctx, intra, code);
                            let mut dec_pred = 128;
                            parse_block(&mut r, &q, i, alt, &mut dec_pred, &mut ws).unwrap();

                            let expect = if intra {
                                dequant_intra(&levels, &seq.intra_quant_matrix, scale, precision)
                            } else {
                                dequant_non_intra(&levels, &seq.non_intra_quant_matrix, scale)
                            };
                            let mut got = [0i32; 64];
                            let mask = ws.drain_block(i, |idx, v| got[idx] = v);
                            let what = format!(
                                "matrices={si} q_scale_type={q_scale_type} code={code} \
                                 precision={precision} alt={alt} intra={intra}"
                            );
                            assert_eq!(got, expect, "{what}");
                            for (idx, &v) in expect.iter().enumerate() {
                                assert!(
                                    v == 0 || mask >> idx & 1 == 1,
                                    "{what}: mask misses {idx}"
                                );
                            }
                            blocks += 1;
                            saturated += expect.iter().any(|&v| v == 2047 || v == -2048) as u32;
                            toggled += (levels[63] == 0 && expect[63] == 1) as u32;
                        }
                    }
                }
            }
        }
    }
    // Vacuity guards: the sweep must actually reach both special cases.
    assert_eq!(blocks, 2 * 2 * codes.len() as u32 * 4 * 2 * 2);
    assert!(
        saturated > blocks / 10,
        "only {saturated} saturating blocks"
    );
    assert!(toggled > blocks / 10, "only {toggled} mismatch toggles");
}
