//! Failure injection: corrupted, truncated and garbage streams must yield
//! `Err` (or a successful-but-different decode) — never a panic. A decoder
//! that crashes on bad input is not production software.

use tiledec_mpeg2::decode_all;
use tiledec_mpeg2::encoder::{Encoder, EncoderConfig};
use tiledec_mpeg2::frame::Frame;

fn valid_stream() -> Vec<u8> {
    let frames: Vec<Frame> = (0..5)
        .map(|t| {
            let mut f = Frame::black(64, 48);
            for y in 0..48 {
                for x in 0..64 {
                    f.y.set(x, y, (((x + 2 * t) * 5 + y * 3) % 200) as u8 + 20);
                }
            }
            f
        })
        .collect();
    let mut cfg = EncoderConfig::for_size(64, 48);
    cfg.gop_size = 5;
    cfg.b_frames = 1;
    cfg.qscale = 6;
    Encoder::new(cfg).unwrap().encode(&frames).unwrap()
}

#[test]
fn truncation_never_panics() {
    let stream = valid_stream();
    for cut in (0..stream.len()).step_by(7) {
        let truncated = &stream[..cut];
        // Any outcome but a panic is acceptable; most cuts error.
        let _ = decode_all(truncated);
    }
}

#[test]
fn single_byte_flips_never_panic() {
    let stream = valid_stream();
    // Flip every 3rd byte through a few XOR patterns.
    for &mask in &[0xFFu8, 0x01, 0x80, 0x55] {
        for pos in (0..stream.len()).step_by(3) {
            let mut corrupt = stream.clone();
            corrupt[pos] ^= mask;
            let _ = decode_all(&corrupt);
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut s = 0xABCDEFu64;
    for len in [0usize, 1, 3, 4, 16, 100, 4096] {
        let mut data = Vec::with_capacity(len);
        for _ in 0..len {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            data.push(s as u8);
        }
        let _ = decode_all(&data);
    }
    // Garbage behind a valid sequence header prefix.
    let stream = valid_stream();
    let mut hybrid = stream[..stream.len().min(140)].to_vec();
    hybrid.extend(std::iter::repeat_n(0xA5u8, 500));
    let _ = decode_all(&hybrid);
}

#[test]
fn spliced_streams_never_panic() {
    // Concatenating stream fragments at start-code-ish boundaries.
    let stream = valid_stream();
    let third = stream.len() / 3;
    let mut spliced = stream[third..2 * third].to_vec();
    spliced.extend_from_slice(&stream[..third]);
    let _ = decode_all(&spliced);
}

#[test]
fn parser_survives_the_same_corruptions() {
    use tiledec_mpeg2::parser::parse_picture;
    use tiledec_mpeg2::types::SequenceInfo;
    let seq = SequenceInfo {
        width: 64,
        height: 48,
        frame_rate_code: 5,
        bit_rate_400: 0,
        intra_quant_matrix: [16; 64],
        non_intra_quant_matrix: [16; 64],
    };
    let stream = valid_stream();
    // Feed arbitrary windows of the stream as "picture units".
    for start in (0..stream.len()).step_by(11) {
        let end = (start + 97).min(stream.len());
        let _ = parse_picture(&stream[start..end], &seq);
    }
}

// ---------------------------------------------------------------------
// Tails and hand-over: entropy decode runs out of a lent window until
// fewer than eight bytes are ahead, then step by step on the reader. The
// two must be indistinguishable — values, reader position and every
// error's bit position — wherever the buffer ends and however the tokens
// fall against the window's eight-byte loads.
// ---------------------------------------------------------------------

mod handover {
    use tiledec_bitstream::{BitReader, BitWriter, StartCode, StartCodeScanner};
    use tiledec_mpeg2::block::{parse_block, write_block, CoeffSink, MbCoeffs};
    use tiledec_mpeg2::encoder::Encoder;
    use tiledec_mpeg2::headers;
    use tiledec_mpeg2::quant::Dequant;
    use tiledec_mpeg2::slice::{parse_slice, MbMeta, MbMotion, SliceContext, SliceVisitor};
    use tiledec_mpeg2::tables::dct_coeff::{encode_coeff, encode_eob};
    use tiledec_mpeg2::types::{PictureInfo, PictureKind, SequenceInfo};
    use tiledec_mpeg2::Result;
    use tiledec_workload::StreamPreset;

    /// Everything a walk tells its visitor, coefficients included.
    #[derive(Default, PartialEq, Debug)]
    struct Trace {
        calls: Vec<String>,
        bit_ends: Vec<usize>,
    }

    impl SliceVisitor for Trace {
        type Coeffs = MbCoeffs;

        fn skipped(
            &mut self,
            _: &SliceContext<'_>,
            start: u32,
            count: u32,
            motion: &MbMotion,
        ) -> Result<()> {
            self.calls.push(format!("skip {start}+{count} {motion:?}"));
            Ok(())
        }

        fn macroblock(
            &mut self,
            _: &SliceContext<'_>,
            meta: &MbMeta,
            coeffs: &mut MbCoeffs,
        ) -> Result<()> {
            let mut coded = Vec::new();
            for i in 0..6 {
                if meta.cbp & (1 << (5 - i)) != 0 {
                    coeffs.drain_block(i, |idx, v| coded.push((i, idx, v)));
                }
            }
            self.calls.push(format!("{meta:?} {coded:?}"));
            self.bit_ends.push(meta.bit_end);
            Ok(())
        }
    }

    /// One picture's parameters and each of its slices' row and bytes
    /// (start code excluded, up to the next start code).
    type Picture = (SequenceInfo, PictureInfo, Vec<(u32, Vec<u8>)>);

    /// The first picture of `kind` in a few frames of `preset`.
    fn picture_slices(preset: StreamPreset, kind: PictureKind) -> Picture {
        let mut cfg = preset.encoder_config();
        cfg.search_range = 3;
        let enc = Encoder::new(cfg).unwrap();
        let data = enc.encode(&preset.generate(4)).unwrap();
        let codes: Vec<StartCode> = {
            let mut scanner = StartCodeScanner::new(&data);
            std::iter::from_fn(|| scanner.next_code()).collect()
        };
        let mut info: Option<PictureInfo> = None;
        let mut slices = Vec::new();
        for (n, code) in codes.iter().enumerate() {
            let mut r = BitReader::at(&data, (code.offset + 4) * 8);
            match code.code {
                StartCode::PICTURE => {
                    if !slices.is_empty() {
                        break;
                    }
                    info = Some(headers::parse_picture_header(&mut r).unwrap());
                }
                StartCode::EXTENSION
                    if r.read_bits(4).unwrap() == headers::EXT_ID_PICTURE_CODING =>
                {
                    let info = info.as_mut().unwrap();
                    headers::parse_picture_coding_extension(&mut r, info).unwrap();
                }
                c if (StartCode::SLICE_MIN..=StartCode::SLICE_MAX).contains(&c)
                    && info.as_ref().unwrap().kind == kind =>
                {
                    let end = codes.get(n + 1).map_or(data.len(), |next| next.offset);
                    slices.push(((c - 1) as u32, data[code.offset + 4..end].to_vec()));
                }
                _ => {}
            }
        }
        assert!(!slices.is_empty(), "no {kind:?} picture in the stream");
        (enc.sequence_info().clone(), info.unwrap(), slices)
    }

    /// `bytes` behind `shift` zero bits.
    fn shifted(bytes: &[u8], shift: u32) -> Vec<u8> {
        let mut w = BitWriter::new();
        w.put_bits(0, shift);
        for &b in bytes {
            w.put_bits(b as u32, 8);
        }
        w.into_bytes()
    }

    type Outcome = (Result<()>, usize, Trace);

    /// A reader at bit `start` of `buf` that lends its window, or refuses.
    fn reader(buf: &[u8], start: usize, lends: bool) -> BitReader<'_> {
        if lends {
            BitReader::at(buf, start)
        } else {
            BitReader::at_without_window(buf, start)
        }
    }

    /// `parse_slice` from bit `start` of `buf`.
    fn walk(buf: &[u8], start: usize, ctx: &SliceContext<'_>, row: u32, lends: bool) -> Outcome {
        let mut r = reader(buf, start, lends);
        let mut trace = Trace::default();
        let result = parse_slice(&mut r, ctx, row, &mut trace, &mut MbCoeffs::default());
        (result, r.bit_position(), trace)
    }

    /// Both ways over `buf`, which must agree; returns the outcome.
    fn both_ways(
        buf: &[u8],
        start: usize,
        ctx: &SliceContext<'_>,
        row: u32,
        what: &str,
    ) -> Outcome {
        let lent = walk(buf, start, ctx, row, true);
        let stepped = walk(buf, start, ctx, row, false);
        assert_eq!(lent, stepped, "{what}");
        lent
    }

    /// One I and one B picture, from two presets at 64×64.
    fn pictures() -> [Picture; 2] {
        let preset = |n: u32, div| StreamPreset::by_number(n).unwrap().scaled_down(div);
        [
            picture_slices(preset(1, 16), PictureKind::I),
            picture_slices(preset(10, 32), PictureKind::B),
        ]
    }

    #[test]
    fn truncated_slices_parse_identically_with_and_without_the_window() {
        // Miri interprets this a thousand times slower: thin the grid
        // there, keeping both pictures and the whole structure.
        let (shifts, cut_step): (&[u32], usize) = if cfg!(miri) {
            (&[0, 5], 9)
        } else {
            (&[0, 1, 2, 3, 4, 5, 6, 7], 1)
        };
        let mut errors = 0;
        for (seq, pic, slices) in &pictures() {
            let ctx = SliceContext { seq, pic };
            for (row, payload) in slices {
                for &shift in shifts {
                    let buf = shifted(payload, shift);
                    let whole = both_ways(&buf, shift as usize, &ctx, *row, "whole slice");
                    assert_eq!(whole.0, Ok(()), "{:?} row {row} shift {shift}", pic.kind);
                    for cut in (1..=buf.len().min(64)).step_by(cut_step) {
                        let what = format!("{:?} row {row} shift {shift} cut {cut}", pic.kind);
                        let cut_buf = &buf[..buf.len() - cut];
                        let (result, _, trace) =
                            both_ways(cut_buf, shift as usize, &ctx, *row, &what);
                        assert!(trace.calls.len() <= whole.2.calls.len(), "{what}");
                        errors += result.is_err() as usize;
                    }
                }
            }
        }
        assert!(errors > 0, "no cut ever truncated a macroblock");
    }

    /// The PR 1 `slice_done` regression, on both paths: a buffer that ends
    /// flush against a macroblock's last bit holds exactly the macroblocks
    /// before the cut, and the walk ends cleanly there.
    #[test]
    fn a_unit_cut_flush_against_a_macroblock_end_keeps_that_macroblock() {
        let mut flush_cuts = 0;
        for (seq, pic, slices) in &pictures() {
            let ctx = SliceContext { seq, pic };
            let (row, payload) = &slices[slices.len() / 2];
            let (_, _, whole) = both_ways(payload, 0, &ctx, *row, "whole slice");
            for (n, &bit_end) in whole.bit_ends.iter().enumerate() {
                // Shift the slice so this macroblock ends on a byte
                // boundary, and cut the buffer there.
                let shift = (8 - bit_end % 8) % 8;
                let buf = shifted(payload, shift as u32);
                let cut = &buf[..(bit_end + shift) / 8];
                let what = format!("{:?} row {row} flush after macroblock {n}", pic.kind);
                let (result, end, trace) = both_ways(cut, shift, &ctx, *row, &what);
                assert_eq!(result, Ok(()), "{what}");
                assert_eq!(end, cut.len() * 8, "{what}");
                assert_eq!(trace.bit_ends.len(), n + 1, "{what}");
                flush_cuts += 1;
            }
        }
        assert!(flush_cuts >= 4);
    }

    /// Raw levels of one block.
    #[derive(PartialEq, Debug)]
    struct Levels(Vec<(usize, i32)>, bool);

    impl CoeffSink for Levels {
        fn begin_block(&mut self, _i: usize) {
            *self = Levels(Vec::new(), false);
        }
        fn coeff(&mut self, _q: &Dequant<'_>, idx: usize, level: i32) {
            self.0.push((idx, level));
        }
        fn end_block(&mut self) {
            self.1 = true;
        }
    }

    /// A block whose escape token (24 bits) lies across the end of the
    /// window's first eight-byte load, at every phase, in buffers that end
    /// anywhere from before the escape to well past the block.
    #[test]
    fn an_escape_token_straddling_the_eight_byte_boundary_decodes_identically() {
        let seq = SequenceInfo {
            width: 16,
            height: 16,
            frame_rate_code: 5,
            bit_rate_400: 0,
            intra_quant_matrix: [16; 64],
            non_intra_quant_matrix: [16; 64],
        };
        let pic = PictureInfo::new(PictureKind::P, 0, [[1, 1], [15, 15]]);
        let ctx = SliceContext {
            seq: &seq,
            pic: &pic,
        };
        let q = Dequant::new(&ctx, false, 4);
        let phases: Vec<usize> = if cfg!(miri) {
            vec![1, 12, 23]
        } else {
            (1..24).collect()
        };
        for into in phases {
            // `11s` tokens (run 0, level ±1; `1s` for the first) up to
            // bit 64 − into, where the escape begins.
            let lead = 64 - into;
            let start = (lead + 1) % 3;
            let mut w = BitWriter::new();
            w.put_bits(0, start as u32);
            let ones = (lead + 1 - start) / 3;
            for n in 0..ones {
                encode_coeff(&mut w, n == 0, 0, if n % 2 == 0 { 1 } else { -1 });
            }
            assert_eq!(w.bit_len(), lead);
            encode_coeff(&mut w, false, 7, -1000);
            encode_coeff(&mut w, false, 0, 3);
            encode_eob(&mut w);
            let block_bits = w.bit_len();
            w.put_bits(0xA5A5_A5A5, 32);
            w.put_bits(0xA5A5_A5A5, 32);
            w.put_bits(0xA5A5_A5A5, 32);
            let bytes = w.into_bytes();
            for len in 0..=bytes.len() {
                let run = |lends: bool| {
                    let mut r = reader(&bytes[..len], start, lends);
                    let mut sink = Levels(Vec::new(), false);
                    let result = parse_block(&mut r, &q, 0, false, &mut 0, &mut sink);
                    (result, r.bit_position(), sink)
                };
                let lent = run(true);
                assert_eq!(lent, run(false), "into {into} len {len}");
                if len * 8 >= block_bits {
                    assert_eq!(lent.0, Ok(()), "into {into} len {len}");
                    assert_eq!(lent.1, block_bits);
                    assert_eq!(lent.2 .0.len(), ones + 2);
                    assert_eq!(lent.2 .0[ones].1, -1000);
                } else {
                    assert!(lent.0.is_err(), "into {into} len {len}");
                }
            }
        }
        // And the round trip the other way, through `write_block`.
        let mut levels = [0i32; 64];
        levels[0] = 1;
        levels[9] = 777;
        let mut w = BitWriter::new();
        assert!(write_block(&mut w, false, true, false, &mut 0, &levels));
        let bytes = w.into_bytes();
        let mut sink = Levels(Vec::new(), false);
        parse_block(&mut BitReader::new(&bytes), &q, 0, false, &mut 0, &mut sink).unwrap();
        assert_eq!(sink, Levels(vec![(0, 1), (9, 777)], true));
    }
}
