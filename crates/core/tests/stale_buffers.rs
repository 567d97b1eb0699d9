//! Decoders reconstruct into recycled frames and band buffers that are
//! *not* cleared first; what makes that safe is the coverage bitmap, which
//! zeroes exactly the macroblocks a picture never wrote. These tests hold
//! the cases where a picture does leave macroblocks unwritten — whole
//! slices missing from an I, a P and a B picture, and a slice that stops
//! mid-row — against golden hashes taken on the commit before buffers went
//! stale, and against each other across every back-end.

use tiledec_bitstream::{StartCode, StartCodeIndex};
use tiledec_cluster::CostModel;
use tiledec_core::recon_parallel::PipelineDecoder;
use tiledec_core::{SimulatedSystem, SystemConfig, ThreadedSystem};
use tiledec_mpeg2::decoder::Decoder;
use tiledec_mpeg2::encoder::{Encoder, EncoderConfig};
use tiledec_mpeg2::types::PictureInfo;
use tiledec_mpeg2::{decode_all_resilient, ErrorPolicy, Frame};

/// Same pairs as `recon_parallel.rs`: the VLD sweep, the recon sweep, and
/// `(0, 0)`, the sequential decoder.
const WORKER_MATRIX: [(usize, usize); 10] = [
    (1, 1),
    (2, 1),
    (3, 1),
    (4, 1),
    (8, 1),
    (2, 2),
    (2, 3),
    (2, 4),
    (2, 8),
    (0, 0),
];

const W: usize = 128;
const H: usize = 96;
/// Macroblock rows, so slices, per picture.
const ROWS: usize = H / 16;

/// A bright, busy clip: no sample is near zero, so a macroblock that reads
/// zero was never written, and stale buffer contents never look like one.
fn clip(n: usize) -> Vec<Frame> {
    (0..n)
        .map(|t| {
            let mut f = Frame::black(W, H);
            for y in 0..H {
                for x in 0..W {
                    let v = 60 + ((x * 5) ^ (y * 3)) % 120 + (x + y + t * 9) % 23;
                    f.y.set(x, y, v as u8);
                }
            }
            for y in 0..H / 2 {
                for x in 0..W / 2 {
                    f.cb.set(x, y, 90 + ((x + 2 * t) % 60) as u8);
                    f.cr.set(x, y, 110 + ((y * 2 + t) % 50) as u8);
                }
            }
            f
        })
        .collect()
}

fn clean_stream() -> Vec<u8> {
    let mut cfg = EncoderConfig::for_size(W as u32, H as u32);
    cfg.gop_size = 6;
    cfg.b_frames = 1;
    cfg.qscale = 5;
    Encoder::new(cfg)
        .expect("config")
        .encode(&clip(9))
        .expect("encode")
}

/// `picture_coding_type` of the picture header at byte `offset`.
fn coding_type(data: &[u8], offset: usize) -> u8 {
    (data[offset + 5] >> 3) & 7
}

/// What to do to one slice of the clean stream.
#[derive(Clone, Copy)]
enum Cut {
    /// Remove it, start code and all.
    Whole,
    /// Keep its start code and the first half of its payload.
    Tail,
}

/// The clean stream with `cuts` applied: `(coded picture, slice row, cut)`.
fn cut_stream(cuts: &[(usize, usize, Cut)]) -> Vec<u8> {
    let data = clean_stream();
    let index = StartCodeIndex::build(&data);
    let codes = index.codes();
    let pictures: Vec<usize> = (0..codes.len())
        .filter(|&i| codes[i].code == StartCode::PICTURE)
        .collect();
    let mut dropped: Vec<(usize, usize)> = cuts
        .iter()
        .map(|&(pic, row, cut)| {
            let i = (pictures[pic]..codes.len())
                .find(|&i| codes[i].is_slice() && codes[i].code as usize == row + 1)
                .expect("slice row present");
            let (start, end) = (codes[i].offset, codes[i + 1].offset);
            match cut {
                Cut::Whole => (start, end),
                Cut::Tail => (start + 4 + (end - start - 4) / 2, end),
            }
        })
        .collect();
    dropped.sort_unstable();
    let mut out = Vec::with_capacity(data.len());
    let mut at = 0;
    for (start, end) in dropped {
        out.extend_from_slice(&data[at..start]);
        at = end;
    }
    out.extend_from_slice(&data[at..]);
    out
}

/// Coded-order indices of the first I, the second P and the first B
/// picture of the clean stream.
fn picked_pictures() -> (usize, usize, usize) {
    let data = clean_stream();
    let index = StartCodeIndex::build(&data);
    let kinds: Vec<u8> = index
        .codes()
        .iter()
        .filter(|c| c.code == StartCode::PICTURE)
        .map(|c| coding_type(&data, c.offset))
        .collect();
    let nth = |kind: u8, n: usize| {
        (0..kinds.len())
            .filter(|&i| kinds[i] == kind)
            .nth(n)
            .expect("picture kind present")
    };
    (nth(1, 0), nth(2, 1), nth(3, 0))
}

/// Whole slices cut out of an I, a P and a B picture.
fn holes() -> Vec<(usize, usize, Cut)> {
    let (i, p, b) = picked_pictures();
    vec![
        (i, 2, Cut::Whole),
        (p, 0, Cut::Whole),
        (p, 3, Cut::Whole),
        (b, ROWS - 1, Cut::Whole),
    ]
}

/// Legal under `ErrorPolicy::Strict`: a missing slice is rows never coded.
fn holed_stream() -> Vec<u8> {
    cut_stream(&holes())
}

/// [`holed_stream`] plus one slice of a later P picture cut off mid-row.
fn holed_and_truncated_stream() -> Vec<u8> {
    let (_, p, _) = picked_pictures();
    let mut cuts = holes();
    cuts.push((p + 2, 1, Cut::Tail));
    cut_stream(&cuts)
}

/// Display position of every coded picture (B pictures show at once, a
/// reference when the next reference arrives).
fn display_positions(stream: &[u8]) -> Vec<usize> {
    let index = StartCodeIndex::build(stream);
    let kinds: Vec<u8> = index
        .codes()
        .iter()
        .filter(|c| c.code == StartCode::PICTURE)
        .map(|c| coding_type(stream, c.offset))
        .collect();
    let mut shown = Vec::with_capacity(kinds.len());
    let mut held = None;
    for (i, &k) in kinds.iter().enumerate() {
        if k == 3 {
            shown.push(i);
        } else if let Some(h) = held.replace(i) {
            shown.push(h);
        }
    }
    shown.extend(held);
    let mut pos = vec![0; kinds.len()];
    for (d, &coded) in shown.iter().enumerate() {
        pos[coded] = d;
    }
    pos
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// FNV-1a over every frame's dimensions and samples, in display order.
fn hash_frames(frames: &[Frame]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in frames {
        fnv(&mut h, &(f.width() as u32).to_le_bytes());
        fnv(&mut h, &(f.height() as u32).to_le_bytes());
        for plane in [&f.y, &f.cb, &f.cr] {
            for y in 0..plane.height() {
                fnv(&mut h, plane.row(y));
            }
        }
    }
    h
}

/// Strict decode through the engine at `(vld, recon)`: the frames emitted
/// and how the decode ended.
fn strict(stream: &[u8], (vld, recon): (usize, usize)) -> (Vec<Frame>, Result<usize, String>) {
    let mut frames = Vec::new();
    let result = PipelineDecoder::new(vld, recon)
        .decode_stream(stream, |f: &Frame, _: &PictureInfo| frames.push(f.clone()))
        .map(|s| s.pictures)
        .map_err(|e| e.to_string());
    (frames, result)
}

fn sequential(stream: &[u8]) -> (Vec<Frame>, Result<usize, String>) {
    let mut frames = Vec::new();
    let result = Decoder::new()
        .decode_stream(stream, |f: &Frame, _: &PictureInfo| frames.push(f.clone()))
        .map(|s| s.pictures)
        .map_err(|e| e.to_string());
    (frames, result)
}

fn assert_same(got: &[Frame], want: &[Frame], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: frame count");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert!(
            a == b,
            "{label}: frame {i} differs from the sequential decode"
        );
    }
}

// Golden values, computed by this file's own helpers on commit 8491724 —
// the last one whose pools zero-filled every frame and band before use.
const GOLDEN_HOLED_STRICT: u64 = 0xD9E5_F628_8457_6A1E;
const GOLDEN_TRUNCATED_STRICT: u64 = 0xD6B0_AD6F_6CC9_C9EA;
const GOLDEN_TRUNCATED_STRICT_ERROR: &str =
    "bitstream error: invalid VLC for table B-14 dct_coeff at bit 83465";
const GOLDEN_TRUNCATED_RESILIENT: u64 = 0xB54F_0178_BAD7_D9F3;
const GOLDEN_TRUNCATED_CONCEALED: u64 = 40;

#[test]
fn missing_slices_read_zero_and_match_the_parent_commit() {
    let stream = holed_stream();
    let (frames, result) = sequential(&stream);
    assert_eq!(result, Ok(9), "missing slices are legal under Strict");
    assert_eq!(frames.len(), 9);

    // Every macroblock of a cut row reads zero in all three planes; the
    // rows around it do not (the clip has no sample below 60).
    let pos = display_positions(&stream);
    for (pic, row, _) in holes() {
        let f = &frames[pos[pic]];
        for y in 0..H {
            let cut = y / 16 == row;
            let zero = f.y.row(y).iter().all(|&v| v == 0);
            let chroma_zero = [&f.cb, &f.cr]
                .iter()
                .all(|p| p.row(y / 2).iter().all(|&v| v == 0));
            if cut {
                assert!(
                    zero && chroma_zero,
                    "picture {pic} row {y}: cut row not zero"
                );
            } else if holes().iter().all(|&(p, r, _)| p != pic || r != y / 16) {
                assert!(
                    !zero && !chroma_zero,
                    "picture {pic} row {y}: written row is zero"
                );
            }
        }
    }
    assert_eq!(
        hash_frames(&frames),
        GOLDEN_HOLED_STRICT,
        "output differs from the zero-filling parent commit"
    );

    for workers in WORKER_MATRIX {
        let (got, result) = strict(&stream, workers);
        assert_eq!(result, Ok(9), "engine at {workers:?}");
        assert_same(&got, &frames, &format!("engine at {workers:?}"));
    }

    let cfg = SystemConfig::new(1, (2, 2));
    let simulated = SimulatedSystem::new(cfg, CostModel::myrinet_2002())
        .with_verification()
        .run(&stream)
        .expect("simulated 2x2");
    assert_same(&simulated.frames, &frames, "simulated 2x2");
    let threaded = ThreadedSystem::new(cfg)
        .play(&stream)
        .expect("threaded 2x2");
    assert_same(&threaded.frames, &frames, "threaded 2x2");
}

#[test]
fn a_slice_truncated_mid_row_matches_the_parent_commit() {
    let stream = holed_and_truncated_stream();

    // Strict: the same error after the same frames, everywhere.
    let (frames, result) = sequential(&stream);
    assert_eq!(
        result,
        Err(GOLDEN_TRUNCATED_STRICT_ERROR.to_string()),
        "strict outcome differs from the parent commit"
    );
    assert_eq!(hash_frames(&frames), GOLDEN_TRUNCATED_STRICT);
    for workers in WORKER_MATRIX {
        let (got, got_result) = strict(&stream, workers);
        assert_eq!(got_result, result, "engine at {workers:?}");
        assert_same(&got, &frames, &format!("engine at {workers:?}"));
    }

    // Resilient: repair conceals the truncated row and the cut rows alike.
    let (frames, damage) = decode_all_resilient(&stream).expect("resilient");
    assert_eq!(hash_frames(&frames), GOLDEN_TRUNCATED_RESILIENT);
    let concealed: u64 = damage.reports.iter().map(|r| r.mbs_concealed as u64).sum();
    assert_eq!(concealed, GOLDEN_TRUNCATED_CONCEALED);
    for (vld, recon) in WORKER_MATRIX {
        let (got, got_damage) = PipelineDecoder::new(vld, recon)
            .decode_all_resilient(&stream)
            .expect("engine resilient");
        assert_eq!(got_damage, damage, "engine at ({vld},{recon}): ledger");
        assert_same(
            &got,
            &frames,
            &format!("resilient engine at ({vld},{recon})"),
        );
    }
    let cfg = SystemConfig::new(1, (2, 2)).with_policy(ErrorPolicy::Resilient);
    let threaded = ThreadedSystem::new(cfg)
        .play(&stream)
        .expect("threaded 2x2");
    assert_eq!(threaded.damage, damage, "threaded 2x2: ledger");
    assert_same(&threaded.frames, &frames, "threaded 2x2 resilient");
}

/// Tile decoders whose pools only ever hold `0xA5` frames — working-frame
/// sized and display-tile sized, handed back scribbled after every tile —
/// show exactly the sequential decoder's crops, cut rows included.
#[test]
fn stale_tile_decoder_pools_do_not_show_in_the_output() {
    use tiledec_core::splitter::{split_picture_units, MacroblockSplitter};
    use tiledec_core::TileDecoder;
    use tiledec_mpeg2::frame::FramePool;

    let stream = holed_stream();
    let (reference, _) = sequential(&stream);
    let index = split_picture_units(&stream).unwrap();
    let cfg = SystemConfig::new(1, (2, 2));
    let geom = cfg.geometry(W as u32, H as u32).unwrap();
    let splitter = MacroblockSplitter::new(geom, index.seq.clone());
    let garbage = |w: u32, h: u32| {
        let mut f = Frame::zeroed(w as usize, h as usize);
        for plane in [&mut f.y, &mut f.cb, &mut f.cr] {
            plane.fill(0xA5);
        }
        f
    };
    let margin = cfg.halo_margin.div_ceil(16) * 16;
    let mut decoders: Vec<TileDecoder> = geom
        .iter_tiles()
        .map(|t| {
            let mut dec = TileDecoder::new(geom, t, index.seq.clone(), cfg.halo_margin);
            // The working frame covers the own rectangle plus the halo
            // margin, clamped to the picture.
            let own = dec.own_rect();
            let x0 = own.x0.saturating_sub(margin);
            let y0 = own.y0.saturating_sub(margin);
            let x1 = (own.x1() + margin).min(W as u32);
            let y1 = (own.y1() + margin).min(H as u32);
            for _ in 0..3 {
                dec.recycle(garbage(x1 - x0, y1 - y0));
                dec.recycle(garbage(own.w, own.h));
            }
            dec
        })
        .collect();

    let mut shown = vec![0usize; decoders.len()];
    for (p, &(s, e)) in index.units.iter().enumerate() {
        let out = splitter.split(p as u32, &stream[s..e]).unwrap();
        let kind = out.info.kind;
        let mut deliveries = Vec::new();
        for (d, dec) in decoders.iter().enumerate() {
            for (peer, blocks) in dec.extract_send_blocks(kind, &out.mei[d]).unwrap() {
                deliveries.push((d, peer, blocks));
            }
        }
        for (src, peer, blocks) in deliveries {
            decoders[peer]
                .apply_recv_blocks(kind, &out.mei[peer], src, &blocks)
                .unwrap();
        }
        let flush = p + 1 == index.units.len();
        for (d, dec) in decoders.iter_mut().enumerate() {
            let decoded = dec.decode(&out.subpictures[d]).unwrap();
            let flushed = if flush { dec.flush() } else { None };
            for dt in decoded.into_iter().chain(flushed) {
                let r = dec.own_rect();
                let (x, y, w, h) = (r.x0 as usize, r.y0 as usize, r.w as usize, r.h as usize);
                let want = FramePool::new().acquire_crop(&reference[shown[d]], x, y, w, h);
                assert!(
                    dt.frame == want,
                    "tile {d}: display {} is not the sequential crop",
                    shown[d]
                );
                shown[d] += 1;
                dec.recycle(garbage(r.w, r.h));
            }
        }
    }
    assert_eq!(shown, vec![reference.len(); 4]);
}
