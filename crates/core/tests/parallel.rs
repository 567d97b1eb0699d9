//! The reproduction's central correctness property: for any stream and any
//! `1-k-(m,n)` configuration, the reassembled wall output of the parallel
//! system is **bit-exact** with the sequential reference decoder.

use tiledec_core::{SimulatedSystem, SystemConfig, ThreadedSystem};
use tiledec_mpeg2::decode_all;
use tiledec_mpeg2::encoder::{Encoder, EncoderConfig};
use tiledec_mpeg2::frame::Frame;

/// Deterministic clip with global pan, a bouncing bright square (motion
/// vectors crossing tile boundaries) and textured chroma.
fn clip(w: usize, h: usize, frames: usize) -> Vec<Frame> {
    (0..frames)
        .map(|t| {
            let mut f = Frame::black(w, h);
            for y in 0..h {
                for x in 0..w {
                    let mut v = (((x + 3 * t) * 5 + y * 7) % 199) as u8 + 20;
                    let sq_x = (5 * t + 12) % (w - 24);
                    let sq_y = (3 * t + 4) % (h - 24);
                    if x >= sq_x && x < sq_x + 24 && y >= sq_y && y < sq_y + 24 {
                        v = 230;
                    }
                    f.y.set(x, y, v);
                }
            }
            for y in 0..h / 2 {
                for x in 0..w / 2 {
                    f.cb.set(x, y, (((x + 2 * t) * 3 + y) % 120) as u8 + 60);
                    f.cr.set(x, y, ((x + (y + t) * 3) % 120) as u8 + 60);
                }
            }
            f
        })
        .collect()
}

fn encode_clip(w: u32, h: u32, n: usize, gop: u32, b: u32, q: u8) -> Vec<u8> {
    let mut cfg = EncoderConfig::for_size(w, h);
    cfg.gop_size = gop;
    cfg.b_frames = b;
    cfg.qscale = q;
    cfg.search_range = 15;
    let enc = Encoder::new(cfg).unwrap();
    enc.encode(&clip(w as usize, h as usize, n)).unwrap()
}

fn assert_bit_exact(parallel: &[Frame], reference: &[Frame], label: &str) {
    assert_eq!(parallel.len(), reference.len(), "{label}: frame count");
    for (i, (a, b)) in parallel.iter().zip(reference).enumerate() {
        assert!(
            a == b,
            "{label}: frame {i} differs from the sequential decode"
        );
    }
}

#[test]
fn one_level_2x1_matches_sequential() {
    let stream = encode_clip(128, 64, 6, 6, 0, 6);
    let reference = decode_all(&stream).unwrap();
    let sys = ThreadedSystem::new(SystemConfig::new(0, (2, 1)));
    let out = sys.play(&stream).unwrap();
    assert_bit_exact(&out.frames, &reference, "1-(2,1)");
}

#[test]
fn two_level_2x2_with_b_frames_matches_sequential() {
    let stream = encode_clip(128, 96, 9, 9, 2, 5);
    let reference = decode_all(&stream).unwrap();
    let sys = ThreadedSystem::new(SystemConfig::new(2, (2, 2)));
    let out = sys.play(&stream).unwrap();
    assert_bit_exact(&out.frames, &reference, "1-2-(2,2)");
    // Decoder-to-decoder traffic must exist (motion crosses tiles).
    let d0 = 1 + 2; // first decoder node
    let total_dd: u64 = (0..4)
        .flat_map(|a| (0..4).map(move |b| (a, b)))
        .filter(|(a, b)| a != b)
        .map(|(a, b)| out.traffic[d0 + a][d0 + b])
        .sum();
    assert!(total_dd > 0, "expected MEI block traffic between decoders");
}

#[test]
fn three_splitters_4x2_matches_sequential() {
    let stream = encode_clip(192, 96, 8, 8, 1, 7);
    let reference = decode_all(&stream).unwrap();
    let sys = ThreadedSystem::new(SystemConfig::new(3, (4, 2)));
    let out = sys.play(&stream).unwrap();
    assert_bit_exact(&out.frames, &reference, "1-3-(4,2)");
}

/// Regression for the ROADMAP teardown item: a parse failure inside a
/// picture unit used to deadlock `ThreadedSystem::play` — the failing
/// node exited while its peers blocked forever on messages that would
/// never arrive. With poison-cascade teardown the first real error must
/// come back promptly.
#[test]
fn truncated_picture_unit_tears_down_with_error() {
    let stream = encode_clip(128, 64, 6, 6, 1, 6);
    // Cut mid-way through the last picture unit: the start-code index
    // stays valid, so the failure happens in a splitter node's per-picture
    // parse, mid-pipeline, with decoders already waiting on work.
    let last_pic = (0..stream.len() - 4)
        .rev()
        .find(|&i| stream[i..i + 4] == [0, 0, 1, 0])
        .expect("no picture start code");
    let cut = last_pic + (stream.len() - last_pic) / 2;
    let truncated = stream[..cut].to_vec();

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let sys = ThreadedSystem::new(SystemConfig::new(2, (2, 2)));
        let _ = tx.send(sys.play(&truncated).map(|_| ()));
    });
    // The watchdog distinguishes "returns an error" from the old hang.
    match rx.recv_timeout(std::time::Duration::from_secs(120)) {
        Ok(result) => {
            let err = result.expect_err("truncated stream must fail");
            let msg = err.to_string();
            assert!(
                !msg.contains("poisoned"),
                "play surfaced teardown fallout instead of the root cause: {msg}"
            );
        }
        Err(_) => panic!("ThreadedSystem::play hung on a truncated picture unit"),
    }
}

#[test]
fn overlap_configuration_matches_sequential() {
    // 160 px wide over 2 tiles with 16 px overlap: seam macroblocks go to
    // both decoders and their pixels must agree bit-exactly.
    let stream = encode_clip(160, 64, 6, 6, 1, 6);
    let reference = decode_all(&stream).unwrap();
    let sys = ThreadedSystem::new(SystemConfig::new(1, (2, 1)).with_overlap(16));
    let out = sys.play(&stream).unwrap();
    assert_bit_exact(&out.frames, &reference, "1-1-(2,1)+overlap");
}

/// Regression: the final macroblock of a picture's last slice can end
/// flush against the end of the cut picture unit, with no start code
/// after it inside the unit. `slice_done` used to mistake those trailing
/// in-byte bits for padding, so the splitter's parse pass silently
/// dropped the macroblock and the tile decoder never reconstructed it.
/// This clip/config pair (found by the randomised property test) produces
/// exactly that layout in a B picture.
#[test]
fn flush_final_macroblock_is_not_dropped() {
    let clip: Vec<Frame> = (0..4)
        .map(|t: usize| {
            let (w, h, s) = (192usize, 96usize, 721usize);
            let mut f = Frame::black(w, h);
            for y in 0..h {
                for x in 0..w {
                    let v = ((x + 2 * t) * (3 + s % 5) + y * 7 + s) % 200;
                    f.y.set(x, y, v as u8 + 20);
                }
            }
            let ox = (t * (2 + s % 3)) % (w - 16);
            let oy = (t + s) % (h - 16);
            for y in oy..oy + 16 {
                for x in ox..ox + 16 {
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
        .collect();
    let mut cfg = EncoderConfig::for_size(192, 96);
    cfg.gop_size = 7;
    cfg.b_frames = 1;
    cfg.qscale = 3;
    let stream = Encoder::new(cfg).unwrap().encode(&clip).unwrap();
    let reference = decode_all(&stream).unwrap();
    let sys = ThreadedSystem::new(SystemConfig::new(2, (2, 1)));
    let out = sys.play(&stream).unwrap();
    assert_bit_exact(&out.frames, &reference, "flush final macroblock");
}

#[test]
fn single_tile_degenerate_case() {
    let stream = encode_clip(64, 64, 4, 4, 1, 8);
    let reference = decode_all(&stream).unwrap();
    let sys = ThreadedSystem::new(SystemConfig::new(1, (1, 1)));
    let out = sys.play(&stream).unwrap();
    assert_bit_exact(&out.frames, &reference, "1-1-(1,1)");
}

#[test]
fn more_splitters_than_pictures() {
    let stream = encode_clip(64, 64, 2, 2, 0, 8);
    let reference = decode_all(&stream).unwrap();
    let sys = ThreadedSystem::new(SystemConfig::new(4, (2, 1)));
    let out = sys.play(&stream).unwrap();
    assert_bit_exact(&out.frames, &reference, "1-4-(2,1), 2 pictures");
}

#[test]
fn intra_only_stream_has_no_decoder_traffic() {
    let mut cfg = EncoderConfig::for_size(128, 64);
    cfg.gop_size = 1;
    cfg.qscale = 8;
    let enc = Encoder::new(cfg).unwrap();
    let stream = enc.encode(&clip(128, 64, 3)).unwrap();
    let reference = decode_all(&stream).unwrap();
    let sys = ThreadedSystem::new(SystemConfig::new(1, (2, 2)));
    let out = sys.play(&stream).unwrap();
    assert_bit_exact(&out.frames, &reference, "intra-only");
    let d0 = 2;
    for a in 0..4 {
        for b in 0..4 {
            if a != b {
                assert_eq!(out.traffic[d0 + a][d0 + b], 0, "I-only stream moved blocks");
            }
        }
    }
}

#[test]
fn simulated_backend_produces_identical_frames_and_sane_fps() {
    let stream = encode_clip(128, 96, 6, 6, 2, 6);
    let reference = decode_all(&stream).unwrap();
    let sys = SimulatedSystem::new(
        SystemConfig::new(2, (2, 2)),
        tiledec_cluster::CostModel::myrinet_2002(),
    )
    .with_verification();
    let run = sys.run(&stream).unwrap();
    assert_bit_exact(&run.frames, &reference, "simulated 1-2-(2,2)");
    assert!(run.report.fps > 0.0);
    assert!(run.measured.split_s > 0.0);
    assert!(run.measured.decode_s > 0.0);
    // Splitter send traffic (SPH overhead) exceeds what it receives.
    let splitter_sent: u64 = run.report.traffic.sent_by(1) + run.report.traffic.sent_by(2);
    let splitter_recv: u64 = run.report.traffic.received_by(1) + run.report.traffic.received_by(2);
    assert!(
        splitter_sent > splitter_recv,
        "SPH headers should make splitters send more than they receive"
    );
}

#[test]
fn alternate_scan_and_nonlinear_quant_through_the_pipeline() {
    let mut cfg = EncoderConfig::for_size(96, 64);
    cfg.gop_size = 5;
    cfg.b_frames = 1;
    cfg.qscale = 6;
    cfg.alternate_scan = true;
    cfg.q_scale_type = true;
    let enc = Encoder::new(cfg).unwrap();
    let stream = enc.encode(&clip(96, 64, 5)).unwrap();
    let reference = decode_all(&stream).unwrap();
    let sys = ThreadedSystem::new(SystemConfig::new(2, (3, 2)));
    let out = sys.play(&stream).unwrap();
    assert_bit_exact(&out.frames, &reference, "alt-scan nonlinear-q 1-2-(3,2)");
}

#[test]
fn display_tiles_are_the_sequential_crops_through_a_concealed_picture() {
    // A tile is cropped out of its reference frame only when it becomes
    // displayable — after peers have written that frame's halo for later
    // pictures — so every `DisplayTile`, the concealed one and the final
    // flush included, must still equal the sequential decoder's crop.
    use tiledec_core::splitter::MacroblockSplitter;
    use tiledec_core::tile_decoder::DisplayTile;
    use tiledec_core::TileDecoder;
    use tiledec_mpeg2::frame::FramePool;
    use tiledec_mpeg2::types::PictureKind::{B, I, P};

    // Two closed GOPs, coded I0 P2 B1 P3 | I4 P6 B5 P7. Losing P3 — the
    // last reference of its GOP, which nothing later predicts from — makes
    // every tile show P2 a second time in its place and leaves the rest of
    // the display untouched.
    const LOST: usize = 3;
    let stream = encode_clip(160, 96, 8, 4, 1, 6);
    let mut expected = decode_all(&stream).unwrap();
    expected[3] = expected[2].clone();

    let index = tiledec_core::split_picture_units(&stream).unwrap();
    let cfg = SystemConfig::new(1, (2, 2)).with_overlap(16);
    let geom = cfg.geometry(160, 96).unwrap();
    let splitter = MacroblockSplitter::new(geom, index.seq.clone());
    let mut decoders: Vec<TileDecoder> = geom
        .iter_tiles()
        .map(|t| TileDecoder::new(geom, t, index.seq.clone(), cfg.halo_margin))
        .collect();

    let mut shown = vec![0usize; decoders.len()];
    let mut check = |d: usize, dt: DisplayTile| {
        assert_eq!(dt.display_index as usize, shown[d], "tile {d}: order");
        let r = geom.tile_mb_rect(geom.tile_at(d));
        let (x, y, w, h) = (r.x0 as usize, r.y0 as usize, r.w as usize, r.h as usize);
        let want = FramePool::new().acquire_crop(&expected[shown[d]], x, y, w, h);
        assert!(
            dt.frame == want,
            "tile {d}: display {} is not the sequential crop",
            shown[d]
        );
        shown[d] += 1;
    };
    let mut kinds = Vec::new();
    for (p, &(s, e)) in index.units.iter().enumerate() {
        let out = splitter.split(p as u32, &stream[s..e]).unwrap();
        let kind = out.info.kind;
        kinds.push(kind);
        if p == LOST {
            for (d, dec) in decoders.iter_mut().enumerate() {
                if let Some(dt) = dec.conceal_picture() {
                    check(d, dt);
                }
            }
            continue;
        }
        let mut deliveries = Vec::new();
        for (d, dec) in decoders.iter().enumerate() {
            for (peer, blocks) in dec.extract_send_blocks(kind, &out.mei[d]).unwrap() {
                deliveries.push((d, peer, blocks));
            }
        }
        assert_eq!(
            deliveries.is_empty(),
            kind == I,
            "picture {p}: halo traffic"
        );
        for (src, peer, blocks) in deliveries {
            decoders[peer]
                .apply_recv_blocks(kind, &out.mei[peer], src, &blocks)
                .unwrap();
        }
        for (d, dec) in decoders.iter_mut().enumerate() {
            if let Some(dt) = dec.decode(&out.subpictures[d]).unwrap() {
                check(d, dt);
            }
        }
    }
    assert_eq!(kinds, [I, P, B, P, I, P, B, P]);
    for (d, dec) in decoders.iter_mut().enumerate() {
        let last = dec.flush().expect("the newest reference is still held");
        check(d, last);
        assert!(dec.flush().is_none(), "tile {d}: nothing left to flush");
    }
    assert_eq!(shown, vec![expected.len(); 4]);
}

/// Table 1's coarse rows, on streams small enough to reason about: the GOP
/// level redistributes (mn−1)/mn of every frame, several times what the
/// macroblock level moves between decoders, and the slice level fetches
/// across band boundaries but moves no pixels when one column displays it.
#[test]
fn table1_levels_price_the_baselines() {
    use tiledec_core::levels::{measure_levels, Level, LevelCosts};
    let row = |rows: &[LevelCosts], level| rows.iter().find(|r| r.level == level).unwrap().clone();

    // Three closed GOPs of four pictures. The frame must be large enough
    // that tiles have interior: MEI traffic scales with tile *perimeter*
    // while redistribution scales with tile *area*, so the macroblock
    // system's advantage grows with resolution (tiny frames are nearly
    // all boundary).
    let stream = encode_clip(384, 256, 12, 4, 1, 6);
    let geom = SystemConfig::new(1, (2, 2)).geometry(384, 256).unwrap();
    let rows = measure_levels(&stream, &geom).unwrap();
    assert_eq!(rows.iter().map(|r| r.level).collect::<Vec<_>>(), Level::ALL);
    let gop = row(&rows, Level::Gop);
    let frame_bytes = 384 * 256 * 3 / 2;
    assert_eq!(
        gop.redistribution_bytes_per_picture,
        (frame_bytes * 3 / 4) as f64
    );
    assert_eq!(gop.inter_decoder_bytes_per_picture, 0.0);

    let reference = decode_all(&stream).unwrap();
    let mb_system = ThreadedSystem::new(SystemConfig::new(1, (2, 2)))
        .play(&stream)
        .unwrap();
    assert_bit_exact(&mb_system.frames, &reference, "1-1-(2,2)");
    let mb_dd: u64 = (2..6)
        .flat_map(|a| (2..6).map(move |b| (a, b)))
        .filter(|(a, b)| a != b)
        .map(|(a, b)| mb_system.traffic[a][b])
        .sum();
    let gop_total = gop.redistribution_bytes_per_picture * reference.len() as f64;
    assert!(
        ((mb_dd * 3) as f64) < gop_total,
        "macroblock-level inter-decoder traffic ({mb_dd} B) should be far below \
         GOP-level redistribution ({gop_total} B)"
    );
    let mb = row(&rows, Level::Macroblock);
    assert!(
        mb.inter_decoder_bytes_per_picture * 3.0 < gop.redistribution_bytes_per_picture,
        "macroblock row's MEI bytes ({}) should be far below the GOP row's \
         redistribution ({})",
        mb.inter_decoder_bytes_per_picture,
        gop.redistribution_bytes_per_picture
    );

    // Slice level: one band per wall row, displayed by the wall's columns.
    let stream = encode_clip(192, 128, 8, 8, 2, 6);
    let slice_row = |m, n| {
        let geom = SystemConfig::new(1, (m, n)).geometry(192, 128).unwrap();
        row(&measure_levels(&stream, &geom).unwrap(), Level::Slice)
    };
    let two_bands = slice_row(2, 2);
    assert!(
        two_bands.inter_decoder_bytes_per_picture > 0.0,
        "motion crosses the band boundary"
    );
    assert!(two_bands.redistribution_bytes_per_picture > 0.0);
    assert_eq!(
        slice_row(2, 1).inter_decoder_bytes_per_picture,
        0.0,
        "one band fetches nothing"
    );
    assert_eq!(
        slice_row(1, 2).redistribution_bytes_per_picture,
        0.0,
        "m = 1 displays what each band decodes"
    );
}

/// A tile decoder re-enters a slice mid-stream: `skip_bits` into a
/// byte-copied payload, predictors from the SPH. Entropy decode there runs
/// out of a lent window until fewer than eight bytes are ahead, then step
/// by step — and the two must be indistinguishable on every partial
/// slice, whole and cut short anywhere in its last 64 bytes: the same
/// macroblocks, the same reader position, the same error at the same bit.
#[test]
fn partial_slices_parse_identically_with_and_without_the_window() {
    use tiledec_bitstream::BitReader;
    use tiledec_core::splitter::MacroblockSplitter;
    use tiledec_mpeg2::block::MbCoeffs;
    use tiledec_mpeg2::slice::{parse_one_macroblock, AddrMode, MbMotion, SliceContext, WalkState};

    let stream = encode_clip(128, 96, 7, 7, 2, 5);
    let index = tiledec_core::split_picture_units(&stream).unwrap();
    let geom = SystemConfig::new(1, (2, 2)).geometry(128, 96).unwrap();
    let splitter = MacroblockSplitter::new(geom, index.seq.clone());
    let mut skip_bits_seen = [0usize; 8];
    let mut errors = 0;
    for (p, &(s, e)) in index.units.iter().enumerate() {
        let out = splitter.split(p as u32, &stream[s..e]).unwrap();
        let ctx = SliceContext {
            seq: &index.seq,
            pic: &out.info,
        };
        for run in out.subpictures.iter().flat_map(|sp| &sp.runs) {
            if run.coded_count == 0 {
                continue;
            }
            skip_bits_seen[run.skip_bits as usize] += 1;
            // The walk of `tile_decoder::decode_run`, coefficients drained.
            let walk = |payload: &[u8], lends: bool| {
                let mut r = if lends {
                    BitReader::at(payload, run.skip_bits as usize)
                } else {
                    BitReader::at_without_window(payload, run.skip_bits as usize)
                };
                let mut st = WalkState {
                    pred: run.entry.clone(),
                    prev_motion: run.skip_motion.unwrap_or(MbMotion::Intra),
                    prev_addr: 0,
                };
                let mut coeffs = MbCoeffs::default();
                let mut seen = Vec::new();
                let first = run.row as u32 * ctx.mb_width() + run.first_coded_col as u32;
                for i in 0..run.coded_count {
                    let mode = if i == 0 {
                        AddrMode::Forced(first)
                    } else {
                        AddrMode::Continuation
                    };
                    match parse_one_macroblock(&mut r, &ctx, &mut st, mode, &mut coeffs) {
                        Ok(meta) => {
                            let mut coded = Vec::new();
                            for b in 0..6 {
                                if meta.cbp & (1 << (5 - b)) != 0 {
                                    coeffs.drain_block(b, |idx, v| coded.push((b, idx, v)));
                                }
                            }
                            seen.push((meta, coded));
                        }
                        Err(e) => return (seen, Some(e), r.bit_position(), st),
                    }
                }
                (seen, None, r.bit_position(), st)
            };
            for cut in 0..=run.payload.len().min(64) {
                let payload = &run.payload[..run.payload.len() - cut];
                let lent = walk(payload, true);
                assert_eq!(
                    lent,
                    walk(payload, false),
                    "picture {p} row {} skip_bits {} cut {cut}",
                    run.row,
                    run.skip_bits
                );
                if cut == 0 {
                    assert_eq!(lent.1, None, "whole partial slices parse cleanly");
                    assert_eq!(lent.0.len(), run.coded_count as usize);
                }
                errors += lent.1.is_some() as usize;
            }
        }
    }
    assert!(
        skip_bits_seen[1..].iter().all(|&n| n > 0),
        "every skip_bits 1-7 must occur: {skip_bits_seen:?}"
    );
    assert!(errors > 0, "no cut ever truncated a macroblock");
}
