//! Workspace-level end-to-end tests: workload generation → encoding →
//! parallel decoding on both back-ends → wall reassembly, checked against
//! the sequential reference decoder.

use tiledec::cluster::CostModel;
use tiledec::core::{SimulatedSystem, SystemConfig, ThreadedSystem};
use tiledec::mpeg2::decode_all;
use tiledec::wall::Wall;
use tiledec::workload::{MotionProfile, StreamPreset};

fn preset(w: u32, h: u32, profile: MotionProfile) -> StreamPreset {
    StreamPreset {
        number: 0,
        name: "test",
        width: w,
        height: h,
        bits_per_pixel: 0.5,
        profile,
        suggested_grid: (2, 2),
        seed: 77,
    }
}

#[test]
fn threaded_and_simulated_backends_agree_with_reference() {
    let video = preset(160, 96, MotionProfile::PanAndObjects { pan: 3, objects: 2 })
        .generate_and_encode(7)
        .unwrap();
    let reference = decode_all(&video.bitstream).unwrap();

    let cfg = SystemConfig::new(2, (2, 2));
    let threaded = ThreadedSystem::new(cfg).play(&video.bitstream).unwrap();
    let simulated = SimulatedSystem::new(cfg, CostModel::myrinet_2002())
        .with_verification()
        .run(&video.bitstream)
        .unwrap();

    assert_eq!(threaded.frames.len(), reference.len());
    assert_eq!(simulated.frames.len(), reference.len());
    for (i, frame) in reference.iter().enumerate() {
        assert!(&threaded.frames[i] == frame, "threaded frame {i}");
        assert!(&simulated.frames[i] == frame, "simulated frame {i}");
    }
}

#[test]
fn localized_detail_stream_survives_the_pipeline() {
    // The Orion-class workload: detail confined to a window, which makes
    // one tile's decoder the straggler — and historically exercises
    // skip-heavy smooth regions.
    let video = preset(192, 128, MotionProfile::LocalizedDetail { coverage: 0.15 })
        .generate_and_encode(7)
        .unwrap();
    let reference = decode_all(&video.bitstream).unwrap();
    let out = ThreadedSystem::new(SystemConfig::new(2, (3, 2)))
        .play(&video.bitstream)
        .unwrap();
    for (i, (a, b)) in out.frames.iter().zip(&reference).enumerate() {
        assert!(a == b, "frame {i}");
    }
}

#[test]
fn still_stream_is_mostly_skips_and_still_bit_exact() {
    let video = preset(128, 64, MotionProfile::Still)
        .generate_and_encode(6)
        .unwrap();
    let reference = decode_all(&video.bitstream).unwrap();
    let out = ThreadedSystem::new(SystemConfig::new(1, (2, 2)))
        .play(&video.bitstream)
        .unwrap();
    for (i, (a, b)) in out.frames.iter().zip(&reference).enumerate() {
        assert!(a == b, "frame {i}");
    }
}

#[test]
fn edge_blended_projector_outputs_sum_to_the_frame() {
    let video = preset(160, 96, MotionProfile::LayeredDrift)
        .generate_and_encode(3)
        .unwrap();
    let cfg = SystemConfig::new(1, (2, 1)).with_overlap(16);
    let out = ThreadedSystem::new(cfg).play(&video.bitstream).unwrap();
    // Rebuild a wall from the final frame and check the blending ramps.
    let geom = out.geometry;
    let mut wall = Wall::new(geom);
    for t in geom.iter_tiles() {
        let r = geom.tile_mb_rect(t);
        let mut tile = tiledec::mpeg2::frame::Frame::black(r.w as usize, r.h as usize);
        let last = out.frames.last().unwrap();
        tile.y.blit_from(
            &last.y,
            r.x0 as usize,
            r.y0 as usize,
            0,
            0,
            r.w as usize,
            r.h as usize,
        );
        tile.cb.blit_from(
            &last.cb,
            r.x0 as usize / 2,
            r.y0 as usize / 2,
            0,
            0,
            r.w as usize / 2,
            r.h as usize / 2,
        );
        tile.cr.blit_from(
            &last.cr,
            r.x0 as usize / 2,
            r.y0 as usize / 2,
            0,
            0,
            r.w as usize / 2,
            r.h as usize / 2,
        );
        wall.set_tile(t, tile).unwrap();
    }
    let blended = wall.blended_tiles();
    assert_eq!(blended.len(), 2);
    // In the overlap centre the two projectors each contribute about half.
    let last = out.frames.last().unwrap();
    let mid_x = geom.tile_rect(geom.tile_at(0)).x1() - geom.overlap / 2;
    let g0 = geom.tile_mb_rect(geom.tile_at(0));
    let g1 = geom.tile_mb_rect(geom.tile_at(1));
    let a = blended[0].y.get((mid_x - g0.x0) as usize, 40) as i32;
    let b = blended[1].y.get((mid_x - g1.x0) as usize, 40) as i32;
    let expect = last.y.get(mid_x as usize, 40) as i32;
    assert!((a + b - expect).abs() <= 2, "blend sum {a}+{b} vs {expect}");
}

#[test]
fn fourteen_node_wall_plays_hd_class_stream() {
    // A miniature of the paper's headline configuration: 1-3-(4,2) on an
    // HD-class (divisible) stream.
    let video = preset(
        320,
        128,
        MotionProfile::PanAndObjects { pan: 4, objects: 3 },
    )
    .generate_and_encode(8)
    .unwrap();
    let reference = decode_all(&video.bitstream).unwrap();
    let cfg = SystemConfig::new(3, (4, 2));
    assert_eq!(cfg.nodes(), 12);
    let out = ThreadedSystem::new(cfg).play(&video.bitstream).unwrap();
    for (i, (a, b)) in out.frames.iter().zip(&reference).enumerate() {
        assert!(a == b, "frame {i}");
    }
}

#[test]
fn program_stream_wrapping_is_transparent_to_the_wall() {
    // ES -> program stream -> demux -> parallel decode == sequential.
    let video = preset(128, 96, MotionProfile::PanAndObjects { pan: 2, objects: 2 })
        .generate_and_encode(6)
        .unwrap();
    let index = tiledec::core::split_picture_units(&video.bitstream).unwrap();
    let units: Vec<(usize, usize, u64)> = index
        .units
        .iter()
        .enumerate()
        .map(|(i, &(s, e))| (s, e, i as u64))
        .collect();
    let ps = tiledec::ps::mux_video(&video.bitstream, &units, &tiledec::ps::MuxConfig::default());
    assert!(tiledec::ps::looks_like_program_stream(&ps));
    let demuxed = tiledec::ps::demux_video(&ps).unwrap();
    assert_eq!(
        demuxed.video_es, video.bitstream,
        "demux must be byte-exact"
    );

    let reference = decode_all(&video.bitstream).unwrap();
    let out = ThreadedSystem::new(SystemConfig::new(1, (2, 2)))
        .play(&demuxed.video_es)
        .unwrap();
    for (i, (a, b)) in out.frames.iter().zip(&reference).enumerate() {
        assert!(a == b, "frame {i}");
    }
}

#[test]
fn y4m_export_round_trips_decoded_frames() {
    use tiledec::mpeg2::y4m::{Y4mHeader, Y4mReader, Y4mWriter};
    let video = preset(128, 64, MotionProfile::LayeredDrift)
        .generate_and_encode(4)
        .unwrap();
    let frames = decode_all(&video.bitstream).unwrap();
    let mut w = Y4mWriter::new(
        Vec::new(),
        Y4mHeader {
            width: 128,
            height: 64,
            fps_num: 30,
            fps_den: 1,
        },
    );
    for f in &frames {
        w.write_frame(f).unwrap();
    }
    let bytes = w.finish().unwrap();
    let got = Y4mReader::new(std::io::Cursor::new(bytes))
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(got.len(), frames.len());
    for (a, b) in frames.iter().zip(&got) {
        assert!(a == b);
    }
}

/// Runs the `tiledec-decode` binary on `stream` through scratch files
/// named after `tag`; returns whether it exited zero, its stderr and the
/// y4m bytes it wrote, if any.
fn run_decode_tool(tag: &str, stream: &[u8], flags: &[&str]) -> (bool, String, Option<Vec<u8>>) {
    let stem = format!("tiledec-e2e-{}-{tag}", std::process::id());
    let input = std::env::temp_dir().join(format!("{stem}.m2v"));
    let output = std::env::temp_dir().join(format!("{stem}.y4m"));
    std::fs::write(&input, stream).unwrap();
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_tiledec-decode"))
        .arg(&input)
        .arg(&output)
        .args(flags)
        .output()
        .unwrap();
    let y4m = std::fs::read(&output).ok();
    let _ = std::fs::remove_file(&input);
    let _ = std::fs::remove_file(&output);
    let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
    (run.status.success(), stderr, y4m)
}

#[test]
fn decode_tool_output_is_identical_for_every_workers_flag() {
    // 20x12 macroblocks: above the auto-tune size threshold, so the flag
    // really routes the decode through the pipeline.
    let video = preset(
        320,
        192,
        MotionProfile::PanAndObjects { pan: 3, objects: 2 },
    )
    .generate_and_encode(7)
    .unwrap();
    let (ok, stderr, sequential) = run_decode_tool("workers", &video.bitstream, &[]);
    assert!(ok, "{stderr}");
    assert!(!stderr.contains("pipelined decode"), "{stderr}");
    let sequential = sequential.expect("output written");
    assert!(sequential.len() > 7 * 320 * 192);
    for pair in ["0,0", "2,1", "2,2"] {
        let (ok, stderr, y4m) = run_decode_tool("workers", &video.bitstream, &["--workers", pair]);
        assert!(ok, "--workers {pair}: {stderr}");
        assert_eq!(
            stderr.contains("pipelined decode"),
            pair != "0,0",
            "--workers {pair}: {stderr}"
        );
        assert!(y4m.as_ref() == Some(&sequential), "--workers {pair}");
    }
}

#[test]
fn decode_tool_rejects_malformed_workers_values() {
    let video = preset(128, 64, MotionProfile::LayeredDrift)
        .generate_and_encode(2)
        .unwrap();
    let bad: [&[&str]; 9] = [
        &["--workers"],
        &["--workers", "2"],
        &["--workers", "2,"],
        &["--workers", ",1"],
        &["--workers", "a,b"],
        &["--workers", "2;2"],
        &["--workers", "-1,1"],
        &["--workers", "1,2,3"],
        &["--threads", "2,2"],
    ];
    for flags in bad {
        let (ok, stderr, y4m) = run_decode_tool("malformed", &video.bitstream, flags);
        assert!(!ok, "{flags:?} must fail");
        assert!(
            stderr.contains("usage: tiledec-decode"),
            "{flags:?}: {stderr}"
        );
        assert!(y4m.is_none(), "{flags:?} must not write output");
    }
}

#[test]
fn oversize_header_fails_with_a_typed_error_before_any_frame_is_sized() {
    // A real stream whose sequence header + extension are patched to the
    // largest size the syntax can carry: 14 bits each way, 16383x16383
    // (~400 MB per frame if anything believed it).
    let mut stream = preset(128, 64, MotionProfile::LayeredDrift)
        .generate_and_encode(2)
        .unwrap()
        .bitstream;
    assert_eq!(stream[..4], [0, 0, 1, 0xB3]);
    stream[4..7].fill(0xFF);
    let ext = stream
        .windows(4)
        .position(|w| w == [0, 0, 1, 0xB5])
        .expect("sequence extension");
    // Payload bits 15..=18 are the horizontal and vertical size extensions.
    stream[ext + 5] |= 0x01;
    stream[ext + 6] |= 0xE0;

    assert!(matches!(
        decode_all(&stream),
        Err(tiledec::mpeg2::Error::Unsupported(_))
    ));
    for flags in [&[][..], &["--workers", "2,2"]] {
        let (ok, stderr, y4m) = run_decode_tool("oversize", &stream, flags);
        assert!(!ok, "{flags:?}");
        assert!(
            stderr.contains("unsupported MPEG-2 feature: pictures larger than 4095x2800"),
            "{flags:?}: {stderr}"
        );
        assert!(y4m.is_none(), "{flags:?} must not write output");
    }
}
