//! Property tests for the node-local parallel engine (`PipelineDecoder`):
//! bit-exactness against the sequential reference decoder across random
//! streams, a `(vld, recon)` worker matrix, truncation and corruption —
//! under both `ErrorPolicy::Strict` (identical frames, identical error
//! values *and bit positions*) and `ErrorPolicy::Resilient` (identical
//! repaired frames and identical `DamageReport` ledgers).
//!
//! Driven by a seeded xorshift generator, so every case is deterministic
//! and reproducible from its seed.

use tiledec_bitstream::{StartCode, StartCodeIndex};
use tiledec_core::recon_parallel::PipelineDecoder;
use tiledec_core::vld_parallel::host_cpus;
use tiledec_mpeg2::decoder::Decoder;
use tiledec_mpeg2::encoder::{Encoder, EncoderConfig};
use tiledec_mpeg2::types::PictureInfo;
use tiledec_mpeg2::{decode_all_resilient, Error, Frame};

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

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// `(vld, recon)` worker pairs every exactness property is checked at.
/// The VLD stage is swept with one recon worker (1 is the degenerate
/// single-range partition, 3 odd seams, 8 more ranges than some pictures
/// have slices), the recon stage with two VLD workers (1 is the
/// degenerate single band, 3 odd band seams, 8 more bands than some
/// pictures have rows), and `(0, 0)` is the sequential decoder itself.
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

/// Renders a deterministic noisy clip and encodes it with
/// seed-dependent GOP structure and quantisation.
fn random_stream(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let (w, h) = match rng.below(3) {
        0 => (64, 48),
        1 => (128, 96),
        _ => (96, 64),
    };
    let mut cfg = EncoderConfig::for_size(w, h);
    cfg.gop_size = 3 + rng.below(6) as u32;
    cfg.b_frames = rng.below(3) as u32;
    cfg.qscale = 3 + rng.below(12) as u8;
    cfg.adaptive_quant = rng.below(2) == 0;
    cfg.alternate_scan = rng.below(2) == 0;
    cfg.intra_dc_precision = rng.below(3) as u8;
    cfg.q_scale_type = rng.below(2) == 0;
    let n = 4 + rng.below(5) as usize;
    let mut frames = Vec::with_capacity(n);
    for t in 0..n {
        let mut f = Frame::black(w as usize, h as usize);
        for yy in 0..h as usize {
            for xx in 0..w as usize {
                // Textured base + moving diagonal band + per-frame noise.
                let base = ((xx * 5) ^ (yy * 3)) as u64;
                let band = if (xx + yy + t * 7) % 31 < 6 { 90 } else { 0 };
                let v = (base % 120 + band + rng.below(24)) as u8;
                f.y.set(xx, yy, v);
            }
        }
        for yy in 0..(h / 2) as usize {
            for xx in 0..(w / 2) as usize {
                f.cb.set(xx, yy, 100 + ((xx + t) % 56) as u8);
                f.cr.set(xx, yy, 120 + ((yy * 2 + t) % 40) as u8);
            }
        }
        frames.push(f);
    }
    let enc = Encoder::new(cfg).expect("config");
    enc.encode(&frames).expect("encode")
}

/// Encodes `n` noise-free `w`×`h` frames whose luma is `luma(x, y, t)`,
/// with GOP shape `(gop_size, b_frames)`.
fn pattern_stream(
    (w, h): (u32, u32),
    n: usize,
    (gop_size, b_frames): (u32, u32),
    qscale: u8,
    luma: impl Fn(usize, usize, usize) -> usize,
) -> Vec<u8> {
    let mut cfg = EncoderConfig::for_size(w, h);
    cfg.gop_size = gop_size;
    cfg.b_frames = b_frames;
    cfg.qscale = qscale;
    let frames: Vec<Frame> = (0..n)
        .map(|t| {
            let mut f = Frame::black(w as usize, h as usize);
            for yy in 0..h as usize {
                for xx in 0..w as usize {
                    f.y.set(xx, yy, luma(xx, yy, t) as u8);
                }
            }
            f
        })
        .collect();
    Encoder::new(cfg)
        .expect("config")
        .encode(&frames)
        .expect("encode")
}

/// Decodes with `dec`, capturing frames and the terminal result.
fn decode_with(dec: &mut PipelineDecoder, data: &[u8]) -> (Vec<Frame>, Result<usize, Error>) {
    let mut frames = Vec::new();
    let result = dec
        .decode_stream(data, |f: &Frame, _: &PictureInfo| frames.push(f.clone()))
        .map(|s| s.pictures);
    (frames, result)
}

fn decode_sequential(data: &[u8]) -> (Vec<Frame>, Result<usize, Error>) {
    let mut frames = Vec::new();
    let result = Decoder::new()
        .decode_stream(data, |f: &Frame, _: &PictureInfo| frames.push(f.clone()))
        .map(|s| s.pictures);
    (frames, result)
}

/// Asserts `dec`'s decode of `data` equals the sequential decode: same
/// frames (bit-exact), same summary, same error value — including bit
/// positions.
fn assert_decoder_matches_sequential(dec: &mut PipelineDecoder, data: &[u8], label: &str) {
    let (seq_frames, seq_result) = decode_sequential(data);
    let (frames, result) = decode_with(dec, data);
    assert_eq!(result, seq_result, "{label}: strict result mismatch");
    assert_eq!(
        frames.len(),
        seq_frames.len(),
        "{label}: frame count mismatch"
    );
    for (i, (a, b)) in frames.iter().zip(&seq_frames).enumerate() {
        assert!(a == b, "{label}: frame {i} differs from sequential");
    }
}

/// [`assert_decoder_matches_sequential`] under **Strict** policy at every
/// pair of the worker matrix.
fn assert_strict_matches_sequential(data: &[u8], label: &str) {
    for (vld, recon) in WORKER_MATRIX {
        let mut dec = PipelineDecoder::new(vld, recon);
        assert_decoder_matches_sequential(&mut dec, data, &format!("{label} at ({vld},{recon})"));
    }
}

/// Asserts the engine's **Resilient** decode at every pair of the worker
/// matrix equals the sequential resilient decode: identical repaired
/// frames and identical damage ledgers (`DamageReport` rows included).
fn assert_resilient_matches_sequential(data: &[u8], label: &str) {
    let seq = decode_all_resilient(data);
    for (vld, recon) in WORKER_MATRIX {
        let label = format!("{label} at ({vld},{recon})");
        let pipe = PipelineDecoder::new(vld, recon).decode_all_resilient(data);
        match (&seq, &pipe) {
            (Ok((sf, sd)), Ok((pf, pd))) => {
                assert_eq!(sd, pd, "{label}: damage ledger mismatch");
                assert_eq!(
                    sf.len(),
                    pf.len(),
                    "{label}: resilient frame count mismatch"
                );
                for (i, (a, b)) in pf.iter().zip(sf).enumerate() {
                    assert!(a == b, "{label}: resilient frame {i} differs");
                }
            }
            (Err(se), Err(pe)) => assert_eq!(se, pe, "{label}: resilient error mismatch"),
            (s, p) => {
                panic!("{label}: resilient outcome diverged: sequential {s:?} vs pipelined {p:?}")
            }
        }
    }
}

#[test]
fn engine_bit_exact_across_streams_and_worker_matrix() {
    for seed in (0..6u64).chain(200..206) {
        let data = random_stream(seed);
        assert_strict_matches_sequential(&data, &format!("stream {seed}"));
    }
}

#[test]
fn engine_bit_exact_on_truncated_streams() {
    // Truncation lands mid-slice, mid-header and mid-start-code at
    // pseudo-random points; the engine must reproduce the sequential
    // error exactly — variant, message, bit position — and the frames
    // emitted before it.
    for base in [0u64, 200] {
        for seed in 0..4u64 {
            let data = random_stream(base + seed);
            let mut rng = Rng::new(seed ^ 0xDEAD_BEEF);
            for case in 0..8 {
                let cut = 16 + rng.below(data.len() as u64 - 16) as usize;
                assert_strict_matches_sequential(
                    &data[..cut],
                    &format!("stream {} cut {case} at {cut}", base + seed),
                );
            }
        }
    }
}

#[test]
fn engine_bit_exact_on_corrupted_streams() {
    // Byte corruption can invalidate VLC codes (exact error positions),
    // desynchronise slices, send macroblock addresses into other rows
    // (the single-band demotion path), or silently change pixels; all
    // must match the sequential decode bit for bit.
    for base in [100u64, 300] {
        for seed in 0..4u64 {
            let data = random_stream(base + seed);
            let mut rng = Rng::new(seed ^ 0xC0FF_EE00);
            for case in 0..6 {
                let mut corrupted = data.clone();
                let pos = 12 + rng.below(data.len() as u64 - 12) as usize;
                corrupted[pos] ^= (1 + rng.below(255)) as u8;
                assert_strict_matches_sequential(
                    &corrupted,
                    &format!("stream {} corrupt {case} at {pos}", base + seed),
                );
            }
        }
    }
}

#[test]
fn pipelined_resilient_matches_sequential_on_damaged_streams() {
    // Resilient policy must agree end to end: repaired frames, display
    // patches and the DamageReport ledger, across truncations and
    // corruptions at every worker count.
    for seed in 0..3u64 {
        let data = random_stream(seed + 400);
        let mut rng = Rng::new(seed ^ 0xBAD_CAFE);
        assert_resilient_matches_sequential(&data, &format!("stream {seed} clean"));
        for case in 0..3 {
            let cut = 16 + rng.below(data.len() as u64 - 16) as usize;
            assert_resilient_matches_sequential(
                &data[..cut],
                &format!("stream {seed} cut {case} at {cut}"),
            );
            let mut corrupted = data.clone();
            let pos = 12 + rng.below(data.len() as u64 - 12) as usize;
            corrupted[pos] ^= (1 + rng.below(255)) as u8;
            assert_resilient_matches_sequential(
                &corrupted,
                &format!("stream {seed} corrupt {case} at {pos}"),
            );
        }
    }
}

#[test]
fn truncated_stream_error_bit_position_is_exact() {
    // Dig the bit position out of a truncation error and require the
    // engine to produce the identical value, not just the same variant.
    for stream_seed in [3u64, 203] {
        let data = random_stream(stream_seed);
        let mut found_bit_pos_error = false;
        for cut in [
            data.len() - 1,
            data.len() - 3,
            data.len() * 3 / 4,
            data.len() / 2,
        ] {
            let truncated = &data[..cut];
            let (_, seq_result) = decode_sequential(truncated);
            let Err(Error::Bitstream(ref e)) = seq_result else {
                continue;
            };
            found_bit_pos_error = true;
            for (vld, recon) in WORKER_MATRIX {
                let (_, result) = decode_with(&mut PipelineDecoder::new(vld, recon), truncated);
                match result {
                    Err(Error::Bitstream(ref pe)) => assert_eq!(
                        pe, e,
                        "stream {stream_seed} cut {cut} at ({vld},{recon}): bitstream error \
                         (incl. bit position) differs"
                    ),
                    other => panic!(
                        "stream {stream_seed} cut {cut} at ({vld},{recon}): expected {e:?}, \
                         got {other:?}"
                    ),
                }
            }
        }
        assert!(
            found_bit_pos_error,
            "stream {stream_seed}: no truncation produced a bitstream error with a position \
             — widen the cuts"
        );
    }
}

#[test]
fn partition_seams_cover_uneven_slice_counts() {
    // A 48-line picture has 3 slice rows: worker counts 2 and 4 force
    // ranges of unequal size and ranges that outnumber slices. Repeated
    // pictures also exercise the cost-history partitioning path (later
    // pictures are split by measured weights, not uniformly).
    let luma = |x, y, t| (x * 7 + y * 11 + t * 5) % 200;
    let data = pattern_stream((64, 48), 10, (4, 1), 8, luma);
    assert_strict_matches_sequential(&data, "3-slice pictures");
}

#[test]
fn analysis_rejected_streams_decode_sequentially() {
    // Streams the planner cannot commit to must go straight to the
    // sequential decoder — no worker thread started — and so reproduce
    // its frames and its error value exactly.
    let luma = |x, y, t| (x * 7 + y * 11 + t * 5) % 200;
    let data = pattern_stream((64, 48), 8, (4, 1), 8, luma);
    let index = StartCodeIndex::build(&data);
    let codes = index.codes();
    let pictures: Vec<usize> = (0..codes.len())
        .filter(|&i| codes[i].code == StartCode::PICTURE)
        .collect();
    // (a) The fourth picture loses all its slices: cut from its first
    // slice start code to the next non-slice start code.
    let first_slice = (pictures[3]..codes.len())
        .find(|&i| codes[i].is_slice())
        .expect("picture has slices");
    let after = (first_slice..codes.len())
        .find(|&i| !codes[i].is_slice())
        .expect("a later picture follows");
    let mut no_slices = data[..codes[first_slice].offset].to_vec();
    no_slices.extend_from_slice(&data[codes[after].offset..]);
    // (b) The stream ends one byte into the fourth picture's header.
    let in_header = &data[..codes[pictures[3]].offset + 5];
    for (stream, label) in [
        (&no_slices[..], "picture with no slices"),
        (in_header, "truncated picture header"),
    ] {
        let (seq_frames, seq_result) = decode_sequential(stream);
        assert!(seq_result.is_err(), "{label}: the stream must be invalid");
        assert!(!seq_frames.is_empty(), "{label}: frames precede the error");
        for (vld, recon) in WORKER_MATRIX {
            let mut dec = PipelineDecoder::new(vld, recon);
            let label = format!("{label} at ({vld},{recon})");
            assert_decoder_matches_sequential(&mut dec, stream, &label);
            let stats = dec.stats();
            assert!(stats.sequential_fallback, "{label}: must not pipeline");
            assert_eq!(stats.vld_workers, 0, "{label}: no VLD worker may run");
            assert_eq!(stats.recon_workers, 0, "{label}: no recon worker may run");
        }
    }
}

#[test]
fn consecutive_b_pictures_share_a_level() {
    // b_frames = 2 produces IBBPBBP… runs: the two Bs of each run share
    // both anchors and must land on the same dependency level, giving
    // bands from different pictures to the recon pool concurrently. The
    // decode must stay bit-exact and the stats must show real banding.
    let luma = |x, y, t| (x * 7 + y * 11 + t * 13) % 210;
    let data = pattern_stream((128, 96), 12, (9, 2), 6, luma);
    assert_strict_matches_sequential(&data, "IBBP ladder");

    let mut dec = PipelineDecoder::new(2, 2);
    let mut n = 0usize;
    dec.decode_stream(&data, |_, _| n += 1).expect("decode");
    let stats = dec.stats();
    assert!(n > 0);
    assert!(
        !stats.sequential_fallback,
        "well-formed stream must pipeline"
    );
    assert_eq!(stats.recon_workers, 2);
    assert_eq!(stats.recon_busy_ns.len(), 2);
    assert!(stats.pictures > 0);
    assert!(
        stats.bands > stats.pictures,
        "2 recon workers should split most pictures into multiple bands \
         (bands {} vs pictures {})",
        stats.bands,
        stats.pictures
    );
    assert!(stats.vld_stage_ns > 0);
    assert!(stats.recon_stage_ns > 0);
    assert!(stats.model_critical_ns >= stats.vld_stage_ns.max(stats.recon_stage_ns));
}

#[test]
fn stats_reflect_parallel_work() {
    let data = random_stream(1);
    let mut dec = PipelineDecoder::new(2, 1);
    let mut n = 0usize;
    dec.decode_stream(&data, |_, _| n += 1).expect("decode");
    let stats = dec.stats();
    assert!(n > 0);
    assert!(
        !stats.sequential_fallback,
        "well-formed stream must pipeline"
    );
    assert_eq!((stats.vld_workers, stats.recon_workers), (2, 1));
    assert_eq!(stats.vld_busy_ns.len(), 2);
    assert_eq!(stats.recon_busy_ns.len(), 1);
    assert_eq!(stats.bands, stats.pictures, "one recon worker, one band");
    assert!(stats.pictures > 0);
    assert!(stats.wall_ns > 0);
    assert!(stats.model_critical_ns > 0);
}

#[test]
fn zero_recon_workers_runs_one_recon_worker() {
    // A zero on one side only is clamped to one worker — the pipeline
    // needs both stages — and (0, 0) alone is the sequential decoder.
    let data = random_stream(202);
    for (requested, ran) in [((2, 0), (2, 1)), ((0, 2), (1, 2)), ((0, 0), (0, 0))] {
        let mut dec = PipelineDecoder::new(requested.0, requested.1);
        assert_decoder_matches_sequential(&mut dec, &data, &format!("{requested:?}"));
        let stats = dec.stats();
        assert_eq!((stats.vld_workers, stats.recon_workers), ran);
        assert_eq!(stats.sequential_fallback, ran == (0, 0));
        assert_eq!(
            (stats.requested_vld_workers, stats.requested_recon_workers),
            requested
        );
    }
}

#[test]
fn auto_tuning_declines_tiny_pictures() {
    // Every random_stream size tops out at 128×96 = 48 macroblocks per
    // picture — below the auto-parallel threshold — so an auto-tuned
    // decoder must take the sequential path (and still be bit-exact).
    // The stats must still record what was requested and the host CPU
    // count, so benchmarks can publish the clamp decision.
    for (seed, requested) in [(0u64, (8, 0)), (201, (8, 8))] {
        let data = random_stream(seed);
        let mut dec = PipelineDecoder::auto_tuned(requested.0, requested.1);
        assert_decoder_matches_sequential(&mut dec, &data, &format!("auto {requested:?}"));
        let stats = dec.stats();
        assert!(stats.sequential_fallback, "tiny pictures must not pipeline");
        assert_eq!((stats.vld_workers, stats.recon_workers), (0, 0));
        assert!(stats.vld_busy_ns.is_empty());
        assert_eq!(
            (stats.requested_vld_workers, stats.requested_recon_workers),
            requested
        );
        assert!(stats.host_cpus >= 1);
    }
}

#[test]
fn auto_tuning_clamps_workers_to_slice_rows() {
    // 704×48: 44×3 = 132 macroblocks clears the size threshold, but the
    // picture has only 3 slice rows — 8 configured workers clamp to 3.
    let luma = |x, y, t| (x * 3 + y * 11 + t * 5) % 200;
    let data = pattern_stream((704, 48), 6, (4, 1), 8, luma);
    let mut dec = PipelineDecoder::auto_tuned(8, 0);
    assert_decoder_matches_sequential(&mut dec, &data, "704x48 auto (8,0)");
    let stats = dec.stats();
    // The row clamp composes with the host-CPU clamp: on a wide host the
    // 3 slice rows bound the count, on a 1-core CI box the CPU count does.
    let expected = 3.min(host_cpus());
    assert!(!stats.sequential_fallback);
    assert_eq!(
        stats.vld_workers, expected,
        "workers must clamp to min(slice rows, host cpus)"
    );
    assert_eq!(stats.vld_busy_ns.len(), expected);
    assert_eq!(stats.recon_workers, 1, "an unset stage runs one worker");
    assert_eq!(stats.requested_vld_workers, 8);
    assert_eq!(stats.requested_recon_workers, 0);
    assert!(stats.host_cpus >= 1);
    assert!(stats.pictures > 0);
}

#[test]
fn compatibility_view_is_the_engine_at_n_1() {
    // `ParallelVldDecoder` survives only for the frozen `benchmark/`
    // crate; pin what that crate reads until it stops.
    let data = random_stream(1);
    let (seq_frames, seq_result) = decode_sequential(&data);
    let mut dec = tiledec_core::ParallelVldDecoder::new(2);
    let mut frames = Vec::new();
    let result = dec.decode_stream(&data, |f, _| frames.push(f.clone()));
    assert_eq!(result.map(|s| s.pictures), seq_result);
    assert!(frames == seq_frames);
    let stats = dec.stats();
    assert_eq!(stats.busy_ns.len(), 2);
    assert_eq!(stats.fallback_slices, 0);
    assert!(stats.utilization() > 0.0 && stats.imbalance() >= 1.0);

    // A stream the engine declines falls back whole: every slice.
    dec.decode_stream(&data[..data.len() / 2], |_, _| {}).ok();
    assert!(dec.stats().busy_ns.is_empty());
    assert!(dec.stats().fallback_slices > 0);
}
