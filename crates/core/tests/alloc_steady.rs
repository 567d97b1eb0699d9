//! Steady-state allocation audit of the tile-decoder hot path.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up GOP has filled the decoder's frame pool, every further
//! `TileDecoder::decode` call must perform **zero** heap allocations —
//! the per-picture working frames all come from recycled pool frames,
//! macroblock coefficient blocks live on the stack, and motion
//! compensation borrows reference regions instead of copying. Display
//! tiles are cropped into recycled frames that are *not* zeroed first, so
//! the audit hands every frame back full of garbage and checks the pixels
//! of each later tile against the sequential decoder.
//!
//! The same counter audits the node-local pipeline's inter-frame windows
//! and the sequential decoder's allocations per pass.
//!
//! This file deliberately holds a single test: the allocator counter is
//! process-global, and a concurrent test would perturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: pure pass-through to `System` plus a relaxed atomic bump —
// every GlobalAlloc contract obligation is delegated unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: caller upholds the GlobalAlloc contract; forwarded verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use tiledec_core::recon_parallel::PipelineDecoder;
use tiledec_core::splitter::{split_picture_units, MacroblockSplitter};
use tiledec_core::tile_decoder::TileDecoder;
use tiledec_core::SystemConfig;
use tiledec_mpeg2::encoder::{Encoder, EncoderConfig};
use tiledec_mpeg2::frame::{Frame, FramePool};
use tiledec_mpeg2::Decoder;

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

#[test]
fn steady_state_decode_is_allocation_free() {
    // Two GOPs with B pictures and cross-tile motion; the first GOP warms
    // the frame pool, the second is audited.
    let (w, h, gop, frames) = (128u32, 64u32, 6usize, 12usize);
    let mut ecfg = EncoderConfig::for_size(w, h);
    ecfg.gop_size = gop as u32;
    ecfg.b_frames = 1;
    ecfg.qscale = 6;
    ecfg.search_range = 15;
    let stream = Encoder::new(ecfg)
        .unwrap()
        .encode(&clip(w as usize, h as usize, frames))
        .unwrap();

    let reference = tiledec_mpeg2::decode_all(&stream).unwrap();
    let index = split_picture_units(&stream).unwrap();
    let seq = index.seq.clone();
    let cfg = SystemConfig::new(0, (2, 1));
    let geom = cfg.geometry(seq.width, seq.height).unwrap();
    let splitter = MacroblockSplitter::new(geom, seq.clone());
    let mut decoders: Vec<TileDecoder> = geom
        .iter_tiles()
        .map(|t| TileDecoder::new(geom, t, seq.clone(), cfg.halo_margin))
        .collect();

    // Split everything up front so only `decode` runs inside the window.
    let outs: Vec<_> = index
        .units
        .iter()
        .enumerate()
        .map(|(p, &(s, e))| splitter.split(p as u32, &stream[s..e]).unwrap())
        .collect();

    let mut audited: Vec<(usize, usize, u64)> = Vec::with_capacity(frames * 2);
    for (p, out) in outs.iter().enumerate() {
        let kind = out.info.kind;
        // MEI exchange (unmeasured: the serve path batches into Vecs).
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
        for (d, dec) in decoders.iter_mut().enumerate() {
            let before = ALLOCS.load(Ordering::Relaxed);
            let displayed = dec.decode(&out.subpictures[d]).unwrap();
            let after = ALLOCS.load(Ordering::Relaxed);
            // Consumers return display frames to the pool (outside the
            // measured window, as a real display loop would after blit) —
            // here scribbled over, because the crop that reuses them must
            // not depend on what they hold.
            if let Some(mut dt) = displayed {
                let r = geom.tile_mb_rect(geom.tile_at(d));
                let (x, y, w, h) = (r.x0 as usize, r.y0 as usize, r.w as usize, r.h as usize);
                let shown = &reference[dt.display_index as usize];
                assert!(
                    dt.frame == FramePool::new().acquire_crop(shown, x, y, w, h),
                    "picture {p} decoder {d}: tile differs from the sequential crop"
                );
                for plane in [&mut dt.frame.y, &mut dt.frame.cb, &mut dt.frame.cr] {
                    plane.fill(0xA5);
                }
                dec.recycle(dt.frame);
            }
            audited.push((p, d, after - before));
        }
    }

    // Warm-up may allocate (pool filling, placeholder init). After one
    // full GOP every decode must be allocation-free.
    let steady: Vec<_> = audited.iter().filter(|(p, _, _)| *p >= gop).collect();
    assert!(!steady.is_empty());
    for (p, d, n) in steady {
        assert_eq!(
            *n, 0,
            "picture {p} decoder {d}: {n} heap allocations in steady state"
        );
    }

    // Concealment shares the budget: with the pool warm, synthesizing a
    // temporal-copy picture for a lost work unit must also be free — it
    // acquires recycled pool frames and blits, nothing else.
    for (d, dec) in decoders.iter_mut().enumerate() {
        let before = ALLOCS.load(Ordering::Relaxed);
        let displayed = dec.conceal_picture();
        let after = ALLOCS.load(Ordering::Relaxed);
        if let Some(dt) = displayed {
            dec.recycle(dt.frame);
        }
        assert_eq!(
            after - before,
            0,
            "decoder {d}: concealment allocated in steady state"
        );
    }

    // So does the end-of-stream flush, which crops the newest reference
    // into a recycled frame only now.
    for (d, dec) in decoders.iter_mut().enumerate() {
        let before = ALLOCS.load(Ordering::Relaxed);
        let last = dec.flush();
        let after = ALLOCS.load(Ordering::Relaxed);
        assert!(last.is_some(), "decoder {d}: the newest reference is held");
        assert_eq!(after - before, 0, "decoder {d}: flush allocated");
    }

    pipeline_steady_state_is_allocation_free();
    sequential_allocations_do_not_grow_with_picture_count();
    coverage_scratch_allocates_nothing_per_picture();
}

/// `stream` without the second slice row of any picture: every picture
/// ends with macroblocks nobody wrote, which its decoder must zero.
fn without_second_row(stream: &[u8]) -> Vec<u8> {
    let index = tiledec_bitstream::StartCodeIndex::build(stream);
    let codes = index.codes();
    let mut out = Vec::with_capacity(stream.len());
    for (i, c) in codes.iter().enumerate() {
        let end = codes.get(i + 1).map_or(stream.len(), |n| n.offset);
        if c.code != 2 {
            out.extend_from_slice(&stream[c.offset..end]);
        }
    }
    out
}

/// Frames and band buffers come out of their pools stale, and an
/// `MbCoverage` bitmap beside each pool says what to zero when a picture
/// ends. The bitmaps are scratch sized once per decoder (per worker, in the
/// engine): on a stream that makes every picture zero a row, the sequential
/// decoder still allocates the same for N pictures as for 2N, and tile
/// decoders and the engine still allocate nothing in steady state.
///
/// Called from the single `#[test]`, like the audits above.
fn coverage_scratch_allocates_nothing_per_picture() {
    let encode = |w: u32, h: u32, gop: u32, b: u32, frames: usize| {
        let mut ecfg = EncoderConfig::for_size(w, h);
        ecfg.gop_size = gop;
        ecfg.b_frames = b;
        ecfg.qscale = 6;
        let clean = Encoder::new(ecfg)
            .unwrap()
            .encode(&clip(w as usize, h as usize, frames))
            .unwrap();
        without_second_row(&clean)
    };

    // Sequential decoder.
    let pass_allocs = |frames: usize| {
        let stream = encode(128, 96, 6, 1, frames);
        let mut zero_rows = 0usize;
        let before = ALLOCS.load(Ordering::Relaxed);
        Decoder::new()
            .decode_stream(&stream, |f, _| {
                zero_rows += f.y.row(16).iter().all(|&v| v == 0) as usize;
            })
            .expect("missing slices are legal");
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(zero_rows, frames, "every picture had its cut row zeroed");
        allocs
    };
    let (short, long) = (pass_allocs(12), pass_allocs(24));
    assert_eq!(
        long, short,
        "sequential decode with uncovered rows: {short} allocations for 12 pictures, {long} for 24"
    );

    // The engine, on the all-I shape its audit needs (see above).
    audit_pipeline(&encode(128, 96, 1, 0, 24), 24, 2, 2);

    // Tile decoders: one warm-up GOP, then nothing.
    let (gop, frames) = (6usize, 12usize);
    let stream = encode(128, 64, gop as u32, 1, frames);
    let index = split_picture_units(&stream).unwrap();
    let cfg = SystemConfig::new(0, (2, 1));
    let geom = cfg.geometry(index.seq.width, index.seq.height).unwrap();
    let splitter = MacroblockSplitter::new(geom, index.seq.clone());
    let mut decoders: Vec<TileDecoder> = geom
        .iter_tiles()
        .map(|t| TileDecoder::new(geom, t, index.seq.clone(), cfg.halo_margin))
        .collect();
    let outs: Vec<_> = index
        .units
        .iter()
        .enumerate()
        .map(|(p, &(s, e))| splitter.split(p as u32, &stream[s..e]).unwrap())
        .collect();
    for (p, out) in outs.iter().enumerate() {
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
        for (d, dec) in decoders.iter_mut().enumerate() {
            let before = ALLOCS.load(Ordering::Relaxed);
            let displayed = dec.decode(&out.subpictures[d]).unwrap();
            let n = ALLOCS.load(Ordering::Relaxed) - before;
            if let Some(dt) = displayed {
                assert!(
                    dt.frame.y.row(16).iter().all(|&v| v == 0),
                    "picture {p} decoder {d}: the cut row reads zero"
                );
                dec.recycle(dt.frame);
            }
            assert!(
                p < gop || n == 0,
                "picture {p} decoder {d}: {n} heap allocations with rows to zero"
            );
        }
    }
}

/// The sequential [`Decoder`] recycles its picture buffers through its
/// own `FramePool` and builds error strings lazily, so what a whole
/// `decode_stream` pass allocates is a handful of buffers however long the
/// stream is. Decoding the same clip at N and 2N pictures must therefore
/// allocate the same number of times.
///
/// Called from the single `#[test]` for the same reason as the pipeline
/// audit.
fn sequential_allocations_do_not_grow_with_picture_count() {
    let (w, h, frames) = (128u32, 96u32, 12usize);
    let mut ecfg = EncoderConfig::for_size(w, h);
    ecfg.gop_size = 6;
    ecfg.b_frames = 1;
    ecfg.qscale = 6;
    let pass_allocs = |frames: usize| {
        let stream = Encoder::new(ecfg.clone())
            .unwrap()
            .encode(&clip(w as usize, h as usize, frames))
            .unwrap();
        let mut pictures = 0usize;
        let before = ALLOCS.load(Ordering::Relaxed);
        Decoder::new()
            .decode_stream(&stream, |_, _| pictures += 1)
            .expect("sequential decode");
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert_eq!(pictures, frames, "one callback per picture");
        allocs
    };
    let (short, long) = (pass_allocs(frames), pass_allocs(2 * frames));
    assert!(short > 0, "the counter must see the picture buffers");
    assert_eq!(
        long, short,
        "sequential decode: {short} allocations for {frames} pictures, {long} for twice as many"
    );
}

/// The pipelined (VLD ‖ band-recon) decoder's recon pools share the
/// zero-steady-state-allocation contract: `Coord::new` pre-warms every
/// pool from the plan before the first `on_frame` callback, recordings /
/// band buffers / frames circulate round-robin, so once the first few
/// pictures have pushed capacity high-water marks, the window **between
/// consecutive `on_frame` callbacks** must be allocation-free — on the
/// coordinator *and* on every worker thread (the counter is global).
///
/// Called from the tile-decoder audit above rather than registered as a
/// second `#[test]`: a concurrently running test would perturb the
/// process-global counter.
fn pipeline_steady_state_is_allocation_free() {
    // All-I pictures: every picture is structurally identical, so slice
    // recording sizes are uniform and every circulating recording reaches
    // its capacity high-water mark during the warm-up prefix — making the
    // steady-state window deterministic rather than scheduling-dependent.
    let (w, h, frames) = (128u32, 96u32, 24usize);
    let mut ecfg = EncoderConfig::for_size(w, h);
    ecfg.gop_size = 1;
    ecfg.b_frames = 0;
    ecfg.qscale = 6;
    let stream = Encoder::new(ecfg)
        .unwrap()
        .encode(&clip(w as usize, h as usize, frames))
        .unwrap();

    // (1, 2): one VLD worker makes each picture a single full-length
    // range, so the recording-vector population is fixed after the
    // initial dispatch burst regardless of how the cost EWMA partitions
    // would jitter. Band partitions may still shift with measured pixel
    // cost, but bands share recordings read-only and band buffers are
    // pre-warmed to the worst-case split, so no allocation rides on the
    // jitter.
    audit_pipeline(&stream, frames, 1, 2);
    // (2, 1): what every former `ParallelVldDecoder` caller now runs (that
    // engine allocated a `Vec` per job and two `HashMap`s per decode).
    audit_pipeline(&stream, frames, 2, 1);
}

fn audit_pipeline(stream: &[u8], frames: usize, vld: usize, recon: usize) {
    let mut dec = PipelineDecoder::new(vld, recon);
    let mut between: Vec<u64> = Vec::with_capacity(frames + 1);
    let mut last = ALLOCS.load(Ordering::Relaxed);
    dec.decode_stream(stream, |_f: &Frame, _| {
        let now = ALLOCS.load(Ordering::Relaxed);
        between.push(now - last);
        last = now;
    })
    .expect("pipelined decode");
    assert!(
        !dec.stats().sequential_fallback,
        "stream must take the pipelined fast path for the audit to mean anything"
    );
    assert_eq!(between.len(), frames, "one callback per picture");

    // Warm-up may allocate (pool vecs growing to their high-water marks,
    // EWMA map inserts). After two-thirds of the clip every inter-frame
    // window must be allocation-free.
    let warmup = frames * 2 / 3;
    for (i, n) in between.iter().enumerate().skip(warmup) {
        assert_eq!(
            *n,
            0,
            "({vld},{recon}) decode: {n} heap allocations between frames {} and {i}",
            i - 1
        );
    }
}
