//! The traced run: every per-layer metric of `metrics::PER_LAYER`,
//! measured from outside by timing calls into each layer's public
//! functions on the workload's own stream.
//!
//! Every workload's traced run probes every layer — the sequential
//! decoder, the parallel decoders, the staged 1-k-(2,2) wall pipeline and
//! the resilient path — so the per-layer table has the same rows for every
//! workload and a layer's cost can be read at all three frame sizes.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use tiledec_bitstream::StartCodeIndex;
use tiledec_cluster::{Bytes, CostModel, NodeId, ThreadCluster};
use tiledec_core::config::predicted_fps;
use tiledec_core::splitter::StreamIndex;
use tiledec_core::vld_parallel::Plan;
use tiledec_core::{split_picture_units, SimulatedSystem, ThreadedSystem};
use tiledec_mpeg2::kernels;
use tiledec_mpeg2::motion::{predict, FrameRefs, PlanePick, RefPick};
use tiledec_mpeg2::parser::parse_picture;
use tiledec_mpeg2::{Frame, MotionVector, StreamDamage};
use tiledec_ps::{demux_video, mux_video, MuxConfig};

use crate::alloc;
use crate::inputs::{concealed_mbs, damage};
use crate::measure::{
    median, median_seconds, ns_per_call, percentile, ratio, run_passes, PassTimes,
};
use crate::metrics::PER_LAYER;
use crate::run::Prepared;
use crate::staged::{self, span, StagedCounts};
use crate::trace::Tracer;
use crate::workloads::{Engine, Runner};

/// Repetitions of each traced pass.
pub const TRACED_PASSES: usize = 3;

/// Passes whose CPU time feeds a ratio run for at least this long: process
/// CPU time has 10 ms ticks, so a ratio needs tens of them on each side.
const CPU_RATIO_SECONDS: f64 = 0.7;

/// What the traced run of one workload measured.
pub struct TracedRun {
    /// One value per entry of [`PER_LAYER`], in that order.
    pub values: Vec<f64>,
    /// Probe passes whose output was checked against the reference.
    pub attempted: u64,
    /// Of those, passes that were wrong.
    pub failed: u64,
    /// Spans of the traced passes.
    pub tracer: Tracer,
    /// Nodes of the staged/threaded system; figures that assume a core per
    /// node are valid only when the host has at least this many.
    pub nodes: usize,
}

/// State shared by the probes.
struct Probe<'a> {
    prep: &'a Prepared,
    /// The clean stream and what the sequential decoder makes of it.
    clean: &'a [u8],
    clean_frames: &'a [Frame],
    /// Its picture units.
    index: StreamIndex,
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
}

impl Probe<'_> {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(crate::metrics::per_layer(name).is_some(), "{name}");
        self.values.insert(name, value);
    }

    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[{}] traced run: {what} is wrong", self.prep.workload.name);
        }
    }

    fn pictures(&self) -> f64 {
        self.clean_frames.len() as f64
    }

    /// One pass of `runner` over the clean stream, checked.
    fn clean_pass(&mut self, runner: &mut Runner, what: &str) {
        let ok = runner
            .pass(self.clean)
            .is_ok_and(|out| runner.correct(&out, self.clean_frames, &StreamDamage::clean()));
        self.check(ok, what);
    }

    /// Timed, checked passes of `runner` over the clean stream; `after`
    /// sees the runner after each pass (its stats are of that pass). With
    /// `spans = (per pass, per picture)`, also records a span per pass and
    /// one per emitted frame, and returns every picture interval in ms.
    fn clean_passes(
        &mut self,
        runner: &mut Runner,
        min_seconds: f64,
        spans: Option<(&'static str, &'static str)>,
        mut after: impl FnMut(&Runner),
    ) -> (PassTimes, Vec<f64>) {
        runner.stamps = spans.map(|_| Vec::new());
        let mut intervals = Vec::new();
        let mut pass = 0u32;
        let times = run_passes(TRACED_PASSES, min_seconds, |watch| {
            let t0 = Instant::now();
            let out = watch.time(|| runner.pass(self.clean));
            let t1 = Instant::now();
            let ok =
                out.is_ok_and(|o| runner.correct(&o, self.clean_frames, &StreamDamage::clean()));
            self.check(ok, "a probe's decode of the clean stream");
            if let (Some((per_pass, per_picture)), Some(stamps)) = (spans, &runner.stamps) {
                self.tracer.pass = pass;
                let parent = self.tracer.record(per_pass, None, -1, t0, t1);
                let mut prev = t0;
                for (n, &at) in stamps.iter().enumerate() {
                    self.tracer
                        .record(per_picture, Some(parent), n as i32, prev, at);
                    intervals.push((at - prev).as_secs_f64() * 1e3);
                    prev = at;
                }
            }
            pass += 1;
            after(runner);
        });
        runner.stamps = None;
        (times, intervals)
    }
}

/// Runs every probe on `prep`'s stream.
pub fn run_traced(prep: &Prepared) -> Result<TracedRun, String> {
    let clean = prep.stream.bytes.as_slice();
    // A damaged workload's reference is of its damaged input; the layer
    // probes decode the clean stream and need the clean reference.
    let own_frames;
    let clean_frames: &[Frame] = if prep.damaged.is_some() {
        own_frames = tiledec_mpeg2::decode_all(clean).map_err(|e| e.to_string())?;
        &own_frames
    } else {
        &prep.reference
    };
    let mut p = Probe {
        prep,
        clean,
        clean_frames,
        index: split_picture_units(clean).map_err(|e| e.to_string())?,
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        tracer: Tracer::default(),
    };

    let scan_ms = scanner(&mut p);
    let parse_ms = parser(&mut p)?;
    let seq = sequential_decoder(&mut p, scan_ms, parse_ms);
    kernel_calls(&mut p);
    frame_access(&mut p);
    resilient(&mut p)?;
    let encode_ms = prep.stream.encode_s * 1e3 / prep.stream.spec.frames as f64;
    p.set("mpeg2.encoder.ms_per_picture", encode_ms);
    program_stream(&mut p);
    vld_parallel(&mut p);
    recon_parallel(&mut p, &seq);
    let staged_ms = staged_wall(&mut p, &seq)?;
    message_passing(&mut p);
    threaded(&mut p, &staged_ms)?;

    let values = PER_LAYER
        .iter()
        .map(|m| {
            p.values
                .get(m.name)
                .copied()
                .ok_or_else(|| format!("traced run did not measure {}", m.name))
        })
        .collect::<Result<Vec<f64>, String>>()?;
    Ok(TracedRun {
        values,
        attempted: p.attempted,
        failed: p.failed,
        tracer: p.tracer,
        nodes: prep.workload.system().nodes(),
    })
}

/// `StartCodeIndex::build` over the whole stream. Returns ms per call.
fn scanner(p: &mut Probe) -> f64 {
    let clean = p.clean;
    let s = p.tracer.begin("scan", None, -1, -1);
    black_box(StartCodeIndex::build(black_box(clean)));
    p.tracer.end(s, clean.len() as u64);
    let calls = (32_000_000 / clean.len().max(1)).clamp(3, 200);
    let ns = ns_per_call(5, calls, || {
        black_box(StartCodeIndex::build(black_box(clean)));
    });
    // Bytes per nanosecond is GB/s.
    p.set(
        "bitstream.scanner.mb_per_s",
        ratio(clean.len() as f64, ns) * 1e3,
    );
    ns / 1e6
}

/// `parse_picture` over every picture unit: headers + VLD, no pixels.
/// Returns ms per pass.
fn parser(p: &mut Probe) -> Result<f64, String> {
    let mut pass_ms = Vec::new();
    let (mut coded, mut bits) = (0usize, 0usize);
    for pass in 0..TRACED_PASSES as u32 {
        p.tracer.pass = pass;
        let parent = p.tracer.begin("parse", None, -1, -1);
        (coded, bits) = (0, 0);
        for (n, &(start, end)) in p.index.units.iter().enumerate() {
            let s = p.tracer.begin("parse_picture", Some(parent), n as i32, -1);
            let parsed =
                parse_picture(&p.clean[start..end], &p.index.seq).map_err(|e| e.to_string())?;
            p.tracer.end(s, (end - start) as u64);
            coded += parsed.coded_mb_count();
            bits += parsed
                .slices
                .iter()
                .flat_map(|s| &s.mbs)
                .map(|mb| mb.bit_end - mb.bit_start)
                .sum::<usize>();
        }
        p.tracer.end(parent, p.clean.len() as u64);
        pass_ms.push(p.tracer.total_ns("parse_picture", pass) as f64 / 1e6);
    }
    let ms = median(&pass_ms);
    p.set("mpeg2.parser.ms_per_picture", ms / p.pictures());
    p.set(
        "mpeg2.parser.ns_per_coded_mb",
        ratio(ms * 1e6, coded as f64),
    );
    p.set(
        "mpeg2.parser.coded_mbs_per_picture",
        coded as f64 / p.pictures(),
    );
    p.set(
        "mpeg2.parser.bits_per_coded_mb",
        ratio(bits as f64, coded as f64),
    );
    Ok(ms)
}

/// Sequential-decoder figures the parallel probes compare against.
struct SequentialBase {
    median_ms: f64,
    cpu_s_per_pass: f64,
}

/// The sequential decoder: whole-decode time, its split into entropy and
/// pixel work (decoder − parser − scanner), and picture intervals.
fn sequential_decoder(p: &mut Probe, scan_ms: f64, parse_ms: f64) -> SequentialBase {
    let mut runner = p.prep.runner(Engine::Sequential);
    p.clean_pass(&mut runner, "sequential warm-up");
    let (plain, _) = p.clean_passes(&mut runner, CPU_RATIO_SECONDS, None, |_| {});
    let spans = Some(("decode", "picture"));
    let (stamped, intervals) = p.clean_passes(&mut runner, 0.0, spans, |_| {});
    let (_, heap) = alloc::measure(|| runner.pass(p.clean).is_ok());

    let ms = plain.median_ms();
    let pictures = p.pictures();
    p.set("mpeg2.decoder.ms_per_picture", ms / pictures);
    p.set(
        "mpeg2.decoder.pixel_ms_per_picture",
        (ms - parse_ms - scan_ms).max(0.0) / pictures,
    );
    p.set("mpeg2.decoder.vld_share", ratio(parse_ms, ms));
    p.set("mpeg2.decoder.picture_interval_p50_ms", median(&intervals));
    p.set(
        "mpeg2.decoder.picture_interval_p95_ms",
        percentile(&intervals, 95.0),
    );
    p.set("mpeg2.decoder.allocs_per_pass", heap.allocs as f64);
    p.set(
        "bench.trace_overhead_pct",
        ratio(stamped.median_ms() - ms, ms) * 100.0,
    );
    SequentialBase {
        median_ms: ms,
        cpu_s_per_pass: plain.cpu_s / plain.wall_ms.len() as f64,
    }
}

/// The `kernels::active()` function pointers on L1-resident operands.
fn kernel_calls(p: &mut Probe) {
    let k = kernels::active();
    const CALLS: usize = 4096;

    // A plausible coefficient block: DC plus a few low-frequency ACs.
    let mut coeffs = [0i32; 64];
    for (i, c) in [240, -37, 22, 0, 13, -9, 0, 5, 31, -18]
        .into_iter()
        .enumerate()
    {
        coeffs[i + (i / 4) * 4] = c;
    }
    p.set(
        "mpeg2.kernels.idct_ns_per_block",
        ns_per_call(5, CALLS, || {
            let mut block = black_box(coeffs);
            (k.idct)(&mut block);
            black_box(&block);
        }),
    );

    let residual: [i32; 64] = std::array::from_fn(|i| (i as i32 * 7) % 61 - 30);
    let mut dst = [128u8; 8 * 16];
    p.set(
        "mpeg2.kernels.add_residual_ns_per_block",
        ns_per_call(5, CALLS, || {
            (k.add_residual)(black_box(&mut dst), 16, black_box(&residual));
        }),
    );

    // One macroblock of prediction: a 16×16 luma and two 8×8 chroma blocks
    // out of a 17-row fetch buffer (the half-pel footprint).
    let src: [u8; 17 * 32] = std::array::from_fn(|i| (i * 31 % 251) as u8);
    let (mut luma, mut chroma) = ([0u8; 256], [0u8; 64]);
    let mut per_mb = |f: fn(&[u8], usize, &mut [u8], usize)| {
        ns_per_call(5, CALLS, || {
            f(black_box(&src), 32, &mut luma, 16);
            f(black_box(&src), 32, &mut chroma, 8);
            f(black_box(&src), 32, &mut chroma, 8);
            black_box((&luma, &chroma));
        })
    };
    let copy = per_mb(k.mc_copy);
    let avg_hv = per_mb(k.mc_avg_hv);
    p.set("mpeg2.kernels.mc_copy_ns_per_mb", copy);
    p.set("mpeg2.kernels.mc_avg_hv_ns_per_mb", avg_hv);
}

/// `motion::predict` and aligned 16×16 `Plane::extract_into`/`insert` on
/// planes of the workload's own size, row-major against macroblock-tiled:
/// the access mix of `decode_bench`'s `mc_locality` group, at a working set
/// that matches the workload.
fn frame_access(p: &mut Probe) {
    let (w, h) = (p.prep.stream.width(), p.prep.stream.height());
    let mut s = 0x9E37_79B9_7F4A_7C15u64 ^ p.prep.seed;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let noise: Vec<u8> = (0..w * h).map(|_| next() as u8).collect();
    let mut row_major = Frame::black(w, h);
    let mut tiled = Frame::zeroed_tiled(w, h);
    for f in [&mut row_major, &mut tiled] {
        f.y.insert(0, 0, w, h, &noise);
        f.cb.insert(0, 0, w / 2, h / 2, &noise[..w * h / 4]);
        f.cr.insert(0, 0, w / 2, h / 2, &noise[..w * h / 4]);
    }
    drop(noise);
    let (mbw, mbh) = (w / 16, h / 16);
    // One vector per macroblock: a quarter zero motion, the rest uniform
    // in ±64 half-pel with random parity.
    let mvs: Vec<MotionVector> = (0..mbw * mbh)
        .map(|_| {
            if next() % 4 == 0 {
                MotionVector::ZERO
            } else {
                MotionVector::new((next() % 129) as i16 - 64, (next() % 129) as i16 - 64)
            }
        })
        .collect();
    // Block I/O visits macroblocks in random order: halo exchange is
    // demand-driven, not raster-ordered.
    let mut order: Vec<(usize, usize)> = (0..mbh)
        .flat_map(|y| (0..mbw).map(move |x| (x, y)))
        .collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let mbs = (mbw * mbh) as f64;

    let predict_ns = |frame: &Frame| {
        let refs = FrameRefs {
            fwd: frame,
            bwd: frame,
        };
        let (mut y, mut c) = ([0u8; 256], [0u8; 64]);
        median_seconds(TRACED_PASSES, || {
            for (i, &mv) in mvs.iter().enumerate() {
                let (mx, my) = (i % mbw, i / mbw);
                predict(
                    &refs,
                    RefPick::Forward,
                    PlanePick::Y,
                    mx * 16,
                    my * 16,
                    16,
                    mv,
                    &mut y,
                );
                predict(
                    &refs,
                    RefPick::Forward,
                    PlanePick::Cb,
                    mx * 8,
                    my * 8,
                    8,
                    mv,
                    &mut c,
                );
                predict(
                    &refs,
                    RefPick::Forward,
                    PlanePick::Cr,
                    mx * 8,
                    my * 8,
                    8,
                    mv,
                    &mut c,
                );
                black_box((&y, &c));
            }
        }) * 1e9
            / mbs
    };
    let block_ns = |frame: &mut Frame| {
        let mut block = [0u8; 256];
        median_seconds(TRACED_PASSES, || {
            for &(x, y) in &order {
                frame.y.extract_into(x * 16, y * 16, 16, 16, &mut block);
                black_box(&block);
                frame.y.insert(x * 16, y * 16, 16, 16, &block);
            }
        }) * 1e9
            / mbs
    };
    let values = [
        (
            "mpeg2.motion.predict_row_major_ns_per_mb",
            predict_ns(&row_major),
        ),
        ("mpeg2.motion.predict_tiled_ns_per_mb", predict_ns(&tiled)),
        (
            "mpeg2.frame.block_io_row_major_ns_per_mb",
            block_ns(&mut row_major),
        ),
        ("mpeg2.frame.block_io_tiled_ns_per_mb", block_ns(&mut tiled)),
    ];
    for (name, v) in values {
        p.set(name, v);
    }
}

/// The error side: `repair_stream`, and a damaged pass against a clean one.
fn resilient(p: &mut Probe) -> Result<(), String> {
    let prep = p.prep;
    let own;
    let (bytes, frames, ledger) = match &prep.damaged {
        Some(d) => (d.bytes.as_slice(), prep.reference.as_slice(), &prep.ledger),
        None => {
            own = damage(p.clean, prep.seed)?;
            (own.bytes.as_slice(), own.frames.as_slice(), &own.ledger)
        }
    };
    let repair_s = median_seconds(TRACED_PASSES, || {
        black_box(tiledec_mpeg2::repair_stream(bytes).is_ok());
    });
    let mut damaged_ok = true;
    let damaged_s = median_seconds(TRACED_PASSES, || {
        let out = tiledec_mpeg2::decode_all_resilient(bytes);
        damaged_ok &= out.is_ok_and(|(f, l)| f == frames && &l == ledger);
    });
    p.check(damaged_ok, "resilient decode of the damaged stream");
    let mut clean_ok = true;
    let clean_s = median_seconds(TRACED_PASSES, || {
        let out = tiledec_mpeg2::decode_all(p.clean);
        clean_ok &= out.is_ok_and(|f| f == p.clean_frames);
    });
    p.check(clean_ok, "decode_all of the clean stream");

    p.set(
        "mpeg2.resilient.repair_ms_per_picture",
        repair_s * 1e3 / p.pictures(),
    );
    p.set(
        "mpeg2.resilient.mbs_concealed",
        concealed_mbs(ledger) as f64,
    );
    p.set(
        "mpeg2.resilient.slowdown_vs_clean",
        ratio(damaged_s, clean_s),
    );
    Ok(())
}

/// `mux_video` then `demux_video` of the stream.
fn program_stream(p: &mut Probe) {
    let units: Vec<(usize, usize, u64)> = p
        .index
        .units
        .iter()
        .enumerate()
        .map(|(i, &(s, e))| (s, e, i as u64))
        .collect();
    let ps = mux_video(p.clean, &units, &MuxConfig::default());
    let mut ok = true;
    let s = median_seconds(TRACED_PASSES, || {
        ok &= demux_video(&ps).is_ok_and(|d| d.video_es == p.clean);
    });
    p.check(ok, "program-stream demux");
    p.set("ps.demux.mb_per_s", ratio(ps.len() as f64 / 1e6, s));
}

/// `Plan::build` and `ParallelVldDecoder::new(2)`.
fn vld_parallel(p: &mut Probe) {
    let plan_s = median_seconds(TRACED_PASSES, || {
        black_box(Plan::build(black_box(p.clean)));
    });
    let mut runner = p.prep.runner(Engine::VldParallel);
    p.clean_pass(&mut runner, "vld_parallel warm-up");
    let mut stats = [Vec::new(), Vec::new(), Vec::new()];
    let (times, _) = p.clean_passes(&mut runner, 0.0, None, |runner| {
        let st = runner.vld_stats().expect("the runner is a VLD decoder");
        stats[0].push(st.utilization());
        stats[1].push(st.imbalance());
        stats[2].push(st.fallback_slices as f64);
    });
    let pictures = p.pictures();
    p.set(
        "core.vld_parallel.plan_ms_per_picture",
        plan_s * 1e3 / pictures,
    );
    p.set(
        "core.vld_parallel.ms_per_picture",
        times.median_ms() / pictures,
    );
    p.set("core.vld_parallel.utilization", median(&stats[0]));
    p.set("core.vld_parallel.imbalance", median(&stats[1]));
    p.set("core.vld_parallel.fallback_slices", median(&stats[2]));
}

/// One persistent `PipelineDecoder::new(2, 2)`.
fn recon_parallel(p: &mut Probe, seq: &SequentialBase) {
    let mut runner = p.prep.runner(Engine::Pipeline);
    p.clean_pass(&mut runner, "pipeline warm-up");
    let mut stats: [Vec<f64>; 6] = Default::default();
    let spans = Some(("pipeline.decode", "pipeline.picture"));
    let (times, intervals) = p.clean_passes(&mut runner, CPU_RATIO_SECONDS, spans, |runner| {
        let st = runner.pipeline_stats().expect("the runner is a pipeline");
        let per_picture_ms = |ns: u64| ns as f64 / 1e6 / st.pictures.max(1) as f64;
        stats[0].push(st.utilization());
        stats[1].push(st.imbalance());
        stats[2].push(per_picture_ms(st.vld_stage_ns));
        stats[3].push(per_picture_ms(st.recon_stage_ns));
        stats[4].push(per_picture_ms(st.assemble_ns));
        stats[5].push(st.single_band_pictures as f64);
    });
    let (_, heap) = alloc::measure(|| runner.pass(p.clean).is_ok());

    let ms = times.median_ms();
    let cpu_s_per_pass = times.cpu_s / times.wall_ms.len() as f64;
    p.set("core.recon_parallel.ms_per_picture", ms / p.pictures());
    p.set(
        "core.recon_parallel.speedup_vs_seq",
        ratio(seq.median_ms, ms),
    );
    p.set(
        "core.recon_parallel.cpu_ratio_vs_seq",
        ratio(cpu_s_per_pass, seq.cpu_s_per_pass),
    );
    p.set("core.recon_parallel.utilization", median(&stats[0]));
    p.set("core.recon_parallel.imbalance", median(&stats[1]));
    p.set(
        "core.recon_parallel.vld_stage_ms_per_picture",
        median(&stats[2]),
    );
    p.set(
        "core.recon_parallel.recon_stage_ms_per_picture",
        median(&stats[3]),
    );
    p.set(
        "core.recon_parallel.assemble_ms_per_picture",
        median(&stats[4]),
    );
    p.set(
        "core.recon_parallel.single_band_pictures",
        median(&stats[5]),
    );
    p.set(
        "core.recon_parallel.picture_interval_p95_ms",
        percentile(&intervals, 95.0),
    );
    p.set("core.recon_parallel.allocs_per_pass", heap.allocs as f64);
}

/// Staged-replay figures the threaded probe builds on, per picture.
struct StagedBase {
    /// Σ of every staged layer span, ms per picture.
    cpu_ms: f64,
    /// Macroblock split time t_s, seconds per picture.
    split_s: f64,
    /// Slowest tile's decode time, mean over pictures, seconds.
    decode_max_s: f64,
}

/// The 1-k-(2,2) pipeline staged on one thread.
fn staged_wall(p: &mut Probe, seq: &SequentialBase) -> Result<StagedBase, String> {
    let cfg = p.prep.workload.system();
    // Per-pass values of every derived figure; medians across passes.
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counts = StagedCounts::default();
    for pass in 0..TRACED_PASSES as u32 {
        p.tracer.pass = pass;
        let (frames, c) = staged::replay(p.clean, &cfg, &mut p.tracer)?;
        p.check(frames == p.clean_frames, "staged wall replay");
        counts = c;
        let tr = &p.tracer;
        let pictures = counts.pictures as f64;
        let ms = |name: &str| tr.total_ns(name, pass) as f64 / 1e6;
        let per_picture = |name: &str| ms(name) / pictures;
        // Tile-decode spans of this pass: per-tile totals and the slowest
        // tile of each picture.
        let mut tile_total = vec![0.0; counts.tiles];
        let mut picture_max = vec![0.0f64; counts.pictures];
        for s in tr
            .spans
            .iter()
            .filter(|s| s.name == span::TILE_DECODE && s.pass == pass)
        {
            let d = s.dur_ns() as f64 / 1e6;
            tile_total[s.tile as usize] += d;
            let slot = &mut picture_max[s.picture as usize];
            *slot = slot.max(d);
        }
        let decode_sum: f64 = tile_total.iter().sum();
        let tile_mean = decode_sum / counts.tiles as f64;
        let slowest_tile = tile_total.iter().copied().fold(0.0, f64::max);
        let work_unit_kb = counts.work_unit_bytes as f64 / 1e3;
        let blocks = counts.blocks as f64;
        let staged_sum: f64 = span::ALL.iter().map(|n| ms(n)).sum();

        let mut put = |name: &'static str, v: f64| by_name.entry(name).or_default().push(v);
        put(
            "core.splitter.root_ms_per_picture",
            per_picture(span::ROOT_INDEX),
        );
        put(
            "core.splitter.split_ms_per_picture",
            per_picture(span::SPLIT),
        );
        put(
            "core.splitter.ns_per_mb",
            per_picture(span::SPLIT) * 1e6 / p.prep.stream.mbs_per_picture() as f64,
        );
        put(
            "core.subpicture.encode_ns_per_kb",
            ratio(ms(span::WIRE_ENCODE) * 1e6, work_unit_kb),
        );
        put(
            "core.subpicture.decode_ns_per_kb",
            ratio(ms(span::WIRE_DECODE) * 1e6, work_unit_kb),
        );
        put(
            "core.mei.serve_ms_per_picture",
            per_picture(span::MEI_SERVE),
        );
        put(
            "core.mei.apply_ms_per_picture",
            per_picture(span::MEI_APPLY),
        );
        put(
            "core.protocol.blocks_encode_ns_per_block",
            ratio(ms(span::BLOCKS_ENCODE) * 1e6, blocks),
        );
        put(
            "core.protocol.blocks_decode_ns_per_block",
            ratio(ms(span::BLOCKS_DECODE) * 1e6, blocks),
        );
        put(
            "core.tile_decoder.decode_ms_per_picture_mean",
            tile_mean / pictures,
        );
        put(
            "core.tile_decoder.decode_ms_per_picture_max",
            picture_max.iter().sum::<f64>() / pictures,
        );
        put(
            "core.tile_decoder.sum_ms_per_picture",
            decode_sum / pictures,
        );
        put(
            "core.tile_decoder.imbalance",
            ratio(slowest_tile, tile_mean),
        );
        put(
            "core.tile_decoder.work_ratio_vs_seq",
            ratio(decode_sum, seq.median_ms),
        );
        put(
            "wall.assemble_ms_per_picture",
            per_picture(span::WALL_SET_TILE) + per_picture(span::WALL_ASSEMBLE),
        );
        put(
            "core.threaded.staged_cpu_ms_per_picture",
            staged_sum / pictures,
        );
    }
    let med = |name: &str| median(&by_name[name]);
    let base = StagedBase {
        cpu_ms: med("core.threaded.staged_cpu_ms_per_picture"),
        split_s: med("core.splitter.split_ms_per_picture") / 1e3,
        decode_max_s: med("core.tile_decoder.decode_ms_per_picture_max") / 1e3,
    };
    for (name, values) in &by_name {
        p.set(name, median(values));
    }

    // Exact counts, identical in every pass.
    let pictures = counts.pictures as f64;
    p.set(
        "core.splitter.subpicture_bytes_per_picture",
        counts.subpicture_bytes as f64 / pictures,
    );
    p.set(
        "core.splitter.overhead_bytes_per_picture",
        counts.overhead_bytes as f64 / pictures,
    );
    p.set(
        "core.mei.instructions_per_picture",
        counts.mei_instructions as f64 / pictures,
    );
    p.set(
        "core.mei.blocks_per_picture",
        counts.blocks as f64 / pictures,
    );
    p.set(
        "core.mei.bytes_per_kpixel",
        (counts.blocks as usize * tiledec_core::mei::BLOCK_WIRE_BYTES) as f64
            / pictures
            / p.prep.stream.kpixels(),
    );
    Ok(base)
}

/// Two-thread ping-pong and a picture-unit-sized one-way stream over
/// `ThreadCluster` endpoints.
fn message_passing(p: &mut Probe) {
    const ROUND_TRIPS: usize = 2000;
    const MESSAGES: usize = 200;
    let unit_len = p.clean.len() / p.index.units.len().max(1);
    let unit = &p.clean[..unit_len];

    let mut cluster = ThreadCluster::new(2);
    let a = cluster.take_endpoint(0);
    let b = cluster.take_endpoint(1);
    // A two-node cluster nobody poisons cannot fail a send or a receive.
    const HEALTHY: &str = "healthy two-node cluster";
    let (roundtrip_s, stream_s) = std::thread::scope(|scope| {
        // Node 1 echoes the ping-pong, drains the one-way stream and echoes
        // its last message, so node 0 knows when everything was taken.
        scope.spawn(move || {
            for i in 0..ROUND_TRIPS + MESSAGES {
                let m = b.recv().expect(HEALTHY);
                b.recycle(&m);
                if i < ROUND_TRIPS || i + 1 == ROUND_TRIPS + MESSAGES {
                    b.send(NodeId(0), 0, m.payload).expect(HEALTHY);
                }
            }
        });
        let ping = Bytes::from(&[0u8; 8][..]);
        let t0 = Instant::now();
        for _ in 0..ROUND_TRIPS {
            a.send(NodeId(1), 0, ping.clone()).expect(HEALTHY);
            a.recycle(&a.recv().expect(HEALTHY));
        }
        let roundtrip_s = t0.elapsed().as_secs_f64();
        // Each message is copied into a fresh buffer, as the root does
        // with every picture unit.
        let t0 = Instant::now();
        for _ in 0..MESSAGES {
            a.send(NodeId(1), 0, Bytes::from(unit)).expect(HEALTHY);
        }
        a.recycle(&a.recv().expect(HEALTHY));
        (roundtrip_s, t0.elapsed().as_secs_f64())
    });
    p.set(
        "cluster.gm.roundtrip_us",
        roundtrip_s * 1e6 / ROUND_TRIPS as f64,
    );
    p.set(
        "cluster.gm.payload_mb_per_s",
        ratio((MESSAGES * unit_len) as f64 / 1e6, stream_s),
    );
}

/// The live threaded system: exact traffic, CPU against the staged sum,
/// and the two throughput models against what it measured.
fn threaded(p: &mut Probe, staged: &StagedBase) -> Result<(), String> {
    let cfg = p.prep.workload.system();
    let system = ThreadedSystem::new(cfg);
    let mut traffic = Vec::new();
    let times = run_passes(2, CPU_RATIO_SECONDS, |watch| {
        let played = watch.time(|| system.play(p.clean));
        let ok = played
            .as_ref()
            .is_ok_and(|r| r.frames == p.clean_frames && r.damage.clean);
        p.check(ok, "threaded play");
        if let Ok(r) = played {
            traffic = r.traffic;
        }
    });
    // Node layout: root, k splitters, then the decoders.
    let k = cfg.k;
    let link_bytes = |from: std::ops::Range<usize>, to: std::ops::Range<usize>| -> f64 {
        from.flat_map(|f| to.clone().map(move |t| (f, t)))
            .map(|(f, t)| {
                traffic
                    .get(f)
                    .and_then(|row| row.get(t))
                    .copied()
                    .unwrap_or(0)
            })
            .sum::<u64>() as f64
    };
    let n = cfg.nodes();
    let pictures = p.pictures();
    let root_to_split = link_bytes(0..1, 1..1 + k);
    let split_to_dec = link_bytes(1..1 + k, 1 + k..n);
    let dec_to_dec = link_bytes(1 + k..n, 1 + k..n);
    let total = link_bytes(0..n, 0..n);
    p.set(
        "core.threaded.bytes_root_to_split_per_picture",
        root_to_split / pictures,
    );
    p.set(
        "core.threaded.bytes_split_to_dec_per_picture",
        split_to_dec / pictures,
    );
    p.set(
        "core.threaded.bytes_dec_to_dec_per_picture",
        dec_to_dec / pictures,
    );
    p.set(
        "core.threaded.wire_bytes_per_kpixel",
        total / pictures / p.prep.stream.kpixels(),
    );
    let passes = times.wall_ms.len() as f64;
    let cpu_ms_per_picture = times.cpu_s * 1e3 / passes / pictures;
    p.set(
        "core.threaded.runtime_overhead_ratio",
        ratio(cpu_ms_per_picture, staged.cpu_ms),
    );

    let measured_pps = pictures / (times.median_ms() / 1e3);
    p.set(
        "core.config.predicted_pps",
        predicted_fps(k, staged.split_s, staged.decode_max_s),
    );
    let simulated = SimulatedSystem::new(cfg, CostModel::myrinet_2002())
        .run(p.clean)
        .map_err(|e| e.to_string())?;
    p.set("core.simulated.predicted_pps", simulated.report.fps);
    p.set(
        "core.simulated.model_error_pct",
        ratio(simulated.report.fps - measured_pps, measured_pps).abs() * 100.0,
    );
    Ok(())
}
