//! End-to-end decode throughput benchmark with a perf-regression gate.
//!
//! Decodes workload presets two ways — the sequential reference decoder
//! and a tiled 2×2 decoder bank fed by the real macroblock splitter —
//! under both the scalar kernel set and the best kernel set in effect
//! (host SIMD detection, overridable with `TILEDEC_KERNELS`), and counts
//! steady-state heap allocations with a counting global allocator. A
//! separate instrumented pass per preset collects the per-stage wall-time
//! split (start-code scan / header + VLD / pixel work) through
//! [`tiledec_mpeg2::timing`]; stage hooks stay disabled during the timed
//! passes. Results go to stdout (or `--out`) as JSON.
//!
//! A third family of passes measures the node-local parallel engine
//! (`tiledec_core::PipelineDecoder`) along two scaling curves, one per
//! stage: `vld_parallel` sweeps the VLD stage over 1, 2, 4 and 8 workers
//! with one recon worker, `recon_parallel` sweeps the recon stage with
//! two VLD workers. Each point carries the swept stage's per-worker
//! utilization/imbalance and a critical-path model throughput
//! (`model_pps` — what the decode costs once both stages overlap on
//! enough cores; wall-clock `pps` on a single-core host shows the
//! coordination overhead instead). When `TILEDEC_VLD_WORKERS` and/or
//! `TILEDEC_RECON_WORKERS` is set, the timed sequential passes
//! (`scalar_pps`/`best_pps`) also run through the engine, which is how
//! CI smoke-tests the parallel path under the regression gate.
//!
//! A fourth pass, `mc_locality`, isolates the reference-frame storage
//! layout against two byte-identical HD reference frames — one
//! macroblock-tiled, one row-major. Two sweeps run identically against
//! both layouts. The gated one is block-granular reference I/O: aligned
//! 16×16 extract + insert at pseudo-random macroblock positions — the
//! MEI halo-exchange/recon-store primitive the tiled layout exists for —
//! published as `mc_block_*` (`mc_block_ratio` > 1 means tiled wins).
//! The second is a random-MV interpolated-prediction sweep, published as
//! `mc_predict_*` for transparency but not gated: a 17×17 half-pel
//! footprint never fits a 16×16 tile, so tiled prediction always
//! gathers while row-major borrows zero-copy, and the ratio sits below
//! 1 by design (which is why the sequential decoder keeps row-major
//! frames). The `--check` gate holds `mc_block_tiled_pps` and
//! `mc_block_ratio` to the same 25% floor as the throughput numbers
//! (best-kernel runs only, like `vld4_pps`).
//!
//! `BENCH_decode.json` at the repository root is the committed baseline.
//! CI re-runs this binary with `--check BENCH_decode.json`, which fails
//! if sequential pixels/sec on any preset drops more than 25% below the
//! baseline — `scalar_pps`, `best_pps` and the 4-worker `vld4_pps` point
//! are gated, and when the active kernel set *is* scalar (e.g.
//! `TILEDEC_KERNELS=scalar`) the best-kernel numbers are gated against
//! the baseline's scalar numbers (the `vld4_pps` gate is skipped: its
//! baseline is recorded under the best kernel set). A `--check` run whose
//! `--frames` differs from the baseline's is a hard error: pps floors
//! recorded at a different stream length gate against the wrong number.
//! `--min-ratio` guards the SIMD-vs-scalar speedup.
//!
//! Usage:
//!   decode_bench [--frames N] [--out PATH] [--check PATH] [--min-ratio X]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

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

use tiledec_core::recon_parallel::{PipelineDecoder, PipelineStats};
use tiledec_core::splitter::{split_picture_units, MacroblockSplitter};
use tiledec_core::tile_decoder::TileDecoder;
use tiledec_core::vld_parallel::busy_ratios;
use tiledec_core::SystemConfig;
use tiledec_mpeg2::kernels;
use tiledec_mpeg2::motion::{predict, FrameRefs, PlanePick, RefPick};
use tiledec_mpeg2::types::MotionVector;
use tiledec_mpeg2::Frame;
use tiledec_workload::StreamPreset;

/// VLD worker counts of the `vld_parallel` scaling curve (recon side
/// pinned at one worker).
const VLD_WORKER_CURVE: [usize; 4] = [1, 2, 4, 8];

/// Recon worker counts of the `recon_parallel` scaling curve (VLD side
/// pinned at [`PIPELINE_VLD_WORKERS`]).
const RECON_WORKER_CURVE: [usize; 4] = [1, 2, 4, 8];

/// VLD worker count used for every point of the recon scaling curve and
/// for the e2e pipeline number — matches CI's pipelined smoke pass.
const PIPELINE_VLD_WORKERS: usize = 2;

/// One point of an engine scaling curve: one stage swept, the other
/// pinned.
struct CurvePoint {
    /// Worker count of the swept stage.
    workers: usize,
    pps: f64,
    /// Wall-clock speedup over `best_pps` (the single-thread decode).
    speedup: f64,
    /// Mean busy share of wall time over the swept stage's workers.
    utilization: f64,
    /// Max-over-mean busy time over the swept stage's workers.
    imbalance: f64,
    /// Critical-path model throughput: the slower of the VLD stage
    /// (per-picture slowest range, summed) and the recon stage (band
    /// critical path + assembly per dependency level, summed) — what the
    /// engine delivers once both stages overlap on enough cores.
    model_pps: f64,
}

/// The engine stage a scaling curve sweeps.
#[derive(Clone, Copy)]
enum Stage {
    Vld,
    Recon,
}

impl Stage {
    /// This stage's per-worker busy times (one entry per worker).
    fn busy(self, st: &PipelineStats) -> &[u64] {
        match self {
            Stage::Vld => &st.vld_busy_ns,
            Stage::Recon => &st.recon_busy_ns,
        }
    }
}

/// Tiled-vs-row-major reference-frame locality sweeps: identical
/// workloads run against two byte-identical reference frames that differ
/// only in storage layout.
struct McLocality {
    width: usize,
    height: usize,
    /// Block-I/O pixels/sec out of the macroblock-tiled reference
    /// (aligned 16×16 extract + insert at random positions — the MEI
    /// halo-exchange primitive). Gated by `--check`.
    block_tiled_pps: f64,
    /// Block-I/O pixels/sec out of the row-major reference.
    block_row_major_pps: f64,
    /// `block_tiled_pps / block_row_major_pps` — the locality win the
    /// tiled layout is built for (> 1 means tiled wins). Gated.
    block_ratio: f64,
    /// Predicted pixels/sec out of the tiled reference on the random-MV
    /// interpolation sweep. Informational only.
    predict_tiled_pps: f64,
    /// Predicted pixels/sec out of the row-major reference.
    predict_row_major_pps: f64,
    /// Predict-sweep ratio; < 1 by design (half-pel footprints straddle
    /// tiles and gather, while row-major borrows zero-copy). Not gated.
    predict_ratio: f64,
}

/// Runs the locality sweeps on an HD-sized reference (working set well
/// past L2, the regime the tiled layout targets).
///
/// Block sweep (gated): visits every macroblock in pseudo-random order
/// and performs an aligned 16×16 luma extract + insert — exactly what
/// the tile decoders do when serving and applying MEI halo rows and
/// storing reconstructed macroblocks. Tiled storage turns each into a
/// single contiguous 256-byte memcpy; row-major strides 16 cache lines.
///
/// Predict sweep (informational): every macroblock issues one luma and
/// two chroma predictions with a pseudo-random vector — a mix of
/// zero-motion, short tile-interior motion and long tile-straddling
/// motion, including picture-edge clamps — identically against both
/// layouts.
fn run_mc_locality(best: &'static kernels::KernelSet) -> McLocality {
    const W: usize = 1920;
    const H: usize = 1088;
    kernels::set_active(best);
    let mut s = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut noise = vec![0u8; W * H];
    for v in &mut noise {
        *v = next() as u8;
    }
    let chroma: Vec<u8> = noise.iter().take(W * H / 4).copied().collect();
    let mut tiled = Frame::zeroed_tiled(W, H);
    let mut row_major = Frame::black(W, H);
    for f in [&mut tiled, &mut row_major] {
        f.y.insert(0, 0, W, H, &noise);
        f.cb.insert(0, 0, W / 2, H / 2, &chroma);
        f.cr.insert(0, 0, W / 2, H / 2, &chroma);
    }
    // One vector per macroblock, reused across passes and layouts: ~25%
    // zero motion, the rest uniform in ±64 half-pel with random parity.
    let mvs: Vec<MotionVector> = (0..(W / 16) * (H / 16))
        .map(|_| {
            if next() % 4 == 0 {
                MotionVector::ZERO
            } else {
                MotionVector::new((next() % 129) as i16 - 64, (next() % 129) as i16 - 64)
            }
        })
        .collect();
    // Pseudo-random macroblock visit order, shared by both layouts and
    // sweeps: halo exchange is demand-driven, not raster-ordered.
    let mut order: Vec<(usize, usize)> = (0..H / 16)
        .flat_map(|mby| (0..W / 16).map(move |mbx| (mbx, mby)))
        .collect();
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let block_sweep = |frame: &mut Frame| -> f64 {
        let mut blk = [0u8; 256];
        let mut best_s = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            for &(mbx, mby) in &order {
                frame.y.extract_into(mbx * 16, mby * 16, 16, 16, &mut blk);
                std::hint::black_box(&blk);
                frame.y.insert(mbx * 16, mby * 16, 16, 16, &blk);
            }
            best_s = best_s.min(t0.elapsed().as_secs_f64());
        }
        // 256 pixels read + 256 written per macroblock visit.
        (order.len() * 512) as f64 / best_s
    };
    let predict_sweep = |frame: &Frame| -> f64 {
        let refs = FrameRefs {
            fwd: frame,
            bwd: frame,
        };
        let mut out_y = [0u8; 256];
        let mut out_c = [0u8; 64];
        let mut best_s = f64::INFINITY;
        for _ in 0..5 {
            let t0 = Instant::now();
            let mut i = 0usize;
            for mby in 0..H / 16 {
                for mbx in 0..W / 16 {
                    let mv = mvs[i];
                    i += 1;
                    predict(
                        &refs,
                        RefPick::Forward,
                        PlanePick::Y,
                        mbx * 16,
                        mby * 16,
                        16,
                        mv,
                        &mut out_y,
                    );
                    predict(
                        &refs,
                        RefPick::Forward,
                        PlanePick::Cb,
                        mbx * 8,
                        mby * 8,
                        8,
                        mv,
                        &mut out_c,
                    );
                    predict(
                        &refs,
                        RefPick::Forward,
                        PlanePick::Cr,
                        mbx * 8,
                        mby * 8,
                        8,
                        mv,
                        &mut out_c,
                    );
                    std::hint::black_box(&out_y);
                    std::hint::black_box(&out_c);
                }
            }
            best_s = best_s.min(t0.elapsed().as_secs_f64());
        }
        let pixels = (mvs.len() * (256 + 64 + 64)) as f64;
        pixels / best_s
    };
    // Row-major first, tiled second in each sweep: if anything the
    // ordering warms shared state in row-major's favour, so a tiled win
    // is not a warm-up artifact.
    let predict_row_major_pps = predict_sweep(&row_major);
    let predict_tiled_pps = predict_sweep(&tiled);
    let block_row_major_pps = block_sweep(&mut row_major);
    let block_tiled_pps = block_sweep(&mut tiled);
    McLocality {
        width: W,
        height: H,
        block_tiled_pps,
        block_row_major_pps,
        block_ratio: block_tiled_pps / block_row_major_pps,
        predict_tiled_pps,
        predict_row_major_pps,
        predict_ratio: predict_tiled_pps / predict_row_major_pps,
    }
}

/// The resilience group: clean-stream policy overhead (gated) and
/// damaged-stream concealment throughput (published, ungated).
struct Resilience {
    /// Strict decode of the clean tiny-preset stream, pixels/sec.
    strict_clean_pps: f64,
    /// Resilient decode of the same clean stream (the policy adds one
    /// branch and no allocation on the clean path), pixels/sec.
    resilient_clean_pps: f64,
    /// `(strict - resilient) / strict`, percent. Gated < 2% by `--check`
    /// against this run's own strict number, not the baseline: both
    /// passes decode identical bytes in the same process, so the ratio
    /// cancels host speed.
    overhead_pct: f64,
    /// Seed of the standard damaged-stream preset.
    conceal_seed: u64,
    /// Resilient decode of the damaged stream (repair + re-decode +
    /// patching), nominal pixels/sec. Ungated: concealment cost is
    /// damage-dependent by nature.
    conceal_pps: f64,
    /// True when the damaged stream actually forced a repair (sanity:
    /// the number above measured concealment, not a lucky clean decode).
    conceal_repaired: bool,
}

/// Fixed seed of the standard damaged-stream preset; the fault plan is a
/// pure function of it, so `conceal_pps` is comparable across runs.
const CONCEAL_SEED: u64 = 0xC0DE;

/// Measures the resilience group on the tiny preset (best-of-7 walls:
/// the clean-overhead gate is a 2% bound, tighter than the 25% pps
/// floors, so it gets the extra repetitions).
fn run_resilience(frames: usize, best: &'static kernels::KernelSet) -> Resilience {
    kernels::set_active(best);
    let preset = StreamPreset::tiny_test();
    let stream = preset
        .generate_and_encode(frames)
        .expect("encode")
        .bitstream;
    let pixels = preset.width as f64 * preset.height as f64 * frames as f64;

    let time_best_of = |f: &mut dyn FnMut()| -> f64 {
        let mut bestt = f64::INFINITY;
        for _ in 0..7 {
            let t0 = Instant::now();
            f();
            bestt = bestt.min(t0.elapsed().as_secs_f64());
        }
        bestt
    };

    let strict_s = time_best_of(&mut || {
        let frames = tiledec_mpeg2::decode_all(&stream).expect("strict decode");
        std::hint::black_box(frames);
    });
    let resilient_s = time_best_of(&mut || {
        let out = tiledec_mpeg2::decode_all_resilient(&stream).expect("resilient decode");
        assert!(out.1.clean, "clean stream must not be repaired");
        std::hint::black_box(out);
    });

    let plan = tiledec_bitstream::fault::FaultPlan::sample(CONCEAL_SEED, stream.len(), 4, 2, false);
    let damaged = plan.apply(&stream);
    let mut repaired = false;
    let conceal_s = time_best_of(&mut || {
        let out = tiledec_mpeg2::decode_all_resilient(&damaged).expect("conceal decode");
        repaired = !out.1.clean;
        std::hint::black_box(out);
    });

    Resilience {
        strict_clean_pps: pixels / strict_s,
        resilient_clean_pps: pixels / resilient_s,
        overhead_pct: (resilient_s - strict_s) / strict_s * 100.0,
        conceal_seed: CONCEAL_SEED,
        conceal_pps: pixels / conceal_s,
        conceal_repaired: repaired,
    }
}

/// One preset's measurements.
struct PresetResult {
    name: String,
    width: u32,
    height: u32,
    frames: usize,
    scalar_pps: f64,
    best_pps: f64,
    best_fps: f64,
    ratio: f64,
    tiled_pps: f64,
    tiled_fps: f64,
    steady_allocs: u64,
    vld_curve: Vec<CurvePoint>,
    recon_curve: Vec<CurvePoint>,
    /// Wall-clock pixels/sec of the 2-VLD/2-recon pipelined decode — the
    /// configuration CI's pipelined smoke pass runs. Gated by `--check`
    /// to ≥ 0.9× this run's own sequential `best_pps` (within-run, so
    /// host speed cancels).
    e2e_pipeline_pps: f64,
    /// Model throughput of the same 2/2 point.
    e2e_model_pps: f64,
    stages: tiledec_mpeg2::timing::StageTimes,
}

/// The worker-count clamp decision of an auto-tuned pipelined decoder:
/// requested counts vs what the host's CPU count and the stream's shape
/// allowed (`from_env`/`auto_tuned` clamp to `host_cpus`).
struct VldClamp {
    requested_vld: usize,
    requested_recon: usize,
    host_cpus: usize,
    effective_vld: usize,
    effective_recon: usize,
}

/// Decodes a short mid-size stream with deliberately oversubscribed
/// requested counts and records what the auto-tuner actually ran with.
fn run_vld_clamp() -> VldClamp {
    let preset = StreamPreset::by_number(1).expect("preset 1").scaled_down(2);
    let stream = preset.generate_and_encode(4).expect("encode").bitstream;
    let mut dec = PipelineDecoder::auto_tuned(8, 8);
    dec.decode_all(&stream).expect("clamp probe decode");
    let st = dec.stats();
    VldClamp {
        requested_vld: st.requested_vld_workers,
        requested_recon: st.requested_recon_workers,
        host_cpus: st.host_cpus,
        effective_vld: st.vld_workers,
        effective_recon: st.recon_workers,
    }
}

fn main() {
    let mut frames = 24usize;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut min_ratio: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--frames" => frames = args.next().expect("--frames N").parse().expect("frames"),
            "--out" => out_path = Some(args.next().expect("--out PATH")),
            "--check" => check_path = Some(args.next().expect("--check PATH")),
            "--min-ratio" => {
                min_ratio = Some(args.next().expect("--min-ratio X").parse().expect("ratio"))
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let presets: Vec<(String, StreamPreset)> = vec![
        ("tiny".into(), StreamPreset::tiny_test()),
        (
            "dvd_half".into(),
            StreamPreset::by_number(1).expect("preset 1").scaled_down(2),
        ),
        (
            "hd_quarter".into(),
            StreamPreset::by_number(9).expect("preset 9").scaled_down(4),
        ),
    ];

    // Resolve before any `set_active` call so a `TILEDEC_KERNELS` override
    // (CI's forced-scalar run) is honoured.
    let best = kernels::active();
    let mut results = Vec::new();
    for (name, preset) in &presets {
        eprintln!(
            "[decode_bench] preset {name} ({}x{})",
            preset.width, preset.height
        );
        results.push(run_preset(name, preset, frames, best));
    }

    eprintln!("[decode_bench] mc_locality sweeps (1920x1088, tiled vs row-major)");
    let mc = run_mc_locality(best);

    eprintln!("[decode_bench] resilience group (clean-stream overhead + concealment)");
    let resilience = run_resilience(frames, best);

    eprintln!("[decode_bench] auto-tune clamp probe (requested 8/8 workers)");
    let clamp = run_vld_clamp();

    let json = render_json(&results, &mc, &resilience, &clamp, frames, best.name);
    match &out_path {
        Some(p) => std::fs::write(p, &json).expect("write --out"),
        None => println!("{json}"),
    }

    let mut failed = false;
    let check_path_was_given = check_path.is_some();
    if let Some(path) = check_path {
        let baseline = std::fs::read_to_string(&path).expect("read --check baseline");
        // Pixels/sec is content-dependent: early frames of a preset can be
        // cheaper or dearer per pixel than the long-run mix, so comparing a
        // short run against a baseline recorded at a different length gates
        // against the wrong number. Hard error: CI must never gate against
        // a mismatched frame mix.
        if let Some(base_frames) = extract_field(&baseline, "\"frames\": ") {
            if base_frames as usize != frames {
                eprintln!(
                    "[check] FAIL: baseline was recorded with --frames {base_frames}, \
                     this run used --frames {frames}; pps floors are not comparable \
                     (re-run with --frames {base_frames} or regenerate the baseline)"
                );
                failed = true;
            }
        }
        // When the active kernel set is scalar (forced via TILEDEC_KERNELS),
        // "best" numbers are scalar numbers and must be gated against the
        // baseline's scalar field, not its SIMD field. The vld4 point has
        // no scalar baseline, so it is only gated under the best kernels.
        let best_key = if best.name == "scalar" {
            "scalar_pps"
        } else {
            "best_pps"
        };
        if best.name == "scalar" {
            eprintln!(
                "[check] note: active kernel set is scalar; skipping the vld4_pps gate \
                 (its baseline is recorded under the best kernel set)"
            );
        }
        // With TILEDEC_VLD_WORKERS set, the "sequential" passes above ran
        // through the parallel decoder: their numbers measure coordination
        // overhead, not the sequential path, so the sequential floors do
        // not apply. The vld4_pps point is measured identically either way
        // and remains the gate for that run.
        let vld_forced = std::env::var("TILEDEC_VLD_WORKERS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0)
            > 0;
        if vld_forced {
            eprintln!(
                "[check] note: TILEDEC_VLD_WORKERS is set; scalar_pps/best_pps ran through \
                 the parallel decoder and are not gated against sequential baselines"
            );
        }
        for r in &results {
            let vld4 = r
                .vld_curve
                .iter()
                .find(|p| p.workers == 4)
                .map_or(0.0, |p| p.pps);
            let mut gates = Vec::new();
            if !vld_forced {
                gates.push(("scalar_pps", r.scalar_pps, "scalar_pps"));
                gates.push((best_key, r.best_pps, "best_pps"));
            }
            if best.name != "scalar" {
                gates.push(("vld4_pps", vld4, "vld4_pps"));
            }
            for (base_key, measured, label) in gates {
                let Some(base_pps) = extract_pps(&baseline, &r.name, base_key) else {
                    eprintln!(
                        "[check] preset {} has no {base_key} in baseline, skipping",
                        r.name
                    );
                    continue;
                };
                let floor = base_pps * 0.75;
                if measured < floor {
                    eprintln!(
                        "[check] FAIL {} {label}: {measured:.0} pixels/s is more than 25% below baseline {base_pps:.0}",
                        r.name
                    );
                    failed = true;
                } else {
                    eprintln!(
                        "[check] ok {} {label}: {measured:.0} pixels/s vs baseline {base_pps:.0}",
                        r.name
                    );
                }
            }
        }
        // Pipelined-decoder gates, all within-run (host speed cancels, so
        // they apply under any kernel set and stay meaningful on a 1-core
        // CI host):
        //  * the 2-VLD/2-recon e2e wall clock must hold ≥ 0.9× this run's
        //    sequential decode on presets with ≥ 8 slice rows —
        //    pipelining overhead must never cost more than 10% even with
        //    zero spare cores. The tiny preset is excluded: its whole
        //    decode is ~2 ms, so the fixed cost of spawning 4 worker
        //    threads dominates no matter how cheap the steady state is.
        //    (Also skipped when the "sequential" passes were themselves
        //    redirected through a parallel decoder by the worker env
        //    vars.);
        //  * 4-worker VLD imbalance stays ≤ 1.6 on presets with ≥ 8 slice
        //    rows (enough rows for the EWMA partitioner to balance; the
        //    6-row tiny preset cannot split 6 rows four ways evenly).
        //    Published/gated imbalance is the minimum across the timing
        //    reps — preemption convoys on a time-sliced host only ever
        //    inflate a rep, so the minimum is the partitioner's real
        //    capability — and the gate only applies when the host has at
        //    least 4 CPUs: with fewer, the workers are time-sliced and
        //    even the minimum rep measures scheduler preemption, not
        //    partitioning quality (observed 1.3–1.8 run-to-run spread on
        //    a 1-core host for the same binary).
        let recon_forced = std::env::var(tiledec_core::RECON_WORKERS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0)
            > 0;
        for r in &results {
            if !vld_forced && !recon_forced && r.height / 16 >= 8 {
                let floor = r.best_pps * 0.9;
                if r.e2e_pipeline_pps < floor {
                    eprintln!(
                        "[check] FAIL {} e2e_pipeline_pps: {:.0} pixels/s is below 0.9x this \
                         run's sequential {:.0}",
                        r.name, r.e2e_pipeline_pps, r.best_pps
                    );
                    failed = true;
                } else {
                    eprintln!(
                        "[check] ok {} e2e_pipeline_pps: {:.0} pixels/s vs 0.9x sequential \
                         floor {floor:.0}",
                        r.name, r.e2e_pipeline_pps
                    );
                }
            }
            if r.height / 16 >= 8 {
                let imb = r
                    .vld_curve
                    .iter()
                    .find(|p| p.workers == 4)
                    .map_or(1.0, |p| p.imbalance);
                let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
                if cpus < 4 {
                    eprintln!(
                        "[check] note: {} vld4 imbalance {imb:.3} not gated ({cpus} CPUs \
                         time-slice the 4 workers, so the number measures preemption, not \
                         the partitioner)",
                        r.name
                    );
                } else if imb > 1.6 {
                    eprintln!(
                        "[check] FAIL {} vld4 imbalance: {imb:.3} > 1.6 (complexity-weighted \
                         partitioning must keep 4 workers balanced at >= 8 slice rows)",
                        r.name
                    );
                    failed = true;
                } else {
                    eprintln!("[check] ok {} vld4 imbalance: {imb:.3} <= 1.6", r.name);
                }
            }
        }
        // The MC locality group is gated under the best kernel set only:
        // its baseline, like vld4_pps, is recorded under host SIMD. Only
        // the block-I/O numbers gate; the predict sweep is informational.
        if best.name != "scalar" {
            for (key, measured) in [
                ("mc_block_tiled_pps", mc.block_tiled_pps),
                ("mc_block_ratio", mc.block_ratio),
            ] {
                let Some(base) = extract_field(&baseline, &format!("\"{key}\": ")) else {
                    eprintln!("[check] baseline has no {key}, skipping");
                    continue;
                };
                let floor = base * 0.75;
                if measured < floor {
                    eprintln!(
                        "[check] FAIL mc_locality {key}: {measured:.3} is more than 25% \
                         below baseline {base:.3}"
                    );
                    failed = true;
                } else {
                    eprintln!("[check] ok mc_locality {key}: {measured:.3} vs baseline {base:.3}");
                }
            }
        } else {
            eprintln!(
                "[check] note: active kernel set is scalar; skipping the mc_locality gates \
                 (baseline recorded under the best kernel set)"
            );
        }
    }
    if check_path_was_given {
        // The clean-path overhead gate compares this run's own strict and
        // resilient passes (identical bytes, same process), so it applies
        // under every kernel/worker override.
        if resilience.overhead_pct >= 2.0 {
            eprintln!(
                "[check] FAIL resilience: Resilient on a clean stream costs {:.2}% vs \
                 Strict (must stay < 2%)",
                resilience.overhead_pct
            );
            failed = true;
        } else {
            eprintln!(
                "[check] ok resilience: Resilient on a clean stream costs {:.2}% vs Strict \
                 (< 2%); concealment throughput {:.0} pixels/s (ungated, seed {:#x})",
                resilience.overhead_pct, resilience.conceal_pps, resilience.conceal_seed
            );
        }
        if !resilience.conceal_repaired {
            eprintln!(
                "[check] FAIL resilience: the standard damaged-stream preset decoded \
                 cleanly — conceal_pps measured nothing; pick a new CONCEAL_SEED"
            );
            failed = true;
        }
    }
    if let Some(min) = min_ratio {
        let max_ratio = results.iter().map(|r| r.ratio).fold(0.0f64, f64::max);
        if max_ratio < min {
            eprintln!("[check] FAIL: best SIMD/scalar ratio {max_ratio:.2} < {min:.2}");
            failed = true;
        } else {
            eprintln!("[check] ok: best SIMD/scalar ratio {max_ratio:.2} >= {min:.2}");
        }
    }
    if failed {
        std::process::exit(1);
    }
}

fn run_preset(
    name: &str,
    preset: &StreamPreset,
    frames: usize,
    best: &'static kernels::KernelSet,
) -> PresetResult {
    let enc = preset.generate_and_encode(frames).expect("encode");
    let stream = enc.bitstream;
    let pixels = preset.width as f64 * preset.height as f64 * frames as f64;

    // Sequential decode under each kernel set; best-of-5 wall time (the
    // minimum is the least noise-contaminated estimate on shared hosts).
    kernels::set_active(&kernels::SCALAR);
    let scalar_s = time_sequential(&stream);
    kernels::set_active(best);
    let best_s = time_sequential(&stream);

    // Tiled 2×2 decode (critical path: slowest tile per picture), with
    // steady-state allocation audit on the second half of the pictures.
    let (tiled_s, steady_allocs) = time_tiled(&stream);

    // Engine scaling curves (best kernels, best-of-5 walls), one per
    // stage. Exact counts (`PipelineDecoder::new`), not auto-tuned: the
    // curves exist to show scaling shape, and the model numbers are what
    // a multi-core host would get.
    let point = |vld: usize, recon: usize, swept: Stage| {
        let (wall_s, stats, min_imbalance) = time_engine(&stream, vld, recon, swept);
        let model_s = (stats.model_critical_ns as f64 * 1e-9).max(1e-12);
        let busy = swept.busy(&stats);
        CurvePoint {
            workers: busy.len(),
            pps: pixels / wall_s,
            speedup: best_s / wall_s,
            utilization: busy_ratios(busy, stats.wall_ns).0,
            imbalance: min_imbalance,
            model_pps: pixels / model_s,
        }
    };
    let vld_curve = VLD_WORKER_CURVE.map(|w| point(w, 1, Stage::Vld)).into();
    let recon_curve: Vec<CurvePoint> = RECON_WORKER_CURVE
        .map(|w| point(PIPELINE_VLD_WORKERS, w, Stage::Recon))
        .into();
    let e2e = recon_curve
        .iter()
        .find(|p| p.workers == 2)
        .expect("recon curve contains the 2-worker point");
    let (e2e_pipeline_pps, e2e_model_pps) = (e2e.pps, e2e.model_pps);

    // Per-stage breakdown from a separate instrumented pass (the stage
    // hooks cost two clock reads per macroblock, so the timed passes above
    // run with them disabled). Uses the same kernel set as `best_pps`.
    tiledec_mpeg2::timing::enable();
    tiledec_mpeg2::decoder::Decoder::new()
        .decode_stream(&stream, |_, _| {})
        .expect("instrumented decode");
    let stages = tiledec_mpeg2::timing::disable_and_take();

    PresetResult {
        name: name.into(),
        width: preset.width,
        height: preset.height,
        frames,
        scalar_pps: pixels / scalar_s,
        best_pps: pixels / best_s,
        best_fps: frames as f64 / best_s,
        ratio: scalar_s / best_s,
        tiled_pps: pixels / tiled_s,
        tiled_fps: frames as f64 / tiled_s,
        steady_allocs,
        vld_curve,
        recon_curve,
        e2e_pipeline_pps,
        e2e_model_pps,
        stages,
    }
}

/// Times the "sequential" decode path. Honouring `TILEDEC_VLD_WORKERS`
/// and `TILEDEC_RECON_WORKERS` here is what lets CI run the whole
/// regression gate with the parallel engine substituted in (both unset =
/// plain sequential; one set = that stage at up to the given count, the
/// other on one worker; both = each stage at up to its count).
fn time_sequential(stream: &[u8]) -> f64 {
    let mut dec = PipelineDecoder::from_env();
    let mut bestt = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let frames = dec.decode_all(stream).expect("decode");
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(frames);
        bestt = bestt.min(dt);
    }
    bestt
}

/// Best-of-5 wall time of the engine at exact `(vld, recon)` worker
/// counts, the stats of the fastest run, and the minimum load imbalance
/// of the `swept` stage across the reps. The minimum is the partitioner's
/// actual capability: on a time-sliced single-core host any individual
/// rep's imbalance is inflated by preemption convoys (whichever worker
/// the scheduler descheduled looks "slow"), and that noise only ever
/// pushes the number up. Reusing one decoder across reps also exercises
/// the persistent pools: reps after the first decode with warm buffers,
/// as a long-running decoder would.
fn time_engine(stream: &[u8], vld: usize, recon: usize, swept: Stage) -> (f64, PipelineStats, f64) {
    let mut dec = PipelineDecoder::new(vld, recon);
    let mut bestt = f64::INFINITY;
    let mut best_stats = PipelineStats::default();
    let mut min_imbalance = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut frames = 0usize;
        dec.decode_stream(stream, |_, _| frames += 1)
            .expect("engine decode");
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(frames);
        let st = dec.stats();
        min_imbalance = min_imbalance.min(busy_ratios(swept.busy(st), st.wall_ns).1);
        if dt < bestt {
            bestt = dt;
            best_stats = st.clone();
        }
    }
    (bestt, best_stats, min_imbalance)
}

/// Runs the real splitter + 2×2 tile-decoder bank. Returns the summed
/// per-picture critical path (the slowest tile each picture — what a
/// cluster with one node per tile would wait for) and the heap
/// allocation count across all decode calls in the second half of the
/// stream (steady state; must be zero).
fn time_tiled(stream: &[u8]) -> (f64, u64) {
    let index = split_picture_units(stream).expect("index");
    let seq = index.seq.clone();
    let cfg = SystemConfig::new(0, (2, 2));
    let geom = cfg.geometry(seq.width, seq.height).expect("geometry");
    let splitter = MacroblockSplitter::new(geom, seq.clone());
    let mut decoders: Vec<TileDecoder> = geom
        .iter_tiles()
        .map(|t| TileDecoder::new(geom, t, seq.clone(), cfg.halo_margin))
        .collect();
    let outs: Vec<_> = index
        .units
        .iter()
        .enumerate()
        .map(|(p, &(s, e))| splitter.split(p as u32, &stream[s..e]).expect("split"))
        .collect();

    let mut wall = 0.0f64;
    let mut steady_allocs = 0u64;
    let half = outs.len() / 2;
    for (p, out) in outs.iter().enumerate() {
        let kind = out.info.kind;
        let mut deliveries = Vec::new();
        for (d, dec) in decoders.iter().enumerate() {
            for (peer, blocks) in dec.extract_send_blocks(kind, &out.mei[d]).expect("serve") {
                deliveries.push((d, peer, blocks));
            }
        }
        for (src, peer, blocks) in deliveries {
            decoders[peer]
                .apply_recv_blocks(kind, &out.mei[peer], src, &blocks)
                .expect("apply");
        }
        let mut slowest = 0.0f64;
        for (d, dec) in decoders.iter_mut().enumerate() {
            let before = ALLOCS.load(Ordering::Relaxed);
            let t0 = Instant::now();
            let displayed = dec.decode(&out.subpictures[d]).expect("tile decode");
            let dt = t0.elapsed().as_secs_f64();
            let after = ALLOCS.load(Ordering::Relaxed);
            if p >= half {
                steady_allocs += after - before;
            }
            if let Some(dt) = displayed {
                dec.recycle(dt.frame);
            }
            slowest = slowest.max(dt);
        }
        wall += slowest;
    }
    (wall, steady_allocs)
}

fn render_json(
    results: &[PresetResult],
    mc: &McLocality,
    resilience: &Resilience,
    clamp: &VldClamp,
    frames: usize,
    kernel: &str,
) -> String {
    let sets: Vec<String> = kernels::available()
        .iter()
        .map(|s| format!("\"{}\"", s.name))
        .collect();
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"kernel\": \"{kernel}\",\n"));
    s.push_str(&format!("  \"available\": [{}],\n", sets.join(", ")));
    s.push_str(&format!("  \"frames\": {frames},\n"));
    s.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));
    s.push_str("  \"presets\": [\n");
    for (i, r) in results.iter().enumerate() {
        let total = r.stages.total_ns().max(1) as f64;
        let vld4 = r
            .vld_curve
            .iter()
            .find(|p| p.workers == 4)
            .map_or(0.0, |p| p.pps);
        let curve_json = |curve: &[CurvePoint], count_key: &str| {
            let points: Vec<String> = curve
                .iter()
                .map(|p| {
                    format!(
                        "{{\"{count_key}\": {}, \"pps\": {:.0}, \"speedup\": {:.3}, \
                         \"utilization\": {:.3}, \"imbalance\": {:.3}, \"model_pps\": {:.0}}}",
                        p.workers, p.pps, p.speedup, p.utilization, p.imbalance, p.model_pps
                    )
                })
                .collect();
            points.join(",\n      ")
        };
        s.push_str(&format!(
            concat!(
                "    {{\"name\": \"{}\", \"width\": {}, \"height\": {}, \"frames\": {},\n",
                "     \"scalar_pps\": {:.0}, \"best_pps\": {:.0}, \"best_fps\": {:.2}, ",
                "\"simd_ratio\": {:.3},\n",
                "     \"tiled_2x2_pps\": {:.0}, \"tiled_2x2_fps\": {:.2}, ",
                "\"steady_allocs\": {},\n",
                "     \"vld4_pps\": {:.0},\n",
                "     \"vld_parallel\": [\n      {}\n     ],\n",
                "     \"e2e_pipeline_pps\": {:.0}, \"e2e_model_pps\": {:.0},\n",
                "     \"recon_parallel\": [\n      {}\n     ],\n",
                "     \"stage_scan_ns\": {}, \"stage_vld_ns\": {}, ",
                "\"stage_pixel_ns\": {}, \"vld_share\": {:.3}}}{}\n",
            ),
            r.name,
            r.width,
            r.height,
            r.frames,
            r.scalar_pps,
            r.best_pps,
            r.best_fps,
            r.ratio,
            r.tiled_pps,
            r.tiled_fps,
            r.steady_allocs,
            vld4,
            curve_json(&r.vld_curve, "workers"),
            r.e2e_pipeline_pps,
            r.e2e_model_pps,
            curve_json(&r.recon_curve, "recon_workers"),
            r.stages.scan_ns,
            r.stages.vld_ns,
            r.stages.pixel_ns,
            r.stages.vld_ns as f64 / total,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"mc_locality\": {{\"width\": {}, \"height\": {},\n   \
         \"mc_block_tiled_pps\": {:.0}, \"mc_block_row_major_pps\": {:.0}, \
         \"mc_block_ratio\": {:.3},\n   \
         \"mc_predict_tiled_pps\": {:.0}, \"mc_predict_row_major_pps\": {:.0}, \
         \"mc_predict_ratio\": {:.3}}},\n",
        mc.width,
        mc.height,
        mc.block_tiled_pps,
        mc.block_row_major_pps,
        mc.block_ratio,
        mc.predict_tiled_pps,
        mc.predict_row_major_pps,
        mc.predict_ratio
    ));
    s.push_str(&format!(
        "  \"vld_clamp\": {{\"requested_vld\": {}, \"requested_recon\": {}, \
         \"host_cpus\": {}, \"effective_vld\": {}, \"effective_recon\": {}}},\n",
        clamp.requested_vld,
        clamp.requested_recon,
        clamp.host_cpus,
        clamp.effective_vld,
        clamp.effective_recon
    ));
    s.push_str(&format!(
        "  \"resilience\": {{\"preset\": \"tiny\",\n   \
         \"strict_clean_pps\": {:.0}, \"resilient_clean_pps\": {:.0}, \
         \"resilient_overhead_pct\": {:.3},\n   \
         \"conceal_seed\": {}, \"conceal_pps\": {:.0}, \"conceal_repaired\": {}}}\n",
        resilience.strict_clean_pps,
        resilience.resilient_clean_pps,
        resilience.overhead_pct,
        resilience.conceal_seed,
        resilience.conceal_pps,
        resilience.conceal_repaired
    ));
    s.push_str("}\n");
    s
}

/// Pulls a numeric field for `preset` out of a baseline JSON file written
/// by [`render_json`] (line-oriented scan; no JSON dependency).
fn extract_pps(baseline: &str, preset: &str, key: &str) -> Option<f64> {
    let tag = format!("\"name\": \"{preset}\"");
    let start = baseline.find(&tag)?;
    extract_field(&baseline[start..], &format!("\"{key}\": "))
}

/// Parses the number following the first occurrence of `key` in `text`.
fn extract_field(text: &str, key: &str) -> Option<f64> {
    let at = text.find(key)? + key.len();
    let tail = &text[at..];
    let end = tail.find([',', '}', '\n'])?;
    tail[..end].trim().parse().ok()
}
