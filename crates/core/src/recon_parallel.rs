//! The node-local parallel engine: slice-parallel entropy decode feeding
//! band-parallel pixel reconstruction, pipelined across pictures.
//!
//! [`PipelineDecoder`] is the only threaded decode driver in this crate.
//! Its two parameters are the per-stage worker counts `(vld, recon)`;
//! `(0, 0)` is the sequential [`Decoder`], any other pair runs the
//! pipeline with each stage clamped to at least one worker.
//!
//! * **Slice-parallel VLD** — VLD workers run the recording walker
//!   ([`record_slice`]) over contiguous slice ranges of one picture
//!   against the *full* stream buffer, so every recorded bit position —
//!   including error positions — matches the sequential decoder exactly.
//!   Ranges are re-balanced each picture from a per-row entropy-cost EWMA.
//! * **Band recon** — once a picture's [`SliceRecording`]s are in, its
//!   macroblock rows are
//!   partitioned into disjoint row bands (weighted by a per-row *pixel*
//!   cost EWMA, independent of the VLD partition) and each band replays
//!   its slices concurrently on a recon worker. Slices only write their
//!   own macroblock row (enforced via [`SliceRecording::mb_row_span`];
//!   corrupt-but-parseable spills demote the picture to a single band),
//!   so bands never contend on pixels. Workers reconstruct into recycled
//!   packed band buffers; the coordinator splices finished bands into the
//!   target frame through the disjoint band-borrow API
//!   ([`Frame::as_band_mut`]/`split_at_mb_row` — a mutable borrow per
//!   band, so disjointness is enforced by the borrow checker, and a
//!   row-major band splice is a single `memcpy` per plane).
//! * **Cross-picture pipelining** — picture `N+1`'s VLD overlaps picture
//!   `N`'s reconstruction (the VLD dispatch window runs ahead of
//!   emission), and a reference-readiness dependency tracker dispatches
//!   reconstruction the moment a picture's recordings *and* its anchor
//!   frames are ready: consecutive B pictures sharing an anchor pair —
//!   and the P picture that closes the pair — reconstruct concurrently.
//! * **Bit-exactness** — the stream's structure is validated up front
//!   against [`Plan`] before any thread starts; anything the planner
//!   cannot prove it understands (incomplete plan, slice-less pictures,
//!   missing references, out-of-order slice rows) decodes on the
//!   sequential [`Decoder`], which is trivially exact. Because the plan
//!   is committed to whole or not at all, no per-slice escape hatch
//!   exists. On the fast path the only possible decode errors are slice
//!   outcomes recorded by the VLD workers; the coordinator emits
//!   pictures strictly in stream order and returns the first erroring
//!   picture's first erroring slice — value and bit position — exactly
//!   where the sequential decoder would, having emitted exactly the
//!   frames the sequential decoder would have emitted first.
//!
//! Everything is std-only scoped threads over recycled buffers: jobs,
//! recordings, band buffers and frames all cycle through pools, so the
//! steady state allocates nothing (enforced by `alloc_steady.rs`).

use std::collections::VecDeque;
use std::mem;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

use tiledec_cluster::sync::{lock_ignore_poison, wait_ignore_poison};
use tiledec_mpeg2::block::MbCoeffs;
use tiledec_mpeg2::decoder::{flush_picture_info, Decoder, StreamSummary};
use tiledec_mpeg2::motion::FrameRefs;
use tiledec_mpeg2::recon::{Covered, MbCoverage, MbDst, MbSink, Reconstructor};
use tiledec_mpeg2::resilient::decode_all_resilient_with;
use tiledec_mpeg2::slice::SliceContext;
use tiledec_mpeg2::types::{PictureInfo, PictureKind};
use tiledec_mpeg2::vld::{record_slice, replay_slice, SliceRecording};
use tiledec_mpeg2::{Error, Frame, StreamDamage};

use crate::vld_parallel::{
    busy_ratios, host_cpus, partition_by_weight_into, CostHistory, Plan, MIN_AUTO_PARALLEL_MBS,
};

/// Upper bound on either stage's worker count, whatever a caller asks for.
const MAX_WORKERS: usize = 64;

/// Pictures allowed in flight past the next emission: bounds frame-pool
/// and recording memory while leaving room for a B-run plus the anchors
/// on both sides to pipeline.
const WINDOW: usize = 8;

// ---------------------------------------------------------------------
// Fixed-capacity blocking queue
// ---------------------------------------------------------------------

/// Minimal MPMC queue: `Mutex<VecDeque>` + `Condvar`, capacity reserved
/// up front. `std::sync::mpsc` allocates a node per send, which would
/// break the zero-steady-state-allocation contract; a `VecDeque` that
/// never shrinks pushes without allocating once warm.
struct Queue<T> {
    inner: Mutex<(VecDeque<T>, bool)>,
    cv: Condvar,
}

impl<T> Queue<T> {
    fn with_capacity(cap: usize) -> Self {
        Queue {
            inner: Mutex::new((VecDeque::with_capacity(cap), false)),
            cv: Condvar::new(),
        }
    }

    fn push(&self, item: T) {
        let mut g = lock_ignore_poison(&self.inner);
        g.0.push_back(item);
        drop(g);
        self.cv.notify_one();
    }

    /// Blocks until an item is available; `None` once closed and empty.
    fn pop(&self) -> Option<T> {
        let mut g = lock_ignore_poison(&self.inner);
        loop {
            if let Some(item) = g.0.pop_front() {
                return Some(item);
            }
            if g.1 {
                return None;
            }
            g = wait_ignore_poison(&self.cv, g);
        }
    }

    fn close(&self) {
        let mut g = lock_ignore_poison(&self.inner);
        g.1 = true;
        drop(g);
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// Band buffers and the band sink
// ---------------------------------------------------------------------

/// A recon worker's owned output: packed pixels for one row band of one
/// picture (luma `width × rows·16`, chroma quarter-size). Recycled
/// through a pool and handed out *stale* — `prepare` keeps whatever the
/// last band left — so the worker zeroes what its slices did not write.
#[derive(Default)]
struct BandBuffer {
    y: Vec<u8>,
    cb: Vec<u8>,
    cr: Vec<u8>,
    /// Luma width in pixels.
    width: usize,
    /// Macroblock-row range `[mb_y0, mb_y1)` this buffer covers.
    mb_y0: usize,
    mb_y1: usize,
}

/// Grows `v`'s capacity to at least `n` elements, contents untouched.
fn reserve_to<T>(v: &mut Vec<T>, n: usize) {
    v.reserve(n.saturating_sub(v.len()));
}

impl BandBuffer {
    /// Grows capacity to a `width × mb_rows·16` band without touching the
    /// contents, so [`prepare`](Self::prepare) never allocates.
    fn reserve(&mut self, width: usize, mb_rows: usize) {
        let luma = width.saturating_mul(mb_rows).saturating_mul(16);
        reserve_to(&mut self.y, luma);
        reserve_to(&mut self.cb, luma / 4);
        reserve_to(&mut self.cr, luma / 4);
    }

    /// Sizes the buffer for a band. `resize` without `clear`: the bytes
    /// shared with the band before stay as they are, and only what a
    /// taller band adds is zero-filled.
    fn prepare(&mut self, width: usize, mb_y0: usize, mb_y1: usize) {
        let rows = (mb_y1 - mb_y0) * 16;
        self.y.resize(width * rows, 0);
        self.cb.resize((width / 2) * (rows / 2), 0);
        self.cr.resize((width / 2) * (rows / 2), 0);
        self.width = width;
        self.mb_y0 = mb_y0;
        self.mb_y1 = mb_y1;
    }
}

/// [`MbSink`] lending macroblocks of a packed [`BandBuffer`].
///
/// Plays the same role as replaying into a borrowed
/// [`FrameBandMut`](tiledec_mpeg2::FrameBandMut) but with owned storage,
/// so persistent worker threads can hold it across pictures.
struct BandSink<'a> {
    buf: &'a mut BandBuffer,
}

impl MbSink for BandSink<'_> {
    fn lend(&mut self, mb_x: u32, mb_y: u32) -> MbDst<'_> {
        let buf = &mut *self.buf;
        let (mb_x, mb_y) = (mb_x as usize, mb_y as usize);
        let (w, cw) = (buf.width, buf.width / 2);
        assert!(
            (buf.mb_y0..buf.mb_y1).contains(&mb_y) && mb_x < w / 16,
            "macroblock ({mb_x},{mb_y}) outside band [{}, {}) of {w} pixels",
            buf.mb_y0,
            buf.mb_y1
        );
        let (px, py) = (mb_x * 16, (mb_y - buf.mb_y0) * 16);
        let (luma, chroma) = (py * w + px, py / 2 * cw + px / 2);
        MbDst {
            y: &mut buf.y[luma..],
            y_stride: w,
            cb: &mut buf.cb[chroma..],
            cr: &mut buf.cr[chroma..],
            c_stride: cw,
        }
    }
}

// ---------------------------------------------------------------------
// Jobs and results
// ---------------------------------------------------------------------

/// A contiguous slice range of one picture for a VLD worker to record:
/// slices `[lo, lo + recs.len())`, one recycled recording each.
struct VldJob {
    pic: usize,
    lo: usize,
    recs: Vec<SliceRecording>,
}

/// A VLD worker's recordings for one job.
struct VldDone {
    pic: usize,
    lo: usize,
    recs: Vec<SliceRecording>,
    /// Wall time the worker spent recording this range.
    vld_ns: u64,
}

/// One VLD range's recordings: global slice indices
/// `[lo, lo + recs.len())` of its picture, in slice order.
struct RecFrag {
    lo: usize,
    recs: Vec<SliceRecording>,
}

/// A whole picture's recordings as sorted fragments, shared read-only
/// with every band worker through a pooled `Arc` (the coordinator holds
/// the only reference outside replay, so the pool can reclaim and refill
/// it with `Arc::get_mut` — same graveyard scheme as the frame pool).
#[derive(Default)]
struct PicRecs {
    frags: Vec<RecFrag>,
}

impl PicRecs {
    /// The recording of global slice index `i`. Fragments are few (one
    /// per VLD range) and sorted, so a linear scan beats a search.
    fn get(&self, i: usize) -> &SliceRecording {
        self.frags
            .iter()
            .find_map(|f| f.recs.get(i.checked_sub(f.lo)?))
            .expect("slice index inside the recorded fragments")
    }
}

/// One row band of one picture for a recon worker to replay: the
/// picture's shared recordings, the band's global slice range, shared
/// anchor frames, and the output buffer.
struct ReconJob {
    pic: usize,
    lo: usize,
    used: usize,
    recs: Arc<PicRecs>,
    fwd: Arc<Frame>,
    bwd: Arc<Frame>,
    buf: BandBuffer,
    slice_ns: Vec<u64>,
}

/// A recon worker's finished band. The worker drops its recording and
/// anchor `Arc`s *before* sending this, so once the last band of a
/// picture arrives the coordinator provably holds the sole references.
struct BandDone {
    pic: usize,
    lo: usize,
    used: usize,
    buf: BandBuffer,
    /// Per-slice replay time, parallel to slices `[lo, lo+used)` — feeds
    /// the per-row pixel-cost EWMA.
    slice_ns: Vec<u64>,
    /// Total replay time for the band (the band critical-path sample).
    pixel_ns: u64,
}

enum Msg {
    Vld(VldDone),
    Recon(BandDone),
}

// ---------------------------------------------------------------------
// Static per-picture pipeline structure
// ---------------------------------------------------------------------

/// Dependency structure of one planned picture, derived from the plan
/// before any thread starts.
#[derive(Debug, Clone, Copy)]
struct PicStatic {
    /// Forward/backward anchor picture indices (`None` ⇒ the zeroed
    /// placeholder reference, exactly as the sequential decoder wires I
    /// pictures).
    fwd: Option<usize>,
    bwd: Option<usize>,
    /// Longest dependency-chain depth. Pictures sharing a level have no
    /// mutual dependencies and reconstruct concurrently — consecutive B
    /// pictures and the P picture that closes their anchor pair land on
    /// the same level.
    level: usize,
    /// Number of later pictures referencing this one.
    dependents: usize,
}

/// Derives the dependency DAG, proving along the way that the fast path
/// may commit to the plan: the plan must be complete, every picture must
/// own at least one slice, slice rows must be non-decreasing (so row
/// bands map to contiguous slice ranges), and every P/B picture's
/// references must exist when its first slice decodes. Any violation
/// returns `None` and the caller decodes the stream sequentially,
/// before any thread starts or anything is emitted.
fn analyze(plan: &Plan) -> Option<Vec<PicStatic>> {
    if !plan.complete || plan.pictures.is_empty() || plan.final_seq.is_none() {
        return None;
    }
    // A picture without slices is invisible in `plan.pictures` but makes
    // the sequential decoder fail "picture contained no slices".
    if plan.pictures_seen != plan.pictures.len() {
        return None;
    }
    let mut out: Vec<PicStatic> = Vec::with_capacity(plan.pictures.len());
    let (mut prev_anchor, mut last_anchor): (Option<usize>, Option<usize>) = (None, None);
    for (idx, p) in plan.pictures.iter().enumerate() {
        for pair in p.slices.windows(2) {
            if pair[1].row < pair[0].row {
                return None;
            }
        }
        let (fwd, bwd) = match p.info.kind {
            PictureKind::I => (None, None),
            PictureKind::P => {
                last_anchor?;
                (last_anchor, last_anchor)
            }
            PictureKind::B => {
                prev_anchor?;
                last_anchor?;
                (prev_anchor, last_anchor)
            }
        };
        let level = match (fwd, bwd) {
            (None, None) => 0,
            (a, b) => {
                let la = a.map_or(0, |i| out[i].level + 1);
                let lb = b.map_or(0, |i| out[i].level + 1);
                la.max(lb)
            }
        };
        out.push(PicStatic {
            fwd,
            bwd,
            level,
            dependents: 0,
        });
        if let Some(f) = fwd {
            out[f].dependents += 1;
        }
        if let Some(b) = bwd {
            if bwd != fwd {
                out[b].dependents += 1;
            }
        }
        if p.info.kind != PictureKind::B {
            prev_anchor = last_anchor;
            last_anchor = Some(idx);
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

/// Aggregated measurements of one pipelined decode.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// VLD worker threads used (0 = the stream decoded sequentially).
    pub vld_workers: usize,
    /// Recon worker threads used (0 = the stream decoded sequentially).
    pub recon_workers: usize,
    /// Worker counts the caller configured before auto-tune clamping.
    pub requested_vld_workers: usize,
    /// See [`requested_vld_workers`](Self::requested_vld_workers).
    pub requested_recon_workers: usize,
    /// [`host_cpus()`] at decode time, recorded with the clamp decision.
    pub host_cpus: usize,
    /// Per-VLD-worker busy time (ns).
    pub vld_busy_ns: Vec<u64>,
    /// Per-recon-worker busy time (ns).
    pub recon_busy_ns: Vec<u64>,
    /// Wall-clock time of the whole decode (ns).
    pub wall_ns: u64,
    /// VLD stage critical path: Σ over pictures of the slowest VLD range.
    pub vld_stage_ns: u64,
    /// Recon stage critical path: Σ over dependency levels of the
    /// slowest picture's `max_band + assembly` in that level (pictures
    /// in one level reconstruct concurrently).
    pub recon_stage_ns: u64,
    /// Coordinator time splicing bands into frames.
    pub assemble_ns: u64,
    /// Pipeline critical-path model (ns): `max(vld_stage, recon_stage)`
    /// — the decode cost once both stages overlap on enough cores.
    pub model_critical_ns: u64,
    /// Pictures decoded through the fast path.
    pub pictures: u64,
    /// Recon band jobs dispatched.
    pub bands: u64,
    /// Pictures demoted to a single band by the row-spill guard.
    pub single_band_pictures: u64,
    /// True when the whole stream decoded on the sequential [`Decoder`]:
    /// configured `(0, 0)`, auto-tune declined, or a plan the pipeline
    /// cannot commit to (incomplete, or structure `analyze` rejects).
    pub sequential_fallback: bool,
}

impl PipelineStats {
    /// Mean recon-worker busy share of decode wall time.
    pub fn utilization(&self) -> f64 {
        busy_ratios(&self.recon_busy_ns, self.wall_ns).0
    }

    /// Max-over-mean recon-worker busy time (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        busy_ratios(&self.recon_busy_ns, self.wall_ns).1
    }
}

// ---------------------------------------------------------------------
// Worker loops
// ---------------------------------------------------------------------

/// VLD worker: records slice ranges against the full stream buffer until
/// the job queue closes. Returns total busy nanoseconds.
fn vld_worker_loop(data: &[u8], plan: &Plan, jobs: &Queue<VldJob>, results: &Queue<Msg>) -> u64 {
    let mut busy = 0u64;
    let mut scratch = MbCoeffs::default();
    while let Some(mut job) = jobs.pop() {
        let t = Instant::now();
        let Some(p) = plan.pictures.get(job.pic) else {
            continue;
        };
        let ctx = SliceContext {
            seq: &p.seq,
            pic: &p.info,
        };
        for (s, rec) in p.slices.iter().skip(job.lo).zip(job.recs.iter_mut()) {
            record_slice(data, s.offset, s.row, &ctx, rec, &mut scratch);
        }
        let vld_ns = t.elapsed().as_nanos() as u64;
        busy += vld_ns;
        results.push(Msg::Vld(VldDone {
            pic: job.pic,
            lo: job.lo,
            recs: job.recs,
            vld_ns,
        }));
    }
    busy
}

/// Recon worker: replays band jobs into packed band buffers until the
/// job queue closes. Returns total busy nanoseconds.
fn recon_worker_loop(
    plan: &Plan,
    jobs: &Queue<ReconJob>,
    results: &Queue<Msg>,
    mut coverage: MbCoverage,
) -> u64 {
    let mut scratch = MbCoeffs::default();
    let mut busy = 0u64;
    while let Some(job) = jobs.pop() {
        let ReconJob {
            pic,
            lo,
            used,
            recs,
            fwd,
            bwd,
            mut buf,
            mut slice_ns,
        } = job;
        let t = Instant::now();
        let Some(p) = plan.pictures.get(pic) else {
            continue;
        };
        let ctx = SliceContext {
            seq: &p.seq,
            pic: &p.info,
        };
        let refs = FrameRefs {
            fwd: &fwd,
            bwd: &bwd,
        };
        slice_ns.clear();
        {
            let (mb_w, mb_rows) = (buf.width / 16, buf.mb_y1 - buf.mb_y0);
            coverage.begin(0, buf.mb_y0 as u32, mb_w as u32, mb_rows as u32);
            let mut sink = Covered {
                sink: BandSink { buf: &mut buf },
                coverage: &mut coverage,
            };
            let mut recon = Reconstructor {
                refs: &refs,
                sink: &mut sink,
            };
            for i in lo..lo + used {
                let st = Instant::now();
                // The coordinator only dispatches pictures whose
                // recordings are all clean, so replay cannot fail.
                let replayed = replay_slice(recs.get(i), &ctx, &mut recon, &mut scratch);
                debug_assert!(replayed.is_ok(), "recon job carried an erroring recording");
                drop(replayed);
                slice_ns.push(st.elapsed().as_nanos() as u64);
            }
            // The buffer arrived stale: rows no slice coded read zero, the
            // background the splice copies into the frame.
            sink.finish();
        }
        let pixel_ns = t.elapsed().as_nanos() as u64;
        busy += pixel_ns;
        // Release the shared recordings and anchors *before* announcing
        // the band: when the coordinator sees the picture's last band it
        // must hold the only remaining references so the pools can
        // reclaim them.
        drop(recs);
        drop(fwd);
        drop(bwd);
        results.push(Msg::Recon(BandDone {
            pic,
            lo,
            used,
            buf,
            slice_ns,
            pixel_ns,
        }));
    }
    busy
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// Per-picture runtime state while in flight.
#[derive(Default)]
struct PicRuntime {
    dispatched: bool,
    ranges_out: usize,
    vld_done: bool,
    /// VLD result fragments, sorted by `lo` once `vld_done`.
    frags: Vec<RecFrag>,
    /// The fragments wrapped for sharing with band workers, while
    /// reconstruction is in flight.
    shared: Option<Arc<PicRecs>>,
    first_error: Option<Error>,
    vld_max_ns: u64,
    recon_dispatched: bool,
    bands_out: usize,
    band_max_ns: u64,
    assemble_ns: u64,
    building: Option<Arc<Frame>>,
    frame: Option<Arc<Frame>>,
    emitted: bool,
    dependents_left: usize,
}

/// Buffer pools, cost EWMAs and partitioning scratch that outlive a
/// single decode call. Owned by [`PipelineDecoder`] and lent to the
/// coordinator per run, so a long-running decoder (or a benchmark
/// re-decoding the same stream) pays the capacity high-water climb once,
/// not on every `decode_stream` call.
///
/// Everything cycles, nothing allocates once warm. Round-robin queues
/// (`pop_front`/`push_back`) keep each population circulating through
/// real work instead of letting cold entries hide at the bottom of a
/// stack.
#[derive(Default)]
struct Pools {
    /// Spare recordings, one queue per slice index: slice `i` of every
    /// picture records into a recording from queue `i`, so a recording
    /// only ever holds slices at one position and its capacity
    /// high-water mark does not depend on where the cost EWMA happens to
    /// cut the VLD ranges.
    recs: Vec<VecDeque<SliceRecording>>,
    /// Emptied vectors that carry one VLD range's recordings.
    rec_vecs: VecDeque<Vec<SliceRecording>>,
    /// Spare fragment vectors for `PicRuntime::frags`.
    frags: VecDeque<Vec<RecFrag>>,
    /// Fragment containers are only ever returned to the pool once
    /// uniquely owned, so the front is always reusable.
    arcs: VecDeque<Arc<PicRecs>>,
    bands: VecDeque<BandBuffer>,
    ns: VecDeque<Vec<u64>>,
    frames: Vec<Arc<Frame>>,
    /// 16×16 black frame standing in for absent anchors.
    placeholder: Option<Arc<Frame>>,
    // Cost feedback persists across calls: repeated decodes start with
    // calibrated per-row partitions instead of re-learning them.
    vld_history: CostHistory,
    pixel_history: CostHistory,
    // Reusable partitioning scratch.
    rows: Vec<u32>,
    weights: Vec<u64>,
    est: Vec<u64>,
    ranges: Vec<std::ops::Range<usize>>,
}

impl Pools {
    /// Returns a range's recordings to their per-slice queues and the
    /// emptied vector to its pool.
    fn recycle(&mut self, mut frag: RecFrag) {
        let queues = self.recs.iter_mut().skip(frag.lo);
        for (q, rec) in queues.zip(frag.recs.drain(..)) {
            q.push_back(rec);
        }
        self.rec_vecs.push_back(frag.recs);
    }
}

impl std::fmt::Debug for Pools {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pools")
            .field("recs", &self.recs.len())
            .field("frags", &self.frags.len())
            .field("arcs", &self.arcs.len())
            .field("bands", &self.bands.len())
            .field("frames", &self.frames.len())
            .finish_non_exhaustive()
    }
}

struct Coord<'q, 'p> {
    plan: &'p Plan,
    statics: &'p [PicStatic],
    vld_workers: usize,
    recon_workers: usize,
    vld_jobs: &'q Queue<VldJob>,
    recon_jobs: &'q Queue<ReconJob>,
    pics: Vec<PicRuntime>,
    /// Index of the first picture known to carry a decode error.
    error_at: Option<usize>,
    next_vld: usize,
    next_emit: usize,
    /// Jobs pushed minus result messages handled. The coordinator must
    /// never block on the results queue while this is zero — that is a
    /// stall, and the dispatch/emit fixpoint loop exists to prevent it.
    in_flight: usize,
    /// The held not-yet-displayed reference frame (`next_ref`).
    held: Option<Arc<Frame>>,
    placeholder: Arc<Frame>,
    /// Persistent pools and scratch, lent by the decoder for this run.
    pools: &'p mut Pools,
    level_crit: Vec<u64>,
    stats: PipelineStats,
}

impl<'q, 'p> Coord<'q, 'p> {
    fn new(
        plan: &'p Plan,
        statics: &'p [PicStatic],
        vld_workers: usize,
        recon_workers: usize,
        vld_jobs: &'q Queue<VldJob>,
        recon_jobs: &'q Queue<ReconJob>,
        pools: &'p mut Pools,
    ) -> Self {
        let n = plan.pictures.len();
        let max_level = statics.iter().map(|s| s.level).max().unwrap_or(0);
        let mut pics: Vec<PicRuntime> = Vec::with_capacity(n);
        for st in statics {
            pics.push(PicRuntime {
                dependents_left: st.dependents,
                ..PicRuntime::default()
            });
        }
        // Top every pool up to the plan's worst case: pool setup runs
        // before the first `on_frame` callback, which is where the
        // steady-state allocation window opens. Each pool's population is
        // fixed here and circulates round-robin, so members whose inner
        // capacity only use can discover (recording vectors, fragment
        // containers) all reach their high-water marks during the warm-up
        // prefix instead of surfacing cold at a scheduling-dependent
        // moment later. The top-up only grows populations and capacities,
        // so on a decoder's second call the pools arrive warm and this
        // whole block is a no-op.
        let mut max_slices = 0usize;
        let (mut max_w, mut max_mbh) = (0usize, 0usize);
        for p in &plan.pictures {
            max_slices = max_slices.max(p.slices.len());
            max_w = max_w.max(p.seq.mb_width() as usize * 16);
            max_mbh = max_mbh.max(p.seq.mb_height() as usize);
        }
        let vecs_in_flight = (WINDOW + 2) * vld_workers + 2;
        let bands_in_flight = (WINDOW + 2) * recon_workers;
        // Band buffers hold full-frame capacity: the pixel-cost EWMA can
        // legitimately hand one worker most of a picture's rows (and
        // single-band demotion of a corrupt picture hands it all of them),
        // so an even-split sizing would re-grow buffers whenever the
        // measured balance shifts.
        while pools.bands.len() < bands_in_flight {
            pools.bands.push_back(BandBuffer::default());
        }
        for b in pools.bands.iter_mut() {
            b.reserve(max_w, max_mbh);
        }
        while pools.ns.len() < bands_in_flight {
            pools.ns.push_back(Vec::new());
        }
        for v in pools.ns.iter_mut() {
            reserve_to(v, max_slices);
        }
        // Worst case in flight: WINDOW pictures building, plus the held
        // reference and its transient clone during emission hand-over.
        let frames_in_flight = (WINDOW + 4).min(n.max(1));
        while pools.frames.len() < frames_in_flight {
            pools
                .frames
                .push(Arc::new(Frame::zeroed(max_w, max_mbh * 16)));
        }
        if pools.recs.len() < max_slices {
            pools.recs.resize_with(max_slices, VecDeque::new);
        }
        for q in pools.recs.iter_mut() {
            while q.len() < WINDOW + 2 {
                q.push_back(SliceRecording::default());
            }
        }
        while pools.rec_vecs.len() < vecs_in_flight {
            pools.rec_vecs.push_back(Vec::new());
        }
        for v in pools.rec_vecs.iter_mut() {
            reserve_to(v, max_slices);
        }
        // A picture has at most `vld_workers` fragments; size both the
        // spare containers and the ones living inside pooled `PicRecs`
        // up front, so the first push into each never allocates.
        let frag_cap = vld_workers + 1;
        while pools.frags.len() < WINDOW + 4 {
            pools.frags.push_back(Vec::new());
        }
        for v in pools.frags.iter_mut() {
            reserve_to(v, frag_cap);
        }
        while pools.arcs.len() < WINDOW + 4 {
            pools.arcs.push_back(Arc::new(PicRecs::default()));
        }
        for c in pools.arcs.iter_mut().filter_map(Arc::get_mut) {
            reserve_to(&mut c.frags, frag_cap);
        }
        let placeholder = pools
            .placeholder
            .get_or_insert_with(|| Arc::new(Frame::zeroed(16, 16)))
            .clone();
        Coord {
            plan,
            statics,
            vld_workers,
            recon_workers,
            vld_jobs,
            recon_jobs,
            pics,
            error_at: None,
            next_vld: 0,
            next_emit: 0,
            in_flight: 0,
            held: None,
            placeholder,
            pools,
            level_crit: vec![0u64; max_level + 1],
            stats: PipelineStats {
                vld_workers,
                recon_workers,
                ..PipelineStats::default()
            },
        }
    }

    /// Takes a uniquely-owned frame of the right size from the pool, or
    /// creates one (warm-up only).
    fn take_frame(&mut self, w: usize, h: usize) -> Arc<Frame> {
        // Prefer a reusable frame with matching dimensions.
        if let Some(i) = self
            .pools
            .frames
            .iter()
            .position(|a| Arc::strong_count(a) == 1 && a.width() == w && a.height() == h)
        {
            return self.pools.frames.swap_remove(i);
        }
        // Any reusable frame: re-shape it (only on sequence changes).
        if let Some(i) = self
            .pools
            .frames
            .iter()
            .position(|a| Arc::strong_count(a) == 1)
        {
            let mut arc = self.pools.frames.swap_remove(i);
            if let Some(f) = Arc::get_mut(&mut arc) {
                *f = Frame::zeroed(w, h);
            }
            return arc;
        }
        Arc::new(Frame::zeroed(w, h))
    }

    /// Takes a fragment container from the pool (its emptied fragment
    /// vector keeps capacity from earlier use). Containers are only ever
    /// returned to the pool once reclaimed through `Arc::get_mut`, so
    /// every pooled entry is uniquely owned; `pop_front` keeps the whole
    /// population circulating so each container warms up early.
    fn take_arc(&mut self) -> Arc<PicRecs> {
        let arc = self
            .pools
            .arcs
            .pop_front()
            .unwrap_or_else(|| Arc::new(PicRecs::default()));
        debug_assert_eq!(Arc::strong_count(&arc), 1);
        arc
    }

    /// Dispatches VLD jobs for pictures inside the lookahead window.
    fn dispatch_vld_window(&mut self) {
        while self.next_vld < self.plan.pictures.len()
            && self.next_vld < self.next_emit + WINDOW
            && self.error_at.is_none_or(|e| self.next_vld <= e)
        {
            let p = self.next_vld;
            self.next_vld += 1;
            let pic = &self.plan.pictures[p];
            let n = pic.slices.len();
            self.pools.rows.clear();
            self.pools.rows.extend(pic.slices.iter().map(|s| s.row));
            let covered = self.pools.vld_history.estimates_into(
                pic.info.kind,
                &self.pools.rows,
                &mut self.pools.est,
            );
            if !covered {
                self.pools.est.clear();
                self.pools.est.resize(n, 1);
            }
            partition_by_weight_into(&self.pools.est, self.vld_workers, &mut self.pools.ranges);
            let mut frags = self.pools.frags.pop_front().unwrap_or_default();
            frags.clear();
            let rt = &mut self.pics[p];
            rt.dispatched = true;
            rt.frags = frags;
            rt.ranges_out = self.pools.ranges.len();
            let ranges = mem::take(&mut self.pools.ranges);
            for range in &ranges {
                let mut job_recs = self.pools.rec_vecs.pop_front().unwrap_or_default();
                let queues = self.pools.recs.iter_mut().skip(range.start);
                job_recs.extend(
                    queues
                        .take(range.len())
                        .map(|q| q.pop_front().unwrap_or_default()),
                );
                self.vld_jobs.push(VldJob {
                    pic: p,
                    lo: range.start,
                    recs: job_recs,
                });
                self.in_flight += 1;
            }
            self.pools.ranges = ranges;
        }
    }

    fn on_vld_done(&mut self, msg: VldDone) {
        let rt = &mut self.pics[msg.pic];
        rt.frags.push(RecFrag {
            lo: msg.lo,
            recs: msg.recs,
        });
        rt.vld_max_ns = rt.vld_max_ns.max(msg.vld_ns);
        rt.ranges_out -= 1;
        if rt.ranges_out > 0 {
            return;
        }
        rt.vld_done = true;
        // Fragments arrive in completion order; recordings inside each
        // are already in slice order, so sorting by range start restores
        // global slice order (in place, no allocation).
        rt.frags.sort_unstable_by_key(|f| f.lo);
        self.stats.vld_stage_ns += rt.vld_max_ns;
        let kind = self.plan.pictures[msg.pic].info.kind;
        let mut first_error = None;
        for frag in &rt.frags {
            for rec in &frag.recs {
                if first_error.is_none() {
                    first_error = rec.outcome().cloned();
                }
                self.pools
                    .vld_history
                    .update(kind, rec.row(), rec.cost_ns());
            }
        }
        if first_error.is_some() {
            rt.first_error = first_error;
            let cut = match self.error_at {
                Some(e) => e.min(msg.pic),
                None => msg.pic,
            };
            self.error_at = Some(cut);
        }
    }

    /// True when every recorded slice stays on its own macroblock row.
    /// Corrupt-but-parseable streams can code addresses into other rows;
    /// those pictures reconstruct as one band so no write ever crosses a
    /// band boundary.
    fn rows_self_contained(&self, p: usize) -> bool {
        self.pics[p].frags.iter().all(|frag| {
            frag.recs.iter().all(|rec| match rec.mb_row_span() {
                None => true,
                Some((lo, hi)) => lo == rec.row() && hi == rec.row(),
            })
        })
    }

    /// Dispatches reconstruction for picture `p` if its recordings and
    /// anchor frames are ready.
    fn try_dispatch_recon(&mut self, p: usize) {
        let st = self.statics[p];
        {
            let rt = &self.pics[p];
            if !rt.vld_done || rt.recon_dispatched || rt.first_error.is_some() {
                return;
            }
        }
        if self.error_at.is_some_and(|e| p >= e) {
            return;
        }
        let fwd = match st.fwd {
            Some(i) => match &self.pics[i].frame {
                Some(a) => Arc::clone(a),
                None => return,
            },
            None => Arc::clone(&self.placeholder),
        };
        let bwd = match st.bwd {
            Some(i) => match &self.pics[i].frame {
                Some(a) => Arc::clone(a),
                None => return,
            },
            None => Arc::clone(&self.placeholder),
        };
        let pic = &self.plan.pictures[p];
        let mbh = pic.seq.mb_height() as usize;
        let (w, h) = (
            pic.seq.mb_width() as usize * 16,
            pic.seq.mb_height() as usize * 16,
        );
        let kind = pic.info.kind;
        let nslices = pic.slices.len();
        // Per-row pixel weights: EWMA scattered over all mb rows (rows
        // with no slices weigh ~0 and are absorbed by their neighbours).
        self.pools.rows.clear();
        self.pools.rows.extend(pic.slices.iter().map(|s| s.row));
        let covered =
            self.pools
                .pixel_history
                .estimates_into(kind, &self.pools.rows, &mut self.pools.est);
        self.pools.weights.clear();
        self.pools.weights.resize(mbh, 0);
        if covered {
            for (i, &row) in self.pools.rows.iter().enumerate() {
                if let Some(wt) = self.pools.weights.get_mut(row as usize) {
                    *wt = wt.saturating_add(self.pools.est[i]);
                }
            }
        } else {
            for wt in self.pools.weights.iter_mut() {
                *wt = 1;
            }
        }
        let single_band = !self.rows_self_contained(p);
        if single_band {
            self.pools.ranges.clear();
            self.pools.ranges.push(0..mbh);
            self.stats.single_band_pictures += 1;
        } else {
            partition_by_weight_into(
                &self.pools.weights,
                self.recon_workers,
                &mut self.pools.ranges,
            );
        }
        // Wrap the picture's fragments for read-only sharing with the
        // band workers: contents move wholesale into a recycled `Arc`
        // container, recordings never change vectors.
        let mut shared = self.take_arc();
        {
            let container =
                Arc::get_mut(&mut shared).expect("pooled fragment containers are uniquely owned");
            mem::swap(&mut container.frags, &mut self.pics[p].frags);
        }
        let spare_frags = mem::take(&mut self.pics[p].frags);
        self.pools.frags.push_back(spare_frags);
        let rt = &mut self.pics[p];
        rt.recon_dispatched = true;
        rt.bands_out = self.pools.ranges.len();
        rt.shared = Some(Arc::clone(&shared));
        let ranges = mem::take(&mut self.pools.ranges);
        let mut slice_cursor = 0usize;
        for range in &ranges {
            // Slices are validated non-decreasing in row, so a row range
            // maps to one contiguous slice run.
            let lo = slice_cursor;
            while slice_cursor < nslices && (self.pools.rows[slice_cursor] as usize) < range.end {
                slice_cursor += 1;
            }
            let used = slice_cursor - lo;
            let mut buf = self.pools.bands.pop_front().unwrap_or_default();
            buf.prepare(w, range.start, range.end);
            let slice_ns = self.pools.ns.pop_front().unwrap_or_default();
            self.recon_jobs.push(ReconJob {
                pic: p,
                lo,
                used,
                recs: Arc::clone(&shared),
                fwd: Arc::clone(&fwd),
                bwd: Arc::clone(&bwd),
                buf,
                slice_ns,
            });
            self.in_flight += 1;
            self.stats.bands += 1;
        }
        self.pools.ranges = ranges;
        drop(shared);
        let building = self.take_frame(w, h);
        self.pics[p].building = Some(building);
        // The anchors are captured in the jobs now; this picture no
        // longer pins them.
        if let Some(f) = st.fwd {
            self.pics[f].dependents_left -= 1;
            self.maybe_release(f);
        }
        if let Some(b) = st.bwd {
            if st.bwd != st.fwd {
                self.pics[b].dependents_left -= 1;
                self.maybe_release(b);
            }
        }
    }

    fn on_band_done(&mut self, msg: BandDone) {
        let pic = &self.plan.pictures[msg.pic];
        let kind = pic.info.kind;
        for i in 0..msg.used {
            let row = pic.slices[msg.lo + i].row;
            let ns = msg.slice_ns.get(i).copied().unwrap_or(0);
            self.pools.pixel_history.update(kind, row, ns);
        }
        let rt = &mut self.pics[msg.pic];
        let t = Instant::now();
        {
            let arc = rt
                .building
                .as_mut()
                .expect("band arrived for a picture with no building frame");
            let frame =
                Arc::get_mut(arc).expect("coordinator holds the only reference while building");
            let mbh = frame.height() / 16;
            let band = frame.as_band_mut();
            let band = if msg.buf.mb_y0 > 0 {
                band.split_at_mb_row(msg.buf.mb_y0).1
            } else {
                band
            };
            let mut band = if msg.buf.mb_y1 < mbh {
                band.split_at_mb_row(msg.buf.mb_y1).0
            } else {
                band
            };
            band.y.copy_from_packed(&msg.buf.y);
            band.cb.copy_from_packed(&msg.buf.cb);
            band.cr.copy_from_packed(&msg.buf.cr);
        }
        rt.assemble_ns += t.elapsed().as_nanos() as u64;
        rt.band_max_ns = rt.band_max_ns.max(msg.pixel_ns);
        rt.bands_out -= 1;
        self.pools.bands.push_back(msg.buf);
        self.pools.ns.push_back(msg.slice_ns);
        if rt.bands_out == 0 {
            rt.frame = rt.building.take();
            let crit = rt.band_max_ns + rt.assemble_ns;
            self.stats.assemble_ns += rt.assemble_ns;
            let lvl = self.statics[msg.pic].level;
            self.level_crit[lvl] = self.level_crit[lvl].max(crit);
            // Every band worker dropped its reference before sending its
            // `BandDone`, so the shared container is uniquely owned again:
            // return the recording vectors and the container to their pools.
            if let Some(mut shared) = self.pics[msg.pic].shared.take() {
                let container = Arc::get_mut(&mut shared)
                    .expect("workers release shared recordings before BandDone");
                for frag in container.frags.drain(..) {
                    self.pools.recycle(frag);
                }
                self.pools.arcs.push_back(shared);
            }
        }
    }

    /// Returns a picture's frame to the pool once it has been emitted
    /// and no later picture still needs it as a reference.
    fn maybe_release(&mut self, p: usize) {
        let rt = &mut self.pics[p];
        if rt.emitted && rt.dependents_left == 0 {
            if let Some(arc) = rt.frame.take() {
                self.pools.frames.push(arc);
            }
        }
    }

    /// Tries to dispatch reconstruction for every in-window picture.
    fn dispatch_recon_window(&mut self) {
        let hi = (self.next_emit + WINDOW).min(self.plan.pictures.len());
        for p in self.next_emit..hi {
            self.try_dispatch_recon(p);
        }
    }

    /// Emits every picture that is ready, replicating the sequential
    /// decoder's `finish_picture` contract. Returns the first decode
    /// error once emission reaches the erroring picture.
    fn emit_ready(&mut self, on_frame: &mut impl FnMut(&Frame, &PictureInfo)) -> Result<(), Error> {
        while self.next_emit < self.plan.pictures.len() {
            let p = self.next_emit;
            if !self.pics[p].vld_done {
                break;
            }
            if let Some(e) = &self.pics[p].first_error {
                // The sequential decoder errors at this picture's first
                // bad slice — after every earlier picture's finish has
                // emitted, which is exactly what has happened here.
                return Err(e.clone());
            }
            let Some(frame) = self.pics[p].frame.clone() else {
                break;
            };
            let info = &self.plan.pictures[p].info;
            if info.kind == PictureKind::B {
                on_frame(&frame, info);
                drop(frame);
            } else {
                // A new reference releases the held one for display with
                // the *finishing* picture's info, as in the sequential
                // decoder.
                if let Some(released) = self.held.take() {
                    on_frame(&released, info);
                }
                self.held = Some(frame);
            }
            self.pics[p].emitted = true;
            self.stats.pictures += 1;
            self.maybe_release(p);
            self.next_emit += 1;
        }
        Ok(())
    }

    fn finish_stats(&mut self) {
        self.stats.recon_stage_ns = self.level_crit.iter().sum();
        self.stats.model_critical_ns = self.stats.vld_stage_ns.max(self.stats.recon_stage_ns);
    }

    /// Hands everything still held by per-run state back to the
    /// persistent pools so the next decode call starts warm: frames kept
    /// as references until end of stream, the held display frame,
    /// aborted builds, and recordings of never-reconstructed pictures
    /// (error cut-offs). Runs after the worker joins, so anything not
    /// reclaimed here (contents of still-queued jobs) is released when
    /// the queues drop and is simply re-created by the next top-up.
    fn reclaim(&mut self) {
        if let Some(h) = self.held.take() {
            self.pools.frames.push(h);
        }
        for rt in &mut self.pics {
            if let Some(a) = rt.building.take() {
                self.pools.frames.push(a);
            }
            if let Some(a) = rt.frame.take() {
                self.pools.frames.push(a);
            }
            if let Some(mut shared) = rt.shared.take() {
                if let Some(c) = Arc::get_mut(&mut shared) {
                    for frag in c.frags.drain(..) {
                        self.pools.recycle(frag);
                    }
                    self.pools.arcs.push_back(shared);
                }
            }
            let mut frags = mem::take(&mut rt.frags);
            for frag in frags.drain(..) {
                self.pools.recycle(frag);
            }
            if frags.capacity() > 0 {
                self.pools.frags.push_back(frags);
            }
        }
    }
}

/// Runs the fast-path pipeline over a validated plan.
fn run_pipeline(
    data: &[u8],
    plan: &Plan,
    statics: &[PicStatic],
    vld_workers: usize,
    recon_workers: usize,
    pools: &mut Pools,
    mut on_frame: impl FnMut(&Frame, &PictureInfo),
) -> (Result<StreamSummary, Error>, PipelineStats) {
    let vld_jobs = Queue::<VldJob>::with_capacity((WINDOW + 2) * vld_workers);
    let recon_jobs = Queue::<ReconJob>::with_capacity((WINDOW + 2) * recon_workers);
    let results = Queue::<Msg>::with_capacity((WINDOW + 2) * (vld_workers + recon_workers + 2));
    thread::scope(|s| {
        let vld_handles: Vec<_> = (0..vld_workers)
            .map(|_| s.spawn(|| vld_worker_loop(data, plan, &vld_jobs, &results)))
            .collect();
        // Each recon worker's coverage bitmap is allocated here, before
        // the first frame and for a whole picture of the largest kind: a
        // worker the scheduler starts late, or hands a taller band than
        // any before, then allocates nothing in steady state.
        let picture_mbs = plan
            .pictures
            .iter()
            .map(|p| p.seq.mb_width().saturating_mul(p.seq.mb_height()))
            .max()
            .unwrap_or(0);
        let (jobs, done) = (&recon_jobs, &results);
        let recon_handles: Vec<_> = (0..recon_workers)
            .map(|_| {
                let mut coverage = MbCoverage::default();
                coverage.begin(0, 0, picture_mbs, 1);
                s.spawn(move || recon_worker_loop(plan, jobs, done, coverage))
            })
            .collect();
        let mut coord = Coord::new(
            plan,
            statics,
            vld_workers,
            recon_workers,
            &vld_jobs,
            &recon_jobs,
            pools,
        );
        let n = plan.pictures.len();
        let result = 'run: loop {
            // Dispatch and emit to a fixpoint before blocking: emitting
            // advances `next_emit`, which widens both dispatch windows,
            // which can enable further dispatch. Without the re-dispatch
            // round the pipeline can stall: the last in-flight message
            // completes the window's laggard picture, `emit_ready` then
            // emits the whole window in one sweep, and the loop would
            // block on an empty results queue with zero jobs outstanding
            // even though the widened window has pictures left to run.
            loop {
                coord.dispatch_vld_window();
                coord.dispatch_recon_window();
                let emitted_to = coord.next_emit;
                if let Err(e) = coord.emit_ready(&mut on_frame) {
                    break 'run Err(e);
                }
                if coord.next_emit == emitted_to {
                    break;
                }
            }
            if coord.next_emit == n {
                // End of stream: flush the held reference frame with the
                // synthesized info, as the sequential decoder does.
                if let Some(h) = coord.held.take() {
                    on_frame(&h, &flush_picture_info());
                }
                break Ok(StreamSummary {
                    seq: plan
                        .final_seq
                        .clone()
                        .expect("validated plans carry the folded sequence"),
                    pictures: n,
                });
            }
            debug_assert!(
                coord.in_flight > 0,
                "pipeline stall: blocking on results with no jobs in flight"
            );
            let Some(msg) = results.pop() else {
                break Err(Error::Syntax(
                    "pipeline workers terminated unexpectedly".into(),
                ));
            };
            coord.in_flight -= 1;
            match msg {
                Msg::Vld(m) => coord.on_vld_done(m),
                Msg::Recon(m) => coord.on_band_done(m),
            }
        };
        vld_jobs.close();
        recon_jobs.close();
        let vld_busy: Vec<u64> = vld_handles
            .into_iter()
            .map(|h| h.join().unwrap_or(0))
            .collect();
        let recon_busy: Vec<u64> = recon_handles
            .into_iter()
            .map(|h| h.join().unwrap_or(0))
            .collect();
        coord.reclaim();
        coord.finish_stats();
        let mut stats = coord.stats;
        stats.vld_busy_ns = vld_busy;
        stats.recon_busy_ns = recon_busy;
        (result, stats)
    })
}

// ---------------------------------------------------------------------
// Public decoder
// ---------------------------------------------------------------------

/// The node-local parallel MPEG-2 decoder: slice-parallel VLD feeding
/// band-parallel pixel reconstruction with cross-picture overlap.
/// Bit-exact with [`Decoder::decode_stream`] — frames, errors and error
/// bit positions — for every stream and worker count.
#[derive(Debug, Default)]
pub struct PipelineDecoder {
    vld_workers: usize,
    recon_workers: usize,
    auto_tune: bool,
    last_stats: PipelineStats,
    /// Pools persist across `decode_stream` calls: a long-running
    /// decoder pays the pool warm-up (capacity climbs, cost-EWMA
    /// calibration) once, not per call.
    pools: Pools,
}

impl PipelineDecoder {
    /// Creates a decoder with exact worker counts (no auto-tuning), for
    /// tests and benchmarks that pin the machinery. `(0, 0)` is the
    /// sequential [`Decoder`]; any other pair pipelines with each stage
    /// clamped to at least one worker, so "VLD-parallel only" is `(n, 1)`
    /// and "recon-parallel only" is `(1, n)`.
    pub fn new(vld_workers: usize, recon_workers: usize) -> Self {
        PipelineDecoder {
            vld_workers: vld_workers.min(MAX_WORKERS),
            recon_workers: recon_workers.min(MAX_WORKERS),
            auto_tune: false,
            last_stats: PipelineStats::default(),
            pools: Pools::default(),
        }
    }

    /// Like [`new`](Self::new) but both counts are upper bounds, clamped
    /// per stream to the picture's row count (extra workers would only
    /// idle) and to [`host_cpus()`] (oversubscribed workers time-slice
    /// one core and only add imbalance), and streams whose pictures are
    /// all below [`MIN_AUTO_PARALLEL_MBS`] macroblocks decode
    /// sequentially. The clamp decision is recorded in [`PipelineStats`].
    pub fn auto_tuned(vld_workers: usize, recon_workers: usize) -> Self {
        PipelineDecoder {
            auto_tune: true,
            ..Self::new(vld_workers, recon_workers)
        }
    }

    /// Measurements of the most recent decode.
    pub fn stats(&self) -> &PipelineStats {
        &self.last_stats
    }

    /// Decodes a whole elementary stream, invoking `on_frame` for every
    /// picture in display order — same contract, frames and errors as
    /// the sequential decoder.
    pub fn decode_stream(
        &mut self,
        data: &[u8],
        on_frame: impl FnMut(&Frame, &PictureInfo),
    ) -> Result<StreamSummary, Error> {
        let start = Instant::now();
        let cpus = host_cpus();
        let (result, mut stats) = match self.commit(data, cpus) {
            Some((plan, statics, vld, recon)) => {
                run_pipeline(data, &plan, &statics, vld, recon, &mut self.pools, on_frame)
            }
            None => (
                Decoder::new().decode_stream(data, on_frame),
                PipelineStats {
                    sequential_fallback: true,
                    ..PipelineStats::default()
                },
            ),
        };
        stats.wall_ns = start.elapsed().as_nanos() as u64;
        stats.requested_vld_workers = self.vld_workers;
        stats.requested_recon_workers = self.recon_workers;
        stats.host_cpus = cpus;
        self.last_stats = stats;
        result
    }

    /// The validated plan and the `(vld, recon)` worker counts to
    /// pipeline `data` with, or `None` when the stream decodes
    /// sequentially: `(0, 0)` configured, auto-tune declined, or a plan
    /// [`analyze`] rejects.
    fn commit(&self, data: &[u8], cpus: usize) -> Option<(Plan, Vec<PicStatic>, usize, usize)> {
        if (self.vld_workers, self.recon_workers) == (0, 0) {
            return None;
        }
        let plan = Plan::build(data);
        let (vld, recon) = if self.auto_tune {
            self.auto_counts(&plan, cpus)?
        } else {
            (self.vld_workers, self.recon_workers)
        };
        let statics = analyze(&plan)?;
        Some((plan, statics, vld.max(1), recon.max(1)))
    }

    /// Auto-tune clamp: worker counts bounded by the widest picture's
    /// row count and the host CPU count; `None` (sequential) when every
    /// picture is tiny.
    fn auto_counts(&self, plan: &Plan, cpus: usize) -> Option<(usize, usize)> {
        let mut max_rows = 0usize;
        let mut max_mbs = 0u32;
        for p in &plan.pictures {
            max_rows = max_rows.max(p.seq.mb_height() as usize);
            max_mbs = max_mbs.max(p.seq.mb_width().saturating_mul(p.seq.mb_height()));
        }
        let clamp = |n: usize| n.min(max_rows).min(cpus);
        (max_mbs >= MIN_AUTO_PARALLEL_MBS)
            .then(|| (clamp(self.vld_workers), clamp(self.recon_workers)))
    }

    /// Decodes a whole stream into display-order frames.
    pub fn decode_all(&mut self, data: &[u8]) -> Result<Vec<Frame>, Error> {
        let mut frames = Vec::new();
        self.decode_stream(data, |f, _| frames.push(f.clone()))?;
        Ok(frames)
    }

    /// Decodes under `ErrorPolicy::Resilient`:
    /// [`decode_all_resilient_with`] over [`decode_all`](Self::decode_all),
    /// so parallel ≡ sequential under damage by construction.
    pub fn decode_all_resilient(
        &mut self,
        data: &[u8],
    ) -> Result<(Vec<Frame>, StreamDamage), Error> {
        decode_all_resilient_with(data, |bytes| self.decode_all(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_delivers_in_order_and_closes() {
        let q = Queue::<u32>::with_capacity(4);
        q.push(1);
        q.push(2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.push(3);
        q.close();
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn queue_unblocks_waiters_across_threads() {
        let q = Arc::new(Queue::<u32>::with_capacity(4));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop());
        thread::sleep(std::time::Duration::from_millis(10));
        q.push(7);
        assert_eq!(h.join().unwrap(), Some(7));
    }

    #[test]
    fn band_sink_lends_macroblocks_in_band_coordinates() {
        let mut buf = BandBuffer::default();
        buf.prepare(48, 2, 4); // rows 32..64 of a 48-wide picture
        for plane in [&mut buf.y, &mut buf.cb, &mut buf.cr] {
            plane.fill(0xA5);
        }
        let mut coverage = MbCoverage::default();
        coverage.begin(0, 2, 3, 2);
        let mut sink = Covered {
            sink: BandSink { buf: &mut buf },
            coverage: &mut coverage,
        };
        // Picture mb (1,2) = band-local row 0.
        let dst = sink.lend(1, 2);
        assert_eq!((dst.y_stride, dst.c_stride), (48, 24));
        (dst.y[0], dst.cb[0], dst.cr[0]) = (9, 7, 5);
        sink.finish();
        assert_eq!((buf.y[16], buf.cb[8], buf.cr[8]), (9, 7, 5)); // first band row, px 16
        assert_eq!(buf.y[17], 0xA5, "a lent macroblock keeps what was written");
        // Every macroblock nobody lent reads zero, stale bytes or not.
        let lent = |i: usize, w: usize, mb: usize| (i % w) / mb == 1 && i / w < mb;
        assert!((0..buf.y.len()).all(|i| lent(i, 48, 16) || buf.y[i] == 0));
        assert!((0..buf.cb.len()).all(|i| lent(i, 24, 8) || (buf.cb[i], buf.cr[i]) == (0, 0)));
    }

    #[test]
    fn prepare_keeps_stale_bytes_and_zero_fills_only_growth() {
        let mut buf = BandBuffer::default();
        buf.reserve(48, 4);
        buf.prepare(48, 0, 2);
        buf.y.fill(0xA5);
        let storage = buf.y.as_ptr();
        buf.prepare(48, 1, 2);
        assert_eq!(buf.y, vec![0xA5; 48 * 16]);
        buf.prepare(48, 0, 4);
        assert_eq!(buf.y[..48 * 16], vec![0xA5; 48 * 16]);
        assert_eq!(buf.y[48 * 16..], vec![0; 48 * 48]);
        assert_eq!(buf.y.as_ptr(), storage, "reserved once, never reallocated");
    }

    #[test]
    #[should_panic(expected = "outside band")]
    fn band_sink_rejects_rows_outside_its_band() {
        let mut buf = BandBuffer::default();
        buf.prepare(48, 2, 4);
        BandSink { buf: &mut buf }.lend(0, 0);
    }

    #[test]
    #[should_panic(expected = "outside band")]
    fn band_sink_rejects_columns_outside_the_picture() {
        let mut buf = BandBuffer::default();
        buf.prepare(48, 2, 4);
        BandSink { buf: &mut buf }.lend(3, 2);
    }

    /// Every pooled frame and band buffer scribbled to `0xA5` between two
    /// decodes changes no output byte — of a stream that leaves rows
    /// unwritten, so the zeroing of unlent macroblocks is what is on trial.
    #[test]
    fn stale_pool_buffers_do_not_show_in_the_output() {
        use tiledec_mpeg2::encoder::{Encoder, EncoderConfig};
        let (w, h) = (64usize, 64usize);
        let clip: Vec<Frame> = (0..8)
            .map(|t| {
                let mut f = Frame::black(w, h);
                for y in 0..h {
                    for x in 0..w {
                        f.y.set(x, y, (40 + (x * 3 + y * 5 + t * 11) % 180) as u8);
                    }
                }
                f
            })
            .collect();
        let mut cfg = EncoderConfig::for_size(w as u32, h as u32);
        cfg.gop_size = 4;
        cfg.b_frames = 1;
        let clean = Encoder::new(cfg).unwrap().encode(&clip).unwrap();
        // Drop the third slice row of every picture.
        let index = tiledec_bitstream::StartCodeIndex::build(&clean);
        let codes = index.codes();
        let mut stream = Vec::new();
        for (i, c) in codes.iter().enumerate() {
            let end = codes.get(i + 1).map_or(clean.len(), |n| n.offset);
            if c.code != 3 {
                stream.extend_from_slice(&clean[c.offset..end]);
            }
        }
        let reference = tiledec_mpeg2::decode_all(&stream).expect("missing slices are legal");
        assert!(reference[0].y.row(32).iter().all(|&v| v == 0));

        let mut dec = PipelineDecoder::new(2, 2);
        assert!(dec.decode_all(&stream).unwrap() == reference);
        assert!(!dec.stats().sequential_fallback);
        assert!(!dec.pools.frames.is_empty() && !dec.pools.bands.is_empty());
        for frame in dec.pools.frames.iter_mut() {
            let f = Arc::get_mut(frame).expect("pooled frames are uniquely owned");
            for plane in [&mut f.y, &mut f.cb, &mut f.cr] {
                plane.fill(0xA5);
            }
        }
        for band in dec.pools.bands.iter_mut() {
            for plane in [&mut band.y, &mut band.cb, &mut band.cr] {
                plane.fill(0xA5);
            }
        }
        assert!(dec.decode_all(&stream).unwrap() == reference);
    }

    #[test]
    fn analyze_rejects_garbage_plans() {
        assert!(analyze(&Plan::build(&[])).is_none());
        assert!(analyze(&Plan::build(&[0xFF; 16])).is_none());
    }

    #[test]
    fn stats_ratios_read_the_recon_stage() {
        let s = PipelineStats {
            vld_busy_ns: vec![400],
            recon_busy_ns: vec![100, 300],
            wall_ns: 400,
            ..PipelineStats::default()
        };
        assert!((s.utilization() - 0.5).abs() < 1e-9);
        assert!((s.imbalance() - 1.5).abs() < 1e-9);
        assert_eq!(PipelineStats::default().utilization(), 0.0);
        assert_eq!(PipelineStats::default().imbalance(), 0.0);
    }
}
