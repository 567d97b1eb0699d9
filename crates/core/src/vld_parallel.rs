//! Slice-parallel entropy decode with complexity-weighted dynamic
//! partitioning.
//!
//! After the fused-VLC fast path, entropy decode costs about as much as
//! the entire pixel path (`vld_share` ≈ 0.5 in `BENCH_decode.json`) and
//! still runs on one thread. This module applies the paper's k-splitter
//! idea *inside* one node: slices are entropy-independent (all predictor
//! state resets at a slice start) and delimited by byte-aligned start
//! codes, so their VLC can be decoded concurrently while pixel
//! reconstruction stays sequential and in stream order.
//!
//! The moving parts:
//!
//! * [`Plan`] — one SWAR sweep ([`StartCodeIndex`]) plus a header-only
//!   walk produces, per picture, the slice start offsets and a snapshot
//!   of the sequence/picture parameters the sequential decoder will use
//!   for them.
//! * **Workers** — `N` std-only threads pull [`Job`]s (contiguous slice
//!   ranges of one picture) from a shared channel and run the recording
//!   walker ([`record_slice`]) over each slice against the *full* stream
//!   buffer, so every recorded bit position — including error positions —
//!   matches the sequential decoder exactly. Finished recordings are
//!   recycled through a return channel, the same buffer-reuse discipline
//!   as [`BufferPool`](crate::wire::BufferPool) on the wire paths.
//! * **Coordinator** — implements the decoder's
//!   [`SliceExecutor`] re-entry point: the unmodified sequential
//!   [`Decoder`] keeps walking the stream and making every structural
//!   decision, and at each slice the coordinator replays the worker's
//!   recording into the real `Reconstructor` ([`replay_slice`]).
//!   Frames are therefore stitched deterministically in stream order, and
//!   first-error-wins falls out for free: the first slice whose recording
//!   carries an error is the first one the coordinator replays. If a
//!   slice was not planned, its context snapshot mismatches the live
//!   decoder state, or its recording does not arrive, the coordinator
//!   decodes it inline — the safety valve that keeps every stream
//!   bit-exact regardless of what the planner understood.
//! * **Dynamic partitioner** — per-slice VLD cost is fed back into an
//!   EWMA history keyed by (picture kind, slice row); once history covers
//!   a picture's rows, ranges are re-balanced each picture to minimise
//!   the critical path ([`partition_by_weight`]), per the paper's "same
//!   frames ≈ same cost" observation. The first picture of each kind
//!   falls back to a uniform split.
//!
//! Pictures are dispatched with a small lookahead so workers decode
//! entropy for picture `p+1`/`p+2` while the coordinator reconstructs
//! pixels for picture `p`.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tiledec_bitstream::{BitReader, StartCode, StartCodeIndex};
use tiledec_cluster::sync::lock_ignore_poison;
use tiledec_mpeg2::block::MbCoeffs;
use tiledec_mpeg2::decoder::{Decoder, SliceExecutor, StreamSummary};
use tiledec_mpeg2::headers;
use tiledec_mpeg2::motion::FrameRefs;
use tiledec_mpeg2::recon::{FrameSink, Reconstructor};
use tiledec_mpeg2::slice::{parse_slice, SliceContext};
use tiledec_mpeg2::types::{PictureInfo, PictureKind, SequenceInfo};
use tiledec_mpeg2::vld::{record_slice, replay_slice, SliceRecording};
use tiledec_mpeg2::{apply_display_patches, repair_stream, Frame, StreamDamage};

/// Environment variable selecting the worker count for binaries that call
/// [`ParallelVldDecoder::from_env`] (0 or unset = sequential decode).
pub const VLD_WORKERS_ENV: &str = "TILEDEC_VLD_WORKERS";

/// Upper bound on the worker count accepted from the environment.
const MAX_WORKERS: usize = 64;

/// Logical CPUs on this host (1 if the count cannot be determined).
///
/// Auto-tuned decoders clamp their worker count here: the bench curve
/// showed 8 workers on a 1-core host losing to 1 worker (imbalance
/// 3.5–6.3×) because oversubscribed workers just time-slice the same
/// core while the partitioner splits work it can never run concurrently.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Auto-tuned decoders fall back to sequential decode when every picture
/// is below this many macroblocks: on tiny pictures the record/replay
/// round trip costs more than it hides (the 128×96 `tiny` bench preset
/// measured a 0.805× one-worker "speedup" before this gate).
pub(crate) const MIN_AUTO_PARALLEL_MBS: u32 = 128;

/// Pictures dispatched ahead of the one being reconstructed.
const LOOKAHEAD: usize = 2;

/// How long the coordinator waits for a worker recording before decoding
/// the slice inline. Generous: only a wedged worker thread ever trips it.
const RESULT_TIMEOUT: Duration = Duration::from_secs(10);

/// One planned slice: where its start code begins and which macroblock row
/// it covers.
#[derive(Debug, Clone, Copy)]
pub struct PlannedSlice {
    /// Byte offset of the first `0x00` of the slice start code.
    pub offset: usize,
    /// Macroblock row (`start_code_value - 1`).
    pub row: u32,
}

/// One picture's planned slices plus the header state snapshot workers
/// decode them under.
#[derive(Debug, Clone)]
pub struct PlannedPicture {
    /// Sequence parameters in effect at this picture's slices.
    pub seq: SequenceInfo,
    /// Picture header + coding extension.
    pub info: PictureInfo,
    /// Slices in stream order.
    pub slices: Vec<PlannedSlice>,
}

/// Stream structure extracted by the planning pass: per-picture slice
/// ranges and the header snapshots to decode them under.
///
/// Planning mirrors the sequential decoder's header folding but stops at
/// the first thing it cannot understand (header parse error, slice before
/// the headers it needs): the sequential walk will fail there before any
/// unplanned recording could matter, and any slice that planning missed is
/// simply decoded inline by the coordinator.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Pictures that own at least the headers needed to decode slices.
    pub pictures: Vec<PlannedPicture>,
    /// PICTURE start codes encountered, including pictures that never
    /// produced a slice (those are invisible in [`Plan::pictures`] but
    /// make the sequential decoder fail with "picture contained no
    /// slices" — consumers that pre-commit to the plan must compare this
    /// against `pictures.len()`).
    pub pictures_seen: usize,
    /// True when the planning walk consumed the entire stream without
    /// hitting anything it could not parse. When false, the sequential
    /// decoder may fail (or diverge) somewhere planning did not model,
    /// so consumers that need the whole stream's structure up front
    /// (rather than the per-slice safety valve) must fall back.
    pub complete: bool,
    /// Sequence parameters after folding the *whole* stream — what the
    /// sequential decoder reports in its [`StreamSummary`]. (Snapshots in
    /// [`PlannedPicture`] are per-picture; a trailing sequence header
    /// after the last picture updates this but no snapshot.)
    pub final_seq: Option<SequenceInfo>,
    by_offset: HashMap<usize, (usize, usize)>,
}

impl Plan {
    /// Indexes start codes and folds headers into per-picture snapshots.
    pub fn build(data: &[u8]) -> Self {
        let index = StartCodeIndex::build(data);
        let mut plan = Plan::default();
        let mut seq: Option<SequenceInfo> = None;
        // (info, coding-extension parsed, index into plan.pictures once a
        // slice has been planned)
        let mut cur: Option<(PictureInfo, bool, Option<usize>)> = None;
        for code in index.codes() {
            let mut r = BitReader::at(data, (code.offset + 4) * 8);
            match code.code {
                StartCode::SEQUENCE_HEADER => match headers::parse_sequence_header(&mut r) {
                    Ok(s) => seq = Some(s),
                    Err(_) => return plan,
                },
                StartCode::EXTENSION => {
                    let Ok(id) = r.read_bits(4) else { return plan };
                    if id == headers::EXT_ID_SEQUENCE {
                        let Some(s) = seq.as_mut() else { return plan };
                        if headers::parse_sequence_extension(&mut r, s).is_err() {
                            return plan;
                        }
                    } else if id == headers::EXT_ID_PICTURE_CODING {
                        let Some((info, ext, _)) = cur.as_mut() else {
                            return plan;
                        };
                        if headers::parse_picture_coding_extension(&mut r, info).is_err() {
                            return plan;
                        }
                        *ext = true;
                    }
                }
                StartCode::PICTURE => match headers::parse_picture_header(&mut r) {
                    Ok(info) => {
                        plan.pictures_seen += 1;
                        cur = Some((info, false, None));
                    }
                    Err(_) => return plan,
                },
                // The sequential decoder parses GOP headers (and fails on
                // malformed ones); model that so `complete` only holds
                // when the sequential walk cannot trip on a header.
                StartCode::GROUP => {
                    if headers::parse_gop_header(&mut r).is_err() {
                        return plan;
                    }
                }
                StartCode::USER_DATA | StartCode::SEQUENCE_END => {}
                c if StartCode { offset: 0, code: c }.is_slice() => {
                    let Some(s) = seq.as_ref() else { return plan };
                    let Some((info, ext, pic_idx)) = cur.as_mut() else {
                        return plan;
                    };
                    if !*ext {
                        return plan;
                    }
                    let idx = match pic_idx {
                        Some(i) => *i,
                        None => {
                            plan.pictures.push(PlannedPicture {
                                seq: s.clone(),
                                info: info.clone(),
                                slices: Vec::new(),
                            });
                            let i = plan.pictures.len() - 1;
                            *pic_idx = Some(i);
                            i
                        }
                    };
                    let sidx = plan.pictures[idx].slices.len();
                    plan.pictures[idx].slices.push(PlannedSlice {
                        offset: code.offset,
                        row: (c - 1) as u32,
                    });
                    plan.by_offset.insert(code.offset, (idx, sidx));
                }
                _ => return plan,
            }
        }
        plan.complete = true;
        plan.final_seq = seq;
        plan
    }

    /// Total number of planned slices across all pictures.
    pub fn slice_count(&self) -> usize {
        self.pictures.iter().map(|p| p.slices.len()).sum()
    }

    /// Looks up a slice by the byte offset of its start code.
    pub fn slice_at(&self, offset: usize) -> Option<(usize, usize)> {
        self.by_offset.get(&offset).copied()
    }
}

/// Splits `weights` into at most `k` contiguous ranges minimising the
/// maximum range sum (the VLD critical path), via binary search on the
/// range-sum cap with a greedy feasibility check. Zero weights are treated
/// as 1 so every range stays non-empty and bounded.
pub fn partition_by_weight(weights: &[u64], k: usize) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    partition_by_weight_into(weights, k, &mut out);
    out
}

/// Allocation-free form of [`partition_by_weight`]: clears and refills
/// `out`, so per-picture partitioning in the hot pipeline can reuse one
/// scratch vector instead of allocating each call. Zero weights are
/// treated as 1 inline (no copy of `weights` is made).
pub(crate) fn partition_by_weight_into(weights: &[u64], k: usize, out: &mut Vec<Range<usize>>) {
    out.clear();
    if weights.is_empty() || k == 0 {
        return;
    }
    let k = k.min(weights.len());
    let mut lo = weights.iter().map(|&x| x.max(1)).max().unwrap_or(1);
    let mut hi = weights.iter().map(|&x| x.max(1)).sum::<u64>();
    while lo < hi {
        let cap = lo + (hi - lo) / 2;
        if ranges_needed(weights, cap) <= k {
            hi = cap;
        } else {
            lo = cap + 1;
        }
    }
    let cap = lo;
    let mut start = 0usize;
    let mut sum = 0u64;
    for (i, &x) in weights.iter().enumerate() {
        let x = x.max(1);
        if sum + x > cap && i > start {
            out.push(start..i);
            start = i;
            sum = 0;
        }
        sum += x;
    }
    out.push(start..weights.len());
}

fn ranges_needed(weights: &[u64], cap: u64) -> usize {
    let mut n = 1usize;
    let mut sum = 0u64;
    for &x in weights {
        let x = x.max(1);
        if sum + x > cap {
            n += 1;
            sum = 0;
        }
        sum += x;
    }
    n
}

/// EWMA of per-slice cost, keyed by (picture kind, slice row): the
/// "same frames ≈ same cost" feedback the dynamic partitioners run on.
/// The VLD coordinator feeds it per-row *entropy* cost; the parallel
/// reconstruction layer keeps a second instance fed with per-row *pixel*
/// cost, so recon bands balance independently of VLD ranges.
#[derive(Debug, Default)]
pub(crate) struct CostHistory {
    ewma: HashMap<(PictureKind, u32), u64>,
}

impl CostHistory {
    /// Cost estimates for every row, or `None` unless *all* rows have
    /// history (the uniform-split fallback for the first picture of each
    /// kind).
    pub(crate) fn estimates(&self, kind: PictureKind, rows: &[u32]) -> Option<Vec<u64>> {
        rows.iter()
            .map(|&row| self.ewma.get(&(kind, row)).copied())
            .collect()
    }

    pub(crate) fn update(&mut self, kind: PictureKind, row: u32, cost_ns: u64) {
        let e = self.ewma.entry((kind, row)).or_insert(cost_ns);
        *e = (*e + cost_ns) / 2;
    }

    /// Allocation-free [`estimates`](Self::estimates): fills `out` and
    /// returns true when every row has history, leaves `out` cleared and
    /// returns false otherwise. The pipelined decoder calls this per
    /// picture and must not allocate in steady state.
    pub(crate) fn estimates_into(
        &self,
        kind: PictureKind,
        rows: &[u32],
        out: &mut Vec<u64>,
    ) -> bool {
        out.clear();
        for &row in rows {
            match self.ewma.get(&(kind, row)) {
                Some(&v) => out.push(v),
                None => {
                    out.clear();
                    return false;
                }
            }
        }
        true
    }
}

/// A contiguous slice range of one picture, sent to a worker.
struct Job {
    pic: usize,
    lo: usize,
    hi: usize,
}

/// A worker's recordings for one job, in slice order starting at `lo`.
struct RangeResult {
    pic: usize,
    lo: usize,
    recs: Vec<SliceRecording>,
}

/// Aggregated measurements of one parallel decode, including the fields
/// `decode_bench` publishes per worker count.
#[derive(Debug, Clone, Default)]
pub struct VldStats {
    /// Worker threads used (0 = sequential path, no stats recorded).
    pub workers: usize,
    /// Worker count the caller configured before auto-tune clamping
    /// (equal to `workers` on the exact-count constructor).
    pub requested_workers: usize,
    /// [`host_cpus()`] at decode time — published with the clamp
    /// decision so bench JSON records *why* `workers` differs from
    /// `requested_workers`.
    pub host_cpus: usize,
    /// Per-worker busy time (ns) spent inside recording jobs.
    pub busy_ns: Vec<u64>,
    /// Wall-clock time of the whole decode (ns).
    pub wall_ns: u64,
    /// Coordinator time (ns) spent replaying recordings / inline decoding
    /// — the sequential stitch-and-pixel share of the decode.
    pub replay_ns: u64,
    /// Critical-path model (ns): Σ over pictures of
    /// `max(replay_p, max_range_vld_p)` — what the decode costs once
    /// workers and coordinator overlap on enough cores (same methodology
    /// as the `tiled_2x2` bench metric).
    pub model_critical_ns: u64,
    /// Slices decoded inline by the coordinator (unplanned, context
    /// mismatch, or missing recording). Zero on well-formed streams.
    pub fallback_slices: u64,
    /// Slices dispatched to workers.
    pub planned_slices: u64,
    /// Pictures fully replayed from recordings.
    pub pictures: u64,
}

impl VldStats {
    /// Mean worker busy share of the decode wall time (0 when sequential).
    pub fn utilization(&self) -> f64 {
        if self.busy_ns.is_empty() || self.wall_ns == 0 {
            return 0.0;
        }
        let mean = self.busy_ns.iter().sum::<u64>() as f64 / self.busy_ns.len() as f64;
        mean / self.wall_ns as f64
    }

    /// Max-over-mean worker busy time: 1.0 is a perfectly balanced
    /// partition, higher means stragglers (0 when sequential).
    pub fn imbalance(&self) -> f64 {
        if self.busy_ns.is_empty() {
            return 0.0;
        }
        let mean = self.busy_ns.iter().sum::<u64>() as f64 / self.busy_ns.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        self.busy_ns.iter().copied().max().unwrap_or(0) as f64 / mean
    }
}

/// Per-picture bookkeeping while its slices are in flight.
struct PicState {
    range_of_slice: Vec<usize>,
    range_ns: Vec<u64>,
    replay_ns: u64,
    remaining: usize,
}

/// The [`SliceExecutor`] driving a parallel decode: dispatches planned
/// pictures ahead of the sequential walk and replays recordings in stream
/// order.
struct Coordinator<'p> {
    plan: &'p Plan,
    workers: usize,
    job_tx: Option<Sender<Job>>,
    res_rx: Receiver<RangeResult>,
    rec_tx: Sender<SliceRecording>,
    next_dispatch: usize,
    ready: HashMap<(usize, usize), SliceRecording>,
    pics: HashMap<usize, PicState>,
    history: CostHistory,
    stats: VldStats,
}

impl<'p> Coordinator<'p> {
    fn new(
        plan: &'p Plan,
        workers: usize,
        job_tx: Sender<Job>,
        res_rx: Receiver<RangeResult>,
        rec_tx: Sender<SliceRecording>,
    ) -> Self {
        Coordinator {
            plan,
            workers,
            job_tx: Some(job_tx),
            res_rx,
            rec_tx,
            next_dispatch: 0,
            ready: HashMap::new(),
            pics: HashMap::new(),
            history: CostHistory::default(),
            stats: VldStats {
                workers,
                ..VldStats::default()
            },
        }
    }

    /// Sends jobs for every picture up to and including `target`.
    fn dispatch_up_to(&mut self, target: usize) {
        while self.next_dispatch < self.plan.pictures.len() && self.next_dispatch <= target {
            let idx = self.next_dispatch;
            self.next_dispatch += 1;
            let Some(p) = self.plan.pictures.get(idx) else {
                continue;
            };
            if p.slices.is_empty() {
                continue;
            }
            let rows: Vec<u32> = p.slices.iter().map(|s| s.row).collect();
            let weights = self
                .history
                .estimates(p.info.kind, &rows)
                .unwrap_or_else(|| rows.iter().map(|_| 1).collect());
            let ranges = partition_by_weight(&weights, self.workers);
            let mut range_of_slice = Vec::with_capacity(p.slices.len());
            for (ri, range) in ranges.iter().enumerate() {
                for _ in range.clone() {
                    range_of_slice.push(ri);
                }
            }
            self.pics.insert(
                idx,
                PicState {
                    range_of_slice,
                    range_ns: ranges.iter().map(|_| 0).collect(),
                    replay_ns: 0,
                    remaining: p.slices.len(),
                },
            );
            self.stats.planned_slices += p.slices.len() as u64;
            if let Some(tx) = &self.job_tx {
                for range in &ranges {
                    if tx
                        .send(Job {
                            pic: idx,
                            lo: range.start,
                            hi: range.end,
                        })
                        .is_err()
                    {
                        // Workers gone: every slice falls back inline.
                        break;
                    }
                }
            }
        }
    }

    /// Blocks until the recording for `(pic, sidx)` arrives; `None` means
    /// the coordinator should decode inline.
    fn wait_for(&mut self, pic: usize, sidx: usize) -> Option<SliceRecording> {
        loop {
            if let Some(rec) = self.ready.remove(&(pic, sidx)) {
                return Some(rec);
            }
            match self.res_rx.recv_timeout(RESULT_TIMEOUT) {
                Ok(res) => {
                    for (i, rec) in res.recs.into_iter().enumerate() {
                        self.ready.insert((res.pic, res.lo + i), rec);
                    }
                }
                Err(_) => return None,
            }
        }
    }

    /// Accounts a finished slice and closes out its picture's critical
    /// path once the last slice lands.
    fn finish_slice(&mut self, pic: usize, sidx: usize, vld_ns: u64, replay_ns: u64) {
        self.stats.replay_ns += replay_ns;
        let Some(st) = self.pics.get_mut(&pic) else {
            self.stats.model_critical_ns += replay_ns;
            return;
        };
        let ri = st.range_of_slice.get(sidx).copied().unwrap_or(0);
        if let Some(r) = st.range_ns.get_mut(ri) {
            *r += vld_ns;
        }
        st.replay_ns += replay_ns;
        st.remaining = st.remaining.saturating_sub(1);
        if st.remaining == 0 {
            let vld_max = st.range_ns.iter().copied().max().unwrap_or(0);
            self.stats.model_critical_ns += st.replay_ns.max(vld_max);
            self.stats.pictures += 1;
            self.pics.remove(&pic);
        }
    }

    /// Sequential decode of one slice, used whenever a recording cannot be
    /// trusted or obtained. Always correct: it is the sequential path.
    fn inline_fallback(
        &mut self,
        r: &mut BitReader<'_>,
        ctx: &SliceContext<'_>,
        row: u32,
        recon: &mut Reconstructor<'_, FrameRefs<'_>, FrameSink<'_>>,
        coeffs: &mut MbCoeffs,
        planned: Option<(usize, usize)>,
    ) -> tiledec_mpeg2::Result<()> {
        self.stats.fallback_slices += 1;
        let t = Instant::now();
        let result = parse_slice(r, ctx, row, recon, coeffs);
        let spent = t.elapsed().as_nanos() as u64;
        match planned {
            Some((pic, sidx)) => {
                if let Some(stale) = self.ready.remove(&(pic, sidx)) {
                    let _ = self.rec_tx.send(stale);
                }
                self.finish_slice(pic, sidx, 0, spent);
            }
            None => {
                self.stats.replay_ns += spent;
                self.stats.model_critical_ns += spent;
            }
        }
        result
    }

    fn into_stats(self) -> VldStats {
        self.stats
    }
}

impl SliceExecutor for Coordinator<'_> {
    fn run_slice(
        &mut self,
        r: &mut BitReader<'_>,
        ctx: &SliceContext<'_>,
        row: u32,
        recon: &mut Reconstructor<'_, FrameRefs<'_>, FrameSink<'_>>,
        coeffs: &mut MbCoeffs,
    ) -> tiledec_mpeg2::Result<()> {
        // The reader sits just past the 4-byte start code.
        let offset = (r.bit_position() / 8).saturating_sub(4);
        let Some((pic, sidx)) = self.plan.slice_at(offset) else {
            return self.inline_fallback(r, ctx, row, recon, coeffs, None);
        };
        // Safety valve: the plan's header snapshot must match what the
        // live decoder folded; any divergence (exotic header ordering,
        // mid-stream parameter changes the planner misread) drops this
        // slice to the sequential path.
        let snap = &self.plan.pictures[pic];
        if snap.seq != *ctx.seq || snap.info != *ctx.pic || snap.slices[sidx].row != row {
            return self.inline_fallback(r, ctx, row, recon, coeffs, Some((pic, sidx)));
        }
        self.dispatch_up_to(pic + LOOKAHEAD);
        let Some(rec) = self.wait_for(pic, sidx) else {
            return self.inline_fallback(r, ctx, row, recon, coeffs, Some((pic, sidx)));
        };
        let t = Instant::now();
        let result = replay_slice(&rec, ctx, recon, coeffs);
        let spent = t.elapsed().as_nanos() as u64;
        self.history.update(ctx.pic.kind, row, rec.cost_ns());
        self.finish_slice(pic, sidx, rec.cost_ns(), spent);
        let _ = self.rec_tx.send(rec);
        result
    }
}

/// Slice-parallel MPEG-2 decoder: bit-exact with
/// [`Decoder::decode_stream`] (frames *and* errors, including error bit
/// positions) while entropy decode runs on worker threads.
#[derive(Debug, Default)]
pub struct ParallelVldDecoder {
    workers: usize,
    auto_tune: bool,
    last_stats: VldStats,
}

impl ParallelVldDecoder {
    /// Creates a decoder with `workers` VLD threads. Zero workers means
    /// the plain sequential path. The count is honoured exactly (no
    /// auto-tuning) so tests and benchmarks can pin the parallel
    /// machinery; use [`auto_tuned`](Self::auto_tuned) or
    /// [`from_env`](Self::from_env) to let the decoder decline
    /// parallelism that cannot pay off.
    pub fn new(workers: usize) -> Self {
        ParallelVldDecoder {
            workers: workers.min(MAX_WORKERS),
            auto_tune: false,
            last_stats: VldStats::default(),
        }
    }

    /// Like [`new`](Self::new), but `workers` is treated as an upper
    /// bound: per stream, the count is clamped to the widest picture's
    /// slice-row count (extra workers would only idle) *and* to
    /// [`host_cpus()`] (oversubscribed workers time-slice one core and
    /// only add imbalance), and pictures below
    /// [`MIN_AUTO_PARALLEL_MBS`] macroblocks decode sequentially (the
    /// record/replay round trip costs more than it hides). The clamp
    /// decision is published in [`VldStats`].
    pub fn auto_tuned(workers: usize) -> Self {
        ParallelVldDecoder {
            auto_tune: true,
            ..Self::new(workers)
        }
    }

    /// Reads the worker count from [`VLD_WORKERS_ENV`] (unset, empty or
    /// unparsable = 0 = sequential). The count is an auto-tuned upper
    /// bound, per [`auto_tuned`](Self::auto_tuned).
    pub fn from_env() -> Self {
        let workers = std::env::var(VLD_WORKERS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        Self::auto_tuned(workers)
    }

    /// Auto-tuning decision for one planned stream: zero (sequential)
    /// when every picture is tiny, otherwise the configured count
    /// clamped to the widest picture's slice-row count and the host's
    /// logical CPU count.
    fn auto_workers(&self, plan: &Plan) -> usize {
        let mut max_rows = 0usize;
        let mut max_mbs = 0u32;
        for p in &plan.pictures {
            let mut rows = 0usize;
            let mut last = None;
            for s in &p.slices {
                if last != Some(s.row) {
                    rows = rows.saturating_add(1);
                    last = Some(s.row);
                }
            }
            max_rows = max_rows.max(rows);
            max_mbs = max_mbs.max(p.seq.mb_width().saturating_mul(p.seq.mb_height()));
        }
        if max_mbs < MIN_AUTO_PARALLEL_MBS {
            0
        } else {
            self.workers.min(max_rows).min(host_cpus())
        }
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Measurements of the most recent [`decode_stream`] call.
    ///
    /// [`decode_stream`]: ParallelVldDecoder::decode_stream
    pub fn stats(&self) -> &VldStats {
        &self.last_stats
    }

    /// Decodes a whole elementary stream, invoking `on_frame` for every
    /// picture in display order — same contract, frames and errors as
    /// [`Decoder::decode_stream`].
    pub fn decode_stream(
        &mut self,
        data: &[u8],
        mut on_frame: impl FnMut(&Frame, &PictureInfo),
    ) -> tiledec_mpeg2::Result<StreamSummary> {
        let start = Instant::now();
        let cpus = host_cpus();
        if self.workers == 0 {
            let result = Decoder::new().decode_stream(data, on_frame);
            self.last_stats = VldStats {
                wall_ns: start.elapsed().as_nanos() as u64,
                host_cpus: cpus,
                ..VldStats::default()
            };
            return result;
        }
        let plan = Plan::build(data);
        let workers = if self.auto_tune {
            self.auto_workers(&plan)
        } else {
            self.workers
        };
        if plan.slice_count() == 0 || workers == 0 {
            let result = Decoder::new().decode_stream(data, on_frame);
            self.last_stats = VldStats {
                wall_ns: start.elapsed().as_nanos() as u64,
                requested_workers: self.workers,
                host_cpus: cpus,
                ..VldStats::default()
            };
            return result;
        }
        let (result, stats) = thread::scope(|s| {
            let (job_tx, job_rx) = std::sync::mpsc::channel::<Job>();
            let (res_tx, res_rx) = std::sync::mpsc::channel::<RangeResult>();
            let (rec_tx, rec_rx) = std::sync::mpsc::channel::<SliceRecording>();
            let job_rx = Arc::new(Mutex::new(job_rx));
            let rec_rx = Arc::new(Mutex::new(rec_rx));
            let plan_ref = &plan;
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let job_rx = Arc::clone(&job_rx);
                    let rec_rx = Arc::clone(&rec_rx);
                    let res_tx = res_tx.clone();
                    s.spawn(move || worker_loop(data, plan_ref, &job_rx, &rec_rx, &res_tx))
                })
                .collect();
            drop(res_tx);
            let mut coord = Coordinator::new(&plan, workers, job_tx, res_rx, rec_tx);
            let result = Decoder::new().decode_stream_with(data, &mut on_frame, &mut coord);
            // Closing the job channel stops the workers; harvest their
            // busy time before the scope joins them.
            coord.job_tx = None;
            let mut stats = coord.into_stats();
            stats.busy_ns = handles.into_iter().map(|h| h.join().unwrap_or(0)).collect();
            (result, stats)
        });
        self.last_stats = stats;
        self.last_stats.wall_ns = start.elapsed().as_nanos() as u64;
        self.last_stats.requested_workers = self.workers;
        self.last_stats.host_cpus = cpus;
        result
    }

    /// Decodes a whole stream into display-order frames (convenience
    /// wrapper mirroring [`tiledec_mpeg2::decode_all`]).
    pub fn decode_all(&mut self, data: &[u8]) -> tiledec_mpeg2::Result<Vec<Frame>> {
        let mut frames = Vec::new();
        self.decode_stream(data, |f, _| frames.push(f.clone()))?;
        Ok(frames)
    }

    /// Decodes a whole stream under [`ErrorPolicy::Resilient`]
    /// (`tiledec_mpeg2::ErrorPolicy`): an optimistic strict pass first,
    /// and on failure a deterministic [`repair_stream`] followed by a
    /// strict decode of the repaired bytes. Because the repaired stream
    /// is an ordinary valid elementary stream, the parallel result is
    /// bit-exact with [`tiledec_mpeg2::decode_all_resilient`] by
    /// construction — workers replay the same slices the sequential
    /// decoder would.
    ///
    /// [`repair_stream`]: tiledec_mpeg2::repair_stream
    /// [`ErrorPolicy::Resilient`]: tiledec_mpeg2::ErrorPolicy::Resilient
    pub fn decode_all_resilient(
        &mut self,
        data: &[u8],
    ) -> tiledec_mpeg2::Result<(Vec<Frame>, StreamDamage)> {
        match self.decode_all(data) {
            Ok(frames) => Ok((frames, StreamDamage::clean())),
            Err(_) => {
                let repaired = repair_stream(data)?;
                let mut frames = self.decode_all(&repaired.bytes).map_err(|e| {
                    tiledec_mpeg2::Error::Syntax(format!("repair invariant violated: {e}"))
                })?;
                apply_display_patches(&mut frames, &repaired.patches);
                Ok((frames, repaired.damage))
            }
        }
    }
}

/// Worker thread body: record slice ranges until the job channel closes.
/// Returns total busy nanoseconds.
fn worker_loop(
    data: &[u8],
    plan: &Plan,
    job_rx: &Mutex<Receiver<Job>>,
    rec_rx: &Mutex<Receiver<SliceRecording>>,
    res_tx: &Sender<RangeResult>,
) -> u64 {
    let mut busy = 0u64;
    let mut scratch = MbCoeffs::default();
    loop {
        let job = match lock_ignore_poison(job_rx).recv() {
            Ok(j) => j,
            Err(_) => break,
        };
        let Some(p) = plan.pictures.get(job.pic) else {
            continue;
        };
        let t = Instant::now();
        let ctx = SliceContext {
            seq: &p.seq,
            pic: &p.info,
        };
        let mut recs = Vec::with_capacity(job.hi - job.lo);
        for s in p.slices.get(job.lo..job.hi).unwrap_or(&[]) {
            // Reuse a recycled recording buffer when one is available —
            // steady state allocates nothing, as on the wire paths.
            let mut rec = lock_ignore_poison(rec_rx).try_recv().unwrap_or_default();
            record_slice(data, s.offset, s.row, &ctx, &mut rec, &mut scratch);
            recs.push(rec);
        }
        busy += t.elapsed().as_nanos() as u64;
        if res_tx
            .send(RangeResult {
                pic: job.pic,
                lo: job.lo,
                recs,
            })
            .is_err()
        {
            break;
        }
    }
    busy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_uniform_weights_splits_evenly() {
        let w = [1u64; 8];
        let r = partition_by_weight(&w, 4);
        assert_eq!(r, vec![0..2, 2..4, 4..6, 6..8]);
    }

    #[test]
    fn partition_handles_degenerate_inputs() {
        assert!(partition_by_weight(&[], 4).is_empty());
        assert!(partition_by_weight(&[1, 2, 3], 0).is_empty());
        assert_eq!(partition_by_weight(&[5], 4), vec![0..1]);
        assert_eq!(partition_by_weight(&[0, 0, 0, 0], 2), vec![0..2, 2..4]);
    }

    #[test]
    fn partition_matches_bruteforce_minimum() {
        // Exhaustively compare the binary-search cap against brute force
        // over all contiguous partitions for small inputs.
        fn brute(weights: &[u64], k: usize) -> u64 {
            fn go(weights: &[u64], k: usize) -> u64 {
                if k == 1 || weights.len() <= 1 {
                    return weights.iter().sum();
                }
                let mut best = u64::MAX;
                for cut in 1..weights.len() {
                    let left: u64 = weights[..cut].iter().sum();
                    let rest = go(&weights[cut..], k - 1);
                    best = best.min(left.max(rest));
                }
                best.min(weights.iter().sum())
            }
            go(weights, k)
        }
        let mut state = 0x1234_5678_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 100 + 1
        };
        for _ in 0..50 {
            let n = (next() % 9 + 1) as usize;
            let k = (next() % 4 + 1) as usize;
            let w: Vec<u64> = (0..n).map(|_| next()).collect();
            let ranges = partition_by_weight(&w, k);
            assert!(ranges.len() <= k.min(n));
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(n));
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
            let max_sum = ranges
                .iter()
                .map(|r| w[r.clone()].iter().sum::<u64>())
                .max()
                .unwrap_or(0);
            assert_eq!(max_sum, brute(&w, k), "weights {w:?} k {k}");
        }
    }

    #[test]
    fn history_requires_full_coverage() {
        let mut h = CostHistory::default();
        h.update(PictureKind::P, 0, 100);
        assert!(h.estimates(PictureKind::P, &[0, 1]).is_none());
        h.update(PictureKind::P, 1, 300);
        assert_eq!(h.estimates(PictureKind::P, &[0, 1]), Some(vec![100, 300]));
        assert!(h.estimates(PictureKind::B, &[0]).is_none());
        h.update(PictureKind::P, 0, 300);
        assert_eq!(h.estimates(PictureKind::P, &[0]), Some(vec![200]));
    }

    #[test]
    fn stats_ratios() {
        let s = VldStats {
            workers: 2,
            busy_ns: vec![100, 300],
            wall_ns: 400,
            ..VldStats::default()
        };
        assert!((s.utilization() - 0.5).abs() < 1e-9);
        assert!((s.imbalance() - 1.5).abs() < 1e-9);
        assert_eq!(VldStats::default().utilization(), 0.0);
        assert_eq!(VldStats::default().imbalance(), 0.0);
    }

    #[test]
    fn plan_of_garbage_is_empty() {
        assert_eq!(Plan::build(&[]).slice_count(), 0);
        assert_eq!(Plan::build(&[0xFF; 32]).slice_count(), 0);
        // A slice with no headers before it stops planning immediately.
        assert_eq!(Plan::build(&[0, 0, 1, 0x01, 0xFF, 0xFF]).slice_count(), 0);
    }
}
