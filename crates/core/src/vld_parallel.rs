//! Stream planning, the weighted partitioner and the cost history the
//! node-local engine ([`PipelineDecoder`]) runs on.
//!
//! Slices are entropy-independent (all predictor state resets at a slice
//! start) and delimited by byte-aligned start codes, so their VLC can be
//! decoded concurrently. What that needs before any thread starts lives
//! here:
//!
//! * [`Plan`] — one SWAR sweep ([`StartCodeIndex`]) plus a header-only
//!   walk produces, per picture, the slice start offsets and a snapshot
//!   of the sequence/picture parameters the sequential decoder would use
//!   for them. The engine validates the plan whole and commits to it, or
//!   decodes the stream sequentially.
//! * **Partitioner** — [`partition_by_weight_into`] splits a picture's
//!   slices (VLD ranges) or macroblock rows (recon bands) into contiguous
//!   ranges minimising the critical path.
//! * [`CostHistory`] — per-slice cost is fed back into an EWMA keyed by
//!   (picture kind, slice row), per the paper's "same frames ≈ same cost"
//!   observation; the first picture of each kind splits uniformly.
//!
//! [`ParallelVldDecoder`] is a compatibility view over the engine at
//! `(n, 1)`, kept only for the frozen `benchmark/` crate.

use std::collections::HashMap;
use std::ops::Range;

use tiledec_bitstream::{BitReader, StartCode, StartCodeIndex};
use tiledec_mpeg2::decoder::StreamSummary;
use tiledec_mpeg2::headers;
use tiledec_mpeg2::types::{PictureInfo, PictureKind, SequenceInfo};
use tiledec_mpeg2::Frame;

use crate::recon_parallel::PipelineDecoder;

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

/// Auto-tuned decoders decode sequentially when every picture is below
/// this many macroblocks: on tiny pictures the record/replay round trip
/// costs more than it hides (the 128×96 `tiny` bench preset measured a
/// 0.805× one-worker "speedup" before this gate).
pub(crate) const MIN_AUTO_PARALLEL_MBS: u32 = 128;

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
/// the headers it needs) and leaves [`complete`](Plan::complete) false;
/// the engine then decodes the whole stream sequentially.
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
    /// so consumers must not commit to the plan.
    pub complete: bool,
    /// Sequence parameters after folding the *whole* stream — what the
    /// sequential decoder reports in its [`StreamSummary`]. (Snapshots in
    /// [`PlannedPicture`] are per-picture; a trailing sequence header
    /// after the last picture updates this but no snapshot.)
    pub final_seq: Option<SequenceInfo>,
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
                    plan.pictures[idx].slices.push(PlannedSlice {
                        offset: code.offset,
                        row: (c - 1) as u32,
                    });
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
}

/// Splits `weights` into at most `k` contiguous ranges minimising the
/// maximum range sum (the stage's critical path), via binary search on
/// the range-sum cap with a greedy feasibility check. Zero weights are
/// treated as 1 so every range stays non-empty and bounded. Clears and
/// refills `out`, so per-picture partitioning reuses one scratch vector
/// and never allocates in steady state.
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
/// The engine keeps one instance fed with per-row *entropy* cost and a
/// second fed with per-row *pixel* cost, so recon bands balance
/// independently of VLD ranges.
#[derive(Debug, Default)]
pub(crate) struct CostHistory {
    ewma: HashMap<(PictureKind, u32), u64>,
}

impl CostHistory {
    pub(crate) fn update(&mut self, kind: PictureKind, row: u32, cost_ns: u64) {
        let e = self.ewma.entry((kind, row)).or_insert(cost_ns);
        *e = (*e + cost_ns) / 2;
    }

    /// Cost estimates for every row: fills `out` and returns true when
    /// *all* rows have history, leaves `out` cleared and returns false
    /// otherwise (the uniform-split fallback for the first picture of
    /// each kind). Called per picture; never allocates once `out` is warm.
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

/// `(utilization, imbalance)` of one stage's per-worker busy times: mean
/// busy share of `wall_ns`, and max-over-mean busy time (1.0 = perfectly
/// balanced, higher means stragglers). Both 0 when there are no workers.
pub(crate) fn busy_ratios(busy: &[u64], wall_ns: u64) -> (f64, f64) {
    if busy.is_empty() {
        return (0.0, 0.0);
    }
    let mean = busy.iter().sum::<u64>() as f64 / busy.len() as f64;
    let utilization = if wall_ns == 0 {
        0.0
    } else {
        mean / wall_ns as f64
    };
    let imbalance = if mean == 0.0 {
        0.0
    } else {
        busy.iter().copied().max().unwrap_or(0) as f64 / mean
    };
    (utilization, imbalance)
}

// Compatibility view: the frozen `benchmark/` crate names these two types
// (nothing in this repo does). Delete them with the next `benchmark` PR.

/// The VLD stage's share of [`PipelineStats`](crate::PipelineStats).
#[derive(Debug, Clone, Default)]
pub struct VldStats {
    /// Per-VLD-worker busy time (ns); empty when the stream fell back.
    pub busy_ns: Vec<u64>,
    /// Wall-clock time of the whole decode (ns).
    pub wall_ns: u64,
    /// Slices decoded sequentially: none when pipelined, all on fallback.
    pub fallback_slices: u64,
}

impl VldStats {
    /// Mean worker busy share of the decode wall time.
    pub fn utilization(&self) -> f64 {
        busy_ratios(&self.busy_ns, self.wall_ns).0
    }
    /// Max-over-mean worker busy time.
    pub fn imbalance(&self) -> f64 {
        busy_ratios(&self.busy_ns, self.wall_ns).1
    }
}

/// [`PipelineDecoder::new(workers, 1)`](PipelineDecoder::new).
pub struct ParallelVldDecoder(PipelineDecoder, VldStats);

impl ParallelVldDecoder {
    /// The engine with `workers` VLD threads and one recon thread.
    pub fn new(workers: usize) -> Self {
        ParallelVldDecoder(PipelineDecoder::new(workers, 1), VldStats::default())
    }
    /// Measurements of the most recent decode.
    pub fn stats(&self) -> &VldStats {
        &self.1
    }
    /// [`PipelineDecoder::decode_stream`].
    pub fn decode_stream(
        &mut self,
        data: &[u8],
        on_frame: impl FnMut(&Frame, &PictureInfo),
    ) -> tiledec_mpeg2::Result<StreamSummary> {
        let result = self.0.decode_stream(data, on_frame);
        let st = self.0.stats();
        let fallback = st
            .sequential_fallback
            .then(|| Plan::build(data).slice_count());
        self.1 = VldStats {
            busy_ns: st.vld_busy_ns.clone(),
            wall_ns: st.wall_ns,
            fallback_slices: fallback.unwrap_or(0) as u64,
        };
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition_by_weight(weights: &[u64], k: usize) -> Vec<Range<usize>> {
        // Start dirty: the partitioner must clear what it is handed.
        let mut out = vec![7..9, 9..11];
        partition_by_weight_into(weights, k, &mut out);
        out
    }

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
        let mut est = vec![9];
        h.update(PictureKind::P, 0, 100);
        assert!(!h.estimates_into(PictureKind::P, &[0, 1], &mut est));
        assert!(est.is_empty());
        h.update(PictureKind::P, 1, 300);
        assert!(h.estimates_into(PictureKind::P, &[0, 1], &mut est));
        assert_eq!(est, [100, 300]);
        assert!(!h.estimates_into(PictureKind::B, &[0], &mut est));
        h.update(PictureKind::P, 0, 300);
        assert!(h.estimates_into(PictureKind::P, &[0], &mut est));
        assert_eq!(est, [200]);
    }

    #[test]
    fn busy_ratios_are_mean_share_and_max_over_mean() {
        let (utilization, imbalance) = busy_ratios(&[100, 300], 400);
        assert!((utilization - 0.5).abs() < 1e-9);
        assert!((imbalance - 1.5).abs() < 1e-9);
        assert_eq!(busy_ratios(&[], 400), (0.0, 0.0));
        assert_eq!(busy_ratios(&[0, 0], 0), (0.0, 0.0));
        assert_eq!(busy_ratios(&[100, 300], 0), (0.0, 1.5));
    }

    #[test]
    fn plan_of_garbage_is_empty() {
        assert_eq!(Plan::build(&[]).slice_count(), 0);
        assert_eq!(Plan::build(&[0xFF; 32]).slice_count(), 0);
        // A slice with no headers before it stops planning immediately.
        assert_eq!(Plan::build(&[0, 0, 1, 0x01, 0xFF, 0xFF]).slice_count(), 0);
    }
}
