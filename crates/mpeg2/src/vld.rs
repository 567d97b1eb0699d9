//! Record/replay decomposition of slice entropy decode.
//!
//! Slice-parallel VLD (the paper's k-splitter applied *inside* one node)
//! needs to run [`parse_slice`] for many slices concurrently while pixel
//! reconstruction stays sequential and in stream order. The decomposition
//! here makes that safe by construction:
//!
//! * **Record** ([`record_slice`]): a worker thread runs the ordinary
//!   slice walker with a visitor that appends every visitor call — skipped
//!   runs and coded macroblocks with their coefficients, already
//!   dequantised and stored sparsely — into a
//!   [`SliceRecording`]. Because `parse_slice` depends only on the
//!   bitstream bytes and the immutable [`SliceContext`], the recorded
//!   event sequence (and any terminating [`Error`], including its exact
//!   bit position) is identical to what the sequential decoder would
//!   produce at the same start code.
//! * **Replay** ([`replay_slice`]): the coordinator feeds the recorded
//!   events to a real [`SliceVisitor`] (normally the
//!   [`Reconstructor`](crate::recon::Reconstructor)) in stream order.
//!   Events recorded *before* a mid-slice parse error are replayed first
//!   and the error returned after — matching the sequential decoder,
//!   where the visitor has already reconstructed those macroblocks by the
//!   time the walker trips on the error.
//!
//! Replay therefore produces bit-exact frames and error values
//! ("first-error-wins" falls out of the coordinator replaying in stream
//! order), while the expensive VLC/coefficient work happens off-thread.

use std::time::Instant;

use tiledec_bitstream::BitReader;

use crate::block::MbCoeffs;
use crate::slice::{parse_slice, MbMeta, MbMotion, SliceContext, SliceVisitor};
use crate::{Error, Result};

/// One visitor call captured during a recorded slice walk.
#[derive(Debug, Clone)]
enum RecordedEvent {
    /// A run of skipped macroblocks (see [`SliceVisitor::skipped`]).
    Skipped {
        start_addr: u32,
        count: u32,
        motion: MbMotion,
    },
    /// A coded macroblock; its coded blocks (one per set CBP bit, in
    /// block order) are the next ones in the recording's arenas.
    Macroblock { meta: MbMeta },
}

/// The entropy-decode output of one slice, ready to replay.
///
/// Recordings are plain buffers with no borrowed data, so they can be
/// filled on a worker thread, sent over a channel, replayed by the
/// coordinator, and recycled (cleared and refilled) without reallocating —
/// the same buffer-reuse discipline as `BufferPool` in `tiledec-core`.
#[derive(Debug, Clone)]
pub struct SliceRecording {
    events: Vec<RecordedEvent>,
    /// One non-zero mask per coded block ([`MbCoeffs::drain_block`]).
    masks: Vec<u64>,
    /// The dequantised coefficients those masks select, block after
    /// block, ascending raster index within a block. Dequantisation
    /// saturates to 12 bits, so 16 are plenty.
    values: Vec<i16>,
    row: u32,
    cost_ns: u64,
    outcome: Option<Error>,
    /// Lowest/highest macroblock row any recorded event writes
    /// (`u32::MAX`/0 while empty). A conforming slice stays on its own
    /// `row`, but corrupt streams can code addresses or skip runs that
    /// spill into other rows; consumers partitioning a frame into
    /// disjoint row bands must check this span before assuming the
    /// recording is confined to `row`.
    row_min: u32,
    row_max: u32,
}

impl Default for SliceRecording {
    fn default() -> Self {
        SliceRecording {
            events: Vec::new(),
            masks: Vec::new(),
            values: Vec::new(),
            row: 0,
            cost_ns: 0,
            outcome: None,
            row_min: u32::MAX,
            row_max: 0,
        }
    }
}

impl SliceRecording {
    /// Slice row this recording was made for (`start_code_value - 1`).
    pub fn row(&self) -> u32 {
        self.row
    }

    /// Wall-clock nanoseconds the recording walk took on its worker: the
    /// per-slice VLD cost the dynamic partitioner feeds back into the next
    /// picture's range assignment.
    pub fn cost_ns(&self) -> u64 {
        self.cost_ns
    }

    /// The error that terminated the slice walk, if any. Replay reproduces
    /// it (value and bit position) after re-delivering the events recorded
    /// before it.
    pub fn outcome(&self) -> Option<&Error> {
        self.outcome.as_ref()
    }

    /// Number of recorded events (skip runs + coded macroblocks).
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Inclusive range of macroblock rows the recorded events write, or
    /// `None` if the recording produced no macroblocks. Equal to
    /// `(row(), row())` for every conforming slice; a wider span means
    /// the (corrupt) slice spills outside its own row.
    pub fn mb_row_span(&self) -> Option<(u32, u32)> {
        (self.row_min <= self.row_max).then_some((self.row_min, self.row_max))
    }

    /// Empties the recording for reuse, keeping allocations.
    pub fn clear(&mut self) {
        self.events.clear();
        self.masks.clear();
        self.values.clear();
        self.row = 0;
        self.cost_ns = 0;
        self.outcome = None;
        self.row_min = u32::MAX;
        self.row_max = 0;
    }

    fn touch_rows(&mut self, lo: u32, hi: u32) {
        self.row_min = self.row_min.min(lo);
        self.row_max = self.row_max.max(hi);
    }
}

/// Captures the walker's calls.
impl SliceVisitor for SliceRecording {
    type Coeffs = MbCoeffs;

    fn skipped(
        &mut self,
        ctx: &SliceContext<'_>,
        start_addr: u32,
        count: u32,
        motion: &MbMotion,
    ) -> Result<()> {
        let mbw = ctx.mb_width().max(1);
        self.touch_rows(
            start_addr / mbw,
            (start_addr + count).saturating_sub(1) / mbw,
        );
        self.events.push(RecordedEvent::Skipped {
            start_addr,
            count,
            motion: *motion,
        });
        Ok(())
    }

    fn macroblock(
        &mut self,
        _ctx: &SliceContext<'_>,
        meta: &MbMeta,
        coeffs: &mut MbCoeffs,
    ) -> Result<()> {
        self.touch_rows(meta.y, meta.y);
        for i in 0..6 {
            if meta.cbp & (1 << (5 - i)) != 0 {
                let values = &mut self.values;
                self.masks
                    .push(coeffs.drain_block(i, |_, v| values.push(v as i16)));
            }
        }
        self.events
            .push(RecordedEvent::Macroblock { meta: meta.clone() });
        Ok(())
    }
}

/// Runs the slice walker over the slice whose start code begins at byte
/// `start_offset` of `data`, capturing its output into `rec` (which is
/// cleared first). The walk's error, if any, is stored in the recording
/// rather than returned: workers never fail, they record what the
/// sequential decoder would have seen.
///
/// `data` must be the **full stream buffer** (not a slice-local copy) so
/// recorded bit positions — including error positions — match the
/// sequential decoder's exactly.
///
/// `scratch` is the walker's coefficient workspace, caller-held so worker
/// loops recording thousands of slices stay allocation-free.
pub fn record_slice(
    data: &[u8],
    start_offset: usize,
    row: u32,
    ctx: &SliceContext<'_>,
    rec: &mut SliceRecording,
    scratch: &mut MbCoeffs,
) {
    rec.clear();
    rec.row = row;
    let start = Instant::now();
    let mut r = BitReader::at(data, (start_offset + 4) * 8);
    rec.outcome = parse_slice(&mut r, ctx, row, rec, scratch).err();
    rec.cost_ns = start.elapsed().as_nanos() as u64;
}

/// Replays a recording into `visitor` in the exact order the walker
/// visited, then reproduces the recorded outcome: `Ok` for a clean slice,
/// or the stored error (bit positions intact) for a failed one.
///
/// `scratch` is the workspace the recorded blocks are refilled into for
/// the visitor, which hands it back zeroed as after a live parse.
pub fn replay_slice(
    rec: &SliceRecording,
    ctx: &SliceContext<'_>,
    visitor: &mut impl SliceVisitor<Coeffs = MbCoeffs>,
    scratch: &mut MbCoeffs,
) -> Result<()> {
    // The arenas hold exactly one mask per coded block and one value per
    // mask bit, in event order, and a recording is only ever read back
    // whole: two cursors running along them stay in step by construction.
    let mut masks = rec.masks.iter();
    let mut values = rec.values.as_slice();
    for ev in &rec.events {
        match ev {
            RecordedEvent::Skipped {
                start_addr,
                count,
                motion,
            } => visitor.skipped(ctx, *start_addr, *count, motion)?,
            RecordedEvent::Macroblock { meta } => {
                for i in 0..6 {
                    if meta.cbp & (1 << (5 - i)) != 0 {
                        let mask = masks.next().copied().unwrap_or(0);
                        let n = (mask.count_ones() as usize).min(values.len());
                        scratch.load_block(i, mask, &values[..n]);
                        values = &values[n..];
                    }
                }
                visitor.macroblock(ctx, meta, scratch)?;
            }
        }
    }
    match &rec.outcome {
        Some(e) => Err(e.clone()),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Visitor that serialises calls into comparable records.
    #[derive(Default, PartialEq, Debug)]
    struct Trace {
        calls: Vec<(String, Vec<i32>)>,
    }

    impl SliceVisitor for Trace {
        type Coeffs = MbCoeffs;

        fn skipped(
            &mut self,
            _ctx: &SliceContext<'_>,
            start_addr: u32,
            count: u32,
            motion: &MbMotion,
        ) -> Result<()> {
            self.calls
                .push((format!("skip {start_addr}+{count} {motion:?}"), Vec::new()));
            Ok(())
        }

        fn macroblock(
            &mut self,
            _ctx: &SliceContext<'_>,
            meta: &MbMeta,
            coeffs: &mut MbCoeffs,
        ) -> Result<()> {
            let mut coded = Vec::new();
            for i in 0..6 {
                if meta.cbp & (1 << (5 - i)) != 0 {
                    let mut block = [0i32; 64];
                    coeffs.drain_block(i, |idx, v| block[idx] = v);
                    coded.extend_from_slice(&block);
                }
            }
            self.calls.push((format!("mb {:?}", meta), coded));
            Ok(())
        }
    }

    fn encode_small() -> (Vec<u8>, crate::SequenceInfo) {
        use crate::{Encoder, EncoderConfig, Frame};
        let mut cfg = EncoderConfig::for_size(48, 32);
        cfg.gop_size = 4;
        cfg.b_frames = 1;
        cfg.qscale = 6;
        let enc = Encoder::new(cfg).expect("config");
        let mut frames = Vec::new();
        for t in 0..4u8 {
            let mut f = Frame::black(48, 32);
            for yy in 0..32usize {
                for xx in 0..48usize {
                    f.y.set(xx, yy, ((xx * 3 + yy * 7) as u8).wrapping_add(t * 31));
                }
            }
            frames.push(f);
        }
        let data = enc.encode(&frames).expect("encode");
        let seq = enc.sequence_info().clone();
        (data, seq)
    }

    /// Parses the first picture's header + coding extension and returns its
    /// info plus the stream-order slice codes belonging to that picture.
    fn first_picture(
        data: &[u8],
    ) -> (crate::types::PictureInfo, Vec<tiledec_bitstream::StartCode>) {
        use tiledec_bitstream::{StartCode, StartCodeIndex};
        let idx = StartCodeIndex::build(data);
        let mut info: Option<crate::types::PictureInfo> = None;
        let mut slices = Vec::new();
        for code in idx.codes() {
            let mut r = BitReader::at(data, (code.offset + 4) * 8);
            match code.code {
                StartCode::PICTURE => {
                    if info.is_some() {
                        break; // second picture: done
                    }
                    info = Some(crate::headers::parse_picture_header(&mut r).expect("pic header"));
                }
                StartCode::EXTENSION
                    if r.read_bits(4).expect("ext id") == crate::headers::EXT_ID_PICTURE_CODING =>
                {
                    let i = info.as_mut().expect("picture before its extension");
                    crate::headers::parse_picture_coding_extension(&mut r, i).expect("pce");
                }
                _ if code.is_slice() && info.is_some() => slices.push(*code),
                _ => {}
            }
        }
        (info.expect("a picture"), slices)
    }

    #[test]
    fn record_then_replay_matches_direct_walk() {
        let (data, seq) = encode_small();
        let (pic, slices) = first_picture(&data);
        let ctx = SliceContext {
            seq: &seq,
            pic: &pic,
        };
        assert!(
            !slices.is_empty(),
            "stream produced no first-picture slices"
        );
        for code in &slices {
            let row = (code.code - 1) as u32;
            let mut direct = Trace::default();
            let mut r = BitReader::at(&data, (code.offset + 4) * 8);
            let mut scratch = MbCoeffs::default();
            let direct_res = parse_slice(&mut r, &ctx, row, &mut direct, &mut scratch);

            let mut rec = SliceRecording::default();
            record_slice(&data, code.offset, row, &ctx, &mut rec, &mut scratch);
            assert_eq!(rec.row(), row);
            let mut replayed = Trace::default();
            let replay_res = replay_slice(&rec, &ctx, &mut replayed, &mut scratch);

            assert_eq!(direct_res, replay_res);
            assert_eq!(direct.calls, replayed.calls);
        }
    }

    #[test]
    fn truncated_slice_reproduces_error_position() {
        let (data, seq) = encode_small();
        let (pic, slices) = first_picture(&data);
        let ctx = SliceContext {
            seq: &seq,
            pic: &pic,
        };
        let slice = slices.first().copied().expect("a slice");
        // Cut the stream a few bytes into the slice payload.
        let cut = &data[..slice.offset + 7];
        let row = (slice.code - 1) as u32;
        let mut direct = Trace::default();
        let mut r = BitReader::at(cut, (slice.offset + 4) * 8);
        let mut scratch = MbCoeffs::default();
        let direct_res = parse_slice(&mut r, &ctx, row, &mut direct, &mut scratch);
        let mut rec = SliceRecording::default();
        record_slice(cut, slice.offset, row, &ctx, &mut rec, &mut scratch);
        let mut replayed = Trace::default();
        let replay_res = replay_slice(&rec, &ctx, &mut replayed, &mut scratch);
        assert_eq!(direct_res, replay_res);
        assert_eq!(direct.calls, replayed.calls);
        if direct_res.is_err() {
            assert_eq!(rec.outcome(), direct_res.as_ref().err());
        }
    }

    #[test]
    fn recording_clears_for_reuse() {
        let mut rec = SliceRecording {
            events: vec![RecordedEvent::Skipped {
                start_addr: 1,
                count: 2,
                motion: MbMotion::Intra,
            }],
            masks: vec![0b101],
            values: vec![7, -7],
            row: 5,
            cost_ns: 99,
            outcome: Some(Error::Syntax("x".into())),
            row_min: 5,
            row_max: 5,
        };
        rec.clear();
        assert_eq!(rec.event_count(), 0);
        assert_eq!(rec.row(), 0);
        assert_eq!(rec.cost_ns(), 0);
        assert!(rec.outcome().is_none());
        assert_eq!(rec.mb_row_span(), None);
    }
}
