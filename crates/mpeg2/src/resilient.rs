//! Error-resilient decoding: start-code resynchronisation, macroblock
//! concealment and deterministic damage accounting.
//!
//! # Strategy: repair, then decode strictly
//!
//! Rather than teaching every decoder back-end (sequential, VLD-parallel,
//! tiled cluster) its own recovery logic, resilience is factored into a
//! single deterministic **repair pass** ([`repair_stream`]) that turns any
//! byte stream into a *guaranteed-valid* elementary stream plus a
//! [`StreamDamage`] ledger:
//!
//! * Start codes are re-indexed with the SWAR scanner
//!   ([`StartCodeIndex`]); the first parseable, size-sane sequence header
//!   is locked and re-emitted canonically.
//! * Every slice is probed with the ordinary [`parse_slice`] walker over
//!   its own unit. Slices that parse to exactly one full macroblock row
//!   are byte-copied (trimmed to their last data byte); everything else is
//!   abandoned at the next start code — the paper's slice-resync rule.
//! * Lost rows are **concealed in-stream** with synthesized slices: P rows
//!   become motion-only macroblocks carrying the vector of the macroblock
//!   above (its concealment vector for intra neighbours, §7.6.3.9), B rows
//!   become zero-motion forward predictions, and I rows become flat DC
//!   slices. Because concealment is part of the repaired stream, every
//!   back-end that decodes it — including the cluster paths with MEI halo
//!   exchange — reproduces the sequential result bit-exactly *by
//!   construction*.
//! * I-picture rows cannot reference other frames in-stream, so when the
//!   picture carries concealment motion vectors a display-time patch
//!   ([`DisplayPatch`]) is recorded as well: after decoding, the flat rows
//!   are overwritten with a motion-compensated copy from the previous
//!   frame in display order ([`apply_display_patches`]). The reference
//!   path keeps the flat rows (references must stay bit-exact across
//!   back-ends); only displayed output is patched.
//!
//! Unrecoverable *structural* damage — no usable sequence header at all —
//! still surfaces as an error; in the cluster runtime that is the one case
//! that poisons endpoints.
//!
//! The whole pass is a pure function of the input bytes: repairing the
//! same stream twice yields identical bytes, reports and patches, which is
//! what the seeded chaos suite asserts.

use tiledec_bitstream::{BitReader, BitWriter, StartCode, StartCodeIndex};

use crate::block::{self, Discard};
use crate::decoder::decode_all;
use crate::frame::Frame;
use crate::headers;
use crate::motion::{predict, FrameRefs, PlanePick, RefPick};
use crate::slice::{
    dc_reset_value, parse_slice, write_slice_header, MbMeta, MbMotion, SliceContext, SliceVisitor,
};
use crate::tables::{mb_type, mba, motion as mvtab};
use crate::types::{MbFlags, MotionVector, PictureInfo, PictureKind, SequenceInfo};
use crate::{Error, Result};

/// Quantiser scale code written into synthesized concealment slices. The
/// value is arbitrary (concealment macroblocks carry no coefficients) but
/// must be a legal code.
const CONCEAL_QSCALE: u8 = 16;

/// How a decoder treats a damaged stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ErrorPolicy {
    /// Today's bit-exact behaviour: the first syntax error aborts the
    /// decode and is reported with its exact bit position.
    #[default]
    Strict,
    /// Recover: resynchronise at the next start code, conceal what was
    /// lost, and report the damage instead of failing.
    Resilient,
}

impl ErrorPolicy {
    /// True for [`ErrorPolicy::Resilient`].
    pub fn is_resilient(self) -> bool {
        matches!(self, ErrorPolicy::Resilient)
    }
}

/// Damage accounting for one kept picture, in coded order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DamageReport {
    /// Coded-order index among the pictures of the repaired stream.
    pub picture: usize,
    /// Slice units abandoned for this picture (parse failures, rows out of
    /// range, duplicates, incomplete coverage).
    pub slices_lost: u32,
    /// Macroblock rows replaced by synthesized concealment slices.
    pub rows_damaged: u32,
    /// Macroblocks concealed (`rows_damaged × mb_width`).
    pub mbs_concealed: u32,
    /// Absolute bit position, in the *original* stream, of the first slice
    /// parse error in this picture — preserving the strict decoder's
    /// bit-position-exact error reporting for what could not be decoded.
    pub first_error_bit: Option<u64>,
}

/// Stream-level damage summary produced by [`repair_stream`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamDamage {
    /// Per-picture reports, coded order; only damaged pictures appear.
    pub reports: Vec<DamageReport>,
    /// Pictures dropped entirely (unparseable header, or a P/B picture
    /// whose references were lost).
    pub pictures_dropped: u32,
    /// Input bytes discarded outright: leading garbage, dropped units and
    /// orphan data. Re-encoded headers and trimmed slice padding are not
    /// counted.
    pub bytes_skipped: u64,
    /// True when the strict decode succeeded and the stream was never
    /// repaired.
    pub clean: bool,
}

impl StreamDamage {
    /// The report for an undamaged stream (strict decode succeeded).
    pub fn clean() -> Self {
        StreamDamage {
            reports: Vec::new(),
            pictures_dropped: 0,
            bytes_skipped: 0,
            clean: true,
        }
    }
}

/// One concealed macroblock row of a display-time patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchRow {
    /// Macroblock row to overwrite.
    pub row: u32,
    /// Per-column concealment vector (half-pel, luma frame); the vector of
    /// the macroblock above the lost one, zero where none was available.
    pub mvs: Vec<MotionVector>,
}

/// Display-time temporal concealment for the damaged rows of an I picture
/// that carried `concealment_motion_vectors`. Applied to decoded frames by
/// [`apply_display_patches`]; the in-stream reference copy keeps the flat
/// DC fill so references stay bit-exact across back-ends.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisplayPatch {
    /// Index of the frame to patch, in display order.
    pub display_index: usize,
    /// Rows to overwrite with motion-compensated copies of the previous
    /// displayed frame.
    pub rows: Vec<PatchRow>,
}

/// Output of [`repair_stream`]: a valid elementary stream plus the damage
/// ledger and display-time patches.
#[derive(Debug, Clone)]
pub struct RepairedStream {
    /// The repaired elementary stream; decodes without error in every
    /// back-end.
    pub bytes: Vec<u8>,
    /// What was lost, and where.
    pub damage: StreamDamage,
    /// Display-time I-row patches (see [`DisplayPatch`]).
    pub patches: Vec<DisplayPatch>,
}

/// Decodes a stream under [`ErrorPolicy::Resilient`]: strict decode first
/// (the clean path adds one branch and no allocation), and on any error a
/// deterministic repair + strict re-decode + display patching. Returns the
/// display-order frames and the damage ledger. The only remaining error is
/// structural: no usable sequence header, or an internal repair invariant
/// violation (a bug, surfaced rather than masked).
pub fn decode_all_resilient(data: &[u8]) -> Result<(Vec<Frame>, StreamDamage)> {
    decode_all_resilient_with(data, decode_all)
}

/// [`decode_all_resilient`] over any strict whole-stream decoder. The
/// repaired stream is an ordinary valid elementary stream, so a
/// `decode_all` that is bit-exact with the sequential one on valid streams
/// yields identical frames and ledger under damage by construction.
pub fn decode_all_resilient_with(
    data: &[u8],
    mut decode_all: impl FnMut(&[u8]) -> Result<Vec<Frame>>,
) -> Result<(Vec<Frame>, StreamDamage)> {
    match decode_all(data) {
        Ok(frames) => Ok((frames, StreamDamage::clean())),
        Err(_) => {
            let repaired = repair_stream(data)?;
            let mut frames = decode_all(&repaired.bytes)
                .map_err(|e| Error::Syntax(format!("repair invariant violated: {e}")))?;
            apply_display_patches(&mut frames, &repaired.patches);
            Ok((frames, repaired.damage))
        }
    }
}

/// Repairs a damaged elementary stream (see the module docs for the
/// algorithm). Deterministic: identical input yields identical output.
/// Errors only when no sequence header with sane dimensions survives —
/// the structural case that cannot be concealed.
pub fn repair_stream(data: &[u8]) -> Result<RepairedStream> {
    let index = StartCodeIndex::build(data);
    let (lock, si) = lock_sequence_header(data, &index)
        .ok_or_else(|| Error::Syntax("unrecoverable stream: no usable sequence header".into()))?;
    let codes = index.codes();
    let mut rep = Repairer {
        data,
        index: &index,
        si,
        w: BitWriter::with_capacity(data.len() + 64),
        reports: Vec::new(),
        pictures_dropped: 0,
        bytes_skipped: codes[lock].offset as u64,
        kinds: Vec::new(),
        patches: Vec::new(),
        have_next: false,
        have_prev: false,
    };
    headers::write_sequence_header(&mut rep.w, &rep.si);
    // The sequence extension unit (if present and ours) was folded into
    // `si` during locking; the canonical re-emission replaces it.
    let mut start = lock + 1;
    if let Some(next) = codes.get(start) {
        if next.code == StartCode::EXTENSION && ext_id(data, next) == Some(headers::EXT_ID_SEQUENCE)
        {
            start += 1;
        }
    }
    rep.run(start);
    headers::write_sequence_end(&mut rep.w);
    let order = display_order(&rep.kinds);
    let patches = rep
        .patches
        .into_iter()
        .map(|(k, rows)| DisplayPatch {
            display_index: order[k],
            rows,
        })
        .collect();
    Ok(RepairedStream {
        bytes: rep.w.into_bytes(),
        damage: StreamDamage {
            reports: rep.reports,
            pictures_dropped: rep.pictures_dropped,
            bytes_skipped: rep.bytes_skipped,
            clean: false,
        },
        patches,
    })
}

/// Overwrites the concealed I-picture rows of decoded frames with
/// motion-compensated copies from the previous frame in display order
/// (bit-exact half-pel prediction, the same kernels the decoder uses).
/// Patches for frame 0 (no previous frame) and out-of-range coordinates
/// are skipped.
pub fn apply_display_patches(frames: &mut [Frame], patches: &[DisplayPatch]) {
    for patch in patches {
        let d = patch.display_index;
        if d == 0 || d >= frames.len() {
            continue;
        }
        let (before, after) = frames.split_at_mut(d);
        let prev = &before[d - 1];
        let cur = &mut after[0];
        let refs = FrameRefs {
            fwd: prev,
            bwd: prev,
        };
        let mb_cols = cur.width() / 16;
        let mb_rows = cur.height() / 16;
        let mut y_buf = [0u8; 256];
        let mut c_buf = [0u8; 64];
        for pr in &patch.rows {
            let row = pr.row as usize;
            if row >= mb_rows {
                continue;
            }
            for (col, &mv) in pr.mvs.iter().enumerate().take(mb_cols) {
                predict(
                    &refs,
                    RefPick::Forward,
                    PlanePick::Y,
                    col * 16,
                    row * 16,
                    16,
                    mv,
                    &mut y_buf,
                );
                cur.y.insert(col * 16, row * 16, 16, 16, &y_buf);
                let cmv = mv.chroma_420();
                predict(
                    &refs,
                    RefPick::Forward,
                    PlanePick::Cb,
                    col * 8,
                    row * 8,
                    8,
                    cmv,
                    &mut c_buf,
                );
                cur.cb.insert(col * 8, row * 8, 8, 8, &c_buf);
                predict(
                    &refs,
                    RefPick::Forward,
                    PlanePick::Cr,
                    col * 8,
                    row * 8,
                    8,
                    cmv,
                    &mut c_buf,
                );
                cur.cr.insert(col * 8, row * 8, 8, 8, &c_buf);
            }
        }
    }
}

/// Reads the 4-bit extension identifier of an extension unit.
fn ext_id(data: &[u8], sc: &StartCode) -> Option<u32> {
    BitReader::at(data, (sc.offset + 4) * 8).read_bits(4).ok()
}

/// Finds the first sequence header that parses (the header parsers bound
/// the dimensions to what the repair pass can re-emit), folding in a
/// following sequence extension's size bits when it parses too.
fn lock_sequence_header(data: &[u8], index: &StartCodeIndex) -> Option<(usize, SequenceInfo)> {
    let codes = index.codes();
    for (i, sc) in codes.iter().enumerate() {
        if sc.code != StartCode::SEQUENCE_HEADER {
            continue;
        }
        let mut r = BitReader::at(data, (sc.offset + 4) * 8);
        let Ok(mut si) = headers::parse_sequence_header(&mut r) else {
            continue;
        };
        if let Some(next) = codes.get(i + 1) {
            if next.code == StartCode::EXTENSION
                && ext_id(data, next) == Some(headers::EXT_ID_SEQUENCE)
            {
                let mut er = BitReader::at(data, (next.offset + 4) * 8);
                let _ = er.read_bits(4);
                let mut with_ext = si.clone();
                if headers::parse_sequence_extension(&mut er, &mut with_ext).is_ok() {
                    si = with_ext;
                }
            }
        }
        return Some((i, si));
    }
    None
}

/// Display-order index of every coded picture, replicating the decoder's
/// reorder: a reference is released when the next reference finishes; B
/// pictures are displayed immediately; the final held reference flushes
/// last.
fn display_order(kinds: &[PictureKind]) -> Vec<usize> {
    let mut out = vec![0usize; kinds.len()];
    let mut emitted = 0usize;
    let mut held: Option<usize> = None;
    for (k, kind) in kinds.iter().enumerate() {
        if kind.is_reference() {
            if let Some(h) = held.take() {
                out[h] = emitted;
                emitted += 1;
            }
            held = Some(k);
        } else {
            out[k] = emitted;
            emitted += 1;
        }
    }
    if let Some(h) = held {
        out[h] = emitted;
    }
    out
}

/// Start codes that end a picture's unit group.
fn is_unit_terminator(code: u8) -> bool {
    matches!(
        code,
        StartCode::SEQUENCE_HEADER
            | StartCode::GROUP
            | StartCode::PICTURE
            | StartCode::SEQUENCE_END
    )
}

/// The concealment vector a macroblock offers the row below: its forward
/// vector, its concealment vector when intra (§7.6.3.9), zero otherwise.
fn conceal_mv_of(motion: &MbMotion, cmv: Option<MotionVector>) -> MotionVector {
    match motion {
        MbMotion::Intra => cmv.unwrap_or(MotionVector::ZERO),
        MbMotion::Forward(v) | MbMotion::Bi(v, _) => *v,
        MbMotion::Backward(_) => MotionVector::ZERO,
    }
}

/// Slice probe for the tolerant walk: verifies the slice stays on its row,
/// tracks coverage, and records each column's concealment vector.
struct RowProbe {
    row: u32,
    mbw: u32,
    last_addr: i64,
    mvs: Vec<MotionVector>,
}

impl SliceVisitor for RowProbe {
    type Coeffs = Discard;

    fn skipped(
        &mut self,
        _ctx: &SliceContext<'_>,
        start_addr: u32,
        count: u32,
        motion: &MbMotion,
    ) -> Result<()> {
        let end = start_addr + count - 1;
        if start_addr / self.mbw != self.row || end / self.mbw != self.row {
            return Err(Error::Syntax("slice escaped its row".into()));
        }
        let mv = conceal_mv_of(motion, None);
        for a in start_addr..=end {
            self.mvs[(a - self.row * self.mbw) as usize] = mv;
        }
        self.last_addr = end as i64;
        Ok(())
    }

    fn macroblock(
        &mut self,
        _ctx: &SliceContext<'_>,
        meta: &MbMeta,
        _coeffs: &mut Discard,
    ) -> Result<()> {
        if meta.y != self.row {
            return Err(Error::Syntax("slice escaped its row".into()));
        }
        self.mvs[meta.x as usize] = conceal_mv_of(&meta.motion, meta.concealment_mv);
        self.last_addr = meta.addr as i64;
        Ok(())
    }
}

/// Clamps both components of a concealment vector into the representable
/// range of the picture's forward f-codes and encodes them, updating the
/// running predictor. The decoder recovers exactly the encoded value.
fn encode_conceal_mv(
    w: &mut BitWriter,
    f_code: [u8; 2],
    pred: &mut MotionVector,
    mv: MotionVector,
) {
    let bound = |fc: u8| 16i32 * (1 << (fc as i32 - 1));
    let bx = bound(f_code[0]);
    let by = bound(f_code[1]);
    let x = (mv.x as i32).clamp(-bx, bx - 1);
    let y = (mv.y as i32).clamp(-by, by - 1);
    mvtab::encode_mv_component(w, f_code[0], pred.x as i32, x);
    mvtab::encode_mv_component(w, f_code[1], pred.y as i32, y);
    *pred = MotionVector::new(x as i16, y as i16);
}

/// Synthesizes a flat DC slice for a lost I-picture row: every macroblock
/// intra, DC differentials zero (the decoder's reset value — mid-grey),
/// no AC coefficients. When the picture carries concealment motion
/// vectors each macroblock also writes the mandatory zero-delta vector.
fn write_dc_conceal_slice(w: &mut BitWriter, pi: &PictureInfo, row: u32, mbw: usize) {
    write_slice_header(w, row, CONCEAL_QSCALE);
    let mut dc = [dc_reset_value(pi.intra_dc_precision); 3];
    let mut pred = MotionVector::ZERO;
    let flags = MbFlags {
        intra: true,
        ..MbFlags::default()
    };
    for _ in 0..mbw {
        mba::encode_increment(w, 1);
        mb_type::encode_mb_type(w, PictureKind::I, flags);
        if pi.concealment_mv {
            encode_conceal_mv(w, pi.f_code[0], &mut pred, MotionVector::ZERO);
            w.put_marker();
        }
        for i in 0..6 {
            let comp = if i < 4 { 0 } else { i - 3 };
            let mut levels = [0i32; 64];
            levels[0] = dc[comp];
            block::write_block(w, true, i < 4, pi.alternate_scan, &mut dc[comp], &levels);
        }
    }
    w.pad_to_start_code();
}

/// Synthesizes a motion-only concealment slice for a lost P or B row:
/// every macroblock forward-predicted, not coded (no coefficients), with
/// the given per-column vector (the row above's concealment vectors for P,
/// zero for B).
fn write_motion_conceal_slice(w: &mut BitWriter, pi: &PictureInfo, row: u32, mvs: &[MotionVector]) {
    write_slice_header(w, row, CONCEAL_QSCALE);
    let flags = MbFlags {
        motion_forward: true,
        ..MbFlags::default()
    };
    let mut pred = MotionVector::ZERO;
    for &mv in mvs {
        mba::encode_increment(w, 1);
        mb_type::encode_mb_type(w, pi.kind, flags);
        encode_conceal_mv(w, pi.f_code[0], &mut pred, mv);
    }
    w.pad_to_start_code();
}

/// Normalises f-codes before the tolerant walk so the probe and the final
/// decode agree: used prediction directions get components forced into
/// 1–9 (damaged extension bits would otherwise make every vector-bearing
/// slice fail), unused directions become the conventional 15.
fn sanitize_f_codes(pi: &mut PictureInfo) {
    let used = |s: usize| match pi.kind {
        PictureKind::P => s == 0,
        PictureKind::B => true,
        PictureKind::I => s == 0 && pi.concealment_mv,
    };
    for s in 0..2 {
        for t in 0..2 {
            if used(s) {
                if !(1..=9).contains(&pi.f_code[s][t]) {
                    pi.f_code[s][t] = 1;
                }
            } else {
                pi.f_code[s][t] = 15;
            }
        }
    }
}

/// Working state of one repair pass.
struct Repairer<'a> {
    data: &'a [u8],
    index: &'a StartCodeIndex,
    si: SequenceInfo,
    w: BitWriter,
    reports: Vec<DamageReport>,
    pictures_dropped: u32,
    bytes_skipped: u64,
    /// Kind of every kept picture, coded order (for display reordering).
    kinds: Vec<PictureKind>,
    /// Display patches keyed by coded picture index.
    patches: Vec<(usize, Vec<PatchRow>)>,
    have_next: bool,
    have_prev: bool,
}

impl Repairer<'_> {
    /// Walks the unit list from `start`, keeping what parses and dropping
    /// the rest.
    fn run(&mut self, mut i: usize) {
        let index = self.index;
        let codes = index.codes();
        while i < codes.len() {
            let sc = &codes[i];
            let end = index.unit_end(i);
            match sc.code {
                StartCode::SEQUENCE_END => {
                    // One canonical end code is appended by the caller;
                    // everything after the first end code is dropped.
                    let mut skipped = end - sc.offset - 4;
                    #[allow(clippy::needless_range_loop)] // j also feeds unit_end(j)
                    for j in (i + 1)..codes.len() {
                        skipped += index.unit_end(j) - codes[j].offset;
                    }
                    self.bytes_skipped += skipped as u64;
                    return;
                }
                StartCode::PICTURE => {
                    let mut g = i + 1;
                    while g < codes.len() && !is_unit_terminator(codes[g].code) {
                        g += 1;
                    }
                    self.picture_unit(i, g);
                    i = g;
                }
                StartCode::GROUP => {
                    let mut r = BitReader::at(self.data, (sc.offset + 4) * 8);
                    match headers::parse_gop_header(&mut r) {
                        Ok(gop) => headers::write_gop_header(&mut self.w, &gop),
                        Err(_) => self.bytes_skipped += (end - sc.offset) as u64,
                    }
                    i += 1;
                }
                _ => {
                    // Stray sequence headers, sequence-level extensions,
                    // user data, orphan slices, reserved codes: dropped.
                    self.bytes_skipped += (end - sc.offset) as u64;
                    i += 1;
                }
            }
        }
    }

    /// Repairs one picture's unit group, `codes[first..group_end]`.
    fn picture_unit(&mut self, first: usize, group_end: usize) {
        let data = self.data;
        let index = self.index;
        let codes = index.codes();
        let group_len = (index.unit_end(group_end - 1) - codes[first].offset) as u64;
        let mut r = BitReader::at(data, (codes[first].offset + 4) * 8);
        let Ok(mut pi) = headers::parse_picture_header(&mut r) else {
            self.pictures_dropped += 1;
            self.bytes_skipped += group_len;
            return;
        };
        // First picture coding extension in the group completes `pi`;
        // missing or unparseable extensions get deterministic defaults and
        // the slices are still attempted under them.
        let mut pce_idx = None;
        #[allow(clippy::needless_range_loop)] // j is the unit index, not a position in a slice
        for j in (first + 1)..group_end {
            if codes[j].code != StartCode::EXTENSION
                || ext_id(data, &codes[j]) != Some(headers::EXT_ID_PICTURE_CODING)
            {
                continue;
            }
            let mut er = BitReader::at(data, (codes[j].offset + 4) * 8);
            let _ = er.read_bits(4);
            let mut candidate = pi.clone();
            if headers::parse_picture_coding_extension(&mut er, &mut candidate).is_ok() {
                pi = candidate;
                pce_idx = Some(j);
            }
            break;
        }
        if pce_idx.is_none() {
            pi.f_code = match pi.kind {
                PictureKind::I => [[15, 15], [15, 15]],
                PictureKind::P => [[1, 1], [15, 15]],
                PictureKind::B => [[1, 1], [1, 1]],
            };
        }
        sanitize_f_codes(&mut pi);
        // A picture whose references were dropped cannot be decoded or
        // concealed; drop it too (its own reference slot stays empty, so
        // dependents cascade deterministically).
        let refs_ok = match pi.kind {
            PictureKind::I => true,
            PictureKind::P => self.have_next,
            PictureKind::B => self.have_next && self.have_prev,
        };
        if !refs_ok {
            self.pictures_dropped += 1;
            self.bytes_skipped += group_len;
            return;
        }

        // Tolerant slice walk: first slice that covers its whole row wins.
        let mbw = self.si.mb_width() as usize;
        let mbh = self.si.mb_height() as usize;
        let mut kept: Vec<Option<(usize, usize)>> = vec![None; mbh];
        let mut row_mvs: Vec<Option<Vec<MotionVector>>> = vec![None; mbh];
        let mut slices_lost = 0u32;
        let mut first_error_bit: Option<u64> = None;
        #[allow(clippy::needless_range_loop)] // j also feeds unit_end(j) and pce_idx
        for j in (first + 1)..group_end {
            let sc = &codes[j];
            let end = index.unit_end(j);
            let unit_len = (end - sc.offset) as u64;
            if !sc.is_slice() {
                if pce_idx != Some(j) {
                    self.bytes_skipped += unit_len;
                }
                continue;
            }
            let row = (sc.code - 1) as usize;
            if row >= mbh || kept[row].is_some() {
                slices_lost += 1;
                self.bytes_skipped += unit_len;
                continue;
            }
            let sub = &data[sc.offset..end];
            let mut sr = BitReader::at(sub, 32);
            let ctx = SliceContext {
                seq: &self.si,
                pic: &pi,
            };
            let mut probe = RowProbe {
                row: row as u32,
                mbw: mbw as u32,
                last_addr: -1,
                mvs: vec![MotionVector::ZERO; mbw],
            };
            match parse_slice(&mut sr, &ctx, row as u32, &mut probe, &mut Discard) {
                Ok(()) if probe.last_addr == (row * mbw + mbw - 1) as i64 => {
                    // Keep only up to the byte holding the last data bit:
                    // trailing unit bytes may be zero padding the
                    // full-stream decoder would not accept mid-stream.
                    kept[row] = Some((sc.offset, sr.bit_position().div_ceil(8)));
                    row_mvs[row] = Some(probe.mvs);
                }
                Ok(()) => {
                    slices_lost += 1;
                    self.bytes_skipped += unit_len;
                }
                Err(_) => {
                    slices_lost += 1;
                    self.bytes_skipped += unit_len;
                    first_error_bit.get_or_insert((sc.offset * 8 + sr.bit_position()) as u64);
                }
            }
        }

        // Emit the picture: canonical headers, kept slices verbatim,
        // synthesized concealment slices for lost rows, in row order.
        headers::write_picture_header(&mut self.w, &pi);
        headers::write_picture_coding_extension(&mut self.w, &pi);
        let mut patch_rows: Vec<PatchRow> = Vec::new();
        let mut rows_damaged = 0u32;
        for (row, keep) in kept.iter().enumerate() {
            if let Some((off, n)) = *keep {
                self.w.pad_to_start_code();
                self.w.put_bytes(&data[off..off + n]);
                continue;
            }
            rows_damaged += 1;
            let above = if row > 0 {
                row_mvs[row - 1].as_deref()
            } else {
                None
            };
            match pi.kind {
                PictureKind::I => {
                    write_dc_conceal_slice(&mut self.w, &pi, row as u32, mbw);
                    if pi.concealment_mv {
                        let mvs = above
                            .map(<[MotionVector]>::to_vec)
                            .unwrap_or_else(|| vec![MotionVector::ZERO; mbw]);
                        patch_rows.push(PatchRow {
                            row: row as u32,
                            mvs,
                        });
                    }
                }
                PictureKind::P => {
                    let mvs = above
                        .map(<[MotionVector]>::to_vec)
                        .unwrap_or_else(|| vec![MotionVector::ZERO; mbw]);
                    write_motion_conceal_slice(&mut self.w, &pi, row as u32, &mvs);
                }
                PictureKind::B => {
                    let mvs = vec![MotionVector::ZERO; mbw];
                    write_motion_conceal_slice(&mut self.w, &pi, row as u32, &mvs);
                }
            }
        }
        if slices_lost > 0 || rows_damaged > 0 {
            self.reports.push(DamageReport {
                picture: self.kinds.len(),
                slices_lost,
                rows_damaged,
                mbs_concealed: rows_damaged * mbw as u32,
                first_error_bit,
            });
        }
        if !patch_rows.is_empty() {
            self.patches.push((self.kinds.len(), patch_rows));
        }
        self.kinds.push(pi.kind);
        if pi.kind.is_reference() {
            self.have_prev = self.have_next;
            self.have_next = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{Encoder, EncoderConfig};
    use tiledec_bitstream::FaultPlan;

    fn test_frames(n: usize, w: usize, h: usize) -> Vec<Frame> {
        (0..n)
            .map(|t| {
                let mut f = Frame::black(w, h);
                for y in 0..h {
                    for x in 0..w {
                        f.y.set(x, y, (((x + 3 * t) * 5 + y * 7) % 200) as u8 + 20);
                    }
                }
                for y in 0..h / 2 {
                    for x in 0..w / 2 {
                        f.cb.set(x, y, ((x * 2 + y + t) % 240) as u8);
                        f.cr.set(x, y, ((x + 2 * y + 3 * t) % 240) as u8);
                    }
                }
                f
            })
            .collect()
    }

    fn stream(cmv: bool) -> Vec<u8> {
        let mut cfg = EncoderConfig::for_size(64, 48);
        cfg.gop_size = 5;
        cfg.b_frames = 1;
        cfg.qscale = 6;
        cfg.concealment_mvs = cmv;
        Encoder::new(cfg)
            .unwrap()
            .encode(&test_frames(5, 64, 48))
            .unwrap()
    }

    fn frames_equal(a: &Frame, b: &Frame) -> bool {
        a.y.data() == b.y.data() && a.cb.data() == b.cb.data() && a.cr.data() == b.cr.data()
    }

    #[test]
    fn clean_stream_repair_is_pixel_lossless() {
        for cmv in [false, true] {
            let data = stream(cmv);
            let rep = repair_stream(&data).unwrap();
            assert_eq!(rep.damage.pictures_dropped, 0);
            assert!(rep.damage.reports.is_empty(), "cmv={cmv}");
            assert!(rep.patches.is_empty());
            let orig = decode_all(&data).unwrap();
            let repaired = decode_all(&rep.bytes).unwrap();
            assert_eq!(orig.len(), repaired.len());
            for (a, b) in orig.iter().zip(&repaired) {
                assert!(frames_equal(a, b), "cmv={cmv}");
            }
        }
    }

    #[test]
    fn repair_is_deterministic_and_repaired_stream_decodes() {
        let data = stream(true);
        for seed in 0..24u64 {
            let plan = FaultPlan::sample(seed, data.len(), 4, 2, seed % 2 == 0);
            let damaged = plan.apply(&data);
            let Ok(a) = repair_stream(&damaged) else {
                // Structural failure must reproduce.
                assert!(repair_stream(&damaged).is_err());
                continue;
            };
            let b = repair_stream(&damaged).unwrap();
            assert_eq!(a.bytes, b.bytes, "seed {seed}");
            assert_eq!(a.damage, b.damage, "seed {seed}");
            assert_eq!(a.patches, b.patches, "seed {seed}");
            // The repaired stream is the contract: every back-end decodes
            // it strictly without error, at full geometry.
            let frames = decode_all(&a.bytes)
                .unwrap_or_else(|e| panic!("repair invariant violated (seed {seed}): {e}"));
            for f in &frames {
                assert_eq!((f.width(), f.height()), (64, 48));
            }
        }
    }

    #[test]
    fn erased_slice_is_concealed() {
        let data = stream(false);
        let baseline = decode_all(&data).unwrap().len();
        let index = StartCodeIndex::build(&data);
        // Kill row 1 of the first (I) picture: zero its quantiser scale.
        let slice = index
            .codes()
            .iter()
            .find(|c| c.code == 0x02)
            .expect("row-1 slice");
        let mut damaged = data.clone();
        damaged[slice.offset + 4] = 0;
        assert!(decode_all(&damaged).is_err(), "strict must still fail");
        let (frames, damage) = decode_all_resilient(&damaged).unwrap();
        assert_eq!(frames.len(), baseline);
        assert!(!damage.clean);
        assert_eq!(damage.pictures_dropped, 0);
        assert_eq!(damage.reports.len(), 1);
        let rep = &damage.reports[0];
        assert_eq!(rep.picture, 0);
        assert_eq!(rep.slices_lost, 1);
        assert_eq!(rep.rows_damaged, 1);
        assert_eq!(rep.mbs_concealed, 4); // 64 px wide = 4 macroblocks
        assert!(rep.first_error_bit.is_some());
        for f in &frames {
            assert_eq!((f.width(), f.height()), (64, 48));
        }
    }

    #[test]
    fn all_i_slices_lost_gives_flat_grey_frame() {
        let data = stream(false);
        let index = StartCodeIndex::build(&data);
        let codes = index.codes();
        let first_pic = codes
            .iter()
            .position(|c| c.code == StartCode::PICTURE)
            .unwrap();
        let mut damaged = data.clone();
        for (j, c) in codes.iter().enumerate().skip(first_pic + 1) {
            if is_unit_terminator(c.code) {
                break;
            }
            if c.is_slice() {
                let _ = j;
                damaged[c.offset + 4] = 0; // quantiser_scale_code 0: dead slice
            }
        }
        let (frames, damage) = decode_all_resilient(&damaged).unwrap();
        assert_eq!(frames.len(), 5);
        assert_eq!(damage.reports[0].rows_damaged, 3); // 48 px = 3 rows
                                                       // The I picture displays first; all rows synthesized → flat grey.
        let y = frames[0].y.data();
        assert!(y.iter().all(|&p| p == y[0]), "synthesized frame not flat");
        assert!((120..=136).contains(&y[0]), "unexpected fill {}", y[0]);
    }

    #[test]
    fn truncated_stream_still_decodes() {
        let data = stream(true);
        let cut = &data[..data.len() * 7 / 10];
        let (frames, damage) = decode_all_resilient(cut).unwrap();
        assert!(!damage.clean);
        assert!(frames.len() <= 5);
        for f in &frames {
            assert_eq!((f.width(), f.height()), (64, 48));
        }
    }

    #[test]
    fn display_patch_copies_previous_frame() {
        let mut frames = vec![Frame::black(32, 32), Frame::black(32, 32)];
        for y in 0..32 {
            for x in 0..32 {
                frames[0].y.set(x, y, ((x * 7 + y * 3) % 251) as u8);
            }
        }
        for y in 0..16 {
            for x in 0..16 {
                frames[0].cb.set(x, y, ((x + y) % 251) as u8);
                frames[0].cr.set(x, y, ((x * 2 + y) % 251) as u8);
            }
        }
        let patches = vec![DisplayPatch {
            display_index: 1,
            rows: vec![PatchRow {
                row: 0,
                mvs: vec![MotionVector::ZERO; 2],
            }],
        }];
        apply_display_patches(&mut frames, &patches);
        let (prev, cur) = frames.split_at(1);
        for y in 0..16 {
            for x in 0..32 {
                assert_eq!(cur[0].y.get(x, y), prev[0].y.get(x, y));
            }
        }
        for y in 0..8 {
            for x in 0..16 {
                assert_eq!(cur[0].cb.get(x, y), prev[0].cb.get(x, y));
                assert_eq!(cur[0].cr.get(x, y), prev[0].cr.get(x, y));
            }
        }
        // Row 1 untouched (still black).
        assert_eq!(cur[0].y.get(0, 16), 0);
    }

    #[test]
    fn garbage_input_is_structural_error_not_panic() {
        assert!(decode_all_resilient(&[]).is_err());
        let mut s = 0x1234_5678u64;
        for len in [1usize, 4, 64, 4096] {
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    s as u8
                })
                .collect();
            let _ = decode_all_resilient(&data); // any outcome but a panic
        }
    }

    #[test]
    fn display_order_matches_decoder_reorder() {
        use PictureKind::{B, I, P};
        assert_eq!(display_order(&[I, P, B, P, B]), vec![0, 2, 1, 4, 3]);
        assert_eq!(display_order(&[I, P, P]), vec![0, 1, 2]);
        assert_eq!(display_order(&[I]), vec![0]);
        assert_eq!(display_order(&[]), Vec::<usize>::new());
    }
}
