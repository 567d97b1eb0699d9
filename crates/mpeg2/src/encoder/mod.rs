//! MPEG-2 video encoder.
//!
//! Produces streams inside the decoder's supported subset (progressive
//! frame pictures, 4:2:0, table B-14) with I/P/B pictures, motion
//! estimation, adaptive quantisation and skipped macroblocks — everything
//! the parallel splitter machinery has to cope with.
//!
//! Reference frames are **reconstructed through the decoder's own
//! dequant/IDCT/MC path**, so encoder and decoder references are bit-exact
//! and there is no drift.

mod me;
mod ratecontrol;

pub use me::{block_activity, footprint_ok, sad_block, search, MotionSearch};
pub use ratecontrol::RateController;

use tiledec_bitstream::BitWriter;

use crate::block::MbCoeffs;
use crate::frame::Frame;
use crate::headers;
use crate::motion::{predict, FrameRefs, PlanePick, RefPick};
use crate::quant::{quant_intra, quant_non_intra, Dequant};
use crate::recon::{FrameSink, Reconstructor};
use crate::slice::{
    skip_motion, write_slice_header, MbMeta, MbMotion, PredictorState, SliceContext, SliceVisitor,
};
use crate::tables::{mb_type, mba, motion as mvtab};
use crate::types::{MbFlags, MotionVector, PictureInfo, PictureKind, SequenceInfo};
use crate::{block, dct, Error, Result};

/// Encoder-side reconstructions paired with their display indices.
pub type ReconList = Vec<(usize, Frame)>;

/// Encoder configuration.
#[derive(Debug, Clone)]
pub struct EncoderConfig {
    /// Luma width; must be a multiple of 16 and at most 4095.
    pub width: u32,
    /// Luma height; must be a multiple of 16 and at most 2800.
    pub height: u32,
    /// Frames per GOP (I-picture period).
    pub gop_size: u32,
    /// B pictures between consecutive reference pictures.
    pub b_frames: u32,
    /// Base quantiser scale code (1–31). Larger is coarser.
    pub qscale: u8,
    /// Modulate the quantiser ±2 by macroblock activity (exercises
    /// `macroblock_quant`, which the SPH machinery must propagate).
    pub adaptive_quant: bool,
    /// Motion search radius in full pels.
    pub search_range: u32,
    /// Frame-rate code for the sequence header (5 = 30 fps).
    pub frame_rate_code: u8,
    /// When set, feedback rate control targets this many bits per picture.
    pub target_bits_per_picture: Option<u32>,
    /// Use the alternate coefficient scan.
    pub alternate_scan: bool,
    /// `intra_dc_precision` (0–3 for 8–11 bits).
    pub intra_dc_precision: u8,
    /// Non-linear quantiser scale mapping.
    pub q_scale_type: bool,
    /// Emit `concealment_motion_vectors` in I and P pictures: every intra
    /// macroblock carries a forward vector a decoder can use to conceal
    /// the macroblock below it if that slice is lost (§7.6.3.9).
    pub concealment_mvs: bool,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            width: 320,
            height: 240,
            gop_size: 12,
            b_frames: 2,
            qscale: 8,
            adaptive_quant: true,
            search_range: 15,
            frame_rate_code: 5,
            target_bits_per_picture: None,
            alternate_scan: false,
            intra_dc_precision: 0,
            q_scale_type: false,
            concealment_mvs: false,
        }
    }
}

impl EncoderConfig {
    /// Convenience constructor for a given picture size.
    pub fn for_size(width: u32, height: u32) -> Self {
        EncoderConfig {
            width,
            height,
            ..Default::default()
        }
    }

    fn validate(&self) -> Result<()> {
        if self.width == 0
            || self.height == 0
            || !self.width.is_multiple_of(16)
            || !self.height.is_multiple_of(16)
        {
            return Err(Error::InvalidInput(format!(
                "dimensions {}x{} must be non-zero multiples of 16",
                self.width, self.height
            )));
        }
        if self.width > 4095 {
            return Err(Error::InvalidInput(
                "width above 4095 needs size extensions".into(),
            ));
        }
        if self.height > 2800 {
            return Err(Error::InvalidInput(
                "height above 2800 needs slice_vertical_position_extension".into(),
            ));
        }
        if !(1..=31).contains(&self.qscale) {
            return Err(Error::InvalidInput("qscale must be 1-31".into()));
        }
        if self.gop_size == 0 {
            return Err(Error::InvalidInput("gop_size must be at least 1".into()));
        }
        Ok(())
    }
}

/// Per-picture encoding statistics.
#[derive(Debug, Clone)]
pub struct EncodeStats {
    /// (kind, encoded bytes) for every picture in coding order.
    pub pictures: Vec<(PictureKind, usize)>,
    /// Total stream length in bytes.
    pub total_bytes: usize,
}

impl EncodeStats {
    /// Mean picture size in bytes.
    pub fn average_picture_bytes(&self) -> f64 {
        if self.pictures.is_empty() {
            return 0.0;
        }
        self.pictures.iter().map(|(_, b)| *b).sum::<usize>() as f64 / self.pictures.len() as f64
    }
}

/// The MPEG-2 encoder.
pub struct Encoder {
    cfg: EncoderConfig,
    seq: SequenceInfo,
}

impl Encoder {
    /// Creates an encoder after validating the configuration.
    pub fn new(cfg: EncoderConfig) -> Result<Self> {
        cfg.validate()?;
        let seq = SequenceInfo {
            width: cfg.width,
            height: cfg.height,
            frame_rate_code: cfg.frame_rate_code,
            bit_rate_400: 0x3FFFF,
            intra_quant_matrix: crate::tables::quant::DEFAULT_INTRA_MATRIX,
            non_intra_quant_matrix: crate::tables::quant::DEFAULT_NON_INTRA_MATRIX,
        };
        Ok(Encoder { cfg, seq })
    }

    /// The sequence parameters the encoder will emit.
    pub fn sequence_info(&self) -> &SequenceInfo {
        &self.seq
    }

    /// Encodes `frames` (display order) into an elementary stream.
    pub fn encode(&self, frames: &[Frame]) -> Result<Vec<u8>> {
        Ok(self.encode_with_stats(frames)?.0)
    }

    /// Encodes and additionally returns the encoder-side reconstruction of
    /// every picture in **coding order** (with its display index). Used by
    /// validation code to prove the decoder is bit-exact with the encoder's
    /// reference path; memory-heavy, avoid on long clips.
    pub fn encode_with_recon(&self, frames: &[Frame]) -> Result<(Vec<u8>, ReconList)> {
        let mut recons = Vec::new();
        let (bytes, _) = self.encode_inner(frames, Some(&mut recons))?;
        Ok((bytes, recons))
    }

    /// Encodes and returns per-picture statistics.
    pub fn encode_with_stats(&self, frames: &[Frame]) -> Result<(Vec<u8>, EncodeStats)> {
        self.encode_inner(frames, None)
    }

    fn encode_inner(
        &self,
        frames: &[Frame],
        mut collect_recon: Option<&mut ReconList>,
    ) -> Result<(Vec<u8>, EncodeStats)> {
        for (i, f) in frames.iter().enumerate() {
            if f.width() != self.cfg.width as usize || f.height() != self.cfg.height as usize {
                return Err(Error::InvalidInput(format!(
                    "frame {i} is {}x{}, expected {}x{}",
                    f.width(),
                    f.height(),
                    self.cfg.width,
                    self.cfg.height
                )));
            }
        }
        if frames.is_empty() {
            return Err(Error::InvalidInput("no frames to encode".into()));
        }
        let mut w = BitWriter::with_capacity(frames.len() * 4096);
        headers::write_sequence_header(&mut w, &self.seq);
        let mut stats = EncodeStats {
            pictures: Vec::new(),
            total_bytes: 0,
        };
        let mut rc = self
            .cfg
            .target_bits_per_picture
            .map(|t| RateController::new(t as f64, self.cfg.qscale));

        let mut prev_recon: Option<Frame> = None;
        let mut next_recon: Option<Frame> = None;

        for gop_start in (0..frames.len()).step_by(self.cfg.gop_size as usize) {
            let gop_end = (gop_start + self.cfg.gop_size as usize).min(frames.len());
            headers::write_gop_header(&mut w, &headers::GopHeader::default());
            for (display, kind) in coding_order(gop_start, gop_end, self.cfg.b_frames as usize) {
                let base_q = rc
                    .as_ref()
                    .map(|rc| rc.picture_q(kind))
                    .unwrap_or(self.cfg.qscale);
                let bytes_before = w.as_bytes().len();
                let recon = self.encode_picture(
                    &mut w,
                    &frames[display],
                    kind,
                    (display - gop_start) as u16,
                    base_q,
                    prev_recon.as_ref(),
                    next_recon.as_ref(),
                )?;
                let bytes_used = w.as_bytes().len() - bytes_before;
                if let Some(rc) = rc.as_mut() {
                    rc.update(kind, bytes_used * 8);
                }
                stats.pictures.push((kind, bytes_used));
                if let Some(out) = collect_recon.as_deref_mut() {
                    out.push((display, recon.clone()));
                }
                if kind.is_reference() {
                    prev_recon = next_recon.replace(recon);
                }
            }
        }
        headers::write_sequence_end(&mut w);
        let bytes = w.into_bytes();
        stats.total_bytes = bytes.len();
        Ok((bytes, stats))
    }

    /// Encodes one picture and returns its reconstruction.
    #[allow(clippy::too_many_arguments)]
    fn encode_picture(
        &self,
        w: &mut BitWriter,
        src: &Frame,
        kind: PictureKind,
        temporal_reference: u16,
        base_q: u8,
        prev_recon: Option<&Frame>,
        next_recon: Option<&Frame>,
    ) -> Result<Frame> {
        let fc = mvtab::f_code_for(2 * self.cfg.search_range as i32 + 1);
        // Concealment vectors are forward vectors, so an I picture carrying
        // them needs a valid forward f_code.
        let cmv = self.cfg.concealment_mvs && kind != PictureKind::B;
        let f_code = match kind {
            PictureKind::I if cmv => [[fc, fc], [15, 15]],
            PictureKind::I => [[15, 15], [15, 15]],
            PictureKind::P => [[fc, fc], [15, 15]],
            PictureKind::B => [[fc, fc], [fc, fc]],
        };
        let mut pi = PictureInfo::new(kind, temporal_reference, f_code);
        pi.intra_dc_precision = self.cfg.intra_dc_precision;
        pi.q_scale_type = self.cfg.q_scale_type;
        pi.alternate_scan = self.cfg.alternate_scan;
        pi.concealment_mv = cmv;
        headers::write_picture_header(w, &pi);
        headers::write_picture_coding_extension(w, &pi);

        let (fwd, bwd) = match kind {
            PictureKind::I => (src, src), // never fetched
            PictureKind::P => {
                let f = next_recon
                    .ok_or_else(|| Error::InvalidInput("P picture without reference".into()))?;
                (f, f)
            }
            PictureKind::B => (
                prev_recon
                    .ok_or_else(|| Error::InvalidInput("B picture without references".into()))?,
                next_recon
                    .ok_or_else(|| Error::InvalidInput("B picture without references".into()))?,
            ),
        };
        let mut recon = Frame::zeroed(src.width(), src.height());
        let ctx_pic = pi.clone();
        let ctx = SliceContext {
            seq: &self.seq,
            pic: &ctx_pic,
        };
        let mbw = self.seq.mb_width();
        let mbh = self.seq.mb_height();

        for row in 0..mbh {
            let mut pe = PictureEncoder {
                cfg: &self.cfg,
                base_q,
                ctx: &ctx,
                src,
                fwd,
                bwd,
                recon: &mut recon,
                w: &mut *w,
                state: PredictorState::slice_start(self.cfg.intra_dc_precision, base_q),
                prev_motion: MbMotion::Intra,
                pending_skips: 0,
                hint: [MotionVector::ZERO; 2],
                kind,
                cmv_ref: if cmv { next_recon } else { None },
                coeffs: MbCoeffs::default(),
            };
            write_slice_header(pe.w, row, base_q);
            for col in 0..mbw {
                pe.encode_mb(row, col, mbw)?;
            }
            debug_assert_eq!(
                pe.pending_skips, 0,
                "slice must end with a coded macroblock"
            );
            pe.w.pad_to_start_code();
        }
        Ok(recon)
    }
}

/// Builds the coding order of one GOP: `(display_index, kind)`.
fn coding_order(start: usize, end: usize, b_frames: usize) -> Vec<(usize, PictureKind)> {
    let m = b_frames + 1;
    let mut marks: Vec<usize> = (start..end).step_by(m).collect();
    if *marks.last().expect("non-empty gop") != end - 1 {
        marks.push(end - 1);
    }
    let mut order = Vec::with_capacity(end - start);
    order.push((marks[0], PictureKind::I));
    for pair in marks.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        order.push((b, PictureKind::P));
        for d in a + 1..b {
            order.push((d, PictureKind::B));
        }
    }
    order
}

/// Per-slice encoding state and scratch.
struct PictureEncoder<'a> {
    cfg: &'a EncoderConfig,
    /// Per-picture base quantiser the adaptive modulation works from.
    base_q: u8,
    ctx: &'a SliceContext<'a>,
    src: &'a Frame,
    fwd: &'a Frame,
    bwd: &'a Frame,
    recon: &'a mut Frame,
    w: &'a mut BitWriter,
    state: PredictorState,
    prev_motion: MbMotion,
    pending_skips: u32,
    /// Motion hints per direction from the previous macroblock.
    hint: [MotionVector; 2],
    kind: PictureKind,
    /// Search reference for concealment motion vectors (the previous
    /// reference frame in coding order); `None` disables them or falls
    /// back to zero vectors when no reference exists yet.
    cmv_ref: Option<&'a Frame>,
    /// Workspace the decoder-identical reconstruction dequantises into.
    coeffs: MbCoeffs,
}

/// A fully decided macroblock, ready to write.
struct MbPlan {
    flags: MbFlags,
    motion: MbMotion,
    cbp: u8,
    qscale: u8,
    blocks: Box<[[i32; 64]; 6]>,
}

impl PictureEncoder<'_> {
    #[allow(clippy::needless_range_loop)] // block index selects both cbp bit and plane
    fn encode_mb(&mut self, row: u32, col: u32, mbw: u32) -> Result<()> {
        let addr = row * mbw + col;
        let first = col == 0;
        let last = col == mbw - 1;
        let (px, py) = (col as usize * 16, row as usize * 16);

        // --- Mode decision ---------------------------------------------
        let act = block_activity(&self.src.y, px, py);
        let desired_q = self.desired_qscale(act);
        let plan = match self.kind {
            PictureKind::I => self.plan_intra(px, py, desired_q),
            PictureKind::P => self.plan_p(px, py, act, desired_q),
            PictureKind::B => self.plan_b(px, py, act, desired_q),
        };

        // --- Skip decision ---------------------------------------------
        if !first && !last && plan.cbp == 0 && !plan.flags.intra && self.can_skip(&plan.motion) {
            self.apply_skip_effects();
            self.reconstruct_skipped(addr)?;
            self.pending_skips += 1;
            return Ok(());
        }

        // --- Write ------------------------------------------------------
        mba::encode_increment(self.w, self.pending_skips + 1);
        self.pending_skips = 0;
        let quant_needed =
            plan.qscale != self.state.qscale_code && (plan.flags.pattern || plan.flags.intra);
        let mut flags = plan.flags;
        flags.quant = quant_needed;
        mb_type::encode_mb_type(self.w, self.kind, flags);
        if quant_needed {
            self.w.put_bits(plan.qscale as u32, 5);
            self.state.qscale_code = plan.qscale;
        }
        let effective_q = self.state.qscale_code;
        match plan.motion {
            MbMotion::Intra => {
                if self.ctx.pic.concealment_mv {
                    let mv = match self.cmv_ref {
                        Some(rf) => {
                            search(
                                &self.src.y,
                                rf,
                                px,
                                py,
                                self.hint[0],
                                self.cfg.search_range as i32,
                            )
                            .mv
                        }
                        None => MotionVector::ZERO,
                    };
                    self.write_motion_vector(0, mv);
                    self.w.put_bit(1); // marker_bit after concealment vectors
                }
            }
            MbMotion::Forward(f) => {
                if flags.motion_forward {
                    self.write_motion_vector(0, f);
                } else {
                    // P-picture "no MC": decoder resets predictors.
                    self.state.reset_pmv();
                }
            }
            MbMotion::Backward(b) => self.write_motion_vector(1, b),
            MbMotion::Bi(f, b) => {
                self.write_motion_vector(0, f);
                self.write_motion_vector(1, b);
            }
        }
        if flags.intra {
            // Written below with DC prediction; predictors reset afterwards.
        } else {
            if flags.pattern {
                crate::tables::cbp::encode_cbp(self.w, plan.cbp);
            }
        }
        for i in 0..6 {
            if plan.cbp & (1 << (5 - i)) != 0 {
                let comp = if i < 4 { 0 } else { i - 3 };
                let coded = block::write_block(
                    self.w,
                    flags.intra,
                    i < 4,
                    self.ctx.pic.alternate_scan,
                    &mut self.state.dc_pred[comp],
                    &plan.blocks[i],
                );
                debug_assert!(coded, "cbp bit set for an empty block");
            }
        }
        if flags.intra {
            if !self.ctx.pic.concealment_mv {
                self.state.reset_pmv();
            }
        } else {
            self.state.reset_dc(self.ctx.pic.intra_dc_precision);
        }
        self.prev_motion = plan.motion;

        // --- Reconstruct (decoder-identical path) ------------------------
        let meta = MbMeta {
            addr,
            x: col,
            y: row,
            flags,
            qscale_code: effective_q,
            motion: plan.motion,
            concealment_mv: None,
            cbp: plan.cbp,
            skipped_before: 0,
            entry: self.state.clone(),
            entry_prev_motion: self.prev_motion,
            bit_start: 0,
            bit_end: 0,
        };
        let refs = FrameRefs {
            fwd: self.fwd,
            bwd: self.bwd,
        };
        let mut sink = FrameSink {
            frame: &mut *self.recon,
        };
        let mut recon = Reconstructor {
            refs: &refs,
            sink: &mut sink,
        };
        let q = Dequant::new(self.ctx, flags.intra, effective_q);
        for i in 0..6 {
            if plan.cbp & (1 << (5 - i)) != 0 {
                self.coeffs.load_levels(&q, i, &plan.blocks[i]);
            }
        }
        recon.macroblock(self.ctx, &meta, &mut self.coeffs)?;
        Ok(())
    }

    fn desired_qscale(&self, activity: u32) -> u8 {
        if !self.cfg.adaptive_quant {
            return self.state.qscale_code;
        }
        let base = self.base_q as i32;
        let adj = if activity > 8000 {
            2
        } else if activity < 1200 {
            -2
        } else {
            0
        };
        (base + adj).clamp(1, 31) as u8
    }

    fn can_skip(&self, motion: &MbMotion) -> bool {
        match self.kind {
            PictureKind::I => false,
            PictureKind::P => matches!(motion, MbMotion::Forward(MotionVector::ZERO)),
            PictureKind::B => {
                // Skipped B macroblocks repeat the previous prediction.
                !matches!(self.prev_motion, MbMotion::Intra) && *motion == self.prev_motion
            }
        }
    }

    fn apply_skip_effects(&mut self) {
        self.state.reset_dc(self.ctx.pic.intra_dc_precision);
        if self.kind == PictureKind::P {
            self.state.reset_pmv();
        }
    }

    fn reconstruct_skipped(&mut self, addr: u32) -> Result<()> {
        let motion = skip_motion(self.kind, &self.prev_motion)?;
        let refs = FrameRefs {
            fwd: self.fwd,
            bwd: self.bwd,
        };
        let mut sink = FrameSink {
            frame: &mut *self.recon,
        };
        let mut recon = Reconstructor {
            refs: &refs,
            sink: &mut sink,
        };
        recon.skipped(self.ctx, addr, 1, &motion)
    }

    fn write_motion_vector(&mut self, s: usize, mv: MotionVector) {
        let fx = self.ctx.pic.f_code[s][0];
        let fy = self.ctx.pic.f_code[s][1];
        mvtab::encode_mv_component(self.w, fx, self.state.pmv[0][s][0], mv.x as i32);
        mvtab::encode_mv_component(self.w, fy, self.state.pmv[0][s][1], mv.y as i32);
        self.state.pmv[0][s] = [mv.x as i32, mv.y as i32];
        self.state.pmv[1][s] = [mv.x as i32, mv.y as i32];
        self.hint[s] = mv;
    }

    // --- Mode planning ---------------------------------------------------

    fn plan_intra(&self, px: usize, py: usize, q: u8) -> MbPlan {
        let mut blocks = Box::new([[0i32; 64]; 6]);
        let scale = crate::tables::quant::quantiser_scale(self.ctx.pic.q_scale_type, q);
        for i in 0..6 {
            let samples = self.source_block(px, py, i);
            let coeffs = dct::fdct(&samples);
            blocks[i] = quant_intra(
                &coeffs,
                &self.ctx.seq.intra_quant_matrix,
                scale,
                self.ctx.pic.intra_dc_precision,
            );
        }
        MbPlan {
            flags: MbFlags {
                intra: true,
                ..Default::default()
            },
            motion: MbMotion::Intra,
            cbp: 0b111111,
            qscale: q,
            blocks,
        }
    }

    fn plan_p(&mut self, px: usize, py: usize, act: u32, q: u8) -> MbPlan {
        let m = search(
            &self.src.y,
            self.fwd,
            px,
            py,
            self.hint[0],
            self.cfg.search_range as i32,
        );
        if m.sad > act.saturating_add(2048) {
            return self.plan_intra(px, py, q);
        }
        // Prefer a skippable zero-vector macroblock when the zero-vector
        // residual vanishes anyway (static content).
        if m.mv != MotionVector::ZERO {
            let zero_sad = {
                let mut pred = [0u8; 256];
                let refs = FrameRefs {
                    fwd: self.fwd,
                    bwd: self.bwd,
                };
                predict(
                    &refs,
                    RefPick::Forward,
                    PlanePick::Y,
                    px,
                    py,
                    16,
                    MotionVector::ZERO,
                    &mut pred,
                );
                sad_block(&self.src.y, px, py, &pred)
            };
            if zero_sad <= m.sad.saturating_add(512) && zero_sad < 2048 {
                let zero_motion = MbMotion::Forward(MotionVector::ZERO);
                let (cbp, blocks) = self.quantise_inter(px, py, &zero_motion, q);
                if cbp == 0 {
                    return MbPlan {
                        flags: MbFlags {
                            motion_forward: true,
                            ..Default::default()
                        },
                        motion: zero_motion,
                        cbp,
                        qscale: q,
                        blocks,
                    };
                }
            }
        }
        self.hint[0] = m.mv;
        let motion = MbMotion::Forward(m.mv);
        let (cbp, blocks) = self.quantise_inter(px, py, &motion, q);
        let flags = MbFlags {
            motion_forward: m.mv != MotionVector::ZERO || cbp == 0,
            pattern: cbp != 0,
            ..Default::default()
        };
        // Zero-vector coded macroblocks use the "no MC" type (prediction
        // without transmitted vectors).
        MbPlan {
            flags,
            motion,
            cbp,
            qscale: q,
            blocks,
        }
    }

    fn plan_b(&mut self, px: usize, py: usize, act: u32, q: u8) -> MbPlan {
        // Prefer repeating the previous macroblock's prediction when its
        // residual vanishes: that macroblock can then be skipped.
        if !matches!(self.prev_motion, MbMotion::Intra) {
            let prev = self.prev_motion;
            if self.motion_in_bounds(px, py, &prev) {
                let (cbp, blocks) = self.quantise_inter(px, py, &prev, q);
                if cbp == 0 {
                    let flags = MbFlags {
                        motion_forward: matches!(prev, MbMotion::Forward(_) | MbMotion::Bi(..)),
                        motion_backward: matches!(prev, MbMotion::Backward(_) | MbMotion::Bi(..)),
                        ..Default::default()
                    };
                    return MbPlan {
                        flags,
                        motion: prev,
                        cbp,
                        qscale: q,
                        blocks,
                    };
                }
            }
        }
        let range = self.cfg.search_range as i32;
        let mf = search(&self.src.y, self.fwd, px, py, self.hint[0], range);
        let mb = search(&self.src.y, self.bwd, px, py, self.hint[1], range);
        // Evaluate the bidirectional average of the two winners.
        let mut pf = [0u8; 256];
        let mut pb = [0u8; 256];
        let refs = FrameRefs {
            fwd: self.fwd,
            bwd: self.bwd,
        };
        predict(
            &refs,
            RefPick::Forward,
            PlanePick::Y,
            px,
            py,
            16,
            mf.mv,
            &mut pf,
        );
        predict(
            &refs,
            RefPick::Backward,
            PlanePick::Y,
            px,
            py,
            16,
            mb.mv,
            &mut pb,
        );
        crate::motion::average(&pb, 16, &mut pf, 16, 16);
        let bi_sad = sad_block(&self.src.y, px, py, &pf);

        let best = mf.sad.min(mb.sad).min(bi_sad);
        if best > act.saturating_add(2048) {
            return self.plan_intra(px, py, q);
        }
        let motion = if bi_sad <= best {
            self.hint[0] = mf.mv;
            self.hint[1] = mb.mv;
            MbMotion::Bi(mf.mv, mb.mv)
        } else if mf.sad <= mb.sad {
            self.hint[0] = mf.mv;
            MbMotion::Forward(mf.mv)
        } else {
            self.hint[1] = mb.mv;
            MbMotion::Backward(mb.mv)
        };
        let (cbp, blocks) = self.quantise_inter(px, py, &motion, q);
        let flags = MbFlags {
            motion_forward: matches!(motion, MbMotion::Forward(_) | MbMotion::Bi(..)),
            motion_backward: matches!(motion, MbMotion::Backward(_) | MbMotion::Bi(..)),
            pattern: cbp != 0,
            ..Default::default()
        };
        MbPlan {
            flags,
            motion,
            cbp,
            qscale: q,
            blocks,
        }
    }

    /// True when every vector of `motion` keeps its prediction window
    /// inside the picture for a macroblock at (`px`, `py`).
    fn motion_in_bounds(&self, px: usize, py: usize, motion: &MbMotion) -> bool {
        let vecs: &[MotionVector] = match motion {
            MbMotion::Intra => return true,
            MbMotion::Forward(f) => &[*f],
            MbMotion::Backward(b) => &[*b],
            MbMotion::Bi(f, b) => &[*f, *b],
        };
        vecs.iter().all(|mv| footprint_ok(&self.src.y, px, py, *mv))
    }

    /// Quantises the inter residual of all six blocks; returns the CBP.
    fn quantise_inter(
        &self,
        px: usize,
        py: usize,
        motion: &MbMotion,
        q: u8,
    ) -> (u8, Box<[[i32; 64]; 6]>) {
        let refs = FrameRefs {
            fwd: self.fwd,
            bwd: self.bwd,
        };
        let mut pred_y = [0u8; 256];
        let mut pred_cb = [0u8; 64];
        let mut pred_cr = [0u8; 64];
        let preds: &[(RefPick, MotionVector)] = match motion {
            MbMotion::Intra => unreachable!(),
            MbMotion::Forward(f) => &[(RefPick::Forward, *f)],
            MbMotion::Backward(b) => &[(RefPick::Backward, *b)],
            MbMotion::Bi(f, b) => &[(RefPick::Forward, *f), (RefPick::Backward, *b)],
        };
        let mut tmp_y = [0u8; 256];
        let mut tmp_c = [0u8; 64];
        for (i, (which, mv)) in preds.iter().enumerate() {
            let cmv = mv.chroma_420();
            if i == 0 {
                predict(&refs, *which, PlanePick::Y, px, py, 16, *mv, &mut pred_y);
                predict(
                    &refs,
                    *which,
                    PlanePick::Cb,
                    px / 2,
                    py / 2,
                    8,
                    cmv,
                    &mut pred_cb,
                );
                predict(
                    &refs,
                    *which,
                    PlanePick::Cr,
                    px / 2,
                    py / 2,
                    8,
                    cmv,
                    &mut pred_cr,
                );
            } else {
                predict(&refs, *which, PlanePick::Y, px, py, 16, *mv, &mut tmp_y);
                crate::motion::average(&tmp_y, 16, &mut pred_y, 16, 16);
                predict(
                    &refs,
                    *which,
                    PlanePick::Cb,
                    px / 2,
                    py / 2,
                    8,
                    cmv,
                    &mut tmp_c,
                );
                crate::motion::average(&tmp_c, 8, &mut pred_cb, 8, 8);
                predict(
                    &refs,
                    *which,
                    PlanePick::Cr,
                    px / 2,
                    py / 2,
                    8,
                    cmv,
                    &mut tmp_c,
                );
                crate::motion::average(&tmp_c, 8, &mut pred_cr, 8, 8);
            }
        }

        let scale = crate::tables::quant::quantiser_scale(self.ctx.pic.q_scale_type, q);
        let mut blocks = Box::new([[0i32; 64]; 6]);
        let mut cbp = 0u8;
        for i in 0..6 {
            let src = self.source_block(px, py, i);
            let mut residual = [0i32; 64];
            match i {
                0..=3 => {
                    let (bx, by) = [(0, 0), (8, 0), (0, 8), (8, 8)][i];
                    for y in 0..8 {
                        for x in 0..8 {
                            residual[y * 8 + x] =
                                src[y * 8 + x] - pred_y[(by + y) * 16 + bx + x] as i32;
                        }
                    }
                }
                4 => {
                    for k in 0..64 {
                        residual[k] = src[k] - pred_cb[k] as i32;
                    }
                }
                _ => {
                    for k in 0..64 {
                        residual[k] = src[k] - pred_cr[k] as i32;
                    }
                }
            }
            let coeffs = dct::fdct(&residual);
            let levels = quant_non_intra(&coeffs, &self.ctx.seq.non_intra_quant_matrix, scale);
            if levels.iter().any(|&v| v != 0) {
                cbp |= 1 << (5 - i);
                blocks[i] = levels;
            }
        }
        (cbp, blocks)
    }

    /// Extracts source samples for block `i` of the macroblock at
    /// (`px`, `py`) as i32 raster values.
    fn source_block(&self, px: usize, py: usize, i: usize) -> [i32; 64] {
        let mut out = [0i32; 64];
        match i {
            0..=3 => {
                let (bx, by) = [(0, 0), (8, 0), (0, 8), (8, 8)][i];
                for y in 0..8 {
                    for (x, o) in out[y * 8..y * 8 + 8].iter_mut().enumerate() {
                        *o = self.src.y.get(px + bx + x, py + by + y) as i32;
                    }
                }
            }
            4 => {
                for y in 0..8 {
                    for (x, o) in out[y * 8..y * 8 + 8].iter_mut().enumerate() {
                        *o = self.src.cb.get(px / 2 + x, py / 2 + y) as i32;
                    }
                }
            }
            _ => {
                for y in 0..8 {
                    for (x, o) in out[y * 8..y * 8 + 8].iter_mut().enumerate() {
                        *o = self.src.cr.get(px / 2 + x, py / 2 + y) as i32;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coding_order_simple_gop() {
        // GOP of 7 display frames, 2 B-frames between references.
        let order = coding_order(0, 7, 2);
        assert_eq!(
            order,
            vec![
                (0, PictureKind::I),
                (3, PictureKind::P),
                (1, PictureKind::B),
                (2, PictureKind::B),
                (6, PictureKind::P),
                (4, PictureKind::B),
                (5, PictureKind::B),
            ]
        );
    }

    #[test]
    fn coding_order_covers_every_frame_exactly_once() {
        for (start, end, b) in [(0, 1, 0), (0, 12, 2), (5, 17, 3), (0, 10, 4), (3, 4, 2)] {
            let order = coding_order(start, end, b);
            let mut seen: Vec<usize> = order.iter().map(|(d, _)| *d).collect();
            seen.sort_unstable();
            assert_eq!(
                seen,
                (start..end).collect::<Vec<_>>(),
                "{start}..{end} b={b}"
            );
            assert_eq!(order[0].1, PictureKind::I);
        }
    }

    #[test]
    fn coding_order_without_b_frames_is_sequential_after_i() {
        let order = coding_order(0, 4, 0);
        assert_eq!(
            order,
            vec![
                (0, PictureKind::I),
                (1, PictureKind::P),
                (2, PictureKind::P),
                (3, PictureKind::P),
            ]
        );
    }

    #[test]
    fn config_validation() {
        assert!(Encoder::new(EncoderConfig::for_size(320, 240)).is_ok());
        assert!(Encoder::new(EncoderConfig::for_size(321, 240)).is_err());
        assert!(Encoder::new(EncoderConfig::for_size(0, 0)).is_err());
        assert!(Encoder::new(EncoderConfig::for_size(4112, 240)).is_err());
        assert!(Encoder::new(EncoderConfig::for_size(320, 2816)).is_err());
        let mut cfg = EncoderConfig::for_size(320, 240);
        cfg.qscale = 0;
        assert!(Encoder::new(cfg).is_err());
    }

    #[test]
    fn rejects_mismatched_frame_sizes() {
        let enc = Encoder::new(EncoderConfig::for_size(32, 32)).unwrap();
        let frames = vec![Frame::black(48, 32)];
        assert!(enc.encode(&frames).is_err());
        assert!(enc.encode(&[]).is_err());
    }
}
