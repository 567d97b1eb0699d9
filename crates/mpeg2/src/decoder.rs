//! The sequential reference decoder.
//!
//! This is the correctness oracle for the whole workspace: every parallel
//! configuration must reproduce its output *bit exactly* (all decoders
//! share the same integer IDCT and reconstruction path).

use tiledec_bitstream::{BitReader, StartCode, StartCodeScanner};

use crate::block::MbCoeffs;
use crate::frame::{Frame, FramePool};
use crate::headers;
use crate::motion::FrameRefs;
use crate::recon::{Covered, FrameSink, MbCoverage, Reconstructor};
use crate::slice::{parse_slice, SliceContext};
use crate::types::{PictureInfo, PictureKind, SequenceInfo};
use crate::{Error, Result};

/// Summary of a decoded stream.
#[derive(Debug, Clone)]
pub struct StreamSummary {
    /// Sequence parameters.
    pub seq: SequenceInfo,
    /// Number of pictures decoded.
    pub pictures: usize,
}

/// Streaming decoder state. Frames are delivered in **display order**
/// through the sink callback; reference frames are the only pictures kept
/// in memory, and a frame that leaves the reference window (or a B frame
/// once displayed) is recycled for the next picture, so at most three
/// picture buffers ever exist, live or pooled.
pub struct Decoder {
    seq: Option<SequenceInfo>,
    prev_ref: Option<Frame>,
    next_ref: Option<Frame>,
    /// (info, frame, coding-extension parsed, any slice decoded)
    current: Option<(PictureInfo, Frame, bool, bool)>,
    pictures: usize,
    pool: FramePool,
    /// Which macroblocks of `current` its slices have written so far.
    coverage: MbCoverage,
    coeffs: MbCoeffs,
}

impl Default for Decoder {
    fn default() -> Self {
        Self::new()
    }
}

impl Decoder {
    /// Creates a fresh decoder.
    pub fn new() -> Self {
        Decoder {
            seq: None,
            prev_ref: None,
            next_ref: None,
            current: None,
            pictures: 0,
            pool: FramePool::new(),
            coverage: MbCoverage::default(),
            coeffs: MbCoeffs::default(),
        }
    }

    /// Decodes a whole elementary stream, invoking `on_frame` for every
    /// picture in display order.
    pub fn decode_stream(
        &mut self,
        data: &[u8],
        mut on_frame: impl FnMut(&Frame, &PictureInfo),
    ) -> Result<StreamSummary> {
        let mut scanner = StartCodeScanner::new(data);
        while let Some(code) = scanner.next_code() {
            let mut r = BitReader::at(data, (code.offset + 4) * 8);
            match code.code {
                StartCode::SEQUENCE_HEADER => {
                    self.finish_picture(&mut on_frame)?;
                    self.seq = Some(headers::parse_sequence_header(&mut r)?);
                }
                StartCode::EXTENSION => {
                    let id = r.read_bits(4)?;
                    if id == headers::EXT_ID_SEQUENCE {
                        let seq = self.seq.as_mut().ok_or_else(|| {
                            Error::Syntax("sequence extension before header".into())
                        })?;
                        headers::parse_sequence_extension(&mut r, seq)?;
                    } else if id == headers::EXT_ID_PICTURE_CODING {
                        let (info, _, ext, _) = self.current.as_mut().ok_or_else(|| {
                            Error::Syntax("picture coding extension without picture".into())
                        })?;
                        headers::parse_picture_coding_extension(&mut r, info)?;
                        *ext = true;
                    }
                    // Other extensions (display, quant matrix, …) are skipped.
                }
                StartCode::GROUP => {
                    self.finish_picture(&mut on_frame)?;
                    let _gop = headers::parse_gop_header(&mut r)?;
                }
                StartCode::PICTURE => {
                    self.finish_picture(&mut on_frame)?;
                    let seq = self
                        .seq
                        .as_ref()
                        .ok_or_else(|| Error::Syntax("picture before sequence header".into()))?;
                    let info = headers::parse_picture_header(&mut r)?;
                    let (mbw, mbh) = (seq.mb_width(), seq.mb_height());
                    let frame = self
                        .pool
                        .acquire_stale(mbw as usize * 16, mbh as usize * 16);
                    self.coverage.begin(0, 0, mbw, mbh);
                    self.current = Some((info, frame, false, false));
                }
                StartCode::SEQUENCE_END => {
                    self.finish_picture(&mut on_frame)?;
                }
                StartCode::USER_DATA => {}
                c if StartCode { offset: 0, code: c }.is_slice() => {
                    self.decode_slice_code(&mut r, c)?;
                }
                other => {
                    return Err(Error::Syntax(format!("unexpected start code {other:#04x}")));
                }
            }
        }
        self.finish_picture(&mut on_frame)?;
        // No picture follows, so no buffer is worth keeping: a sink that
        // collects frames peaks in memory at the flush below.
        self.pool = FramePool::new();
        // Flush the last held reference frame.
        if let Some(last) = self.next_ref.take() {
            // Its PictureInfo is gone; synthesise a minimal one for the sink.
            on_frame(&last, &flush_picture_info());
        }
        let seq = self
            .seq
            .clone()
            .ok_or_else(|| Error::Syntax("no sequence header in stream".into()))?;
        Ok(StreamSummary {
            seq,
            pictures: self.pictures,
        })
    }

    fn decode_slice_code(&mut self, r: &mut BitReader<'_>, code: u8) -> Result<()> {
        let seq = self
            .seq
            .as_ref()
            .ok_or_else(|| Error::Syntax("slice before sequence header".into()))?;
        // Take the picture out of `self` so reference borrows stay disjoint.
        let mut cur = self
            .current
            .take()
            .ok_or_else(|| Error::Syntax("slice before picture header".into()))?;
        let result = (|| {
            let (info, frame, ext, any_slice) = (&cur.0, &mut cur.1, cur.2, &mut cur.3);
            if !ext {
                return Err(Error::Syntax(
                    "slice before picture coding extension".into(),
                ));
            }
            let (fwd, bwd) = match (info.kind, &self.prev_ref, &self.next_ref) {
                (PictureKind::I, _, _) => (Frame::placeholder(), Frame::placeholder()),
                (PictureKind::P, _, Some(f)) => (f, f),
                (PictureKind::B, Some(f), Some(b)) => (f, b),
                (PictureKind::P, ..) => {
                    return Err(Error::Syntax("P picture without a reference".into()))
                }
                (PictureKind::B, ..) => {
                    return Err(Error::Syntax("B picture without two references".into()))
                }
            };
            let refs = FrameRefs { fwd, bwd };
            let mut sink = Covered {
                sink: FrameSink { frame },
                coverage: &mut self.coverage,
            };
            let mut recon = Reconstructor {
                refs: &refs,
                sink: &mut sink,
            };
            let ctx = SliceContext { seq, pic: info };
            parse_slice(r, &ctx, (code - 1) as u32, &mut recon, &mut self.coeffs)?;
            *any_slice = true;
            Ok(())
        })();
        self.current = Some(cur);
        result
    }

    /// Completes the picture being decoded (if any) and emits frames that
    /// become displayable.
    fn finish_picture(&mut self, on_frame: &mut impl FnMut(&Frame, &PictureInfo)) -> Result<()> {
        let Some((info, mut frame, _, any_slice)) = self.current.take() else {
            return Ok(());
        };
        if !any_slice {
            return Err(Error::Syntax("picture contained no slices".into()));
        }
        // The frame came out of the pool stale: rows no slice coded read
        // zero, not the picture before last.
        self.coverage.finish(&mut FrameSink { frame: &mut frame });
        self.pictures += 1;
        match info.kind {
            PictureKind::B => {
                on_frame(&frame, &info);
                self.pool.release(frame);
            }
            _ => {
                // A new reference releases the previously held one for
                // display; the released frame stays around as the forward
                // reference for upcoming B pictures, and the one it
                // displaces becomes the next picture's buffer.
                if let Some(released) = self.next_ref.take() {
                    on_frame(&released, &info);
                    if let Some(retired) = self.prev_ref.replace(released) {
                        self.pool.release(retired);
                    }
                }
                self.next_ref = Some(frame);
            }
        }
        Ok(())
    }
}

/// The synthesised [`PictureInfo`] handed to the frame sink when the last
/// held reference frame is flushed at end of stream (its real header info
/// was consumed when it finished decoding). Public so alternative stream
/// drivers — `tiledec-core`'s pipelined decoder — can replicate the
/// sequential emission contract bit for bit.
pub fn flush_picture_info() -> PictureInfo {
    PictureInfo::new(PictureKind::P, 0, [[15, 15], [15, 15]])
}

/// Decodes a whole stream into display-order frames. Convenience wrapper
/// for tests and examples; large streams should prefer
/// [`Decoder::decode_stream`] which never holds more than the reference
/// frames.
pub fn decode_all(data: &[u8]) -> Result<Vec<Frame>> {
    let mut frames = Vec::new();
    Decoder::new().decode_stream(data, |f, _| frames.push(f.clone()))?;
    Ok(frames)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream_is_an_error() {
        assert!(decode_all(&[]).is_err());
    }

    #[test]
    fn garbage_stream_is_an_error() {
        let data = vec![0x12u8, 0x34, 0x56, 0x78];
        assert!(decode_all(&data).is_err());
    }

    #[test]
    fn slice_before_sequence_rejected() {
        let data = [0x00, 0x00, 0x01, 0x01, 0xFF, 0xFF];
        assert!(matches!(decode_all(&data), Err(Error::Syntax(_))));
    }

    /// A pool full of `0xA5` frames changes no output byte: what a picture
    /// writes overwrites the garbage, what it does not write — here a slice
    /// cut out of every picture — is zeroed when the picture ends.
    #[test]
    fn stale_pool_frames_do_not_show_in_the_output() {
        use crate::encoder::{Encoder, EncoderConfig};
        let (w, h) = (64usize, 48usize);
        let clip: Vec<Frame> = (0..6)
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
        // Drop the second slice row of every picture.
        let codes: Vec<StartCode> = {
            let mut scanner = StartCodeScanner::new(&clean);
            std::iter::from_fn(|| scanner.next_code()).collect()
        };
        let mut stream = Vec::new();
        for (i, c) in codes.iter().enumerate() {
            let end = codes.get(i + 1).map_or(clean.len(), |n| n.offset);
            if c.code != 2 {
                stream.extend_from_slice(&clean[c.offset..end]);
            }
        }

        let decode = |dec: &mut Decoder| {
            let mut frames = Vec::new();
            dec.decode_stream(&stream, |f, _| frames.push(f.clone()))
                .expect("missing slices are legal");
            frames
        };
        let fresh = decode(&mut Decoder::new());
        assert_eq!(fresh.len(), clip.len());
        for f in &fresh {
            assert!(f.y.row(16).iter().all(|&v| v == 0), "the cut row is zero");
            assert!(f.y.row(15).iter().any(|&v| v != 0), "its neighbour is not");
        }
        let mut stale = Decoder::new();
        for _ in 0..4 {
            let mut garbage = Frame::zeroed(w, h);
            for plane in [&mut garbage.y, &mut garbage.cb, &mut garbage.cr] {
                plane.fill(0xA5);
            }
            stale.pool.release(garbage);
        }
        assert!(decode(&mut stale) == fresh);
    }

    // Full round-trip coverage lives in the encoder tests and the
    // integration suite, where streams are produced by the encoder.
}
