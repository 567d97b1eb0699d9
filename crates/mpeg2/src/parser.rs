//! The splitter's parse-only pass.
//!
//! A second-level splitter must know, for every macroblock of a picture:
//! its exact bit span (to byte-copy partial slices into sub-pictures), the
//! predictor state at its entry (to build SPH headers), and its motion
//! vectors (to pre-calculate the MEI exchange instructions). This module
//! walks a picture's VLC with the shared slice machinery but performs no
//! dequantisation, IDCT or motion compensation — the defining cost
//! asymmetry of the paper: splitting is *parsing*, decoding is parsing
//! *plus* reconstruction.

use tiledec_bitstream::{BitReader, StartCode, StartCodeScanner};

use crate::block::Discard;
use crate::headers;
use crate::slice::{parse_slice, MbMeta, MbMotion, SliceContext, SliceVisitor};
use crate::types::{PictureInfo, SequenceInfo};
use crate::{Error, Result};

/// A run of skipped macroblocks inside a slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkipRun {
    /// Address of the first skipped macroblock.
    pub start_addr: u32,
    /// Number of skipped macroblocks.
    pub count: u32,
    /// Prediction used to reconstruct them.
    pub motion: MbMotion,
}

/// One parsed slice: coded macroblock metadata plus skip runs.
#[derive(Debug, Clone)]
pub struct ParsedSlice {
    /// Macroblock row of the slice.
    pub row: u32,
    /// Coded macroblocks in stream order (coefficients discarded).
    pub mbs: Vec<MbMeta>,
    /// Skipped runs in stream order.
    pub skips: Vec<SkipRun>,
    /// Byte offset of the slice start code within the picture unit.
    pub start_code_offset: usize,
}

/// A fully parsed picture unit.
#[derive(Debug, Clone)]
pub struct ParsedPicture {
    /// Picture header + coding extension.
    pub info: PictureInfo,
    /// Slices in stream order.
    pub slices: Vec<ParsedSlice>,
    /// Total size of the picture unit in bytes.
    pub byte_len: usize,
}

impl ParsedPicture {
    /// Total number of coded macroblocks.
    pub fn coded_mb_count(&self) -> usize {
        self.slices.iter().map(|s| s.mbs.len()).sum()
    }

    /// Total number of skipped macroblocks.
    pub fn skipped_mb_count(&self) -> u32 {
        self.slices
            .iter()
            .flat_map(|s| &s.skips)
            .map(|k| k.count)
            .sum()
    }
}

struct RecordingVisitor {
    mbs: Vec<MbMeta>,
    skips: Vec<SkipRun>,
}

impl SliceVisitor for RecordingVisitor {
    type Coeffs = Discard;

    fn skipped(
        &mut self,
        _ctx: &SliceContext<'_>,
        start_addr: u32,
        count: u32,
        motion: &MbMotion,
    ) -> Result<()> {
        self.skips.push(SkipRun {
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
        _coeffs: &mut Discard,
    ) -> Result<()> {
        self.mbs.push(meta.clone());
        Ok(())
    }
}

/// Parses one picture unit (picture start code through the end of its last
/// slice) without reconstruction.
pub fn parse_picture(data: &[u8], seq: &SequenceInfo) -> Result<ParsedPicture> {
    let mut scanner = StartCodeScanner::new(data);
    let mut info: Option<PictureInfo> = None;
    let mut ext = false;
    let mut slices = Vec::new();
    while let Some(code) = scanner.next_code() {
        let mut r = BitReader::at(data, (code.offset + 4) * 8);
        match code.code {
            StartCode::PICTURE => {
                if info.is_some() {
                    return Err(Error::Syntax("two picture headers in one unit".into()));
                }
                info = Some(headers::parse_picture_header(&mut r)?);
            }
            StartCode::EXTENSION => {
                let id = r.read_bits(4)?;
                if id == headers::EXT_ID_PICTURE_CODING {
                    let info = info
                        .as_mut()
                        .ok_or_else(|| Error::Syntax("extension before picture header".into()))?;
                    headers::parse_picture_coding_extension(&mut r, info)?;
                    ext = true;
                }
            }
            StartCode::USER_DATA => {}
            c if (StartCode::SLICE_MIN..=StartCode::SLICE_MAX).contains(&c) => {
                let info = info
                    .as_ref()
                    .ok_or_else(|| Error::Syntax("slice before picture header".into()))?;
                if !ext {
                    return Err(Error::Syntax(
                        "slice before picture coding extension".into(),
                    ));
                }
                let ctx = SliceContext { seq, pic: info };
                let mut v = RecordingVisitor {
                    mbs: Vec::new(),
                    skips: Vec::new(),
                };
                parse_slice(&mut r, &ctx, (c - 1) as u32, &mut v, &mut Discard)?;
                slices.push(ParsedSlice {
                    row: (c - 1) as u32,
                    mbs: v.mbs,
                    skips: v.skips,
                    start_code_offset: code.offset,
                });
            }
            other => {
                return Err(Error::Syntax(format!(
                    "unexpected start code {other:#04x} inside picture unit"
                )));
            }
        }
    }
    let info = info.ok_or_else(|| Error::Syntax("no picture header in unit".into()))?;
    Ok(ParsedPicture {
        info,
        slices,
        byte_len: data.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_empty_unit() {
        let seq = SequenceInfo {
            width: 64,
            height: 64,
            frame_rate_code: 5,
            bit_rate_400: 0,
            intra_quant_matrix: [16; 64],
            non_intra_quant_matrix: [16; 64],
        };
        assert!(parse_picture(&[], &seq).is_err());
        assert!(parse_picture(&[0, 0, 1, 0xB3], &seq).is_err());
    }

    // Behavioural coverage (bit spans, entry states, motion) lives in the
    // round-trip tests of `tests/roundtrip.rs`, which parse pictures the
    // encoder produced.
}
