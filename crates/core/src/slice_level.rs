//! An executable slice-level parallel decoder — Table 1's middle option.
//!
//! Slices have byte-aligned start codes, so a slice-level splitter only
//! scans: it groups each picture's slice rows into horizontal *bands*, one
//! per decoder. The price appears downstream:
//!
//! * a band decoder's motion vectors reach into neighbouring bands, and —
//!   without the macroblock-level parse — nothing can pre-compute those
//!   needs, so reference rows are fetched from peers **on demand** (the
//!   blocking pattern §4.2's MEI design eliminates);
//! * a band spans the full picture width but is displayed by `m` tiles, so
//!   `(m−1)/m` of every decoded pixel still has to move for display.
//!
//! The implementation executes in-process: band decoders share reference
//! frames through a fetch-accounting layer that records every remote
//! 16-pixel-row fetch, giving Table 1 measured inter-decoder traffic
//! rather than an estimate. Output is verified bit-exact with the
//! sequential decoder.

use std::cell::RefCell;

use tiledec_bitstream::{BitReader, StartCode, StartCodeScanner};
use tiledec_cluster::stats::TrafficMatrix;
use tiledec_mpeg2::block::MbCoeffs;
use tiledec_mpeg2::frame::Frame;
use tiledec_mpeg2::headers;
use tiledec_mpeg2::motion::{PlanePick, RefPick, ReferenceFetcher};
use tiledec_mpeg2::recon::{FrameSink, Reconstructor};
use tiledec_mpeg2::slice::{parse_slice, SliceContext};
use tiledec_mpeg2::types::{PictureInfo, PictureKind};

use crate::splitter::split_picture_units;
use crate::{CoreError, Result};

/// Result of a slice-level parallel run.
pub struct SliceLevelResult {
    /// Decoded frames in display order (bit-exact with sequential decode).
    pub frames: Vec<Frame>,
    /// Remote-fetch traffic between band decoders, plus the display
    /// redistribution, in a `[root, band 0 .. band b-1]` layout.
    pub traffic: TrafficMatrix,
    /// Number of horizontal bands (decoders).
    pub bands: usize,
}

/// Fetch-accounting reference source: every luma row segment that lives in
/// another decoder's band is charged as inter-decoder traffic.
struct BandRefs<'a> {
    fwd: &'a Frame,
    bwd: &'a Frame,
    /// Band row boundaries in luma pixels: band i owns `[bounds[i], bounds[i+1])`.
    bounds: &'a [u32],
    /// The band doing the fetching (traffic node `1 + band`).
    band: usize,
    traffic: &'a TrafficMatrix,
    remote_bytes: &'a RefCell<u64>,
}

impl BandRefs<'_> {
    fn band_of_luma_row(&self, y: usize) -> usize {
        match self.bounds.binary_search(&(y as u32)) {
            Ok(i) => i.min(self.bounds.len() - 2),
            Err(i) => i - 1,
        }
    }
}

impl ReferenceFetcher for BandRefs<'_> {
    fn fetch(
        &self,
        which: RefPick,
        plane: PlanePick,
        x0: i32,
        y0: i32,
        w: usize,
        h: usize,
        out: &mut [u8],
    ) {
        let frame = match which {
            RefPick::Forward => self.fwd,
            RefPick::Backward => self.bwd,
        };
        let (p, luma_scale) = match plane {
            PlanePick::Y => (&frame.y, 1),
            PlanePick::Cb => (&frame.cb, 2),
            PlanePick::Cr => (&frame.cr, 2),
        };
        let cy = y0.clamp(0, (p.height() - h) as i32) as usize;
        for row in 0..h {
            let luma_y = (cy + row) * luma_scale;
            let owner = self.band_of_luma_row(luma_y);
            if owner != self.band {
                // Demand fetch: charge the row segment owner -> us.
                self.traffic.record(1 + owner, 1 + self.band, w as u64);
                *self.remote_bytes.borrow_mut() += w as u64;
            }
        }
        p.fetch_clamped(x0, y0, w, h, out);
    }
}

/// Runs the slice-level baseline under
/// [`ErrorPolicy::Resilient`](tiledec_mpeg2::ErrorPolicy::Resilient):
/// strict first, and on any decode error a deterministic
/// [`tiledec_mpeg2::repair_stream`] pass followed by a strict rerun over
/// the repaired bytes. Configuration errors (`bands == 0`) are reported
/// as such, never "repaired".
pub fn run_slice_level_resilient(
    stream: &[u8],
    bands: usize,
    display_columns: u32,
) -> Result<(SliceLevelResult, tiledec_mpeg2::StreamDamage)> {
    if bands == 0 {
        return Err(CoreError::Config("need at least one band".into()));
    }
    match run_slice_level(stream, bands, display_columns) {
        Ok(r) => Ok((r, tiledec_mpeg2::StreamDamage::clean())),
        Err(_) => {
            let repaired = tiledec_mpeg2::repair_stream(stream).map_err(CoreError::Codec)?;
            let mut result =
                run_slice_level(&repaired.bytes, bands, display_columns).map_err(|e| {
                    CoreError::Codec(tiledec_mpeg2::Error::Syntax(format!(
                        "repair invariant violated: {e}"
                    )))
                })?;
            tiledec_mpeg2::apply_display_patches(&mut result.frames, &repaired.patches);
            Ok((result, repaired.damage))
        }
    }
}

/// Runs the slice-level baseline with `bands` horizontal bands on an
/// `m`-column display wall (the column count only affects the
/// redistribution accounting).
pub fn run_slice_level(
    stream: &[u8],
    bands: usize,
    display_columns: u32,
) -> Result<SliceLevelResult> {
    if bands == 0 {
        return Err(CoreError::Config("need at least one band".into()));
    }
    let index = split_picture_units(stream)?;
    let seq = index.seq.clone();
    let mbh = seq.mb_height();
    let traffic = TrafficMatrix::new(1 + bands);

    // Band boundaries: contiguous runs of macroblock rows.
    let rows_per_band = mbh.div_ceil(bands as u32);
    let mut bounds: Vec<u32> = (0..=bands as u32)
        .map(|i| (i * rows_per_band * 16).min(seq.height))
        .collect();
    // Guard degenerate empty trailing bands.
    for i in 1..bounds.len() {
        if bounds[i] < bounds[i - 1] {
            bounds[i] = bounds[i - 1];
        }
    }

    let mut prev_ref: Option<Frame> = None;
    let mut next_ref: Option<Frame> = None;
    let mut out_frames: Vec<Frame> = Vec::new();
    let frame_w = seq.mb_width() as usize * 16;
    let frame_h = mbh as usize * 16;
    let mut coeffs = MbCoeffs::default();

    for &(start, end) in &index.units {
        let unit = &stream[start..end];
        // "Split": route each slice to its band by start-code row — this is
        // the whole splitting cost at this level.
        let mut info: Option<PictureInfo> = None;
        let mut slices: Vec<(u8, usize)> = Vec::new(); // (code, offset)
        let mut scanner = StartCodeScanner::new(unit);
        while let Some(code) = scanner.next_code() {
            match code.code {
                StartCode::PICTURE => {
                    let mut r = BitReader::at(unit, (code.offset + 4) * 8);
                    info = Some(headers::parse_picture_header(&mut r)?);
                }
                StartCode::EXTENSION => {
                    let mut r = BitReader::at(unit, (code.offset + 4) * 8);
                    let id = r.read_bits(4).map_err(tiledec_mpeg2::Error::from)?;
                    if id == headers::EXT_ID_PICTURE_CODING {
                        if let Some(info) = info.as_mut() {
                            headers::parse_picture_coding_extension(&mut r, info)?;
                        }
                    }
                }
                c if (StartCode::SLICE_MIN..=StartCode::SLICE_MAX).contains(&c) => {
                    slices.push((c, code.offset));
                }
                _ => {}
            }
        }
        let info = info.ok_or_else(|| CoreError::Protocol("unit without picture header".into()))?;
        // Root ships each band its slices (compressed bytes).
        for &(c, off) in &slices {
            let row = (c - 1) as u32;
            let band = ((row / rows_per_band) as usize).min(bands - 1);
            let next_off = slices
                .iter()
                .find(|&&(_, o)| o > off)
                .map(|&(_, o)| o)
                .unwrap_or(unit.len());
            traffic.record(0, 1 + band, (next_off - off) as u64);
        }

        // Decode bands (in-process; each band's slices through a
        // fetch-accounting reconstructor writing one shared frame).
        let mut current = Frame::zeroed(frame_w, frame_h);
        {
            let placeholder = Frame::placeholder();
            let (fwd, bwd): (&Frame, &Frame) = match info.kind {
                PictureKind::I => (placeholder, placeholder),
                PictureKind::P => {
                    let f = next_ref
                        .as_ref()
                        .ok_or_else(|| CoreError::Protocol("P picture without reference".into()))?;
                    (f, f)
                }
                PictureKind::B => (
                    prev_ref.as_ref().ok_or_else(|| {
                        CoreError::Protocol("B picture without references".into())
                    })?,
                    next_ref.as_ref().ok_or_else(|| {
                        CoreError::Protocol("B picture without references".into())
                    })?,
                ),
            };
            let ctx = SliceContext {
                seq: &seq,
                pic: &info,
            };
            for &(c, off) in &slices {
                let row = (c - 1) as u32;
                let band = ((row / rows_per_band) as usize).min(bands - 1);
                let remote = RefCell::new(0u64);
                let refs = BandRefs {
                    fwd,
                    bwd,
                    bounds: &bounds,
                    band,
                    traffic: &traffic,
                    remote_bytes: &remote,
                };
                let mut sink = FrameSink {
                    frame: &mut current,
                };
                let mut recon = Reconstructor {
                    refs: &refs,
                    sink: &mut sink,
                };
                let mut r = BitReader::at(unit, (off + 4) * 8);
                parse_slice(&mut r, &ctx, row, &mut recon, &mut coeffs)?;
            }
        }

        // Display redistribution: each band is shown by `display_columns`
        // tiles; (m-1)/m of its pixels leave the decoding node.
        for band in 0..bands {
            let band_h = (bounds[band + 1] - bounds[band]) as u64;
            let band_pixels = band_h * frame_w as u64 * 3 / 2;
            let moved = band_pixels * (display_columns as u64 - 1) / display_columns.max(1) as u64;
            // Charged as an aggregate outflow back through the root node
            // (display fabric), keeping the matrix square and simple.
            traffic.record(1 + band, 0, moved);
        }

        // Display-order reordering, as in the sequential decoder.
        match info.kind {
            PictureKind::B => out_frames.push(current),
            _ => {
                if let Some(released) = next_ref.take() {
                    out_frames.push(released.clone());
                    prev_ref = Some(released);
                }
                next_ref = Some(current);
            }
        }
    }
    if let Some(last) = next_ref.take() {
        out_frames.push(last);
    }
    Ok(SliceLevelResult {
        frames: out_frames,
        traffic,
        bands,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_bands() {
        assert!(run_slice_level(&[0, 0, 1, 0xB3], 0, 2).is_err());
    }

    // Correctness + traffic behaviour are exercised in tests/parallel.rs
    // with encoder-produced streams.
}
