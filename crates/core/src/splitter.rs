//! The two splitting levels.
//!
//! [`split_picture_units`] is the root splitter's whole job: scan for
//! byte-aligned start codes, cut the stream into per-picture units. Its
//! cost is O(bytes scanned) with no bit-level parsing — the "very low"
//! splitting cost of picture-level parallelism (Table 1 of the paper).
//!
//! [`MacroblockSplitter`] is a second-level splitter: it runs the
//! parse-only pass over a picture unit, sorts macroblocks into per-tile
//! sub-pictures (byte-copied partial slices behind SPH headers, §4.3) and
//! pre-computes the MEI exchange instructions from the motion-vector
//! footprints that cross tile boundaries (§4.2).

use tiledec_bitstream::{StartCode, StartCodeScanner};
use tiledec_mpeg2::parser::{parse_picture, ParsedSlice};
use tiledec_mpeg2::slice::MbMotion;
use tiledec_mpeg2::types::{MotionVector, PictureInfo, PictureKind, SequenceInfo};
use tiledec_wall::WallGeometry;

use crate::mei::{build_mei, MeiBuffer, RefSlot};
use crate::subpicture::{PartialSlice, SubPicture, NO_CODED};
use crate::{CoreError, Result};

/// Stream-level information plus the byte ranges of all picture units.
#[derive(Debug, Clone)]
pub struct StreamIndex {
    /// Sequence parameters (from the sequence header + extension).
    pub seq: SequenceInfo,
    /// `(start, end)` byte ranges of each picture unit, in coding order.
    pub units: Vec<(usize, usize)>,
}

/// Root splitter: indexes a stream into picture units by start-code
/// scanning alone.
pub fn split_picture_units(stream: &[u8]) -> Result<StreamIndex> {
    let mut scanner = StartCodeScanner::new(stream);
    let mut seq: Option<SequenceInfo> = None;
    let mut units = Vec::new();
    let mut current: Option<usize> = None;
    while let Some(code) = scanner.next_code() {
        match code.code {
            StartCode::SEQUENCE_HEADER => {
                let mut r = tiledec_bitstream::BitReader::at(stream, (code.offset + 4) * 8);
                let si = tiledec_mpeg2::headers::parse_sequence_header(&mut r)?;
                seq = Some(si);
            }
            StartCode::EXTENSION => {
                let mut r = tiledec_bitstream::BitReader::at(stream, (code.offset + 4) * 8);
                let id = r.read_bits(4).map_err(tiledec_mpeg2::Error::from)?;
                if id == tiledec_mpeg2::headers::EXT_ID_SEQUENCE {
                    if let Some(seq) = seq.as_mut() {
                        tiledec_mpeg2::headers::parse_sequence_extension(&mut r, seq)?;
                    }
                }
            }
            StartCode::PICTURE => {
                if let Some(s) = current.take() {
                    units.push((s, code.offset));
                }
                current = Some(code.offset);
            }
            StartCode::GROUP | StartCode::SEQUENCE_END => {
                if let Some(s) = current.take() {
                    units.push((s, code.offset));
                }
            }
            _ => {}
        }
    }
    if let Some(s) = current.take() {
        units.push((s, stream.len()));
    }
    let seq = seq.ok_or_else(|| CoreError::Protocol("stream has no sequence header".into()))?;
    Ok(StreamIndex { seq, units })
}

/// Split statistics for one picture.
#[derive(Debug, Clone, Default)]
pub struct SplitStats {
    /// Coded macroblocks in the picture.
    pub coded_mbs: usize,
    /// Skipped macroblocks in the picture.
    pub skipped_mbs: usize,
    /// Macroblock-to-tile assignments beyond one per macroblock (overlap
    /// duplication overhead).
    pub duplicated_assignments: usize,
    /// Total MEI instructions emitted (SEND+RECV).
    pub mei_instructions: usize,
    /// Sum of serialised sub-picture bytes across tiles.
    pub subpicture_bytes: usize,
    /// Bytes of SPH headers and duplication overhead beyond the original
    /// picture unit size.
    pub overhead_bytes: isize,
}

/// Everything a splitter produces for one picture.
#[derive(Debug, Clone)]
pub struct SplitOutput {
    /// Picture-level parameters.
    pub info: PictureInfo,
    /// One sub-picture per tile (row-major tile order).
    pub subpictures: Vec<SubPicture>,
    /// One MEI buffer per tile.
    pub mei: Vec<MeiBuffer>,
    /// Statistics.
    pub stats: SplitStats,
}

/// A second-level (macroblock) splitter.
#[derive(Debug, Clone, Hash)]
pub struct MacroblockSplitter {
    geom: WallGeometry,
    seq: SequenceInfo,
    /// Per tile: inclusive macroblock column/row intervals.
    tile_cols: Vec<(u32, u32)>,
    tile_rows: Vec<(u32, u32)>,
}

impl MacroblockSplitter {
    /// Creates a splitter for a wall geometry and stream.
    pub fn new(geom: WallGeometry, seq: SequenceInfo) -> Self {
        let tile_cols = geom
            .iter_tiles()
            .map(|t| {
                let r = geom.tile_mb_rect(t);
                (*r.mb_cols().start(), *r.mb_cols().end())
            })
            .collect();
        let tile_rows = geom
            .iter_tiles()
            .map(|t| {
                let r = geom.tile_mb_rect(t);
                (*r.mb_rows().start(), *r.mb_rows().end())
            })
            .collect();
        MacroblockSplitter {
            geom,
            seq,
            tile_cols,
            tile_rows,
        }
    }

    /// The wall geometry.
    pub fn geometry(&self) -> &WallGeometry {
        &self.geom
    }

    /// Splits one picture unit into per-tile sub-pictures and MEI buffers.
    pub fn split(&self, picture_id: u32, unit: &[u8]) -> Result<SplitOutput> {
        let parsed = parse_picture(unit, &self.seq)?;
        let tiles = self.geom.tiles() as usize;
        // One run per slice row intersecting the tile, so the tile's
        // macroblock-row count is the exact steady-state capacity.
        let mut subpictures: Vec<SubPicture> = self
            .geom
            .iter_tiles()
            .map(|t| SubPicture {
                picture_id,
                info: parsed.info.clone(),
                runs: Vec::with_capacity((self.geom.tile_mb_rect(t).h / 16) as usize),
            })
            .collect();
        let mut needs: Vec<Vec<(u16, u16, RefSlot, u16)>> = vec![Vec::new(); tiles];
        let mut stats = SplitStats {
            coded_mbs: parsed.coded_mb_count(),
            skipped_mbs: parsed.skipped_mb_count() as usize,
            ..Default::default()
        };

        for slice in &parsed.slices {
            #[allow(clippy::needless_range_loop)] // tile indexes three parallel arrays
            for tile in 0..tiles {
                let (r0, r1) = self.tile_rows[tile];
                if slice.row < r0 || slice.row > r1 {
                    continue;
                }
                if let Some(run) = self.build_run(slice, tile, unit) {
                    subpictures[tile].runs.push(run);
                }
            }
            self.collect_needs(slice, &parsed.info, &mut needs, &mut stats)?;
        }

        let mei = if parsed.info.kind == PictureKind::I {
            vec![MeiBuffer::new(); tiles]
        } else {
            build_mei(tiles, &needs)
        };
        stats.mei_instructions = mei.iter().map(|b| b.instructions.len()).sum();
        stats.subpicture_bytes = subpictures.iter().map(|s| s.wire_len()).sum();
        stats.overhead_bytes = stats.subpicture_bytes as isize - unit.len() as isize;
        Ok(SplitOutput {
            info: parsed.info.clone(),
            subpictures,
            mei,
            stats,
        })
    }

    /// Builds the (at most one) partial-slice run of `tile` within a
    /// slice.
    fn build_run(&self, slice: &ParsedSlice, tile: usize, unit: &[u8]) -> Option<PartialSlice> {
        let (c0, c1) = self.tile_cols[tile];

        // Coded macroblocks inside the tile's column interval form a
        // contiguous subsequence (x is strictly increasing in a slice).
        let first = slice.mbs.iter().position(|m| m.x >= c0 && m.x <= c1);
        let coded: &[_] = match first {
            Some(i) => {
                let j = slice.mbs[i..].iter().take_while(|m| m.x <= c1).count();
                &slice.mbs[i..i + j]
            }
            None => &[],
        };

        // Skip-run portions at the run boundaries. A skip run between two
        // in-tile coded macroblocks is reproduced by the copied payload
        // itself and must not be double-counted here.
        let mut skipped_before = 0u16;
        let mut skip_start_col = 0u16;
        let mut skip_motion = None;
        let mut skipped_after = 0u16;
        let row_base = slice.row * self.geom.mb_dims().0;
        for sk in &slice.skips {
            let s_col = sk.start_addr - row_base;
            let e_col = s_col + sk.count; // exclusive
            let lo = s_col.max(c0);
            let hi = e_col.min(c1 + 1);
            if lo >= hi {
                continue; // no overlap with the tile interval
            }
            let within = (hi - lo) as u16;
            match coded {
                [] => {
                    // Zero-coded run: at most one skip run can overlap.
                    debug_assert_eq!(skipped_before, 0, "two skip runs in a zero-coded tile run");
                    skipped_before = within;
                    skip_start_col = lo as u16;
                    skip_motion = Some(sk.motion);
                }
                [first_coded, ..] if e_col <= first_coded.x => {
                    skipped_before = within;
                    skip_start_col = lo as u16;
                    skip_motion = Some(sk.motion);
                }
                [.., last_coded] if s_col > last_coded.x => {
                    skipped_after += within;
                }
                _ => {
                    // Interior skip run: covered by the payload increments.
                }
            }
        }

        if coded.is_empty() && skipped_before == 0 {
            return None;
        }

        let (payload, skip_bits, entry, first_coded_col, coded_count) =
            if let (Some(first_mb), Some(last_mb)) = (coded.first(), coded.last()) {
                let byte0 = first_mb.bit_start / 8;
                let byte1 = last_mb.bit_end.div_ceil(8);
                (
                    unit[byte0..byte1].to_vec(),
                    (first_mb.bit_start % 8) as u8,
                    first_mb.entry.clone(),
                    first_mb.x as u16,
                    coded.len() as u16,
                )
            } else {
                (
                    Vec::new(),
                    0u8,
                    tiledec_mpeg2::slice::PredictorState::slice_start(0, 1),
                    NO_CODED,
                    0,
                )
            };

        Some(PartialSlice {
            row: slice.row as u16,
            skipped_before,
            skip_start_col,
            skip_motion,
            coded_count,
            first_coded_col,
            skipped_after,
            skip_bits,
            entry,
            payload,
        })
    }

    /// Computes the remote reference needs of every tile for one slice.
    fn collect_needs(
        &self,
        slice: &ParsedSlice,
        info: &PictureInfo,
        needs: &mut [Vec<(u16, u16, RefSlot, u16)>],
        stats: &mut SplitStats,
    ) -> Result<()> {
        if info.kind == PictureKind::I {
            // Still count duplication for stats.
            for mb in &slice.mbs {
                stats.duplicated_assignments +=
                    self.geom.tiles_for_mb(mb.x, mb.y).len().saturating_sub(1);
            }
            return Ok(());
        }
        let mut visit = |mb_x: u32, mb_y: u32, motion: &MbMotion| {
            let holders = self.geom.tiles_for_mb(mb_x, mb_y);
            stats.duplicated_assignments += holders.len().saturating_sub(1);
            let vecs: &[(RefSlot, MotionVector)] = match motion {
                MbMotion::Intra => &[],
                MbMotion::Forward(f) => &[(RefSlot::Forward, *f)],
                MbMotion::Backward(b) => &[(RefSlot::Backward, *b)],
                MbMotion::Bi(f, b) => &[(RefSlot::Forward, *f), (RefSlot::Backward, *b)],
            };
            for t in holders {
                let tile = self.geom.index_of(t);
                let (c0, c1) = self.tile_cols[tile];
                let (r0, r1) = self.tile_rows[tile];
                for &(slot, mv) in vecs {
                    for (rx, ry) in footprint_mbs(mb_x, mb_y, mv, &self.geom) {
                        if rx < c0 || rx > c1 || ry < r0 || ry > r1 {
                            let owner = self.geom.owner_of_mb(rx, ry);
                            let owner_idx = self.geom.index_of(owner) as u16;
                            needs[tile].push((rx as u16, ry as u16, slot, owner_idx));
                        }
                    }
                }
            }
        };
        for mb in &slice.mbs {
            visit(mb.x, mb.y, &mb.motion);
        }
        let mbw = self.geom.mb_dims().0;
        for sk in &slice.skips {
            for addr in sk.start_addr..sk.start_addr + sk.count {
                visit(addr % mbw, addr / mbw, &sk.motion);
            }
        }
        Ok(())
    }
}

/// The macroblock-aligned cover of the reference region a 16×16 prediction
/// with vector `mv` reads, padded by 2 pixels to cover the chroma
/// footprint and half-pel extension.
pub(crate) fn footprint_mbs(
    mb_x: u32,
    mb_y: u32,
    mv: MotionVector,
    geom: &WallGeometry,
) -> Vec<(u32, u32)> {
    let (x0, y0, w, h) = tiledec_mpeg2::motion::luma_footprint(mb_x, mb_y, mv);
    let (mbw, mbh) = geom.mb_dims();
    let x_lo = (x0 - 2).max(0) as u32 / 16;
    let y_lo = (y0 - 2).max(0) as u32 / 16;
    let x_hi = (((x0 + w as i32 + 2).max(1) as u32).div_ceil(16)).min(mbw);
    let y_hi = (((y0 + h as i32 + 2).max(1) as u32).div_ceil(16)).min(mbh);
    let mut out = Vec::with_capacity(9);
    for ry in y_lo..y_hi {
        for rx in x_lo..x_hi {
            out.push((rx, ry));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_of_zero_vector_is_own_mb() {
        let geom = WallGeometry::for_video(128, 64, 2, 1, 0).unwrap();
        let f = footprint_mbs(3, 2, MotionVector::ZERO, &geom);
        // Zero vector with ±2 px padding touches the 8 neighbours too when
        // they exist; the own MB is always included.
        assert!(f.contains(&(3, 2)));
        for (x, y) in f {
            assert!((2..=4).contains(&x) && (1..=3).contains(&y));
        }
    }

    #[test]
    fn footprint_follows_the_vector() {
        let geom = WallGeometry::for_video(1280, 720, 2, 1, 0).unwrap();
        // mv (+64, 0) half-pel = +32 px: footprint shifts two MBs right.
        let f = footprint_mbs(10, 10, MotionVector::new(64, 0), &geom);
        assert!(f.contains(&(12, 10)));
        assert!(!f.contains(&(9, 10)));
    }

    #[test]
    fn footprint_clamps_at_picture_edges() {
        let geom = WallGeometry::for_video(64, 64, 2, 1, 0).unwrap();
        let f = footprint_mbs(0, 0, MotionVector::new(-4, -4), &geom);
        for (x, y) in f {
            assert!(x < 4 && y < 4);
        }
    }

    // End-to-end splitter behaviour is exercised in the crate-level tests
    // (tests/parallel.rs) with real encoded streams.
}
