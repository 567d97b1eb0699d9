//! The coarse-grained parallelisation baselines behind the paper's
//! Table 1: sequence-, GOP-, picture-, slice- and macroblock-level
//! splitting, compared on measured splitting cost, inter-decoder
//! communication and pixel-redistribution volume.
//!
//! The coarse levels are not full execution pipelines (the paper dismisses
//! them analytically); what this module *measures* on a real stream is
//! exactly what Table 1 tabulates: how expensive splitting is, and how
//! many bytes have to move between nodes afterwards.

use std::collections::HashSet;
use std::time::Instant;

use tiledec_bitstream::StartCodeScanner;
use tiledec_mpeg2::parser::parse_picture;
use tiledec_mpeg2::slice::MbMotion;
use tiledec_mpeg2::types::{MotionVector, PictureKind};
use tiledec_wall::WallGeometry;

use crate::mei::RefSlot;
use crate::splitter::{footprint_mbs, split_picture_units, MacroblockSplitter};
use crate::Result;

/// Parallelisation granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Whole sequences per decoder.
    Sequence,
    /// Whole GOPs per decoder.
    Gop,
    /// Whole pictures per decoder.
    Picture,
    /// Horizontal slice bands per decoder.
    Slice,
    /// Macroblocks routed to their display tile (the paper's choice).
    Macroblock,
}

impl Level {
    /// All levels in Table 1 order.
    pub const ALL: [Level; 5] = [
        Level::Sequence,
        Level::Gop,
        Level::Picture,
        Level::Slice,
        Level::Macroblock,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Level::Sequence => "Sequence",
            Level::Gop => "GOP",
            Level::Picture => "Picture",
            Level::Slice => "Slice",
            Level::Macroblock => "Macroblock",
        }
    }
}

/// One measured row of Table 1.
#[derive(Debug, Clone)]
pub struct LevelCosts {
    /// Granularity.
    pub level: Level,
    /// Splitter CPU seconds per picture (measured on this host).
    pub split_s_per_picture: f64,
    /// Inter-decoder communication, bytes per picture (references fetched
    /// from peers, or MEI blocks at macroblock level).
    pub inter_decoder_bytes_per_picture: f64,
    /// Pixel redistribution, bytes per picture (decoded pixels that must
    /// move to the node that displays them).
    pub redistribution_bytes_per_picture: f64,
}

/// Measures all five levels on a stream for an `m × n` wall.
pub fn measure_levels(stream: &[u8], geom: &WallGeometry) -> Result<Vec<LevelCosts>> {
    let index = split_picture_units(stream)?;
    let n_pics = index.units.len().max(1);
    let seq = &index.seq;
    let frame_bytes = (seq.width as f64 * seq.height as f64) * 1.5; // 4:2:0
    let tiles = geom.tiles() as f64;

    // --- Split costs ------------------------------------------------------
    // Coarse levels only scan for start codes.
    let t0 = Instant::now();
    let mut code_count = 0usize;
    for c in StartCodeScanner::new(stream) {
        std::hint::black_box(c);
        code_count += 1;
    }
    let scan_total = t0.elapsed().as_secs_f64();
    std::hint::black_box(code_count);
    let scan_per_picture = scan_total / n_pics as f64;

    // Macroblock level runs the real second-level splitter.
    let splitter = MacroblockSplitter::new(*geom, seq.clone());
    let t0 = Instant::now();
    let mut mei_bytes_total = 0f64;
    let mut mb_count = 0usize;
    for (p, &(start, end)) in index.units.iter().enumerate() {
        let out = splitter.split(p as u32, &stream[start..end])?;
        for mei in &out.mei {
            mei_bytes_total += (mei.sends().count() * crate::mei::BLOCK_WIRE_BYTES) as f64;
        }
        mb_count += out.stats.coded_mbs + out.stats.skipped_mbs;
    }
    let mb_split_per_picture = t0.elapsed().as_secs_f64() / n_pics as f64;
    std::hint::black_box(mb_count);

    // --- Inter-decoder communication ---------------------------------------
    // Picture level: every P picture fetches one reference picture from a
    // peer, every B picture two (the paper's worst-case statement; actual
    // transfers would be demand-paged but bounded by this).
    let mut picture_level_fetch = 0f64;
    // Slice level: decoders own horizontal bands of macroblock rows. Count
    // by the splitter's MEI rule, so this column and the macroblock one are
    // in the same unit: each macroblock of a padded motion footprint
    // (`footprint_mbs`) outside the reading band, once per band, reference
    // and picture.
    let band_rows = seq.mb_height().div_ceil(geom.n.max(1));
    let mut band_needs: HashSet<(u32, u32, u32, RefSlot)> = HashSet::new();
    let mut slice_level_blocks = 0usize;
    for &(start, end) in &index.units {
        let parsed = parse_picture(&stream[start..end], seq)?;
        match parsed.info.kind {
            PictureKind::P => picture_level_fetch += frame_bytes,
            PictureKind::B => picture_level_fetch += 2.0 * frame_bytes,
            PictureKind::I => {}
        }
        band_needs.clear();
        let mut visit = |mb_x: u32, mb_y: u32, motion: &MbMotion| {
            let band = mb_y / band_rows;
            let vecs: &[(RefSlot, MotionVector)] = match motion {
                MbMotion::Intra => &[],
                MbMotion::Forward(f) => &[(RefSlot::Forward, *f)],
                MbMotion::Backward(b) => &[(RefSlot::Backward, *b)],
                MbMotion::Bi(f, b) => &[(RefSlot::Forward, *f), (RefSlot::Backward, *b)],
            };
            for &(slot, mv) in vecs {
                for (rx, ry) in footprint_mbs(mb_x, mb_y, mv, geom) {
                    if ry / band_rows != band {
                        band_needs.insert((band, rx, ry, slot));
                    }
                }
            }
        };
        let mbw = seq.mb_width();
        for slice in &parsed.slices {
            for mb in &slice.mbs {
                visit(mb.x, mb.y, &mb.motion);
            }
            for sk in &slice.skips {
                for addr in sk.start_addr..sk.start_addr + sk.count {
                    visit(addr % mbw, addr / mbw, &sk.motion);
                }
            }
        }
        slice_level_blocks += band_needs.len();
    }
    let slice_fetch_per_picture =
        (slice_level_blocks * crate::mei::BLOCK_WIRE_BYTES) as f64 / n_pics as f64;

    // --- Pixel redistribution ----------------------------------------------
    // Coarse levels decode whole pictures on one node but display 1/(m·n)
    // locally: the rest must move.
    let coarse_redistribution = frame_bytes * (tiles - 1.0) / tiles;
    // Slice level: a band is decoded across the full picture width but
    // displayed by m tiles: (m-1)/m of it moves (the paper's estimate).
    let slice_redistribution = frame_bytes * (geom.m as f64 - 1.0) / geom.m as f64;

    Ok(vec![
        LevelCosts {
            level: Level::Sequence,
            split_s_per_picture: scan_per_picture,
            inter_decoder_bytes_per_picture: 0.0,
            redistribution_bytes_per_picture: coarse_redistribution,
        },
        LevelCosts {
            level: Level::Gop,
            split_s_per_picture: scan_per_picture,
            inter_decoder_bytes_per_picture: 0.0,
            redistribution_bytes_per_picture: coarse_redistribution,
        },
        LevelCosts {
            level: Level::Picture,
            split_s_per_picture: scan_per_picture,
            inter_decoder_bytes_per_picture: picture_level_fetch / n_pics as f64,
            redistribution_bytes_per_picture: coarse_redistribution,
        },
        LevelCosts {
            level: Level::Slice,
            split_s_per_picture: scan_per_picture,
            inter_decoder_bytes_per_picture: slice_fetch_per_picture,
            redistribution_bytes_per_picture: slice_redistribution,
        },
        LevelCosts {
            level: Level::Macroblock,
            split_s_per_picture: mb_split_per_picture,
            inter_decoder_bytes_per_picture: mei_bytes_total / n_pics as f64,
            redistribution_bytes_per_picture: 0.0,
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_and_order() {
        assert_eq!(Level::ALL.len(), 5);
        assert_eq!(Level::ALL[0].name(), "Sequence");
        assert_eq!(Level::ALL[4].name(), "Macroblock");
    }

    // measure_levels is exercised end to end by
    // `table1_levels_price_the_baselines` in tests/parallel.rs and by the
    // `paper table1` bench binary, on encoder-produced streams.
}
