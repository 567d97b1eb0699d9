//! Tile rectangles, overlap handling and macroblock-to-tile mapping.

/// Identifies a tile by grid position; tiles are also indexed row-major.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TileId {
    /// Column (0 .. m).
    pub col: u32,
    /// Row (0 .. n).
    pub row: u32,
}

/// An axis-aligned pixel rectangle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PixelRect {
    /// Left edge (inclusive).
    pub x0: u32,
    /// Top edge (inclusive).
    pub y0: u32,
    /// Width in pixels.
    pub w: u32,
    /// Height in pixels.
    pub h: u32,
}

impl PixelRect {
    /// Right edge (exclusive).
    pub fn x1(&self) -> u32 {
        self.x0 + self.w
    }

    /// Bottom edge (exclusive).
    pub fn y1(&self) -> u32 {
        self.y0 + self.h
    }

    /// True when the rectangles share at least one pixel.
    pub fn intersects(&self, other: &PixelRect) -> bool {
        self.x0 < other.x1() && other.x0 < self.x1() && self.y0 < other.y1() && other.y0 < self.y1()
    }

    /// The pixels both rectangles contain, if any.
    pub fn intersection(&self, other: &PixelRect) -> Option<PixelRect> {
        let x0 = self.x0.max(other.x0);
        let y0 = self.y0.max(other.y0);
        let x1 = self.x1().min(other.x1());
        let y1 = self.y1().min(other.y1());
        (x0 < x1 && y0 < y1).then(|| PixelRect {
            x0,
            y0,
            w: x1 - x0,
            h: y1 - y0,
        })
    }

    /// True when (`x`, `y`) lies inside.
    pub fn contains(&self, x: u32, y: u32) -> bool {
        x >= self.x0 && x < self.x1() && y >= self.y0 && y < self.y1()
    }

    /// The rectangle of one macroblock.
    pub fn of_mb(mb_x: u32, mb_y: u32) -> PixelRect {
        PixelRect {
            x0: mb_x * 16,
            y0: mb_y * 16,
            w: 16,
            h: 16,
        }
    }

    /// Expands to 16-pixel boundaries (clipped to a `width × height`
    /// picture).
    pub fn mb_aligned(&self, width: u32, height: u32) -> PixelRect {
        let x0 = (self.x0 / 16) * 16;
        let y0 = (self.y0 / 16) * 16;
        let x1 = self.x1().div_ceil(16) * 16;
        let y1 = self.y1().div_ceil(16) * 16;
        PixelRect {
            x0,
            y0,
            w: x1.min(width) - x0,
            h: y1.min(height) - y0,
        }
    }

    /// Inclusive range of macroblock columns intersecting this rect.
    pub fn mb_cols(&self) -> std::ops::RangeInclusive<u32> {
        self.x0 / 16..=(self.x1() - 1) / 16
    }

    /// Inclusive range of macroblock rows intersecting this rect.
    pub fn mb_rows(&self) -> std::ops::RangeInclusive<u32> {
        self.y0 / 16..=(self.y1() - 1) / 16
    }
}

/// Geometry of an m × n projector wall displaying a video that exactly
/// fills it.
///
/// ```
/// use tiledec_wall::WallGeometry;
/// // A 2x2 wall with 16 px of edge-blending overlap: each projector shows
/// // (320+16)/2 = 168 px across.
/// let g = WallGeometry::for_video(320, 192, 2, 2, 16).unwrap();
/// assert_eq!(g.tile_w, 168);
/// // Seam macroblocks belong to more than one tile…
/// assert!(g.tiles_for_mb(10, 5).len() > 1);
/// // …but exactly one tile owns (and serves) each macroblock.
/// let owner = g.owner_of_mb(10, 5);
/// assert!(g.tiles_for_mb(10, 5).contains(&owner));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WallGeometry {
    /// Tiles per row.
    pub m: u32,
    /// Tiles per column.
    pub n: u32,
    /// Projector width in pixels (including overlap regions).
    pub tile_w: u32,
    /// Projector height in pixels.
    pub tile_h: u32,
    /// Overlap between adjacent projectors, in pixels (even; may be 0).
    pub overlap: u32,
    /// Video width = `m·tile_w − (m−1)·overlap`.
    pub width: u32,
    /// Video height.
    pub height: u32,
}

impl WallGeometry {
    /// Builds the geometry for a video of `width × height` split across
    /// `m × n` projectors with `overlap` blending pixels. Fails unless the
    /// video divides evenly into tiles with 4:2:0-compatible (even)
    /// offsets.
    pub fn for_video(
        width: u32,
        height: u32,
        m: u32,
        n: u32,
        overlap: u32,
    ) -> Result<Self, String> {
        if m == 0 || n == 0 {
            return Err("wall must have at least one tile".into());
        }
        if !overlap.is_multiple_of(2) {
            return Err("overlap must be even (4:2:0 chroma alignment)".into());
        }
        let span_x = width + (m - 1) * overlap;
        let span_y = height + (n - 1) * overlap;
        if !span_x.is_multiple_of(m) || !span_y.is_multiple_of(n) {
            return Err(format!(
                "video {width}x{height} does not divide into {m}x{n} tiles with overlap {overlap}"
            ));
        }
        let tile_w = span_x / m;
        let tile_h = span_y / n;
        if !(tile_w - overlap).is_multiple_of(2) || !(tile_h - overlap).is_multiple_of(2) {
            return Err("tile pitch must be even (4:2:0 chroma alignment)".into());
        }
        if tile_w <= overlap || tile_h <= overlap {
            return Err("tiles would be all overlap".into());
        }
        Ok(WallGeometry {
            m,
            n,
            tile_w,
            tile_h,
            overlap,
            width,
            height,
        })
    }

    /// Number of tiles.
    pub fn tiles(&self) -> u32 {
        self.m * self.n
    }

    /// Row-major index of a tile.
    pub fn index_of(&self, t: TileId) -> usize {
        (t.row * self.m + t.col) as usize
    }

    /// Tile from its row-major index.
    pub fn tile_at(&self, index: usize) -> TileId {
        TileId {
            col: index as u32 % self.m,
            row: index as u32 / self.m,
        }
    }

    /// The pixel rectangle a tile displays (including overlap regions).
    pub fn tile_rect(&self, t: TileId) -> PixelRect {
        let x0 = t.col * (self.tile_w - self.overlap);
        let y0 = t.row * (self.tile_h - self.overlap);
        PixelRect {
            x0,
            y0,
            w: self.tile_w,
            h: self.tile_h,
        }
    }

    /// The tile rectangle expanded to macroblock boundaries: the region a
    /// tile decoder actually reconstructs.
    pub fn tile_mb_rect(&self, t: TileId) -> PixelRect {
        self.tile_rect(t).mb_aligned(self.width, self.height)
    }

    /// All tiles whose (macroblock-aligned) rectangle contains the given
    /// macroblock — every one of them receives the macroblock in its
    /// sub-picture.
    pub fn tiles_for_mb(&self, mb_x: u32, mb_y: u32) -> Vec<TileId> {
        let mbr = PixelRect::of_mb(mb_x, mb_y);
        let mut out = Vec::new();
        for row in 0..self.n {
            for col in 0..self.m {
                let t = TileId { col, row };
                if self.tile_mb_rect(t).intersects(&mbr) {
                    out.push(t);
                }
            }
        }
        out
    }

    /// The canonical owner of a macroblock: ownership boundaries run
    /// through the centres of the overlap regions. The owner serves the
    /// block to peers during MEI exchange.
    pub fn owner_of_mb(&self, mb_x: u32, mb_y: u32) -> TileId {
        let cx = mb_x * 16 + 8;
        let cy = mb_y * 16 + 8;
        let pitch_x = self.tile_w - self.overlap;
        let pitch_y = self.tile_h - self.overlap;
        // Ownership cell i covers [i·pitch + overlap/2, (i+1)·pitch + overlap/2)
        // except the first, which starts at 0.
        let col = if cx < self.overlap / 2 {
            0
        } else {
            ((cx - self.overlap / 2) / pitch_x).min(self.m - 1)
        };
        let row = if cy < self.overlap / 2 {
            0
        } else {
            ((cy - self.overlap / 2) / pitch_y).min(self.n - 1)
        };
        TileId { col, row }
    }

    /// Iterator over all tiles, row-major.
    pub fn iter_tiles(&self) -> impl Iterator<Item = TileId> + '_ {
        (0..self.tiles() as usize).map(|i| self.tile_at(i))
    }

    /// Picture dimensions in macroblocks.
    pub fn mb_dims(&self) -> (u32, u32) {
        (self.width.div_ceil(16), self.height.div_ceil(16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_wall_geometry() {
        // 4x4 wall of 1024x768 projectors with 32 px overlap:
        // width = 4*1024 - 3*32 = 4000, height = 4*768 - 3*32 = 2976.
        let g = WallGeometry::for_video(4000, 2976, 4, 4, 32).unwrap();
        assert_eq!(g.tile_w, 1024);
        assert_eq!(g.tile_h, 768);
        assert_eq!(g.tile_rect(TileId { col: 0, row: 0 }).x1(), 1024);
        assert_eq!(g.tile_rect(TileId { col: 1, row: 0 }).x0, 992);
        assert_eq!(g.tile_rect(TileId { col: 3, row: 3 }).x1(), 4000);
    }

    #[test]
    fn rejects_non_dividing_videos() {
        assert!(WallGeometry::for_video(1001, 768, 2, 1, 0).is_err());
        assert!(WallGeometry::for_video(1024, 768, 2, 1, 31).is_err());
        assert!(WallGeometry::for_video(0, 0, 0, 1, 0).is_err());
    }

    #[test]
    fn zero_overlap_partitions_exactly() {
        let g = WallGeometry::for_video(128, 64, 4, 2, 0).unwrap();
        assert_eq!(g.tile_w, 32);
        assert_eq!(g.tile_h, 32);
        // Every macroblock belongs to exactly one tile.
        for mby in 0..4 {
            for mbx in 0..8 {
                let tiles = g.tiles_for_mb(mbx, mby);
                assert_eq!(tiles.len(), 1, "mb ({mbx},{mby}) -> {tiles:?}");
                assert_eq!(tiles[0], g.owner_of_mb(mbx, mby));
            }
        }
    }

    #[test]
    fn overlap_duplicates_seam_macroblocks() {
        // 160 px wide, 2 tiles, 16 px overlap: tiles cover 0..88 and 72..160.
        let g = WallGeometry::for_video(160, 32, 2, 1, 16).unwrap();
        assert_eq!(g.tile_w, 88);
        // MB column 4 covers pixels 64..80: inside tile 0 (0..88) and tile 1
        // (72..160, mb-aligned 64..160).
        let tiles = g.tiles_for_mb(4, 0);
        assert_eq!(tiles.len(), 2, "{tiles:?}");
        // Its centre (72) sits exactly on the ownership cut (80 - 8 = 72 <
        // 80): owner is tile 0.
        let owner = g.owner_of_mb(4, 0);
        assert!(tiles.contains(&owner));
    }

    #[test]
    fn every_mb_has_exactly_one_owner_inside_its_tiles() {
        for (w, h, m, n, ov) in [
            (256, 128, 4, 2, 0),
            (320, 192, 2, 2, 32),
            (160, 96, 2, 2, 16),
            (4000, 2976, 4, 4, 32),
        ] {
            let g = WallGeometry::for_video(w, h, m, n, ov).unwrap();
            let (mbw, mbh) = g.mb_dims();
            for mby in 0..mbh {
                for mbx in 0..mbw {
                    let tiles = g.tiles_for_mb(mbx, mby);
                    assert!(!tiles.is_empty(), "mb ({mbx},{mby}) unassigned");
                    let owner = g.owner_of_mb(mbx, mby);
                    assert!(
                        tiles.contains(&owner),
                        "owner {owner:?} of ({mbx},{mby}) not among holders {tiles:?} ({w}x{h} {m}x{n} ov {ov})"
                    );
                }
            }
        }
    }

    #[test]
    fn tile_rects_cover_the_picture() {
        let g = WallGeometry::for_video(320, 192, 2, 2, 32).unwrap();
        for y in (0..192).step_by(7) {
            for x in (0..320).step_by(7) {
                assert!(
                    g.iter_tiles().any(|t| g.tile_rect(t).contains(x, y)),
                    "pixel ({x},{y}) uncovered"
                );
            }
        }
    }

    #[test]
    fn mb_aligned_expansion() {
        let r = PixelRect {
            x0: 72,
            y0: 40,
            w: 88,
            h: 56,
        };
        let a = r.mb_aligned(160, 96);
        assert_eq!(
            a,
            PixelRect {
                x0: 64,
                y0: 32,
                w: 96,
                h: 64
            }
        );
        assert_eq!(a.mb_cols(), 4..=9);
        assert_eq!(a.mb_rows(), 2..=5);
    }

    #[test]
    fn index_round_trip() {
        let g = WallGeometry::for_video(256, 128, 4, 2, 0).unwrap();
        for i in 0..g.tiles() as usize {
            assert_eq!(g.index_of(g.tile_at(i)), i);
        }
    }
}
