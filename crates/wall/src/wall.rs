//! Per-tile framebuffers and full-frame reassembly.

use tiledec_mpeg2::frame::Frame;

use crate::geometry::{TileId, WallGeometry};

/// Errors from wall assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WallError {
    /// A tile frame has the wrong dimensions.
    BadTileSize {
        /// Offending tile.
        tile: TileId,
        /// What the tile supplied, luma pixels.
        got: (usize, usize),
        /// What the geometry requires.
        want: (usize, usize),
    },
    /// Two tiles disagree about a pixel they both display.
    OverlapMismatch {
        /// First tile.
        a: TileId,
        /// Second tile.
        b: TileId,
        /// Global pixel coordinate of the first disagreement.
        at: (u32, u32),
    },
    /// A picture was finished before this tile arrived.
    MissingTile {
        /// First tile (row-major) that was never placed.
        tile: TileId,
    },
}

impl std::fmt::Display for WallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WallError::BadTileSize { tile, got, want } => {
                write!(
                    f,
                    "tile {tile:?} framebuffer is {got:?}, geometry needs {want:?}"
                )
            }
            WallError::OverlapMismatch { a, b, at } => {
                write!(f, "tiles {a:?} and {b:?} disagree at pixel {at:?}")
            }
            WallError::MissingTile { tile } => write!(f, "tile {tile:?} was never placed"),
        }
    }
}

impl std::error::Error for WallError {}

/// Streams the tiles of one displayed picture into its output frame, in
/// whatever order they arrive.
///
/// Each tile's frame covers the tile's **macroblock-aligned** rectangle
/// (what a tile decoder reconstructs), not just its display rectangle, so
/// neighbouring tiles share pixels. Every shared pixel is cross-checked
/// when its second holder arrives — decoders that received the same
/// macroblocks must have produced identical pixels.
pub struct Assembler {
    geometry: WallGeometry,
    out: Frame,
    placed: Vec<bool>,
    verify_overlap: bool,
}

/// True when the tiles' macroblock-aligned rectangles leave no pixel of
/// the picture uncovered. They form a grid — x extents depend on the
/// column only, y extents on the row — so each axis is checked alone.
fn tiles_cover_picture(g: &WallGeometry) -> bool {
    let covered = |count: u32, len: u32, extent: &dyn Fn(u32) -> (u32, u32)| {
        let mut reach = 0;
        (0..count).all(|i| {
            let (lo, hi) = extent(i);
            let joined = lo <= reach;
            reach = reach.max(hi);
            joined
        }) && reach == len
    };
    covered(g.m, g.width, &|col| {
        let r = g.tile_mb_rect(TileId { col, row: 0 });
        (r.x0, r.x1())
    }) && covered(g.n, g.height, &|row| {
        let r = g.tile_mb_rect(TileId { col: 0, row });
        (r.y0, r.y1())
    })
}

impl Assembler {
    /// Starts the output frame of one picture. The frame is not filled:
    /// the tile rectangles cover it, which is asserted here.
    pub fn new(geometry: WallGeometry) -> Self {
        assert!(
            tiles_cover_picture(&geometry),
            "tile rectangles of {geometry:?} do not cover the picture"
        );
        Assembler {
            geometry,
            out: Frame::zeroed(geometry.width as usize, geometry.height as usize),
            placed: vec![false; geometry.tiles() as usize],
            verify_overlap: true,
        }
    }

    /// Writes tile `t` into the output frame, after validating its size
    /// and comparing it with the output wherever its rectangle intersects
    /// a tile placed before it.
    pub fn place(&mut self, t: TileId, tile: &Frame) -> Result<(), WallError> {
        let g = self.geometry;
        let r = g.tile_mb_rect(t);
        let want = (r.w as usize, r.h as usize);
        let got = (tile.width(), tile.height());
        if got != want {
            return Err(WallError::BadTileSize { tile: t, got, want });
        }
        let (x0, y0) = (r.x0 as usize, r.y0 as usize);
        if self.verify_overlap {
            for o in g.iter_tiles().filter(|&o| self.placed[g.index_of(o)]) {
                let Some(shared) = r.intersection(&g.tile_mb_rect(o)) else {
                    continue;
                };
                let (sx, sy) = (shared.x0 as usize, shared.y0 as usize);
                for (out, new, sub) in [
                    (&self.out.y, &tile.y, 1),
                    (&self.out.cb, &tile.cb, 2),
                    (&self.out.cr, &tile.cr, 2),
                ] {
                    let w = shared.w as usize / sub;
                    for y in sy / sub..(sy + shared.h as usize) / sub {
                        let theirs = &out.row(y)[sx / sub..][..w];
                        let ours = &new.row(y - y0 / sub)[(sx - x0) / sub..][..w];
                        if let Some(x) = theirs.iter().zip(ours).position(|(a, b)| a != b) {
                            let at = ((sx + x * sub) as u32, (y * sub) as u32);
                            return Err(WallError::OverlapMismatch { a: t, b: o, at });
                        }
                    }
                }
            }
        }
        let out = &mut self.out;
        for (out, new, sub) in [
            (&mut out.y, &tile.y, 1),
            (&mut out.cb, &tile.cb, 2),
            (&mut out.cr, &tile.cr, 2),
        ] {
            out.blit_from(new, 0, 0, x0 / sub, y0 / sub, want.0 / sub, want.1 / sub);
        }
        self.placed[g.index_of(t)] = true;
        Ok(())
    }

    /// The assembled frame; an error unless every tile was placed.
    pub fn finish(self) -> Result<Frame, WallError> {
        match self.placed.iter().position(|&p| !p) {
            Some(i) => Err(WallError::MissingTile {
                tile: self.geometry.tile_at(i),
            }),
            None => Ok(self.out),
        }
    }
}

/// A set of tile framebuffers for one displayed picture: tiles are held
/// until [`assemble`](Wall::assemble) runs them through an [`Assembler`].
pub struct Wall {
    geometry: WallGeometry,
    tiles: Vec<Option<Frame>>,
}

impl Wall {
    /// Creates a wall with no tile set yet.
    pub fn new(geometry: WallGeometry) -> Self {
        Wall {
            geometry,
            tiles: vec![None; geometry.tiles() as usize],
        }
    }

    /// The wall's geometry.
    pub fn geometry(&self) -> &WallGeometry {
        &self.geometry
    }

    /// Mutable access to a tile framebuffer (black until set).
    pub fn tile_mut(&mut self, t: TileId) -> &mut Frame {
        let r = self.geometry.tile_mb_rect(t);
        let i = self.geometry.index_of(t);
        self.tiles[i].get_or_insert_with(|| Frame::black(r.w as usize, r.h as usize))
    }

    /// Replaces a tile framebuffer, validating dimensions.
    pub fn set_tile(&mut self, t: TileId, frame: Frame) -> Result<(), WallError> {
        let r = self.geometry.tile_mb_rect(t);
        let want = (r.w as usize, r.h as usize);
        let got = (frame.width(), frame.height());
        if got != want {
            return Err(WallError::BadTileSize { tile: t, got, want });
        }
        let i = self.geometry.index_of(t);
        self.tiles[i] = Some(frame);
        Ok(())
    }

    /// Reassembles the full video frame; an error unless every tile was
    /// set. With `verify_overlap`, every overlap pixel is cross-checked
    /// between all tiles that display it.
    pub fn assemble(&self, verify_overlap: bool) -> Result<Frame, WallError> {
        let mut assembler = Assembler::new(self.geometry);
        assembler.verify_overlap = verify_overlap;
        for (t, tile) in self.geometry.iter_tiles().zip(&self.tiles) {
            if let Some(tile) = tile {
                assembler.place(t, tile)?;
            }
        }
        assembler.finish()
    }

    /// Applies a linear edge-blending ramp across overlap regions
    /// (projector output simulation): each overlap pixel is attenuated so
    /// the summed intensity from both projectors is constant. Returns the
    /// per-tile frames as they would be sent to the projectors.
    pub fn blended_tiles(&self) -> Vec<Frame> {
        let g = &self.geometry;
        let ov = g.overlap as usize;
        g.iter_tiles()
            .map(|t| {
                let r = g.tile_mb_rect(t);
                let disp = g.tile_rect(t);
                // A tile never set projects black.
                let mut f = self.tiles[g.index_of(t)]
                    .clone()
                    .unwrap_or_else(|| Frame::black(r.w as usize, r.h as usize));
                if ov == 0 {
                    return f;
                }
                let (w, h) = (f.width(), f.height());
                for y in 0..h {
                    for x in 0..w {
                        let gx = r.x0 as usize + x;
                        let gy = r.y0 as usize + y;
                        let mut gain = 1.0f32;
                        // Left/right ramps relative to the display rect.
                        // Pixels of the macroblock-aligned frame that fall
                        // outside the display rect are never projected
                        // (gain 0).
                        if t.col > 0 && gx < (disp.x0 as usize + ov) {
                            gain *= gx.saturating_sub(disp.x0 as usize) as f32 / ov as f32;
                        }
                        if t.col + 1 < g.m && gx >= disp.x1() as usize - ov {
                            gain *= (disp.x1() as usize).saturating_sub(gx) as f32 / ov as f32;
                        }
                        if t.row > 0 && gy < (disp.y0 as usize + ov) {
                            gain *= gy.saturating_sub(disp.y0 as usize) as f32 / ov as f32;
                        }
                        if t.row + 1 < g.n && gy >= disp.y1() as usize - ov {
                            gain *= (disp.y1() as usize).saturating_sub(gy) as f32 / ov as f32;
                        }
                        let gain = gain.min(1.0);
                        if gain < 1.0 {
                            let gain = gain.max(0.0);
                            let v = f.y.get(x, y) as f32 * gain;
                            f.y.set(x, y, v.round() as u8);
                        }
                    }
                }
                f
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::PixelRect;
    use tiledec_mpeg2::frame::FramePool;

    fn pattern_frame(w: usize, h: usize) -> Frame {
        let mut f = Frame::black(w, h);
        for y in 0..h {
            for x in 0..w {
                f.y.set(x, y, ((x * 7 + y * 13) % 251) as u8);
            }
        }
        for y in 0..h / 2 {
            for x in 0..w / 2 {
                f.cb.set(x, y, ((x + y * 3) % 251) as u8);
                f.cr.set(x, y, ((x * 3 + y) % 251) as u8);
            }
        }
        f
    }

    /// The tile frame a decoder of `r` would deliver for `global`.
    fn crop(global: &Frame, r: PixelRect) -> Frame {
        let (x, y, w, h) = (r.x0 as usize, r.y0 as usize, r.w as usize, r.h as usize);
        FramePool::new().acquire_crop(global, x, y, w, h)
    }

    fn fill_from_global(wall: &mut Wall, global: &Frame) {
        let g = *wall.geometry();
        for t in g.iter_tiles() {
            wall.set_tile(t, crop(global, g.tile_mb_rect(t))).unwrap();
        }
    }

    #[test]
    fn assemble_reconstructs_the_global_frame() {
        for (w, h, m, n, ov) in [
            (128, 64, 2, 2, 0),
            (160, 96, 2, 2, 16),
            (320, 192, 4, 2, 32),
        ] {
            let g = WallGeometry::for_video(w, h, m, n, ov).unwrap();
            let global = pattern_frame(w as usize, h as usize);
            let mut wall = Wall::new(g);
            fill_from_global(&mut wall, &global);
            let out = wall.assemble(true).unwrap();
            assert_eq!(out, global, "{w}x{h} {m}x{n} ov {ov}");
        }
    }

    #[test]
    fn overlap_mismatch_is_detected() {
        let g = WallGeometry::for_video(160, 96, 2, 1, 16).unwrap();
        let global = pattern_frame(160, 96);
        let mut wall = Wall::new(g);
        fill_from_global(&mut wall, &global);
        // Corrupt one pixel inside the overlap region of tile 1.
        let t1 = TileId { col: 1, row: 0 };
        let r1 = g.tile_mb_rect(t1);
        assert!(r1.x0 < 88); // overlap exists
        let f = wall.tile_mut(t1);
        let v = f.y.get(0, 0);
        f.y.set(0, 0, v.wrapping_add(1));
        let err = wall.assemble(true).unwrap_err();
        assert!(matches!(err, WallError::OverlapMismatch { .. }), "{err:?}");
    }

    #[test]
    fn set_tile_validates_dimensions() {
        let g = WallGeometry::for_video(128, 64, 2, 2, 0).unwrap();
        let mut wall = Wall::new(g);
        let err = wall
            .set_tile(TileId { col: 0, row: 0 }, Frame::black(16, 16))
            .unwrap_err();
        assert!(matches!(err, WallError::BadTileSize { .. }));
    }

    #[test]
    fn blending_attenuates_overlap_only() {
        let g = WallGeometry::for_video(160, 96, 2, 1, 16).unwrap();
        let mut global = Frame::black(160, 96);
        for y in 0..96 {
            for x in 0..160 {
                global.y.set(x, y, 200);
            }
        }
        let mut wall = Wall::new(g);
        fill_from_global(&mut wall, &global);
        let blended = wall.blended_tiles();
        // Tile 0's right edge ramps down; its interior stays at 200.
        let t0 = &blended[0];
        assert_eq!(t0.y.get(10, 10), 200);
        let w0 = t0.width();
        assert!(t0.y.get(w0 - 1, 10) < 50, "edge should be attenuated");
        // Summed contributions in the overlap centre stay near 200.
        let g0 = g.tile_mb_rect(TileId { col: 0, row: 0 });
        let g1 = g.tile_mb_rect(TileId { col: 1, row: 0 });
        let disp0 = g.tile_rect(TileId { col: 0, row: 0 });
        let mid = disp0.x1() - g.overlap / 2; // centre of blend ramp
        let a = blended[0].y.get((mid - g0.x0) as usize, 20) as u32;
        let b = blended[1].y.get((mid - g1.x0) as usize, 20) as u32;
        assert!(
            (a + b) as i32 - 200 <= 2 && 200 - (a + b) as i32 <= 2,
            "a={a} b={b}"
        );
    }

    /// Seeded xorshift: every case reproduces from its printed number.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u32) -> u32 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as u32
        }

        fn shuffled(&mut self, mut tiles: Vec<TileId>) -> Vec<TileId> {
            for i in (1..tiles.len()).rev() {
                tiles.swap(i, self.below(i as u32 + 1) as usize);
            }
            tiles
        }
    }

    /// A random wall: 1–4 tiles a side, even overlap up to 32, even tile
    /// sizes that are mostly not macroblock multiples (so neighbouring
    /// macroblock-aligned rectangles overlap even without projector
    /// overlap), and the picture it displays.
    fn random_wall(rng: &mut Rng) -> (WallGeometry, Frame) {
        let (m, n) = (1 + rng.below(4), 1 + rng.below(4));
        let ov = 2 * rng.below(17);
        let tile_w = ov + 2 * (1 + rng.below(40));
        let tile_h = ov + 2 * (1 + rng.below(40));
        let (w, h) = (m * tile_w - (m - 1) * ov, n * tile_h - (n - 1) * ov);
        let g = WallGeometry::for_video(w, h, m, n, ov).unwrap();
        (g, pattern_frame(w as usize, h as usize))
    }

    fn place_all(g: &WallGeometry, order: &[TileId], tiles: &[Frame]) -> Result<Frame, WallError> {
        let mut assembler = Assembler::new(*g);
        for &t in order {
            assembler.place(t, &tiles[g.index_of(t)])?;
        }
        assembler.finish()
    }

    #[test]
    fn any_arrival_order_assembles_the_global_frame() {
        for case in 0..200u64 {
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ case);
            let (g, global) = random_wall(&mut rng);
            let tiles: Vec<Frame> = g
                .iter_tiles()
                .map(|t| crop(&global, g.tile_mb_rect(t)))
                .collect();
            let order = rng.shuffled(g.iter_tiles().collect());
            let out = place_all(&g, &order, &tiles);
            assert_eq!(out.as_ref(), Ok(&global), "case {case}: {g:?} in {order:?}");

            // One tile short, whichever it is, is an error naming it.
            let (missing, rest) = order.split_last().unwrap();
            assert_eq!(
                place_all(&g, rest, &tiles),
                Err(WallError::MissingTile { tile: *missing }),
                "case {case}"
            );
            // A tile of the wrong size is refused before anything is written.
            let r = g.tile_mb_rect(*missing);
            let odd = Frame::zeroed(r.w as usize + 2, r.h as usize);
            let mut assembler = Assembler::new(g);
            assert!(
                matches!(
                    assembler.place(*missing, &odd),
                    Err(WallError::BadTileSize { tile, .. }) if tile == *missing
                ),
                "case {case}"
            );
        }
    }

    /// Flips one sample of `tile` (whose frame starts at `r`) at global luma
    /// position (`gx`, `gy`), in the plane `plane` picks.
    fn corrupt(tile: &mut Frame, r: PixelRect, (gx, gy): (u32, u32), plane: u32) {
        let (x, y) = ((gx - r.x0) as usize, (gy - r.y0) as usize);
        let (p, x, y) = match plane {
            0 => (&mut tile.y, x, y),
            1 => (&mut tile.cb, x / 2, y / 2),
            _ => (&mut tile.cr, x / 2, y / 2),
        };
        p.set(x, y, p.get(x, y) ^ 0x80);
    }

    #[test]
    fn corruption_is_an_error_exactly_where_two_tiles_display_it() {
        let (mut shared_cases, mut private_cases) = (0, 0);
        for case in 0..300u64 {
            let mut rng = Rng(0xC0FF_EE00_D15E_A5E5 ^ case);
            let (g, global) = random_wall(&mut rng);
            let mut tiles: Vec<Frame> = g
                .iter_tiles()
                .map(|t| crop(&global, g.tile_mb_rect(t)))
                .collect();
            // Corrupt one sample of one tile, in a random plane.
            let a = g.tile_at(rng.below(g.tiles()) as usize);
            let ra = g.tile_mb_rect(a);
            let at = (ra.x0 + rng.below(ra.w), ra.y0 + rng.below(ra.h));
            let plane = rng.below(3);
            corrupt(&mut tiles[g.index_of(a)], ra, at, plane);
            // Chroma samples sit under four luma positions, reported as
            // the even one.
            let seen_at = if plane == 0 {
                at
            } else {
                (at.0 & !1, at.1 & !1)
            };
            let holders: Vec<TileId> = g
                .iter_tiles()
                .filter(|&t| g.tile_mb_rect(t).contains(at.0, at.1))
                .collect();
            let others: Vec<TileId> = rng.shuffled(g.iter_tiles().filter(|&t| t != a).collect());

            if let Some(&b) = holders.iter().find(|&&t| t != a) {
                // Shared with `b`: reported whichever of the two arrives
                // first, at the corrupted position, naming the corrupted
                // tile and another holder of the pixel.
                shared_cases += 1;
                let rest = others.iter().copied().filter(|&t| t != b);
                let a_first: Vec<TileId> = [a, b].into_iter().chain(rest.clone()).collect();
                let b_first: Vec<TileId> = [b, a].into_iter().chain(rest).collect();
                for order in [a_first, b_first, rng.shuffled(g.iter_tiles().collect())] {
                    match place_all(&g, &order, &tiles) {
                        Err(WallError::OverlapMismatch { a: x, b: y, at: p }) => {
                            assert_eq!(p, seen_at, "case {case}: {order:?}");
                            assert!(x == a || y == a, "case {case}: {x:?} {y:?}");
                            assert!(holders.contains(&x) && holders.contains(&y) && x != y);
                        }
                        other => panic!("case {case}: {order:?} gave {other:?}"),
                    }
                }
            } else {
                // Only `a` displays it: the owner's pixel, not an error.
                private_cases += 1;
                let order: Vec<TileId> = others.into_iter().chain([a]).collect();
                let mut expect = global.clone();
                corrupt(
                    &mut expect,
                    g.tile_mb_rect(TileId { col: 0, row: 0 }),
                    at,
                    plane,
                );
                assert_eq!(place_all(&g, &order, &tiles), Ok(expect), "case {case}");
            }
        }
        assert!(
            shared_cases > 50 && private_cases > 50,
            "{shared_cases} {private_cases}"
        );
    }
}
