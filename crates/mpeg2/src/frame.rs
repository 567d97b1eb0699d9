//! Planar image buffers (4:2:0).
//!
//! Every decoder stores its frames row-major. [`Layout::Tiled`] — the
//! plane as macroblock-sized tiles (16×16 luma, 8×8 chroma), each tile
//! contiguous, tiles in raster order, edge tiles zero-padded — lost the
//! end-to-end measurement (DESIGN.md §"Reference-frame memory
//! architecture": 5× on aligned block I/O, 0.27× on half-pel prediction,
//! row-major +17 % on the HD wall) and no decoder constructs it any more.
//!
//! The layout is an address transform, not a format: the logical-pixel
//! APIs (`get`/`set`/`blit_from`/`extract_into`/`insert`/`fetch_clamped`)
//! work on either layout and planes of different layouts compare and hash
//! by logical pixels (padding excluded) — proven against a naive oracle in
//! `tests/kernel_exactness.rs`.

/// Storage layout of a [`Plane`].
// `Tiled`, `Plane::new_tiled`, `Frame::zeroed_tiled` and the tiled arms below
// stay only because the frozen `benchmark/src/layers.rs` still measures
// `predict_tiled`/`block_io_tiled`; they go with the next `benchmark/` PR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// `height` rows of `width` contiguous bytes (classic raster order).
    RowMajor,
    /// Square tiles of `1 << shift` pixels per side, each stored
    /// contiguously in row-major order, tiles in raster order. Edge tiles
    /// are padded to full size; padding bytes are zero and excluded from
    /// equality/hashing.
    Tiled {
        /// log2 of the tile side length.
        shift: u8,
    },
}

/// Tile side shift for luma planes: 16×16, one macroblock per tile.
pub const LUMA_TILE_SHIFT: u8 = 4;
/// Tile side shift for 4:2:0 chroma planes: 8×8, one block per tile.
pub const CHROMA_TILE_SHIFT: u8 = 3;

/// A single 8-bit image plane.
#[derive(Clone)]
pub struct Plane {
    width: usize,
    height: usize,
    /// Distance in bytes between vertically adjacent pixels of one
    /// contiguous storage segment: the row stride for [`Layout::RowMajor`],
    /// the tile side length for [`Layout::Tiled`].
    stride: usize,
    /// Tiles per tile-row ([`Layout::Tiled`] only; 0 for row-major).
    tiles_x: usize,
    layout: Layout,
    data: Vec<u8>,
}

impl Plane {
    /// Creates a zero-filled row-major plane with `stride == width`.
    pub fn new(width: usize, height: usize) -> Self {
        Plane {
            width,
            height,
            stride: width,
            tiles_x: 0,
            layout: Layout::RowMajor,
            data: vec![0; width * height],
        }
    }

    /// Creates a row-major plane filled with `value`.
    pub fn filled(width: usize, height: usize, value: u8) -> Self {
        Plane {
            width,
            height,
            stride: width,
            tiles_x: 0,
            layout: Layout::RowMajor,
            data: vec![value; width * height],
        }
    }

    /// Creates a zero-filled tiled plane with `1 << tile_shift` pixel
    /// tiles. Dimensions need not be tile multiples; edge tiles are
    /// zero-padded to full size.
    pub fn new_tiled(width: usize, height: usize, tile_shift: u8) -> Self {
        let t = 1usize << tile_shift;
        let tiles_x = width.div_ceil(t);
        let tiles_y = height.div_ceil(t);
        Plane {
            width,
            height,
            stride: t,
            tiles_x,
            layout: Layout::Tiled { shift: tile_shift },
            data: vec![0; tiles_x * tiles_y * t * t],
        }
    }

    /// Plane width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Storage-segment stride in bytes: the row stride for row-major
    /// planes, the tile side length for tiled planes. This is the stride
    /// that goes with a slice returned by [`region_at`](Plane::region_at).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Storage layout.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// True when the plane uses tiled storage.
    pub fn is_tiled(&self) -> bool {
        matches!(self.layout, Layout::Tiled { .. })
    }

    /// Raw backing bytes in storage order (row-major rows, or whole tiles
    /// in raster order — including edge-tile padding).
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw backing bytes in storage order.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Byte offset of logical pixel (`x`, `y`) in [`data`](Plane::data).
    #[inline(always)]
    fn index_of(&self, x: usize, y: usize) -> usize {
        match self.layout {
            Layout::RowMajor => y * self.stride + x,
            Layout::Tiled { shift } => {
                let s = shift as usize;
                let m = (1usize << s) - 1;
                (((y >> s) * self.tiles_x + (x >> s)) << (2 * s)) | ((y & m) << s) | (x & m)
            }
        }
    }

    /// Bytes stored contiguously to the right of logical `x` within one
    /// row, ignoring the plane's logical width (callers clip).
    #[inline(always)]
    fn storage_run(&self, x: usize) -> usize {
        match self.layout {
            Layout::RowMajor => self.width - x,
            Layout::Tiled { shift } => {
                let t = 1usize << shift;
                t - (x & (t - 1))
            }
        }
    }

    /// One pixel row. Only valid on row-major planes — a tiled row is not
    /// contiguous; use [`row_segments`](Plane::row_segments) there.
    pub fn row(&self, y: usize) -> &[u8] {
        assert!(
            !self.is_tiled(),
            "Plane::row on a tiled plane; use row_segments()/extract_into()"
        );
        &self.data[y * self.stride..y * self.stride + self.width]
    }

    /// One mutable pixel row (row-major planes only, like
    /// [`row`](Plane::row)).
    pub fn row_mut(&mut self, y: usize) -> &mut [u8] {
        assert!(
            !self.is_tiled(),
            "Plane::row_mut on a tiled plane; use insert()/blit_from()"
        );
        let s = self.stride;
        let w = self.width;
        &mut self.data[y * s..y * s + w]
    }

    /// The contiguous storage segments that make up pixel row `y`, left to
    /// right. A row-major plane yields one `width`-byte slice; a tiled
    /// plane yields one slice per crossed tile.
    pub fn row_segments(&self, y: usize) -> RowSegments<'_> {
        assert!(y < self.height, "row out of bounds");
        RowSegments {
            plane: self,
            y,
            x: 0,
        }
    }

    /// Pixel accessor (debug/test convenience; not for hot paths).
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[self.index_of(x, y)]
    }

    /// Pixel setter (debug/test convenience; not for hot paths).
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = self.index_of(x, y);
        self.data[i] = v;
    }

    /// Copies a `w × h` rectangle from `src` at (`sx`, `sy`) to (`dx`, `dy`)
    /// in `self`. The planes may use different layouts. Panics if either
    /// rectangle is out of bounds.
    #[allow(clippy::too_many_arguments)] // two rects are clearer unpacked
    pub fn blit_from(
        &mut self,
        src: &Plane,
        sx: usize,
        sy: usize,
        dx: usize,
        dy: usize,
        w: usize,
        h: usize,
    ) {
        assert!(
            sx + w <= src.width && sy + h <= src.height,
            "source rect out of bounds"
        );
        assert!(
            dx + w <= self.width && dy + h <= self.height,
            "dest rect out of bounds"
        );
        for row in 0..h {
            let mut done = 0;
            while done < w {
                let n = (w - done)
                    .min(src.storage_run(sx + done))
                    .min(self.storage_run(dx + done));
                let s0 = src.index_of(sx + done, sy + row);
                let d0 = self.index_of(dx + done, dy + row);
                self.data[d0..d0 + n].copy_from_slice(&src.data[s0..s0 + n]);
                done += n;
            }
        }
    }

    /// Copies a `w × h` rectangle into a caller-provided tightly packed
    /// `w`-stride buffer. A whole aligned tile extracts as one `memcpy`.
    // Signature frozen: `benchmark/src/layers.rs` times it (as does the MEI
    // serve path, its one caller in the decoders).
    pub fn extract_into(&self, x: usize, y: usize, w: usize, h: usize, out: &mut [u8]) {
        assert!(
            x + w <= self.width && y + h <= self.height,
            "rect out of bounds"
        );
        assert_eq!(out.len(), w * h);
        if let Layout::Tiled { shift } = self.layout {
            let t = 1usize << shift;
            // Whole-tile fast path: the rect IS one full tile's storage.
            if w == t && h == t && x & (t - 1) == 0 && y & (t - 1) == 0 {
                let base = self.index_of(x, y);
                out.copy_from_slice(&self.data[base..base + t * t]);
                return;
            }
        }
        for row in 0..h {
            let mut done = 0;
            while done < w {
                let n = (w - done).min(self.storage_run(x + done));
                let s0 = self.index_of(x + done, y + row);
                out[row * w + done..row * w + done + n].copy_from_slice(&self.data[s0..s0 + n]);
                done += n;
            }
        }
    }

    /// Overwrites every byte of the backing storage with `value` (padding
    /// included, keeping it canonical), reusing the existing allocation.
    pub fn fill(&mut self, value: u8) {
        self.data.fill(value);
    }

    /// Writes a tightly packed `w × h` buffer into the plane at (`x`, `y`).
    /// A whole aligned tile inserts as one `memcpy`.
    // Signature frozen: `benchmark/src/layers.rs` times it. Reconstruction
    // no longer comes this way (it writes through `lend_mut`); received MEI
    // blocks and display patches still do.
    pub fn insert(&mut self, x: usize, y: usize, w: usize, h: usize, pixels: &[u8]) {
        assert!(
            x + w <= self.width && y + h <= self.height,
            "rect out of bounds"
        );
        assert_eq!(pixels.len(), w * h);
        if let Layout::Tiled { shift } = self.layout {
            let t = 1usize << shift;
            if w == t && h == t && x & (t - 1) == 0 && y & (t - 1) == 0 {
                let base = self.index_of(x, y);
                self.data[base..base + t * t].copy_from_slice(pixels);
                return;
            }
        }
        for row in 0..h {
            let mut done = 0;
            while done < w {
                let n = (w - done).min(self.storage_run(x + done));
                let d0 = self.index_of(x + done, y + row);
                self.data[d0..d0 + n].copy_from_slice(&pixels[row * w + done..row * w + done + n]);
                done += n;
            }
        }
    }

    /// Lends the `w × h` rectangle at (`x`, `y`) of a row-major plane for
    /// writing in place: the storage from the rectangle's top-left sample
    /// on, rows [`stride`](Plane::stride) apart — the mutable twin of
    /// [`region_at`](Plane::region_at), and what a reconstructed
    /// macroblock is written through. Panics on a tiled plane or a
    /// rectangle out of bounds.
    pub fn lend_mut(&mut self, x: usize, y: usize, w: usize, h: usize) -> &mut [u8] {
        assert!(!self.is_tiled(), "Plane::lend_mut needs a row-major plane");
        assert!(
            x + w <= self.width && y + h <= self.height,
            "rect out of bounds"
        );
        let start = self.index_of(x, y);
        &mut self.data[start..]
    }

    /// Copies a `w × h` region at (`x0`, `y0`) into `out` (tightly packed,
    /// stride `w`), clamping the region into the plane (deterministic edge
    /// extension for non-conforming motion vectors). This is the gather
    /// path every [`ReferenceFetcher`](crate::motion::ReferenceFetcher)
    /// funnels through.
    pub fn fetch_clamped(&self, x0: i32, y0: i32, w: usize, h: usize, out: &mut [u8]) {
        let cx = x0.clamp(0, (self.width - w) as i32) as usize;
        let cy = y0.clamp(0, (self.height - h) as i32) as usize;
        debug_assert_eq!(out.len(), w * h);
        for row in 0..h {
            let mut done = 0;
            while done < w {
                let n = (w - done).min(self.storage_run(cx + done));
                let s0 = self.index_of(cx + done, cy + row);
                out[row * w + done..row * w + done + n].copy_from_slice(&self.data[s0..s0 + n]);
                done += n;
            }
        }
    }

    /// Zero-copy borrow of a `w × h` region when its pixels are contiguous
    /// rows at a fixed stride in backing storage: any fully interior
    /// region of a row-major plane, or a region of a tiled plane that
    /// falls entirely inside one tile. Returns the slice starting at the
    /// region's top-left pixel plus the storage stride, exactly the pair
    /// [`ReferenceFetcher::region`](crate::motion::ReferenceFetcher::region)
    /// hands to the half-pel kernels. `None` means the caller must gather
    /// with [`fetch_clamped`](Plane::fetch_clamped).
    pub fn region_at(&self, x0: i32, y0: i32, w: usize, h: usize) -> Option<(&[u8], usize)> {
        debug_assert!(w > 0 && h > 0);
        if x0 < 0 || y0 < 0 {
            return None;
        }
        let (x, y) = (x0 as usize, y0 as usize);
        if x + w > self.width || y + h > self.height {
            return None;
        }
        match self.layout {
            Layout::RowMajor => Some((&self.data[y * self.stride + x..], self.stride)),
            Layout::Tiled { shift } => {
                let m = (1usize << shift) - 1;
                // Must not straddle a tile boundary in either axis.
                if (x & !m) != ((x + w - 1) & !m) || (y & !m) != ((y + h - 1) & !m) {
                    return None;
                }
                Some((&self.data[self.index_of(x, y)..], self.stride))
            }
        }
    }

    /// Issues software prefetches for the rows backing a `w × h` region at
    /// (`x0`, `y0`), clamped into the plane the same way
    /// [`fetch_clamped`](Plane::fetch_clamped) clamps. Dispatches through
    /// the active kernel set (`_mm_prefetch` on x86, no-op on scalar), so
    /// it never faults and costs nothing where unsupported. Advisory, and
    /// a no-op on a tiled plane.
    pub fn prefetch_rect(&self, x0: i32, y0: i32, w: usize, h: usize) {
        if w == 0 || h == 0 || w > self.width || h > self.height || self.is_tiled() {
            return;
        }
        let x = x0.clamp(0, (self.width - w) as i32) as usize;
        let y = y0.clamp(0, (self.height - h) as i32) as usize;
        let k = crate::kernels::active();
        for row in y..y + h {
            let i = row * self.stride + x;
            (k.prefetch)(&self.data[i..i + w]);
        }
    }
}

/// A mutable borrow of a horizontal band of a row-major [`Plane`]: the
/// pixel rows `[y0, y1)`, backed by exactly that band's storage bytes.
///
/// This is the safety primitive under slice-parallel pixel
/// reconstruction: a band of rows is one contiguous storage segment, so a
/// plane splits into disjoint `&mut` bands with `split_at_mut` — no
/// `unsafe`, no locks, and the borrow checker proves writers can never
/// alias. See DESIGN.md §12.
pub struct PlaneBandMut<'a> {
    y0: usize,
    y1: usize,
    width: usize,
    stride: usize,
    data: &'a mut [u8],
}

impl Plane {
    /// Borrows the whole plane as one mutable row band (`[0, height)`),
    /// the starting point for [`PlaneBandMut::split_at_row`]. Panics on a
    /// tiled plane.
    pub fn as_band_mut(&mut self) -> PlaneBandMut<'_> {
        assert!(!self.is_tiled(), "row bands need a row-major plane");
        PlaneBandMut {
            y0: 0,
            y1: self.height,
            width: self.width,
            stride: self.stride,
            data: &mut self.data,
        }
    }

    /// Splits the plane into `cuts.len() + 1` disjoint mutable row bands:
    /// `[0, cuts[0])`, `[cuts[0], cuts[1])`, …, `[last, height)`. Cuts
    /// must be strictly increasing and inside `(0, height)`.
    ///
    /// Convenience wrapper over [`PlaneBandMut::split_at_row`]; hot paths
    /// that must not allocate split band-by-band instead.
    pub fn disjoint_row_bands(&mut self, cuts: &[usize]) -> Vec<PlaneBandMut<'_>> {
        let mut out = Vec::with_capacity(cuts.len() + 1);
        let mut rest = self.as_band_mut();
        for &cut in cuts {
            let (head, tail) = rest.split_at_row(cut);
            out.push(head);
            rest = tail;
        }
        out.push(rest);
        out
    }
}

impl<'a> PlaneBandMut<'a> {
    /// First pixel row covered by this band.
    pub fn y0(&self) -> usize {
        self.y0
    }

    /// One past the last pixel row covered by this band.
    pub fn y1(&self) -> usize {
        self.y1
    }

    /// Plane width in pixels (bands span the full width).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Splits the band into `[y0, y)` and `[y, y1)` — two disjoint `&mut`
    /// borrows of the underlying storage. `y` must lie strictly inside
    /// the band.
    pub fn split_at_row(self, y: usize) -> (PlaneBandMut<'a>, PlaneBandMut<'a>) {
        assert!(self.y0 < y && y < self.y1, "split row outside band");
        let (head, tail) = self.data.split_at_mut((y - self.y0) * self.stride);
        (
            PlaneBandMut {
                y0: self.y0,
                y1: y,
                width: self.width,
                stride: self.stride,
                data: head,
            },
            PlaneBandMut {
                y0: y,
                y1: self.y1,
                width: self.width,
                stride: self.stride,
                data: tail,
            },
        )
    }

    /// Byte offset of logical pixel (`x`, `y`) within the band's storage.
    /// `y` is in plane coordinates and must be inside `[y0, y1)`.
    #[inline(always)]
    fn index_of(&self, x: usize, y: usize) -> usize {
        (y - self.y0) * self.stride + x
    }

    /// Pixel accessor in plane coordinates (test/debug convenience).
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(
            x < self.width && y >= self.y0 && y < self.y1,
            "pixel outside band"
        );
        self.data[self.index_of(x, y)]
    }

    /// Lends the `w × h` rectangle at plane coordinates (`x`, `y`) for
    /// writing in place, like [`Plane::lend_mut`]; the rectangle must fall
    /// inside the band.
    pub fn lend_mut(&mut self, x: usize, y: usize, w: usize, h: usize) -> &mut [u8] {
        assert!(
            x + w <= self.width && y >= self.y0 && y + h <= self.y1,
            "rect outside band"
        );
        let start = self.index_of(x, y);
        &mut self.data[start..]
    }

    /// Overwrites the whole band from a tightly packed `width × (y1 - y0)`
    /// pixel buffer. The band is one contiguous segment (planes are built
    /// with `stride == width`), so this is a single `memcpy`: the
    /// band-assembly path of the parallel pixel stage.
    pub fn copy_from_packed(&mut self, pixels: &[u8]) {
        assert_eq!(pixels.len(), self.width * (self.y1 - self.y0));
        self.data.copy_from_slice(pixels);
    }
}

impl std::fmt::Debug for PlaneBandMut<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PlaneBandMut({}x[{}, {}))", self.width, self.y0, self.y1)
    }
}

/// Iterator over the contiguous storage segments of one pixel row; see
/// [`Plane::row_segments`].
pub struct RowSegments<'a> {
    plane: &'a Plane,
    y: usize,
    x: usize,
}

impl<'a> Iterator for RowSegments<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.x >= self.plane.width {
            return None;
        }
        let n = (self.plane.width - self.x).min(self.plane.storage_run(self.x));
        let i = self.plane.index_of(self.x, self.y);
        self.x += n;
        Some(&self.plane.data[i..i + n])
    }
}

/// Compares one logical pixel row of two equal-width planes, walking both
/// planes' storage segments in lockstep (no allocation, any layout mix).
fn rows_equal(a: &Plane, b: &Plane, y: usize) -> bool {
    let mut x = 0;
    while x < a.width {
        let n = (a.width - x).min(a.storage_run(x)).min(b.storage_run(x));
        let ia = a.index_of(x, y);
        let ib = b.index_of(x, y);
        if a.data[ia..ia + n] != b.data[ib..ib + n] {
            return false;
        }
        x += n;
    }
    true
}

impl PartialEq for Plane {
    /// Logical-pixel equality: layout and edge-tile padding are invisible.
    /// Same-layout planes short-circuit to a whole-buffer compare (padding
    /// is canonical — always the last `fill` value, zero from
    /// construction — so it never distinguishes logically equal planes).
    fn eq(&self, other: &Self) -> bool {
        if self.width != other.width || self.height != other.height {
            return false;
        }
        if self.layout == other.layout {
            return self.data == other.data;
        }
        (0..self.height).all(|y| rows_equal(self, other, y))
    }
}

impl Eq for Plane {}

impl std::hash::Hash for Plane {
    /// Layout-independent hash over the logical pixel stream. Pixels are
    /// gathered into fixed 256-byte chunks before each `Hasher::write`, so
    /// the write-call sequence (not just the byte stream) is identical for
    /// every layout — equal planes hash equal under *any* `Hasher`, not
    /// only byte-stream-transparent ones like SipHash.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.width.hash(state);
        self.height.hash(state);
        let mut buf = [0u8; 256];
        let mut fill = 0;
        for y in 0..self.height {
            for seg in self.row_segments(y) {
                let mut s = seg;
                while !s.is_empty() {
                    let n = (buf.len() - fill).min(s.len());
                    buf[fill..fill + n].copy_from_slice(&s[..n]);
                    fill += n;
                    s = &s[n..];
                    if fill == buf.len() {
                        state.write(&buf);
                        fill = 0;
                    }
                }
            }
        }
        if fill > 0 {
            state.write(&buf[..fill]);
        }
    }
}

impl std::fmt::Debug for Plane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.layout {
            Layout::RowMajor => write!(f, "Plane({}x{})", self.width, self.height),
            Layout::Tiled { shift } => write!(
                f,
                "Plane({}x{}, {t}x{t} tiled)",
                self.width,
                self.height,
                t = 1usize << shift
            ),
        }
    }
}

/// A planar 4:2:0 YCbCr frame. Luma dimensions must be even.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    /// Luma plane, full resolution.
    pub y: Plane,
    /// Blue-difference chroma, half resolution in both dimensions.
    pub cb: Plane,
    /// Red-difference chroma, half resolution in both dimensions.
    pub cr: Plane,
}

impl Frame {
    /// Creates a black (Y=16 equivalent 0, chroma neutral 128) row-major
    /// frame.
    pub fn black(width: usize, height: usize) -> Self {
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "4:2:0 needs even dimensions"
        );
        Frame {
            y: Plane::new(width, height),
            cb: Plane::filled(width / 2, height / 2, 128),
            cr: Plane::filled(width / 2, height / 2, 128),
        }
    }

    /// Creates an all-zero row-major frame (used for reference slots
    /// before the first I picture).
    pub fn zeroed(width: usize, height: usize) -> Self {
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "4:2:0 needs even dimensions"
        );
        Frame {
            y: Plane::new(width, height),
            cb: Plane::new(width / 2, height / 2),
            cr: Plane::new(width / 2, height / 2),
        }
    }

    /// Creates an all-zero macroblock-tiled frame: 16×16 luma tiles, 8×8
    /// chroma tiles. No decoder uses it; see [`Layout`].
    pub fn zeroed_tiled(width: usize, height: usize) -> Self {
        assert!(
            width.is_multiple_of(2) && height.is_multiple_of(2),
            "4:2:0 needs even dimensions"
        );
        Frame {
            y: Plane::new_tiled(width, height, LUMA_TILE_SHIFT),
            cb: Plane::new_tiled(width / 2, height / 2, CHROMA_TILE_SHIFT),
            cr: Plane::new_tiled(width / 2, height / 2, CHROMA_TILE_SHIFT),
        }
    }

    /// A shared 16×16 all-zero frame for the reference slots of intra
    /// pictures, which are wired up but never read. Allocated once per
    /// process.
    pub fn placeholder() -> &'static Frame {
        static PLACEHOLDER: std::sync::OnceLock<Frame> = std::sync::OnceLock::new();
        PLACEHOLDER.get_or_init(|| Frame::zeroed(16, 16))
    }

    /// True when the frame's planes use tiled storage.
    pub fn is_tiled(&self) -> bool {
        self.y.is_tiled()
    }

    /// Luma width in pixels.
    pub fn width(&self) -> usize {
        self.y.width()
    }

    /// Luma height in pixels.
    pub fn height(&self) -> usize {
        self.y.height()
    }

    /// Peak signal-to-noise ratio of the luma plane against `other`, in dB.
    /// Returns `f64::INFINITY` for identical planes.
    pub fn psnr_luma(&self, other: &Frame) -> f64 {
        assert_eq!(self.width(), other.width());
        assert_eq!(self.height(), other.height());
        plane_psnr(&self.y, &other.y)
    }

    /// Borrows the whole frame as one mutable macroblock-row band, the
    /// starting point for [`FrameBandMut::split_at_mb_row`].
    pub fn as_band_mut(&mut self) -> FrameBandMut<'_> {
        FrameBandMut {
            y: self.y.as_band_mut(),
            cb: self.cb.as_band_mut(),
            cr: self.cr.as_band_mut(),
        }
    }

    /// Splits the frame into `cuts.len() + 1` disjoint mutable bands at
    /// the given macroblock-row boundaries (strictly increasing, inside
    /// `(0, mb_height)`). Each band covers luma rows `[16·r0, 16·r1)` and
    /// chroma rows `[8·r0, 8·r1)` of all three planes — see
    /// [`Plane::disjoint_row_bands`] for the allocation-free variant.
    pub fn disjoint_mb_row_bands(&mut self, cuts: &[usize]) -> Vec<FrameBandMut<'_>> {
        let mut out = Vec::with_capacity(cuts.len() + 1);
        let mut rest = self.as_band_mut();
        for &cut in cuts {
            let (head, tail) = rest.split_at_mb_row(cut);
            out.push(head);
            rest = tail;
        }
        out.push(rest);
        out
    }

    /// PSNR of all three planes combined (weighted by sample count), in dB.
    pub fn psnr(&self, other: &Frame) -> f64 {
        assert_eq!(self.width(), other.width());
        assert_eq!(self.height(), other.height());
        let (se_y, n_y) = plane_sse(&self.y, &other.y);
        let (se_cb, n_cb) = plane_sse(&self.cb, &other.cb);
        let (se_cr, n_cr) = plane_sse(&self.cr, &other.cr);
        let sse = se_y + se_cb + se_cr;
        if sse == 0 {
            return f64::INFINITY;
        }
        let mse = sse as f64 / (n_y + n_cb + n_cr) as f64;
        10.0 * (255.0f64 * 255.0 / mse).log10()
    }
}

fn plane_sse(a: &Plane, b: &Plane) -> (u64, u64) {
    let mut sse = 0u64;
    for y in 0..a.height() {
        // Walk both planes' storage segments in lockstep (layouts may
        // differ, e.g. a tiled decode compared against a row-major
        // reference frame).
        let mut x = 0;
        while x < a.width() {
            let n = (a.width() - x).min(a.storage_run(x)).min(b.storage_run(x));
            let ia = a.index_of(x, y);
            let ib = b.index_of(x, y);
            for (&pa, &pb) in a.data[ia..ia + n].iter().zip(&b.data[ib..ib + n]) {
                let d = pa as i64 - pb as i64;
                sse += (d * d) as u64;
            }
            x += n;
        }
    }
    (sse, (a.width() * a.height()) as u64)
}

fn plane_psnr(a: &Plane, b: &Plane) -> f64 {
    let (sse, n) = plane_sse(a, b);
    if sse == 0 {
        return f64::INFINITY;
    }
    let mse = sse as f64 / n as f64;
    10.0 * (255.0f64 * 255.0 / mse).log10()
}

impl std::fmt::Debug for Frame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Frame({}x{})", self.width(), self.height())
    }
}

/// A mutable borrow of a horizontal macroblock-row band of a [`Frame`]:
/// one [`PlaneBandMut`] per plane, all covering the same macroblock rows
/// (luma rows `[16·r0, 16·r1)`, chroma rows `[8·r0, 8·r1)`).
///
/// Implements `MbSink` (in `recon.rs`), so a band is a drop-in
/// reconstruction target: slice replay writes its macroblocks into the
/// band while sibling bands of the same frame are written concurrently by
/// other threads — disjointness is proven by the borrow checker, not by a
/// lock.
#[derive(Debug)]
pub struct FrameBandMut<'a> {
    /// Luma band.
    pub y: PlaneBandMut<'a>,
    /// Blue-difference chroma band (half resolution).
    pub cb: PlaneBandMut<'a>,
    /// Red-difference chroma band (half resolution).
    pub cr: PlaneBandMut<'a>,
}

impl<'a> FrameBandMut<'a> {
    /// First macroblock row covered by this band.
    pub fn mb_y0(&self) -> usize {
        self.y.y0() / 16
    }

    /// One past the last macroblock row covered by this band.
    pub fn mb_y1(&self) -> usize {
        self.y.y1().div_ceil(16)
    }

    /// Splits the band at macroblock row `mb_row` into two disjoint
    /// mutable bands (see [`PlaneBandMut::split_at_row`]).
    pub fn split_at_mb_row(self, mb_row: usize) -> (FrameBandMut<'a>, FrameBandMut<'a>) {
        let (y_head, y_tail) = self.y.split_at_row(mb_row * 16);
        let (cb_head, cb_tail) = self.cb.split_at_row(mb_row * 8);
        let (cr_head, cr_tail) = self.cr.split_at_row(mb_row * 8);
        (
            FrameBandMut {
                y: y_head,
                cb: cb_head,
                cr: cr_head,
            },
            FrameBandMut {
                y: y_tail,
                cb: cb_tail,
                cr: cr_tail,
            },
        )
    }
}

/// Recycles [`Frame`] allocations across pictures.
///
/// Decoders allocate one picture-sized frame per decoded picture; with a
/// pool the steady state reuses the same buffers instead (zero heap
/// traffic per picture once warm). The pool is a cache, **not** state:
/// it hashes to nothing and clones empty, so two decoders that differ
/// only in pooled garbage still compare/hash equal (the model checker
/// and the probe-clone paths in the simulator rely on this).
#[derive(Default)]
pub struct FramePool {
    free: Vec<Frame>,
}

/// Upper bound on retained frames; enough for current + two references +
/// cropped output per decoder, with headroom for ping-ponging.
const FRAME_POOL_CAP: usize = 8;

impl FramePool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        FramePool::default()
    }

    /// Returns a row-major `width × height` frame whose contents are
    /// **unspecified**: a pooled frame of matching dimensions as it was
    /// released (its last picture, or whatever a consumer left in it), else
    /// a fresh allocation. The caller owes every sample a value before the
    /// frame leaves it — decoders pay with
    /// [`MbCoverage`](crate::recon::MbCoverage), which zeroes what a
    /// picture did not write.
    pub fn acquire_stale(&mut self, width: usize, height: usize) -> Frame {
        self.take(width, height)
            .unwrap_or_else(|| Frame::zeroed(width, height))
    }

    /// Returns a copy of the `w × h` luma rectangle of `src` at (`x`, `y`)
    /// (all even) and of the chroma under it, in a pooled frame when one
    /// matches. The copy overwrites every byte of its target, so the
    /// recycled frame is not zeroed first.
    pub fn acquire_crop(&mut self, src: &Frame, x: usize, y: usize, w: usize, h: usize) -> Frame {
        let mut f = self.acquire_stale(w, h);
        f.y.blit_from(&src.y, x, y, 0, 0, w, h);
        f.cb.blit_from(&src.cb, x / 2, y / 2, 0, 0, w / 2, h / 2);
        f.cr.blit_from(&src.cr, x / 2, y / 2, 0, 0, w / 2, h / 2);
        f
    }

    /// Takes a pooled row-major frame of these dimensions, contents stale.
    fn take(&mut self, width: usize, height: usize) -> Option<Frame> {
        let pos = self
            .free
            .iter()
            .position(|f| f.width() == width && f.height() == height && !f.is_tiled())?;
        Some(self.free.swap_remove(pos))
    }

    /// Returns a frame to the pool for reuse. Frames beyond the retention
    /// cap are dropped on the spot.
    pub fn release(&mut self, frame: Frame) {
        if self.free.len() < FRAME_POOL_CAP {
            self.free.push(frame);
        }
    }

    /// Number of frames currently cached.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True when no frames are cached.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

impl Clone for FramePool {
    /// Clones to an *empty* pool: a clone is a fresh decoder identity and
    /// must not share or count cached garbage.
    fn clone(&self) -> Self {
        FramePool::default()
    }
}

impl PartialEq for FramePool {
    /// Pools compare equal regardless of contents (cache, not state).
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for FramePool {}

impl std::hash::Hash for FramePool {
    /// Hashes nothing: pooled garbage must not affect decoder identity.
    fn hash<H: std::hash::Hasher>(&self, _state: &mut H) {}
}

impl std::fmt::Debug for FramePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FramePool({} free)", self.free.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plane_round_trips_rects() {
        let mut p = Plane::new(32, 16);
        let patch: Vec<u8> = (0..64).collect();
        p.insert(8, 4, 8, 8, &patch);
        let mut back = vec![0u8; 64];
        p.extract_into(8, 4, 8, 8, &mut back);
        assert_eq!(back, patch);
        assert_eq!(p.get(8, 4), 0);
        assert_eq!(p.get(15, 11), 63);
    }

    #[test]
    fn row_segments_concatenate_to_the_logical_row() {
        let (w, h) = (40, 24);
        let mut tiled = Plane::new_tiled(w, h, LUMA_TILE_SHIFT);
        let mut rm = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                let v = ((x * 3 + y * 11) % 253) as u8;
                tiled.set(x, y, v);
                rm.set(x, y, v);
            }
        }
        for y in 0..h {
            let cat: Vec<u8> = tiled.row_segments(y).flatten().copied().collect();
            assert_eq!(cat, rm.row(y), "row {y}");
            // Tiled rows split at 16-pixel tile boundaries: 16 + 16 + 8.
            let lens: Vec<usize> = tiled.row_segments(y).map(|s| s.len()).collect();
            assert_eq!(lens, vec![16, 16, 8]);
        }
    }

    #[test]
    #[should_panic(expected = "tiled plane")]
    fn row_on_tiled_plane_panics() {
        let p = Plane::new_tiled(32, 32, LUMA_TILE_SHIFT);
        let _ = p.row(0);
    }

    #[test]
    fn region_at_borrows_only_unstraddled_regions() {
        let mut p = Plane::new_tiled(64, 64, LUMA_TILE_SHIFT);
        for y in 0..64 {
            for x in 0..64 {
                p.set(x, y, ((x + y * 64) % 255) as u8);
            }
        }
        // Whole aligned tile: contiguous borrow at tile stride.
        let (s, stride) = p.region_at(16, 32, 16, 16).expect("aligned tile");
        assert_eq!(stride, 16);
        for y in 0..16 {
            for x in 0..16 {
                assert_eq!(s[y * stride + x], p.get(16 + x, 32 + y));
            }
        }
        // Sub-tile region that stays inside one tile.
        let (s, stride) = p.region_at(20, 36, 8, 8).expect("in-tile sub-region");
        assert_eq!(s[0], p.get(20, 36));
        assert_eq!(s[7 * stride + 7], p.get(27, 43));
        // Straddles in x, straddles in y, out of bounds: all gather paths.
        assert!(p.region_at(10, 0, 16, 16).is_none());
        assert!(p.region_at(0, 10, 16, 16).is_none());
        assert!(p.region_at(-1, 0, 16, 16).is_none());
        assert!(p.region_at(49, 0, 16, 16).is_none());
        // Row-major planes still borrow any interior region.
        let rm = Plane::new(64, 64);
        let (_, stride) = rm.region_at(10, 10, 17, 17).expect("interior");
        assert_eq!(stride, 64);
    }

    #[test]
    fn blit_copies_between_planes() {
        let mut src = Plane::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                src.set(x, y, (x + y * 16) as u8);
            }
        }
        let mut dst = Plane::new(8, 8);
        dst.blit_from(&src, 4, 4, 0, 0, 8, 8);
        assert_eq!(dst.get(0, 0), src.get(4, 4));
        assert_eq!(dst.get(7, 7), src.get(11, 11));
    }

    #[test]
    fn blit_round_trips_across_layouts() {
        let (w, h) = (48, 32);
        let mut rm = Plane::new(w, h);
        for y in 0..h {
            for x in 0..w {
                rm.set(x, y, ((x * 5 + y * 9) % 247) as u8);
            }
        }
        let mut tiled = Plane::new_tiled(w, h, LUMA_TILE_SHIFT);
        tiled.blit_from(&rm, 0, 0, 0, 0, w, h);
        assert_eq!(tiled, rm);
        let mut back = Plane::new(w, h);
        back.blit_from(&tiled, 0, 0, 0, 0, w, h);
        assert_eq!(back.data(), rm.data());
        // Unaligned sub-rect through a tile boundary.
        let mut dst = Plane::new_tiled(20, 20, CHROMA_TILE_SHIFT);
        dst.blit_from(&rm, 7, 5, 3, 2, 13, 11);
        for y in 0..11 {
            for x in 0..13 {
                assert_eq!(dst.get(3 + x, 2 + y), rm.get(7 + x, 5 + y));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn blit_panics_out_of_bounds() {
        let src = Plane::new(8, 8);
        let mut dst = Plane::new(8, 8);
        dst.blit_from(&src, 4, 4, 4, 4, 8, 8);
    }

    #[test]
    fn equality_and_hash_are_layout_independent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let (w, h) = (40, 24);
        let mut rm = Plane::new(w, h);
        let mut tiled = Plane::new_tiled(w, h, LUMA_TILE_SHIFT);
        for y in 0..h {
            for x in 0..w {
                let v = ((x * 31 + y * 17) % 256) as u8;
                rm.set(x, y, v);
                tiled.set(x, y, v);
            }
        }
        let hash = |p: &Plane| {
            let mut s = DefaultHasher::new();
            p.hash(&mut s);
            s.finish()
        };
        assert_eq!(rm, tiled);
        assert_eq!(tiled, rm);
        assert_eq!(hash(&rm), hash(&tiled), "equal planes must hash equal");
        tiled.set(39, 23, tiled.get(39, 23).wrapping_add(1));
        assert_ne!(rm, tiled);
    }

    #[test]
    fn prefetch_rect_stays_in_bounds() {
        // Behavior is a no-op (scalar) or a cache hint (x86); the test is
        // that clamping keeps every touched slice in bounds.
        let rm = Plane::new(40, 24);
        rm.prefetch_rect(-5, -5, 17, 17);
        rm.prefetch_rect(35, 20, 17, 17);
        rm.prefetch_rect(100, 100, 17, 17);
        // Degenerate sizes bail out instead of clamping nonsense.
        rm.prefetch_rect(0, 0, 0, 16);
        rm.prefetch_rect(0, 0, 64, 64);
        // Tiled rows are not contiguous: nothing is touched.
        Plane::new_tiled(40, 24, LUMA_TILE_SHIFT).prefetch_rect(8, 8, 16, 16);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let f = Frame::black(32, 32);
        assert_eq!(f.psnr_luma(&f.clone()), f64::INFINITY);
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let a = Frame::black(32, 32);
        let mut b = a.clone();
        b.y.set(0, 0, 10);
        let mut c = a.clone();
        for x in 0..32 {
            c.y.set(x, 0, 50);
        }
        assert!(a.psnr_luma(&b) > a.psnr_luma(&c));
    }

    #[test]
    fn psnr_works_across_layouts() {
        let mut rm = Frame::black(32, 32);
        let mut tiled = Frame::zeroed_tiled(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                rm.y.set(x, y, ((x + y) % 200) as u8);
                tiled.y.set(x, y, ((x + y) % 200) as u8);
            }
        }
        // Chroma differs (black=128 vs zeroed=0) so combined PSNR is
        // finite while luma matches exactly.
        assert_eq!(rm.psnr_luma(&tiled), f64::INFINITY);
        assert!(rm.psnr(&tiled).is_finite());
    }

    #[test]
    fn combined_psnr_includes_chroma() {
        let a = Frame::black(32, 32);
        let mut b = a.clone();
        // Luma identical; chroma differs -> psnr_luma infinite, psnr finite.
        b.cb.set(0, 0, 0);
        assert_eq!(a.psnr_luma(&b), f64::INFINITY);
        assert!(a.psnr(&b).is_finite());
    }

    #[test]
    fn frame_pool_reuses_matching_dimensions() {
        let mut pool = FramePool::new();
        let mut f = pool.acquire_stale(32, 16);
        assert_eq!(f, Frame::zeroed(32, 16), "a fresh frame is zeroed");
        f.y.set(3, 3, 77);
        pool.release(f);
        pool.release(Frame::zeroed(64, 64));
        assert_eq!(pool.len(), 2);
        // Same dims → recycled as released, stale sample and all.
        let f2 = pool.acquire_stale(32, 16);
        assert_eq!(f2.y.get(3, 3), 77);
        assert_eq!(pool.len(), 1);
        // No match → fresh allocation, pool untouched.
        let f3 = pool.acquire_stale(16, 16);
        assert_eq!((f3.width(), f3.height()), (16, 16));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn frame_pool_matches_layout_not_just_dimensions() {
        let mut pool = FramePool::new();
        pool.release(Frame::zeroed_tiled(32, 16));
        // Row-major request must not surface the tiled frame.
        let f = pool.acquire_stale(32, 16);
        assert!(!f.is_tiled());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn acquire_crop_overwrites_a_stale_pooled_frame() {
        let mut src = Frame::zeroed(32, 32);
        for y in 0..32 {
            for x in 0..32 {
                src.y.set(x, y, (x + y * 32) as u8);
            }
        }
        src.cb.set(4, 4, 9);
        let mut stale = Frame::zeroed(16, 16);
        stale.y.fill(0xAA);
        stale.cb.fill(0xAA);
        stale.cr.fill(0xAA);
        let mut pool = FramePool::new();
        pool.release(stale);
        let recycled = pool.acquire_crop(&src, 8, 8, 16, 16);
        assert!(pool.is_empty(), "the pooled frame was reused");
        let fresh = FramePool::new().acquire_crop(&src, 8, 8, 16, 16);
        assert_eq!(recycled, fresh);
        assert_eq!(fresh.y.get(0, 0), src.y.get(8, 8));
        assert_eq!(fresh.cb.get(0, 0), 9);
        assert_eq!(fresh.cr.get(7, 7), 0);
    }

    #[test]
    fn frame_pool_is_identity_transparent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut a = FramePool::new();
        a.release(Frame::zeroed(16, 16));
        let b = FramePool::new();
        assert_eq!(a, b);
        assert!(a.clone().is_empty(), "clones start empty");
        let hash = |p: &FramePool| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    /// Rows lent by a band are exactly the bytes the whole plane lends for
    /// the same rectangle.
    #[test]
    fn row_bands_match_whole_plane_writes() {
        let (w, h) = (48usize, 64usize);
        let mut whole = Plane::new(w, h);
        let mut banded = Plane::new(w, h);
        let stamp = |rows: &mut [u8], stride: usize| {
            for y in 0..16 {
                for x in 0..16 {
                    rows[y * stride + x] = ((y * 16 + x) % 251) as u8 + 1;
                }
            }
        };
        let rects = [(0, 0), (16, 32), (7, 48)];
        {
            let mut bands = banded.disjoint_row_bands(&[16, 48]);
            assert_eq!(bands.len(), 3);
            assert_eq!(
                bands.iter().map(|b| (b.y0(), b.y1())).collect::<Vec<_>>(),
                vec![(0, 16), (16, 48), (48, 64)]
            );
            // One 16x16 rectangle per band, at varying alignment.
            for (band, (x, y)) in bands.iter_mut().zip(rects) {
                stamp(band.lend_mut(x, y, 16, 16), w);
                assert_eq!(band.get(x, y), 1);
            }
        }
        for (x, y) in rects {
            stamp(whole.lend_mut(x, y, 16, 16), w);
        }
        assert_eq!(whole, banded);
        assert_eq!(whole.get(7 + 15, 48 + 15), 255 % 251 + 1);
        assert_eq!(whole.get(7 + 16, 48 + 15), 0, "nothing right of the rect");
    }

    #[test]
    fn copy_from_packed_assembles_bands() {
        let (w, h) = (40usize, 48usize);
        let mut plane = Plane::new(w, h);
        let packed: Vec<u8> = (0..w * h).map(|i| (i % 253) as u8).collect();
        {
            let (mut head, mut tail) = plane.as_band_mut().split_at_row(16);
            head.copy_from_packed(&packed[..w * 16]);
            tail.copy_from_packed(&packed[w * 16..]);
        }
        assert_eq!(plane.data(), &packed[..]);
    }

    #[test]
    #[should_panic(expected = "outside band")]
    fn band_lend_rejects_rows_outside_the_band() {
        let mut p = Plane::new(32, 32);
        let (mut head, _tail) = p.as_band_mut().split_at_row(16);
        head.lend_mut(0, 8, 16, 16);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn lend_rejects_rects_outside_the_plane() {
        Plane::new(32, 32).lend_mut(24, 0, 16, 16);
    }

    #[test]
    #[should_panic(expected = "row-major plane")]
    fn tiled_planes_do_not_band() {
        let mut p = Plane::new_tiled(32, 32, LUMA_TILE_SHIFT);
        let _ = p.as_band_mut();
    }

    #[test]
    fn frame_bands_split_luma_and_chroma_consistently() {
        let mut f = Frame::zeroed(32, 64);
        let mut bands = f.disjoint_mb_row_bands(&[1, 3]);
        assert_eq!(bands.len(), 3);
        assert_eq!(
            bands
                .iter()
                .map(|b| (b.mb_y0(), b.mb_y1()))
                .collect::<Vec<_>>(),
            vec![(0, 1), (1, 3), (3, 4)]
        );
        assert_eq!((bands[1].cb.y0(), bands[1].cb.y1()), (8, 24));
        bands[1].y.lend_mut(0, 16, 16, 16)[0] = 9;
        bands[1].cb.lend_mut(0, 8, 8, 8)[0] = 7;
        drop(bands);
        assert_eq!(f.y.get(0, 16), 9);
        assert_eq!(f.cb.get(0, 8), 7);
        assert_eq!(f.y.get(0, 15), 0);
    }

    #[test]
    fn extract_into_matches_pixel_reads() {
        let mut p = Plane::new(32, 16);
        for y in 0..16 {
            for x in 0..32 {
                p.set(x, y, (x * 5 + y * 3) as u8);
            }
        }
        let mut out = vec![0u8; 48];
        p.extract_into(7, 2, 8, 6, &mut out);
        for y in 0..6 {
            for x in 0..8 {
                assert_eq!(out[y * 8 + x], p.get(7 + x, 2 + y));
            }
        }
    }

    #[test]
    fn black_frame_has_neutral_chroma() {
        let f = Frame::black(16, 16);
        assert_eq!(f.cb.get(3, 3), 128);
        assert_eq!(f.cr.get(7, 7), 128);
        assert_eq!(f.cb.width(), 8);
    }

    #[test]
    fn zeroed_tiled_geometry() {
        let f = Frame::zeroed_tiled(48, 32);
        assert!(f.is_tiled());
        assert_eq!(f.y.stride(), 16);
        assert_eq!(f.cb.stride(), 8);
        assert_eq!(f.cb.width(), 24);
        // 3×2 luma tiles of 256 bytes.
        assert_eq!(f.y.data().len(), 3 * 2 * 256);
    }
}
