//! Tiled display-wall geometry and frame reassembly.
//!
//! The Princeton display wall drove an m × n grid of projectors with a
//! ~40-pixel overlap between adjacent tiles for edge blending. Two
//! consequences matter to the parallel decoder:
//!
//! * a macroblock near a seam falls inside **several** tiles' rectangles
//!   and is sent to (and decoded by) each of them — a measurable overhead
//!   the paper calls out for low-resolution streams;
//! * every macroblock still has exactly **one canonical owner** (ownership
//!   cuts run through the middle of each overlap region), which is the
//!   tile that serves the block to peers during MEI exchange.
//!
//! [`Assembler`] places tiles into the full frame as they arrive
//! (verifying that overlap regions agree between tiles), which is how the
//! test suite proves parallel output is bit-exact with sequential
//! decoding; [`Wall`] is the hold-then-assemble API over it.

#![warn(missing_docs)]

mod geometry;
mod wall;

pub use geometry::{PixelRect, TileId, WallGeometry};
pub use wall::{Assembler, Wall, WallError};
