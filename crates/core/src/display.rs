//! Collects the [`DisplayTile`]s the decoders of a wall emit, in whatever
//! order they arrive, into the display-order frames of the playback.

use tiledec_mpeg2::frame::Frame;
use tiledec_wall::{Assembler, WallGeometry};

use crate::tile_decoder::DisplayTile;
use crate::{CoreError, Result};

/// One [`Assembler`] per displayed picture, opened by its first tile.
pub(crate) struct DisplayFrames {
    geom: WallGeometry,
    pictures: Vec<Option<Assembler>>,
}

impl DisplayFrames {
    /// Frames for a stream of `pictures` pictures on the wall `geom`.
    pub(crate) fn new(geom: WallGeometry, pictures: usize) -> Self {
        DisplayFrames {
            geom,
            pictures: (0..pictures).map(|_| None).collect(),
        }
    }

    /// Places the tile decoder `d` emitted into the frame it belongs to.
    pub(crate) fn place(&mut self, d: usize, dt: &DisplayTile) -> Result<()> {
        let geom = self.geom;
        let display = dt.display_index;
        self.pictures
            .get_mut(display as usize)
            .ok_or_else(|| CoreError::Protocol(format!("tile for frame {display} past the end")))?
            .get_or_insert_with(|| Assembler::new(geom))
            .place(geom.tile_at(d), &dt.frame)
            .map_err(|e| CoreError::Protocol(format!("frame {display}: {e}")))
    }

    /// The frames in display order; an error unless every tile of every
    /// picture was placed.
    pub(crate) fn finish(self) -> Result<Vec<Frame>> {
        let assemble = |(display, picture): (usize, Option<Assembler>)| {
            picture
                .ok_or_else(|| CoreError::Protocol(format!("no tiles for frame {display}")))?
                .finish()
                .map_err(|e| CoreError::Protocol(format!("frame {display}: {e}")))
        };
        self.pictures
            .into_iter()
            .enumerate()
            .map(assemble)
            .collect()
    }
}
