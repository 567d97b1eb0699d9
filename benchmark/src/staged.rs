//! The cluster pipeline replayed **staged on one thread**, a span around
//! each call, the way `SimulatedSystem::run` profiles it: copy unit →
//! split → wire encode/decode per tile → MEI serve → block encode/decode
//! → MEI apply → prefetch + tile decode → wall set_tile/assemble.
//!
//! The calls and their order are the ones the node state machines in
//! `tiledec_core::machines` make on their threads, so the span totals are
//! the CPU the threaded run spends inside the layers; what the threads,
//! channels and hand-offs add on top is `core.threaded.runtime_overhead_ratio`.
//! Why a node waits inside the live threaded run is out of scope here.

use tiledec_core::mei::BLOCK_WIRE_BYTES;
use tiledec_core::protocol::{decode_blocks, decode_unit, encode_blocks, encode_unit, WorkUnit};
use tiledec_core::tile_decoder::DisplayTile;
use tiledec_core::{split_picture_units, MacroblockSplitter, SystemConfig, TileDecoder};
use tiledec_mpeg2::Frame;
use tiledec_wall::{Wall, WallGeometry};

use crate::trace::{SpanId, Tracer};

/// Exact work counts of one staged replay.
#[derive(Debug, Clone, Default)]
pub struct StagedCounts {
    /// Pictures replayed.
    pub pictures: usize,
    /// Tiles of the wall.
    pub tiles: usize,
    /// Σ `SplitStats::subpicture_bytes`.
    pub subpicture_bytes: u64,
    /// Σ `SplitStats::overhead_bytes`.
    pub overhead_bytes: i64,
    /// Σ `SplitStats::mei_instructions`.
    pub mei_instructions: u64,
    /// Reference blocks exchanged between tiles.
    pub blocks: u64,
    /// Bytes of encoded work units (sub-picture + MEI), all tiles.
    pub work_unit_bytes: u64,
}

/// Span names of the staged replay, one per layer call.
pub mod span {
    /// `split_picture_units` over the whole stream (the root's index).
    pub const ROOT_INDEX: &str = "root.index";
    /// `encode_unit`: the root's copy of a picture unit into a message.
    pub const ROOT_COPY: &str = "root.copy_unit";
    /// `decode_unit` + `MacroblockSplitter::split`.
    pub const SPLIT: &str = "split";
    /// `WorkUnit::encode` (sub-picture + MEI buffer), per tile.
    pub const WIRE_ENCODE: &str = "wire.encode";
    /// `WorkUnit::decode`, per tile.
    pub const WIRE_DECODE: &str = "wire.decode";
    /// `TileDecoder::extract_send_blocks`, per tile.
    pub const MEI_SERVE: &str = "mei.serve";
    /// `encode_blocks`, per (tile, peer) batch.
    pub const BLOCKS_ENCODE: &str = "blocks.encode";
    /// `decode_blocks`, per batch.
    pub const BLOCKS_DECODE: &str = "blocks.decode";
    /// `TileDecoder::apply_recv_blocks`, per batch.
    pub const MEI_APPLY: &str = "mei.apply";
    /// `prefetch_references` + `TileDecoder::decode`, per tile.
    pub const TILE_DECODE: &str = "tile.decode";
    /// `Wall::set_tile`, per displayed tile.
    pub const WALL_SET_TILE: &str = "wall.set_tile";
    /// `Wall::assemble(true)`, per picture.
    pub const WALL_ASSEMBLE: &str = "wall.assemble";
    /// Every span above: their sum is the staged CPU of the pipeline.
    pub const ALL: [&str; 12] = [
        ROOT_INDEX,
        ROOT_COPY,
        SPLIT,
        WIRE_ENCODE,
        WIRE_DECODE,
        MEI_SERVE,
        BLOCKS_ENCODE,
        BLOCKS_DECODE,
        MEI_APPLY,
        TILE_DECODE,
        WALL_SET_TILE,
        WALL_ASSEMBLE,
    ];
}

/// Per-picture tile hand-off, like `ThreadedSystem::play`: every tile is
/// held until the end, then each display index is assembled.
struct Walls {
    geom: WallGeometry,
    pending: Vec<(Wall, usize)>,
}

impl Walls {
    fn put(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        tile: usize,
        dt: DisplayTile,
    ) -> Result<(), String> {
        let slot = dt.display_index as usize;
        while self.pending.len() <= slot {
            self.pending.push((Wall::new(self.geom), 0));
        }
        let s = tr.begin(span::WALL_SET_TILE, Some(parent), slot as i32, tile as i32);
        let placed = self.pending[slot]
            .0
            .set_tile(self.geom.tile_at(tile), dt.frame);
        tr.end(s, 0);
        self.pending[slot].1 += 1;
        placed.map_err(|e| e.to_string())
    }
}

/// Replays `stream` through the `cfg` system on the calling thread and
/// returns the assembled display-order frames with the work counts. Spans
/// go to `tr`, stamped with its current pass.
pub fn replay(
    stream: &[u8],
    cfg: &SystemConfig,
    tr: &mut Tracer,
) -> Result<(Vec<Frame>, StagedCounts), String> {
    let err = |e: tiledec_core::CoreError| e.to_string();
    let root = tr.begin("staged.replay", None, -1, -1);

    let s = tr.begin(span::ROOT_INDEX, Some(root), -1, -1);
    let index = split_picture_units(stream).map_err(err)?;
    tr.end(s, stream.len() as u64);

    let seq = index.seq.clone();
    let geom = cfg.geometry(seq.width, seq.height).map_err(err)?;
    let tiles = geom.tiles() as usize;
    let k = cfg.k.max(1);
    let splitter = MacroblockSplitter::new(geom, seq.clone());
    let mut decoders: Vec<TileDecoder> = geom
        .iter_tiles()
        .map(|t| TileDecoder::new(geom, t, seq.clone(), cfg.halo_margin))
        .collect();
    let mut walls = Walls {
        geom,
        pending: Vec::new(),
    };
    let mut counts = StagedCounts {
        pictures: index.units.len(),
        tiles,
        ..StagedCounts::default()
    };

    for (p, &(start, end)) in index.units.iter().enumerate() {
        let pic = p as i32;
        let unit = &stream[start..end];
        let parent = tr.begin("staged.picture", Some(root), pic, -1);

        // Root: copy the unit into a message for splitter p mod k.
        let s = tr.begin(span::ROOT_COPY, Some(parent), pic, -1);
        let message = encode_unit(p as u32, ((p + 1) % k) as u16, unit);
        tr.end(s, message.len() as u64);

        // Splitter: unwrap, parse at macroblock level, sort into tiles.
        let s = tr.begin(span::SPLIT, Some(parent), pic, -1);
        let (picture_id, nsid, body) = decode_unit(&message).map_err(err)?;
        let out = splitter.split(picture_id, body).map_err(err)?;
        tr.end(s, body.len() as u64);
        counts.subpicture_bytes += out.stats.subpicture_bytes as u64;
        counts.overhead_bytes += out.stats.overhead_bytes as i64;
        counts.mei_instructions += out.stats.mei_instructions as u64;
        let kind = out.info.kind;

        // Splitter → decoder: one work unit per tile over the wire.
        let mut work = Vec::with_capacity(tiles);
        for d in 0..tiles {
            let s = tr.begin(span::WIRE_ENCODE, Some(parent), pic, d as i32);
            let payload = WorkUnit {
                picture_id,
                anid_node: 1 + nsid,
                mei: out.mei[d].clone(),
                subpicture: out.subpictures[d].clone(),
            }
            .encode();
            tr.end(s, payload.len() as u64);
            counts.work_unit_bytes += payload.len() as u64;

            let s = tr.begin(span::WIRE_DECODE, Some(parent), pic, d as i32);
            let unit = WorkUnit::decode(&payload).map_err(err)?;
            tr.end(s, payload.len() as u64);
            work.push(unit);
        }

        // Every decoder serves its MEI SENDs from its reference frames
        // before anyone decodes (§4.2) …
        let mut in_flight: Vec<(usize, usize, Vec<u8>)> = Vec::new();
        for (d, dec) in decoders.iter().enumerate() {
            let s = tr.begin(span::MEI_SERVE, Some(parent), pic, d as i32);
            let sends = dec.extract_send_blocks(kind, &work[d].mei).map_err(err)?;
            tr.end(s, 0);
            for (peer, blocks) in sends {
                counts.blocks += blocks.len() as u64;
                let s = tr.begin(span::BLOCKS_ENCODE, Some(parent), pic, d as i32);
                let payload = encode_blocks(picture_id, d as u16, &blocks);
                tr.end(s, payload.len() as u64);
                in_flight.push((d, peer, payload));
            }
        }
        // … and every peer blits what it was sent into its halo.
        for (_, peer, payload) in in_flight {
            let s = tr.begin(span::BLOCKS_DECODE, Some(parent), pic, peer as i32);
            let (_, from, blocks) = decode_blocks(&payload).map_err(err)?;
            tr.end(s, payload.len() as u64);
            let s = tr.begin(span::MEI_APPLY, Some(parent), pic, peer as i32);
            decoders[peer]
                .apply_recv_blocks(kind, &work[peer].mei, from as usize, &blocks)
                .map_err(err)?;
            tr.end(s, (blocks.len() * BLOCK_WIRE_BYTES) as u64);
        }

        for (d, dec) in decoders.iter_mut().enumerate() {
            let s = tr.begin(span::TILE_DECODE, Some(parent), pic, d as i32);
            dec.prefetch_references(kind, &work[d].mei);
            let shown = dec.decode(&work[d].subpicture).map_err(err)?;
            tr.end(s, 0);
            if let Some(dt) = shown {
                walls.put(tr, parent, d, dt)?;
            }
        }
        tr.end(parent, unit.len() as u64);
    }

    for (d, dec) in decoders.iter_mut().enumerate() {
        if let Some(dt) = dec.flush() {
            walls.put(tr, root, d, dt)?;
        }
    }
    let mut frames = Vec::with_capacity(counts.pictures);
    for (display, (wall, placed)) in walls.pending.iter().enumerate() {
        if *placed != tiles {
            return Err(format!("frame {display} has {placed}/{tiles} tiles"));
        }
        let s = tr.begin(span::WALL_ASSEMBLE, Some(root), display as i32, -1);
        let frame = wall.assemble(true).map_err(|e| e.to_string())?;
        tr.end(s, 0);
        frames.push(frame);
    }
    tr.end(root, stream.len() as u64);
    Ok((frames, counts))
}
