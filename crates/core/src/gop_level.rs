//! An executable GOP-level parallel decoder — the strongest of the
//! coarse-grained baselines the paper's Table 1 weighs against macroblock
//! splitting.
//!
//! Closed GOPs are self-contained, so decoders need no inter-decoder
//! communication at all: the root hands whole GOPs round-robin to
//! decoders, each decodes *full* pictures sequentially, and then ships
//! every tile it does not display to the node that does — the "very high"
//! pixel-redistribution cost the paper's design eliminates.
//!
//! The implementation runs in-process (the redistribution volume, not
//! wall-clock concurrency, is what the comparison needs) and accounts all
//! redistribution bytes in a [`TrafficMatrix`] with the same node layout
//! as the hierarchical system: node 0 is the distributing root, nodes
//! 1..=d the decoders/display nodes.

use tiledec_bitstream::{StartCode, StartCodeScanner};
use tiledec_cluster::stats::TrafficMatrix;
use tiledec_mpeg2::frame::{Frame, FramePool};
use tiledec_mpeg2::Decoder;
use tiledec_wall::{Assembler, WallGeometry};

use crate::{CoreError, Result};

/// Result of a GOP-level parallel run.
pub struct GopLevelResult {
    /// Reassembled frames in display order (bit-exact with sequential
    /// decoding — the baseline is *correct*, just expensive).
    pub frames: Vec<Frame>,
    /// Bytes moved, node layout `[root, decoder 0 .. decoder d-1]`.
    /// Root→decoder entries are compressed GOP bytes; decoder→decoder
    /// entries are redistributed pixels.
    pub traffic: TrafficMatrix,
    /// Number of GOPs dispatched.
    pub gops: usize,
}

/// Byte ranges of each GOP (from its GOP header through the last byte
/// before the next GOP header / sequence end), plus the stream prologue.
fn gop_ranges(stream: &[u8]) -> Result<(usize, Vec<(usize, usize)>)> {
    let mut scanner = StartCodeScanner::new(stream);
    let mut prologue_end = None;
    let mut starts = Vec::new();
    let mut end_of_data = stream.len();
    while let Some(code) = scanner.next_code() {
        match code.code {
            StartCode::GROUP => {
                if prologue_end.is_none() {
                    prologue_end = Some(code.offset);
                }
                starts.push(code.offset);
            }
            StartCode::SEQUENCE_END => {
                end_of_data = code.offset;
            }
            _ => {}
        }
    }
    let prologue_end =
        prologue_end.ok_or_else(|| CoreError::Protocol("stream has no GOP headers".into()))?;
    let mut ranges = Vec::with_capacity(starts.len());
    for (i, &s) in starts.iter().enumerate() {
        let e = starts.get(i + 1).copied().unwrap_or(end_of_data);
        ranges.push((s, e));
    }
    Ok((prologue_end, ranges))
}

/// Runs the GOP-level baseline on a wall geometry.
///
/// Requires closed GOPs (our encoder's output): each GOP must decode
/// without references into its predecessor.
pub fn run_gop_level(stream: &[u8], geom: &WallGeometry) -> Result<GopLevelResult> {
    let (prologue_end, ranges) = gop_ranges(stream)?;
    let d = geom.tiles() as usize;
    let traffic = TrafficMatrix::new(1 + d);
    let prologue = &stream[..prologue_end];

    // Dispatch GOPs round-robin; decode each with a fresh sequential
    // decoder over prologue + GOP bytes (closed GOPs are self-contained).
    let mut per_gop_frames: Vec<Vec<Frame>> = Vec::with_capacity(ranges.len());
    for (i, &(s, e)) in ranges.iter().enumerate() {
        let decoder_node = 1 + (i % d);
        traffic.record(0, decoder_node, (e - s) as u64);
        let mut unit = Vec::with_capacity(prologue.len() + (e - s) + 4);
        unit.extend_from_slice(prologue);
        unit.extend_from_slice(&stream[s..e]);
        unit.extend_from_slice(&[0, 0, 1, StartCode::SEQUENCE_END]);
        let mut frames = Vec::new();
        Decoder::new()
            .decode_stream(&unit, |f, _| frames.push(f.clone()))
            .map_err(CoreError::Codec)?;
        // Redistribution: the decoding node keeps only its own tile of
        // every frame; all other tiles travel to their display nodes.
        for _ in &frames {
            for t in geom.iter_tiles() {
                let display_node = 1 + geom.index_of(t);
                if display_node == decoder_node {
                    continue;
                }
                let r = geom.tile_mb_rect(t);
                let tile_bytes = (r.w as u64 * r.h as u64) * 3 / 2; // 4:2:0
                traffic.record(decoder_node, display_node, tile_bytes);
            }
        }
        per_gop_frames.push(frames);
    }

    // Display: reassemble each frame through the wall (verifying tile
    // agreement) in stream order, mirroring what display nodes do.
    let wall = |e: tiledec_wall::WallError| CoreError::Protocol(e.to_string());
    let mut tiles = FramePool::new();
    let mut frames = Vec::new();
    for frame in per_gop_frames.iter().flatten() {
        let mut assembler = Assembler::new(*geom);
        for t in geom.iter_tiles() {
            let r = geom.tile_mb_rect(t);
            let (x, y, w, h) = (r.x0 as usize, r.y0 as usize, r.w as usize, r.h as usize);
            let tile = tiles.acquire_crop(frame, x, y, w, h);
            assembler.place(t, &tile).map_err(wall)?;
            tiles.release(tile);
        }
        frames.push(assembler.finish().map_err(wall)?);
    }
    Ok(GopLevelResult {
        frames,
        traffic,
        gops: ranges.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_without_gops_are_rejected() {
        assert!(run_gop_level(
            &[0, 0, 1, 0xB3],
            &WallGeometry::for_video(64, 64, 2, 1, 0).unwrap()
        )
        .is_err());
    }

    // Correctness and redistribution-volume behaviour are covered in
    // tests/parallel.rs with encoder-produced streams.
}
