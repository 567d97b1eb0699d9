//! Message envelopes of the cluster protocol.
//!
//! | tag | direction | payload |
//! |---|---|---|
//! | [`TAG_UNIT`] | root → splitter | picture id, NSID, raw picture unit |
//! | [`TAG_ACK_ROOT`] | splitter → root | picture id |
//! | [`TAG_WORK`] | splitter → decoder | picture id, ANID node, MEI, sub-picture |
//! | [`TAG_ACK_SPLIT`] | decoder → splitter (ANID) | picture id |
//! | [`TAG_BLOCKS`] | decoder → decoder | picture id, source tile, reference blocks |
//! | [`TAG_END`] | root → splitter → decoder | — |
//! | [`TAG_TIMEOUT`] | any (lossy channels) | — |
//!
//! Node numbering matches the simulator: 0 = root (and the single
//! macroblock splitter in a one-level system), then `k` splitters, then
//! the decoders in row-major tile order.

use crate::mei::{MeiBuffer, RefSlot};
use crate::subpicture::SubPicture;
use crate::tile_decoder::BlockData;
use crate::wire::{WireReader, WireWriter};
use crate::{CoreError, Result};

/// Root → splitter: a picture unit.
pub const TAG_UNIT: u32 = 1;
/// Splitter → root ack/go-ahead.
pub const TAG_ACK_ROOT: u32 = 2;
/// Splitter → decoder: MEI + sub-picture.
pub const TAG_WORK: u32 = 3;
/// Decoder → splitter (via ANID) ack/go-ahead.
pub const TAG_ACK_SPLIT: u32 = 4;
/// Decoder → decoder reference blocks.
pub const TAG_BLOCKS: u32 = 5;
/// Stream end.
pub const TAG_END: u32 = 6;
/// A receive timeout fired on a lossy channel: the message that was in
/// flight from `from` is gone. Carried by no real GM traffic — it is
/// synthesised by the lossy model checker ([`LossyConfig`]) and, between
/// decoders, sent explicitly by a node that concealed a picture to tell
/// its peers no reference blocks are coming. Machines running under
/// [`ErrorPolicy::Resilient`] conceal on it (count a lost ack, skip a
/// lost picture, decode without the lost blocks); strict machines report
/// it as a protocol error, which is exactly the conceal-vs-poison split
/// the lossy model-check proves deadlock-free.
///
/// [`LossyConfig`]: tiledec_cluster::modelcheck::LossyConfig
/// [`ErrorPolicy::Resilient`]: tiledec_mpeg2::ErrorPolicy::Resilient
pub const TAG_TIMEOUT: u32 = 7;

/// Encodes a picture-unit message (root → splitter).
pub fn encode_unit(picture_id: u32, nsid: u16, unit: &[u8]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(6 + unit.len());
    w.u32(picture_id);
    w.u16(nsid);
    w.bytes(unit);
    w.into_bytes()
}

/// Decodes a picture-unit message: `(picture_id, nsid, unit bytes)`.
pub fn decode_unit(payload: &[u8]) -> Result<(u32, u16, &[u8])> {
    let mut r = WireReader::new(payload);
    let id = r.u32()?;
    let nsid = r.u16()?;
    let rest = r.bytes(r.remaining())?;
    Ok((id, nsid, rest))
}

/// Encodes an ack (either direction).
pub fn encode_ack(picture_id: u32) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(4);
    w.u32(picture_id);
    w.into_bytes()
}

/// Decodes an ack.
pub fn decode_ack(payload: &[u8]) -> Result<u32> {
    WireReader::new(payload).u32()
}

/// A work unit as received by a decoder.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorkUnit {
    /// Picture index in coding order.
    pub picture_id: u32,
    /// Cluster node the ack must be redirected to (ANID mechanism).
    pub anid_node: u16,
    /// Exchange instructions for this decoder.
    pub mei: MeiBuffer,
    /// The macroblocks to decode.
    pub subpicture: SubPicture,
}

impl WorkUnit {
    /// Serialises the work unit.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u32(self.picture_id);
        w.u16(self.anid_node);
        self.mei.encode(&mut w);
        self.subpicture.encode(&mut w);
        w.into_bytes()
    }

    /// Parses a work unit.
    pub fn decode(payload: &[u8]) -> Result<Self> {
        let mut r = WireReader::new(payload);
        let picture_id = r.u32()?;
        let anid_node = r.u16()?;
        let mei = MeiBuffer::decode(&mut r)?;
        let subpicture = SubPicture::decode(&mut r)?;
        Ok(WorkUnit {
            picture_id,
            anid_node,
            mei,
            subpicture,
        })
    }
}

/// Encodes a batch of reference blocks (decoder → decoder).
pub fn encode_blocks(picture_id: u32, src_tile: u16, blocks: &[BlockData]) -> Vec<u8> {
    let mut w = WireWriter::with_capacity(8 + blocks.len() * 400);
    w.u32(picture_id);
    w.u16(src_tile);
    w.u16(blocks.len() as u16);
    for b in blocks {
        w.u16(b.mb_x);
        w.u16(b.mb_y);
        w.u8(match b.slot {
            RefSlot::Forward => 0,
            RefSlot::Backward => 1,
        });
        w.bytes(&b.y);
        w.bytes(&b.cb);
        w.bytes(&b.cr);
    }
    w.into_bytes()
}

/// Reads `(picture_id, src_tile)` off the front of a block batch without
/// decoding its blocks — what a decoder needs to pick the batch it is
/// waiting for out of its buffered messages.
pub fn peek_blocks_header(payload: &[u8]) -> Result<(u32, u16)> {
    let mut r = WireReader::new(payload);
    Ok((r.u32()?, r.u16()?))
}

/// Decodes a block batch: `(picture_id, src_tile, blocks)`.
pub fn decode_blocks(payload: &[u8]) -> Result<(u32, u16, Vec<BlockData>)> {
    let mut r = WireReader::new(payload);
    let picture_id = r.u32()?;
    let src = r.u16()?;
    let n = r.u16()? as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mb_x = r.u16()?;
        let mb_y = r.u16()?;
        let slot = match r.u8()? {
            0 => RefSlot::Forward,
            1 => RefSlot::Backward,
            other => return Err(CoreError::Wire(format!("bad slot {other}"))),
        };
        let mut block = BlockData {
            mb_x,
            mb_y,
            slot,
            y: [0; 256],
            cb: [0; 64],
            cr: [0; 64],
        };
        block.y.copy_from_slice(r.bytes(256)?);
        block.cb.copy_from_slice(r.bytes(64)?);
        block.cr.copy_from_slice(r.bytes(64)?);
        out.push(block);
    }
    Ok((picture_id, src, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mei::MeiInstruction;
    use tiledec_mpeg2::types::{PictureInfo, PictureKind};

    #[test]
    fn unit_round_trip() {
        let payload = encode_unit(17, 3, &[9, 8, 7]);
        let (id, nsid, data) = decode_unit(&payload).unwrap();
        assert_eq!((id, nsid, data), (17, 3, &[9u8, 8, 7][..]));
    }

    #[test]
    fn ack_round_trip() {
        assert_eq!(decode_ack(&encode_ack(123456)).unwrap(), 123456);
    }

    #[test]
    fn work_unit_round_trip() {
        let wu = WorkUnit {
            picture_id: 9,
            anid_node: 2,
            mei: MeiBuffer {
                instructions: vec![MeiInstruction::Recv {
                    mb_x: 1,
                    mb_y: 2,
                    slot: RefSlot::Forward,
                    peer: 3,
                }],
            },
            subpicture: SubPicture {
                picture_id: 9,
                info: PictureInfo::new(PictureKind::P, 4, [[2, 2], [15, 15]]),
                runs: vec![],
            },
        };
        assert_eq!(WorkUnit::decode(&wu.encode()).unwrap(), wu);
    }

    #[test]
    fn blocks_round_trip() {
        let blocks = vec![
            BlockData {
                mb_x: 5,
                mb_y: 6,
                slot: RefSlot::Backward,
                y: std::array::from_fn(|i| i as u8),
                cb: [1; 64],
                cr: [2; 64],
            },
            BlockData {
                mb_x: 0,
                mb_y: 0,
                slot: RefSlot::Forward,
                y: [7; 256],
                cb: [8; 64],
                cr: [9; 64],
            },
        ];
        let payload = encode_blocks(33, 4, &blocks);
        let (id, src, got) = decode_blocks(&payload).unwrap();
        assert_eq!(id, 33);
        assert_eq!(src, 4);
        assert_eq!(got, blocks);
    }

    #[test]
    fn truncated_blocks_rejected() {
        let payload = encode_blocks(1, 0, &[]);
        let mut cut = payload.clone();
        cut[6] = 5; // claim 5 blocks, provide none
        assert!(decode_blocks(&cut).is_err());
    }
}
