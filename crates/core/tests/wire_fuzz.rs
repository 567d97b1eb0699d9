//! Wire-format fuzzing: control-plane decoders must reject arbitrary and
//! corrupted bytes with errors, never panics or runaway allocations.
//! Inputs come from a seeded xorshift generator so every case is
//! deterministic and reproducible.

use tiledec_core::protocol::{
    decode_ack, decode_blocks, decode_unit, peek_blocks_header, WorkUnit,
};
use tiledec_core::subpicture::SubPicture;
use tiledec_core::wire::WireReader;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

const CASES: u64 = 256;

/// The header peek a decoder selects buffered block batches by must agree
/// with the full decode: the same `(picture_id, src_tile)` whenever the
/// batch decodes, and no header out of bytes too short to hold one.
fn assert_peek_agrees_with_decode(payload: &[u8], ctx: &str) {
    let peeked = peek_blocks_header(payload);
    assert_eq!(peeked.is_ok(), payload.len() >= 6, "{ctx}: peek");
    if let Ok((id, src, _)) = decode_blocks(payload) {
        assert_eq!(peeked.ok(), Some((id, src)), "{ctx}: peek vs decode");
    }
}

#[test]
fn work_unit_decode_never_panics() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let len = rng.below(512) as usize;
        let data = rng.bytes(len);
        let _ = WorkUnit::decode(&data);
    }
}

#[test]
fn subpicture_decode_never_panics() {
    for case in 0..CASES {
        let mut rng = Rng::new(case ^ 0x5b5b);
        let len = rng.below(512) as usize;
        let data = rng.bytes(len);
        let _ = SubPicture::decode(&mut WireReader::new(&data));
    }
}

#[test]
fn blocks_decode_never_panics() {
    for case in 0..CASES {
        let mut rng = Rng::new(case ^ 0xb10c);
        let len = rng.below(512) as usize;
        let data = rng.bytes(len);
        assert_peek_agrees_with_decode(&data, &format!("case {case}"));
    }
}

#[test]
fn unit_and_ack_decode_never_panic() {
    for case in 0..CASES {
        let mut rng = Rng::new(case ^ 0xac4);
        let len = rng.below(64) as usize;
        let data = rng.bytes(len);
        let _ = decode_unit(&data);
        let _ = decode_ack(&data);
    }
}

#[test]
fn ack_round_trips_for_any_picture_id() {
    use tiledec_core::protocol::encode_ack;
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let id = rng.next() as u32;
        assert_eq!(decode_ack(&encode_ack(id)).unwrap(), id, "case {case}");
    }
}

#[test]
fn unit_round_trips_for_any_payload() {
    use tiledec_core::protocol::encode_unit;
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let id = rng.next() as u32;
        let nsid = rng.next() as u16;
        let len = rng.below(256) as usize;
        let unit = rng.bytes(len);
        let payload = encode_unit(id, nsid, &unit);
        let (got_id, got_nsid, got_unit) = decode_unit(&payload).unwrap();
        assert_eq!(got_id, id, "case {case}");
        assert_eq!(got_nsid, nsid, "case {case}");
        assert_eq!(got_unit, &unit[..], "case {case}");
    }
}

#[test]
fn blocks_round_trip_for_any_block_set() {
    use tiledec_core::mei::RefSlot;
    use tiledec_core::protocol::encode_blocks;
    use tiledec_core::tile_decoder::BlockData;
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let id = rng.next() as u32;
        let src_tile = rng.next() as u16;
        let blocks: Vec<BlockData> = (0..rng.below(8))
            .map(|_| {
                let seed = rng.next() as u8;
                BlockData {
                    mb_x: rng.next() as u16,
                    mb_y: rng.next() as u16,
                    slot: if rng.next() & 1 == 1 {
                        RefSlot::Forward
                    } else {
                        RefSlot::Backward
                    },
                    y: std::array::from_fn(|i| (i as u8).wrapping_add(seed)),
                    cb: std::array::from_fn(|i| (i as u8).wrapping_mul(seed | 1)),
                    cr: std::array::from_fn(|i| (i as u8).wrapping_sub(seed)),
                }
            })
            .collect();
        let payload = encode_blocks(id, src_tile, &blocks);
        let (got_id, got_src, got_blocks) = decode_blocks(&payload).unwrap();
        assert_eq!(got_id, id, "case {case}");
        assert_eq!(got_src, src_tile, "case {case}");
        assert_eq!(got_blocks, blocks, "case {case}");
        assert_peek_agrees_with_decode(&payload, &format!("case {case}"));
    }
}

#[test]
fn truncated_block_batches_fail_closed() {
    use tiledec_core::mei::RefSlot;
    use tiledec_core::protocol::encode_blocks;
    use tiledec_core::tile_decoder::BlockData;
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let blocks: Vec<BlockData> = (0..1 + rng.below(3))
            .map(|_| BlockData {
                mb_x: rng.next() as u16,
                mb_y: rng.next() as u16,
                slot: RefSlot::Forward,
                y: [1; 256],
                cb: [2; 64],
                cr: [3; 64],
            })
            .collect();
        let payload = encode_blocks(7, 0, &blocks);
        // Any strict prefix must be rejected, never panic or mis-decode;
        // the header survives any cut behind it, and only those. The
        // second cut walks through the header itself.
        for cut in [rng.below(4096) as usize % payload.len(), case as usize % 8] {
            let prefix = &payload[..cut];
            assert!(decode_blocks(prefix).is_err(), "case {case}: cut={cut}");
            assert_peek_agrees_with_decode(prefix, &format!("case {case}: cut={cut}"));
            assert_eq!(
                peek_blocks_header(prefix).ok(),
                (cut >= 6).then_some((7, 0)),
                "case {case}: cut={cut}"
            );
        }
    }
}

#[test]
fn corrupted_work_units_fail_closed() {
    // Start from a valid work unit, flip one byte: decode either fails
    // or yields a structurally valid unit — but never panics.
    use tiledec_core::mei::{MeiBuffer, MeiInstruction, RefSlot};
    use tiledec_mpeg2::types::{PictureInfo, PictureKind};
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let wu = WorkUnit {
            picture_id: 3,
            anid_node: 1,
            mei: MeiBuffer {
                instructions: vec![MeiInstruction::Recv {
                    mb_x: 2,
                    mb_y: 3,
                    slot: RefSlot::Forward,
                    peer: 1,
                }],
            },
            subpicture: SubPicture {
                picture_id: 3,
                info: PictureInfo::new(PictureKind::P, 1, [[2, 2], [15, 15]]),
                runs: vec![],
            },
        };
        let mut bytes = wu.encode();
        let pos = rng.below(256) as usize % bytes.len();
        let mask = 1 + rng.below(255) as u8;
        bytes[pos] ^= mask;
        let _ = WorkUnit::decode(&bytes);
    }
}

#[test]
fn huge_length_prefixes_do_not_allocate_unbounded() {
    // A message claiming 2^32-1 runs/instructions must fail on truncation,
    // not attempt the allocation.
    let mut evil = Vec::new();
    evil.extend_from_slice(&3u32.to_le_bytes()); // picture id
    evil.extend_from_slice(&0u16.to_le_bytes()); // anid
    evil.extend_from_slice(&u32::MAX.to_le_bytes()); // MEI count
    assert!(WorkUnit::decode(&evil).is_err());
}
