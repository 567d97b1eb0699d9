//! Tables B-2, B-3, B-4: `macroblock_type` for I, P and B pictures.

use tiledec_bitstream::{BitWindow, BitWriter};

use crate::types::{MbFlags, PictureKind};

use super::vlc::{lut_len, spec, VlcSpec, VlcTable};

/// Table values are the flags as a bitmask:
/// bit0 quant, bit1 fwd, bit2 bwd, bit3 pattern, bit4 intra.
const fn flags(quant: bool, fwd: bool, bwd: bool, pattern: bool, intra: bool) -> u16 {
    (quant as u16)
        | (fwd as u16) << 1
        | (bwd as u16) << 2
        | (pattern as u16) << 3
        | (intra as u16) << 4
}

fn key(f: &MbFlags) -> usize {
    flags(
        f.quant,
        f.motion_forward,
        f.motion_backward,
        f.pattern,
        f.intra,
    ) as usize
}

const fn from_key(k: u16) -> MbFlags {
    MbFlags {
        quant: k & 1 != 0,
        motion_forward: k & 2 != 0,
        motion_backward: k & 4 != 0,
        pattern: k & 8 != 0,
        intra: k & 16 != 0,
    }
}

/// Table B-2 (I pictures).
pub(crate) const I_SPECS: [VlcSpec; 2] = [
    spec(flags(false, false, false, false, true), 0b1, 1),
    spec(flags(true, false, false, false, true), 0b01, 2),
];

/// Table B-3 (P pictures).
pub(crate) const P_SPECS: [VlcSpec; 7] = [
    spec(flags(false, true, false, true, false), 0b1, 1),
    spec(flags(false, false, false, true, false), 0b01, 2),
    spec(flags(false, true, false, false, false), 0b001, 3),
    spec(flags(false, false, false, false, true), 0b0001_1, 5),
    spec(flags(true, true, false, true, false), 0b0001_0, 5),
    spec(flags(true, false, false, true, false), 0b0000_1, 5),
    spec(flags(true, false, false, false, true), 0b0000_01, 6),
];

/// Table B-4 (B pictures).
pub(crate) const B_SPECS: [VlcSpec; 11] = [
    spec(flags(false, true, true, false, false), 0b10, 2),
    spec(flags(false, true, true, true, false), 0b11, 2),
    spec(flags(false, false, true, false, false), 0b010, 3),
    spec(flags(false, false, true, true, false), 0b011, 3),
    spec(flags(false, true, false, false, false), 0b0010, 4),
    spec(flags(false, true, false, true, false), 0b0011, 4),
    spec(flags(false, false, false, false, true), 0b0001_1, 5),
    spec(flags(true, true, true, true, false), 0b0001_0, 5),
    spec(flags(true, true, false, true, false), 0b0000_11, 6),
    spec(flags(true, false, true, true, false), 0b0000_10, 6),
    spec(flags(true, false, false, false, true), 0b0000_01, 6),
];

pub(crate) static I_TABLE: VlcTable<{ lut_len(&I_SPECS) }, 32> =
    VlcTable::build("B-2 mb_type(I)", &I_SPECS, 0);
pub(crate) static P_TABLE: VlcTable<{ lut_len(&P_SPECS) }, 32> =
    VlcTable::build("B-3 mb_type(P)", &P_SPECS, 0);
pub(crate) static B_TABLE: VlcTable<{ lut_len(&B_SPECS) }, 32> =
    VlcTable::build("B-4 mb_type(B)", &B_SPECS, 0);

/// Decodes `macroblock_type` for the given picture kind.
#[inline]
pub fn decode_mb_type(w: &mut BitWindow<'_, '_>, kind: PictureKind) -> crate::Result<MbFlags> {
    Ok(from_key(match kind {
        PictureKind::I => I_TABLE.decode_in(w),
        PictureKind::P => P_TABLE.decode_in(w),
        PictureKind::B => B_TABLE.decode_in(w),
    }?))
}

/// Encodes `macroblock_type`. Panics if the flag combination is not legal
/// for the picture kind.
pub fn encode_mb_type(w: &mut BitWriter, kind: PictureKind, f: MbFlags) {
    let (code, len) = match kind {
        PictureKind::I => I_TABLE.encode_key_unwrap(key(&f)),
        PictureKind::P => P_TABLE.encode_key_unwrap(key(&f)),
        PictureKind::B => B_TABLE.encode_key_unwrap(key(&f)),
    };
    w.put_bits(code, len as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiledec_bitstream::BitReader;

    /// All legal flag combinations for a picture kind.
    fn legal_types(kind: PictureKind) -> &'static [VlcSpec] {
        match kind {
            PictureKind::I => &I_SPECS,
            PictureKind::P => &P_SPECS,
            PictureKind::B => &B_SPECS,
        }
    }

    const fn flags(quant: bool, fwd: bool, bwd: bool, pattern: bool, intra: bool) -> MbFlags {
        from_key(super::flags(quant, fwd, bwd, pattern, intra))
    }

    #[test]
    fn all_types_round_trip() {
        for kind in [PictureKind::I, PictureKind::P, PictureKind::B] {
            for s in legal_types(kind) {
                let mut w = BitWriter::new();
                let value = from_key(s.value);
                encode_mb_type(&mut w, kind, value);
                let bytes = w.into_bytes();
                let mut r = BitReader::new(&bytes);
                assert_eq!(
                    decode_mb_type(&mut r.lend(), kind).unwrap(),
                    value,
                    "{kind:?}"
                );
                assert_eq!(r.bit_position(), s.len as usize);
            }
        }
    }

    #[test]
    fn intra_in_p_is_5_bits() {
        let mut w = BitWriter::new();
        encode_mb_type(
            &mut w,
            PictureKind::P,
            flags(false, false, false, false, true),
        );
        assert_eq!(w.bit_len(), 5);
    }

    #[test]
    fn mc_coded_in_p_is_1_bit() {
        let mut w = BitWriter::new();
        encode_mb_type(
            &mut w,
            PictureKind::P,
            flags(false, true, false, true, false),
        );
        assert_eq!(w.bit_len(), 1);
    }

    #[test]
    fn interp_coded_in_b_is_2_bits() {
        let mut w = BitWriter::new();
        encode_mb_type(
            &mut w,
            PictureKind::B,
            flags(false, true, true, true, false),
        );
        assert_eq!(w.bit_len(), 2);
    }

    #[test]
    #[should_panic(expected = "no code")]
    fn illegal_combo_panics() {
        let mut w = BitWriter::new();
        // Backward motion in a P picture is illegal.
        encode_mb_type(
            &mut w,
            PictureKind::P,
            flags(false, false, true, false, false),
        );
    }
}
