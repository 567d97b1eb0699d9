//! Tables B-12 / B-13: `dct_dc_size` for luminance and chrominance, plus
//! the DC differential arithmetic (§7.2.1).

use tiledec_bitstream::{BitReader, BitWindow, BitWriter};

use super::vlc::{lut_len, spec, VlcSpec, VlcTable};

/// Table B-12: luminance DC size.
pub(crate) const LUMA_SPECS: [VlcSpec; 12] = [
    spec(0, 0b100, 3),
    spec(1, 0b00, 2),
    spec(2, 0b01, 2),
    spec(3, 0b101, 3),
    spec(4, 0b110, 3),
    spec(5, 0b1110, 4),
    spec(6, 0b1111_0, 5),
    spec(7, 0b1111_10, 6),
    spec(8, 0b1111_110, 7),
    spec(9, 0b1111_1110, 8),
    spec(10, 0b1111_1111_0, 9),
    spec(11, 0b1111_1111_1, 9),
];

/// Table B-13: chrominance DC size.
pub(crate) const CHROMA_SPECS: [VlcSpec; 12] = [
    spec(0, 0b00, 2),
    spec(1, 0b01, 2),
    spec(2, 0b10, 2),
    spec(3, 0b110, 3),
    spec(4, 0b1110, 4),
    spec(5, 0b1111_0, 5),
    spec(6, 0b1111_10, 6),
    spec(7, 0b1111_110, 7),
    spec(8, 0b1111_1110, 8),
    spec(9, 0b1111_1111_0, 9),
    spec(10, 0b1111_1111_10, 10),
    spec(11, 0b1111_1111_11, 10),
];

pub(crate) static LUMA: VlcTable<{ lut_len(&LUMA_SPECS) }, 12> =
    VlcTable::build("B-12 dc_size_luma", &LUMA_SPECS, 0);

pub(crate) static CHROMA: VlcTable<{ lut_len(&CHROMA_SPECS) }, 12> =
    VlcTable::build("B-13 dc_size_chroma", &CHROMA_SPECS, 0);

/// Longest DC token: the longest size code plus the longest differential.
pub(crate) const MAX_BITS: u32 = 10 + 11;

/// The differential `size` bits spell (§7.2.1): the upper half of the
/// range is positive, the lower half the negative values offset by one.
#[inline]
fn differential(size: u32, bits: u32) -> i32 {
    if size == 0 || bits >> (size - 1) == 1 {
        bits as i32
    } else {
        bits as i32 - (1 << size) + 1
    }
}

/// Decodes a DC differential for a luma (`is_luma`) or chroma block step
/// by step — the read sequence truncation positions are defined by.
pub fn decode_dc_differential(r: &mut BitReader<'_>, is_luma: bool) -> crate::Result<i32> {
    let size = if is_luma {
        LUMA.decode(r)
    } else {
        CHROMA.decode(r)
    }? as u32;
    Ok(differential(size, r.read_bits(size)?))
}

/// [`decode_dc_differential`] out of a window in which the caller has
/// ensured [`MAX_BITS`]: one peek, one table load, one consume.
#[inline]
pub(crate) fn dc_differential_in(w: &mut BitWindow<'_, '_>, is_luma: bool) -> crate::Result<i32> {
    let token = w.peek(MAX_BITS);
    let (size, len) = if is_luma {
        LUMA.lookup(token >> (MAX_BITS - LUMA.max_len() as u32))
    } else {
        CHROMA.lookup(token >> (MAX_BITS - CHROMA.max_len() as u32))
    };
    if len == 0 {
        let name = if is_luma { LUMA.name() } else { CHROMA.name() };
        return Err(w.invalid_code(name).into());
    }
    let (size, len) = (size as u32, len as u32);
    w.consume(len + size);
    let bits = (token >> (MAX_BITS - len - size)) & ((1 << size) - 1);
    Ok(differential(size, bits))
}

/// Encodes a DC differential.
pub fn encode_dc_differential(w: &mut BitWriter, is_luma: bool, diff: i32) {
    let mag = diff.unsigned_abs();
    let size = 32 - mag.leading_zeros() as u8; // bits needed for |diff|
    assert!(size <= 11, "DC differential {diff} too large");
    let (code, len) = if is_luma {
        LUMA.encode_key_unwrap(size as usize)
    } else {
        CHROMA.encode_key_unwrap(size as usize)
    };
    w.put_bits(code, len as u32);
    if size > 0 {
        let bits = if diff >= 0 {
            diff
        } else {
            diff + (1 << size) - 1
        };
        w.put_bits(bits as u32, size as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_differentials_round_trip() {
        for is_luma in [true, false] {
            for diff in (-2047i32..=2047).step_by(13).chain([-2047, -1, 0, 1, 2047]) {
                let mut w = BitWriter::new();
                encode_dc_differential(&mut w, is_luma, diff);
                let bytes = w.into_bytes();
                let mut r = BitReader::new(&bytes);
                assert_eq!(
                    decode_dc_differential(&mut r, is_luma).unwrap(),
                    diff,
                    "luma={is_luma} diff={diff}"
                );
            }
        }
    }

    #[test]
    fn zero_diff_uses_size_zero_code() {
        let mut w = BitWriter::new();
        encode_dc_differential(&mut w, true, 0);
        assert_eq!(w.bit_len(), 3); // '100'
        let mut w = BitWriter::new();
        encode_dc_differential(&mut w, false, 0);
        assert_eq!(w.bit_len(), 2); // '00'
    }

    #[test]
    fn small_diffs_are_short() {
        // size 1 ('00' luma) + 1 bit = 3 bits total.
        let mut w = BitWriter::new();
        encode_dc_differential(&mut w, true, 1);
        assert_eq!(w.bit_len(), 3);
        let mut w = BitWriter::new();
        encode_dc_differential(&mut w, true, -1);
        assert_eq!(w.bit_len(), 3);
    }

    #[test]
    fn negative_encoding_is_ones_complement() {
        // size=2: -2 encodes as bits 01 (i.e. 1 in two bits).
        let mut w = BitWriter::new();
        encode_dc_differential(&mut w, false, -2);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(2).unwrap(), 0b10); // chroma size-2 code
        assert_eq!(r.read_bits(2).unwrap(), 0b01);
    }
}
