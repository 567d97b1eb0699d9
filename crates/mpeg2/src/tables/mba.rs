//! Table B-1: `macroblock_address_increment`.

use tiledec_bitstream::{BitWindow, BitWriter};

use super::vlc::{lut_len, spec, VlcSpec, VlcTable};

/// The escape code adds 33 to the increment and may repeat.
pub const ESCAPE_CODE: u32 = 0b0000_0001_000;
/// Escape code length in bits.
pub const ESCAPE_LEN: u8 = 11;
/// Increment added per escape.
pub const ESCAPE_VALUE: u32 = 33;

/// Sentinel decoded for the escape code.
const ESCAPE_SENTINEL: u16 = 0;

pub(crate) const SPECS: [VlcSpec; 34] = [
    spec(1, 0b1, 1),
    spec(2, 0b011, 3),
    spec(3, 0b010, 3),
    spec(4, 0b0011, 4),
    spec(5, 0b0010, 4),
    spec(6, 0b0001_1, 5),
    spec(7, 0b0001_0, 5),
    spec(8, 0b0000_111, 7),
    spec(9, 0b0000_110, 7),
    spec(10, 0b0000_1011, 8),
    spec(11, 0b0000_1010, 8),
    spec(12, 0b0000_1001, 8),
    spec(13, 0b0000_1000, 8),
    spec(14, 0b0000_0111, 8),
    spec(15, 0b0000_0110, 8),
    spec(16, 0b0000_0101_11, 10),
    spec(17, 0b0000_0101_10, 10),
    spec(18, 0b0000_0101_01, 10),
    spec(19, 0b0000_0101_00, 10),
    spec(20, 0b0000_0100_11, 10),
    spec(21, 0b0000_0100_10, 10),
    spec(22, 0b0000_0100_011, 11),
    spec(23, 0b0000_0100_010, 11),
    spec(24, 0b0000_0100_001, 11),
    spec(25, 0b0000_0100_000, 11),
    spec(26, 0b0000_0011_111, 11),
    spec(27, 0b0000_0011_110, 11),
    spec(28, 0b0000_0011_101, 11),
    spec(29, 0b0000_0011_100, 11),
    spec(30, 0b0000_0011_011, 11),
    spec(31, 0b0000_0011_010, 11),
    spec(32, 0b0000_0011_001, 11),
    spec(33, 0b0000_0011_000, 11),
    spec(ESCAPE_SENTINEL, ESCAPE_CODE, ESCAPE_LEN),
];

pub(crate) static TABLE: VlcTable<{ lut_len(&SPECS) }, 34> = VlcTable::build("B-1 mba", &SPECS, 0);

/// Decodes a complete macroblock address increment, folding in any escapes.
#[inline]
pub fn decode_increment(w: &mut BitWindow<'_, '_>) -> crate::Result<u32> {
    let mut total = 0u32;
    loop {
        let v = TABLE.decode_in(w)?;
        if v == ESCAPE_SENTINEL {
            total += ESCAPE_VALUE;
        } else {
            return Ok(total + v as u32);
        }
    }
}

/// Encodes a macroblock address increment (≥ 1), emitting escapes as needed.
pub fn encode_increment(w: &mut BitWriter, mut increment: u32) {
    assert!(increment >= 1, "address increment must be at least 1");
    while increment > 33 {
        w.put_bits(ESCAPE_CODE, ESCAPE_LEN as u32);
        increment -= ESCAPE_VALUE;
    }
    let (code, len) = TABLE.encode_key_unwrap(increment as usize);
    w.put_bits(code, len as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiledec_bitstream::BitReader;

    #[test]
    fn round_trips_all_basic_values() {
        for inc in 1..=33 {
            let mut w = BitWriter::new();
            encode_increment(&mut w, inc);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(decode_increment(&mut r.lend()).unwrap(), inc);
        }
    }

    #[test]
    fn round_trips_escaped_values() {
        for inc in [34u32, 66, 67, 100, 239, 1000] {
            let mut w = BitWriter::new();
            encode_increment(&mut w, inc);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(decode_increment(&mut r.lend()).unwrap(), inc, "inc={inc}");
        }
    }

    #[test]
    fn known_codes() {
        // Spot checks against the standard's published table.
        let mut w = BitWriter::new();
        encode_increment(&mut w, 1);
        assert_eq!(w.bit_len(), 1);
        let mut w = BitWriter::new();
        encode_increment(&mut w, 8);
        assert_eq!(w.bit_len(), 7);
        let mut w = BitWriter::new();
        encode_increment(&mut w, 34); // escape (11) + code for 1 (1)
        assert_eq!(w.bit_len(), 12);
    }
}
