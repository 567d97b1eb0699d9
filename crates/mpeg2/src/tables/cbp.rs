//! Table B-9: `coded_block_pattern` (4:2:0).
//!
//! The pattern is a 6-bit mask, MSB = block 0 (top-left luma), bit order
//! Y0 Y1 Y2 Y3 Cb Cr. Pattern 0 has a code in the table but is only legal
//! for 4:2:2/4:4:4 streams; in 4:2:0 a macroblock with no coded blocks is
//! signalled through `macroblock_type` instead.

use tiledec_bitstream::{BitWindow, BitWriter};

use super::vlc::{lut_len, spec, VlcSpec, VlcTable};

pub(crate) const SPECS: [VlcSpec; 64] = [
    spec(60, 0b111, 3),
    spec(4, 0b1101, 4),
    spec(8, 0b1100, 4),
    spec(16, 0b1011, 4),
    spec(32, 0b1010, 4),
    spec(12, 0b1001_1, 5),
    spec(48, 0b1001_0, 5),
    spec(20, 0b1000_1, 5),
    spec(40, 0b1000_0, 5),
    spec(28, 0b0111_1, 5),
    spec(44, 0b0111_0, 5),
    spec(52, 0b0110_1, 5),
    spec(56, 0b0110_0, 5),
    spec(1, 0b0101_1, 5),
    spec(61, 0b0101_0, 5),
    spec(2, 0b0100_1, 5),
    spec(62, 0b0100_0, 5),
    spec(24, 0b0011_11, 6),
    spec(36, 0b0011_10, 6),
    spec(3, 0b0011_01, 6),
    spec(63, 0b0011_00, 6),
    spec(5, 0b0010_111, 7),
    spec(9, 0b0010_110, 7),
    spec(17, 0b0010_101, 7),
    spec(33, 0b0010_100, 7),
    spec(6, 0b0010_011, 7),
    spec(10, 0b0010_010, 7),
    spec(18, 0b0010_001, 7),
    spec(34, 0b0010_000, 7),
    spec(7, 0b0001_1111, 8),
    spec(11, 0b0001_1110, 8),
    spec(19, 0b0001_1101, 8),
    spec(35, 0b0001_1100, 8),
    spec(13, 0b0001_1011, 8),
    spec(49, 0b0001_1010, 8),
    spec(21, 0b0001_1001, 8),
    spec(41, 0b0001_1000, 8),
    spec(14, 0b0001_0111, 8),
    spec(50, 0b0001_0110, 8),
    spec(22, 0b0001_0101, 8),
    spec(42, 0b0001_0100, 8),
    spec(15, 0b0001_0011, 8),
    spec(51, 0b0001_0010, 8),
    spec(23, 0b0001_0001, 8),
    spec(43, 0b0001_0000, 8),
    spec(25, 0b0000_1111, 8),
    spec(37, 0b0000_1110, 8),
    spec(26, 0b0000_1101, 8),
    spec(38, 0b0000_1100, 8),
    spec(29, 0b0000_1011, 8),
    spec(45, 0b0000_1010, 8),
    spec(53, 0b0000_1001, 8),
    spec(57, 0b0000_1000, 8),
    spec(30, 0b0000_0111, 8),
    spec(46, 0b0000_0110, 8),
    spec(54, 0b0000_0101, 8),
    spec(58, 0b0000_0100, 8),
    spec(31, 0b0000_0011_1, 9),
    spec(47, 0b0000_0011_0, 9),
    spec(55, 0b0000_0010_1, 9),
    spec(59, 0b0000_0010_0, 9),
    spec(27, 0b0000_0001_1, 9),
    spec(39, 0b0000_0001_0, 9),
    spec(0, 0b0000_0000_1, 9),
];

pub(crate) static TABLE: VlcTable<{ lut_len(&SPECS) }, 64> = VlcTable::build("B-9 cbp", &SPECS, 0);

/// Decodes a coded block pattern. The caller must reject pattern 0 for
/// 4:2:0 streams.
#[inline]
pub fn decode_cbp(w: &mut BitWindow<'_, '_>) -> crate::Result<u8> {
    Ok(TABLE.decode_in(w)? as u8)
}

/// Encodes a coded block pattern (0–63).
pub fn encode_cbp(w: &mut BitWriter, cbp: u8) {
    let (code, len) = TABLE.encode_key_unwrap(cbp as usize);
    w.put_bits(code, len as u32);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiledec_bitstream::BitReader;

    #[test]
    fn all_64_patterns_round_trip() {
        for cbp in 0u8..64 {
            let mut w = BitWriter::new();
            encode_cbp(&mut w, cbp);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(decode_cbp(&mut r.lend()).unwrap(), cbp);
        }
    }

    #[test]
    fn common_patterns_are_short() {
        // All six blocks coded (60 = Y-only? no: 60 = 111100 = all four luma).
        let mut w = BitWriter::new();
        encode_cbp(&mut w, 60);
        assert_eq!(w.bit_len(), 3);
        // All six blocks coded = 63.
        let mut w = BitWriter::new();
        encode_cbp(&mut w, 63);
        assert_eq!(w.bit_len(), 6);
    }

    #[test]
    fn table_covers_all_values_exactly_once() {
        let mut seen = [false; 64];
        for s in &SPECS {
            assert!(!seen[s.value as usize]);
            seen[s.value as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }
}
