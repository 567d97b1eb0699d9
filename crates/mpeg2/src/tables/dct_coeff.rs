//! Table B-14: DCT coefficient VLC (`intra_vlc_format = 0`), shared by
//! intra and non-intra blocks, plus the MPEG-2 escape coding.
//!
//! Codes are stored *without* their trailing sign bit. The first
//! coefficient of a block is special-cased: `1s` means run 0 / level ±1
//! (end-of-block cannot occur first), while for subsequent coefficients the
//! same pair is `11s` and `10` is end-of-block.

use tiledec_bitstream::{BitReader, BitWriter};

use super::vlc::{lut_len, spec, VlcSpec, VlcTable};

/// Table values pack `run << 6 | level`. The three sentinels carry a "run"
/// of 64, so the block loop's one range test on `position + run` also
/// catches every token that is not a plain coefficient.
pub(crate) const EOB: u16 = 64 << 6;
pub(crate) const ESCAPE: u16 = EOB | 1;
/// What a pattern no code matches looks up as (with length 0).
pub(crate) const INVALID: u16 = EOB | 2;

const fn rl(run: u16, level: u16) -> u16 {
    (run << 6) | level
}

/// The zero run a table value codes (64 for the sentinels).
#[inline]
pub(crate) fn run_of(value: u16) -> usize {
    (value >> 6) as usize
}

/// The level magnitude a table value codes.
#[inline]
pub(crate) fn magnitude_of(value: u16) -> i32 {
    (value & 63) as i32
}

/// Escape code: `0000 01`, then 6-bit run, then 12-bit two's-complement
/// level (±2047; 0 and −2048 are forbidden).
pub const ESCAPE_CODE: u32 = 0b0000_01;
/// Escape code length.
pub const ESCAPE_LEN: u8 = 6;

/// Run and level of an escape token, from its 24 bits.
#[inline]
pub(crate) fn escape_fields(token: u32) -> (usize, i32) {
    let raw = (token & 0xFFF) as i32;
    (
        ((token >> 12) & 63) as usize,
        if raw >= 2048 { raw - 4096 } else { raw },
    )
}

/// The error for the two escape levels the standard forbids.
pub(crate) fn check_escape_level(level: i32) -> crate::Result<()> {
    if level == 0 || level == -2048 {
        return Err(crate::Error::Syntax(format!(
            "forbidden escape level {level}"
        )));
    }
    Ok(())
}

#[rustfmt::skip]
pub(crate) const SPECS: [VlcSpec; 113] = [
    spec(EOB,        0b10, 2),
    spec(rl(0, 1),   0b11, 2),
    spec(ESCAPE,     ESCAPE_CODE, ESCAPE_LEN),
    spec(rl(0, 2),   0b0100, 4),
    spec(rl(0, 3),   0b0010_1, 5),
    spec(rl(0, 4),   0b0000_110, 7),
    spec(rl(0, 5),   0b0010_0110, 8),
    spec(rl(0, 6),   0b0010_0001, 8),
    spec(rl(0, 7),   0b0000_0010_10, 10),
    spec(rl(0, 8),   0b0000_0001_1101, 12),
    spec(rl(0, 9),   0b0000_0001_1000, 12),
    spec(rl(0, 10),  0b0000_0001_0011, 12),
    spec(rl(0, 11),  0b0000_0001_0000, 12),
    spec(rl(0, 12),  0b0000_0000_1101_0, 13),
    spec(rl(0, 13),  0b0000_0000_1100_1, 13),
    spec(rl(0, 14),  0b0000_0000_1100_0, 13),
    spec(rl(0, 15),  0b0000_0000_1011_1, 13),
    spec(rl(0, 16),  0b0000_0000_0111_11, 14),
    spec(rl(0, 17),  0b0000_0000_0111_10, 14),
    spec(rl(0, 18),  0b0000_0000_0111_01, 14),
    spec(rl(0, 19),  0b0000_0000_0111_00, 14),
    spec(rl(0, 20),  0b0000_0000_0110_11, 14),
    spec(rl(0, 21),  0b0000_0000_0110_10, 14),
    spec(rl(0, 22),  0b0000_0000_0110_01, 14),
    spec(rl(0, 23),  0b0000_0000_0110_00, 14),
    spec(rl(0, 24),  0b0000_0000_0101_11, 14),
    spec(rl(0, 25),  0b0000_0000_0101_10, 14),
    spec(rl(0, 26),  0b0000_0000_0101_01, 14),
    spec(rl(0, 27),  0b0000_0000_0101_00, 14),
    spec(rl(0, 28),  0b0000_0000_0100_11, 14),
    spec(rl(0, 29),  0b0000_0000_0100_10, 14),
    spec(rl(0, 30),  0b0000_0000_0100_01, 14),
    spec(rl(0, 31),  0b0000_0000_0100_00, 14),
    spec(rl(0, 32),  0b0000_0000_0011_000, 15),
    spec(rl(0, 33),  0b0000_0000_0010_111, 15),
    spec(rl(0, 34),  0b0000_0000_0010_110, 15),
    spec(rl(0, 35),  0b0000_0000_0010_101, 15),
    spec(rl(0, 36),  0b0000_0000_0010_100, 15),
    spec(rl(0, 37),  0b0000_0000_0010_011, 15),
    spec(rl(0, 38),  0b0000_0000_0010_010, 15),
    spec(rl(0, 39),  0b0000_0000_0010_001, 15),
    spec(rl(0, 40),  0b0000_0000_0010_000, 15),
    spec(rl(1, 1),   0b011, 3),
    spec(rl(1, 2),   0b0001_10, 6),
    spec(rl(1, 3),   0b0010_0101, 8),
    spec(rl(1, 4),   0b0000_0011_00, 10),
    spec(rl(1, 5),   0b0000_0001_1011, 12),
    spec(rl(1, 6),   0b0000_0000_1011_0, 13),
    spec(rl(1, 7),   0b0000_0000_1010_1, 13),
    spec(rl(1, 8),   0b0000_0000_0011_111, 15),
    spec(rl(1, 9),   0b0000_0000_0011_110, 15),
    spec(rl(1, 10),  0b0000_0000_0011_101, 15),
    spec(rl(1, 11),  0b0000_0000_0011_100, 15),
    spec(rl(1, 12),  0b0000_0000_0011_011, 15),
    spec(rl(1, 13),  0b0000_0000_0011_010, 15),
    spec(rl(1, 14),  0b0000_0000_0011_001, 15),
    spec(rl(1, 15),  0b0000_0000_0001_0011, 16),
    spec(rl(1, 16),  0b0000_0000_0001_0010, 16),
    spec(rl(1, 17),  0b0000_0000_0001_0001, 16),
    spec(rl(1, 18),  0b0000_0000_0001_0000, 16),
    spec(rl(2, 1),   0b0101, 4),
    spec(rl(2, 2),   0b0000_100, 7),
    spec(rl(2, 3),   0b0000_0010_11, 10),
    spec(rl(2, 4),   0b0000_0001_0100, 12),
    spec(rl(2, 5),   0b0000_0000_1010_0, 13),
    spec(rl(3, 1),   0b0011_1, 5),
    spec(rl(3, 2),   0b0010_0100, 8),
    spec(rl(3, 3),   0b0000_0001_1100, 12),
    spec(rl(3, 4),   0b0000_0000_1001_1, 13),
    spec(rl(4, 1),   0b0011_0, 5),
    spec(rl(4, 2),   0b0000_0011_11, 10),
    spec(rl(4, 3),   0b0000_0001_0010, 12),
    spec(rl(5, 1),   0b0001_11, 6),
    spec(rl(5, 2),   0b0000_0010_01, 10),
    spec(rl(5, 3),   0b0000_0000_1001_0, 13),
    spec(rl(6, 1),   0b0001_01, 6),
    spec(rl(6, 2),   0b0000_0001_1110, 12),
    spec(rl(6, 3),   0b0000_0000_0001_0100, 16),
    spec(rl(7, 1),   0b0001_00, 6),
    spec(rl(7, 2),   0b0000_0001_0101, 12),
    spec(rl(8, 1),   0b0000_111, 7),
    spec(rl(8, 2),   0b0000_0001_0001, 12),
    spec(rl(9, 1),   0b0000_101, 7),
    spec(rl(9, 2),   0b0000_0000_1000_1, 13),
    spec(rl(10, 1),  0b0010_0111, 8),
    spec(rl(10, 2),  0b0000_0000_1000_0, 13),
    spec(rl(11, 1),  0b0010_0011, 8),
    spec(rl(11, 2),  0b0000_0000_0001_1010, 16),
    spec(rl(12, 1),  0b0010_0010, 8),
    spec(rl(12, 2),  0b0000_0000_0001_1001, 16),
    spec(rl(13, 1),  0b0010_0000, 8),
    spec(rl(13, 2),  0b0000_0000_0001_1000, 16),
    spec(rl(14, 1),  0b0000_0011_10, 10),
    spec(rl(14, 2),  0b0000_0000_0001_0111, 16),
    spec(rl(15, 1),  0b0000_0011_01, 10),
    spec(rl(15, 2),  0b0000_0000_0001_0110, 16),
    spec(rl(16, 1),  0b0000_0010_00, 10),
    spec(rl(16, 2),  0b0000_0000_0001_0101, 16),
    spec(rl(17, 1),  0b0000_0001_1111, 12),
    spec(rl(18, 1),  0b0000_0001_1010, 12),
    spec(rl(19, 1),  0b0000_0001_1001, 12),
    spec(rl(20, 1),  0b0000_0001_0111, 12),
    spec(rl(21, 1),  0b0000_0001_0110, 12),
    spec(rl(22, 1),  0b0000_0000_1111_1, 13),
    spec(rl(23, 1),  0b0000_0000_1111_0, 13),
    spec(rl(24, 1),  0b0000_0000_1110_1, 13),
    spec(rl(25, 1),  0b0000_0000_1110_0, 13),
    spec(rl(26, 1),  0b0000_0000_1101_1, 13),
    spec(rl(27, 1),  0b0000_0000_0001_1111, 16),
    spec(rl(28, 1),  0b0000_0000_0001_1110, 16),
    spec(rl(29, 1),  0b0000_0000_0001_1101, 16),
    spec(rl(30, 1),  0b0000_0000_0001_1100, 16),
    spec(rl(31, 1),  0b0000_0000_0001_1011, 16),
];

/// Table name, as reported in invalid-code errors.
pub(crate) const NAME: &str = "B-14 dct_coeff";

pub(crate) static TABLE: VlcTable<{ lut_len(&SPECS) }, { 32 << 6 }> =
    VlcTable::build(NAME, &SPECS, INVALID);

/// Decodes the next coefficient token step by step: `None` for
/// end-of-block, else `(run, level)`. `first` selects the first-coefficient
/// variant of the run-0/level-1 code, under which a leading `1` is always
/// a coefficient — `decode_token(r, true)` never returns `None`.
///
/// This is the read sequence every truncation error's bit position is
/// defined by (the wire-fuzz and teardown suites assert on them): the
/// block loop in [`crate::block`] decodes whole tokens out of a lent
/// window and comes here only within eight bytes of the buffer's end.
pub fn decode_token(r: &mut BitReader<'_>, first: bool) -> crate::Result<Option<(usize, i32)>> {
    if first && r.peek_bits(1) == 1 {
        r.skip(1)?;
        let sign = r.read_bit()?;
        return Ok(Some((0, if sign == 1 { -1 } else { 1 })));
    }
    match TABLE.decode(r)? {
        EOB => Ok(None),
        ESCAPE => {
            let run = r.read_bits(6)?;
            let (run, level) = escape_fields(run << 12 | r.read_bits(12)?);
            check_escape_level(level)?;
            Ok(Some((run, level)))
        }
        packed => {
            let mag = magnitude_of(packed);
            let sign = r.read_bit()?;
            Ok(Some((run_of(packed), if sign == 1 { -mag } else { mag })))
        }
    }
}

/// The largest level Table B-14 can code for a given run (0 when the run
/// itself needs an escape).
pub fn max_table_level(run: u8) -> i32 {
    match run {
        0 => 40,
        1 => 18,
        2 => 5,
        3 => 4,
        4..=6 => 3,
        7..=16 => 2,
        17..=31 => 1,
        _ => 0,
    }
}

/// Encodes one (run, level) pair, using the table when possible and escape
/// coding otherwise. `first` selects the 1-bit run-0/level-±1 code.
pub fn encode_coeff(w: &mut BitWriter, first: bool, run: u8, level: i32) {
    debug_assert!(level != 0 && (-2047..=2047).contains(&level));
    if first && run == 0 && level.abs() == 1 {
        w.put_bits(1, 1);
        w.put_bit((level < 0) as u32);
        return;
    }
    if level.abs() <= max_table_level(run) {
        let packed = rl(run as u16, level.unsigned_abs() as u16);
        let (code, len) = TABLE.encode_key_unwrap(packed as usize);
        w.put_bits(code, len as u32);
        w.put_bit((level < 0) as u32);
    } else {
        w.put_bits(ESCAPE_CODE, ESCAPE_LEN as u32);
        w.put_bits(run as u32, 6);
        w.put_bits((level & 0xFFF) as u32, 12);
    }
}

/// Encodes end-of-block.
pub fn encode_eob(w: &mut BitWriter) {
    w.put_bits(0b10, 2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_entry_round_trips_both_signs() {
        for s in &SPECS {
            if s.value == EOB || s.value == ESCAPE {
                continue;
            }
            let run = run_of(s.value) as u8;
            let mag = magnitude_of(s.value);
            for level in [mag, -mag] {
                for first in [false, true] {
                    let mut w = BitWriter::new();
                    encode_coeff(&mut w, first, run, level);
                    let bytes = w.into_bytes();
                    let mut r = BitReader::new(&bytes);
                    assert_eq!(
                        decode_token(&mut r, first).unwrap(),
                        Some((run as usize, level)),
                        "run={run} level={level} first={first}"
                    );
                }
            }
        }
    }

    #[test]
    fn escape_levels_round_trip() {
        for (run, level) in [
            (0u8, 41i32),
            (5, -200),
            (31, 2),
            (40, 1),
            (63, 2047),
            (2, -2047),
        ] {
            let mut w = BitWriter::new();
            encode_coeff(&mut w, false, run, level);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(
                decode_token(&mut r, false).unwrap(),
                Some((run as usize, level))
            );
        }
    }

    #[test]
    fn eob_decodes_only_when_not_first() {
        let mut w = BitWriter::new();
        encode_eob(&mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode_token(&mut r, false).unwrap(), None);
        // As a first coefficient the leading 1 takes the first-coefficient
        // path: '1' + sign '0' reads as run 0 / level +1.
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode_token(&mut r, true).unwrap(), Some((0, 1)));
    }

    #[test]
    fn first_coefficient_level_one_is_two_bits() {
        let mut w = BitWriter::new();
        encode_coeff(&mut w, true, 0, 1);
        assert_eq!(w.bit_len(), 2);
        let mut w = BitWriter::new();
        encode_coeff(&mut w, false, 0, 1);
        assert_eq!(w.bit_len(), 3);
    }

    #[test]
    fn forbidden_escape_levels_rejected() {
        // escape + run 0 + level 0.
        let mut w = BitWriter::new();
        w.put_bits(ESCAPE_CODE, ESCAPE_LEN as u32);
        w.put_bits(0, 6);
        w.put_bits(0, 12);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(decode_token(&mut r, false).is_err());
        // escape + run 0 + level -2048 (0x800).
        let mut w = BitWriter::new();
        w.put_bits(ESCAPE_CODE, ESCAPE_LEN as u32);
        w.put_bits(0, 6);
        w.put_bits(0x800, 12);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert!(decode_token(&mut r, false).is_err());
    }

    #[test]
    fn max_table_level_matches_specs() {
        for run in 0u8..64 {
            let max_in_specs = SPECS
                .iter()
                .filter(|s| s.value != EOB && s.value != ESCAPE && run_of(s.value) == run as usize)
                .map(|s| magnitude_of(s.value))
                .max()
                .unwrap_or(0);
            assert_eq!(max_table_level(run), max_in_specs, "run={run}");
        }
    }
}
