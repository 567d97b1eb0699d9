//! Table B-10: `motion_code`, plus the MPEG-2 motion-vector delta
//! arithmetic (§7.6.3).
//!
//! Non-zero codes are followed by a sign bit; the magnitude table shares its
//! Huffman tree with the macroblock-address-increment table.

use tiledec_bitstream::{BitReader, BitWindow, BitWriter};

use super::vlc::{lut_len, spec, VlcSpec, VlcTable};

/// Decoded motion code: magnitude 0–16 (sign handled separately).
pub(crate) const SPECS: [VlcSpec; 17] = [
    spec(0, 0b1, 1),
    spec(1, 0b01, 2),
    spec(2, 0b001, 3),
    spec(3, 0b0001, 4),
    spec(4, 0b0000_11, 6),
    spec(5, 0b0000_101, 7),
    spec(6, 0b0000_100, 7),
    spec(7, 0b0000_011, 7),
    spec(8, 0b0000_0101_1, 9),
    spec(9, 0b0000_0101_0, 9),
    spec(10, 0b0000_0100_1, 9),
    spec(11, 0b0000_0100_01, 10),
    spec(12, 0b0000_0100_00, 10),
    spec(13, 0b0000_0011_11, 10),
    spec(14, 0b0000_0011_10, 10),
    spec(15, 0b0000_0011_01, 10),
    spec(16, 0b0000_0011_00, 10),
];

pub(crate) static TABLE: VlcTable<{ lut_len(&SPECS) }, 17> =
    VlcTable::build("B-10 motion_code", &SPECS, 0);

/// Decodes a signed motion code (−16 … +16).
pub fn decode_motion_code(r: &mut BitReader<'_>) -> crate::Result<i32> {
    let mag = TABLE.decode(r)? as i32;
    if mag == 0 {
        return Ok(0);
    }
    let sign = r.read_bit()?;
    Ok(if sign == 1 { -mag } else { mag })
}

/// Encodes a signed motion code (−16 … +16).
pub fn encode_motion_code(w: &mut BitWriter, code: i32) {
    assert!(
        (-16..=16).contains(&code),
        "motion code {code} out of range"
    );
    let (bits, len) = TABLE.encode_key_unwrap(code.unsigned_abs() as usize);
    w.put_bits(bits, len as u32);
    if code != 0 {
        w.put_bit((code < 0) as u32);
    }
}

/// The component delta a non-zero `motion_code` and its residual spell
/// (§7.6.3.1), for `f = 1 << (f_code − 1)`.
#[inline]
fn delta(code: i32, residual: i32, f: i32) -> i32 {
    let mag = (code.abs() - 1) * f + residual + 1;
    if code < 0 {
        -mag
    } else {
        mag
    }
}

/// Decodes one motion-vector component (§7.6.3.1) step by step: reads
/// `motion_code` and, when `f_code > 1` and the code is non-zero, an
/// `f_code − 1`-bit residual. Returns the new component value given the
/// prediction `pred`, wrapping into the legal range. This is the read
/// sequence truncation positions are defined by.
pub fn decode_mv_component(r: &mut BitReader<'_>, f_code: u8, pred: i32) -> crate::Result<i32> {
    let r_size = (f_code - 1) as u32;
    let f = 1i32 << r_size;
    let code = decode_motion_code(r)?;
    if code == 0 {
        return Ok(wrap_mv(pred, f));
    }
    let residual = r.read_bits(r_size)? as i32;
    Ok(wrap_mv(pred + delta(code, residual, f), f))
}

/// [`decode_mv_component`] out of a lent window: one peek wide enough for
/// the longest motion code plus sign and residual (10 + 1 + 8 = 19 bits),
/// one table load, one consume. A window that cannot cover that steps
/// through the reader.
#[inline]
pub fn decode_mv_component_in(
    w: &mut BitWindow<'_, '_>,
    f_code: u8,
    pred: i32,
) -> crate::Result<i32> {
    let r_size = (f_code - 1) as u32;
    let f = 1i32 << r_size;
    let width = TABLE.max_len() as u32 + 1 + r_size;
    if !w.ensure(width) {
        return w.step(|r| decode_mv_component(r, f_code, pred));
    }
    let token = w.peek(width);
    let (mag, len) = TABLE.lookup(token >> (1 + r_size));
    if len == 0 {
        return Err(w.invalid_code(TABLE.name()).into());
    }
    if mag == 0 {
        w.consume(len as u32);
        return Ok(wrap_mv(pred, f));
    }
    w.consume(len as u32 + 1 + r_size);
    let rest = token >> (width - len as u32 - 1 - r_size);
    let code = if (rest >> r_size) & 1 == 1 {
        -(mag as i32)
    } else {
        mag as i32
    };
    let residual = (rest & ((1 << r_size) - 1)) as i32;
    Ok(wrap_mv(pred + delta(code, residual, f), f))
}

/// Encodes one motion-vector component value given the prediction. The
/// caller guarantees `value` is reachable under `f_code` (i.e.
/// `|value − pred| < 16·f` after wrapping).
pub fn encode_mv_component(w: &mut BitWriter, f_code: u8, pred: i32, value: i32) {
    let r_size = (f_code - 1) as u32;
    let f = 1i32 << r_size;
    let range = 32 * f;
    let mut delta = value - pred;
    // Wrap the delta into (−16f, 16f) — the decoder's wrap recovers value.
    if delta < -16 * f {
        delta += range;
    } else if delta >= 16 * f {
        delta -= range;
    }
    assert!(
        (-16 * f..16 * f).contains(&delta),
        "delta {delta} unreachable with f_code {f_code}"
    );
    if delta == 0 {
        encode_motion_code(w, 0);
        return;
    }
    let mag = delta.abs();
    // mag = (|code|-1)*f + residual + 1, residual in [0, f)
    let code_mag = (mag - 1) / f + 1;
    let residual = (mag - 1) % f;
    let code = if delta < 0 { -code_mag } else { code_mag };
    encode_motion_code(w, code);
    if r_size > 0 {
        w.put_bits(residual as u32, r_size);
    }
}

/// Wraps a reconstructed component into `[−16f, 16f)`.
fn wrap_mv(v: i32, f: i32) -> i32 {
    let range = 32 * f;
    let low = -16 * f;
    let high = 16 * f - 1;
    if v < low {
        v + range
    } else if v > high {
        v - range
    } else {
        v
    }
}

/// The largest representable component magnitude for an `f_code`, in
/// half-pel units (§6.3.10: range is `[−16·2^(f_code−1), 16·2^(f_code−1))`).
pub fn max_component(f_code: u8) -> i32 {
    16 * (1 << (f_code - 1)) - 1
}

/// The smallest `f_code` (1–9) whose range covers `magnitude` half-pel
/// units.
pub fn f_code_for(magnitude: i32) -> u8 {
    for fc in 1u8..=9 {
        if magnitude <= max_component(fc) {
            return fc;
        }
    }
    9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motion_codes_round_trip() {
        for code in -16i32..=16 {
            let mut w = BitWriter::new();
            encode_motion_code(&mut w, code);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(decode_motion_code(&mut r).unwrap(), code);
        }
    }

    #[test]
    fn zero_code_is_one_bit() {
        let mut w = BitWriter::new();
        encode_motion_code(&mut w, 0);
        assert_eq!(w.bit_len(), 1);
    }

    #[test]
    fn components_round_trip_across_fcodes() {
        for f_code in 1u8..=5 {
            let max = max_component(f_code);
            for pred in [-max, -17, -1, 0, 3, max] {
                for value in [-max, -16, -2, 0, 1, 15, max] {
                    let mut w = BitWriter::new();
                    encode_mv_component(&mut w, f_code, pred, value);
                    let bytes = w.into_bytes();
                    let mut r = BitReader::new(&bytes);
                    let got = decode_mv_component(&mut r, f_code, pred).unwrap();
                    assert_eq!(got, value, "f_code={f_code} pred={pred} value={value}");
                }
            }
        }
    }

    #[test]
    fn wrap_recovers_large_jumps() {
        // A jump from +max to -max must wrap through the modular range.
        let f_code = 2;
        let max = max_component(f_code);
        let mut w = BitWriter::new();
        encode_mv_component(&mut w, f_code, max, -max);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(decode_mv_component(&mut r, f_code, max).unwrap(), -max);
    }

    #[test]
    fn f_code_selection() {
        assert_eq!(f_code_for(0), 1);
        assert_eq!(f_code_for(15), 1);
        assert_eq!(f_code_for(16), 2);
        assert_eq!(f_code_for(31), 2);
        assert_eq!(f_code_for(32), 3);
        assert_eq!(max_component(1), 15);
        assert_eq!(max_component(4), 127);
    }
}
