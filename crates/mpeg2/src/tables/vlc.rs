//! Generic prefix-code machinery: a table is built at compile time from its
//! entry list and provides both decode (a two-level lookup keyed on the
//! next bits) and encode (a value-indexed map).
//!
//! # Two-level layout
//!
//! A flat `2^max_len` table is wasteful for MPEG-2's long tables: dct_coeff
//! codes run to 16 bits but the overwhelmingly common ones fit in 8, so a
//! flat table would spend 64 Ki entries to serve lookups that almost always
//! need 256. Instead the root is indexed by the next
//! `root_bits = min(max_len, 8)` bits. A root slot is one of:
//!
//! * `len == 0` — invalid prefix;
//! * `0 < len <= root_bits` — a short code, decoded in one load;
//! * top byte [`LONG`] — the prefix of one or more long codes; the slot
//!   names a subtable later in the same array, indexed by as many further
//!   bits as the longest code under that prefix needs.
//!
//! The split is exactly equivalent to the flat table — a code of length
//! `<= root_bits` is fully determined by the root index, and a longer code
//! by root index plus tail — which [`super::verify`] proves pattern by
//! pattern.
//!
//! # Two ways in
//!
//! [`VlcTable::decode`] is the step-by-step form on a [`BitReader`]: every
//! bit it takes is bounds-checked, so it is what runs within eight bytes of
//! a buffer's end and what raises every `UnexpectedEnd`.
//! [`VlcTable::decode_in`] is the same decode out of a lent [`BitWindow`];
//! when the window cannot cover the longest code it steps through the
//! reader for that one token.

use tiledec_bitstream::{BitReader, BitWindow};

/// Top byte of a root slot that continues in a subtable:
/// `LONG << 24 | subtable offset << 8 | tail bits`. Every other entry is
/// `value << 16 | code length`.
const LONG: u32 = 0xFD;

/// One code of a VLC table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VlcSpec {
    /// Decoded value (what it means is the table's business).
    pub value: u16,
    /// Code bits, right-aligned.
    pub code: u32,
    /// Code length in bits (1–16).
    pub len: u8,
}

/// Convenience constructor used by the table definitions.
pub const fn spec(value: u16, code: u32, len: u8) -> VlcSpec {
    VlcSpec { value, code, len }
}

const fn max_len(specs: &[VlcSpec]) -> u8 {
    let (mut i, mut max) = (0, 0);
    while i < specs.len() {
        if specs[i].len > max {
            max = specs[i].len;
        }
        i += 1;
    }
    max
}

const fn root_bits(max_len: u8) -> u8 {
    if max_len < 8 {
        max_len
    } else {
        8
    }
}

/// Per root slot, the bits its longest code has beyond the root (0 for
/// slots no long code starts with).
const fn tail_bits(specs: &[VlcSpec]) -> [u8; 256] {
    let root = root_bits(max_len(specs));
    let mut tails = [0u8; 256];
    let mut i = 0;
    while i < specs.len() {
        let s = &specs[i];
        if s.len > root {
            let slot = (s.code >> (s.len - root)) as usize;
            if s.len - root > tails[slot] {
                tails[slot] = s.len - root;
            }
        }
        i += 1;
    }
    tails
}

/// Entries a [`VlcTable`] needs for `specs`: the root plus one subtable
/// per long prefix. Tables name it as their `N`.
pub const fn lut_len(specs: &[VlcSpec]) -> usize {
    let tails = tail_bits(specs);
    let mut n = 1usize << root_bits(max_len(specs));
    let mut slot = 0;
    while slot < 256 {
        if tails[slot] > 0 {
            n += 1 << tails[slot];
        }
        slot += 1;
    }
    n
}

/// A VLC table: `N` decode entries (see the module docs for the layout)
/// and an encode map over the values below `K`.
pub struct VlcTable<const N: usize, const K: usize> {
    name: &'static str,
    max_len: u8,
    root_bits: u8,
    lut: [u32; N],
    /// `enc[value] = code << 8 | len`, 0 where the table has no code.
    enc: [u32; K],
}

impl<const N: usize, const K: usize> VlcTable<N, K> {
    /// Builds a table from its specs, at compile time for the committed
    /// tables. Patterns no code matches decode as `(invalid, 0)`; values
    /// of `K` and above (sentinels) get no encode entry.
    ///
    /// Panics — a compile error in a `static` — when two codes collide
    /// (one is a prefix of the other, across the level split too), a code
    /// is wider than its length, or two codes share a value.
    pub const fn build(name: &'static str, specs: &[VlcSpec], invalid: u16) -> Self {
        let max_len = max_len(specs);
        assert!(max_len >= 1 && max_len <= 16, "MPEG-2 codes are 1-16 bits");
        assert!(N == lut_len(specs), "N must be lut_len(specs)");
        assert!(invalid >> 8 != LONG as u16, "value reads as a LONG slot");
        let root_bits = root_bits(max_len);
        let tails = tail_bits(specs);
        let mut lut = [(invalid as u32) << 16; N];
        let mut next = 1usize << root_bits;
        let mut slot = 0;
        while slot < 256 {
            if tails[slot] > 0 {
                lut[slot] = LONG << 24 | (next as u32) << 8 | tails[slot] as u32;
                next += 1 << tails[slot];
            }
            slot += 1;
        }
        let mut enc = [0u32; K];
        let mut i = 0;
        while i < specs.len() {
            let s = &specs[i];
            assert!(
                s.len >= 1 && s.code >> s.len == 0,
                "code wider than its length"
            );
            assert!(s.value >> 8 != LONG as u16, "value reads as a LONG slot");
            // The run of slots whose index starts with this code: in the
            // root, or in the subtable its first `root_bits` bits name.
            let (first, free) = if s.len <= root_bits {
                let free = root_bits - s.len;
                ((s.code as usize) << free, free)
            } else {
                let tail_len = s.len - root_bits;
                let slot = lut[(s.code >> tail_len) as usize];
                assert!(slot >> 24 == LONG, "long code without a subtable");
                let free = slot as u8 - tail_len;
                let tail = (s.code & ((1 << tail_len) - 1)) as usize;
                (((slot >> 8) & 0xFFFF) as usize + (tail << free), free)
            };
            let mut j = first;
            while j < first + (1 << free) {
                assert!(
                    lut[j] as u8 == 0 && lut[j] >> 24 != LONG,
                    "code collides with an earlier entry"
                );
                lut[j] = (s.value as u32) << 16 | s.len as u32;
                j += 1;
            }
            if (s.value as usize) < K {
                assert!(enc[s.value as usize] == 0, "two codes for one value");
                enc[s.value as usize] = s.code << 8 | s.len as u32;
            }
            i += 1;
        }
        VlcTable {
            name,
            max_len,
            root_bits,
            lut,
            enc,
        }
    }

    /// Longest code length in the table.
    pub const fn max_len(&self) -> u8 {
        self.max_len
    }

    /// Table name, as reported in invalid-code errors.
    pub const fn name(&self) -> &'static str {
        self.name
    }

    /// Resolves `bits` — the next `max_len` bits of the stream, right
    /// aligned — to `(value, code_len)`; `code_len == 0` means no code
    /// matches. Consumes nothing: callers that peeked a wider window
    /// (e.g. code + sign bit) decode from it and consume once.
    #[inline]
    pub fn lookup(&self, bits: u32) -> (u16, u8) {
        let below_root = (self.max_len - self.root_bits) as u32;
        let mut e = self.lut[(bits >> below_root) as usize & ((1 << self.root_bits) - 1)];
        if e >> 24 == LONG {
            let tail_bits = e & 0xFF;
            let tail = (bits >> (below_root - tail_bits)) & ((1 << tail_bits) - 1);
            e = self.lut[((e >> 8) & 0xFFFF) as usize + tail as usize];
        }
        ((e >> 16) as u16, e as u8)
    }

    /// Decodes the next code from `r` step by step, consuming its bits.
    pub fn decode(&self, r: &mut BitReader<'_>) -> crate::Result<u16> {
        r.refill();
        let (value, len) = self.lookup(r.peek_bits(self.max_len as u32));
        if len == 0 {
            return Err(r.invalid_code(self.name).into());
        }
        r.skip(len as usize)?;
        Ok(value)
    }

    /// Decodes the next code out of a lent window.
    #[inline]
    pub fn decode_in(&self, w: &mut BitWindow<'_, '_>) -> crate::Result<u16> {
        if !w.ensure(self.max_len as u32) {
            return w.step(|r| self.decode(r));
        }
        let (value, len) = self.lookup(w.peek(self.max_len as u32));
        if len == 0 {
            return Err(w.invalid_code(self.name).into());
        }
        w.consume(len as u32);
        Ok(value)
    }

    /// This table with one bit of one decode entry flipped, for the
    /// verifier's self-test.
    #[cfg(test)]
    pub(crate) fn with_flipped_bit(&self, slot: usize, bit: u32) -> Self {
        let mut lut = self.lut;
        lut[slot] ^= 1 << bit;
        VlcTable { lut, ..*self }
    }

    /// The `(code, len)` pair for a value. Panics when the table has no
    /// code for it: callers encode only what they know the table holds.
    #[inline]
    pub fn encode_key_unwrap(&self, k: usize) -> (u32, u8) {
        match self.enc.get(k) {
            Some(&e) if e != 0 => (e >> 8, e as u8),
            _ => panic!("{}: no code for key {k}", self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiledec_bitstream::BitWriter;

    const DEMO: [VlcSpec; 4] = [
        spec(0, 0b1, 1),
        spec(1, 0b01, 2),
        spec(2, 0b001, 3),
        spec(3, 0b000, 3),
    ];
    static DEMO_TABLE: VlcTable<{ lut_len(&DEMO) }, 4> = VlcTable::build("demo", &DEMO, 0);

    /// Codes straddling the 8-bit root split: 1, 01, and a family of long
    /// codes under the 0000_0000 root prefix.
    const TWO_LEVEL: [VlcSpec; 5] = [
        spec(0, 0b1, 1),
        spec(1, 0b01, 2),
        spec(2, 0b0000_0000_1, 9),
        spec(3, 0b0000_0000_01, 10),
        spec(4, 0b0000_0000_0000_0001, 16),
    ];
    static TWO_LEVEL_TABLE: VlcTable<{ lut_len(&TWO_LEVEL) }, 5> =
        VlcTable::build("two-level", &TWO_LEVEL, 0);

    #[test]
    fn decode_reads_exact_lengths() {
        // Bits: 1 | 01 | 001 | 000 = 1 01 001 000 -> 0b1010_0100 0b0...
        let mut w = BitWriter::new();
        for (code, len) in [(1u32, 1u32), (1, 2), (1, 3), (0, 3)] {
            w.put_bits(code, len);
        }
        let bytes = w.into_bytes();
        let t = &DEMO_TABLE;
        let mut r = BitReader::new(&bytes);
        assert_eq!(t.decode(&mut r).unwrap(), 0);
        assert_eq!(t.decode(&mut r).unwrap(), 1);
        assert_eq!(t.decode(&mut r).unwrap(), 2);
        assert_eq!(t.decode(&mut r).unwrap(), 3);
        assert_eq!(r.bit_position(), 9);
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = &DEMO_TABLE;
        for v in 0u16..4 {
            let (code, len) = t.encode_key_unwrap(v as usize);
            let mut w = BitWriter::new();
            w.put_bits(code, len as u32);
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            assert_eq!(t.decode(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn two_level_round_trip_and_exact_positions() {
        let t = &TWO_LEVEL_TABLE;
        assert_eq!(t.max_len(), 16);
        // Root, plus one 256-entry subtable under 0000_0000.
        assert_eq!(lut_len(&TWO_LEVEL), 512);
        // Interleave short and long codes in one stream; positions must
        // advance by exactly each code's length — out of a window while
        // eight bytes are ahead, through the reader after.
        let seq = [0u16, 2, 1, 4, 3, 0, 4, 2, 3, 4, 1, 4, 4, 0];
        let mut w = BitWriter::new();
        let mut expect_pos = 0usize;
        for &v in &seq {
            let (code, len) = t.encode_key_unwrap(v as usize);
            w.put_bits(code, len as u32);
            expect_pos += len as usize;
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &seq {
            assert_eq!(t.decode(&mut r).unwrap(), v);
        }
        assert_eq!(r.bit_position(), expect_pos);
        let mut r = BitReader::new(&bytes);
        let mut win = r.lend();
        for &v in &seq {
            assert_eq!(t.decode_in(&mut win).unwrap(), v);
        }
        drop(win);
        assert_eq!(r.bit_position(), expect_pos);
    }

    #[test]
    fn two_level_invalid_tail_is_invalid_code() {
        let t = &TWO_LEVEL_TABLE;
        // Root prefix 0000_0000 escapes to the subtable, but tail
        // 0000_0010 matches no code.
        let mut bytes = vec![0b0000_0000, 0b0000_0010];
        for pad in [0, 8] {
            bytes.resize(2 + pad, 0xFF);
            let mut r = BitReader::new(&bytes);
            assert!(t.decode(&mut r).is_err());
            assert_eq!(r.bit_position(), 0, "a failed decode must not consume");
            assert!(t.decode_in(&mut r.lend()).is_err());
            assert_eq!(r.bit_position(), 0, "a failed decode must not consume");
        }
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn prefix_collision_panics() {
        const BAD: [VlcSpec; 2] = [spec(0, 0b1, 1), spec(1, 0b10, 2)];
        VlcTable::<{ lut_len(&BAD) }, 2>::build("bad", &BAD, 0);
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn cross_level_collision_panics() {
        // The 3-bit code 000 is a root-level prefix of the 9-bit code.
        const BAD: [VlcSpec; 2] = [spec(0, 0b000, 3), spec(1, 0b0000_0000_1, 9)];
        VlcTable::<{ lut_len(&BAD) }, 2>::build("bad-cross", &BAD, 0);
    }
}
