use std::fmt;

/// Error produced by bit-level reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BitstreamError {
    /// A read ran past the end of the buffer.
    UnexpectedEnd {
        /// Bit position at which the read was attempted.
        bit_pos: usize,
    },
    /// A variable-length code did not match any table entry.
    InvalidCode {
        /// Bit position of the first bit of the failed code.
        bit_pos: usize,
        /// Name of the VLC table.
        table: &'static str,
    },
    /// A syntax element held a forbidden value (e.g. a zero marker bit).
    Syntax {
        /// Bit position of the offending element.
        bit_pos: usize,
        /// What was violated.
        what: &'static str,
    },
}

impl fmt::Display for BitstreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitstreamError::UnexpectedEnd { bit_pos } => {
                write!(f, "unexpected end of bitstream at bit {bit_pos}")
            }
            BitstreamError::InvalidCode { bit_pos, table } => {
                write!(f, "invalid VLC for table {table} at bit {bit_pos}")
            }
            BitstreamError::Syntax { bit_pos, what } => {
                write!(f, "syntax error at bit {bit_pos}: {what}")
            }
        }
    }
}

impl std::error::Error for BitstreamError {}

/// The 8-byte refill both [`BitReader`] and [`BitWindow`] use, and the one
/// place that decides whether eight bytes are ahead: `cache` holds `avail`
/// (< 64) bits MSB-aligned, the next bit of the buffer is `fill`. Returns
/// the topped-up cache and its bit count, or `None` when fewer than eight
/// bytes start at `fill`'s byte.
#[inline]
fn load8(data: &[u8], fill: usize, cache: u64, avail: u32) -> Option<(u64, u32)> {
    let bytes = data.get(fill >> 3..)?.first_chunk()?;
    // `frac` bits of the first byte are already cached: shift them out so
    // bit `fill` lands at the MSB, then append below the cached bits.
    let frac = (fill & 7) as u32;
    let cache = cache | (u64::from_be_bytes(*bytes) << frac) >> avail;
    Some((cache, (avail + 64 - frac).min(64)))
}

/// MSB-first bit reader over a byte slice, accelerated by a 64-bit cache.
///
/// Tracks its position in **bits** so callers (notably the macroblock-level
/// splitter) can record the exact span of a syntax element and later byte-copy
/// it into a sub-picture. `pos` is the single source of truth for that
/// position: the cache only ever mirrors the bits *ahead* of `pos`, so
/// [`BitReader::bit_position`] and every error's `bit_pos` are exact at all
/// times regardless of how full the cache is.
///
/// The cache is a `u64` shift register holding the next `avail` unread bits
/// MSB-aligned (bits below `avail` are zero). [`BitReader::refill`] tops it up
/// 8 bytes at a time with an unaligned big-endian load on the fast path and a
/// checked byte-at-a-time loop near the end of the buffer, which makes
/// `peek_bits`, `skip` and `read_bits` single-shift operations instead of
/// per-byte loops. A decode loop that wants the cache in registers borrows
/// it with [`BitReader::lend`]. The original per-byte implementation is the
/// differential oracle of `tests/proptests.rs`.
#[derive(Clone)]
pub struct BitReader<'a> {
    data: &'a [u8],
    /// Next bit to read, counted from the start of `data`. Always exact.
    pos: usize,
    /// The next `avail` unread bits, MSB-aligned; bits below `avail` are zero.
    cache: u64,
    /// Number of valid bits in `cache` (0..=64).
    avail: u32,
    /// Lent windows never load (see [`BitReader::at_without_window`]).
    refuse_window: bool,
}

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self::at(data, 0)
    }

    /// Creates a reader positioned at `bit_pos` bits into `data`.
    pub fn at(data: &'a [u8], bit_pos: usize) -> Self {
        BitReader {
            data,
            pos: bit_pos,
            cache: 0,
            avail: 0,
            refuse_window: false,
        }
    }

    /// Like [`BitReader::at`], but every window this reader lends reports
    /// "fewer than eight bytes ahead" from the start, so its holder takes
    /// the step-by-step path for every token. The equivalence tests decode
    /// a buffer once with each constructor and demand identical results.
    #[doc(hidden)]
    pub fn at_without_window(data: &'a [u8], bit_pos: usize) -> Self {
        BitReader {
            refuse_window: true,
            ..Self::at(data, bit_pos)
        }
    }

    /// Lends the cache to a decode loop: the returned [`BitWindow`] holds
    /// position and cache in its own fields (locals, once inlined) and
    /// writes them back when dropped.
    #[inline]
    pub fn lend(&mut self) -> BitWindow<'_, 'a> {
        let mut w = BitWindow {
            data: if self.refuse_window { &[] } else { self.data },
            fill: 0,
            cache: 0,
            avail: 0,
            reader: self,
        };
        w.take_state();
        w
    }

    /// The underlying byte slice.
    #[inline]
    pub fn data(&self) -> &'a [u8] {
        self.data
    }

    /// Current position in bits from the start of the buffer.
    #[inline]
    pub fn bit_position(&self) -> usize {
        self.pos
    }

    /// Remaining unread bits.
    #[inline]
    pub fn bits_remaining(&self) -> usize {
        (self.data.len() * 8).saturating_sub(self.pos)
    }

    /// True when positioned on a byte boundary.
    #[inline]
    pub fn is_byte_aligned(&self) -> bool {
        self.pos.is_multiple_of(8)
    }

    /// Advances to the next byte boundary (no-op if already aligned).
    #[inline]
    pub fn align_to_byte(&mut self) {
        let k = (8 - (self.pos & 7)) & 7;
        if k == 0 {
            return;
        }
        if (k as u32) < self.avail {
            self.cache <<= k;
            self.avail -= k as u32;
        } else {
            self.cache = 0;
            self.avail = 0;
        }
        self.pos += k;
    }

    /// Repositions the reader to an absolute bit offset.
    pub fn seek_to(&mut self, bit_pos: usize) {
        self.pos = bit_pos;
        self.cache = 0;
        self.avail = 0;
    }

    /// Tops up the bit cache from the underlying buffer.
    ///
    /// Purely a performance hint: after a refill the next 57+ bits (or every
    /// remaining bit near the buffer end) are served from the cache, so a
    /// peek→LUT→consume VLC step touches memory at most once. Reads and
    /// skips call it automatically; hot decode loops call it once up front.
    #[inline]
    pub fn refill(&mut self) {
        if self.avail > 56 {
            return;
        }
        match load8(
            self.data,
            self.pos + self.avail as usize,
            self.cache,
            self.avail,
        ) {
            Some((cache, avail)) => (self.cache, self.avail) = (cache, avail),
            None => self.refill_tail(),
        }
    }

    /// Checked byte-at-a-time refill for the last few bytes of the buffer.
    #[cold]
    fn refill_tail(&mut self) {
        while self.avail <= 56 {
            let fill = self.pos + self.avail as usize;
            let byte = fill >> 3;
            if byte >= self.data.len() {
                return;
            }
            let frac = (fill & 7) as u32;
            let b = ((self.data[byte] as u64) << 56) << frac;
            self.cache |= b >> self.avail;
            self.avail += 8 - frac;
        }
    }

    /// Skips `n` bits without reading them.
    #[inline]
    pub fn skip(&mut self, n: usize) -> super::Result<()> {
        if self.pos + n > self.data.len() * 8 {
            return Err(BitstreamError::UnexpectedEnd { bit_pos: self.pos });
        }
        if n < self.avail as usize {
            self.cache <<= n;
            self.avail -= n as u32;
        } else {
            self.cache = 0;
            self.avail = 0;
        }
        self.pos += n;
        Ok(())
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> super::Result<u32> {
        if self.avail == 0 {
            self.refill();
            if self.avail == 0 {
                return Err(BitstreamError::UnexpectedEnd { bit_pos: self.pos });
            }
        }
        let bit = (self.cache >> 63) as u32;
        self.cache <<= 1;
        self.avail -= 1;
        self.pos += 1;
        Ok(bit)
    }

    /// Reads `n` bits (0 ≤ n ≤ 32) MSB-first in one shift from the cache.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> super::Result<u32> {
        debug_assert!(n <= 32);
        if self.pos + n as usize > self.data.len() * 8 {
            return Err(BitstreamError::UnexpectedEnd { bit_pos: self.pos });
        }
        if n == 0 {
            return Ok(0);
        }
        if self.avail < n {
            // The bounds check above guarantees the refill covers `n` bits.
            self.refill();
        }
        let v = (self.cache >> (64 - n)) as u32;
        self.cache <<= n;
        self.avail -= n;
        self.pos += n as usize;
        Ok(v)
    }

    /// Reads `n` bits (0 ≤ n ≤ 64) MSB-first into a `u64`.
    pub fn read_bits64(&mut self, n: u32) -> super::Result<u64> {
        debug_assert!(n <= 64);
        if n <= 32 {
            return Ok(self.read_bits(n)? as u64);
        }
        let hi = self.read_bits(n - 32)? as u64;
        let lo = self.read_bits(32)? as u64;
        Ok((hi << 32) | lo)
    }

    /// Peeks at the next `n` bits (0 ≤ n ≤ 32) without consuming them.
    ///
    /// Bits past the end of the buffer read as zero; this is what VLC lookup
    /// wants (a truncated code will then simply fail to match). A cache hit
    /// is a single shift; callers on the hot path pair this with
    /// [`BitReader::refill`] so the cold fallback never runs.
    #[inline]
    pub fn peek_bits(&self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        if n == 0 {
            return 0;
        }
        if n <= self.avail {
            return (self.cache >> (64 - n)) as u32;
        }
        self.peek_bits_cold(n)
    }

    /// Per-byte peek used when the cache holds fewer than `n` bits (near the
    /// end of the buffer, or before the first refill).
    #[cold]
    fn peek_bits_cold(&self, n: u32) -> u32 {
        let mut v: u32 = 0;
        let mut pos = self.pos;
        let mut remaining = n;
        while remaining > 0 {
            let byte = self.data.get(pos >> 3).copied().unwrap_or(0);
            let bit_in_byte = pos & 7;
            let avail = 8 - bit_in_byte as u32;
            let take = remaining.min(avail);
            let shifted = (byte as u32) >> (avail - take);
            let mask = (1u32 << take) - 1;
            v = (v << take) | (shifted & mask);
            pos += take as usize;
            remaining -= take;
        }
        v
    }

    /// Reads a marker bit that must be `1`.
    pub fn marker_bit(&mut self) -> super::Result<()> {
        let pos = self.pos;
        if self.read_bit()? != 1 {
            return Err(BitstreamError::Syntax {
                bit_pos: pos,
                what: "marker bit was 0",
            });
        }
        Ok(())
    }

    /// True if at least `n` more bits can be read.
    #[inline]
    pub fn has_bits(&self, n: usize) -> bool {
        self.pos + n <= self.data.len() * 8
    }

    /// Helper for VLC decode failure at the current position.
    #[inline]
    pub fn invalid_code(&self, table: &'static str) -> BitstreamError {
        BitstreamError::InvalidCode {
            bit_pos: self.pos,
            table,
        }
    }

    /// True when the next bits are a byte-aligned start-code prefix
    /// (`0x000001`) at or after the current (aligned) position. Used by the
    /// slice decoder to detect end-of-slice.
    #[inline]
    pub fn next_is_start_code(&self) -> bool {
        let byte = (self.pos + 7) >> 3;
        byte + 3 <= self.data.len()
            && self.data[byte] == 0
            && self.data[byte + 1] == 0
            && self.data[byte + 2] == 1
    }
}

/// A [`BitReader`]'s position and cache on loan ([`BitReader::lend`]).
///
/// The holder asks for bits with [`ensure`](Self::ensure), decodes out of
/// [`peek`](Self::peek) and pays with [`consume`](Self::consume): shifts on
/// three locals, no buffer-end compare per token. Only `ensure` looks at
/// the buffer, and only through one in-bounds 8-byte load: when fewer than
/// eight bytes lie ahead of the cache it returns `false` and the holder
/// decodes that token through [`step`](Self::step) — the reader's own
/// checked operations — or drops the window and carries on with the reader.
/// Either way every `UnexpectedEnd` is raised by the reader, at the position
/// the step-by-step code has always reported. Dropping the window re-seats
/// the reader at the window's position, so an error raised while it is
/// held leaves the reader exactly where the failed token starts (nothing
/// consumed) or ends (consumed, then rejected).
///
/// Invariant (the reader's): the cache holds the next `avail` bits of the
/// buffer MSB-aligned and zeros below them — never a bit past the end.
pub struct BitWindow<'r, 'a> {
    reader: &'r mut BitReader<'a>,
    /// What `ensure` may load from: the reader's buffer, or nothing.
    data: &'a [u8],
    /// First bit not yet in the cache: position + `avail`.
    fill: usize,
    cache: u64,
    avail: u32,
}

impl<'a> BitWindow<'_, 'a> {
    #[inline]
    fn take_state(&mut self) {
        // A refusing reader's cache is dropped, not lent: bits already
        // cached would be decodable without a load.
        let r = &*self.reader;
        (self.cache, self.avail) = if r.refuse_window {
            (0, 0)
        } else {
            (r.cache, r.avail)
        };
        self.fill = r.pos + self.avail as usize;
    }

    #[inline]
    fn give_state(&mut self) {
        self.reader.pos = self.bit_position();
        self.reader.cache = self.cache;
        self.reader.avail = self.avail;
    }

    /// Current position in bits from the start of the buffer.
    #[inline]
    pub fn bit_position(&self) -> usize {
        self.fill - self.avail as usize
    }

    /// True when the next `n` bits (n ≤ 57) are in the cache, loading eight
    /// bytes if they were not. False means fewer than eight bytes are left
    /// ahead of the cache; the window is unchanged.
    #[inline]
    pub fn ensure(&mut self, n: u32) -> bool {
        debug_assert!(n <= 57);
        self.avail >= n || self.load()
    }

    #[inline]
    fn load(&mut self) -> bool {
        let Some((cache, avail)) = load8(self.data, self.fill, self.cache, self.avail) else {
            return false;
        };
        self.fill += (avail - self.avail) as usize;
        (self.cache, self.avail) = (cache, avail);
        true
    }

    /// The next `n` bits (1 ≤ n ≤ 32), which the caller has `ensure`d.
    #[inline]
    pub fn peek(&self, n: u32) -> u32 {
        debug_assert!((1..=32).contains(&n) && n <= self.avail);
        (self.cache >> (64 - n)) as u32
    }

    /// Consumes `n` bits (n ≤ 32) the caller has `ensure`d.
    #[inline]
    pub fn consume(&mut self, n: u32) {
        debug_assert!(n <= 32 && n <= self.avail);
        self.cache <<= n;
        self.avail -= n;
    }

    /// Reads `n` bits (1 ≤ n ≤ 32), through the reader when the window
    /// cannot cover them.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> super::Result<u32> {
        if !self.ensure(n) {
            return self.step(|r| r.read_bits(n));
        }
        let v = self.peek(n);
        self.consume(n);
        Ok(v)
    }

    /// Runs `f` on the reader itself, seated at the window's position, and
    /// picks the window up again from wherever `f` left the reader.
    #[inline]
    pub fn step<T>(&mut self, f: impl FnOnce(&mut BitReader<'a>) -> T) -> T {
        self.give_state();
        let v = f(self.reader);
        self.take_state();
        v
    }

    /// Error for a VLC that matches nothing at the current position.
    #[inline]
    pub fn invalid_code(&self, table: &'static str) -> BitstreamError {
        BitstreamError::InvalidCode {
            bit_pos: self.bit_position(),
            table,
        }
    }
}

impl Drop for BitWindow<'_, '_> {
    #[inline]
    fn drop(&mut self) {
        self.give_state();
    }
}

impl fmt::Debug for BitReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BitReader")
            .field("pos_bits", &self.pos)
            .field("len_bytes", &self.data.len())
            .field("cached_bits", &self.avail)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_single_bits_msb_first() {
        let mut r = BitReader::new(&[0b1010_0001]);
        assert_eq!(r.read_bit().unwrap(), 1);
        assert_eq!(r.read_bit().unwrap(), 0);
        assert_eq!(r.read_bit().unwrap(), 1);
        assert_eq!(r.read_bit().unwrap(), 0);
        assert_eq!(r.read_bits(4).unwrap(), 0b0001);
        assert!(r.read_bit().is_err());
    }

    #[test]
    fn reads_multi_byte_fields() {
        let mut r = BitReader::new(&[0xAB, 0xCD, 0xEF, 0x12]);
        assert_eq!(r.read_bits(12).unwrap(), 0xABC);
        assert_eq!(r.read_bits(12).unwrap(), 0xDEF);
        assert_eq!(r.read_bits(8).unwrap(), 0x12);
    }

    #[test]
    fn read_bits_32_across_boundary() {
        let mut r = BitReader::new(&[0xFF, 0x00, 0xFF, 0x00, 0xAA]);
        r.skip(4).unwrap();
        assert_eq!(r.read_bits(32).unwrap(), 0xF00F_F00A);
    }

    #[test]
    fn read_bits64_full_width() {
        let data = [0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF];
        let mut r = BitReader::new(&data);
        assert_eq!(r.read_bits64(64).unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn peek_does_not_advance_and_pads_with_zero() {
        let r = BitReader::new(&[0b1100_0000]);
        assert_eq!(r.peek_bits(2), 0b11);
        assert_eq!(r.peek_bits(2), 0b11);
        assert_eq!(r.peek_bits(16), 0b1100_0000 << 8);
        assert_eq!(r.bit_position(), 0);
    }

    #[test]
    fn peek_from_warm_cache_pads_with_zero_past_end() {
        // Force a refill first, then peek past the end: cache-resident zero
        // padding must match the cold path's.
        let mut r = BitReader::new(&[0b1100_0000, 0xFF]);
        assert_eq!(r.read_bits(2).unwrap(), 0b11);
        // 6 zero bits, 8 one bits, then zero padding past the end.
        assert_eq!(r.peek_bits(20), 0xFF << 6);
        assert_eq!(r.peek_bits(14), 0xFF);
        assert_eq!(r.bit_position(), 2);
    }

    #[test]
    fn alignment() {
        let mut r = BitReader::new(&[0xFF, 0x0F]);
        assert!(r.is_byte_aligned());
        r.read_bits(3).unwrap();
        assert!(!r.is_byte_aligned());
        r.align_to_byte();
        assert_eq!(r.bit_position(), 8);
        r.align_to_byte();
        assert_eq!(r.bit_position(), 8);
        assert_eq!(r.read_bits(8).unwrap(), 0x0F);
    }

    #[test]
    fn marker_bit_enforced() {
        let mut r = BitReader::new(&[0b1000_0000]);
        assert!(r.marker_bit().is_ok());
        assert!(matches!(r.marker_bit(), Err(BitstreamError::Syntax { .. })));
    }

    #[test]
    fn next_is_start_code_detects_prefix() {
        let data = [0xFF, 0x00, 0x00, 0x01, 0xB3];
        let mut r = BitReader::new(&data);
        assert!(!r.next_is_start_code());
        r.read_bits(3).unwrap();
        // After partial byte, alignment rounds up to byte 1 where 000001 begins.
        assert!(r.next_is_start_code());
        r.align_to_byte();
        assert!(r.next_is_start_code());
    }

    #[test]
    fn seek_and_bit_position_round_trip() {
        let data = [0u8; 16];
        let mut r = BitReader::new(&data);
        r.seek_to(37);
        assert_eq!(r.bit_position(), 37);
        assert_eq!(r.bits_remaining(), 128 - 37);
    }

    #[test]
    fn seek_to_unaligned_position_reads_correctly() {
        let data = [0xAB, 0xCD, 0xEF, 0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC];
        for start in 0..32usize {
            let mut r = BitReader::at(&data, start);
            let mut s = BitReader::new(&data);
            s.skip(start).unwrap();
            assert_eq!(r.read_bits(16).unwrap(), s.read_bits(16).unwrap());
        }
    }

    #[test]
    fn error_positions_are_exact_mid_cache() {
        // Consume into a warm cache, then overrun: the error position must be
        // the exact logical bit position, not a refill boundary.
        let data = [0xFFu8; 6];
        let mut r = BitReader::new(&data);
        r.read_bits(13).unwrap();
        // read_bits64 is two 32-bit reads; the first succeeds, so the error
        // position is 13 + 32 = 45 — same as the pre-cache reader.
        assert_eq!(
            r.read_bits64(64).unwrap_err(),
            BitstreamError::UnexpectedEnd { bit_pos: 45 }
        );
        assert_eq!(r.bit_position(), 45);
        assert_eq!(
            r.skip(6).unwrap_err(),
            BitstreamError::UnexpectedEnd { bit_pos: 45 }
        );
        assert_eq!(r.read_bits(3).unwrap(), 0b111);
        assert_eq!(
            r.read_bit().unwrap_err(),
            BitstreamError::UnexpectedEnd { bit_pos: 48 }
        );
    }

    #[test]
    fn refill_is_idempotent_and_position_neutral() {
        let data: Vec<u8> = (0..32u8).collect();
        let mut r = BitReader::new(&data);
        r.read_bits(11).unwrap();
        let pos = r.bit_position();
        let peek = r.peek_bits(32);
        r.refill();
        r.refill();
        assert_eq!(r.bit_position(), pos);
        assert_eq!(r.peek_bits(32), peek);
        assert_eq!(r.read_bits(32).unwrap(), peek);
    }
}
