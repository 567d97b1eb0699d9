//! [`SlowBitReader`] is the original per-byte `BitReader` kept verbatim as
//! the **differential oracle**: the property suite drives random operation
//! interleavings through both readers and asserts identical values, bit
//! positions and error positions. One piece of dead code was removed rather
//! than preserved: the old `read_bits` had `take == 32` arms that were
//! unreachable (a single byte never yields more than 8 bits per iteration).
//!
//! [`naive_find_start_code`] is the scanner's oracle: a plain `windows(4)`
//! search that shares no code with `find_start_code`.

use tiledec_bitstream::{BitstreamError, Result, StartCode};

/// The first `00 00 01 xx` pattern at or after `from`, by testing every
/// four-byte window in turn.
pub fn naive_find_start_code(data: &[u8], from: usize) -> Option<StartCode> {
    data.get(from..)?
        .windows(4)
        .enumerate()
        .find(|(_, w)| w[..3] == [0, 0, 1])
        .map(|(i, w)| StartCode {
            offset: from + i,
            code: w[3],
        })
}

/// MSB-first per-byte bit reader: the pre-cache reference implementation.
#[derive(Clone, Debug)]
pub struct SlowBitReader<'a> {
    data: &'a [u8],
    /// Next bit to read, counted from the start of `data`.
    pos: usize,
}

impl<'a> SlowBitReader<'a> {
    /// Creates a reader positioned at the first bit of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        SlowBitReader { data, pos: 0 }
    }

    /// Current position in bits from the start of the buffer.
    pub fn bit_position(&self) -> usize {
        self.pos
    }

    /// Remaining unread bits.
    pub fn bits_remaining(&self) -> usize {
        (self.data.len() * 8).saturating_sub(self.pos)
    }

    /// Advances to the next byte boundary (no-op if already aligned).
    pub fn align_to_byte(&mut self) {
        self.pos = (self.pos + 7) & !7;
    }

    /// Repositions the reader to an absolute bit offset.
    pub fn seek_to(&mut self, bit_pos: usize) {
        self.pos = bit_pos;
    }

    /// Skips `n` bits without reading them.
    pub fn skip(&mut self, n: usize) -> Result<()> {
        if self.pos + n > self.data.len() * 8 {
            return Err(BitstreamError::UnexpectedEnd { bit_pos: self.pos });
        }
        self.pos += n;
        Ok(())
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> Result<u32> {
        let byte = self
            .data
            .get(self.pos >> 3)
            .copied()
            .ok_or(BitstreamError::UnexpectedEnd { bit_pos: self.pos })?;
        let bit = (byte >> (7 - (self.pos & 7))) & 1;
        self.pos += 1;
        Ok(bit as u32)
    }

    /// Reads `n` bits (0 ≤ n ≤ 32) MSB-first, one byte per loop iteration.
    pub fn read_bits(&mut self, n: u32) -> Result<u32> {
        debug_assert!(n <= 32);
        if self.pos + n as usize > self.data.len() * 8 {
            return Err(BitstreamError::UnexpectedEnd { bit_pos: self.pos });
        }
        let mut v: u32 = 0;
        let mut remaining = n;
        while remaining > 0 {
            let byte = self.data[self.pos >> 3];
            let bit_in_byte = self.pos & 7;
            let avail = 8 - bit_in_byte as u32;
            let take = remaining.min(avail);
            let shifted = (byte as u32) >> (avail - take);
            let mask = (1u32 << take) - 1;
            v = (v << take) | (shifted & mask);
            self.pos += take as usize;
            remaining -= take;
        }
        Ok(v)
    }

    /// Peeks at the next `n` bits (0 ≤ n ≤ 32) without consuming them,
    /// zero-padding past the end of the buffer.
    pub fn peek_bits(&self, n: u32) -> u32 {
        debug_assert!(n <= 32);
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
}
