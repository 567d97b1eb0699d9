/// A byte-aligned MPEG start code found in a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartCode {
    /// Byte offset of the first `0x00` of the `00 00 01 xx` pattern.
    pub offset: usize,
    /// The code byte `xx`.
    pub code: u8,
}

impl StartCode {
    /// Picture start code (`00`).
    pub const PICTURE: u8 = 0x00;
    /// First slice start code (`01`); slices run through `0xAF`.
    pub const SLICE_MIN: u8 = 0x01;
    /// Last slice start code.
    pub const SLICE_MAX: u8 = 0xAF;
    /// User data start code.
    pub const USER_DATA: u8 = 0xB2;
    /// Sequence header code.
    pub const SEQUENCE_HEADER: u8 = 0xB3;
    /// Extension start code.
    pub const EXTENSION: u8 = 0xB5;
    /// Sequence end code.
    pub const SEQUENCE_END: u8 = 0xB7;
    /// Group-of-pictures start code.
    pub const GROUP: u8 = 0xB8;

    /// True when this is a slice start code.
    pub fn is_slice(&self) -> bool {
        (Self::SLICE_MIN..=Self::SLICE_MAX).contains(&self.code)
    }
}

/// Iterator over byte-aligned `00 00 01 xx` start codes.
///
/// This is the root splitter's entire parsing workload: locating sequence,
/// GOP, and picture start codes so the stream can be cut into per-picture
/// work units without touching macroblock data — the paper's "very low"
/// splitting cost for picture-level parallelism (Table 1).
pub struct StartCodeScanner<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> StartCodeScanner<'a> {
    /// Creates a scanner over `data` starting at byte 0.
    pub fn new(data: &'a [u8]) -> Self {
        StartCodeScanner { data, pos: 0 }
    }

    /// Creates a scanner starting at `offset` bytes.
    pub fn from_offset(data: &'a [u8], offset: usize) -> Self {
        StartCodeScanner { data, pos: offset }
    }

    /// Current scan position in bytes.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Finds the next start code at or after the current position, consuming
    /// it (the scanner moves past the 4-byte pattern).
    pub fn next_code(&mut self) -> Option<StartCode> {
        let found = find_start_code(self.data, self.pos)?;
        self.pos = found.offset + 4;
        Some(found)
    }
}

impl Iterator for StartCodeScanner<'_> {
    type Item = StartCode;

    fn next(&mut self) -> Option<StartCode> {
        self.next_code()
    }
}

/// SWAR zero-byte detector: a `u64` whose high bit is set in every byte
/// lane of `w` that equals zero (`memchr`-style, std-only).
#[inline]
fn zero_byte_mask(w: u64) -> u64 {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    w.wrapping_sub(LO) & !w & HI
}

/// Finds the first `00 00 01 xx` pattern at or after `from`.
///
/// Every start code begins with a zero byte, so the sweep loads 8 bytes at
/// a time (unaligned little-endian `u64`) and skips whole words that the
/// SWAR filter proves zero-free — the common case in entropy-coded payload,
/// where zero bytes are rare. Words containing a zero fall back to a short
/// scalar check starting at the first zero lane; the word loop only runs
/// while a full pattern lookahead is in bounds, and the last few bytes are
/// finished by the byte-wise `scan_tail`.
pub fn find_start_code(data: &[u8], from: usize) -> Option<StartCode> {
    let len = data.len();
    let mut i = from;
    // `i + 8 + 2 <= len` keeps `data[j + 2]` in bounds for every candidate
    // start `j` in the word (`j < i + 8`); `j + 3` is then checked per hit.
    while i + 10 <= len {
        let w = u64::from_le_bytes(data[i..i + 8].try_into().expect("8-byte window"));
        let z = zero_byte_mask(w);
        if z == 0 {
            i += 8;
            continue;
        }
        // At least one zero byte in [i, i+8): check candidate starts from
        // the first zero lane (little-endian ⇒ lowest byte is data[i]).
        let mut j = i + (z.trailing_zeros() >> 3) as usize;
        let word_end = i + 8;
        while j < word_end {
            if data[j] == 0 && data[j + 1] == 0 && data[j + 2] == 1 {
                if j + 4 > len {
                    return None;
                }
                return Some(StartCode {
                    offset: j,
                    code: data[j + 3],
                });
            }
            j += 1;
        }
        i = word_end;
    }
    scan_tail(data, i)
}

/// Byte-wise start-code search: the tail of [`find_start_code`], for the
/// bytes the word loop cannot cover.
///
/// Skips ahead on non-zero bytes, the classic start-code-search trick: if
/// `data[i+2] > 1` no code can start at `i`, `i+1` or `i+2`.
fn scan_tail(data: &[u8], from: usize) -> Option<StartCode> {
    let mut i = from;
    while i + 4 <= data.len() {
        let w = &data[i..i + 4];
        if w[2] > 1 {
            i += 3;
        } else if w[2] == 1 {
            if w[0] == 0 && w[1] == 0 {
                return Some(StartCode {
                    offset: i,
                    code: w[3],
                });
            }
            i += 3;
        } else {
            // w[2] == 0: could be the first or second zero of a code one byte later.
            i += 1;
        }
    }
    None
}

/// Prebuilt index of every byte-aligned start code in a buffer.
///
/// One SWAR sweep ([`find_start_code`]) up front replaces repeated
/// incremental scans when a consumer needs *random access* to stream
/// structure. The slice-parallel VLD layer builds one per stream to
/// enumerate picture/slice boundaries before fanning slice ranges out to
/// worker threads, and uses [`StartCodeIndex::unit_end`] to size each
/// range-scoped payload (a slice's entropy-coded bytes run from its start
/// code to the next start code or the end of the buffer).
#[derive(Debug, Clone)]
pub struct StartCodeIndex {
    codes: Vec<StartCode>,
    data_len: usize,
}

impl StartCodeIndex {
    /// Scans `data` once and records every start code in offset order.
    pub fn build(data: &[u8]) -> Self {
        StartCodeIndex {
            codes: StartCodeScanner::new(data).collect(),
            data_len: data.len(),
        }
    }

    /// All codes, in stream order.
    pub fn codes(&self) -> &[StartCode] {
        &self.codes
    }

    /// Number of indexed codes.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when the buffer holds no start code at all.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Index of the first code whose offset is `>= offset`, if any.
    pub fn first_at_or_after(&self, offset: usize) -> Option<usize> {
        let i = self.codes.partition_point(|c| c.offset < offset);
        (i < self.codes.len()).then_some(i)
    }

    /// Exclusive end, in bytes, of the unit started by code `i`: the offset
    /// of the next start code, or the end of the buffer for the last unit.
    /// Returns the buffer length for an out-of-range index.
    pub fn unit_end(&self, i: usize) -> usize {
        self.codes
            .get(i + 1)
            .map(|c| c.offset)
            .unwrap_or(self.data_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive reference implementation for cross-checking.
    fn naive_find(data: &[u8], from: usize) -> Option<StartCode> {
        (from..data.len().saturating_sub(3)).find_map(|i| {
            (data[i] == 0 && data[i + 1] == 0 && data[i + 2] == 1).then(|| StartCode {
                offset: i,
                code: data[i + 3],
            })
        })
    }

    #[test]
    fn finds_simple_code() {
        let data = [0xFF, 0x00, 0x00, 0x01, 0xB3, 0x12];
        assert_eq!(
            find_start_code(&data, 0),
            Some(StartCode {
                offset: 1,
                code: 0xB3
            })
        );
    }

    #[test]
    fn none_when_absent() {
        assert_eq!(find_start_code(&[0xFF; 64], 0), None);
        assert_eq!(find_start_code(&[0x00; 64], 0), None);
        assert_eq!(find_start_code(&[], 0), None);
    }

    #[test]
    fn respects_from_offset() {
        let data = [0x00, 0x00, 0x01, 0xB3, 0x00, 0x00, 0x01, 0x00];
        assert_eq!(
            find_start_code(&data, 1),
            Some(StartCode {
                offset: 4,
                code: 0x00
            })
        );
    }

    #[test]
    fn handles_overlapping_zeros() {
        // Three zeros then 01: the code starts at offset 1.
        let data = [0x00, 0x00, 0x00, 0x01, 0xB8];
        assert_eq!(
            find_start_code(&data, 0),
            Some(StartCode {
                offset: 1,
                code: 0xB8
            })
        );
    }

    #[test]
    fn iterator_yields_all_codes() {
        let mut data = vec![0x55u8; 7];
        data.extend_from_slice(&[0x00, 0x00, 0x01, 0xB3]);
        data.extend_from_slice(&[0x42; 5]);
        data.extend_from_slice(&[0x00, 0x00, 0x01, 0x00]);
        data.extend_from_slice(&[0x00, 0x00, 0x01, 0x01]);
        let codes: Vec<_> = StartCodeScanner::new(&data).collect();
        assert_eq!(codes.len(), 3);
        assert_eq!(codes[0].code, 0xB3);
        assert_eq!(codes[1].code, 0x00);
        assert_eq!(codes[2].code, 0x01);
        assert!(codes[2].is_slice());
        assert!(!codes[0].is_slice());
    }

    #[test]
    fn index_matches_scanner_and_answers_range_queries() {
        let mut data = vec![0x55u8; 5];
        data.extend_from_slice(&[0x00, 0x00, 0x01, 0xB3]);
        data.extend_from_slice(&[0x42; 3]);
        data.extend_from_slice(&[0x00, 0x00, 0x01, 0x01]);
        data.extend_from_slice(&[0x10, 0x20]);
        let idx = StartCodeIndex::build(&data);
        let scanned: Vec<_> = StartCodeScanner::new(&data).collect();
        assert_eq!(idx.codes(), &scanned[..]);
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
        assert_eq!(idx.first_at_or_after(0), Some(0));
        assert_eq!(idx.first_at_or_after(5), Some(0));
        assert_eq!(idx.first_at_or_after(6), Some(1));
        assert_eq!(idx.first_at_or_after(13), None);
        assert_eq!(idx.unit_end(0), 12);
        assert_eq!(idx.unit_end(1), data.len());
        assert_eq!(idx.unit_end(7), data.len());
        assert!(StartCodeIndex::build(&[0xFF; 8]).is_empty());
    }

    #[test]
    fn matches_naive_on_adversarial_patterns() {
        // Dense zero/one patterns exercise every branch of the skip logic.
        let patterns: Vec<Vec<u8>> = vec![
            vec![0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 5],
            vec![0, 1, 0, 0, 1, 0],
            vec![1, 0, 0, 1, 0, 0, 1, 9],
            vec![0, 0, 0, 0, 0, 1, 7, 0, 0, 1],
            vec![2, 0, 0, 2, 0, 0, 1, 0xAF],
        ];
        for p in &patterns {
            for from in 0..p.len() {
                assert_eq!(
                    find_start_code(p, from),
                    naive_find(p, from),
                    "pattern {p:?} from {from}"
                );
            }
        }
    }
}
