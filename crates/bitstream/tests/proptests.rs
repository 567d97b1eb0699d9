//! Property-based tests for the bitstream layer, driven by a seeded
//! xorshift generator so every case is deterministic and reproducible
//! (re-run a failure by plugging its printed case number into the seed).

mod support;

use support::{naive_find_start_code, SlowBitReader};
use tiledec_bitstream::{find_start_code, BitReader, BitWriter};

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

const CASES: u64 = 256;

/// A field is (value, width) with value < 2^width.
fn random_field(rng: &mut Rng) -> (u32, u32) {
    let n = 1 + rng.below(32) as u32;
    let v = if n == 32 {
        rng.next() as u32
    } else {
        rng.next() as u32 & ((1u32 << n) - 1)
    };
    (v, n)
}

#[test]
fn writer_reader_round_trip() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let count = rng.below(64) as usize;
        let fields: Vec<(u32, u32)> = (0..count).map(|_| random_field(&mut rng)).collect();
        let mut w = BitWriter::new();
        for &(v, n) in &fields {
            w.put_bits(v, n);
        }
        let total_bits: usize = fields.iter().map(|&(_, n)| n as usize).sum();
        assert_eq!(w.bit_len(), total_bits, "case {case}");
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), total_bits.div_ceil(8), "case {case}");
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read_bits(n).unwrap(), v, "case {case}");
        }
    }
}

#[test]
fn peek_equals_read() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let len = 1 + rng.below(63) as usize;
        let data = rng.bytes(len);
        let skip = rng.below(64) as usize % (data.len() * 8);
        let n = rng.below(33) as u32;
        let mut r = BitReader::new(&data);
        r.skip(skip).unwrap();
        let peeked = r.peek_bits(n);
        if r.has_bits(n as usize) {
            assert_eq!(r.read_bits(n).unwrap(), peeked, "case {case}");
        }
    }
}

#[test]
fn scanner_matches_naive() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        // Bytes restricted to 0..4 so start codes are dense.
        let len = rng.below(256) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.below(4) as u8).collect();
        let from = rng.below(64) as usize;
        assert_eq!(
            find_start_code(&data, from),
            naive_find_start_code(&data, from),
            "case {case}"
        );
    }
}

/// Differential oracle: the cached [`BitReader`] must be observationally
/// identical to the per-byte [`SlowBitReader`] under arbitrary operation
/// interleavings — same values, same `bit_position()` after every step, and
/// the same error (including its `bit_pos`) on overruns. Buffer lengths are
/// kept short (0–23 bytes) so reads routinely straddle the 8-byte refill
/// window and the end of the buffer. A lent [`BitWindow`] is one more
/// operation in the mix: whatever it `ensure`s must be real buffer bits,
/// what it peeks must be what the reference reads, and handing it back —
/// after consuming, stepping through the reader, or neither — must leave
/// the reader where the reference is. Every third case uses a reader whose
/// windows refuse to load.
///
/// [`BitWindow`]: tiledec_bitstream::BitWindow
#[test]
fn cached_reader_matches_reference() {
    for case in 0..CASES {
        let mut rng = Rng::new(case.wrapping_add(0xD1FF));
        let len = rng.below(24) as usize;
        let data = rng.bytes(len);
        let bit_len = len * 8;
        let mut fast = if case % 3 == 2 {
            BitReader::at_without_window(&data, 0)
        } else {
            BitReader::new(&data)
        };
        let mut slow = SlowBitReader::new(&data);
        for step in 0..96 {
            match rng.below(8) {
                7 => {
                    let mut w = fast.lend();
                    for _ in 0..rng.below(6) {
                        assert_eq!(w.bit_position(), slow.bit_position());
                        let n = 1 + rng.below(32) as u32;
                        if w.ensure(n) {
                            assert!(
                                case % 3 != 2 && n as usize <= slow.bits_remaining(),
                                "case {case} step {step}: ensured {n} bits that are not there"
                            );
                            assert_eq!(w.peek(n), slow.peek_bits(n), "case {case} step {step}");
                            if rng.below(4) != 0 {
                                w.consume(n);
                                slow.skip(n as usize).unwrap();
                            }
                        } else if rng.below(2) == 0 {
                            assert_eq!(
                                w.read_bits(n),
                                slow.read_bits(n),
                                "case {case} step {step} n {n}"
                            );
                        } else {
                            let got = w.step(|r| r.skip(n as usize));
                            assert_eq!(got, slow.skip(n as usize), "case {case} step {step}");
                        }
                    }
                }
                0 => {
                    assert_eq!(fast.read_bit(), slow.read_bit(), "case {case} step {step}");
                }
                1 => {
                    let n = rng.below(33) as u32;
                    assert_eq!(
                        fast.read_bits(n),
                        slow.read_bits(n),
                        "case {case} step {step} n {n}"
                    );
                }
                2 => {
                    let n = rng.below(33) as u32;
                    assert_eq!(
                        fast.peek_bits(n),
                        slow.peek_bits(n),
                        "case {case} step {step} n {n}"
                    );
                }
                3 => {
                    let n = rng.below(40) as usize;
                    assert_eq!(fast.skip(n), slow.skip(n), "case {case} step {step} n {n}");
                }
                4 => {
                    fast.align_to_byte();
                    slow.align_to_byte();
                }
                5 => {
                    let p = rng.below(bit_len as u64 + 17) as usize;
                    fast.seek_to(p);
                    slow.seek_to(p);
                }
                _ => {
                    // The cache-refill hint must be position-neutral; the
                    // reference reader has no equivalent operation.
                    fast.refill();
                }
            }
            assert_eq!(
                fast.bit_position(),
                slow.bit_position(),
                "case {case} step {step}"
            );
            assert_eq!(
                fast.bits_remaining(),
                slow.bits_remaining(),
                "case {case} step {step}"
            );
        }
    }
}

/// The SWAR sweep must agree with the naive search on long, sparse
/// buffers — the regime where the zero-free-word skip actually fires — at
/// every successive match position, not just the first.
#[test]
fn swar_scanner_matches_naive_on_sparse_buffers() {
    for case in 0..CASES {
        let mut rng = Rng::new(case ^ 0x5CA2);
        let len = rng.below(2048) as usize;
        let data: Vec<u8> = (0..len)
            .map(|_| match rng.below(16) {
                0 | 1 => 0,
                2 => 1,
                _ => 1 + rng.below(255) as u8,
            })
            .collect();
        let mut from = 0;
        loop {
            let a = find_start_code(&data, from);
            let b = naive_find_start_code(&data, from);
            assert_eq!(a, b, "case {case} from {from}");
            match a {
                Some(sc) => from = sc.offset + 1,
                None => break,
            }
        }
    }
}

#[test]
fn read_bits_equals_bit_by_bit() {
    for case in 0..CASES {
        let mut rng = Rng::new(case);
        let len = 1 + rng.below(31) as usize;
        let data = rng.bytes(len);
        let n = 1 + rng.below(32) as u32;
        if (n as usize) <= data.len() * 8 {
            let mut r1 = BitReader::new(&data);
            let v = r1.read_bits(n).unwrap();
            let mut r2 = BitReader::new(&data);
            let mut acc = 0u32;
            for _ in 0..n {
                acc = (acc << 1) | r2.read_bits(1).unwrap();
            }
            assert_eq!(v, acc, "case {case}");
            assert_eq!(r1.bit_position(), r2.bit_position(), "case {case}");
        }
    }
}
