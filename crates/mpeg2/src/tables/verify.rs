//! Exhaustive verification of every VLC table against its spec list.
//!
//! [`VlcTable::build`] already panics on code collisions, but that guards
//! the *construction*, not the lookup machinery: a bug in the two-level
//! split (root index math, subtable offsets, tail masking) would decode
//! the wrong value for some bit pattern without tripping any build-time
//! assert. This module closes that gap by sweeping the **entire code
//! domain** — all `2^max_len` bit patterns per table, and all 2^24
//! windows through the dct_coeff decoder, wide enough for its escape
//! form — and proving, pattern by pattern:
//!
//! * **Prefix-freeness** (spec level): no code is a prefix of another,
//!   checked pairwise on the spec lists independently of table layout.
//! * **Two-level/flat equivalence + no root/subtable collisions**: a
//!   freshly built flat `2^max_len` reference table must agree with
//!   [`VlcTable::lookup`] on every pattern — value, length, and
//!   invalid-code slots alike.
//! * **Completeness**: every pattern either resolves to exactly the one
//!   spec whose code prefixes it, or reports length 0 (`InvalidCode`);
//!   no pattern decodes to a value its bits do not spell.
//! * **dct_coeff escape domain**: every 24-bit window either decodes to
//!   a token that survives an encode→decode round trip, or fails with a
//!   controlled error (invalid code / forbidden escape level) — never a
//!   panic, never a silent mis-decode.
//! * **Window/step equivalence**: every decoder has two forms — out of a
//!   lent [`BitWindow`](tiledec_bitstream::BitWindow), and step by step on
//!   the reader, which is what runs near a buffer's end and defines every
//!   error position. Over each table's whole pattern domain, and over all
//!   2^24 coefficient windows through [`parse_block`] itself (both
//!   first-token forms), the two must agree on what they decode, on where
//!   they leave the reader, and on the error (variant, message, bit
//!   position).
//!
//! `cargo xtask analyze` runs [`verify_all`] as its VLC pass, and the
//! unit tests below keep it in the tier-1 suite, so a table edit cannot
//! ship a silent mis-decode.

use tiledec_bitstream::{BitReader, BitWriter};

use super::vlc::{VlcSpec, VlcTable};
use super::{cbp, dc_size, dct_coeff, mb_type, mba, motion, quant};
use crate::block::{parse_block, CoeffSink};
use crate::quant::Dequant;
use crate::slice::SliceContext;
use crate::types::{PictureInfo, PictureKind, SequenceInfo};

/// Summary of one verified table, for the analyze pass's report.
#[derive(Debug, Clone)]
pub struct TableAudit {
    /// Table name as reported in decode errors.
    pub name: &'static str,
    /// Number of codes in the spec list.
    pub codes: usize,
    /// Longest code length in bits.
    pub max_len: u8,
    /// Patterns of the `2^max_len` domain covered by some code.
    pub covered: usize,
    /// Size of the swept domain (`2^max_len`).
    pub domain: usize,
}

/// Full verification report: per-table audits plus the dct_coeff escape
/// sweep counters.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// One audit per table (dc_size and mb_type contribute one each per
    /// variant).
    pub tables: Vec<TableAudit>,
    /// 24-bit dct_coeff windows that decoded to a token.
    pub escape_ok: u64,
    /// Windows rejected as invalid codes.
    pub escape_invalid: u64,
    /// Windows rejected as forbidden escape levels (0 / −2048).
    pub escape_forbidden: u64,
}

/// Pairwise prefix-freeness over a raw spec list (no table needed, so
/// injected-violation self-tests can exercise it directly). Returns one
/// message per offending pair.
pub fn check_prefix_free(name: &str, specs: &[VlcSpec]) -> Vec<String> {
    let mut errors = Vec::new();
    for (i, a) in specs.iter().enumerate() {
        for b in specs.iter().skip(i + 1) {
            let (short, long) = if a.len <= b.len { (a, b) } else { (b, a) };
            if long.code >> (long.len - short.len) == short.code {
                errors.push(format!(
                    "{name}: code {:#0wa$b}/{} is a prefix of {:#0wb$b}/{}",
                    short.code,
                    short.len,
                    long.code,
                    long.len,
                    wa = short.len as usize + 2,
                    wb = long.len as usize + 2,
                ));
            }
        }
    }
    errors
}

/// Sweeps the full `2^max_len` domain of `table`, comparing
/// [`VlcTable::lookup`] against a linear reference over `specs` (the flat
/// table semantic), and [`VlcTable::decode_in`] against
/// [`VlcTable::decode`]. Appends one message per disagreement and returns
/// the audit summary.
pub fn check_exhaustive<const N: usize, const K: usize>(
    table: &VlcTable<N, K>,
    specs: &[VlcSpec],
    errors: &mut Vec<String>,
) -> TableAudit {
    let name = table.name();
    let max_len = table.max_len();
    let domain = 1usize << max_len;
    let mut covered = 0usize;
    for bits in 0..domain as u32 {
        // Reference: the unique spec whose code prefixes this pattern
        // (prefix-freeness, checked separately, guarantees at most one).
        let reference = specs.iter().find(|s| bits >> (max_len - s.len) == s.code);
        let (value, len) = table.lookup(bits);
        let stream = padded(0, 0, bits as u64, max_len as u32);
        check_both_ways(
            &format_args!("{name}: pattern {bits:#0w$b}", w = max_len as usize + 2),
            &stream,
            |r| table.decode_in(&mut r.lend()),
            errors,
        );
        match reference {
            Some(s) => {
                covered += 1;
                if len != s.len || value != s.value {
                    errors.push(format!(
                        "{name}: pattern {bits:#0w$b} decodes as ({value:?}, len {len}) \
                         but the spec list says ({:?}, len {})",
                        s.value,
                        s.len,
                        w = max_len as usize + 2,
                    ));
                }
            }
            None => {
                if len != 0 {
                    errors.push(format!(
                        "{name}: pattern {bits:#0w$b} matches no code but decodes as \
                         ({value:?}, len {len}) instead of InvalidCode",
                        w = max_len as usize + 2,
                    ));
                }
            }
        }
    }
    TableAudit {
        name,
        codes: specs.len(),
        max_len,
        covered,
        domain,
    }
}

/// Bytes of `0xAA` behind every swept pattern: `10` is end-of-block and a
/// zero motion code's neighbour, so whatever follows the pattern ends
/// within a token or two, and there are always eight bytes for the window
/// to load while the pattern itself is being decoded.
const PADDING: usize = 16;

/// `pattern`'s low `len` bits at bit `offset` of a buffer, behind
/// `prefix`'s `offset` bits, ahead of the padding.
fn padded(prefix: u64, offset: u32, pattern: u64, len: u32) -> [u8; 8 + PADDING] {
    let mut bytes = [0xAA; 8 + PADDING];
    let used = offset + len;
    let head = ((prefix << len) | pattern) << (64 - used);
    let word = head | (u64::from_be_bytes([0xAA; 8]) & (u64::MAX >> used));
    bytes[..8].copy_from_slice(&word.to_be_bytes());
    bytes
}

/// Runs `decode` over `bytes` on a reader that lends its window and on one
/// that refuses to (so every token takes the step-by-step path): both must
/// return the same value or error and stop at the same bit.
fn check_both_ways<T: PartialEq + std::fmt::Debug>(
    what: &dyn std::fmt::Display,
    bytes: &[u8],
    decode: impl Fn(&mut BitReader<'_>) -> T,
    errors: &mut Vec<String>,
) {
    let mut lent = BitReader::new(bytes);
    let mut stepped = BitReader::at_without_window(bytes, 0);
    let (a, b) = (decode(&mut lent), decode(&mut stepped));
    if a != b || lent.bit_position() != stepped.bit_position() {
        errors.push(format!(
            "{what}: the window decodes {a:?} and stops at bit {}, step by step it is {b:?} at \
             bit {}",
            lent.bit_position(),
            stepped.bit_position(),
        ));
    }
}

/// [`check_both_ways`] over every `stride`-th `width`-bit pattern, placed
/// at bit `offset` behind `prefix`.
fn sweep<T: PartialEq + std::fmt::Debug>(
    what: &dyn std::fmt::Display,
    (prefix, offset): (u64, u32),
    width: u32,
    stride: usize,
    decode: impl Fn(&mut BitReader<'_>) -> T,
    errors: &mut Vec<String>,
) {
    for bits in (0..1u64 << width).step_by(stride) {
        check_both_ways(
            &format_args!("{what}: pattern {bits:#0w$b}", w = width as usize + 2),
            &padded(prefix, offset, bits, width),
            &decode,
            errors,
        );
    }
}

/// What [`parse_block`] told its sink, for comparison.
#[derive(Debug, PartialEq)]
struct Told {
    coeffs: [(usize, i32); 64],
    count: usize,
    ended: bool,
}

impl CoeffSink for Told {
    fn begin_block(&mut self, _i: usize) {
        (self.count, self.ended) = (0, false);
    }
    fn coeff(&mut self, _q: &Dequant<'_>, idx: usize, level: i32) {
        self.coeffs[self.count & 63] = (idx, level);
        self.count += 1;
    }
    fn end_block(&mut self) {
        self.ended = true;
    }
}

/// Block `i` parsed from `r`: the result and what the sink was told.
fn block(r: &mut BitReader<'_>, q: &Dequant<'_>, i: usize) -> (crate::Result<()>, Told) {
    let mut told = Told {
        coeffs: [(0, 0); 64],
        count: 0,
        ended: false,
    };
    (parse_block(r, q, i, false, &mut 0, &mut told), told)
}

/// Sweeps every token form for window/step equivalence through its entry
/// point, over all patterns of its longest form: motion-vector components
/// (code + sign + residual), address increments (alone and behind one and
/// two escapes: all three at once would be 2^33 patterns), macroblock
/// types and coded block patterns as [`crate::slice`] calls them; DC
/// differentials (size code + differential) and coefficient tokens as the
/// first thing in a block handed to [`parse_block`] — the window as a
/// non-intra block's first coefficient, and as an intra block's first AC
/// token behind the shortest DC (luma size 0, `100`) — where the rest of
/// the window and the padding are decoded and compared as well. `stride`
/// thins the wide sweeps (1 = exhaustive).
fn check_window_step_equivalence(stride: usize, errors: &mut Vec<String>) {
    let seq = SequenceInfo {
        width: 16,
        height: 16,
        frame_rate_code: 5,
        bit_rate_400: 0,
        intra_quant_matrix: quant::DEFAULT_INTRA_MATRIX,
        non_intra_quant_matrix: quant::DEFAULT_NON_INTRA_MATRIX,
    };
    let pic = PictureInfo::new(PictureKind::P, 0, [[1, 1], [15, 15]]);
    let ctx = SliceContext {
        seq: &seq,
        pic: &pic,
    };
    let (inter, intra) = (Dequant::new(&ctx, false, 8), Dequant::new(&ctx, true, 8));
    for f_code in [1u8, 4, 9] {
        let width = motion::TABLE.max_len() as u32 + f_code as u32;
        let decode =
            |r: &mut BitReader<'_>| motion::decode_mv_component_in(&mut r.lend(), f_code, -3);
        sweep(
            &format_args!("mv component, f_code {f_code}"),
            (0, 0),
            width,
            stride,
            decode,
            errors,
        );
    }
    for (n, escapes) in [0, 0b0000_0001_000, 0b0000_0001_000_0000_0001_000]
        .into_iter()
        .enumerate()
    {
        let decode = |r: &mut BitReader<'_>| mba::decode_increment(&mut r.lend());
        let what = format_args!("address increment behind {n} escape(s)");
        sweep(&what, (escapes, 11 * n as u32), 11, stride, decode, errors);
    }
    for kind in [PictureKind::I, PictureKind::P, PictureKind::B] {
        let decode = |r: &mut BitReader<'_>| mb_type::decode_mb_type(&mut r.lend(), kind);
        sweep(
            &format_args!("macroblock_type({kind:?})"),
            (0, 0),
            6,
            1,
            decode,
            errors,
        );
    }
    let decode = |r: &mut BitReader<'_>| cbp::decode_cbp(&mut r.lend());
    sweep(&"coded_block_pattern", (0, 0), 9, 1, decode, errors);
    for i in [0, 4] {
        let what = format_args!("dc differential opening block {i}");
        sweep(
            &what,
            (0, 0),
            dc_size::MAX_BITS,
            stride,
            |r| block(r, &intra, i),
            errors,
        );
    }
    let what = "B-14 dct_coeff opening a non-intra block";
    sweep(&what, (0, 0), 24, stride, |r| block(r, &inter, 0), errors);
    let what = "B-14 dct_coeff behind an intra block's DC";
    sweep(
        &what,
        (0b100, 3),
        24,
        stride,
        |r| block(r, &intra, 0),
        errors,
    );
}

/// Sweeps 24-bit windows (every `stride`-th; 1 = all 2^24) through
/// [`dct_coeff::decode_token`], both first-coefficient variants: each
/// window must decode to a token whose re-encoding decodes back to the
/// same token in the same number of bits, or fail with a controlled error.
/// Updates the report's escape counters.
fn check_dct_coeff_escape_domain(
    stride: usize,
    report: &mut VerifyReport,
    errors: &mut Vec<String>,
) {
    for w in (0u32..1 << 24).step_by(stride) {
        let bytes = [(w >> 16) as u8, (w >> 8) as u8, w as u8];
        for first in [false, true] {
            let mut r = BitReader::new(&bytes);
            match dct_coeff::decode_token(&mut r, first) {
                Ok(token) => {
                    if first {
                        // Counted once, on the `false` pass.
                    } else {
                        report.escape_ok += 1;
                    }
                    let consumed = r.bit_position();
                    let mut enc = BitWriter::new();
                    match token {
                        None => dct_coeff::encode_eob(&mut enc),
                        Some((run, level)) => {
                            dct_coeff::encode_coeff(&mut enc, first, run as u8, level)
                        }
                    }
                    let enc_len = enc.bit_len();
                    let enc_bytes = enc.into_bytes();
                    let mut r2 = BitReader::new(&enc_bytes);
                    match dct_coeff::decode_token(&mut r2, first) {
                        Ok(back) if back == token && r2.bit_position() == enc_len => {}
                        Ok(back) => errors.push(format!(
                            "B-14 dct_coeff: window {w:#026b} (first={first}) decodes to \
                             {token:?} ({consumed} bits) but its re-encoding decodes to \
                             {back:?} ({} of {enc_len} bits)",
                            r2.bit_position(),
                        )),
                        Err(e) => errors.push(format!(
                            "B-14 dct_coeff: window {w:#026b} (first={first}) decodes to \
                             {token:?} but its re-encoding fails to decode: {e}"
                        )),
                    }
                }
                Err(crate::Error::Bitstream(tiledec_bitstream::BitstreamError::InvalidCode {
                    ..
                })) => {
                    if !first {
                        report.escape_invalid += 1;
                    }
                }
                Err(crate::Error::Syntax(_)) => {
                    if !first {
                        report.escape_forbidden += 1;
                    }
                }
                Err(e) => errors.push(format!(
                    "B-14 dct_coeff: window {w:#026b} (first={first}) fails with an \
                     unexpected error class: {e} (a 24-bit window can never truncate)"
                )),
            }
        }
    }
}

/// Verifies every VLC table in this crate plus the dct_coeff escape
/// domain. Returns the audit report, or every disagreement found.
pub fn verify_all() -> Result<VerifyReport, Vec<String>> {
    let mut errors = Vec::new();
    let mut report = VerifyReport::default();

    macro_rules! run {
        ($table:expr, $specs:expr) => {{
            errors.extend(check_prefix_free($table.name(), $specs));
            let audit = check_exhaustive($table, $specs, &mut errors);
            report.tables.push(audit);
        }};
    }

    run!(&dct_coeff::TABLE, &dct_coeff::SPECS);
    run!(&mba::TABLE, &mba::SPECS);
    run!(&motion::TABLE, &motion::SPECS);
    run!(&cbp::TABLE, &cbp::SPECS);
    run!(&dc_size::LUMA, &dc_size::LUMA_SPECS);
    run!(&dc_size::CHROMA, &dc_size::CHROMA_SPECS);
    run!(&mb_type::I_TABLE, &mb_type::I_SPECS);
    run!(&mb_type::P_TABLE, &mb_type::P_SPECS);
    run!(&mb_type::B_TABLE, &mb_type::B_SPECS);

    check_window_step_equivalence(1, &mut errors);
    check_dct_coeff_escape_domain(1, &mut report, &mut errors);

    if errors.is_empty() {
        Ok(report)
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::vlc::spec;

    #[test]
    fn duplicated_prefix_is_reported_with_both_codes() {
        // An injected violation: 01 is a prefix of 010. The table builder
        // would panic on this; the spec-level check must report it
        // instead, naming both codes.
        let specs = [spec(0, 0b01, 2), spec(1, 0b010, 3), spec(2, 0b1, 1)];
        let errors = check_prefix_free("injected", &specs);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("0b01/2"), "{}", errors[0]);
        assert!(errors[0].contains("0b010/3"), "{}", errors[0]);
    }

    #[test]
    fn exact_duplicate_code_is_reported() {
        let specs = [spec(0, 0b11, 2), spec(1, 0b11, 2)];
        let errors = check_prefix_free("dup", &specs);
        assert_eq!(errors.len(), 1, "{errors:?}");
    }

    #[test]
    fn clean_specs_pass_prefix_check() {
        let specs = [spec(0, 0b0, 1), spec(1, 0b10, 2), spec(2, 0b11, 2)];
        assert!(check_prefix_free("clean", &specs).is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore)] // five 2^16 sweeps
    fn a_flipped_table_bit_fails_the_sweep() {
        // One bit of one decode entry, in the root and in a subtable, in
        // the value and in the length: the sweep against the spec list
        // must notice each.
        for (slot, bit) in [(0b0100_0000, 16), (0b0110_0000, 0), (300, 17), (300, 1)] {
            let bad = dct_coeff::TABLE.with_flipped_bit(slot, bit);
            let mut errors = Vec::new();
            check_exhaustive(&bad, &dct_coeff::SPECS, &mut errors);
            assert!(!errors.is_empty(), "slot {slot} bit {bit} went unnoticed");
        }
        let mut errors = Vec::new();
        check_exhaustive(&dct_coeff::TABLE, &dct_coeff::SPECS, &mut errors);
        assert_eq!(errors, Vec::<String>::new());
    }

    #[test]
    fn window_and_step_disagreement_is_reported_with_both_outcomes() {
        // An injected violation: a "decoder" that reads one bit more when
        // it is given a window.
        let mut errors = Vec::new();
        check_both_ways(
            &"injected",
            &[0xFF; 16],
            |r| {
                let mut w = r.lend();
                let n = if w.ensure(8) { 3 } else { 2 };
                w.read_bits(n)
            },
            &mut errors,
        );
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("Ok(7)") && errors[0].contains("bit 3"));
        assert!(errors[0].contains("Ok(3)") && errors[0].contains("bit 2"));
    }

    #[test]
    fn sampled_sweeps_pass() {
        // What Miri can afford of the wide sweeps (the exhaustive run
        // below is ignored there): a few hundred patterns of each.
        let stride = if cfg!(miri) { (1 << 16) + 1 } else { 257 };
        let mut errors = Vec::new();
        check_window_step_equivalence(stride, &mut errors);
        check_dct_coeff_escape_domain(stride, &mut VerifyReport::default(), &mut errors);
        assert_eq!(errors, Vec::<String>::new());
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 2^16 × 9 tables + 2^24 windows: exhaustive, not Miri-sized
    fn all_committed_tables_verify_exhaustively() {
        let report = verify_all().unwrap_or_else(|errors| {
            panic!(
                "VLC verification failed with {} error(s):\n{}",
                errors.len(),
                errors.join("\n")
            )
        });
        assert_eq!(report.tables.len(), 9);
        // The full 24-bit domain is partitioned by the three outcomes.
        assert_eq!(
            report.escape_ok + report.escape_invalid + report.escape_forbidden,
            1 << 24
        );
        // Sanity anchors: B-14 has 113 codes up to 16 bits; every table
        // leaves some patterns invalid except the complete ones (cbp
        // covers all 64 values but not all bit patterns of length 9).
        let b14 = &report.tables[0];
        assert_eq!((b14.codes, b14.max_len), (113, 16));
        assert!(b14.covered < b14.domain);
    }
}
