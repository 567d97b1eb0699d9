//! Bit-level I/O and MPEG start-code scanning.
//!
//! MPEG-2 video is a bit-oriented format: headers carry fixed- and
//! variable-length fields that are not byte aligned, and macroblocks inside a
//! slice have no start codes at all. The parallel decoder of the paper leans
//! on two properties of this layer:
//!
//! * The **root splitter** only ever looks for byte-aligned 32-bit start codes
//!   (`00 00 01 xx`), which makes picture-level splitting nearly free
//!   ([`StartCodeScanner`]).
//! * The **second-level splitters** must know the *exact bit offset* of every
//!   macroblock so partial slices can be byte-copied into sub-pictures with a
//!   0–7 bit skip recorded in the SPH header ([`BitReader::bit_position`]).
//!
//! All reads and writes are MSB-first, matching ISO/IEC 13818-2.
//!
//! The hot entry points are cache-accelerated: [`BitReader`] serves reads
//! from a 64-bit shift register refilled 8 bytes at a time, and
//! [`find_start_code`] skips zero-free words with a SWAR filter and finishes
//! the last few bytes with a byte-wise scan; the per-byte reader and the
//! naive start-code search are test code. Entropy decoders hold the
//! reader's cache in locals through a [`BitWindow`].

#![warn(missing_docs)]

pub mod fault;
mod reader;
mod scanner;
mod writer;

pub use fault::{Fault, FaultPlan, FaultRng};
pub use reader::{BitReader, BitWindow, BitstreamError};
pub use scanner::{find_start_code, StartCode, StartCodeIndex, StartCodeScanner};
pub use writer::BitWriter;

/// Result alias for bitstream operations.
pub type Result<T> = std::result::Result<T, BitstreamError>;
