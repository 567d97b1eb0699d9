//! A from-scratch MPEG-2 *video* (ISO/IEC 13818-2) codec built as the
//! substrate for the hierarchical parallel decoder of Chen, Li & Wei
//! (IPDPS 2002).
//!
//! Three consumers share the slice/macroblock machinery in this crate:
//!
//! 1. The **sequential reference decoder** ([`decoder::Decoder`]) — the
//!    correctness oracle every parallel configuration is checked against.
//! 2. The **parse-only pass** ([`parser`]) used by second-level splitters:
//!    walks the VLC of a whole picture *without* IDCT or motion
//!    compensation, recording for every macroblock its exact bit span, the
//!    predictor state at its first bit (DC predictors, PMVs, quantiser
//!    scale) and its motion vectors. This is precisely the information the
//!    paper's SPH headers and MEI buffers are built from.
//! 3. The **tile decoder** in `tiledec-core`, which re-enters slice decoding
//!    in the middle of a slice using SPH state.
//!
//! # Supported subset
//!
//! Main-profile-style *progressive frame* pictures: 4:2:0 chroma,
//! `picture_structure = frame`, `frame_pred_frame_dct = 1` (frame-based
//! prediction, frame DCT), I/P/B pictures, both scan orders, custom quant
//! matrices, linear and non-linear quantiser scale, full- and half-pel
//! frame motion compensation, skipped macroblocks, `intra_vlc_format = 0`
//! (table B-14). Field pictures, dual-prime, 4:2:2/4:4:4 and
//! `intra_vlc_format = 1` (table B-15) are rejected with a clear error —
//! the paper's streams are progressive content and nothing in its
//! contribution depends on those modes.
//!
//! Both the encoder and the decoder use the same integer IDCT and
//! reconstruction path, so encoder-side reference frames are *bit exact*
//! with decoder output: there is no drift, and parallel-vs-sequential
//! comparisons in the test suite can assert exact equality.

#![warn(missing_docs)]
// VLC code literals are grouped to mirror the standard's nibble notation.
#![allow(clippy::unusual_byte_groupings)]

pub mod block;
pub mod dct;
pub mod decoder;
pub mod encoder;
/// Error types of the codec.
pub mod error;
pub mod frame;
pub mod headers;
pub mod kernels;
pub mod motion;
pub mod parser;
pub mod quant;
pub mod recon;
pub mod resilient;
pub mod slice;
pub mod tables;
pub mod types;
pub mod vld;
pub mod y4m;

pub use decoder::{decode_all, flush_picture_info, Decoder};
pub use encoder::{Encoder, EncoderConfig};
pub use error::{Error, Result};
pub use frame::{Frame, FrameBandMut, FramePool, Layout, Plane, PlaneBandMut};
pub use resilient::{
    apply_display_patches, decode_all_resilient, repair_stream, DamageReport, DisplayPatch,
    ErrorPolicy, PatchRow, RepairedStream, StreamDamage,
};
pub use types::{MotionVector, PictureKind, SequenceInfo};
