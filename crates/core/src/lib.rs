//! The paper's contribution: a hierarchical `1-k-(m,n)` parallel MPEG-2
//! decoder for PC-cluster tiled display walls.
//!
//! A **root splitter** cuts the stream at picture level (byte-aligned
//! start codes make this nearly free) and round-robins picture units to
//! `k` **second-level splitters**. Those parse pictures at macroblock
//! level — exploiting the key observation that inter-picture dependencies
//! exist at *decode* time but not at *split* time — and ship each decoder
//! exactly the macroblocks its tile displays, as byte-copied partial
//! slices behind [SPH headers](subpicture). Remote reference fetches are
//! pre-computed into [MEI buffers](mei) so decoders never block on demand
//! fetching, and the ANID ack redirection (see [`threaded`]) keeps
//! pictures ordered across splitters without reorder queues.
//!
//! Two execution back-ends share all of the above:
//!
//! * [`ThreadedSystem`] runs every node as a real thread over the
//!   GM-style message-passing runtime and produces pixels — bit-exact
//!   with the sequential reference decoder (the test suite proves it).
//! * [`SimulatedSystem`] runs the same splitters and tile decoders once,
//!   measures their real CPU costs, and replays the full message schedule
//!   on the discrete-event cluster simulator — producing frame rates,
//!   runtime breakdowns and per-node bandwidth for 2002-scale virtual
//!   hardware. This is the back-end behind every reproduced table and
//!   figure.

#![warn(missing_docs)]

pub mod config;
mod display;
pub mod levels;
pub mod machines;
pub mod mei;
pub mod protocol;
pub mod recon_parallel;
pub mod simulated;
pub mod splitter;
pub mod subpicture;
pub mod threaded;
pub mod tile_decoder;
pub mod vld_parallel;
pub mod wire;

use std::fmt;

pub use config::SystemConfig;
pub use recon_parallel::{PipelineDecoder, PipelineStats};
pub use simulated::SimulatedSystem;
pub use splitter::{split_picture_units, MacroblockSplitter, SplitOutput};
pub use threaded::{PlaybackResult, ThreadedSystem};
pub use tile_decoder::TileDecoder;
pub use vld_parallel::{ParallelVldDecoder, VldStats};

/// Errors of the parallel decoding system.
#[derive(Debug)]
pub enum CoreError {
    /// Malformed control-plane message.
    Wire(String),
    /// Underlying codec error.
    Codec(tiledec_mpeg2::Error),
    /// Protocol violation (ordering, missing blocks, …).
    Protocol(String),
    /// Invalid wall/system configuration.
    Config(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Wire(s) => write!(f, "wire format error: {s}"),
            CoreError::Codec(e) => write!(f, "codec error: {e}"),
            CoreError::Protocol(s) => write!(f, "protocol error: {s}"),
            CoreError::Config(s) => write!(f, "configuration error: {s}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tiledec_mpeg2::Error> for CoreError {
    fn from(e: tiledec_mpeg2::Error) -> Self {
        CoreError::Codec(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
