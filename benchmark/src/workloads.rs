//! The six workloads: which stream goes through which engine, and why.

use std::time::Instant;

use tiledec_core::{
    ParallelVldDecoder, PipelineDecoder, PipelineStats, SystemConfig, ThreadedSystem, VldStats,
};
use tiledec_mpeg2::{Decoder, Frame, StreamDamage};

use crate::inputs::StreamKind;

/// How a workload drives the codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `tiledec_mpeg2::Decoder::decode_stream`, one thread.
    Sequential,
    /// One persistent `PipelineDecoder::new(2, 2)`.
    Pipeline,
    /// `ThreadedSystem::new(SystemConfig::new(k, (2, 2))).play`.
    Wall,
    /// `tiledec_mpeg2::decode_all_resilient` over a damaged stream.
    Resilient,
    /// `ParallelVldDecoder::new(2)`. No workload runs on it; the traced run
    /// probes it as the layer under [`Engine::Pipeline`].
    VldParallel,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name; final — later issues cite it.
    pub name: &'static str,
    /// Stream decoded.
    pub stream: StreamKind,
    /// Engine decoding it.
    pub engine: Engine,
    /// Second-level splitters of the wall system this stream is paired
    /// with (`k = ⌈t_s / t_d⌉` at its size). The wall workloads play on
    /// it; every workload's traced run stages it.
    pub k: usize,
    /// Why the workload exists (one line, copied into `BENCHMARK.json`).
    pub why: &'static str,
}

/// The wall grid of every wall workload and staged replay.
pub const GRID: (u32, u32) = (2, 2);

/// The workloads, in reporting order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "dvd_seq",
        stream: StreamKind::Dvd,
        engine: Engine::Sequential,
        k: 1,
        why: "720x480 at 1.2 bpp, one thread, frames fit in L2: entropy decode has its largest share, memory layout its least",
    },
    Workload {
        name: "hd_seq",
        stream: StreamKind::Hd,
        engine: Engine::Sequential,
        k: 1,
        why: "1920x1088 at 0.4 bpp, one thread, frames 2.5x L2: the pixel stage (IDCT, MC fetch, recon store, frame layout) dominates",
    },
    Workload {
        name: "hd_pipeline",
        stream: StreamKind::Hd,
        engine: Engine::Pipeline,
        k: 1,
        why: "same HD stream through PipelineDecoder(2,2): shows whether a sequential-path gain costs the record/replay + band engine, and the reverse",
    },
    Workload {
        name: "hd_wall_2x2",
        stream: StreamKind::Hd,
        engine: Engine::Wall,
        k: 1,
        why: "same HD stream on the paper's 1-1-(2,2) threaded system: splitter, SPH partial slices, MEI halo exchange, tiled frames, wall assembly",
    },
    Workload {
        name: "uhd_wall_2x2",
        stream: StreamKind::Uhd,
        engine: Engine::Wall,
        k: 2,
        why: "3840x2800 orion4 on 1-2-(2,2): frames 13x L2, k=2 so ANID ordering runs, localised detail makes one tile the straggler",
    },
    Workload {
        name: "dvd_damaged",
        stream: StreamKind::Dvd,
        engine: Engine::Resilient,
        k: 1,
        why: "DVD stream after a seeded fault plan through decode_all_resilient: bit-reader cold paths, resync, repair and concealment",
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The wall system this workload plays on or stages.
    pub fn system(&self) -> SystemConfig {
        SystemConfig::new(self.k, GRID)
    }
}

/// What one pass hands back for checking.
pub enum Delivered {
    /// The engine streamed this many frames into the runner's sink.
    Sink(usize),
    /// The engine materialised its output itself.
    Frames(Vec<Frame>, StreamDamage),
}

/// What an engine keeps between passes.
enum State {
    Sequential,
    Pipeline(Box<PipelineDecoder>),
    VldParallel(ParallelVldDecoder),
    Wall(ThreadedSystem),
    Resilient,
}

/// An engine ready to run passes over one stream.
pub struct Runner {
    state: State,
    /// Display buffers the streaming engines copy each emitted frame into,
    /// the way a player blits to a framebuffer; allocated once so a timed
    /// pass neither allocates nor page-faults for them.
    sink: Vec<Frame>,
    /// When `Some`, the streaming engines record the arrival time of every
    /// emitted frame here (the traced run's picture intervals).
    pub stamps: Option<Vec<Instant>>,
}

/// Copies `src` over `dst`, reusing `dst`'s storage when shapes agree.
fn copy_frame(dst: &mut Frame, src: &Frame) {
    let same_shape = |a: &tiledec_mpeg2::Plane, b: &tiledec_mpeg2::Plane| {
        a.layout() == b.layout() && a.data().len() == b.data().len()
    };
    if same_shape(&dst.y, &src.y) && same_shape(&dst.cb, &src.cb) && same_shape(&dst.cr, &src.cr) {
        dst.y.data_mut().copy_from_slice(src.y.data());
        dst.cb.data_mut().copy_from_slice(src.cb.data());
        dst.cr.data_mut().copy_from_slice(src.cr.data());
    } else {
        *dst = src.clone();
    }
}

impl Runner {
    /// Builds `engine` (on `system`, for [`Engine::Wall`]). `pictures`,
    /// `width` and `height` size the display sink.
    pub fn new(
        engine: Engine,
        system: SystemConfig,
        pictures: usize,
        width: usize,
        height: usize,
    ) -> Self {
        let streams = !matches!(engine, Engine::Wall | Engine::Resilient);
        Runner {
            state: match engine {
                Engine::Sequential => State::Sequential,
                Engine::Pipeline => State::Pipeline(Box::new(PipelineDecoder::new(2, 2))),
                Engine::VldParallel => State::VldParallel(ParallelVldDecoder::new(2)),
                Engine::Wall => State::Wall(ThreadedSystem::new(system)),
                Engine::Resilient => State::Resilient,
            },
            sink: if streams {
                (0..pictures).map(|_| Frame::black(width, height)).collect()
            } else {
                Vec::new()
            },
            stamps: None,
        }
    }

    /// Stats of the last pass, for [`Engine::Pipeline`].
    pub fn pipeline_stats(&self) -> Option<&PipelineStats> {
        match &self.state {
            State::Pipeline(p) => Some(p.stats()),
            _ => None,
        }
    }

    /// Stats of the last pass, for [`Engine::VldParallel`].
    pub fn vld_stats(&self) -> Option<&VldStats> {
        match &self.state {
            State::VldParallel(p) => Some(p.stats()),
            _ => None,
        }
    }

    /// One pass: decodes the whole stream as fast as the engine goes.
    pub fn pass(&mut self, stream: &[u8]) -> Result<Delivered, String> {
        let sink = &mut self.sink;
        let stamps = &mut self.stamps;
        if let Some(stamps) = stamps {
            stamps.clear();
        }
        let mut n = 0usize;
        let mut on_frame = |f: &Frame, _: &tiledec_mpeg2::types::PictureInfo| {
            if let Some(dst) = sink.get_mut(n) {
                copy_frame(dst, f);
            }
            if let Some(stamps) = stamps {
                stamps.push(Instant::now());
            }
            n += 1;
        };
        match &mut self.state {
            State::Sequential => {
                Decoder::new()
                    .decode_stream(stream, &mut on_frame)
                    .map_err(|e| e.to_string())?;
                Ok(Delivered::Sink(n))
            }
            State::Pipeline(pipeline) => {
                pipeline
                    .decode_stream(stream, &mut on_frame)
                    .map_err(|e| e.to_string())?;
                Ok(Delivered::Sink(n))
            }
            State::VldParallel(vld) => {
                vld.decode_stream(stream, &mut on_frame)
                    .map_err(|e| e.to_string())?;
                Ok(Delivered::Sink(n))
            }
            State::Wall(wall) => {
                let played = wall.play(stream).map_err(|e| e.to_string())?;
                Ok(Delivered::Frames(played.frames, played.damage))
            }
            State::Resilient => {
                let (frames, ledger) =
                    tiledec_mpeg2::decode_all_resilient(stream).map_err(|e| e.to_string())?;
                Ok(Delivered::Frames(frames, ledger))
            }
        }
    }

    /// True when a pass delivered exactly the reference frames (and, for a
    /// damaged stream, the reference damage ledger).
    pub fn correct(&self, out: &Delivered, reference: &[Frame], ledger: &StreamDamage) -> bool {
        match out {
            // Every callback wrote sink[n] before counting, so n matching
            // means every sink frame is from this pass.
            Delivered::Sink(n) => *n == reference.len() && self.sink == reference,
            Delivered::Frames(frames, damage) => frames == reference && damage == ledger,
        }
    }
}
