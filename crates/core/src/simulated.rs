//! The simulated execution back-end: run the real splitters and tile
//! decoders once on this host, measure their CPU costs and message sizes,
//! then replay the full `1-k-(m,n)` message schedule on the discrete-event
//! cluster simulator.
//!
//! This substitutes for the paper's 25-PC Myrinet cluster: the bottleneck
//! structure (splitter-bound vs decoder-bound, MEI exchange volume, SPH
//! overhead) comes from the actual implementation; only the wall-clock is
//! virtual.

use std::time::Instant;

use tiledec_cluster::cost::CostModel;
use tiledec_cluster::sim::{DecoderCost, PictureCost, PipelineSim, PipelineSpec, SimReport};
use tiledec_mpeg2::frame::Frame;
use tiledec_wall::WallGeometry;

use crate::config::SystemConfig;
use crate::display::DisplayFrames;
use crate::tile_decoder::BlockData;

/// Blocks a decoder ships, grouped by destination tile.
type SendBatches = Vec<(usize, Vec<BlockData>)>;
use crate::splitter::{split_picture_units, MacroblockSplitter};
use crate::tile_decoder::TileDecoder;
use crate::wire::BufferPool;
use crate::Result;

/// Measured per-picture averages from the profiling pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeasuredCosts {
    /// Mean root copy time per picture (seconds).
    pub copy_s: f64,
    /// Mean macroblock-split time per picture.
    pub split_s: f64,
    /// Mean per-decoder decode time per picture (averaged over tiles).
    pub decode_s: f64,
    /// Mean picture unit size in bytes.
    pub unit_bytes: f64,
    /// Mean total sub-picture bytes per picture (SPH overhead included).
    pub subpic_bytes: f64,
}

/// Result of a simulated run.
pub struct SimulatedRun {
    /// The event-simulation report (fps, breakdowns, traffic).
    pub report: SimReport,
    /// The measured pipeline spec fed to the simulator. Callers may clone
    /// it, change `k`, and replay with [`PipelineSim`] to sweep splitter
    /// counts without re-measuring.
    pub spec: PipelineSpec,
    /// Wall geometry used.
    pub geometry: WallGeometry,
    /// Measured host costs that parameterised the simulation.
    pub measured: MeasuredCosts,
    /// Assembled output frames (only when verification was requested).
    pub frames: Vec<Frame>,
    /// Pictures processed.
    pub pictures: usize,
}

/// The measured-and-simulated `1-k-(m,n)` system.
pub struct SimulatedSystem {
    cfg: SystemConfig,
    model: CostModel,
    verify: bool,
    repeats: u32,
}

impl SimulatedSystem {
    /// Creates a simulated system under a cost model.
    pub fn new(cfg: SystemConfig, model: CostModel) -> Self {
        SimulatedSystem {
            cfg,
            model,
            verify: false,
            repeats: 1,
        }
    }

    /// Measure each CPU cost `n` times and keep the minimum — damps
    /// scheduler noise on busy hosts at the price of extra run time.
    pub fn with_repeats(mut self, n: u32) -> Self {
        self.repeats = n.max(1);
        self
    }

    /// Also assemble and return the decoded frames (memory-heavy; used by
    /// tests to verify output while measuring).
    pub fn with_verification(mut self) -> Self {
        self.verify = true;
        self
    }

    /// Runs the profiling pass and the event simulation.
    pub fn run(&self, stream: &[u8]) -> Result<SimulatedRun> {
        let index = split_picture_units(stream)?;
        let seq = index.seq.clone();
        let geom = self.cfg.geometry(seq.width, seq.height)?;
        let splitter = MacroblockSplitter::new(geom, seq.clone());
        let mut decoders: Vec<TileDecoder> = geom
            .iter_tiles()
            .map(|t| TileDecoder::new(geom, t, seq.clone(), self.cfg.halo_margin))
            .collect();
        let tiles = geom.tiles() as usize;

        let mut pictures = Vec::with_capacity(index.units.len());
        let mut measured = MeasuredCosts::default();
        let mut wire_pool = BufferPool::new();
        let mut display = self
            .verify
            .then(|| DisplayFrames::new(geom, index.units.len()));

        for (p, &(start, end)) in index.units.iter().enumerate() {
            let unit = &stream[start..end];

            // Root copy cost: the memcpy into the send buffer.
            let t0 = Instant::now();
            let copied = std::hint::black_box(unit.to_vec());
            let copy_s = t0.elapsed().as_secs_f64();

            // Second-level split cost (min over repeats; splitting is pure).
            let t0 = Instant::now();
            let out = splitter.split(p as u32, &copied)?;
            let mut split_s = t0.elapsed().as_secs_f64();
            for _ in 1..self.repeats {
                let t0 = Instant::now();
                std::hint::black_box(splitter.split(p as u32, &copied)?);
                split_s = split_s.min(t0.elapsed().as_secs_f64());
            }
            let kind = out.info.kind;

            // Serve phase on every decoder (reads reference frames only).
            let mut served: Vec<(f64, SendBatches)> = Vec::with_capacity(tiles);
            for (d, dec) in decoders.iter().enumerate() {
                let t0 = Instant::now();
                let sends = dec.extract_send_blocks(kind, &out.mei[d])?;
                served.push((t0.elapsed().as_secs_f64(), sends));
            }

            // Deliver blocks, then decode each tile.
            let mut deliveries: Vec<(usize, usize, Vec<BlockData>)> = Vec::new();
            for (src, (_, sends)) in served.iter().enumerate() {
                for (peer, blocks) in sends {
                    deliveries.push((src, *peer, blocks.clone()));
                }
            }
            let mut mei_out: Vec<Vec<(usize, u64)>> = vec![Vec::new(); tiles];
            for (src, peer, blocks) in &deliveries {
                mei_out[*src].push((*peer, (blocks.len() * crate::mei::BLOCK_WIRE_BYTES) as u64));
            }
            for (src, peer, blocks) in deliveries {
                decoders[peer].apply_recv_blocks(kind, &out.mei[peer], src, &blocks)?;
            }

            let mut per_decoder = Vec::with_capacity(tiles);
            for (d, dec) in decoders.iter_mut().enumerate() {
                let sp = &out.subpictures[d];
                let mut w = wire_pool.writer();
                sp.encode(&mut w);
                out.mei[d].encode(&mut w);
                let subpic_bytes = w.len() as u64;
                wire_pool.release(w.into_bytes());
                // Extra timing passes run on a clone so reference state
                // advances exactly once.
                let mut decode_s = f64::INFINITY;
                for _ in 1..self.repeats {
                    let mut probe = dec.clone();
                    let t0 = Instant::now();
                    std::hint::black_box(probe.decode(sp)?);
                    decode_s = decode_s.min(t0.elapsed().as_secs_f64());
                }
                let t0 = Instant::now();
                // MEI-driven prefetch of this picture's halo reference
                // tiles, timed with the decode it accelerates.
                dec.prefetch_references(kind, &out.mei[d]);
                let displayable = dec.decode(sp)?;
                decode_s = decode_s.min(t0.elapsed().as_secs_f64());
                if let Some(dt) = displayable {
                    if let Some(display) = display.as_mut() {
                        display.place(d, &dt)?;
                    }
                    // Placed or not wanted: the tile's allocation goes
                    // straight back to the decoder's frame pool.
                    dec.recycle(dt.frame);
                }
                per_decoder.push(DecoderCost {
                    subpic_bytes,
                    decode_s,
                    serve_s: served[d].0,
                    mei_out: std::mem::take(&mut mei_out[d]),
                });
                measured.decode_s += decode_s / tiles as f64;
                measured.subpic_bytes += subpic_bytes as f64;
            }
            measured.copy_s += copy_s;
            measured.split_s += split_s;
            measured.unit_bytes += unit.len() as f64;
            pictures.push(PictureCost {
                copy_s,
                unit_bytes: unit.len() as u64,
                split_s,
                decoders: per_decoder,
            });
        }
        let frames = match display {
            Some(mut display) => {
                for (d, dec) in decoders.iter_mut().enumerate() {
                    if let Some(dt) = dec.flush() {
                        display.place(d, &dt)?;
                    }
                }
                display.finish()?
            }
            None => Vec::new(),
        };

        let n = index.units.len().max(1) as f64;
        measured.copy_s /= n;
        measured.split_s /= n;
        measured.decode_s /= n;
        measured.unit_bytes /= n;
        measured.subpic_bytes /= n;

        let spec = PipelineSpec {
            k: self.cfg.k,
            decoders: tiles,
            pictures,
            dispatch: tiledec_cluster::sim::Dispatch::RoundRobin,
        };
        let report = PipelineSim::new(spec.clone(), self.model).run();
        Ok(SimulatedRun {
            report,
            spec,
            geometry: geom,
            measured,
            frames,
            pictures: index.units.len(),
        })
    }
}
