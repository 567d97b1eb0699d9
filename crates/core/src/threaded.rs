//! The threaded execution back-end: every cluster node is a real thread
//! exchanging messages over the GM-style runtime.
//!
//! This back-end proves **functional correctness** — the reassembled wall
//! output is bit-exact with the sequential reference decoder for any
//! configuration — and is what `benchmark/` times end to end on the host
//! at hand (`hd_wall_2x2`, `uhd_wall_2x2`). The paper's 21-node speedups
//! need more cores than such a host has; those are replayed on virtual
//! hardware by the [`crate::simulated`] back-end.
//!
//! The node logic itself lives in [`crate::machines`] as resumable state
//! machines: each thread here is a trivial driver that forwards
//! [`Effect`]s to a real [`Endpoint`] and feeds received messages back in.
//! The *same* machines run under the
//! [`tiledec_cluster::modelcheck`] scheduler, which explores every message
//! interleaving — so the protocol properties proven there (deadlock
//! freedom, the ANID ordering guarantee, credit-window safety, MEI
//! SEND/RECV matching) hold for the code executing on these threads, not
//! for a parallel re-implementation.

use std::sync::mpsc;

use tiledec_cluster::gm::{Endpoint, NodeId, ThreadCluster};
use tiledec_cluster::modelcheck::{Effect, Msg, Process};
use tiledec_mpeg2::frame::Frame;
use tiledec_mpeg2::{apply_display_patches, repair_stream, StreamDamage};
use tiledec_wall::WallGeometry;

use crate::config::SystemConfig;
use crate::display::DisplayFrames;
use crate::machines::{build_machines, NodeMachine};
use crate::tile_decoder::DisplayTile;
use crate::{CoreError, Result};

/// Output of a threaded playback.
pub struct PlaybackResult {
    /// Reassembled full frames in display order (verified bit-identical
    /// across tile overlaps).
    pub frames: Vec<Frame>,
    /// Bytes moved per directed link (node layout: root, splitters,
    /// decoders).
    pub traffic: Vec<Vec<u64>>,
    /// Pictures decoded.
    pub pictures: usize,
    /// The wall geometry used.
    pub geometry: WallGeometry,
    /// What was repaired to produce this playback. Always clean under
    /// [`ErrorPolicy::Strict`](tiledec_mpeg2::ErrorPolicy::Strict) and
    /// when a resilient playback needed no repair.
    pub damage: StreamDamage,
}

/// The `1-k-(m,n)` system running on real threads.
pub struct ThreadedSystem {
    cfg: SystemConfig,
}

impl ThreadedSystem {
    /// Creates a system for a configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        ThreadedSystem { cfg }
    }

    /// Plays back a whole elementary stream, returning the assembled
    /// frames.
    ///
    /// Under [`ErrorPolicy::Resilient`](tiledec_mpeg2::ErrorPolicy::Resilient)
    /// (see [`SystemConfig::with_policy`]) a failed strict playback is
    /// retried once over the deterministically repaired stream
    /// ([`tiledec_mpeg2::repair_stream`]): the cluster plays ordinary
    /// valid slices — concealed rows included — so poisoning never fires
    /// for recoverable damage, and the assembled wall stays bit-exact
    /// with [`tiledec_mpeg2::decode_all_resilient`]. Only structurally
    /// unrecoverable streams (no usable sequence header) still error.
    pub fn play(&self, stream: &[u8]) -> Result<PlaybackResult> {
        if !self.cfg.policy.is_resilient() {
            return self.play_strict(stream);
        }
        match self.play_strict(stream) {
            Ok(result) => Ok(result),
            Err(CoreError::Config(e)) => Err(CoreError::Config(e)),
            Err(_) => {
                let repaired = repair_stream(stream).map_err(CoreError::Codec)?;
                let mut result = self.play_strict(&repaired.bytes).map_err(|e| match e {
                    CoreError::Config(c) => CoreError::Config(c),
                    other => CoreError::Codec(tiledec_mpeg2::Error::Syntax(format!(
                        "repair invariant violated: {other}"
                    ))),
                })?;
                apply_display_patches(&mut result.frames, &repaired.patches);
                result.damage = repaired.damage;
                Ok(result)
            }
        }
    }

    /// The strict (first-error-fails) playback path.
    fn play_strict(&self, stream: &[u8]) -> Result<PlaybackResult> {
        let set = build_machines(&self.cfg, stream)?;
        let geom = set.geometry;
        let k = set.k;
        let n = set.pictures;
        let mut cluster = ThreadCluster::new(set.machines.len());
        let (tile_tx, tile_rx) = mpsc::channel::<(usize, DisplayTile)>();

        let frames = std::thread::scope(|scope| -> Result<Vec<Frame>> {
            let mut handles = Vec::new();
            for (id, mach) in set.machines.into_iter().enumerate() {
                let ep = cluster.take_endpoint(id);
                // Decoders stream their tiles out as they decode; the
                // root and the splitters produce none.
                let sink = id.checked_sub(1 + k).map(|d| (d, tile_tx.clone()));
                handles.push(scope.spawn(move || drive_node(ep, mach, sink)));
            }
            drop(tile_tx);
            // Place every tile into its frame while the nodes run. The
            // drain ends when the last decoder drops its sender — finished
            // or poisoned alike — and a tile that fails to place only
            // stops the placing: senders never block on this channel.
            let mut display = DisplayFrames::new(geom, n);
            let placed = tile_rx.iter().try_for_each(|(d, dt)| display.place(d, &dt));
            let mut errors: Vec<CoreError> = Vec::new();
            for h in handles {
                match h.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => errors.push(e),
                    Err(_) => errors.push(CoreError::Protocol("node thread panicked".into())),
                }
            }
            // A failing node poisons the cluster, so its peers all report
            // teardown fallout; surface the root cause, not the cascade.
            // Any node error outranks what assembly made of the tiles.
            let mut fallout = None;
            for e in errors {
                if e.to_string().contains("poisoned") {
                    fallout.get_or_insert(e);
                } else {
                    return Err(e);
                }
            }
            if let Some(e) = fallout {
                return Err(e);
            }
            placed?;
            display.finish()
        })?;

        Ok(PlaybackResult {
            frames,
            traffic: cluster.traffic().snapshot(),
            pictures: n,
            geometry: geom,
            damage: StreamDamage::clean(),
        })
    }
}

/// Poisons the cluster on any non-`Done` exit — error return or panic —
/// so peers blocked on this node wake with an error instead of hanging.
struct PoisonGuard<'a> {
    ep: &'a Endpoint,
    armed: bool,
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.ep.poison();
        }
    }
}

/// Drives one machine over a real endpoint until it finishes. Emitted
/// tiles are forwarded through `sink` as they appear. If the machine
/// fails mid-pipeline (e.g. a parse error inside a picture unit), the
/// whole cluster is poisoned so every peer unblocks and
/// [`ThreadedSystem::play`] returns the error instead of deadlocking.
fn drive_node(
    ep: Endpoint,
    mut mach: NodeMachine,
    sink: Option<(usize, mpsc::Sender<(usize, DisplayTile)>)>,
) -> Result<()> {
    let mut guard = PoisonGuard {
        ep: &ep,
        armed: true,
    };
    let forward = |tiles: Vec<DisplayTile>| {
        if let Some((d, tx)) = &sink {
            for dt in tiles {
                let _ = tx.send((*d, dt));
            }
        }
    };
    let mut input: Option<Msg> = None;
    loop {
        let effect = mach.resume(input.take()).map_err(CoreError::Protocol)?;
        let tiles = mach.take_emitted();
        match effect {
            Effect::Send { to, tag, payload } => {
                forward(tiles);
                ep.send(NodeId(to), tag, payload)
                    .map_err(|e| CoreError::Protocol(e.to_string()))?
            }
            Effect::Recv => {
                forward(tiles);
                let m = ep.recv().map_err(|e| CoreError::Protocol(e.to_string()))?;
                ep.recycle(&m);
                input = Some(Msg {
                    from: m.from.0,
                    tag: m.tag,
                    payload: m.payload,
                });
            }
            Effect::Done => {
                // A finished decoder frees its reference frames before its
                // last tiles open an output frame on the assembling thread.
                drop(mach);
                forward(tiles);
                guard.armed = false;
                return Ok(());
            }
        }
    }
}
