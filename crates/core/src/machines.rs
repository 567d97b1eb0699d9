//! The node loops of the `1-k-(m,n)` pipeline as **resumable state
//! machines**.
//!
//! [`threaded`](crate::threaded) used to hold the root/splitter/decoder
//! loops as straight-line thread bodies; those loops now live here, in a
//! form the [`tiledec_cluster::modelcheck`] scheduler can drive through
//! every message interleaving. Each machine implements
//! [`Process`]: `resume(None)` continues after a send was enqueued,
//! `resume(Some(msg))` continues after a requested receive. The threaded
//! back-end drives the *same* machines over real endpoints, so the code
//! that is model-checked is the code that runs.
//!
//! Protocol summary (paper §4.4, Table 3):
//!
//! * the **root** waits for one splitter ack before every picture after
//!   the first, then broadcasts `TAG_END`;
//! * a **splitter** acks the root, splits, waits for all decoder acks of
//!   the *previous* picture (redirected to it by the ANID carried in that
//!   picture's work units), then ships sub-pictures;
//! * a **decoder** checks strict picture order (the ANID guarantee), acks
//!   to the ANID node, executes MEI SENDs before decoding, and matches
//!   every RECV against an arriving block message.
//!
//! Machines buffer out-of-phase messages internally (selective receive,
//! like GM's tag matching); a machine that finishes with unconsumed
//! buffered messages reports an error, so stray traffic cannot hide.

use std::collections::{BTreeSet, VecDeque};

use tiledec_cluster::modelcheck::{Effect, Msg, Process};
use tiledec_cluster::Bytes;
use tiledec_mpeg2::types::{PictureKind, SequenceInfo};
use tiledec_wall::WallGeometry;

use crate::config::SystemConfig;
use crate::mei::{MeiBuffer, MeiInstruction};
use crate::protocol::{
    decode_ack, decode_blocks, decode_unit, encode_ack, encode_blocks, encode_unit,
    peek_blocks_header, WorkUnit, TAG_ACK_ROOT, TAG_ACK_SPLIT, TAG_BLOCKS, TAG_END, TAG_TIMEOUT,
    TAG_UNIT, TAG_WORK,
};
use crate::splitter::{split_picture_units, MacroblockSplitter};
use crate::subpicture::SubPicture;
use crate::tile_decoder::{DisplayTile, TileDecoder};
use crate::{CoreError, Result};

/// An outbound message: destination node, tag, payload.
type Outgoing = (usize, u32, Bytes);

/// Root of a two-level system: picture-level splitting only.
#[derive(Clone, Hash)]
pub struct RootMachine {
    k: usize,
    n: usize,
    /// Pre-encoded `TAG_UNIT` payloads, one per picture.
    units: Vec<Bytes>,
    outq: VecDeque<Outgoing>,
    phase: RootPhase,
    /// Conceal on [`TAG_TIMEOUT`] instead of erroring (lossy channels).
    resilient: bool,
}

#[derive(Clone, Hash, PartialEq, Eq)]
enum RootPhase {
    /// Waiting for any splitter ack before sending picture `next`.
    AwaitAck {
        next: usize,
    },
    /// All pictures sent; waiting for the final picture's ack.
    AwaitFinalAck,
    Finished,
}

impl RootMachine {
    /// Builds the root for a stream already indexed into picture units.
    pub fn new(stream: &[u8], index: &crate::splitter::StreamIndex, k: usize) -> Self {
        assert!(k >= 1, "two-level root needs at least one splitter");
        let n = index.units.len();
        let units: Vec<Bytes> = index
            .units
            .iter()
            .enumerate()
            .map(|(p, &(start, end))| {
                Bytes::from(encode_unit(
                    p as u32,
                    ((p + 1) % k) as u16,
                    &stream[start..end],
                ))
            })
            .collect();
        let mut outq = VecDeque::new();
        let phase = if n == 0 {
            for s in 0..k {
                outq.push_back((1 + s, TAG_END, Bytes::new()));
            }
            RootPhase::Finished
        } else {
            outq.push_back((1, TAG_UNIT, units[0].clone()));
            if n == 1 {
                RootPhase::AwaitFinalAck
            } else {
                RootPhase::AwaitAck { next: 1 }
            }
        };
        RootMachine {
            k,
            n,
            units,
            outq,
            phase,
            resilient: false,
        }
    }

    /// Enables timeout concealment (lossy-channel operation).
    pub fn with_resilience(mut self, on: bool) -> Self {
        self.resilient = on;
        self
    }

    fn handle(&mut self, m: Msg) -> std::result::Result<(), String> {
        if self.resilient && m.tag == TAG_TIMEOUT {
            // The awaited splitter ack was lost: the splitter did process
            // (or conceal) its picture, so count the ack and move on.
            // Timeouts after shutdown are late noise, ignored.
            if self.phase == RootPhase::Finished {
                return Ok(());
            }
            return self.on_ack();
        }
        if m.tag != TAG_ACK_ROOT {
            return Err(format!(
                "root: unexpected tag {} from node {}",
                m.tag, m.from
            ));
        }
        decode_ack(&m.payload).map_err(|e| format!("root: bad ack: {e}"))?;
        if self.phase == RootPhase::Finished {
            return Err(format!("root: ack from node {} after shutdown", m.from));
        }
        self.on_ack()
    }

    fn on_ack(&mut self) -> std::result::Result<(), String> {
        match self.phase {
            RootPhase::AwaitAck { next } => {
                // "Wait for ACK from any splitter, except for the first
                // picture" — then ship the next picture round-robin.
                self.outq
                    .push_back((1 + next % self.k, TAG_UNIT, self.units[next].clone()));
                self.phase = if next + 1 < self.n {
                    RootPhase::AwaitAck { next: next + 1 }
                } else {
                    RootPhase::AwaitFinalAck
                };
                Ok(())
            }
            RootPhase::AwaitFinalAck => {
                for s in 0..self.k {
                    self.outq.push_back((1 + s, TAG_END, Bytes::new()));
                }
                self.phase = RootPhase::Finished;
                Ok(())
            }
            // Both callers return before reaching here when Finished.
            RootPhase::Finished => Ok(()),
        }
    }

    fn step(&mut self, input: Option<Msg>) -> std::result::Result<Effect, String> {
        if let Some(m) = input {
            self.handle(m)?;
        }
        if let Some((to, tag, payload)) = self.outq.pop_front() {
            return Ok(Effect::Send { to, tag, payload });
        }
        match self.phase {
            RootPhase::Finished => Ok(Effect::Done),
            _ => Ok(Effect::Recv),
        }
    }
}

/// Root of a one-level system: the console node is itself the macroblock
/// splitter and feeds decoders directly (nodes `1..=m·n`).
#[derive(Clone, Hash)]
pub struct OneLevelRootMachine {
    d_count: usize,
    n: usize,
    /// Pre-encoded `TAG_WORK` payloads, `[picture][decoder]`.
    work: Vec<Vec<Bytes>>,
    outq: VecDeque<Outgoing>,
    phase: OneLevelPhase,
    /// Conceal on [`TAG_TIMEOUT`] instead of erroring (lossy channels).
    resilient: bool,
}

#[derive(Clone, Hash, PartialEq, Eq)]
enum OneLevelPhase {
    /// Waiting for all decoder acks of picture `p`.
    AwaitAcks {
        p: u32,
        remaining: usize,
    },
    Finished,
}

impl OneLevelRootMachine {
    /// Splits the whole stream up front and builds the console machine.
    pub fn new(
        stream: &[u8],
        index: &crate::splitter::StreamIndex,
        d_count: usize,
        seq: &SequenceInfo,
        geom: WallGeometry,
    ) -> Result<Self> {
        let splitter = MacroblockSplitter::new(geom, seq.clone());
        let n = index.units.len();
        let mut work = Vec::with_capacity(n);
        for (p, &(start, end)) in index.units.iter().enumerate() {
            let out = splitter.split(p as u32, &stream[start..end])?;
            let per_decoder: Vec<Bytes> = (0..d_count)
                .map(|d| {
                    Bytes::from(
                        WorkUnit {
                            picture_id: p as u32,
                            anid_node: 0,
                            mei: out.mei[d].clone(),
                            subpicture: out.subpictures[d].clone(),
                        }
                        .encode(),
                    )
                })
                .collect();
            work.push(per_decoder);
        }
        let mut outq = VecDeque::new();
        let phase = if n == 0 {
            for d in 0..d_count {
                outq.push_back((1 + d, TAG_END, Bytes::new()));
            }
            OneLevelPhase::Finished
        } else {
            for (d, payload) in work[0].iter().enumerate() {
                outq.push_back((1 + d, TAG_WORK, payload.clone()));
            }
            OneLevelPhase::AwaitAcks {
                p: 0,
                remaining: d_count,
            }
        };
        Ok(OneLevelRootMachine {
            d_count,
            n,
            work,
            outq,
            phase,
            resilient: false,
        })
    }

    /// Enables timeout concealment (lossy-channel operation).
    pub fn with_resilience(mut self, on: bool) -> Self {
        self.resilient = on;
        self
    }

    fn handle(&mut self, m: Msg) -> std::result::Result<(), String> {
        let OneLevelPhase::AwaitAcks { p, remaining } = self.phase else {
            if self.resilient && m.tag == TAG_TIMEOUT {
                // Late timeout after shutdown: noise, ignore.
                return Ok(());
            }
            return Err(format!(
                "console: message tag {} from node {} after shutdown",
                m.tag, m.from
            ));
        };
        if self.resilient && m.tag == TAG_TIMEOUT {
            // The awaited decoder ack was lost; count it. The only acks
            // in flight are for picture `p` (decoders ack on receipt and
            // the console ships `p + 1` only after collecting all of
            // them), so no picture check is possible or needed.
            return self.ack_one(p, remaining);
        }
        if m.tag != TAG_ACK_SPLIT {
            return Err(format!(
                "console: unexpected tag {} from node {}",
                m.tag, m.from
            ));
        }
        let got = decode_ack(&m.payload).map_err(|e| format!("console: bad ack: {e}"))?;
        if got != p {
            return Err(format!("console: expected ack for picture {p}, got {got}"));
        }
        self.ack_one(p, remaining)
    }

    fn ack_one(&mut self, p: u32, remaining: usize) -> std::result::Result<(), String> {
        if remaining > 1 {
            self.phase = OneLevelPhase::AwaitAcks {
                p,
                remaining: remaining - 1,
            };
            return Ok(());
        }
        let next = p as usize + 1;
        if next < self.n {
            for (d, payload) in self.work[next].iter().enumerate() {
                self.outq.push_back((1 + d, TAG_WORK, payload.clone()));
            }
            self.phase = OneLevelPhase::AwaitAcks {
                p: next as u32,
                remaining: self.d_count,
            };
        } else {
            for d in 0..self.d_count {
                self.outq.push_back((1 + d, TAG_END, Bytes::new()));
            }
            self.phase = OneLevelPhase::Finished;
        }
        Ok(())
    }

    fn step(&mut self, input: Option<Msg>) -> std::result::Result<Effect, String> {
        if let Some(m) = input {
            self.handle(m)?;
        }
        if let Some((to, tag, payload)) = self.outq.pop_front() {
            return Ok(Effect::Send { to, tag, payload });
        }
        match self.phase {
            OneLevelPhase::Finished => Ok(Effect::Done),
            _ => Ok(Effect::Recv),
        }
    }
}

/// A second-level (macroblock) splitter node.
#[derive(Clone, Hash)]
pub struct SplitterMachine {
    s: usize,
    k: usize,
    n: usize,
    d_count: usize,
    splitter: MacroblockSplitter,
    /// Out-of-phase messages parked by the selective receive.
    buf: VecDeque<Msg>,
    outq: VecDeque<Outgoing>,
    phase: SplitterPhase,
    /// Fault injection: ship sub-pictures without waiting for the decoder
    /// acks of the previous picture. Breaks the ANID ordering guarantee;
    /// exists so the model-checker regression tests can prove the checker
    /// catches it.
    skip_prev_ack_wait: bool,
    /// Conceal on [`TAG_TIMEOUT`] instead of erroring (lossy channels).
    resilient: bool,
}

#[derive(Clone, Hash, PartialEq, Eq)]
enum SplitterPhase {
    /// Expecting `TAG_UNIT` for picture `p`.
    AwaitUnit {
        p: usize,
    },
    /// Work for picture `p` is ready; waiting for the decoder acks of
    /// `p - 1` before shipping it. `tag` is [`TAG_WORK`] for real work
    /// and [`TAG_TIMEOUT`] for a concealed (lost-unit) picture.
    AwaitPrevAcks {
        p: usize,
        remaining: usize,
        tag: u32,
        work: Vec<Bytes>,
    },
    /// All assigned pictures processed; waiting for the root's `TAG_END`.
    AwaitEnd,
    /// Draining the final picture's acks (when they were ANID-addressed
    /// here).
    DrainFinalAcks {
        remaining: usize,
    },
    Finished,
}

impl SplitterMachine {
    /// Builds splitter `s` of a `1-k-(m,n)` system over an `n`-picture
    /// stream.
    pub fn new(
        s: usize,
        k: usize,
        n: usize,
        d_count: usize,
        seq: SequenceInfo,
        geom: WallGeometry,
    ) -> Self {
        let phase = if s < n {
            SplitterPhase::AwaitUnit { p: s }
        } else {
            SplitterPhase::AwaitEnd
        };
        SplitterMachine {
            s,
            k,
            n,
            d_count,
            splitter: MacroblockSplitter::new(geom, seq),
            buf: VecDeque::new(),
            outq: VecDeque::new(),
            phase,
            skip_prev_ack_wait: false,
            resilient: false,
        }
    }

    /// Injects the "forgot to wait for the previous picture's acks" bug.
    pub fn inject_skip_prev_ack_wait(mut self) -> Self {
        self.skip_prev_ack_wait = true;
        self
    }

    /// Enables timeout concealment (lossy-channel operation).
    pub fn with_resilience(mut self, on: bool) -> Self {
        self.resilient = on;
        self
    }

    /// Consumes a `TAG_UNIT` message: ack the root, split, and either ship
    /// immediately (first assigned picture) or park the work until the
    /// previous picture's acks arrive.
    fn on_unit(&mut self, m: Msg, p: usize) -> std::result::Result<(), String> {
        let (pid, _nsid, unit) =
            decode_unit(&m.payload).map_err(|e| format!("splitter {}: bad unit: {e}", self.s))?;
        if pid != p as u32 {
            return Err(format!(
                "splitter {} expected picture {p}, got {pid}",
                self.s
            ));
        }
        self.outq
            .push_back((0, TAG_ACK_ROOT, Bytes::from(encode_ack(pid))));
        let out = self
            .splitter
            .split(pid, unit)
            .map_err(|e| format!("splitter {}: {e}", self.s))?;
        // ANID: acks for picture p are redirected to the splitter that
        // will ship picture p + 1, so it can order its send behind them.
        let anid_node = 1 + ((p + 1) % self.k);
        let work: Vec<Bytes> = (0..self.d_count)
            .map(|d| {
                Bytes::from(
                    WorkUnit {
                        picture_id: pid,
                        anid_node: anid_node as u16,
                        mei: out.mei[d].clone(),
                        subpicture: out.subpictures[d].clone(),
                    }
                    .encode(),
                )
            })
            .collect();
        self.queue_or_ship(p, TAG_WORK, work);
        Ok(())
    }

    /// The `TAG_UNIT` for picture `p` was lost in transit. Conceal: ack
    /// the root so the picture pipeline keeps moving, then ship empty
    /// [`TAG_TIMEOUT`] work units (behind the usual previous-acks gate)
    /// so every decoder knows to conceal this picture too.
    fn on_unit_lost(&mut self, p: usize) {
        self.outq
            .push_back((0, TAG_ACK_ROOT, Bytes::from(encode_ack(p as u32))));
        let work = vec![Bytes::new(); self.d_count];
        self.queue_or_ship(p, TAG_TIMEOUT, work);
    }

    /// Parks picture `p`'s work behind the previous picture's acks, or
    /// ships it immediately when no gate applies.
    fn queue_or_ship(&mut self, p: usize, tag: u32, work: Vec<Bytes>) {
        if p >= 1 && !self.skip_prev_ack_wait {
            self.phase = SplitterPhase::AwaitPrevAcks {
                p,
                remaining: self.d_count,
                tag,
                work,
            };
        } else {
            self.ship(p, tag, work);
        }
    }

    /// Ships picture `p`'s work units and advances to the next assigned
    /// picture (or the end-of-stream handshake).
    fn ship(&mut self, p: usize, tag: u32, work: Vec<Bytes>) {
        for (d, payload) in work.into_iter().enumerate() {
            self.outq.push_back((1 + self.k + d, tag, payload));
        }
        let next = p + self.k;
        self.phase = if next < self.n {
            SplitterPhase::AwaitUnit { p: next }
        } else {
            SplitterPhase::AwaitEnd
        };
    }

    /// Runs the selective receive against the buffer until no parked
    /// message matches the current phase.
    fn pump(&mut self) -> std::result::Result<(), String> {
        // Timeouts are matched against the phase they can belong to on
        // that *link*: root-link timeouts (`from == 0`) stand in for lost
        // units / the lost END, decoder-link timeouts (`from >= 1 + k`)
        // stand in for lost acks. Per-link FIFO makes the positional
        // match exact.
        let resilient = self.resilient;
        let first_decoder = 1 + self.k;
        loop {
            match self.phase.clone() {
                SplitterPhase::AwaitUnit { p } => {
                    let Some(i) = self.buf.iter().position(|m| {
                        m.tag == TAG_UNIT || (resilient && m.tag == TAG_TIMEOUT && m.from == 0)
                    }) else {
                        break;
                    };
                    let Some(m) = self.buf.remove(i) else { break };
                    if m.tag == TAG_TIMEOUT {
                        self.on_unit_lost(p);
                    } else {
                        self.on_unit(m, p)?;
                    }
                }
                SplitterPhase::AwaitPrevAcks {
                    p,
                    remaining,
                    tag,
                    work,
                } => {
                    let want = p as u32 - 1;
                    let Some(i) = self.buf.iter().position(|m| {
                        is_ack(m, want)
                            || (resilient && m.tag == TAG_TIMEOUT && m.from >= first_decoder)
                    }) else {
                        break;
                    };
                    self.buf.remove(i);
                    if remaining > 1 {
                        self.phase = SplitterPhase::AwaitPrevAcks {
                            p,
                            remaining: remaining - 1,
                            tag,
                            work,
                        };
                    } else {
                        self.ship(p, tag, work);
                    }
                }
                SplitterPhase::AwaitEnd => {
                    let Some(i) = self.buf.iter().position(|m| {
                        m.tag == TAG_END || (resilient && m.tag == TAG_TIMEOUT && m.from == 0)
                    }) else {
                        break;
                    };
                    self.buf.remove(i);
                    for d in 0..self.d_count {
                        self.outq.push_back((1 + self.k + d, TAG_END, Bytes::new()));
                    }
                    // The final picture's acks were ANID-addressed to
                    // splitter n % k; that splitter must drain them.
                    self.phase = if self.n >= 1 && self.n % self.k == self.s {
                        SplitterPhase::DrainFinalAcks {
                            remaining: self.d_count,
                        }
                    } else {
                        SplitterPhase::Finished
                    };
                }
                SplitterPhase::DrainFinalAcks { remaining } => {
                    let want = self.n as u32 - 1;
                    let Some(i) = self.buf.iter().position(|m| {
                        is_ack(m, want)
                            || (resilient && m.tag == TAG_TIMEOUT && m.from >= first_decoder)
                    }) else {
                        break;
                    };
                    self.buf.remove(i);
                    self.phase = if remaining > 1 {
                        SplitterPhase::DrainFinalAcks {
                            remaining: remaining - 1,
                        }
                    } else {
                        SplitterPhase::Finished
                    };
                }
                SplitterPhase::Finished => break,
            }
        }
        Ok(())
    }

    fn step(&mut self, input: Option<Msg>) -> std::result::Result<Effect, String> {
        if let Some(m) = input {
            self.buf.push_back(m);
        }
        self.pump()?;
        if let Some((to, tag, payload)) = self.outq.pop_front() {
            return Ok(Effect::Send { to, tag, payload });
        }
        if self.phase == SplitterPhase::Finished {
            if self.resilient {
                // Under loss, late timeouts and over-concealed strays can
                // outlive the protocol; discard rather than poison.
                self.buf.clear();
            }
            if let Some(m) = self.buf.front() {
                return Err(format!(
                    "splitter {} finished with unconsumed message tag {} from node {}",
                    self.s, m.tag, m.from
                ));
            }
            return Ok(Effect::Done);
        }
        Ok(Effect::Recv)
    }
}

/// `TAG_ACK_SPLIT` payload matching `want`.
fn is_ack(m: &Msg, want: u32) -> bool {
    m.tag == TAG_ACK_SPLIT && decode_ack(&m.payload).is_ok_and(|got| got == want)
}

/// A tile decoder node.
#[derive(Clone, Hash)]
pub struct DecoderMachine {
    d: usize,
    k: usize,
    n: usize,
    /// Decoders in the system (tile count) — the conceal broadcast fan-out.
    d_total: usize,
    dec: TileDecoder,
    buf: VecDeque<Msg>,
    outq: VecDeque<Outgoing>,
    phase: DecoderPhase,
    /// Per-picture context while gathering MEI blocks.
    cur: Option<PictureCtx>,
    emitted: Vec<DisplayTile>,
    /// Conceal on [`TAG_TIMEOUT`] instead of erroring (lossy channels).
    resilient: bool,
}

#[derive(Clone, Hash, PartialEq, Eq)]
enum DecoderPhase {
    /// Expecting the work unit for picture `p`.
    AwaitWork {
        p: u32,
    },
    /// Gathering announced MEI blocks for picture `p` before decoding.
    AwaitBlocks {
        p: u32,
    },
    /// Waiting for `TAG_END` from every upstream feeder.
    AwaitEnds {
        remaining: usize,
    },
    Finished,
}

#[derive(Clone, Hash, PartialEq, Eq)]
struct PictureCtx {
    kind: PictureKind,
    mei: MeiBuffer,
    subpicture: SubPicture,
    /// Peers whose block messages are still outstanding.
    expected: BTreeSet<u16>,
}

impl DecoderMachine {
    /// Builds decoder `d` (tile `d` of the wall, row-major) of a
    /// `1-k-(m,n)` system over an `n`-picture stream.
    pub fn new(
        d: usize,
        k: usize,
        n: usize,
        seq: SequenceInfo,
        geom: WallGeometry,
        halo: u32,
    ) -> Self {
        let tile = geom.tile_at(d);
        let phase = if n > 0 {
            DecoderPhase::AwaitWork { p: 0 }
        } else {
            DecoderPhase::AwaitEnds {
                remaining: k.max(1),
            }
        };
        DecoderMachine {
            d,
            k,
            n,
            d_total: geom.tiles() as usize,
            dec: TileDecoder::new(geom, tile, seq, halo),
            buf: VecDeque::new(),
            outq: VecDeque::new(),
            phase,
            cur: None,
            emitted: Vec::new(),
            resilient: false,
        }
    }

    /// Enables timeout concealment (lossy-channel operation).
    pub fn with_resilience(mut self, on: bool) -> Self {
        self.resilient = on;
        self
    }

    /// Display tiles produced so far (drained; ordered by decode time).
    pub fn take_emitted(&mut self) -> Vec<DisplayTile> {
        std::mem::take(&mut self.emitted)
    }

    /// Consumes the work unit for picture `p`: verify order, ack to the
    /// ANID node, execute MEI SENDs, then gather RECVs.
    fn on_work(&mut self, m: Msg, p: u32) -> std::result::Result<(), String> {
        let wu = WorkUnit::decode(&m.payload)
            .map_err(|e| format!("decoder {}: bad work unit: {e}", self.d))?;
        if wu.picture_id != p {
            return Err(format!(
                "decoder {} expected picture {p}, got {} — ANID ordering violated",
                self.d, wu.picture_id
            ));
        }
        self.outq.push_back((
            wu.anid_node as usize,
            TAG_ACK_SPLIT,
            Bytes::from(encode_ack(p)),
        ));
        let kind = wu.subpicture.info.kind;
        // Execute SEND instructions before decoding (§4.2).
        let sends = self
            .dec
            .extract_send_blocks(kind, &wu.mei)
            .map_err(|e| format!("decoder {}: {e}", self.d))?;
        for (peer, blocks) in sends {
            self.outq.push_back((
                1 + self.k + peer,
                TAG_BLOCKS,
                Bytes::from(encode_blocks(p, self.d as u16, &blocks)),
            ));
        }
        let expected: BTreeSet<u16> = wu
            .mei
            .recvs()
            .filter_map(|i| match i {
                MeiInstruction::Recv { peer, .. } => Some(*peer),
                _ => None,
            })
            .collect();
        self.cur = Some(PictureCtx {
            kind,
            mei: wu.mei,
            subpicture: wu.subpicture,
            expected,
        });
        self.phase = DecoderPhase::AwaitBlocks { p };
        Ok(())
    }

    /// The node that feeds this decoder picture `p`: the console in a
    /// one-level system, splitter `p mod k` otherwise.
    fn feeder_for(&self, p: u32) -> usize {
        if self.k == 0 {
            0
        } else {
            1 + (p as usize % self.k)
        }
    }

    /// Picture `p`'s work unit was lost (or the feeder concealed the
    /// whole picture and shipped `TAG_TIMEOUT` work). Conceal: ack the
    /// node the lost ANID would have named — it is deterministic, the
    /// feeder of `p + 1` — tell every peer decoder no reference blocks
    /// are coming from this tile, and skip the picture without decoding.
    fn on_work_lost(&mut self, p: u32) {
        let anid = self.feeder_for(p + 1);
        self.outq
            .push_back((anid, TAG_ACK_SPLIT, Bytes::from(encode_ack(p))));
        for peer in 0..self.d_total {
            if peer != self.d {
                self.outq
                    .push_back((1 + self.k + peer, TAG_TIMEOUT, Bytes::new()));
            }
        }
        self.emitted.extend(self.dec.conceal_picture());
        let next = p + 1;
        self.phase = if (next as usize) < self.n {
            DecoderPhase::AwaitWork { p: next }
        } else {
            DecoderPhase::AwaitEnds {
                remaining: self.k.max(1),
            }
        };
    }

    /// Decodes picture `p` once every announced block has arrived, then
    /// advances.
    fn finish_picture(&mut self) -> std::result::Result<(), String> {
        let Some(ctx) = self.cur.take() else {
            return Err(format!(
                "decoder {}: internal state desync (no picture context)",
                self.d
            ));
        };
        // Warm the halo tiles the pixel pass is about to read: the MEI
        // RECV list names exactly this picture's remote reference blocks.
        self.dec.prefetch_references(ctx.kind, &ctx.mei);
        let tiles = match self.dec.decode(&ctx.subpicture) {
            Ok(tiles) => tiles,
            // A decode downstream of a concealed picture can fail on
            // state the loss corrupted (a reference that never
            // materialised); conceal this picture too rather than
            // poison the node.
            Err(_) if self.resilient => self.dec.conceal_picture(),
            Err(e) => return Err(format!("decoder {}: {e}", self.d)),
        };
        self.emitted.extend(tiles);
        let next = ctx.subpicture.picture_id + 1;
        self.phase = if (next as usize) < self.n {
            DecoderPhase::AwaitWork { p: next }
        } else {
            DecoderPhase::AwaitEnds {
                remaining: self.k.max(1),
            }
        };
        Ok(())
    }

    fn pump(&mut self) -> std::result::Result<(), String> {
        // Timeout matching is link-precise: a feeder timeout in
        // `AwaitWork { p }` is accepted only from the feeder of `p`
        // (per-link FIFO makes the next message on that link picture
        // `p`'s work unit); a lost END from an already-finished other
        // splitter stays buffered for `AwaitEnds`. Peer timeouts are
        // matched only against peers still owing blocks.
        let resilient = self.resilient;
        loop {
            match self.phase.clone() {
                DecoderPhase::AwaitWork { p } => {
                    let feeder = self.feeder_for(p);
                    let Some(i) = self.buf.iter().position(|m| {
                        m.tag == TAG_WORK || (resilient && m.tag == TAG_TIMEOUT && m.from == feeder)
                    }) else {
                        break;
                    };
                    let Some(m) = self.buf.remove(i) else { break };
                    if m.tag == TAG_TIMEOUT {
                        self.on_work_lost(p);
                    } else {
                        self.on_work(m, p)?;
                    }
                }
                DecoderPhase::AwaitBlocks { p } => {
                    let Some(ctx) = self.cur.as_mut() else {
                        return Err(format!(
                            "decoder {}: internal state desync (no picture context)",
                            self.d
                        ));
                    };
                    if ctx.expected.is_empty() {
                        self.finish_picture()?;
                        continue;
                    }
                    let expected = &ctx.expected;
                    let first_peer = 1 + self.k;
                    let found = self.buf.iter().position(|m| {
                        (m.tag == TAG_BLOCKS
                            && peek_blocks_header(&m.payload)
                                .is_ok_and(|(pid, src)| pid == p && expected.contains(&src)))
                            || (resilient
                                && m.tag == TAG_TIMEOUT
                                && m.from >= first_peer
                                && expected.contains(&((m.from - first_peer) as u16)))
                    });
                    let Some(i) = found else { break };
                    let Some(m) = self.buf.remove(i) else { break };
                    if m.tag == TAG_TIMEOUT {
                        // The announced blocks (or the peer's whole
                        // picture) are gone; decode without them. The
                        // halo keeps its previous-picture pixels.
                        let src = (m.from - first_peer) as u16;
                        if let Some(ctx) = self.cur.as_mut() {
                            ctx.expected.remove(&src);
                        }
                        continue;
                    }
                    let (_, src, blocks) = decode_blocks(&m.payload)
                        .map_err(|e| format!("decoder {}: {e}", self.d))?;
                    let Some(ctx) = self.cur.as_mut() else {
                        return Err(format!(
                            "decoder {}: internal state desync (no picture context)",
                            self.d
                        ));
                    };
                    self.dec
                        .apply_recv_blocks(ctx.kind, &ctx.mei, src as usize, &blocks)
                        .map_err(|e| format!("decoder {}: {e}", self.d))?;
                    ctx.expected.remove(&src);
                }
                DecoderPhase::AwaitEnds { remaining } => {
                    // All work units were consumed (decoded or concealed)
                    // in `AwaitWork`, so the one message left per feeder
                    // link is its END — a feeder timeout here is exactly
                    // a lost END.
                    let Some(i) = self.buf.iter().position(|m| {
                        m.tag == TAG_END || (resilient && m.tag == TAG_TIMEOUT && m.from <= self.k)
                    }) else {
                        break;
                    };
                    self.buf.remove(i);
                    if remaining > 1 {
                        self.phase = DecoderPhase::AwaitEnds {
                            remaining: remaining - 1,
                        };
                    } else {
                        if let Some(dt) = self.dec.flush() {
                            self.emitted.push(dt);
                        }
                        self.phase = DecoderPhase::Finished;
                    }
                }
                DecoderPhase::Finished => break,
            }
        }
        Ok(())
    }

    fn step(&mut self, input: Option<Msg>) -> std::result::Result<Effect, String> {
        if let Some(m) = input {
            self.buf.push_back(m);
        }
        self.pump()?;
        if let Some((to, tag, payload)) = self.outq.pop_front() {
            return Ok(Effect::Send { to, tag, payload });
        }
        if self.phase == DecoderPhase::Finished {
            if self.resilient {
                // Blocks for concealed pictures, late timeouts, and peer
                // conceal broadcasts that matched nothing can outlive the
                // protocol under loss; discard rather than poison.
                self.buf.clear();
            }
            if let Some(m) = self.buf.front() {
                return Err(format!(
                    "decoder {} finished with unconsumed message tag {} from node {}",
                    self.d, m.tag, m.from
                ));
            }
            return Ok(Effect::Done);
        }
        Ok(Effect::Recv)
    }
}

/// Any pipeline node, for homogeneous checker/thread pools.
///
/// Variant sizes differ widely (a decoder carries reference frames, the
/// root only byte ranges), but only a handful of nodes ever exist, so the
/// footprint of the padding is irrelevant.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Hash)]
pub enum NodeMachine {
    /// Two-level root (picture-level splitter).
    Root(RootMachine),
    /// One-level console (macroblock splitter at the root).
    OneLevelRoot(OneLevelRootMachine),
    /// Second-level macroblock splitter.
    Splitter(SplitterMachine),
    /// Tile decoder.
    Decoder(DecoderMachine),
}

impl NodeMachine {
    /// Display tiles produced so far (non-empty only for decoders).
    pub fn take_emitted(&mut self) -> Vec<DisplayTile> {
        match self {
            NodeMachine::Decoder(d) => d.take_emitted(),
            _ => Vec::new(),
        }
    }
}

impl Process for NodeMachine {
    fn resume(&mut self, input: Option<Msg>) -> std::result::Result<Effect, String> {
        match self {
            NodeMachine::Root(m) => m.step(input),
            NodeMachine::OneLevelRoot(m) => m.step(input),
            NodeMachine::Splitter(m) => m.step(input),
            NodeMachine::Decoder(m) => m.step(input),
        }
    }
}

/// A complete set of node machines for one playback, in node-id order
/// (root, splitters, decoders).
pub struct MachineSet {
    /// One machine per cluster node.
    pub machines: Vec<NodeMachine>,
    /// The wall geometry in use.
    pub geometry: WallGeometry,
    /// Pictures in the stream.
    pub pictures: usize,
    /// Second-level splitter count (`0` = one-level system).
    pub k: usize,
}

/// Builds the full machine pool for `cfg` over `stream` — the shared
/// entry point of the threaded back-end and the model checker.
pub fn build_machines(cfg: &SystemConfig, stream: &[u8]) -> Result<MachineSet> {
    let index = split_picture_units(stream)?;
    let seq = index.seq.clone();
    if seq.width % 16 != 0 || seq.height % 16 != 0 {
        return Err(CoreError::Config(format!(
            "video {}x{} is not macroblock aligned",
            seq.width, seq.height
        )));
    }
    let geom = cfg.geometry(seq.width, seq.height)?;
    let k = cfg.k;
    let d_count = cfg.decoders();
    let n = index.units.len();
    let resilient = cfg.policy.is_resilient();
    let mut machines = Vec::with_capacity(1 + k + d_count);
    if k == 0 {
        machines.push(NodeMachine::OneLevelRoot(
            OneLevelRootMachine::new(stream, &index, d_count, &seq, geom)?
                .with_resilience(resilient),
        ));
    } else {
        machines.push(NodeMachine::Root(
            RootMachine::new(stream, &index, k).with_resilience(resilient),
        ));
        for s in 0..k {
            machines.push(NodeMachine::Splitter(
                SplitterMachine::new(s, k, n, d_count, seq.clone(), geom)
                    .with_resilience(resilient),
            ));
        }
    }
    for d in 0..d_count {
        machines.push(NodeMachine::Decoder(
            DecoderMachine::new(d, k, n, seq.clone(), geom, cfg.halo_margin)
                .with_resilience(resilient),
        ));
    }
    Ok(MachineSet {
        machines,
        geometry: geom,
        pictures: n,
        k,
    })
}
