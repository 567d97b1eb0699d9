//! Set-up and the end-to-end (untraced) run of one workload.
//!
//! Load shape: closed loop, one client, batch. Each pass decodes the
//! workload's whole stream as fast as the engine goes; the next pass starts
//! when the previous one has completed and been checked.

use std::time::Instant;

use tiledec_mpeg2::{Frame, StreamDamage};

use crate::alloc;
use crate::inputs::{build_stream, damage, fnv64, Damaged, Stream};
use crate::measure::{median, percentile, run_passes, PassTimes};
use crate::workloads::{Delivered, Engine, Runner, Workload};

/// Warm-up passes before the timed window (pools fill, lazy tables build,
/// cost EWMAs settle).
pub const WARMUP_PASSES: usize = 2;

/// Fewest timed passes of a run, whatever `--seconds` says.
pub const MIN_PASSES: usize = 5;

/// Cold passes under the counting allocator. The wall workloads' high-water
/// mark depends on thread timing (how many tile frames are still queued
/// when assembly peaks: 89 to 100 MB at UHD), so one pass is not enough.
pub const HEAP_PASSES: usize = 5;

/// Input generation is repeated (and its median time reported) up to this
/// many times …
const MAX_GENERATIONS: usize = 3;
/// … for as long as the repetitions so far took less than this many
/// seconds: the DVD stream is made three times, the HD and UHD streams
/// (4.5 s and 11 s of encoding) once.
const GENERATION_BUDGET_S: f64 = 4.0;

/// A workload's inputs and reference outputs.
pub struct Prepared {
    /// The workload.
    pub workload: &'static Workload,
    /// The seed everything was made from.
    pub seed: u64,
    /// The clean encoded stream.
    pub stream: Stream,
    /// The damaged version, when the workload decodes one.
    pub damaged: Option<Damaged>,
    /// What the sequential decoder makes of the workload's input: the
    /// frames every pass must reproduce bit for bit.
    pub reference: Vec<Frame>,
    /// The damage ledger every pass must reproduce (clean for clean input).
    pub ledger: StreamDamage,
    /// Median seconds of one input generation (render + encode + fault
    /// injection), and how many generations the median is over.
    pub generate_s: f64,
    /// See [`generate_s`](Self::generate_s).
    pub generations: usize,
}

impl Prepared {
    /// The bytes the workload's engine receives.
    pub fn input(&self) -> &[u8] {
        self.damaged
            .as_ref()
            .map_or(&self.stream.bytes, |d| &d.bytes)
    }

    /// A fresh engine for this workload.
    pub fn runner(&self, engine: Engine) -> Runner {
        Runner::new(
            engine,
            self.workload.system(),
            self.reference.len(),
            self.stream.width(),
            self.stream.height(),
        )
    }

    /// True when a pass delivered the reference output. An engine error
    /// is reported and counts as a wrong pass.
    pub fn accepts(&self, runner: &Runner, out: Result<Delivered, String>) -> bool {
        match out {
            Ok(out) => runner.correct(&out, &self.reference, &self.ledger),
            Err(e) => {
                eprintln!("[{}] pass failed: {e}", self.workload.name);
                false
            }
        }
    }

    /// Fingerprint of the engine's input, so two runs can be seen to have
    /// decoded identical bytes.
    pub fn input_fnv64(&self) -> u64 {
        fnv64(self.input())
    }
}

/// Generates the workload's inputs from `seed` and decodes the reference.
pub fn prepare(workload: &'static Workload, seed: u64, tiny: bool) -> Result<Prepared, String> {
    let spec = workload.stream.spec(tiny);
    let wants_damage = workload.engine == Engine::Resilient;
    let mut times = Vec::new();
    let mut made: Option<(Stream, Option<Damaged>)> = None;
    while times.len() < MAX_GENERATIONS
        && (times.is_empty() || times.iter().sum::<f64>() < GENERATION_BUDGET_S)
    {
        let t0 = Instant::now();
        let stream = build_stream(spec, seed)?;
        let damaged = if wants_damage {
            Some(damage(&stream.bytes, seed)?)
        } else {
            None
        };
        times.push(t0.elapsed().as_secs_f64());
        if let Some((first, _)) = &made {
            if first.bytes != stream.bytes {
                return Err(format!("{}: the same seed gave different bytes", spec.name));
            }
        }
        made = Some((stream, damaged));
    }
    let (stream, mut damaged) = made.expect("the loop runs at least once");

    let (reference, ledger) = match damaged.as_mut() {
        Some(d) => (std::mem::take(&mut d.frames), d.ledger.clone()),
        None => (
            tiledec_mpeg2::decode_all(&stream.bytes)
                .map_err(|e| format!("{}: reference decode failed: {e}", spec.name))?,
            StreamDamage::clean(),
        ),
    };
    if reference.is_empty() {
        return Err(format!(
            "{}: reference decode produced no frames",
            spec.name
        ));
    }
    Ok(Prepared {
        workload,
        seed,
        stream,
        damaged,
        reference,
        ledger,
        generate_s: median(&times),
        generations: times.len(),
    })
}

/// What the end-to-end run of one workload measured.
pub struct EndToEndRun {
    /// Timed passes.
    pub passes: PassTimes,
    /// Pictures each pass emits.
    pub pictures: usize,
    /// Passes whose output was wrong or that returned an error.
    pub failed: u64,
    /// Heap high-water mark of a cold pass, bytes: mean over
    /// [`HEAP_PASSES`] (the marks cluster at a few timing-dependent levels,
    /// which a median would hop between).
    pub peak_heap_bytes: f64,
    /// Input generation + engine construction + warm-up, seconds.
    pub setup_s: f64,
}

impl EndToEndRun {
    /// The end-to-end metrics, in [`crate::metrics::END_TO_END`] order.
    pub fn metrics(&self) -> [f64; 5] {
        let n = self.passes.wall_ms.len() * self.pictures;
        [
            self.pictures as f64 / (self.passes.median_ms() / 1e3),
            percentile(&self.passes.wall_ms, 75.0),
            self.passes.cpu_s * 1e3 / n as f64,
            self.peak_heap_bytes / 1e6,
            self.setup_s,
        ]
    }
}

/// Warm-up, timed passes for `seconds`, then cold passes under the
/// counting allocator.
pub fn run_end_to_end(prep: &Prepared, seconds: f64) -> EndToEndRun {
    let engine = prep.workload.engine;
    let mut failed = 0u64;

    let t0 = Instant::now();
    let mut runner = prep.runner(engine);
    for _ in 0..WARMUP_PASSES {
        let out = runner.pass(prep.input());
        failed += !prep.accepts(&runner, out) as u64;
    }
    let setup_s = prep.generate_s + t0.elapsed().as_secs_f64();

    let passes = run_passes(MIN_PASSES, seconds, |watch| {
        let out = watch.time(|| runner.pass(prep.input()));
        failed += !prep.accepts(&runner, out) as u64;
    });
    drop(runner);

    // Cold on purpose: a fresh engine, so the pools a persistent engine
    // builds on its first pass count towards the high-water mark. The
    // display sink is the harness's and is allocated outside the window.
    let mut peak_heap_bytes = 0.0;
    for _ in 0..HEAP_PASSES {
        let mut cold = prep.runner(engine);
        let (out, heap) = alloc::measure(|| cold.pass(prep.input()));
        failed += !prep.accepts(&cold, out) as u64;
        peak_heap_bytes += heap.peak_bytes as f64 / HEAP_PASSES as f64;
    }

    EndToEndRun {
        passes,
        pictures: prep.reference.len(),
        failed,
        peak_heap_bytes,
        setup_s,
    }
}
