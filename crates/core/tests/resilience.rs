//! Chaos suite for [`ErrorPolicy::Resilient`]: seeded fault plans applied
//! to valid streams, decoded through every back-end — sequential, the
//! node-local engine at several VLD worker counts and the threaded 2×2
//! tiled system — asserting termination, full-geometry frames,
//! cross-back-end bit-exactness and deterministic [`StreamDamage`]
//! ledgers. A damaged stream either decodes identically
//! everywhere or is structurally unrecoverable everywhere; there is no
//! middle ground.
//!
//! Every case derives from a printed seed. Set `CHAOS_SEED=<n>` to append
//! an extra seed to the sweep; the active seed list is echoed so a CI
//! failure is reproducible locally with the same environment variable.

use tiledec_bitstream::fault::FaultPlan;
use tiledec_core::{PipelineDecoder, SystemConfig, ThreadedSystem};
use tiledec_mpeg2::encoder::{Encoder, EncoderConfig};
use tiledec_mpeg2::{decode_all, decode_all_resilient, ErrorPolicy, Frame, StreamDamage};

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
}

/// VLD worker counts the node-local engine is swept over (one recon
/// worker; `recon_parallel.rs` covers the recon sweep under damage).
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Base seeds for the chaos sweep. Kept small enough that the full
/// back-end matrix stays fast; `CHAOS_SEED` appends a fresh one in CI.
const BASE_SEEDS: [u64; 8] = [1, 2, 3, 5, 8, 13, 21, 34];

/// The sweep's seed list: the fixed bases plus an optional `CHAOS_SEED`,
/// echoed to stderr so failures reproduce.
fn chaos_seeds() -> Vec<u64> {
    let mut seeds = BASE_SEEDS.to_vec();
    if let Ok(v) = std::env::var("CHAOS_SEED") {
        match v.trim().parse::<u64>() {
            Ok(s) => seeds.push(s),
            Err(_) => panic!("CHAOS_SEED must be a u64, got {v:?}"),
        }
    }
    eprintln!("chaos seeds: {seeds:?} (append with CHAOS_SEED=<n>)");
    seeds
}

/// Renders and encodes a deterministic noisy clip whose dimensions are
/// macroblock-aligned in both halves, so every size also splits into a
/// legal 2×2 tile wall.
fn chaos_clip(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let (w, h) = match rng.below(3) {
        0 => (64, 64),
        1 => (128, 96),
        _ => (96, 64),
    };
    let mut cfg = EncoderConfig::for_size(w, h);
    cfg.gop_size = 3 + rng.below(5) as u32;
    cfg.b_frames = rng.below(3) as u32;
    cfg.qscale = 4 + rng.below(10) as u8;
    cfg.concealment_mvs = rng.below(2) == 0;
    let n = 4 + rng.below(4) as usize;
    let mut frames = Vec::with_capacity(n);
    for t in 0..n {
        let mut f = Frame::black(w as usize, h as usize);
        for yy in 0..h as usize {
            for xx in 0..w as usize {
                let base = ((xx * 5) ^ (yy * 3)) as u64;
                let band = if (xx + yy + t * 7) % 29 < 6 { 90 } else { 0 };
                f.y.set(xx, yy, (base % 120 + band + rng.below(24)) as u8);
            }
        }
        for yy in 0..(h / 2) as usize {
            for xx in 0..(w / 2) as usize {
                f.cb.set(xx, yy, 100 + ((xx + t) % 56) as u8);
                f.cr.set(xx, yy, 120 + ((yy * 2 + t) % 40) as u8);
            }
        }
        frames.push(f);
    }
    Encoder::new(cfg)
        .expect("config")
        .encode(&frames)
        .expect("encode")
}

/// A seed-derived damaged stream: a valid clip with a sampled
/// [`FaultPlan`] applied (bit flips, an erase burst, sometimes a tail
/// truncation).
fn damaged_stream(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ 0xDA_3A6E);
    let data = chaos_clip(seed);
    let flips = rng.below(4) as usize;
    let bursts = 1 + rng.below(2) as usize;
    let truncate = rng.below(4) == 0;
    let plan = FaultPlan::sample(seed, data.len(), flips, bursts, truncate);
    plan.apply(&data)
}

/// The sequential reference under the resilient policy.
fn sequential(data: &[u8]) -> Result<(Vec<Frame>, StreamDamage), String> {
    decode_all_resilient(data).map_err(|e| e.to_string())
}

fn assert_frames_equal(got: &[Frame], want: &[Frame], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: frame count");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert!(
            a == b,
            "{label}: frame {i} differs from the sequential decode"
        );
    }
}

/// The tentpole property: for every seeded fault plan, every back-end
/// either recovers to the *same* frames and damage ledger as the
/// sequential resilient decoder, or every back-end reports the stream as
/// structurally unrecoverable.
#[test]
fn damaged_streams_decode_identically_across_backends() {
    for seed in chaos_seeds() {
        let data = damaged_stream(seed);
        let reference = sequential(&data);

        for workers in WORKER_COUNTS {
            let got = PipelineDecoder::new(workers, 1)
                .decode_all_resilient(&data)
                .map_err(|e| e.to_string());
            match (&reference, &got) {
                (Ok((frames, damage)), Ok((pf, pd))) => {
                    assert_frames_equal(pf, frames, &format!("seed {seed} vld-{workers}"));
                    assert_eq!(pd, damage, "seed {seed} vld-{workers}: damage ledger");
                }
                (Err(_), Err(_)) => {}
                (r, g) => panic!(
                    "seed {seed} vld-{workers}: outcome split — sequential {:?} vs parallel {:?}",
                    r.as_ref().map(|_| "ok"),
                    g.as_ref().map(|_| "ok"),
                ),
            }
        }

        let cfg = SystemConfig::new(1, (2, 2)).with_policy(ErrorPolicy::Resilient);
        let tiled = ThreadedSystem::new(cfg).play(&data);
        match (&reference, &tiled) {
            (Ok((frames, damage)), Ok(out)) => {
                assert_frames_equal(&out.frames, frames, &format!("seed {seed} tiled 2x2"));
                assert_eq!(&out.damage, damage, "seed {seed} tiled 2x2: damage ledger");
                for (i, f) in out.frames.iter().enumerate() {
                    assert_eq!(
                        (f.y.width(), f.y.height()),
                        (out.geometry.width as usize, out.geometry.height as usize),
                        "seed {seed} tiled 2x2: frame {i} geometry"
                    );
                }
            }
            (Err(_), Err(_)) => {}
            _ => panic!("seed {seed} tiled 2x2: outcome split with sequential"),
        }
    }
}

/// Repair is a pure function of the bytes: decoding the same damaged
/// stream twice yields identical frames and an identical damage ledger,
/// and the ledger is internally consistent.
#[test]
fn damage_reports_are_deterministic() {
    let mut repaired_any = false;
    for seed in chaos_seeds() {
        let data = damaged_stream(seed);
        let (Ok((f1, d1)), Ok((f2, d2))) = (sequential(&data), sequential(&data)) else {
            // Structural failure must be deterministic too.
            assert!(
                sequential(&data).is_err() && sequential(&data).is_err(),
                "seed {seed}: outcome flapped between runs"
            );
            continue;
        };
        assert_frames_equal(&f1, &f2, &format!("seed {seed} re-decode"));
        assert_eq!(d1, d2, "seed {seed}: damage ledger not deterministic");
        for r in &d1.reports {
            assert!(
                r.slices_lost > 0 || r.rows_damaged > 0,
                "seed {seed}: empty damage report for picture {}",
                r.picture
            );
            assert_eq!(
                r.mbs_concealed % r.rows_damaged.max(1),
                0,
                "seed {seed}: mbs_concealed is rows × mb_width"
            );
        }
        if !d1.clean {
            repaired_any = true;
            assert!(
                !d1.reports.is_empty() || d1.pictures_dropped > 0 || d1.bytes_skipped > 0,
                "seed {seed}: repaired stream with an empty ledger"
            );
        }
    }
    // The sweep must not be vacuous: at least one base seed has to land a
    // fault that actually forces a repair, or the suite is testing the
    // clean path under a different name.
    assert!(repaired_any, "no seed exercised the repair path");
}

/// Heavier damage — guaranteed truncation plus wide erase bursts — still
/// terminates, and the back-ends still agree on the outcome.
#[test]
fn truncation_and_bursts_terminate_in_agreement() {
    for seed in chaos_seeds() {
        let clean = chaos_clip(seed);
        let plan = FaultPlan::sample(seed ^ 0xB00, clean.len(), 6, 3, true);
        let data = plan.apply(&clean);
        let reference = sequential(&data);
        let got = PipelineDecoder::new(3, 1)
            .decode_all_resilient(&data)
            .map_err(|e| e.to_string());
        match (&reference, &got) {
            (Ok((frames, damage)), Ok((pf, pd))) => {
                assert_frames_equal(pf, frames, &format!("seed {seed} heavy"));
                assert_eq!(pd, damage, "seed {seed} heavy: damage ledger");
            }
            (Err(_), Err(_)) => {}
            _ => panic!("seed {seed} heavy: outcome split"),
        }
    }
}

/// Feeding arbitrary garbage to the resilient entry points returns an
/// error (or, for byte soups that happen to contain a valid prefix, a
/// decode) — it never panics and never hangs.
#[test]
fn random_bytes_never_panic() {
    let mut rng = Rng::new(0x6A4B_A6E5);
    for case in 0..64u64 {
        let len = (rng.below(4096) + 1) as usize;
        let mut data = vec![0u8; len];
        for b in &mut data {
            *b = rng.next() as u8;
        }
        // Seed a few start-code prefixes so the resync path actually runs
        // instead of rejecting everything at the first scan.
        for _ in 0..rng.below(6) {
            let at = rng.below(len.saturating_sub(4).max(1) as u64) as usize;
            data[at..at + 3].copy_from_slice(&[0, 0, 1]);
        }
        let _ = decode_all_resilient(&data);
        let _ = PipelineDecoder::new(2, 1).decode_all_resilient(&data);
        let _ = tiledec_mpeg2::repair_stream(&data);
        let _ = case;
    }
}

/// On a clean stream the resilient policy is invisible: bit-identical
/// frames, a `clean` ledger, and no behavioural difference in any
/// back-end.
#[test]
fn resilient_on_clean_streams_is_invisible() {
    let data = chaos_clip(7);
    let strict = decode_all(&data).expect("clean stream decodes strictly");

    let (frames, damage) = sequential(&data).expect("sequential resilient");
    assert!(damage.clean, "clean stream must report a clean ledger");
    assert_frames_equal(&frames, &strict, "sequential resilient on clean");

    for workers in WORKER_COUNTS {
        let (pf, pd) = PipelineDecoder::new(workers, 1)
            .decode_all_resilient(&data)
            .expect("vld resilient");
        assert!(pd.clean, "vld-{workers}: clean ledger");
        assert_frames_equal(&pf, &strict, &format!("vld-{workers} resilient on clean"));
    }

    let cfg = SystemConfig::new(1, (2, 2)).with_policy(ErrorPolicy::Resilient);
    let out = ThreadedSystem::new(cfg)
        .play(&data)
        .expect("tiled resilient");
    assert!(out.damage.clean, "tiled 2x2: clean ledger");
    assert_frames_equal(&out.frames, &strict, "tiled 2x2 resilient on clean");
}
