//! Pipeline liveness stress: repeated decodes on one `PipelineDecoder`
//! at the worker grid most prone to out-of-order band completion.
//!
//! Regression test for a coordinator stall: when the last in-flight
//! band completed the window's laggard picture, `emit_ready` swept the
//! whole lookahead window at once and the coordinator blocked on the
//! results queue even though the advanced window had undispatched
//! pictures left. The dispatch/emit fixpoint loop in `run_pipeline`
//! (plus a debug assert on the in-flight count) prevents it; this test
//! hangs — and the watchdog turns the hang into a failure — if it
//! regresses. The schedule is nondeterministic, so this is a stress
//! test, not a deterministic reproduction.

use std::sync::mpsc;
use std::time::Duration;

use tiledec_core::recon_parallel::PipelineDecoder;
use tiledec_mpeg2::encoder::{Encoder, EncoderConfig};
use tiledec_mpeg2::frame::Frame;

fn clip(w: usize, h: usize, frames: usize) -> Vec<Frame> {
    (0..frames)
        .map(|t| {
            let mut f = Frame::black(w, h);
            for y in 0..h {
                for x in 0..w {
                    let mut v = (((x + 3 * t) * 5 + y * 7) % 199) as u8 + 20;
                    let sq_x = (5 * t + 12) % (w - 24);
                    let sq_y = (3 * t + 4) % (h - 24);
                    if x >= sq_x && x < sq_x + 24 && y >= sq_y && y < sq_y + 24 {
                        v = 230;
                    }
                    f.y.set(x, y, v);
                }
            }
            for y in 0..h / 2 {
                for x in 0..w / 2 {
                    f.cb.set(x, y, (((x + 2 * t) * 3 + y) % 120) as u8 + 60);
                    f.cr.set(x, y, ((x + (y + t) * 3) % 120) as u8 + 60);
                }
            }
            f
        })
        .collect()
}

#[test]
fn repeated_decode_with_many_recon_workers_terminates() {
    let (w, h, frames) = (352u32, 224u32, 24usize);
    let mut ecfg = EncoderConfig::for_size(w, h);
    ecfg.gop_size = 12;
    ecfg.b_frames = 2;
    ecfg.qscale = 6;
    ecfg.search_range = 15;
    let stream = Encoder::new(ecfg)
        .unwrap()
        .encode(&clip(w as usize, h as usize, frames))
        .unwrap();

    // The decode runs on a helper thread so a stall fails loudly at the
    // watchdog timeout instead of hanging the whole test binary. The
    // helper leaks on failure, which is fine for a test process.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        // Many recon workers maximise bands per picture and out-of-order
        // completion; 2 VLD workers keep the lookahead window saturated.
        // (3, 1) is the opposite corner: out-of-order VLD ranges feeding a
        // single recon worker that every picture queues behind.
        for (vld, recon) in [(2, 8), (3, 1)] {
            let mut dec = PipelineDecoder::new(vld, recon);
            for _ in 0..5 {
                let mut n = 0usize;
                dec.decode_stream(&stream, |_, _| n += 1).expect("decode");
                assert_eq!(n, frames);
            }
        }
        tx.send(()).ok();
    });
    rx.recv_timeout(Duration::from_secs(300))
        .expect("pipeline stalled: repeated decode did not finish within the watchdog");
}
