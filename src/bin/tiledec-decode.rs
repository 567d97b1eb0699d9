//! `tiledec-decode` — decode an MPEG-2 stream (elementary or program
//! stream) to YUV4MPEG2.
//!
//! ```text
//! tiledec-decode input.m2v|input.mpg output.y4m [--workers V,R]
//! ```
//!
//! `--workers V,R` sizes the two stages of the node-local pipeline: up to
//! `V` slice-parallel entropy-decode workers and up to `R` band
//! reconstruction workers, auto-tuned to the stream and the host. A zero
//! on one side runs that stage on one worker; without the flag (or with
//! `0,0`) the decode is sequential. Output is bit-exact with the
//! sequential path in every case.

use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;

use tiledec::core::recon_parallel::PipelineDecoder;
use tiledec::mpeg2::y4m::{Y4mHeader, Y4mWriter};
use tiledec::ps::looks_like_program_stream;

fn main() -> ExitCode {
    match run() {
        Ok(msg) => {
            eprintln!("{msg}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tiledec-decode: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (input, output, (vld_workers, recon_workers)) = parse_args(&args)
        .ok_or("usage: tiledec-decode <input.m2v|input.mpg> <output.y4m> [--workers V,R]")?;
    let data = std::fs::read(input).map_err(|e| format!("read {input}: {e}"))?;
    let es = if looks_like_program_stream(&data) {
        eprintln!("program stream detected; demultiplexing");
        tiledec::ps::demux_video(&data)
            .map_err(|e| e.to_string())?
            .video_es
    } else {
        data
    };

    // First pass over the headers for the y4m header, then stream frames
    // straight to the writer (only reference frames stay in memory).
    let index = tiledec::core::split_picture_units(&es).map_err(|e| e.to_string())?;
    let fps = index.seq.frame_rate();
    let (fps_num, fps_den) = fps_to_ratio(fps);
    let out = File::create(output).map_err(|e| format!("create {output}: {e}"))?;
    let mut writer = Y4mWriter::new(
        BufWriter::new(out),
        Y4mHeader {
            width: index.seq.mb_width() as usize * 16,
            height: index.seq.mb_height() as usize * 16,
            fps_num,
            fps_den,
        },
    );
    let mut frames = 0usize;
    let mut write_error: Option<String> = None;
    let mut decoder = PipelineDecoder::auto_tuned(vld_workers, recon_workers);
    let summary = decoder
        .decode_stream(&es, |frame, _| {
            if write_error.is_none() {
                if let Err(e) = writer.write_frame(frame) {
                    write_error = Some(e.to_string());
                }
                frames += 1;
            }
        })
        .map_err(|e| e.to_string())?;
    let stats = decoder.stats();
    if !stats.sequential_fallback {
        eprintln!(
            "pipelined decode: {} VLD workers, {} recon workers",
            stats.vld_workers, stats.recon_workers
        );
    }
    if let Some(e) = write_error {
        return Err(e);
    }
    writer.finish().map_err(|e| e.to_string())?;
    Ok(format!(
        "decoded {} pictures ({}x{} @ {:.2} fps) to {output}",
        summary.pictures, summary.seq.width, summary.seq.height, fps
    ))
}

/// Splits the command line into `(input, output, (vld, recon))` worker
/// counts; `None` for anything the usage line does not describe.
fn parse_args(args: &[String]) -> Option<(&str, &str, (usize, usize))> {
    let mut positional = Vec::new();
    let mut workers = (0, 0);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--workers" {
            let (vld, recon) = it.next()?.split_once(',')?;
            workers = (vld.parse().ok()?, recon.parse().ok()?);
        } else {
            positional.push(arg.as_str());
        }
    }
    match positional[..] {
        [input, output] => Some((input, output, workers)),
        _ => None,
    }
}

fn fps_to_ratio(fps: f64) -> (u32, u32) {
    // The frame-rate codes map onto exact ratios.
    for (value, num, den) in [
        (23.976, 24000, 1001),
        (24.0, 24, 1),
        (25.0, 25, 1),
        (29.97, 30000, 1001),
        (30.0, 30, 1),
        (50.0, 50, 1),
        (59.94, 60000, 1001),
        (60.0, 60, 1),
    ] {
        if (fps - value).abs() < 0.02 {
            return (num, den);
        }
    }
    ((fps * 1000.0).round() as u32, 1000)
}
