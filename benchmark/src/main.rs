//! Paper-scale end-to-end and per-layer benchmark for tiledec.
//!
//! ```text
//! tiledec-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out PATH]
//! tiledec-benchmark compare A.json B.json
//! ```
//!
//! With `--workload`, runs that workload once — end to end (`--trace 0`,
//! the default) or traced, layer by layer (`--trace 1`) — and prints, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the contract of `BENCHMARK.json`.
//! Without it, runs every workload both ways. Either way every metric is
//! printed by name with its unit, every pass's output is checked bit-exact
//! against the sequential reference decoder, and a results document (and,
//! traced, a Chrome trace per workload) is written under `benchmark/out/`.
//! See `README.md` beside this package.

mod alloc;
mod inputs;
mod json;
mod layers;
mod measure;
mod metrics;
mod report;
mod run;
mod staged;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Default length of the timed window; `BENCHMARK.json` passes its own.
const DEFAULT_SECONDS: f64 = 8.0;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: Option<bool>,
    out: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: None,
        out: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(workloads::by_name(&name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// `benchmark/out/`: beside the package's manifest, wherever the checkout is.
fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_owned());
    Path::new(&manifest_dir).join("out")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// What one workload's run(s) came to.
struct Outcome {
    entry: Json,
    attempted: u64,
    failed: u64,
    /// The metrics of the last mode run, for the result line.
    metrics: Json,
}

/// Runs one workload end to end, traced, or both.
fn run_workload(
    w: &'static Workload,
    args: &Args,
    end_to_end: bool,
    traced: bool,
) -> Result<Outcome, String> {
    eprintln!("[{}] generating inputs from seed {}", w.name, args.seed);
    let prep = run::prepare(w, args.seed, false)?;
    println!(
        "{:<13} input: stream {} {}x{}, {} pictures, stream_bytes {}, stream_bpp {:.4}, \
         input_fnv64 {:016x}",
        w.name,
        prep.stream.spec.name,
        prep.stream.width(),
        prep.stream.height(),
        prep.reference.len(),
        prep.input().len(),
        prep.stream.bpp,
        prep.input_fnv64()
    );
    let (mut attempted, mut failed, mut metrics) = (0, 0, Json::Null);

    let e2e = end_to_end.then(|| {
        eprintln!("[{}] end-to-end passes for {} s", w.name, args.seconds);
        run::run_end_to_end(&prep, args.seconds)
    });
    if let Some(run) = &e2e {
        attempted += report::attempted(run);
        failed += run.failed;
        metrics = report::end_to_end_json(run);
        report::print_end_to_end(w.name, run);
    }

    let traced_run = if traced {
        eprintln!("[{}] traced run: per-layer probes", w.name);
        Some(layers::run_traced(&prep)?)
    } else {
        None
    };
    if let Some(run) = &traced_run {
        attempted += run.attempted;
        failed += run.failed;
        metrics = report::per_layer_json(run);
        report::print_per_layer(w.name, run);
        let path = out_dir().join(format!("trace-{}.json", w.name));
        write_file(&path, &run.tracer.to_chrome_trace().to_line())?;
        eprintln!("[{}] trace written to {}", w.name, path.display());
    }
    Ok(Outcome {
        entry: report::workload_entry(&prep, e2e.as_ref(), traced_run.as_ref()),
        attempted,
        failed,
        metrics,
    })
}

fn benchmark(args: Args) -> Result<bool, String> {
    // One workload runs in one mode (the driver's call); all of them run
    // both ways unless `--trace` picks one.
    let targets: Vec<&'static Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let (end_to_end, traced) = match (args.workload, args.traced) {
        (None, None) => (true, true),
        (_, t) => (!t.unwrap_or(false), t.unwrap_or(false)),
    };
    let mut outcomes = Vec::new();
    for w in targets {
        outcomes.push((w.name, run_workload(w, &args, end_to_end, traced)?));
    }
    // The driver's line carries the one workload's metrics; the line of a
    // run of everything nests them by workload.
    let (default_name, line_metrics) = match args.workload {
        Some(w) => (
            format!("results-{}-trace{}.json", w.name, traced as u8),
            outcomes[0].1.metrics.clone(),
        ),
        None => (
            "results.json".to_owned(),
            Json::object(outcomes.iter().map(|(n, o)| (*n, o.metrics.clone()))),
        ),
    };
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.failed).sum();
    let entries = outcomes.into_iter().map(|(n, o)| (n, o.entry)).collect();
    let doc = report::document(args.seed, args.seconds, entries);
    let path = args.out.unwrap_or_else(|| out_dir().join(default_name));
    write_file(&path, &doc.to_pretty())?;
    eprintln!("results written to {}", path.display());
    println!("{}", report::result_line(attempted, failed, line_metrics));
    Ok(failed == 0)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (report, ok) = report::compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    println!(
        "{}",
        if ok {
            "every pairing within its bound"
        } else {
            "REGRESSION: at least one pairing worsened past its bound"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    let outcome = if argv.peek().is_some_and(|a| a == "compare") {
        match argv.skip(1).collect::<Vec<_>>().as_slice() {
            [a, b] => compare(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        }
    } else {
        // A single workload's failed passes are the driver's to judge from
        // the result line; running everything is a human's command and
        // fails loudly.
        parse_args(argv).and_then(|args| {
            let single = args.workload.is_some();
            benchmark(args).map(|clean| clean || single)
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
