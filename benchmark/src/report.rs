//! Results documents, the driver's result line, and `compare`.

use std::fmt::Write as _;
use std::process::Command;

use tiledec_core::vld_parallel::host_cpus;

use crate::json::Json;
use crate::layers::{TracedRun, TRACED_PASSES};
use crate::measure::CLK_TCK;
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::run::{EndToEndRun, Prepared, HEAP_PASSES, WARMUP_PASSES};

/// First line of a command's standard output, or `"unknown"` (the
/// driver's checkout is not a git repository, for one).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The host descriptor every results document carries.
pub fn host() -> Json {
    Json::object([
        ("host_cpus", Json::num(host_cpus() as f64)),
        (
            "kernels",
            Json::Str(tiledec_mpeg2::kernels::active().name.into()),
        ),
        ("rustc", Json::Str(first_line_of("rustc", &["-V"]))),
        (
            "git_commit",
            Json::Str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("clk_tck", Json::num(CLK_TCK)),
    ])
}

fn metric(value: f64, unit: &str) -> Json {
    Json::object([
        ("value", Json::num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// Prints one metric by name, with its unit and direction.
fn print_metric(workload: &str, name: &str, value: f64, unit: &str, better: Better) {
    let better = better.as_str();
    println!("{workload:<13} {name:<50} {value:>14.4} {unit:<6} ({better} is better)");
}

/// The end-to-end metrics as `{name: {value, unit}}`.
pub fn end_to_end_json(run: &EndToEndRun) -> Json {
    let rows = END_TO_END.iter().zip(run.metrics());
    Json::object(rows.map(|(m, v)| (m.name, metric(v, m.unit))))
}

/// Prints the end-to-end metrics.
pub fn print_end_to_end(workload: &str, run: &EndToEndRun) {
    for (m, v) in END_TO_END.iter().zip(run.metrics()) {
        print_metric(workload, m.name, v, m.unit, m.better);
    }
}

/// The per-layer metrics as `{name: {value, unit}}`.
pub fn per_layer_json(run: &TracedRun) -> Json {
    let rows = PER_LAYER.iter().zip(&run.values);
    Json::object(rows.map(|(m, &v)| (m.name, metric(v, m.unit))))
}

/// Prints the per-layer metrics.
pub fn print_per_layer(workload: &str, run: &TracedRun) {
    for (m, &v) in PER_LAYER.iter().zip(&run.values) {
        print_metric(workload, m.name, v, m.unit, m.better);
    }
}

/// The driver's result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: Json) -> String {
    Json::object([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::num(attempted as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", metrics),
    ])
    .to_line()
}

/// Passes an end-to-end run attempted: warm-ups, timed and cold passes.
pub fn attempted(run: &EndToEndRun) -> u64 {
    (WARMUP_PASSES + run.passes.wall_ms.len() + HEAP_PASSES) as u64
}

/// One workload's entry of a results document.
pub fn workload_entry(
    prep: &Prepared,
    e2e: Option<&EndToEndRun>,
    traced: Option<&TracedRun>,
) -> Json {
    let s = &prep.stream;
    let mut members = vec![
        ("why".to_owned(), Json::Str(prep.workload.why.into())),
        (
            "input".to_owned(),
            Json::object([
                ("stream", Json::Str(s.spec.name.into())),
                ("width", Json::num(s.width() as f64)),
                ("height", Json::num(s.height() as f64)),
                ("pictures", Json::num(prep.reference.len() as f64)),
                ("stream_bytes", Json::num(prep.input().len() as f64)),
                ("stream_bpp", Json::num(s.bpp)),
                (
                    "input_fnv64",
                    Json::Str(format!("{:016x}", prep.input_fnv64())),
                ),
                (
                    "fault_plan_seed",
                    prep.damaged
                        .as_ref()
                        .map_or(Json::Null, |d| Json::Str(format!("{:016x}", d.plan_seed))),
                ),
                ("render_s", Json::num(s.render_s)),
                ("encode_s", Json::num(s.encode_s)),
                ("generate_s_median", Json::num(prep.generate_s)),
                ("generations_timed", Json::num(prep.generations as f64)),
            ]),
        ),
    ];
    if let Some(run) = e2e {
        members.extend([
            ("ops".to_owned(), Json::num(attempted(run) as f64)),
            ("failed_ops".to_owned(), Json::num(run.failed as f64)),
            // The sample count, and the percentile it supports with ten
            // samples beyond it.
            (
                "timed_passes".to_owned(),
                Json::num(run.passes.wall_ms.len() as f64),
            ),
            ("tail_percentile".to_owned(), Json::num(75.0)),
            ("end_to_end".to_owned(), end_to_end_json(run)),
        ]);
    }
    if let Some(run) = traced {
        let core_per_node = host_cpus() >= run.nodes;
        let layers = PER_LAYER.iter().zip(&run.values).map(|(m, &v)| {
            let mut entry = vec![
                ("value".to_owned(), Json::num(v)),
                ("unit".to_owned(), Json::Str(m.unit.into())),
                ("moves".to_owned(), Json::Str(m.moves.into())),
                ("on".to_owned(), Json::Str(m.on.into())),
            ];
            if m.needs_core_per_node {
                entry.push(("valid".to_owned(), Json::Bool(core_per_node)));
            }
            (m.name, Json::Obj(entry))
        });
        members.extend([
            ("traced_passes".to_owned(), Json::num(TRACED_PASSES as f64)),
            ("traced_ops".to_owned(), Json::num(run.attempted as f64)),
            ("traced_failed_ops".to_owned(), Json::num(run.failed as f64)),
            ("system_nodes".to_owned(), Json::num(run.nodes as f64)),
            ("per_layer".to_owned(), Json::object(layers)),
        ]);
    }
    Json::Obj(members)
}

/// A whole results document.
pub fn document(seed: u64, seconds: f64, workloads: Vec<(&'static str, Json)>) -> Json {
    Json::object([
        ("schema", Json::num(1.0)),
        ("host", host()),
        ("seed", Json::num(seed as f64)),
        ("seconds", Json::num(seconds)),
        ("warmup_passes", Json::num(WARMUP_PASSES as f64)),
        ("workloads", Json::object(workloads)),
    ])
}

/// Compares two results documents: per workload × end-to-end metric, both
/// values, the relative change (positive = worse) and the bound. Returns
/// the report and whether every pairing stayed within its bound and no
/// workload's failure rate rose.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    let workloads = |doc: &'_ Json| -> Result<Vec<(String, Json)>, String> {
        doc.get("workloads")
            .and_then(Json::as_object)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "not a results document: no \"workloads\" object".to_owned())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = String::new();
    let mut ok = true;
    let mut compared = 0;
    let _ = writeln!(
        out,
        "{:<13} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for (name, ea) in &wa {
        let Some((_, eb)) = wb.iter().find(|(n, _)| n == name) else {
            let _ = writeln!(out, "{name:<13} only in A, skipped");
            continue;
        };
        // Two sets of runs of one seed must have decoded identical bytes;
        // with different seeds the comparison is across inputs, and says so.
        fn fingerprint(e: &Json) -> Option<&str> {
            e.get("input")?.get("input_fnv64")?.as_str()
        }
        if let (Some(fa), Some(fb)) = (fingerprint(ea), fingerprint(eb)) {
            let same = if fa == fb {
                "identical inputs"
            } else {
                "DIFFERENT inputs"
            };
            let _ = writeln!(out, "{name:<13} input_fnv64 {fa} / {fb}: {same}");
        }
        let num = |entry: &Json, key: &str| entry.get(key).and_then(Json::as_f64);
        let failure_rate =
            |e: &Json| Some(num(e, "failed_ops")? / num(e, "ops").filter(|&n| n > 0.0)?);
        if let (Some(fa), Some(fb)) = (failure_rate(ea), failure_rate(eb)) {
            if fb > fa {
                ok = false;
                let _ = writeln!(
                    out,
                    "{name:<13} failed_ops/ops rose from {fa} to {fb}  REGRESSION"
                );
            }
        }
        for m in &END_TO_END {
            let value = |e: &Json| e.get("end_to_end")?.get(m.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(ea), value(eb)) else {
                continue;
            };
            compared += 1;
            let worse_by = match m.better {
                Better::Higher => (va - vb) / va,
                Better::Lower => (vb - va) / va,
            };
            let verdict = if worse_by > m.bound {
                ok = false;
                "  REGRESSION"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "{name:<13} {:<20} {va:>14.4} {vb:>14.4} {:>8.2}% {:>6.0}%{verdict}",
                m.name,
                worse_by * 100.0,
                m.bound * 100.0
            );
        }
    }
    if compared == 0 {
        return Err("the two documents share no workload with end-to-end metrics".into());
    }
    Ok((out, ok))
}
