//! Harness tests: the whole benchmark on the 128×96 test preset, and the
//! agreement of `BENCHMARK.json` with the tables in `metrics.rs` and
//! `workloads.rs`.

use tiledec_core::SystemConfig;

use crate::inputs::{build_stream, StreamKind};
use crate::json::{self, Json};
use crate::metrics::{valid_name, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{self, GRID, WORKLOADS};
use crate::{alloc, layers, report, run, staged};

fn benchmark_json() -> (String, Json) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    (text, doc)
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key} must be an array, found {other:?}"),
    }
}

fn string<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} must be a string in {entry:?}"))
}

fn keys(entry: &Json) -> Vec<&str> {
    entry
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn benchmark_json_agrees_with_the_tables_and_the_contract() {
    let (text, doc) = benchmark_json();
    assert!(text.len() <= 64 * 1024);
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let command: Vec<&str> = array(&doc, "command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(&command[..2], ["cargo", "run"]);
    assert!(command.contains(&"benchmark/Cargo.toml") && command.contains(&"--release"));
    assert_eq!(array(&doc, "paths"), [Json::Str("benchmark".into())]);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let listed = array(&doc, "workloads");
    assert!((2..=8).contains(&listed.len()));
    assert_eq!(listed.len(), WORKLOADS.len());
    for (entry, w) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(string(entry, "name"), w.name);
        assert_eq!(string(entry, "why"), w.why);
        assert!(valid_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
    }

    let valid_unit = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let listed = array(&doc, "end_to_end");
    assert!((1..=16).contains(&listed.len()));
    assert_eq!(listed.len(), END_TO_END.len());
    for (entry, m) in listed.iter().zip(&END_TO_END) {
        assert_eq!(keys(entry), ["name", "unit", "better", "bound"]);
        assert_eq!(string(entry, "name"), m.name);
        assert_eq!(string(entry, "unit"), m.unit);
        assert_eq!(string(entry, "better"), m.better.as_str());
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        assert!(valid_name(m.name) && valid_unit(m.unit) && m.bound > 0.0 && m.bound <= 0.25);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));

    let listed = array(&doc, "per_layer");
    assert!((1..=128).contains(&listed.len()));
    assert_eq!(listed.len(), PER_LAYER.len());
    for (entry, m) in listed.iter().zip(&PER_LAYER) {
        assert_eq!(keys(entry), ["name", "unit", "better"]);
        assert_eq!(string(entry, "name"), m.name);
        assert_eq!(string(entry, "unit"), m.unit);
        assert_eq!(string(entry, "better"), m.better.as_str());
        assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
    }
}

#[test]
fn names_are_unique_and_every_layer_metric_says_what_it_should_move() {
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");

    for m in &PER_LAYER {
        assert!(
            m.name.contains('.'),
            "{}: the layer prefixes the name",
            m.name
        );
        assert_eq!(m.moves == "none", m.on == "none", "{}", m.name);
        for moved in m.moves.split(", ").filter(|&s| s != "none") {
            assert!(
                END_TO_END.iter().any(|e| e.name == moved),
                "{}: {moved}",
                m.name
            );
        }
        for on in m.on.split(", ").filter(|&s| s != "none" && s != "all") {
            assert!(workloads::by_name(on).is_some(), "{}: {on}", m.name);
        }
    }
}

#[test]
fn staged_wall_replay_is_bit_exact_with_decode_all() {
    let stream = build_stream(StreamKind::Hd.spec(true), 11).unwrap();
    let reference = tiledec_mpeg2::decode_all(&stream.bytes).unwrap();
    for k in [1, 2] {
        let mut tracer = Tracer::default();
        let (frames, counts) =
            staged::replay(&stream.bytes, &SystemConfig::new(k, GRID), &mut tracer).unwrap();
        assert!(frames == reference, "k = {k}");
        assert_eq!((counts.pictures, counts.tiles), (reference.len(), 4));
        // One split and four tile decodes per picture, all under the root.
        let count = |name| tracer.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(count(staged::span::SPLIT), counts.pictures);
        assert_eq!(count(staged::span::TILE_DECODE), counts.pictures * 4);
        assert_eq!(count(staged::span::WALL_ASSEMBLE), counts.pictures);
        assert!(tracer.spans.iter().skip(1).all(|s| s.parent.is_some()));
        // The pan crosses tile edges: blocks must have been exchanged.
        assert!(counts.blocks > 0 && counts.mei_instructions >= 2 * counts.blocks);
    }
}

#[test]
fn counting_allocator_sees_a_window_peak() {
    let (kept, heap) = alloc::measure(|| {
        drop(std::hint::black_box(vec![1u8; 3 << 20]));
        std::hint::black_box(vec![2u8; 1 << 20])
    });
    assert_eq!(kept.len(), 1 << 20);
    assert!(heap.peak_bytes >= 3 << 20, "{heap:?}");
    assert!(heap.allocs >= 2);
}

/// The whole benchmark on the test preset: every workload end to end, two
/// of them traced (a sequential one and the k = 2 wall), the results
/// document written, read back and compared with itself and with a
/// doctored copy.
#[test]
fn whole_benchmark_on_the_tiny_preset() {
    let mut entries = Vec::new();
    for w in &WORKLOADS {
        let prep = run::prepare(w, 5, true).unwrap();
        // Zero seconds: the minimum pass count.
        let e2e = run::run_end_to_end(&prep, 0.0);
        assert_eq!(e2e.failed, 0, "{}", w.name);
        assert_eq!(e2e.passes.wall_ms.len(), run::MIN_PASSES);
        for (m, v) in END_TO_END.iter().zip(e2e.metrics()) {
            // CPU time has 10 ms ticks; passes this short can read 0.
            assert!(
                v.is_finite() && (v > 0.0 || m.name == "cpu_ms_per_picture"),
                "{}",
                m.name
            );
        }
        let traced = matches!(w.name, "dvd_damaged" | "uhd_wall_2x2").then(|| {
            let t = layers::run_traced(&prep).unwrap();
            assert_eq!(t.failed, 0, "{}", w.name);
            assert!(t.attempted > 10);
            assert_eq!(t.values.len(), PER_LAYER.len());
            assert!(t.values.iter().all(|v| v.is_finite()));
            assert_eq!(t.nodes, 1 + w.k + 4);
            t
        });
        entries.push((
            w.name,
            report::workload_entry(&prep, Some(&e2e), traced.as_ref()),
        ));
    }
    let doc = json::parse(&report::document(5, 0.0, entries).to_pretty()).unwrap();

    let listed = doc.get("workloads").and_then(Json::as_object).unwrap();
    assert!((2..=8).contains(&listed.len()));
    for (name, entry) in listed {
        assert!(valid_name(name));
        assert_eq!(entry.get("failed_ops").and_then(Json::as_f64), Some(0.0));
        let fnv = string(entry.get("input").unwrap(), "input_fnv64");
        assert_eq!(fnv.len(), 16);
        let e2e = entry.get("end_to_end").and_then(Json::as_object).unwrap();
        assert!(e2e.len() <= 16 && e2e.iter().all(|(n, _)| valid_name(n)));
        if let Some(layers) = entry.get("per_layer").and_then(Json::as_object) {
            assert!(layers.len() <= 128);
            for (n, m) in layers {
                assert!(valid_name(n));
                assert!(!string(m, "moves").is_empty() && !string(m, "on").is_empty());
            }
            // Seven or eight nodes on a host with fewer cores (or not):
            // the model check says which.
            let valid = layers
                .iter()
                .find(|(n, _)| n == "core.simulated.model_error_pct")
                .and_then(|(_, m)| m.get("valid"));
            assert!(matches!(valid, Some(Json::Bool(_))));
        }
    }
    let damaged = doc.get("workloads").unwrap().get("dvd_damaged").unwrap();
    let concealed = damaged
        .get("per_layer")
        .and_then(|l| l.get("mpeg2.resilient.mbs_concealed"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64);
    assert!(concealed.is_some_and(|n| n > 0.0));

    let (text, ok) = report::compare(&doc, &doc).unwrap();
    assert!(ok, "{text}");
    assert_eq!(text.matches("identical inputs").count(), WORKLOADS.len());
    let pairings = text.lines().filter(|l| l.ends_with('%')).count();
    assert_eq!(pairings, WORKLOADS.len() * END_TO_END.len());

    // Halve one throughput and fail one pass: both must be flagged.
    let doctored = json::parse(
        &doc.to_line()
            .replacen("\"failed_ops\":0", "\"failed_ops\":1", 1),
    )
    .unwrap();
    let (text, ok) = report::compare(&doc, &doctored).unwrap();
    assert!(!ok && text.contains("failed_ops/ops rose"), "{text}");
    let mut slower = doc.clone();
    halve_first_throughput(&mut slower);
    let (text, ok) = report::compare(&doc, &slower).unwrap();
    assert!(!ok && text.contains("REGRESSION"), "{text}");
    // The other way round it is an improvement, not a regression.
    assert!(report::compare(&slower, &doc).unwrap().1);
    assert!(report::compare(&doc, &Json::Null).is_err());
}

fn halve_first_throughput(doc: &mut Json) {
    fn member<'a>(j: &'a mut Json, key: &str) -> &'a mut Json {
        match j {
            Json::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1,
            _ => panic!("not an object"),
        }
    }
    let first = member(member(doc, "workloads"), WORKLOADS[0].name);
    let value = member(
        member(member(first, "end_to_end"), "pictures_per_s"),
        "value",
    );
    let Json::Num(v) = value else {
        panic!("not a number")
    };
    *v /= 2.0;
}
