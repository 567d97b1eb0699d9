//! The benchmark's metric and workload tables — the single source the
//! harness, `BENCHMARK.json`, the README and `compare` agree on (a test
//! checks `BENCHMARK.json` against this file).

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling used in `BENCHMARK.json` and in printed results.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the decoder sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics; every workload reports all of them.
///
/// Each bound is more than three times the widest quartile spread any
/// workload showed over ten seeds on the 2-core sandbox (README,
/// "Steadiness"); `setup_s` gets the largest the contract allows.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "pictures_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
    },
    EndToEnd {
        name: "pass_ms_p75",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "cpu_ms_per_picture",
        unit: "ms",
        better: Better::Lower,
        bound: 0.12,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric. The layer is the module path that prefixes the name.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<module path>.<quantity>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// The end-to-end metric(s) a change to this one should move, or
    /// `"none"`.
    pub moves: &'static str,
    /// The workload(s) on which it should move them, or `"none"`.
    pub on: &'static str,
    /// True when the figure only predicts throughput if every cluster node
    /// has a core of its own; published with `"valid": false` otherwise.
    pub needs_core_per_node: bool,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
        needs_core_per_node: false,
    }
}

const fn per_node(mut m: PerLayer) -> PerLayer {
    m.needs_core_per_node = true;
    m
}

use Better::{Higher, Lower};

const SPEED: &str = "pictures_per_s, cpu_ms_per_picture";
const WALLS: &str = "hd_wall_2x2, uhd_wall_2x2";

/// The per-layer metrics, measured in the traced run by timing calls into
/// each layer's public functions on the workload's own stream.
#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 72] = [
    layer("bitstream.scanner.mb_per_s", "MB/s", Higher, "pictures_per_s", "dvd_seq"),
    layer("mpeg2.parser.ms_per_picture", "ms", Lower, SPEED, "dvd_seq, dvd_damaged, hd_seq"),
    layer("mpeg2.parser.ns_per_coded_mb", "ns", Lower, SPEED, "dvd_seq, dvd_damaged"),
    layer("mpeg2.parser.coded_mbs_per_picture", "count", Lower, "none", "none"),
    layer("mpeg2.parser.bits_per_coded_mb", "bits", Lower, "none", "none"),
    layer("mpeg2.decoder.ms_per_picture", "ms", Lower, SPEED, "dvd_seq, hd_seq"),
    layer("mpeg2.decoder.pixel_ms_per_picture", "ms", Lower, SPEED, "hd_seq, dvd_seq"),
    layer("mpeg2.decoder.vld_share", "ratio", Lower, "none", "none"),
    layer("mpeg2.decoder.picture_interval_p50_ms", "ms", Lower, "pictures_per_s", "dvd_seq, hd_seq"),
    layer("mpeg2.decoder.picture_interval_p95_ms", "ms", Lower, "pass_ms_p75", "dvd_seq, hd_seq"),
    layer("mpeg2.decoder.allocs_per_pass", "count", Lower, "peak_heap_mb", "dvd_seq, hd_seq"),
    layer("mpeg2.kernels.idct_ns_per_block", "ns", Lower, SPEED, "hd_seq"),
    layer("mpeg2.kernels.add_residual_ns_per_block", "ns", Lower, SPEED, "hd_seq"),
    layer("mpeg2.kernels.mc_copy_ns_per_mb", "ns", Lower, SPEED, "hd_seq"),
    layer("mpeg2.kernels.mc_avg_hv_ns_per_mb", "ns", Lower, SPEED, "hd_seq"),
    layer("mpeg2.motion.predict_row_major_ns_per_mb", "ns", Lower, SPEED, "hd_seq"),
    layer("mpeg2.motion.predict_tiled_ns_per_mb", "ns", Lower, SPEED, WALLS),
    layer("mpeg2.frame.block_io_row_major_ns_per_mb", "ns", Lower, SPEED, "hd_seq"),
    layer("mpeg2.frame.block_io_tiled_ns_per_mb", "ns", Lower, SPEED, WALLS),
    layer("mpeg2.resilient.repair_ms_per_picture", "ms", Lower, SPEED, "dvd_damaged"),
    layer("mpeg2.resilient.mbs_concealed", "count", Lower, "none", "none"),
    layer("mpeg2.resilient.slowdown_vs_clean", "ratio", Lower, "pictures_per_s", "dvd_damaged"),
    layer("mpeg2.encoder.ms_per_picture", "ms", Lower, "setup_s", "all"),
    layer("ps.demux.mb_per_s", "MB/s", Higher, "none", "none"),
    layer("core.vld_parallel.plan_ms_per_picture", "ms", Lower, SPEED, "hd_pipeline"),
    layer("core.vld_parallel.ms_per_picture", "ms", Lower, "pictures_per_s", "hd_pipeline"),
    layer("core.vld_parallel.utilization", "ratio", Higher, "pictures_per_s", "hd_pipeline"),
    layer("core.vld_parallel.imbalance", "ratio", Lower, "pictures_per_s", "hd_pipeline"),
    layer("core.vld_parallel.fallback_slices", "count", Lower, "cpu_ms_per_picture", "hd_pipeline"),
    layer("core.recon_parallel.ms_per_picture", "ms", Lower, "pictures_per_s", "hd_pipeline"),
    layer("core.recon_parallel.speedup_vs_seq", "ratio", Higher, "pictures_per_s", "hd_pipeline"),
    layer("core.recon_parallel.cpu_ratio_vs_seq", "ratio", Lower, "cpu_ms_per_picture", "hd_pipeline"),
    layer("core.recon_parallel.utilization", "ratio", Higher, "pictures_per_s", "hd_pipeline"),
    layer("core.recon_parallel.imbalance", "ratio", Lower, "pictures_per_s", "hd_pipeline"),
    layer("core.recon_parallel.vld_stage_ms_per_picture", "ms", Lower, "pictures_per_s", "hd_pipeline"),
    layer("core.recon_parallel.recon_stage_ms_per_picture", "ms", Lower, "pictures_per_s", "hd_pipeline"),
    layer("core.recon_parallel.assemble_ms_per_picture", "ms", Lower, SPEED, "hd_pipeline"),
    layer("core.recon_parallel.single_band_pictures", "count", Lower, "pictures_per_s", "hd_pipeline"),
    layer("core.recon_parallel.picture_interval_p95_ms", "ms", Lower, "pass_ms_p75", "hd_pipeline"),
    layer("core.recon_parallel.allocs_per_pass", "count", Lower, "peak_heap_mb", "hd_pipeline"),
    layer("core.splitter.root_ms_per_picture", "ms", Lower, SPEED, WALLS),
    layer("core.splitter.split_ms_per_picture", "ms", Lower, SPEED, WALLS),
    layer("core.splitter.ns_per_mb", "ns", Lower, SPEED, WALLS),
    layer("core.splitter.subpicture_bytes_per_picture", "bytes", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.splitter.overhead_bytes_per_picture", "bytes", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.subpicture.encode_ns_per_kb", "ns", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.subpicture.decode_ns_per_kb", "ns", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.mei.instructions_per_picture", "count", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.mei.blocks_per_picture", "count", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.mei.bytes_per_kpixel", "bytes", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.mei.serve_ms_per_picture", "ms", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.mei.apply_ms_per_picture", "ms", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.protocol.blocks_encode_ns_per_block", "ns", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.protocol.blocks_decode_ns_per_block", "ns", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.tile_decoder.decode_ms_per_picture_mean", "ms", Lower, SPEED, WALLS),
    per_node(layer("core.tile_decoder.decode_ms_per_picture_max", "ms", Lower, "pictures_per_s", WALLS)),
    layer("core.tile_decoder.sum_ms_per_picture", "ms", Lower, SPEED, WALLS),
    per_node(layer("core.tile_decoder.imbalance", "ratio", Lower, "pictures_per_s", "uhd_wall_2x2")),
    layer("core.tile_decoder.work_ratio_vs_seq", "ratio", Lower, "cpu_ms_per_picture", WALLS),
    layer("wall.assemble_ms_per_picture", "ms", Lower, "pictures_per_s, peak_heap_mb", WALLS),
    layer("cluster.gm.roundtrip_us", "us", Lower, SPEED, WALLS),
    layer("cluster.gm.payload_mb_per_s", "MB/s", Higher, SPEED, WALLS),
    layer("core.threaded.bytes_root_to_split_per_picture", "bytes", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.threaded.bytes_split_to_dec_per_picture", "bytes", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.threaded.bytes_dec_to_dec_per_picture", "bytes", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.threaded.wire_bytes_per_kpixel", "bytes", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.threaded.staged_cpu_ms_per_picture", "ms", Lower, "cpu_ms_per_picture", WALLS),
    layer("core.threaded.runtime_overhead_ratio", "ratio", Lower, SPEED, WALLS),
    per_node(layer("core.config.predicted_pps", "1/s", Higher, "none", "none")),
    per_node(layer("core.simulated.predicted_pps", "1/s", Higher, "none", "none")),
    per_node(layer("core.simulated.model_error_pct", "%", Lower, "none", "none")),
    layer("bench.trace_overhead_pct", "%", Lower, "none", "none"),
];

/// Looks up a per-layer metric by name.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
/// True when `name` is made only of letters, digits, `_`, `.` and `-`,
/// starts with a letter or digit and is at most 64 characters long — the
/// rule `BENCHMARK.json` names must follow.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
