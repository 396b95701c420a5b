//! The metric registry and one run's result record.
//!
//! The registry below is the single list of what the benchmark
//! measures: `BENCHMARK.json` is rendered from it (a unit test pins the
//! committed file to it), a run may only set registered names, and the
//! result line always carries the whole list the run mode calls for.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see. Reported by every workload
/// with tracing off; `bound` is the share of the parent's median by
/// which it may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A metric of one layer, from the traced run. No bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

/// Bounds: three times the widest seed-to-seed spread seen on any
/// workload (README, "Measured spread"), capped at the contract's 25 %.
/// The driver takes its spread across ten *seeds* and compares medians
/// of sets taken minutes apart on a shared two-core box whose speed
/// drifts by up to 10 %; every metric's widest workload (`stream_cab`:
/// its 44 true pairs make one link 2 % of recall) lands at the cap.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "events/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "link_f1",
        unit: "ratio",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
    },
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    // End-to-end quantities only some workloads have. The driver
    // contract wants every end-to-end metric from every workload, so
    // these are reported here instead — measured with tracing off, in
    // the untraced pass of the `--trace 1` run (README, "Demoted").
    layer("batch_link_s", "s", Lower),
    layer("batch_brute_s", "s", Lower),
    layer("recover_s", "s", Lower),
    layer("freshness_p50_ms", "ms", Lower),
    layer("freshness_p95_ms", "ms", Lower),
    layer("query_p50_us", "us", Lower),
    layer("query_p95_us", "us", Lower),
    // datagen / geocell
    layer("datagen.world_s", "s", Lower),
    layer("datagen.sample_s", "s", Lower),
    layer("geocell.cells_ns_per_record", "ns", Lower),
    // batch pipeline
    layer("core.io.read_s", "s", Lower),
    layer("core.io.records_per_s", "1/s", Higher),
    layer("core.history.build_s", "s", Lower),
    layer("core.history.bins", "count", Lower),
    layer("lsh.signature.build_s", "s", Lower),
    layer("lsh.banding.candidates_s", "s", Lower),
    layer("lsh.banding.candidates", "count", Lower),
    layer("lsh.banding.candidate_ratio", "ratio", Lower),
    layer("lsh.banding.true_pair_recall", "ratio", Higher),
    layer("core.similarity.score_s", "s", Lower),
    layer("core.similarity.score_brute_s", "s", Lower),
    layer("core.similarity.record_comparisons", "count", Lower),
    layer("core.similarity.ns_per_comparison", "ns", Lower),
    layer("core.matching.greedy_s", "s", Lower),
    layer("core.matching.edges", "count", Lower),
    layer("core.threshold.select_s", "s", Lower),
    layer("cli.overhead_s", "s", Lower),
    // stream engine, timed from outside
    layer("stream.engine.ingest_s", "s", Lower),
    layer("stream.engine.ingest_ns_per_event", "ns", Lower),
    layer("stream.engine.refresh_s", "s", Lower),
    layer("stream.engine.refresh_p50_ms", "ms", Lower),
    layer("stream.engine.refresh_p95_ms", "ms", Lower),
    layer("stream.engine.refresh_max_ms", "ms", Lower),
    layer("stream.engine.finalize_s", "s", Lower),
    // stream engine, engine-reported
    layer("stream.engine.phase.bin_s", "s", Lower),
    layer("stream.engine.phase.apply_s", "s", Lower),
    layer("stream.engine.phase.expire_s", "s", Lower),
    layer("stream.engine.phase.lsh_s", "s", Lower),
    layer("stream.engine.phase.rescore_s", "s", Lower),
    layer("stream.engine.phase.edge_merge_s", "s", Lower),
    layer("stream.engine.phase.match_s", "s", Lower),
    layer("stream.engine.phase.threshold_s", "s", Lower),
    layer("stream.engine.kernel_ns_per_window", "ns", Lower),
    layer("stream.engine.rescored_windows", "count", Lower),
    layer("stream.engine.ticks", "count", Lower),
    layer("stream.engine.candidate_pairs", "count", Lower),
    layer("stream.engine.dirty_visit_ratio", "ratio", Lower),
    layer("stream.engine.edges_patched", "count", Lower),
    layer("stream.engine.matching_region_size", "count", Lower),
    layer("stream.engine.em_warm_iters", "count", Lower),
    layer("stream.engine.evicted_windows", "count", Lower),
    layer("stream.engine.retired_pairs", "count", Lower),
    layer("stream.engine.arena_compactions", "count", Lower),
    layer("stream.engine.links", "count", Higher),
    layer("stream.engine.link_f1", "ratio", Higher),
    layer("stream.engine.link_digest", "count", Higher),
    layer("stream.engine.unattributed_pct", "%", Lower),
    layer("stream.pool.steal_events", "count", Lower),
    layer("stream.pool.busy_skew", "ratio", Lower),
    layer("stream.pool.speedup_vs_1w", "ratio", Higher),
    // ingestion front-end
    layer("stream.source.parse_jsonl_ns_per_line", "ns", Lower),
    layer("stream.source.parse_csv_ns_per_line", "ns", Lower),
    layer("stream.source.channel_ns_per_event", "ns", Lower),
    layer("stream.source.reorder_ns_per_event", "ns", Lower),
    layer("stream.source.reorder_peak_buffered", "count", Lower),
    layer("stream.source.frontier_ns_per_advance", "ns", Lower),
    layer("stream.source.pump_overhead_s", "s", Lower),
    layer("stream.source.blocked_producer_ms", "ms", Lower),
    layer("stream.source.queue_high_watermark", "count", Lower),
    layer(
        "stream.source.fanin_capacity_events_per_s",
        "events/s",
        Higher,
    ),
    layer("stream.source.generator_late_p95_ms", "ms", Lower),
    layer("stream.source.late_events", "count", Lower),
    layer("stream.source.malformed_lines", "count", Lower),
    // read path
    layer("stream.snapshot.publish_ns", "ns", Lower),
    layer("stream.snapshot.load_ns", "ns", Lower),
    layer("stream.snapshot.links_of_ns", "ns", Lower),
    layer("stream.serve.query_p50_us", "us", Lower),
    layer("stream.serve.query_p99_us", "us", Lower),
    layer("stream.serve.queries_per_s", "1/s", Higher),
    layer("stream.serve.query_p999_us_under_ingest", "us", Lower),
    // durability
    layer("stream.checkpoint.count", "count", Lower),
    layer("stream.checkpoint.bytes_per_ckpt", "bytes", Lower),
    layer("stream.checkpoint.write_p50_ms", "ms", Lower),
    layer("stream.checkpoint.write_max_ms", "ms", Lower),
    layer("stream.checkpoint.write_total_s", "s", Lower),
    layer("stream.checkpoint.write_mb_per_s", "MB/s", Higher),
    layer("stream.checkpoint.load_s", "s", Lower),
    layer("stream.checkpoint.resume_skip_s", "s", Lower),
    layer("stream.checkpoint.unattributed_s", "s", Lower),
    layer("stream.checkpoint.overhead_pct", "%", Lower),
    // what the traced numbers can be trusted for
    layer("telemetry.hist_record_ns", "ns", Lower),
    layer("telemetry.snapshot_render_us", "us", Lower),
    layer("trace_overhead_pct", "%", Lower),
    layer("trace.root_gap_pct", "%", Lower),
];

/// The unit of a registered metric (`None` for an unknown name).
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Correctness checks run / failed; each is an operation of its own.
    pub checks: u64,
    pub checks_failed: u64,
    /// Operations attempted / failed besides the checks: events sent vs
    /// accepted, queries sent vs answered `OK`.
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    /// Records a metric. Panics on an unregistered name or a non-finite
    /// value: both are bugs in the benchmark, not outcomes.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric `{name}` is not registered");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values.insert(name, value);
    }

    /// Records the median of a run's repetitions and says on stderr how
    /// far they lay apart.
    pub fn set_median(&mut self, name: &'static str, reps: &[f64]) {
        let s = crate::stats::Summary::of(reps);
        eprintln!(
            "[bench] {name}: median {:.6} of {} repetitions, {:.6} to {:.6}",
            s.median, s.n, s.min, s.max
        );
        self.set(name, s.median);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts `attempted` operations of which `failed` did not succeed.
    pub fn ops(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("[bench] {failed} of {attempted} {what} failed");
        }
    }

    /// Records one correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks += 1;
        if !ok {
            self.checks_failed += 1;
            eprintln!("[bench] CHECK FAILED {name}: {detail}");
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks_failed == 0
    }

    /// The driver-facing result line. With `traced` the metrics are
    /// every per-layer metric (a layer the workload does not touch did
    /// no work and reads `0`); otherwise every end-to-end metric, all of
    /// which every workload must have set.
    pub fn json_line(&self, traced: bool) -> String {
        let names: Vec<(&'static str, &'static str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric `{name}` was not measured"),
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            (self.attempted + self.checks).max(1),
            self.failed + self.checks_failed,
            metrics.join(", ")
        )
    }
}

/// Why each workload exists — one line each, as `BENCHMARK.json` carries
/// them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "batch_cab",
        "The paper's experiment: dense Cab-like CSVs through slim_cli::run, LSH then brute force, separating history/signature cost from the scoring kernel.",
    ),
    (
        "stream_sm",
        "Sparse many-entity closed-loop drive: binning, arena appends, the LSH bucket index and window expiry dominate; the rescore kernel does little.",
    ),
    (
        "stream_cab",
        "Dense few-entity closed-loop drive: refresh and the rescore kernel dominate; LSH index and binning are negligible - the mirror of stream_sm.",
    ),
    (
        "service_sm",
        "Open loop at a fixed 30k events/s over 2 TCP connections with a query client beside it: the service shape, where only latency can move.",
    ),
    (
        "durable_sm",
        "stream_sm with checkpoints every 20000 events, then recover and resume: the durability write path beside its read path.",
    ),
];

/// Seconds one run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// Renders `BENCHMARK.json` from the registry.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"bench/Cargo.toml\", \"--\"],\n  \"paths\": [\"bench\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let head = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        head && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn registry_meets_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|(n, _)| (*n, "count")))
        {
            assert!(name_ok(name), "bad name `{name}`");
            assert!(unit_ok(unit), "bad unit `{unit}` on `{name}`");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n') && !why.contains('"'));
        }
        assert!(benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn committed_benchmark_json_is_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `slim-bench --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn result_line_lists_the_whole_mode_and_counts_checks() {
        let mut r = Report::new();
        for m in END_TO_END {
            r.set(m.name, 1.5);
        }
        r.ops("events", 10, 0);
        r.check("shape", true, String::new());
        let line = r.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 11, \"failed\": 0,"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": 1.5", m.name)));
        }
        r.check("broken", false, "why".into());
        let traced = r.json_line(true);
        assert!(traced.starts_with("{\"correct\": false, \"attempted\": 12, \"failed\": 1,"));
        // Unset layers read zero; nothing of the end-to-end list leaks in.
        assert!(traced.contains("\"recover_s\": {\"value\": 0, \"unit\": \"s\"}"));
        assert!(!traced.contains("\"setup_s\""));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_metric_is_a_bug() {
        Report::new().set("made.up", 1.0);
    }
}
