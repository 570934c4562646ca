//! The metric catalogue: every name the benchmark reports, with its
//! unit, in the order `BENCHMARK.json` lists them.

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("wall_s", "s"), ("jobs_per_s", "1/s")];

/// The sixteen registry experiments, in artifact order.
pub const REGISTRY_IDS: [&str; 16] = [
    "t1", "f1", "f2", "f2h", "f3", "f4", "f5", "f6", "f7", "t2", "f8", "t3", "f9", "f10", "f11",
    "f12",
];

/// Per-layer metrics other than the registry build times, reported by
/// every traced run.
pub const LAYERS: [(&str, &str); 44] = [
    ("experiments.f1.profiles_s", "s"),
    ("experiments.simcache.reload_s", "s"),
    ("experiments.simcache.reloaded", "count"),
    ("experiments.simcache.misses", "count"),
    ("experiments.simcache.hits", "count"),
    ("experiments.simcache.disk_hits", "count"),
    ("experiments.simcache.persisted", "count"),
    ("experiments.simcache.quarantined", "count"),
    ("experiments.simcache.hit_ratio", "ratio"),
    ("experiments.report.write_s", "s"),
    ("experiments.report.artifact_bytes", "bytes"),
    ("energy.trace.gen_s", "s"),
    ("energy.trace.samples", "count"),
    ("energy.frontend.ns_per_tick", "ns"),
    ("core.nvp.insts_per_s", "1/s"),
    ("core.nvp.ns_per_tick", "ns"),
    ("core.nvp.engine_ratio", "ratio"),
    ("core.nvp.insts", "count"),
    ("core.nvp.backups", "count"),
    ("core.nvp.restores", "count"),
    ("core.nvp.rollbacks", "count"),
    ("core.wait.insts_per_s", "1/s"),
    ("sim.engine.insts", "count"),
    ("sim.engine.insts_per_s", "1/s"),
    ("sim.checkpoint.snapshot_ns", "ns"),
    ("sim.checkpoint.restore_ns", "ns"),
    ("workloads.kernel.build_s", "s"),
    ("experiments.wire.request_key_us", "us"),
    ("experiments.wire.encode_result_us", "us"),
    ("experiments.wire.decode_result_us", "us"),
    ("experiments.wire.result_bytes", "bytes"),
    ("experiments.client.accepted_ms", "ms"),
    ("experiments.client.result_ms.sim", "ms"),
    ("experiments.client.result_ms.dedup", "ms"),
    ("experiments.client.result_ms.replay", "ms"),
    ("nvpd.journal.open_s", "s"),
    ("nvpd.journal.admitted_ms", "ms"),
    ("nvpd.journal.started_ms", "ms"),
    ("nvpd.journal.completed_ms", "ms"),
    ("nvpd.journal.put_result_ms", "ms"),
    ("nvpd.journal.lookup_result_ms", "ms"),
    ("nvpd.replay_ratio", "ratio"),
    ("nvpd.queue_depth", "count"),
    ("trace_overhead_frac", "ratio"),
];

/// Every per-layer metric as `(name, unit)`.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    REGISTRY_IDS
        .iter()
        .map(|id| (format!("experiments.registry.{id}.build_s"), "s"))
        .chain(LAYERS.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = benchmark_json();
        let listed = END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).chain(per_layer());
        for (name, unit) in listed {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\":").count(), END_TO_END.len() + per_layer().len());
    }

    #[test]
    fn registry_ids_match_the_registry() {
        let ids: Vec<&str> = nvp_experiments::registry().iter().map(|e| e.id()).collect();
        assert_eq!(ids, REGISTRY_IDS);
    }
}
