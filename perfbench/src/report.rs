//! The metrics a run prints: their names and units, the per-layer
//! values derived from the trace, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::median;
use crate::trace::{Phase, Tracer};

/// End-to-end metrics, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("work_per_s", "1/s"),
    ("op_ms_p75", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs. A layer a workload does
/// not call reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("des.event_loop_ms", "ms"),
    ("des.events_per_s", "1/s"),
    ("des.events", "count"),
    ("des.commits", "count"),
    ("des.wakes", "count"),
    ("des.deltas", "count"),
    ("des.cone_evals", "count"),
    ("des.events_avoided", "count"),
    ("des.netgraph_ms", "ms"),
    ("des.compile_ms", "ms"),
    ("des.cones_built", "count"),
    ("link.generate_ms", "ms"),
    ("link.cells", "count"),
    ("link.measure_self_ms", "ms"),
    ("lint.connectivity_ms", "ms"),
    ("lint.loops_ms", "ms"),
    ("lint.timing_ms", "ms"),
    ("lint.handshake_ms", "ms"),
    ("lint.errors", "count"),
    ("noc.build_ms", "ms"),
    ("noc.warmup_ms", "ms"),
    ("noc.chunk_ms", "ms"),
    ("noc.delivered_flits_per_s", "1/s"),
    ("noc.delivered_flits", "count"),
    ("noc.residual_flits", "count"),
    ("noc.latency_p50_cycles", "cycles"),
    ("noc.latency_p99_cycles", "cycles"),
    ("routing.permitted_ns", "ns"),
    ("routing.rebuild_us", "us"),
    ("routing.reconfig_epochs", "count"),
    ("routing.retrained_links", "count"),
    ("routing.stranded_flits", "count"),
    ("routing.salvaged_packets", "count"),
    ("flow.acked", "count"),
    ("flow.retx", "count"),
    ("flow.timeouts", "count"),
    ("flow.sim_cycles", "count"),
    ("flow.sim_cycles_per_s", "1/s"),
    ("flow.dup_delivered", "count"),
    ("flow.accepted_corrupt", "count"),
    ("fault.errors", "count"),
    ("fault.replays", "count"),
    ("fault.resyncs", "count"),
    ("fault.failed_links", "count"),
    ("trace.overhead_pct", "%"),
];

/// Per phase, the sums recorded under `name` in the phases that own
/// it: timed passes when the op calls the layer, else set-up
/// repetitions, else the closing probes.
fn owned(tr: &Tracer, name: &str) -> BTreeMap<Phase, f64> {
    let all = tr.per_phase(name);
    let pick = |f: fn(&Phase) -> bool| -> BTreeMap<Phase, f64> {
        all.iter()
            .filter(|(p, _)| f(p))
            .map(|(&p, &v)| (p, v))
            .collect()
    };
    let passes = pick(|p| matches!(p, Phase::Pass(_)));
    if !passes.is_empty() {
        return passes;
    }
    let setups = pick(|p| matches!(p, Phase::Setup(_)));
    if !setups.is_empty() {
        return setups;
    }
    pick(|p| matches!(p, Phase::End))
}

/// Median over owning phases of the per-phase sum.
fn per_phase(tr: &Tracer, name: &str) -> f64 {
    median(&owned(tr, name).into_values().collect::<Vec<_>>())
}

/// Median over phases of `f` applied to the per-phase sums of `names`
/// (phases missing any of them are skipped).
fn combine<const N: usize>(tr: &Tracer, names: [&str; N], f: impl Fn([f64; N]) -> f64) -> f64 {
    let sums = names.map(|n| owned(tr, n));
    let vals: Vec<f64> = sums[0]
        .keys()
        .filter_map(|p| {
            let mut xs = [0.0; N];
            for (x, s) in xs.iter_mut().zip(&sums) {
                *x = *s.get(p)?;
            }
            Some(f(xs))
        })
        .collect();
    median(&vals)
}

/// Every per-layer metric of a traced run, in [`PER_LAYER`] order.
///
/// Times and counts are per pass over the op list (set-up layers: per
/// set-up repetition), medians over the traced passes; the latency
/// quantiles, `noc.chunk_ms`, `routing.*_ns`/`_us` are medians over
/// the individual ops or probe repetitions.
pub fn per_layer(tr: &Tracer, overhead_pct: f64) -> Vec<(&'static str, &'static str, f64)> {
    let ms = |name: &str| per_phase(tr, name) * 1e3;
    let each = |name: &str| median(&tr.values(name));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "des.event_loop_ms" => ms("des.event_loop"),
                "des.events_per_s" => combine(tr, ["des.events", "des.event_loop"], |[e, s]| e / s),
                "des.netgraph_ms"
                | "des.compile_ms"
                | "link.generate_ms"
                | "lint.connectivity_ms"
                | "lint.loops_ms"
                | "lint.timing_ms"
                | "lint.handshake_ms"
                | "noc.build_ms"
                | "noc.warmup_ms" => ms(name.trim_end_matches("_ms")),
                "link.measure_self_ms" => {
                    combine(
                        tr,
                        [
                            "link.run_spec",
                            "link.generate",
                            "des.compile",
                            "des.event_loop",
                        ],
                        |[run, generate, compile, event_loop]| {
                            run - generate - compile - event_loop
                        },
                    ) * 1e3
                }
                "noc.chunk_ms" => each("noc.run_s") * 1e3,
                "noc.delivered_flits_per_s" => {
                    combine(tr, ["noc.delivered_flits", "noc.run"], |[f, s]| f / s)
                }
                "flow.sim_cycles_per_s" => {
                    combine(tr, ["flow.sim_cycles", "noc.run"], |[c, s]| c / s)
                }
                "noc.latency_p50_cycles"
                | "noc.latency_p99_cycles"
                | "routing.permitted_ns"
                | "routing.rebuild_us" => each(name),
                "trace.overhead_pct" => overhead_pct,
                _ => per_phase(tr, name),
            };
            (name, unit, v)
        })
        .collect()
}

/// The result line: the last line a run prints.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut m = String::new();
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values (a ratio over an empty trace) read 0.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{m}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[("work_per_s", "1/s", 2.5), ("setup_s", "s", 1.0)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"work_per_s\": \
             {\"value\": 2.5, \"unit\": \"1/s\"}, \"setup_s\": {\"value\": 1.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn metric_names_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let def = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(def.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Every metric once, plus the driven workloads.
        let driven = ["link_stream", "design_sweep", "mesh_uniform"];
        for w in driven {
            assert!(
                def.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
        assert_eq!(
            def.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + driven.len()
        );
    }

    #[test]
    fn per_layer_metrics_come_from_owning_phases() {
        let mut tr = Tracer::new(true);
        tr.enter(Phase::Setup(0));
        tr.count("des.events", 1000.0);
        for pass in 0..3 {
            tr.enter(Phase::Pass(pass));
            tr.count("des.events", 10.0 * f64::from(pass + 1));
            tr.count("des.event_loop", 0.5);
        }
        let layers = per_layer(&tr, 1.5);
        let get = |n: &str| layers.iter().find(|l| l.0 == n).expect("metric listed").2;
        assert_eq!(get("des.events"), 20.0);
        assert_eq!(get("des.events_per_s"), 40.0);
        assert_eq!(get("des.event_loop_ms"), 500.0);
        assert_eq!(get("trace.overhead_pct"), 1.5);
        assert_eq!(get("noc.delivered_flits"), 0.0);
    }
}
