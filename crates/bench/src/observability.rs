//! Observability campaign (`campaign observability`): one traced,
//! fully metered run of each serialized asynchronous link (I2
//! per-transfer, I3 per-word) at the paper's operating point. Reports
//! the derived handshake-latency, block-energy, occupancy and
//! burst-timing metrics, and reconciles the trace-derived energy
//! attribution against the power meter: both count the same toggles,
//! so a relative error of [`RECONCILE_TOLERANCE`] or more is a
//! violation. The JSON is bytewise deterministic — CI diffs
//! `BENCH_observability.json` against a committed fixture.

use sal_des::SimProfile;
use sal_link::measure::{run_spec, BlockPower, MeasureOptions, TraceMode};
use sal_link::testbench::worst_case_pattern;
use sal_link::{LinkConfig, LinkFamily, LinkMetrics, LinkSpec};

/// Largest tolerated relative gap between the trace-derived block
/// power and the power meter.
pub const RECONCILE_TOLERANCE: f64 = 1e-3;

/// One traced, metered link run.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Link measured.
    pub family: LinkFamily,
    /// Metrics derived from the retained trace.
    pub metrics: LinkMetrics,
    /// The power meter's per-block reading of the same run.
    pub meter: BlockPower,
    /// Kernel counters of the run.
    pub profile: SimProfile,
}

impl TracedRun {
    /// Worst relative error between the trace attribution and the
    /// meter over the conversion, ser/des, buffer and total power.
    pub fn reconciliation_error(&self) -> f64 {
        let (m, bp) = (&self.metrics.blocks, &self.meter);
        [
            (m.conv_uw, bp.conv_uw),
            (m.serdes_uw, bp.serdes_uw),
            (m.buffers_uw, bp.buffers_uw),
            (m.total_uw, bp.total_uw),
        ]
        .iter()
        .map(|(a, b)| (a - b).abs() / b.abs().max(1e-9))
        .fold(0.0f64, f64::max)
    }
}

/// Everything `campaign observability` reports: I2 then I3.
#[derive(Debug, Clone)]
pub struct ObservabilityReport {
    /// One traced run per serialized family.
    pub runs: Vec<TracedRun>,
}

/// Runs worst-case 4-flit transfers through I2 and I3 at 100 MHz with
/// the full trace and metrics on.
pub fn run() -> ObservabilityReport {
    let cfg = LinkConfig::default();
    let words = worst_case_pattern(4, 32);
    let opts = MeasureOptions::default().with_trace(TraceMode::Full).with_metrics();
    let runs = [LinkFamily::PerTransfer, LinkFamily::PerWord]
        .into_iter()
        .map(|family| {
            let r = run_spec(&LinkSpec::paper(family), &cfg, &words, &opts)
                .unwrap_or_else(|e| panic!("{} run failed: {e}", family.label()));
            TracedRun {
                family,
                metrics: r.metrics().expect("metrics requested").clone(),
                meter: r.block_power(),
                profile: r.profile,
            }
        })
        .collect();
    ObservabilityReport { runs }
}

/// Prints each run's occupancy, burst, power and handshake report,
/// its meter reconciliation and its kernel counters.
pub fn print(r: &ObservabilityReport) {
    println!("Observability — traced worst-case 4-flit transfers @ 100 MHz\n");
    for run in &r.runs {
        let m = &run.metrics;
        println!("== {} ==", run.family.label());
        println!(
            "  occupancy: in-use {:.1} ns over a {:.1} ns window, busy fraction {:.3}",
            m.occupancy.in_use.as_ns(),
            m.occupancy.window.as_ns(),
            m.occupancy.busy_fraction,
        );
        println!(
            "  in-flight words: peak {}, time-weighted mean {:.3}",
            m.in_flight.max, m.in_flight.mean
        );
        if let Some(b) = &m.burst {
            println!(
                "  burst: {} slice strobes on {}, gap {:.3}/{:.3}/{:.3} ns (min/mean/max)",
                b.slices,
                b.strobe_path,
                b.gap.min_ns(),
                b.gap.mean_ns(),
                b.gap.max_ns(),
            );
        }
        let bl = &m.blocks;
        println!(
            "  power: conv {:.1} serdes {:.1} buffers {:.1} other {:.1} = {:.1} µW",
            bl.conv_uw, bl.serdes_uw, bl.buffers_uw, bl.other_uw, bl.total_uw
        );
        println!("  handshakes ({}):", m.handshakes.len());
        for h in &m.handshakes {
            println!(
                "    {:<22} {:>5} completed, latency {:.3}/{:.3}/{:.3} ns, cycle {:.3} ns{}",
                h.label,
                h.completed,
                h.latency.min_ns(),
                h.latency.mean_ns(),
                h.latency.max_ns(),
                h.cycle.mean_ns(),
                if h.open { "  [OPEN]" } else { "" },
            );
        }
        println!("  meter reconciliation: worst relative error {:.2e}", run.reconciliation_error());
        let p = &run.profile;
        println!(
            "  kernel: {} events, {} commits, {} deltas, queue peak {} mean {:.1}\n",
            p.events, p.commits, p.deltas, p.queue_peak, p.queue_mean
        );
    }
}

/// Runs whose trace attribution drifted from the power meter.
pub fn violations(r: &ObservabilityReport) -> Vec<String> {
    r.runs
        .iter()
        .filter(|run| run.reconciliation_error() >= RECONCILE_TOLERANCE)
        .map(|run| {
            format!(
                "{}: trace attribution drifted from the power meter (relative error {:.2e})",
                run.family.label(),
                run.reconciliation_error()
            )
        })
        .collect()
}

/// Serialises the report as the `BENCH_observability.json` artifact:
/// one metrics object per family.
pub fn to_json(r: &ObservabilityReport) -> String {
    let sections: Vec<String> = r
        .runs
        .iter()
        .map(|run| format!("\"{}\": {}", run.family.label(), run.metrics.to_json().trim_end()))
        .collect();
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_drift_is_a_violation() {
        let mut r = run();
        assert!(violations(&r).is_empty(), "{:?}", violations(&r));
        r.runs[1].metrics.blocks.total_uw *= 1.01;
        let v = violations(&r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("I3:"), "{v:?}");
    }
}
