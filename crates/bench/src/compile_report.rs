//! Deterministic compiled-engine equivalence report (`campaign compile`).
//!
//! Runs a fixed set of workloads on both execution engines — the
//! interpreted event loop and the compiled netlist engine — and
//! records only integer facts: event/commit/cone counters and a
//! behavioral checksum. The engines must agree on every behavioral
//! field (`identical`); the cone counters document how much queue
//! traffic compilation absorbed. A sliced-campaign section pins the
//! per-seed divergence masks and the zero-mismatch fidelity count.
//!
//! Everything here is bytewise deterministic, so CI diffs the emitted
//! `BENCH_compile.json` against a committed fixture.

use sal_cells::{CircuitBuilder, UnitLibrary};
use sal_des::{Simulator, Time, Value};
use sal_link::measure::MeasureOptions;
use sal_link::testbench::{
    attach_sync_sink, attach_sync_source, SyncFlitSink, SyncFlitSource,
};
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec};

use crate::sliced;

/// Words streamed through each link workload.
pub const LINK_WORDS: usize = 64;

/// Storm seeds pinned in the sliced section: the golden storm (one
/// demoted lane), a fully converged quiet storm, and a fully demoted
/// mid-transition storm.
pub const SLICED_SEEDS: [u64; 3] = [73, 7, 3];

/// One engine's integer counters for one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Events processed through the global queue.
    pub events: u64,
    /// Committed signal value changes.
    pub commits: u64,
    /// Compiled cones built (0 interpreted).
    pub cones_built: u64,
    /// Compiled spec evaluations (0 interpreted).
    pub cone_evals: u64,
    /// Queue events absorbed by the compiled calendar (0 interpreted).
    pub events_avoided: u64,
    /// Workload-defined behavioral checksum (delivered words, final
    /// values) — must match between engines.
    pub checksum: u64,
}

/// One workload, both engines.
#[derive(Debug)]
pub struct WorkloadRow {
    /// Workload label.
    pub name: &'static str,
    /// Interpreted-engine counters.
    pub interpreted: EngineStats,
    /// Compiled-engine counters.
    pub compiled: EngineStats,
}

impl WorkloadRow {
    /// Whether the engines agreed on every behavioral field.
    pub fn identical(&self) -> bool {
        self.interpreted.commits == self.compiled.commits
            && self.interpreted.checksum == self.compiled.checksum
    }
}

/// One pinned storm of the sliced-campaign section.
#[derive(Debug)]
pub struct SlicedRow {
    /// Storm seed.
    pub seed: u64,
    /// Lanes packed.
    pub lanes: u8,
    /// Divergence mask after `slice_seal`.
    pub diverged: u64,
    /// Lanes whose delivered series differs from the clean control.
    pub distinct_from_control: u32,
    /// Lanes whose series differs from scalar ground truth (must be 0).
    pub mismatched: u32,
}

/// The full report.
#[derive(Debug)]
pub struct CompileReport {
    /// Engine-equivalence rows.
    pub workloads: Vec<WorkloadRow>,
    /// Sliced-campaign rows.
    pub sliced: Vec<SlicedRow>,
}

fn ring_stats(compiled: bool) -> EngineStats {
    let mut sim = Simulator::new();
    let lib = UnitLibrary;
    let mut builder = CircuitBuilder::new(&mut sim, &lib);
    let en = builder.input("en", 1);
    let osc = builder.ring_oscillator_stages("ro", en, 9);
    builder.finish();
    if compiled {
        sim.compile();
    }
    sim.stimulus(en, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))]);
    sim.run_until(Time::from_ns(100)).unwrap();
    let p = sim.profile();
    EngineStats {
        events: p.events,
        commits: p.commits,
        cones_built: p.cones_built,
        cone_evals: p.cone_evals,
        events_avoided: p.events_avoided,
        checksum: sim.toggles(osc),
    }
}

fn link_stats(family: LinkFamily, compiled: bool) -> EngineStats {
    let cfg = LinkConfig::default();
    let opts = MeasureOptions::default();
    let words: Vec<u64> =
        (0..LINK_WORDS as u64).map(|i| i.wrapping_mul(0x9e37_79b9) & 0xffff_ffff).collect();
    let mut sim = Simulator::new();
    let mut builder = CircuitBuilder::new(&mut sim, &opts.lib);
    let handles = generate(&mut builder, &LinkSpec::paper(family), "link", &cfg).expect("link builds");
    builder.finish();
    if compiled {
        sim.compile();
    }
    sim.stimulus(
        handles.rstn,
        &[(Time::ZERO, Value::zero(1)), (Time::from_ns(2), Value::one(1))],
    );
    let (src, _sent) = SyncFlitSource::new(
        handles.clk,
        handles.stall_out,
        handles.flit_in,
        handles.valid_in,
        cfg.flit_width,
        words.clone(),
    );
    let src = src.with_rstn(handles.rstn);
    attach_sync_source(&mut sim, "tb_src", src, Time::ZERO);
    let (snk, received) =
        SyncFlitSink::new(handles.clk, handles.valid_out, handles.flit_out, handles.stall_in);
    attach_sync_sink(&mut sim, "tb_snk", snk, Time::ZERO);
    let slice = cfg.clk_period * 32;
    while received.borrow().len() < words.len() {
        sim.run_for(slice).expect("link run completes");
    }
    let p = sim.profile();
    // Fold delivery times as well as payloads: the engines must agree
    // on *when* each word arrived, not just on its bits.
    let checksum = received
        .borrow()
        .iter()
        .fold(received.borrow().len() as u64, |acc, (t, w)| {
            acc.rotate_left(7) ^ w ^ t.as_fs().rotate_left(32)
        });
    EngineStats {
        events: p.events,
        commits: p.commits,
        cones_built: p.cones_built,
        cone_evals: p.cone_evals,
        events_avoided: p.events_avoided,
        checksum,
    }
}

fn sliced_row(seed: u64, lanes: u8) -> SlicedRow {
    let r = sliced::sliced_campaign(seed, lanes);
    let mismatched = (0..lanes)
        .filter(|&k| r.flit_series[k as usize] != sliced::scalar_run(seed, k, lanes))
        .count() as u32;
    let distinct = (1..lanes as usize)
        .filter(|&k| r.flit_series[k] != r.flit_series[0])
        .count() as u32;
    SlicedRow { seed, lanes, diverged: r.diverged, distinct_from_control: distinct, mismatched }
}

/// Builds the full report (runs every workload on both engines and
/// every pinned storm).
pub fn report() -> CompileReport {
    let mut workloads = Vec::new();
    workloads.push(WorkloadRow {
        name: "ring_oscillator_100ns",
        interpreted: ring_stats(false),
        compiled: ring_stats(true),
    });
    for (name, family) in [
        ("i1_sync_64_words", LinkFamily::Sync),
        ("i2_per_transfer_64_words", LinkFamily::PerTransfer),
        ("i3_per_word_64_words", LinkFamily::PerWord),
    ] {
        workloads.push(WorkloadRow {
            name,
            interpreted: link_stats(family, false),
            compiled: link_stats(family, true),
        });
    }
    let sliced = SLICED_SEEDS.iter().map(|&s| sliced_row(s, 64)).collect();
    CompileReport { workloads, sliced }
}

/// Prints the engine-agreement table and the sliced-campaign rows.
pub fn print(r: &CompileReport) {
    println!("== compiled vs interpreted (integer behavioral counters) ==");
    println!(
        "{:<26} {:>9} {:>12} {:>12} {:>7} {:>10} {:>10}",
        "workload", "identical", "commits", "checksum", "cones", "cone_evals", "ev_avoided"
    );
    for w in &r.workloads {
        println!(
            "{:<26} {:>9} {:>12} {:>12x} {:>7} {:>10} {:>10}",
            w.name,
            w.identical(),
            w.compiled.commits,
            w.compiled.checksum,
            w.compiled.cones_built,
            w.compiled.cone_evals,
            w.compiled.events_avoided
        );
    }

    println!("\n== sliced campaigns (64 lanes) ==");
    println!("{:<6} {:>8} {:>18} {:>9} {:>11}", "seed", "lanes", "diverged", "distinct", "mismatched");
    for s in &r.sliced {
        println!(
            "{:<6} {:>8} {:>#18x} {:>9} {:>11}",
            s.seed, s.lanes, s.diverged, s.distinct_from_control, s.mismatched
        );
    }
}

/// The engines must agree on every workload, and every sliced lane
/// must match its scalar replay.
pub fn violations(r: &CompileReport) -> Vec<String> {
    let engines = r
        .workloads
        .iter()
        .filter(|w| !w.identical())
        .map(|w| format!("{}: compiled and interpreted engines disagree", w.name));
    let lanes = r.sliced.iter().filter(|s| s.mismatched != 0).map(|s| {
        format!("sliced seed {}: {} lanes differ from their scalar replay", s.seed, s.mismatched)
    });
    engines.chain(lanes).collect()
}

fn engine_json(out: &mut String, e: &EngineStats) {
    out.push_str(&format!(
        "{{\"events\": {}, \"commits\": {}, \"cones_built\": {}, \
         \"cone_evals\": {}, \"events_avoided\": {}, \"checksum\": {}}}",
        e.events, e.commits, e.cones_built, e.cone_evals, e.events_avoided, e.checksum
    ));
}

/// Serializes the report (hand-rolled: integers and fixed strings
/// only, bytewise deterministic).
pub fn to_json(r: &CompileReport) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"workloads\": [\n");
    for (i, w) in r.workloads.iter().enumerate() {
        out.push_str(&format!("    {{\"name\": \"{}\", \"identical\": {}, ", w.name, w.identical()));
        out.push_str("\"interpreted\": ");
        engine_json(&mut out, &w.interpreted);
        out.push_str(", \"compiled\": ");
        engine_json(&mut out, &w.compiled);
        out.push_str(if i + 1 < r.workloads.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n  \"sliced\": [\n");
    for (i, s) in r.sliced.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"seed\": {}, \"lanes\": {}, \"diverged\": \"{:#018x}\", \
             \"demoted\": {}, \"distinct_from_control\": {}, \"mismatched\": {}}}",
            s.seed,
            s.lanes,
            s.diverged,
            s.diverged.count_ones(),
            s.distinct_from_control,
            s.mismatched
        ));
        out.push_str(if i + 1 < r.sliced.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_on_ring_workload() {
        let row = WorkloadRow {
            name: "ring_oscillator_100ns",
            interpreted: ring_stats(false),
            compiled: ring_stats(true),
        };
        assert!(row.identical(), "{row:?}");
        assert!(row.compiled.cones_built > 0);
        assert!(row.interpreted.cones_built == 0);
    }

    #[test]
    fn disagreement_and_lane_mismatch_are_violations() {
        let stats = EngineStats {
            events: 1,
            commits: 2,
            cones_built: 0,
            cone_evals: 0,
            events_avoided: 0,
            checksum: 3,
        };
        let mut r = CompileReport {
            workloads: vec![WorkloadRow { name: "w", interpreted: stats, compiled: stats }],
            sliced: vec![SlicedRow { seed: 7, lanes: 64, diverged: 0, distinct_from_control: 0, mismatched: 0 }],
        };
        assert!(violations(&r).is_empty());
        r.workloads[0].compiled.checksum = 4;
        r.sliced[0].mismatched = 2;
        assert_eq!(
            violations(&r),
            vec![
                "w: compiled and interpreted engines disagree".to_string(),
                "sliced seed 7: 2 lanes differ from their scalar replay".to_string(),
            ]
        );
    }
}
