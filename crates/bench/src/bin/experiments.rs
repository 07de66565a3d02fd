//! `experiments [<name>…]` — prints the paper's evaluation artifacts
//! (and the mesh-level and ablation extensions) as tables.
//!
//! With no name it prints every artifact, in the order of
//! [`ARTIFACTS`], separated by blank lines. Every number is
//! deterministic: any output diff is a real change.

use sal_bench::experiments::{self as e, PowerRow, BUFFER_SWEEP};
use sal_bench::{ablations, table};
use sal_link::LinkFamily;

/// Artifact names, in the order a bare `experiments` prints them.
const ARTIFACTS: [&str; 12] = [
    "fig10", "fig11", "fig12", "fig13", "fig14", "table1", "table2", "delay_check", "headline",
    "noc_study", "noc_curves", "ablations",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut names: Vec<&str> = Vec::new();
    for arg in &args {
        if !ARTIFACTS.contains(&arg.as_str()) {
            eprintln!("unknown artifact {arg}; usage: experiments [{}]…", ARTIFACTS.join("|"));
            std::process::exit(2);
        }
        names.push(arg);
    }
    if names.is_empty() {
        names = ARTIFACTS.to_vec();
    }
    for (i, name) in names.into_iter().enumerate() {
        if i > 0 {
            println!();
        }
        match name {
            "fig10" => fig10(),
            "fig11" => fig11(),
            "fig12" => {
                println!("Fig 12 — Number of Buffers vs. Power @ 100 MHz (50% usage)\n");
                print_power(&e::fig12());
            }
            "fig13" => {
                println!(
                    "Fig 13 — Buffers vs. Power @ 300 MHz (windows carried over from 100 MHz, per the paper)\n"
                );
                print_power(&e::fig13());
            }
            "fig14" => fig14(),
            "table1" => table1(),
            "table2" => table2(),
            "delay_check" => delay_check(),
            "headline" => headline(),
            "noc_study" => noc_study(),
            "noc_curves" => noc_curves(),
            "ablations" => ablations(),
            _ => unreachable!("names are checked against ARTIFACTS"),
        }
    }
}

/// Prints `rows` under `header` as an aligned table.
fn show(header: &[&str], rows: &[Vec<String>]) {
    print!("{}", table::render(header, rows));
}

fn fig10() {
    let f = e::fig10();
    println!("Fig 10 — Bandwidth vs. Wires (paper: Fig 10)");
    println!("async self-timed upper bound: {:.0} MFlit/s (paper: ~311)\n", f.upper_bound_mflits);
    let rows: Vec<Vec<String>> = f
        .series
        .iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.bandwidth_mflits),
                p.sync_100.to_string(),
                p.sync_200.to_string(),
                p.sync_300.to_string(),
                p.async_proposed.map_or("-".into(), |w| w.to_string()),
            ]
        })
        .collect();
    show(&["MFlit/s", "I1@100MHz", "I1@200MHz", "I1@300MHz", "I3-async"], &rows);
    println!("\nGate-level validation (measured I3 delivery rate):");
    for (mhz, meas) in &f.measured_i3_mflits {
        println!("  switch clock {mhz:>5.0} MHz -> {meas:>6.1} MFlit/s");
    }
}

fn fig11() {
    println!("Fig 11 — Wire Area (METAL6: MetW=0.44um, MetG=0.46um)\n");
    let rows: Vec<Vec<String>> = e::fig11()
        .iter()
        .map(|r| {
            let um2 = |a: f64| format!("{a:.0}");
            vec![um2(r.length_um), um2(r.sync_area_um2), um2(r.async_area_um2)]
        })
        .collect();
    show(&["length(um)", "I1-Synch(um2)", "I2&I3-Asynch(um2)"], &rows);
}

/// The Fig 12/13 table: one row per buffer count, one column per link.
fn print_power(rows: &[PowerRow]) {
    let mut out = Vec::new();
    for buffers in BUFFER_SWEEP {
        let mut row = vec![buffers.to_string()];
        for k in LinkFamily::ALL {
            row.push(
                rows.iter()
                    .find(|r| r.family == k && r.buffers == buffers)
                    .map(|r| format!("{:.0}", r.power_uw))
                    .unwrap_or_default(),
            );
        }
        out.push(row);
    }
    show(&["buffers", "I1-Synch(uW)", "I2-Asynch(uW)", "I3-Asynch(uW)"], &out);
}

fn fig14() {
    println!("Fig 14 — Average Power for 50% usage (100 MHz, 4 buffers)\n");
    let rows: Vec<Vec<String>> = e::fig14()
        .iter()
        .map(|r| {
            let b = &r.blocks;
            let uw = [b.serdes_uw, b.buffers_uw, b.conv_uw, b.other_uw, b.total_uw];
            let mut row = vec![r.family.label().to_string()];
            row.extend(uw.map(|v| format!("{v:.0}")));
            row
        })
        .collect();
    show(&["link", "Ser/Des(uW)", "Buffers(uW)", "Conv(uW)", "Other(uW)", "Total(uW)"], &rows);
}

fn table1() {
    println!("Table 1 — Area overhead of the synchronous and proposed links\n");
    let rows: Vec<Vec<String>> = e::table1()
        .iter()
        .map(|r| {
            let name = match r.family {
                LinkFamily::Sync => "Synchronous (I1)",
                LinkFamily::PerTransfer => "Asynchronous per-transfer ack. (I2)",
                LinkFamily::PerWord => "Asynchronous per-word ack. (I3)",
            };
            vec![name.to_string(), format!("{:.0}", r.area_um2)]
        })
        .collect();
    show(&["Implementation", "Area (um2)"], &rows);
}

fn table2() {
    println!("Table 2 — Breakdown of Implementation I2\n");
    let rows = e::table2();
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.module.to_string(), format!("{:.0}", r.area_um2), r.qty.to_string()])
        .collect();
    let total: f64 = rows.iter().map(|r| r.area_um2 * r.qty as f64).sum();
    out.push(vec!["Total".into(), format!("{total:.0}"), String::new()]);
    show(&["Module", "Area (um2)", "Qty."], &out);
}

fn delay_check() {
    let d = e::delay_check();
    println!("Per-word delay equation validation (paper SectionV)\n");
    println!("paper's example terms      -> {:>6.1} MFlit/s (paper quotes ~311)", d.paper_analytic_mflits);
    println!("our gate-level terms       -> {:>6.1} MFlit/s", d.our_analytic_mflits);
    println!("simulated I3 at saturation -> {:>6.1} MFlit/s", d.simulated_mflits);
    println!();
    println!("per-transfer (I2) equation  -> {:>6.1} MFlit/s", d.i2_analytic_mflits);
    println!("simulated I2 at saturation  -> {:>6.1} MFlit/s", d.i2_simulated_mflits);
}

fn headline() {
    let h = e::headline();
    println!("Headline claims (paper: 75% wires, 65% power, ~20% area overhead)\n");
    println!("wire reduction (serialized 32 -> 8):       {:.0}%", h.wire_reduction * 100.0);
    println!("power reduction I3 vs I1 @300MHz, 8 buf:   {:.0}%", h.power_reduction * 100.0);
    println!("cell-area overhead I2 vs I1:               {:.0}%", h.area_overhead * 100.0);
}

fn noc_study() {
    println!("NoC study — 4x4 mesh, uniform random, 4-flit packets\n");
    let rows: Vec<Vec<String>> = e::noc_study()
        .iter()
        .map(|r| {
            vec![
                r.family.label().to_string(),
                format!("{:.0}", r.clk_mhz),
                format!("{:.2}", r.offered),
                format!("{:.3}", r.accepted),
                format!("{:.1}", r.avg_latency),
                r.total_wires.to_string(),
            ]
        })
        .collect();
    show(&["link", "clk(MHz)", "offered", "accepted(f/n/c)", "latency(cyc)", "mesh wires"], &rows);
}

fn noc_curves() {
    println!("NoC load/latency curves — 4x4 mesh, uniform random, 600 MHz switch clock\n");
    let rows: Vec<Vec<String>> = e::noc_curves()
        .iter()
        .map(|p| {
            vec![
                p.family.label().to_string(),
                format!("{:.2}", p.offered),
                format!("{:.3}", p.accepted),
                format!("{:.1}", p.avg_latency),
                p.p95_latency.to_string(),
            ]
        })
        .collect();
    show(&["link", "offered", "accepted(f/n/c)", "avg lat(cyc)", "p95"], &rows);
    println!(
        "\nBeyond the per-word link's self-timed upper bound the serialized\n\
         mesh saturates first; below it, all three meshes behave alike while\n\
         the serialized ones use 10 instead of 33 wires per channel."
    );
}

fn ablations() {
    println!("Ablation 1 — early word acknowledgement (paper future work)\n");
    let rows: Vec<Vec<String>> = ablations::early_ack()
        .iter()
        .map(|r| {
            vec![
                r.buffers.to_string(),
                format!("{:.0}", r.baseline_mflits),
                format!("{:.0}", r.early_mflits),
                format!("{:+.0}%", (r.early_mflits / r.baseline_mflits - 1.0) * 100.0),
            ]
        })
        .collect();
    show(&["buffers", "I3 (MFlit/s)", "I3 early-ack", "gain"], &rows);

    println!("\nAblation 2 — slice width (wires vs throughput vs power)\n");
    let rows: Vec<Vec<String>> = ablations::slice_width()
        .iter()
        .map(|r| {
            vec![
                format!("32->{}", r.slice_width),
                r.wires.to_string(),
                format!("{:.0}", r.saturation_mflits),
                format!("{:.0}", r.power_uw),
            ]
        })
        .collect();
    show(&["serialization", "wires", "saturation (MFlit/s)", "power(uW)"], &rows);

    println!("\nAblation 3 — receiver style (paper Fig 14 discussion)\n");
    let rows: Vec<Vec<String>> = ablations::rx_style()
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.style),
                format!("{:.1}", r.des_power_uw),
                format!("{:.0}", r.total_power_uw),
            ]
        })
        .collect();
    show(&["style", "deserializer power(uW)", "link power(uW)"], &rows);

    println!("\nAblation 4 — technology corners\n");
    let rows: Vec<Vec<String>> = ablations::corners()
        .iter()
        .map(|r| {
            vec![
                format!("{:?}", r.corner),
                format!("{:.0}", r.i3_saturation_mflits),
                format!("{:.0}", r.i1_mflits),
            ]
        })
        .collect();
    show(&["corner", "I3 self-timed (MFlit/s)", "I1 @300MHz clock"], &rows);
    println!(
        "\nThe self-timed link tracks the silicon corner; the synchronous link\n\
         is pinned to its clock at every corner (and at the slow corner its\n\
         clock margin would have to be re-validated)."
    );
}
