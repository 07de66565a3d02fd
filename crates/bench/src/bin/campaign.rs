//! `campaign [--quick] [<name>…]` — runs the extension campaigns.
//!
//! With no name it runs all of them, in the order of [`CAMPAIGNS`].
//! Each campaign prints its tables, writes `BENCH_<name>.json` to the
//! working directory (bytewise deterministic; CI diffs each file
//! against `crates/bench/fixtures/`) and prints every invariant
//! violation. The exit status is 1 if any campaign reported one.
//! `--quick` runs the reduced `reroute` and `pareto` grids the
//! committed fixtures record; the other campaigns have one size.

use std::path::Path;
use std::time::Instant;

use sal_bench::{compile_report, flows, lint, observability, pareto, recovery, reroute, robustness};

/// Campaign names (the fixture stems), in the order a bare
/// `campaign` runs them.
const CAMPAIGNS: [&str; 8] =
    ["lint", "robustness", "observability", "recovery", "flows", "reroute", "compile", "pareto"];

/// Prints a finished report and returns its artifact and violations.
fn finish<R>(
    report: &R,
    print: fn(&R),
    to_json: impl Fn(&R) -> String,
    violations: fn(&R) -> Vec<String>,
) -> (String, Vec<String>) {
    print(report);
    (to_json(report), violations(report))
}

fn main() {
    let mut quick = false;
    let mut names: Vec<&str> = Vec::new();
    let args: Vec<String> = std::env::args().skip(1).collect();
    for arg in &args {
        match arg.as_str() {
            "--quick" => quick = true,
            name if CAMPAIGNS.contains(&name) => names.push(name),
            other => {
                eprintln!("unknown argument {other}; usage: campaign [--quick] [{}]…", CAMPAIGNS.join("|"));
                std::process::exit(2);
            }
        }
    }
    if names.is_empty() {
        names = CAMPAIGNS.to_vec();
    }
    let grid = if quick { "quick" } else { "full" };

    let mut failed = false;
    for name in names {
        let start = Instant::now();
        let (json, violations) = match name {
            "lint" => finish(&lint::run(), lint::print, lint::to_json, lint::violations),
            "robustness" => finish(
                &robustness::margins(),
                robustness::print,
                robustness::to_json,
                robustness::violations,
            ),
            "observability" => finish(
                &observability::run(),
                observability::print,
                observability::to_json,
                observability::violations,
            ),
            "recovery" => {
                finish(&recovery::campaign(), recovery::print, recovery::to_json, recovery::violations)
            }
            "flows" => finish(&flows::campaign(), flows::print, flows::to_json, flows::violations),
            "reroute" => {
                let cells = if quick { reroute::quick_grid() } else { reroute::full_grid() };
                eprintln!("== reroute campaign: {grid} grid, {} cells ==", cells.len());
                let r = reroute::campaign(cells);
                finish(&r, reroute::print, |r| reroute::to_json(r, quick), reroute::violations)
            }
            "compile" => finish(
                &compile_report::report(),
                compile_report::print,
                compile_report::to_json,
                compile_report::violations,
            ),
            "pareto" => {
                let cells = if quick { pareto::quick_grid() } else { pareto::full_grid() };
                eprintln!(
                    "== pareto campaign: {grid} grid, {} cells, store {} ==",
                    cells.len(),
                    pareto::STORE
                );
                let r = pareto::campaign(&cells, Path::new(pareto::STORE));
                eprintln!("store: {} hits, {} misses", r.stats.hits, r.stats.misses);
                finish(&r, pareto::print, |r| pareto::to_json(r, quick), pareto::violations)
            }
            _ => unreachable!("names are checked against CAMPAIGNS"),
        };
        let file = format!("BENCH_{name}.json");
        std::fs::write(&file, &json).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!("\nwrote {file} ({} bytes)\n", json.len());
        for v in &violations {
            eprintln!("VIOLATION [{name}]: {v}");
        }
        eprintln!("{name}: {} violations, {:.2} s", violations.len(), start.elapsed().as_secs_f64());
        failed |= !violations.is_empty();
    }
    if failed {
        std::process::exit(1);
    }
}
