//! Design-space Pareto campaign over the declarative `LinkSpec`
//! lattice.
//!
//! Where the figure experiments replicate the paper's three fixed
//! design points, this campaign sweeps the *whole* space the
//! [`LinkSpec`] generator admits — family × word width × serialization
//! ratio × buffer depth × protection — measures every cell at gate
//! level, and extracts the per-family Pareto fronts over
//! (energy-per-word, word latency, cell count). The output
//! `BENCH_pareto.json` is bytewise deterministic, so CI diffs the
//! quick subset against a committed fixture.
//!
//! Measurements are memoized in a content-addressed store: each cell
//! keys on the spec's [`content_hash`](LinkSpec::content_hash) plus a
//! *fingerprint* of the measurement context (engine revision, netlist
//! shape, stimulus length), persisted as JSONL. A warm rerun replays
//! every record verbatim — zero simulations, byte-identical artifact —
//! while any engine or generator change shifts the fingerprint and
//! forces a re-measure of exactly the affected cells.

use crate::sweep::parallel_map;
use sal_cells::CircuitBuilder;
use sal_des::{Simulator, ENGINE_REV};
use sal_link::measure::{run_spec, MeasureOptions};
use sal_link::testbench::worst_case_pattern;
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec, ProtectionMode};
use sal_lint::run_all;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

/// Where the campaign keeps its measurement store, relative to the
/// working directory.
pub const STORE: &str = "target/pareto-cache.jsonl";

/// Flits pushed through every cell (the paper's worst-case pattern).
pub const CAMPAIGN_WORDS: usize = 4;

/// Word widths the full campaign visits.
pub const WIDTHS: [u8; 4] = [16, 32, 48, 64];
/// Serialization ratios the full campaign visits.
pub const RATIOS: [u8; 4] = [2, 4, 8, 16];
/// Buffer depths the full campaign visits.
pub const DEPTHS: [u32; 3] = [2, 4, 8];
/// Protection modes the full campaign visits.
pub const PROTECTIONS: [ProtectionMode; 3] =
    [ProtectionMode::Off, ProtectionMode::Parity, ProtectionMode::Crc8];

/// Enumerates every *valid* cell of the full campaign grid, in the
/// deterministic (family, width, ratio, depth, protection) order the
/// artifact records them. Invalid lattice points (ratio not dividing
/// the width, protection widening past 64 bits, CRC slice mismatches,
/// the 64-bit sync word) are skipped by the builder's own validation —
/// the campaign sweeps exactly the space the API admits.
///
/// The synchronous family is parallel wiring with no serializer, so
/// sweeping it across ratios and protection would re-measure one
/// netlist under different names; it is pinned to the paper's 4:1
/// bookkeeping ratio, unprotected.
pub fn full_grid() -> Vec<LinkSpec> {
    let mut out = Vec::new();
    for family in LinkFamily::ALL {
        for width in WIDTHS {
            for ratio in RATIOS {
                if family == LinkFamily::Sync && ratio != 4 {
                    continue;
                }
                for depth in DEPTHS {
                    for protection in PROTECTIONS {
                        let spec = LinkSpec::builder()
                            .family(family)
                            .word_width(width)
                            .serial_ratio(ratio)
                            .buffer_depth(depth)
                            .protection(protection)
                            .build();
                        if let Ok(spec) = spec {
                            out.push(spec);
                        }
                    }
                }
            }
        }
    }
    out
}

/// The reduced deterministic subset CI measures and diffs against the
/// committed fixture: all three families, three ratios (2, 8, 16 —
/// deliberately *not* the paper's 4:1, which the figure experiments
/// already pin), two word widths, paper buffer depth, protection off
/// and parity.
pub fn quick_grid() -> Vec<LinkSpec> {
    let mut out = Vec::new();
    for family in LinkFamily::ALL {
        for width in [16u8, 32] {
            for ratio in [2u8, 8, 16] {
                if family == LinkFamily::Sync && ratio != 2 {
                    continue;
                }
                for protection in [ProtectionMode::Off, ProtectionMode::Parity] {
                    let spec = LinkSpec::builder()
                        .family(family)
                        .word_width(width)
                        .serial_ratio(ratio)
                        .buffer_depth(4)
                        .protection(protection)
                        .build();
                    if let Ok(spec) = spec {
                        out.push(spec);
                    }
                }
            }
        }
    }
    out
}

/// One measured cell: the numbers the Pareto extraction needs plus
/// the verbatim record JSON the artifact embeds (verbatim so a
/// cache-warm rerun cannot drift by a formatting detail).
#[derive(Debug, Clone)]
pub struct MeasuredCell {
    /// The spec this cell measured.
    pub spec: LinkSpec,
    /// Energy to move one word across the link, pJ.
    pub energy_per_word_pj: f64,
    /// Mean accept-to-deliver word latency, ns.
    pub latency_ns: f64,
    /// Netlist cell count of the bare link.
    pub cells: usize,
    /// Error-severity lint findings on the generated netlist.
    pub lint_errors: usize,
    /// The record as serialized JSON (one object, no trailing newline).
    pub json: String,
}

/// Hit/miss accounting for one campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells replayed from the store without simulation.
    pub hits: usize,
    /// Cells measured (and stored) this run.
    pub misses: usize,
}

/// A full campaign result.
#[derive(Debug)]
pub struct ParetoReport {
    /// Every measured cell, in grid order.
    pub cells: Vec<MeasuredCell>,
    /// Store accounting for this run.
    pub stats: CacheStats,
}

/// 64-bit FNV-1a, the same construction `LinkSpec::content_hash`
/// uses, over an arbitrary byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Builds the bare link netlist for `spec` and returns the netlist
/// graph (for cell counting, linting and fingerprinting). Cheap: no
/// simulation is run.
fn build_netgraph(spec: &LinkSpec, opts: &MeasureOptions) -> sal_des::NetGraph {
    let base = LinkConfig::default();
    let mut sim = Simulator::new();
    let mut b = CircuitBuilder::new(&mut sim, &opts.lib);
    generate(&mut b, spec, "link", &base).expect("campaign grids contain only valid specs");
    b.finish();
    sim.netgraph()
}

/// The measurement-context fingerprint a cached record is valid for:
/// engine revision, generated-netlist shape and stimulus length. Any
/// kernel behaviour bump ([`ENGINE_REV`]), generator change (shape)
/// or campaign protocol change (words) invalidates the entry.
fn fingerprint(spec: &LinkSpec, graph: &sal_des::NetGraph) -> u64 {
    let summary = format!(
        "{ENGINE_REV}|{:016x}|c{}|s{}|b{}|k{}|w{}|n{}",
        spec.content_hash(),
        graph.components.len(),
        graph.signals.len(),
        graph.bundles.len(),
        graph.captures.len(),
        graph.watches.len(),
        CAMPAIGN_WORDS,
    );
    fnv1a(summary.as_bytes())
}

/// Measures one cell at gate level and serialises its record.
fn measure(spec: &LinkSpec, graph: &sal_des::NetGraph, opts: &MeasureOptions) -> MeasuredCell {
    let cells = graph.components.len();
    let lint_errors = run_all(graph).errors().count();
    let words = worst_case_pattern(CAMPAIGN_WORDS, spec.word_width());
    let run = run_spec(spec, &LinkConfig::default(), &words, opts)
        .unwrap_or_else(|e| panic!("campaign cell {spec:?} failed its clean run: {e}"));
    assert!(run.integrity.is_clean(), "campaign cell {spec:?} corrupted data");
    // µW × µs = pJ: the window is the paper's usage-scaled interval.
    let energy_pj = run.total_power_uw() * run.window.as_secs() * 1e6;
    let energy_per_word_pj = energy_pj / words.len() as f64;
    let pairs = run.sent.iter().zip(run.received.iter());
    let mut lat_sum = 0.0;
    let mut lat_n = 0usize;
    for (&(t_in, _), &(t_out, _)) in pairs {
        lat_sum += (t_out - t_in).as_ns();
        lat_n += 1;
    }
    let latency_ns = if lat_n == 0 { 0.0 } else { lat_sum / lat_n as f64 };
    let json = format!(
        "{{\"family\": \"{}\", \"word_width\": {}, \"serial_ratio\": {}, \"slice_width\": {}, \
         \"buffer_depth\": {}, \"protection\": \"{}\", \"wires\": {}, \"cells\": {}, \
         \"area_um2\": {:.1}, \"energy_per_word_pj\": {:.3}, \"latency_ns\": {:.3}, \
         \"throughput_mflits\": {:.2}, \"lint_errors\": {}, \"spec_hash\": \"{:016x}\"}}",
        spec.family().label(),
        spec.word_width(),
        spec.serial_ratio(),
        spec.slice_width(),
        spec.buffer_depth(),
        spec.protection().label(),
        spec.wires(),
        cells,
        run.area_um2(),
        energy_per_word_pj,
        latency_ns,
        run.throughput_mflits(),
        lint_errors,
        spec.content_hash(),
    );
    MeasuredCell {
        spec: spec.clone(),
        energy_per_word_pj,
        latency_ns,
        cells,
        lint_errors,
        json,
    }
}

/// Pulls `"key": <number>` out of a record line (the campaign's own
/// serialisation, so the shape is fixed; the vendored serde is a
/// no-op stub and there is no JSON parser to lean on).
fn field_f64(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &json[at..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().trim_matches('"').parse().ok()
}

/// One parsed line of the on-disk store.
struct StoreLine {
    spec_hex: String,
    fp_hex: String,
    record: String,
}

fn parse_store_line(line: &str) -> Option<StoreLine> {
    let spec_at = line.find("\"spec\": \"")? + 9;
    let spec_hex = line.get(spec_at..spec_at + 16)?.to_string();
    let fp_at = line.find("\"fp\": \"")? + 7;
    let fp_hex = line.get(fp_at..fp_at + 16)?.to_string();
    let rec_at = line.find("\"record\": ")? + 10;
    let record = line.get(rec_at..line.rfind('}')?)?.trim().to_string();
    Some(StoreLine { spec_hex, fp_hex, record })
}

/// Loads the store into a `(spec_hash, fingerprint) → record` map.
/// A missing or partially unreadable file is simply a colder cache.
fn load_store(path: &Path) -> HashMap<(String, String), String> {
    let mut map = HashMap::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        for line in text.lines() {
            if let Some(l) = parse_store_line(line) {
                map.insert((l.spec_hex, l.fp_hex), l.record);
            }
        }
    }
    map
}

/// Runs the campaign over `specs`, memoizing through the store at
/// `cache_path`. Cells run under [`parallel_map`]; results land in
/// grid order. The store is rewritten afterwards in grid order, so
/// the file itself is deterministic too.
///
/// # Panics
///
/// Panics if a sweep worker dies or a cell fails its clean run — a
/// campaign with holes would silently bias the fronts.
pub fn campaign(specs: &[LinkSpec], cache_path: &Path) -> ParetoReport {
    let store = load_store(cache_path);
    let opts = MeasureOptions::default();
    let outcomes = parallel_map(specs.to_vec(), |spec| {
        let graph = build_netgraph(&spec, &opts);
        let fp = fingerprint(&spec, &graph);
        let key = (format!("{:016x}", spec.content_hash()), format!("{fp:016x}"));
        if let Some(record) = store.get(&key) {
            let cell = MeasuredCell {
                spec: spec.clone(),
                energy_per_word_pj: field_f64(record, "energy_per_word_pj")
                    .expect("stored record carries energy"),
                latency_ns: field_f64(record, "latency_ns").expect("stored record carries latency"),
                cells: field_f64(record, "cells").expect("stored record carries cells") as usize,
                lint_errors: field_f64(record, "lint_errors")
                    .expect("stored record carries lint_errors")
                    as usize,
                json: record.clone(),
            };
            (cell, fp, true)
        } else {
            (measure(&spec, &graph, &opts), fp, false)
        }
    })
    .unwrap_or_else(|e| panic!("{e}"));
    let hits = outcomes.iter().filter(|(_, _, hit)| *hit).count();
    let stats = CacheStats { hits, misses: outcomes.len() - hits };

    // Persist: every cell of this run, grid-ordered, fingerprint-keyed.
    let mut out = String::new();
    for (cell, fp, _) in &outcomes {
        writeln!(
            out,
            "{{\"spec\": \"{:016x}\", \"fp\": \"{fp:016x}\", \"record\": {}}}",
            cell.spec.content_hash(),
            cell.json
        )
        .expect("writing to a String cannot fail");
    }
    let cells: Vec<MeasuredCell> = outcomes.into_iter().map(|(c, _, _)| c).collect();
    if let Some(dir) = cache_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(cache_path, out).expect("write pareto cache store");

    ParetoReport { cells, stats }
}

/// `true` if `a` dominates `b`: no worse on every objective, strictly
/// better on at least one (minimizing energy, latency and cell count).
fn dominates(a: &MeasuredCell, b: &MeasuredCell) -> bool {
    let no_worse = a.energy_per_word_pj <= b.energy_per_word_pj
        && a.latency_ns <= b.latency_ns
        && a.cells <= b.cells;
    let better = a.energy_per_word_pj < b.energy_per_word_pj
        || a.latency_ns < b.latency_ns
        || a.cells < b.cells;
    no_worse && better
}

/// Indices (into `cells`) of one family's Pareto-optimal cells, in
/// grid order.
pub fn pareto_front(cells: &[MeasuredCell], family: LinkFamily) -> Vec<usize> {
    let members: Vec<usize> =
        (0..cells.len()).filter(|&i| cells[i].spec.family() == family).collect();
    members
        .iter()
        .copied()
        .filter(|&i| !members.iter().any(|&j| j != i && dominates(&cells[j], &cells[i])))
        .collect()
}

/// Prints every measured cell and the size of each family's front.
pub fn print(report: &ParetoReport) {
    println!(
        "{:<4} {:>5} {:>5} {:>5} {:>7} {:>6} {:>12} {:>10} {:>7}",
        "link", "width", "ratio", "depth", "protect", "wires", "energy/word", "latency", "cells"
    );
    for cell in &report.cells {
        let s = &cell.spec;
        println!(
            "{:<4} {:>5} {:>5} {:>5} {:>7} {:>6} {:>9.3} pJ {:>7.3} ns {:>7}",
            s.family().label(),
            s.word_width(),
            s.serial_ratio(),
            s.buffer_depth(),
            s.protection().label(),
            s.wires(),
            cell.energy_per_word_pj,
            cell.latency_ns,
            cell.cells
        );
    }
    println!("\n== pareto fronts (energy-per-word, latency, cells) ==");
    for family in LinkFamily::ALL {
        let front = pareto_front(&report.cells, family);
        let members = report.cells.iter().filter(|c| c.spec.family() == family).count();
        println!("{}: {} of {} cells on the front", family.label(), front.len(), members);
    }
}

/// Every generated design point must lint clean: a cell with an
/// error-severity finding sits on a netlist the fronts cannot trust.
pub fn violations(report: &ParetoReport) -> Vec<String> {
    report
        .cells
        .iter()
        .filter(|c| c.lint_errors > 0)
        .map(|c| {
            format!(
                "{} w{} r{} d{} {} (spec {:016x}): {} lint errors",
                c.spec.family().label(),
                c.spec.word_width(),
                c.spec.serial_ratio(),
                c.spec.buffer_depth(),
                c.spec.protection().label(),
                c.spec.content_hash(),
                c.lint_errors
            )
        })
        .collect()
}

/// Serialises the campaign as the `BENCH_pareto.json` artifact.
/// Records are embedded verbatim, so a warm rerun is byte-identical.
pub fn to_json(report: &ParetoReport, quick: bool) -> String {
    let records: Vec<&str> = report.cells.iter().map(|c| c.json.as_str()).collect();
    let mut fronts = Vec::new();
    for family in LinkFamily::ALL {
        let entries: Vec<String> = pareto_front(&report.cells, family)
            .into_iter()
            .map(|i| {
                let c = &report.cells[i];
                format!(
                    "{{\"spec_hash\": \"{:016x}\", \"word_width\": {}, \"serial_ratio\": {}, \
                     \"buffer_depth\": {}, \"protection\": \"{}\", \
                     \"energy_per_word_pj\": {:.3}, \"latency_ns\": {:.3}, \"cells\": {}}}",
                    c.spec.content_hash(),
                    c.spec.word_width(),
                    c.spec.serial_ratio(),
                    c.spec.buffer_depth(),
                    c.spec.protection().label(),
                    c.energy_per_word_pj,
                    c.latency_ns,
                    c.cells
                )
            })
            .collect();
        fronts.push(format!(
            "    \"{}\": [\n      {}\n    ]",
            family.label(),
            entries.join(",\n      ")
        ));
    }
    format!(
        "{{\n  \"experiment\": \"pareto\",\n  \"engine_rev\": \"{}\",\n  \"grid\": \"{}\",\n  \
         \"words_per_cell\": {},\n  \"cells\": {},\n  \"records\": [\n    {}\n  ],\n  \
         \"fronts\": {{\n{}\n  }}\n}}\n",
        ENGINE_REV,
        if quick { "quick" } else { "full" },
        CAMPAIGN_WORDS,
        report.cells.len(),
        records.join(",\n    "),
        fronts.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_spans_the_advertised_space() {
        let grid = full_grid();
        assert!(
            (200..=400).contains(&grid.len()),
            "full grid should sweep 200–400 cells, got {}",
            grid.len()
        );
        for family in LinkFamily::ALL {
            assert!(grid.iter().any(|s| s.family() == family));
        }
        for ratio in RATIOS {
            assert!(grid.iter().any(|s| s.serial_ratio() == ratio));
        }
        // Grid order is the artifact's record order: strictly sorted
        // by the (family, width, ratio, depth, protection) key.
        let key = |s: &LinkSpec| {
            (
                s.family().label(),
                s.word_width(),
                s.serial_ratio(),
                s.buffer_depth(),
                PROTECTIONS.iter().position(|&p| p == s.protection()),
            )
        };
        for pair in grid.windows(2) {
            assert!(key(&pair[0]) < key(&pair[1]), "grid must be strictly ordered");
        }
    }

    #[test]
    fn quick_grid_covers_the_acceptance_axes() {
        let grid = quick_grid();
        assert!(grid.len() <= 30, "quick subset must stay CI-sized, got {}", grid.len());
        for family in LinkFamily::ALL {
            assert!(grid.iter().any(|s| s.family() == family), "family missing from quick grid");
        }
        let ratios: std::collections::BTreeSet<u8> =
            grid.iter().map(LinkSpec::serial_ratio).collect();
        assert!(
            ratios.is_superset(&[2u8, 8, 16].into_iter().collect()),
            "quick grid must visit ratios 2, 8 and 16 (got {ratios:?})"
        );
        let widths: std::collections::BTreeSet<u8> =
            grid.iter().map(LinkSpec::word_width).collect();
        assert!(widths.len() >= 2, "quick grid must visit at least two word widths");
    }

    fn cell(family: LinkFamily, e: f64, l: f64, c: usize) -> MeasuredCell {
        MeasuredCell {
            spec: LinkSpec::builder().family(family).build().unwrap(),
            energy_per_word_pj: e,
            latency_ns: l,
            cells: c,
            lint_errors: 0,
            json: String::new(),
        }
    }

    #[test]
    fn pareto_front_keeps_exactly_the_nondominated_set() {
        let f = LinkFamily::PerWord;
        let cells = vec![
            cell(f, 10.0, 5.0, 100),                  // dominated by #2
            cell(f, 8.0, 5.0, 100),                   // front
            cell(f, 12.0, 3.0, 100),                  // front (best latency)
            cell(f, 8.0, 5.0, 90),                    // dominates #1
            cell(LinkFamily::Sync, 1.0, 1.0, 1),      // other family: ignored
        ];
        let front = pareto_front(&cells, f);
        assert_eq!(front, vec![2, 3], "expected the nondominated cells, got {front:?}");
        // The other family's front is its own singleton.
        assert_eq!(pareto_front(&cells, LinkFamily::Sync), vec![4]);
    }

    #[test]
    fn equal_cells_both_stay_on_the_front() {
        let f = LinkFamily::PerTransfer;
        let cells = vec![cell(f, 5.0, 5.0, 50), cell(f, 5.0, 5.0, 50)];
        assert_eq!(pareto_front(&cells, f), vec![0, 1], "ties dominate neither way");
    }

    #[test]
    fn a_cell_with_lint_errors_is_a_violation() {
        let mut cells = vec![cell(LinkFamily::PerWord, 1.0, 1.0, 10)];
        let mut r = ParetoReport { cells: cells.clone(), stats: CacheStats { hits: 0, misses: 1 } };
        assert!(violations(&r).is_empty());
        cells[0].lint_errors = 2;
        r.cells = cells;
        let v = violations(&r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].starts_with("I3 w32 r4") && v[0].ends_with("2 lint errors"), "{v:?}");
    }

    #[test]
    fn record_field_parser_round_trips() {
        let json = "{\"cells\": 123, \"energy_per_word_pj\": 4.567, \"latency_ns\": 0.125, \
                    \"lint_errors\": 0, \"spec_hash\": \"00ff\"}";
        assert_eq!(field_f64(json, "cells"), Some(123.0));
        assert_eq!(field_f64(json, "energy_per_word_pj"), Some(4.567));
        assert_eq!(field_f64(json, "lint_errors"), Some(0.0));
        assert_eq!(field_f64(json, "missing"), None);
    }

    #[test]
    fn store_line_round_trips() {
        let line = "{\"spec\": \"00000000deadbeef\", \"fp\": \"0123456789abcdef\", \
                    \"record\": {\"family\": \"I3\", \"cells\": 7}}";
        let l = parse_store_line(line).expect("line parses");
        assert_eq!(l.spec_hex, "00000000deadbeef");
        assert_eq!(l.fp_hex, "0123456789abcdef");
        assert_eq!(l.record, "{\"family\": \"I3\", \"cells\": 7}");
    }

    /// End-to-end store behaviour on the whole quick grid: a cold run
    /// measures and fills the store, a warm rerun is 100% hits and
    /// produces a byte-identical artifact, and an engine bump
    /// (simulated by corrupting the stored fingerprints) re-measures.
    #[test]
    fn warm_rerun_is_all_hits_and_byte_identical() {
        let grid = quick_grid();
        let n = grid.len();
        let dir = std::env::temp_dir().join(format!("sal-pareto-test-{}", std::process::id()));
        let cache = dir.join("store.jsonl");
        let _ = std::fs::remove_file(&cache);

        let cold = campaign(&grid, &cache);
        assert_eq!(cold.stats, CacheStats { hits: 0, misses: n });
        let cold_json = to_json(&cold, true);
        assert_eq!(cold_json, include_str!("../fixtures/BENCH_pareto.json"), "fixture drifted");

        let warm = campaign(&grid, &cache);
        assert_eq!(warm.stats, CacheStats { hits: n, misses: 0 });
        assert_eq!(to_json(&warm, true), cold_json, "warm artifact must be byte-identical");

        // A fingerprint shift (engine/generator change) is a miss.
        let poisoned = std::fs::read_to_string(&cache)
            .unwrap()
            .replace("\"fp\": \"", "\"fp\": \"ffff");
        std::fs::write(&cache, poisoned).unwrap();
        let bumped = campaign(&grid, &cache);
        assert_eq!(bumped.stats, CacheStats { hits: 0, misses: n });
        assert_eq!(to_json(&bumped, true), cold_json, "re-measure reproduces the artifact");

        let _ = std::fs::remove_dir_all(&dir);
    }
}
