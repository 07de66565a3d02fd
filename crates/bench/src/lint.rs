//! Netlist lint campaign (`campaign lint`): builds every link family
//! (I1/I2/I3) at each of [`lint_corners`], runs the full static
//! analysis suite (connectivity, loop classification, bundled-data
//! timing, handshake protocol) on each, and records the per-corner
//! finding counts and static timing margins. A clean tree must lint
//! clean: every error-severity finding is a violation. The JSON is
//! bytewise deterministic — CI diffs `BENCH_lint.json` against a
//! committed fixture.

use sal_cells::CircuitBuilder;
use sal_des::{json_escape, Simulator};
use sal_link::testbench::lint_corners;
use sal_link::{generate, LinkConfig, LinkFamily, LinkSpec};
use sal_lint::{run_all, timing_margins, LintReport, Severity, TimingMargin};
use sal_tech::St012Library;

/// One linted `(family, corner)` netlist.
#[derive(Debug, Clone)]
pub struct CornerLint {
    /// Link family built.
    pub family: LinkFamily,
    /// Corner label (see [`lint_corners`]).
    pub corner: &'static str,
    /// Merged findings of every lint pass.
    pub report: LintReport,
    /// Static bundled-data timing margins, one per constrained capture.
    pub margins: Vec<TimingMargin>,
}

/// Everything `campaign lint` reports, family-major, corner-minor.
#[derive(Debug, Clone)]
pub struct LintCampaign {
    /// One entry per linted netlist.
    pub corners: Vec<CornerLint>,
}

fn lint_corner(family: LinkFamily, corner: &'static str, cfg: &LinkConfig) -> CornerLint {
    let mut sim = Simulator::new();
    let lib = St012Library::default();
    let mut b = CircuitBuilder::new(&mut sim, &lib);
    let spec = LinkSpec::from_config(family, cfg)
        .unwrap_or_else(|e| panic!("{} corner is not a valid spec: {e}", family.label()));
    generate(&mut b, &spec, "link", cfg)
        .unwrap_or_else(|e| panic!("{} failed to build: {e}", family.label()));
    b.finish();
    let graph = sim.netgraph();
    CornerLint { family, corner, report: run_all(&graph), margins: timing_margins(&graph) }
}

/// Lints every family at every corner.
pub fn run() -> LintCampaign {
    let mut corners = Vec::new();
    for family in LinkFamily::ALL {
        for (corner, cfg) in lint_corners() {
            corners.push(lint_corner(family, corner, &cfg));
        }
    }
    LintCampaign { corners }
}

/// Prints the per-corner summary with the worst static margin, every
/// error, and the default corner's warnings.
pub fn print(r: &LintCampaign) {
    println!("sal-lint — static netlist analysis over every link and corner\n");
    for c in &r.corners {
        let worst = c.margins.iter().map(|m| m.margin_ps).fold(f64::INFINITY, f64::min);
        println!(
            "{:<3} {:<12} errors {:>2}, warnings {:>2}, infos {:>3}, captures {:>3}{}",
            c.family.label(),
            c.corner,
            c.report.count(Severity::Error),
            c.report.count(Severity::Warning),
            c.report.count(Severity::Info),
            c.margins.len(),
            if c.margins.is_empty() {
                String::from("  (statically unconstrained)")
            } else {
                format!(", worst margin {worst:+.1} ps")
            }
        );
        for f in c.report.errors() {
            println!("    ERROR [{}] {}: {}", f.pass, f.path, f.message);
        }
        if c.corner == "default" {
            for f in c.report.findings.iter().filter(|f| f.severity == Severity::Warning) {
                println!("    warn  [{}] {}: {}", f.pass, f.path, f.message);
            }
        }
    }
}

/// Every error-severity finding, tagged with its netlist.
pub fn violations(r: &LintCampaign) -> Vec<String> {
    r.corners
        .iter()
        .flat_map(|c| {
            c.report.errors().map(move |f| {
                format!("{} {}: [{}] {}: {}", c.family.label(), c.corner, f.pass, f.path, f.message)
            })
        })
        .collect()
}

fn margin_json(m: &TimingMargin) -> String {
    format!(
        "{{\"bundle\": \"{}\", \"capture\": \"{}\", \"trigger\": \"{}\", \
         \"data_ps\": {:.1}, \"strobe_ps\": {:.1}, \"lead_ps\": {:.1}, \"margin_ps\": {:.1}}}",
        json_escape(&m.bundle),
        json_escape(&m.capture_data),
        json_escape(&m.capture_trigger),
        m.data_max_ps,
        m.strobe_min_ps,
        m.data_lead_ps,
        m.margin_ps
    )
}

/// Serialises the campaign as the `BENCH_lint.json` artifact.
pub fn to_json(r: &LintCampaign) -> String {
    let entries: Vec<String> = r
        .corners
        .iter()
        .map(|c| {
            let margins: Vec<String> =
                c.margins.iter().map(|m| format!("      {}", margin_json(m))).collect();
            format!(
                "    {{\"kind\": \"{}\", \"corner\": \"{}\", \"errors\": {}, \
                 \"warnings\": {}, \"infos\": {}, \"margins\": [{}]}}",
                c.family.label(),
                c.corner,
                c.report.count(Severity::Error),
                c.report.count(Severity::Warning),
                c.report.count(Severity::Info),
                if margins.is_empty() {
                    String::new()
                } else {
                    format!("\n{}\n    ", margins.join(",\n"))
                },
            )
        })
        .collect();
    format!("{{\n  \"corners\": [\n{}\n  ]\n}}\n", entries.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_error_finding_is_a_violation() {
        let cfg = LinkConfig::default();
        let mut r = LintCampaign { corners: vec![lint_corner(LinkFamily::PerWord, "default", &cfg)] };
        assert!(violations(&r).is_empty(), "the default I3 netlist lints clean");
        r.corners[0].report.push(Severity::Error, "connectivity", "link.x", "doctored".into());
        let v = violations(&r);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("I3 default") && v[0].contains("doctored"), "{v:?}");
    }
}
