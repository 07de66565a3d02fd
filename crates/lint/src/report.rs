//! Finding and report types shared by all passes.

use std::fmt;

use sal_des::json_escape;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: an intentional structure worth surfacing (an
    /// exempted oscillator loop, a positive timing margin).
    Info,
    /// Suspicious but not necessarily wrong (a driven-never-read
    /// signal, an unconstrained capture).
    Warning,
    /// A structural defect: the netlist violates an invariant the
    /// async links rely on.
    Error,
}

impl Severity {
    /// Lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One finding of one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Severity level.
    pub severity: Severity,
    /// The pass that produced the finding (`"connectivity"`,
    /// `"loops"`, `"timing"`, `"handshake"`).
    pub pass: &'static str,
    /// Hierarchical path of the offending signal, cell or label.
    pub path: String,
    /// Human-readable description.
    pub message: String,
}

/// The merged result of the lint passes, ordered deterministically
/// (severity descending, then pass, path, message).
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// All findings.
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a finding.
    pub fn push(&mut self, severity: Severity, pass: &'static str, path: &str, message: String) {
        self.findings.push(Finding { severity, pass, path: path.to_string(), message });
    }

    /// Sorts findings into the canonical deterministic order.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.pass.cmp(b.pass))
                .then_with(|| a.path.cmp(&b.path))
                .then_with(|| a.message.cmp(&b.message))
        });
    }

    /// Number of findings at a given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == severity).count()
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.severity == Severity::Error)
    }

    /// Whether the report contains any error-severity finding.
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// A compact one-line-per-finding text rendering.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("[{}] {}: {} — {}\n", f.severity, f.pass, f.path, f.message));
        }
        out
    }

    /// Hand-rolled JSON rendering (the vendored `serde` is a no-op
    /// stand-in, so every machine-readable artifact in this repo is
    /// written by hand). Deterministic: call [`LintReport::sort`]
    /// first (done by `run_all`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"errors\": {}, \"warnings\": {}, \"infos\": {},\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        ));
        out.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"severity\": \"{}\", \"pass\": \"{}\", \"path\": \"{}\", \"message\": \"{}\"}}{}\n",
                f.severity,
                f.pass,
                json_escape(&f.path),
                json_escape(&f.message),
                if i + 1 == self.findings.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}");
        out
    }
}
