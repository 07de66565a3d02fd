//! End-to-end and per-layer benchmark of the sal workspace.
//!
//! ```text
//! perfbench --workload <link_stream|design_sweep|mesh_uniform|flow_chaos>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client on one thread runs the workload's set-up, then passes
//! over its op list for `--seconds` (at least four passes), checking
//! every simulated output. Three more set-ups, each from scratch, are
//! spread over the run. The last stdout line is the result object; the
//! lines before it give the provenance, op counts, the digest of the
//! simulated outputs and the median-based figures. `--trace 1` records
//! spans around the calls into each layer on every other pass, reports
//! the per-layer metrics and the tracing overhead, and writes the spans
//! to `.bench_trace/<workload>-seed<n>.jsonl`.
//!
//! The timed end-to-end metrics are 75th percentiles (see
//! [`TIME_QUANTILE`]).

mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{quantile, quantile_per_position, rate_reached, supports, Digest};
use trace::{Phase, Tracer};
use workloads::Workload;

/// Set-up repetitions per run: one before the first op, the others
/// spread evenly over the timed passes.
const SETUP_REPS: u32 = 4;

/// Fewest timed passes per run (the traced run needs two of each
/// kind). The digest covers exactly these passes.
const MIN_PASSES: u32 = 4;

/// The quantile of pass, op and set-up times the end-to-end metrics
/// report. A shared host can switch between a fast and a slow state
/// for seconds at a time; a median then flips between the two from run
/// to run, while the 75th percentile stays in the slow state whenever
/// that state covers a quarter of the run.
const TIME_QUANTILE: f64 = 0.75;

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 4] = ["link_stream", "design_sweep", "mesh_uniform", "flow_chaos"];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(num()?),
            "--seconds" if num()? > 0 => seconds = Some(num()?),
            "--trace" if value == "0" || value == "1" => trace = Some(value == "1"),
            _ => return Err(format!("bad argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Builds the named workload from the inputs its seed generates.
pub fn workload(name: &str, seed: u64) -> Box<dyn Workload> {
    use workloads::*;
    match name {
        "link_stream" => Box::new(LinkWorkload::stream(link_stream_inputs(seed, STREAM_WORDS))),
        "design_sweep" => Box::new(LinkWorkload::sweep(design_sweep_inputs(seed))),
        "mesh_uniform" => Box::new(MeshWorkload::new(mesh_uniform_inputs(seed))),
        "flow_chaos" => Box::new(FlowWorkload::new(flow_chaos_inputs(seed))),
        other => unreachable!("parse_args admits only known workloads, not {other}"),
    }
}

/// One timed pass over the op list.
#[derive(Debug, Clone, Copy)]
struct Pass {
    index: u32,
    work: u64,
    secs: f64,
    traced: bool,
}

/// What one run measured.
#[derive(Debug, Default)]
struct Outcome {
    /// Wall time of each set-up repetition, s.
    setup_s: Vec<f64>,
    passes: Vec<Pass>,
    /// Op-time samples of the untraced passes, ms, by position in the
    /// op list.
    op_ms: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    /// Digest over the ops of the first [`MIN_PASSES`] passes, in order.
    digest: Digest,
    /// Ops the digest covers.
    digest_ops: u64,
}

impl Outcome {
    /// `(work, seconds)` of the traced or the untraced passes.
    fn passes(&self, traced: bool) -> Vec<(u64, f64)> {
        self.passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| (p.work, p.secs))
            .collect()
    }
}

/// Runs set-up repetition `rep` on `w` and records its wall time.
fn setup(
    w: &mut dyn Workload,
    rep: u32,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Result<Duration, String> {
    tr.enter(Phase::Setup(rep));
    let t = Instant::now();
    w.setup(tr).map_err(|e| format!("set-up {rep}: {e}"))?;
    let dt = t.elapsed();
    out.setup_s.push(dt.as_secs_f64());
    Ok(dt)
}

/// Runs set-up and the timed passes of the workload `make` builds;
/// `Err` if a set-up failed. Later set-up repetitions run on fresh
/// instances, so they leave the timed workload's state alone, and
/// extend the deadline by their own length.
fn measure(
    make: &dyn Fn() -> Box<dyn Workload>,
    seconds: u64,
    traced: bool,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut w = make();
    tr.set_on(traced);
    setup(w.as_mut(), 0, tr, &mut out)?;
    let n = w.ops_per_pass();
    out.op_ms = vec![Vec::new(); n];
    let mut first_pass = Vec::with_capacity(n);
    let start = Instant::now();
    let run = Duration::from_secs(seconds);
    let mut in_setup = Duration::ZERO;
    let mut rep = 1;
    let mut pass = 0u32;
    while pass < MIN_PASSES || start.elapsed() < run + in_setup {
        // The traced run alternates untraced and traced passes, so
        // both see the same machine state.
        let traced_pass = traced && pass % 2 == 1;
        tr.set_on(traced_pass);
        tr.enter(Phase::Pass(pass));
        let mut work = 0;
        let t_pass = Instant::now();
        for i in 0..n {
            out.attempted += 1;
            let span = tr.open("op");
            let t = Instant::now();
            let result = w.op(pass, i, tr);
            let dt = t.elapsed();
            tr.close(span);
            let checked = result.and_then(|op| match first_pass.get(i) {
                Some(&first) if w.replays() && op.digest != first => {
                    Err(format!("op {i} of pass {pass} differs from its first run"))
                }
                _ => Ok(op),
            });
            if pass < MIN_PASSES {
                let digest = checked.as_ref().map_or(0, |op| op.digest);
                if pass == 0 {
                    first_pass.push(digest);
                }
                out.digest.u64(digest);
                out.digest_ops += 1;
            }
            let op = match checked {
                Ok(op) => op,
                Err(e) => {
                    eprintln!("failed: {e}");
                    out.failed += 1;
                    continue;
                }
            };
            work += op.work;
            if !traced_pass {
                out.op_ms[i].push(dt.as_secs_f64() * 1e3 * op.time_scale);
            }
        }
        out.passes.push(Pass {
            index: pass,
            work,
            secs: t_pass.elapsed().as_secs_f64(),
            traced: traced_pass,
        });
        pass += 1;
        tr.set_on(traced);
        while rep < SETUP_REPS && start.elapsed() >= run * rep / SETUP_REPS + in_setup {
            in_setup += setup(make().as_mut(), rep, tr, &mut out)?;
            rep += 1;
        }
    }
    while rep < SETUP_REPS {
        setup(make().as_mut(), rep, tr, &mut out)?;
        rep += 1;
    }
    if traced {
        tr.enter(Phase::End);
        w.probe(tr);
    }
    Ok(out)
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// First line of a command's output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The machine and build fingerprint every result carries.
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // Only a checkout with its own .git names a revision (git would
    // otherwise report an enclosing repository).
    let git = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".to_string()
    };
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"git\": {}, \"workload\": {}, \
         \"seed\": {}, \"threads\": 1, \"mode\": \"{}\"}}",
        json_str(&cpu),
        json_str(&command_line("rustc", &["--version"])),
        json_str(&git),
        json_str(&args.workload),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("provenance: {}", provenance(&args));
    let make = || workload(&args.workload, args.seed);
    let mut tr = Tracer::new(args.trace);
    let out = match measure(&make, args.seconds, args.trace, &mut tr) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            println!("{}", report::result_line(false, 1, 1, &[]));
            return ExitCode::FAILURE;
        }
    };
    let untraced = out.passes(false);
    let pooled: Vec<f64> = out.op_ms.concat();
    let n = pooled.len();
    let fewest = out.op_ms.iter().map(Vec::len).min().unwrap_or(0);
    let has = |ok: bool| if ok { "has" } else { "lacks" };
    println!(
        "ops: {} attempted, {} failed, {n} timed untraced; the p75 of each op-list position {} \
         ten samples beyond",
        out.attempted,
        out.failed,
        has(supports(fewest, TIME_QUANTILE)),
    );
    println!(
        "passes: {} untraced, {} traced",
        untraced.len(),
        out.passes.len() - untraced.len()
    );
    println!(
        "digest: {:016x} over {} ops",
        out.digest.value(),
        out.digest_ops
    );
    // The median-based figures, which a two-speed host makes flip
    // between runs: printed, not part of the result.
    println!(
        "medians: work_per_s {:.6e} 1/s from the median pass; op_ms_p50 {:.4} ms and \
         op_ms_p90 {:.4} ms over all {n} ops (p90 {} ten samples beyond)",
        rate_reached(&untraced, 0.5),
        quantile(&pooled, 0.5),
        quantile(&pooled, 0.9),
        has(supports(n, 0.9)),
    );
    let metrics = if args.trace {
        // Overhead: work rate of untraced over traced passes, after
        // taking from each traced pass the extra calls that time what
        // `run_spec` does inside.
        let extra = tr.per_phase(workloads::DECOMPOSE_SPAN);
        let (mut spans_only, mut with_extra) = (Vec::new(), Vec::new());
        for p in out.passes.iter().filter(|p| p.traced) {
            let e = extra.get(&Phase::Pass(p.index)).copied().unwrap_or(0.0);
            spans_only.push((p.work, p.secs - e));
            with_extra.push((p.work, p.secs));
        }
        let base = rate_reached(&untraced, 0.5);
        let overhead = (base / rate_reached(&spans_only, 0.5) - 1.0) * 100.0;
        println!(
            "trace: spans cost {overhead:.2} %; with the separately timed generate, netgraph \
             and compile calls a traced pass costs {:.2} % more than an untraced one",
            (base / rate_reached(&with_extra, 0.5) - 1.0) * 100.0
        );
        let path = format!(".bench_trace/{}-seed{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_trace")
            .and_then(|()| std::fs::write(&path, tr.to_jsonl()));
        match written {
            Ok(()) => println!("trace: {} spans written to {path}", tr.spans()),
            Err(e) => eprintln!("trace: could not write {path}: {e}"),
        }
        report::per_layer(&tr, overhead)
    } else {
        report::END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "work_per_s" => rate_reached(&untraced, TIME_QUANTILE),
                    "op_ms_p75" => quantile_per_position(&out.op_ms, TIME_QUANTILE),
                    "setup_s" => quantile(&out.setup_s, TIME_QUANTILE),
                    "peak_rss_mb" => peak_rss_mb(),
                    other => unreachable!("END_TO_END lists {other}"),
                };
                (name, unit, v)
            })
            .collect()
    };
    let correct = out.failed == 0;
    println!(
        "{}",
        report::result_line(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload mesh_uniform --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "mesh_uniform".into(),
                seed: 7,
                seconds: 3,
                trace: true
            }
        );
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload flow_chaos --seed x").is_err());
        assert!(args("--workload flow_chaos --seed 1 --trace 2").is_err());
        assert!(args("--workload flow_chaos --seed 1 --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
    }
}
