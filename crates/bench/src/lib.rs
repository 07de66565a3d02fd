//! # sal-bench — the experiment harness
//!
//! One function per table/figure of the paper's evaluation (§V), each
//! returning structured rows so binaries can print them, tests can
//! assert the paper's qualitative claims, and Criterion benches can
//! time them. Two binaries drive everything:
//!
//! * `experiments [<name>…]` prints the paper artifacts (all of them,
//!   in the order below, when no name is given);
//! * `campaign [--quick] [<name>…]` runs the extension campaigns (all
//!   of them when no name is given), writes `BENCH_<name>.json` to the
//!   working directory, prints every invariant violation and exits
//!   non-zero if there was one. `--quick` runs the reduced `reroute`
//!   and `pareto` grids the committed fixtures record.
//!
//! | `experiments` name | Paper artifact |
//! |--------|----------------|
//! | `fig10` | Bandwidth vs. number of wires |
//! | `fig11` | Wiring area vs. wire length |
//! | `fig12` | Power vs. buffers @ 100 MHz |
//! | `fig13` | Power vs. buffers @ 300 MHz |
//! | `fig14` | Per-block power breakdown @ 50 % usage |
//! | `table1` | Link area overhead |
//! | `table2` | I2 block area breakdown |
//! | `delay_check` | §V per-word delay equation validation |
//! | `headline` | The abstract's 75 % wires / 65 % power / 20 % area claims |
//! | `noc_study` | Mesh-level latency/throughput with each link (extension) |
//! | `noc_curves` | Mesh load/latency curves with each link (extension) |
//! | `ablations` | Early-ack / slice-width / receiver-style / corner studies |
//!
//! | `campaign` name | Module | Campaign |
//! |--------|--------|----------|
//! | `lint` | [`lint`] | Static netlist analysis over every link and corner |
//! | `robustness` | [`robustness`] | Timing-margin / fault-injection sweep |
//! | `observability` | [`observability`] | Traced, metered I2/I3 runs reconciled against the power meter |
//! | `recovery` | [`recovery`] | Link-level error detection & retransmission chaos soak |
//! | `flows` | [`flows`] | End-to-end flows over lossy mesh channels (goodput-collapse curves) |
//! | `reroute` | [`reroute`] | Fault-tolerant routing vs link failure (reconfiguration extension) |
//! | `compile` | [`compile_report`] | Compiled-engine equivalence + bit-sliced seed campaigns |
//! | `pareto` | [`pareto`] | Design-space sweep over the `LinkSpec` lattice (extension) |
//!
//! Each campaign module exposes its run, a `print` of its tables, its
//! `to_json` artifact writer and `violations`, the invariants its
//! artifact must satisfy.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod compile_report;
pub mod experiments;
pub mod flows;
pub mod lint;
pub mod observability;
pub mod pareto;
pub mod recovery;
pub mod reroute;
pub mod robustness;
pub mod sliced;
pub mod sweep;
pub mod table;
