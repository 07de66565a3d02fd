//! # sal — Serialized Asynchronous Links for NoC
//!
//! Umbrella crate for the reproduction of *Serialized Asynchronous
//! Links for NoC* (Ogg, Valli, Al-Hashimi, Yakovlev, D'Alessandro,
//! Benini — DATE 2008). It re-exports the workspace crates:
//!
//! * [`des`] — discrete-event gate-level simulation kernel,
//! * [`cells`] — primitive cell library (gates, latches, C-elements,
//!   David cells),
//! * [`tech`] — 0.12 µm-flavoured technology models (delay, area,
//!   energy, wires),
//! * [`link`] — the paper's contribution: the synchronous link I1 and
//!   the serialized asynchronous links I2 (per-transfer ack) and I3
//!   (per-word ack),
//! * [`analytic`] — the paper's §V closed-form delay/cost models,
//! * [`noc`] — a mesh NoC substrate with pluggable link models,
//! * [`switch`] — a gate-level five-port NoC switch and small fabrics
//!   wired with the serialized links.
//!
//! See `README.md` for a guided tour, `DESIGN.md` for the system
//! inventory and `EXPERIMENTS.md` for the paper-versus-measured
//! results. The runnable entry points live in `examples/` and in the
//! `sal-bench` crate's two binaries: `experiments` (the paper's
//! figures and tables) and `campaign` (the extension campaigns).
//!
//! ## Quickstart
//!
//! ```
//! use sal::link::measure::{run_spec, MeasureOptions};
//! use sal::link::testbench::worst_case_pattern;
//! use sal::link::{LinkConfig, LinkFamily, LinkSpec};
//!
//! // Declare the paper's I3 design point (32-bit words serialized
//! // 4:1, four wire buffers), then push the worst-case 4-flit
//! // pattern through the generated gate-level link and measure it.
//! let spec = LinkSpec::builder()
//!     .family(LinkFamily::PerWord)
//!     .word_width(32)
//!     .serial_ratio(4)
//!     .buffer_depth(4)
//!     .build()
//!     .expect("a valid spec");
//! let run = run_spec(
//!     &spec,
//!     &LinkConfig::default(),
//!     &worst_case_pattern(4, 32),
//!     &MeasureOptions::default(),
//! ).expect("clean run");
//! assert_eq!(run.received_words(), worst_case_pattern(4, 32));
//! println!("power: {:.0} µW over {}", run.total_power_uw(), run.window);
//! ```

#![forbid(unsafe_code)]

pub use sal_analytic as analytic;
pub use sal_cells as cells;
pub use sal_des as des;
pub use sal_link as link;
pub use sal_lint as lint;
pub use sal_noc as noc;
pub use sal_switch as switch;
pub use sal_tech as tech;
