//! # sal-des — discrete-event simulation kernel
//!
//! An event-driven, gate-level digital simulator in the spirit of a
//! classic HDL simulation kernel. It is the software substitute for the
//! Cadence Spectre runs used in *Serialized Asynchronous Links for NoC*
//! (Ogg et al., DATE 2008): circuits are netlists of cells with
//! technology-derived delays, and switching activity is recorded per
//! signal so that a calibrated energy model can turn activity into
//! power numbers.
//!
//! ## Model
//!
//! * [`Time`] is an absolute femtosecond timestamp; gate delays are
//!   femtosecond durations.
//! * [`Value`] is a bit-vector of up to 64 bits with an unknown (`X`)
//!   mask, so both single wires and whole datapath buses are single
//!   signals. Transition counts are *bit-toggle* counts, which is what
//!   an activity-based power model needs.
//! * A [`Component`] is anything that reacts to input-signal changes
//!   (combinational and sequential cells, stimulus generators,
//!   monitors). Components drive their output signals through the
//!   scheduler with *inertial* delay semantics: re-driving an output
//!   cancels a still-pending older drive, so pulses shorter than a
//!   cell's delay are filtered exactly like in an HDL simulator.
//! * The [`Simulator`] owns the netlist, the event wheel and all
//!   statistics, and is fully deterministic: simultaneous events are
//!   processed in schedule order.
//!
//! ## Quick example
//!
//! Build an inverter driven by a stimulus and watch it switch:
//!
//! ```
//! use sal_des::{Simulator, Time, Value, Component, Ctx};
//!
//! struct Inv { a: sal_des::SignalId, y: sal_des::SignalId }
//! impl Component for Inv {
//!     fn on_input(&mut self, ctx: &mut Ctx<'_>) {
//!         let v = ctx.read(self.a).not();
//!         ctx.drive(self.y, v, Time::from_ps(20));
//!     }
//! }
//!
//! let mut sim = Simulator::new();
//! let a = sim.add_signal("a", 1);
//! let y = sim.add_signal("y", 1);
//! let inv = sim.add_component("inv", Inv { a, y }, &[a]);
//! sim.connect_driver(inv, y);
//! sim.stimulus(a, &[(Time::ZERO, Value::zero(1)), (Time::from_ps(100), Value::one(1))]);
//! sim.run_until(Time::from_ns(1)).unwrap();
//! assert_eq!(sim.value(y).to_u64(), Some(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Behavioural revision of the simulation engine.
///
/// Bump whenever a change can alter *observable* simulation results —
/// event ordering, delay or energy models, fault semantics — i.e.
/// whenever the golden replay fixture has to be regenerated. Cached
/// measurement stores (the `sal-bench` Pareto campaign) key their
/// entries on this revision so stale results are re-measured instead
/// of replayed.
pub const ENGINE_REV: &str = "sal-des-r1";

mod compile;
mod component;
mod error;
mod event;
mod fault;
mod json;
mod netgraph;
mod scope;
mod signal;
mod sim;
mod slice;
mod stats;
mod time;
pub mod trace;
mod value;
pub mod vcd;
mod watchdog;

pub use compile::{CombFunc, CombSpec, SpecOp};
pub use component::{Component, ComponentId, Ctx};
pub use error::{SimError, SimResult};
pub use fault::{FaultPlan, Glitch, SkewRule, StuckAt};
pub use json::{json_escape, json_f64};
pub use netgraph::{
    BundleParams, CellClass, NetBundle, NetCapture, NetComponent, NetGraph, NetSignal, NetWatch,
};
pub use scope::{ScopeId, ScopePath};
pub use signal::{SignalId, SignalInfo};
pub use sim::{SimConfig, Simulator};
pub use trace::{
    JsonlSink, MemoryTrace, RingTrace, TraceDump, TraceRecord, TraceSignalMeta, TraceSink,
};
pub use watchdog::{DeadlockReport, StalledHandshake};
pub use stats::{ActivityReport, EnergyReport, ScopeEnergy, SimProfile};
pub use time::Time;
pub use value::{LaneValues, Logic, Value};
