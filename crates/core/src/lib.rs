//! # `polysig-gals` — GALS desynchronization of polychronous Signal programs
//!
//! The paper's core contribution (Mousavi, Le Guernic, Talpin, Shukla,
//! Basten — DATE 2004): model a *globally asynchronous, locally synchronous*
//! system entirely inside the multi-clock synchronous framework, by
//! replacing every cross-component data dependency with a FIFO channel, then
//! validate the result with synchronous simulation and model checking.
//!
//! What this crate provides:
//!
//! * [`onefifo`] — the paper's Example 1: the single-cell memory and the
//!   one-place buffer, as Signal components (endochronized with an explicit
//!   master clock so the constructive simulator can run them
//!   deterministically);
//! * [`nfifo`] — Section 5.1: the `n`-place FIFO as a chain of one-place
//!   stages, with the `alarm`/`ok` signals raised on rejected writes;
//! * [`instrument`] — Figure 4: the alarm → counter → max-register circuitry
//!   around a channel, in Signal;
//! * [`partition`]/[`desync`] — Figure 3 and Theorem 1: the transformation
//!   that splits a program's explicit data dependencies and routes each
//!   through a FIFO component, producing a fully synchronous multi-clock
//!   model of the asynchronous design;
//! * [`estimate`] — Section 5.2: the iterative buffer-size estimation loop
//!   (simulate, read the miss counters, grow the buffers, repeat until no
//!   alarm);
//! * [`runtime`] — the *deployment* side: run the components on independent
//!   local clocks (periodic / jittered / random) coupled by real queues, in
//!   one thread or on OS threads via crossbeam, and check that the observed
//!   I/O flows stay flow-equivalent to the synchronous model.
//!
//! ## Quick tour
//!
//! ```
//! use polysig_gals::nfifo::nfifo_component;
//! use polysig_sim::{Scenario, Simulator};
//! use polysig_tagged::Value;
//!
//! // a 2-place FIFO named "ch", written via `ch_in`, read via `ch_rd`
//! let fifo = nfifo_component("ch", 2);
//! let mut sim = Simulator::for_component(&fifo)?;
//! let scenario = Scenario::new()
//!     .on("tick", Value::Bool(true)).on("ch_in", Value::Int(7)).tick()
//!     .on("tick", Value::Bool(true)).tick()
//!     .on("tick", Value::Bool(true)).on("ch_rd", Value::Bool(true)).tick();
//! let run = sim.run(&scenario)?;
//! assert_eq!(run.flow(&"ch_out".into()), vec![Value::Int(7)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod budget;
pub mod cache;
pub mod closedloop;
pub mod desync;
pub mod error;
pub mod estimate;
pub mod fork;
pub mod instrument;
pub mod nfifo;
pub mod onefifo;
pub mod partition;
pub mod policy;
pub mod report;
pub mod runtime;
pub mod split;
pub mod vcd;

pub use budget::{Breach, Budget, Stopwatch};
pub use cache::{hash_bytes, ByteLru, CacheStats, ContentHash, Sha256};
pub use closedloop::{run_masked, MaskedRun};
pub use desync::{desynchronize, DesyncCache, DesyncOptions, Desynchronized, LinkedNetwork};
pub use error::GalsError;
pub use estimate::{
    estimate_buffer_sizes, estimate_buffer_sizes_ensemble, EnsembleReport, EstimationOptions,
    EstimationReport, Estimator, EstimatorWork, Provenance,
};
pub use fork::{fork_component, fork_shared_signals, merge_component};
pub use partition::{channels_of_program, ChannelSpec};
pub use policy::ChannelPolicy;
pub use split::{split_component, suggest_split, SplitSide};
