//! Experiment harness for the proxbal reproduction: deterministic scenario
//! construction, metrics (CDFs, Gini, distance histograms), a discrete-event
//! engine for churn and protocol-latency studies, and the experiment
//! drivers behind every figure of the paper.
//!
//! * [`Scenario`] / [`Prepared`] — declarative experiment setup (overlay
//!   size, workload, topology, balancer config) with seeded determinism.
//! * [`metrics`] — distance-weighted load histograms (Figures 7/8), unit
//!   load scatters (Figure 4), per-capacity-class summaries (Figures 5/6),
//!   Gini/percentile helpers.
//! * [`des`] — a minimal discrete-event engine (time-ordered queue).
//! * [`faults`] — the message-level DES of the tree protocols (LBI
//!   aggregation and dissemination) with seeded fault injection and
//!   retry/backoff; [`protocol`] holds its reusable scratch.
//! * [`churn`] — Poisson join/crash churn driving K-nary-tree maintenance,
//!   for the self-repair claims of §3.1.
//! * [`engine`] — the continuous-operation engine: churn, drift, faults,
//!   tree maintenance and periodic + emergency balancing composed on one
//!   virtual clock.
//! * [`experiments`] — one driver per paper figure/claim; the `repro`
//!   binary and the Criterion benches call these.

pub mod churn;
pub mod des;
pub mod drift;
pub mod engine;
pub mod experiments;
pub mod faults;
pub mod latency;
pub mod metrics;
pub mod protocol;
mod scenario;
pub mod shard;

pub use engine::{run_engine, run_engine_traced, EngineConfig, EngineReport, EpochSample};
pub use scenario::{Prepared, Scenario, ScenarioBuilder, TopologyKind, XL2_ORACLE_CAPACITY};
