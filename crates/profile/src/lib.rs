//! Run-health profiling for `proxbal`: where did the wall time, CPU and
//! memory of a run actually go, and is the run still alive?
//!
//! Four small, independent pieces:
//!
//! * [`alloc`] — an opt-in counting wrapper around the system allocator.
//!   Binaries install [`CountingAlloc`] as their `#[global_allocator]`;
//!   counting stays off (one relaxed atomic load per call) until
//!   [`enable_counting`] flips it on at runtime.
//! * [`profiler`] — a process-global phase tree. [`phase`] returns a guard;
//!   guards nest like trace spans and record wall time, CPU time and
//!   allocation deltas on drop. Disabled guards are no-ops.
//! * [`flame`] — folds a span hierarchy (borrowed as [`flame::SpanView`]s,
//!   e.g. from `proxbal-trace` tracks) into inferno collapsed-stack text
//!   and speedscope JSON.
//! * [`progress`] — a process-global [`ProgressSink`] (installed once,
//!   like the profiler is enabled once) plus a stderr impl for periodic
//!   heartbeat lines while a long run is in flight.
//!
//! Determinism contract: span *structure* and allocation *counts* are
//! deterministic for a fixed workload (counts additionally fix the thread
//! count — parallel workers allocate scratch); wall clocks, CPU time and
//! RSS are volatile and must never feed a deterministic artifact. The
//! virtual-time flamegraph is deterministic because it is a pure function
//! of the trace; the wall-weighted variant is explicitly volatile.

pub mod alloc;
pub mod flame;
pub mod profiler;
pub mod progress;
pub mod resource;

pub use alloc::{counting_enabled, enable_counting, AllocSnapshot, CountingAlloc};
pub use profiler::{enable as enable_profiler, phase, profiler_enabled, report, ProfileReport};
pub use progress::{fmt_bytes, ProgressSink, StderrSink};
pub use resource::{cpu_time, current_rss_bytes, peak_rss_bytes};
