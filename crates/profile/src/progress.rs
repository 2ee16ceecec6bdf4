//! Live progress telemetry: heartbeat lines while a long run is in flight.
//!
//! Producers (the engine epoch loop, xl/xl2 preparation, the fault sweep)
//! compose the domain half of a line — `engine: epoch 12/200 heavy=17` —
//! and hand it to [`event`] or [`always`]. Like the [`crate::phase`]
//! profiler, the sink is process-global: a binary [`install`]s one once
//! (the CLI's `--progress` installs a [`StderrSink`]) and no signature
//! carries it. Without an installed sink both calls return at once. The
//! stderr sink appends the resource half (current RSS, allocation delta
//! since the last line) and rate-limits high-frequency callers. Everything
//! goes to stderr so stdout's byte-identity contract is untouched.

use crate::alloc::AllocSnapshot;
use crate::resource::current_rss_bytes;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Receiver for heartbeat lines. Implementations must be `Sync`: the
/// fault sweep reports from parallel workers.
pub trait ProgressSink: Sync {
    /// Rate-limited heartbeat — may be dropped by the sink.
    fn event(&self, msg: &str);

    /// Unconditional milestone line (phase boundaries, final states).
    fn always(&self, msg: &str);
}

static SINK: OnceLock<Box<dyn ProgressSink + Send>> = OnceLock::new();

/// Installs the process-global sink. Only the first call takes effect;
/// returns whether this one did.
pub fn install(sink: Box<dyn ProgressSink + Send>) -> bool {
    SINK.set(sink).is_ok()
}

/// Rate-limited heartbeat to the installed sink (none installed: no-op).
pub fn event(msg: &str) {
    if let Some(sink) = SINK.get() {
        sink.event(msg);
    }
}

/// Unconditional milestone line to the installed sink (none installed:
/// no-op).
pub fn always(msg: &str) {
    if let Some(sink) = SINK.get() {
        sink.always(msg);
    }
}

/// Writes heartbeat lines to stderr, at most one per `min_interval` for
/// [`ProgressSink::event`] calls, decorated with RSS and alloc deltas.
pub struct StderrSink {
    min_interval: Duration,
    state: Mutex<SinkState>,
}

struct SinkState {
    last_emit: Option<Instant>,
    last_allocs: u64,
}

impl Default for StderrSink {
    fn default() -> Self {
        StderrSink::new(Duration::from_millis(500))
    }
}

impl StderrSink {
    pub fn new(min_interval: Duration) -> Self {
        StderrSink {
            min_interval,
            state: Mutex::new(SinkState {
                last_emit: None,
                last_allocs: 0,
            }),
        }
    }

    fn emit(&self, msg: &str, state: &mut SinkState) {
        let allocs = AllocSnapshot::global().allocs;
        let delta = allocs.wrapping_sub(state.last_allocs);
        state.last_allocs = allocs;
        state.last_emit = Some(Instant::now());
        let rss = current_rss_bytes()
            .map(fmt_bytes)
            .unwrap_or_else(|| "?".to_string());
        eprintln!("progress: {msg} | rss {rss} | +{delta} allocs");
    }
}

impl ProgressSink for StderrSink {
    fn event(&self, msg: &str) {
        let mut state = self.state.lock().unwrap();
        let due = state
            .last_emit
            .map(|t| t.elapsed() >= self.min_interval)
            .unwrap_or(true);
        if due {
            self.emit(msg, &mut state);
        }
    }

    fn always(&self, msg: &str) {
        let mut state = self.state.lock().unwrap();
        self.emit(msg, &mut state);
    }
}

/// `1532341` → `"1.5 MiB"`; human-readable byte counts for heartbeats.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{b} B")
    } else {
        format!("{:.1} {}", v, UNITS[unit])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_picks_sensible_units() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(999), "999 B");
        assert_eq!(fmt_bytes(2048), "2.0 KiB");
        assert_eq!(fmt_bytes(1_572_864), "1.5 MiB");
        assert_eq!(fmt_bytes(1_675_669_504), "1.6 GiB");
    }

    /// Keeps every line it is handed, tagged with the call it came from.
    struct Recorder(std::sync::Arc<Mutex<Vec<String>>>);

    impl ProgressSink for Recorder {
        fn event(&self, msg: &str) {
            self.0.lock().unwrap().push(format!("event {msg}"));
        }
        fn always(&self, msg: &str) {
            self.0.lock().unwrap().push(format!("always {msg}"));
        }
    }

    // The only test touching the global sink: the before-install half must
    // run before any install in this process.
    #[test]
    fn global_sink_receives_lines_only_once_installed() {
        event("before install");
        always("before install");
        let lines = std::sync::Arc::new(Mutex::new(Vec::new()));
        assert!(install(Box::new(Recorder(lines.clone()))));
        assert!(
            !install(Box::new(Recorder(lines.clone()))),
            "a second install is refused"
        );
        always("milestone");
        event("heartbeat");
        assert_eq!(
            *lines.lock().unwrap(),
            vec![
                "always milestone".to_string(),
                "event heartbeat".to_string()
            ],
            "lines emitted before install went nowhere"
        );
    }

    #[test]
    fn stderr_sink_rate_limits_events() {
        // Smoke only: both paths execute without panicking; the second
        // `event` within the interval is dropped (observable only as "no
        // crash" here — output goes to stderr).
        let sink = StderrSink::new(Duration::from_secs(3600));
        sink.event("first");
        sink.event("suppressed");
        sink.always("forced");
    }
}
