//! `hfs-obs` — service-layer observability for the hfs serving stack.
//!
//! Two subsystems, both std-only:
//!
//! - [`log`]: a leveled structured logger emitting JSON-lines to stderr
//!   or `HFS_LOG_FILE`, controlled by `HFS_LOG=error|warn|info|debug`.
//!   Every line carries a process-monotonic sequence number and a
//!   `component` field, and is written with a single `write_all` so
//!   concurrent writers never interleave mid-line.
//! - [`metrics`]: a metric registry (counters, gauges, histograms with
//!   p50/p95/p99 summaries reusing [`hfs_sim::stats::Histogram`]) with
//!   Prometheus-text exposition. One [`metrics::Registry`] per serving
//!   process (the `hfs-serve` dispatcher and the harness engine each
//!   own one); [`metrics::global`] provides the process-wide default.
//!
//! **Inertness rule**: nothing in this crate may influence simulation
//! results. Log lines and metric values never enter cache keys,
//! artifact bytes, or machine state — artifacts are byte-identical
//! with logging/metrics on or off, which `scripts/ci.sh` enforces.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod log;
pub mod metrics;

pub use crate::log::{
    debug, error, info, init_test_logger, logger, warn, BufferSink, Level, Logger, Value, ENV_LOG,
    ENV_LOG_FILE,
};
pub use crate::metrics::{global, Counter, Gauge, HistogramMetric, Registry};
