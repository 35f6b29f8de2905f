//! The traced run's three recorders, each installed through a public hook
//! of the program and timing only at that boundary:
//!
//! * [`BlockRecorder`] — an `EventSink` for `DatabaseBuilder::events`
//!   (the CC tree's blocking events);
//! * [`TimedLog`] — a `LogDevice` wrapper for `log_device`, `shard_logs`
//!   and `decision_log` (WAL appends and flushes);
//! * [`TimedTransport`] — a `ShardTransport` wrapper for
//!   `ClusterBuilder::transport_factory` (shard requests).
//!
//! Untraced runs install none of them.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use tebaldi_cc::{BlockingEvent, EventSink};
use tebaldi_cluster::transport::TransportFactory;
use tebaldi_cluster::{
    InProcessTransport, ShardRequest, ShardResult, ShardTransport, Ticket, TransportStats,
};
use tebaldi_obs::{Histogram, HistogramSnapshot};
use tebaldi_storage::wal::{LogDevice, LogRecord};

/// Keeps every blocking event the CC tree reports.
#[derive(Default)]
pub struct BlockRecorder {
    events: Mutex<Vec<BlockingEvent>>,
}

impl BlockRecorder {
    /// Every event recorded so far.
    pub fn events(&self) -> Vec<BlockingEvent> {
        self.events.lock().expect("event list poisoned").clone()
    }
}

impl EventSink for BlockRecorder {
    fn record(&self, event: BlockingEvent) {
        self.events.lock().expect("event list poisoned").push(event);
    }
}

/// Append and flush times shared by every device one run wraps.
#[derive(Default)]
pub struct WalTimes {
    /// Nanoseconds per `append`.
    pub append: Histogram,
    /// Nanoseconds per `flush`.
    pub flush: Histogram,
}

/// Window-delta-ready view of [`WalTimes`].
#[derive(Clone, Debug, Default)]
pub struct WalSnapshot {
    /// Append times.
    pub append: HistogramSnapshot,
    /// Flush times.
    pub flush: HistogramSnapshot,
}

impl WalTimes {
    /// Snapshot of both histograms.
    pub fn snapshot(&self) -> WalSnapshot {
        WalSnapshot {
            append: self.append.snapshot(),
            flush: self.flush.snapshot(),
        }
    }
}

/// A log device that times `append` and `flush` and forwards every call.
pub struct TimedLog {
    inner: Arc<dyn LogDevice>,
    times: Arc<WalTimes>,
}

impl TimedLog {
    /// Wraps `inner`, recording into `times`.
    pub fn wrap(inner: Arc<dyn LogDevice>, times: &Arc<WalTimes>) -> Arc<dyn LogDevice> {
        Arc::new(TimedLog {
            inner,
            times: Arc::clone(times),
        })
    }
}

impl LogDevice for TimedLog {
    fn append(&self, record: &LogRecord) {
        let started = Instant::now();
        self.inner.append(record);
        self.times.append.record_duration(started.elapsed());
    }

    fn flush(&self) {
        let started = Instant::now();
        self.inner.flush();
        self.times.flush.record_duration(started.elapsed());
    }

    fn read_back(&self) -> Vec<LogRecord> {
        self.inner.read_back()
    }

    fn durable_len(&self) -> usize {
        self.inner.durable_len()
    }

    fn read_from(&self, from: usize) -> Vec<LogRecord> {
        self.inner.read_from(from)
    }

    fn truncate_to(&self, len: usize) -> bool {
        self.inner.truncate_to(len)
    }
}

/// The shard request kinds the transport recorder distinguishes; admin
/// requests (stats, flush, metrics) are forwarded but not recorded.
pub const REQUEST_KINDS: [&str; 6] = [
    "execute",
    "prepare",
    "commit",
    "commit_one_phase",
    "abort",
    "snapshot_read",
];

fn kind_index(request: &ShardRequest) -> Option<usize> {
    match request {
        ShardRequest::Execute { .. } => Some(0),
        ShardRequest::Prepare { .. } => Some(1),
        ShardRequest::Commit { .. } => Some(2),
        ShardRequest::CommitOnePhase { .. } => Some(3),
        ShardRequest::Abort { .. } => Some(4),
        ShardRequest::SnapshotRead { .. } => Some(5),
        ShardRequest::Stats | ShardRequest::Flush | ShardRequest::Metrics => None,
    }
}

/// Per-kind nanoseconds spent inside the transport method on the calling
/// thread. For a synchronous `call`, and for a `submit` the transport
/// answers inline (in-process decisions), that is the whole service time;
/// for an asynchronous `submit` (prepare fan-out) it is the hand-off only.
#[derive(Default)]
pub struct TransportTimes {
    kinds: [Histogram; 6],
}

impl TransportTimes {
    /// Snapshot per kind, in [`REQUEST_KINDS`] order.
    pub fn snapshot(&self) -> Vec<HistogramSnapshot> {
        self.kinds.iter().map(Histogram::snapshot).collect()
    }

    fn record(&self, kind: Option<usize>, started: Instant) {
        if let Some(kind) = kind {
            self.kinds[kind].record_duration(started.elapsed());
        }
    }
}

/// A shard transport that times requests and forwards every trait method
/// to the wrapped one, `call_is_inline` included, so the traced run takes
/// the same paths as the untraced one.
pub struct TimedTransport {
    inner: Arc<dyn ShardTransport>,
    times: Arc<TransportTimes>,
}

impl TimedTransport {
    /// A transport factory building the in-process transport behind the
    /// recorder.
    pub fn in_process_factory(times: &Arc<TransportTimes>) -> TransportFactory {
        let times = Arc::clone(times);
        Box::new(move |workers| {
            let inner: Arc<dyn ShardTransport> =
                Arc::new(InProcessTransport::new(workers.to_vec()));
            Ok(Arc::new(TimedTransport { inner, times }) as Arc<dyn ShardTransport>)
        })
    }
}

impl ShardTransport for TimedTransport {
    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn submit(&self, shard: usize, request: ShardRequest) -> Ticket<ShardResult> {
        let kind = kind_index(&request);
        let started = Instant::now();
        let ticket = self.inner.submit(shard, request);
        self.times.record(kind, started);
        ticket
    }

    fn call(&self, shard: usize, request: ShardRequest) -> ShardResult {
        let kind = kind_index(&request);
        let started = Instant::now();
        let result = self.inner.call(shard, request);
        self.times.record(kind, started);
        result
    }

    fn call_is_inline(&self) -> bool {
        self.inner.call_is_inline()
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn supports_repoint(&self) -> bool {
        self.inner.supports_repoint()
    }

    fn repoint(&self, shard: usize, addr: std::net::SocketAddr) -> bool {
        self.inner.repoint(shard, addr)
    }

    fn shutdown(&self) {
        self.inner.shutdown()
    }
}
