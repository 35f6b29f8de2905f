//! The three workloads: how each is set up, what is read at the window
//! boundaries, and how each run's data is checked afterwards.

use crate::trace::{
    BlockRecorder, TimedLog, TimedTransport, TransportTimes, WalSnapshot, WalTimes,
};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tebaldi_cc::{CcResult, CcTreeSpec, EventSink};
use tebaldi_cluster::{Cluster, ClusterConfig, ReadConsistency};
use tebaldi_core::{Database, DbConfig, DurabilityMode, ProcRegistry, ProcedureCall};
use tebaldi_obs::{HistogramSnapshot, MetricsSnapshot};
use tebaldi_storage::mvstore::ReadSpec;
use tebaldi_storage::wal::{FileLogDevice, LogDevice, MemLogDevice};
use tebaldi_storage::{Key, NodeId, Value};
use tebaldi_workloads::tpcc::cluster::ClusterTpcc;
use tebaldi_workloads::tpcc::schema::{types, TpccParams};
use tebaldi_workloads::tpcc::transactions::district_fields;
use tebaldi_workloads::tpcc::{configs, Tpcc};
use tebaldi_workloads::{ClusterWorkload, WorkUnit, Workload};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Single node, TPC-C standard mix, Tebaldi three-layer CC tree,
    /// durability off.
    Tebaldi3,
    /// Single node, TPC-C standard mix, monolithic SSI, synchronous WAL on
    /// a file with group commit.
    SsiFileWal,
    /// Four in-process shards, read-heavy TPC-C mix, HLC snapshot reads.
    ClusterReadmix,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 3] = [Kind::Tebaldi3, Kind::SsiFileWal, Kind::ClusterReadmix];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Tebaldi3 => "tpcc-tebaldi3",
            Kind::SsiFileWal => "tpcc-ssi-filewal",
            Kind::ClusterReadmix => "cluster-readmix",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Shards of the cluster workload.
const CLUSTER_SHARDS: usize = 4;
/// Warehouses per shard of the cluster workload.
const WAREHOUSES_PER_SHARD: u32 = 8;
/// Write barrier of the cluster workload's in-memory WAL devices (about
/// one NVMe fsync).
const CLUSTER_FLUSH_LATENCY: Duration = Duration::from_micros(20);

/// The recorders of a traced run; `None` fields in an untraced one.
#[derive(Default)]
pub struct Tracers {
    /// CC-tree blocking events.
    pub blocks: Option<Arc<BlockRecorder>>,
    /// WAL append and flush times.
    pub wal: Option<Arc<WalTimes>>,
    /// Shard request times.
    pub transport: Option<Arc<TransportTimes>>,
}

impl Tracers {
    fn new(trace: bool) -> Self {
        if !trace {
            return Tracers::default();
        }
        Tracers {
            blocks: Some(Arc::new(BlockRecorder::default())),
            wal: Some(Arc::new(WalTimes::default())),
            transport: Some(Arc::new(TransportTimes::default())),
        }
    }

    fn log(&self, device: Arc<dyn LogDevice>) -> Arc<dyn LogDevice> {
        match &self.wal {
            Some(times) => TimedLog::wrap(device, times),
            None => device,
        }
    }
}

/// The system under test, built and loaded.
pub enum Target {
    /// One `Database`.
    Single {
        /// The database.
        db: Arc<Database>,
        /// The TPC-C workload driving it.
        tpcc: Arc<Tpcc>,
        /// The file WAL and its path, when durability is on.
        wal_file: Option<(Arc<FileLogDevice>, PathBuf)>,
    },
    /// A sharded `Cluster`.
    Cluster {
        /// The cluster.
        cluster: Arc<Cluster>,
        /// The cluster TPC-C workload driving it.
        tpcc: Arc<ClusterTpcc>,
    },
}

/// A built target plus the recorders wired into it.
pub struct Setup {
    /// The system under test.
    pub target: Target,
    /// Its recorders (empty when untraced).
    pub tracers: Tracers,
    /// Wait timeout of the CC mechanisms.
    pub wait_timeout: Duration,
}

/// Builds and loads `kind`. `wal_path` is the fresh file the file-WAL
/// workload logs to.
pub fn setup(kind: Kind, trace: bool, wal_path: PathBuf) -> std::io::Result<Setup> {
    let tracers = Tracers::new(trace);
    let target = match kind {
        Kind::Tebaldi3 => single(&tracers, configs::tebaldi_three_layer(), None)?,
        Kind::SsiFileWal => single(&tracers, configs::monolithic_ssi(), Some(wal_path))?,
        Kind::ClusterReadmix => cluster(&tracers),
    };
    Ok(Setup {
        target,
        tracers,
        wait_timeout: DbConfig::for_benchmarks().wait_timeout(),
    })
}

fn single(
    tracers: &Tracers,
    spec: CcTreeSpec,
    wal_path: Option<PathBuf>,
) -> std::io::Result<Target> {
    let tpcc = Arc::new(Tpcc::new(TpccParams::default()));
    let mut config = DbConfig::for_benchmarks();
    let wal_file = match wal_path {
        Some(path) => {
            config.durability = DurabilityMode::Synchronous;
            config.group_commit = true;
            Some((Arc::new(FileLogDevice::open(&path)?), path))
        }
        None => None,
    };
    let device: Arc<dyn LogDevice> = match &wal_file {
        Some((file, _)) => Arc::clone(file) as Arc<dyn LogDevice>,
        None => Arc::new(MemLogDevice::new()),
    };
    let mut builder = Database::builder(config)
        .procedures(tpcc.procedures())
        .cc_spec(spec)
        .log_device(tracers.log(device));
    if let Some(blocks) = &tracers.blocks {
        builder = builder.events(Arc::clone(blocks) as Arc<dyn EventSink>);
    }
    let db = Arc::new(builder.build().expect("database build"));
    tpcc.load(&db);
    Ok(Target::Single { db, tpcc, wal_file })
}

fn cluster(tracers: &Tracers) -> Target {
    let params = TpccParams {
        warehouses: WAREHOUSES_PER_SHARD * CLUSTER_SHARDS as u32,
        ..TpccParams::default()
    };
    let read_mix = vec![
        (types::NEW_ORDER, 10.0),
        (types::PAYMENT, 10.0),
        (types::ORDER_STATUS, 50.0),
        (types::STOCK_LEVEL, 30.0),
    ];
    let tpcc = Arc::new(
        ClusterTpcc::new(Tpcc::new(params).with_mix(read_mix)).with_remote_rates(0.01, 0.30),
    );
    let mut config = ClusterConfig::for_benchmarks(CLUSTER_SHARDS);
    config.db_config.durability = DurabilityMode::Synchronous;
    config.db_config.group_commit = true;
    config.db_config.read_only_votes = true;
    config.default_read_consistency = ReadConsistency::Snapshot;
    let log = || {
        tracers.log(Arc::new(MemLogDevice::with_flush_latency(
            CLUSTER_FLUSH_LATENCY,
        )))
    };
    let mut registry = ProcRegistry::new();
    tpcc.register_procedures(&mut registry);
    let mut builder = Cluster::builder(config)
        .procedures(tpcc.procedures())
        .shard_procedures(registry)
        .cc_spec(configs::monolithic_ssi())
        .shard_logs((0..CLUSTER_SHARDS).map(|_| log()).collect())
        .decision_log(log());
    if let Some(times) = &tracers.transport {
        builder = builder.transport_factory(TimedTransport::in_process_factory(times));
    }
    let cluster = Arc::new(builder.build().expect("cluster build"));
    tpcc.load(&cluster);
    Target::Cluster { cluster, tpcc }
}

impl Target {
    /// One closed-loop iteration through the workload's public entry point.
    pub fn run_once(&self, rng: &mut StdRng) -> WorkUnit {
        match self {
            Target::Single { db, tpcc, .. } => tpcc.run_once(db, rng),
            Target::Cluster { cluster, tpcc } => tpcc.run_once(cluster, rng),
        }
    }

    /// Stops background machinery and removes the WAL file.
    pub fn teardown(self) {
        match self {
            Target::Single { db, wal_file, .. } => {
                db.shutdown();
                if let Some((_, path)) = wal_file {
                    let _ = std::fs::remove_file(path);
                }
            }
            Target::Cluster { cluster, .. } => cluster.shutdown(),
        }
    }

    /// The TPC-C workload (scale and keys).
    pub fn tpcc(&self) -> &Tpcc {
        match self {
            Target::Single { tpcc, .. } => tpcc,
            Target::Cluster { tpcc, .. } => &tpcc.inner,
        }
    }

    /// Every warehouse row, then every district row (warehouse-major),
    /// read through the program's serializable path.
    pub fn ytd_rows(&self) -> CcResult<Vec<(Key, Value)>> {
        let Tpcc { keys, params, .. } = self.tpcc();
        let (warehouses, districts) = (params.warehouses, params.districts_per_warehouse);
        let mut wanted: Vec<(u64, Key)> = (0..warehouses)
            .map(|w| (w as u64, keys.warehouse(w)))
            .collect();
        for w in 0..warehouses {
            wanted.extend((0..districts).map(|d| (w as u64, keys.district(w, d))));
        }
        let values = match self {
            Target::Single { db, .. } => {
                // Payment's own declared order: warehouse, then district.
                let call = ProcedureCall::new(types::PAYMENT);
                db.execute_with_retry(&call, 50, |txn| {
                    wanted
                        .iter()
                        .map(|(_, key)| txn.get(*key))
                        .collect::<CcResult<Vec<_>>>()
                })?
                .0
            }
            Target::Cluster { cluster, .. } => {
                cluster.read(wanted.clone(), ReadConsistency::Strong)?
            }
        };
        Ok(wanted
            .into_iter()
            .zip(values)
            .map(|((_, key), value)| (key, value.unwrap_or(Value::Null)))
            .collect())
    }

    /// Size of the WAL file in bytes (0 without one).
    pub fn wal_bytes(&self) -> u64 {
        match self {
            Target::Single {
                wal_file: Some((_, path)),
                ..
            } => std::fs::metadata(path).map_or(0, |m| m.len()),
            _ => 0,
        }
    }

    /// Node labels of the CC tree by id (the single-node workloads only:
    /// cluster shards take no event sink).
    pub fn node_labels(&self) -> HashMap<NodeId, String> {
        match self {
            Target::Single { db, .. } => db
                .current_tree()
                .mechanisms()
                .map(|(id, label, _)| (id, label.to_string()))
                .collect(),
            Target::Cluster { .. } => HashMap::new(),
        }
    }
}

/// Program counters read at one window boundary.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    /// Engine commits (summed over shards).
    pub committed: u64,
    /// Engine aborted attempts (summed over shards).
    pub aborted: u64,
    /// Aborted attempts per mechanism.
    pub aborts_by_mechanism: HashMap<String, u64>,
    /// Metrics registry snapshot (merged over shards and coordinator).
    pub metrics: MetricsSnapshot,
    /// Durability counters (summed over shards).
    pub flushes: u64,
    /// Flushes absorbed by group commit (summed over shards).
    pub coalesced: u64,
    /// Routed single-shard transactions.
    pub single_shard: u64,
    /// Routed multi-shard transactions.
    pub multi_shard: u64,
    /// Snapshot reads served.
    pub snapshot_reads: u64,
    /// Nanoseconds snapshot reads waited.
    pub snapshot_read_wait_ns: u64,
    /// Mean queue wait of body-running shard requests, ns (since start).
    pub prepare_queue_wait_ns: u64,
    /// Mean prepare hardening time, ns (since start).
    pub hardening_ns: u64,
    /// Versions and keys in the store(s).
    pub versions: u64,
    /// Keys in the store(s).
    pub keys: u64,
    /// WAL file size.
    pub wal_bytes: u64,
    /// WAL recorder snapshot.
    pub wal: WalSnapshot,
    /// Transport recorder snapshot, per request kind.
    pub transport: Vec<HistogramSnapshot>,
    /// Process CPU time.
    pub cpu: Duration,
    /// Run-queue wait of live threads.
    pub runqueue: Duration,
    /// Peak RSS so far, MiB.
    pub peak_rss_mb: f64,
}

fn add_engine(probe: &mut Probe, db: &Database) {
    let stats = db.stats();
    probe.committed += stats.committed;
    probe.aborted += stats.aborted;
    for (mechanism, n) in stats.aborts_by_mechanism {
        *probe.aborts_by_mechanism.entry(mechanism).or_insert(0) += n;
    }
    let store = db.store().stats();
    probe.versions += store.versions as u64;
    probe.keys += store.keys as u64;
}

impl Setup {
    /// Reads every counter the report needs.
    pub fn probe(&self) -> Probe {
        let mut probe = Probe::default();
        match &self.target {
            Target::Single { db, .. } => {
                add_engine(&mut probe, db);
                let durability = db.durability().stats();
                probe.flushes = durability.flushes;
                probe.coalesced = durability.coalesced;
                probe.metrics = db.metrics().snapshot();
            }
            Target::Cluster { cluster, .. } => {
                for shard in 0..cluster.shard_count() {
                    add_engine(&mut probe, &cluster.shard(shard));
                }
                let stats = cluster.stats();
                probe.flushes = stats.flushes;
                probe.coalesced = stats.coalesced_flushes;
                probe.single_shard = stats.single_shard;
                probe.multi_shard = stats.multi_shard;
                probe.snapshot_reads = stats.snapshot_reads;
                probe.snapshot_read_wait_ns = stats.snapshot_read_wait_ns;
                probe.prepare_queue_wait_ns = stats.prepare_queue_wait_ns;
                probe.hardening_ns = stats.prepare_hardening_ns;
                probe.metrics = cluster.metrics();
            }
        }
        probe.wal_bytes = self.target.wal_bytes();
        if let Some(wal) = &self.tracers.wal {
            probe.wal = wal.snapshot();
        }
        if let Some(transport) = &self.tracers.transport {
            probe.transport = transport.snapshot();
        }
        probe.cpu = crate::procfs::cpu_time();
        probe.runqueue = crate::procfs::runqueue_wait();
        probe.peak_rss_mb = crate::procfs::peak_rss_mb();
        probe
    }
}

/// The TPC-C consistency condition payment maintains: per warehouse, the
/// growth of `W_YTD` equals the summed growth of its districts' `D_YTD`.
/// Returns the total growth checked, or the first violation.
pub fn check_ytd(
    before: &[(Key, Value)],
    after: &[(Key, Value)],
    warehouses: usize,
) -> Result<i64, String> {
    if before.len() != after.len() || before.len() <= warehouses {
        return Err("warehouse/district row sets differ in size".into());
    }
    let districts = (before.len() - warehouses) / warehouses;
    let field = |rows: &[(Key, Value)], i: usize, f: usize| rows[i].1.field(f).unwrap_or(0);
    let mut total = 0;
    for w in 0..warehouses {
        let w_delta = field(after, w, 0) - field(before, w, 0);
        let d_delta: i64 = (0..districts)
            .map(|d| warehouses + w * districts + d)
            .map(|i| field(after, i, district_fields::YTD) - field(before, i, district_fields::YTD))
            .sum();
        if w_delta != d_delta {
            return Err(format!(
                "warehouse {w}: W_YTD grew by {w_delta}, its districts' D_YTD by {d_delta}"
            ));
        }
        total += w_delta;
    }
    Ok(total)
}

/// What replaying the file WAL gave.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryRun {
    /// Wall time of `recover`.
    pub elapsed: Duration,
    /// Transactions it recovered.
    pub txns: usize,
    /// Warehouse and district rows it restored and matched.
    pub rows_matched: usize,
}

/// Replays the file WAL with `tebaldi_storage::recovery::recover` and
/// requires every recovered warehouse and district row to equal the live
/// one. Rows the log never wrote (loaded only) are not in the recovered
/// store and are skipped.
pub fn check_recovery(
    target: &Target,
    live: &[(Key, Value)],
) -> Result<Option<RecoveryRun>, String> {
    let Target::Single {
        wal_file: Some((file, _)),
        ..
    } = target
    else {
        return Ok(None);
    };
    let started = Instant::now();
    let (store, report) = tebaldi_storage::recovery::recover(file.as_ref());
    let elapsed = started.elapsed();
    let mut rows_matched = 0;
    for (key, value) in live {
        if let Some(recovered) = store.read(key, ReadSpec::LatestCommitted) {
            if &recovered != value {
                return Err(format!("recovered {key:?} = {recovered:?}, live {value:?}"));
            }
            rows_matched += 1;
        }
    }
    if rows_matched == 0 {
        return Err("the log restored no warehouse or district row".into());
    }
    Ok(Some(RecoveryRun {
        elapsed,
        txns: report.recovered_txns,
        rows_matched,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(w_ytd: &[i64], d_ytd: &[i64]) -> Vec<(Key, Value)> {
        let keys = Tpcc::standard().keys;
        let per = d_ytd.len() / w_ytd.len();
        let mut out: Vec<(Key, Value)> = w_ytd
            .iter()
            .enumerate()
            .map(|(w, &y)| (keys.warehouse(w as u32), Value::row(&[y])))
            .collect();
        out.extend(d_ytd.iter().enumerate().map(|(i, &y)| {
            let (w, d) = ((i / per) as u32, (i % per) as u32);
            (keys.district(w, d), Value::row(&[1, y, 1]))
        }));
        out
    }

    #[test]
    fn ytd_check_accepts_matching_growth() {
        let before = rows(&[0, 0], &[0, 0, 0, 0]);
        let after = rows(&[30, 5], &[10, 20, 5, 0]);
        assert_eq!(check_ytd(&before, &after, 2), Ok(35));
    }

    #[test]
    fn ytd_check_rejects_a_lost_district_update() {
        let before = rows(&[0, 0], &[0, 0, 0, 0]);
        let after = rows(&[30, 5], &[10, 19, 5, 0]);
        assert!(check_ytd(&before, &after, 2).is_err());
    }
}
