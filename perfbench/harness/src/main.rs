//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Sets the workload up several times (reporting the median set-up time),
//! warms up, runs two closed-loop clients for `--seconds`, checks the
//! data, and prints a human-readable report followed by one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! recorders installed through the program's public hooks) with
//! `--trace 1`.

mod bench;
mod driver;
mod procfs;
mod stats;
mod trace;

use bench::{Kind, Probe, RecoveryRun, Setup};
use driver::{LoopRun, Mark};
use stats::{failed_frac, hist_delta, median, per_commit, quantile_us, supported_percentile};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tebaldi_storage::TxnTypeId;
use tebaldi_workloads::tpcc::schema::types;

/// Closed-loop clients (the benchmark box has two cores).
const CLIENTS: usize = 2;
/// Set-ups per run; the last one is measured, `setup_s` is their median.
const SETUPS: usize = 5;
/// Warm-up before the window opens.
const WARMUP: Duration = Duration::from_secs(2);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .ok_or_else(|| format!("--{name} is required"))
    };
    let workload = get("workload")?;
    let kind = Kind::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("--{name} takes a whole number"))
    };
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let seconds = number("seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        kind,
        seed: number("seed")?,
        seconds,
        trace,
    })
}

/// Metrics in output order, each with its unit.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// The `metrics` object of the result line. Names and units are plain
    /// ASCII without quotes, so they need no escaping; `f64`'s `Display`
    /// prints every digit and never an exponent.
    fn json(&self) -> Result<String, String> {
        let mut fields = Vec::with_capacity(self.metrics.len());
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("{name} is {value}"));
            }
            fields.push(format!(
                r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
            ));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }
}

/// The transaction types every workload's mix contains (delivery is not
/// in the cluster read mix), each with its own median.
const TIMED_TYPES: [(TxnTypeId, &str); 4] = [
    (types::NEW_ORDER, "new_order"),
    (types::PAYMENT, "payment"),
    (types::ORDER_STATUS, "order_status"),
    (types::STOCK_LEVEL, "stock_level"),
];

fn percentile(sorted: &[f64], q: f64, what: &str) -> Result<f64, String> {
    supported_percentile(sorted, q, stats::MIN_BEYOND).ok_or_else(|| {
        format!(
            "{what}: {} samples leave fewer than {} beyond the {q} quantile; run longer",
            sorted.len(),
            stats::MIN_BEYOND
        )
    })
}

/// Client-side counts of one run.
struct Counts {
    attempted: u64,
    failed: u64,
    committed: u64,
    attempts: u64,
}

fn counts(run: &LoopRun) -> Counts {
    let committed = run.units.iter().filter(|u| u.committed).count() as u64;
    Counts {
        attempted: run.units.len() as u64,
        failed: run.units.len() as u64 - committed,
        committed,
        attempts: run
            .units
            .iter()
            .map(|u| u.aborts as u64 + u64::from(u.committed))
            .sum(),
    }
}

/// Client latencies of the committed units of type `ty` (all types for
/// `None`), sorted, in ms.
fn committed_ms(run: &LoopRun, ty: Option<TxnTypeId>) -> Vec<f64> {
    let mut ms: Vec<f64> = run
        .units
        .iter()
        .filter(|u| u.committed && ty.is_none_or(|ty| u.ty == ty))
        .map(|u| u.latency.as_secs_f64() * 1e3)
        .collect();
    ms.sort_by(f64::total_cmp);
    ms
}

fn end_to_end(
    run: &LoopRun,
    c: &Counts,
    start: &Probe,
    end: &Probe,
    setup_s: f64,
) -> Result<Report, String> {
    let mut r = Report::default();
    r.put(
        "throughput_tps",
        c.committed as f64 / run.window.as_secs_f64(),
        "tx/s",
    );
    let all = committed_ms(run, None);
    r.put("latency_p50_ms", percentile(&all, 0.5, "latency")?, "ms");
    // Medians per transaction type: the pooled read (or write) latency is
    // bimodal on the TPC-C mix, so its median flips between modes.
    // order_status is a per-layer figure: on tpcc-tebaldi3 the share of
    // customers with an order (its slow path) crosses one half during the
    // window, so its median flips too.
    for (ty, name) in TIMED_TYPES
        .into_iter()
        .filter(|&(ty, _)| ty != types::ORDER_STATUS)
    {
        let mine = committed_ms(run, Some(ty));
        r.put(
            format!("{name}_p50_ms"),
            percentile(&mine, 0.5, name)?,
            "ms",
        );
    }
    let cpu_us = (end.cpu - start.cpu).as_secs_f64() * 1e6;
    r.put("cpu_us_per_commit", per_commit(cpu_us, c.committed), "us");
    r.put("peak_rss_mb", end.peak_rss_mb, "MiB");
    r.put("setup_s", setup_s, "s");
    Ok(r)
}

/// Mechanism labels `core.aborts.*` distinguishes; anything else is
/// counted under `other`.
const MECHANISMS: [&str; 7] = [
    "2PL",
    "RP",
    "SSI",
    "TSO",
    "registry",
    "dependency",
    "snapshot",
];

/// CC-tree nodes of the three-layer tree, the one tree that blocks;
/// events at any other node are counted under `other`.
const NODES: [(&str, &str); 5] = [
    ("tebaldi-3layer", "root_ssi"),
    ("read-only", "read_only"),
    ("updates", "updates_2pl"),
    ("pay+no", "pay_no_rp"),
    ("del", "del_rp"),
];

fn per_layer(
    setup: &Setup,
    run: &LoopRun,
    c: &Counts,
    start: &Probe,
    end: &Probe,
    recovery: Option<RecoveryRun>,
) -> Result<Report, String> {
    let commits = c.committed;
    let pc = |total: f64| per_commit(total, commits);
    let mut r = Report::default();

    // workloads
    r.put(
        "workloads.attempts_per_commit",
        pc(c.attempts as f64),
        "1/commit",
    );
    r.put(
        "workloads.failed_frac",
        failed_frac(c.failed, c.attempted),
        "fraction",
    );
    // The client tail: on tpcc-tebaldi3 it is made of whole 150 ms
    // timeouts (p999 flips between one and two of them from run to run),
    // so it is reported here rather than gated.
    let all = committed_ms(run, None);
    r.put(
        "workloads.latency_p99_ms",
        percentile(&all, 0.99, "latency")?,
        "ms",
    );
    r.put(
        "workloads.latency_p999_ms",
        percentile(&all, 0.999, "latency")?,
        "ms",
    );
    let order_status = committed_ms(run, Some(types::ORDER_STATUS));
    r.put(
        "workloads.order_status_p50_ms",
        percentile(&order_status, 0.5, "order_status")?,
        "ms",
    );
    r.put(
        "workloads.traced_throughput_tps",
        commits as f64 / run.window.as_secs_f64(),
        "tx/s",
    );

    // core
    let engine_commits = end.committed - start.committed;
    let engine_aborts = end.aborted - start.aborted;
    r.put(
        "core.commit_ratio",
        failed_frac(engine_commits, engine_commits + engine_aborts),
        "fraction",
    );
    let aborts = |m: &str| {
        end.aborts_by_mechanism.get(m).copied().unwrap_or(0)
            - start.aborts_by_mechanism.get(m).copied().unwrap_or(0)
    };
    for m in MECHANISMS {
        r.put(
            format!("core.aborts.{}", m.to_lowercase()),
            pc(aborts(m) as f64),
            "1/commit",
        );
    }
    let other: u64 = end
        .aborts_by_mechanism
        .keys()
        .filter(|m| !MECHANISMS.contains(&m.as_str()))
        .map(|m| aborts(m))
        .sum();
    r.put("core.aborts.other", pc(other as f64), "1/commit");
    let mut attempts = tebaldi_obs::HistogramSnapshot::default();
    for (name, hist) in &end.metrics.histograms {
        if name.starts_with("proc.") && name.ends_with(".latency_ns") {
            let before = start.metrics.histogram(name).cloned().unwrap_or_default();
            attempts.merge(&hist_delta(hist, &before));
        }
    }
    r.put("core.attempt_p50_us", quantile_us(&attempts, 0.5), "us");

    // cc
    let labels = setup.target.node_labels();
    let events: Vec<_> = setup
        .tracers
        .blocks
        .as_ref()
        .map(|b| b.events())
        .unwrap_or_default()
        .into_iter()
        .filter(|e| e.end >= run.open && e.end <= run.close)
        .collect();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    r.put(
        "cc.block_ms_per_commit",
        pc(events.iter().fold(0.0, |sum, e| sum + ms(e.duration()))),
        "ms/commit",
    );
    r.put(
        "cc.block_events_per_commit",
        pc(events.len() as f64),
        "1/commit",
    );
    let timeouts = events
        .iter()
        .filter(|e| e.duration() >= setup.wait_timeout)
        .count();
    r.put(
        "cc.timeout_waits_per_1k_commits",
        1_000.0 * pc(timeouts as f64),
        "1/1k-commits",
    );
    let mut node_ms: BTreeMap<&str, f64> = BTreeMap::new();
    for e in &events {
        let label = labels.get(&e.node).map_or("", String::as_str);
        let name = NODES
            .iter()
            .find(|(l, _)| *l == label)
            .map_or("other", |(_, n)| n);
        *node_ms.entry(name).or_insert(0.0) += ms(e.duration());
    }
    for name in NODES.iter().map(|(_, n)| *n).chain(["other"]) {
        r.put(
            format!("cc.node.{name}.block_ms_per_commit"),
            pc(node_ms.get(name).copied().unwrap_or(0.0)),
            "ms/commit",
        );
    }

    // storage.wal and recovery
    let append = hist_delta(&end.wal.append, &start.wal.append);
    let flush = hist_delta(&end.wal.flush, &start.wal.flush);
    r.put("storage.wal.append_us_p50", quantile_us(&append, 0.5), "us");
    r.put("storage.wal.flush_us_p50", quantile_us(&flush, 0.5), "us");
    r.put("storage.wal.flush_us_p99", quantile_us(&flush, 0.99), "us");
    r.put(
        "storage.wal.records_per_commit",
        pc(append.count as f64),
        "1/commit",
    );
    r.put(
        "storage.wal.flushes_per_commit",
        pc(flush.count as f64),
        "1/commit",
    );
    let coalesced = end.coalesced - start.coalesced;
    let flushes = end.flushes - start.flushes;
    r.put(
        "storage.wal.coalesced_frac",
        failed_frac(coalesced, coalesced + flushes),
        "fraction",
    );
    r.put(
        "storage.wal.bytes_per_commit",
        pc((end.wal_bytes - start.wal_bytes) as f64),
        "B/commit",
    );
    let (us_per_txn, records_per_s) = recovery.map_or((0.0, 0.0), |rec| {
        let s = rec.elapsed.as_secs_f64();
        (
            s * 1e6 / rec.txns.max(1) as f64,
            end.wal.append.count as f64 / s,
        )
    });
    r.put("storage.recovery.us_per_txn", us_per_txn, "us");
    r.put("storage.recovery.records_per_s", records_per_s, "1/s");

    // storage.mvstore
    r.put(
        "storage.versions_per_key",
        end.versions as f64 / end.keys.max(1) as f64,
        "versions/key",
    );
    let gauge = |name: &str| end.metrics.gauge(name).unwrap_or(0) as f64;
    r.put("storage.gc_limbo_bytes_max", gauge("gc.limbo_bytes"), "B");
    r.put(
        "storage.chain_len_max",
        gauge("store.chain_len"),
        "versions",
    );

    // cluster
    for (i, kind) in trace::REQUEST_KINDS.iter().enumerate() {
        let delta = match (end.transport.get(i), start.transport.get(i)) {
            (Some(after), Some(before)) => hist_delta(after, before),
            _ => Default::default(),
        };
        r.put(
            format!("cluster.transport.{kind}.per_commit"),
            pc(delta.count as f64),
            "1/commit",
        );
        r.put(
            format!("cluster.transport.{kind}.us_p50"),
            quantile_us(&delta, 0.5),
            "us",
        );
        r.put(
            format!("cluster.transport.{kind}.us_p99"),
            quantile_us(&delta, 0.99),
            "us",
        );
    }
    let single = end.single_shard - start.single_shard;
    let multi = end.multi_shard - start.multi_shard;
    r.put(
        "cluster.multi_shard_frac",
        failed_frac(multi, single + multi),
        "fraction",
    );
    let reads = end.snapshot_reads - start.snapshot_reads;
    let wait_ns = end.snapshot_read_wait_ns - start.snapshot_read_wait_ns;
    r.put(
        "cluster.snapshot_read_wait_us_per_read",
        if reads == 0 {
            0.0
        } else {
            wait_ns as f64 / reads as f64 / 1e3
        },
        "us",
    );
    r.put(
        "cluster.prepare_queue_wait_us",
        end.prepare_queue_wait_ns as f64 / 1e3,
        "us",
    );
    r.put("cluster.hardening_us", end.hardening_ns as f64 / 1e3, "us");
    for phase in ["prepare_fanout", "vote_collect", "decision_log", "finalize"] {
        let name = format!("2pc.{phase}_ns");
        let delta = match end.metrics.histogram(&name) {
            Some(after) => hist_delta(
                after,
                &start.metrics.histogram(&name).cloned().unwrap_or_default(),
            ),
            None => Default::default(),
        };
        r.put(
            format!("cluster.2pc.{phase}_us_p50"),
            quantile_us(&delta, 0.5),
            "us",
        );
    }

    // proc
    r.put(
        "proc.runqueue_us_per_commit",
        pc((end.runqueue.saturating_sub(start.runqueue)).as_secs_f64() * 1e6),
        "us/commit",
    );
    Ok(r)
}

fn work_dir() -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("perfbench").join("work");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// One measured run with its checks and metrics.
struct Measured {
    run: LoopRun,
    counts: Counts,
    verdicts: Vec<Result<String, String>>,
    e2e: Report,
    layers: Report,
}

fn measure(setup: &Setup, args: &Args, setup_s: f64) -> Result<Measured, String> {
    let ytd_rows = || {
        setup
            .target
            .ytd_rows()
            .map_err(|e| format!("reading YTD rows: {e}"))
    };
    let before = ytd_rows()?;
    let (mut start, mut end) = (Probe::default(), Probe::default());
    let run = driver::closed_loop(
        CLIENTS,
        args.seed,
        WARMUP,
        Duration::from_secs(args.seconds),
        |rng| setup.target.run_once(rng),
        |mark| match mark {
            Mark::Start => start = setup.probe(),
            Mark::End => end = setup.probe(),
        },
    );
    let counts = counts(&run);

    // Correctness: the YTD invariant on the live data, then the WAL replay.
    let after = ytd_rows()?;
    let warehouses = setup.target.tpcc().params.warehouses as usize;
    let mut verdicts = vec![match bench::check_ytd(&before, &after, warehouses) {
        Ok(total) if total > 0 => Ok(format!(
            "W_YTD = sum of D_YTD on {warehouses} warehouses (+{total})"
        )),
        Ok(_) => Err("no payment reached the YTD rows".to_string()),
        Err(e) => Err(e),
    }];
    let recovery = bench::check_recovery(&setup.target, &after);
    let recovery_run = recovery.as_ref().ok().copied().flatten();
    match recovery {
        Ok(Some(rec)) => verdicts.push(Ok(format!(
            "recovered {} txns in {:.3} s; {} warehouse/district rows equal the live ones",
            rec.txns,
            rec.elapsed.as_secs_f64(),
            rec.rows_matched
        ))),
        Ok(None) => {}
        Err(e) => verdicts.push(Err(e)),
    }

    let e2e = end_to_end(&run, &counts, &start, &end, setup_s)?;
    let layers = per_layer(setup, &run, &counts, &start, &end, recovery_run)?;
    Ok(Measured {
        run,
        counts,
        verdicts,
        e2e,
        layers,
    })
}

fn print_report(args: &Args, setup_times: &[f64], m: &Measured) -> Result<(), String> {
    let (run, c) = (&m.run, &m.counts);
    println!(
        "workload {}  seed {}  trace {}  clients {CLIENTS}  window {:.3} s  set-ups {:?} s",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        run.window.as_secs_f64(),
        setup_times
            .iter()
            .map(|s| (s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    let by_type: Vec<String> = TIMED_TYPES
        .iter()
        .map(|&(ty, name)| {
            let n = run
                .units
                .iter()
                .filter(|u| u.committed && u.ty == ty)
                .count();
            format!("{name} {n}")
        })
        .collect();
    println!(
        "units attempted {}  committed {}  failed {}  failed_frac {:.6}  latency samples {} ({})",
        c.attempted,
        c.committed,
        c.failed,
        failed_frac(c.failed, c.attempted),
        c.committed,
        by_type.join(", ")
    );
    let mut per_second = vec![0u64; run.window.as_secs() as usize];
    for u in run.units.iter().filter(|u| u.committed) {
        let i = (u.ended - run.open).as_secs() as usize;
        if let Some(n) = per_second.get_mut(i) {
            *n += 1;
        }
    }
    println!("commits per second: {per_second:?}");
    println!(
        "peak RSS including the checks: {:.1} MiB",
        procfs::peak_rss_mb()
    );
    for verdict in &m.verdicts {
        match verdict {
            Ok(msg) => println!("check ok: {msg}"),
            Err(msg) => println!("check FAILED: {msg}"),
        }
    }
    let (shown, other) = if args.trace {
        (("per-layer", &m.layers), ("end-to-end", &m.e2e))
    } else {
        (("end-to-end", &m.e2e), ("per-layer", &m.layers))
    };
    for (heading, report) in [shown, other] {
        let note = if heading == shown.0 {
            ""
        } else {
            " (not in the result line)"
        };
        println!("{heading}{note}:");
        for (name, value, unit) in &report.metrics {
            println!("  {name:<48} {value:>16.4} {unit}");
        }
    }
    let correct = m.verdicts.iter().all(Result::is_ok);
    println!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        c.attempted,
        c.failed,
        shown.1.json()?
    );
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let dir = work_dir().map_err(|e| format!("work directory: {e}"))?;
    let wal_path = |i: usize| dir.join(format!("wal-{}-{i}.log", std::process::id()));

    let mut setup_times = Vec::with_capacity(SETUPS);
    let mut setup: Option<Setup> = None;
    for i in 0..SETUPS {
        if let Some(previous) = setup.take() {
            previous.target.teardown();
        }
        let started = Instant::now();
        let built =
            bench::setup(args.kind, args.trace, wal_path(i)).map_err(|e| format!("set-up: {e}"))?;
        setup_times.push(started.elapsed().as_secs_f64());
        setup = Some(built);
    }
    let setup = setup.expect("at least one set-up");
    let measured = measure(&setup, args, median(&setup_times));
    setup.target.teardown();
    print_report(args, &setup_times, &measured?)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
