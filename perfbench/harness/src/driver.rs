//! The benchmark's own closed-loop driver.
//!
//! Each client thread issues one `run_once`, waits for it, and issues the
//! next. Unlike the shared driver in `tebaldi-workloads`, this one keeps
//! every unit that gave up, takes the workload seed as an argument, and
//! counts only units that both started and finished inside the measured
//! window.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use tebaldi_storage::TxnTypeId;
use tebaldi_workloads::WorkUnit;

/// One closed-loop iteration as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct Unit {
    /// Transaction type.
    pub ty: TxnTypeId,
    /// True when the unit committed.
    pub committed: bool,
    /// Aborted attempts before the outcome.
    pub aborts: usize,
    /// Client-side latency, from the call to `run_once` until it returned.
    pub latency: Duration,
    /// When `run_once` returned.
    pub ended: Instant,
}

/// The boundaries of the measured window, handed to the caller's probe so
/// counters are read while the clients still run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mark {
    /// Warm-up is over; the window opens.
    Start,
    /// The window closes; clients are stopped only after this probe.
    End,
}

/// What one closed-loop run measured.
#[derive(Debug)]
pub struct LoopRun {
    /// Units inside the window, in no particular order.
    pub units: Vec<Unit>,
    /// When the window opened.
    pub open: Instant,
    /// When the window closed.
    pub close: Instant,
    /// Length of the window.
    pub window: Duration,
}

/// Seed of client `client` for workload seed `seed`: distinct per client,
/// the same on every run with that seed.
fn client_seed(seed: u64, client: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (client as u64 + 1)
}

/// Runs `clients` closed-loop clients over `run_once` for `warmup`, then
/// measures for `measure`, calling `probe` at both window boundaries.
pub fn closed_loop<F>(
    clients: usize,
    seed: u64,
    warmup: Duration,
    measure: Duration,
    run_once: F,
    mut probe: impl FnMut(Mark),
) -> LoopRun
where
    F: Fn(&mut StdRng) -> WorkUnit + Sync,
{
    let stop = AtomicBool::new(false);
    let opened: OnceLock<Instant> = OnceLock::new();
    let (run_once, stop_ref, opened_ref) = (&run_once, &stop, &opened);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(client_seed(seed, client));
                    let mut units = Vec::new();
                    while !stop_ref.load(Ordering::Relaxed) {
                        let started = Instant::now();
                        let unit = run_once(&mut rng);
                        let ended = Instant::now();
                        if opened_ref.get().is_some_and(|open| started >= *open) {
                            units.push(Unit {
                                ty: unit.ty,
                                committed: unit.committed,
                                aborts: unit.aborts,
                                latency: ended - started,
                                ended,
                            });
                        }
                    }
                    units
                })
            })
            .collect();

        std::thread::sleep(warmup);
        probe(Mark::Start);
        let open = Instant::now();
        opened.set(open).expect("the window opens once");
        std::thread::sleep(measure);
        let close = Instant::now();
        probe(Mark::End);
        stop.store(true, Ordering::Relaxed);

        let mut units = Vec::new();
        for handle in handles {
            let client_units = handle.join().expect("benchmark client panicked");
            units.extend(client_units.into_iter().filter(|u| u.ended <= close));
        }
        LoopRun {
            units,
            open,
            close,
            window: close - open,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn counts_failures_and_skips_warmup() {
        let run = closed_loop(
            2,
            7,
            Duration::from_millis(30),
            Duration::from_millis(60),
            |rng: &mut StdRng| {
                std::thread::sleep(Duration::from_millis(1));
                if rng.gen_bool(0.5) {
                    WorkUnit::committed(TxnTypeId(0), 0)
                } else {
                    WorkUnit::failed(TxnTypeId(1), 3)
                }
            },
            |_| {},
        );
        let failed = run.units.iter().filter(|u| !u.committed).count();
        assert!(failed > 0 && failed < run.units.len());
        // Two clients at ~1 ms per unit cannot fit warm-up units in 60 ms.
        assert!(run.units.len() <= 2 * 61, "{} units", run.units.len());
        assert!(run.window >= Duration::from_millis(60));
    }

    #[test]
    fn client_seeds_differ_and_repeat() {
        assert_ne!(client_seed(1, 0), client_seed(1, 1));
        assert_ne!(client_seed(1, 0), client_seed(2, 0));
        assert_eq!(client_seed(5, 1), client_seed(5, 1));
    }
}
