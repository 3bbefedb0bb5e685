//! Replays of a simulator run's recorded traffic into the layers it used:
//! lock requests and releases into `LockManager`, the same accesses and
//! commit/abort decisions into `Database`, and schedule+pop pairs into
//! `Scheduler`. Each call is timed from outside.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use carat_des::{splitmix64, Scheduler};
use carat_lock::{LockManager, LockMode, Outcome};
use carat_obs::{TraceEvent, TraceKind};
use carat_storage::{Database, RecordId};

/// Cost of an empty `Instant` pair, subtracted from per-call timings.
pub fn timer_overhead_ns() -> u64 {
    let mut best = u64::MAX;
    for _ in 0..2_000 {
        let t = Instant::now();
        let d = black_box(t).elapsed().as_nanos() as u64;
        best = best.min(d);
    }
    best
}

fn timed<R>(overhead: u64, acc: &mut u64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += (t.elapsed().as_nanos() as u64).saturating_sub(overhead);
    r
}

#[derive(Debug, Default, Clone)]
pub struct LockReplay {
    pub requests: u64,
    pub releases: u64,
    /// Requests that queued, over the whole run.
    pub blocks: u64,
    /// Requests that queued at or after the end of warm-up — the quantity
    /// the simulator reports as `lock_conflicts`.
    pub window_blocks: u64,
    pub request_ns: u64,
    pub release_ns: u64,
}

/// Replays lock traffic: every `LockRequest` is re-issued, a deadlock
/// victim's pending request is withdrawn, and a 2PC decision at a site
/// releases the transaction's locks there. Transactions are named by gid.
pub fn replay_locks(
    events: &[TraceEvent],
    sites: usize,
    warmup_ms: f64,
    overhead: u64,
) -> LockReplay {
    let mut lms: Vec<LockManager> = (0..sites).map(|_| LockManager::new()).collect();
    let mut woken = Vec::new();
    let mut r = LockReplay::default();
    for ev in events {
        let node = ev.node as usize;
        match ev.kind {
            TraceKind::LockRequest => {
                let mode = if ev.name == "X" {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                let out = timed(overhead, &mut r.request_ns, || {
                    lms[node].request(ev.gid, ev.a as u32, mode)
                });
                r.requests += 1;
                if out == Outcome::Queued {
                    r.blocks += 1;
                    if ev.t_ms >= warmup_ms {
                        r.window_blocks += 1;
                    }
                }
            }
            TraceKind::DeadlockVictim => {
                // The victim's pending request is withdrawn where it waits:
                // at the event's site when it waits there (gids of the
                // per-site decomposed engine repeat across sites), else at
                // the one site it waits on (a victim traced at its home).
                let at = if lms[node].waiting_block(ev.gid).is_some() {
                    Some(node)
                } else {
                    lms.iter().position(|lm| lm.waiting_block(ev.gid).is_some())
                };
                if let Some(site) = at {
                    woken.clear();
                    lms[site].cancel_request_into(ev.gid, &mut woken);
                }
            }
            TraceKind::TwopcDecide => {
                woken.clear();
                timed(overhead, &mut r.release_ns, || {
                    lms[node].release_all_into(ev.gid, &mut woken)
                });
                r.releases += 1;
            }
            _ => {}
        }
    }
    r
}

#[derive(Debug, Default, Clone)]
pub struct StorageReplay {
    pub ops: u64,
    pub errors: u64,
    pub ns: u64,
    pub journal_bytes: u64,
}

/// Replays the same traffic into one `Database` per site: a transaction
/// begins at its first lock request at a site, an X request writes a
/// record of the block, an S request reads one, and the 2PC decision
/// commits or rolls back.
pub fn replay_storage(
    events: &[TraceEvent],
    sites: usize,
    n_granules: u32,
    overhead: u64,
) -> StorageReplay {
    let mut dbs: Vec<Database> = (0..sites)
        .map(|_| {
            let mut db = Database::new(n_granules);
            db.load_default();
            db
        })
        .collect();
    let mut begun: BTreeSet<(u32, u64)> = BTreeSet::new();
    let mut r = StorageReplay::default();
    let mut value = String::new();
    for ev in events {
        let db = &mut dbs[ev.node as usize];
        let gid = ev.gid;
        match ev.kind {
            TraceKind::LockRequest => {
                if begun.insert((ev.node, gid)) {
                    r.ops += 1;
                    r.errors += timed(overhead, &mut r.ns, || db.begin(gid)).is_err() as u64;
                }
                let rid = RecordId {
                    block: ev.a as u32,
                    slot: 0,
                };
                r.ops += 1;
                let ok = if ev.name == "X" {
                    value.clear();
                    value.push('g');
                    value.push_str(&gid.to_string());
                    timed(overhead, &mut r.ns, || {
                        db.update_record(gid, rid, value.as_bytes())
                    })
                    .is_ok()
                } else {
                    timed(overhead, &mut r.ns, || db.touch_record(gid, rid)).is_ok()
                };
                r.errors += !ok as u64;
            }
            TraceKind::TwopcDecide if begun.remove(&(ev.node, gid)) => {
                r.ops += 1;
                let ok = if ev.name == "commit" {
                    timed(overhead, &mut r.ns, || db.commit(gid)).is_ok()
                } else {
                    timed(overhead, &mut r.ns, || db.rollback(gid)).is_ok()
                };
                r.errors += !ok as u64;
            }
            _ => {}
        }
    }
    r.journal_bytes = dbs.iter().map(|d| d.journal().len_bytes() as u64).sum();
    r
}

/// Replays `events` schedule+pop pairs into a `Scheduler` held at `depth`
/// pending events; returns the elapsed ns of the pairs.
pub fn replay_scheduler(events: u64, depth: usize, seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut delay = || {
        x = splitmix64(x);
        // Exponential inter-event delays with a 10 ms mean.
        -10.0 * (((x >> 11) as f64 + 0.5) / (1u64 << 53) as f64).ln()
    };
    let delays: Vec<f64> = (0..events).map(|_| delay()).collect();
    let mut s: Scheduler<u64> = Scheduler::new();
    for i in 0..depth.max(1) {
        s.schedule(delay(), i as u64);
    }
    let t = Instant::now();
    for d in &delays {
        let (at, ev) = s.pop().expect("the heap is held at its depth");
        s.schedule(at + d, black_box(ev));
    }
    t.elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_workload::TxType;

    fn ev(t: f64, kind: TraceKind, name: &'static str, node: u32, gid: u64, a: u64) -> TraceEvent {
        TraceEvent::new(t, kind, name, node, gid, TxType::Lu).detail(a)
    }

    #[test]
    fn lock_replay_counts_blocks_in_the_window_and_releases_on_decide() {
        let evs = [
            ev(1.0, TraceKind::LockRequest, "X", 0, 1, 7),
            ev(2.0, TraceKind::LockRequest, "X", 0, 2, 7), // blocks before warm-up ends
            ev(3.0, TraceKind::DeadlockVictim, "deadlock", 0, 2, 7),
            ev(4.0, TraceKind::LockRequest, "S", 0, 3, 7), // blocks in the window
            ev(5.0, TraceKind::TwopcDecide, "commit", 0, 1, 0),
            ev(6.0, TraceKind::LockRequest, "S", 0, 4, 7), // granted: 3 now holds S
        ];
        let r = replay_locks(&evs, 1, 3.5, 0);
        assert_eq!(
            (r.requests, r.blocks, r.window_blocks, r.releases),
            (4, 2, 1, 1)
        );
    }

    #[test]
    fn storage_replay_begins_writes_and_commits() {
        let evs = [
            ev(1.0, TraceKind::LockRequest, "X", 0, 1, 3),
            ev(2.0, TraceKind::LockRequest, "S", 0, 1, 4),
            ev(3.0, TraceKind::TwopcDecide, "commit", 0, 1, 0),
            ev(4.0, TraceKind::TwopcDecide, "abort", 0, 9, 0), // never began here
        ];
        let r = replay_storage(&evs, 1, 16, 0);
        assert_eq!((r.ops, r.errors), (4, 0));
        assert!(r.journal_bytes > 0);
    }

    #[test]
    fn scheduler_replay_runs_every_pair() {
        assert!(replay_scheduler(1_000, 8, 3) > 0);
    }
}
