//! The site-LP engine: one run as one logical process (LP) per site,
//! synchronized conservatively through the `carat_des::shard` horizon
//! machinery and executed on `SimConfig::shards` worker threads.
//!
//! ## The conservative site-LP driver
//!
//! Each LP is a `Sim` against the full topology that executes only its
//! own site's events: peer node states stay inert, and every cross-site
//! interaction — a transaction's `Op::Net` hop, a Chandy–Misra–Haas
//! probe, a remote DM release — travels as a timestamped `XMsg` to the
//! receiving LP. Every cross-site effect takes exactly one network delay,
//! so α is an exact lookahead: an LP whose next event is at `t` cannot
//! deliver anything to a peer before `t + α`.
//!
//! Each worker thread owns a contiguous block of LPs and runs it as one
//! *sequential schedule*: it repeatedly steps its live LP with the
//! earliest next event up to that LP's exact horizon
//! `min(external horizon, next_j + α over the block's other LPs j,
//! own next + 2α)`, and hands messages between its own LPs straight to
//! the receiver's inbox. Only sites owned by *other* threads go through
//! the clock board ([`HorizonClock::block_horizon`]) and the
//! [`ShardChannel`]s; the thread publishes one promise per round,
//! `min(next event, external horizon)` for each of its sites, and
//! re-publishing after an eventless round is the demand-driven *null
//! message* (counted in `carat_obs::shardstats`, never in the report).
//! With `--shards 1` one block holds every LP: there is no external
//! horizon, so the run takes no lock and sends no null message.
//!
//! A configuration is *site-separable* ([`decomposable`]) when no event at
//! one site can ever influence another: every user is local-only, and
//! there are no crashes, faults, partitions, or replication. No message
//! can then cross sites, so the lookahead is `+∞`: every horizon is
//! unbounded and each LP runs to the end of the window in one step.
//! Site-separable and cross-site runs share one driver, one merge
//! (`absorb` + [`Tracer::merge_ordered`] /
//! [`MetricsRecorder::merge_ordered`]) and one budget-trip rule.
//!
//! An LP retires — its site's journal is released — as soon as
//! `min(next, horizon) > warmup + measure`, or when its event budget trips
//! (its already-emitted messages are still delivered, so the trip point is
//! schedule-independent). A stopped LP promises `+∞`.
//!
//! Crashes, faults, partitions, and replication force the monolithic
//! loop: their cross-site effects (instant failover, zero-delay timeout
//! scans) have no positive lookahead. So do cross-site runs with α = 0,
//! and 2PL runs with update users and instant global deadlock detection
//! (see [`coupled_eligible`]).
//!
//! ## The determinism contract
//!
//! Which engine runs — the site-LP driver or the monolithic loop — and the
//! LP lookahead are functions of the configuration *excluding* `shards`.
//! Every LP is seeded by a pure function of `(seed, site)`, and its merged
//! stream — local calendar ∪ inbox, inbox first on timestamp ties, the
//! inbox ordered by `(time, sender, per-sender seq)` — is therefore fixed
//! by the configuration, *provided* no message reaches an LP after it
//! processed an event at or past the message's timestamp. Any schedule
//! that respects that causality rule reproduces every stream, and with it
//! every byte, because the merge folds LPs in site order.
//!
//! The horizons are what make each schedule causal. Between threads, a
//! message not yet visible when a thread reads external horizon `H`
//! carries a timestamp ≥ `H` (senders flush channels before publishing).
//! Within a block, the LP being stepped is bounded by `next_j + α` for
//! every other LP `j`, which covers everything `j` can still send it, and
//! by its own `next + 2α`: a message it sends during the step reaches a
//! peer no earlier than `next + α`, and the reply comes back no earlier
//! than `next + 2α`. Longer relay chains only arrive later. So the shard
//! count only chooses how the fixed LPs are grouped into schedules — one
//! for `--shards 1` — and the report, trace and metrics are byte-identical
//! for every `shards` value, which the CI shard-determinism gates and the
//! `tests/fixtures/lp_golden.txt` fingerprints enforce.
//!
//! Merge semantics (DESIGN.md §14.2): `absorb` swaps each LP's real node
//! state into LP 0 and pools its statistics, and a single wind-down
//! assembles the report. High-water marks (`sched_heap_hwm`, `slab_hwm`,
//! `slab_slots_hwm`) are per-LP maxima; everything else is computed once
//! from the pooled state.

use std::sync::Mutex;
use std::time::Instant;

use carat_des::shard::{HorizonClock, ShardChannel, SiteShardMap};
use carat_des::{splitmix64, Time};
use carat_obs::{shardstats, MetricsRecorder, Tracer};

use crate::config::{CcProtocol, DeadlockMode, SimConfig};
use crate::engine::{Sim, SimError, XMsg};
use crate::report::SimReport;

/// Whether `cfg` is site-separable (see the module docs): its LPs run with
/// unbounded lookahead. A pure function of the configuration excluding
/// [`SimConfig::shards`], so the engine choice — and with it every report
/// byte — cannot depend on the shard count.
pub fn decomposable(cfg: &SimConfig) -> bool {
    cfg.params.sites() >= 2
        && cfg.workload.sites() == cfg.params.sites()
        && cfg.crashes.is_empty()
        && !cfg.fault_plan.is_active()
        && !cfg.partition_plan.is_active()
        && cfg.partition_plan.replication == 1
        && cfg
            .workload
            .users
            .iter()
            .flatten()
            .all(|&(ty, count)| count == 0 || !ty.is_distributed())
}

/// Whether `cfg` runs the coupled conservative engine (see the module
/// docs). Like [`decomposable`] this is a pure function of the
/// configuration excluding [`SimConfig::shards`], so the engine choice —
/// and with it every report byte — cannot depend on the shard count.
/// The two predicates are disjoint: site separability requires every user
/// to be local-only, coupling requires at least one distributed user.
///
/// Requirements beyond [`decomposable`]'s failure-free topology:
///
/// * at least one DRO/DU user — otherwise nothing crosses sites and the
///   run is site-separable instead;
/// * `comm_delay_ms > 0` — α is the conservative lookahead; α = 0 (the
///   validation default) leaves no safe window and stays monolithic;
/// * under two-phase locking with update users, deadlock detection must
///   use [`DeadlockMode::Probes`]: `InstantGlobal` searches the union of
///   all sites' wait-for graphs in zero time, which has no message-passing
///   equivalent. Read-only 2PL mixes never block and thus never detect,
///   so either mode couples.
pub fn coupled_eligible(cfg: &SimConfig) -> bool {
    let distributed = cfg
        .workload
        .users
        .iter()
        .flatten()
        .any(|&(ty, count)| count > 0 && ty.is_distributed());
    let updates = cfg
        .workload
        .users
        .iter()
        .flatten()
        .any(|&(ty, count)| count > 0 && ty.is_update());
    let deadlock_ok = cfg.cc != CcProtocol::TwoPhaseLocking
        || cfg.deadlock_mode == DeadlockMode::Probes
        || !updates;
    cfg.params.sites() >= 2
        && cfg.workload.sites() == cfg.params.sites()
        && cfg.params.comm_delay_ms > 0.0
        && cfg.crashes.is_empty()
        && !cfg.fault_plan.is_active()
        && !cfg.partition_plan.is_active()
        && cfg.partition_plan.replication == 1
        && distributed
        && deadlock_ok
}

/// Whether `cfg` runs on the site-LP driver: site-separable
/// ([`decomposable`], lookahead `+∞`) or coupled-eligible
/// ([`coupled_eligible`], lookahead α). Everything else runs the
/// monolithic loop.
pub(crate) fn runs_on_lps(cfg: &SimConfig) -> bool {
    decomposable(cfg) || coupled_eligible(cfg)
}

/// The workload seed of `site`'s LP for a run with base seed `base`.
///
/// Double-mixed rather than `base ^ splitmix64(site)` so site streams can
/// never collide with the replication harness's `rep_seed(base, rep) =
/// base ^ splitmix64(rep)` family: replication r of site s must not share
/// a stream with replication s of site r.
pub fn site_seed(base: u64, site: usize) -> u64 {
    splitmix64(splitmix64(base).wrapping_add(site as u64 + 1))
}

/// Splits the run's event budget into per-site shares that sum to the
/// budget exactly when `budget >= sites` (quotient plus one extra for the
/// first `budget % sites` sites). `0` stays "no budget"; a positive
/// budget smaller than the site count rounds every share up to 1 — a
/// zero share would mean *unlimited* — so such degenerate budgets bind
/// at `sites` events rather than `budget` (documented in DESIGN.md
/// §14.3).
fn budget_shares(budget: u64, sites: usize) -> Vec<u64> {
    if budget == 0 {
        return vec![0; sites];
    }
    let n = sites as u64;
    let (q, r) = (budget / n, budget % n);
    (0..n).map(|i| (q + u64::from(i < r)).max(1)).collect()
}

/// The instrumented result triple of one whole run: report, lifecycle
/// tracer, metrics recorder.
pub(crate) type RunOutput = (SimReport, Option<Tracer>, Option<MetricsRecorder>);

/// One site-LP's end state: its site index, the `Sim`, and the virtual
/// time at which its event budget tripped (`None` when it ran to the
/// end).
type LpOutcome = (usize, Sim, Option<Time>);

/// Runs a site-separable or coupled-eligible configuration as one logical
/// process per site with lookahead α (`+∞` when site-separable), on
/// `cfg.shards` worker threads (clamped to the site count), synchronized
/// conservatively between threads through [`HorizonClock`] /
/// [`ShardChannel`]. The caller (`Sim::run_checked_instrumented`) has
/// already validated `cfg` and checked [`decomposable`] or
/// [`coupled_eligible`].
pub(crate) fn run_coupled(cfg: SimConfig) -> Result<RunOutput, SimError> {
    let sites = cfg.params.sites();
    let shards = cfg.shards.min(sites).max(1);
    let budget = cfg.max_events;
    let alpha = if decomposable(&cfg) {
        f64::INFINITY
    } else {
        cfg.params.comm_delay_ms
    };
    let end = cfg.warmup_ms + cfg.measure_ms;
    let tracing = cfg.trace.is_some();
    let metrics_on = cfg.metrics.is_some();
    let shares = budget_shares(budget, sites);

    let mut lps: Vec<(usize, Sim)> = (0..sites)
        .map(|s| {
            let mut sub = cfg.clone();
            sub.max_events = shares[s];
            sub.shards = 1;
            let mut lp = Sim::new_lp(sub, s).expect("an LP of a validated config is valid");
            lp.lp_prime();
            (s, lp)
        })
        .collect();

    // The synchronization state between worker threads: the clock board
    // (one published promise per LP) and one FIFO channel per ordered
    // (from, to) pair. Both are mutex-guarded; the locks also provide the
    // happens-before edges the completeness argument in the module docs
    // relies on (a sender flushes its channel entries *before* publishing
    // the clock that makes them drainable). A block that owns every site
    // (`shards == 1`) never touches either.
    let clock = Mutex::new(HorizonClock::new(sites, alpha));
    let channels: Vec<Mutex<ShardChannel<XMsg>>> = (0..sites * sites)
        .map(|_| Mutex::new(ShardChannel::new()))
        .collect();

    let mut outcomes: Vec<LpOutcome> = if shards == 1 {
        run_lp_block(lps, &clock, &channels, sites, alpha, end)
    } else {
        // Balanced contiguous blocks, one worker thread each; every
        // thread runs its own LPs as one sequential schedule and meets
        // the others only at the clock board and the channels.
        let map = SiteShardMap::contiguous(sites, shards);
        let mut blocks: Vec<Vec<(usize, Sim)>> = Vec::with_capacity(shards);
        let mut it = lps.drain(..);
        for s in 0..shards {
            blocks.push(it.by_ref().take(map.sites_of(s).len()).collect());
        }
        drop(it);
        std::thread::scope(|scope| {
            let handles: Vec<_> = blocks
                .into_iter()
                .map(|block| {
                    let (clock, channels) = (&clock, &channels);
                    scope.spawn(move || run_lp_block(block, clock, channels, sites, alpha, end))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("LP shard thread panicked"))
                .collect()
        })
    };
    outcomes.sort_by_key(|&(site, _, _)| site);

    let first_trip = outcomes
        .iter()
        .filter_map(|(_, _, trip)| *trip)
        .fold(f64::INFINITY, f64::min);

    // Tracers come out *before* the absorb pass, in site order: the trace
    // merge is part order + stable time sort, so collection order must be
    // a pure function of the configuration.
    let tracers: Vec<Tracer> = if tracing {
        outcomes
            .iter_mut()
            .map(|(_, lp, _)| lp.take_tracer().expect("tracing was configured"))
            .collect()
    } else {
        Vec::new()
    };

    // Metrics likewise: each LP's recorder holds only its own site's
    // samples (already site-tagged); the merge moves the logs in part
    // order and interleaves their boundary rows, a pure function of the
    // configuration.
    let metrics = if metrics_on {
        let parts: Vec<MetricsRecorder> = outcomes
            .iter_mut()
            .map(|(_, lp, _)| lp.take_metrics().expect("metrics were configured"))
            .collect();
        Some(MetricsRecorder::merge_ordered(parts))
    } else {
        None
    };

    // Fold LPs 1..n into LP 0 in site order, then wind down once so
    // utilization windows and phase-total rounding happen exactly once.
    let mut it = outcomes.into_iter();
    let (_, mut primary, _) = it.next().expect("the LP driver requires >= 2 sites");
    for (_, lp, _) in it {
        primary.absorb(lp);
    }
    let report = primary.wind_down(end);

    if first_trip.is_finite() {
        // The error reports the *configured* budget and the earliest
        // per-LP trip instant, both schedule- and shard-count-independent.
        return Err(SimError::EventBudgetExhausted {
            budget,
            sim_time_ms: first_trip,
            partial: Box::new(report),
            partial_metrics: metrics.map(Box::new),
        });
    }
    let tracer = if tracers.is_empty() {
        None
    } else {
        Some(Tracer::merge_ordered(tracers))
    };
    Ok((report, tracer, metrics))
}

/// Runs one worker thread's block of LPs (a contiguous site range) until
/// all have retired, in rounds. Each round reads the external horizon —
/// how far the sites owned by *other* threads let this block run — once
/// from the clock board, drains their channels below it, and then runs
/// the block as one sequential schedule: always step the live LP with the
/// earliest next event, up to its exact horizon ([`block_step_horizon`]),
/// delivering messages between this block's LPs straight into the
/// receiver's inbox. The round ends when every live LP's next event is at
/// or past the external horizon; the block then publishes
/// `min(next, external horizon)` for each of its sites. A block that owns
/// every site (`--shards 1`) has no external horizon: it runs in one round
/// and touches neither the clock board nor a channel.
///
/// Wall-clock busy/stall time, null advances and cross-thread message
/// counts go to the process-global `shardstats` registry — never into the
/// `Sim`s.
fn run_lp_block(
    block: Vec<(usize, Sim)>,
    clock: &Mutex<HorizonClock>,
    channels: &[Mutex<ShardChannel<XMsg>>],
    sites: usize,
    alpha: Time,
    end: Time,
) -> Vec<LpOutcome> {
    let mut lps = block;
    let n = lps.len();
    let own = lps[0].0..lps[0].0 + n;
    let external = n < sites;
    let mut live = vec![true; n];
    let mut trips: Vec<Option<Time>> = vec![None; n];
    // Next event time per LP (+∞ once it stopped): exact, because an LP's
    // next event moves only when it steps or ingests a message.
    let mut nexts: Vec<Time> = lps.iter().map(|(_, lp)| lp.lp_next_time()).collect();
    let mut outbox: Vec<(usize, Time, XMsg)> = Vec::new();
    let (mut busy_ns, mut stall_ns) = (0u64, 0u64);
    let (mut nulls, mut msgs) = (0u64, 0u64);
    // Progress guard: if the *global* minimum clock stops advancing for a
    // long stretch of fruitless rounds, the protocol is wedged (which the
    // lookahead argument proves impossible) — fail loudly instead of
    // spinning forever.
    let mut last_min = -1.0f64;
    let mut stuck_since: Option<Instant> = None;

    while live.contains(&true) {
        let round_start = Instant::now();
        let mut progressed = false;
        let ext_horizon = if external {
            let h = clock.lock().expect("clock lock").block_horizon(own.clone());
            for (i, (site, lp)) in lps.iter_mut().enumerate() {
                if !live[i] {
                    continue;
                }
                for from in (0..sites).filter(|f| !own.contains(f)) {
                    channels[from * sites + *site]
                        .lock()
                        .expect("channel lock")
                        .drain_into(h, |t, msg| {
                            lp.lp_ingest(from, t, msg);
                            nexts[i] = nexts[i].min(t);
                            progressed = true;
                        });
                }
            }
            h
        } else {
            f64::INFINITY
        };

        let mut stepped = false;
        // The sequential schedule. Every LP is judged against the exact
        // horizon of the block as it stands; the earliest live LP can
        // always step unless its next event is at or past the external
        // horizon, so the loop ends only then (or when all retired).
        while let Some(i) = (0..n)
            .filter(|&i| live[i])
            .min_by(|&a, &b| nexts[a].total_cmp(&nexts[b]))
        {
            let h = block_step_horizon(&nexts, i, alpha, ext_horizon);
            if nexts[i].min(h) <= end {
                if nexts[i] >= h {
                    break;
                }
                let (site, lp) = &mut lps[i];
                let before = lp.lp_events();
                let trip = lp.lp_step_until(h, end);
                stepped |= lp.lp_events() > before;
                // Flush even on a trip: everything emitted before the
                // budget ran out must still reach its peers, or their
                // streams would depend on *when* the trip was noticed.
                lp.lp_drain_outbox(|to, t, msg| outbox.push((to, t, msg)));
                nexts[i] = lp.lp_next_time();
                let from = *site;
                for (to, t, msg) in outbox.drain(..) {
                    if own.contains(&to) {
                        let j = to - own.start;
                        // A stopped LP never runs again: drop its mail.
                        if live[j] {
                            lps[j].1.lp_ingest(from, t, msg);
                            nexts[j] = nexts[j].min(t);
                        }
                    } else {
                        channels[from * sites + to]
                            .lock()
                            .expect("channel lock")
                            .send(t, msg);
                        msgs += 1;
                    }
                }
                if let Some(t) = trip {
                    trips[i] = Some(t);
                    live[i] = false;
                    nexts[i] = f64::INFINITY;
                    continue;
                }
                // Retire as soon as the LP is done, not at the end of the
                // round: retirement releases the site's journal.
                if nexts[i] <= end || block_step_horizon(&nexts, i, alpha, ext_horizon) <= end {
                    continue;
                }
            }
            // Here `min(next, horizon) > end` — for the earliest LP, or for
            // the one just stepped: every boundary <= end is final, since
            // anything still to come here is timestamped past `end`.
            lps[i].1.lp_retire(end);
            live[i] = false;
            nexts[i] = f64::INFINITY;
            progressed = true;
        }

        if external {
            let mut board = clock.lock().expect("clock lock");
            let mut opened = false;
            for (i, (site, _)) in lps.iter().enumerate() {
                // A stopped LP never sends again: it promises +∞.
                let promise = if live[i] {
                    nexts[i].min(ext_horizon)
                } else {
                    f64::INFINITY
                };
                opened |= promise > board.clock(*site);
                board.advance(*site, promise);
            }
            progressed |= opened;
            if opened && !stepped && live.contains(&true) {
                // An eventless round whose promise still opened peers'
                // horizons: the demand-driven null message.
                nulls += 1;
            }
        }
        let spent = round_start.elapsed().as_nanos() as u64;
        if stepped {
            progressed = true;
            busy_ns += spent;
        } else {
            stall_ns += spent;
        }
        if progressed {
            stuck_since = None;
        } else {
            let min_clock = {
                let board = clock.lock().expect("clock lock");
                (0..sites)
                    .map(|s| board.clock(s))
                    .fold(f64::INFINITY, f64::min)
            };
            if min_clock > last_min {
                last_min = min_clock;
                stuck_since = None;
            } else if stuck_since
                .get_or_insert_with(Instant::now)
                .elapsed()
                .as_secs()
                >= 60
            {
                panic!(
                    "site-LP driver: no global clock progress for 60s \
                     (min clock {min_clock} ms, end {end} ms) — conservative \
                     protocol wedged"
                );
            }
            std::thread::yield_now();
        }
    }

    shardstats::add_busy_ns(busy_ns);
    shardstats::add_stall_ns(stall_ns);
    shardstats::add_null_advances(nulls);
    shardstats::add_messages(msgs);
    lps.into_iter()
        .zip(trips)
        .map(|((site, lp), trip)| (site, lp, trip))
        .collect()
}

/// The exact horizon of LP `i` within a block: nothing can still reach it
/// strictly below `min(external horizon, next_j + α for every other LP j
/// of the block, next_i + 2α)`. A message takes exactly α, so another LP
/// `j` cannot deliver before `next_j + α`, and a reply to anything `i`
/// itself sends cannot arrive before `next_i + 2α` — the cap that keeps
/// an LP whose peers are idle from running past the return of its own
/// message. `nexts` holds `+∞` for stopped LPs.
fn block_step_horizon(nexts: &[Time], i: usize, alpha: Time, ext_horizon: Time) -> Time {
    let others = nexts
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(_, &t)| t)
        .fold(f64::INFINITY, f64::min);
    ext_horizon.min(others + alpha).min(nexts[i] + 2.0 * alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FaultPlan, SplitSpec};
    use carat_workload::StandardWorkload;

    fn lb8(sites: usize) -> SimConfig {
        let mut cfg = SimConfig::new(StandardWorkload::Lb8.spec(sites), 8, 7);
        cfg.params = carat_workload::SystemParams::with_sites(sites);
        cfg.warmup_ms = 2_000.0;
        cfg.measure_ms = 20_000.0;
        cfg
    }

    #[test]
    fn eligibility_is_a_pure_function_of_the_config_without_shards() {
        let mut cfg = lb8(4);
        assert!(decomposable(&cfg));
        cfg.shards = 4;
        assert!(decomposable(&cfg), "shard count must not matter");

        // Any distributed user couples the sites.
        let mb = SimConfig::new(StandardWorkload::Mb4.spec(2), 8, 7);
        assert!(!decomposable(&mb));

        // Single site: nothing to decompose.
        let mut solo = lb8(4);
        solo.params = carat_workload::SystemParams::with_sites(1);
        solo.workload = StandardWorkload::Lb8.spec(1);
        assert!(!decomposable(&solo));

        // Crashes, faults, and partitions couple sites.
        let mut crash = lb8(4);
        crash.crashes.push((1_000.0, 0));
        assert!(!decomposable(&crash));
        let mut faulty = lb8(4);
        faulty.fault_plan = FaultPlan {
            timeout_ms: 50.0,
            max_retries: 3,
            ..FaultPlan::default()
        };
        assert!(!decomposable(&faulty));
        let mut split = lb8(4);
        split.fault_plan = FaultPlan {
            timeout_ms: 50.0,
            max_retries: 3,
            ..FaultPlan::default()
        };
        split.partition_plan.splits.push(SplitSpec {
            at_ms: 0.0,
            heal_ms: 1_000.0,
            groups: vec![0, 0, 1, 1],
        });
        assert!(!decomposable(&split));
        let mut replicated = lb8(4);
        replicated.partition_plan.replication = 2;
        assert!(!decomposable(&replicated));
    }

    #[test]
    fn site_seeds_avoid_the_replication_seed_family() {
        // rep_seed(base, r) = base ^ splitmix64(r); site streams must not
        // land in that family (rep 3 of site 0 vs rep 0 of site 3).
        let base = 7u64;
        for site in 0..64usize {
            for rep in 0..64u64 {
                assert_ne!(
                    site_seed(base, site),
                    base ^ splitmix64(rep),
                    "site {site} collides with replication {rep}"
                );
            }
        }
        let seeds: std::collections::HashSet<u64> = (0..1000).map(|s| site_seed(base, s)).collect();
        assert_eq!(seeds.len(), 1000, "site seeds must not collide");
    }

    #[test]
    fn budget_shares_sum_to_the_budget_and_never_become_unlimited() {
        assert_eq!(budget_shares(0, 4), vec![0; 4], "no budget stays no budget");
        assert_eq!(budget_shares(100, 4), vec![25; 4]);
        // Remainders spread one extra event over the leading sites so the
        // shares sum to the budget exactly.
        assert_eq!(budget_shares(103, 4), vec![26, 26, 26, 25]);
        assert_eq!(budget_shares(103, 4).iter().sum::<u64>(), 103);
        for (budget, sites) in [(7u64, 3usize), (4_000, 4), (101, 8), (9, 9)] {
            assert_eq!(
                budget_shares(budget, sites).iter().sum::<u64>(),
                budget,
                "budget {budget} over {sites} sites must split exactly"
            );
        }
        // A positive budget below the site count still binds everywhere: a
        // zero share would mean unlimited, so shares clamp to 1 and the
        // effective budget rounds up to the site count.
        assert_eq!(budget_shares(3, 8), vec![1; 8], "a tiny budget still binds");
    }

    #[test]
    fn reports_are_identical_for_every_shard_count() {
        let run = |shards: usize| {
            let mut cfg = lb8(4);
            cfg.shards = shards;
            Sim::new(cfg).expect("valid").run()
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        let eight = run(8); // more shards than sites: clamped
        assert_eq!(one, two);
        assert_eq!(one, four);
        assert_eq!(one, eight);
        assert_eq!(one.nodes.len(), 4);
        assert!(one.total_tx_per_s() > 0.0, "the merged run did real work");
    }

    #[test]
    fn merged_report_attributes_work_to_every_site() {
        let mut cfg = lb8(4);
        cfg.shards = 2;
        let report = Sim::new(cfg).expect("valid").run();
        for (i, node) in report.nodes.iter().enumerate() {
            assert!(node.tx_per_s > 0.0, "site {i} committed nothing");
            assert!(!node.per_type.is_empty(), "site {i} lost its type rows");
        }
        assert!(report.lock_requests > 0);
        assert_eq!(report.counters.get("events_total"), report.events);
        assert_eq!(report.audit_violations, 0);
    }

    #[test]
    fn budget_trip_is_shard_count_independent_and_well_formed() {
        let run = |shards: usize| {
            let mut cfg = lb8(4);
            cfg.max_events = 4_000; // trips mid-run: a full run needs more
            cfg.shards = shards;
            Sim::new(cfg).expect("valid").run_checked()
        };
        let extract = |r: Result<SimReport, SimError>| match r {
            Err(SimError::EventBudgetExhausted {
                budget,
                sim_time_ms,
                partial,
                ..
            }) => (budget, sim_time_ms, partial),
            Ok(_) => panic!("budget must trip"),
        };
        let (b1, t1, p1) = extract(run(1));
        let (b2, t2, p2) = extract(run(2));
        let (b4, t4, p4) = extract(run(4));
        assert_eq!(b1, 4_000, "the error reports the configured budget");
        assert_eq!((b1, t1), (b2, t2));
        assert_eq!((b1, t1), (b4, t4));
        assert_eq!(p1, p2);
        assert_eq!(p1, p4);
        // Partial reports stay well-formed: every site present, counters
        // consistent with the event total.
        assert_eq!(p1.nodes.len(), 4);
        assert_eq!(p1.counters.get("events_total"), p1.events);
        assert!(p1.events <= 4_000);
    }

    /// A coupled-eligible fixture: the paper's mixed workload (per node:
    /// 1 LRO + 1 LU + 1 DRO + 1 DU) with a positive network delay and
    /// probe-based global deadlock detection.
    fn mb4x(sites: usize) -> SimConfig {
        let mut cfg = SimConfig::new(StandardWorkload::Mb4.spec(sites), 8, 11);
        cfg.params = carat_workload::SystemParams::with_sites(sites);
        cfg.params.comm_delay_ms = 5.0;
        cfg.deadlock_mode = DeadlockMode::Probes;
        cfg.warmup_ms = 1_000.0;
        cfg.measure_ms = 8_000.0;
        cfg
    }

    #[test]
    fn coupled_eligibility_requires_alpha_probes_and_distributed_users() {
        let mut cfg = mb4x(4);
        assert!(coupled_eligible(&cfg));
        cfg.shards = 4;
        assert!(coupled_eligible(&cfg), "shard count must not matter");
        assert!(
            !decomposable(&cfg),
            "the site-separable and coupled predicates are disjoint"
        );

        // α = 0 (the validation default) leaves no conservative window.
        let mut zero_alpha = mb4x(4);
        zero_alpha.params.comm_delay_ms = 0.0;
        assert!(!coupled_eligible(&zero_alpha));

        // Local-only workloads have nothing to couple (they decompose).
        let local = lb8(4);
        assert!(!coupled_eligible(&local) && decomposable(&local));

        // 2PL + instant-global detection has no message-passing
        // equivalent when updates can block…
        let mut instant = mb4x(4);
        instant.deadlock_mode = DeadlockMode::InstantGlobal;
        assert!(!coupled_eligible(&instant));
        // …but timestamp ordering never consults the wait-for graph.
        let mut tso = instant.clone();
        tso.cc = CcProtocol::TimestampOrdering;
        assert!(coupled_eligible(&tso));

        // Failure machinery still forces the monolithic loop.
        let mut crash = mb4x(4);
        crash.crashes.push((1_000.0, 0));
        assert!(!coupled_eligible(&crash));
        let mut replicated = mb4x(4);
        replicated.partition_plan.replication = 2;
        assert!(!coupled_eligible(&replicated));
        let mut solo = mb4x(1);
        solo.params = carat_workload::SystemParams::with_sites(1);
        solo.workload = StandardWorkload::Mb4.spec(1);
        assert!(!coupled_eligible(&solo));
    }

    #[test]
    fn coupled_reports_are_identical_for_every_shard_count() {
        let run = |shards: usize| {
            let mut cfg = mb4x(4);
            cfg.shards = shards;
            Sim::new(cfg).expect("valid").run()
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        let eight = run(8); // more shards than sites: clamped
        assert_eq!(one, two);
        assert_eq!(one, four);
        assert_eq!(one, eight);
        assert_eq!(one.nodes.len(), 4);
        assert!(one.total_tx_per_s() > 0.0, "the coupled run did real work");
        assert!(one.net_messages > 0, "cross-site traffic actually flowed");
    }

    #[test]
    fn coupled_tso_reports_are_identical_for_every_shard_count() {
        let run = |shards: usize| {
            let mut cfg = mb4x(3);
            cfg.cc = CcProtocol::TimestampOrdering;
            cfg.measure_ms = 5_000.0;
            cfg.shards = shards;
            Sim::new(cfg).expect("valid").run()
        };
        let one = run(1);
        let three = run(3);
        assert_eq!(one, three);
        assert!(one.net_messages > 0);
    }

    #[test]
    fn coupled_budget_trip_is_shard_count_independent() {
        let run = |shards: usize| {
            let mut cfg = mb4x(4);
            cfg.max_events = 4_000; // trips mid-run: a full run needs more
            cfg.shards = shards;
            Sim::new(cfg).expect("valid").run_checked()
        };
        let extract = |r: Result<SimReport, SimError>| match r {
            Err(SimError::EventBudgetExhausted {
                budget,
                sim_time_ms,
                partial,
                ..
            }) => (budget, sim_time_ms, partial),
            Ok(_) => panic!("budget must trip"),
        };
        let (b1, t1, p1) = extract(run(1));
        let (b2, t2, p2) = extract(run(2));
        let (b4, t4, p4) = extract(run(4));
        assert_eq!(b1, 4_000, "the error reports the configured budget");
        assert_eq!((b1, t1), (b2, t2));
        assert_eq!((b1, t1), (b4, t4));
        assert_eq!(p1, p2);
        assert_eq!(p1, p4);
        assert_eq!(p1.nodes.len(), 4);
    }

    #[test]
    fn coupled_trace_bytes_are_shard_count_independent() {
        let run = |shards: usize| {
            let mut cfg = mb4x(3);
            cfg.measure_ms = 4_000.0;
            cfg.trace = Some(carat_obs::TraceConfig::default());
            cfg.shards = shards;
            let (report, tracer) = Sim::new(cfg).expect("valid").run_traced();
            (report, tracer.expect("tracing was on").to_jsonl())
        };
        let (r1, t1) = run(1);
        let (r3, t3) = run(3);
        assert_eq!(r1, r3);
        assert_eq!(t1, t3);
        assert!(t1.contains("\"node\": 2"), "trace covers remote sites");
    }

    #[test]
    fn metrics_bytes_are_shard_count_independent() {
        let run = |shards: usize| {
            let mut cfg = lb8(3);
            cfg.measure_ms = 5_000.0;
            cfg.metrics = Some(carat_obs::MetricsConfig::new(50.0));
            cfg.shards = shards;
            let (report, _, metrics) = Sim::new(cfg)
                .expect("valid")
                .run_checked_instrumented()
                .expect("no budget");
            (report, metrics.expect("metrics were on").to_jsonl())
        };
        let (r1, m1) = run(1);
        let (r3, m3) = run(3);
        assert_eq!(r1, r3);
        assert_eq!(m1, m3);
        assert!(m1.contains("\"site\": 2"), "metrics cover remapped sites");
        assert!(m1.contains("\"metric\": \"cpu_q\""));
    }

    #[test]
    fn site_separable_metrics_carry_no_cross_site_series() {
        // No message can cross sites, so the `xmsg_*` series would be all
        // zeros: they are recorded only for runs that can carry traffic.
        let mut cfg = lb8(2);
        cfg.measure_ms = 2_000.0;
        cfg.metrics = Some(carat_obs::MetricsConfig::new(100.0));
        let (_, _, metrics) = Sim::new(cfg)
            .expect("valid")
            .run_checked_instrumented()
            .expect("no budget");
        let jsonl = metrics.expect("metrics were on").to_jsonl();
        assert!(jsonl.contains("\"site\": 1"), "every LP sampled its site");
        assert!(!jsonl.contains("xmsg"), "no cross-site series");
    }

    #[test]
    fn coupled_metrics_bytes_are_shard_count_independent() {
        let run = |shards: usize| {
            let mut cfg = mb4x(3);
            cfg.measure_ms = 4_000.0;
            cfg.metrics = Some(carat_obs::MetricsConfig::new(25.0));
            cfg.shards = shards;
            let (report, _, metrics) = Sim::new(cfg)
                .expect("valid")
                .run_checked_instrumented()
                .expect("no budget");
            (report, metrics.expect("metrics were on").to_jsonl())
        };
        let (r1, m1) = run(1);
        let (r3, m3) = run(3);
        assert_eq!(r1, r3);
        assert_eq!(m1, m3);
        assert!(m1.contains("\"site\": 2"), "metrics cover remote sites");
        assert!(
            m1.contains("\"metric\": \"xmsg_out\""),
            "coupled runs expose cross-site message counters"
        );
    }

    #[test]
    fn trace_bytes_are_shard_count_independent() {
        let run = |shards: usize| {
            let mut cfg = lb8(3);
            cfg.measure_ms = 5_000.0;
            cfg.trace = Some(carat_obs::TraceConfig::default());
            cfg.shards = shards;
            let (report, tracer) = Sim::new(cfg).expect("valid").run_traced();
            (report, tracer.expect("tracing was on").to_jsonl())
        };
        let (r1, t1) = run(1);
        let (r3, t3) = run(3);
        assert_eq!(r1, r3);
        assert_eq!(t1, t3);
        assert!(t1.contains("\"node\": 2"), "trace covers remapped sites");
    }
}
