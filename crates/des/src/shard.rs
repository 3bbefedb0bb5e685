//! Conservative (lookahead-based) shard synchronization primitives.
//!
//! A sharded simulation partitions its sites across shards; each shard
//! advances its own event list and exchanges timestamped cross-shard
//! messages through [`ShardChannel`]s. Conservative synchronization in
//! the Chandy–Misra–Bryant tradition never speculates: a shard may only
//! consume messages — and advance past a peer's clock — up to the *safe
//! horizon* `min(peer clocks) + lookahead`, where the lookahead is a
//! lower bound on the latency any newly sent cross-shard message must
//! incur (here: the network delay floor between CARAT sites). Events
//! below the horizon can no longer be invalidated by a straggler, so the
//! merged execution is identical to the sequential one.
//!
//! These primitives are deliberately engine-agnostic: `carat-sim` layers
//! its site decomposition on top (see its `shard` module), and the unit
//! tests below drive a miniature two-shard simulation directly to show
//! the conservative delivery order equals the sequential merge.

use crate::Time;

/// Balanced contiguous assignment of `sites` sites to `shards` shards.
///
/// Contiguity keeps each shard's sites adjacent, so per-site results can
/// be merged back in global site order by walking shards in index order.
/// When `shards > sites` the surplus shards simply own zero sites.
#[derive(Debug, Clone)]
pub struct SiteShardMap {
    /// `starts[s]..starts[s + 1]` is the site range of shard `s`.
    starts: Vec<usize>,
}

impl SiteShardMap {
    /// Splits `sites` into `shards` contiguous blocks whose sizes differ
    /// by at most one (the first `sites % shards` blocks are the larger).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn contiguous(sites: usize, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let (quot, rem) = (sites / shards, sites % shards);
        let mut starts = Vec::with_capacity(shards + 1);
        let mut at = 0;
        starts.push(at);
        for s in 0..shards {
            at += quot + usize::from(s < rem);
            starts.push(at);
        }
        SiteShardMap { starts }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of sites.
    pub fn sites(&self) -> usize {
        *self.starts.last().expect("starts is never empty")
    }

    /// The contiguous site range owned by shard `s`.
    pub fn sites_of(&self, shard: usize) -> std::ops::Range<usize> {
        self.starts[shard]..self.starts[shard + 1]
    }

    /// The shard owning `site`.
    pub fn shard_of(&self, site: usize) -> usize {
        assert!(site < self.sites(), "site {site} out of range");
        // starts is sorted; partition_point returns the first shard whose
        // block begins past the site.
        self.starts.partition_point(|&s| s <= site) - 1
    }
}

/// A timestamped FIFO channel from one shard to another.
///
/// Senders enqueue `(time, message)`; the receiver drains strictly in
/// `(time, sequence)` order, and only up to a safe horizon. The sequence
/// number makes simultaneous messages deterministic: ties deliver in send
/// order, never in allocation or thread order.
#[derive(Debug)]
pub struct ShardChannel<M> {
    queue: std::collections::VecDeque<(Time, u64, M)>,
    next_seq: u64,
}

impl<M> Default for ShardChannel<M> {
    fn default() -> Self {
        ShardChannel::new()
    }
}

impl<M> ShardChannel<M> {
    /// An empty channel.
    pub fn new() -> Self {
        ShardChannel {
            queue: std::collections::VecDeque::new(),
            next_seq: 0,
        }
    }

    /// Enqueues `msg` to be delivered at simulated time `t`.
    ///
    /// Send timestamps must be nondecreasing — a conservative sender
    /// never retro-dates a message below what it already promised.
    pub fn send(&mut self, t: Time, msg: M) {
        debug_assert!(
            self.queue.back().is_none_or(|&(last, _, _)| t >= last),
            "cross-shard message timestamps must be nondecreasing"
        );
        self.queue.push_back((t, self.next_seq, msg));
        self.next_seq += 1;
    }

    /// Timestamp of the earliest undelivered message, if any.
    pub fn next_time(&self) -> Option<Time> {
        self.queue.front().map(|&(t, _, _)| t)
    }

    /// Removes every message with `time < horizon` and hands it to `sink`
    /// in `(time, sequence)` order. Messages at or past the horizon stay
    /// queued: the sender's clock has not yet guaranteed their finality.
    pub fn drain_into(&mut self, horizon: Time, mut sink: impl FnMut(Time, M)) {
        while self.queue.front().is_some_and(|&(t, _, _)| t < horizon) {
            let (t, _, msg) = self.queue.pop_front().expect("peeked");
            sink(t, msg);
        }
    }

    /// Number of undelivered messages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the channel is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// Per-shard simulation clocks plus the conservative safe-horizon rule.
///
/// A block of shards may freely process local events up to
/// `block_horizon(block) = min over shards p outside the block of
/// clock(p) + lookahead`: no outside shard can still emit a message
/// arriving earlier, because any message sent at its current clock
/// arrives at least `lookahead` later. A block that holds every shard
/// has no outside peers, so its horizon is unbounded.
#[derive(Debug, Clone)]
pub struct HorizonClock {
    clocks: Vec<Time>,
    lookahead: Time,
}

impl HorizonClock {
    /// All clocks at zero.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `lookahead` is negative or NaN.
    pub fn new(shards: usize, lookahead: Time) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(lookahead >= 0.0, "lookahead must be non-negative");
        HorizonClock {
            clocks: vec![0.0; shards],
            lookahead,
        }
    }

    /// The configured lookahead window.
    pub fn lookahead(&self) -> Time {
        self.lookahead
    }

    /// Current clock of shard `s`.
    pub fn clock(&self, shard: usize) -> Time {
        self.clocks[shard]
    }

    /// Advances shard `s`'s clock to `t`. Clocks are monotone; a smaller
    /// `t` is ignored rather than rewound.
    pub fn advance(&mut self, shard: usize, t: Time) {
        let c = &mut self.clocks[shard];
        if t > *c {
            *c = t;
        }
    }

    /// The conservative safe horizon of the shards in `block`: nothing
    /// from a shard outside it can arrive strictly below this time. One
    /// shard's own horizon is `block_horizon(s..s + 1)`.
    pub fn block_horizon(&self, block: std::ops::Range<usize>) -> Time {
        let outside = self.clocks[..block.start]
            .iter()
            .chain(&self.clocks[block.end..]);
        outside.copied().fold(Time::INFINITY, Time::min) + self.lookahead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_blocks_are_balanced_and_cover_all_sites() {
        for sites in 0..20 {
            for shards in 1..8 {
                let map = SiteShardMap::contiguous(sites, shards);
                assert_eq!(map.shards(), shards);
                assert_eq!(map.sites(), sites);
                let mut seen = 0;
                let (mut min_len, mut max_len) = (usize::MAX, 0);
                for s in 0..shards {
                    let r = map.sites_of(s);
                    assert_eq!(r.start, seen, "blocks must be contiguous");
                    seen = r.end;
                    min_len = min_len.min(r.len());
                    max_len = max_len.max(r.len());
                    for site in r {
                        assert_eq!(map.shard_of(site), s);
                    }
                }
                assert_eq!(seen, sites, "blocks must cover every site");
                assert!(max_len - min_len <= 1, "block sizes differ by ≤ 1");
            }
        }
    }

    #[test]
    fn channel_delivers_in_time_then_send_order_up_to_horizon() {
        let mut ch = ShardChannel::new();
        ch.send(1.0, "a");
        ch.send(2.0, "b1");
        ch.send(2.0, "b2");
        ch.send(5.0, "c");
        assert_eq!(ch.next_time(), Some(1.0));
        let drain = |ch: &mut ShardChannel<&'static str>, h: Time| {
            let mut out = Vec::new();
            ch.drain_into(h, |t, m| out.push((t, m)));
            out
        };
        // Horizon 2.0 releases only t < 2.0.
        assert_eq!(drain(&mut ch, 2.0), vec![(1.0, "a")]);
        // Ties deliver in send order.
        assert_eq!(drain(&mut ch, 4.0), vec![(2.0, "b1"), (2.0, "b2")]);
        assert_eq!(ch.len(), 1);
        assert_eq!(drain(&mut ch, f64::INFINITY), vec![(5.0, "c")]);
        assert!(ch.is_empty());
    }

    #[test]
    fn horizon_is_min_peer_clock_plus_lookahead() {
        let mut hc = HorizonClock::new(3, 4.0);
        hc.advance(0, 10.0);
        hc.advance(1, 7.0);
        hc.advance(2, 20.0);
        assert_eq!(hc.block_horizon(0..1), 7.0 + 4.0);
        assert_eq!(hc.block_horizon(1..2), 10.0 + 4.0);
        assert_eq!(hc.block_horizon(2..3), 7.0 + 4.0);
        // Clocks never rewind.
        hc.advance(1, 3.0);
        assert_eq!(hc.clock(1), 7.0);
        // A single shard has no peers: unbounded horizon.
        assert_eq!(HorizonClock::new(1, 0.0).block_horizon(0..1), f64::INFINITY);
    }

    #[test]
    fn block_horizon_ignores_clocks_inside_the_block() {
        let mut hc = HorizonClock::new(5, 2.0);
        for (s, c) in [3.0, 1.0, 9.0, 6.0, 4.0].into_iter().enumerate() {
            hc.advance(s, c);
        }
        // The block's own clocks (even the global minimum) never bound it.
        assert_eq!(hc.block_horizon(0..2), 4.0 + 2.0);
        assert_eq!(hc.block_horizon(1..4), 3.0 + 2.0);
        assert_eq!(hc.block_horizon(3..5), 1.0 + 2.0);
        // Blocks at either end read only one side of the board.
        assert_eq!(hc.block_horizon(0..4), 4.0 + 2.0);
        assert_eq!(hc.block_horizon(1..5), 3.0 + 2.0);
        // A block holding every shard has nothing outside it.
        assert_eq!(hc.block_horizon(0..5), f64::INFINITY);
        // Infinite lookahead (nothing ever crosses) stays unbounded.
        assert_eq!(
            HorizonClock::new(3, f64::INFINITY).block_horizon(0..1),
            f64::INFINITY
        );
    }

    /// Two shards exchanging timestamped messages under the conservative
    /// rule produce exactly the global (time, shard, seq)-sorted delivery
    /// order of a sequential merge — no message is consumed before a
    /// straggler below it could still arrive.
    #[test]
    fn two_shard_conservative_delivery_equals_sequential_merge() {
        const LOOKAHEAD: Time = 2.0;
        // Each shard's local event list: at local time t, optionally send
        // a message to the peer arriving at t + LOOKAHEAD.
        let plans: [&[(Time, bool)]; 2] = [
            &[(1.0, true), (3.0, false), (4.0, true), (9.0, true)],
            &[(2.0, true), (2.5, true), (8.0, false), (12.0, true)],
        ];

        // Sequential reference: run everything on one timeline.
        let mut expected: Vec<(Time, usize, u32)> = Vec::new();
        let mut seq = [0u32; 2];
        for (from, plan) in plans.iter().enumerate() {
            for &(t, sends) in *plan {
                if sends {
                    expected.push((t + LOOKAHEAD, 1 - from, seq[from]));
                    seq[from] += 1;
                }
            }
        }
        expected.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));

        // Conservative run: each shard alternates between executing local
        // events below its safe horizon and draining its inbox.
        let mut clocks = HorizonClock::new(2, LOOKAHEAD);
        let mut inbox = [ShardChannel::new(), ShardChannel::new()];
        let mut cursor = [0usize; 2];
        let mut seq = [0u32; 2];
        let mut delivered: Vec<(Time, usize, u32)> = Vec::new();
        loop {
            let mut progressed = false;
            for s in 0..2 {
                let horizon = clocks.block_horizon(s..s + 1);
                // Local events strictly below the horizon are safe.
                while let Some(&(t, sends)) = plans[s].get(cursor[s]) {
                    if t >= horizon {
                        break;
                    }
                    cursor[s] += 1;
                    clocks.advance(s, t);
                    if sends {
                        inbox[1 - s].send(t + LOOKAHEAD, (1 - s, seq[s]));
                        seq[s] += 1;
                    }
                    progressed = true;
                }
                // Null-message rule: even when blocked, a shard promises
                // it will send nothing before its next unprocessed event
                // (or ever again, once done) by advancing its clock — the
                // classic CMB deadlock-avoidance step.
                let promise = plans[s].get(cursor[s]).map_or(Time::INFINITY, |&(t, _)| t);
                if promise > clocks.clock(s) {
                    clocks.advance(s, promise);
                    progressed = true;
                }
                inbox[s].drain_into(clocks.block_horizon(s..s + 1), |t, (to, n)| {
                    delivered.push((t, to, n));
                    progressed = true;
                });
            }
            if !progressed {
                break;
            }
        }
        for s in 0..2 {
            assert_eq!(cursor[s], plans[s].len(), "shard {s} must finish");
        }
        delivered.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        assert_eq!(delivered, expected);
    }

    /// Deadlock-freedom of the coupled horizon loop at N shards: for 10k+
    /// randomly generated cross-shard message schedules the conservative
    /// loop (local advance below the horizon, demand-driven promise
    /// publication, horizon-bounded inbox drain) always terminates with
    /// every message delivered exactly in the sequential-merge order, and
    /// never needs more rounds than a generous progress bound.
    ///
    /// The progress argument it exercises: every round either executes a
    /// local event, raises a clock to the next-event promise (the CMB
    /// null-message step, here demand-driven — peers *read* the clock
    /// rather than receive storms of null messages), or delivers an inbox
    /// message. Since clocks are monotone and bounded by the finite plan
    /// horizon, a round with no progress can only happen when every plan
    /// is exhausted and every inbox drained.
    #[test]
    fn n_shard_random_schedules_never_hang_and_match_sequential_merge() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut total_msgs = 0usize;
        let mut trial = 0usize;
        while total_msgs < 10_000 {
            trial += 1;
            let shards = 2 + (rnd() % 5) as usize; // 2..=6
            let lookahead = 0.5 + (rnd() % 8) as Time; // strictly positive
                                                       // Random local plans: (event time, optional send target).
            let mut plans: Vec<Vec<(Time, Option<usize>)>> = Vec::new();
            for s in 0..shards {
                let n = (rnd() % 40) as usize;
                let mut t = 0.0;
                let mut plan = Vec::with_capacity(n);
                for _ in 0..n {
                    t += (rnd() % 100) as Time / 10.0;
                    let to = match rnd() % 3 {
                        0 => None,
                        _ => {
                            let mut p = (rnd() as usize) % shards;
                            if p == s {
                                p = (p + 1) % shards;
                            }
                            Some(p)
                        }
                    };
                    plan.push((t, to));
                }
                plans.push(plan);
            }
            let msgs: usize = plans
                .iter()
                .flatten()
                .filter(|&&(_, to)| to.is_some())
                .count();
            total_msgs += msgs;

            // Sequential reference merge.
            let mut expected: Vec<(Time, usize, usize, u32)> = Vec::new();
            let mut seq = vec![0u32; shards];
            for (from, plan) in plans.iter().enumerate() {
                for &(t, to) in plan {
                    if let Some(to) = to {
                        expected.push((t + lookahead, to, from, seq[from]));
                        seq[from] += 1;
                    }
                }
            }
            expected.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));

            // Conservative coupled run.
            let mut clocks = HorizonClock::new(shards, lookahead);
            let mut inbox: Vec<Vec<ShardChannel<(usize, u32)>>> = (0..shards)
                .map(|_| (0..shards).map(|_| ShardChannel::new()).collect())
                .collect();
            let mut cursor = vec![0usize; shards];
            let mut seq = vec![0u32; shards];
            let mut delivered: Vec<(Time, usize, usize, u32)> = Vec::new();
            let mut rounds = 0usize;
            loop {
                rounds += 1;
                assert!(
                    rounds <= 4 * (plans.iter().map(Vec::len).sum::<usize>() + msgs) + 8,
                    "trial {trial}: conservative loop exceeded its progress bound"
                );
                let mut progressed = false;
                for s in 0..shards {
                    let horizon = clocks.block_horizon(s..s + 1);
                    while let Some(&(t, to)) = plans[s].get(cursor[s]) {
                        if t >= horizon {
                            break;
                        }
                        cursor[s] += 1;
                        clocks.advance(s, t);
                        if let Some(to) = to {
                            inbox[to][s].send(t + lookahead, (s, seq[s]));
                            seq[s] += 1;
                        }
                        progressed = true;
                    }
                    // Demand-driven null message: publish the promise once.
                    let promise = plans[s].get(cursor[s]).map_or(Time::INFINITY, |&(t, _)| t);
                    if promise > clocks.clock(s) {
                        clocks.advance(s, promise);
                        progressed = true;
                    }
                    let h = clocks.block_horizon(s..s + 1);
                    for chan in &mut inbox[s] {
                        chan.drain_into(h, |t, (sender, n)| {
                            delivered.push((t, s, sender, n));
                            progressed = true;
                        });
                    }
                }
                if !progressed {
                    break;
                }
            }
            for s in 0..shards {
                assert_eq!(cursor[s], plans[s].len(), "trial {trial}: shard {s} hung");
                for (from, chan) in inbox[s].iter().enumerate() {
                    assert!(
                        chan.is_empty(),
                        "trial {trial}: undelivered messages {from}→{s}"
                    );
                }
            }
            delivered.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            assert_eq!(delivered, expected, "trial {trial}");
        }
        assert!(trial >= 2, "generator must produce multiple trials");
    }
}
