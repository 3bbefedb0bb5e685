//! Per-layer metrics, each derived from outside the layer: spans around
//! the calls into `carat-model` and `carat-sim`, replays of recorded
//! traffic into `carat-des`, `carat-lock` and `carat-storage`, solves of
//! per-site `carat-qnet` networks, `shardstats` scopes for the PDES
//! machinery, and on/off variants for `carat-obs`.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use carat_model::demands::chain_contexts;
use carat_obs::ShardStatsSnapshot;
use carat_qnet::{CenterKind, MvaScratch, MvaSolution, Network};
use carat_workload::StandardWorkload;

use crate::ops::{self, OpDef, OpResult, Outcome, Pass, Role, SimSpec};
use crate::replay::{self, LockReplay, StorageReplay};
use crate::stats::{median, ratio, Spans};
use crate::{Checks, Metric, Run};

/// Replay repetitions; the timings reported are their medians.
const REPLAY_REPS: usize = 3;

const MIXES: [StandardWorkload; 4] = [
    StandardWorkload::Lb8,
    StandardWorkload::Mb4,
    StandardWorkload::Mb8,
    StandardWorkload::Ub6,
];

fn mix_key(m: StandardWorkload) -> String {
    m.label().to_ascii_lowercase()
}

/// The replays of one simulator op's recorded traffic.
pub struct OpReplay {
    pub op: usize,
    pub lock: LockReplay,
    pub storage: StorageReplay,
    pub des_ns: u64,
    pub des_ops: u64,
    pub heap_hwm: u64,
}

/// Runs each simulator op once more with its lock-table traffic recorded
/// and replays that traffic into the lower layers. The capture must report
/// what the untraced run did, and the replayed lock table must block
/// exactly as often as the simulator's did in its measurement window. On
/// `paper_grid` this always runs, as a check of the replays; other
/// workloads replay only in traced runs, for the per-layer metrics.
pub fn check_lock_replay(run: &mut Run, warm: &Pass, checks: &mut Checks) {
    if !run.trace && run.workload != "paper_grid" {
        return;
    }
    let overhead = replay::timer_overhead_ns();
    for (i, op) in run.ops.iter().enumerate() {
        let OpDef::Sim(spec) = op else { continue };
        let captured = ops::run_op(op, true, &mut None, 0);
        let (
            Outcome::Sim {
                report: Some(rep),
                tracer: Some(tr),
                ..
            },
            Some(base),
        ) = (&captured.outcome, warm.ops[i].sim_report())
        else {
            checks.check(
                false,
                format!("lock capture produced a report ({})", op.label()),
            );
            continue;
        };
        let neutral = format!("{rep:?}") == format!("{base:?}");
        checks.check(
            neutral,
            format!("lock capture leaves the report unchanged ({})", op.label()),
        );
        checks.check(
            tr.dropped() == 0,
            format!("lock capture kept every event ({})", op.label()),
        );
        let events: Vec<_> = tr.events().copied().collect();
        let sites = spec.sites;
        let cfg = ops::sim_config(spec);
        let mut locks = Vec::new();
        let mut stores = Vec::new();
        let mut des = Vec::new();
        let depth = rep.counters.get("sched_heap_hwm");
        for _ in 0..REPLAY_REPS {
            locks.push(replay::replay_locks(
                &events,
                sites,
                cfg.warmup_ms,
                overhead,
            ));
            stores.push(replay::replay_storage(
                &events,
                sites,
                cfg.params.n_granules,
                overhead,
            ));
            des.push(replay::replay_scheduler(
                rep.events,
                depth as usize,
                spec.seed,
            ));
        }
        let lock = median_by(locks, |l| (l.request_ns + l.release_ns) as f64);
        let storage = median_by(stores, |s| s.ns as f64);
        let des_ns = median(&des.iter().map(|&d| d as f64).collect::<Vec<_>>()) as u64;
        checks.check(
            lock.window_blocks == rep.lock_conflicts,
            format!(
                "lock replay blocks {} == lock_conflicts {} ({})",
                lock.window_blocks,
                rep.lock_conflicts,
                op.label()
            ),
        );
        checks.check(
            storage.errors == 0,
            format!("storage replay is error-free ({})", op.label()),
        );
        run.replays.push(OpReplay {
            op: i,
            lock,
            storage,
            des_ns,
            des_ops: 2 * rep.events,
            heap_hwm: depth,
        });
    }
}

fn median_by<T>(mut v: Vec<T>, key: impl Fn(&T) -> f64) -> T {
    v.sort_by(|a, b| key(a).total_cmp(&key(b)));
    v.swap_remove(v.len() / 2)
}

/// Runs the `observed` points with metrics and trace off, metrics only,
/// and trace only, next to the untraced passes, for the `carat-obs`
/// overheads; and once with both off for the on/off identity check.
pub struct ObsProbe {
    /// The ops with metrics and trace off, metrics only, trace only.
    variants: [Vec<OpDef>; 3],
    active: bool,
    trace: bool,
    run_ns: Vec<Vec<f64>>,
    samples: u64,
}

impl ObsProbe {
    pub fn new(ops: &[OpDef], trace: bool) -> Self {
        let active = ops
            .iter()
            .any(|o| matches!(o, OpDef::Sim(s) if s.role == Role::Observed));
        let with = |metrics: bool, tr: bool| -> Vec<OpDef> {
            ops.iter()
                .map(|o| match o {
                    OpDef::Sim(s) => OpDef::Sim(SimSpec {
                        metrics_ms: if metrics { s.metrics_ms } else { None },
                        trace: tr && s.trace,
                        ..s.clone()
                    }),
                    m => m.clone(),
                })
                .collect()
        };
        ObsProbe {
            variants: [with(false, false), with(true, false), with(false, true)],
            active,
            trace,
            run_ns: vec![Vec::new(); 3],
            samples: 0,
        }
    }

    fn pass(&mut self, v: usize) -> Pass {
        let pass = ops::run_pass(&self.variants[v], &mut None);
        self.run_ns[v].push(pass.ops.iter().map(|r| r.run_ns as f64).sum());
        if v == 1 {
            self.samples = pass.ops.iter().map(sample_count).sum();
        }
        pass
    }

    /// One pass of each variant (traced runs of `observed` only).
    pub fn run_variants(&mut self) {
        if self.active && self.trace {
            for v in 0..self.variants.len() {
                self.pass(v);
            }
        }
    }

    /// Reports with metrics and trace on must equal those with both off.
    pub fn check(&mut self, run: &Run, failures: &mut Vec<String>) {
        if !self.active {
            return;
        }
        let off = self.pass(0);
        for ((op, on), off) in run.ops.iter().zip(&run.first().ops).zip(&off.ops) {
            let same = format!("{:?}", on.sim_report()) == format!("{:?}", off.sim_report());
            if !same {
                failures.push(format!(
                    "observed report identical with metrics and trace on vs off ({})",
                    op.label()
                ));
            }
        }
    }

    fn overhead_pct(&self, v: usize) -> f64 {
        let off = median(&self.run_ns[0]);
        ratio(median(&self.run_ns[v]) - off, off) * 100.0
    }
}

fn sample_count(r: &OpResult) -> u64 {
    match &r.outcome {
        Outcome::Sim {
            metrics: Some(m), ..
        } => m.len() as u64,
        _ => 0,
    }
}

/// `(model_sim_err, model_paper_err, sim_paper_err)` on `paper_grid`:
/// mean relative |model − sim| of total committed throughput, and mean
/// relative error of per-node TR-XPUT against the paper's measurements.
pub fn accuracy(run: &Run) -> (f64, f64, f64) {
    if run.workload != "paper_grid" {
        return (0.0, 0.0, 0.0);
    }
    let p = run.first();
    let point = |i: usize| (p.ops[i - 1].model_report(), p.ops[i].sim_report());
    let mut model_sim = Vec::new();
    for i in (1..run.ops.len()).step_by(2) {
        if let (Some(m), Some(s)) = point(i) {
            model_sim.push((m.total_tx_per_s() - s.total_tx_per_s()).abs() / s.total_tx_per_s());
        }
    }
    let (mut mp, mut sp) = (Vec::new(), Vec::new());
    for &(mix, n, node, meas) in crate::paper::MEASURED_XPUT {
        let i = run.ops.iter().position(
            |o| matches!(o, OpDef::Sim(s) if s.mix == mix && s.n == n && s.role == Role::Grid),
        );
        if let Some((Some(m), Some(s))) = i.map(point) {
            mp.push((m.nodes[node].tx_per_s - meas).abs() / meas);
            sp.push((s.nodes[node].tx_per_s - meas).abs() / meas);
        }
    }
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    (mean(&model_sim), mean(&mp), mean(&sp))
}

/// Per traced pass: the summed duration of spans named `name` whose op
/// passes `keep`, in ms; the median over passes.
fn span_ms(run: &Run, name: &str, keep: impl Fn(&OpDef) -> bool) -> f64 {
    let per_pass: Vec<f64> = run
        .traced
        .iter()
        .map(|(_, spans): &(Pass, Spans)| {
            spans
                .spans
                .iter()
                .filter(|s| s.name == name && keep(&run.ops[s.op as usize]))
                .map(|s| s.dur_ns() as f64 / 1e6)
                .sum()
        })
        .collect();
    median(&per_pass)
}

fn is_role(role: Role) -> impl Fn(&OpDef) -> bool {
    move |o| matches!(o, OpDef::Sim(s) if s.role == role)
}

/// One site network per site of a model op, built like the solver's:
/// CPU and DISK queueing centers, a DELAY center for think time, one chain
/// per chain context with its population. Demands are Table 2 costs of
/// one cycle (TM + DM + per-request CPU; per-request DMIO disk; think).
fn site_networks(op: &OpDef) -> Vec<Network> {
    let OpDef::Model { mix, sites, n } = *op else {
        return Vec::new();
    };
    let cfg = ops::model_config(mix, sites, n);
    let p = &cfg.params;
    let ctxs = match panic::catch_unwind(AssertUnwindSafe(|| chain_contexts(p, &cfg.workload, n))) {
        Ok(c) => c,
        Err(_) => return Vec::new(),
    };
    (0..sites)
        .map(|site| {
            let mut net = Network::new();
            let cpu = net.add_center("CPU", CenterKind::Queueing);
            let disk = net.add_center("DISK", CenterKind::Queueing);
            let delay = net.add_center("DELAY", CenterKind::Delay);
            for c in ctxs.iter().filter(|c| c.site == site) {
                let k = net.add_chain(c.chain.label(), c.population);
                let b = &p.basic;
                net.set_demand(
                    k,
                    cpu,
                    b.r_tm(c.chain) + b.r_dm(c.chain) + c.l * b.r_dmio_cpu(c.chain),
                );
                net.set_demand(k, disk, c.l * p.dmio_disk(c.chain, site));
                net.set_demand(k, delay, p.think_time_ms);
            }
            net
        })
        .collect()
}

fn time_median(mut f: impl FnMut()) -> f64 {
    let mut v: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

struct QnetProbe {
    lattice: f64,
    exact_ns: f64,
    schweitzer_ns: f64,
    rel_err: f64,
    /// Estimated MVA time of the pass's solves: iterations × per-site
    /// solve time, summed.
    mva_ns: f64,
}

fn qnet_probe(run: &Run) -> QnetProbe {
    let mut q = QnetProbe {
        lattice: 0.0,
        exact_ns: 0.0,
        schweitzer_ns: 0.0,
        rel_err: 0.0,
        mva_ns: 0.0,
    };
    let mut scratch = MvaScratch::default();
    let mut exact = MvaSolution::empty();
    let mut approx = MvaSolution::empty();
    for (op, r) in run.ops.iter().zip(&run.first().ops) {
        let iterations = r.model_report().map_or(0, |m| m.convergence.iterations) as f64;
        for net in site_networks(op) {
            if net.chains() == 0 {
                continue;
            }
            let e = time_median(|| net.solve_exact_into(&mut scratch, &mut exact));
            let s = time_median(|| net.solve_approx_into(1e-10, 20_000, &mut scratch, &mut approx));
            q.lattice += net.lattice_size() as f64;
            q.exact_ns += e;
            q.schweitzer_ns += s;
            q.mva_ns += iterations * e;
            for (xe, xs) in exact.throughput.iter().zip(&approx.throughput) {
                q.rel_err = q.rel_err.max(ratio((xs - xe).abs(), *xe));
            }
        }
    }
    q
}

/// Every per-layer metric of a traced run (0 where the layer did no work).
pub fn per_layer(run: &Run) -> Vec<Metric> {
    let any = |_: &OpDef| true;
    let is_sim = |o: &OpDef| matches!(o, OpDef::Sim(_));
    let first = run.first();
    let sims: Vec<(&OpDef, &carat_sim::SimReport)> = run
        .ops
        .iter()
        .zip(&first.ops)
        .filter_map(|(o, r)| r.sim_report().map(|s| (o, s)))
        .collect();
    let sum_sim =
        |f: &dyn Fn(&carat_sim::SimReport) -> f64| -> f64 { sims.iter().map(|(_, s)| f(s)).sum() };
    let mut out = Vec::new();
    let mut push = |name: &str, unit: &'static str, better: &'static str, v: f64| {
        out.push(Metric::new(name, unit, better, v));
    };

    let untraced: Vec<f64> = run.untraced.iter().map(|p| p.wall_ns as f64).collect();
    let traced: Vec<f64> = run.traced.iter().map(|(p, _)| p.wall_ns as f64).collect();
    push(
        "bench.trace_overhead_pct",
        "%",
        "lower",
        ratio(median(&traced) - median(&untraced), median(&untraced)) * 100.0,
    );

    // carat-des, carat-lock, carat-storage: replays.
    let rp = &run.replays;
    let des_ops: f64 = rp.iter().map(|r| r.des_ops as f64).sum();
    let des_ns: f64 = rp.iter().map(|r| r.des_ns as f64).sum();
    push("des.sched_ops", "count", "lower", des_ops);
    push("des.sched_ns_per_op", "ns", "lower", ratio(des_ns, des_ops));
    push(
        "des.heap_hwm",
        "count",
        "lower",
        rp.iter().map(|r| r.heap_hwm).max().unwrap_or(0) as f64,
    );
    let lock_sum = |f: &dyn Fn(&LockReplay) -> u64, mix: Option<StandardWorkload>| -> f64 {
        rp.iter()
            .filter(|r| mix.is_none_or(|m| run.ops[r.op].mix() == m))
            .map(|r| f(&r.lock) as f64)
            .sum()
    };
    let requests = lock_sum(&|l| l.requests, None);
    push("lock.requests", "count", "lower", requests);
    push(
        "lock.ns_per_request",
        "ns",
        "lower",
        ratio(lock_sum(&|l| l.request_ns, None), requests),
    );
    push(
        "lock.ns_per_release",
        "ns",
        "lower",
        ratio(
            lock_sum(&|l| l.release_ns, None),
            lock_sum(&|l| l.releases, None),
        ),
    );
    push(
        "lock.conflict_ratio",
        "ratio",
        "lower",
        ratio(lock_sum(&|l| l.blocks, None), requests),
    );
    for m in MIXES {
        push(
            &format!("lock.ns_per_request.{}", mix_key(m)),
            "ns",
            "lower",
            ratio(
                lock_sum(&|l| l.request_ns, Some(m)),
                lock_sum(&|l| l.requests, Some(m)),
            ),
        );
    }
    let st_sum = |f: &dyn Fn(&StorageReplay) -> u64, mix: Option<StandardWorkload>| -> f64 {
        rp.iter()
            .filter(|r| mix.is_none_or(|m| run.ops[r.op].mix() == m))
            .map(|r| f(&r.storage) as f64)
            .sum()
    };
    let st_ops = st_sum(&|s| s.ops, None);
    push("storage.ops", "count", "lower", st_ops);
    push(
        "storage.ns_per_op",
        "ns",
        "lower",
        ratio(st_sum(&|s| s.ns, None), st_ops),
    );
    push(
        "storage.journal_bytes",
        "bytes",
        "lower",
        st_sum(&|s| s.journal_bytes, None),
    );
    for m in MIXES {
        push(
            &format!("storage.ns_per_op.{}", mix_key(m)),
            "ns",
            "lower",
            ratio(st_sum(&|s| s.ns, Some(m)), st_sum(&|s| s.ops, Some(m))),
        );
    }

    // carat-sim: spans around Sim::new and the run, plus report counters.
    let run_ms = span_ms(run, "sim.run", any);
    let events = sum_sim(&|s| s.events as f64);
    push("sim.new_ms", "ms", "lower", span_ms(run, "sim.new", any));
    push("sim.run_ms", "ms", "lower", run_ms);
    push("sim.events", "count", "lower", events);
    push(
        "sim.ns_per_event",
        "ns",
        "lower",
        ratio(run_ms * 1e6, events),
    );
    for kind in ["ev_cpu_done", "ev_disk_done", "ev_net_done"] {
        push(
            &format!("sim.{kind}"),
            "count",
            "lower",
            sum_sim(&|s| s.counters.get(kind) as f64),
        );
    }
    let commits = sum_sim(&|s| {
        s.nodes
            .iter()
            .flat_map(|n| n.per_type.values())
            .map(|t| t.commits as f64)
            .sum()
    });
    let aborts = sum_sim(&|s| {
        s.nodes
            .iter()
            .flat_map(|n| n.per_type.values())
            .map(|t| t.aborts as f64)
            .sum()
    });
    push(
        "sim.commit_ratio",
        "ratio",
        "higher",
        ratio(commits, commits + aborts),
    );
    push(
        "sim.lock_conflicts",
        "count",
        "lower",
        sum_sim(&|s| s.lock_conflicts as f64),
    );
    push(
        "sim.deadlocks",
        "count",
        "lower",
        sum_sim(&|s| (s.local_deadlocks + s.global_deadlocks) as f64),
    );
    push(
        "sim.probe_hops",
        "count",
        "lower",
        sum_sim(&|s| s.probe_hops as f64),
    );
    push(
        "sim.net_messages",
        "count",
        "lower",
        sum_sim(&|s| s.net_messages as f64),
    );
    let replayed_ms =
        (des_ns + lock_sum(&|l| l.request_ns + l.release_ns, None) + st_sum(&|s| s.ns, None)) / 1e6;
    let self_ms = if rp.is_empty() {
        0.0
    } else {
        run_ms - replayed_ms
    };
    push("sim.engine_self_ms", "ms", "lower", self_ms);
    for m in MIXES {
        let of_mix = |o: &OpDef| is_sim(o) && o.mix() == m;
        let ev: f64 = sims
            .iter()
            .filter(|(o, _)| o.mix() == m)
            .map(|(_, s)| s.events as f64)
            .sum();
        push(
            &format!("sim.ns_per_event.{}", mix_key(m)),
            "ns",
            "lower",
            ratio(span_ms(run, "sim.run", of_mix) * 1e6, ev),
        );
    }

    // PDES: shardstats scopes around the nproc-shard coupled runs, summed
    // per traced pass.
    let pdes: Vec<ShardStatsSnapshot> = run
        .traced
        .iter()
        .map(|(p, _)| {
            let mut sum = ShardStatsSnapshot::default();
            for (o, r) in run.ops.iter().zip(&p.ops) {
                if let (true, Outcome::Sim { pdes, .. }) = (is_role(Role::ShardsN)(o), &r.outcome) {
                    sum.busy_ns += pdes.busy_ns;
                    sum.stall_ns += pdes.stall_ns;
                    sum.null_advances += pdes.null_advances;
                    sum.messages += pdes.messages;
                }
            }
            sum
        })
        .collect();
    let med =
        |f: &dyn Fn(&ShardStatsSnapshot) -> f64| median(&pdes.iter().map(f).collect::<Vec<_>>());
    let busy = med(&|s| s.busy_ns as f64 / 1e6);
    let stall = med(&|s| s.stall_ns as f64 / 1e6);
    push("pdes.busy_ms", "ms", "lower", busy);
    push("pdes.stall_ms", "ms", "lower", stall);
    push(
        "pdes.stall_pct",
        "%",
        "lower",
        ratio(stall, busy + stall) * 100.0,
    );
    push(
        "pdes.null_per_payload",
        "ratio",
        "lower",
        med(&|s| s.null_message_ratio()),
    );
    push(
        "pdes.payload_messages",
        "count",
        "lower",
        med(&|s| s.messages as f64),
    );
    push(
        "sim.run_ms.seq",
        "ms",
        "lower",
        span_ms(run, "sim.run", is_role(Role::Seq)),
    );
    push(
        "sim.run_ms.shards1",
        "ms",
        "lower",
        span_ms(run, "sim.run", is_role(Role::Shards1)),
    );
    push(
        "sim.run_ms.shardsN",
        "ms",
        "lower",
        span_ms(run, "sim.run", is_role(Role::ShardsN)),
    );

    // carat-obs: on/off variants of the observed points.
    let (metrics_pct, trace_pct, samples_per_event, ns_per_sample) = match &run.obs {
        Some(o) if o.active && !o.run_ns[0].is_empty() => {
            let samples = o.samples as f64;
            let diff_ns = median(&o.run_ns[1]) - median(&o.run_ns[0]);
            (
                o.overhead_pct(1),
                o.overhead_pct(2),
                ratio(samples, events),
                ratio(diff_ns, samples),
            )
        }
        _ => (0.0, 0.0, 0.0, 0.0),
    };
    push("obs.metrics_overhead_pct", "%", "lower", metrics_pct);
    push("obs.trace_overhead_pct", "%", "lower", trace_pct);
    push("obs.samples_per_event", "ratio", "lower", samples_per_event);
    push("obs.ns_per_sample", "ns", "lower", ns_per_sample);

    // carat-model: spans around the solves, plus convergence diagnostics.
    let is_model = |o: &OpDef| matches!(o, OpDef::Model { .. });
    let solve_ms = span_ms(run, "model.solve", is_model);
    let models: Vec<&OpResult> = run
        .ops
        .iter()
        .zip(&first.ops)
        .filter(|(o, _)| is_model(o))
        .map(|(_, r)| r)
        .collect();
    let conv = |f: &dyn Fn(&carat_model::ConvergenceInfo) -> f64| -> f64 {
        models
            .iter()
            .filter_map(|r| r.model_report())
            .map(|m| f(&m.convergence))
            .sum()
    };
    let iterations = conv(&|c| c.iterations as f64);
    push("model.solve_ms", "ms", "lower", solve_ms);
    push("model.iterations", "count", "lower", iterations);
    push(
        "model.ms_per_iter",
        "ms",
        "lower",
        ratio(solve_ms, iterations),
    );
    push(
        "model.accel_accepted",
        "count",
        "higher",
        conv(&|c| c.accel_accepted as f64),
    );
    push(
        "model.nonconverged",
        "count",
        "lower",
        conv(&|c| (!c.converged) as u8 as f64),
    );
    let panics = models
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Model { panic: Some(_), .. }))
        .count();
    push("model.panics", "count", "lower", panics as f64);

    // carat-qnet: per-site networks solved directly.
    let q = qnet_probe(run);
    push("qnet.lattice_states", "count", "lower", q.lattice);
    push("qnet.exact_us", "us", "lower", q.exact_ns / 1e3);
    push("qnet.schweitzer_us", "us", "lower", q.schweitzer_ns / 1e3);
    push("qnet.schweitzer_rel_err", "ratio", "lower", q.rel_err);
    push(
        "qnet.mva_share",
        "ratio",
        "lower",
        ratio(q.mva_ns / 1e6, solve_ms),
    );
    out
}
