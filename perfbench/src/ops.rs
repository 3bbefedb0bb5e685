//! Workload definitions and the execution of one pass: a fixed batch of
//! model solves and simulator runs issued back to back, each classified as
//! succeeded or failed.

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use carat_des::splitmix64;
use carat_model::{Model, ModelConfig, ModelOptions, ModelReport};
use carat_obs::shardstats::{self, ShardStatsSnapshot};
use carat_obs::{MetricsConfig, MetricsRecorder, TraceConfig, TraceFilter, Tracer};
use carat_sim::{shard, DeadlockMode, Sim, SimConfig, SimReport};
use carat_workload::{StandardWorkload, SystemParams};

use crate::reference;
use crate::stats::Spans;

/// Simulated measurement window of every simulator op (the CLI default).
pub const MEASURE_MS: f64 = 300_000.0;
/// Warm-up before the window (the CLI rule: 10% of the window, ≥ 5 s).
pub const WARMUP_MS: f64 = 30_000.0;
/// Crash time of the never-firing crash that pins a config to the
/// monolithic engine (the only public way to select it today).
pub const NEVER_MS: f64 = 99_999_000.0;

/// Simulator seeds per `xsite_cluster` pass; each runs on all three
/// engine settings.
pub const XSITE_SEEDS: u64 = 3;

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 4] = ["paper_grid", "cluster_model", "xsite_cluster", "observed"];

/// What a simulator op stands for inside its workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A paper-grid point (paired with the model op before it).
    Grid,
    /// `xsite_cluster` on the sequential monolithic engine.
    Seq,
    /// `xsite_cluster` on the coupled engine with one shard.
    Shards1,
    /// `xsite_cluster` on the coupled engine with `nproc` shards.
    ShardsN,
    /// An `observed` point (metrics and lifecycle trace on).
    Observed,
}

/// One simulator run's inputs.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub mix: StandardWorkload,
    pub sites: usize,
    pub n: u32,
    pub alpha_ms: f64,
    pub probes: bool,
    pub shards: usize,
    pub pin_monolithic: bool,
    pub seed: u64,
    pub metrics_ms: Option<f64>,
    pub trace: bool,
    pub role: Role,
}

/// One op of a pass.
#[derive(Debug, Clone)]
pub enum OpDef {
    Model {
        mix: StandardWorkload,
        sites: usize,
        n: u32,
    },
    Sim(SimSpec),
}

impl OpDef {
    pub fn mix(&self) -> StandardWorkload {
        match self {
            OpDef::Model { mix, .. } => *mix,
            OpDef::Sim(s) => s.mix,
        }
    }

    pub fn label(&self) -> String {
        match self {
            OpDef::Model { mix, sites, n } => format!("model {mix} sites={sites} n={n}"),
            OpDef::Sim(s) => {
                let mut l = format!(
                    "sim {} sites={} n={} alpha_ms={} seed={} shards={}",
                    s.mix, s.sites, s.n, s.alpha_ms, s.seed, s.shards
                );
                if s.probes {
                    l.push_str(" probes");
                }
                if s.pin_monolithic {
                    l.push_str(" crash=99999s:0");
                }
                if let Some(ms) = s.metrics_ms {
                    l.push_str(&format!(" metrics_ms={ms}"));
                }
                if s.trace {
                    l.push_str(" trace=all");
                }
                l
            }
        }
    }
}

/// Seed of the `i`-th simulator op of a workload.
pub fn op_seed(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ splitmix64(i))
}

/// Host cores the benchmark may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn sim_spec(mix: StandardWorkload, sites: usize, n: u32, seed: u64, role: Role) -> SimSpec {
    SimSpec {
        mix,
        sites,
        n,
        alpha_ms: 0.0,
        probes: false,
        shards: 1,
        pin_monolithic: false,
        seed,
        metrics_ms: None,
        trace: false,
        role,
    }
}

/// The op list of `workload` for `seed`, or `None` for an unknown name.
pub fn workload_ops(workload: &str, seed: u64) -> Option<Vec<OpDef>> {
    use StandardWorkload::{Lb8, Mb4, Mb8, Ub6};
    let mut ops = Vec::new();
    match workload {
        "paper_grid" => {
            let mut i = 0;
            for mix in [Lb8, Mb4, Mb8, Ub6] {
                for n in [4, 8, 12, 16, 20] {
                    ops.push(OpDef::Model { mix, sites: 2, n });
                    ops.push(OpDef::Sim(sim_spec(
                        mix,
                        2,
                        n,
                        op_seed(seed, i),
                        Role::Grid,
                    )));
                    i += 1;
                }
            }
        }
        "cluster_model" => {
            for mix in [Mb4, Mb8, Ub6] {
                for sites in [4, 6] {
                    for n in [4, 12, 20] {
                        ops.push(OpDef::Model { mix, sites, n });
                    }
                }
            }
        }
        "xsite_cluster" => {
            // Several seeds per pass, so that a pass's cost does not hang
            // on one seed's luck.
            for i in 0..XSITE_SEEDS {
                let base = SimSpec {
                    alpha_ms: 5.0,
                    probes: true,
                    ..sim_spec(Mb4, 8, 8, op_seed(seed, i), Role::Seq)
                };
                ops.push(OpDef::Sim(SimSpec {
                    pin_monolithic: true,
                    ..base.clone()
                }));
                ops.push(OpDef::Sim(SimSpec {
                    role: Role::Shards1,
                    ..base.clone()
                }));
                ops.push(OpDef::Sim(SimSpec {
                    role: Role::ShardsN,
                    shards: nproc(),
                    ..base
                }));
            }
        }
        "observed" => {
            let mut i = 0;
            for mix in [Mb8, Lb8] {
                for n in [8, 16] {
                    ops.push(OpDef::Sim(SimSpec {
                        metrics_ms: Some(10.0),
                        trace: true,
                        ..sim_spec(mix, 2, n, op_seed(seed, i), Role::Observed)
                    }));
                    i += 1;
                }
            }
        }
        _ => return None,
    }
    Some(ops)
}

pub fn model_config(mix: StandardWorkload, sites: usize, n: u32) -> ModelConfig {
    let mut cfg = ModelConfig::new(mix.spec(sites), n);
    cfg.params = SystemParams::with_sites(sites);
    cfg
}

pub fn sim_config(s: &SimSpec) -> SimConfig {
    let mut cfg = SimConfig::new(s.mix.spec(s.sites), s.n, s.seed);
    cfg.params = SystemParams {
        comm_delay_ms: s.alpha_ms,
        ..SystemParams::with_sites(s.sites)
    };
    cfg.warmup_ms = WARMUP_MS;
    cfg.measure_ms = MEASURE_MS;
    cfg.shards = s.shards;
    cfg.deadlock_mode = if s.probes {
        DeadlockMode::Probes
    } else {
        DeadlockMode::InstantGlobal
    };
    if s.pin_monolithic {
        cfg.crashes = vec![(NEVER_MS, 0)];
    }
    cfg.metrics = s.metrics_ms.map(MetricsConfig::new);
    if s.trace {
        cfg.trace = Some(TraceConfig::default());
    }
    cfg
}

/// The engine a simulator config runs on, as the simulator chooses it.
pub fn engine_of(cfg: &SimConfig) -> &'static str {
    if shard::decomposable(cfg) {
        "decomposed"
    } else if shard::coupled_eligible(cfg) {
        "coupled"
    } else {
        "monolithic"
    }
}

/// A lifecycle trace filter holding exactly the lock-table traffic.
pub fn lock_trace() -> TraceConfig {
    TraceConfig {
        filter: TraceFilter::parse("kind=lock|deadlock|twopc").expect("static filter"),
        capacity: 1 << 24,
    }
}

/// The result of one op.
pub enum Outcome {
    Model {
        report: Option<ModelReport>,
        panic: Option<String>,
    },
    Sim {
        report: Option<Box<SimReport>>,
        error: Option<String>,
        tracer: Option<Tracer>,
        metrics: Option<MetricsRecorder>,
        pdes: ShardStatsSnapshot,
    },
}

pub struct OpResult {
    /// Constructor time (`Model::with_options` / `Sim::new`), ns.
    pub setup_ns: u64,
    /// Solve or run time, ns.
    pub run_ns: u64,
    pub outcome: Outcome,
    /// Why the op failed, if it did (see [`failure_of`]).
    pub why_failed: Option<String>,
    /// Digest of the outputs, kept when the reports are dropped.
    pub digest: u64,
}

/// Why an op failed, if it did: a caught panic, a non-converged solve, a
/// rejected config, a `SimError`, or an audit violation.
fn failure_of(outcome: &Outcome) -> Option<String> {
    match outcome {
        Outcome::Model { panic: Some(p), .. } => Some(format!("panic: {p}")),
        Outcome::Model {
            report: Some(r), ..
        } if !r.convergence.converged => Some(format!(
            "not converged after {} iterations (residual {:.2e})",
            r.convergence.iterations, r.convergence.residual
        )),
        Outcome::Sim { error: Some(e), .. } => Some(e.clone()),
        Outcome::Sim {
            report: Some(r), ..
        } if r.audit_violations > 0 => Some(format!("{} audit violations", r.audit_violations)),
        _ => None,
    }
}

impl OpResult {
    pub fn failure(&self) -> Option<&str> {
        self.why_failed.as_deref()
    }

    pub fn sim_report(&self) -> Option<&SimReport> {
        match &self.outcome {
            Outcome::Sim { report, .. } => report.as_deref(),
            Outcome::Model { .. } => None,
        }
    }

    pub fn model_report(&self) -> Option<&ModelReport> {
        match &self.outcome {
            Outcome::Model { report, .. } => report.as_ref(),
            Outcome::Sim { .. } => None,
        }
    }
}

/// The results of one pass over a workload's ops.
pub struct Pass {
    /// Wall time of the pass, without the host-speed samples taken in it.
    pub wall_ns: u64,
    pub ops: Vec<OpResult>,
    /// Times of the reference computation taken during the pass, s.
    pub ref_s: Vec<f64>,
    /// Host-speed samples dropped during the pass (see `reference`).
    pub ref_dropped: usize,
}

impl Pass {
    pub fn failed(&self) -> usize {
        self.ops.iter().filter(|r| r.failure().is_some()).count()
    }
}

/// Spacing of the host-speed samples within a pass, s.
const HOST_SAMPLE_EVERY_S: f64 = 0.1;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Silences the default panic printout: panics of the model are caught,
/// counted and reported as failed ops, with their message in the manifest.
pub fn quiet_panics() {
    panic::set_hook(Box::new(|_| {}));
}

/// A constructed model or simulator, ready to solve or run.
// Built and consumed within one op; boxing the simulator would add an
// allocation to the timed set-up.
#[allow(clippy::large_enum_variant)]
pub enum Built {
    Model(Model),
    Sim(Result<Sim, String>),
}

/// Builds the op's config and constructs the model or simulator, timed.
/// Returns the constructor time and the built object.
pub fn build(op: &OpDef, lock_capture: bool) -> (u64, Built) {
    match op {
        OpDef::Model { mix, sites, n } => {
            let t = Instant::now();
            let m = Model::with_options(model_config(*mix, *sites, *n), ModelOptions::default());
            (ns_since(t), Built::Model(m))
        }
        OpDef::Sim(s) => {
            let t = Instant::now();
            let mut cfg = sim_config(s);
            if lock_capture {
                cfg.trace = Some(lock_trace());
            }
            let sim = Sim::new(cfg).map_err(|e| format!("config rejected: {e}"));
            (ns_since(t), Built::Sim(sim))
        }
    }
}

/// Runs one op. With `lock_capture` the simulator records its lock-table
/// traffic into the returned tracer (replacing any configured trace).
pub fn run_op(op: &OpDef, lock_capture: bool, spans: &mut Option<Spans>, parent: u32) -> OpResult {
    let (setup_ns, built) = build(op, lock_capture);
    if let Some(sp) = spans.as_mut() {
        let name = if matches!(op, OpDef::Model { .. }) {
            "model.new"
        } else {
            "sim.new"
        };
        sp.close_at(name, parent, setup_ns);
    }
    let t = Instant::now();
    let (run_ns, outcome) = match built {
        Built::Model(m) => {
            let got = panic::catch_unwind(AssertUnwindSafe(|| m.solve_logged(None, None).0));
            let run_ns = ns_since(t);
            let outcome = match got {
                Ok(r) => Outcome::Model {
                    report: Some(r),
                    panic: None,
                },
                Err(p) => Outcome::Model {
                    report: None,
                    panic: Some(panic_text(p)),
                },
            };
            (run_ns, outcome)
        }
        Built::Sim(Err(e)) => (
            ns_since(t),
            Outcome::Sim {
                report: None,
                error: Some(e),
                tracer: None,
                metrics: None,
                pdes: ShardStatsSnapshot::default(),
            },
        ),
        Built::Sim(Ok(sim)) => {
            let scope = shardstats::begin_run();
            let got = panic::catch_unwind(AssertUnwindSafe(|| sim.run_checked_instrumented()));
            let run_ns = ns_since(t);
            let pdes = scope.finish();
            let outcome = match got {
                Ok(Ok((report, tracer, metrics))) => Outcome::Sim {
                    report: Some(Box::new(report)),
                    error: None,
                    tracer,
                    metrics,
                    pdes,
                },
                Ok(Err(e)) => Outcome::Sim {
                    report: None,
                    error: Some(format!("SimError: {e}")),
                    tracer: None,
                    metrics: None,
                    pdes,
                },
                Err(p) => Outcome::Sim {
                    report: None,
                    error: Some(format!("panic: {}", panic_text(p))),
                    tracer: None,
                    metrics: None,
                    pdes,
                },
            };
            (run_ns, outcome)
        }
    };
    if let Some(sp) = spans.as_mut() {
        let name = if matches!(op, OpDef::Model { .. }) {
            "model.solve"
        } else {
            "sim.run"
        };
        sp.close_at(name, parent, run_ns);
    }
    OpResult {
        setup_ns,
        run_ns,
        why_failed: failure_of(&outcome),
        outcome,
        digest: 0,
    }
}

/// Runs every op once, back to back. With `spans`, records an `op` span
/// per op with its constructor and solve/run spans as children.
/// Samples the host's speed between ops, every [`HOST_SAMPLE_EVERY_S`]
/// and once at the end; their time is left out of the pass's wall time.
pub fn run_pass(ops: &[OpDef], spans: &mut Option<Spans>) -> Pass {
    let t = Instant::now();
    let mut results = Vec::with_capacity(ops.len());
    let (mut ref_s, mut ref_dropped, mut sampling_ns) = (Vec::new(), 0, 0);
    let mut last_sample = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let parent = spans.as_mut().map_or(0, |sp| sp.open("op", i as u32));
        results.push(run_op(op, false, spans, parent));
        if let Some(sp) = spans.as_mut() {
            sp.close(parent);
        }
        if i + 1 == ops.len() || last_sample.elapsed().as_secs_f64() >= HOST_SAMPLE_EVERY_S {
            let s = reference::sample();
            match s.ref_s {
                Some(r) => ref_s.push(r),
                None => ref_dropped += 1,
            }
            sampling_ns += s.wall_ns;
            last_sample = Instant::now();
        }
    }
    Pass {
        wall_ns: ns_since(t).saturating_sub(sampling_ns),
        ops: results,
        ref_s,
        ref_dropped,
    }
}

/// Constructs every op of a pass and drops it: one sample of set-up time.
pub fn setup_only(ops: &[OpDef]) -> u64 {
    ops.iter()
        .map(|op| {
            let (ns, built) = build(op, false);
            drop(built);
            ns
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_panic_counts_as_one_failed_op_and_the_pass_completes() {
        quiet_panics();
        let ops = vec![
            OpDef::Model {
                mix: StandardWorkload::Mb4,
                sites: 6,
                n: 4,
            },
            OpDef::Model {
                mix: StandardWorkload::Mb4,
                sites: 4,
                n: 12,
            },
        ];
        let pass = run_pass(&ops, &mut None);
        assert_eq!(pass.ops.len(), 2, "the pass runs every op");
        assert_eq!(pass.failed(), 1);
        let why = pass.ops[0].failure().expect("MB4/n4 at 6 sites fails");
        assert!(why.starts_with("panic: "), "{why}");
        assert!(pass.ops[1].failure().is_none());
        assert!(pass.ops[1].model_report().is_some());
    }

    #[test]
    fn every_workload_builds_valid_configs() {
        for w in WORKLOADS {
            for op in workload_ops(w, 1).expect("known workload") {
                if let OpDef::Sim(s) = &op {
                    sim_config(s).validate().expect("valid config");
                }
            }
        }
        assert!(workload_ops("nope", 1).is_none());
    }

    #[test]
    fn the_pinned_xsite_op_runs_monolithic_and_the_others_coupled() {
        let ops = workload_ops("xsite_cluster", 1).expect("known workload");
        let engines: Vec<&str> = ops
            .iter()
            .map(|op| match op {
                OpDef::Sim(s) => engine_of(&sim_config(s)),
                OpDef::Model { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(engines.len(), 3 * XSITE_SEEDS as usize);
        for e in engines.chunks(3) {
            assert_eq!(e, ["monolithic", "coupled", "coupled"]);
        }
    }
}
