//! The CARAT benchmark: runs one workload (or all of them) from a single
//! process against the public APIs of the model and the simulator, checks
//! the outputs, and prints every metric with its unit. The last line of
//! standard output is a JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured on
//! untraced passes. With `--trace 1` the run adds span-traced passes,
//! replays of the recorded traffic into the lower layers, and the
//! per-layer metrics derived from them. `--workload all` runs every
//! workload in both modes. See `perfbench/README.md`.

mod layers;
mod ops;
mod paper;
mod reference;
mod replay;
mod stats;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::process::ExitCode;
use std::time::Instant;

use ops::{OpDef, OpResult, Outcome, Pass, Role};
use stats::{json_num, json_str, median, quartiles, ratio, Spans};

/// Minimum untraced passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Set-up samples taken before the first pass and after every untraced
/// pass, so that they spread over the run like the passes do.
const SETUP_SAMPLES: usize = 3;
/// Untimed warm-up passes run for at least this long.
const WARMUP_S: f64 = 1.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paper_grid|cluster_model|xsite_cluster|observed|all> \
    [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload != "all" && !ops::WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    Ok(a)
}

/// A named metric with its unit, direction, value, and the per-pass
/// samples the value summarises (empty for counts and computed values).
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, better: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            better,
            value,
            samples: Vec::new(),
        }
    }

    /// The median of per-pass `samples`.
    pub fn median_of(
        name: &str,
        unit: &'static str,
        better: &'static str,
        samples: Vec<f64>,
    ) -> Self {
        Metric {
            value: median(&samples),
            samples,
            ..Metric::new(name, unit, better, 0.0)
        }
    }
}

/// Correctness checks of one run; any entry fails the run.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub passed: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.passed.push(what);
        } else {
            self.failures.push(what);
        }
    }
}

/// A stable digest of an op's output, for identity checks.
pub fn digest(r: &OpResult) -> u64 {
    let mut h = DefaultHasher::new();
    match &r.outcome {
        Outcome::Model { report, panic } => format!("{report:?}{panic:?}").hash(&mut h),
        Outcome::Sim { report, error, .. } => format!("{report:?}{error:?}").hash(&mut h),
    }
    h.finish()
}

/// Everything a run measured.
pub struct Run {
    pub workload: String,
    pub ops: Vec<OpDef>,
    /// Set-up samples: the summed set-up time of one pass's ops, and the
    /// time of the reference computation right after it (`None` if that
    /// sample was dropped), s.
    pub setup: Vec<(f64, Option<f64>)>,
    pub untraced: Vec<Pass>,
    pub traced: Vec<(Pass, Spans)>,
    pub checks: Checks,
    pub trace: bool,
    pub replays: Vec<layers::OpReplay>,
    pub obs: Option<layers::ObsProbe>,
    /// Peak resident set at the end of the timed passes, before the
    /// checks' extra runs.
    pub peak_rss_mb: f64,
}

impl Run {
    pub fn first(&self) -> &Pass {
        &self.untraced[0]
    }

    pub fn attempted(&self) -> usize {
        self.untraced.iter().map(|p| p.ops.len()).sum()
    }

    pub fn failed(&self) -> usize {
        self.untraced.iter().map(Pass::failed).sum()
    }

    /// Every kept host-speed sample of the run, s (see `reference`).
    pub fn ref_samples(&self) -> Vec<f64> {
        (self.untraced.iter())
            .flat_map(|p| p.ref_s.iter().copied())
            .chain(self.setup.iter().filter_map(|s| s.1))
            .collect()
    }

    /// Host-speed samples dropped in the run.
    pub fn ref_dropped(&self) -> usize {
        self.untraced.iter().map(|p| p.ref_dropped).sum::<usize>()
            + self.setup.iter().filter(|s| s.1.is_none()).count()
    }

    /// The host-speed factor over the whole run (see `reference`).
    pub fn host_factor(&self) -> f64 {
        reference::host_factor(&self.ref_samples())
    }

    /// Scale factor for a stretch of the run with host-speed samples
    /// `refs`: theirs, or the whole run's when all were dropped.
    fn factor_of(&self, refs: &[f64]) -> f64 {
        if refs.is_empty() {
            self.host_factor()
        } else {
            reference::host_factor(refs)
        }
    }
}

/// Lowers this process's peak resident set to its current one, so that
/// a workload run after another in one process (`--workload all`) reports
/// its own peak. Linux ≥ 4.0; where the kernel refuses, the peak also
/// covers the workloads run before.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, when the benchmark runs inside a git work tree.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(format!(".git/{r}")) {
        return c.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs `workload` for `seconds` of timed passes, then its checks.
fn measure(workload: &str, seed: u64, seconds: f64, trace: bool) -> Run {
    let ops = ops::workload_ops(workload, seed).expect("workload validated at parse time");
    reset_peak_rss();
    // Warm caches and lazy set-up, and let the host settle into sustained
    // load, before anything is timed. The first pass is the reference for
    // the output checks.
    let warm_start = Instant::now();
    let warm = slim(ops::run_pass(&ops, &mut None), true);
    while warm_start.elapsed().as_secs_f64() < WARMUP_S {
        ops::run_pass(&ops, &mut None);
    }
    let mut run = Run {
        workload: workload.to_string(),
        ops,
        setup: Vec::new(),
        untraced: Vec::new(),
        traced: Vec::new(),
        checks: Checks::default(),
        trace,
        replays: Vec::new(),
        obs: None,
        peak_rss_mb: 0.0,
    };
    let mut probes = layers::ObsProbe::new(&run.ops, trace);
    let start = Instant::now();
    let sample_setup = |run: &mut Run| {
        for _ in 0..SETUP_SAMPLES {
            let setup = ops::setup_only(&run.ops) as f64 / 1e9;
            run.setup.push((setup, reference::sample().ref_s));
        }
    };
    sample_setup(&mut run);
    loop {
        let keep_reports = run.untraced.is_empty();
        run.untraced
            .push(slim(ops::run_pass(&run.ops, &mut None), keep_reports));
        sample_setup(&mut run);
        if trace {
            let mut spans = Some(Spans::new());
            let pass = slim(ops::run_pass(&run.ops, &mut spans), false);
            run.traced.push((pass, spans.expect("spans were recorded")));
            probes.run_variants();
        }
        if start.elapsed().as_secs_f64() >= seconds && run.untraced.len() >= MIN_PASSES {
            break;
        }
    }
    run.peak_rss_mb = peak_rss_mb();
    check_outputs(&mut run, &warm);
    let mut failures = Vec::new();
    probes.check(&run, &mut failures);
    run.checks.failures.extend(failures);
    run.obs = Some(probes);
    run
}

/// Drops the bulky parts of a pass's results — lifecycle traces, metric
/// samples, and without `keep_reports` the reports — keeping each op's
/// output digest. Keeping every pass's reports would make the benchmark's
/// own memory grow with the pass count.
fn slim(mut pass: Pass, keep_reports: bool) -> Pass {
    for r in &mut pass.ops {
        r.digest = digest(r);
        match &mut r.outcome {
            Outcome::Sim {
                report,
                tracer,
                metrics,
                ..
            } => {
                *tracer = None;
                *metrics = None;
                if !keep_reports {
                    *report = None;
                }
            }
            Outcome::Model { report, .. } if !keep_reports => *report = None,
            Outcome::Model { .. } => {}
        }
    }
    pass
}

/// The output checks every run makes.
fn check_outputs(run: &mut Run, warm: &Pass) {
    let ops = run.ops.clone();
    let first: Vec<u64> = warm.ops.iter().map(|r| r.digest).collect();
    let mut checks = std::mem::take(&mut run.checks);
    // Every pass repeats the same inputs, so it must repeat the outputs.
    let same = run
        .untraced
        .iter()
        .chain(run.traced.iter().map(|(p, _)| p))
        .all(|p| p.ops.iter().map(|r| r.digest).eq(first.iter().copied()));
    checks.check(same, "every pass reproduces the first pass's outputs");
    for (op, r) in ops.iter().zip(&warm.ops) {
        match (op, &r.outcome) {
            (
                OpDef::Sim(_),
                Outcome::Sim {
                    report: Some(rep), ..
                },
            ) => {
                checks.check(
                    rep.audit_violations == 0,
                    format!("audit_violations == 0 ({})", op.label()),
                );
                checks.check(
                    rep.total_tx_per_s() > 0.0 && rep.total_tx_per_s().is_finite(),
                    format!("positive throughput ({})", op.label()),
                );
            }
            (
                OpDef::Model { .. },
                Outcome::Model {
                    report: Some(rep), ..
                },
            ) => {
                let x = rep.total_tx_per_s();
                if rep.convergence.converged {
                    checks.check(
                        x > 0.0 && x.is_finite(),
                        format!("positive finite model throughput ({})", op.label()),
                    );
                }
            }
            _ => {}
        }
    }
    for (i, op) in ops.iter().enumerate() {
        let OpDef::Sim(n) = op else { continue };
        if n.role != Role::ShardsN {
            continue;
        }
        let one = ops.iter().position(
            |o| matches!(o, OpDef::Sim(s) if s.role == Role::Shards1 && s.seed == n.seed),
        );
        checks.check(
            one.is_some_and(|j| first[j] == first[i]),
            format!("reports identical at shards 1 and nproc ({})", op.label()),
        );
    }
    if run.workload == "paper_grid" {
        for (i, op) in ops.iter().enumerate() {
            let OpDef::Sim(_) = op else { continue };
            let (Some(m), Some(s)) = (warm.ops[i - 1].model_report(), warm.ops[i].sim_report())
            else {
                continue;
            };
            let err = (m.total_tx_per_s() - s.total_tx_per_s()).abs() / s.total_tx_per_s();
            checks.check(
                err <= 1.0,
                format!("model within 100% of the simulator ({})", op.label()),
            );
        }
    }
    layers::check_lock_replay(run, warm, &mut checks);
    run.checks = checks;
}

/// The end-to-end metrics, plus the workload-level figures that do not
/// apply to every workload (reported with the per-layer metrics).
fn end_to_end(run: &Run) -> (Vec<Metric>, Vec<Metric>) {
    let passes = &run.untraced;
    let attempted = run.attempted() as f64;
    let failed = run.failed() as f64;
    // Times in nominal-host seconds (see `reference`): a pass is scaled by
    // the host speed sampled during it, a set-up sample (too short for
    // samples of its own) by the whole run's; the value and the quartiles
    // are of the scaled samples. The raw medians are in the manifest.
    let setup_scaled = run.setup.iter().map(|s| s.0 * run.host_factor()).collect();
    let e2e = vec![
        Metric::median_of(
            "wall_s",
            "s",
            "lower",
            (passes.iter())
                .map(|p| p.wall_ns as f64 / 1e9 * run.factor_of(&p.ref_s))
                .collect(),
        ),
        Metric::median_of("setup_s", "s", "lower", setup_scaled),
        Metric::new("peak_rss_mb", "MB", "lower", run.peak_rss_mb),
        Metric::new("ok_ratio", "ratio", "higher", 1.0 - failed / attempted),
    ];
    let ops = &run.ops;
    let per_pass = |f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let is_model = |i: usize| matches!(ops[i], OpDef::Model { .. });
    let sim_rate = per_pass(&|p| {
        let (mut sim_s, mut host_s) = (0.0, 0.0);
        for (i, r) in p.ops.iter().enumerate() {
            let OpDef::Sim(s) = &ops[i] else { continue };
            let counted = if run.workload == "xsite_cluster" {
                s.role == Role::ShardsN
            } else {
                true
            };
            if counted && r.failure().is_none() {
                sim_s += (ops::WARMUP_MS + ops::MEASURE_MS) / 1e3;
                host_s += r.run_ns as f64 / 1e9;
            }
        }
        ratio(sim_s, host_s)
    });
    let model_rate = per_pass(&|p| {
        let (mut n, mut host_s) = (0.0, 0.0);
        for (i, r) in p.ops.iter().enumerate() {
            if is_model(i) {
                n += 1.0;
                host_s += r.run_ns as f64 / 1e9;
            }
        }
        ratio(n, host_s)
    });
    let role_ns = |p: &Pass, role: Role| -> f64 {
        ops.iter()
            .zip(&p.ops)
            .filter(|(o, _)| matches!(o, OpDef::Sim(s) if s.role == role))
            .map(|(_, r)| r.run_ns as f64)
            .sum()
    };
    let speedup = per_pass(&|p| ratio(role_ns(p, Role::Seq), role_ns(p, Role::ShardsN)));
    let (model_sim, model_paper, sim_paper) = layers::accuracy(run);
    let info = vec![
        Metric::new("fail_ratio", "ratio", "lower", failed / attempted),
        Metric::median_of("sim_s_per_host_s", "s/s", "higher", sim_rate),
        Metric::median_of("model_points_per_s", "1/s", "higher", model_rate),
        Metric::median_of("speedup_vs_best_sequential", "x", "higher", speedup),
        Metric::new("model_sim_err", "ratio", "lower", model_sim),
        Metric::new("model_paper_err", "ratio", "lower", model_paper),
        Metric::new("sim_paper_err", "ratio", "lower", sim_paper),
    ];
    (e2e, info)
}

fn print_metric(workload: &str, m: &Metric) {
    let spread = if m.samples.len() > 1 {
        let (q1, _, q3) = quartiles(&m.samples);
        format!("  [q1 {q1:.6}, q3 {q3:.6}, {} samples]", m.samples.len())
    } else {
        String::new()
    };
    println!(
        "{workload:>13}  {:<34} {:>16} {:<6} ({} is better){spread}",
        m.name,
        json_num(m.value),
        m.unit,
        m.better
    );
}

fn manifest(run: &Run, seed: u64, seconds: f64, trace: bool, metrics: &[&Metric]) -> String {
    let configs: Vec<String> = run
        .ops
        .iter()
        .map(|op| {
            let (engine, threads) = match op {
                OpDef::Model { .. } => ("model".to_string(), 1),
                OpDef::Sim(s) => {
                    let cfg = ops::sim_config(s);
                    let e = ops::engine_of(&cfg);
                    (e.to_string(), if e == "monolithic" { 1 } else { s.shards })
                }
            };
            format!(
                "{{\"op\":{},\"engine\":{},\"threads\":{threads}}}",
                json_str(&op.label()),
                json_str(&engine)
            )
        })
        .collect();
    let mut failures: Vec<String> = Vec::new();
    for (op, r) in run.ops.iter().zip(&run.first().ops) {
        if let Some(why) = r.failure() {
            failures.push(format!(
                "{{\"op\":{},\"why\":{}}}",
                json_str(&op.label()),
                json_str(why)
            ));
        }
    }
    let stats: Vec<String> = metrics
        .iter()
        .map(|m| {
            let (q1, med, q3) = if m.samples.is_empty() {
                (m.value, m.value, m.value)
            } else {
                quartiles(&m.samples)
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"median\":{},\"q1\":{},\"q3\":{},\"samples\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                json_num(med),
                json_num(q1),
                json_num(q3),
                m.samples.len().max(1)
            )
        })
        .collect();
    let checks: Vec<String> = run.checks.failures.iter().map(|c| json_str(c)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{seed},\"trace\":{},\"run_seconds\":{},\"host_nproc\":{},\
         \"passes\":{},\"traced_passes\":{},\"setup_samples\":{},\"host_ref_s\":{},\
         \"host_factor\":{},\"host_ref_samples\":{},\"host_ref_dropped\":{},\
         \"raw_wall_s\":{},\"raw_setup_s\":{},\"git_commit\":{},\
         \"attempted\":{},\"failed\":{},\"checks_passed\":{},\"checks_failed\":[{}],\
         \"configs\":[{}],\"failures\":[{}],\"metrics\":{{{}}}}}",
        json_str(&run.workload),
        trace as u8,
        json_num(seconds),
        ops::nproc(),
        run.untraced.len(),
        run.traced.len(),
        run.setup.len(),
        json_num(reference::NOMINAL_REF_S / run.host_factor()),
        json_num(run.host_factor()),
        run.ref_samples().len(),
        run.ref_dropped(),
        json_num(median(
            &(run.untraced.iter())
                .map(|p| p.wall_ns as f64 / 1e9)
                .collect::<Vec<_>>()
        )),
        json_num(median(&run.setup.iter().map(|s| s.0).collect::<Vec<_>>())),
        json_str(&git_commit()),
        run.attempted(),
        run.failed(),
        run.checks.passed.len(),
        checks.join(","),
        configs.join(","),
        failures.join(","),
        stats.join(",")
    )
}

/// Runs one workload in one mode, prints its report; returns the metrics
/// of the result line and the run.
fn report(args: &Args, workload: &str, trace: bool) -> (Vec<Metric>, Run) {
    let run = measure(workload, args.seed, args.seconds, trace);
    let (e2e, info) = end_to_end(&run);
    let (shown, unbounded) = if trace {
        let mut per_layer = info;
        per_layer.extend(layers::per_layer(&run));
        (per_layer, Vec::new())
    } else {
        (e2e, info)
    };
    println!(
        "# workload={workload} seed={} trace={} passes={} nproc={} host_factor={:.4} \
         (times in s of the nominal host)",
        args.seed,
        trace as u8,
        run.untraced.len(),
        ops::nproc(),
        run.host_factor()
    );
    for m in &shown {
        print_metric(workload, m);
    }
    if !unbounded.is_empty() {
        println!(
            "# workload-level figures (not defined on every workload, reported with --trace 1):"
        );
        for m in &unbounded {
            print_metric(workload, m);
        }
    }
    for f in &run.checks.failures {
        println!("CHECK FAILED: {f}");
    }
    let all: Vec<&Metric> = shown.iter().collect();
    println!(
        "manifest {}",
        manifest(&run, args.seed, args.seconds, trace, &all)
    );
    (shown, run)
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(String, &Metric)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, m)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(reference::CHILD_ARG) {
        println!("{}", reference::reference_s());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    ops::quiet_panics();
    let plan: Vec<(&str, bool)> = if args.workload == "all" {
        ops::WORKLOADS
            .iter()
            .flat_map(|&w| [(w, false), (w, true)])
            .collect()
    } else {
        vec![(args.workload.as_str(), args.trace)]
    };
    let mut results = Vec::new();
    for (w, trace) in plan {
        results.push((w, report(&args, w, trace)));
    }
    let correct = results
        .iter()
        .all(|(_, (_, r))| r.checks.failures.is_empty());
    let attempted = results.iter().map(|(_, (_, r))| r.attempted()).sum();
    let failed = results.iter().map(|(_, (_, r))| r.failed()).sum();
    let single = results.len() == 1;
    let keyed: Vec<(String, &Metric)> = results
        .iter()
        .flat_map(|(w, (ms, _))| {
            ms.iter().map(move |m| {
                let key = if single {
                    m.name.clone()
                } else {
                    format!("{w}.{}", m.name)
                };
                (key, m)
            })
        })
        .collect();
    println!("{}", result_line(correct, attempted, failed, &keyed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
