//! Metrics-recorder integration tests: sampling boundary semantics,
//! off-path neutrality, and byte-identical output for every shard count
//! (the determinism contract the CI gates also enforce end to end).

use carat::obs::{MetricsConfig, MetricsFilter, TraceConfig};
use carat::sim::{
    DeadlockMode, Sim, SimConfig, SimConfigError, SimError, SimReport, MAX_METRIC_SAMPLES,
};
use carat::workload::{StandardWorkload, SystemParams};
use proptest::prelude::*;

/// A small local-only (site-separable) run.
fn local_cfg(sites: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(StandardWorkload::Lb8.spec(sites), 8, seed);
    cfg.params = SystemParams::with_sites(sites);
    cfg.warmup_ms = 500.0;
    cfg.measure_ms = 2_000.0;
    cfg
}

/// A small cross-site run that takes the coupled conservative engine.
fn coupled_cfg(sites: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(StandardWorkload::Mb4.spec(sites), 8, seed);
    cfg.params = SystemParams::with_sites(sites);
    cfg.params.comm_delay_ms = 5.0;
    cfg.deadlock_mode = DeadlockMode::Probes;
    cfg.warmup_ms = 500.0;
    cfg.measure_ms = 2_000.0;
    cfg
}

fn run_instrumented(cfg: SimConfig) -> (SimReport, String) {
    let (report, _, metrics) = Sim::new(cfg)
        .expect("valid config")
        .run_checked_instrumented()
        .expect("no budget configured");
    (report, metrics.expect("metrics were on").to_jsonl())
}

#[test]
fn sampling_stops_at_the_run_end_when_the_cadence_does_not_divide_it() {
    // end = 2500 ms, cadence 400 ms: boundaries 400..2400, never 2800.
    let mut cfg = local_cfg(2, 7);
    cfg.metrics = Some(MetricsConfig::new(400.0));
    let (_, _, metrics) = Sim::new(cfg)
        .expect("valid")
        .run_checked_instrumented()
        .expect("no budget");
    let metrics = metrics.expect("metrics were on");
    let times: std::collections::BTreeSet<u64> =
        metrics.samples().map(|s| s.t_ms.round() as u64).collect();
    let expected: std::collections::BTreeSet<u64> = (1..=6).map(|k| k * 400).collect();
    assert_eq!(times, expected, "one sample row per boundary <= end");
}

#[test]
fn a_cadence_longer_than_the_run_yields_no_samples() {
    let mut cfg = local_cfg(2, 7);
    cfg.metrics = Some(MetricsConfig::new(10_000.0));
    let (_, _, metrics) = Sim::new(cfg)
        .expect("valid")
        .run_checked_instrumented()
        .expect("no budget");
    let metrics = metrics.expect("metrics were on");
    assert!(metrics.is_empty(), "no boundary fits inside the run");
    assert_eq!(metrics.to_csv(), "t_ms,site,metric,value\n", "header only");
}

#[test]
fn a_budget_trip_keeps_exactly_the_samples_before_the_trip_instant() {
    // Monolithic on purpose (distributed users, α = 0): under the sharded
    // engines each *site* stops at its own trip instant while the error
    // reports the earliest, so the strict global bound below holds only
    // for the single event loop.
    let mut cfg = SimConfig::new(StandardWorkload::Mb4.spec(2), 8, 7);
    cfg.warmup_ms = 500.0;
    cfg.measure_ms = 2_000.0;
    cfg.metrics = Some(MetricsConfig::new(5.0));
    cfg.max_events = 200; // trips mid-run: a full run needs far more
    let err = Sim::new(cfg)
        .expect("valid")
        .run_checked_instrumented()
        .expect_err("budget must trip");
    let SimError::EventBudgetExhausted {
        sim_time_ms,
        partial_metrics,
        ..
    } = err;
    let partial = *partial_metrics.expect("metrics were on");
    assert!(!partial.is_empty(), "the run got past the first boundary");
    for s in partial.samples() {
        assert!(
            s.t_ms < sim_time_ms,
            "sample at {} ms survived a trip at {} ms",
            s.t_ms,
            sim_time_ms
        );
    }
}

#[test]
fn a_site_lp_budget_trip_keeps_time_ordered_partial_samples() {
    // Site-separable LB8 at 4 sites runs one LP per site; each LP trips
    // its own share of the budget at its own instant, so the parts stop
    // at different boundaries and the merge interleaves uneven rows.
    let mut cfg = local_cfg(4, 7);
    cfg.metrics = Some(MetricsConfig::new(5.0));
    cfg.max_events = 400;
    let err = Sim::new(cfg)
        .expect("valid")
        .run_checked_instrumented()
        .expect_err("budget must trip");
    let SimError::EventBudgetExhausted {
        partial_metrics, ..
    } = err;
    let partial = *partial_metrics.expect("metrics were on");
    assert!(!partial.is_empty(), "the LPs got past the first boundary");
    let times: Vec<f64> = partial.samples().map(|s| s.t_ms).collect();
    assert_eq!(partial.len(), times.len(), "len() counts every sample");
    assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "partial samples are non-decreasing in time"
    );
    let mut per_site = [0usize; 4];
    partial
        .samples()
        .for_each(|s| per_site[s.site as usize] += 1);
    assert!(
        per_site.iter().any(|&n| n != per_site[0]),
        "the LPs stopped at different boundaries: {per_site:?}"
    );
}

#[test]
fn a_cadence_that_schedules_too_many_samples_is_rejected() {
    // The CLI's `--metrics 0.0001` on a 66 s, 2-site run: ~2.2e10
    // samples, which used to abort the process on allocation failure.
    let mut cfg = SimConfig::new(StandardWorkload::Lb8.spec(2), 8, 1);
    cfg.warmup_ms = 6_000.0;
    cfg.measure_ms = 60_000.0;
    cfg.metrics = Some(MetricsConfig::new(0.0001));
    let err = Sim::new(cfg.clone()).err().expect("rejected");
    assert!(
        matches!(
            &err,
            SimConfigError::InvalidParameter {
                name: "metrics.sample_ms",
                ..
            }
        ),
        "{err:?}"
    );
    assert!(err.to_string().contains("MAX_METRIC_SAMPLES"), "{err}");
    // The cap is exact: the largest cadence over it fails, the next
    // cadence that fits passes.
    let end = cfg.warmup_ms + cfg.measure_ms;
    let per_boundary = (2 * carat::obs::MetricKind::ALL.len()) as f64;
    let max_boundaries = (MAX_METRIC_SAMPLES as f64 / per_boundary).floor();
    cfg.metrics = Some(MetricsConfig::new(end / max_boundaries));
    assert!(cfg.validate().is_ok(), "exactly at the cap");
    cfg.metrics = Some(MetricsConfig::new(end / (max_boundaries + 1.0)));
    assert!(cfg.validate().is_err(), "one boundary over the cap");
}

/// FNV-1a, 64 bit: a dependency-free fingerprint for the golden fixture.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The golden configurations: a site-LP run (LB8, 4 sites), the same run
/// tripped by its event budget (uneven parts), and a monolithic run
/// (MB8, 2 sites); metrics every 20 ms and a lifecycle trace.
fn golden_cases() -> Vec<(&'static str, SimConfig)> {
    let observed = |mut cfg: SimConfig| {
        cfg.metrics = Some(MetricsConfig::new(20.0));
        cfg.trace = Some(TraceConfig {
            capacity: 1 << 16,
            ..TraceConfig::default()
        });
        cfg
    };
    let lp = observed(local_cfg(4, 3));
    let mut lp_trip = lp.clone();
    lp_trip.max_events = 400;
    let mut mono = SimConfig::new(StandardWorkload::Mb8.spec(2), 8, 3);
    mono.warmup_ms = 500.0;
    mono.measure_ms = 2_000.0;
    vec![
        ("lp_lb8_4site", lp),
        ("lp_lb8_4site_trip", lp_trip),
        ("mono_mb8_2site", observed(mono)),
    ]
}

/// One fixture line `case format bytes fnv1a64` per export of every
/// golden case: the metrics JSONL, CSV and Chrome JSON, and the Chrome
/// trace with the metrics as counter tracks (untripped runs only).
fn golden_lines() -> String {
    let mut out = String::new();
    for (name, cfg) in golden_cases() {
        let (tracer, metrics) = match Sim::new(cfg).expect("valid").run_checked_instrumented() {
            Ok((_, tracer, metrics)) => (tracer, metrics.expect("metrics were on")),
            Err(SimError::EventBudgetExhausted {
                partial_metrics, ..
            }) => (None, *partial_metrics.expect("metrics were on")),
        };
        let mut exports = vec![
            ("jsonl", metrics.to_jsonl()),
            ("csv", metrics.to_csv()),
            ("json", metrics.to_chrome_json()),
        ];
        if let Some(tracer) = tracer {
            exports.push(("trace", tracer.to_chrome_json_with(Some(&metrics))));
        }
        for (format, body) in exports {
            out.push_str(&format!(
                "{name} {format} {} {:016x}\n",
                body.len(),
                fnv1a64(body.as_bytes())
            ));
        }
    }
    out
}

#[test]
fn metrics_exports_match_the_pinned_golden_bytes() {
    // Pinned from the stable-sort recorder the columnar log replaced; a
    // merge that reorders, drops or re-times a sample changes a hash.
    let want: String = include_str!("fixtures/metrics_golden.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(golden_lines(), want);
}

#[test]
fn the_recorder_never_changes_the_report() {
    for cfg in [local_cfg(3, 11), coupled_cfg(3, 11)] {
        let off = Sim::new(cfg.clone()).expect("valid").run();
        let mut on_cfg = cfg;
        on_cfg.metrics = Some(MetricsConfig::new(10.0));
        let (on, jsonl) = run_instrumented(on_cfg);
        assert_eq!(off, on, "sampling must be observation, not interference");
        assert!(!jsonl.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random eligible configurations: the recorder's JSONL is
    /// byte-identical for every shard count, on both sharded engines,
    /// with and without a filter.
    #[test]
    fn metrics_bytes_are_shard_count_independent(
        seed in 1u64..1_000,
        sites in 2usize..5,
        sample_idx in 0usize..3,
        filter_idx in 0usize..3,
        coupled in any::<bool>(),
    ) {
        let sample_ms = [7.5, 20.0, 50.0][sample_idx];
        let filter = match filter_idx {
            0 => MetricsFilter::all(),
            1 => MetricsFilter::parse("queue|util").unwrap(),
            _ => MetricsFilter::parse("lock,tx").unwrap(),
        };
        let mut cfg = if coupled {
            coupled_cfg(sites, seed)
        } else {
            local_cfg(sites, seed)
        };
        cfg.metrics = Some(MetricsConfig { sample_ms, filter });
        let run = |shards: usize| {
            let mut c = cfg.clone();
            c.shards = shards;
            run_instrumented(c)
        };
        let (r1, m1) = run(1);
        for shards in [2usize, 4, 6] {
            let (r, m) = run(shards);
            prop_assert_eq!(&r1, &r, "report diverged at shards={}", shards);
            prop_assert_eq!(&m1, &m, "metrics diverged at shards={}", shards);
        }
        prop_assert!(!m1.is_empty(), "the run produced samples");
    }
}
