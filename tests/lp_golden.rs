//! Site-LP driver golden bytes: the report, metrics and trace of four
//! site-LP configurations are pinned by fingerprint in
//! `fixtures/lp_golden.txt`, at more than one shard count.
//!
//! The shard-invariance tests compare the driver with itself at different
//! thread counts; this fixture also pins it against the bytes an earlier
//! scheduling of the same LPs produced, so a scheduling change that
//! respects causality must leave every line unchanged.

use carat::obs::{MetricsConfig, TraceConfig};
use carat::sim::{CcProtocol, DeadlockMode, Sim, SimConfig, SimError};
use carat::workload::{StandardWorkload, SystemParams};

/// FNV-1a, 64 bit: a dependency-free fingerprint.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A site-LP run of `wl` on `sites` sites with metrics every 20 ms and a
/// lifecycle trace; `alpha_ms > 0` couples the sites.
fn observed(wl: StandardWorkload, sites: usize, alpha_ms: f64, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(wl.spec(sites), 8, seed);
    cfg.params = SystemParams::with_sites(sites);
    cfg.params.comm_delay_ms = alpha_ms;
    cfg.deadlock_mode = DeadlockMode::Probes;
    cfg.warmup_ms = 500.0;
    cfg.measure_ms = 2_500.0;
    cfg.metrics = Some(MetricsConfig::new(20.0));
    cfg.trace = Some(TraceConfig {
        capacity: 1 << 18,
        ..TraceConfig::default()
    });
    cfg
}

/// The golden configurations: a coupled MB4 × 8 run (α = 5 ms, probes),
/// a coupled MB8 × 3 run under basic timestamp ordering, the MB4 × 8 run
/// tripped by its event budget, and a site-separable LB8 × 4 run.
fn golden_cases() -> Vec<(&'static str, SimConfig)> {
    let mb4 = observed(StandardWorkload::Mb4, 8, 5.0, 5);
    // Three sites leave an LP's peers idle often enough that an LP which
    // ran past the reply to its own message would change these bytes.
    let mut bto = observed(StandardWorkload::Mb8, 3, 5.0, 8);
    bto.cc = CcProtocol::TimestampOrdering;
    bto.measure_ms = 10_000.0;
    // A window long enough that the 20,000-event budget trips mid-run,
    // sampled more coarsely to keep the partial metrics small.
    let mut trip = mb4.clone();
    trip.measure_ms = 60_000.0;
    trip.metrics = Some(MetricsConfig::new(100.0));
    trip.max_events = 20_000;
    vec![
        ("coupled_mb4_8site", mb4),
        ("coupled_mb8_3site_bto", bto),
        ("coupled_mb4_8site_trip", trip),
        (
            "separable_lb8_4site",
            observed(StandardWorkload::Lb8, 4, 0.0, 3),
        ),
    ]
}

/// One line `case part bytes fnv1a64` per part of every golden case run
/// on `shards` worker threads: the report's `Debug` text, the metrics
/// JSONL and the trace JSONL (a tripped run has no trace; its report and
/// metrics are the partial ones the error carries).
fn golden_lines(shards: usize) -> String {
    let mut out = String::new();
    for (name, mut cfg) in golden_cases() {
        cfg.shards = shards;
        let (report, tracer, metrics) =
            match Sim::new(cfg).expect("valid").run_checked_instrumented() {
                Ok((report, tracer, metrics)) => (report, tracer, metrics),
                Err(SimError::EventBudgetExhausted {
                    partial,
                    partial_metrics,
                    ..
                }) => (*partial, None, partial_metrics.map(|m| *m)),
            };
        let mut parts = vec![
            ("report", format!("{report:?}")),
            ("metrics", metrics.expect("metrics were on").to_jsonl()),
        ];
        if let Some(tracer) = tracer {
            parts.push(("trace", tracer.to_jsonl()));
        }
        for (part, body) in parts {
            out.push_str(&format!(
                "{name} {part} {} {:016x}\n",
                body.len(),
                fnv1a64(body.as_bytes())
            ));
        }
    }
    out
}

fn pinned() -> String {
    include_str!("fixtures/lp_golden.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn site_lp_bytes_match_the_pinned_golden_on_one_thread() {
    assert_eq!(golden_lines(1), pinned());
}

#[test]
fn site_lp_bytes_match_the_pinned_golden_on_three_threads() {
    assert_eq!(golden_lines(3), pinned());
}
