//! Pinned-output tests. The paper's plain damped procedure (`Accel::Off`,
//! exact MVA) must keep producing **byte-identical** canonical JSON to the
//! fixtures captured before the accelerated solver landed; the default
//! solver (Anderson) is pinned by fixtures of its own and must stay within
//! 1e-6 of the plain fixed point on every field.

use carat::model::{
    Accel, ModelConfig, ModelNodeReport, ModelOptions, ModelReport, ModelTypeReport,
};
use carat::workload::StandardWorkload;
use carat_bench::{chain_to_json, solve_chain, ModelPoint, N_SWEEP};

const WORKLOADS: [StandardWorkload; 4] = [
    StandardWorkload::Lb8,
    StandardWorkload::Mb4,
    StandardWorkload::Mb8,
    StandardWorkload::Ub6,
];

fn grid(mopts: &ModelOptions) -> Vec<Vec<ModelPoint>> {
    WORKLOADS
        .iter()
        .map(|&wl| {
            N_SWEEP
                .iter()
                .map(|&n| {
                    let mut p =
                        ModelPoint::new(format!("{wl}/n{n}"), ModelConfig::new(wl.spec(2), n));
                    p.opts = mopts.clone();
                    p
                })
                .collect()
        })
        .collect()
}

fn solve(mopts: &ModelOptions, warm: bool) -> (Vec<ModelPoint>, Vec<ModelReport>) {
    let mut points = Vec::new();
    let mut reports = Vec::new();
    for pts in grid(mopts) {
        let reps = if warm {
            solve_chain(&pts, true)
        } else {
            pts.iter()
                .flat_map(|p| solve_chain(std::slice::from_ref(p), false))
                .collect()
        };
        points.extend(pts);
        reports.extend(reps);
    }
    (points, reports)
}

fn render(mopts: &ModelOptions, warm: bool) -> String {
    let (points, reports) = solve(mopts, warm);
    chain_to_json(&points, &reports)
}

/// A node's per-type rows followed by its per-chain rows.
fn rows(n: &ModelNodeReport) -> Vec<&ModelTypeReport> {
    let chains = n.per_chain.iter().map(|(_, r)| r);
    n.per_type.values().chain(chains).collect()
}

fn plain() -> ModelOptions {
    ModelOptions {
        accel: Accel::Off,
        ..Default::default()
    }
}

#[test]
fn default_sweep_matches_pre_accel_baseline_bytes() {
    let plain = plain();
    assert_eq!(
        render(&plain, true),
        include_str!("data/sweep_baseline_warm.json"),
        "warm plain sweep no longer byte-identical to the pinned baseline"
    );
    assert_eq!(
        render(&plain, false),
        include_str!("data/sweep_baseline_cold.json"),
        "cold plain sweep no longer byte-identical to the pinned baseline"
    );
}

#[test]
fn default_sweep_matches_anderson_bytes() {
    let defaults = ModelOptions::default();
    assert_eq!(defaults.accel, Accel::Anderson);
    assert_eq!(
        render(&defaults, true),
        include_str!("data/sweep_anderson_warm.json"),
        "warm default sweep no longer byte-identical to the pinned Anderson fixture"
    );
    assert_eq!(
        render(&defaults, false),
        include_str!("data/sweep_anderson_cold.json"),
        "cold default sweep no longer byte-identical to the pinned Anderson fixture"
    );
}

/// Every report field of the default (Anderson) sweep lies within 1e-6
/// relative of the plain damped sweep, warm and cold.
#[test]
fn default_sweep_agrees_with_plain_baseline() {
    let close = |x: f64, y: f64, what: &str, point: &str| {
        let scale = x.abs().max(y.abs());
        let rel = if scale > 0.0 {
            (x - y).abs() / scale
        } else {
            0.0
        };
        assert!(rel <= 1e-6, "{point} {what}: {x} vs {y} (rel {rel:.3e})");
    };
    for warm in [true, false] {
        let (points, fast) = solve(&ModelOptions::default(), warm);
        let (_, base) = solve(&plain(), warm);
        for ((p, a), b) in points.iter().zip(&fast).zip(&base) {
            let at = p.label.as_str();
            assert!(a.convergence.converged && b.convergence.converged, "{at}");
            assert_eq!(a.nodes.len(), b.nodes.len(), "{at}");
            for (na, nb) in a.nodes.iter().zip(&b.nodes) {
                close(na.tx_per_s, nb.tx_per_s, "tx_per_s", at);
                close(na.records_per_s, nb.records_per_s, "records_per_s", at);
                close(na.cpu_util, nb.cpu_util, "cpu_util", at);
                close(na.disk_util, nb.disk_util, "disk_util", at);
                close(na.log_disk_util, nb.log_disk_util, "log_disk_util", at);
                close(na.dio_per_s, nb.dio_per_s, "dio_per_s", at);
                assert!(na.per_type.keys().eq(nb.per_type.keys()), "{at}");
                let types_b = nb.per_chain.iter().map(|(t, _)| t);
                assert!(na.per_chain.iter().map(|(t, _)| t).eq(types_b), "{at}");
                for (ra, rb) in rows(na).into_iter().zip(rows(nb)) {
                    close(ra.xput_per_s, rb.xput_per_s, "xput_per_s", at);
                    close(ra.response_ms, rb.response_ms, "response_ms", at);
                    close(ra.n_s, rb.n_s, "n_s", at);
                    close(ra.pb, rb.pb, "pb", at);
                    close(ra.pd, rb.pd, "pd", at);
                    close(ra.p_a, rb.p_a, "p_a", at);
                    close(ra.l_h, rb.l_h, "l_h", at);
                    close(ra.r_lw_ms, rb.r_lw_ms, "r_lw_ms", at);
                    for ((ka, va), (kb, vb)) in ra.phase_ms.iter().zip(&rb.phase_ms) {
                        assert_eq!(ka, kb, "{at}");
                        close(*va, *vb, ka, at);
                    }
                }
            }
        }
    }
}
