//! Property-based tests for the MVA solver on randomly generated closed
//! networks.

use carat_qnet::{CenterKind, MvaScratch, MvaSolution, Network};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomNet {
    populations: Vec<usize>,
    // demands[chain][center], centers = 2 queueing + 1 delay
    demands: Vec<[f64; 3]>,
}

fn net_strategy() -> impl Strategy<Value = RandomNet> {
    proptest::collection::vec(
        (1usize..4, (0.1f64..10.0, 0.1f64..10.0, 0.0f64..20.0)),
        1..4,
    )
    .prop_map(|chains| RandomNet {
        populations: chains.iter().map(|&(p, _)| p).collect(),
        demands: chains.iter().map(|&(_, (a, b, z))| [a, b, z]).collect(),
    })
}

fn build(rn: &RandomNet) -> Network {
    let mut net = Network::new();
    let cpu = net.add_center("CPU", CenterKind::Queueing);
    let disk = net.add_center("DISK", CenterKind::Queueing);
    let z = net.add_center("Z", CenterKind::Delay);
    for (k, &pop) in rn.populations.iter().enumerate() {
        let id = net.add_chain(format!("c{k}"), pop);
        net.set_demand(id, cpu, rn.demands[k][0]);
        net.set_demand(id, disk, rn.demands[k][1]);
        net.set_demand(id, z, rn.demands[k][2]);
    }
    net
}

/// A network with any mix of center kinds, zero demands and zero
/// populations.
#[derive(Debug, Clone)]
struct MixedNet {
    kinds: Vec<CenterKind>,
    populations: Vec<usize>,
    demands: Vec<Vec<f64>>, // demands[chain][center]
}

fn mixed_strategy() -> impl Strategy<Value = MixedNet> {
    let demand = (0u8..4, 0.0f64..20.0).prop_map(|(z, d)| if z == 0 { 0.0 } else { d });
    (
        proptest::collection::vec(any::<bool>(), 1..=5),
        proptest::collection::vec(
            (0usize..4, proptest::collection::vec(demand, 5usize)),
            0..=6,
        ),
    )
        .prop_map(|(queueing, chains)| {
            let c_n = queueing.len();
            MixedNet {
                kinds: queueing
                    .iter()
                    .map(|&q| {
                        if q {
                            CenterKind::Queueing
                        } else {
                            CenterKind::Delay
                        }
                    })
                    .collect(),
                populations: chains.iter().map(|&(p, _)| p).collect(),
                demands: chains.iter().map(|(_, d)| d[..c_n].to_vec()).collect(),
            }
        })
}

fn build_mixed(mn: &MixedNet) -> Network {
    let mut net = Network::new();
    for (c, &kind) in mn.kinds.iter().enumerate() {
        net.add_center(format!("c{c}"), kind);
    }
    for (k, &pop) in mn.populations.iter().enumerate() {
        let id = net.add_chain(format!("k{k}"), pop);
        for (c, &d) in mn.demands[k].iter().enumerate() {
            net.set_demand(id, c, d);
        }
    }
    net
}

/// The exact-MVA recursion written plainly: every population vector
/// decoded by div/mod, a `q` column for every center, nested `Vec`s. The
/// production kernel (odometer walk, queueing-only `q` table, flat
/// buffers) must match it bit for bit.
fn reference_exact(mn: &MixedNet) -> MvaSolution {
    let k_n = mn.populations.len();
    let c_n = mn.kinds.len();
    let lattice = mn
        .populations
        .iter()
        .map(|&n| n + 1)
        .product::<usize>()
        .max(1);
    let mut out = MvaSolution {
        throughput: vec![0.0; k_n],
        response: vec![0.0; k_n],
        residence: vec![vec![0.0; c_n]; k_n],
        utilization: vec![0.0; c_n],
        queue_len: vec![0.0; c_n],
    };
    let mut q = vec![0.0; lattice * c_n];
    let mut stride = vec![0usize; k_n];
    let mut pop = vec![0usize; k_n];
    let mut acc = 1usize;
    for (s, &p) in stride.iter_mut().zip(&mn.populations) {
        *s = acc;
        acc *= p + 1;
    }
    {
        let x = &mut out.throughput;
        let residence = &mut out.residence;
        for idx in 1..lattice.max(2) {
            if k_n == 0 {
                break;
            }
            let mut rem = idx;
            for (p, &population) in pop.iter_mut().zip(&mn.populations) {
                let radix = population + 1;
                *p = rem % radix;
                rem /= radix;
            }
            if idx >= lattice {
                break;
            }
            for k in 0..k_n {
                if pop[k] == 0 {
                    x[k] = 0.0;
                    continue;
                }
                let idx_minus = idx - stride[k];
                let mut total_r = 0.0;
                for c in 0..c_n {
                    let d = mn.demands[k][c];
                    let r = match mn.kinds[c] {
                        CenterKind::Delay => d,
                        CenterKind::Queueing => d * (1.0 + q[idx_minus * c_n + c]),
                    };
                    residence[k][c] = r;
                    total_r += r;
                }
                x[k] = if total_r > 0.0 {
                    pop[k] as f64 / total_r
                } else {
                    f64::INFINITY
                };
            }
            for c in 0..c_n {
                let mut qc = 0.0;
                for k in 0..k_n {
                    if pop[k] > 0 && x[k].is_finite() {
                        qc += x[k] * residence[k][c];
                    }
                }
                q[idx * c_n + c] = qc;
            }
        }
    }
    for c in 0..c_n {
        let mut u = 0.0;
        let mut ql = 0.0;
        for k in 0..k_n {
            if !out.throughput[k].is_finite() {
                continue;
            }
            if mn.kinds[c] == CenterKind::Queueing {
                u += out.throughput[k] * mn.demands[k][c];
            }
            ql += out.throughput[k] * out.residence[k][c];
        }
        out.utilization[c] = u;
        out.queue_len[c] = ql;
    }
    for k in 0..k_n {
        out.response[k] = if out.throughput[k] > 0.0 && out.throughput[k].is_finite() {
            mn.populations[k] as f64 / out.throughput[k]
        } else {
            0.0
        };
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_same_bits(got: &MvaSolution, want: &MvaSolution) {
    assert_eq!(bits(&got.throughput), bits(&want.throughput), "throughput");
    assert_eq!(bits(&got.response), bits(&want.response), "response");
    assert_eq!(got.residence.len(), want.residence.len(), "residence");
    for (g, w) in got.residence.iter().zip(&want.residence) {
        assert_eq!(bits(g), bits(w), "residence");
    }
    assert_eq!(
        bits(&got.utilization),
        bits(&want.utilization),
        "utilization"
    );
    assert_eq!(bits(&got.queue_len), bits(&want.queue_len), "queue_len");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The exact kernel matches the reference kernel bit for bit on every
    /// output field, both through the allocating entry point and through
    /// one scratch reused across two differently shaped networks.
    #[test]
    fn exact_mva_matches_reference_bits(a in mixed_strategy(), b in mixed_strategy()) {
        let mut scratch = MvaScratch::default();
        let mut out = MvaSolution::empty();
        for mn in [&a, &b] {
            let net = build_mixed(mn);
            let want = reference_exact(mn);
            assert_same_bits(&net.solve_exact(), &want);
            net.solve_exact_into(&mut scratch, &mut out);
            assert_same_bits(&out, &want);
        }
    }

    /// Exact MVA invariants: utilizations in [0, 1], population conserved
    /// per chain, response at least the total demand, throughput at most
    /// the bottleneck bound.
    #[test]
    fn exact_mva_invariants(rn in net_strategy()) {
        let net = build(&rn);
        let sol = net.solve_exact();
        for c in 0..2 {
            prop_assert!(sol.utilization[c] >= -1e-12);
            prop_assert!(sol.utilization[c] <= 1.0 + 1e-9,
                "util {} = {}", c, sol.utilization[c]);
        }
        for (k, &pop) in rn.populations.iter().enumerate() {
            // Little's law per chain: X_k · Σ_c R_kc = N_k.
            let resident: f64 = (0..3)
                .map(|c| sol.throughput[k] * sol.residence[k][c])
                .sum();
            prop_assert!((resident - pop as f64).abs() < 1e-6,
                "chain {}: {} vs {}", k, resident, pop);
            // Response ≥ total demand (queueing can only add).
            let demand: f64 = rn.demands[k].iter().sum();
            prop_assert!(sol.response[k] >= demand - 1e-9);
            // Asymptotic bound: X_k ≤ N_k / demand.
            prop_assert!(sol.throughput[k] <= pop as f64 / demand + 1e-9);
        }
    }

    /// Adding a customer to a chain never decreases that chain's own
    /// throughput. (Note: per-center utilization is NOT monotone — a
    /// disk-heavy chain growing can starve a CPU-heavy chain enough to
    /// lower CPU utilization — so only the per-chain property is asserted.)
    #[test]
    fn exact_mva_monotone_in_own_population(rn in net_strategy()) {
        let base = build(&rn).solve_exact();
        for grow in 0..rn.populations.len() {
            let mut bigger = rn.clone();
            bigger.populations[grow] += 1;
            let sol = build(&bigger).solve_exact();
            prop_assert!(
                sol.throughput[grow] >= base.throughput[grow] - 1e-9,
                "chain {} throughput fell: {} -> {}",
                grow, base.throughput[grow], sol.throughput[grow]
            );
        }
    }

    /// Schweitzer–Bard stays within a modest band of exact for small
    /// networks and satisfies the same hard bounds.
    #[test]
    fn approx_mva_tracks_exact(rn in net_strategy()) {
        let net = build(&rn);
        let exact = net.solve_exact();
        let approx = net.solve_approx(1e-12, 50_000);
        for (k, &pop) in rn.populations.iter().enumerate() {
            if pop == 0 { continue; }
            let rel = (approx.throughput[k] - exact.throughput[k]).abs()
                / exact.throughput[k].max(1e-12);
            prop_assert!(rel < 0.25, "chain {}: rel {}", k, rel);
            let demand: f64 = rn.demands[k].iter().sum();
            prop_assert!(approx.throughput[k] <= pop as f64 / demand + 1e-9);
        }
        for c in 0..2 {
            prop_assert!(approx.utilization[c] <= 1.0 + 1e-6);
        }
    }
}
