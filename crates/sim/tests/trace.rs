//! The tracing determinism contract: attaching a tracer is pure
//! observation. The traced run must produce the *same report* as the
//! untraced run, and the trace itself must be byte-identical across
//! repeated runs of one configuration.

use carat_sim::{
    CcProtocol, DeadlockMode, Sim, SimConfig, SimReport, TraceConfig, TraceFilter, TraceKind,
    Tracer,
};
use carat_workload::StandardWorkload;

fn cfg(seed: u64) -> SimConfig {
    let mut c = SimConfig::new(StandardWorkload::Mb8.spec(2), 8, seed);
    c.warmup_ms = 5_000.0;
    c.measure_ms = 60_000.0;
    c
}

fn run_with(trace: Option<TraceConfig>) -> (SimReport, Option<Tracer>) {
    let mut c = cfg(7);
    c.trace = trace;
    Sim::new(c).expect("valid config").run_traced()
}

#[test]
fn tracing_never_changes_the_report() {
    let (plain, no_tracer) = run_with(None);
    assert!(no_tracer.is_none());
    let (traced, tracer) = run_with(Some(TraceConfig::default()));
    let tracer = tracer.expect("tracer returned when configured");
    assert!(tracer.recorded() > 0, "a real run must emit events");
    // Reports — counters included — are equal field for field: the tracer
    // only reads simulation state, never feeds back into it.
    assert_eq!(plain, traced);
}

#[test]
fn trace_is_byte_identical_across_runs() {
    let (_, a) = run_with(Some(TraceConfig::default()));
    let (_, b) = run_with(Some(TraceConfig::default()));
    let (a, b) = (a.unwrap(), b.unwrap());
    assert_eq!(a.to_chrome_json(), b.to_chrome_json());
    assert_eq!(a.to_jsonl(), b.to_jsonl());
}

#[test]
fn filter_restricts_kinds_nodes_and_types() {
    let filter = TraceFilter::parse("kind=lock|deadlock;node=0").expect("valid spec");
    let (_, tracer) = run_with(Some(TraceConfig {
        filter,
        ..TraceConfig::default()
    }));
    let tracer = tracer.unwrap();
    assert!(tracer.recorded() > 0, "MB8 has lock traffic at node 0");
    for ev in tracer.events() {
        assert!(
            matches!(
                ev.kind,
                TraceKind::LockRequest
                    | TraceKind::LockBlock
                    | TraceKind::LockGrant
                    | TraceKind::DeadlockVictim
                    | TraceKind::ProbeHop
            ),
            "kind {:?} escaped the filter",
            ev.kind
        );
        assert_eq!(ev.node, 0, "node {} escaped the filter", ev.node);
    }
    // The filtered trace is a subset of the unfiltered one.
    let (_, full) = run_with(Some(TraceConfig::default()));
    assert!(tracer.recorded() < full.unwrap().recorded());
}

#[test]
fn lifecycle_events_cover_the_protocol() {
    // A distributed-update workload under probes exercises every protocol
    // surface the trace schema names: phases, submissions, lock traffic,
    // and two-phase commit.
    let mut c = cfg(11);
    c.deadlock_mode = DeadlockMode::Probes;
    c.cc = CcProtocol::TwoPhaseLocking;
    c.trace = Some(TraceConfig::default());
    let (report, tracer) = Sim::new(c).expect("valid config").run_traced();
    let tracer = tracer.unwrap();
    let has = |k: TraceKind| tracer.events().any(|ev| ev.kind == k);
    assert!(has(TraceKind::Phase));
    assert!(has(TraceKind::TxSubmit));
    assert!(has(TraceKind::TxCommit));
    assert!(has(TraceKind::LockRequest));
    assert!(has(TraceKind::TwopcPrepare), "MB8 runs distributed updates");
    assert!(has(TraceKind::TwopcDecide));
    // Commit events match the report's committed transactions (plus the
    // warm-up commits the report window excludes).
    let commits = tracer
        .events()
        .filter(|ev| ev.kind == TraceKind::TxCommit)
        .count() as u64;
    let reported: u64 = report
        .nodes
        .iter()
        .flat_map(|n| n.per_type.values())
        .map(|t| t.commits)
        .sum();
    assert!(commits >= reported, "trace covers the whole run");
}

#[test]
fn bounded_ring_keeps_the_tail() {
    let (_, tracer) = run_with(Some(TraceConfig {
        filter: TraceFilter::all(),
        capacity: 64,
    }));
    let tracer = tracer.unwrap();
    assert_eq!(tracer.len(), 64);
    assert!(tracer.dropped() > 0, "a full run overflows 64 slots");
    // Events survive in nondecreasing time order (the tail of the run).
    let times: Vec<f64> = tracer.events().map(|ev| ev.t_ms).collect();
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    let (_, full) = run_with(Some(TraceConfig::default()));
    let full = full.unwrap();
    let last_full: Vec<_> = full
        .events()
        .skip(full.len() - 64)
        .map(|ev| (ev.kind, ev.gid, ev.t_ms.to_bits()))
        .collect();
    let kept: Vec<_> = tracer
        .events()
        .map(|ev| (ev.kind, ev.gid, ev.t_ms.to_bits()))
        .collect();
    assert_eq!(kept, last_full, "ring keeps exactly the newest 64 events");
}

#[test]
fn site_separable_trace_gids_name_one_transaction_each() {
    // A site-separable run merges one trace per site into one timeline.
    // A gid must name one transaction across the whole file, so every
    // submitted gid is submitted at exactly one node.
    let mut c = SimConfig::new(StandardWorkload::Lb8.spec(4), 8, 7);
    c.params = carat_workload::SystemParams::with_sites(4);
    c.warmup_ms = 1_000.0;
    c.measure_ms = 10_000.0;
    c.trace = Some(TraceConfig::default());
    let (_, tracer) = Sim::new(c).expect("valid config").run_traced();
    let tracer = tracer.expect("tracer returned when configured");
    let mut home: std::collections::BTreeMap<u64, u32> = std::collections::BTreeMap::new();
    for ev in tracer.events().filter(|ev| ev.kind == TraceKind::TxSubmit) {
        let node = *home.entry(ev.gid).or_insert(ev.node);
        assert_eq!(node, ev.node, "gid {} submitted at two nodes", ev.gid);
    }
    let nodes: std::collections::BTreeSet<u32> = home.values().copied().collect();
    assert_eq!(nodes.len(), 4, "every site submitted work");
}
