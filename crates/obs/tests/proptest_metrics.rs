//! Property test for the metrics merge: `MetricsRecorder::merge_ordered`
//! must yield exactly the sample sequence of the reference definition —
//! concatenate the parts' samples in part order, then stable-sort by
//! `t_ms` — for 1–8 parts with unequal boundary counts (as after a budget
//! trip), filters that drop kinds, and empty parts (no boundaries, or no
//! columns).

use carat_obs::{MetricKind, MetricSample, MetricsConfig, MetricsFilter, MetricsRecorder};
use proptest::prelude::*;

const FILTERS: [&str; 4] = ["", "queue|util", "tx,lock,journal", "shard"];

/// One part: `rows` boundaries at `site`, each recording the kinds in
/// `mask` (bit order of `MetricKind::ALL`). Returns the recorder and the
/// samples it kept, built independently of the recorder.
fn part(
    cfg: &MetricsConfig,
    idx: usize,
    site: u32,
    rows: u64,
    mask: u32,
) -> (MetricsRecorder, Vec<MetricSample>) {
    let mut rec = MetricsRecorder::new(cfg);
    let mut kept = Vec::new();
    for k in 1..=rows {
        let t_ms = rec.next_boundary();
        assert_eq!(t_ms, k as f64 * cfg.sample_ms);
        for (c, kind) in MetricKind::ALL.into_iter().enumerate() {
            if mask & (1 << c) == 0 {
                continue;
            }
            let value = (idx * 100_000 + k as usize * 32 + c) as f64 * 0.5;
            rec.record(site, kind, value);
            if cfg.filter.accepts(kind) {
                kept.push(MetricSample {
                    t_ms,
                    site,
                    kind,
                    value,
                });
            }
        }
        rec.finish_boundary();
    }
    (rec, kept)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_equals_concatenate_then_stable_sort(
        shape in proptest::collection::vec((0u64..12, 0u32..8, 0u32..(1 << 17), 0u32..4), 1..9),
        filter_idx in 0usize..FILTERS.len(),
        cadence_idx in 0usize..3,
        nested in any::<bool>(),
    ) {
        let cfg = MetricsConfig {
            sample_ms: [0.1, 7.5, 10.0][cadence_idx],
            filter: MetricsFilter::parse(FILTERS[filter_idx]).unwrap(),
        };
        let mut parts = Vec::new();
        let mut reference = Vec::new();
        for (idx, &(rows, site, mask, empty)) in shape.iter().enumerate() {
            // One part in four records no columns at all.
            let mask = if empty == 0 { 0 } else { mask };
            let (rec, kept) = part(&cfg, idx, site, rows, mask);
            prop_assert_eq!(rec.len(), kept.len());
            parts.push(rec);
            reference.extend(kept);
        }
        reference.sort_by(|a, b| a.t_ms.partial_cmp(&b.t_ms).unwrap());
        let furthest = shape.iter().map(|s| s.0).max().unwrap_or(0) + 1;

        let merged = if nested && parts.len() > 1 {
            // Merging merged recorders must flatten to the same order.
            let tail = parts.split_off(parts.len() / 2);
            MetricsRecorder::merge_ordered(vec![
                MetricsRecorder::merge_ordered(parts),
                MetricsRecorder::merge_ordered(tail),
            ])
        } else {
            MetricsRecorder::merge_ordered(parts)
        };
        let got: Vec<MetricSample> = merged.samples().collect();
        prop_assert_eq!(merged.len(), got.len());
        prop_assert_eq!(merged.is_empty(), reference.is_empty());
        prop_assert_eq!(&got, &reference);
        prop_assert_eq!(merged.next_boundary(), furthest as f64 * cfg.sample_ms);
    }
}
