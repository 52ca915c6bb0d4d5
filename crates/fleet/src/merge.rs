//! Merging per-PoP views into one global, bit-faithful fleet view.
//!
//! The central invariant (DESIGN.md §16, generalizing the §11 worker
//! invariant worker → node): the catchment model homes every client
//! prefix on exactly one PoP at a time, and the workload keys groups by
//! prefix, so each (group, rank, window) cell lives on **exactly one**
//! node. Merging is therefore a *disjoint union* — concatenate, sort by
//! the canonical cell key, and we have byte-for-byte the cells a
//! single-node run over the same records would serve. No t-digest
//! re-merge happens at the fleet layer, so no approximation error can
//! creep in (the aggregation-distortion pitfall of PAPERS.md's
//! measurement recommendations).
//!
//! A duplicate cell key across PoPs would mean the catchment homed one
//! group on two nodes — a correctness violation, not a mergeable
//! situation — so `merge_cells` detects it and fails with a typed
//! [`FleetError::DuplicateCell`] instead of silently double-counting.

use edgeperf_live::{cell_line_sort_key, CellLine, ClassCount, LiveSnapshot, ReasonCount};

use crate::FleetError;

/// Merge per-PoP cell exports into the global canonical-order view.
///
/// `per_pop` pairs each contributing node id with its `cells` rows, in
/// whatever order the node served them (every PoP reply is canonical
/// already; the merge does not rely on it). The rows, each beside its
/// node, are stable-sorted by the canonical key, so a cell two nodes
/// served is two equal neighbours, the node earlier in `per_pop` first:
/// that is a [`FleetError::DuplicateCell`].
pub(crate) fn merge_cells(per_pop: Vec<(u16, Vec<CellLine>)>) -> Result<Vec<CellLine>, FleetError> {
    let mut merged: Vec<(u16, CellLine)> = per_pop
        .into_iter()
        .flat_map(|(node, cells)| cells.into_iter().map(move |cell| (node, cell)))
        .collect();
    merged.sort_by_key(|(_, cell)| cell_line_sort_key(cell));
    let same = |pair: &&[(u16, CellLine)]| {
        cell_line_sort_key(&pair[0].1) == cell_line_sort_key(&pair[1].1)
    };
    if let Some([(first_node, _), (second_node, cell)]) = merged.windows(2).find(same) {
        return Err(FleetError::DuplicateCell {
            window: cell.window,
            pop: cell.pop,
            prefix_base: cell.prefix_base,
            prefix_len: cell.prefix_len,
            rank: cell.rank,
            first_node: *first_node,
            second_node: *second_node,
        });
    }
    Ok(merged.into_iter().map(|(_, cell)| cell).collect())
}

/// Sum per-PoP snapshots into the fleet-wide snapshot. Counters add;
/// `drained` is true only when every node drained; typed reject reasons
/// and temporal-class tallies merge by label in sorted order.
pub(crate) fn merge_snapshots(per_pop: &[LiveSnapshot]) -> LiveSnapshot {
    let mut out = LiveSnapshot {
        drained: !per_pop.is_empty(),
        workers: 0,
        accepted: 0,
        rejected: 0,
        late: 0,
        groups: 0,
        windows_closed: 0,
        open_windows: 0,
        events_minrtt: 0,
        events_hdratio: 0,
        episodes_opened: 0,
        episodes_open: 0,
        reject_reasons: Vec::new(),
        classes_minrtt: Vec::new(),
    };
    let mut reasons = std::collections::BTreeMap::<&str, u64>::new();
    let mut classes = std::collections::BTreeMap::<&str, u64>::new();
    for snap in per_pop {
        out.drained &= snap.drained;
        out.workers += snap.workers;
        out.accepted += snap.accepted;
        out.rejected += snap.rejected;
        out.late += snap.late;
        // Groups are disjoint across PoPs (the catchment invariant), so
        // the fleet group count is the plain sum.
        out.groups += snap.groups;
        out.windows_closed += snap.windows_closed;
        out.open_windows += snap.open_windows;
        out.events_minrtt += snap.events_minrtt;
        out.events_hdratio += snap.events_hdratio;
        out.episodes_opened += snap.episodes_opened;
        out.episodes_open += snap.episodes_open;
        for r in &snap.reject_reasons {
            *reasons.entry(r.reason.as_str()).or_default() += r.count;
        }
        for c in &snap.classes_minrtt {
            *classes.entry(c.class.as_str()).or_default() += c.groups;
        }
    }
    out.reject_reasons = reasons
        .into_iter()
        .map(|(reason, count)| ReasonCount { reason: reason.to_string(), count })
        .collect();
    out.classes_minrtt = classes
        .into_iter()
        .map(|(class, groups)| ClassCount { class: class.to_string(), groups })
        .collect();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(window: u32, prefix_base: u32, rank: u8, n: u64) -> CellLine {
        CellLine {
            window,
            pop: 0,
            prefix_base,
            prefix_len: 24,
            country: 1,
            continent: 2,
            rank,
            relationship: "transit".to_string(),
            longer_path: false,
            more_prepended: false,
            n,
            n_tested: n,
            bytes: n * 100,
            min_rtt_p50: 12.5,
            min_rtt_var: Some(0.25),
            hdratio_p50: Some(0.9),
            hdratio_var: None,
        }
    }

    #[test]
    fn merge_is_a_sorted_disjoint_union() {
        let merged = merge_cells(vec![
            (1, vec![cell(2, 20, 0, 5), cell(0, 10, 0, 3)]),
            (0, vec![cell(1, 10, 0, 7), cell(0, 10, 1, 2)]),
        ])
        .unwrap();
        let keys: Vec<_> = merged.iter().map(cell_line_sort_key).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(merged.len(), 4);
    }

    #[test]
    fn duplicate_cells_across_nodes_are_a_typed_violation() {
        let err = merge_cells(vec![(0, vec![cell(0, 10, 0, 3)]), (1, vec![cell(0, 10, 0, 3)])])
            .unwrap_err();
        match err {
            FleetError::DuplicateCell {
                first_node: 0, second_node: 1, prefix_base: 10, ..
            } => {}
            other => panic!("expected DuplicateCell, got {other}"),
        }
        assert!(err.to_string().contains("catchment violation"), "{err}");
    }

    #[test]
    fn a_collision_names_the_earlier_pop_first() {
        let err = merge_cells(vec![
            (0, vec![cell(0, 10, 0, 3), cell(1, 30, 0, 4)]),
            (1, vec![cell(0, 20, 0, 5), cell(2, 30, 0, 4)]),
            (2, vec![cell(1, 30, 0, 4)]),
        ])
        .unwrap_err();
        assert!(
            matches!(
                err,
                FleetError::DuplicateCell {
                    window: 1,
                    prefix_base: 30,
                    first_node: 0,
                    second_node: 2,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn a_clean_merge_does_not_depend_on_the_order_of_the_pops() {
        let mut negative_zero = cell(0, 20, 1, 6);
        negative_zero.min_rtt_p50 = -0.0;
        let per_pop = [
            (0, vec![cell(2, 10, 1, 4), cell(0, 10, 0, 3)]),
            (1, vec![cell(1, 20, 0, 5), negative_zero]),
            (2, vec![cell(0, 30, 0, 7), cell(3, 30, 0, 0)]),
        ];
        let want = merge_cells(per_pop.to_vec()).unwrap();
        assert_eq!(want.len(), 6);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let got = merge_cells(order.map(|i| per_pop[i].clone()).to_vec()).unwrap();
            assert_eq!(edgeperf_live::first_difference(&got, &want), None, "order {order:?}");
        }
    }

    #[test]
    fn snapshots_sum_and_drain_conjunctively() {
        let a = LiveSnapshot {
            drained: true,
            workers: 2,
            accepted: 100,
            rejected: 3,
            late: 1,
            groups: 8,
            windows_closed: 4,
            open_windows: 2,
            events_minrtt: 1,
            events_hdratio: 0,
            episodes_opened: 1,
            episodes_open: 1,
            reject_reasons: vec![ReasonCount { reason: "late".to_string(), count: 1 }],
            classes_minrtt: vec![ClassCount { class: "episodic".to_string(), groups: 2 }],
        };
        let mut b = a.clone();
        b.drained = false;
        b.reject_reasons = vec![
            ReasonCount { reason: "late".to_string(), count: 2 },
            ReasonCount { reason: "json".to_string(), count: 1 },
        ];
        let merged = merge_snapshots(&[a.clone(), b]);
        assert!(!merged.drained);
        assert_eq!(merged.accepted, 200);
        assert_eq!(merged.groups, 16);
        assert_eq!(merged.reject_reasons.len(), 2);
        let late = merged.reject_reasons.iter().find(|r| r.reason == "late").unwrap();
        assert_eq!(late.count, 3);
        assert!(merge_snapshots(&[a.clone(), a]).drained);
        assert!(!merge_snapshots(&[]).drained);
    }
}
