//! Load-balancer instrumentation logic: turning raw per-response records
//! into measurable transactions (paper §3.2.5).
//!
//! Three rules shape what is measurable:
//!
//! - **Coalescing**: responses written while a previous response still has
//!   unsent bytes (HTTP/2 multiplexing / preemption, or back-to-back
//!   writes with no transport-layer gap) merge into one larger
//!   transaction, so a sequence of small responses can test a goodput no
//!   single one could.
//! - **Bytes in flight**: a response issued while earlier data is still
//!   unACKed — without qualifying for coalescing — is ineligible, because
//!   its measured time would include the earlier data's drain time.
//! - **Delayed-ACK correction**: the measured interval ends at the ACK
//!   covering the *second-to-last* packet, and the measured byte count
//!   excludes the final packet, making the measurement immune to the
//!   receiver's delayed-ACK timer. Responses of fewer than two packets
//!   cannot be measured.

use crate::types::{Nanos, ResponseObs};

/// A measurable (possibly coalesced) transaction.
#[derive(Debug, Clone, Copy)]
pub struct Transaction {
    /// Total response bytes of the coalesced group (uncorrected; used for
    /// ideal-cwnd carry-forward).
    pub bytes_full: u64,
    /// Measured bytes: total minus the final packet (§3.2.5).
    pub bytes_measured: u64,
    /// Measured transfer time: first byte at NIC → ACK covering the
    /// second-to-last packet.
    pub ttotal: Nanos,
    /// Congestion window when the group's first byte reached the NIC.
    pub wnic: u64,
    /// Whether the transaction may be used for goodput estimation.
    pub eligible: bool,
    /// Number of raw responses coalesced into this transaction.
    pub coalesced: u32,
}

/// Which of the §3.2.5 corrections to apply — the knobs behind the
/// methodology ablations (every production deployment wants all of them
/// on; the ablation benches quantify why).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrumentOptions {
    /// Exclude the final packet and end timing at the second-to-last
    /// packet's ACK (delayed-ACK immunity).
    pub delayed_ack_correction: bool,
    /// Merge multiplexed / preempted / back-to-back responses.
    pub coalescing: bool,
}

impl Default for InstrumentOptions {
    fn default() -> Self {
        InstrumentOptions { delayed_ack_correction: true, coalescing: true }
    }
}

/// Assemble responses into transactions, applying the coalescing,
/// bytes-in-flight, and delayed-ACK rules.
///
/// Responses must be in write order (as captured).
pub fn assemble_transactions(responses: &[ResponseObs]) -> Vec<Transaction> {
    assemble_transactions_opts(responses, InstrumentOptions::default())
}

/// As [`assemble_transactions`], with explicit correction options (for
/// the methodology ablations).
pub(crate) fn assemble_transactions_opts(
    responses: &[ResponseObs],
    opts: InstrumentOptions,
) -> Vec<Transaction> {
    let mut out: Vec<Transaction> = Vec::new();
    // Current group under construction, as indices into `responses`.
    let mut group: Vec<usize> = Vec::new();

    let flush = |group: &mut Vec<usize>, out: &mut Vec<Transaction>| {
        if group.is_empty() {
            return;
        }
        out.push(build_transaction(responses, group, opts));
        group.clear();
    };

    for (i, r) in responses.iter().enumerate() {
        if group.is_empty() {
            group.push(i);
            continue;
        }
        if r.prev_unsent_at_write && opts.coalescing {
            // Multiplexed / preempted / back-to-back: merge.
            group.push(i);
        } else {
            flush(&mut group, &mut out);
            group.push(i);
        }
    }
    flush(&mut group, &mut out);
    out
}

fn build_transaction(
    responses: &[ResponseObs],
    group: &[usize],
    opts: InstrumentOptions,
) -> Transaction {
    let first = &responses[group[0]];
    let last = &responses[*group.last().unwrap()];
    let bytes_full: u64 = group.iter().map(|&i| responses[i].bytes).sum();

    // Eligibility requires complete endpoints and a clean start.
    let clean_start = first.bytes_in_flight_at_write == 0 && !first.prev_unsent_at_write;
    let endpoints = first.first_tx.is_some()
        && if opts.delayed_ack_correction {
            last.t_second_last_ack.is_some() && last.last_packet_bytes.is_some()
        } else {
            last.t_full_ack.is_some()
        };

    // The measurement endpoint: with the delayed-ACK correction the
    // interval ends at the ACK covering the second-to-last packet and
    // excludes the final packet's bytes; without it (ablation), the full
    // response to its final ACK.
    let end = if opts.delayed_ack_correction { last.t_second_last_ack } else { last.t_full_ack };
    let (ttotal, bytes_measured, wnic) = match (first.first_tx, end) {
        (Some((t0, cwnd)), Some(t2)) if t2 > t0 => {
            let last_pkt = if opts.delayed_ack_correction {
                last.last_packet_bytes.unwrap_or(0) as u64
            } else {
                0
            };
            (t2 - t0, bytes_full.saturating_sub(last_pkt), cwnd as u64)
        }
        (Some((_, cwnd)), _) => (0, 0, cwnd as u64),
        _ => (0, 0, 0),
    };

    // Fewer than two packets → nothing left after the last-packet
    // correction → unmeasurable.
    let measurable = bytes_measured > 0 && ttotal > 0;

    Transaction {
        bytes_full,
        bytes_measured,
        ttotal,
        wnic,
        eligible: clean_start && endpoints && measurable,
        coalesced: group.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MILLISECOND;

    fn resp(bytes: u64) -> ResponseObs {
        ResponseObs {
            bytes,
            issued_at: 0,
            first_tx: Some((0, 14_600)),
            t_second_last_ack: Some(60 * MILLISECOND),
            t_full_ack: Some(61 * MILLISECOND),
            last_packet_bytes: Some(((bytes - 1) % 1460 + 1) as u32),
            bytes_in_flight_at_write: 0,
            prev_unsent_at_write: false,
        }
    }

    #[test]
    fn independent_responses_stay_separate() {
        let rs = vec![resp(10_000), resp(20_000)];
        let txns = assemble_transactions(&rs);
        assert_eq!(txns.len(), 2);
        assert!(txns[0].eligible);
        assert_eq!(txns[0].bytes_full, 10_000);
        assert_eq!(txns[1].bytes_full, 20_000);
    }

    #[test]
    fn back_to_back_responses_coalesce() {
        let mut r2 = resp(5_000);
        r2.prev_unsent_at_write = true;
        r2.bytes_in_flight_at_write = 8_000;
        let rs = vec![resp(10_000), r2];
        let txns = assemble_transactions(&rs);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].bytes_full, 15_000);
        assert_eq!(txns[0].coalesced, 2);
        assert!(txns[0].eligible);
    }

    #[test]
    fn coalesced_chain_extends() {
        let mut r2 = resp(5_000);
        r2.prev_unsent_at_write = true;
        let mut r3 = resp(7_000);
        r3.prev_unsent_at_write = true;
        let txns = assemble_transactions(&[resp(10_000), r2, r3]);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].bytes_full, 22_000);
        assert_eq!(txns[0].coalesced, 3);
    }

    #[test]
    fn bytes_in_flight_without_coalescing_is_ineligible() {
        // Previous response fully written to NIC but not yet ACKed when
        // the next one starts: not coalescable, not measurable.
        let mut r2 = resp(20_000);
        r2.bytes_in_flight_at_write = 4_000;
        r2.prev_unsent_at_write = false;
        let txns = assemble_transactions(&[resp(10_000), r2]);
        assert_eq!(txns.len(), 2);
        assert!(txns[0].eligible);
        assert!(!txns[1].eligible);
    }

    #[test]
    fn delayed_ack_correction_strips_last_packet() {
        let txns = assemble_transactions(&[resp(10_000)]);
        // 10 000 B = 6×1460 + 1240 → last packet 1240 B.
        assert_eq!(txns[0].bytes_measured, 10_000 - 1240);
        assert_eq!(txns[0].ttotal, 60 * MILLISECOND);
    }

    #[test]
    fn single_packet_response_is_unmeasurable() {
        let mut r = resp(800);
        r.last_packet_bytes = Some(800);
        let txns = assemble_transactions(&[r]);
        assert!(!txns[0].eligible);
        assert_eq!(txns[0].bytes_measured, 0);
    }

    #[test]
    fn missing_endpoints_is_ineligible() {
        let mut r = resp(10_000);
        r.t_second_last_ack = None;
        let txns = assemble_transactions(&[r]);
        assert!(!txns[0].eligible);
    }

    #[test]
    fn never_transmitted_response_is_ineligible() {
        let mut r = resp(10_000);
        r.first_tx = None;
        let txns = assemble_transactions(&[r]);
        assert!(!txns[0].eligible);
        assert_eq!(txns[0].wnic, 0);
    }

    #[test]
    fn coalesced_group_uses_first_wnic_and_last_endpoints() {
        let mut r1 = resp(10_000);
        r1.first_tx = Some((5 * MILLISECOND, 29_200));
        let mut r2 = resp(5_000);
        r2.prev_unsent_at_write = true;
        r2.t_second_last_ack = Some(100 * MILLISECOND);
        r2.last_packet_bytes = Some(500);
        let txns = assemble_transactions(&[r1, r2]);
        assert_eq!(txns[0].wnic, 29_200);
        assert_eq!(txns[0].ttotal, 95 * MILLISECOND);
        assert_eq!(txns[0].bytes_measured, 15_000 - 500);
    }

    #[test]
    fn empty_input_yields_no_transactions() {
        assert!(assemble_transactions(&[]).is_empty());
    }

    #[test]
    fn group_following_coalesced_group_starts_clean() {
        let mut r2 = resp(5_000);
        r2.prev_unsent_at_write = true;
        let r3 = resp(8_000); // fresh write, nothing in flight
        let txns = assemble_transactions(&[resp(10_000), r2, r3]);
        assert_eq!(txns.len(), 2);
        assert!(txns[1].eligible);
        assert_eq!(txns[1].bytes_full, 8_000);
    }
}
