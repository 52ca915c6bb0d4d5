//! TCP model configuration.

use crate::cc::CcAlgorithm;
use crate::time::{Nanos, MILLISECOND};

/// Minimum retransmission timeout (Linux's).
pub const MIN_RTO: Nanos = 200 * MILLISECOND;

/// Receiver delayed-ACK timeout: ACK every 2nd packet or after this
/// (Linux's).
pub const DELAYED_ACK_TIMEOUT: Nanos = 40 * MILLISECOND;

/// Parameters of the modelled TCP connection.
///
/// Defaults follow Linux: IW10 (RFC 6928), 1460-byte MSS (1500 MTU minus
/// 40 bytes of headers — the paper's Figure 4 speaks of "1500-byte packets"
/// meaning on-the-wire size), delayed ACKs on. The minimum RTO and the
/// delayed-ACK timer are Linux's constants, [`MIN_RTO`] and
/// [`DELAYED_ACK_TIMEOUT`]; the window persists across idle periods, as on
/// CDN edge servers (the paper's Figure-4 example relies on it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpConfig {
    /// Maximum segment size in payload bytes.
    pub mss: u32,
    /// Initial congestion window, in segments.
    pub initial_cwnd_segments: u32,
    /// Congestion control algorithm.
    pub cc: CcAlgorithm,
    /// Disable delayed ACKs entirely (the paper disabled them in NS3 to
    /// match Linux's byte-counted cwnd growth — footnote 7).
    pub delayed_ack_disabled: bool,
    /// Pace segment transmissions at ~2×cwnd/sRTT instead of bursting
    /// whole windows (Linux has paced by default since sch_fq; bursts are
    /// what overflow shallow queues and stretch multi-round transfers
    /// beyond the ideal model).
    pub pacing: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1460,
            initial_cwnd_segments: 10,
            cc: CcAlgorithm::Cubic,
            delayed_ack_disabled: false,
            pacing: false,
        }
    }
}

impl TcpConfig {
    /// Initial congestion window in bytes.
    pub fn initial_cwnd_bytes(&self) -> u32 {
        self.mss * self.initial_cwnd_segments
    }

    /// Config matching the paper's NS3 validation setup (§3.2.3): delayed
    /// ACKs disabled so cwnd growth matches Linux's byte-counting.
    pub fn ns3_validation(initial_cwnd_segments: u32) -> Self {
        TcpConfig {
            mss: 1460,
            initial_cwnd_segments,
            cc: CcAlgorithm::Reno,
            delayed_ack_disabled: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_linux_like() {
        let c = TcpConfig::default();
        assert_eq!(c.initial_cwnd_bytes(), 14_600);
        assert_eq!(c.cc, CcAlgorithm::Cubic);
    }
}
