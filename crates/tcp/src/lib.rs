//! TCP sender/receiver behaviour model for edgeperf.
//!
//! This crate models the parts of a TCP implementation that matter to the
//! paper's methodology: congestion-window evolution (slow start growing by
//! *bytes ACKed*, as Linux does — footnote 3 of the paper), Reno and CUBIC
//! congestion control, loss recovery and RTO, RTT estimation, and the
//! delayed-ACK behaviour of receivers (§3.2.5). It deliberately omits what
//! the methodology never observes: urgent pointers, window scaling
//! negotiation, SACK encoding, checksums — this is a *behaviour* model (the
//! role NS3 and the production kernel play in the paper), not a wire-format
//! implementation.
//!
//! The model is a passive state machine driven by an external clock: the
//! discrete-event simulator in `edgeperf-netsim` calls [`sender::TcpSender`]
//! with explicit timestamps, which keeps everything deterministic.

pub mod bbr;
pub mod cc;
pub mod config;
pub mod info;
pub mod receiver;
pub mod rtt;
pub mod sender;
pub mod time;

pub use bbr::BbrLite;
pub use cc::{CcAlgorithm, Cubic, Reno};
pub use config::{TcpConfig, DELAYED_ACK_TIMEOUT, MIN_RTO};
pub use info::TcpInfo;
pub use receiver::DelayedAckReceiver;
pub use rtt::RttEstimator;
pub use sender::{SenderState, TcpSender};
pub use time::{Nanos, MILLISECOND, SECOND};
