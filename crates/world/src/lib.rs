//! A seeded synthetic Internet for exercising the measurement pipeline.
//!
//! The paper's substrate — billions of users behind hundreds of thousands
//! of BGP prefixes reaching dozens of PoPs over real interconnections —
//! is unavailable, so this crate builds the closest synthetic equivalent
//! (see DESIGN.md §2):
//!
//! - [`geo`]: continents, coordinates, and propagation-delay modelling.
//! - [`topology`]: PoPs in real metro locations, countries with traffic
//!   weights and access-network profiles calibrated to the paper's §4
//!   per-continent findings, eyeball ASes, prefixes, and per-prefix route
//!   sets ranked by the §6.1 policy.
//! - [`dynamics`]: time-varying ground truth — diurnal destination-side
//!   congestion, episodic route events, and two-cluster client
//!   populations whose mix shifts with local time (the Figure-5 effect).
//! - [`runner`]: the fleet study — generates sampled sessions per
//!   (user group, 15-minute window, pinned route), simulates their
//!   transfers with `edgeperf-netsim`'s fast model, measures them with
//!   `edgeperf-core` exactly as a production load balancer would, and
//!   emits `edgeperf-analysis` session records.
//! - [`supervisor`]: the one study driver — the work-stealing scheduler
//!   every study runs under, with panic isolation and retry/quarantine,
//!   watchdog deadlines, an in-order merge into any record sink, and a
//!   deterministic fault-injection harness ([`FaultPlan`]).
//! - [`checkpoint`]: checkpoint/resume for the exact sink — a journal of
//!   merged fragments hung on that driver's merge.
//!
//! Everything is deterministic in the world seed.

pub mod cartographer;
pub mod checkpoint;
pub mod dynamics;
pub mod geo;
pub mod runner;
pub mod supervisor;
pub mod topology;

pub use cartographer::MappingPolicy;
pub use checkpoint::run_study_checkpointed;
pub use edgeperf_core::plan::PlanError;
pub use geo::{propagation_rtt_ms, Continent, GeoPoint};
pub use runner::{run_study, run_study_into, simulate_session, simulate_session_with, StudyConfig};
pub use supervisor::{
    run_study_supervised, FaultPlan, QuarantinedPrefix, StudyReport, SupervisorConfig,
    SupervisorError, RETRY_BUDGET,
};
pub use topology::{ClientCluster, Pop, PrefixSite, RouteGt, World, WorldConfig};
