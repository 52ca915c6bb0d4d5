//! Aggregation and comparison pipeline (paper §§3.3–3.4, 5 and 6).
//!
//! Consumes per-session measurement records (from the production-style
//! instrumentation over simulated or real traffic) and produces the
//! paper's analyses:
//!
//! - [`record`]/[`dataset`]: user groups (PoP × BGP prefix × country),
//!   15-minute windows, per-route aggregations with MinRTT_P50 and
//!   HDratio_P50.
//! - [`compare`](mod@compare): statistically sound aggregation comparisons — the
//!   ≥30-sample rule and the "tight confidence interval" validity rule
//!   built on the Price–Bonett distribution-free CI for the difference of
//!   medians.
//! - [`degradation`]: per-window degradation vs a per-group baseline
//!   (p10 of MinRTT_P50 / p90 of HDratio_P50 across windows).
//! - [`opportunity`]: preferred route vs best alternate, with HDratio
//!   given priority over MinRTT.
//! - [`classify`]: temporal behaviour classes — uneventful, continuous,
//!   diurnal, episodic.
//! - [`figures`]/[`tables`]: traffic-weighted rollups reproducing the
//!   paper's Figures 6–10 and Tables 1–2.
//! - [`sink`]: the one entry point for the runner-facing [`RecordSink`]
//!   abstraction and every implementation — exact record collection into
//!   a `Vec`, the columnar fast path, or the bounded-memory
//!   [`StreamingDataset`] of per-cell t-digests (§3.4.1) — plus the
//!   [`SinkStats`] summary the observability layer exports as gauges.
//! - [`columnar`]: struct-of-arrays worker shards, closing each cell when
//!   its window ends, for both the exact and the streaming sink.
//! - [`checkpoint`]: the byte form of one exact fragment
//!   ([`ColumnarShard::encode`] / [`ColumnarSink::decode_shard`]) — what
//!   the study driver's checkpoint journal writes per merged prefix.
//! - [`hash`]: the fast deterministic FxHash-style hasher behind every
//!   hot-path map.

pub mod checkpoint;
pub mod classify;
pub mod columnar;
pub mod compare;
pub mod config;
pub mod dataset;
pub mod degradation;
pub mod figures;
pub mod hash;
pub mod opportunity;
pub mod record;
pub mod segment;
pub mod sink;
pub mod streaming;
pub mod tables;

pub use classify::{classify_group, TemporalClass};
pub use columnar::{ColumnarShard, ColumnarSink};
pub use compare::{compare, CompareOutcome};
pub use config::AnalysisConfig;
pub use dataset::{Aggregation, CellSummary, Dataset, GroupData, Summaries};
pub use degradation::{
    assess_window, degradation_events, pick_baseline, DegradationMetric, WindowAssessment,
    WindowStatus,
};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use opportunity::{opportunity_events, OpportunityMetric};
pub use record::{GroupKey, SessionRecord};
pub use segment::{
    atomic_write, cell_sort_key, decode_segment, encode_segment, sort_cells, CellSortKey,
    GroupEntry, SegmentIndex, SegmentReader, SegmentWriter, StagedFile, WindowCell, GROUP_ROWS,
    SEGMENT_VERSION,
};
pub use sink::{RecordShard, RecordSink, SinkStats, StreamingCell, StreamingDataset};
pub use streaming::StreamingAggregation;
