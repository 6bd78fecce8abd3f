//! # rainbow-common
//!
//! Shared vocabulary types for the Rainbow distributed database system, a
//! Rust reproduction of *"Rainbow: Distributed Database System for Classroom
//! Education and Experimental Research"* (Helal & Li, VLDB 2000).
//!
//! Every other crate in the workspace builds on the definitions collected
//! here:
//!
//! * [`ids`] — strongly-typed identifiers (sites, hosts, transactions, data
//!   items, copies, messages) and version numbers;
//! * [`value`] — the value domain stored in database items;
//! * [`op`] — read/write operations that make up a transaction;
//! * [`txn`] — transaction specifications, outcomes and abort causes
//!   (classified by the protocol layer that caused them: RCP, CCP or ACP);
//! * [`protocol`] — the protocol selection enums the paper exposes in its
//!   "Protocols Configuration" GUI panel (Figure 4): replication control,
//!   concurrency control and atomic commitment;
//! * [`config`] — database schema, replication scheme and site placement
//!   descriptions maintained by the Rainbow name server;
//! * [`clock`] — logical clocks and site-unique timestamp generation used by
//!   timestamp-ordering concurrency control and the progress monitor;
//! * [`stats`] — the extensible statistics set of Section 3 of the paper
//!   (commit/abort counts and rates, message counts, response times,
//!   throughput, load balance indicators);
//! * [`history`] — transaction-history types for the chaos laboratory: what
//!   every transaction read (item, value, version), wrote, and how it ended,
//!   collected cluster-wide for the `rainbow-check` serializability checker;
//! * [`error`] — the crate-wide error type;
//! * [`rng`] — deterministic random number helpers (Zipf, hot-spot and
//!   uniform access distributions) used by the workload generator and the
//!   network simulator.
//!
//! The crate is intentionally free of any I/O, threading or protocol logic:
//! it only defines data. This mirrors the paper's goal that protocols be
//! implemented "with minimum interdependencies and assumptions in order to
//! facilitate their replacement (e.g., by students) with minimum system-wide
//! modifications".

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod config;
pub mod error;
pub mod fxhash;
pub mod history;
pub mod ids;
pub mod op;
pub mod protocol;
pub mod rng;
pub mod stats;
pub mod txn;
pub mod value;

pub use clock::{LamportClock, TimestampGenerator};
pub use config::{DatabaseSchema, DistributionSchema, ItemSpec, ReplicationScheme, SiteSpec};
pub use error::{RainbowError, RainbowResult};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use history::{History, HistorySink, ReadObservation, TxnRecord, WriteRecord};
pub use ids::{CopyId, HostId, ItemId, MessageId, SiteId, Timestamp, TxnId, Version};
pub use op::{Operation, OperationKind};
pub use protocol::{AcpKind, CcpKind, ProtocolStack, RcpKind};
pub use stats::{AbortBreakdown, LatencyStats, StatsSnapshot};
pub use txn::{AbortCause, TxnError, TxnOutcome, TxnReceipt, TxnResult, TxnSpec};
pub use value::Value;
