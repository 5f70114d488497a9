//! Network front end for `pdqi`: serve preferred consistent answers over TCP.
//!
//! The crate puts a wire protocol on the serving core that `pdqi-core` exposes:
//!
//! ```text
//!            clients                      pdqi-server                   pdqi-core
//!  ┌──────────┐  frames   ┌──────────────────────────────┐   ┌───────────────────────┐
//!  │ Client / │ ────────► │ accept loops → per-connection │   │   SnapshotRegistry    │
//!  │ pdqi     │ ◄──────── │ handlers → Request dispatch   │──►│ table → Arc<Snapshot> │
//!  │ connect  │           │   EXEC/BATCH: BatchExecutor   │   │ (generation counters) │
//!  └──────────┘           │   writes: commit a Change     │   └───────────────────────┘
//! ```
//!
//! * [`protocol`] — the length-prefixed line protocol: framing, request parsing,
//!   response shapes, malformed-frame rules;
//! * [`server`] — the std-only serving loop: accept threads, per-connection handlers,
//!   snapshot-pinned dispatch through [`pdqi_core::BatchExecutor`], writes through
//!   [`pdqi_core::SnapshotRegistry::commit`];
//! * [`client`] — a blocking [`Client`] with typed helpers, used by the CLI's
//!   `connect` subcommand, the serving tests and the `e16_serving` bench;
//! * [`coordinator`] — the scatter-gather front end: one serve-compatible endpoint
//!   fanning requests out over N key-range shards and merging per-shard answer folds
//!   bit-identically to single-snapshot execution.
//!
//! Connections double as **push channels**: `SUBSCRIBE` registers a continuous query
//! with the server's [`pdqi_core::SubscriptionManager`], after which `DELTA` (and, for
//! slow readers, `LAGGED` resync) frames are interleaved onto the same socket between
//! responses; [`Client`] buffers them and hands them out as typed [`PushEvent`]s.
//!
//! Everything is plain [`std`]: no async runtime exists in this build environment, so
//! concurrency is accept-loop threads plus a handler thread per connection, and all
//! sharing goes through the same `Arc`/atomic structures the in-process serving path
//! uses. The protocol guarantees of the in-process API carry over: every request is
//! answered against **one** pinned snapshot generation, and priority swaps never block
//! in-flight readers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod coordinator;
pub mod protocol;
pub mod server;

pub use client::{
    Client, ClientError, Events, ExecOutcome, PushEvent, SubscribeReply, TableDescription,
};
pub use coordinator::{coordinate, CoordinatorConfig, CoordinatorHandle};
pub use protocol::{
    escape_field, unescape_field, ExecMode, ExecSpec, FrameError, ReportSpec, Request,
    MAX_FRAME_BYTES,
};
pub use server::{serve, ServerConfig, ServerHandle};
