//! Network front end for `pdqi`: serve preferred consistent answers over TCP.
//!
//! The crate puts a wire protocol on the serving core that `pdqi-core` exposes:
//!
//! ```text
//!            clients                      pdqi-server                   pdqi-core
//!  ┌──────────┐  frames   ┌──────────────────────────────┐   ┌───────────────────────┐
//!  │ Client / │ ────────► │ transport: accept thread →   │   │   SnapshotRegistry    │
//!  │ pdqi     │ ◄──────── │ one thread per connection    │   │ table → Arc<Snapshot> │
//!  │ connect  │           │ server dispatch:             │──►│ (generation counters) │
//!  └──────────┘           │   EXEC/BATCH: BatchExecutor  │   └───────────────────────┘
//!                         │   writes: commit a Change    │
//!                         └──────────────────────────────┘
//! ```
//!
//! * [`protocol`] — the length-prefixed line protocol: framing, request parsing,
//!   response shapes, malformed-frame rules;
//! * the transport (`transport.rs`) — the one std-only TCP layer under the server and
//!   the coordinator: one accept thread per listener, one thread per connection, the
//!   frame loop, push flushing and shutdown, behind one [`Handle`] type;
//! * [`server`] — snapshot-pinned dispatch through [`pdqi_core::BatchExecutor`], writes
//!   through [`pdqi_core::SnapshotRegistry::commit`];
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
//! concurrency is one accept thread per listener plus a thread per connection, and all
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
mod transport;

pub use client::{
    Client, ClientError, Events, ExecOutcome, PushEvent, SubscribeReply, TableDescription,
};
pub use coordinator::{coordinate, CoordinatorConfig, CoordinatorHandle};
pub use protocol::{
    escape_field, unescape_field, ExecMode, ExecSpec, FrameError, ReportSpec, Request,
    MAX_FRAME_BYTES,
};
pub use server::{serve, ServerConfig, ServerHandle};
pub use transport::Handle;
