//! # gmg-server — a multi-tenant solve service over compiled plans
//!
//! The serving layer of the reproduction: a std-only TCP service built
//! around an event-driven core. Shard-per-core readiness loops (epoll via
//! the in-tree `shim-epoll` crate) own their connections outright:
//! nonblocking accept, per-connection ring buffers with incremental
//! zero-copy frame decode of the length-prefixed binary protocol
//! ([`protocol`]), and sequence-ordered response flushing. Connections are
//! pinned to [`server::shard_for_tenant`] of their tenant, so warm
//! per-shape sessions ([`session`]) — a shared `Arc<CompiledPipeline>` out
//! of the global plan cache plus leased engines whose persistent worker
//! pools and `BufferPool`s survive between requests — stay shard-local
//! across reconnects, with no cross-shard lock on the steady-state path.
//!
//! Admission control ([`server`]) is per shard and per QoS class:
//! latency-sensitive single solves and batch work wait in separate
//! capacity-limited queues with typed `QueueFull` rejection, drained by a
//! weighted round-robin that bounds how long a batch flood can starve
//! interactive traffic. Per-tenant in-flight caps and graceful drain on
//! shutdown ride on top.
//!
//! [`loadgen`] is the in-crate client: it drives concurrent connections of
//! mixed 2-D/3-D problems and verifies every response *bitwise* against a
//! direct in-process engine run — the engine's bitwise determinism turns
//! end-to-end serving correctness into an exact equality check. Its idle
//! churn mode holds thousands of mostly-idle connections (with reconnect
//! churn) against the same server to exercise the readiness loop.
//!
//! Everything is std: no async runtime, no serialization framework, no new
//! dependencies. See DESIGN.md §13–§15 for the architecture discussion.

mod affinity;
pub mod cli;
pub mod loadgen;
pub mod protocol;
mod ring;
pub mod server;
pub mod session;
mod shard;
pub mod tuner;

pub use loadgen::{
    default_mix, retry_backoff_ms, scenario_mix, LoadgenOptions, LoadgenReport, MixItem,
};
pub use protocol::{
    BatchSolveRequest, BatchSolveResponse, ErrorCode, Frame, FrameError, SolveRequest,
    SolveResponse,
};
pub use server::{shard_for_tenant, start, QosClass, ServerConfig, ServerHandle};
pub use session::SessionManager;
pub use tuner::TunerConfig;
