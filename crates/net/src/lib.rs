//! # snn-net
//!
//! A TCP serving front-end for the SNN accelerator: the bridge between the
//! in-process [`snn_accel::serve::StreamServer`] and the network, built on
//! `std::net` plus a handful of hand-bound syscalls (the workspace has no
//! registry access).
//!
//! Five pieces:
//!
//! * [`protocol`] — a length-prefixed, versioned binary frame codec
//!   (inference request = request id + encoded input tensor; response =
//!   class scores + a `RunReport` summary, echoing the id), pure over byte
//!   slices and property-tested: malformed, truncated or oversized input
//!   yields typed [`protocol::ProtocolError`]s, never panics or unbounded
//!   buffering.  Version 2 added per-connection request pipelining
//!   (request-id correlation, completion-order replies) and a
//!   content-negotiation byte on STATS (plaintext or Prometheus).
//! * [`sys`] — the only `unsafe` in the crate: minimal `extern "C"`
//!   bindings for `epoll(7)`, `poll(2)`, `fcntl(2)` and a self-pipe
//!   (Linux), behind safe wrappers, every `unsafe` block with its
//!   `// SAFETY:` argument.
//! * [`poller`] — [`poller::Poller`]: one safe readiness API and one
//!   level-triggered contract over two syscalls — `epoll` (the default)
//!   and a portable `poll(2)` fallback, selected by [`ReactorBackend`] /
//!   the `SNN_REACTOR` environment variable, or automatically when
//!   `epoll_create1` is unavailable.
//! * [`server`] — [`server::NetServer`]: a **single-reactor** front-end
//!   — one reactor thread owning the listener and every connection on
//!   non-blocking sockets: incremental decode from per-connection read
//!   buffers (a fixed read burst per socket per round), write queues
//!   flushed on writability, inference completions delivered through
//!   [`snn_accel::serve::StreamServer::submit_tagged`]'s completion sink
//!   and a wake pipe.  No thread per connection, no blocked waits, and
//!   **first-class backpressure**: queue-full and connection-cap
//!   conditions answer with typed REJECTED frames carrying a retry-after
//!   hint computed from the live queue depth and drain rate.
//! * [`client`] — [`client::NetClient`] (pipelined `infer_many`, jittered
//!   [`client::BackoffPolicy`] retries), [`client::NetPool`] connection
//!   pooling, plus [`client::scrape_stats`] / [`client::scrape_traces`]
//!   for the plaintext `STATS` and `TRACES` lines.
//!
//! The front-end also exports the per-request tracing pipeline end to
//! end: STATS format byte `2` (or the plaintext `TRACES` line) drains
//! the server's completed `snn_telemetry::RequestTrace` ring as JSONL,
//! and the Prometheus exposition carries per-phase latency histograms
//! (`snn_request_queue_wait_seconds`, `snn_request_compute_seconds`,
//! `snn_request_duration_seconds`, `snn_reactor_write_stall_seconds`).
//!
//! Scores received over TCP are **bit-identical** to the matching
//! in-process `StreamServer::submit` call — the loopback test suite pins
//! this (pipelined or not), extending the repo's exactness ladder across
//! the wire.
//!
//! With the `fault-injection` feature, the `fault` module arms a seeded
//! `fault::FaultPlan` across the sys wrappers and connection I/O paths;
//! the chaos suite (`tests/chaos.rs`) drives loopback traffic under
//! generated fault schedules and pins that every request resolves to
//! bit-exact SCORES or a typed error — never a hang, never a process
//! panic.  Release builds compile none of it.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod error;
#[cfg(feature = "fault-injection")]
pub mod fault;
pub mod poller;
pub mod protocol;
pub mod server;
pub mod sys;

pub use client::{scrape_stats, scrape_traces, BackoffPolicy, NetClient, NetPool};
pub use error::NetError;
pub use poller::ReactorBackend;
pub use protocol::{Frame, ProtocolError};
pub use server::{NetOptions, NetServer, NetStats};
