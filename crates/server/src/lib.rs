//! `provabs-server`: a multi-session what-if service over the
//! [`provabs_session`] façade — the paper's compress-once / ask-many
//! contract, hosted behind a wire.
//!
//! The server is std-only (a hand-rolled HTTP/1.1 layer over
//! `std::net::TcpListener`; no async runtime, no serde — the build
//! environment is offline). It hosts N named sessions behind one name
//! map and shares each by reference — no request locks a session; each
//! session compresses at most once and answers every scenario batch from
//! its cached compiled lowering, so `compile_count() == 1` stays true
//! over the wire no matter how many clients share the session.
//! Per-request deadlines become guard
//! [`Budget`](provabs_session::Budget)s, client disconnects become
//! [`CancelToken`](provabs_session::CancelToken) trips, and a panicking
//! handler answers `500` without taking down its connection's peers.
//!
//! Layers, bottom-up:
//!
//! - [`json`] — an order-preserving JSON codec with shortest-round-trip
//!   `f64` formatting (answers survive the wire bit-for-bit),
//! - [`http`] — blocking HTTP/1.1 framing: keep-alive, chunked
//!   streaming, idle ticks for shutdown polling,
//! - [`error`] — the typed wire-error table: every
//!   [`provabs_session::Error`] variant has a stable status + code,
//! - [`registry`] — the name → session map,
//! - [`service`] — the routes,
//! - [`server`] — accept loop, connection threads, graceful shutdown,
//! - [`client`] — the blocking client the tests, the example and the
//!   benchmark all drive the wire with.

pub mod client;
pub mod error;
pub mod http;
pub mod json;
pub mod registry;
pub mod server;
pub mod service;

pub use client::{Client, Response};
pub use error::{classify, WireError};
pub use json::Json;
pub use registry::{Registry, SessionEntry};
pub use server::{ServerConfig, ServerHandle};
pub use service::Service;
