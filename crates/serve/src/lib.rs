//! Flow-as-a-service: the resident `smtd` daemon and its client.
//!
//! The flow engine in `smt-core` is batch-shaped: every invocation
//! pays library characterisation, design realisation, and the full
//! implementation prefix before answering anything. This crate turns
//! it into a service:
//!
//! * [`daemon`] — the `smtd` server: newline-delimited JSON over TCP
//!   ([`smt_base::proto`]), warm [`LibraryPool`](smt_core::LibraryPool)
//!   / [`DesignCache`](smt_core::cache::DesignCache) /
//!   [`SessionRegistry`](smt_core::SessionRegistry) state, per-request
//!   panic isolation, and graceful drain.
//! * [`client`] — the small blocking [`Client`] the `smtc` CLI uses.
//!
//! Sharded suite runs are not a service: the `suite` bin runs each
//! shard (`--shard K/N --json FILE`) and merges the reports
//! (`--merge`).

pub mod client;
pub mod daemon;

pub use client::{CallError, Client};
pub use daemon::{signals, Daemon, DaemonConfig, DaemonHandle};
