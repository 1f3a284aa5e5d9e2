//! # netsim — deterministic in-process network simulator
//!
//! This crate is the communication substrate for the Drivolution
//! reproduction. It provides:
//!
//! * [`Network`] — a registry of [`Service`]s addressable by
//!   [`Addr`] (`host:port`), with synchronous request/response delivery,
//!   DHCP-style [`Network::broadcast`], and dedicated duplex
//!   [`Pipe`]s for push notifications;
//! * [`Clock`] — a virtual clock so lease experiments spanning simulated
//!   days run deterministically in microseconds;
//! * [`Scheduler`] — deterministic periodic/one-shot lifecycle tasks
//!   (mirror heartbeats, lease auto-renewal, upgrade polling) on that
//!   clock, pumped by [`Network::run_until`] so timers and message
//!   latency interleave on one timeline;
//! * [`FaultPlan`] — host crashes, host/zone partitions, global and
//!   per-link directional message loss, byzantine response corruption,
//!   and latency storms;
//! * [`ChaosSchedule`] — a declarative, seed-reproducible timeline of
//!   fault events installed as scheduler tasks;
//! * [`NetStats`] — per-destination message/byte accounting used by the
//!   paper's lease-time-versus-server-traffic tradeoff experiments.
//!
//! The simulator intentionally delivers requests on the caller's thread:
//! every test and benchmark built on it is deterministic, and "time" is
//! whatever the shared [`Clock`] says.
//!
//! # Examples
//!
//! ```
//! use bytes::Bytes;
//! use netsim::{Addr, FnService, Network};
//!
//! let net = Network::new();
//! net.bind(Addr::new("db1", 5432), FnService::new(|_from, req| Ok(req)))?;
//!
//! let me = Addr::new("app", 1);
//! let reply = net.request(&me, &Addr::new("db1", 5432), Bytes::from_static(b"ping"))?;
//! assert_eq!(reply, Bytes::from_static(b"ping"));
//!
//! // Injected faults are visible immediately.
//! net.with_faults(|f| f.take_down("db1"));
//! assert!(net.request(&me, &Addr::new("db1", 5432), Bytes::new()).is_err());
//! # Ok::<(), netsim::NetError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addr;
mod chaos;
mod clock;
pub mod codec;
mod error;
mod fault;
mod net;
mod pipe;
pub mod sched;
mod stats;
mod topology;

pub use addr::Addr;
pub use chaos::{ChaosAction, ChaosSchedule};
pub use clock::Clock;
pub use error::NetError;
pub use fault::FaultPlan;
pub use net::{FnService, Network, Service, WeakNetwork};
pub use pipe::Pipe;
pub use sched::{Scheduler, TaskControl, TaskHandle, TaskResult, TaskStats};
pub use stats::{AddrStats, FailureKind, NetStats};
pub use topology::Topology;
