//! # occam-gateway
//!
//! A concurrent management-plane **service frontend** for the Occam
//! runtime (paper §7 deployment model: operators submit management
//! programs to a shared runtime, they do not link it into their tools).
//!
//! The crate has four layers:
//!
//! - [`catalog`] — named, parameterized management workflows (drain,
//!   firmware upgrade, config push, …) built over the emulated device
//!   functions. Clients invoke by name, like stored procedures.
//! - [`proto`] — a length-prefixed binary wire protocol with total,
//!   typed decoding (`SUBMIT`/`STATUS`/`CANCEL`/`LIST`/`METRICS`/
//!   `SHUTDOWN`).
//! - [`engine`] — tickets and wire concerns in front of the runtime's
//!   one bounded executor (`occam_core::pool`): validation, ticket
//!   minting, the ticket → handle tables, the report → phase mapping.
//!   The pool decides admission — a full queue answers
//!   `Busy{retry_after}` instead of building invisible backlog — and
//!   owns each job's lifecycle and cancel token; urgent submissions take
//!   the pool fast lane *and* the scheduler's urgent priority;
//!   cancellation is cooperative at task checkpoints.
//! - [`server`]/[`client`] — a `std::net` TCP server driven by a
//!   sharded edge-triggered epoll reactor (DESIGN.md §13): a handful
//!   of event-loop threads serve thousands of non-blocking
//!   connections, decoding pipelined SUBMIT batches per readiness
//!   event. The blocking client (used by the load generator and tests)
//!   pipelines with [`GatewayClient::submit_batch`].
//!
//! Everything reports into the runtime's shared observability registry
//! under the `gateway.*` metric family (DESIGN.md §9).
//!
//! # Example
//!
//! ```
//! use occam_gateway::{Engine, EngineConfig, GatewayClient, GatewayServer, SubmitReply};
//! use occam_core::Runtime;
//! use occam_emunet::{EmuNet, EmuService};
//! use occam_netdb::{attrs, Database};
//! use occam_topology::FatTree;
//! use std::sync::Arc;
//!
//! // An emulated deployment...
//! let ft = FatTree::build(1, 4).unwrap();
//! let db = Arc::new(Database::new());
//! for (_, d) in ft.topo.devices().filter(|(_, d)| d.role != occam_topology::Role::Host) {
//!     db.insert_device(&d.name, vec![(attrs::DEVICE_STATUS.into(), attrs::STATUS_ACTIVE.into())]).unwrap();
//! }
//! let rt = Runtime::new(db, Arc::new(EmuService::new(EmuNet::from_fattree(&ft))));
//!
//! // ...served over TCP on an ephemeral port.
//! let engine = Engine::new(rt, EngineConfig::default());
//! let mut server = GatewayServer::start(engine, "127.0.0.1:0").unwrap();
//!
//! let mut client = GatewayClient::connect(&server.local_addr().to_string()).unwrap();
//! let reply = client.submit("drain", "dc01.pod00.*", false, &[]).unwrap();
//! let SubmitReply::Accepted(ticket) = reply else { panic!("{reply:?}") };
//! loop {
//!     let (phase, detail) = client.status(ticket).unwrap();
//!     if phase.is_terminal() {
//!         assert_eq!(phase, occam_gateway::WirePhase::Completed, "{detail}");
//!         break;
//!     }
//! }
//! server.shutdown();
//! ```

pub mod catalog;
pub mod client;
pub mod engine;
pub mod proto;
pub(crate) mod reactor;
pub mod server;

pub use catalog::{Catalog, CatalogEntry, Program, WorkflowSpec};
pub use client::{ClientError, GatewayClient, SubmitReply};
pub use engine::{Engine, EngineConfig, SubmitOutcome, SubmitSpec};
pub use proto::{
    ErrorCode, FrameError, FrameReader, Request, Response, WirePhase, MAX_FRAME, MAX_METRICS_STR,
};
pub use server::GatewayServer;
