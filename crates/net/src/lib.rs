//! The network front-end of the Koios serving stack.
//!
//! The paper (ICDE 2023) evaluates in-process, single-query latency; the
//! workloads that motivate it — joinable-table search over open data
//! lakes, dataset discovery — are *services* with many concurrent remote
//! clients. `koios-service` already provides the concurrent core (a
//! persistent worker pool with a submission queue, deadlines, two caches);
//! this crate puts a socket in front of it, with zero dependencies beyond
//! `std` (crates.io is unreachable in this environment, so HTTP framing
//! and JSON are hand-rolled):
//!
//! * [`http`] — minimal HTTP/1.1 framing: `Content-Length` bodies,
//!   keep-alive, size caps, typed errors (→ `400`/`413`).
//! * [`wire`] — the serialized request/response contract between JSON
//!   payloads and [`koios_service`] types (the versionable boundary every
//!   later scale-out step builds on).
//! * [`server`] — [`server::KoiosServer`]: a `TcpListener` accept loop;
//!   connection threads parse + submit to the service's worker pool, so
//!   network callers and in-process callers share one admission-control
//!   and deadline regime. Routes: `POST /search`, `GET /stats`,
//!   `GET /metrics` (Prometheus text exposition of the service's
//!   `koios-telemetry` registry — stage/shard/queue/lock-wait histograms),
//!   `GET /healthz`, `POST /invalidate`.
//! * [`client`] — [`client::KoiosClient`]: a tiny blocking keep-alive
//!   client used by tests and examples.
//!
//! ```
//! use koios_common::Json;
//! use koios_core::mutable::{MutableEngine, SimFactory};
//! use koios_core::KoiosConfig;
//! use koios_embed::repository::RepositoryBuilder;
//! use koios_embed::sim::{ElementSimilarity, EqualitySimilarity};
//! use koios_net::{client::KoiosClient, server::KoiosServer};
//! use koios_service::{SearchService, ServiceConfig};
//! use std::sync::Arc;
//!
//! let mut b = RepositoryBuilder::new();
//! b.add_set("s0", ["a", "b"]);
//! b.add_set("s1", ["a", "c"]);
//! let repo = Arc::new(b.build());
//! let equality: SimFactory =
//!     Arc::new(|_, _| Ok(Arc::new(EqualitySimilarity) as Arc<dyn ElementSimilarity>));
//! let engine = MutableEngine::single(repo, None, KoiosConfig::new(1, 0.9), equality).unwrap();
//! let service = Arc::new(SearchService::from_mutable(
//!     engine,
//!     ServiceConfig::new().with_workers(2),
//! ));
//!
//! let server = KoiosServer::bind(service, "127.0.0.1:0").unwrap();
//! let mut client = KoiosClient::new(server.addr());
//! let (status, reply) = client.search_elements(&["a", "b"]).unwrap();
//! assert_eq!(status, 200);
//! assert_eq!(reply.get("hits").unwrap().as_array().unwrap().len(), 1);
//! ```

pub mod client;
pub mod http;
pub mod server;
pub mod wire;

pub use client::{KoiosClient, NetError};
pub use http::{HttpError, HttpRequest, HttpResponse};
pub use server::KoiosServer;
