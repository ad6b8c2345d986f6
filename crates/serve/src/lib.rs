//! Network front door for near-duplicate sequence search.
//!
//! `ndss-serve` turns a [`ndss_query::ServingIndex`] into a long-running
//! daemon. One listen port speaks two protocols, distinguished by peeking
//! the first four bytes of each connection:
//!
//! - **HTTP/1.1** (vendored codec in [`http`], no external dependencies):
//!   `POST /search` (JSON in/out), `GET /metrics` (Prometheus text from
//!   the global [`ndss_obs::Registry`]), `GET /healthz`, `POST /reload`
//!   (re-resolve the store's `MANIFEST` and hot-swap), `POST /shutdown`
//!   (graceful drain).
//! - **NDSB** length-prefixed binary framing ([`frame`]) for batch
//!   clients: magic `NDSB`, little-endian length, opcode payloads.
//!
//! Admission feeds the same governance the batch engine uses: a bounded
//! connection pool, an `admission_cap` on concurrently executing
//! searches (beyond it requests are shed with HTTP 429 /
//! `STATUS_OVERLOADED` — never queued unboundedly), and a per-request
//! [`ndss_query::QueryBudget`] deadline so slow work degrades into sound
//! partial results instead of pile-ups. Drain (SIGTERM, `/shutdown`, or
//! [`ServerHandle::shutdown`]) stops accepting, finishes every in-flight
//! request on its pinned snapshot, flushes metrics, and returns.

pub mod client;
pub mod frame;
pub mod http;
mod prober;
mod server;

pub use server::{
    DrainReport, IngestServeConfig, RunningServer, ServeConfig, Server, ServerHandle,
};

/// Default listen address for `ndss serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7700";

/// Why the server could not start or crashed.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, accept).
    Io(std::io::Error),
    /// The index could not be opened.
    Query(ndss_query::QueryError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "server io error: {e}"),
            ServeError::Query(e) => write!(f, "index error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Query(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<ndss_query::QueryError> for ServeError {
    fn from(e: ndss_query::QueryError) -> Self {
        ServeError::Query(e)
    }
}
