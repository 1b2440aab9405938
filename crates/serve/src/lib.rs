//! `uhscm-serve`: the online retrieval service for UHSCM hash codes.
//!
//! The offline pipeline (train → encode database → evaluate) produces a
//! hashing model and a packed code database; this crate puts them behind a
//! TCP endpoint. Four pieces:
//!
//! * [`protocol`] — length-prefixed JSON frames; requests carry raw feature
//!   vectors or mutations (`insert`/`remove`/`flush`/`reload`), responses
//!   carry `(distance, index)` hits tagged with the `(generation, bundle)`
//!   they were evaluated at, mutation receipts with an explicit
//!   `committed_generation`, or a structured error reason.
//! * [`shard`] — the generation-swapped [`ShardedIndex`]: immutable
//!   copy-on-write segments, searched one query batch per pass over the
//!   codes with results bit-for-bit identical to the offline
//!   `HammingRanker` at any shard count; inserts
//!   and removes commit new generations via an atomic pointer swap while
//!   in-flight queries finish on the generation they pinned.
//! * [`bundle`] — the hot-reloadable serving [`Bundle`] (model + concept
//!   vocabulary), swapped as one atomic unit so a query never encodes with
//!   a torn pair.
//! * [`batch`] — bounded [`AdmissionQueue`] with load shedding; the batch
//!   worker takes whatever queued while it was busy, up to `max_batch`, as
//!   one forward pass, and never waits for a batch to fill.
//! * [`server`] — the accept/connection/batch-worker thread layout (all
//!   threads via [`pool::WorkerPool`]) with per-request deadlines, a
//!   synchronous write path, and graceful drain (admitted mutations commit;
//!   late ones are answered `draining`, never silently dropped).
//!
//! Determinism is the headline contract: a query answered online returns
//! exactly the hits the offline evaluation pipeline would rank for the same
//! feature vector against the database state at the response's reported
//! generation — same model, same tie-breaking, regardless of batch
//! composition, shard count, or concurrent mutations. The loopback
//! integration tests and the swap-boundary harness pin this against the
//! offline oracle.

pub mod batch;
pub mod bundle;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod shard;
pub mod synth;

pub use batch::{AdmissionQueue, PendingQuery, SubmitError};
pub use bundle::Bundle;
pub use protocol::{
    decode_request, decode_response, encode_frame, encode_request, encode_response,
    read_frame_blocking, write_frame, FrameReader, QueryRequest, Reason, Request, Response,
    MAX_FRAME,
};
pub use server::{Engine, EngineSnapshot, ServeConfig, ServeError, Server};
pub use shard::{Generation, GenesisBuilder, InsertCommit, RemoveCommit, ShardedIndex};
pub use synth::{workload, SynthWorkload};
