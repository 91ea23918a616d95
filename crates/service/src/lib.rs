//! Long-running batch service mode for the `nanobound` workspace.
//!
//! The paper's bounds pipeline is deterministic and cacheable, but a
//! one-shot CLI process pays netlist parsing, benchmark profiling and
//! thread-pool construction on every invocation. This crate turns the
//! pipeline into a **service**: one [`Engine`] owns one
//! [`nanobound_runner::ThreadPool`], one open
//! [`nanobound_cache::ShardCache`] and one compiled-program cache for
//! its whole lifetime, keeps in-memory registries of parsed designs,
//! profiled netlists (keyed by
//! [`nanobound_runner::netlist_fingerprint`]) and rendered figures, and
//! executes every request in one [`nanobound_runner::Exec`] over those
//! resources — the same entry points, and the same shard contract, the
//! one-shot commands use.
//!
//! The crate has two faces:
//!
//! - [`cli`] — the subcommand layer of the `nanobound` binary
//!   (`profile`, `bounds`, `figures`, `validate`, `lint`, `serve`).
//!   The one-shot commands are thin wrappers over [`Engine`] methods.
//! - [`serve`] + [`proto`] — the long-running mode: a line-delimited
//!   JSON-ish request protocol on stdin/stdout (or a `--listen` TCP
//!   socket), answering each request with a framed payload. Requests
//!   dispatch onto a bounded worker crew (`--concurrency`/`--queue`)
//!   and responses are re-sequenced into request order, so the wire
//!   stream is independent of how execution interleaved.
//! - [`cluster`] — the fault-tolerant coordinator: `nanobound cluster`
//!   fans Monte-Carlo shard batches out to N `serve` processes via the
//!   `mc_shards` workload, retries and quarantines failing workers,
//!   and falls back to local compute — byte-identical to a
//!   single-process run under any failure the coordinator survives.
//!
//! **The byte-identity contract.** A `serve` response payload is
//! byte-identical to the stdout of the equivalent one-shot CLI
//! invocation (without cache flags), regardless of request order,
//! repetition, warm/cold cache state or worker count — because both
//! front ends execute the identical [`Engine`] code path and every
//! layer below it (runner determinism, bit-exact cache) already
//! guarantees replay stability. `tests/serve.rs` and the `ci.sh` serve
//! gate enforce this end to end.
//!
//! # Examples
//!
//! Scripted in-process session:
//!
//! ```
//! use nanobound_runner::ThreadPool;
//! use nanobound_service::engine::Engine;
//! use nanobound_service::proto::read_response;
//! use nanobound_service::serve::{serve_session, SessionLimits};
//!
//! let engine = Engine::new(ThreadPool::serial(), None);
//! let script = "{\"id\":\"1\",\"workload\":\"ping\"}\n";
//! let mut out = Vec::new();
//! let outcome = serve_session(&engine, script.as_bytes(), &mut out, SessionLimits::default());
//! outcome.result?;
//! assert!(!outcome.shutdown);
//! let (id, ok, payload) = read_response(&mut out.as_slice())?.expect("one response");
//! assert_eq!((id.as_str(), ok, &payload[..]), ("1", true, &b"pong\n"[..]));
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod args;
pub mod cli;
pub mod cluster;
pub mod engine;
pub mod proto;
pub mod requests;
pub mod serve;

pub use cluster::{run_cluster, ClusterJob, ClusterOptions, ClusterRun, ClusterStats};
pub use engine::{Engine, LintOutcome};
pub use proto::Request;
pub use serve::{ServeOptions, SessionLimits, SessionOutcome};
