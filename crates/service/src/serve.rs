//! The serve loop: a session of protocol requests executed against one
//! long-lived [`Engine`].
//!
//! `nanobound serve` reads requests from stdin and writes framed
//! responses to stdout (diagnostics go to stderr, so stdout stays a
//! clean protocol stream). With `--listen ADDR` it accepts TCP
//! connections instead, serving them sequentially against the same
//! engine — connections share the pool, the shard cache and every
//! in-memory registry, which is the whole point of service mode.
//!
//! # Concurrency
//!
//! Within a session, requests are dispatched onto a worker crew of
//! `--concurrency` threads (default 1) through a bounded admission
//! queue of `--queue` slots. Admission control is in-band: a request
//! that finds the queue full is answered immediately with a
//! `status: error` / `error: overloaded` response — a frame is never
//! silently dropped. Workers complete out of order, but an ordering
//! buffer delivers every response frame in *request order*, so the
//! byte stream a session produces is independent of the concurrency
//! level and each `status: ok` payload stays byte-identical to the
//! one-shot CLI's stdout.
//!
//! A request may carry `--request-jobs N` (on `profile`, `bound`,
//! `figure`, `validate`) to run its computation under its own worker
//! budget instead of the server pool; results are byte-identical for
//! every N (runner contract).
//!
//! The `gc` workload sweeps the shard cache mid-flight; fingerprints
//! pinned by in-flight requests are protected, so a sweep can run
//! concurrently with the very requests whose shards it would
//! otherwise reclaim.
//!
//! A malformed line or a failed workload answers with a
//! `status: error` response (id `"?"` — reserved for exactly this —
//! when the line had no recoverable id) and the session continues;
//! only a `shutdown` request (or EOF / a vanished client) ends it.

use std::collections::{BTreeMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::Mutex;
use std::time::Duration;

use nanobound_cache::{GcPolicy, GcReport};
use nanobound_experiments::FigureId;
use nanobound_runner::{ThreadPool, MAX_JOBS};

use crate::args::parse_flags;
use crate::engine::Engine;
use crate::proto::{parse_request, write_response, Request, RESERVED_ID};
use crate::requests::{BoundRequest, GcRequest, LintRequest, McShardsRequest, ProfileRequest};

/// Default bound on admitted-but-unfinished requests per session.
pub const DEFAULT_QUEUE: usize = 256;

/// Per-session dispatch budgets.
#[derive(Clone, Copy, Debug)]
pub struct SessionLimits {
    /// Worker threads dispatching requests (1 = serial dispatch).
    pub concurrency: usize,
    /// Bound on jobs awaiting a worker; at capacity new requests are
    /// answered `error: overloaded` in-band.
    pub queue: usize,
}

impl Default for SessionLimits {
    fn default() -> Self {
        SessionLimits {
            concurrency: 1,
            queue: DEFAULT_QUEUE,
        }
    }
}

/// How one session ended.
///
/// `shutdown` and `result` are independent: a client can deliver a
/// successful `shutdown` and then vanish before the `bye` frame lands,
/// which is a transport error *and* a served shutdown — the accept
/// loop must stop either way.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The client asked the whole service to stop.
    pub shutdown: bool,
    /// The transport's fate; workload failures are in-band
    /// `status: error` responses, never transport errors.
    pub result: io::Result<()>,
}

/// Transport configuration for one `serve` run.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// `Some(addr)` to accept TCP connections instead of stdio.
    pub listen: Option<String>,
    /// The startup cache-GC policy (a no-pressure sweep still reclaims
    /// temp leftovers and stale-version entries).
    pub gc: GcPolicy,
    /// Session dispatch workers (`--concurrency`, default 1).
    pub concurrency: usize,
    /// Admission-queue bound (`--queue`, default [`DEFAULT_QUEUE`]).
    pub queue: usize,
    /// Per-connection read deadline (`--idle-timeout`). TCP
    /// connections are served sequentially, so without this a single
    /// stalled or half-open client blocks every later connection
    /// forever. `None` (the default) keeps the historical
    /// wait-forever behaviour.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: None,
            gc: GcPolicy::default(),
            concurrency: 1,
            queue: DEFAULT_QUEUE,
            idle_timeout: None,
        }
    }
}

/// Runs the service until shutdown: startup GC, then the stdio session
/// or the TCP accept loop.
///
/// # Errors
///
/// Unbindable listen addresses and stdio I/O failures; per-connection
/// TCP failures are logged to stderr and survived.
pub fn run(engine: &Engine, options: &ServeOptions) -> Result<(), String> {
    if let Some(report) = engine.gc(&options.gc) {
        eprintln!("nanobound serve: {}", gc_report_line(&report));
    }
    let limits = SessionLimits {
        concurrency: options.concurrency,
        queue: options.queue,
    };
    match &options.listen {
        None => {
            eprintln!("nanobound serve: ready on stdio");
            let stdin = io::stdin();
            // `io::stdout()` (not a lock) so the sink is `Send`able
            // across the dispatch workers.
            serve_session(engine, stdin.lock(), &mut io::stdout(), limits)
                .result
                .map_err(|e| format!("serve: {e}"))?;
        }
        Some(addr) => {
            let listener = TcpListener::bind(addr)
                .map_err(|e| format!("--listen: cannot bind `{addr}`: {e}"))?;
            let local = listener
                .local_addr()
                .map_err(|e| format!("--listen: {e}"))?;
            eprintln!("nanobound serve: listening on {local}");
            for stream in listener.incoming() {
                let stream = match stream {
                    Ok(stream) => stream,
                    Err(e) => {
                        eprintln!("nanobound serve: accept failed: {e}");
                        continue;
                    }
                };
                // Socket options are per-socket, not per-fd: setting
                // the timeout before `try_clone` covers both halves.
                if let Err(e) = stream.set_read_timeout(options.idle_timeout) {
                    eprintln!("nanobound serve: cannot set idle timeout: {e}");
                    continue;
                }
                let reader = match stream.try_clone() {
                    Ok(clone) => BufReader::new(clone),
                    Err(e) => {
                        eprintln!("nanobound serve: cannot clone stream: {e}");
                        continue;
                    }
                };
                let mut writer = stream;
                let outcome = serve_session(engine, reader, &mut writer, limits);
                if let Err(e) = outcome.result {
                    // A client that vanished mid-response must not
                    // take the service down with it.
                    eprintln!("nanobound serve: session ended: {e}");
                }
                // ... but a served shutdown wins even over a vanished
                // client: check it after, not instead of, the error.
                if outcome.shutdown {
                    break;
                }
            }
        }
    }
    Ok(())
}

/// One response waiting for its turn on the wire.
struct Frame {
    id: String,
    ok: bool,
    /// Raw payload bytes: text for the CLI-mirroring workloads, binary
    /// tally frames for `mc_shards`.
    payload: Vec<u8>,
    /// Whether writing this frame ends its id's in-flight claim (true
    /// for every frame that answers an admitted request; false for
    /// malformed-line and duplicate-id errors, which never claimed
    /// one).
    release: bool,
}

struct SinkState<'w, W> {
    writer: &'w mut W,
    /// The next sequence slot to hit the wire.
    next: u64,
    /// Out-of-order completions parked until their turn.
    pending: BTreeMap<u64, Frame>,
    /// Ids admitted and not yet answered on the wire.
    in_flight: HashSet<String>,
    /// The first transport failure; later frames are consumed
    /// silently (the peer is gone — there is nobody to reorder for).
    error: Option<io::Error>,
}

/// The ordering/framing buffer: workers push completed frames tagged
/// with their request-order sequence slot, and the sink writes each
/// frame exactly when every earlier slot has been written — so the
/// wire stream is in request order no matter how execution
/// interleaved.
struct FrameSink<'w, W> {
    state: Mutex<SinkState<'w, W>>,
}

impl<'w, W: Write> FrameSink<'w, W> {
    fn new(writer: &'w mut W) -> Self {
        FrameSink {
            state: Mutex::new(SinkState {
                writer,
                next: 0,
                pending: BTreeMap::new(),
                in_flight: HashSet::new(),
                error: None,
            }),
        }
    }

    /// Claims `id` for a new request; `false` if it is already in
    /// flight (the claim ends when the answering frame is written).
    fn admit(&self, id: &str) -> bool {
        self.state
            .lock()
            .expect("sink lock")
            .in_flight
            .insert(id.to_owned())
    }

    /// Queues `frame` for sequence slot `seq` and writes every frame
    /// whose turn has come.
    fn push(&self, seq: u64, frame: Frame) {
        let mut state = self.state.lock().expect("sink lock");
        state.pending.insert(seq, frame);
        loop {
            let next = state.next;
            let Some(frame) = state.pending.remove(&next) else {
                break;
            };
            if state.error.is_none() {
                if let Err(e) =
                    write_response(&mut *state.writer, &frame.id, frame.ok, &frame.payload)
                {
                    state.error = Some(e);
                }
            }
            if frame.release {
                state.in_flight.remove(&frame.id);
            }
            state.next += 1;
        }
    }

    /// Records a transport failure (first one wins).
    fn fail(&self, error: io::Error) {
        let mut state = self.state.lock().expect("sink lock");
        if state.error.is_none() {
            state.error = Some(error);
        }
    }

    fn finish(self) -> io::Result<()> {
        match self.state.into_inner().expect("sink lock").error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Serves one request stream until EOF or `shutdown`.
///
/// The calling thread parses and admits requests; admitted workloads
/// run on `limits.concurrency` dispatch workers and their responses
/// are re-sequenced into request order by a `FrameSink`. Transport
/// failures land in [`SessionOutcome::result`]; workload failures are
/// answered in-band as `status: error` responses.
pub fn serve_session<R: BufRead, W: Write + Send>(
    engine: &Engine,
    reader: R,
    writer: &mut W,
    limits: SessionLimits,
) -> SessionOutcome {
    let crew = ThreadPool::new(limits.concurrency.clamp(1, MAX_JOBS))
        .expect("clamped concurrency is a valid worker count");
    let sink = FrameSink::new(writer);
    let shutdown = crew.dispatch_scope(limits.queue.max(1), |dispatcher| {
        let sink = &sink;
        let mut seq: u64 = 0;
        let mut shutdown = false;
        for line in reader.lines() {
            let line = match line {
                Ok(line) => line,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // The connection's idle deadline fired. Close the
                    // session cleanly with an in-band notice so the
                    // accept loop moves on to the next client — this
                    // is the cure for one stalled client wedging the
                    // sequential TCP accept loop, not a transport
                    // failure.
                    sink.push(
                        seq,
                        Frame {
                            id: RESERVED_ID.to_owned(),
                            ok: false,
                            payload: b"error: idle timeout, closing session\n".to_vec(),
                            release: false,
                        },
                    );
                    break;
                }
                Err(e) => {
                    sink.fail(e);
                    break;
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let slot = seq;
            seq += 1;
            let request = match parse_request(&line) {
                Ok(request) => request,
                Err(message) => {
                    sink.push(
                        slot,
                        Frame {
                            id: RESERVED_ID.to_owned(),
                            ok: false,
                            payload: format!("error: {message}\n").into_bytes(),
                            release: false,
                        },
                    );
                    continue;
                }
            };
            if !sink.admit(&request.id) {
                // The id still names an unanswered request; answering
                // it again would make the stream ambiguous. In-band
                // error, claim untouched.
                sink.push(
                    slot,
                    Frame {
                        id: request.id.clone(),
                        ok: false,
                        payload: format!("error: id `{}` is already in flight\n", request.id)
                            .into_bytes(),
                        release: false,
                    },
                );
                continue;
            }
            // `shutdown` is decided here on the reader, not on a
            // worker: admitted requests drain and answer first (their
            // slots precede this one), then the `bye` frame ends the
            // stream.
            if request.workload == "shutdown" {
                match no_args("shutdown", &request.args) {
                    Ok(()) => {
                        sink.push(
                            slot,
                            Frame {
                                id: request.id,
                                ok: true,
                                payload: b"bye\n".to_vec(),
                                release: true,
                            },
                        );
                        shutdown = true;
                        break;
                    }
                    Err(message) => {
                        sink.push(
                            slot,
                            Frame {
                                id: request.id,
                                ok: false,
                                payload: format!("error: {message}\n").into_bytes(),
                                release: true,
                            },
                        );
                    }
                }
                continue;
            }
            let id = request.id.clone();
            let job = move || {
                let (ok, payload) = dispatch(engine, &request);
                sink.push(
                    slot,
                    Frame {
                        id: request.id,
                        ok,
                        payload,
                        release: true,
                    },
                );
            };
            if dispatcher.try_submit(job).is_err() {
                // Queue full. The overload answer is a first-class
                // in-band frame in this request's own slot — never a
                // dropped or reordered response.
                sink.push(
                    slot,
                    Frame {
                        id,
                        ok: false,
                        payload: b"error: overloaded\n".to_vec(),
                        release: true,
                    },
                );
            }
        }
        shutdown
    });
    SessionOutcome {
        shutdown,
        result: sink.finish(),
    }
}

/// The stderr summary of one GC sweep (startup and `gc` workload
/// alike — sweep counts are timing-dependent under concurrency, so
/// they go to diagnostics, never into a response payload).
fn gc_report_line(report: &GcReport) -> String {
    format!(
        "cache gc: {} entries deleted ({} bytes), {} kept ({} bytes), {} failed deletes",
        report.deleted_entries,
        report.deleted_bytes,
        report.kept_entries,
        report.kept_bytes,
        report.failed_deletes,
    )
}

/// Rejects stray arguments on workloads that take none.
fn no_args(workload: &str, args: &[String]) -> Result<(), String> {
    if args.is_empty() {
        Ok(())
    } else {
        Err(format!("`{workload}` takes no arguments"))
    }
}

/// Strips the serve-only `--request-jobs N` override out of `args`,
/// returning the remaining tokens and the override pool, if any.
fn split_request_jobs(args: &[String]) -> Result<(Vec<String>, Option<ThreadPool>), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut jobs = None;
    let mut iter = args.iter();
    while let Some(token) = iter.next() {
        if token != "--request-jobs" {
            rest.push(token.clone());
            continue;
        }
        if jobs.is_some() {
            return Err("duplicate flag `--request-jobs`".to_owned());
        }
        let value = iter
            .next()
            .ok_or_else(|| "flag `--request-jobs` needs a value".to_owned())?;
        let count: usize = value.parse().map_err(|_| {
            format!("--request-jobs: `{value}` is not an integer (supported: 1..={MAX_JOBS})")
        })?;
        jobs = Some(ThreadPool::new(count).map_err(|e| format!("--request-jobs: {e}"))?);
    }
    Ok((rest, jobs))
}

/// Parses the `--request-jobs` override off `args`, then runs `body`
/// with the remaining tokens and the effective worker pool.
fn with_request_pool<T, F>(engine: &Engine, args: &[String], body: F) -> Result<T, String>
where
    F: FnOnce(&[String], &ThreadPool) -> Result<T, String>,
{
    let (rest, pool) = split_request_jobs(args)?;
    body(&rest, pool.as_ref().unwrap_or_else(|| engine.pool()))
}

/// Executes one request; `(true, stdout-equivalent bytes)` or
/// `(false, "error: ...\n")` — text workloads answer the exact bytes
/// the one-shot CLI prints, `mc_shards` answers binary tally frames.
fn dispatch(engine: &Engine, request: &Request) -> (bool, Vec<u8>) {
    // `lint` is special-cased: findings are payload, not protocol
    // errors. A failing report answers `status: error` but still
    // carries the report text — byte-identical to the one-shot CLI's
    // stdout — instead of an `error: ` message.
    if request.workload == "lint" {
        return match parse_flags(&request.args, &LintRequest::FLAGS)
            .and_then(|(positional, flags)| LintRequest::from_parts(&positional, &flags))
            .and_then(|req| engine.lint(&req))
        {
            Ok(outcome) => (!outcome.failed(), outcome.text.into_bytes()),
            Err(message) => (false, format!("error: {message}\n").into_bytes()),
        };
    }
    // `mc_shards` is the cluster workload: its payload is binary
    // `NoisyTally` frames, not CLI-mirroring text.
    if request.workload == "mc_shards" {
        return match with_request_pool(engine, &request.args, |args, pool| {
            parse_flags(args, &McShardsRequest::FLAGS)
                .and_then(|(positional, flags)| McShardsRequest::from_parts(&positional, &flags))
                .and_then(|req| engine.mc_shards(&req, pool))
        }) {
            Ok(payload) => (true, payload),
            Err(message) => (false, format!("error: {message}\n").into_bytes()),
        };
    }
    let result = match request.workload.as_str() {
        "profile" => with_request_pool(engine, &request.args, |args, pool| {
            parse_flags(args, &ProfileRequest::FLAGS)
                .and_then(|(positional, flags)| ProfileRequest::from_parts(&positional, &flags))
                .and_then(|req| engine.profile_with(&req, pool))
        }),
        // `bound` per the protocol; `bounds` accepted as the CLI
        // subcommand spelling.
        "bound" | "bounds" => with_request_pool(engine, &request.args, |args, pool| {
            parse_flags(args, &BoundRequest::FLAGS)
                .and_then(|(positional, flags)| BoundRequest::from_parts(&positional, &flags))
                .and_then(|req| engine.bound_with(&req, pool))
        }),
        "figure" => with_request_pool(engine, &request.args, |args, pool| {
            parse_flags(args, &[])
                .and_then(|(positional, _)| match positional.as_slice() {
                    [name] => {
                        FigureId::parse(name).ok_or_else(|| format!("unknown figure `{name}`"))
                    }
                    _ => Err(
                        "`figure` expects exactly one figure name (fig2..fig8, headline)"
                            .to_owned(),
                    ),
                })
                .and_then(|id| engine.figure_csv_with(id, pool))
        }),
        "validate" => with_request_pool(engine, &request.args, |args, pool| {
            no_args("validate", args)?;
            engine.validation_csv_with(pool)
        }),
        "gc" => parse_flags(&request.args, &GcRequest::FLAGS)
            .and_then(|(positional, flags)| GcRequest::from_parts(&positional, &flags))
            .map(|req| match engine.gc(&req.policy) {
                Some(report) => {
                    // Deleted/kept counts depend on what happened to
                    // be in flight; keep the payload deterministic
                    // and report the details as diagnostics.
                    eprintln!("nanobound serve: {}", gc_report_line(&report));
                    "gc: swept\n".to_owned()
                }
                None => "gc: cache off\n".to_owned(),
            }),
        "stats" => no_args("stats", &request.args).map(|()| {
            if engine.cache().is_some() {
                engine.cache_report()
            } else {
                "cache: off\n".to_owned()
            }
        }),
        "ping" => no_args("ping", &request.args).map(|()| "pong\n".to_owned()),
        // `shutdown` never reaches dispatch — the session reader
        // decides it inline so the stream can end.
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(payload) => (true, payload.into_bytes()),
        Err(message) => (false, format!("error: {message}\n").into_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::read_response;
    use nanobound_cache::ShardCache;

    /// Runs a scripted session against a fresh cacheless engine under
    /// `limits`; returns the parsed responses.
    fn session_with(script: &str, limits: SessionLimits) -> Vec<(String, bool, String)> {
        let engine = Engine::new(ThreadPool::serial(), None);
        let mut out = Vec::new();
        let outcome = serve_session(&engine, script.as_bytes(), &mut out, limits);
        outcome.result.unwrap();
        parse_stream(&out)
    }

    fn session(script: &str) -> Vec<(String, bool, String)> {
        session_with(script, SessionLimits::default())
    }

    fn parse_stream(out: &[u8]) -> Vec<(String, bool, String)> {
        let mut reader = BufReader::new(out);
        let mut responses = Vec::new();
        while let Some((id, ok, payload)) = read_response(&mut reader).unwrap() {
            responses.push((id, ok, String::from_utf8(payload).unwrap()));
        }
        responses
    }

    #[test]
    fn ping_and_unknown_workloads() {
        let responses = session(
            "{\"id\":\"a\",\"workload\":\"ping\"}\n\
             {\"id\":\"b\",\"workload\":\"frobnicate\"}\n",
        );
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0], ("a".to_owned(), true, "pong\n".to_owned()));
        let (id, ok, payload) = &responses[1];
        assert_eq!(id, "b");
        assert!(!ok);
        assert!(payload.contains("unknown workload `frobnicate`"));
    }

    #[test]
    fn bound_payload_matches_the_engine_text() {
        let responses = session(
            "{\"id\":\"r\",\"workload\":\"bound\",\"args\":[\"--size\",\"21\",\
             \"--sensitivity\",\"10\",\"--activity\",\"0.5\",\"--fanin\",\"3\",\
             \"--eps\",\"0.01\"]}\n",
        );
        let (_, ok, payload) = &responses[0];
        assert!(ok, "payload: {payload}");
        assert!(payload.starts_with("profile: "));
        assert!(payload.contains("bounds at eps = 0.01"));
    }

    #[test]
    fn malformed_lines_do_not_end_the_session() {
        let responses = session(
            "this is not a request\n\
             \n\
             {\"id\":\"ok\",\"workload\":\"ping\"}\n",
        );
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].0, "?");
        assert!(!responses[0].1);
        assert_eq!(responses[1], ("ok".to_owned(), true, "pong\n".to_owned()));
    }

    #[test]
    fn figure_workload_returns_csv_and_validates_the_name() {
        let responses = session(
            "{\"id\":\"f\",\"workload\":\"figure\",\"args\":[\"fig2\"]}\n\
             {\"id\":\"g\",\"workload\":\"figure\",\"args\":[\"fig99\"]}\n",
        );
        let (_, ok, payload) = &responses[0];
        assert!(ok);
        assert!(payload.starts_with("sw(y),"), "csv: {payload}");
        let (_, ok, payload) = &responses[1];
        assert!(!ok);
        assert!(payload.contains("unknown figure `fig99`"));
    }

    #[test]
    fn transport_flags_are_rejected_per_request() {
        // --jobs belongs to the server, not to a request: determinism
        // makes it meaningless per-request, so it must be an error.
        // (--request-jobs is the sanctioned per-request budget.)
        let responses =
            session("{\"id\":\"j\",\"workload\":\"bound\",\"args\":[\"--jobs\",\"4\"]}\n");
        let (_, ok, payload) = &responses[0];
        assert!(!ok);
        assert!(
            payload.contains("unknown flag `--jobs`"),
            "payload: {payload}"
        );
    }

    #[test]
    fn request_jobs_overrides_the_worker_budget_per_request() {
        let with = session(
            "{\"id\":\"w\",\"workload\":\"bound\",\"args\":[\"--request-jobs\",\"2\",\
             \"--size\",\"21\",\"--sensitivity\",\"10\",\"--activity\",\"0.5\",\
             \"--fanin\",\"3\",\"--eps\",\"0.01\"]}\n",
        );
        let without = session(
            "{\"id\":\"w\",\"workload\":\"bound\",\"args\":[\"--size\",\"21\",\
             \"--sensitivity\",\"10\",\"--activity\",\"0.5\",\"--fanin\",\"3\",\
             \"--eps\",\"0.01\"]}\n",
        );
        assert!(with[0].1, "payload: {}", with[0].2);
        // The runner contract: the override changes the worker count,
        // never a byte of the payload.
        assert_eq!(with[0].2, without[0].2);
        // And the flag itself is validated.
        for (args, needle) in [
            ("[\"--request-jobs\"]", "needs a value"),
            ("[\"--request-jobs\",\"0\"]", "--request-jobs"),
            ("[\"--request-jobs\",\"x\"]", "not an integer"),
            (
                "[\"--request-jobs\",\"2\",\"--request-jobs\",\"2\"]",
                "duplicate flag",
            ),
        ] {
            let responses = session(&format!(
                "{{\"id\":\"v\",\"workload\":\"validate\",\"args\":{args}}}\n"
            ));
            let (_, ok, payload) = &responses[0];
            assert!(!ok);
            assert!(payload.contains(needle), "args {args}: payload {payload}");
        }
    }

    #[test]
    fn no_arg_workloads_reject_stray_arguments() {
        // ping/stats/shutdown used to swallow stray args silently
        // while validate rejected them; all four are now consistent
        // hard errors naming the workload.
        for workload in ["ping", "stats", "validate", "shutdown"] {
            let responses = session(&format!(
                "{{\"id\":\"a\",\"workload\":\"{workload}\",\"args\":[\"stray\"]}}\n\
                 {{\"id\":\"b\",\"workload\":\"ping\"}}\n"
            ));
            assert_eq!(responses.len(), 2, "workload {workload}");
            let (_, ok, payload) = &responses[0];
            assert!(!ok, "workload {workload}");
            assert!(
                payload.contains(&format!("`{workload}` takes no arguments")),
                "workload {workload}: payload {payload}"
            );
            // A rejected shutdown must not shut anything down.
            assert_eq!(responses[1], ("b".to_owned(), true, "pong\n".to_owned()));
        }
    }

    #[test]
    fn shutdown_ends_the_session_early() {
        let responses = session(
            "{\"id\":\"s\",\"workload\":\"shutdown\"}\n\
             {\"id\":\"never\",\"workload\":\"ping\"}\n",
        );
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0], ("s".to_owned(), true, "bye\n".to_owned()));
    }

    #[test]
    fn shutdown_wins_over_a_failing_transport() {
        // The regression: a client that sends `shutdown` and vanishes
        // before the `bye` frame lands produces a transport error —
        // which used to eat the shutdown bit and leave the accept
        // loop serving forever.
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "client gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let engine = Engine::new(ThreadPool::serial(), None);
        let mut writer = FailingWriter;
        let outcome = serve_session(
            &engine,
            "{\"id\":\"s\",\"workload\":\"shutdown\"}\n".as_bytes(),
            &mut writer,
            SessionLimits::default(),
        );
        assert!(outcome.shutdown, "shutdown was served");
        assert!(outcome.result.is_err(), "the transport still failed");
    }

    #[test]
    fn an_idle_timeout_closes_the_session_in_band() {
        // A reader that serves one request and then stalls forever —
        // surfaced as the `WouldBlock`/`TimedOut` a TCP read deadline
        // produces. The session must answer what it got, send a clean
        // in-band close notice, and end with Ok (not a transport
        // error), so the accept loop moves on to the next client.
        struct Stalling<'a> {
            first: &'a [u8],
        }
        impl io::Read for Stalling<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.first.is_empty() {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "idle"));
                }
                let n = self.first.len().min(buf.len());
                buf[..n].copy_from_slice(&self.first[..n]);
                self.first = &self.first[n..];
                Ok(n)
            }
        }
        let engine = Engine::new(ThreadPool::serial(), None);
        let mut out = Vec::new();
        let reader = BufReader::new(Stalling {
            first: b"{\"id\":\"a\",\"workload\":\"ping\"}\n",
        });
        let outcome = serve_session(&engine, reader, &mut out, SessionLimits::default());
        assert!(!outcome.shutdown);
        outcome
            .result
            .expect("an idle timeout is not a transport failure");
        let responses = parse_stream(&out);
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0], ("a".to_owned(), true, "pong\n".to_owned()));
        assert_eq!(
            responses[1],
            (
                RESERVED_ID.to_owned(),
                false,
                "error: idle timeout, closing session\n".to_owned()
            )
        );
    }

    #[test]
    fn stats_reports_cache_off_without_a_cache() {
        let responses = session("{\"id\":\"st\",\"workload\":\"stats\"}\n");
        assert_eq!(
            responses[0],
            ("st".to_owned(), true, "cache: off\n".to_owned())
        );
    }

    #[test]
    fn gc_workload_answers_deterministically() {
        // Without a cache there is nothing to sweep.
        let responses = session("{\"id\":\"g\",\"workload\":\"gc\"}\n");
        assert_eq!(
            responses[0],
            ("g".to_owned(), true, "gc: cache off\n".to_owned())
        );
        // With one, the payload is fixed — sweep counts are
        // timing-dependent and go to stderr, not into the stream.
        let dir = std::env::temp_dir().join("nanobound_serve_gc_workload");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::new(ThreadPool::serial(), Some(ShardCache::open(&dir).unwrap()));
        let mut out = Vec::new();
        let outcome = serve_session(
            &engine,
            "{\"id\":\"g\",\"workload\":\"gc\",\"args\":[\"--bytes\",\"0\"]}\n\
             {\"id\":\"h\",\"workload\":\"gc\",\"args\":[\"--bytes\",\"junk\"]}\n"
                .as_bytes(),
            &mut out,
            SessionLimits::default(),
        );
        outcome.result.unwrap();
        let responses = parse_stream(&out);
        assert_eq!(
            responses[0],
            ("g".to_owned(), true, "gc: swept\n".to_owned())
        );
        let (_, ok, payload) = &responses[1];
        assert!(!ok);
        assert!(payload.contains("--bytes"), "payload: {payload}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_dispatch_keeps_request_order() {
        // Eight requests under four workers: completion order is
        // anyone's guess, wire order is request order — always.
        let script: String = (0..8)
            .map(|i| format!("{{\"id\":\"r{i}\",\"workload\":\"ping\"}}\n"))
            .collect();
        let responses = session_with(
            &script,
            SessionLimits {
                concurrency: 4,
                queue: 16,
            },
        );
        assert_eq!(responses.len(), 8);
        for (i, (id, ok, payload)) in responses.iter().enumerate() {
            assert_eq!(id, &format!("r{i}"));
            assert!(ok);
            assert_eq!(payload, "pong\n");
        }
    }

    #[test]
    fn the_sink_orders_frames_and_tracks_in_flight_ids() {
        let frame = |id: &str, release: bool| Frame {
            id: id.to_owned(),
            ok: true,
            payload: format!("{id}\n").into_bytes(),
            release,
        };
        let mut out = Vec::new();
        let sink = FrameSink::new(&mut out);
        assert!(sink.admit("a"), "fresh id admitted");
        assert!(sink.admit("b"));
        assert!(!sink.admit("a"), "in-flight id refused");
        // Slots 2 and 1 park until slot 0 arrives, then all three
        // flush in sequence order.
        sink.push(2, frame("c", false));
        sink.push(1, frame("b", true));
        assert_eq!(sink.state.lock().unwrap().next, 0, "nothing written yet");
        sink.push(0, frame("a", true));
        // A released id is immediately reusable; an unreleased one
        // (frame "c" was pushed with release: false) is not.
        assert!(sink.admit("a"), "released id reusable");
        sink.finish().unwrap();
        let ids: Vec<String> = parse_stream(&out)
            .into_iter()
            .map(|(id, _, _)| id)
            .collect();
        assert_eq!(ids, ["a", "b", "c"]);
    }
}
