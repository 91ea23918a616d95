//! The cluster coordinator: fault-tolerant distributed Monte-Carlo.
//!
//! `nanobound cluster` fans the shards of one Monte-Carlo experiment
//! out to N remote `serve` processes over the line protocol's new
//! `mc_shards` workload and merges the returned tallies — the
//! distributed-systems mirror of the paper's thesis that reliable
//! computation can be built from unreliable parts. ROADMAP calls the
//! remaining step "a transport problem, not a determinism problem",
//! and this module keeps it that way:
//!
//! **The determinism contract.** A shard is a pure function of
//! `(experiment fingerprint, shard index)` — the runner's frozen
//! [`nanobound_runner::shard_seed`] derivation — and integer
//! [`NoisyTally`] merges commute, so *where* a shard was computed and
//! in *what order* results arrive cannot change a bit of the outcome.
//! A cluster run is byte-identical to a local `--jobs 1` run under
//! healthy workers, killed workers, and seeded fault injection alike;
//! the ci.sh cluster gate diffs all three.
//!
//! **Failure semantics.** Every transport failure — refused connect,
//! timeout, malformed or truncated response, in-band `status: error` —
//! is a *counted retry*, never an abort: the batch returns to the
//! front of the queue for a surviving worker. A worker that fails
//! [`ClusterOptions::quarantine_after`] consecutive times is ejected
//! (counted) and periodically probed with `ping` under exponential
//! backoff until it answers, at which point it is re-admitted. If no
//! healthy worker remains, the coordinator computes queued batches on
//! its own pool — so the run always completes as long as the
//! coordinator lives, and a cluster of zero workers *is* the serial
//! baseline.
//!
//! **Remote-result admission.** A worker's tally frames are vetted
//! like cache hits before they may merge: the response id must match,
//! the frame count and shard indices must match the requested range
//! exactly, and every tally must pass the same
//! [`nanobound_runner::tally_admissible`] shape-and-count check the
//! shard cache applies. Admitted tallies are written into the coordinator's local
//! [`ShardCache`] under the experiment's own fingerprint (pinned for
//! the duration of the run), so a cluster run warms the same cache a
//! local run would.
//!
//! **Fault injection.** [`ChaosSchedule`] draws a deterministic
//! per-(seed, worker, attempt) [`Fault`] that the coordinator applies
//! to its own transport: skipped connects, stalled reads, garbled
//! header bytes, streams truncated mid-frame. The corruption flows
//! through the *real* decode paths (`parse_response_header`,
//! `read_response`, [`decode_tally_frames`]), so the chaos tests
//! exercise exactly the code a hostile network would.

use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use nanobound_cache::{decode_from_slice, encode_to_vec, Fingerprint, ShardCache};
use nanobound_logic::Netlist;
use nanobound_runner::{
    monte_carlo_fingerprint, monte_carlo_shard_tallies, tally_admissible, ShardPlan, ShardRange,
    ThreadPool,
};
use nanobound_sim::{NoisyConfig, NoisyTally, ProgramCache};

use crate::proto::{format_request, read_response};

/// Cap on one encoded tally frame — a tally is a handful of counters
/// plus one word per output, so anything near this is garbage.
const MAX_TALLY_BYTES: u64 = 1 << 26;

/// Weyl constant shared with the runner's seed derivation; used here
/// only to decorrelate per-worker chaos streams.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The pinned chaos seed of the ci.sh cluster gate: brute-forced so
/// that the *first* draw of every one of the gate's three workers is a
/// fault, making "the chaos run counted at least one retry" a
/// deterministic assertion. `chaos_ci_seed_faults_every_first_draw`
/// verifies the property so the constant cannot rot.
pub const CHAOS_CI_SEED: u64 = 25;

// ---------------------------------------------------------------------
// Tally frame codec
// ---------------------------------------------------------------------

/// Encodes a contiguous run of shard tallies as the `mc_shards`
/// response payload: a u64-LE frame count, then per frame the u64-LE
/// absolute shard index, the u64-LE encoded length, and the tally's
/// [`nanobound_cache`] codec bytes — the exact bytes a cache entry
/// stores, so worker and cache agree on what a tally is.
#[must_use]
pub fn encode_tally_frames(first: u64, tallies: &[NoisyTally]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(tallies.len() as u64).to_le_bytes());
    for (i, tally) in tallies.iter().enumerate() {
        let bytes = encode_to_vec(tally);
        out.extend_from_slice(&(first + i as u64).to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Decodes an `mc_shards` payload into `(shard index, tally)` frames.
///
/// Defensive by construction — the bytes came off a network: the
/// claimed frame count is bounded by the payload size before any
/// allocation, every length is capped and bounds-checked, each tally
/// must consume its slice exactly, and trailing bytes are rejected.
///
/// # Errors
///
/// A description of the first malformation; the caller counts it as a
/// retryable worker failure.
pub fn decode_tally_frames(payload: &[u8]) -> Result<Vec<(u64, NoisyTally)>, String> {
    fn u64_at(payload: &[u8], offset: usize) -> Result<u64, String> {
        payload
            .get(offset..offset + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
            .ok_or_else(|| format!("truncated at byte {offset}"))
    }
    let count = u64_at(payload, 0)?;
    // Each frame needs at least its 16-byte header.
    if count > (payload.len() as u64) / 16 {
        return Err(format!(
            "frame count {count} exceeds the {}-byte payload",
            payload.len()
        ));
    }
    let mut frames = Vec::with_capacity(count as usize);
    let mut offset = 8usize;
    for _ in 0..count {
        let index = u64_at(payload, offset)?;
        let len = u64_at(payload, offset + 8)?;
        if len > MAX_TALLY_BYTES {
            return Err(format!("tally frame of {len} bytes exceeds the cap"));
        }
        offset += 16;
        let end = offset
            .checked_add(len as usize)
            .filter(|&end| end <= payload.len())
            .ok_or_else(|| format!("truncated tally frame at byte {offset}"))?;
        let tally = decode_from_slice::<NoisyTally>(&payload[offset..end])
            .ok_or_else(|| format!("malformed tally frame for shard {index}"))?;
        frames.push((index, tally));
        offset = end;
    }
    if offset != payload.len() {
        return Err(format!(
            "{} trailing bytes after the last frame",
            payload.len() - offset
        ));
    }
    Ok(frames)
}

// ---------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------

/// One injected transport fault, applied to a single attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Healthy attempt.
    None,
    /// The connect is refused before it happens.
    Refuse,
    /// The first response read times out, as a stalled worker's would.
    Stall,
    /// Response byte at this offset is XORed with `0x5A` — which maps
    /// every ASCII digit to a non-digit, so a garbled header can never
    /// silently alter a byte count or an id into another valid one.
    GarbleHeader(usize),
    /// The response stream ends (EOF) after this many bytes.
    Truncate(u64),
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GOLDEN);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A worker's deterministic fault schedule: the n-th attempt of worker
/// w under seed s always draws the same [`Fault`], independent of
/// timing — which is what lets proptests and the ci gate replay a
/// chaos run exactly.
#[derive(Clone, Debug)]
pub struct ChaosSchedule {
    state: u64,
}

impl ChaosSchedule {
    /// The schedule for `worker` (its index in the worker list) under
    /// `seed`.
    #[must_use]
    pub fn new(seed: u64, worker: u64) -> Self {
        ChaosSchedule {
            state: seed ^ worker.wrapping_mul(GOLDEN),
        }
    }

    /// Draws the next attempt's fault. About one attempt in three
    /// faults, split evenly across the four fault kinds.
    pub fn next_fault(&mut self) -> Fault {
        let h = splitmix64(&mut self.state);
        if !h.is_multiple_of(3) {
            return Fault::None;
        }
        match (h >> 8) % 4 {
            0 => Fault::Refuse,
            1 => Fault::Stall,
            2 => Fault::GarbleHeader(((h >> 16) % 32) as usize),
            _ => Fault::Truncate((h >> 16) % 48),
        }
    }
}

/// Applies a [`Fault`] to the response byte stream, upstream of the
/// real decoders.
struct FaultReader<R> {
    inner: R,
    fault: Fault,
    pos: u64,
}

impl<R: Read> Read for FaultReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.fault {
            Fault::Stall => Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "chaos: stalled read",
            )),
            Fault::Truncate(limit) => {
                if self.pos >= limit {
                    return Ok(0);
                }
                let cap = usize::try_from(limit - self.pos)
                    .unwrap_or(usize::MAX)
                    .min(buf.len());
                let got = self.inner.read(&mut buf[..cap])?;
                self.pos += got as u64;
                Ok(got)
            }
            Fault::GarbleHeader(at) => {
                let got = self.inner.read(buf)?;
                let at = at as u64;
                if (self.pos..self.pos + got as u64).contains(&at) {
                    buf[(at - self.pos) as usize] ^= 0x5A;
                }
                self.pos += got as u64;
                Ok(got)
            }
            Fault::None | Fault::Refuse => self.inner.read(buf),
        }
    }
}

// ---------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------

/// The experiment a cluster run computes.
#[derive(Debug)]
pub struct ClusterJob<'a> {
    /// The live netlist, for admission checks and local fallback.
    pub netlist: &'a Netlist,
    /// The netlist's source text, shipped in-band to workers.
    pub netlist_text: &'a str,
    /// Whether `netlist_text` is BLIF (else ISCAS `.bench`).
    pub blif: bool,
    /// ε and the fault-mask master seed.
    pub config: NoisyConfig,
    /// The input-pattern master seed.
    pub pattern_seed: u64,
    /// The shard plan (total patterns, chunk).
    pub plan: ShardPlan,
    /// Shards per request batch.
    pub batch: usize,
}

/// Transport and fault-tolerance policy of one cluster run.
#[derive(Clone, Debug)]
pub struct ClusterOptions {
    /// Worker addresses; empty runs the whole experiment locally.
    pub workers: Vec<String>,
    /// Per-connect deadline.
    pub connect_timeout: Duration,
    /// Per-read/write deadline on an open connection — the per-shard
    /// deadline, since a batch is one roundtrip.
    pub io_timeout: Duration,
    /// Consecutive failures before a worker is ejected to quarantine.
    pub quarantine_after: u32,
    /// Initial retry backoff; doubles per consecutive failure and per
    /// quarantine probe, capped internally.
    pub backoff: Duration,
    /// Seeded fault injection for tests and the ci gate.
    pub chaos_seed: Option<u64>,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            workers: Vec::new(),
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(30),
            quarantine_after: 3,
            backoff: Duration::from_millis(50),
            chaos_seed: None,
        }
    }
}

/// Per-worker outcome counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerStats {
    /// The worker's address, as configured.
    pub addr: String,
    /// Shards this worker computed and got merged.
    pub shards: u64,
    /// Failed attempts charged to this worker.
    pub retries: u64,
    /// Times this worker was ejected to quarantine.
    pub ejections: u64,
}

/// Whole-run outcome counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Shards in the plan.
    pub total_shards: u64,
    /// Shards served by the local cache before distribution.
    pub cached_shards: u64,
    /// Shards computed on the coordinator (fallback or zero workers).
    pub local_shards: u64,
    /// Total failed attempts across workers.
    pub retries: u64,
    /// Total ejections across workers.
    pub ejections: u64,
    /// Per-worker breakdown, in configured order.
    pub workers: Vec<WorkerStats>,
}

/// The stderr summary line; its format is pinned by the ci.sh cluster
/// gate (and `stats_line_format_is_pinned`) — extend it, don't reshape
/// it.
#[must_use]
pub fn stats_line(stats: &ClusterStats) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "cluster: {} shards, {} cached, {} local, {} retries, {} ejections",
        stats.total_shards, stats.cached_shards, stats.local_shards, stats.retries, stats.ejections
    );
    for w in &stats.workers {
        let _ = write!(
            out,
            " | worker {}: {} shards, {} retries, {} ejections",
            w.addr, w.shards, w.retries, w.ejections
        );
    }
    out
}

/// What a completed cluster run produced.
#[derive(Clone, Debug)]
pub struct ClusterRun {
    /// The merged experiment tally — identical to a local run's.
    pub tally: NoisyTally,
    /// The run's fault-tolerance counters.
    pub stats: ClusterStats,
}

/// Shared coordinator state behind the board mutex.
struct Shared {
    /// Batches awaiting an owner; failures requeue at the *front* so a
    /// stolen batch retries before fresh work.
    queue: VecDeque<ShardRange>,
    /// Batches currently owned by a worker thread or the coordinator.
    outstanding: usize,
    /// Shards not yet merged (cache hits excluded up front).
    remaining: usize,
    /// Non-quarantined workers; at zero the coordinator computes
    /// queued batches itself.
    healthy: usize,
    /// Set when every shard is merged, or on a fatal local error —
    /// tells every thread (including quarantine probers) to stop.
    finished: bool,
    /// The running merge.
    merged: Option<NoisyTally>,
    /// A fatal coordinator-side error (never set by worker failures).
    error: Option<String>,
    stats: ClusterStats,
}

struct Board {
    shared: Mutex<Shared>,
    cvar: Condvar,
}

impl Board {
    /// Merges admitted tallies and retires `owned` shards; flips
    /// `finished` when the last shard lands.
    fn merge(&self, tallies: &[NoisyTally], owned: usize) {
        let mut s = self.shared.lock().expect("cluster board lock");
        for tally in tallies {
            match &mut s.merged {
                Some(merged) => merged.merge(tally),
                slot => *slot = Some(tally.clone()),
            }
        }
        s.outstanding -= 1;
        s.remaining -= owned;
        if s.remaining == 0 {
            s.finished = true;
        }
        self.cvar.notify_all();
    }

    /// Returns a failed batch to the front of the queue.
    fn requeue(&self, batch: ShardRange) {
        let mut s = self.shared.lock().expect("cluster board lock");
        s.queue.push_front(batch);
        s.outstanding -= 1;
        self.cvar.notify_all();
    }

    /// Sleeps up to `duration`, waking early when the run finishes.
    fn sleep(&self, duration: Duration) {
        let s = self.shared.lock().expect("cluster board lock");
        if !s.finished {
            let _unused = self
                .cvar
                .wait_timeout(s, duration)
                .expect("cluster board lock");
        }
    }
}

/// Longest backoff between retries or quarantine probes.
const MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Runs one experiment across the configured cluster; see the module
/// docs for the failure semantics. With no workers this *is* the local
/// run — same merge, same cache traffic, same bytes.
///
/// # Errors
///
/// Only coordinator-side failures: invalid plan parameters or a local
/// compute error. Worker failures of every kind are retried, never
/// returned.
pub fn run_cluster(
    pool: &ThreadPool,
    cache: Option<&ShardCache>,
    programs: Option<&ProgramCache>,
    job: &ClusterJob<'_>,
    options: &ClusterOptions,
) -> Result<ClusterRun, String> {
    let plan = job.plan;
    let fingerprint = monte_carlo_fingerprint(
        job.netlist,
        &job.config,
        plan.patterns(),
        job.pattern_seed,
        plan.chunk(),
    );
    // Pinned for the whole run so a concurrent GC (another process'
    // startup sweep on the same cache) cannot reclaim shards mid-merge.
    let _pin = cache.map(|c| c.pin(fingerprint));

    // Pre-scan: local cache hits merge immediately and never hit the
    // wire; only miss runs are distributed.
    let mut shared = Shared {
        queue: VecDeque::new(),
        outstanding: 0,
        remaining: 0,
        healthy: options.workers.len(),
        finished: false,
        merged: None,
        error: None,
        stats: ClusterStats {
            total_shards: plan.shard_count() as u64,
            workers: options
                .workers
                .iter()
                .map(|addr| WorkerStats {
                    addr: addr.clone(),
                    shards: 0,
                    retries: 0,
                    ejections: 0,
                })
                .collect(),
            ..ClusterStats::default()
        },
    };
    let mut misses: Vec<usize> = Vec::new();
    for shard in 0..plan.shard_count() {
        let hit = cache.and_then(|c| {
            c.load_value::<NoisyTally>(&fingerprint, shard as u64)
                .filter(|tally| tally_admissible(job.netlist, tally, plan.shard_patterns(shard)))
        });
        match hit {
            Some(tally) => {
                match &mut shared.merged {
                    Some(merged) => merged.merge(&tally),
                    slot => *slot = Some(tally),
                }
                shared.stats.cached_shards += 1;
            }
            None => misses.push(shard),
        }
    }
    // Tile contiguous miss runs into batches.
    for run in misses.chunk_by(|a, b| a + 1 == *b) {
        let range = ShardRange {
            first: run[0],
            last: run[run.len() - 1] + 1,
        };
        shared.queue.extend(range.batches(job.batch));
    }
    shared.remaining = misses.len();
    shared.finished = shared.remaining == 0;

    let board = Board {
        shared: Mutex::new(shared),
        cvar: Condvar::new(),
    };

    let store = cache.map(|c| (c, fingerprint));
    std::thread::scope(|scope| {
        for (index, addr) in options.workers.iter().enumerate() {
            let board = &board;
            let chaos = options
                .chaos_seed
                .map(|seed| ChaosSchedule::new(seed, index as u64));
            scope.spawn(move || worker_loop(board, job, options, store, index, addr, chaos));
        }

        // The coordinator's own loop: merge-complete watchdog and
        // last-resort compute when no healthy worker remains.
        loop {
            let batch = {
                let mut s = board.shared.lock().expect("cluster board lock");
                loop {
                    if s.finished {
                        break None;
                    }
                    if s.healthy == 0 && !s.queue.is_empty() {
                        let batch = s.queue.pop_front().expect("non-empty queue");
                        s.outstanding += 1;
                        break Some(batch);
                    }
                    s = board
                        .cvar
                        .wait_timeout(s, Duration::from_millis(50))
                        .expect("cluster board lock")
                        .0;
                }
            };
            let Some(batch) = batch else { break };
            // The pre-scan already looked these shards up and counted
            // the misses, so compute without the cache and write the
            // tallies through like a worker's.
            match monte_carlo_shard_tallies(
                pool,
                job.netlist,
                &job.config,
                &plan,
                job.pattern_seed,
                batch,
                None,
                programs,
            ) {
                Ok(tallies) => {
                    write_through(store, batch, &tallies);
                    board.merge(&tallies, batch.len());
                    let mut s = board.shared.lock().expect("cluster board lock");
                    s.stats.local_shards += batch.len() as u64;
                }
                Err(e) => {
                    let mut s = board.shared.lock().expect("cluster board lock");
                    s.error = Some(e.to_string());
                    s.finished = true;
                    board.cvar.notify_all();
                    break;
                }
            }
        }
        // Wake quarantine probers and idle workers so the scope joins.
        let mut s = board.shared.lock().expect("cluster board lock");
        s.finished = true;
        board.cvar.notify_all();
    });

    let shared = board.shared.into_inner().expect("cluster board lock");
    if let Some(error) = shared.error {
        return Err(error);
    }
    let tally = shared
        .merged
        .expect("a valid plan has at least one shard, so at least one tally merged");
    Ok(ClusterRun {
        tally,
        stats: shared.stats,
    })
}

/// Stores a computed batch's tallies in the local cache under the run's
/// experiment fingerprint, so a rerun on this coordinator is all cache
/// hits.
fn write_through(
    store: Option<(&ShardCache, Fingerprint)>,
    batch: ShardRange,
    tallies: &[NoisyTally],
) {
    if let Some((cache, fingerprint)) = store {
        for (offset, tally) in tallies.iter().enumerate() {
            cache.store_value(&fingerprint, (batch.first + offset) as u64, tally);
        }
    }
}

/// One worker's service loop: pull a batch, attempt it (optionally
/// under an injected fault), merge or requeue, quarantine and probe
/// after repeated failures. `store` is the local cache with the run's
/// experiment fingerprint, which admitted tallies are written under.
fn worker_loop(
    board: &Board,
    job: &ClusterJob<'_>,
    options: &ClusterOptions,
    store: Option<(&ShardCache, Fingerprint)>,
    index: usize,
    addr: &str,
    mut chaos: Option<ChaosSchedule>,
) {
    let mut consecutive: u32 = 0;
    loop {
        let batch = {
            let mut s = board.shared.lock().expect("cluster board lock");
            loop {
                if s.finished {
                    return;
                }
                if let Some(batch) = s.queue.pop_front() {
                    s.outstanding += 1;
                    break batch;
                }
                // Empty queue but outstanding batches may fail and
                // requeue; wait for board changes.
                s = board
                    .cvar
                    .wait_timeout(s, Duration::from_millis(50))
                    .expect("cluster board lock")
                    .0;
            }
        };
        let fault = chaos
            .as_mut()
            .map_or(Fault::None, ChaosSchedule::next_fault);
        match attempt_batch(job, options, addr, batch, fault) {
            Ok(tallies) => {
                // Admitted exactly like cache hits.
                write_through(store, batch, &tallies);
                board.merge(&tallies, batch.len());
                let mut s = board.shared.lock().expect("cluster board lock");
                s.stats.workers[index].shards += batch.len() as u64;
                consecutive = 0;
            }
            Err(message) => {
                board.requeue(batch);
                consecutive += 1;
                {
                    let mut s = board.shared.lock().expect("cluster board lock");
                    s.stats.retries += 1;
                    s.stats.workers[index].retries += 1;
                }
                eprintln!(
                    "nanobound cluster: worker {addr}: attempt failed ({message}), \
                     requeued shards {}..{}",
                    batch.first, batch.last
                );
                if consecutive >= options.quarantine_after.max(1) {
                    quarantine(board, options, index, addr, &mut chaos);
                    consecutive = 0;
                } else {
                    let exp = options
                        .backoff
                        .saturating_mul(1_u32 << (consecutive - 1).min(16));
                    board.sleep(exp.min(MAX_BACKOFF));
                }
            }
        }
    }
}

/// Ejects the worker and probes it with `ping` under doubling backoff
/// until it answers (re-admission) or the run finishes.
fn quarantine(
    board: &Board,
    options: &ClusterOptions,
    index: usize,
    addr: &str,
    chaos: &mut Option<ChaosSchedule>,
) {
    {
        let mut s = board.shared.lock().expect("cluster board lock");
        s.healthy -= 1;
        s.stats.ejections += 1;
        s.stats.workers[index].ejections += 1;
        board.cvar.notify_all();
    }
    eprintln!(
        "nanobound cluster: worker {addr}: ejected after {} consecutive failures, probing",
        options.quarantine_after.max(1)
    );
    let mut probe = options.backoff.max(Duration::from_millis(10));
    loop {
        board.sleep(probe);
        if board.shared.lock().expect("cluster board lock").finished {
            return;
        }
        let fault = chaos
            .as_mut()
            .map_or(Fault::None, ChaosSchedule::next_fault);
        if ping(options, addr, fault).is_ok() {
            let mut s = board.shared.lock().expect("cluster board lock");
            s.healthy += 1;
            board.cvar.notify_all();
            drop(s);
            eprintln!("nanobound cluster: worker {addr}: probe answered, re-admitted");
            return;
        }
        probe = probe.saturating_mul(2).min(MAX_BACKOFF);
    }
}

/// One full request/response roundtrip on a fresh connection, under
/// `fault`. A fresh connection per attempt keeps failure detection
/// crisp: a killed worker is a refused connect, not a hung socket.
fn roundtrip(
    options: &ClusterOptions,
    addr: &str,
    fault: Fault,
    id: &str,
    line: &str,
) -> Result<Vec<u8>, String> {
    if fault == Fault::Refuse {
        return Err("chaos: connection refused".to_owned());
    }
    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no addresses"))?;
    let stream = TcpStream::connect_timeout(&sockaddr, options.connect_timeout)
        .map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(options.io_timeout))
        .and_then(|()| stream.set_write_timeout(Some(options.io_timeout)))
        .map_err(|e| format!("socket deadline: {e}"))?;
    let mut writer = &stream;
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(FaultReader {
        inner: &stream,
        fault,
        pos: 0,
    });
    let (got, ok, payload) = read_response(&mut reader)
        .map_err(|e| format!("receive: {e}"))?
        .ok_or_else(|| "receive: connection closed before a response".to_owned())?;
    if got != id {
        return Err(format!("receive: response for `{got}`, expected `{id}`"));
    }
    if !ok {
        return Err(format!(
            "worker error: {}",
            String::from_utf8_lossy(&payload).trim_end()
        ));
    }
    Ok(payload)
}

/// Attempts one shard batch against a worker and vets the reply.
fn attempt_batch(
    job: &ClusterJob<'_>,
    options: &ClusterOptions,
    addr: &str,
    batch: ShardRange,
    fault: Fault,
) -> Result<Vec<NoisyTally>, String> {
    let id = format!("b{}", batch.first);
    let mut args = vec!["--netlist".to_owned(), job.netlist_text.to_owned()];
    if job.blif {
        args.push("--blif".to_owned());
    }
    args.extend([
        "--eps".to_owned(),
        // f64 Display is shortest-roundtrip, so the worker parses back
        // the identical bits.
        format!("{}", job.config.epsilon),
        "--fault-seed".to_owned(),
        job.config.seed.to_string(),
        "--pattern-seed".to_owned(),
        job.pattern_seed.to_string(),
        "--patterns".to_owned(),
        job.plan.patterns().to_string(),
        "--chunk".to_owned(),
        job.plan.chunk().to_string(),
        "--first".to_owned(),
        batch.first.to_string(),
        "--last".to_owned(),
        batch.last.to_string(),
    ]);
    let line = format!("{}\n", format_request(&id, "mc_shards", &args));
    let payload = roundtrip(options, addr, fault, &id, &line)?;
    let frames = decode_tally_frames(&payload)?;
    // Cross-check against the live request exactly like cache hits:
    // right count, right indices in order, right shape per shard.
    if frames.len() != batch.len() {
        return Err(format!(
            "{} frames for a {}-shard batch",
            frames.len(),
            batch.len()
        ));
    }
    let mut tallies = Vec::with_capacity(frames.len());
    for (offset, (index, tally)) in frames.into_iter().enumerate() {
        let expected = (batch.first + offset) as u64;
        if index != expected {
            return Err(format!(
                "frame {offset} claims shard {index}, expected {expected}"
            ));
        }
        if !tally_admissible(
            job.netlist,
            &tally,
            job.plan.shard_patterns(batch.first + offset),
        ) {
            return Err(format!("shard {index}: tally inadmissible"));
        }
        tallies.push(tally);
    }
    Ok(tallies)
}

/// A quarantine probe: `ping`, expecting `pong`.
fn ping(options: &ClusterOptions, addr: &str, fault: Fault) -> Result<(), String> {
    let line = format!("{}\n", format_request("probe", "ping", &[]));
    let payload = roundtrip(options, addr, fault, "probe", &line)?;
    if payload == b"pong\n" {
        Ok(())
    } else {
        Err("probe answered, but not with pong".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobound_io::bench;
    use nanobound_sim::monte_carlo_tally;

    const NETLIST: &str = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";

    fn tallies() -> Vec<NoisyTally> {
        let design = bench::parse(NETLIST).unwrap();
        let config = NoisyConfig::new(0.05, 11).unwrap();
        (0..3)
            .map(|i| monte_carlo_tally(&design.netlist, &config, 64, 100 + i).unwrap())
            .collect()
    }

    #[test]
    fn tally_frames_roundtrip() {
        let tallies = tallies();
        let payload = encode_tally_frames(7, &tallies);
        let frames = decode_tally_frames(&payload).unwrap();
        assert_eq!(frames.len(), 3);
        for (offset, (index, tally)) in frames.iter().enumerate() {
            assert_eq!(*index, 7 + offset as u64);
            assert_eq!(tally, &tallies[offset]);
        }
        // Empty runs frame cleanly too.
        let empty = encode_tally_frames(0, &[] as &[NoisyTally]);
        assert!(decode_tally_frames(&empty).unwrap().is_empty());
    }

    #[test]
    fn malformed_tally_payloads_are_rejected_with_descriptions() {
        let good = encode_tally_frames(2, &tallies());
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (Vec::new(), "truncated"),
            (good[..7].to_vec(), "truncated"),
            // A 20-byte prefix still claims 3 frames: the count bound
            // fires before any frame is touched.
            (good[..20].to_vec(), "frame count"),
            (good[..good.len() - 1].to_vec(), "truncated"),
            // Claimed count far beyond the payload: rejected before
            // any allocation.
            (u64::MAX.to_le_bytes().to_vec(), "frame count"),
            // Oversized frame length cap.
            (
                {
                    let mut bad = good.clone();
                    bad[16..24].copy_from_slice(&(MAX_TALLY_BYTES + 1).to_le_bytes());
                    bad
                },
                "exceeds the cap",
            ),
            // Trailing junk after the last frame.
            (
                {
                    let mut bad = good.clone();
                    bad.push(0);
                    bad
                },
                "trailing",
            ),
            // A frame whose length header short-changes its body: the
            // exact-consume codec refuses the truncated tally. (A bit
            // flip *inside* a count is undetectable here by design —
            // the wire rides TCP checksums; shape admission and index
            // cross-checks are the cluster's defence, the cache file
            // format has its own checksum.)
            (
                {
                    let mut bad = good;
                    let len = u64::from_le_bytes(bad[16..24].try_into().unwrap());
                    bad[16..24].copy_from_slice(&(len - 1).to_le_bytes());
                    bad.pop();
                    bad
                },
                "malformed tally",
            ),
        ];
        for (payload, needle) in cases {
            let err = decode_tally_frames(&payload).unwrap_err();
            assert!(err.contains(needle), "payload {payload:?}: {err}");
        }
    }

    #[test]
    fn chaos_schedules_are_deterministic_and_decorrelated() {
        let draws = |seed, worker| {
            let mut schedule = ChaosSchedule::new(seed, worker);
            (0..64).map(|_| schedule.next_fault()).collect::<Vec<_>>()
        };
        assert_eq!(draws(42, 0), draws(42, 0), "same stream replays exactly");
        assert_ne!(draws(42, 0), draws(42, 1), "workers draw different streams");
        assert_ne!(draws(42, 0), draws(43, 0), "seeds draw different streams");
        // The mix includes every fault kind and plenty of healthy
        // attempts — progress is always possible under chaos.
        let all: Vec<Fault> = (0..8).flat_map(|w| draws(9, w)).collect();
        assert!(all.contains(&Fault::None));
        assert!(all.contains(&Fault::Refuse));
        assert!(all.contains(&Fault::Stall));
        assert!(all.iter().any(|f| matches!(f, Fault::GarbleHeader(_))));
        assert!(all.iter().any(|f| matches!(f, Fault::Truncate(_))));
    }

    #[test]
    fn chaos_ci_seed_faults_every_first_draw() {
        // The ci gate greps for at least one counted retry; that is
        // deterministic because under the pinned seed each of the three
        // gate workers draws a fault on its very first attempt.
        for worker in 0..3 {
            let fault = ChaosSchedule::new(CHAOS_CI_SEED, worker).next_fault();
            assert_ne!(fault, Fault::None, "worker {worker} first draw");
        }
    }

    #[test]
    fn fault_reader_corrupts_exactly_as_advertised() {
        let bytes = b"0123456789abcdef";
        let read_all = |fault| {
            let mut out = Vec::new();
            let mut reader = FaultReader {
                inner: &bytes[..],
                fault,
                pos: 0,
            };
            reader.read_to_end(&mut out).map(|_| out)
        };
        assert_eq!(read_all(Fault::None).unwrap(), bytes);
        assert_eq!(read_all(Fault::Truncate(4)).unwrap(), b"0123");
        assert_eq!(read_all(Fault::Truncate(64)).unwrap(), bytes);
        let garbled = read_all(Fault::GarbleHeader(2)).unwrap();
        assert_eq!(garbled[2], b'2' ^ 0x5A);
        assert_eq!(garbled[..2], bytes[..2]);
        assert_eq!(garbled[3..], bytes[3..]);
        let err = read_all(Fault::Stall).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    }

    #[test]
    fn garbling_never_turns_a_digit_into_a_digit() {
        // The safety property behind GarbleHeader: a corrupted header
        // can parse-fail or id-mismatch, but never silently alter a
        // byte count or an id digit into a different valid digit.
        for digit in b'0'..=b'9' {
            assert!(!(digit ^ 0x5A).is_ascii_digit(), "digit {}", digit as char);
        }
    }

    #[test]
    fn stats_line_format_is_pinned() {
        let stats = ClusterStats {
            total_shards: 8,
            cached_shards: 1,
            local_shards: 2,
            retries: 3,
            ejections: 1,
            workers: vec![
                WorkerStats {
                    addr: "127.0.0.1:4000".to_owned(),
                    shards: 4,
                    retries: 3,
                    ejections: 1,
                },
                WorkerStats {
                    addr: "127.0.0.1:4001".to_owned(),
                    shards: 1,
                    retries: 0,
                    ejections: 0,
                },
            ],
        };
        assert_eq!(
            stats_line(&stats),
            "cluster: 8 shards, 1 cached, 2 local, 3 retries, 1 ejections \
             | worker 127.0.0.1:4000: 4 shards, 3 retries, 1 ejections \
             | worker 127.0.0.1:4001: 1 shards, 0 retries, 0 ejections"
        );
        // The no-worker (serial baseline) line has no worker segments.
        let serial = ClusterStats {
            total_shards: 8,
            local_shards: 8,
            ..ClusterStats::default()
        };
        assert_eq!(
            stats_line(&serial),
            "cluster: 8 shards, 0 cached, 8 local, 0 retries, 0 ejections"
        );
    }

    #[test]
    fn zero_worker_cluster_matches_the_direct_tally_merge() {
        let design = bench::parse(NETLIST).unwrap();
        let config = NoisyConfig::new(0.05, 11).unwrap();
        let plan = ShardPlan::new(512, 128).unwrap();
        let pool = ThreadPool::serial();
        let job = ClusterJob {
            netlist: &design.netlist,
            netlist_text: NETLIST,
            blif: false,
            config,
            pattern_seed: 3,
            plan,
            batch: 2,
        };
        let run = run_cluster(&pool, None, None, &job, &ClusterOptions::default()).unwrap();
        assert_eq!(run.stats.local_shards, 4);
        assert_eq!(run.stats.total_shards, 4);
        assert_eq!(run.stats.retries, 0);
        let direct = monte_carlo_shard_tallies(
            &pool,
            &design.netlist,
            &config,
            &plan,
            3,
            ShardRange { first: 0, last: 4 },
            None,
            None,
        )
        .unwrap();
        let mut merged = direct[0].clone();
        for tally in &direct[1..] {
            merged.merge(tally);
        }
        assert_eq!(run.tally, merged);
    }

    #[test]
    fn zero_worker_run_counts_each_cache_miss_once() {
        let dir = std::env::temp_dir().join("nanobound_cluster_local_cache_traffic");
        let _ = std::fs::remove_dir_all(&dir);
        let design = bench::parse(NETLIST).unwrap();
        let job = ClusterJob {
            netlist: &design.netlist,
            netlist_text: NETLIST,
            blif: false,
            config: NoisyConfig::new(0.05, 11).unwrap(),
            pattern_seed: 3,
            plan: ShardPlan::new(512, 128).unwrap(),
            batch: 2,
        };
        // One cache handle per run, as one process per CLI invocation.
        let traffic = || {
            let cache = ShardCache::open(&dir).unwrap();
            let pool = ThreadPool::serial();
            let run = run_cluster(&pool, Some(&cache), None, &job, &ClusterOptions::default());
            let s = cache.stats();
            (run.unwrap().tally, (s.hits, s.misses, s.writes))
        };
        let (cold, cold_traffic) = traffic();
        assert_eq!(cold_traffic, (0, 4, 4), "cold: (hits, misses, writes)");
        let (warm, warm_traffic) = traffic();
        assert_eq!(warm_traffic, (4, 0, 0), "warm: (hits, misses, writes)");
        assert_eq!(warm, cold);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
