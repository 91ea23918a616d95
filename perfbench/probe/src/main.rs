//! Per-layer probe of the nanobound benchmark.
//!
//! `perfbench/run.py --trace 1` writes the workload inputs (and the
//! reference outputs of the release binary) into a work directory and
//! runs this probe from the checkout root:
//!
//! ```text
//! perfbench-probe --work DIR --jobs J --trace-out FILE \
//!     --large-patterns P --cluster-patterns P --cluster-batch B --workers W
//! ```
//!
//! The workload sizes come from `run.py` on the command line, so each is
//! defined once; the chunk and the profile settings are the binary's own
//! defaults (`DEFAULT_CHUNK`, `ProfileConfig::default()`).
//!
//! The probe replays every workload in-process — `paper`,
//! `large_design`, `serve_mix`, `cluster_mc` — through the same public
//! crate functions the binary calls, with a span around each call. A
//! `ledger` section then times the kernels no replay reaches on its own
//! (masks, toggles, the ε = 0 executor, cache I/O, the pool). Every
//! replay output is checked against the binary's reference output.
//!
//! Spans stay in memory and are written at exit as Chrome trace-event
//! JSON. A layer's metric is its self time (span time minus child
//! spans), normalised per gate, gate-word, byte or call. The last
//! stdout line is one JSON object: checks attempted and failed, the
//! metrics, each replay's wall time and any metric that could not be
//! measured, with the reason.

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use nanobound_analyze::{lint_netlist, LintOptions};
use nanobound_cache::{FingerprintBuilder, ProfileLayer, ProfileStore, ShardCache};
use nanobound_core::{BoundReport, CircuitProfile};
use nanobound_experiments::profiles::{
    profile_suite_cached_programs, profile_suite_with, ProfileConfig, ProfiledBenchmark,
};
use nanobound_experiments::{
    fig2, fig3, fig4, fig5, fig6, fig7, fig8, generate_figure_cached, headline, validation,
    ExperimentError, FigureId, FigureOutput,
};
use nanobound_io::bench;
use nanobound_logic::{output_cone_hashes, transform, CircuitStats, Netlist};
use nanobound_runner::{
    monte_carlo_fingerprint, monte_carlo_shard_tallies, ShardPlan, ShardRange, ThreadPool,
    DEFAULT_CHUNK as CHUNK,
};
use nanobound_service::args::parse_flags;
use nanobound_service::cluster::{
    decode_tally_frames, encode_tally_frames, run_cluster, ClusterJob, ClusterOptions,
};
use nanobound_service::proto::{format_request, parse_request, read_response};
use nanobound_service::requests::{BoundRequest, LintRequest, McShardsRequest, ProfileRequest};
use nanobound_service::Engine;
use nanobound_sim::activity::toggle_count;
use nanobound_sim::{
    gate_state, netlist_fingerprint, sensitivity, MaskPlan, NoisyConfig, NoisyTally, PatternSet,
    ProgramCache, ShardSpec, SimProgram,
};

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

struct Span {
    name: String,
    start: u64,
    end: u64,
    parent: Option<usize>,
    root: usize,
    /// The normaliser of this call: gates, gate-words, bytes or calls.
    work: f64,
}

struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &str, work: f64) -> usize {
        let id = self.spans.len();
        let parent = self.stack.last().copied();
        let root = parent.map_or(id, |p| self.spans[p].root);
        let start = self.now();
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end: start,
            parent,
            root,
            work,
        });
        self.stack.push(id);
        id
    }

    fn end(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close in order");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span; the result is kept opaque to the
    /// optimiser so no timed call is elided.
    fn time<T>(&mut self, name: &str, work: f64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, work);
        let value = std::hint::black_box(f());
        self.end(id);
        value
    }

    fn duration(&self, id: usize) -> f64 {
        (self.spans[id].end - self.spans[id].start) as f64
    }

    /// Span time minus the time of its direct children, per span.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = (0..self.spans.len()).map(|i| self.duration(i)).collect();
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                own[p] -= self.duration(i);
            }
        }
        own
    }

    fn root_named(&self, name: &str) -> Option<usize> {
        self.spans
            .iter()
            .position(|s| s.parent.is_none() && s.name == name)
    }

    /// The share of a root span's wall time its direct children cover.
    fn covered(&self, root: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == Some(root))
            .map(|(i, _)| self.duration(i))
            .sum();
        children / self.duration(root)
    }

    /// Writes every span as a Chrome trace-event "complete" event.
    fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{}{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"work\":{}}}}}",
                if i == 0 { "" } else { "," },
                json_string(&s.name),
                json_string(&self.spans[s.root].name),
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.work,
            );
        }
        out.push_str("]}\n");
        fs::write(path, out)
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Checks and metrics
// ---------------------------------------------------------------------

#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench-probe: check failed: {what}");
        }
        ok
    }
}

fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

/// Self times of a finished trace, looked up by span name.
struct Ledger<'t> {
    tracer: &'t Tracer,
    own: Vec<f64>,
}

impl Ledger<'_> {
    /// Median self time in ns per unit of work of the spans named `span`
    /// under the root span named `root`.
    fn median_self(&self, root: &str, span: &str) -> Option<f64> {
        median(
            self.tracer
                .spans
                .iter()
                .enumerate()
                .filter(|(_, s)| s.name == span && self.tracer.spans[s.root].name == root)
                .map(|(i, s)| self.own[i] / s.work)
                .collect(),
        )
    }
}

const NS: f64 = 1.0;
const US: f64 = 1e-3;
const MS: f64 = 1e-6;
const LEDGER: &str = "ledger";
const LARGE: &str = "replay.large_design";
const SERVE: &str = "replay.serve_mix";
const CLUSTER: &str = "replay.cluster_mc";

/// Each per-layer metric: the root its spans sit under, the span name, and
/// the scale from ns of self time per unit of work to the metric's unit.
#[rustfmt::skip]
const SPAN_METRICS: [(&str, &str, &str, f64); 43] = [
    ("io.parse_ns_per_gate",               LARGE,   "io::bench::parse",                             NS),
    ("logic.prepare_ns_per_gate",          LARGE,   "logic::transform::prepare",                    NS),
    ("logic.cone_hash_ms",                 LEDGER,  "logic::output_cone_hashes",                    MS),
    ("sim.fingerprint_ms.large",           LEDGER,  "sim::netlist_fingerprint(large)",              MS),
    ("sim.fingerprint_us.serve",           LEDGER,  "sim::netlist_fingerprint(serve)",              US),
    ("sim.program_cache_miss_ms",          LEDGER,  "sim::ProgramCache::get_or_compile(miss)",      MS),
    ("sim.program_cache_hit_us",           LEDGER,  "sim::ProgramCache::get_or_compile(hit)",       US),
    ("sim.compile_ns_per_gate",            LEDGER,  "sim::SimProgram::compile",                     NS),
    ("sim.clean_ns_per_gate_word",         LEDGER,  "sim::SimProgram::run_clean",                   NS),
    ("sim.activity_ns_per_gate_word",      LARGE,   "sim::SimProgram::estimate_activity",           NS),
    ("sim.sensitivity_ms",                 LARGE,   "sim::sensitivity::estimate_with",              MS),
    ("sim.mc_eps0_ns_per_gate_word",       LEDGER,  "sim::SimProgram::run_tally_batch(eps0)",       NS),
    ("sim.mc_ns_per_gate_word.large",      LEDGER,  "sim::SimProgram::run_tally_batch(large)",      NS),
    ("sim.mc_ns_per_gate_word.small",      LEDGER,  "sim::SimProgram::run_tally_batch(small)",      NS),
    ("sim.mask_ns_per_gate_word.e2",       LEDGER,  "sim::MaskPlan::xor_masks(e2)",                 NS),
    ("sim.mask_ns_per_gate_word.e3",       LEDGER,  "sim::MaskPlan::xor_masks(e3)",                 NS),
    ("sim.toggle_ns_per_word",             LEDGER,  "sim::activity::toggle_count",                  NS),
    ("analyze.lint_ns_per_gate",           LEDGER,  "analyze::lint_netlist",                        NS),
    ("cache.store_us",                     LEDGER,  "cache::ShardCache::store_value",               US),
    ("cache.miss_us",                      LEDGER,  "cache::ShardCache::load_value(miss)",          US),
    ("cache.hit_us",                       LEDGER,  "cache::ShardCache::load_value(hit)",           US),
    ("cache.profile_hit_us",               LEDGER,  "cache::ProfileStore::load",                    US),
    ("runner.task_overhead_us",            LEDGER,  "runner::ThreadPool::map_indexed",              US),
    ("core.bound_report_us",               LEDGER,  "core::BoundReport::evaluate",                  US),
    ("experiments.fig2_ms",                LEDGER,  "experiments.fig2",                             MS),
    ("experiments.fig3_ms",                LEDGER,  "experiments.fig3",                             MS),
    ("experiments.fig4_ms",                LEDGER,  "experiments.fig4",                             MS),
    ("experiments.fig5_ms",                LEDGER,  "experiments.fig5",                             MS),
    ("experiments.fig6_ms",                LEDGER,  "experiments.fig6",                             MS),
    ("experiments.suite_profile_ms",       LEDGER,  "experiments.suite_profile",                    MS),
    ("experiments.fig7_ms",                LEDGER,  "experiments.fig7",                             MS),
    ("experiments.fig8_ms",                LEDGER,  "experiments.fig8",                             MS),
    ("experiments.headline_ms",            LEDGER,  "experiments.headline",                         MS),
    ("experiments.v1_ms",                  LEDGER,  "experiments.v1",                               MS),
    ("experiments.v2_ms",                  LEDGER,  "experiments.v2",                               MS),
    ("report.csv_us",                      LEDGER,  "report::Table::to_csv",                        US),
    ("service.request_parse_ns_per_byte",  CLUSTER, "service::proto::parse_request",                NS),
    ("service.request_format_ns_per_byte", CLUSTER, "service::proto::format_request",               NS),
    ("service.tally_frames_us",            LEDGER,  "service::cluster::encode+decode_tally_frames", US),
    ("service.engine_profile_cold_ms",     SERVE,   "service::Engine::profile(cold)",               MS),
    ("service.engine_profile_warm_us",     SERVE,   "service::Engine::profile(warm)",               US),
    ("service.engine_mc_shards_ms",        SERVE,   "service::Engine::mc_shards",                   MS),
    ("service.engine_bound_us",            SERVE,   "service::Engine::bound",                       US),
];

/// Throughputs: patterns per second from the ledger spans' ns per pattern.
const RATE_METRICS: [(&str, &str); 3] = [
    ("runner.mc_pps.j1", "runner::monte_carlo_shard_tallies(j1)"),
    ("runner.mc_pps.jn", "runner::monte_carlo_shard_tallies(jn)"),
    (
        "cluster.local_pps",
        "service::cluster::run_cluster(zero workers)",
    ),
];

// ---------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------

struct Args {
    work: PathBuf,
    jobs: usize,
    trace_out: PathBuf,
    /// Monte-Carlo patterns per `large_design` phase (b)/(c) run.
    large_patterns: usize,
    /// The `cluster_mc` run: its patterns, shards per batch and workers.
    cluster_patterns: usize,
    cluster_batch: usize,
    workers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut values = BTreeMap::new();
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(flag, value);
    }
    let mut take = |flag: &str| values.remove(flag).ok_or(format!("{flag} is required"));
    let mut number = |flag: &str| -> Result<usize, String> {
        let value = take(flag)?;
        value.parse().map_err(|_| format!("{flag}: `{value}`"))
    };
    let args = Args {
        jobs: number("--jobs")?,
        large_patterns: number("--large-patterns")?,
        cluster_patterns: number("--cluster-patterns")?,
        cluster_batch: number("--cluster-batch")?,
        workers: number("--workers")?,
        work: PathBuf::from(take("--work")?),
        trace_out: PathBuf::from(take("--trace-out")?),
    };
    match values.keys().next() {
        Some(other) => Err(format!("unknown flag {other}")),
        None => Ok(args),
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn parse(text: &str) -> Netlist {
    bench::parse(text)
        .expect("generated netlists parse")
        .netlist
}

/// A fresh directory under the work dir.
fn fresh(work: &Path, name: &str) -> PathBuf {
    let dir = work.join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create work dir");
    dir
}

/// The text the `cluster` command prints for a merged tally.
fn mc_text(tally: &NoisyTally, plan: &ShardPlan, eps: f64) -> String {
    let outcome = tally.outcome();
    let mut out = format!(
        "monte-carlo: {} patterns, {} shards, eps = {eps}\ncircuit error rate: {}\n",
        plan.patterns(),
        plan.shard_count(),
        outcome.circuit_error_rate
    );
    for (i, rate) in outcome.per_output_error_rate.iter().enumerate() {
        let _ = writeln!(out, "output {i} error rate: {rate}");
    }
    let _ = writeln!(
        out,
        "noisy avg gate activity: {}\nclean avg gate activity: {}",
        outcome.noisy_avg_gate_activity, outcome.clean_avg_gate_activity
    );
    out
}

// ---------------------------------------------------------------------
// Replays
// ---------------------------------------------------------------------

/// `figures` then `validate` into one cache directory, as two fresh
/// engines would; returns every table written.
fn paper_pass(
    tr: &mut Tracer,
    checks: &mut Checks,
    pool: &ThreadPool,
    cache_dir: &Path,
    out: &Path,
    warm: bool,
) -> Vec<FigureOutput> {
    let label = if warm { "warm" } else { "cold" };
    let cache = tr.time("cache::ShardCache::open", 1.0, || {
        ShardCache::open(cache_dir).expect("open cache")
    });
    let store = tr.time("cache::ProfileStore::open", 1.0, || {
        ProfileStore::open(cache_dir).expect("open profile store")
    });
    let programs = ProgramCache::new();
    let settings = ProfileConfig::default();
    let suite = tr.time(&format!("experiments::profile_suite({label})"), 1.0, || {
        profile_suite_cached_programs(pool, &settings, Some(&store), Some(&programs))
            .expect("suite profiles")
    });
    let mut outputs = Vec::new();
    for id in FigureId::ALL {
        let profiles: &[ProfiledBenchmark] = if id.needs_profiles() { &suite } else { &[] };
        let figure = tr.time(
            &format!("experiments::generate_figure_cached({label})"),
            1.0,
            || generate_figure_cached(id, pool, Some(&cache), profiles).expect("figure"),
        );
        outputs.push(figure);
    }
    let programs = ProgramCache::new();
    let cache = tr.time("cache::ShardCache::open", 1.0, || {
        ShardCache::open(cache_dir).expect("open cache")
    });
    let checked = tr.time(
        &format!("experiments::validation::generate({label})"),
        1.0,
        || validation::generate_cached_programs(pool, Some(&cache), Some(&programs)),
    );
    outputs.extend(checked.expect("validation"));
    if warm {
        checks.check(
            cache.stats().misses == 0,
            "warm paper replay missed the cache",
        );
    }
    tr.time("report::Table::to_csv+write", 1.0, || {
        for figure in &outputs {
            for table in &figure.tables {
                let path = out.join(format!("{}.csv", figure.id));
                fs::write(path, table.to_csv()).expect("write csv");
            }
        }
    });
    for figure in &outputs {
        let golden = if figure.id.starts_with('v') {
            format!("tests/golden/validation/{}.csv", figure.id)
        } else {
            format!("tests/golden/{}.csv", figure.id)
        };
        let got = fs::read(out.join(format!("{}.csv", figure.id))).ok();
        checks.check(
            got == fs::read(&golden).ok(),
            &format!("paper replay {} differs from {golden}", figure.id),
        );
    }
    outputs
}

fn replay_paper(tr: &mut Tracer, checks: &mut Checks, work: &Path, pool: &ThreadPool) {
    let cache_dir = fresh(work, "probe-paper-cache");
    let root = tr.begin("replay.paper", 1.0);
    for warm in [false, true] {
        let out = fresh(
            work,
            if warm {
                "probe-paper-warm"
            } else {
                "probe-paper-cold"
            },
        );
        paper_pass(tr, checks, pool, &cache_dir, &out, warm);
    }
    tr.end(root);
}

/// What the large replay leaves for the ledger.
struct Large {
    netlist: Netlist,
    mapped: Netlist,
    profile: CircuitProfile,
    tally: NoisyTally,
}

fn parse_file(tr: &mut Tracer, path: &Path) -> (String, Netlist) {
    let text = tr.time("io::read_to_string", 1.0, || read(path));
    let id = tr.begin("io::bench::parse", 1.0);
    let netlist = parse(&text);
    tr.spans[id].work = netlist.gate_count() as f64;
    tr.end(id);
    (text, netlist)
}

fn replay_large(tr: &mut Tracer, checks: &mut Checks, args: &Args, pool: &ThreadPool) -> Large {
    let work = &args.work;
    let path = work.join("large.bench");
    let settings = ProfileConfig::default();
    let root = tr.begin("replay.large_design", 1.0);

    // (a) profile FILE --eps 0.001 --eps 0.01 --eps 0.1, as `Engine::profile`
    // runs it: design registry key over the text, parse, netlist clone,
    // profile registry key over the structure, then the measurement.
    let (text, design) = parse_file(tr, &path);
    tr.time(
        "cache::FingerprintBuilder::push_str",
        text.len() as f64,
        || {
            let mut builder = FingerprintBuilder::new("service-design");
            builder.push_str(&text);
            builder.finish()
        },
    );
    let netlist = tr.time("logic::Netlist::clone", 1.0, || design.clone());
    let gates = netlist.gate_count() as f64;
    tr.time("sim::netlist_fingerprint", 1.0, || {
        let mut builder = FingerprintBuilder::new("service-profile");
        netlist_fingerprint(&mut builder, &netlist);
        builder.finish()
    });
    let mapped = tr.time("logic::transform::prepare", gates, || {
        transform::prepare(&netlist, settings.max_fanin).expect("prepare")
    });
    let stats = tr.time("logic::CircuitStats::of", 1.0, || CircuitStats::of(&mapped));
    let programs = ProgramCache::new();
    let program = tr.time("sim::ProgramCache::get_or_compile", 1.0, || {
        programs.get_or_compile(&mapped)
    });
    let mut scratch = program.scratch();
    let words = settings.patterns.div_ceil(64) as f64;
    let activity = tr.time(
        "sim::SimProgram::estimate_activity",
        program.gate_count() as f64 * words,
        || {
            program
                .estimate_activity(&mut scratch, settings.patterns, settings.seed)
                .expect("activity")
                .avg_gate_activity
        },
    );
    let estimate = tr.time("sim::sensitivity::estimate_with", 1.0, || {
        sensitivity::estimate_with(
            &program,
            &mut scratch,
            settings.sensitivity_samples,
            settings.seed,
        )
        .expect("sensitivity")
    });
    let profile = CircuitProfile {
        name: netlist.name().to_owned(),
        inputs: stats.num_inputs,
        outputs: stats.num_outputs,
        size: stats.num_gates,
        depth: stats.depth,
        sensitivity: f64::from(estimate.value()),
        activity: activity.clamp(1e-6, 1.0 - 1e-6),
        fanin: (stats.max_fanin.max(2)) as f64,
        leak_share: settings.leak_share,
    };
    for eps in [0.001, 0.01, 0.1] {
        tr.time("core::BoundReport::evaluate", 1.0, || {
            BoundReport::evaluate(&profile, eps, 0.01).expect("bounds")
        });
    }
    let reference = read(&work.join("large-ref-a.out"));
    checks.check(
        reference.lines().next() == Some(format!("profile: {profile}").as_str()),
        "large_design profile replay differs from the binary",
    );

    // (b), (c): cluster FILE --eps E --patterns P, no workers.
    let mut tally = None;
    for (eps, phase) in [(0.01, "b"), (0.001, "c")] {
        let (text, netlist) = parse_file(tr, &path);
        let config = NoisyConfig::new(eps, 1).expect("epsilon");
        let plan = ShardPlan::new(args.large_patterns, CHUNK).expect("plan");
        let job = ClusterJob {
            netlist: &netlist,
            netlist_text: &text,
            blif: false,
            config,
            pattern_seed: 2,
            plan,
            batch: 1,
        };
        let programs = ProgramCache::new();
        let run = tr.time(
            "service::cluster::run_cluster",
            args.large_patterns as f64,
            || {
                run_cluster(
                    pool,
                    None,
                    Some(&programs),
                    &job,
                    &ClusterOptions::default(),
                )
                .expect("local run")
            },
        );
        let reference = read(&work.join(format!("large-ref-{phase}.out")));
        checks.check(
            mc_text(&run.tally, &plan, eps) == reference,
            &format!("large_design phase ({phase}) replay differs from the binary"),
        );
        tally.get_or_insert(run.tally);
    }
    tr.end(root);
    Large {
        netlist,
        mapped,
        profile,
        tally: tally.expect("a Monte-Carlo phase ran"),
    }
}

/// What the serve replay leaves for the ledger.
struct Serve {
    netlists: Vec<Netlist>,
}

fn replay_serve(tr: &mut Tracer, checks: &mut Checks, work: &Path) -> Serve {
    let lines: Vec<String> = read(&work.join("requests.jsonl"))
        .lines()
        .map(str::to_owned)
        .collect();
    let frames_file = fs::File::open(work.join("serve-reference.frames")).expect("reference");
    let mut frames = BufReader::new(frames_file);
    let cache_dir = fresh(work, "probe-serve-cache");

    let root = tr.begin("replay.serve_mix", 1.0);
    let engine = Engine::new(
        ThreadPool::new(1).expect("pool"),
        Some(ShardCache::open(&cache_dir).expect("cache")),
    );
    let mut seen = HashSet::new();
    for line in &lines {
        let request = tr.time("service::proto::parse_request", line.len() as f64, || {
            parse_request(line).expect("well-formed request")
        });
        let (ok, payload) = match request.workload.as_str() {
            "profile" => {
                let (positional, flags) =
                    parse_flags(&request.args, &ProfileRequest::FLAGS).expect("flags");
                let req = ProfileRequest::from_parts(&positional, &flags).expect("request");
                let span = if seen.insert((req.path.clone(), req.patterns)) {
                    "service::Engine::profile(cold)"
                } else {
                    "service::Engine::profile(warm)"
                };
                let text = tr
                    .time(span, 1.0, || engine.profile(&req))
                    .expect("profile");
                (true, text.into_bytes())
            }
            "bound" => {
                let (positional, flags) =
                    parse_flags(&request.args, &BoundRequest::FLAGS).expect("flags");
                let req = BoundRequest::from_parts(&positional, &flags).expect("request");
                let text = tr.time("service::Engine::bound", 1.0, || engine.bound(&req));
                (true, text.expect("bound").into_bytes())
            }
            "lint" => {
                let (positional, flags) =
                    parse_flags(&request.args, &LintRequest::FLAGS).expect("flags");
                let req = LintRequest::from_parts(&positional, &flags).expect("request");
                let outcome = tr.time("service::Engine::lint", 1.0, || engine.lint(&req));
                let outcome = outcome.expect("lint");
                (!outcome.failed(), outcome.text.into_bytes())
            }
            "figure" => {
                let id = FigureId::parse(&request.args[0]).expect("figure name");
                let text = tr.time("service::Engine::figure_csv", 1.0, || engine.figure_csv(id));
                (true, text.expect("figure").into_bytes())
            }
            "mc_shards" => {
                let (positional, flags) =
                    parse_flags(&request.args, &McShardsRequest::FLAGS).expect("flags");
                let req = McShardsRequest::from_parts(&positional, &flags).expect("request");
                let payload = tr.time("service::Engine::mc_shards", 1.0, || {
                    engine.mc_shards(&req, engine.pool())
                });
                (true, payload.expect("mc_shards"))
            }
            other => panic!("unexpected workload {other}"),
        };
        let reference = read_response(&mut frames).expect("reference frame");
        checks.check(
            reference == Some((request.id.clone(), ok, payload)),
            &format!("serve replay frame {} differs from the binary", request.id),
        );
    }
    tr.end(root);

    let mut netlists = Vec::new();
    let mut paths: Vec<PathBuf> = fs::read_dir(work.join("family"))
        .expect("family dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    for path in paths {
        netlists.push(parse(&read(&path)));
    }
    Serve { netlists }
}

/// What the cluster replay leaves for the ledger.
struct Cluster {
    text: String,
    netlist: Netlist,
    tallies: Vec<NoisyTally>,
}

fn replay_cluster(tr: &mut Tracer, checks: &mut Checks, args: &Args) -> Cluster {
    let work = &args.work;
    let root = tr.begin("replay.cluster_mc", 1.0);
    let (text, netlist) = parse_file(tr, &work.join("cluster.bench"));
    let plan = ShardPlan::new(args.cluster_patterns, CHUNK).expect("plan");
    let config = NoisyConfig::new(0.01, 1).expect("epsilon");
    tr.time("runner::monte_carlo_fingerprint", 1.0, || {
        monte_carlo_fingerprint(&netlist, &config, args.cluster_patterns, 2, CHUNK)
    });
    let workers: Vec<Engine> = (0..args.workers)
        .map(|_| Engine::new(ThreadPool::new(1).expect("pool"), None))
        .collect();
    let mut merged: Option<NoisyTally> = None;
    let mut tallies = Vec::new();
    for (k, batch) in plan.batches(args.cluster_batch).into_iter().enumerate() {
        let request_args: Vec<String> = vec![
            "--netlist".to_owned(),
            text.clone(),
            "--eps".to_owned(),
            "0.01".to_owned(),
            "--fault-seed".to_owned(),
            "1".to_owned(),
            "--pattern-seed".to_owned(),
            "2".to_owned(),
            "--patterns".to_owned(),
            args.cluster_patterns.to_string(),
            "--chunk".to_owned(),
            CHUNK.to_string(),
            "--first".to_owned(),
            batch.first.to_string(),
            "--last".to_owned(),
            batch.last.to_string(),
        ];
        let id = format!("b{}", batch.first);
        let line = tr.time("service::proto::format_request", text.len() as f64, || {
            format_request(&id, "mc_shards", &request_args)
        });
        let request = tr.time("service::proto::parse_request", line.len() as f64, || {
            parse_request(&line).expect("well-formed request")
        });
        let (positional, flags) =
            parse_flags(&request.args, &McShardsRequest::FLAGS).expect("flags");
        let req = McShardsRequest::from_parts(&positional, &flags).expect("request");
        let engine = &workers[k % args.workers];
        let payload = tr.time("service::Engine::mc_shards", batch.len() as f64, || {
            engine.mc_shards(&req, engine.pool()).expect("mc_shards")
        });
        let frames = tr.time("service::cluster::decode_tally_frames", 1.0, || {
            decode_tally_frames(&payload).expect("frames")
        });
        tr.time("sim::NoisyTally::merge", 1.0, || {
            for (_, tally) in &frames {
                match &mut merged {
                    Some(m) => m.merge(tally),
                    slot => *slot = Some(tally.clone()),
                }
            }
        });
        tallies.extend(frames.into_iter().map(|(_, t)| t));
    }
    let merged = merged.expect("shards merged");
    let reference = read(&work.join("cluster-ref.out"));
    checks.check(
        mc_text(&merged, &plan, 0.01) == reference,
        "cluster replay differs from the zero-worker binary run",
    );
    tr.end(root);
    Cluster {
        text,
        netlist,
        tallies,
    }
}

// ---------------------------------------------------------------------
// Ledger: kernels and calls no replay isolates
// ---------------------------------------------------------------------

/// A paper figure generator run on a worker pool.
type Generator = fn(&ThreadPool) -> Result<FigureOutput, ExperimentError>;

fn batch_specs(width: usize, first_seed: u64) -> Vec<ShardSpec> {
    (0..width as u64)
        .map(|i| ShardSpec {
            fault_seed: first_seed + i,
            pattern_seed: first_seed + 100 + i,
            patterns: CHUNK,
        })
        .collect()
}

/// `run_tally_batch` over one `preferred_batch`-wide group of shards.
fn time_batch(tr: &mut Tracer, name: &str, program: &SimProgram, eps: f64, reps: usize) {
    let width = program.preferred_batch(CHUNK);
    let specs = batch_specs(width, 5);
    let mut scratch = program.scratch();
    let mut tallies = vec![program.empty_tally(); width];
    let work = (program.gate_count() * CHUNK.div_ceil(64) * width) as f64;
    for _ in 0..reps {
        for t in &mut tallies {
            *t = program.empty_tally();
        }
        tr.time(name, work, || {
            program
                .run_tally_batch(&mut scratch, eps, &specs, &mut tallies)
                .expect("batch");
        });
    }
}

#[allow(clippy::too_many_lines)]
fn ledger(
    tr: &mut Tracer,
    args: &Args,
    large: &Large,
    serve: &Serve,
    cluster: &Cluster,
) -> Vec<FigureOutput> {
    let (work, jobs) = (&args.work, args.jobs);
    let root = tr.begin("ledger", 1.0);
    let netlist = &large.netlist;
    let mapped = &large.mapped;

    for _ in 0..2 {
        tr.time("logic::output_cone_hashes", 1.0, || {
            output_cone_hashes(netlist)
        });
        tr.time("sim::netlist_fingerprint(large)", 1.0, || {
            let mut builder = FingerprintBuilder::new("perfbench");
            netlist_fingerprint(&mut builder, netlist);
            builder.finish()
        });
    }
    for n in &serve.netlists {
        tr.time("sim::netlist_fingerprint(serve)", 1.0, || {
            let mut builder = FingerprintBuilder::new("perfbench");
            netlist_fingerprint(&mut builder, n);
            builder.finish()
        });
    }

    let programs = ProgramCache::new();
    tr.time("sim::ProgramCache::get_or_compile(miss)", 1.0, || {
        programs.get_or_compile(mapped)
    });
    for _ in 0..5 {
        tr.time("sim::ProgramCache::get_or_compile(hit)", 1.0, || {
            programs.get_or_compile(mapped)
        });
    }
    let mut program = SimProgram::compile(mapped);
    for _ in 0..3 {
        program = tr.time(
            "sim::SimProgram::compile",
            mapped.gate_count() as f64,
            || SimProgram::compile(mapped),
        );
    }
    let gates = program.gate_count();

    let patterns = PatternSet::random(program.num_inputs(), CHUNK, 7);
    let mut scratch = program.scratch();
    for _ in 0..5 {
        tr.time(
            "sim::SimProgram::run_clean",
            (gates * CHUNK.div_ceil(64)) as f64,
            || program.run_clean(&mut scratch, &patterns).expect("clean"),
        );
    }
    time_batch(
        tr,
        "sim::SimProgram::run_tally_batch(eps0)",
        &program,
        0.0,
        3,
    );
    time_batch(
        tr,
        "sim::SimProgram::run_tally_batch(large)",
        &program,
        0.01,
        3,
    );
    let small = [
        nanobound_gen::alu::alu(4),
        nanobound_gen::parity::parity_tree(8, 2),
        nanobound_gen::priority::priority_encoder(8),
        nanobound_gen::parity::parity_tree(10, 2),
    ];
    for circuit in small {
        let small = SimProgram::compile(&circuit.expect("validation circuit"));
        time_batch(
            tr,
            "sim::SimProgram::run_tally_batch(small)",
            &small,
            0.01,
            50,
        );
    }

    let mut words = vec![0u64; CHUNK.div_ceil(64)];
    for (eps, name) in [(0.01, "e2"), (0.001, "e3")] {
        let plan = MaskPlan::new(eps);
        for _ in 0..3 {
            tr.time(
                &format!("sim::MaskPlan::xor_masks({name})"),
                (gates * words.len()) as f64,
                || {
                    for gate in 0..gates as u64 {
                        plan.xor_masks(gate_state(11, gate), 0, &mut words);
                    }
                },
            );
        }
    }
    let stream: Vec<u64> = (0..1u64 << 18)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17))
        .collect();
    for _ in 0..5 {
        tr.time("sim::activity::toggle_count", stream.len() as f64, || {
            toggle_count(std::hint::black_box(&stream), stream.len() * 64)
        });
    }

    let options = LintOptions::default();
    for n in &serve.netlists {
        tr.time("analyze::lint_netlist", n.gate_count() as f64, || {
            lint_netlist(n, &options)
        });
    }

    // Cache I/O on a real Monte-Carlo tally of the large design.
    let dir = fresh(work, "probe-ledger-cache");
    let cache = ShardCache::open(&dir).expect("cache");
    let mut key = FingerprintBuilder::new("perfbench");
    key.push_u64(1);
    let key = key.finish();
    for shard in 0..32 {
        tr.time("cache::ShardCache::store_value", 1.0, || {
            cache.store_value(&key, shard, &large.tally);
        });
    }
    for shard in 0..32 {
        let miss = tr.time("cache::ShardCache::load_value(miss)", 1.0, || {
            cache.load_value::<NoisyTally>(&key, 1000 + shard)
        });
        let hit = tr.time("cache::ShardCache::load_value(hit)", 1.0, || {
            cache.load_value::<NoisyTally>(&key, shard)
        });
        assert!(miss.is_none() && hit.as_ref() == Some(&large.tally));
    }
    let store = ProfileStore::open(dir.join("profiles")).expect("profile store");
    store.store(&key, &0.5f64);
    for _ in 0..32 {
        tr.time("cache::ProfileStore::load", 1.0, || {
            store.load::<f64>(ProfileLayer::Activity, &key)
        });
    }

    let pool_n = ThreadPool::new(jobs).expect("pool");
    let pool_1 = ThreadPool::serial();
    for _ in 0..5 {
        tr.time("runner::ThreadPool::map_indexed", 10_000.0, || {
            pool_n.map_indexed(10_000, |i| i)
        });
    }
    let config = NoisyConfig::new(0.01, 1).expect("epsilon");
    let plan = ShardPlan::new(4 * CHUNK * jobs.max(1), CHUNK).expect("plan");
    let programs = ProgramCache::new();
    let _warm = programs.get_or_compile(netlist);
    for (pool, name) in [(&pool_1, "j1"), (&pool_n, "jn")] {
        for _ in 0..2 {
            tr.time(
                &format!("runner::monte_carlo_shard_tallies({name})"),
                plan.patterns() as f64,
                || {
                    monte_carlo_shard_tallies(
                        pool,
                        netlist,
                        &config,
                        &plan,
                        2,
                        ShardRange {
                            first: 0,
                            last: plan.shard_count(),
                        },
                        None,
                        Some(&programs),
                    )
                    .expect("shards")
                },
            );
        }
    }

    tr.time("core::BoundReport::evaluate", 1000.0, || {
        for i in 0..1000 {
            let eps = 0.001 + f64::from(i) * 1e-5;
            std::hint::black_box(BoundReport::evaluate(
                std::hint::black_box(&large.profile),
                std::hint::black_box(eps),
                0.01,
            ))
            .expect("bounds");
        }
    });

    // Every paper generator, without a cache.
    let mut figures = Vec::new();
    let gens: [(&str, Generator); 5] = [
        ("fig2", fig2::generate_with),
        ("fig3", fig3::generate_with),
        ("fig4", fig4::generate_with),
        ("fig5", fig5::generate_with),
        ("fig6", fig6::generate_with),
    ];
    for (name, generate) in gens {
        let figure = tr.time(&format!("experiments.{name}"), 1.0, || generate(&pool_n));
        figures.push(figure.expect("paper figure"));
    }
    let suite = tr.time("experiments.suite_profile", 1.0, || {
        profile_suite_with(&pool_n, &ProfileConfig::default()).expect("suite")
    });
    figures.push(tr.time("experiments.fig7", 1.0, || {
        fig7::generate_from(&suite).expect("fig7")
    }));
    figures.push(tr.time("experiments.fig8", 1.0, || {
        fig8::generate_from(&suite).expect("fig8")
    }));
    figures.push(tr.time("experiments.headline", 1.0, || {
        headline::generate_from(&suite).expect("headline")
    }));
    figures.push(tr.time("experiments.v1", 1.0, || {
        validation::theorem1_validation_with(&pool_n).expect("v1")
    }));
    figures.push(tr.time("experiments.v2", 1.0, || {
        validation::constructive_vs_bound_with(&pool_n).expect("v2")
    }));
    for _ in 0..20 {
        tr.time("report::Table::to_csv", 1.0, || {
            figures
                .iter()
                .flat_map(|f| &f.tables)
                .map(|t| t.to_csv().len())
                .sum::<usize>()
        });
    }

    for _ in 0..100 {
        tr.time("service::cluster::encode+decode_tally_frames", 1.0, || {
            let payload = encode_tally_frames(0, &cluster.tallies[..args.cluster_batch]);
            decode_tally_frames(&payload).expect("frames")
        });
    }

    let pool = ThreadPool::serial();
    let job = ClusterJob {
        netlist: &cluster.netlist,
        netlist_text: &cluster.text,
        blif: false,
        config,
        pattern_seed: 2,
        plan: ShardPlan::new(args.cluster_patterns, CHUNK).expect("plan"),
        batch: args.cluster_batch,
    };
    let programs = ProgramCache::new();
    tr.time(
        "service::cluster::run_cluster(zero workers)",
        args.cluster_patterns as f64,
        || {
            run_cluster(
                &pool,
                None,
                Some(&programs),
                &job,
                &ClusterOptions::default(),
            )
            .expect("local run")
        },
    );
    tr.end(root);
    figures
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new();
    let mut checks = Checks::default();
    let pool = ThreadPool::new(args.jobs).expect("pool");

    replay_paper(&mut tr, &mut checks, &args.work, &pool);
    let large = replay_large(&mut tr, &mut checks, &args, &pool);
    let serve = replay_serve(&mut tr, &mut checks, &args.work);
    let cluster = replay_cluster(&mut tr, &mut checks, &args);
    ledger(&mut tr, &args, &large, &serve, &cluster);

    if let Err(e) = tr.write_chrome(&args.trace_out) {
        checks.check(
            false,
            &format!("cannot write {}: {e}", args.trace_out.display()),
        );
    }

    let ledger = Ledger {
        tracer: &tr,
        own: tr.self_times(),
    };
    let mut metrics = BTreeMap::new();
    let mut unmeasured = Vec::new();
    for (metric, root, span, scale) in SPAN_METRICS {
        match ledger.median_self(root, span) {
            Some(ns) => {
                metrics.insert(metric.to_owned(), ns * scale);
            }
            None => unmeasured.push(format!("{metric}: no `{span}` span under `{root}`")),
        }
    }
    for (metric, span) in RATE_METRICS {
        match ledger.median_self(LEDGER, span) {
            Some(ns_per_pattern) => {
                metrics.insert(metric.to_owned(), 1e9 / ns_per_pattern);
            }
            None => unmeasured.push(format!("{metric}: no `{span}` span")),
        }
    }
    if let (Some(j1), Some(jn)) = (
        metrics.get("runner.mc_pps.j1").copied(),
        metrics.get("runner.mc_pps.jn").copied(),
    ) {
        metrics.insert(
            "runner.scaling_eff".to_owned(),
            jn / (j1 * args.jobs as f64),
        );
    }

    let mut replay_s = BTreeMap::new();
    for (workload, root) in [
        ("paper", "replay.paper"),
        ("large_design", "replay.large_design"),
        ("serve_mix", "replay.serve_mix"),
        ("cluster_mc", "replay.cluster_mc"),
    ] {
        match tr.root_named(root) {
            Some(id) => {
                metrics.insert(format!("trace.covered_frac.{workload}"), tr.covered(id));
                replay_s.insert(workload, tr.duration(id) / 1e9);
            }
            None => unmeasured.push(format!("trace.covered_frac.{workload}: no replay span")),
        }
    }

    let metrics: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    let replays: Vec<String> = replay_s
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    let unmeasured: Vec<String> = unmeasured.iter().map(|s| json_string(s)).collect();
    println!(
        "{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"replay_s\":{{{}}},\"unmeasured\":[{}]}}",
        checks.attempted,
        checks.failed,
        metrics.join(","),
        replays.join(","),
        unmeasured.join(",")
    );
    if checks.failed > 0 {
        std::process::exit(1);
    }
}
