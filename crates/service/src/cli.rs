//! The command layer shared by the `nanobound` binary.
//!
//! Every subcommand is a thin shell over the [`Engine`]: parse and
//! validate tokens (rejecting unknown flags by name), build the
//! pool/cache, call the engine method, print its text. `serve` builds
//! the same engine once and keeps it alive for a whole request
//! session — which is exactly why one-shot output and service
//! responses are byte-identical: they are the same code path.

use std::fs;
use std::time::Duration;

use nanobound_cache::GcPolicy;
use nanobound_experiments::{FigureId, FigureOutput};
use nanobound_runner::{ShardPlan, DEFAULT_CHUNK, MAX_JOBS};
use nanobound_sim::{NoisyConfig, ProgramCache};

use crate::args::{
    cache_from_flags, flag, flag_f64, flag_usize, flag_values, list, parse_flags, pool_from_flags,
    switch, FlagSpec, Flags, COMMON_FLAGS,
};
use crate::cluster::{run_cluster, stats_line, ClusterJob, ClusterOptions};
use crate::engine::{csv_of, parse_design, read_netlist, Engine};
use crate::requests::{gc_policy, BoundRequest, LintRequest, ProfileRequest};
use crate::serve::{self, ServeOptions};

/// The binary's usage text (printed to stderr on `--help`).
pub const USAGE: &str = "\
nanobound — energy bounds for fault-tolerant nanoscale designs
          (reproduction of Marculescu, DATE 2005)

USAGE:
    nanobound profile <FILE> [OPTIONS]   profile a .bench/.blif netlist and
                                         print its bound report
    nanobound bounds [OPTIONS]           evaluate the bounds for explicit
                                         circuit parameters
    nanobound figures [OPTIONS]          regenerate paper figures as CSV
    nanobound validate [OPTIONS]         run the Monte-Carlo validation
                                         experiments (V1, V2) as CSV
    nanobound lint [FILES] [OPTIONS]     static analysis: netlist lints
                                         (NB001..NB010) and the compiled-tape
                                         soundness check (NB020/NB021)
    nanobound serve [OPTIONS]            long-running batch service: one
                                         request per stdin line, framed
                                         responses on stdout
    nanobound cluster <FILE> [OPTIONS]   distribute one Monte-Carlo run's
                                         shards across N serve workers;
                                         byte-identical to a local run
                                         under worker failure

COMMON OPTIONS:
    --jobs <N>       worker threads (1..=512)  [default: all hardware threads]
                     results are byte-identical for every N
    --cache-dir <D>  reuse shard results (Monte-Carlo chunks, benchmark
                     measurements) across runs via a content-addressed
                     cache at D; warm output is byte-identical to cold
                     [default: caching off]
    --no-cache       run without a cache (conflicts with --cache-dir)

PROFILE OPTIONS:
    --eps <E>        gate error probability (repeatable; default 0.001 0.01 0.1)
    --delta <D>      required output error bound        [default: 0.01]
    --frames <T>     unroll sequential designs T frames [default: 4]
    --patterns <N>   activity-simulation vectors        [default: 10000]
    --leak <L>       baseline leakage share             [default: 0.5]

BOUNDS OPTIONS:
    --size <S0>  --sensitivity <S>  --activity <SW>  --fanin <K>
    --inputs <N>     [default: max(sensitivity, 2)]
    --depth <D0>     [default: 8]
    --eps, --delta, --leak as above

FIGURES / VALIDATE OPTIONS:
    --out <DIR>      write CSV files into DIR           [default: results]
    --only <FIG>     figures only: restrict to one artifact (repeatable;
                     fig2..fig8, headline)
    --stdout         print CSV to stdout instead of writing files
                     (conflicts with --out)

LINT OPTIONS:
    --suite          also lint every generated Section-6 suite netlist
    --format <F>     report rendering: text | json    [default: text]
    --deny warnings  exit nonzero on warnings, not only on errors

SERVE OPTIONS:
    --listen <ADDR>  accept TCP connections on ADDR instead of stdio
    --concurrency <N>  dispatch up to N requests of a session at once
                     (responses stay in request order)  [default: 1]
    --queue <N>      admitted-request queue bound; past it requests are
                     answered `error: overloaded` in-band [default: 256]
    --idle-timeout <S>  close a TCP session in-band after S seconds
                     without a request, so a stalled client cannot
                     block later connections  [default: wait forever]
    --gc-bytes <N>   at startup, sweep the cache down toward N bytes
    --gc-age-days <D>  at startup, expire cache entries older than D days

CLUSTER OPTIONS:
    --worker <ADDR>  a serve worker's TCP address (repeatable; none
                     runs every shard locally — the serial baseline)
    --eps <E>        gate error probability          [default: 0.01]
    --fault-seed <N>    fault-mask master seed       [default: 1]
    --pattern-seed <N>  input-pattern master seed    [default: 2]
    --patterns <N>   Monte-Carlo patterns            [default: 40960]
    --chunk <N>      patterns per shard              [default: 4096]
    --batch <N>      shards per worker request       [default: 1]
    --connect-timeout <S> / --io-timeout <S>  worker deadlines, seconds
                     [defaults: 5 / 30]
    --quarantine-after <N>  consecutive failures before a worker is
                     ejected and ping-probed        [default: 3]
    --backoff-ms <N>  initial retry backoff, doubling per consecutive
                     failure                        [default: 50]
    --chaos-seed <N>  deterministic fault injection on the coordinator
                     transport (tests/ci only)
    every failed attempt is retried on a surviving worker or computed
    locally — the run completes, byte-identically, as long as the
    coordinator lives

SERVE PROTOCOL (one request per line; full grammar in the README):
    {\"id\":\"1\",\"workload\":\"figure\",\"args\":[\"fig3\"]}
    -> {\"id\":\"1\",\"status\":\"ok\",\"bytes\":N} then exactly N payload
       bytes — byte-identical to the equivalent one-shot CLI stdout
       (workloads: profile, bound, figure, validate, lint, gc, stats,
       ping, shutdown, and the cluster shard workload mc_shards; id
       \"?\" is reserved for malformed-line answers; computing
       workloads accept --request-jobs <N> for a per-request worker
       budget)
";

/// Top-level dispatch for the `nanobound` binary.
///
/// # Errors
///
/// Every user-facing failure, as the message the binary prints behind
/// `error: `.
pub fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("profile") => cmd_profile(&args[1..]),
        Some("bounds") => cmd_bounds(&args[1..]),
        Some("figures") => cmd_figures(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprint!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let spec = [&ProfileRequest::FLAGS[..], &COMMON_FLAGS[..]].concat();
    let (positional, flags) = parse_flags(args, &spec)?;
    let request = ProfileRequest::from_parts(&positional, &flags)?;
    let engine = Engine::new(pool_from_flags(&flags)?, cache_from_flags(&flags)?);
    print!("{}", engine.profile(&request)?);
    if engine.cache().is_some() {
        print!("{}", engine.cache_report());
    }
    Ok(())
}

fn cmd_bounds(args: &[String]) -> Result<(), String> {
    let spec = [&BoundRequest::FLAGS[..], &[flag("jobs")][..]].concat();
    let (positional, flags) = parse_flags(args, &spec)?;
    let request = BoundRequest::from_parts(&positional, &flags)?;
    let engine = Engine::new(pool_from_flags(&flags)?, None);
    print!("{}", engine.bound(&request)?);
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    // Analysis is cheap and deterministic: no pool, no cache flags.
    let (positional, flags) = parse_flags(args, &LintRequest::FLAGS)?;
    let request = LintRequest::from_parts(&positional, &flags)?;
    let engine = Engine::new(nanobound_runner::ThreadPool::serial(), None);
    let outcome = engine.lint(&request)?;
    print!("{}", outcome.text);
    if outcome.failed() {
        let denied = if outcome.errors == 0 {
            " (--deny warnings)"
        } else {
            ""
        };
        return Err(format!(
            "lint found {} error(s) and {} warning(s){denied}",
            outcome.errors, outcome.warnings
        ));
    }
    Ok(())
}

/// Flags shared by the two CSV-artifact subcommands.
const ARTIFACT_FLAGS: [FlagSpec; 2] = [flag("out"), switch("stdout")];

/// Resolves the `--out`/`--stdout` choice; `None` means stdout mode.
fn artifact_sink(flags: &Flags) -> Result<Option<String>, String> {
    let to_stdout = !flag_values(flags, "stdout").is_empty();
    let out = flag_values(flags, "out").last().copied();
    match (to_stdout, out) {
        (true, Some(_)) => Err("--stdout conflicts with --out; pass one or the other".to_owned()),
        (true, None) => Ok(None),
        (false, out) => Ok(Some(out.unwrap_or("results").to_owned())),
    }
}

/// Writes a figure's tables under `dir` (multi-table figures get
/// `_0`, `_1`, … suffixes); returns the written paths.
fn write_figure(dir: &str, figure: &FigureOutput) -> Result<Vec<String>, String> {
    let mut paths = Vec::new();
    for (i, table) in figure.tables.iter().enumerate() {
        let suffix = if figure.tables.len() > 1 {
            format!("_{i}")
        } else {
            String::new()
        };
        let path = format!("{dir}/{}{suffix}.csv", figure.id);
        fs::write(&path, table.to_csv()).map_err(|e| format!("cannot write {path}: {e}"))?;
        paths.push(path);
    }
    Ok(paths)
}

fn cmd_figures(args: &[String]) -> Result<(), String> {
    let spec = [&ARTIFACT_FLAGS[..], &[list("only")][..], &COMMON_FLAGS[..]].concat();
    let (positional, flags) = parse_flags(args, &spec)?;
    if !positional.is_empty() {
        return Err("`figures` takes only flags".to_owned());
    }
    let only = flag_values(&flags, "only");
    let ids: Vec<FigureId> = if only.is_empty() {
        FigureId::ALL.to_vec()
    } else {
        only.iter()
            .map(|name| {
                FigureId::parse(name).ok_or_else(|| {
                    format!("--only: unknown figure `{name}` (expected fig2..fig8 or headline)")
                })
            })
            .collect::<Result<_, _>>()?
    };
    let sink = artifact_sink(&flags)?;
    let engine = Engine::new(pool_from_flags(&flags)?, cache_from_flags(&flags)?);
    let Some(dir) = sink else {
        for &id in &ids {
            print!("{}", engine.figure_csv(id)?);
        }
        return Ok(());
    };
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    for &id in &ids {
        let figure = engine.figure(id)?;
        for path in write_figure(&dir, &figure)? {
            println!("wrote {path}");
        }
    }
    if engine.cache().is_some() {
        print!("{}", engine.cache_report());
    }
    Ok(())
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let spec = [&ARTIFACT_FLAGS[..], &COMMON_FLAGS[..]].concat();
    let (positional, flags) = parse_flags(args, &spec)?;
    if !positional.is_empty() {
        return Err("`validate` takes only flags".to_owned());
    }
    let sink = artifact_sink(&flags)?;
    let engine = Engine::new(pool_from_flags(&flags)?, cache_from_flags(&flags)?);
    let outputs = engine.validation()?;
    let Some(dir) = sink else {
        for figure in &outputs {
            print!("{}", csv_of(figure));
        }
        return Ok(());
    };
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    for figure in &outputs {
        for path in write_figure(&dir, figure)? {
            println!("wrote {path}");
        }
    }
    if engine.cache().is_some() {
        print!("{}", engine.cache_report());
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let spec = [
        &[
            flag("listen"),
            flag("concurrency"),
            flag("queue"),
            flag("idle-timeout"),
            flag("gc-bytes"),
            flag("gc-age-days"),
        ][..],
        &COMMON_FLAGS[..],
    ]
    .concat();
    let (positional, flags) = parse_flags(args, &spec)?;
    if !positional.is_empty() {
        return Err("`serve` takes only flags".to_owned());
    }
    let cache = cache_from_flags(&flags)?;
    let gc = gc_policy(&flags, "gc-bytes", "gc-age-days")?;
    if gc != GcPolicy::default() && cache.is_none() {
        return Err("--gc-bytes/--gc-age-days need --cache-dir".to_owned());
    }
    let concurrency = match flag_values(&flags, "concurrency").last() {
        None => 1,
        Some(v) => {
            let n: usize = v.parse().map_err(|_| {
                format!("--concurrency: `{v}` is not an integer (supported: 1..={MAX_JOBS})")
            })?;
            if !(1..=MAX_JOBS).contains(&n) {
                return Err(format!(
                    "--concurrency: `{v}` is out of range (supported: 1..={MAX_JOBS})"
                ));
            }
            n
        }
    };
    let queue = match flag_values(&flags, "queue").last() {
        None => serve::DEFAULT_QUEUE,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                return Err(format!(
                    "--queue: `{v}` is not a queue bound (supported: >= 1)"
                ))
            }
        },
    };
    let listen = flag_values(&flags, "listen")
        .last()
        .map(|s| (*s).to_owned());
    let idle_timeout = match flag_values(&flags, "idle-timeout").last() {
        None => None,
        Some(v) => {
            if listen.is_none() {
                return Err(
                    "--idle-timeout needs --listen (stdio sessions cannot stall the accept loop)"
                        .to_owned(),
                );
            }
            let secs: f64 = v
                .parse()
                .map_err(|_| format!("--idle-timeout: `{v}` is not a number of seconds"))?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err(format!(
                    "--idle-timeout: `{v}` must be a finite, positive number of seconds"
                ));
            }
            Some(
                Duration::try_from_secs_f64(secs)
                    .map_err(|_| format!("--idle-timeout: `{v}` is out of range"))?,
            )
        }
    };
    let options = ServeOptions {
        listen,
        gc,
        concurrency,
        queue,
        idle_timeout,
    };
    let engine = Engine::new(pool_from_flags(&flags)?, cache);
    serve::run(&engine, &options)
}

/// Parses a seconds flag into a `Duration`.
fn duration_flag(flags: &Flags, name: &str, default: f64) -> Result<Duration, String> {
    let secs = flag_f64(flags, name, default)?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!(
            "--{name}: `{secs}` must be a finite, positive number of seconds"
        ));
    }
    Duration::try_from_secs_f64(secs).map_err(|_| format!("--{name}: `{secs}` is out of range"))
}

/// Parses an optional u64 flag.
fn u64_flag(flags: &Flags, name: &str) -> Result<Option<u64>, String> {
    match flag_values(flags, name).last() {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("--{name}: `{v}` is not a non-negative integer")),
    }
}

fn cmd_cluster(args: &[String]) -> Result<(), String> {
    let spec = [
        &[
            list("worker"),
            flag("eps"),
            flag("fault-seed"),
            flag("pattern-seed"),
            flag("patterns"),
            flag("chunk"),
            flag("batch"),
            flag("connect-timeout"),
            flag("io-timeout"),
            flag("quarantine-after"),
            flag("backoff-ms"),
            flag("chaos-seed"),
        ][..],
        &COMMON_FLAGS[..],
    ]
    .concat();
    let (positional, flags) = parse_flags(args, &spec)?;
    let [path] = positional.as_slice() else {
        return Err("`cluster` expects exactly one netlist file".to_owned());
    };
    let (text, blif) = read_netlist(path)?;
    let design = parse_design(&text, blif, path)?;
    if design.is_sequential() {
        return Err(format!(
            "{path}: `cluster` takes combinational netlists only ({} latches)",
            design.latches.len()
        ));
    }
    let eps = flag_f64(&flags, "eps", 0.01)?;
    let fault_seed = u64_flag(&flags, "fault-seed")?.unwrap_or(1);
    let pattern_seed = u64_flag(&flags, "pattern-seed")?.unwrap_or(2);
    let patterns = flag_usize(&flags, "patterns", 40_960)?;
    let chunk = flag_usize(&flags, "chunk", DEFAULT_CHUNK)?;
    let config = NoisyConfig::new(eps, fault_seed).map_err(|e| e.to_string())?;
    let plan = ShardPlan::new(patterns, chunk).map_err(|e| e.to_string())?;
    let job = ClusterJob {
        netlist: &design.netlist,
        netlist_text: &text,
        blif,
        config,
        pattern_seed,
        plan,
        batch: flag_usize(&flags, "batch", 1)?.max(1),
    };
    let quarantine_after = u64_flag(&flags, "quarantine-after")?.unwrap_or(3);
    if quarantine_after == 0 {
        return Err("--quarantine-after: must be at least 1".to_owned());
    }
    let backoff_ms = u64_flag(&flags, "backoff-ms")?.unwrap_or(50);
    let options = ClusterOptions {
        workers: flag_values(&flags, "worker")
            .iter()
            .map(|s| (*s).to_owned())
            .collect(),
        connect_timeout: duration_flag(&flags, "connect-timeout", 5.0)?,
        io_timeout: duration_flag(&flags, "io-timeout", 30.0)?,
        quarantine_after: u32::try_from(quarantine_after)
            .map_err(|_| "--quarantine-after: out of range".to_owned())?,
        backoff: Duration::from_millis(backoff_ms),
        chaos_seed: u64_flag(&flags, "chaos-seed")?,
    };
    let pool = pool_from_flags(&flags)?;
    let cache = cache_from_flags(&flags)?;
    let programs = ProgramCache::new();
    let run = run_cluster(&pool, cache.as_ref(), Some(&programs), &job, &options)?;
    eprintln!("nanobound {}", stats_line(&run.stats));

    // The result text — byte-identical no matter where shards ran.
    let outcome = run.tally.outcome();
    println!(
        "monte-carlo: {} patterns, {} shards, eps = {eps}",
        plan.patterns(),
        plan.shard_count()
    );
    println!("circuit error rate: {}", outcome.circuit_error_rate);
    for (i, rate) in outcome.per_output_error_rate.iter().enumerate() {
        println!("output {i} error rate: {rate}");
    }
    println!(
        "noisy avg gate activity: {}",
        outcome.noisy_avg_gate_activity
    );
    println!(
        "clean avg gate activity: {}",
        outcome.clean_avg_gate_activity
    );
    if let Some(cache) = &cache {
        // Diagnostics, not payload: hit/miss traffic depends on where
        // shards ran, and cluster stdout must stay byte-identical
        // across transports.
        eprintln!(
            "nanobound cluster cache: {}",
            crate::engine::cache_summary(cache)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_names_every_subcommand_and_transport_flag() {
        for needle in [
            "USAGE",
            "profile",
            "bounds",
            "figures",
            "validate",
            "lint",
            "serve",
            "--deny warnings",
            "--format",
            "--suite",
            "NB001",
            "--jobs",
            "--cache-dir",
            "--no-cache",
            "--only",
            "--stdout",
            "--listen",
            "--concurrency",
            "--queue",
            "--request-jobs",
            "--idle-timeout",
            "cluster",
            "--worker",
            "--chaos-seed",
            "--quarantine-after",
            "mc_shards",
            "--gc-bytes",
            "1..=512",
            "overloaded",
            " gc,",
        ] {
            assert!(USAGE.contains(needle), "usage missing {needle}");
        }
    }

    #[test]
    fn concurrency_and_queue_flags_are_validated() {
        let run = |tokens: &[&str]| {
            let args: Vec<String> = tokens.iter().map(|s| (*s).to_owned()).collect();
            cmd_serve(&args).unwrap_err()
        };
        for (tokens, needle) in [
            (&["--concurrency", "0"][..], "--concurrency"),
            (&["--concurrency", "99999"][..], "out of range"),
            (&["--concurrency", "x"][..], "not an integer"),
            (&["--queue", "0"][..], "--queue"),
            (&["--queue", "-1"][..], "--queue"),
        ] {
            let err = run(tokens);
            assert!(err.contains(needle), "tokens {tokens:?}: {err}");
        }
    }

    #[test]
    fn artifact_sink_resolves_the_three_shapes() {
        let flags = |pairs: &[(&str, &str)]| -> Flags {
            pairs
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect()
        };
        assert_eq!(
            artifact_sink(&flags(&[])).unwrap(),
            Some("results".to_owned())
        );
        assert_eq!(
            artifact_sink(&flags(&[("out", "x")])).unwrap(),
            Some("x".to_owned())
        );
        assert_eq!(artifact_sink(&flags(&[("stdout", "true")])).unwrap(), None);
        let err = artifact_sink(&flags(&[("stdout", "true"), ("out", "x")])).unwrap_err();
        assert!(err.contains("--stdout") && err.contains("--out"));
    }

    #[test]
    fn gc_flags_require_a_cache() {
        let args: Vec<String> = ["--gc-bytes", "1024"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        let err = cmd_serve(&args).unwrap_err();
        assert!(err.contains("--cache-dir"), "{err}");
    }
}
