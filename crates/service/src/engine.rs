//! The long-lived job engine.
//!
//! An [`Engine`] owns the expensive, shareable resources of the
//! workspace — one [`ThreadPool`], one open [`ShardCache`] with its
//! [`ProfileStore`], and one [`ProgramCache`] — for its whole lifetime,
//! and executes [`ProfileRequest`]/[`BoundRequest`]/figure/validation
//! workloads against them, each in one [`Exec`] over all of them. On
//! top of the on-disk stores it keeps in-memory registries so a busy
//! service amortizes work across requests:
//!
//! - parsed designs, keyed by file content (a changed file on disk is
//!   a different design, a re-request of the same bytes parses zero
//!   times);
//! - profiled netlists, keyed by a fingerprint over the netlist
//!   structure ([`netlist_fingerprint`]) and the full measurement
//!   configuration;
//! - compiled simulation programs ([`ProgramCache`]), keyed by netlist
//!   structure alone, so warm requests over a known netlist skip
//!   compilation entirely — one structure is compiled once per engine
//!   lifetime no matter how many measurement configs or workloads
//!   touch it;
//! - rendered figures and the profiled benchmark suite, computed once.
//!
//! **The byte-identity contract.** Every workload method returns the
//! *exact text* the equivalent one-shot CLI invocation (without cache
//! flags) prints on stdout. The one-shot CLI calls these same methods,
//! so the two front ends cannot drift; and because registries and the
//! shard cache only ever replay bit-exact results, the text is
//! independent of request order, warm/cold cache state and worker
//! count.
//!
//! **Sharing.** Every workload method takes `&self`: the registries are
//! keyed compute-once tables (`Registry`), so a concurrent serve
//! session can dispatch requests onto one engine from many workers —
//! a burst of identical requests still computes (and counts) each
//! design parse, profile measurement and figure exactly once.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::hash::Hash;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};

use nanobound_analyze::{lint_design, lint_netlist, LintOptions, Severity};
use nanobound_cache::{
    Fingerprint, FingerprintBuilder, GcPolicy, GcReport, ProfileLayer, ProfileStore, ShardCache,
};
use nanobound_core::{BoundReport, CircuitProfile, DepthBound};
use nanobound_experiments::profiles::{
    profile_netlist, profile_suite, suite_netlists, ProfileConfig, ProfiledBenchmark,
};
use nanobound_experiments::{generate_figure, validation, FigureId, FigureOutput};
use nanobound_io::{bench, blif, unroll, Design};
use nanobound_report::Table;
use nanobound_runner::{
    monte_carlo_shard_tallies, netlist_fingerprint, try_grid_map, Exec, ShardPlan, ShardRange,
    ThreadPool,
};
use nanobound_sim::{NoisyConfig, ProgramCache};

use crate::requests::{BoundRequest, LintFormat, LintRequest, McShardsRequest, ProfileRequest};

/// The shard-cache traffic summary line — the first line of
/// [`Engine::cache_report`]. Its format is pinned by the ci.sh cache
/// gates; new per-registry lines go into the report, not here.
#[must_use]
pub fn cache_summary(cache: &ShardCache) -> String {
    let stats = cache.stats();
    format!(
        "cache {}: {} hits, {} misses, {} entries written{}",
        cache.root().display(),
        stats.hits,
        stats.misses,
        stats.writes,
        if stats.write_errors > 0 {
            format!(
                ", {} write errors (cache degraded, results unaffected)",
                stats.write_errors
            )
        } else {
            String::new()
        },
    )
}

/// What one `lint` workload produced: the rendered report (the exact
/// one-shot stdout text) plus the tallies the front ends gate on — the
/// CLI turns [`LintOutcome::failed`] into a nonzero exit, `serve` into
/// a `status: error` response carrying the very same payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintOutcome {
    /// The rendered report, byte-identical between front ends.
    pub text: String,
    /// Total error-severity findings across all designs.
    pub errors: usize,
    /// Total warning-severity findings across all designs.
    pub warnings: usize,
    /// Whether the request asked for `--deny warnings`.
    pub deny_warnings: bool,
}

impl LintOutcome {
    /// Whether this run should fail its front end.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.errors > 0 || (self.deny_warnings && self.warnings > 0)
    }
}

/// Cap on each keyed in-memory registry. Reaching it flushes every
/// completed entry: registries are pure caches over deterministic
/// computations, so a flush can only cost recomputation (often served
/// from the on-disk shard cache), never change a result — but without
/// a cap a service fed an endless stream of distinct netlists would
/// grow monotonically until it OOMed.
const REGISTRY_LIMIT: usize = 1024;

/// A keyed compute-once registry.
///
/// The first requester of a key computes the value while concurrent
/// requesters of that key block until it is ready, so a burst of
/// identical requests costs one computation — which also keeps the
/// [`Engine::cache_report`] counters independent of how requests were
/// interleaved. Failed computations are not memoized (the next
/// requester retries), and reaching [`REGISTRY_LIMIT`] entries flushes
/// every completed value while in-flight computations keep their
/// slots.
#[derive(Debug)]
struct Registry<K, V> {
    slots: Mutex<HashMap<K, Slot<V>>>,
    ready: Condvar,
}

#[derive(Debug)]
enum Slot<V> {
    /// A computation for this key is in flight on some thread.
    Pending,
    Ready(Arc<V>),
}

impl<K: Clone + Eq + Hash, V> Registry<K, V> {
    fn new() -> Self {
        Registry {
            slots: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
        }
    }

    /// Completed entries (for tests).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots
            .lock()
            .expect("registry lock")
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }

    /// Returns the value for `key`, computing it via `compute` if no
    /// other thread already has (or is about to).
    fn get_or_try_insert<F>(&self, key: K, compute: F) -> Result<Arc<V>, String>
    where
        F: FnOnce() -> Result<V, String>,
    {
        let mut slots = self.slots.lock().expect("registry lock");
        loop {
            match slots.get(&key) {
                Some(Slot::Ready(value)) => return Ok(Arc::clone(value)),
                Some(Slot::Pending) => slots = self.ready.wait(slots).expect("registry lock"),
                None => break,
            }
        }
        if slots.len() >= REGISTRY_LIMIT {
            // Flush only completed values: dropping another thread's
            // Pending marker would let its key be computed twice.
            slots.retain(|_, slot| matches!(slot, Slot::Pending));
        }
        slots.insert(key.clone(), Slot::Pending);
        drop(slots);
        // The guard clears the Pending marker on every exit path —
        // error and panic included — so waiters never sleep forever.
        let mut guard = PendingGuard {
            registry: self,
            key: Some(key),
        };
        let value = Arc::new(compute()?);
        let key = guard.key.take().expect("guard disarmed exactly once");
        self.slots
            .lock()
            .expect("registry lock")
            .insert(key, Slot::Ready(Arc::clone(&value)));
        self.ready.notify_all();
        Ok(value)
    }
}

/// Removes a [`Slot::Pending`] marker (and wakes waiters) unless
/// disarmed by a successful insert.
struct PendingGuard<'a, K: Clone + Eq + Hash, V> {
    registry: &'a Registry<K, V>,
    key: Option<K>,
}

impl<K: Clone + Eq + Hash, V> Drop for PendingGuard<'_, K, V> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            let mut slots = self.registry.slots.lock().expect("registry lock");
            if matches!(slots.get(&key), Some(Slot::Pending)) {
                slots.remove(&key);
            }
            drop(slots);
            self.registry.ready.notify_all();
        }
    }
}

/// The long-lived job engine; see the [module docs](self).
#[derive(Debug)]
pub struct Engine {
    pool: ThreadPool,
    cache: Option<ShardCache>,
    /// ε-independent profile measurements, sharing the shard cache's
    /// root (domain-tagged fingerprints keep the namespaces apart).
    profiles: Option<ProfileStore>,
    designs: Registry<Fingerprint, Design>,
    profiled: Registry<Fingerprint, ProfiledBenchmark>,
    programs: ProgramCache,
    figures: Registry<FigureId, FigureOutput>,
    suite: Registry<(), Vec<ProfiledBenchmark>>,
    validation: Registry<(), Vec<FigureOutput>>,
}

impl Engine {
    /// Creates an engine over `pool`, with shard results served from /
    /// written to `cache` when present. A cache also opens the
    /// cross-run [`ProfileStore`] at the same root; if that fails the
    /// engine degrades to uncached profile measurements rather than
    /// erroring — the store is an accelerator, never an authority.
    #[must_use]
    pub fn new(pool: ThreadPool, cache: Option<ShardCache>) -> Self {
        let profiles = cache
            .as_ref()
            .and_then(|c| ProfileStore::open(c.root()).ok());
        Engine {
            pool,
            cache,
            profiles,
            designs: Registry::new(),
            profiled: Registry::new(),
            programs: ProgramCache::new(),
            figures: Registry::new(),
            suite: Registry::new(),
            validation: Registry::new(),
        }
    }

    /// The engine's registry of compiled simulation programs.
    #[must_use]
    pub fn programs(&self) -> &ProgramCache {
        &self.programs
    }

    /// The engine's cross-run profile store, when one is open.
    #[must_use]
    pub fn profiles(&self) -> Option<&ProfileStore> {
        self.profiles.as_ref()
    }

    /// The full cache traffic report: the pinned shard-cache summary
    /// line (when a cache is configured) followed by one line per
    /// in-memory/cross-run registry. Every line starts with `cache `
    /// so front ends and tests can filter traffic reporting uniformly.
    #[must_use]
    pub fn cache_report(&self) -> String {
        let mut out = String::new();
        if let Some(cache) = &self.cache {
            let _ = writeln!(out, "{}", cache_summary(cache));
        }
        let p = self.programs.stats();
        // `0 sliced` is a retired counter kept as a literal: scripts
        // that read this line by field position (the benchmark's
        // `stats_counts` takes fields 2, 6 and 8) would fail without it.
        let _ = writeln!(
            out,
            "cache programs: {} compiled ({} held), {} shared, 0 sliced",
            p.compiled,
            self.programs.len(),
            p.shared
        );
        if let Some(store) = &self.profiles {
            let a = store.layer_stats(ProfileLayer::Activity);
            let s = store.layer_stats(ProfileLayer::Sensitivity);
            let _ = writeln!(
                out,
                "cache profiles: {} activity reused ({} measured), {} sensitivity reused ({} measured)",
                a.reused, a.measured, s.reused, s.measured
            );
        }
        out
    }

    /// The engine's worker pool.
    #[must_use]
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// The engine's shard cache, when one is configured.
    #[must_use]
    pub fn cache(&self) -> Option<&ShardCache> {
        self.cache.as_ref()
    }

    /// The execution context of one workload: `pool` (the engine's own,
    /// or a request's `--request-jobs` override) over every store the
    /// engine holds.
    fn exec<'a>(&'a self, pool: &ThreadPool) -> Exec<'a> {
        Exec {
            pool: *pool,
            cache: self.cache.as_ref(),
            profiles: self.profiles.as_ref(),
            programs: Some(&self.programs),
        }
    }

    /// Sweeps the shard cache under `policy` (no-op without a cache),
    /// protecting every pinned in-flight experiment and profile
    /// fingerprint — safe to run mid-flight from the `gc` serve
    /// workload as well as at startup, where the protected set is
    /// simply empty and anything deleted recomputes as a plain miss.
    pub fn gc(&self, policy: &GcPolicy) -> Option<GcReport> {
        self.cache.as_ref().map(|cache| {
            let mut protected = cache.in_flight();
            if let Some(store) = &self.profiles {
                protected.extend(store.in_flight());
            }
            cache.sweep(policy, &protected)
        })
    }

    /// Executes a `profile` workload; returns the one-shot CLI's exact
    /// stdout text.
    ///
    /// # Errors
    ///
    /// Unreadable/unparseable netlist files, unroll failures and
    /// simulation errors, with the CLI's exact messages.
    pub fn profile(&self, request: &ProfileRequest) -> Result<String, String> {
        self.profile_with(request, &self.pool)
    }

    /// [`Engine::profile`] under a caller-supplied worker budget — the
    /// serve `--request-jobs` override. The text is identical for every
    /// pool (runner contract).
    ///
    /// # Errors
    ///
    /// Same as [`Engine::profile`].
    pub fn profile_with(
        &self,
        request: &ProfileRequest,
        pool: &ThreadPool,
    ) -> Result<String, String> {
        let design = self.load_design(&request.path)?;

        let mut out = String::new();
        let netlist = if design.is_sequential() {
            let _ = writeln!(
                out,
                "sequential design ({} latches): unrolling {} time frames",
                design.latches.len(),
                request.frames,
            );
            unroll::unroll_free(&design, request.frames).map_err(|e| e.to_string())?
        } else {
            design.netlist.clone()
        };

        let config = ProfileConfig {
            patterns: request.patterns,
            leak_share: request.leak,
            ..Default::default()
        };
        let mut profile_key = FingerprintBuilder::new("service-profile");
        netlist_fingerprint(&mut profile_key, &netlist);
        profile_key.push_usize(config.max_fanin);
        profile_key.push_usize(config.patterns);
        profile_key.push_usize(config.sensitivity_samples);
        profile_key.push_u64(config.seed);
        profile_key.push_f64(config.leak_share);
        let profile_key = profile_key.finish();
        let profiled = self.profiled.get_or_try_insert(profile_key, || {
            profile_netlist(&self.exec(pool), &netlist, None, &config).map_err(|e| e.to_string())
        })?;

        let _ = writeln!(out, "profile: {}", profiled.profile);
        out.push_str(&render_reports(
            pool,
            &profiled.profile,
            &request.eps,
            request.delta,
        )?);
        Ok(out)
    }

    /// Executes a `bound` workload; returns the one-shot CLI's exact
    /// stdout text.
    ///
    /// # Errors
    ///
    /// Bound-evaluation failures for out-of-range parameters, with the
    /// CLI's exact messages.
    pub fn bound(&self, request: &BoundRequest) -> Result<String, String> {
        self.bound_with(request, &self.pool)
    }

    /// [`Engine::bound`] under a caller-supplied worker budget.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::bound`].
    pub fn bound_with(&self, request: &BoundRequest, pool: &ThreadPool) -> Result<String, String> {
        let mut out = String::new();
        let _ = writeln!(out, "profile: {}", request.profile);
        out.push_str(&render_reports(
            pool,
            &request.profile,
            &request.eps,
            request.delta,
        )?);
        Ok(out)
    }

    /// Regenerates (or replays) one figure.
    ///
    /// # Errors
    ///
    /// Propagates generator failures (not expected for the paper's
    /// fixed parameters).
    pub fn figure(&self, id: FigureId) -> Result<FigureOutput, String> {
        self.figure_with(id, &self.pool)
    }

    /// [`Engine::figure`] under a caller-supplied worker budget, which
    /// only the profile-backed figures use (to profile the suite); the
    /// closed-form sweeps run inline.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::figure`].
    pub fn figure_with(&self, id: FigureId, pool: &ThreadPool) -> Result<FigureOutput, String> {
        let figure = self.figures.get_or_try_insert(id, || {
            let suite = if id.needs_profiles() {
                Some(self.ensure_suite_with(pool)?)
            } else {
                None
            };
            let profiles: &[ProfiledBenchmark] = suite.as_ref().map_or(&[], |s| s.as_slice());
            generate_figure(id, profiles).map_err(|e| e.to_string())
        })?;
        Ok((*figure).clone())
    }

    /// One figure's tables as CSV — the `figures --only <id> --stdout`
    /// text.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::figure`].
    pub fn figure_csv(&self, id: FigureId) -> Result<String, String> {
        Ok(csv_of(&self.figure(id)?))
    }

    /// [`Engine::figure_csv`] under a caller-supplied worker budget.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::figure`].
    pub fn figure_csv_with(&self, id: FigureId, pool: &ThreadPool) -> Result<String, String> {
        Ok(csv_of(&self.figure_with(id, pool)?))
    }

    /// Runs (or replays) both validation experiments.
    ///
    /// # Errors
    ///
    /// Propagates the underlying experiment failures.
    pub fn validation(&self) -> Result<Vec<FigureOutput>, String> {
        self.validation_with(&self.pool)
    }

    /// [`Engine::validation`] under a caller-supplied worker budget.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::validation`].
    pub fn validation_with(&self, pool: &ThreadPool) -> Result<Vec<FigureOutput>, String> {
        let outputs = self.validation.get_or_try_insert((), || {
            validation::generate(&self.exec(pool)).map_err(|e| e.to_string())
        })?;
        Ok((*outputs).clone())
    }

    /// The validation tables as CSV — the `validate --stdout` text.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::validation`].
    pub fn validation_csv(&self) -> Result<String, String> {
        self.validation_csv_with(&self.pool)
    }

    /// [`Engine::validation_csv`] under a caller-supplied worker budget.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::validation`].
    pub fn validation_csv_with(&self, pool: &ThreadPool) -> Result<String, String> {
        Ok(self.validation_with(pool)?.iter().map(csv_of).collect())
    }

    /// Executes a `lint` workload; returns the report text and the
    /// severity tallies the front ends gate on.
    ///
    /// The text is exactly the one-shot CLI's stdout — findings are
    /// *payload*, not errors; `Err` here means the request itself could
    /// not run (unreadable file, unparseable netlist, suite-generation
    /// failure).
    ///
    /// # Errors
    ///
    /// Unreadable/unparseable netlist files, with the CLI's exact
    /// messages.
    pub fn lint(&self, request: &LintRequest) -> Result<LintOutcome, String> {
        let options = LintOptions {
            check_tape: true,
            corrupt_tape: request.corrupt_tape,
        };
        let mut reports = Vec::new();
        for path in &request.paths {
            let design = self.load_design(path)?;
            let mut report = lint_design(&design, &options);
            // The parsers name every netlist after the format; the file
            // stem is what a user can act on.
            if let Some(stem) = Path::new(path).file_stem() {
                report.design = stem.to_string_lossy().into_owned();
            }
            reports.push(report);
        }
        if request.suite {
            for netlist in suite_netlists().map_err(|e| e.to_string())? {
                reports.push(lint_netlist(&netlist, &options));
            }
        }
        let mut text = String::new();
        let (mut errors, mut warnings) = (0usize, 0usize);
        for report in &reports {
            errors += report.count(Severity::Error);
            warnings += report.count(Severity::Warning);
            match request.format {
                LintFormat::Text => report.write_text(&mut text),
                LintFormat::Json => {
                    report.write_json(&mut text);
                    text.push('\n');
                }
            }
        }
        if request.format == LintFormat::Text {
            let _ = writeln!(
                text,
                "lint: {} design(s), {errors} error(s), {warnings} warning(s)",
                reports.len()
            );
        }
        Ok(LintOutcome {
            text,
            errors,
            warnings,
            deny_warnings: request.deny_warnings,
        })
    }

    /// Parses (or replays) the design at `path`, keyed by file content
    /// so a changed file is a different design and a re-request of the
    /// same bytes parses zero times.
    fn load_design(&self, path: &str) -> Result<Arc<Design>, String> {
        let (text, as_blif) = read_netlist(path)?;
        self.design_from_text(&text, as_blif, path)
    }

    /// Parses (or replays) a design from source text — the shared back
    /// end of [`Engine::load_design`] and the `mc_shards` workload,
    /// whose netlists arrive in-band instead of via the filesystem.
    /// `origin` names the source in error messages.
    fn design_from_text(
        &self,
        text: &str,
        as_blif: bool,
        origin: &str,
    ) -> Result<Arc<Design>, String> {
        let mut design_key = FingerprintBuilder::new("service-design");
        design_key.push_str(text);
        design_key.push_u64(u64::from(as_blif));
        let design_key = design_key.finish();
        self.designs
            .get_or_try_insert(design_key, || parse_design(text, as_blif, origin))
    }

    /// Executes an `mc_shards` workload: computes the requested shard
    /// range of the experiment and answers binary tally frames
    /// ([`crate::cluster::encode_tally_frames`]).
    ///
    /// The shards are computed through the very same
    /// [`monte_carlo_shard_tallies`] path (and, when this engine has a
    /// cache, the very same on-disk addresses) a local run uses, so a
    /// worker's answer is bit-identical to computing the range on the
    /// coordinator.
    ///
    /// # Errors
    ///
    /// Unparseable netlists, sequential designs (the coordinator
    /// unrolls; a worker never should, or frame counts would fork the
    /// experiment), invalid ε/plan parameters and out-of-plan ranges,
    /// with messages naming the offending flag.
    pub fn mc_shards(
        &self,
        request: &McShardsRequest,
        pool: &ThreadPool,
    ) -> Result<Vec<u8>, String> {
        let design = self.design_from_text(&request.netlist, request.blif, "--netlist")?;
        if design.is_sequential() {
            return Err(
                "`mc_shards` takes combinational netlists only (unroll on the coordinator)"
                    .to_owned(),
            );
        }
        let config =
            NoisyConfig::new(request.eps, request.fault_seed).map_err(|e| e.to_string())?;
        let plan = ShardPlan::new(request.patterns, request.chunk).map_err(|e| e.to_string())?;
        let range = ShardRange {
            first: request.first as usize,
            last: request.last as usize,
        };
        let exec = self.exec(pool);
        let tallies = monte_carlo_shard_tallies(
            &exec.pool,
            &design.netlist,
            &config,
            &plan,
            request.pattern_seed,
            range,
            exec.cache,
            exec.programs,
        )
        .map_err(|e| e.to_string())?;
        Ok(crate::cluster::encode_tally_frames(request.first, &tallies))
    }

    /// Profiles the benchmark suite once and keeps it for every figure
    /// that consumes measured profiles.
    fn ensure_suite_with(&self, pool: &ThreadPool) -> Result<Arc<Vec<ProfiledBenchmark>>, String> {
        self.suite.get_or_try_insert((), || {
            profile_suite(&self.exec(pool), &ProfileConfig::default()).map_err(|e| e.to_string())
        })
    }
}

/// Reads a netlist file: its text, and whether its `.blif` extension
/// selects the BLIF reader over ISCAS `.bench`.
pub(crate) fn read_netlist(path: &str) -> Result<(String, bool), String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let as_blif = Path::new(path)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("blif"));
    Ok((text, as_blif))
}

/// Parses netlist source text with the reader `as_blif` selects;
/// `origin` names the source in error messages.
pub(crate) fn parse_design(text: &str, as_blif: bool, origin: &str) -> Result<Design, String> {
    let parsed = if as_blif {
        blif::parse(text)
    } else {
        bench::parse(text)
    };
    parsed.map_err(|e| format!("{origin}: {e}"))
}

/// All of a figure's tables rendered as concatenated CSV.
#[must_use]
pub fn csv_of(figure: &FigureOutput) -> String {
    figure.tables.iter().map(Table::to_csv).collect()
}

/// Renders one bound report per ε across the pool — the exact text the
/// CLI prints below the profile line. Grid order is preserved, so the
/// output never depends on the worker count.
fn render_reports(
    pool: &ThreadPool,
    profile: &CircuitProfile,
    epsilons: &[f64],
    delta: f64,
) -> Result<String, String> {
    let reports = try_grid_map(pool, epsilons, |&eps| {
        BoundReport::evaluate(profile, eps, delta).map_err(|e| e.to_string())
    })?;
    let mut out = String::new();
    for (&eps, r) in epsilons.iter().zip(&reports) {
        let _ = writeln!(out, "\nbounds at eps = {eps}, delta = {delta}:");
        let _ = writeln!(
            out,
            "  size        >= {:.4}x  ({:.1} added gates)",
            r.size_factor, r.redundancy_gates
        );
        let _ = writeln!(
            out,
            "  energy      >= {:.4}x  (switching-only: {:.4}x)",
            r.total_energy_factor, r.switching_energy_factor
        );
        let _ = writeln!(
            out,
            "  leakage/switching ratio: {:.4}x",
            r.leakage_ratio_factor
        );
        match r.depth_bound {
            DepthBound::Bounded(d) => {
                let _ = writeln!(out, "  depth       >= {d:.2} levels");
            }
            DepthBound::NoKnownBound => {
                let _ = writeln!(out, "  depth       : no known bound in this regime");
            }
            DepthBound::Infeasible { max_inputs } => {
                let _ = writeln!(
                    out,
                    "  INFEASIBLE  : reliable computation impossible beyond {max_inputs:.1} inputs"
                );
            }
        }
        match (
            r.delay_factor,
            r.average_power_factor,
            r.energy_delay_factor,
        ) {
            (Some(d), Some(p), Some(e)) => {
                let _ = writeln!(
                    out,
                    "  delay       >= {d:.4}x   power >= {p:.4}x   EDP >= {e:.4}x"
                );
            }
            _ => {
                let _ = writeln!(out, "  delay/power/EDP: not defined (xi^2 <= 1/k)");
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_flags;
    use crate::requests::BoundRequest;

    fn engine() -> Engine {
        Engine::new(ThreadPool::serial(), None)
    }

    fn bound_request() -> BoundRequest {
        let args: Vec<String> = [
            "--size",
            "21",
            "--sensitivity",
            "10",
            "--activity",
            "0.5",
            "--fanin",
            "3",
            "--eps",
            "0.01",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let (pos, flags) = parse_flags(&args, &BoundRequest::FLAGS).unwrap();
        BoundRequest::from_parts(&pos, &flags).unwrap()
    }

    #[test]
    fn bound_text_has_the_cli_shape() {
        let out = engine().bound(&bound_request()).unwrap();
        assert!(out.starts_with("profile: "), "out: {out}");
        assert!(out.contains("\nbounds at eps = 0.01, delta = 0.01:\n"));
        assert!(out.contains("size        >= "));
        assert!(out.ends_with('\n'));
    }

    #[test]
    fn bound_text_is_pool_invariant() {
        let serial = engine().bound(&bound_request()).unwrap();
        let parallel = Engine::new(ThreadPool::new(4).unwrap(), None)
            .bound(&bound_request())
            .unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn profile_replays_identically_and_registers_once() {
        let dir = std::env::temp_dir().join("nanobound_service_engine_profile");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("xor2.bench");
        fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
        let request = ProfileRequest {
            path: path.to_str().unwrap().to_owned(),
            eps: vec![0.05],
            delta: 0.01,
            frames: 4,
            patterns: 2_000,
            leak: 0.5,
        };
        let engine = engine();
        let first = engine.profile(&request).unwrap();
        let second = engine.profile(&request).unwrap();
        assert_eq!(first, second);
        assert_eq!(engine.designs.len(), 1, "design parsed once");
        assert_eq!(engine.profiled.len(), 1, "netlist profiled once");
        assert!(first.contains("profile: "));
        assert!(first.contains("eps = 0.05"));
        // A content change under the same path is a different design.
        fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n").unwrap();
        let changed = engine.profile(&request).unwrap();
        assert_ne!(first, changed);
        assert_eq!(engine.designs.len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn program_registry_shares_compilations_across_configs() {
        let dir = std::env::temp_dir().join("nanobound_service_engine_programs");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("maj.bench");
        fs::write(
            &path,
            "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = MAJ(a, b, c)\n",
        )
        .unwrap();
        let request = |patterns: usize| ProfileRequest {
            path: path.to_str().unwrap().to_owned(),
            eps: vec![0.01],
            delta: 0.01,
            frames: 4,
            patterns,
            leak: 0.5,
        };
        let engine = engine();
        engine.profile(&request(2_000)).unwrap();
        assert_eq!(engine.programs().len(), 1, "first profile compiles once");
        // A different measurement config re-measures the same mapped
        // structure: new profile registry entry, same compiled program.
        engine.profile(&request(3_000)).unwrap();
        assert_eq!(engine.profiled.len(), 2);
        assert_eq!(
            engine.programs().len(),
            1,
            "structure shared, not recompiled"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_report_folds_in_every_registry() {
        let dir = std::env::temp_dir().join("nanobound_service_engine_report");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("xor2.bench");
        fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
        let cache_dir = dir.join("cache");
        let engine = Engine::new(
            ThreadPool::serial(),
            Some(ShardCache::open(&cache_dir).unwrap()),
        );
        let request = ProfileRequest {
            path: path.to_str().unwrap().to_owned(),
            eps: vec![0.05],
            delta: 0.01,
            frames: 4,
            patterns: 2_000,
            leak: 0.5,
        };
        engine.profile(&request).unwrap();
        let report = engine.cache_report();
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 3, "report: {report}");
        assert!(
            lines.iter().all(|l| l.starts_with("cache ")),
            "report: {report}"
        );
        assert!(lines[0].contains(&cache_dir.display().to_string()));
        assert!(lines[1].starts_with("cache programs: "), "report: {report}");
        assert!(lines[2].starts_with("cache profiles: "), "report: {report}");
        // The profile ran one cold measurement of each layer.
        assert!(
            lines[2].contains("0 activity reused (1 measured)"),
            "report: {report}"
        );
        // Without a cache the report still covers the program registry.
        let bare = engine_no_cache_report();
        assert_eq!(bare.lines().count(), 1, "report: {bare}");
        assert!(bare.starts_with("cache programs: "));
        fs::remove_dir_all(&dir).unwrap();
    }

    fn engine_no_cache_report() -> String {
        engine().cache_report()
    }

    #[test]
    fn figure_replay_is_memoized_and_identical() {
        let engine = engine();
        let first = engine.figure_csv(FigureId::Fig2).unwrap();
        let second = engine.figure_csv(FigureId::Fig2).unwrap();
        assert_eq!(first, second);
        assert!(first.starts_with("sw(y),"), "csv: {first}");
    }

    #[test]
    fn registries_never_exceed_the_cap() {
        let registry: Registry<Fingerprint, usize> = Registry::new();
        for i in 0..REGISTRY_LIMIT * 2 + 3 {
            let mut builder = FingerprintBuilder::new("bound-test");
            builder.push_usize(i);
            registry
                .get_or_try_insert(builder.finish(), || Ok(i))
                .unwrap();
            assert!(registry.len() <= REGISTRY_LIMIT, "cap exceeded at {i}");
        }
        assert!(registry.len() > 0);
    }

    #[test]
    fn flush_keeps_in_flight_slots() {
        use std::sync::mpsc;
        let registry: Registry<usize, usize> = Registry::new();
        for i in 0..REGISTRY_LIMIT - 1 {
            registry.get_or_try_insert(i, || Ok(i)).unwrap();
        }
        let held = REGISTRY_LIMIT;
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let registry = &registry;
        std::thread::scope(|scope| {
            let holder = scope.spawn(move || {
                registry.get_or_try_insert(held, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    Ok(7)
                })
            });
            started_rx.recv().unwrap();
            // The registry is now full: this insert triggers the flush.
            registry.get_or_try_insert(held + 1, || Ok(0)).unwrap();
            let pending = matches!(
                registry.slots.lock().unwrap().get(&held),
                Some(Slot::Pending)
            );
            release_tx.send(()).unwrap();
            assert_eq!(*holder.join().unwrap().unwrap(), 7);
            assert!(pending, "the flush dropped an in-flight slot");
        });
        assert_eq!(registry.len(), 2, "only the two new keys stay");
    }

    #[test]
    fn concurrent_requests_for_one_key_compute_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let registry: Registry<u8, usize> = Registry::new();
        let computed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let value = registry
                        .get_or_try_insert(7, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            // Widen the window in which latecomers must
                            // block on the Pending slot.
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            Ok(42)
                        })
                        .unwrap();
                    assert_eq!(*value, 42);
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn failed_computations_are_not_memoized() {
        let registry: Registry<u8, usize> = Registry::new();
        let err = registry
            .get_or_try_insert(1, || Err("boom".to_owned()))
            .unwrap_err();
        assert_eq!(err, "boom");
        let value = registry.get_or_try_insert(1, || Ok(5)).unwrap();
        assert_eq!(*value, 5);
    }

    #[test]
    fn unreadable_file_is_the_cli_error() {
        let err = engine()
            .profile(&ProfileRequest {
                path: "/nonexistent/x.bench".to_owned(),
                eps: vec![0.01],
                delta: 0.01,
                frames: 4,
                patterns: 100,
                leak: 0.5,
            })
            .unwrap_err();
        assert!(
            err.starts_with("cannot read /nonexistent/x.bench:"),
            "{err}"
        );
    }
}
