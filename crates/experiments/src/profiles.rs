//! The measurement pipeline: benchmark → synthesis-lite → simulation →
//! [`CircuitProfile`].
//!
//! This is the workspace's stand-in for the paper's experimental flow
//! ("optimized in the SIS environment using script.rugged … mapped using
//! a generic library with a maximum fanin of three … average switching
//! activity obtained considering randomly generated inputs"):
//!
//! 1. [`nanobound_logic::transform::prepare`] optimizes and maps the
//!    netlist to the fanin budget;
//! 2. [`nanobound_sim::estimate_activity`] measures per-gate switching
//!    activity under random vectors;
//! 3. sensitivity comes from the generator's analytic hint when one
//!    exists, exact enumeration for ≤ 20 inputs, or sampling.

use std::sync::Arc;

use nanobound_cache::{CacheCodec, Decoder, Encoder, ProfileLayer, ProfileStore};
use nanobound_core::CircuitProfile;
use nanobound_gen::standard_suite;
use nanobound_logic::{transform, CircuitStats, Netlist};
use nanobound_runner::{experiment_builder, try_grid_map, Exec, ThreadPool};
use nanobound_sim::{
    estimate_activity, sensitivity, EngineKind, ProgramCache, SensitivityEstimate, SimProgram,
    SimScratch,
};

use crate::error::ExperimentError;

/// Where a profile's sensitivity value came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SensitivitySource {
    /// Analytic value supplied by the generator.
    Hint,
    /// Exhaustively verified by the simulator.
    Exact,
    /// Maximum over random samples — a lower bound.
    Sampled {
        /// Number of base assignments sampled.
        samples: usize,
    },
}

/// Pipeline configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfileConfig {
    /// Library fanin budget (the paper uses 3).
    pub max_fanin: usize,
    /// Random vectors for activity estimation.
    pub patterns: usize,
    /// Base assignments for sampled sensitivity (wide circuits without
    /// an analytic hint).
    pub sensitivity_samples: usize,
    /// Leakage share of the error-free energy budget (the paper assumes
    /// 0.5 for sub-90nm nodes).
    pub leak_share: f64,
    /// Seed for activity patterns and sensitivity sampling.
    pub seed: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            max_fanin: 3,
            patterns: 10_000,
            sensitivity_samples: 512,
            leak_share: 0.5,
            seed: 0xBEEF,
        }
    }
}

impl CacheCodec for SensitivitySource {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            SensitivitySource::Hint => enc.put_u64(0),
            SensitivitySource::Exact => enc.put_u64(1),
            SensitivitySource::Sampled { samples } => {
                enc.put_u64(2);
                enc.put_usize(*samples);
            }
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Option<Self> {
        match dec.take_u64()? {
            0 => Some(SensitivitySource::Hint),
            1 => Some(SensitivitySource::Exact),
            2 => Some(SensitivitySource::Sampled {
                samples: dec.take_usize()?,
            }),
            _ => None,
        }
    }
}

/// The persisted activity layer: one raw (pre-clamp)
/// `avg_gate_activity`. Keyed on the mapped structure, pattern count
/// and seed only — activity does not depend on ε, the leakage share,
/// the sensitivity sample budget or the hint, so none of those are in
/// its fingerprint and none of them force a re-measurement.
struct StoredActivity(f64);

impl CacheCodec for StoredActivity {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.0);
    }

    fn decode(dec: &mut Decoder<'_>) -> Option<Self> {
        let v = dec.take_f64()?;
        // Sanity-gate decoded values: anything outside the simulator's
        // codomain is a stale or colliding entry — recompute.
        (0.0..=1.0).contains(&v).then_some(StoredActivity(v))
    }
}

/// The persisted sensitivity layer: the measured value and its
/// provenance. Keyed on the mapped structure, sample budget and seed;
/// never consulted (or written) when an analytic hint short-circuits
/// the measurement, so a hinted entry can never shadow a measured one.
struct StoredSensitivity {
    value: f64,
    source: SensitivitySource,
}

impl CacheCodec for StoredSensitivity {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_f64(self.value);
        self.source.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Option<Self> {
        let s = StoredSensitivity {
            value: dec.take_f64()?,
            source: SensitivitySource::decode(dec)?,
        };
        (s.value.is_finite() && s.value >= 0.0 && s.source != SensitivitySource::Hint).then_some(s)
    }
}

/// A benchmark taken through the full measurement pipeline.
#[derive(Clone, Debug)]
pub struct ProfiledBenchmark {
    /// The benchmark name.
    pub name: String,
    /// The optimized, fanin-mapped netlist the statistics describe.
    pub mapped: Netlist,
    /// The parameters feeding the bounds.
    pub profile: CircuitProfile,
    /// Provenance of `profile.sensitivity`.
    pub sensitivity_source: SensitivitySource,
}

/// Profiles one netlist.
///
/// `sensitivity_hint` short-circuits measurement when the analytic value
/// is known (a [`Benchmark`](nanobound_gen::Benchmark)'s
/// `sensitivity_hint`).
///
/// The expensive measurements (activity simulation, sensitivity
/// estimation) are served from / written to `exec.profiles`, each under
/// its own ε-independent experiment fingerprint, and run on
/// `exec.programs`'s shared compiled tape when one is present. The
/// mapped netlist and its structural statistics are always recomputed —
/// `transform::prepare` is deterministic and cheap — so a store hit
/// reproduces the exact [`ProfiledBenchmark`] a cold run builds, floats
/// included (the store keeps their bit patterns). The two layers are
/// keyed independently:
///
/// - **activity** over the mapped structure + pattern count + seed;
/// - **sensitivity** over the mapped structure + sample budget + seed
///   (skipped entirely when an analytic hint is supplied).
///
/// Neither key contains ε, δ, the leakage share or the hint, so an
/// ε-grid sweep (or a hint change) reuses one measurement across the
/// whole grid — across runs and processes.
///
/// The measurement backend is resolved from `NANOBOUND_ENGINE`
/// ([`EngineKind::from_env`]); compiled and interpreted measurements
/// are bit-identical, so the profile (and everything derived from it —
/// figures, bounds, cache entries) does not depend on the choice. One
/// netlist is one task: `exec.pool` is not used.
///
/// # Errors
///
/// Propagates failures from the transforms and the simulator (for
/// netlists produced by `nanobound-gen` with valid parameters this does
/// not occur), plus a configuration error for an unrecognized
/// `NANOBOUND_ENGINE` value; store failures degrade to measurement.
pub fn profile_netlist(
    exec: &Exec<'_>,
    netlist: &Netlist,
    sensitivity_hint: Option<u32>,
    config: &ProfileConfig,
) -> Result<ProfiledBenchmark, ExperimentError> {
    let Exec {
        profiles, programs, ..
    } = *exec;
    // Resolve (and strictly validate) the engine before the store is
    // consulted: a typo'd NANOBOUND_ENGINE must be a hard error on warm
    // runs too, not only when a measurement is actually executed.
    let engine = EngineKind::from_env().map_err(ExperimentError::from)?;
    let mapped = transform::prepare(netlist, config.max_fanin)?;
    let stats = CircuitStats::of(&mapped);

    // The simulation backend is built lazily — a fully warm lookup
    // compiles nothing — and at most once, so activity and sensitivity
    // share one compiled tape exactly as the fused path did.
    let mut backend = None;
    let backend_for = |mapped: &Netlist| -> Backend {
        match engine {
            EngineKind::Interp => Backend::Interp,
            EngineKind::Compiled => {
                let program = match programs {
                    Some(cache) => cache.get_or_compile(mapped),
                    None => Arc::new(SimProgram::compile(mapped)),
                };
                let scratch = program.scratch();
                Backend::Compiled { program, scratch }
            }
        }
    };

    let activity_key = profiles.map(|_| {
        let mut builder = experiment_builder("profile-activity", &mapped);
        builder.push_usize(config.patterns);
        builder.push_u64(config.seed);
        builder.finish()
    });
    // Pin the measurement key while it is being read back or produced,
    // so a concurrent GC sweep over the shared root protects it.
    let _activity_pin = match (profiles, &activity_key) {
        (Some(store), Some(fp)) => Some(store.pin(*fp)),
        _ => None,
    };
    let stored = match (profiles, &activity_key) {
        (Some(store), Some(fp)) => store.load::<StoredActivity>(ProfileLayer::Activity, fp),
        _ => None,
    };
    let activity = match stored {
        Some(StoredActivity(v)) => v,
        None => {
            let v = measure_activity(
                backend.get_or_insert_with(|| backend_for(&mapped)),
                &mapped,
                config,
            )?;
            if let (Some(store), Some(fp)) = (profiles, &activity_key) {
                store.store(fp, &StoredActivity(v));
            }
            v
        }
    };

    let (sensitivity, source) = match sensitivity_hint {
        Some(s) => (f64::from(s), SensitivitySource::Hint),
        None => {
            let sensitivity_key = profiles.map(|_| {
                let mut builder = experiment_builder("profile-sensitivity", &mapped);
                builder.push_usize(config.sensitivity_samples);
                builder.push_u64(config.seed);
                builder.finish()
            });
            let _sensitivity_pin = match (profiles, &sensitivity_key) {
                (Some(store), Some(fp)) => Some(store.pin(*fp)),
                _ => None,
            };
            let stored = match (profiles, &sensitivity_key) {
                (Some(store), Some(fp)) => {
                    store.load::<StoredSensitivity>(ProfileLayer::Sensitivity, fp)
                }
                _ => None,
            };
            match stored {
                Some(s) => (s.value, s.source),
                None => {
                    let (value, source) = measure_sensitivity(
                        backend.get_or_insert_with(|| backend_for(&mapped)),
                        &mapped,
                        config,
                    )?;
                    if let (Some(store), Some(fp)) = (profiles, &sensitivity_key) {
                        store.store(fp, &StoredSensitivity { value, source });
                    }
                    (value, source)
                }
            }
        }
    };

    let profile = CircuitProfile {
        name: netlist.name().to_owned(),
        inputs: stats.num_inputs,
        outputs: stats.num_outputs,
        size: stats.num_gates,
        depth: stats.depth,
        sensitivity,
        // Clamp into the open interval the bounds require; a measured 0
        // or 1 only occurs for degenerate circuits.
        activity: activity.clamp(1e-6, 1.0 - 1e-6),
        fanin: (stats.max_fanin.max(2)) as f64,
        leak_share: config.leak_share,
    };
    Ok(ProfiledBenchmark {
        name: netlist.name().to_owned(),
        mapped,
        profile,
        sensitivity_source: source,
    })
}

/// A resolved simulation backend, built at most once per profile call.
/// Both variants are bit-identical (pinned by
/// `crates/sim/tests/compiled.rs` and the ci.sh engine gate), so no
/// stored measurement depends on the choice.
enum Backend {
    Interp,
    Compiled {
        program: Arc<SimProgram>,
        scratch: SimScratch,
    },
}

/// Measures the raw (pre-clamp) average gate activity.
fn measure_activity(
    backend: &mut Backend,
    mapped: &Netlist,
    config: &ProfileConfig,
) -> Result<f64, ExperimentError> {
    Ok(match backend {
        Backend::Interp => {
            estimate_activity(mapped, config.patterns, config.seed)?.avg_gate_activity
        }
        Backend::Compiled { program, scratch } => {
            program
                .estimate_activity(scratch, config.patterns, config.seed)?
                .avg_gate_activity
        }
    })
}

/// Measures Boolean sensitivity and classifies its provenance.
fn measure_sensitivity(
    backend: &mut Backend,
    mapped: &Netlist,
    config: &ProfileConfig,
) -> Result<(f64, SensitivitySource), ExperimentError> {
    let est: SensitivityEstimate = match backend {
        Backend::Interp => sensitivity::estimate(mapped, config.sensitivity_samples, config.seed)?,
        Backend::Compiled { program, scratch } => {
            sensitivity::estimate_with(program, scratch, config.sensitivity_samples, config.seed)?
        }
    };
    let source = if est.is_exact() {
        SensitivitySource::Exact
    } else {
        SensitivitySource::Sampled {
            samples: config.sensitivity_samples,
        }
    };
    Ok((f64::from(est.value()), source))
}

/// Profiles the paper's whole Section-6 suite, one benchmark per
/// parallel task on `exec.pool`, each through [`profile_netlist`] with
/// its generator's sensitivity hint.
///
/// Each benchmark's measurement is deterministic in `config.seed` and
/// benchmarks share no state, so the profile list is byte-identical for
/// every worker count and every store state. The suite is the dominant
/// cost of a `figures` run, so this is where a warm store pays off
/// most.
///
/// # Errors
///
/// Same as [`profile_netlist`].
///
/// # Examples
///
/// ```no_run
/// use nanobound_experiments::profiles::{profile_suite, ProfileConfig};
/// use nanobound_runner::Exec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let profiles = profile_suite(&Exec::default(), &ProfileConfig::default())?;
/// for p in &profiles {
///     println!("{}", p.profile);
/// }
/// # Ok(())
/// # }
/// ```
pub fn profile_suite(
    exec: &Exec<'_>,
    config: &ProfileConfig,
) -> Result<Vec<ProfiledBenchmark>, ExperimentError> {
    let suite = standard_suite()?;
    try_grid_map(&exec.pool, &suite, |b| {
        profile_netlist(exec, &b.netlist, b.sensitivity_hint, config)
    })
}

/// [`profile_suite`] on `pool` with no stores; `perfbench/probe` links it.
#[doc(hidden)]
pub fn profile_suite_with(
    pool: &ThreadPool,
    config: &ProfileConfig,
) -> Result<Vec<ProfiledBenchmark>, ExperimentError> {
    profile_suite(&Exec::new(*pool), config)
}

/// [`profile_suite`] with the given stores; `perfbench/probe` links it.
#[doc(hidden)]
pub fn profile_suite_cached_programs(
    pool: &ThreadPool,
    config: &ProfileConfig,
    profiles: Option<&ProfileStore>,
    programs: Option<&ProgramCache>,
) -> Result<Vec<ProfiledBenchmark>, ExperimentError> {
    profile_suite(
        &Exec {
            profiles,
            programs,
            ..Exec::new(*pool)
        },
        config,
    )
}

/// The Section-6 suite's raw netlists, in suite order — the set
/// `nanobound lint --suite` analyzes, and exactly the structures the
/// profiling pipeline above starts from.
///
/// # Errors
///
/// Propagates suite-generation failures.
pub fn suite_netlists() -> Result<Vec<Netlist>, ExperimentError> {
    Ok(standard_suite()?.into_iter().map(|b| b.netlist).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobound_gen::{iscas, parity};

    fn quick() -> ProfileConfig {
        ProfileConfig {
            patterns: 2_000,
            sensitivity_samples: 128,
            ..Default::default()
        }
    }

    #[test]
    fn parity_profile_matches_theory() {
        let tree = parity::parity_tree(10, 3).unwrap();
        let p = profile_netlist(&Exec::default(), &tree, None, &quick()).unwrap();
        assert_eq!(p.profile.inputs, 10);
        assert_eq!(p.profile.sensitivity, 10.0);
        assert_eq!(p.sensitivity_source, SensitivitySource::Exact);
        // XOR trees of balanced inputs switch near 0.5.
        assert!(
            (p.profile.activity - 0.5).abs() < 0.05,
            "sw0 {}",
            p.profile.activity
        );
        assert!(p.profile.fanin <= 3.0);
        p.profile.validate().unwrap();
    }

    #[test]
    fn hint_bypasses_measurement() {
        let tree = parity::parity_tree(10, 3).unwrap();
        let p = profile_netlist(&Exec::default(), &tree, Some(10), &quick()).unwrap();
        assert_eq!(p.sensitivity_source, SensitivitySource::Hint);
        assert_eq!(p.profile.sensitivity, 10.0);
    }

    #[test]
    fn wide_circuit_gets_sampled_sensitivity() {
        let c432 = iscas::c432_analog().unwrap(); // 40 inputs
        let p = profile_netlist(&Exec::default(), &c432, None, &quick()).unwrap();
        assert!(matches!(
            p.sensitivity_source,
            SensitivitySource::Sampled { samples: 128 }
        ));
        assert!(p.profile.sensitivity >= 1.0);
        assert!(p.profile.sensitivity <= 40.0);
    }

    #[test]
    fn control_logic_has_low_activity() {
        let c432 = iscas::c432_analog().unwrap();
        let p = profile_netlist(&Exec::default(), &c432, None, &quick()).unwrap();
        // Priority/inhibition chains idle most of the time.
        assert!(p.profile.activity < 0.4, "sw0 {}", p.profile.activity);
    }

    #[test]
    fn mapping_respects_fanin_budget() {
        let c6288 = iscas::c6288_analog().unwrap();
        let p = profile_netlist(&Exec::default(), &c6288, Some(32), &quick()).unwrap();
        let stats = CircuitStats::of(&p.mapped);
        assert!(stats.max_fanin <= 3);
        assert!(
            p.profile.size > 500,
            "multiplier should be large, got {}",
            p.profile.size
        );
    }

    #[test]
    fn profiles_are_deterministic() {
        let tree = parity::parity_tree(8, 2).unwrap();
        let a = profile_netlist(&Exec::default(), &tree, None, &quick()).unwrap();
        let b = profile_netlist(&Exec::default(), &tree, None, &quick()).unwrap();
        assert_eq!(a.profile, b.profile);
    }

    #[test]
    fn cached_profile_is_identical_to_measured() {
        let dir = std::env::temp_dir().join("nanobound_profiles_cache");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ProfileStore::open(&dir).unwrap();
        let config = quick();
        let tree = parity::parity_tree(8, 2).unwrap();
        let stored = Exec {
            profiles: Some(&store),
            ..Exec::default()
        };
        let plain = profile_netlist(&Exec::default(), &tree, None, &config).unwrap();
        let cold = profile_netlist(&stored, &tree, None, &config).unwrap();
        let warm = profile_netlist(&stored, &tree, None, &config).unwrap();
        for p in [&cold, &warm] {
            assert_eq!(p.profile, plain.profile);
            assert_eq!(p.sensitivity_source, plain.sensitivity_source);
            assert_eq!(p.mapped, plain.mapped);
        }
        assert_eq!(store.layer_stats(ProfileLayer::Activity).reused, 1);
        assert_eq!(store.layer_stats(ProfileLayer::Sensitivity).reused, 1);
        // A different seed is a different experiment: re-measured, not a
        // stale hit.
        let other = ProfileConfig {
            seed: 0xD00D,
            ..config
        };
        let _ = profile_netlist(&stored, &tree, None, &other).unwrap();
        assert_eq!(store.layer_stats(ProfileLayer::Activity).measured, 2);
        assert_eq!(store.layer_stats(ProfileLayer::Sensitivity).measured, 2);
        // A hint bypasses the sensitivity layer but the activity layer
        // still hits: the hint is deliberately not part of its identity.
        let hinted = profile_netlist(&stored, &tree, Some(8), &config).unwrap();
        assert_eq!(hinted.sensitivity_source, SensitivitySource::Hint);
        assert_eq!(store.layer_stats(ProfileLayer::Activity).reused, 2);
        assert_eq!(store.layer_stats(ProfileLayer::Sensitivity).reused, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn activity_layer_ignores_sensitivity_and_leak_parameters() {
        // An ε-grid sweep varies eps/δ/leak and sometimes the sample
        // budget — none of which touch the activity measurement, so one
        // stored activity entry must serve every such variation.
        let dir = std::env::temp_dir().join("nanobound_profiles_eps_grid");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ProfileStore::open(&dir).unwrap();
        let config = quick();
        let tree = parity::parity_tree(8, 2).unwrap();
        let stored = Exec {
            profiles: Some(&store),
            ..Exec::default()
        };
        let base = profile_netlist(&stored, &tree, None, &config).unwrap();
        let varied = ProfileConfig {
            sensitivity_samples: 64,
            leak_share: 0.3,
            ..config
        };
        let swept = profile_netlist(&stored, &tree, None, &varied).unwrap();
        assert_eq!(swept.profile.activity, base.profile.activity);
        assert_eq!(
            store.layer_stats(ProfileLayer::Activity),
            nanobound_cache::ProfileLayerStats {
                reused: 1,
                measured: 1
            },
            "one activity measurement serves the whole grid"
        );
        // The sample budget *is* part of the sensitivity identity.
        assert_eq!(
            store.layer_stats(ProfileLayer::Sensitivity),
            nanobound_cache::ProfileLayerStats {
                reused: 0,
                measured: 2
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_suite_matches_serial() {
        let config = quick();
        let serial = profile_suite(&Exec::default(), &config).unwrap();
        let par = profile_suite(&Exec::new(ThreadPool::new(4).unwrap()), &config).unwrap();
        assert_eq!(serial.len(), par.len());
        for (s, p) in serial.iter().zip(&par) {
            assert_eq!(s.profile, p.profile, "{}", s.name);
            assert_eq!(s.sensitivity_source, p.sensitivity_source);
        }
    }
}
