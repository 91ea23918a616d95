//! Request-shaped entry points over the figure generators.
//!
//! The one-shot CLI and the long-running `nanobound serve` engine both
//! need to dispatch "regenerate figure X" by name. This module is the
//! single place where that name → generator mapping lives, so the two
//! front ends cannot drift: a [`FigureId`] parses from the user-facing
//! identifier (`"fig2"` … `"fig8"`, `"headline"`), and
//! [`generate_figure`] runs the matching generator in the caller's
//! execution context.
//!
//! Figures 7, 8 and the headline claims consume measured benchmark
//! profiles instead of running sweeps; callers that serve multiple
//! requests should compute [`profile_suite`] once and reuse it —
//! [`FigureId::needs_profiles`] says which figures want it.
//!
//! [`profile_suite`]: crate::profiles::profile_suite

use nanobound_cache::ShardCache;
use nanobound_runner::{Exec, ThreadPool};

use crate::profiles::ProfiledBenchmark;
use crate::{fig2, fig3, fig4, fig5, fig6, fig7, fig8, headline};
use crate::{ExperimentError, FigureOutput};

/// One regenerable paper artifact, by user-facing name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FigureId {
    /// Figure 2 — noisy switching activity.
    Fig2,
    /// Figure 3 — minimum redundancy.
    Fig3,
    /// Figure 4 — leakage/switching ratio.
    Fig4,
    /// Figure 5 — delay and energy×delay.
    Fig5,
    /// Figure 6 — average power.
    Fig6,
    /// Figure 7 — per-benchmark energy/delay.
    Fig7,
    /// Figure 8 — per-benchmark power/EDP.
    Fig8,
    /// Abstract & Section 6 headline claims.
    Headline,
}

impl FigureId {
    /// Every artifact, in the order `nanobound figures` emits them.
    pub const ALL: [FigureId; 8] = [
        FigureId::Fig2,
        FigureId::Fig3,
        FigureId::Fig4,
        FigureId::Fig5,
        FigureId::Fig6,
        FigureId::Fig7,
        FigureId::Fig8,
        FigureId::Headline,
    ];

    /// Parses the user-facing identifier (`"fig3"`, `"headline"`).
    #[must_use]
    pub fn parse(name: &str) -> Option<FigureId> {
        FigureId::ALL.into_iter().find(|id| id.name() == name)
    }

    /// The user-facing identifier; matches [`FigureOutput::id`] and the
    /// CSV file stem the CLI writes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            FigureId::Fig2 => "fig2",
            FigureId::Fig3 => "fig3",
            FigureId::Fig4 => "fig4",
            FigureId::Fig5 => "fig5",
            FigureId::Fig6 => "fig6",
            FigureId::Fig7 => "fig7",
            FigureId::Fig8 => "fig8",
            FigureId::Headline => "headline",
        }
    }

    /// `true` for the figures rendered from measured benchmark profiles
    /// (the caller must supply a profiled suite).
    #[must_use]
    pub fn needs_profiles(self) -> bool {
        matches!(self, FigureId::Fig7 | FigureId::Fig8 | FigureId::Headline)
    }
}

impl std::fmt::Display for FigureId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Regenerates one artifact by id in `exec` — the dispatch used by
/// both the `figures` subcommand and the `serve` engine, so the two
/// produce identical bytes by construction.
///
/// `profiles` is only consulted when [`FigureId::needs_profiles`] is
/// `true`; sweep figures ignore it, so callers can pass an empty slice
/// for them and skip profiling entirely.
///
/// # Errors
///
/// Propagates the underlying generator's failure (not expected with the
/// fixed paper parameters).
pub fn generate_figure(
    id: FigureId,
    exec: &Exec<'_>,
    profiles: &[ProfiledBenchmark],
) -> Result<FigureOutput, ExperimentError> {
    match id {
        FigureId::Fig2 => fig2::generate(exec),
        FigureId::Fig3 => fig3::generate(exec),
        FigureId::Fig4 => fig4::generate(exec),
        FigureId::Fig5 => fig5::generate(exec),
        FigureId::Fig6 => fig6::generate(exec),
        FigureId::Fig7 => fig7::generate_from(profiles),
        FigureId::Fig8 => fig8::generate_from(profiles),
        FigureId::Headline => headline::generate_from(profiles),
    }
}

/// [`generate_figure`] with the given cache; `perfbench/probe` links it.
#[doc(hidden)]
pub fn generate_figure_cached(
    id: FigureId,
    pool: &ThreadPool,
    cache: Option<&ShardCache>,
    profiles: &[ProfiledBenchmark],
) -> Result<FigureOutput, ExperimentError> {
    generate_figure(
        id,
        &Exec {
            cache,
            ..Exec::new(*pool)
        },
        profiles,
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Runs `run` three ways — serially without stores, on four workers over
    /// fresh stores, and on the same stores again warm — and asserts that
    /// every CSV is byte-identical and that the warm pass misses nothing.
    /// `label` names the scratch directory, so tests running concurrently
    /// never share a cache.
    pub(crate) fn assert_identical_across_pools_and_cache_state(
        label: &str,
        run: impl Fn(&Exec<'_>) -> Result<Vec<FigureOutput>, ExperimentError>,
    ) {
        use nanobound_cache::ProfileStore;
        use nanobound_report::Table;
        use nanobound_sim::ProgramCache;

        let csvs = |exec: &Exec<'_>| -> Vec<String> {
            run(exec)
                .unwrap()
                .iter()
                .map(|fig| fig.tables.iter().map(Table::to_csv).collect())
                .collect()
        };

        let dir = std::env::temp_dir().join(format!("nanobound_determinism_{label}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = ShardCache::open(&dir).unwrap();
        let profiles = ProfileStore::open(&dir).unwrap();
        let programs = ProgramCache::new();
        let stocked = Exec {
            pool: ThreadPool::new(4).unwrap(),
            cache: Some(&cache),
            profiles: Some(&profiles),
            programs: Some(&programs),
        };

        let reference = csvs(&Exec::default());
        assert!(!reference.is_empty(), "{label}: no tables");
        assert_eq!(csvs(&stocked), reference, "{label}: cold, four workers");
        let cold = cache.stats();
        assert!(cold.writes > 0, "{label}: the cold pass stored nothing");
        assert_eq!(csvs(&stocked), reference, "{label}: warm, four workers");
        let warm = cache.stats();
        assert_eq!(warm.misses, cold.misses, "{label}: the warm pass missed");
        assert_eq!(
            warm.writes, cold.writes,
            "{label}: the warm pass recomputed"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// [`assert_identical_across_pools_and_cache_state`] for one sweep
    /// figure, run through the [`generate_figure`] dispatch.
    pub(crate) fn assert_sweep_identical_across_pools_and_cache_state(id: FigureId) {
        assert!(!id.needs_profiles(), "{} is not a sweep", id.name());
        assert_identical_across_pools_and_cache_state(id.name(), |exec| {
            generate_figure(id, exec, &[]).map(|fig| vec![fig])
        });
    }

    #[test]
    fn every_id_parses_its_own_name() {
        for id in FigureId::ALL {
            assert_eq!(FigureId::parse(id.name()), Some(id));
        }
        assert_eq!(FigureId::parse("fig9"), None);
        assert_eq!(FigureId::parse("Fig2"), None);
        assert_eq!(FigureId::parse(""), None);
    }

    #[test]
    fn dispatch_matches_the_direct_generators_for_sweeps() {
        let exec = Exec::default();
        for id in [FigureId::Fig2, FigureId::Fig4] {
            let via_request = generate_figure(id, &exec, &[]).unwrap();
            assert_eq!(via_request.id, id.name());
        }
        let direct = fig3::generate(&exec).unwrap();
        let routed = generate_figure(FigureId::Fig3, &exec, &[]).unwrap();
        assert_eq!(direct.tables[0].to_csv(), routed.tables[0].to_csv());
    }

    #[test]
    fn profile_figures_declare_the_dependency() {
        for id in FigureId::ALL {
            assert_eq!(
                id.needs_profiles(),
                matches!(id, FigureId::Fig7 | FigureId::Fig8 | FigureId::Headline),
            );
        }
    }
}
