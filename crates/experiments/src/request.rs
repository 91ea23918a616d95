//! Request-shaped entry points over the figure generators.
//!
//! The one-shot CLI and the long-running `nanobound serve` engine both
//! need to dispatch "regenerate figure X" by name. This module is the
//! single place where that name → generator mapping lives, so the two
//! front ends cannot drift: a [`FigureId`] parses from the user-facing
//! identifier (`"fig2"` … `"fig8"`, `"headline"`), and
//! [`generate_figure`] runs the matching generator.
//!
//! Figures 2–6 are closed-form sweeps and need nothing. Figures 7, 8
//! and the headline claims consume measured benchmark profiles instead;
//! callers that serve multiple requests should compute
//! [`profile_suite`] once and reuse it — [`FigureId::needs_profiles`]
//! says which figures want it.
//!
//! [`profile_suite`]: crate::profiles::profile_suite

use nanobound_cache::ShardCache;
use nanobound_runner::ThreadPool;

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

/// Regenerates one artifact by id — the dispatch used by both the
/// `figures` subcommand and the `serve` engine, so the two produce
/// identical bytes by construction.
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
    profiles: &[ProfiledBenchmark],
) -> Result<FigureOutput, ExperimentError> {
    match id {
        FigureId::Fig2 => fig2::generate(),
        FigureId::Fig3 => fig3::generate(),
        FigureId::Fig4 => fig4::generate(),
        FigureId::Fig5 => fig5::generate(),
        FigureId::Fig6 => fig6::generate(),
        FigureId::Fig7 => fig7::generate_from(profiles),
        FigureId::Fig8 => fig8::generate_from(profiles),
        FigureId::Headline => headline::generate_from(profiles),
    }
}

/// [`generate_figure`], ignoring `_pool` and `_cache`;
/// `perfbench/probe` links it.
#[doc(hidden)]
pub fn generate_figure_cached(
    id: FigureId,
    _pool: &ThreadPool,
    _cache: Option<&ShardCache>,
    profiles: &[ProfiledBenchmark],
) -> Result<FigureOutput, ExperimentError> {
    generate_figure(id, profiles)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for id in [FigureId::Fig2, FigureId::Fig4] {
            let via_request = generate_figure(id, &[]).unwrap();
            assert_eq!(via_request.id, id.name());
        }
        let direct = fig3::generate().unwrap();
        let routed = generate_figure(FigureId::Fig3, &[]).unwrap();
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
