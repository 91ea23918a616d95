//! The execution context every entry point takes.
//!
//! A computation in this workspace runs on up to four resources: the
//! worker pool, the shard result cache, the cross-run profile store and
//! the compiled-program cache. [`Exec`] carries all four, so each
//! concept has exactly one public entry point taking `&Exec` instead of
//! one function per combination of resources.

use nanobound_cache::{ProfileStore, ShardCache};
use nanobound_sim::ProgramCache;

use crate::pool::ThreadPool;

/// Where a computation runs and which stores it may reuse.
///
/// No field changes a result. The pool changes wall-clock time only
/// (the runner's determinism contract), and every store replays
/// bit-exact values, so [`Exec::default`] and a fully stocked context
/// produce the same bytes.
///
/// # Examples
///
/// ```
/// use nanobound_runner::{grid_map_cached, Exec, ThreadPool};
///
/// let fp = nanobound_cache::FingerprintBuilder::new("doc").finish();
/// let xs = [1.0, 2.0, 3.0];
/// let serial = grid_map_cached(&Exec::default(), &xs, &fp, |x| x * x);
/// let parallel = grid_map_cached(&Exec::new(ThreadPool::new(4)?), &xs, &fp, |x| x * x);
/// assert_eq!(serial, parallel);
/// # Ok::<(), nanobound_runner::RunnerError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Exec<'a> {
    /// The workers shards, grid cells and benchmarks are spread across.
    pub pool: ThreadPool,
    /// Monte-Carlo chunk tallies and sweep cells.
    pub cache: Option<&'a ShardCache>,
    /// ε-independent activity and sensitivity measurements.
    pub profiles: Option<&'a ProfileStore>,
    /// Compiled simulation programs, shared by netlist structure.
    pub programs: Option<&'a ProgramCache>,
}

impl Exec<'_> {
    /// `pool` with no stores.
    #[must_use]
    pub fn new(pool: ThreadPool) -> Self {
        Exec {
            pool,
            cache: None,
            profiles: None,
            programs: None,
        }
    }
}

impl Default for Exec<'_> {
    /// The serial pool with no stores: the reference every other
    /// context reproduces byte for byte.
    fn default() -> Self {
        Exec::new(ThreadPool::serial())
    }
}
