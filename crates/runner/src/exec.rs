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
/// use nanobound_cache::ShardCache;
/// use nanobound_logic::{GateKind, Netlist};
/// use nanobound_runner::{monte_carlo, Exec, ThreadPool};
/// use nanobound_sim::NoisyConfig;
///
/// let mut nl = Netlist::new("nand2");
/// let (a, b) = (nl.add_input("a"), nl.add_input("b"));
/// let y = nl.add_gate(GateKind::Nand, &[a, b])?;
/// nl.add_output("y", y)?;
/// let config = NoisyConfig::new(0.01, 7)?;
/// let run = |exec: &Exec<'_>| monte_carlo(exec, &nl, &config, 4096, 3, 512);
///
/// let dir = std::env::temp_dir().join("nanobound-exec-doc");
/// # std::fs::remove_dir_all(&dir).ok();
/// let cache = ShardCache::open(&dir)?;
/// let stocked = Exec { cache: Some(&cache), ..Exec::new(ThreadPool::new(4)?) };
/// let reference = run(&Exec::default())?;
/// assert_eq!(run(&stocked)?, reference); // cold: computes and stores 8 shards
/// assert_eq!(run(&stocked)?, reference); // warm: replays them
/// assert_eq!(cache.stats().hits, 8);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Exec<'a> {
    /// The workers shards and benchmarks are spread across.
    pub pool: ThreadPool,
    /// Monte-Carlo chunk tallies.
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
