//! Regenerates every figure and claim of the paper and writes the data
//! to `results/` as CSV (plus the ASCII charts to stdout).
//!
//! Run: `cargo run --release --example paper_figures`
//!
//! The CSV files match `nanobound figures` + `nanobound validate`
//! byte for byte; this example adds the charts and the measured suite
//! profiles behind Figures 7 and 8.

use std::fs;
use std::path::Path;

use nanobound::experiments::profiles::{profile_suite, ProfileConfig};
use nanobound::experiments::FigureOutput;
use nanobound::experiments::{fig2, fig3, fig4, fig5, fig6, fig7, fig8, headline, validation};
use nanobound::runner::Exec;

fn save(dir: &Path, fig: &FigureOutput) -> std::io::Result<()> {
    println!("{}", fig.render());
    for (i, table) in fig.tables.iter().enumerate() {
        let suffix = if fig.tables.len() > 1 {
            format!("_{i}")
        } else {
            String::new()
        };
        let path = dir.join(format!("{}{suffix}.csv", fig.id));
        fs::write(&path, table.to_csv())?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;

    // Serial, no stores. `Exec::new(ThreadPool::auto())` spreads the
    // work over every hardware thread and writes the same bytes.
    let exec = Exec::default();

    // Closed-form figures.
    save(dir, &fig2::generate(&exec)?)?;
    save(dir, &fig3::generate(&exec)?)?;
    save(dir, &fig4::generate(&exec)?)?;
    save(dir, &fig5::generate(&exec)?)?;
    save(dir, &fig6::generate(&exec)?)?;

    // Benchmark-driven figures share one profiling pass.
    let profiles = profile_suite(&exec, &ProfileConfig::default())?;
    println!("profiled {} benchmarks:", profiles.len());
    for p in &profiles {
        println!("  {}", p.profile);
    }
    println!();
    save(dir, &fig7::generate_from(&profiles)?)?;
    save(dir, &fig8::generate_from(&profiles)?)?;
    save(dir, &headline::generate_from(&profiles)?)?;

    // Monte-Carlo validation (slowest part).
    for fig in validation::generate(&exec)? {
        save(dir, &fig)?;
    }
    println!("\nall figures regenerated into {}", dir.display());
    Ok(())
}
