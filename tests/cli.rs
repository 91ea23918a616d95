//! End-to-end tests of the `nanobound` command-line binary.

use std::process::Command;

use nanobound::cache::FingerprintBuilder;
use nanobound::io::{blif, Design};
use nanobound::sim::netlist_fingerprint;

fn run(args: &[&str]) -> (bool, String, String) {
    run_with_env(args, &[])
}

fn run_with_env(args: &[&str], env: &[(&str, &str)]) -> (bool, String, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_nanobound"));
    command.args(args);
    // Tests must not inherit an ambient engine override (a developer
    // legitimately exporting the escape hatch would otherwise flip the
    // expected outputs); every test states its engine explicitly.
    command.env_remove("NANOBOUND_ENGINE");
    for (key, value) in env {
        command.env(key, value);
    }
    let out = command.output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn blif_write_keeps_clocks_through_a_round_trip() {
    // One latch in gateconvert's `to_blif` shape, with a data input
    // declared after the clock. The next state is one gate: the reader
    // resolves a gate's fanin covers last-first, so a written design of
    // several gates comes back in another node order.
    let text = ".model one\n.inputs i0\n.inputs a\n.clock clk\n.inputs b\n.outputs o0\n\
                .latch o0 i0\n.names i0 a b o0\n111 1\n.end\n";
    let design = blif::parse(text).expect("the shape parses");
    let written = blif::write(&design).expect("covers are narrow");
    let again = blif::parse(&written).expect("the written text parses");
    assert_eq!(again.clocks, ["clk"]);
    let inputs = |d: &Design| -> Vec<String> {
        let netlist = &d.netlist;
        netlist
            .inputs()
            .iter()
            .map(|&id| netlist.signal_name(id))
            .collect()
    };
    assert_eq!(inputs(&again), ["a", "clk", "b", "i0"]);
    assert_eq!(inputs(&again), inputs(&design));
    let fingerprint = |d: &Design| {
        let mut builder = FingerprintBuilder::new("blif round trip");
        netlist_fingerprint(&mut builder, &d.netlist);
        builder.finish()
    };
    assert_eq!(fingerprint(&again), fingerprint(&design));

    let dir = std::env::temp_dir().join("nanobound_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("one_latch.blif");
    std::fs::write(&path, &written).unwrap();
    let (ok, out, err) = run(&["lint", path.to_str().unwrap(), "--deny", "warnings"]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    assert!(!out.contains("NB004"), "{out}");
}

#[test]
fn help_prints_usage() {
    let (ok, _, err) = run(&["--help"]);
    assert!(ok);
    assert!(err.contains("USAGE"));
    assert!(err.contains("profile"));
}

#[test]
fn unknown_command_fails_with_message() {
    let (ok, _, err) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown command"));
}

#[test]
fn bounds_evaluates_explicit_parameters() {
    let (ok, out, err) = run(&[
        "bounds",
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
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("size        >= 1.10"), "out: {out}");
    assert!(out.contains("delay"));
}

#[test]
fn bounds_requires_mandatory_flags() {
    let (ok, _, err) = run(&["bounds", "--size", "10"]);
    assert!(!ok);
    assert!(err.contains("needs --size, --sensitivity"));
}

#[test]
fn profile_handles_combinational_bench_file() {
    let dir = std::env::temp_dir().join("nanobound_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("xor2.bench");
    std::fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
    let (ok, out, err) = run(&["profile", path.to_str().unwrap(), "--eps", "0.05"]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("profile:"), "out: {out}");
    assert!(out.contains("eps = 0.05"));
}

#[test]
fn profile_unrolls_sequential_designs() {
    let dir = std::env::temp_dir().join("nanobound_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("toggle.bench");
    std::fs::write(
        &path,
        "INPUT(en)\nOUTPUT(count)\nq = DFF(next)\nnext = XOR(q, en)\ncount = BUFF(q)\n",
    )
    .unwrap();
    let (ok, out, err) = run(&[
        "profile",
        path.to_str().unwrap(),
        "--frames",
        "3",
        "--eps",
        "0.01",
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("unrolling 3 time frames"), "out: {out}");
}

#[test]
fn profile_reports_parse_errors() {
    let dir = std::env::temp_dir().join("nanobound_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.bench");
    std::fs::write(&path, "OUTPUT(y)\ny = FROB(a)\n").unwrap();
    let (ok, _, err) = run(&["profile", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(err.contains("error"), "stderr: {err}");
}

#[test]
fn figures_writes_csv_files() {
    // `--jobs 2` exercises the flag on the figures path; byte-identity
    // across worker counts is pinned by tests/figures_golden.rs, which
    // compares --jobs 1 and --jobs 5 runs against the committed goldens.
    let dir = std::env::temp_dir().join("nanobound_cli_test_figures");
    let _ = std::fs::remove_dir_all(&dir);
    let (ok, out, err) = run(&["figures", "--out", dir.to_str().unwrap(), "--jobs", "2"]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("wrote "), "out: {out}");
    let csvs = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "csv")
        })
        .count();
    assert!(csvs >= 8, "expected every figure as CSV, found {csvs}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Reads every CSV in a directory as name → bytes.
fn read_csvs(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.path().extension().is_some_and(|x| x == "csv"))
        .map(|e| {
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn warm_cache_figures_are_byte_identical_to_cold_and_uncached() {
    let base = std::env::temp_dir().join("nanobound_cli_cache");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let dir = |name: &str| base.join(name).to_str().unwrap().to_owned();
    let cache = dir("cache");

    let (ok, cold_out, err) = run(&["figures", "--out", &dir("cold"), "--cache-dir", &cache]);
    assert!(ok, "cold run failed: {err}");
    assert!(
        cold_out.contains("cache ") && cold_out.contains(" misses"),
        "missing cache summary: {cold_out}"
    );

    // The sweeps never touch the shard cache; what the warm run reuses
    // is the suite's profile measurements behind fig7, fig8 and headline.
    let (ok, warm_out, err) = run(&["figures", "--out", &dir("warm"), "--cache-dir", &cache]);
    assert!(ok, "warm run failed: {err}");
    let profiles = warm_out
        .lines()
        .find(|line| line.starts_with("cache profiles: "))
        .unwrap_or_else(|| panic!("missing profile summary: {warm_out}"));
    assert!(
        profiles.contains("activity reused (0 measured)")
            && profiles.contains("sensitivity reused (0 measured)"),
        "warm run re-measured profiles: {warm_out}"
    );

    let (ok, plain_out, err) = run(&["figures", "--out", &dir("plain"), "--no-cache"]);
    assert!(ok, "--no-cache run failed: {err}");
    assert!(
        !plain_out.contains("cache "),
        "--no-cache still printed a cache summary: {plain_out}"
    );

    let cold = read_csvs(&base.join("cold"));
    assert!(cold.len() >= 8, "figure set incomplete: {}", cold.len());
    assert_eq!(cold, read_csvs(&base.join("warm")), "warm != cold");
    assert_eq!(cold, read_csvs(&base.join("plain")), "--no-cache != cold");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn sweep_figures_leave_the_shard_cache_untouched() {
    let base = std::env::temp_dir().join("nanobound_cli_sweep_cache");
    let _ = std::fs::remove_dir_all(&base);
    let (out_dir, cache) = (base.join("out"), base.join("cache"));
    let mut args = vec!["figures"];
    for id in ["fig2", "fig3", "fig4", "fig5", "fig6"] {
        args.extend(["--only", id]);
    }
    args.extend(["--out", out_dir.to_str().unwrap()]);
    args.extend(["--cache-dir", cache.to_str().unwrap()]);
    let (ok, out, err) = run(&args);
    assert!(ok, "stderr: {err}");
    assert!(
        out.contains(&format!(
            "cache {}: 0 hits, 0 misses, 0 entries written\n",
            cache.display()
        )),
        "out: {out}"
    );
    let fingerprint_dirs = std::fs::read_dir(&cache)
        .unwrap()
        .filter(|entry| entry.as_ref().unwrap().file_type().unwrap().is_dir())
        .count();
    assert_eq!(fingerprint_dirs, 0, "sweep cells were cached");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn profile_accepts_cache_flags_and_reports_traffic() {
    let base = std::env::temp_dir().join("nanobound_cli_profile_cache");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let path = base.join("xor2.bench");
    std::fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
    let cache = base.join("cache").to_str().unwrap().to_owned();
    let args = [
        "profile",
        path.to_str().unwrap(),
        "--eps",
        "0.05",
        "--cache-dir",
        &cache,
    ];
    let (ok, cold, err) = run(&args);
    assert!(ok, "stderr: {err}");
    assert!(
        cold.contains("0 activity reused (1 measured), 0 sensitivity reused (1 measured)"),
        "out: {cold}"
    );
    let (ok, warm, err) = run(&args);
    assert!(ok, "stderr: {err}");
    assert!(
        warm.contains("1 activity reused (0 measured), 1 sensitivity reused (0 measured)"),
        "out: {warm}"
    );
    // The report itself is identical; only the cache summary differs.
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.starts_with("cache "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&cold), strip(&warm));
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn unopenable_cache_dir_is_a_clean_error() {
    let base = std::env::temp_dir().join("nanobound_cli_cache_bad");
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let file = base.join("not_a_dir");
    std::fs::write(&file, b"occupied").unwrap();
    let (ok, _, err) = run(&[
        "figures",
        "--out",
        base.join("out").to_str().unwrap(),
        "--cache-dir",
        file.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(err.contains("--cache-dir"), "stderr: {err}");
    assert!(!err.contains("panicked"), "stderr: {err}");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn usage_documents_the_cache_flags() {
    let (ok, _, err) = run(&["--help"]);
    assert!(ok);
    assert!(
        err.contains("--cache-dir"),
        "usage missing --cache-dir: {err}"
    );
    assert!(
        err.contains("--no-cache"),
        "usage missing --no-cache: {err}"
    );
}

#[test]
fn missing_flag_value_is_an_error() {
    let (ok, _, err) = run(&["bounds", "--size"]);
    assert!(!ok);
    assert!(
        err.contains("--size") && err.contains("expects a value"),
        "stderr: {err}"
    );
}

#[test]
fn unknown_flags_are_rejected_by_name_on_every_subcommand() {
    // A typo must never be silently ignored — it would change which
    // experiment ran without any signal.
    for subcommand in [
        &["profile", "x.bench", "--epz", "0.1"][..],
        &["bounds", "--size", "21", "--frob", "3"][..],
        &["figures", "--bogus", "x"][..],
        &["validate", "--bogus", "x"][..],
        &["serve", "--bogus", "x"][..],
    ] {
        let (ok, _, err) = run(subcommand);
        assert!(!ok, "{subcommand:?} unexpectedly succeeded");
        assert!(
            err.contains("unknown flag `--"),
            "{subcommand:?}: stderr {err}"
        );
        assert!(
            err.contains("--epz") || err.contains("--frob") || err.contains("--bogus"),
            "{subcommand:?}: error does not name the token: {err}"
        );
        assert!(!err.contains("panicked"), "{subcommand:?}: stderr {err}");
    }
}

#[test]
fn cache_dir_with_no_cache_is_a_conflict_error() {
    let (ok, _, err) = run(&["figures", "--cache-dir", "/tmp/x", "--no-cache"]);
    assert!(!ok);
    assert!(
        err.contains("--no-cache") && err.contains("--cache-dir"),
        "error does not name both tokens: {err}"
    );
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn figures_only_selects_a_subset_and_rejects_unknown_names() {
    let dir = std::env::temp_dir().join("nanobound_cli_figures_only");
    let _ = std::fs::remove_dir_all(&dir);
    let (ok, out, err) = run(&[
        "figures",
        "--only",
        "fig2",
        "--only",
        "fig4",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(ok, "stderr: {err}");
    assert!(
        out.contains("fig2.csv") && out.contains("fig4.csv"),
        "out: {out}"
    );
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(names.len(), 2, "unexpected artifacts: {names:?}");
    let (ok, _, err) = run(&["figures", "--only", "fig9"]);
    assert!(!ok);
    assert!(err.contains("fig9"), "stderr: {err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn figures_stdout_prints_the_csv_and_conflicts_with_out() {
    let (ok, out, err) = run(&["figures", "--only", "fig2", "--stdout"]);
    assert!(ok, "stderr: {err}");
    assert!(out.starts_with("sw(y),"), "not CSV: {out}");
    let (ok, _, err) = run(&["figures", "--stdout", "--out", "somewhere"]);
    assert!(!ok);
    assert!(
        err.contains("--stdout") && err.contains("--out"),
        "stderr: {err}"
    );
}

#[test]
fn validate_writes_both_validation_tables() {
    let dir = std::env::temp_dir().join("nanobound_cli_validate");
    let _ = std::fs::remove_dir_all(&dir);
    let (ok, out, err) = run(&["validate", "--out", dir.to_str().unwrap(), "--jobs", "2"]);
    assert!(ok, "stderr: {err}");
    assert!(
        out.contains("v1.csv") && out.contains("v2.csv"),
        "out: {out}"
    );
    let v1 = std::fs::read_to_string(dir.join("v1.csv")).unwrap();
    assert!(v1.starts_with("circuit,"), "v1: {v1}");
    let v2 = std::fs::read_to_string(dir.join("v2.csv")).unwrap();
    assert!(v2.starts_with("scheme,"), "v2: {v2}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn absurd_gc_age_values_are_clean_errors_not_panics() {
    for bad in ["nan", "inf", "-3", "1e300", "many"] {
        let (ok, _, err) = run(&["serve", "--cache-dir", "/tmp/x", "--gc-age-days", bad]);
        assert!(!ok, "--gc-age-days {bad} unexpectedly succeeded");
        assert!(
            err.contains("--gc-age-days"),
            "--gc-age-days {bad}: stderr {err}"
        );
        assert!(
            !err.contains("panicked"),
            "--gc-age-days {bad}: stderr {err}"
        );
    }
}

#[test]
fn usage_documents_the_new_subcommands() {
    let (ok, _, err) = run(&["--help"]);
    assert!(ok);
    for needle in ["validate", "serve", "--only", "--stdout", "--listen"] {
        assert!(err.contains(needle), "usage missing {needle}: {err}");
    }
}

const BOUNDS_ARGS: &[&str] = &[
    "bounds",
    "--size",
    "21",
    "--sensitivity",
    "10",
    "--activity",
    "0.5",
    "--fanin",
    "3",
];

#[test]
fn jobs_zero_is_a_clean_error_not_a_panic() {
    let (ok, _, err) = run(&[BOUNDS_ARGS, &["--jobs", "0"]].concat());
    assert!(!ok);
    assert!(
        err.contains("--jobs") && err.contains("must lie in 1..="),
        "stderr: {err}"
    );
    assert!(!err.contains("panicked"), "stderr: {err}");
}

#[test]
fn absurd_jobs_values_are_rejected() {
    for bad in ["1000000", "-3", "2.5", "many"] {
        let (ok, _, err) = run(&[BOUNDS_ARGS, &["--jobs", bad]].concat());
        assert!(!ok, "--jobs {bad} unexpectedly succeeded");
        assert!(err.contains("--jobs"), "--jobs {bad}: stderr {err}");
        assert!(!err.contains("panicked"), "--jobs {bad}: stderr {err}");
    }
}

#[test]
fn bounds_output_is_identical_across_jobs() {
    let args = [
        BOUNDS_ARGS,
        &["--eps", "0.001", "--eps", "0.01", "--eps", "0.1"],
    ]
    .concat();
    let (ok1, out1, err1) = run(&[&args[..], &["--jobs", "1"]].concat());
    let (ok4, out4, _) = run(&[&args[..], &["--jobs", "4"]].concat());
    assert!(ok1 && ok4, "stderr: {err1}");
    assert_eq!(out1, out4, "--jobs changed the bounds output");
}

#[test]
fn profile_accepts_jobs_flag() {
    let dir = std::env::temp_dir().join("nanobound_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("xor2_jobs.bench");
    std::fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = XOR(a, b)\n").unwrap();
    let (ok, out, err) = run(&[
        "profile",
        path.to_str().unwrap(),
        "--eps",
        "0.05",
        "--jobs",
        "2",
    ]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("eps = 0.05"), "out: {out}");
}

#[test]
fn usage_documents_the_jobs_flag() {
    let (ok, _, err) = run(&["--help"]);
    assert!(ok);
    assert!(err.contains("--jobs"), "usage missing --jobs: {err}");
    // The usage text hardcodes the range; keep it tied to the runner's
    // actual ceiling so the two cannot silently diverge.
    let range = format!("1..={}", nanobound::runner::MAX_JOBS);
    assert!(err.contains(&range), "usage range stale: {err}");
}

/// Path of a committed test fixture.
fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn lint_reports_the_dirty_fixture_and_still_exits_zero_without_deny() {
    let (ok, out, err) = run(&["lint", &fixture("lint_dirty.bench")]);
    assert!(ok, "warnings alone must not fail without --deny: {err}");
    for code in [
        "NB004", "NB005", "NB006", "NB007", "NB009", "NB010", "NB021",
    ] {
        assert!(out.contains(code), "missing {code}: {out}");
    }
    assert!(!out.contains("NB020"), "tape falsely rejected: {out}");
    // Spans point back into the fixture source.
    assert!(out.contains("`unused`"), "out: {out}");
    assert!(out.contains("(line 13)"), "NB004 line span missing: {out}");
    assert!(out.contains("lint: 1 design(s), 0 error(s),"), "out: {out}");
}

#[test]
fn lint_deny_warnings_fails_but_still_prints_the_report() {
    let (ok, out, err) = run(&["lint", &fixture("lint_dirty.bench"), "--deny", "warnings"]);
    assert!(!ok);
    assert!(out.contains("NB006"), "report missing from stdout: {out}");
    assert!(
        err.contains("--deny warnings") || err.contains("warning(s)"),
        "stderr: {err}"
    );
    // A clean run passes under the same gate.
    let (ok, _, err) = run(&["lint", "--suite", "--deny", "warnings"]);
    assert!(ok, "generated suite is not lint-clean: {err}");
}

#[test]
fn lint_flags_no_outputs() {
    let (ok, out, _) = run(&["lint", &fixture("lint_no_outputs.bench")]);
    assert!(ok);
    assert!(out.contains("NB003"), "out: {out}");
}

#[test]
fn lint_json_is_machine_readable_and_deterministic() {
    let args = ["lint", &fixture("lint_dirty.bench"), "--format", "json"];
    let (ok, first, err) = run(&args);
    assert!(ok, "stderr: {err}");
    assert!(
        first.starts_with("{\"design\":\"lint_dirty\""),
        "out: {first}"
    );
    assert!(first.contains("\"warnings\":"), "out: {first}");
    assert!(first.contains("\"code\":\"NB006\""), "out: {first}");
    let (_, second, _) = run(&args);
    assert_eq!(first, second, "lint --format json is not deterministic");
}

#[test]
fn lint_corrupt_tape_fixture_is_rejected() {
    // The CI gate's negative control: an injected single-point tape
    // corruption must surface as NB020 and a nonzero exit.
    let (ok, out, _) = run(&["lint", &fixture("lint_dirty.bench"), "--corrupt-tape", "3"]);
    assert!(!ok, "corrupted tape passed the analyzer: {out}");
    assert!(out.contains("NB020"), "out: {out}");
    assert!(out.contains("injected corruption"), "out: {out}");
}

#[test]
fn lint_input_errors_are_clean_failures() {
    let (ok, _, err) = run(&["lint"]);
    assert!(!ok);
    assert!(err.contains("--suite"), "stderr: {err}");
    let (ok, _, err) = run(&["lint", "/nope/missing.bench"]);
    assert!(!ok);
    assert!(err.contains("cannot read"), "stderr: {err}");
    let (ok, _, err) = run(&["lint", "x.bench", "--format", "xml"]);
    assert!(!ok);
    assert!(err.contains("--format"), "stderr: {err}");
}

#[test]
fn duplicate_single_occurrence_flags_are_rejected_by_name() {
    // Last-one-wins would silently change which experiment ran; the
    // parser must name the repeated token instead.
    let (ok, _, err) = run(&["lint", "x.bench", "--format", "text", "--format", "json"]);
    assert!(!ok);
    assert!(err.contains("duplicate flag `--format`"), "stderr: {err}");
    let (ok, _, err) = run(&[BOUNDS_ARGS, &["--delta", "0.1", "--delta", "0.2"]].concat());
    assert!(!ok);
    assert!(err.contains("duplicate flag `--delta`"), "stderr: {err}");
    // Genuinely repeatable flags still accumulate.
    let (ok, _, err) = run(&[BOUNDS_ARGS, &["--eps", "0.01", "--eps", "0.1"]].concat());
    assert!(ok, "repeatable --eps rejected: {err}");
}

#[test]
fn engine_escape_hatch_is_byte_identical_and_strict() {
    // The interpreted oracle must reproduce the default compiled
    // engine's output byte for byte (ci.sh diffs the full figure and
    // validation sets; this pins a fast subset in-tree).
    let (ok, compiled, err) = run(&["figures", "--only", "fig3", "--stdout"]);
    assert!(ok, "stderr: {err}");
    let (ok, interp, err) = run_with_env(
        &["figures", "--only", "fig3", "--stdout"],
        &[("NANOBOUND_ENGINE", "interp")],
    );
    assert!(ok, "stderr: {err}");
    assert_eq!(compiled, interp);
    // An explicit `compiled` is accepted too.
    let (ok, explicit, _) = run_with_env(
        &["figures", "--only", "fig3", "--stdout"],
        &[("NANOBOUND_ENGINE", "compiled")],
    );
    assert!(ok);
    assert_eq!(compiled, explicit);
}

#[test]
fn unknown_engine_value_is_a_hard_error() {
    // Strict parsing, like every flag since PR 4: a typo must not
    // silently fall back to either engine.
    let (ok, _, err) = run_with_env(&["validate", "--stdout"], &[("NANOBOUND_ENGINE", "turbo")]);
    assert!(!ok);
    assert!(
        err.contains("NANOBOUND_ENGINE") && err.contains("turbo"),
        "unhelpful error: {err}"
    );
    assert!(
        err.contains("compiled") && err.contains("interp"),
        "error must name the valid values: {err}"
    );
}
