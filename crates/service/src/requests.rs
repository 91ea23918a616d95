//! The request shapes the engine executes.
//!
//! A request is the parsed, validated form of one workload invocation —
//! the same struct whether the tokens came from the one-shot CLI or
//! from a `serve` protocol line. Each request type declares the flags
//! it understands ([`ProfileRequest::FLAGS`], [`BoundRequest::FLAGS`]),
//! so the CLI appends its transport-level flags (`--jobs`,
//! `--cache-dir`, `--no-cache`) while the protocol rejects them — in
//! service mode those belong to the server, not to a request.

use std::time::Duration;

use nanobound_cache::GcPolicy;
use nanobound_core::CircuitProfile;

use crate::args::{
    epsilons, flag, flag_f64, flag_usize, flag_values, list, switch, FlagSpec, Flags,
};

/// A `profile` workload: measure one netlist file and report its
/// bounds.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileRequest {
    /// Path of the `.bench`/`.blif` netlist.
    pub path: String,
    /// Gate error probabilities to evaluate.
    pub eps: Vec<f64>,
    /// Required output error bound δ.
    pub delta: f64,
    /// Time frames for unrolling sequential designs.
    pub frames: usize,
    /// Activity-simulation vectors.
    pub patterns: usize,
    /// Baseline leakage share.
    pub leak: f64,
}

impl ProfileRequest {
    /// The flags a `profile` request understands.
    pub const FLAGS: [FlagSpec; 5] = [
        list("eps"),
        flag("delta"),
        flag("frames"),
        flag("patterns"),
        flag("leak"),
    ];

    /// Builds the request from parsed positionals and flags.
    ///
    /// # Errors
    ///
    /// Exactly one positional (the netlist file) is required; flag
    /// values must parse.
    pub fn from_parts(positional: &[String], flags: &Flags) -> Result<Self, String> {
        let [path] = positional else {
            return Err("`profile` expects exactly one netlist file".to_owned());
        };
        Ok(ProfileRequest {
            path: path.clone(),
            eps: epsilons(flags)?,
            delta: flag_f64(flags, "delta", 0.01)?,
            frames: flag_usize(flags, "frames", 4)?,
            patterns: flag_usize(flags, "patterns", 10_000)?,
            leak: flag_f64(flags, "leak", 0.5)?,
        })
    }
}

/// A `bound` workload: evaluate the closed-form bounds for explicit
/// circuit parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundRequest {
    /// The hand-supplied circuit profile.
    pub profile: CircuitProfile,
    /// Gate error probabilities to evaluate.
    pub eps: Vec<f64>,
    /// Required output error bound δ.
    pub delta: f64,
}

impl BoundRequest {
    /// The flags a `bound` request understands.
    pub const FLAGS: [FlagSpec; 9] = [
        flag("size"),
        flag("sensitivity"),
        flag("activity"),
        flag("fanin"),
        flag("inputs"),
        flag("depth"),
        list("eps"),
        flag("delta"),
        flag("leak"),
    ];

    /// Builds the request from parsed positionals and flags.
    ///
    /// # Errors
    ///
    /// `bound` takes no positionals; `--size`, `--sensitivity`,
    /// `--activity` and `--fanin` are mandatory and must be in range.
    pub fn from_parts(positional: &[String], flags: &Flags) -> Result<Self, String> {
        if !positional.is_empty() {
            return Err("`bounds` takes only flags".to_owned());
        }
        let size = flag_usize(flags, "size", 0)?;
        let sensitivity = flag_f64(flags, "sensitivity", 0.0)?;
        let activity = flag_f64(flags, "activity", 0.0)?;
        let fanin = flag_f64(flags, "fanin", 0.0)?;
        if size == 0 || sensitivity <= 0.0 || activity <= 0.0 || fanin < 2.0 {
            return Err("`bounds` needs --size, --sensitivity, --activity and --fanin".to_owned());
        }
        let depth = flag_usize(flags, "depth", 8)?;
        let depth = u32::try_from(depth)
            .map_err(|_| format!("--depth: `{depth}` is out of range (at most {})", u32::MAX))?;
        let profile = CircuitProfile {
            name: "cli".into(),
            inputs: flag_usize(flags, "inputs", sensitivity.ceil().max(2.0) as usize)?,
            outputs: 1,
            size,
            depth,
            sensitivity,
            activity,
            fanin,
            leak_share: flag_f64(flags, "leak", 0.5)?,
        };
        Ok(BoundRequest {
            profile,
            eps: epsilons(flags)?,
            delta: flag_f64(flags, "delta", 0.01)?,
        })
    }
}

/// A `gc` serve workload: sweep the shard cache mid-flight under the
/// requested policy, protecting every pinned in-flight fingerprint.
/// The flags mirror `serve`'s startup `--gc-bytes`/`--gc-age-days`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GcRequest {
    /// The sweep policy; `None` fields mean no pressure of that kind
    /// (only unconditional garbage is reclaimed).
    pub policy: GcPolicy,
}

impl GcRequest {
    /// The flags a `gc` request understands.
    pub const FLAGS: [FlagSpec; 2] = [flag("bytes"), flag("age-days")];

    /// Builds the request from parsed positionals and flags.
    ///
    /// # Errors
    ///
    /// `gc` takes no positionals; `--bytes` must be a byte count and
    /// `--age-days` a finite, non-negative number of days.
    pub fn from_parts(positional: &[String], flags: &Flags) -> Result<Self, String> {
        if !positional.is_empty() {
            return Err("`gc` takes only flags".to_owned());
        }
        Ok(GcRequest {
            policy: gc_policy(flags, "bytes", "age-days")?,
        })
    }
}

/// Parses a GC policy from a byte-budget flag and an age flag, named
/// without their `--`: `bytes`/`age-days` on a `gc` request,
/// `gc-bytes`/`gc-age-days` on `serve`. An absent flag puts no pressure
/// of its kind.
///
/// # Errors
///
/// The byte budget must be a byte count and the age a finite,
/// non-negative number of days; messages name the offending flag.
pub(crate) fn gc_policy(flags: &Flags, bytes: &str, age_days: &str) -> Result<GcPolicy, String> {
    let max_bytes = match flag_values(flags, bytes).last() {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("--{bytes}: `{v}` is not a byte count"))?,
        ),
    };
    let max_age = match flag_values(flags, age_days).last() {
        None => None,
        Some(v) => {
            // Absurd values are errors, not panics:
            // Duration::from_secs_f64 would abort on NaN/∞/overflow.
            let days: f64 = v
                .parse()
                .map_err(|_| format!("--{age_days}: `{v}` is not a number"))?;
            if !days.is_finite() || days < 0.0 {
                return Err(format!(
                    "--{age_days}: `{v}` must be a finite, non-negative number of days"
                ));
            }
            Some(
                Duration::try_from_secs_f64(days * 86_400.0)
                    .map_err(|_| format!("--{age_days}: `{v}` is out of range"))?,
            )
        }
    };
    Ok(GcPolicy { max_bytes, max_age })
}

/// An `mc_shards` serve workload: compute one contiguous range of
/// Monte-Carlo shards for a netlist and answer the encoded tallies.
///
/// This is the cluster's worker-side request. Everything that
/// identifies the experiment travels in-band — the netlist ships as
/// inline text (`--netlist`), not a path, so a worker needs no shared
/// filesystem — and every flag is mandatory: a coordinator always
/// knows the full experiment identity, and defaults on the wire would
/// silently fork the fingerprint between versions.
#[derive(Clone, Debug, PartialEq)]
pub struct McShardsRequest {
    /// The netlist source text.
    pub netlist: String,
    /// Parse the text as BLIF instead of ISCAS `.bench`.
    pub blif: bool,
    /// Gate error probability ε.
    pub eps: f64,
    /// Master seed of the fault-mask stream.
    pub fault_seed: u64,
    /// Master seed of the input-pattern stream.
    pub pattern_seed: u64,
    /// Total patterns of the whole experiment (not of this range).
    pub patterns: usize,
    /// Patterns per shard.
    pub chunk: usize,
    /// First shard index of the requested range (inclusive).
    pub first: u64,
    /// One past the last shard index of the requested range.
    pub last: u64,
}

impl McShardsRequest {
    /// The flags an `mc_shards` request understands.
    pub const FLAGS: [FlagSpec; 9] = [
        flag("netlist"),
        switch("blif"),
        flag("eps"),
        flag("fault-seed"),
        flag("pattern-seed"),
        flag("patterns"),
        flag("chunk"),
        flag("first"),
        flag("last"),
    ];

    /// Builds the request from parsed positionals and flags.
    ///
    /// # Errors
    ///
    /// `mc_shards` takes no positionals; every flag except `--blif` is
    /// required and must parse.
    pub fn from_parts(positional: &[String], flags: &Flags) -> Result<Self, String> {
        if !positional.is_empty() {
            return Err("`mc_shards` takes only flags".to_owned());
        }
        fn required<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
            flag_values(flags, name)
                .last()
                .copied()
                .ok_or_else(|| format!("`mc_shards` requires --{name}"))
        }
        fn required_u64(flags: &Flags, name: &str) -> Result<u64, String> {
            let v = required(flags, name)?;
            v.parse()
                .map_err(|_| format!("--{name}: `{v}` is not a non-negative integer"))
        }
        let eps_text = required(flags, "eps")?;
        let eps: f64 = eps_text
            .parse()
            .map_err(|_| format!("--eps: `{eps_text}` is not a number"))?;
        Ok(McShardsRequest {
            netlist: required(flags, "netlist")?.to_owned(),
            blif: !flag_values(flags, "blif").is_empty(),
            eps,
            fault_seed: required_u64(flags, "fault-seed")?,
            pattern_seed: required_u64(flags, "pattern-seed")?,
            patterns: required_u64(flags, "patterns")? as usize,
            chunk: required_u64(flags, "chunk")? as usize,
            first: required_u64(flags, "first")?,
            last: required_u64(flags, "last")?,
        })
    }
}

/// How a `lint` report is rendered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LintFormat {
    /// Human-readable diagnostic lines plus a summary line.
    Text,
    /// One JSON object per design, newline-delimited.
    Json,
}

/// A `lint` workload: run the static analyzer over netlist files
/// and/or the generated benchmark suite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LintRequest {
    /// `.bench`/`.blif` files to lint, in argument order.
    pub paths: Vec<String>,
    /// Also lint every netlist of the paper's Section-6 suite.
    pub suite: bool,
    /// Output rendering.
    pub format: LintFormat,
    /// Treat warnings as failures (`--deny warnings`).
    pub deny_warnings: bool,
    /// Corrupt each compiled tape with this selector before verifying —
    /// the CI fixture proving `NB020` actually fires end to end.
    #[doc(hidden)]
    pub corrupt_tape: Option<u64>,
}

impl LintRequest {
    /// The flags a `lint` request understands.
    pub const FLAGS: [FlagSpec; 4] = [
        flag("format"),
        flag("deny"),
        switch("suite"),
        flag("corrupt-tape"),
    ];

    /// Builds the request from parsed positionals and flags.
    ///
    /// # Errors
    ///
    /// At least one file or `--suite` is required; `--format` accepts
    /// `text`/`json`; `--deny` accepts only `warnings`; `--corrupt-tape`
    /// must be an integer selector.
    pub fn from_parts(positional: &[String], flags: &Flags) -> Result<Self, String> {
        let suite = !flag_values(flags, "suite").is_empty();
        if positional.is_empty() && !suite {
            return Err("`lint` expects netlist files and/or --suite".to_owned());
        }
        let format = match flag_values(flags, "format").last().copied() {
            None | Some("text") => LintFormat::Text,
            Some("json") => LintFormat::Json,
            Some(other) => {
                return Err(format!("--format: `{other}` is not `text` or `json`"));
            }
        };
        let deny_warnings = match flag_values(flags, "deny").last().copied() {
            None => false,
            Some("warnings") => true,
            Some(other) => {
                return Err(format!(
                    "--deny: `{other}` is not supported (only `warnings`)"
                ));
            }
        };
        let corrupt_tape = match flag_values(flags, "corrupt-tape").last() {
            None => None,
            Some(v) => Some(
                v.parse::<u64>()
                    .map_err(|_| format!("--corrupt-tape: `{v}` is not an integer selector"))?,
            ),
        };
        Ok(LintRequest {
            paths: positional.to_vec(),
            suite,
            format,
            deny_warnings,
            corrupt_tape,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse_flags;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn profile_request_defaults_match_the_cli_contract() {
        let (pos, flags) = parse_flags(&strings(&["x.bench"]), &ProfileRequest::FLAGS).unwrap();
        let req = ProfileRequest::from_parts(&pos, &flags).unwrap();
        assert_eq!(req.path, "x.bench");
        assert_eq!(req.eps, vec![0.001, 0.01, 0.1]);
        assert_eq!(req.delta, 0.01);
        assert_eq!(req.frames, 4);
        assert_eq!(req.patterns, 10_000);
        assert_eq!(req.leak, 0.5);
    }

    #[test]
    fn profile_request_requires_one_file() {
        let err = ProfileRequest::from_parts(&[], &Vec::new()).unwrap_err();
        assert!(err.contains("exactly one netlist file"));
        let err =
            ProfileRequest::from_parts(&strings(&["a.bench", "b.bench"]), &Vec::new()).unwrap_err();
        assert!(err.contains("exactly one netlist file"));
    }

    #[test]
    fn bound_request_requires_the_mandatory_quadruple() {
        let (pos, flags) = parse_flags(&strings(&["--size", "10"]), &BoundRequest::FLAGS).unwrap();
        let err = BoundRequest::from_parts(&pos, &flags).unwrap_err();
        assert!(err.contains("needs --size, --sensitivity"));

        // A depth past u32 is an error, never a silent truncation
        // (2^32 + 8 used to evaluate depth 8).
        let with_depth = |depth: &str| {
            let args = strings(&[
                "--size",
                "21",
                "--sensitivity",
                "10",
                "--activity",
                "0.5",
                "--fanin",
                "3",
                "--depth",
                depth,
            ]);
            let (pos, flags) = parse_flags(&args, &BoundRequest::FLAGS).unwrap();
            BoundRequest::from_parts(&pos, &flags)
        };
        assert_eq!(with_depth("4294967295").unwrap().profile.depth, u32::MAX);
        let err = with_depth("4294967304").unwrap_err();
        assert!(
            err.contains("--depth") && err.contains("4294967304"),
            "{err}"
        );
    }

    #[test]
    fn lint_request_needs_files_or_suite() {
        let err = LintRequest::from_parts(&[], &Vec::new()).unwrap_err();
        assert!(err.contains("netlist files and/or --suite"), "{err}");
        let (pos, flags) = parse_flags(&strings(&["--suite"]), &LintRequest::FLAGS).unwrap();
        let req = LintRequest::from_parts(&pos, &flags).unwrap();
        assert!(req.suite && req.paths.is_empty());
        assert_eq!(req.format, LintFormat::Text);
        assert!(!req.deny_warnings);
        assert_eq!(req.corrupt_tape, None);
    }

    #[test]
    fn lint_request_parses_every_flag() {
        let (pos, flags) = parse_flags(
            &strings(&[
                "a.bench",
                "--format",
                "json",
                "--deny",
                "warnings",
                "--corrupt-tape",
                "5",
            ]),
            &LintRequest::FLAGS,
        )
        .unwrap();
        let req = LintRequest::from_parts(&pos, &flags).unwrap();
        assert_eq!(req.paths, vec!["a.bench"]);
        assert_eq!(req.format, LintFormat::Json);
        assert!(req.deny_warnings);
        assert_eq!(req.corrupt_tape, Some(5));
    }

    #[test]
    fn lint_request_rejects_bad_values() {
        let (pos, flags) = parse_flags(
            &strings(&["x.bench", "--format", "xml"]),
            &LintRequest::FLAGS,
        )
        .unwrap();
        let err = LintRequest::from_parts(&pos, &flags).unwrap_err();
        assert!(err.contains("--format"), "{err}");
        let (pos, flags) =
            parse_flags(&strings(&["x.bench", "--deny", "all"]), &LintRequest::FLAGS).unwrap();
        let err = LintRequest::from_parts(&pos, &flags).unwrap_err();
        assert!(err.contains("--deny"), "{err}");
    }

    #[test]
    fn gc_request_parses_policy_flags_and_rejects_junk() {
        let (pos, flags) = parse_flags(&strings(&[]), &GcRequest::FLAGS).unwrap();
        let req = GcRequest::from_parts(&pos, &flags).unwrap();
        assert_eq!(req.policy, GcPolicy::default());

        let (pos, flags) = parse_flags(
            &strings(&["--bytes", "0", "--age-days", "2"]),
            &GcRequest::FLAGS,
        )
        .unwrap();
        let req = GcRequest::from_parts(&pos, &flags).unwrap();
        assert_eq!(req.policy.max_bytes, Some(0));
        assert_eq!(req.policy.max_age, Some(Duration::from_secs(2 * 86_400)));

        let err = GcRequest::from_parts(&strings(&["stray"]), &Vec::new()).unwrap_err();
        assert!(err.contains("only flags"), "{err}");
        let (pos, flags) =
            parse_flags(&strings(&["--age-days", "inf"]), &GcRequest::FLAGS).unwrap();
        let err = GcRequest::from_parts(&pos, &flags).unwrap_err();
        assert!(err.contains("--age-days"), "{err}");
        let (pos, flags) = parse_flags(&strings(&["--bytes", "-3"]), &GcRequest::FLAGS).unwrap();
        let err = GcRequest::from_parts(&pos, &flags).unwrap_err();
        assert!(err.contains("--bytes"), "{err}");
    }

    #[test]
    fn mc_shards_request_requires_every_flag_and_parses() {
        let full = strings(&[
            "--netlist",
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n",
            "--eps",
            "0.01",
            "--fault-seed",
            "7",
            "--pattern-seed",
            "11",
            "--patterns",
            "1024",
            "--chunk",
            "256",
            "--first",
            "1",
            "--last",
            "3",
        ]);
        let (pos, flags) = parse_flags(&full, &McShardsRequest::FLAGS).unwrap();
        let req = McShardsRequest::from_parts(&pos, &flags).unwrap();
        assert!(req.netlist.contains("NOT(a)"));
        assert!(!req.blif);
        assert_eq!(req.eps, 0.01);
        assert_eq!((req.fault_seed, req.pattern_seed), (7, 11));
        assert_eq!((req.patterns, req.chunk), (1024, 256));
        assert_eq!((req.first, req.last), (1, 3));

        // Every required flag missing in turn is a described error —
        // a wire default would silently fork the experiment identity.
        for miss in [
            "netlist",
            "eps",
            "fault-seed",
            "pattern-seed",
            "patterns",
            "chunk",
            "first",
            "last",
        ] {
            let pruned: Vec<String> = {
                let mut out = Vec::new();
                let mut iter = full.iter();
                while let Some(token) = iter.next() {
                    if token == &format!("--{miss}") {
                        iter.next();
                        continue;
                    }
                    out.push(token.clone());
                }
                out
            };
            let (pos, flags) = parse_flags(&pruned, &McShardsRequest::FLAGS).unwrap();
            let err = McShardsRequest::from_parts(&pos, &flags).unwrap_err();
            assert!(err.contains(&format!("--{miss}")), "{miss}: {err}");
        }

        let err = McShardsRequest::from_parts(&strings(&["stray"]), &Vec::new()).unwrap_err();
        assert!(err.contains("only flags"), "{err}");
        let (pos, flags) = parse_flags(
            &{
                let mut bad = full.clone();
                bad[7] = "-1".to_owned();
                bad
            },
            &McShardsRequest::FLAGS,
        )
        .unwrap();
        let err = McShardsRequest::from_parts(&pos, &flags).unwrap_err();
        assert!(err.contains("--pattern-seed"), "{err}");
    }

    #[test]
    fn bound_request_builds_the_profile() {
        let (pos, flags) = parse_flags(
            &strings(&[
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
            ]),
            &BoundRequest::FLAGS,
        )
        .unwrap();
        let req = BoundRequest::from_parts(&pos, &flags).unwrap();
        assert_eq!(req.profile.size, 21);
        assert_eq!(req.profile.sensitivity, 10.0);
        assert_eq!(req.profile.inputs, 10);
        assert_eq!(req.profile.depth, 8);
        assert_eq!(req.eps, vec![0.01]);
    }
}
