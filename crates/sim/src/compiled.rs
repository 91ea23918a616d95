//! Compile-once / execute-many simulation programs.
//!
//! The interpreted engines ([`crate::evaluate_packed`],
//! [`crate::evaluate_noisy`]) re-walk the [`Netlist`] graph on every
//! chunk: enum dispatch per node, fanin indirection through `NodeId`s,
//! and one full value matrix per run. That is fine for a one-shot
//! query, but the Monte-Carlo experiments behind the paper's Figures
//! 7/8 and the validation tables execute the *same* netlist thousands
//! of times — the graph walk, the per-node bookkeeping and the
//! intermediate matrices are pure overhead.
//!
//! [`SimProgram`] lowers a netlist once into a flat instruction tape:
//!
//! - one `Op` per *logic gate* (in topological node order, which is
//!   id order by the netlist invariant), each carrying its [`GateKind`]
//!   and the operand *slot* offsets of its fanins;
//! - buffers are **slot aliases** — a `Buf` node shares its fanin's
//!   slot instead of copying the stream; constants share one
//!   materialized all-zero / all-one slot;
//! - every value has one slot, a window into one contiguous scratch
//!   arena ([`SimScratch`]) whose width the pass chooses: a clean pass
//!   stores `words` clean words per slot, and the Monte-Carlo pass
//!   `2 × words`, the clean words and then the noisy words. A chunk
//!   executes with **zero heap allocation**: the arena is sized on
//!   first use and reused across chunks (a smaller tail chunk never
//!   reallocates).
//!
//! Every clean pass runs over one window of 32 words (2,048 patterns)
//! per slot and reuses that window arena:
//!
//! - activity ([`SimProgram::estimate_activity`]) draws each window's
//!   input words from generators positioned at each input's first word,
//!   evaluates the window and counts it at once, carrying each node's
//!   last word into the next window's boundary toggle. Its memory is
//!   256 bytes per slot plus three words per node, for any pattern
//!   count;
//! - exact sensitivity ([`crate::sensitivity::exact_with`]) computes
//!   each window's input words from the pattern index and copies out
//!   only the output streams, so it holds the outputs' `2^n / 8` bytes
//!   each, not every slot's;
//! - sampled sensitivity ([`crate::sensitivity::sampled_with`]) fills
//!   the window with side-by-side copies of its base patterns and
//!   inverts one input per copy, so one tape pass tests several inputs.
//!
//! The fused executor ([`SimProgram::run_tally_batch`]) computes the
//! clean and the noisy value of each gate in a single pass —
//! specialized per-shape kernels evaluate both halves of the slot in
//! one loop — and folds toggle counts and output mismatches into a
//! [`NoisyTally`] *while the streams are still cache-hot* — no stored
//! `NodeValues`, no second and third walk over the matrices. Only gates
//! fail, so an input's or constant's noisy half is a copy of its clean
//! half. It pushes several independent shards through that one tape
//! pass: each half of a slot holds the shards' word segments back to
//! back, so every op's dispatch, bounds checks and instruction fetch
//! are amortized over `Σ words` instead of one chunk's worth.
//! [`SimProgram::run_tally`] is a batch of one.
//!
//! # The bit-identity contract
//!
//! The compiled engine is an optimization, not a new experiment: for
//! every input it must produce **bit-identical** tallies, activity
//! profiles and sensitivities to the interpreted path. Three frozen
//! streams make that possible:
//!
//! - input patterns are drawn exactly like [`PatternSet::random`]
//!   (input-major, one `next_u64` per word);
//! - fault masks come from the **v2 counter-based stream**
//!   ([`crate::faultstream`], `STREAM_VERSION` 2): the mask of
//!   `(fault seed, gate ordinal, word)` is a pure SplitMix64-style
//!   hash, identical no matter which engine derives it or in which
//!   order — the gate ordinal is the op index here and the
//!   `counts_as_gate` ordinal in [`crate::evaluate_noisy`], equal by
//!   construction since ops are created for exactly those kinds in the
//!   same node order. (Stream v1 was a *sequential* Bernoulli draw
//!   over one RNG, which forced both engines into one serial mask order
//!   and capped dense-ε throughput; the v1→v2 switch bumped
//!   `nanobound_cache::FORMAT_VERSION` to 2, and the word-wise
//!   fingerprint of format 3 left the stream alone.)
//! - tallies are integer counts, and integer addition is associative,
//!   so accumulation order cannot change the merged result.
//!
//! The interpreted engines stay alive as the differential-testing
//! oracle (`crates/sim/tests/compiled.rs` pins the equivalence on
//! random DAGs), and the `NANOBOUND_ENGINE=interp` escape hatch
//! ([`EngineKind::from_env`]) switches every workload back to them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use nanobound_cache::Fingerprint;
use nanobound_logic::{GateKind, Netlist, Node, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::activity::ActivityProfile;
use crate::error::SimError;
#[cfg(target_arch = "x86_64")]
use crate::faultstream::avx512;
use crate::faultstream::{gate_state, MaskBlock, MaskPlan};
use crate::fingerprint::experiment_builder;
use crate::noisy::{NoisyConfig, NoisyTally};
use crate::patterns::{exhaustive_word, tail_mask, PatternSet};

/// Words per window of every clean pass: exact sensitivity
/// ([`SimProgram::exhaustive_output_streams`]), activity
/// ([`SimProgram::estimate_activity`]) and the flip groups of sampled
/// sensitivity. A power of two, chosen by timing `c880a`'s exact
/// sensitivity and `base21`'s activity and sampled sensitivity in fresh
/// processes — see the README's "cost of exact sensitivity" and "cost
/// of activity and sampled sensitivity".
pub(crate) const WINDOW: usize = 32;

/// Which evaluation backend executes simulation workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The compile-once / execute-many tape executor (the default).
    Compiled,
    /// The interpreted graph walkers — the differential-testing oracle.
    Interp,
}

/// Name of the engine-selection environment variable.
pub const ENGINE_ENV: &str = "NANOBOUND_ENGINE";

impl EngineKind {
    /// Resolves the backend from the `NANOBOUND_ENGINE` environment
    /// variable: unset or empty selects [`EngineKind::Compiled`];
    /// `compiled` and `interp` select explicitly.
    ///
    /// # Errors
    ///
    /// Any other value is a configuration error naming the token — a
    /// silently ignored engine override would defeat the differential
    /// CI gate, exactly like an unknown CLI flag.
    pub fn from_env() -> Result<EngineKind, SimError> {
        match std::env::var(ENGINE_ENV) {
            Err(std::env::VarError::NotPresent) => Ok(EngineKind::Compiled),
            Err(std::env::VarError::NotUnicode(_)) => Err(SimError::bad(
                ENGINE_ENV,
                "<non-UTF-8 value>",
                "must be `compiled` or `interp`",
            )),
            Ok(value) => match value.as_str() {
                "" | "compiled" => Ok(EngineKind::Compiled),
                "interp" => Ok(EngineKind::Interp),
                other => Err(SimError::bad(
                    ENGINE_ENV,
                    other,
                    "must be `compiled` or `interp`",
                )),
            },
        }
    }
}

/// One executed instruction: a logic gate with its operand slots.
///
/// Only kinds with [`GateKind::counts_as_gate`] become ops — buffers
/// alias slots and constants are materialized once per run — so every
/// op draws fault masks and contributes to the gate tallies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Op {
    pub(crate) kind: GateKind,
    /// Destination slot.
    pub(crate) dst: u32,
    /// Range of this op's operands in [`SimProgram::operands`].
    pub(crate) operands: (u32, u32),
}

/// One shard of a batched Monte-Carlo run: an independent chunk with
/// its own fault-mask and input-pattern seeds.
///
/// The runner's shard contract makes every shard a pure relocatable
/// unit keyed by `(master_seed, shard_index)`; a `ShardSpec` is that
/// unit in executable form, and [`SimProgram::run_tally_batch`]
/// executes several of them in one tape pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// Seed of the shard's fault-mask stream (`NoisyConfig::seed`).
    pub fault_seed: u64,
    /// Seed of the shard's input-pattern stream.
    pub pattern_seed: u64,
    /// Patterns the shard simulates (must be ≥ 1).
    pub patterns: usize,
}

/// The op loop of a batch run: [`SimProgram::tally_ops`] in production,
/// and [`SimProgram::tally_ops_body`] where a test pins the scalar
/// compilation.
type OpLoop =
    fn(&SimProgram, &mut SimScratch, &MaskPlan, &[ShardSpec], &[usize], &mut [u64], &mut [u64]);

/// A netlist lowered to a flat, allocation-free instruction tape.
///
/// Compile once with [`SimProgram::compile`], then execute any number
/// of chunks against a reusable [`SimScratch`]. See the
/// [module docs](self) for the layout and the bit-identity contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimProgram {
    pub(crate) ops: Vec<Op>,
    /// Flattened operand slots, one per fanin.
    pub(crate) operands: Vec<u32>,
    /// Slot of every node, in node-id order.
    pub(crate) node_slots: Vec<u32>,
    /// Whether each node counts as a logic gate, in node-id order.
    pub(crate) is_gate: Vec<bool>,
    /// Input slots in primary-input order.
    pub(crate) input_slots: Vec<u32>,
    /// Slot of every output driver, declaration order.
    pub(crate) output_slots: Vec<u32>,
    pub(crate) zero_slot: Option<u32>,
    pub(crate) ones_slot: Option<u32>,
    pub(crate) num_slots: usize,
}

impl SimProgram {
    /// Lowers `netlist` into an instruction tape.
    ///
    /// Compilation is a single pass over the nodes (the id order *is* a
    /// levelized schedule by the netlist's topological invariant) and
    /// costs far less than one simulated chunk; amortize it anyway by
    /// compiling once per experiment, or share programs across calls
    /// through a [`ProgramCache`].
    #[must_use]
    pub fn compile(netlist: &Netlist) -> SimProgram {
        let mut program = SimProgram {
            ops: Vec::with_capacity(netlist.gate_count()),
            operands: Vec::new(),
            node_slots: Vec::with_capacity(netlist.node_count()),
            is_gate: Vec::with_capacity(netlist.node_count()),
            input_slots: Vec::with_capacity(netlist.input_count()),
            output_slots: Vec::with_capacity(netlist.output_count()),
            zero_slot: None,
            ones_slot: None,
            num_slots: 0,
        };
        let mut next_slot = 0u32;
        let mut fresh = || {
            let slot = next_slot;
            next_slot += 1;
            slot
        };
        for node in netlist.nodes() {
            let slot = match node {
                Node::Input { .. } => {
                    let slot = fresh();
                    program.input_slots.push(slot);
                    slot
                }
                Node::Gate { kind, fanins } => match kind {
                    GateKind::Const0 => *program.zero_slot.get_or_insert_with(&mut fresh),
                    GateKind::Const1 => *program.ones_slot.get_or_insert_with(&mut fresh),
                    GateKind::Buf => program.node_slots[fanins[0].index()],
                    kind => {
                        let start = u32::try_from(program.operands.len())
                            .expect("operand tape exceeds u32::MAX entries");
                        for f in fanins {
                            program.operands.push(program.node_slots[f.index()]);
                        }
                        let end = u32::try_from(program.operands.len())
                            .expect("operand tape exceeds u32::MAX entries");
                        let dst = fresh();
                        program.ops.push(Op {
                            kind,
                            dst,
                            operands: (start, end),
                        });
                        dst
                    }
                },
            };
            program
                .is_gate
                .push(node.kind().is_some_and(GateKind::counts_as_gate));
            program.node_slots.push(slot);
        }
        for output in netlist.outputs() {
            program
                .output_slots
                .push(program.node_slots[output.driver.index()]);
        }
        program.num_slots = next_slot as usize;
        // Every freshly built tape must satisfy the soundness contract;
        // a compiler bug here would silently corrupt every downstream
        // measurement, so fail loudly in debug builds.
        if cfg!(debug_assertions) {
            if let Err(defect) = program.verify(netlist) {
                panic!("SimProgram::compile produced an unsound tape: {defect}");
            }
        }
        program
    }

    /// Number of primary inputs the program expects.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.input_slots.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.output_slots.len()
    }

    /// Number of logic gates (= executed ops = the paper's `S0`).
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.ops.len()
    }

    /// How many shards of `patterns` each are worth fusing through one
    /// [`SimProgram::run_tally_batch`] pass.
    ///
    /// Batching widens every op from `w` to `batch·w` words, which
    /// amortizes tape dispatch — a win for narrow shards — but
    /// multiplies the live arena working set the same way, evicting
    /// the hot slot state from cache on slot-heavy programs. Measured
    /// across the suite netlists the crossover sits near 16 words per
    /// pass under ~32 KiB of live values, so: widen narrow shards
    /// toward 16 words, never past 8 shards, never past the value
    /// budget. Purely a wall-clock choice — the v2 fault stream makes
    /// any grouping produce identical tallies.
    #[must_use]
    pub fn preferred_batch(&self, patterns: usize) -> usize {
        const TARGET_WORDS: usize = 16;
        const VALUE_BUDGET: usize = 32 << 10;
        let words = patterns.div_ceil(64).max(1);
        let by_dispatch = (TARGET_WORDS / words).clamp(1, 8);
        // A shard's values: `words` clean 64-bit words per slot and
        // `words` noisy ones per gate (an input's or constant's noisy
        // half repeats its clean half).
        let per_shard = (self.num_slots + self.gate_count()) * words * 8;
        let by_footprint = (VALUE_BUDGET / per_shard.max(1)).max(1);
        by_dispatch.min(by_footprint)
    }

    /// A fresh, empty scratch for this program. The arena is sized on
    /// first execution and reused afterwards; keep one per worker.
    #[must_use]
    pub fn scratch(&self) -> SimScratch {
        SimScratch {
            arena: Vec::new(),
            any_diff: Vec::new(),
            words: 0,
            offsets: Vec::new(),
            batch_clean: Vec::new(),
            batch_noisy: Vec::new(),
        }
    }

    /// An all-zero tally shaped for this program, ready for
    /// [`SimProgram::run_tally_batch`] to fold shard counts into.
    #[must_use]
    pub fn empty_tally(&self) -> NoisyTally {
        NoisyTally {
            patterns: 0,
            transitions: 0,
            gates: self.gate_count(),
            circuit_errors: 0,
            per_output_errors: vec![0; self.num_outputs()],
            clean_gate_toggles: 0,
            noisy_gate_toggles: 0,
        }
    }

    /// Runs one fused clean/noisy Monte-Carlo chunk and returns its
    /// tally: [`SimProgram::run_tally_batch`] over the single shard
    /// `(config.seed, pattern_seed, patterns)` at `config.epsilon`.
    ///
    /// Bit-identical to
    /// [`monte_carlo_tally`](crate::monte_carlo_tally) with the same
    /// arguments.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadParameter`] if `patterns == 0`.
    pub fn run_tally(
        &self,
        scratch: &mut SimScratch,
        config: &NoisyConfig,
        patterns: usize,
        pattern_seed: u64,
    ) -> Result<NoisyTally, SimError> {
        let shard = ShardSpec {
            fault_seed: config.seed,
            pattern_seed,
            patterns,
        };
        let mut tally = self.empty_tally();
        self.run_tally_batch(
            scratch,
            config.epsilon,
            &[shard],
            std::slice::from_mut(&mut tally),
        )?;
        Ok(tally)
    }

    /// Runs several independent Monte-Carlo shards through **one** tape
    /// pass, folding each shard's counts into its own tally.
    ///
    /// Every slot of the arena holds the shards' word segments back to
    /// back, so each op is dispatched once for `Σ words` instead of
    /// once per shard — this is the batching the order-free v2 fault
    /// stream exists to permit (under the sequential v1 stream the
    /// shards' mask draws could not interleave). Per-shard results are
    /// **bit-identical** to running the same spec in a batch of its
    /// own, which is what [`SimProgram::run_tally`] does: pattern fill
    /// replays each shard's `PatternSet::random` stream, masks are pure
    /// functions of `(fault_seed, op, word)`, and the tail garbage of
    /// one shard's last word never leaks into another shard's counts
    /// because every tally step masks by its own shard's pattern count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadParameter`] if any shard has
    /// `patterns == 0` (no partial execution happens).
    ///
    /// # Panics
    ///
    /// Panics if `tallies` is not exactly one per shard, or any tally
    /// was shaped for a different program.
    pub fn run_tally_batch(
        &self,
        scratch: &mut SimScratch,
        epsilon: f64,
        shards: &[ShardSpec],
        tallies: &mut [NoisyTally],
    ) -> Result<(), SimError> {
        self.run_tally_batch_on(SimProgram::tally_ops, scratch, epsilon, shards, tallies)
    }

    /// [`SimProgram::run_tally_batch`] with its op loop passed in, so
    /// a test can run the scalar body on hosts that have the twin.
    fn run_tally_batch_on(
        &self,
        op_loop: OpLoop,
        scratch: &mut SimScratch,
        epsilon: f64,
        shards: &[ShardSpec],
        tallies: &mut [NoisyTally],
    ) -> Result<(), SimError> {
        assert_eq!(shards.len(), tallies.len(), "need one tally per shard");
        for tally in tallies.iter() {
            assert_eq!(
                tally.per_output_errors.len(),
                self.num_outputs(),
                "tally covers a different output count"
            );
            assert_eq!(
                tally.gates,
                self.gate_count(),
                "tally covers a different netlist"
            );
        }
        for spec in shards {
            if spec.patterns == 0 {
                return Err(SimError::bad(
                    "patterns",
                    spec.patterns,
                    "must be at least 1",
                ));
            }
        }
        if shards.is_empty() {
            return Ok(());
        }

        // Every slot holds `total_words` clean words, then as many noisy
        // ones; shard j's segment spans words offsets[j]..offsets[j]+words_j
        // of each half. (The buffers live in the scratch so the
        // steady-state batch loop stays allocation-free; taken out
        // here to keep `op_dst`'s arena borrow disjoint.)
        let mut offsets = std::mem::take(&mut scratch.offsets);
        offsets.clear();
        let mut total_words = 0usize;
        for spec in shards {
            offsets.push(total_words);
            total_words += spec.patterns.div_ceil(64);
        }
        let width = 2 * total_words;
        scratch.prepare(self.num_slots, width);

        // Input fill: shard-outer / input-inner, one pattern RNG per
        // shard — exactly the words `PatternSet::random` would draw for
        // each shard on its own. Inputs never fail, so the noisy half
        // is a copy.
        for (&off, spec) in offsets.iter().zip(shards) {
            let words = spec.patterns.div_ceil(64);
            let mut rng = StdRng::seed_from_u64(spec.pattern_seed);
            for &slot in &self.input_slots {
                for w in &mut scratch.slot_mut(slot, width)[off..off + words] {
                    *w = rng.next_u64();
                }
            }
        }
        for &slot in &self.input_slots {
            scratch
                .slot_mut(slot, width)
                .copy_within(..total_words, total_words);
        }
        self.fill_consts(scratch, width);

        let plan = MaskPlan::new(epsilon);
        let mut clean_toggles = std::mem::take(&mut scratch.batch_clean);
        let mut noisy_toggles = std::mem::take(&mut scratch.batch_noisy);
        clean_toggles.clear();
        clean_toggles.resize(shards.len(), 0);
        noisy_toggles.clear();
        noisy_toggles.resize(shards.len(), 0);
        op_loop(
            self,
            scratch,
            &plan,
            shards,
            &offsets,
            &mut clean_toggles,
            &mut noisy_toggles,
        );

        // Per-shard output mismatches: full words first, then the tail
        // word masked by the shard's own pattern count.
        let arena = &scratch.arena;
        let any_diff = &mut scratch.any_diff;
        for (j, (&off, spec)) in offsets.iter().zip(shards).enumerate() {
            let words = spec.patterns.div_ceil(64);
            let tail = tail_mask(spec.patterns);
            let tally = &mut tallies[j];
            any_diff[..words].fill(0);
            for (o, &slot) in self.output_slots.iter().enumerate() {
                let c = &arena[slot as usize * width + off..][..words];
                let z = &arena[slot as usize * width + total_words + off..][..words];
                let mut ones = 0u64;
                for w in 0..words - 1 {
                    let diff = c[w] ^ z[w];
                    ones += u64::from(diff.count_ones());
                    any_diff[w] |= diff;
                }
                let diff = (c[words - 1] ^ z[words - 1]) & tail;
                ones += u64::from(diff.count_ones());
                any_diff[words - 1] |= diff;
                tally.per_output_errors[o] += ones;
            }
            tally.circuit_errors += any_diff[..words]
                .iter()
                .map(|&w| u64::from(w.count_ones()))
                .sum::<u64>();
            tally.patterns += spec.patterns;
            tally.transitions += spec.patterns - 1;
            tally.clean_gate_toggles += clean_toggles[j];
            tally.noisy_gate_toggles += noisy_toggles[j];
        }
        scratch.offsets = offsets;
        scratch.batch_clean = clean_toggles;
        scratch.batch_noisy = noisy_toggles;
        Ok(())
    }

    /// The op loop of [`SimProgram::run_tally_batch`], a kernel entry:
    /// one CPU-feature check, then [`SimProgram::tally_ops_body`] or its
    /// AVX-512 twin.
    #[allow(unsafe_code)]
    fn tally_ops(
        &self,
        scratch: &mut SimScratch,
        plan: &MaskPlan,
        shards: &[ShardSpec],
        offsets: &[usize],
        clean_toggles: &mut [u64],
        noisy_toggles: &mut [u64],
    ) {
        #[cfg(target_arch = "x86_64")]
        if avx512() {
            // SAFETY: the twin's target features were just detected.
            unsafe {
                self.tally_ops_avx512(scratch, plan, shards, offsets, clean_toggles, noisy_toggles);
            }
            return;
        }
        self.tally_ops_body(scratch, plan, shards, offsets, clean_toggles, noisy_toggles);
    }

    /// [`SimProgram::tally_ops_body`] compiled for AVX-512.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vpopcntdq")]
    fn tally_ops_avx512(
        &self,
        scratch: &mut SimScratch,
        plan: &MaskPlan,
        shards: &[ShardSpec],
        offsets: &[usize],
        clean_toggles: &mut [u64],
        noisy_toggles: &mut [u64],
    ) {
        self.tally_ops_body(scratch, plan, shards, offsets, clean_toggles, noisy_toggles);
    }

    /// Evaluates both halves of every op's slot over the filled arena,
    /// XORs each shard's fault masks into its noisy segment and adds
    /// each shard's gate toggles. The fused kernels, the mask body and
    /// the toggle counts are `#[inline(always)]`, so the whole loop is
    /// compiled for the entry's target features.
    #[inline(always)]
    fn tally_ops_body(
        &self,
        scratch: &mut SimScratch,
        plan: &MaskPlan,
        shards: &[ShardSpec],
        offsets: &[usize],
        clean_toggles: &mut [u64],
        noisy_toggles: &mut [u64],
    ) {
        let total_words = scratch.words / 2;
        // ε = 0 (exactly, or quantized) XORs nothing: skip the mask
        // loop outright — the oracle's masks are identically zero too.
        let draw_masks = !plan.is_zero();
        let mut block = MaskBlock::new();
        for (op_index, op) in self.ops.iter().enumerate() {
            let (lo, dst) = scratch.op_dst(op.dst);
            let operands = &self.operands[op.operands.0 as usize..op.operands.1 as usize];
            eval_op_pair(op.kind, lo, total_words, operands, dst);
            let (clean_dst, noisy_dst) = dst.split_at_mut(total_words);
            for (j, (&off, spec)) in offsets.iter().zip(shards).enumerate() {
                let words = spec.patterns.div_ceil(64);
                let noisy_seg = &mut noisy_dst[off..off + words];
                if draw_masks {
                    let gate = gate_state(spec.fault_seed, op_index as u64);
                    plan.xor_masks_with(&mut block, gate, 0, noisy_seg);
                }
                let (clean, noisy) =
                    toggle_count_pair(&clean_dst[off..off + words], noisy_seg, spec.patterns);
                clean_toggles[j] += clean;
                noisy_toggles[j] += noisy;
            }
        }
    }

    /// Evaluates every node error-free under `patterns`, leaving the
    /// streams in `scratch` for [`SimProgram::node_stream`] /
    /// [`SimProgram::output_stream`].
    ///
    /// Produces the exact word values of
    /// [`evaluate_packed`](crate::evaluate_packed).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InputMismatch`] if the pattern set was built
    /// for a different input count.
    pub fn run_clean(
        &self,
        scratch: &mut SimScratch,
        patterns: &PatternSet,
    ) -> Result<(), SimError> {
        if patterns.num_inputs() != self.num_inputs() {
            return Err(SimError::InputMismatch {
                expected: self.num_inputs(),
                got: patterns.num_inputs(),
            });
        }
        self.load_copies(scratch, patterns, 1);
        self.eval_clean(scratch);
        Ok(())
    }

    /// Lays `copies` copies of `patterns` side by side in every input
    /// slot (copy `k` is words `k·t..(k+1)·t` of a `copies·t`-word
    /// slot, `t` the pattern set's words per signal) and fills the
    /// constants to match, ready for [`SimProgram::eval_clean`].
    pub(crate) fn load_copies(
        &self,
        scratch: &mut SimScratch,
        patterns: &PatternSet,
        copies: usize,
    ) {
        let words = patterns.words_per_signal();
        scratch.prepare(self.num_slots, copies * words);
        for (i, &slot) in self.input_slots.iter().enumerate() {
            for copy in scratch
                .slot_mut(slot, copies * words)
                .chunks_exact_mut(words)
            {
                copy.copy_from_slice(patterns.input_words(i));
            }
        }
        self.fill_consts(scratch, copies * words);
    }

    /// Inverts, for each `k`, copy `k` of input `first + k`'s stream
    /// laid out by [`SimProgram::load_copies`] with `words` words per
    /// copy: the input fill of [`PatternSet::with_input_flipped`] for
    /// one input per copy. Inverting twice restores the streams.
    pub(crate) fn invert_copies(
        &self,
        scratch: &mut SimScratch,
        first: usize,
        count: usize,
        words: usize,
    ) {
        let width = scratch.words;
        for (k, &slot) in self.input_slots[first..first + count].iter().enumerate() {
            for w in &mut scratch.slot_mut(slot, width)[k * words..(k + 1) * words] {
                *w = !*w;
            }
        }
    }

    /// The clean stream of every output under all `2^n` assignments of
    /// the `n` inputs, in the natural binary order of
    /// [`PatternSet::exhaustive`], output-major: output `o` holds words
    /// `o·t..(o+1)·t` for `t = ⌈2^n / 64⌉`.
    ///
    /// The tape runs over windows of [`WINDOW`] words, which
    /// divide `t` because both are powers of two. Each window's input
    /// words are computed in place and the window-sized arena is reused,
    /// so the memory beyond the returned streams is `num_slots` windows,
    /// not `num_slots` full streams.
    pub(crate) fn exhaustive_output_streams(&self, scratch: &mut SimScratch) -> Vec<u64> {
        let total = (1usize << self.num_inputs()).div_ceil(64);
        let window = total.min(WINDOW);
        scratch.prepare(self.num_slots, window);
        self.fill_consts(scratch, window);
        let mut streams = vec![0u64; self.num_outputs() * total];
        for start in (0..total).step_by(window) {
            for (i, &slot) in self.input_slots.iter().enumerate() {
                for (k, w) in scratch.slot_mut(slot, window).iter_mut().enumerate() {
                    *w = exhaustive_word(i, start + k);
                }
            }
            self.eval_clean(scratch);
            for (stream, &slot) in streams.chunks_exact_mut(total).zip(&self.output_slots) {
                stream[start..start + window].copy_from_slice(scratch.slot(slot, window));
            }
        }
        streams
    }

    /// Re-evaluates every op error-free over the input and constant
    /// streams already in `scratch`.
    pub(crate) fn eval_clean(&self, scratch: &mut SimScratch) {
        let words = scratch.words;
        for op in &self.ops {
            let (lo, dst) = scratch.op_dst(op.dst);
            let operands = &self.operands[op.operands.0 as usize..op.operands.1 as usize];
            eval_op(op.kind, lo, words, operands, dst);
        }
    }

    /// The clean stream of node `id` after a [`SimProgram::run_clean`].
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to the compiled netlist.
    #[must_use]
    pub fn node_stream<'s>(&self, scratch: &'s SimScratch, id: NodeId) -> &'s [u64] {
        scratch.slot(self.node_slots[id.index()], scratch.words)
    }

    /// The clean stream of output `index` after a
    /// [`SimProgram::run_clean`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a valid output index.
    #[must_use]
    pub fn output_stream<'s>(&self, scratch: &'s SimScratch, index: usize) -> &'s [u64] {
        scratch.slot(self.output_slots[index], scratch.words)
    }

    /// Simulates `patterns` random vectors (seeded) and profiles the
    /// netlist — bit-identical to
    /// [`estimate_activity`](crate::estimate_activity).
    ///
    /// A kernel entry: one CPU-feature check, then the windowed
    /// evaluate-and-count body or its AVX-512 twin. The tape runs over
    /// windows of 32 words in one reused window arena (see the
    /// [module docs](self)), so the memory is one window per slot plus
    /// three words per node, whatever `patterns` is.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadParameter`] if `patterns < 2`.
    #[allow(unsafe_code)]
    pub fn estimate_activity(
        &self,
        scratch: &mut SimScratch,
        patterns: usize,
        seed: u64,
    ) -> Result<ActivityProfile, SimError> {
        if patterns < 2 {
            return Err(SimError::bad("patterns", patterns, "must be at least 2"));
        }
        #[cfg(target_arch = "x86_64")]
        if avx512() {
            // SAFETY: the twin's target features were just detected.
            return Ok(unsafe { self.activity_avx512(scratch, patterns, seed) });
        }
        Ok(self.activity_body(scratch, patterns, seed))
    }

    /// [`SimProgram::activity_body`] compiled for AVX-512.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq,avx512vpopcntdq")]
    fn activity_avx512(
        &self,
        scratch: &mut SimScratch,
        patterns: usize,
        seed: u64,
    ) -> ActivityProfile {
        self.activity_body(scratch, patterns, seed)
    }

    /// Evaluates the tape window by window and counts each window while
    /// it is still in cache. Input `i`'s words are words `i·t..(i+1)·t`
    /// of the seed's stream (`t = ⌈patterns/64⌉`), exactly as
    /// [`PatternSet::random`] draws them: one pass over the stream
    /// positions a generator at each input's first word. Every node
    /// keeps integer ones and toggles; a window's last word is counted
    /// once the next window's first word gives its boundary toggle, and
    /// the final word only over its valid patterns. The floats are
    /// formed once, in node order, by the same operations in both
    /// compilations (Rust never contracts or reorders them).
    #[inline(always)]
    fn activity_body(
        &self,
        scratch: &mut SimScratch,
        patterns: usize,
        seed: u64,
    ) -> ActivityProfile {
        let words = patterns.div_ceil(64);
        let mut stream = StdRng::seed_from_u64(seed);
        let mut inputs: Vec<StdRng> = (0..self.num_inputs())
            .map(|_| {
                let first = stream.clone();
                for _ in 0..words {
                    stream.next_u64();
                }
                first
            })
            .collect();
        // Per node: ones, toggles, and the pending last word of the
        // window before.
        let mut counts = vec![[0u64; 3]; self.node_slots.len()];
        for start in (0..words).step_by(WINDOW) {
            let len = WINDOW.min(words - start);
            scratch.prepare(self.num_slots, len);
            self.fill_consts(scratch, len);
            for (rng, &slot) in inputs.iter_mut().zip(&self.input_slots) {
                for w in scratch.slot_mut(slot, len) {
                    *w = rng.next_u64();
                }
            }
            self.eval_clean(scratch);
            for (&slot, [ones, toggles, last]) in self.node_slots.iter().zip(&mut counts) {
                let window = scratch.slot(slot, len);
                let (mut o, mut t) = (0u64, 0u64);
                if start > 0 {
                    o += u64::from(last.count_ones());
                    t += block_toggles(*last, window[0]);
                }
                for (&x, &next) in window.iter().zip(&window[1..]) {
                    o += u64::from(x.count_ones());
                    t += block_toggles(x, next);
                }
                *ones += o;
                *toggles += t;
                *last = window[len - 1];
            }
        }
        let tail = tail_mask(patterns);
        // The final word's in-word transitions between valid patterns.
        let within = (1u64 << ((patterns - 1) % 64)) - 1;
        let transitions = patterns - 1;
        let mut signal_probability = Vec::with_capacity(counts.len());
        let mut switching_activity = Vec::with_capacity(counts.len());
        let mut gate_sw_sum = 0.0;
        let mut gate_p_sum = 0.0;
        let mut gates = 0usize;
        for (&[ones, toggles, last], &is_gate) in counts.iter().zip(&self.is_gate) {
            let ones = ones + u64::from((last & tail).count_ones());
            let toggles = toggles + u64::from(((last ^ (last >> 1)) & within).count_ones());
            let p = ones as f64 / patterns as f64;
            let sw = toggles as f64 / transitions as f64;
            if is_gate {
                gate_sw_sum += sw;
                gate_p_sum += p;
                gates += 1;
            }
            signal_probability.push(p);
            switching_activity.push(sw);
        }
        let (avg_gate_activity, avg_gate_probability) = if gates == 0 {
            (0.0, 0.0)
        } else {
            (gate_sw_sum / gates as f64, gate_p_sum / gates as f64)
        };
        ActivityProfile {
            signal_probability,
            switching_activity,
            avg_gate_activity,
            avg_gate_probability,
            patterns,
        }
    }

    /// Writes the constant slots at slot width `width`.
    fn fill_consts(&self, scratch: &mut SimScratch, width: usize) {
        if let Some(slot) = self.zero_slot {
            scratch.slot_mut(slot, width).fill(0);
        }
        if let Some(slot) = self.ones_slot {
            scratch.slot_mut(slot, width).fill(!0);
        }
    }
}

/// Toggles of one full 64-transition block: the 63 in-word
/// transitions of `x` and the boundary into `next`, as one popcount of
/// `x` against its funnel shift `(x >> 1) | (next << 63)`. Branch- and
/// mask-free, so the loops over full words vectorize (`vpopcntq` in
/// the AVX-512 twins).
#[inline(always)]
fn block_toggles(x: u64, next: u64) -> u64 {
    u64::from((x ^ ((x >> 1) | (next << 63))).count_ones())
}

/// [`toggle_count`] over a gate's clean and noisy streams in one fused
/// loop — both streams are L1-hot right after evaluation, and the two
/// independent popcount chains fill the pipeline the single-stream loop
/// leaves half idle. Bit-identical to two `toggle_count` calls (pinned
/// by a unit test below).
#[inline(always)]
fn toggle_count_pair(clean: &[u64], noisy: &[u64], count: usize) -> (u64, u64) {
    if count < 2 {
        return (0, 0);
    }
    let transitions = count - 1;
    let full = transitions / 64;
    let mut c_toggles = 0u64;
    let mut n_toggles = 0u64;
    for w in 0..full {
        c_toggles += block_toggles(clean[w], clean[w + 1]);
        n_toggles += block_toggles(noisy[w], noisy[w + 1]);
    }
    let rest = transitions - 64 * full;
    if rest > 0 {
        let mask = (1u64 << rest) - 1;
        let c = clean[full];
        let n = noisy[full];
        c_toggles += u64::from(((c ^ (c >> 1)) & mask).count_ones());
        n_toggles += u64::from(((n ^ (n >> 1)) & mask).count_ones());
    }
    (c_toggles, n_toggles)
}

/// Computes one op's clean **and** noisy streams, the two halves of
/// `dst`, in a single fused loop; every slot is `2 × words` wide.
///
/// Specialized kernels cover the shapes that dominate real netlists
/// (inverters; 2- and 3-input And/Nand/Or/Nor/Xor/Xnor; majority):
/// one pass over the operand words evaluates both halves side by side,
/// letting the two independent dataflows fill the pipeline. Other
/// shapes fall back to one [`eval_op`] over the whole slot.
/// Bit-identical to that fallback by construction — each half computes
/// the same expression over the same operand words (and a unit test
/// below pins it).
#[inline(always)]
fn eval_op_pair(kind: GateKind, lo: &[u64], words: usize, operands: &[u32], dst: &mut [u64]) {
    // Every half is sliced to exactly `words` words, so the fused loops
    // need no bounds checks.
    let pair = |i: usize| -> (&[u64], &[u64]) {
        let clean = operands[i] as usize * 2 * words;
        (&lo[clean..][..words], &lo[clean + words..][..words])
    };
    let (clean_dst, noisy_dst) = dst.split_at_mut(words);
    let noisy_dst = &mut noisy_dst[..words];
    macro_rules! fuse2 {
        (|$a:ident, $b:ident| $expr:expr) => {{
            let (ac, an) = pair(0);
            let (bc, bn) = pair(1);
            for (w, (oc, on)) in clean_dst.iter_mut().zip(noisy_dst.iter_mut()).enumerate() {
                let ($a, $b) = (ac[w], bc[w]);
                *oc = $expr;
                let ($a, $b) = (an[w], bn[w]);
                *on = $expr;
            }
        }};
    }
    macro_rules! fuse3 {
        (|$a:ident, $b:ident, $c:ident| $expr:expr) => {{
            let (ac, an) = pair(0);
            let (bc, bn) = pair(1);
            let (cc, cn) = pair(2);
            for (w, (oc, on)) in clean_dst.iter_mut().zip(noisy_dst.iter_mut()).enumerate() {
                let ($a, $b, $c) = (ac[w], bc[w], cc[w]);
                *oc = $expr;
                let ($a, $b, $c) = (an[w], bn[w], cn[w]);
                *on = $expr;
            }
        }};
    }
    match (kind, operands.len()) {
        (GateKind::Not, 1) => {
            let (ac, an) = pair(0);
            for (w, (oc, on)) in clean_dst.iter_mut().zip(noisy_dst.iter_mut()).enumerate() {
                *oc = !ac[w];
                *on = !an[w];
            }
        }
        (GateKind::And, 2) => fuse2!(|a, b| a & b),
        (GateKind::Nand, 2) => fuse2!(|a, b| !(a & b)),
        (GateKind::Or, 2) => fuse2!(|a, b| a | b),
        (GateKind::Nor, 2) => fuse2!(|a, b| !(a | b)),
        (GateKind::Xor, 2) => fuse2!(|a, b| a ^ b),
        (GateKind::Xnor, 2) => fuse2!(|a, b| !(a ^ b)),
        (GateKind::And, 3) => fuse3!(|a, b, c| a & b & c),
        (GateKind::Nand, 3) => fuse3!(|a, b, c| !(a & b & c)),
        (GateKind::Or, 3) => fuse3!(|a, b, c| a | b | c),
        (GateKind::Nor, 3) => fuse3!(|a, b, c| !(a | b | c)),
        (GateKind::Xor, 3) => fuse3!(|a, b, c| a ^ b ^ c),
        (GateKind::Xnor, 3) => fuse3!(|a, b, c| !(a ^ b ^ c)),
        (GateKind::Maj, 3) => fuse3!(|a, b, c| (a & b) | (a & c) | (b & c)),
        _ => eval_op(kind, lo, 2 * words, operands, dst),
    }
}

/// Computes one op's packed stream from already-computed slots of
/// `width` words.
///
/// `lo` is the arena prefix below the op's destination — every operand
/// slot lies inside it because fanins precede their gate in slot order.
/// The 2- and 3-input And/Nand/Or/Nor/Xor/Xnor shapes, the ones
/// [`eval_op_pair`] fuses, take one pass over the operand words; wider
/// gates fold one operand per pass.
fn eval_op(kind: GateKind, lo: &[u64], width: usize, operands: &[u32], out: &mut [u64]) {
    let src = |i: usize| -> &[u64] { &lo[operands[i] as usize * width..][..width] };
    macro_rules! one2 {
        (|$a:ident, $b:ident| $expr:expr) => {{
            for ((o, &$a), &$b) in out.iter_mut().zip(src(0)).zip(src(1)) {
                *o = $expr;
            }
        }};
    }
    macro_rules! one3 {
        (|$a:ident, $b:ident, $c:ident| $expr:expr) => {{
            for (((o, &$a), &$b), &$c) in out.iter_mut().zip(src(0)).zip(src(1)).zip(src(2)) {
                *o = $expr;
            }
        }};
    }
    // Any width: copy the first operand, fold in the rest one pass each,
    // then negate if `kind` is the inverted form.
    macro_rules! fold {
        ($op:tt, $inverted:path) => {{
            out.copy_from_slice(src(0));
            for i in 1..operands.len() {
                for (o, &r) in out.iter_mut().zip(src(i)) {
                    *o $op r;
                }
            }
            if kind == $inverted {
                for o in out.iter_mut() {
                    *o = !*o;
                }
            }
        }};
    }
    match (kind, operands.len()) {
        (GateKind::Const0 | GateKind::Const1 | GateKind::Buf, _) => {
            unreachable!("constants and buffers are slots, not ops")
        }
        (GateKind::Not, _) => {
            for (o, &a) in out.iter_mut().zip(src(0)) {
                *o = !a;
            }
        }
        (GateKind::And, 2) => one2!(|a, b| a & b),
        (GateKind::Nand, 2) => one2!(|a, b| !(a & b)),
        (GateKind::Or, 2) => one2!(|a, b| a | b),
        (GateKind::Nor, 2) => one2!(|a, b| !(a | b)),
        (GateKind::Xor, 2) => one2!(|a, b| a ^ b),
        (GateKind::Xnor, 2) => one2!(|a, b| !(a ^ b)),
        (GateKind::And, 3) => one3!(|a, b, c| a & b & c),
        (GateKind::Nand, 3) => one3!(|a, b, c| !(a & b & c)),
        (GateKind::Or, 3) => one3!(|a, b, c| a | b | c),
        (GateKind::Nor, 3) => one3!(|a, b, c| !(a | b | c)),
        (GateKind::Xor, 3) => one3!(|a, b, c| a ^ b ^ c),
        (GateKind::Xnor, 3) => one3!(|a, b, c| !(a ^ b ^ c)),
        (GateKind::Maj, _) => one3!(|a, b, c| (a & b) | (a & c) | (b & c)),
        (GateKind::And | GateKind::Nand, _) => fold!(&=, GateKind::Nand),
        (GateKind::Or | GateKind::Nor, _) => fold!(|=, GateKind::Nor),
        (GateKind::Xor | GateKind::Xnor, _) => fold!(^=, GateKind::Xnor),
    }
}

/// Reusable execution state for one [`SimProgram`].
///
/// Holds the slot arena and the output-diff buffer. Allocated lazily on
/// the first run, grown never shrunk, so a steady-state chunk loop
/// performs no heap allocation. Keep one scratch per worker thread.
#[derive(Clone, Debug)]
pub struct SimScratch {
    /// `num_slots` slots of `words` packed values, slot-major.
    arena: Vec<u64>,
    /// Per-word OR of all output mismatches of the current chunk.
    any_diff: Vec<u64>,
    /// Slot width of the most recent run, in words.
    words: usize,
    /// Per-shard word offsets of the most recent batch run.
    offsets: Vec<usize>,
    /// Per-shard clean-toggle accumulators of the batch run.
    batch_clean: Vec<u64>,
    /// Per-shard noisy-toggle accumulators of the batch run.
    batch_noisy: Vec<u64>,
}

impl SimScratch {
    /// Sizes the buffers for a run (no-op when already large enough).
    fn prepare(&mut self, num_slots: usize, words: usize) {
        let need = num_slots * words;
        if self.arena.len() < need {
            self.arena.resize(need, 0);
        }
        if self.any_diff.len() < words {
            self.any_diff.resize(words, 0);
        }
        self.words = words;
    }

    fn slot(&self, slot: u32, words: usize) -> &[u64] {
        &self.arena[slot as usize * words..][..words]
    }

    fn slot_mut(&mut self, slot: u32, words: usize) -> &mut [u64] {
        &mut self.arena[slot as usize * words..][..words]
    }

    /// Splits the arena at an op's destination: the read-only prefix
    /// holding every operand, and the destination slot.
    fn op_dst(&mut self, dst: u32) -> (&[u64], &mut [u64]) {
        let (lo, hi) = self.arena.split_at_mut(dst as usize * self.words);
        (lo, &mut hi[..self.words])
    }
}

/// How many distinct programs a [`ProgramCache`] holds before flushing.
///
/// Programs are pure functions of netlist structure, so a flush only
/// costs recompilation — the same policy as the service registries.
const PROGRAM_CACHE_LIMIT: usize = 1024;

/// Lifetime counters of a [`ProgramCache`].
///
/// `compiled + shared` is the total number of
/// [`ProgramCache::get_or_compile`] calls; only `compiled` of them
/// built a tape.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgramCacheStats {
    /// Requests lowered from scratch (one tape construction each).
    pub compiled: u64,
    /// Requests answered by an already-cached tape.
    pub shared: u64,
}

/// A bounded, thread-safe store of compiled programs keyed on
/// [`netlist_fingerprint`](crate::netlist_fingerprint).
///
/// The key covers structure only — names do not influence execution —
/// so structurally identical netlists share one compilation, and every
/// tape the cache returns is exactly the one [`SimProgram::compile`]
/// builds for the request.
#[derive(Debug, Default)]
pub struct ProgramCache {
    programs: Mutex<HashMap<Fingerprint, Arc<SimProgram>>>,
    compiled: AtomicU64,
    shared: AtomicU64,
}

impl ProgramCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        ProgramCache::default()
    }

    /// Returns the compiled program for `netlist`, compiling and
    /// registering it on first sight of its structure.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock was poisoned by a panicking thread.
    #[must_use]
    pub fn get_or_compile(&self, netlist: &Netlist) -> Arc<SimProgram> {
        let key = experiment_builder("sim-program", netlist).finish();
        let mut programs = self.programs.lock().expect("program cache lock");
        if let Some(program) = programs.get(&key) {
            self.shared.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(program);
        }
        if programs.len() >= PROGRAM_CACHE_LIMIT {
            programs.clear();
        }
        let program = Arc::new(SimProgram::compile(netlist));
        programs.insert(key, Arc::clone(&program));
        self.compiled.fetch_add(1, Ordering::Relaxed);
        program
    }

    /// Lifetime counters: how requests were served so far.
    #[must_use]
    pub fn stats(&self) -> ProgramCacheStats {
        ProgramCacheStats {
            compiled: self.compiled.load(Ordering::Relaxed),
            shared: self.shared.load(Ordering::Relaxed),
        }
    }

    /// Number of cached programs.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock was poisoned by a panicking thread.
    #[must_use]
    pub fn len(&self) -> usize {
        self.programs.lock().expect("program cache lock").len()
    }

    /// Whether the cache is empty.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock was poisoned by a panicking thread.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::toggle_count;
    use crate::noisy::monte_carlo_tally;
    use crate::{estimate_activity, evaluate_packed};

    fn mixed_netlist() -> Netlist {
        let mut nl = Netlist::new("mixed");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let zero = nl.add_const(false);
        let one = nl.add_const(true);
        let buf = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let not = nl.add_gate(GateKind::Not, &[buf]).unwrap();
        let and = nl.add_gate(GateKind::And, &[a, b, c]).unwrap();
        let nor = nl.add_gate(GateKind::Nor, &[not, zero]).unwrap();
        let xor = nl.add_gate(GateKind::Xor, &[and, nor, one]).unwrap();
        let maj = nl.add_gate(GateKind::Maj, &[a, b, xor]).unwrap();
        let buf2 = nl.add_gate(GateKind::Buf, &[maj]).unwrap();
        nl.add_output("y", buf2).unwrap();
        nl.add_output("z", xor).unwrap();
        nl
    }

    #[test]
    fn compiled_tally_matches_interpreter_exactly() {
        let nl = mixed_netlist();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        for eps in [0.0, 0.01, 0.3, 0.5, 1.0] {
            let cfg = NoisyConfig::new(eps, 17).unwrap();
            for patterns in [1usize, 7, 64, 65, 1000] {
                let compiled = program.run_tally(&mut scratch, &cfg, patterns, 23).unwrap();
                let interp = monte_carlo_tally(&nl, &cfg, patterns, 23).unwrap();
                assert_eq!(compiled, interp, "eps={eps} patterns={patterns}");
            }
        }
    }

    #[test]
    fn accumulate_equals_interpreted_merge() {
        let nl = mixed_netlist();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        let cfg = NoisyConfig::new(0.2, 3).unwrap();
        let mut acc = program.empty_tally();
        // Big chunk first so the smaller one reuses the arena.
        for (patterns, pattern_seed) in [(500, 5), (33, 6)] {
            let shard = ShardSpec {
                fault_seed: cfg.seed,
                pattern_seed,
                patterns,
            };
            program
                .run_tally_batch(
                    &mut scratch,
                    cfg.epsilon,
                    &[shard],
                    std::slice::from_mut(&mut acc),
                )
                .unwrap();
        }
        let mut expected = monte_carlo_tally(&nl, &cfg, 500, 5).unwrap();
        expected.merge(&monte_carlo_tally(&nl, &cfg, 33, 6).unwrap());
        assert_eq!(acc, expected);
    }

    #[test]
    fn clean_run_matches_evaluate_packed() {
        let nl = mixed_netlist();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        let patterns = PatternSet::random(nl.input_count(), 300, 9);
        program.run_clean(&mut scratch, &patterns).unwrap();
        let values = evaluate_packed(&nl, &patterns).unwrap();
        for id in nl.node_ids() {
            assert_eq!(
                program.node_stream(&scratch, id),
                values.node(id),
                "node {id}"
            );
        }
    }

    #[test]
    fn exhaustive_windows_match_evaluate_packed() {
        // A partial word, one word, one window and four windows.
        for inputs in [3usize, 6, 11, 13] {
            let config = nanobound_gen::random::RandomDagConfig {
                inputs,
                gates: 40,
                max_fanin: 3,
                outputs: 4,
                seed: inputs as u64,
            };
            let nl = nanobound_gen::random::random_dag(&config).unwrap();
            let program = SimProgram::compile(&nl);
            let streams = program.exhaustive_output_streams(&mut program.scratch());
            let patterns = PatternSet::exhaustive(inputs).unwrap();
            let values = evaluate_packed(&nl, &patterns).unwrap();
            let words = patterns.words_per_signal();
            assert_eq!(streams.len(), nl.output_count() * words);
            for (stream, out) in streams.chunks_exact(words).zip(nl.outputs()) {
                assert_eq!(
                    stream,
                    values.node(out.driver),
                    "{inputs} inputs, {}",
                    out.name
                );
            }
        }
    }

    #[test]
    fn activity_is_bit_identical() {
        let nl = mixed_netlist();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        let compiled = program.estimate_activity(&mut scratch, 2000, 11).unwrap();
        let interp = estimate_activity(&nl, 2000, 11).unwrap();
        assert_eq!(compiled, interp);
    }

    #[test]
    fn zero_gate_netlists_execute() {
        let mut nl = Netlist::new("wires");
        let a = nl.add_input("a");
        let buf = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let one = nl.add_const(true);
        nl.add_output("y", buf).unwrap();
        nl.add_output("k", one).unwrap();
        let program = SimProgram::compile(&nl);
        assert_eq!(program.gate_count(), 0);
        let mut scratch = program.scratch();
        let cfg = NoisyConfig::new(0.4, 1).unwrap();
        let compiled = program.run_tally(&mut scratch, &cfg, 100, 2).unwrap();
        let interp = monte_carlo_tally(&nl, &cfg, 100, 2).unwrap();
        assert_eq!(compiled, interp);
        assert_eq!(compiled.circuit_errors, 0);
    }

    #[test]
    fn rejects_zero_patterns_and_wrong_input_counts() {
        let nl = mixed_netlist();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        let cfg = NoisyConfig::new(0.1, 1).unwrap();
        assert!(program.run_tally(&mut scratch, &cfg, 0, 2).is_err());
        let wrong = PatternSet::random(2, 64, 3);
        assert_eq!(
            program.run_clean(&mut scratch, &wrong).unwrap_err(),
            SimError::InputMismatch {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn program_cache_shares_structures_and_is_bounded() {
        let cache = ProgramCache::new();
        let a = cache.get_or_compile(&mixed_netlist());
        let b = cache.get_or_compile(&mixed_netlist());
        assert!(Arc::ptr_eq(&a, &b), "same structure must share a program");
        assert_eq!(cache.len(), 1);
        let mut other = mixed_netlist();
        let extra = other.add_gate(GateKind::Not, &[other.inputs()[0]]).unwrap();
        other.add_output("w", extra).unwrap();
        let c = cache.get_or_compile(&other);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.stats(),
            ProgramCacheStats {
                compiled: 2,
                shared: 1
            }
        );
        assert_eq!(*c, SimProgram::compile(&other), "a plain compilation");
    }

    #[test]
    fn batched_shards_are_bit_identical_to_individual_runs() {
        let nl = mixed_netlist();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        for eps in [0.0, 0.01, 0.3, 0.5, 1.0] {
            // Ragged shard sizes: exact word multiples, tails, and a
            // single-pattern shard (zero transitions).
            let shards = [
                ShardSpec {
                    fault_seed: 101,
                    pattern_seed: 201,
                    patterns: 64,
                },
                ShardSpec {
                    fault_seed: 102,
                    pattern_seed: 202,
                    patterns: 65,
                },
                ShardSpec {
                    fault_seed: 103,
                    pattern_seed: 203,
                    patterns: 1,
                },
                ShardSpec {
                    fault_seed: 104,
                    pattern_seed: 204,
                    patterns: 333,
                },
            ];
            let mut batched = vec![program.empty_tally(); shards.len()];
            program
                .run_tally_batch(&mut scratch, eps, &shards, &mut batched)
                .unwrap();
            for (spec, got) in shards.iter().zip(&batched) {
                let cfg = NoisyConfig::new(eps, spec.fault_seed).unwrap();
                let solo = program
                    .run_tally(&mut scratch, &cfg, spec.patterns, spec.pattern_seed)
                    .unwrap();
                assert_eq!(*got, solo, "eps={eps} spec={spec:?}");
            }
        }
    }

    #[test]
    fn batch_rejects_bad_shapes_without_partial_work() {
        let nl = mixed_netlist();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        let shards = [ShardSpec {
            fault_seed: 1,
            pattern_seed: 2,
            patterns: 0,
        }];
        let mut tallies = vec![program.empty_tally()];
        assert!(program
            .run_tally_batch(&mut scratch, 0.1, &shards, &mut tallies)
            .is_err());
        assert_eq!(tallies[0], program.empty_tally(), "no partial counts");
        // Empty batch is a no-op, not an error.
        program
            .run_tally_batch(&mut scratch, 0.1, &[], &mut [])
            .unwrap();
    }

    #[test]
    fn fused_pair_kernels_match_generic_eval_op() {
        use rand::rngs::StdRng;
        // Every specialized shape plus a fallback arity (4-input
        // Nand): operand slots 0..=3 of 3 clean and 3 noisy words,
        // destinations written both ways and compared.
        let mut rng = StdRng::seed_from_u64(5);
        let words = 3usize;
        let lo: Vec<u64> = (0..4 * 2 * words).map(|_| rng.next_u64()).collect();
        let cases: Vec<(GateKind, Vec<u32>)> = vec![
            (GateKind::Not, vec![0]),
            (GateKind::And, vec![0, 1]),
            (GateKind::Nand, vec![0, 1]),
            (GateKind::Or, vec![2, 3]),
            (GateKind::Nor, vec![2, 3]),
            (GateKind::Xor, vec![0, 2]),
            (GateKind::Xnor, vec![0, 2]),
            (GateKind::And, vec![0, 1, 2]),
            (GateKind::Nand, vec![0, 1, 2]),
            (GateKind::Or, vec![0, 1, 2]),
            (GateKind::Nor, vec![0, 1, 2]),
            (GateKind::Xor, vec![0, 1, 2]),
            (GateKind::Xnor, vec![0, 1, 2]),
            (GateKind::Maj, vec![0, 1, 2]),
            (GateKind::Nand, vec![0, 1, 2, 3]),
        ];
        for (kind, operands) in cases {
            let mut fused = vec![0u64; 2 * words];
            eval_op_pair(kind, &lo, words, &operands, &mut fused);
            let mut generic = vec![0u64; 2 * words];
            eval_op(kind, &lo, 2 * words, &operands, &mut generic);
            assert_eq!(fused, generic, "{kind:?} x{}", operands.len());
        }
    }

    #[test]
    fn fused_toggle_pair_matches_toggle_count() {
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(99);
        for count in [1usize, 2, 63, 64, 65, 128, 130, 500] {
            let words = count.div_ceil(64);
            let clean: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
            let noisy: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
            let (c, n) = toggle_count_pair(&clean, &noisy, count);
            assert_eq!(c, toggle_count(&clean, count), "count={count}");
            assert_eq!(n, toggle_count(&noisy, count), "count={count}");
        }
    }

    /// Runs a ragged batch through `op_loop` and checks every shard's
    /// tally against the interpreted oracle.
    fn batch_matches_oracle(op_loop: OpLoop, what: &str) {
        let nl = mixed_netlist();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        for eps in [0.0, 1e-3, 0.01, 0.025, 0.3, 0.5, 0.97, 1.0] {
            let shards: Vec<ShardSpec> = [64usize, 65, 1, 333, 4096]
                .iter()
                .zip(0u64..)
                .map(|(&patterns, i)| ShardSpec {
                    fault_seed: 301 + i,
                    pattern_seed: 401 + i,
                    patterns,
                })
                .collect();
            let mut tallies = vec![program.empty_tally(); shards.len()];
            program
                .run_tally_batch_on(op_loop, &mut scratch, eps, &shards, &mut tallies)
                .unwrap();
            for (spec, got) in shards.iter().zip(&tallies) {
                let cfg = NoisyConfig::new(eps, spec.fault_seed).unwrap();
                let oracle = monte_carlo_tally(&nl, &cfg, spec.patterns, spec.pattern_seed);
                assert_eq!(*got, oracle.unwrap(), "{what} eps={eps} spec={spec:?}");
            }
        }
    }

    #[test]
    fn op_loop_scalar_body_and_entry_match_the_oracle() {
        // The entry runs the AVX-512 twin where the CPU has it; the
        // scalar body, the only path elsewhere, is pinned here too.
        batch_matches_oracle(SimProgram::tally_ops_body, "scalar body");
        batch_matches_oracle(SimProgram::tally_ops, "entry");
    }

    #[test]
    fn activity_count_scalar_body_and_entry_match_the_oracle() {
        // One short window, one full window, a second window of one and
        // of two words, and five windows with a partial last word.
        let nl = mixed_netlist();
        let program = SimProgram::compile(&nl);
        let mut scratch = program.scratch();
        for patterns in [2usize, 64, 65, 130, 2000, 2048, 2049, 2113, 10_000] {
            let oracle = estimate_activity(&nl, patterns, 11).unwrap();
            let entry = program.estimate_activity(&mut scratch, patterns, 11);
            assert_eq!(entry.unwrap(), oracle, "patterns={patterns}");
            let scalar = program.activity_body(&mut scratch, patterns, 11);
            assert_eq!(scalar, oracle, "scalar patterns={patterns}");
        }
    }

    #[test]
    fn engine_kind_defaults_to_compiled_when_env_unset() {
        // In-process env mutation is unsafe under parallel tests, so
        // only assert when the hatch is not exported; the full parse
        // matrix (valid values, typos, warm-cache strictness) is
        // exercised end-to-end by tests/cli.rs and the ci.sh gate.
        if std::env::var_os(ENGINE_ENV).is_none() {
            assert_eq!(EngineKind::from_env().unwrap(), EngineKind::Compiled);
        }
    }
}
