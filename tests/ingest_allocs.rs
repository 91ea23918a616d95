//! Allocation budgets, counted on the calling thread.
//!
//! A counting global allocator counts the allocations and reallocations
//! made on the calling thread, and the bytes that thread holds, so the
//! test harness's other threads never reach the counts.
//!
//! - Ingest allocates per name and per array, never per gate. On a
//!   generated 20,000-gate `.bench` netlist with 64 inputs and 20
//!   outputs, parsing, `transform::prepare` and a clone must each stay
//!   under 1,000 allocations: a structure that allocates once per gate
//!   makes about 20,000.
//! - Exact sensitivity holds the output streams of the `2^n`
//!   assignments, not a full stream for every slot of the tape.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nanobound::io::bench;
use nanobound::logic::{transform, GateKind, Netlist};
use nanobound::sim::{sensitivity, SimProgram};

thread_local! {
    /// Allocations and reallocations made on this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated on this thread minus bytes freed on it.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE_BYTES` has been since [`peak_bytes`] reset it.
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting on the calling thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialized thread-locals without destructors, so bumping them
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(bytes(layout.size()));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(bytes(layout.size()));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(bytes(new_size) - bytes(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        hold(-bytes(layout.size()));
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn bytes(size: usize) -> i64 {
    i64::try_from(size).expect("an allocation fits in isize")
}

fn count(bytes: i64) {
    // A thread being torn down may have dropped its counter already.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    hold(bytes);
}

fn hold(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// Runs `f` and returns its value with the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` and returns its value with the most bytes it held at once.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(before));
    let value = f();
    (value, PEAK_BYTES.with(Cell::get) - before)
}

const GATES: usize = 20_000;
const BUDGET: u64 = 1_000;

/// 64 inputs and 20,000 two-input gates, each reading two of the 256
/// signals before it (so cones reconverge), with the last 20 gates as
/// outputs.
fn netlist_text() -> String {
    const KINDS: [&str; 5] = ["AND", "OR", "NAND", "NOR", "XOR"];
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let name = |i: usize| {
        if i < 64 {
            format!("x{i}")
        } else {
            format!("g{}", i - 64)
        }
    };
    let mut text = String::new();
    for i in 0..64 {
        text.push_str(&format!("INPUT(x{i})\n"));
    }
    for g in GATES - 20..GATES {
        text.push_str(&format!("OUTPUT(g{g})\n"));
    }
    for g in 0..GATES {
        let signals = 64 + g;
        let window = signals.min(256);
        let a = signals - 1 - next(window);
        let b = signals - 1 - next(window);
        let kind = KINDS[next(KINDS.len())];
        text.push_str(&format!("g{g} = {kind}({}, {})\n", name(a), name(b)));
    }
    text
}

#[test]
fn parsing_allocates_per_name_not_per_gate() {
    let text = netlist_text();
    let (design, n) = allocations(|| bench::parse(&text).expect("the netlist parses"));
    assert_eq!(design.netlist.gate_count(), GATES);
    assert!(n < BUDGET, "parsing allocated {n} times");
}

#[test]
fn prepare_allocates_per_name_not_per_gate() {
    let netlist = bench::parse(&netlist_text())
        .expect("the netlist parses")
        .netlist;
    let (mapped, n) = allocations(|| transform::prepare(&netlist, 3).expect("k >= 2"));
    assert!(mapped.gate_count() > GATES / 2, "prepare kept the logic");
    assert!(n < BUDGET, "prepare allocated {n} times");
}

#[test]
fn clone_allocates_per_name_not_per_gate() {
    let netlist = bench::parse(&netlist_text())
        .expect("the netlist parses")
        .netlist;
    let (copy, n) = allocations(|| netlist.clone());
    assert_eq!(copy, netlist);
    assert!(n < BUDGET, "clone allocated {n} times");
}

/// 20 inputs in four groups of five, each group XORed into one output.
fn xor_groups() -> Netlist {
    let mut netlist = Netlist::new("xor_groups");
    let inputs: Vec<_> = (0..20)
        .map(|i| netlist.add_input(format!("x{i}")))
        .collect();
    for (o, group) in inputs.chunks(5).enumerate() {
        let mut acc = group[0];
        for &x in &group[1..] {
            acc = netlist.add_gate(GateKind::Xor, &[acc, x]).expect("arity 2");
        }
        netlist
            .add_output(format!("y{o}"), acc)
            .expect("a fresh name");
    }
    netlist
}

#[test]
fn exact_sensitivity_holds_output_streams_not_slot_streams() {
    let netlist = xor_groups();
    let program = SimProgram::compile(&netlist);
    let mut scratch = program.scratch();
    let (s, peak) = peak_bytes(|| {
        sensitivity::exact_with(&program, &mut scratch).expect("20 inputs are exact")
    });
    assert_eq!(s, 20);
    // One stream of 2^20 assignments is 128 KiB. The fixed 1 MiB covers
    // the five counter planes, the flip-diff stream and one window of
    // every slot; the 52 slots' full streams alone take 6.5 MiB.
    let stream = bytes(1 << 17);
    let budget = bytes(program.num_outputs()) * stream + (1 << 20);
    assert!(
        peak <= budget,
        "exact sensitivity held {peak} bytes, budget {budget}"
    );
}
