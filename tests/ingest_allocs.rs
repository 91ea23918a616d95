//! Ingest allocates per name and per array, never per gate.
//!
//! A counting global allocator counts the allocations and reallocations
//! made on the calling thread, so the test harness's other threads never
//! reach the count. On a generated 20,000-gate `.bench` netlist with 64
//! inputs and 20 outputs, parsing, `transform::prepare` and a clone must
//! each stay under 1,000: a structure that allocates once per gate makes
//! about 20,000.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nanobound::io::bench;
use nanobound::logic::transform;

thread_local! {
    /// Allocations and reallocations made on this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting on the calling thread.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local without a destructor, so bumping it
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn count() {
    // A thread being torn down may have dropped its counter already.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Runs `f` and returns its value with the allocations it made.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
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
