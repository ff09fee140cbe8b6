//! A verifier run allocates next to nothing.
//!
//! Every run of an offset cell copies the cell's built machine into one
//! recycled scratch machine with `clone_from`, records its decisions in
//! one flat trace the explorer reuses, and extracts its outcome with
//! buffers planned once per test. What is left per run is the replay
//! scheduler, the outcome vector, and the explorer's frames for the
//! decisions past the run's branch. This test counts, with a per-thread
//! counting allocator, the allocations one DPOR exploration makes per
//! run on two of the corpus's costliest cells, and holds them to 40 % of
//! what a machine cloned afresh for every run made: 126.9 per run on
//! wc_acq/WC and 143.5 on sb4/PC.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dashlat_cpu::config::Consistency;
use dashlat_verify::harness::explore_cell;
use dashlat_verify::litmus::by_name;
use dashlat_verify::{Engine, DEFAULT_MAX_RUNS};

/// Counts every allocation (and every growing reallocation) made through
/// the global allocator, per thread, so tests running on parallel
/// threads do not charge each other.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            count_one();
        }
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations per run of a whole DPOR exploration of `name` under
/// `model` at zero offsets, the cell's machine build included.
fn allocations_per_run(name: &str, model: Consistency) -> f64 {
    let test = by_name(name).expect("corpus test");
    let offsets = vec![0; test.nprocs()];
    let before = allocations();
    let e = explore_cell(&test, model, &offsets, DEFAULT_MAX_RUNS, Engine::Dpor);
    let made = allocations() - before;
    assert!(!e.truncated && e.error.is_none(), "{name}/{model}");
    made as f64 / e.runs as f64
}

#[test]
fn a_verifier_run_allocates_at_most_two_fifths_of_a_fresh_machine_run() {
    for (name, model, fresh) in [
        ("wc_acq", Consistency::Wc, 126.9),
        ("sb4", Consistency::Pc, 143.5),
    ] {
        let per_run = allocations_per_run(name, model);
        println!("{name}/{model}: {per_run:.1} allocations per run");
        assert!(
            per_run <= 0.4 * fresh,
            "{name}/{model}: {per_run:.1} allocations per run, more than 40 % of {fresh}"
        );
    }
}
