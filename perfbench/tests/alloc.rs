//! The timing wrappers add no heap allocation to steady-state slots.
//!
//! Installs the repository's counting allocator, so it lives in its own
//! test binary with a single test: nothing else may allocate while it
//! counts.

use mmwave_dsp::count_alloc::CountingAllocator;
use perfbench::workload::{first_link, Workload};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn wrapped_steady_slots_allocate_no_more_than_unwrapped() {
    for w in [Workload::ReactiveMobility, Workload::MmreliableMobility] {
        let (_, plain) = first_link(w, 1, false).expect("unwrapped link runs");
        let (_, wrapped) = first_link(w, 1, true).expect("wrapped link runs");
        assert!(
            wrapped <= plain,
            "{}: wrapped steady phase allocated {wrapped} times, unwrapped {plain}",
            w.name()
        );
    }
}
