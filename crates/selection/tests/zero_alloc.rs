//! Proves the scratch-arena claim of the kernel layer end to end: once an
//! objective's arena is warm, the incremental-session hot path (push, pop,
//! value, and the probe rounds: `probe_push`, `probe_swap` with its commit
//! or revert) performs **zero** heap allocations, and reopening a session
//! costs at most the session box itself.
//!
//! The counting allocator lives here — not in `jury-jq`, which is
//! `#![forbid(unsafe_code)]` — and this file intentionally holds a single
//! `#[test]` so no concurrent test thread can pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use jury_model::WorkerPool;
use jury_selection::{BvObjective, JspInstance, JuryObjective, MvObjective};

/// Forwards to the system allocator, counting every allocation entry point
/// (`alloc`, `alloc_zeroed`, `realloc`); frees are not counted.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One full session lifecycle: open, push/pop the same worker sequence the
/// warm-up used (so no buffer ever needs to grow), read the value, run a
/// probe round (every outsider as an extension, one swap reverted and one
/// committed and swapped back), drop (which recycles the engine buffers
/// into the objective's arena).
fn run_session_cycle(
    objective: &dyn JuryObjective,
    instance: &JspInstance,
    pool: &WorkerPool,
) -> f64 {
    let mut session = objective
        .incremental_session(instance)
        .expect("session must be available");
    let workers = pool.workers();
    for worker in &workers[..8] {
        session.push(worker);
    }
    let mut value = session.value();
    for worker in &workers[8..] {
        value += session.probe_push(worker).expect("session is intact");
    }
    value += session
        .probe_swap(&workers[0], &workers[9])
        .expect("a member");
    session.revert_swap(&workers[0], &workers[9]);
    for (out, incoming) in [(&workers[0], &workers[9]), (&workers[9], &workers[0])] {
        value += session.probe_swap(out, incoming).expect("a member");
        session.commit_swap(out, incoming);
    }
    for worker in &workers[..8] {
        assert!(session.pop(worker));
    }
    for worker in &workers[4..12] {
        session.push(worker);
    }
    value += session.value();
    for worker in &workers[4..12] {
        assert!(session.pop(worker));
    }
    value
}

#[test]
fn warm_incremental_sessions_do_not_allocate() {
    let qualities: Vec<f64> = (0..20).map(|i| 0.55 + 0.02 * (i % 10) as f64).collect();
    let pool = WorkerPool::from_qualities_and_costs(&qualities, &[1.0; 20]).unwrap();
    // 20 candidates exceed the exact cutoff (14), so the BV objective opens
    // real incremental sessions.
    let instance = JspInstance::with_uniform_prior(pool.clone(), 8.0).unwrap();

    let bv = BvObjective::new();
    let mv = MvObjective::new();
    for (name, objective) in [
        ("JQ(BV)", &bv as &dyn JuryObjective),
        ("JQ(MV)", &mv as &dyn JuryObjective),
    ] {
        // Warm-up: the first cycle pays every allocation once and returns
        // the buffers to the objective's arena when the session drops.
        let warm = run_session_cycle(objective, &instance, &pool);

        let before = allocations();
        let hot = run_session_cycle(objective, &instance, &pool);
        let spent = allocations() - before;

        assert_eq!(
            warm, hot,
            "{name}: warm and hot cycles must compute identical values"
        );
        // The session itself is boxed (one allocation); everything the
        // engine touches — distributions, scratch buffers, member lists —
        // must come out of the warm arena.
        assert!(
            spent <= 1,
            "{name}: a warm session cycle performed {spent} allocations \
             (expected at most the session box)"
        );
    }
}
