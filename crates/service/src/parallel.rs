//! Batch fan-out: the service's one thread level.
//!
//! A batch's items are spread over scoped worker threads ("lanes") with
//! dynamic scheduling; solvers themselves never spawn. The service wraps
//! every item in `catch_unwind` before it reaches [`map_in_lanes`], so a
//! panicking item cannot take its lane down.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Lanes for `work` items when `configured` are asked for: `0` means one
/// per available CPU core, and the count is clamped so no lane starts idle
/// (and at least one runs).
pub(crate) fn lanes(configured: usize, work: usize) -> usize {
    let configured = match configured {
        0 => thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    configured.clamp(1, work.max(1))
}

/// Maps `serve` over `items` on `lanes` scoped threads and returns the
/// results in item order. Lanes pull the next unclaimed index from a shared
/// counter, so a few expensive items cannot serialize the batch behind one
/// thread the way static chunking would. With one lane the map runs on the
/// calling thread and spawns nothing.
pub(crate) fn map_in_lanes<T, R, F>(lanes: usize, items: &[T], serve: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if lanes <= 1 {
        return items.iter().map(serve).collect();
    }

    let next = AtomicUsize::new(0);
    let (sender, receiver) = mpsc::channel();
    thread::scope(|scope| {
        for _ in 0..lanes {
            let sender = sender.clone();
            let next = &next;
            let serve = &serve;
            scope.spawn(move || loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    break;
                };
                if sender.send((index, serve(item))).is_err() {
                    break;
                }
            });
        }
    });
    drop(sender);

    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (index, result) in receiver {
        slots[index] = Some(result);
    }
    // Each index is claimed by exactly one lane, lanes only stop past the
    // end, the receiver outlives every send, and a lane that panics
    // re-panics out of `thread::scope` above.
    slots
        .into_iter()
        .map(|slot| slot.expect("every batch index is claimed and filled by one lane"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_policy_never_spawns() {
        // One configured lane — or one item, whatever is configured — maps
        // on the calling thread.
        assert_eq!(lanes(1, 100), 1);
        assert_eq!(lanes(8, 1), 1);
        let caller = thread::current().id();
        let ran_on = map_in_lanes(1, &[0u8; 8], |_| thread::current().id());
        assert!(ran_on.iter().all(|&id| id == caller));
    }

    #[test]
    fn thread_lanes_clamp_to_the_work() {
        assert_eq!(lanes(8, 3), 3);
        assert_eq!(lanes(2, 100), 2);
        assert_eq!(lanes(4, 0), 1);
        assert!(lanes(0, 64) >= 1);
        assert!(lanes(0, 64) <= 64);
    }

    #[test]
    fn lanes_return_results_in_item_order() {
        let items: Vec<usize> = (0..50).collect();
        for lanes in [2, 3, 8] {
            let doubled = map_in_lanes(lanes, &items, |&item| item * 2);
            assert_eq!(
                doubled,
                items.iter().map(|item| item * 2).collect::<Vec<_>>()
            );
        }
    }
}
