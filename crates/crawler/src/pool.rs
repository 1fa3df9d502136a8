//! The one worker pool under every parallel step: the crawl, archive replay
//! and sharded detection.
//!
//! [`pool`] hands its results to `deliver` in index order, so a consumer
//! sees the same sequence at any worker count and needs no reordering of
//! its own. Each caller keeps only its failure policy: the crawl retries a
//! panicking site in place and quarantines it, detection guards each site,
//! and replay degrades a lost segment like a damaged one.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `work(&mut state, i)` for every `i in 0..len` on `workers` threads
/// and hand each result to `deliver` in index order.
///
/// Each worker builds its own state with `state(worker)` (the crawl's is
/// its browser) and claims the next index from a shared counter. A finished
/// result is parked until every index before it has been delivered;
/// `deliver` runs under the pool's lock, on whichever worker completed the
/// run of indices it drains. An index whose worker thread was lost (a panic
/// that `work` did not catch) is delivered as `lost(i)`, in its place,
/// once the pool drains, and every later index waits for it. At one worker
/// the pool runs inline on the caller's thread, so a panic in `work`
/// reaches the caller.
pub fn pool<S, T: Send>(
    workers: usize,
    len: usize,
    state: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
    lost: impl Fn(usize) -> T,
    mut deliver: impl FnMut(usize, T) + Send,
) {
    let workers = workers.clamp(1, len.max(1));
    if workers == 1 {
        let mut state = state(0);
        for index in 0..len {
            deliver(index, work(&mut state, index));
        }
        return;
    }
    struct InOrder<T, D> {
        next: usize,
        parked: BTreeMap<usize, T>,
        deliver: D,
    }
    let in_order = Mutex::new(InOrder {
        next: 0,
        parked: BTreeMap::new(),
        deliver,
    });
    let claim = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (state, work, in_order, claim) = (&state, &work, &in_order, &claim);
                scope.spawn(move || {
                    let mut state = state(worker);
                    loop {
                        let index = claim.fetch_add(1, Ordering::Relaxed);
                        if index >= len {
                            break;
                        }
                        let result = work(&mut state, index);
                        let mut guard = in_order.lock();
                        let queue = &mut *guard;
                        queue.parked.insert(index, result);
                        while let Some(result) = queue.parked.remove(&queue.next) {
                            let index = queue.next;
                            queue.next += 1;
                            (queue.deliver)(index, result);
                        }
                    }
                })
            })
            .collect();
        // Join each worker: the scope waits only for the closures to
        // return, and a thread not yet exited can keep its allocator arena
        // attached when the next pool spawns its workers, which makes the
        // resident memory of back-to-back pools vary from run to run. A
        // join error is a worker lost outside `work`'s own guard; the drain
        // below delivers its index.
        for handle in handles {
            let _ = handle.join();
        }
    });
    let InOrder {
        mut next,
        mut parked,
        mut deliver,
    } = in_order.into_inner();
    while next < len {
        let result = parked.remove(&next).unwrap_or_else(|| lost(next));
        deliver(next, result);
        next += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivered(workers: usize, len: usize, lose: Option<usize>) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        pool(
            workers,
            len,
            |worker| worker,
            |_, i| {
                if Some(i) == lose {
                    panic!("worker lost on {i}");
                }
                // Later indices finish first, so completion order is not
                // index order.
                std::thread::sleep(std::time::Duration::from_micros(((len - i) * 50) as u64));
                format!("done {i}")
            },
            |i| format!("lost {i}"),
            |i, result| out.push((i, result)),
        );
        out
    }

    #[test]
    fn delivers_every_index_once_in_order_at_any_worker_count() {
        let expected: Vec<(usize, String)> = (0..40).map(|i| (i, format!("done {i}"))).collect();
        for workers in [1, 2, 4, 64] {
            assert_eq!(delivered(workers, 40, None), expected, "{workers} workers");
        }
        assert!(delivered(4, 0, None).is_empty());
    }

    #[test]
    fn a_lost_worker_s_index_is_delivered_in_its_place() {
        let got = delivered(3, 12, Some(5));
        assert_eq!(got.len(), 12);
        for (position, (i, result)) in got.iter().enumerate() {
            assert_eq!(*i, position);
            let want = if *i == 5 { "lost 5" } else { "done" };
            assert!(result.starts_with(want), "{i}: {result}");
        }
    }
}
