//! The workspace's one data-parallel helper (dataset generation, channel
//! replay, seam registration, composition): an order-preserving map over
//! scoped threads. Every caller maps a pure function of the item, so which
//! thread runs which item never reaches the output. A pass uses one level
//! of it — a stage that fans out here gives its workers a serial inner
//! stage — so a pass never runs more threads than it was given.

use std::sync::Mutex;

/// The worker count of an entry point whose signature carries none: the
/// host's available parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on up to `workers` threads (the caller's is one
/// of them; none is spawned for one worker or one item), handing items out
/// one at a time, and returns the results in item order. A panic in `f` is
/// re-raised on the caller.
pub fn par_map<I, R>(workers: usize, items: I, f: impl Fn(I::Item) -> R + Sync) -> Vec<R>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    R: Send,
{
    let items = items.into_iter();
    let threads = workers.min(items.len());
    if threads <= 1 {
        return items.map(f).collect();
    }
    let queue = Mutex::new(items.enumerate());
    let drain = || {
        let mut done = Vec::new();
        loop {
            // the lock is released before `f` runs, so a panic in `f`
            // cannot poison it
            let next = queue.lock().expect("no item runs under the lock").next();
            match next {
                Some((i, item)) => done.push((i, f(item))),
                None => return done,
            }
        }
    };
    let mut done = std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(drain)).collect();
        let mut done = drain();
        for handle in others {
            let joined = handle.join();
            done.extend(joined.unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order_for_any_worker_count() {
        let items: Vec<usize> = (0..37).collect();
        let want: Vec<usize> = items.iter().map(|i| i * i).collect();
        for workers in [0, 1, 2, 3, 7, 64] {
            assert_eq!(par_map(workers, items.clone(), |i| i * i), want);
        }
        assert!(par_map(4, Vec::<usize>::new(), |i| i).is_empty());
    }

    #[test]
    fn mutable_chunks_are_written_in_place() {
        let mut rows = vec![0u32; 10];
        par_map(3, rows.chunks_mut(3).enumerate(), |(k, chunk)| {
            chunk.fill(k as u32 + 1);
        });
        assert_eq!(rows, [1, 1, 1, 2, 2, 2, 3, 3, 3, 4]);
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        let caught = std::panic::catch_unwind(|| {
            par_map(3, 0..9usize, |i| assert!(i != 5, "item five"));
        });
        assert!(caught.is_err());
    }
}
