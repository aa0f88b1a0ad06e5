//! The workspace's shared fan-out worker pool.
//!
//! One primitive, [`parallel_map`], backs every thread-parallel fan-out
//! in the flow: sweep forks and per-corner signoff in `smt-core`, and
//! the level-parallel timing propagation in `smt-sta`. Centralising it
//! here keeps the threading policy (scoped `std::thread` workers over an
//! atomic work index, results returned in item order) in one place, with
//! no dependency on anything above the foundation crate. Fan-outs that
//! isolate each item under `catch_unwind` report the caught panic with
//! [`panic_message`].

/// Applies `f` to every item on up to `threads` OS threads (`0` = one
/// per available core), returning results in item order.
///
/// Work is drained from a shared atomic index, so uneven per-item cost
/// balances across workers. With one worker or at most one item the
/// call degenerates to a plain sequential map with no thread spawn at
/// all — callers can therefore use it unconditionally and let the item
/// count decide.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // At most one item never asks the OS for its core count, which
    // reads cgroup files on Linux: single-library timing states call
    // this once per analysis.
    if items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let workers = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
    .min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<R>>> =
        items.iter().map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                *slots[i].lock().expect("worker slot lock") = Some(f(&items[i]));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker slot lock")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// The message of a panic caught by `catch_unwind`: the payload when it
/// is a `&str` or a `String` (what `panic!` produces), otherwise
/// `"non-string panic payload"`.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_reads_string_payloads() {
        assert_eq!(panic_message(Box::new("static")), "static");
        assert_eq!(panic_message(Box::new(format!("owned {}", 7))), "owned 7");
        assert_eq!(panic_message(Box::new(7u8)), "non-string panic payload");
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(&items, 0, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_item_and_single_thread_run_inline() {
        assert_eq!(parallel_map(&[7usize], 0, |&x| x + 1), vec![8]);
        let items: Vec<usize> = (0..16).collect();
        let out = parallel_map(&items, 1, |&x| x + 1);
        assert_eq!(out.len(), 16);
        assert_eq!(out[15], 16);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<usize> = parallel_map(&[] as &[usize], 0, |&x| x);
        assert!(out.is_empty());
    }
}
