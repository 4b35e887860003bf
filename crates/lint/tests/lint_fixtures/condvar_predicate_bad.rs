// Fixture: the store flusher loop before its lost-wakeup fix. The
// `wait_timeout` runs before `*guard` is read, so a stop signal sent
// while the thread was flushing is missed and shutdown waits a full
// interval (or forever, for a long interval). condvar-predicate must
// flag the wait.

fn spawn_flusher(thread_shared: Arc<(Mutex<bool>, Condvar)>, interval: Duration) {
    let (stop, cvar) = &*thread_shared;
    loop {
        let stopped = {
            let guard = stop
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let (guard, _timeout) = cvar
                .wait_timeout(guard, interval)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *guard
        };
        flush();
        thread_flushes.fetch_add(1, Ordering::Relaxed);
        if stopped {
            break;
        }
    }
}
