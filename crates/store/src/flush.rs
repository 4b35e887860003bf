//! Periodic background flushing.
//!
//! A [`PeriodicFlusher`] owns one thread that invokes a caller-supplied
//! flush closure on a fixed interval until stopped (or dropped). The
//! closure typically exports a live cache and saves it through a
//! [`SnapshotStore`](crate::SnapshotStore); keeping the closure opaque
//! means the store crate needs no knowledge of any particular cache.

use crate::snapshot::StoreError;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// A background thread flushing on a fixed interval.
///
/// Stopping (explicitly via [`stop`](PeriodicFlusher::stop) or by
/// dropping) wakes the thread immediately, runs one final flush so no
/// tail of recent entries is lost, and joins it.
pub struct PeriodicFlusher {
    shared: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl PeriodicFlusher {
    /// Spawns the flush thread; `flush` runs every `interval` from now on.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] when the operating system refuses to spawn the
    /// thread.
    pub fn spawn<F>(interval: Duration, mut flush: F) -> Result<Self, StoreError>
    where
        F: FnMut() + Send + 'static,
    {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("nsb-store-flusher".into())
            .spawn(move || {
                let (stop, cvar) = &*thread_shared;
                loop {
                    // The predicate is checked before the first wait and
                    // after every wake, so a `stop()` that lands before
                    // this wait or during a flush is never missed.
                    let stopped = {
                        let guard = stop
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        let (guard, _timeout) = cvar
                            .wait_timeout_while(guard, interval, |stopped| !*stopped)
                            .unwrap_or_else(std::sync::PoisonError::into_inner);
                        *guard
                    };
                    flush();
                    if stopped {
                        break;
                    }
                }
            })
            .map_err(|e| StoreError::Io {
                path: "<flusher thread>".into(),
                op: "spawn",
                reason: e.to_string(),
            })?;
        Ok(PeriodicFlusher {
            shared,
            handle: Some(handle),
        })
    }

    /// Stops the thread: wakes it, runs one final flush, joins.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        let (stop, cvar) = &*self.shared;
        *stop
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cvar.notify_all();
        let _ = handle.join();
    }
}

impl Drop for PeriodicFlusher {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn stop_runs_a_final_flush() {
        let count = Arc::new(AtomicUsize::new(0));
        let seen = count.clone();
        let flusher = PeriodicFlusher::spawn(Duration::from_secs(3600), move || {
            seen.fetch_add(1, Ordering::Relaxed);
        })
        .expect("spawn");
        assert_eq!(count.load(Ordering::Relaxed), 0);
        flusher.stop();
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    /// Regression: a stop issued before the thread's first wait used to be
    /// missed, so `stop()` blocked for a full interval.
    #[test]
    fn stop_right_after_spawn_returns_promptly() {
        let flusher = PeriodicFlusher::spawn(Duration::from_secs(3600), || {}).expect("spawn");
        let start = std::time::Instant::now();
        flusher.stop();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "stop() took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn short_interval_flushes_repeatedly() {
        let count = Arc::new(AtomicUsize::new(0));
        let seen = count.clone();
        let flusher = PeriodicFlusher::spawn(Duration::from_millis(5), move || {
            seen.fetch_add(1, Ordering::Relaxed);
        })
        .expect("spawn");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while count.load(Ordering::Relaxed) < 3 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(count.load(Ordering::Relaxed) >= 3, "flusher never ticked");
        drop(flusher);
    }
}
