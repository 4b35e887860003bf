//! Fixture: a file every rule must pass — it exercises lookalike
//! patterns (a `DMat::zeros(4, 4)` inside a string, guard-consuming
//! condvar waits under a predicate loop, consistent lock ordering) and
//! a fully test-covered public error enum. It is parsed at a crate-root
//! path, so it carries the library lint line.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::float_cmp
    )
)]

/// A hot-path lookalike: the call is only data.
pub fn describe() -> &'static str {
    "never write DMat::zeros(4, 4) here"
}

/// Consistent lock order plus a guard-consuming condvar wait.
pub fn drain(s: &Shared) {
    let mut queue = s.queue.lock();
    while queue.is_empty() {
        queue = s.ready.wait(queue);
    }
    let stats = s.stats.lock();
    stats.record(queue.len());
}

/// A wait whose loop tests the guard before waiting.
pub fn pop(s: &Shared) -> Option<Item> {
    let mut inner = s.queue.lock();
    loop {
        if let Some(item) = inner.items.pop_front() {
            return Some(item);
        }
        inner = s.ready.wait(inner);
    }
}

/// A covered public error enum.
pub enum CleanError {
    /// The only variant; the test below exercises it.
    Saturated,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_covered_and_tests_may_unwrap() {
        let e = CleanError::Saturated;
        assert!(matches!(e, CleanError::Saturated));
        let v: Option<u32> = Some(3);
        assert_eq!(v.unwrap(), 3);
    }
}
