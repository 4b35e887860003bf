// Fixture: guards held across blocking calls. Each function below must
// produce exactly one lock-order finding.

fn recv_under_lock(s: &Shared) {
    let state = s.state.lock();
    let job = s.rx.recv();
    state.apply(job);
}

fn join_under_lock(s: &Shared) {
    let registry = s.registry.lock();
    s.worker.join();
    registry.clear();
}

fn reentrant(s: &Shared) {
    let a = s.state.lock();
    let b = s.state.lock();
    merge(a, b);
}

fn second_lock_across_wait(s: &Shared) {
    let other = s.other.lock();
    let mut inner = s.state.lock();
    while inner.pending {
        inner = s.cv.wait(inner);
    }
    sync(other, inner);
}
