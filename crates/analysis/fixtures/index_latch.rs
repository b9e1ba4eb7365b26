// Fixture: the optimistic index latch. Readers hold nothing — a version
// snapshot is a number, not a guard — so preemption points between a
// snapshot and its validation are fine, with or without a
// `NonPreemptGuard`. A *write* latch (`write()`, or `upgrade(version)`
// from a snapshot) is a guard like any other: a preemption point reached
// while it is held parks the holder with the node locked, whether the
// point is in the same function or down a call. The fix is what
// `index.rs` does: no point between latch and unlock, and a
// non-preemptible region around the hold for the interrupts that need no
// point.

fn lookup(leaf: &Node, key: u64) -> Option<u64> {
    loop {
        let v = leaf.latch.snapshot();
        let found = leaf.find(key);
        preempt_point(0); // fine: a reader may be preempted anywhere
        if leaf.latch.validate(v) {
            return found;
        }
    }
}

fn scan(leaf: &Node, f: impl FnMut(u64)) {
    let v = leaf.latch.snapshot();
    let entries = leaf.copy_out();
    if !leaf.latch.validate(v) {
        return;
    }
    for e in entries {
        preempt_point(80); // fine: the callbacks run with nothing held
        f(e);
    }
}

fn insert_unguarded(leaf: &Node, v: u64, key: u64) -> bool {
    let Some(mut guard) = leaf.latch.upgrade(v) else {
        return false;
    };
    guard.dirty();
    leaf.put(key);
    preempt_point(0); //~ ERROR preempt-in-critical
    true
}

fn split_unguarded(shard: &Shard) {
    let _guard = shard.latch.write();
    rehash(shard); //~ ERROR preempt-in-critical
}

fn rehash(shard: &Shard) {
    shard.copy_all();
    preempt_point(0);
}

fn insert_guarded(leaf: &Node, v: u64, key: u64) -> bool {
    preempt_point(550); // fine: before the region
    let _np = NonPreemptGuard::enter();
    let Some(mut guard) = leaf.latch.upgrade(v) else {
        return false;
    };
    guard.dirty();
    leaf.put(key); // fine: no point between latch and unlock
    true
}
