// Fixture: the work-stealing thief path (DESIGN.md §13). A steal holds
// the nonpreempt guard while claiming the victim's head; a callee that
// transitively reaches a preemption point inside that window (here a
// publish helper two hops above one) reintroduces exactly the
// preempt-into-handoff race the guard exists to prevent. The thief's
// own function never names `preempt_point` — only the call graph sees
// the violation, anchored at the call site inside the guarded region.

fn bad_steal(w: &Worker) -> Option<Request> {
    let _np = NonPreemptGuard::enter();
    let req = claim_head(w);
    publish_steal(w); //~ ERROR preempt-in-critical
    req
}

fn claim_head(_w: &Worker) -> Option<Request> {
    None // the word-CAS claim itself never reaches a preemption point
}

fn publish_steal(w: &Worker) {
    emit_event(w);
}

fn emit_event(_w: &Worker) {
    preempt_point(0);
}

fn good_steal(w: &Worker) -> Option<Request> {
    {
        let _np = NonPreemptGuard::enter();
        claim_head(w); // fine: the claim never reaches a point
    }
    publish_steal(w); // fine: guard scope closed before the emit
    None
}
