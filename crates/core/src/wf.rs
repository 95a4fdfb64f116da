//! Well-formedness of executions (§2.1, §3.1, §8.3).

use crate::event::{Call, EventId, EventKind};
use crate::exec::Execution;
use crate::set::EventSet;
use std::fmt;

/// Why an execution is not well-formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WfError {
    /// `po` is not a strict total order on some thread, or it relates
    /// events of different threads.
    PoNotTotalOrder,
    /// A dependency edge is outside `po`.
    DepOutsidePo(&'static str, EventId, EventId),
    /// A dependency edge does not originate at a read.
    DepNotFromRead(&'static str, EventId, EventId),
    /// An `addr` dependency must target a memory access.
    AddrTargetNotAccess(EventId, EventId),
    /// A `data` dependency must target a write.
    DataTargetNotWrite(EventId, EventId),
    /// An `rmw` edge must link a read to a po-later write at the same
    /// location on the same thread.
    BadRmw(EventId, EventId),
    /// An event participates in more than one `rmw` pair.
    RmwNotInjective(EventId),
    /// An `rf` edge must link a write to a same-location read.
    BadRf(EventId, EventId),
    /// A read has two incoming `rf` edges.
    MultipleRf(EventId),
    /// `co` relates events that are not writes to the same location.
    BadCo(EventId, EventId),
    /// `co` is not a strict total order on the writes to some location.
    CoNotTotalOrder(u8),
    /// A transaction class is empty.
    EmptyTxn,
    /// Transaction classes overlap.
    OverlappingTxns,
    /// A transaction spans more than one thread.
    TxnCrossesThreads(usize),
    /// A transaction is not contiguous in `po`.
    TxnNotContiguous(usize),
    /// Acquire/release/SC/atomic flags on an event kind that cannot carry
    /// them.
    BadAttrs(EventId),
    /// Lock/unlock call events are not properly bracketed on a thread.
    BadLockBracketing(u8),
    /// A fence or call event carries a location.
    NonAccessWithLoc(EventId),
    /// An access is missing its location.
    AccessWithoutLoc(EventId),
}

impl fmt::Display for WfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WfError::PoNotTotalOrder => write!(f, "po is not a per-thread strict total order"),
            WfError::DepOutsidePo(k, a, b) => write!(f, "{k} edge ({a},{b}) outside po"),
            WfError::DepNotFromRead(k, a, b) => {
                write!(f, "{k} edge ({a},{b}) does not originate at a read")
            }
            WfError::AddrTargetNotAccess(a, b) => {
                write!(f, "addr edge ({a},{b}) does not target a memory access")
            }
            WfError::DataTargetNotWrite(a, b) => {
                write!(f, "data edge ({a},{b}) does not target a write")
            }
            WfError::BadRmw(a, b) => write!(f, "ill-formed rmw edge ({a},{b})"),
            WfError::RmwNotInjective(e) => write!(f, "event {e} in more than one rmw pair"),
            WfError::BadRf(a, b) => write!(f, "ill-formed rf edge ({a},{b})"),
            WfError::MultipleRf(e) => write!(f, "read {e} has multiple incoming rf edges"),
            WfError::BadCo(a, b) => write!(f, "ill-formed co edge ({a},{b})"),
            WfError::CoNotTotalOrder(l) => {
                write!(
                    f,
                    "co is not a strict total order on writes to location {l}"
                )
            }
            WfError::EmptyTxn => write!(f, "empty transaction class"),
            WfError::OverlappingTxns => write!(f, "transaction classes overlap"),
            WfError::TxnCrossesThreads(i) => write!(f, "transaction {i} spans threads"),
            WfError::TxnNotContiguous(i) => write!(f, "transaction {i} not contiguous in po"),
            WfError::BadAttrs(e) => write!(f, "event {e} carries attributes its kind cannot"),
            WfError::BadLockBracketing(t) => {
                write!(f, "lock/unlock calls not properly bracketed on thread {t}")
            }
            WfError::NonAccessWithLoc(e) => write!(f, "non-access event {e} has a location"),
            WfError::AccessWithoutLoc(e) => write!(f, "access event {e} has no location"),
        }
    }
}

impl std::error::Error for WfError {}

/// Check every well-formedness condition; returns the first violation.
pub(crate) fn check(x: &Execution) -> Result<(), WfError> {
    check_events(x)?;
    check_po(x)?;
    check_deps(x)?;
    check_rmw(x)?;
    check_rf(x)?;
    check_co(x)?;
    check_txns(x)?;
    check_locks(x)?;
    Ok(())
}

fn check_events(x: &Execution) -> Result<(), WfError> {
    for (e, ev) in x.events().iter().enumerate() {
        match ev.kind {
            EventKind::Read | EventKind::Write => {
                if ev.loc.is_none() {
                    return Err(WfError::AccessWithoutLoc(e));
                }
            }
            EventKind::Fence(_) | EventKind::Call(_) => {
                if ev.loc.is_some() {
                    return Err(WfError::NonAccessWithLoc(e));
                }
            }
        }
        // Attribute sanity: ACQ on reads/fences, REL on writes/fences;
        // ATO only on accesses; calls carry no attributes.
        use crate::event::Attrs;
        let a = ev.attrs;
        match ev.kind {
            EventKind::Read => {
                if a.contains(Attrs::REL) {
                    return Err(WfError::BadAttrs(e));
                }
            }
            EventKind::Write => {
                if a.contains(Attrs::ACQ) {
                    return Err(WfError::BadAttrs(e));
                }
            }
            EventKind::Fence(_) => {
                if a.contains(Attrs::ATO) {
                    return Err(WfError::BadAttrs(e));
                }
            }
            EventKind::Call(_) => {
                if !a.is_empty() {
                    return Err(WfError::BadAttrs(e));
                }
            }
        }
    }
    Ok(())
}

fn check_po(x: &Execution) -> Result<(), WfError> {
    let po = x.po();
    // No cross-thread edges.
    for (a, b) in po.pairs() {
        if x.event(a).tid != x.event(b).tid {
            return Err(WfError::PoNotTotalOrder);
        }
    }
    // Strict total per thread.
    for t in 0..x.num_threads() {
        let s = EventSet::from_iter((0..x.len()).filter(|&e| x.event(e).tid as usize == t));
        if !po.is_strict_total_order_on(s) {
            return Err(WfError::PoNotTotalOrder);
        }
    }
    Ok(())
}

fn check_deps(x: &Execution) -> Result<(), WfError> {
    let po = x.po();
    for (name, rel) in [("addr", x.addr()), ("ctrl", x.ctrl()), ("data", x.data())] {
        for (a, b) in rel.pairs() {
            if !po.contains(a, b) {
                return Err(WfError::DepOutsidePo(name, a, b));
            }
            // Dependencies originate at reads (§2.1), with one documented
            // exception: on Power, ctrl edges can begin at a
            // store-exclusive (footnote 3 of the paper), i.e. at a write
            // in range(rmw).
            let sx_ctrl = name == "ctrl" && x.event(a).is_write() && x.rmw().range().contains(a);
            if !x.event(a).is_read() && !sx_ctrl {
                return Err(WfError::DepNotFromRead(name, a, b));
            }
            match name {
                "addr" if !x.event(b).is_access() => {
                    return Err(WfError::AddrTargetNotAccess(a, b));
                }
                "data" if !x.event(b).is_write() => {
                    return Err(WfError::DataTargetNotWrite(a, b));
                }
                _ => {}
            }
        }
    }
    Ok(())
}

fn check_rmw(x: &Execution) -> Result<(), WfError> {
    let mut seen_src = EventSet::EMPTY;
    let mut seen_dst = EventSet::EMPTY;
    for (r, w) in x.rmw().pairs() {
        let er = x.event(r);
        let ew = x.event(w);
        let ok = er.is_read()
            && ew.is_write()
            && er.tid == ew.tid
            && er.loc == ew.loc
            && x.po().contains(r, w);
        if !ok {
            return Err(WfError::BadRmw(r, w));
        }
        if seen_src.contains(r) {
            return Err(WfError::RmwNotInjective(r));
        }
        if seen_dst.contains(w) {
            return Err(WfError::RmwNotInjective(w));
        }
        seen_src.insert(r);
        seen_dst.insert(w);
    }
    Ok(())
}

fn check_rf(x: &Execution) -> Result<(), WfError> {
    let mut incoming = vec![0usize; x.len()];
    for (w, r) in x.rf().pairs() {
        let ew = x.event(w);
        let er = x.event(r);
        if !ew.is_write() || !er.is_read() || ew.loc != er.loc {
            return Err(WfError::BadRf(w, r));
        }
        incoming[r] += 1;
        if incoming[r] > 1 {
            return Err(WfError::MultipleRf(r));
        }
    }
    Ok(())
}

fn check_co(x: &Execution) -> Result<(), WfError> {
    for (a, b) in x.co().pairs() {
        let ea = x.event(a);
        let eb = x.event(b);
        if !ea.is_write() || !eb.is_write() || ea.loc != eb.loc {
            return Err(WfError::BadCo(a, b));
        }
    }
    for l in x.locations() {
        let ws = x.at_loc(l).inter(x.writes());
        if !x.co().is_strict_total_order_on(ws) {
            return Err(WfError::CoNotTotalOrder(l));
        }
    }
    Ok(())
}

fn check_txns(x: &Execution) -> Result<(), WfError> {
    let mut seen = EventSet::EMPTY;
    for (i, t) in x.txns().iter().enumerate() {
        if t.events.is_empty() {
            return Err(WfError::EmptyTxn);
        }
        let s = EventSet::from_iter(t.events.iter().copied());
        if s.intersects(seen) {
            return Err(WfError::OverlappingTxns);
        }
        seen = seen.union(s);
        let tid = x.event(t.events[0]).tid;
        if t.events.iter().any(|&e| x.event(e).tid != tid) {
            return Err(WfError::TxnCrossesThreads(i));
        }
        // Contiguity: no non-member event po-between two members.
        for e in 0..x.len() {
            if s.contains(e) {
                continue;
            }
            let after_some = t.events.iter().any(|&m| x.po().contains(m, e));
            let before_some = t.events.iter().any(|&m| x.po().contains(e, m));
            if after_some && before_some {
                return Err(WfError::TxnNotContiguous(i));
            }
        }
    }
    Ok(())
}

fn check_locks(x: &Execution) -> Result<(), WfError> {
    // Every L must be followed by a U without an intervening Lt or Ut,
    // and symmetrically (§8.3); regions must not nest.
    for t in 0..x.num_threads() {
        let mut open: Option<Call> = None;
        for e in x.thread_events(t as u8) {
            if let EventKind::Call(c) = x.event(e).kind {
                match (open, c) {
                    (None, Call::Lock) => open = Some(Call::Lock),
                    (None, Call::TLock) => open = Some(Call::TLock),
                    (Some(Call::Lock), Call::Unlock) => open = None,
                    (Some(Call::TLock), Call::TUnlock) => open = None,
                    _ => return Err(WfError::BadLockBracketing(t as u8)),
                }
            }
        }
        if open.is_some() {
            return Err(WfError::BadLockBracketing(t as u8));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ExecBuilder;
    use crate::event::{Attrs, Call, Event, Fence};
    use crate::exec::TxnClass;
    use crate::rel::Rel;

    #[test]
    fn accepts_simple_execution() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        let r = b.read(t0, 0);
        b.rf(w, r);
        assert!(b.build().is_ok());
    }

    #[test]
    fn rejects_rf_wrong_loc() {
        let events = vec![Event::write(0, 0), Event::read(0, 1)];
        let mut po = Rel::empty(2);
        po.add(0, 1);
        let mut rf = Rel::empty(2);
        rf.add(0, 1);
        let x = Execution::from_parts(
            events,
            po,
            Rel::empty(2),
            Rel::empty(2),
            Rel::empty(2),
            Rel::empty(2),
            rf,
            Rel::empty(2),
            vec![],
        );
        assert_eq!(check(&x), Err(WfError::BadRf(0, 1)));
    }

    #[test]
    fn rejects_multiple_rf() {
        let events = vec![Event::write(0, 0), Event::write(0, 0), Event::read(1, 0)];
        let mut po = Rel::empty(3);
        po.add(0, 1);
        let mut rf = Rel::empty(3);
        rf.add(0, 2);
        rf.add(1, 2);
        let mut co = Rel::empty(3);
        co.add(0, 1);
        let x = Execution::from_parts(
            events,
            po,
            Rel::empty(3),
            Rel::empty(3),
            Rel::empty(3),
            Rel::empty(3),
            rf,
            co,
            vec![],
        );
        assert_eq!(check(&x), Err(WfError::MultipleRf(2)));
    }

    #[test]
    fn rejects_partial_co() {
        // Two writes to x with no co edge: not total.
        let events = vec![Event::write(0, 0), Event::write(1, 0)];
        let x = Execution::from_parts(
            events,
            Rel::empty(2),
            Rel::empty(2),
            Rel::empty(2),
            Rel::empty(2),
            Rel::empty(2),
            Rel::empty(2),
            Rel::empty(2),
            vec![],
        );
        assert_eq!(check(&x), Err(WfError::CoNotTotalOrder(0)));
    }

    #[test]
    fn rejects_dep_not_from_read() {
        let events = vec![Event::write(0, 0), Event::write(0, 1)];
        let mut po = Rel::empty(2);
        po.add(0, 1);
        let mut data = Rel::empty(2);
        data.add(0, 1);
        let x = Execution::from_parts(
            events,
            po,
            Rel::empty(2),
            Rel::empty(2),
            data,
            Rel::empty(2),
            Rel::empty(2),
            Rel::empty(2),
            vec![],
        );
        assert_eq!(check(&x), Err(WfError::DepNotFromRead("data", 0, 1)));
    }

    #[test]
    fn rejects_noncontiguous_txn() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.read(t0, 0);
        let _mid = b.read(t0, 1);
        let c = b.read(t0, 0);
        b.txn(&[a, c]);
        assert_eq!(b.build(), Err(WfError::TxnNotContiguous(0)));
    }

    #[test]
    fn rejects_cross_thread_txn() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.read(t0, 0);
        let t1 = b.new_thread();
        let c = b.read(t1, 0);
        b.txn(&[a, c]);
        assert_eq!(b.build(), Err(WfError::TxnCrossesThreads(0)));
    }

    #[test]
    fn rejects_overlapping_txns() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.read(t0, 0);
        let c = b.read(t0, 0);
        b.txn(&[a, c]);
        b.txn(&[c]);
        assert_eq!(b.build(), Err(WfError::OverlappingTxns));
    }

    #[test]
    fn rejects_empty_txn() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let _ = b.read(t0, 0);
        let mut x = b.build().unwrap();
        x.txns_mut().push(TxnClass {
            events: vec![],
            atomic: false,
        });
        assert_eq!(check(&x), Err(WfError::EmptyTxn));
    }

    #[test]
    fn rejects_bad_rmw() {
        // rmw across locations.
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r = b.read(t0, 0);
        let w = b.write(t0, 1);
        b.rmw(r, w);
        assert_eq!(b.build(), Err(WfError::BadRmw(r, w)));
    }

    #[test]
    fn rejects_acquire_write() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        b.attr(w, Attrs::ACQ);
        assert_eq!(b.build(), Err(WfError::BadAttrs(w)));
    }

    #[test]
    fn rejects_unbracketed_locks() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.call(t0, Call::Lock);
        b.call(t0, Call::TUnlock);
        assert_eq!(b.build(), Err(WfError::BadLockBracketing(0)));
    }

    #[test]
    fn rejects_unclosed_lock() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.call(t0, Call::Lock);
        assert_eq!(b.build(), Err(WfError::BadLockBracketing(0)));
    }

    #[test]
    fn accepts_fences_and_locks() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.call(t0, Call::Lock);
        b.fence(t0, Fence::Sync);
        b.call(t0, Call::Unlock);
        let t1 = b.new_thread();
        b.call(t1, Call::TLock);
        b.call(t1, Call::TUnlock);
        assert!(b.build().is_ok());
    }
}
