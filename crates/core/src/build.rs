//! A fluent builder for executions.
//!
//! ```
//! use txmm_core::build::ExecBuilder;
//!
//! // The store-buffering shape: two threads, each writing one location
//! // and reading the other, both reads observing the initial value.
//! let mut b = ExecBuilder::new();
//! let t0 = b.new_thread();
//! let w0 = b.write(t0, 0);
//! let r0 = b.read(t0, 1);
//! let t1 = b.new_thread();
//! let w1 = b.write(t1, 1);
//! let r1 = b.read(t1, 0);
//! let x = b.build().unwrap();
//! assert_eq!(x.len(), 4);
//! assert!(x.fr().contains(r0, w1));
//! assert!(x.fr().contains(r1, w0));
//! # let _ = (w0, w1);
//! ```

use crate::event::{Attrs, Call, Event, EventId, Fence, Loc, Tid};
use crate::exec::{Execution, TxnClass};
use crate::rel::Rel;
use crate::set::MAX_EVENTS;
use crate::wf::WfError;

/// Builder for [`Execution`] values.
///
/// Events are appended per thread in program order; `co` may be given as
/// individual pairs (its per-location transitive closure is taken) or via
/// [`ExecBuilder::co_order`].
#[derive(Debug, Default, Clone)]
pub struct ExecBuilder {
    events: Vec<Event>,
    threads: usize,
    addr: Vec<(EventId, EventId)>,
    ctrl: Vec<(EventId, EventId)>,
    data: Vec<(EventId, EventId)>,
    rmw: Vec<(EventId, EventId)>,
    rf: Vec<(EventId, EventId)>,
    co: Vec<(EventId, EventId)>,
    txns: Vec<TxnClass>,
}

impl ExecBuilder {
    /// A fresh, empty builder.
    pub fn new() -> ExecBuilder {
        ExecBuilder::default()
    }

    /// Start a new thread; events are added to it explicitly by id.
    pub fn new_thread(&mut self) -> Tid {
        let t = self.threads;
        self.threads += 1;
        t as Tid
    }

    /// Append `ev` as given: its thread, kind, location and attributes.
    pub fn push(&mut self, ev: Event) -> EventId {
        assert!(self.events.len() < MAX_EVENTS, "too many events");
        self.events.push(ev);
        self.events.len() - 1
    }

    /// The id the next appended event gets.
    pub fn next_id(&self) -> EventId {
        self.events.len()
    }

    /// Append a plain read of `loc` on thread `t`.
    pub fn read(&mut self, t: Tid, loc: Loc) -> EventId {
        self.push(Event::read(t, loc))
    }

    /// Append a plain write of `loc` on thread `t`.
    pub fn write(&mut self, t: Tid, loc: Loc) -> EventId {
        self.push(Event::write(t, loc))
    }

    /// Append a fence on thread `t`.
    pub fn fence(&mut self, t: Tid, f: Fence) -> EventId {
        self.push(Event::fence(t, f))
    }

    /// Append a lock/unlock call event on thread `t`.
    pub fn call(&mut self, t: Tid, c: Call) -> EventId {
        self.push(Event::call(t, c))
    }

    /// Add attribute flags to an event. SC accesses are normalised to
    /// also carry their implied acquire/release flag (reads gain `ACQ`,
    /// writes gain `REL`, fences gain both), matching RC11's mode order.
    pub fn attr(&mut self, e: EventId, a: Attrs) -> &mut Self {
        let ev = &mut self.events[e];
        ev.attrs = ev.attrs.union(a);
        if a.contains(Attrs::SC) {
            if ev.is_read() {
                ev.attrs = ev.attrs.union(Attrs::ACQ);
            } else if ev.is_write() {
                ev.attrs = ev.attrs.union(Attrs::REL);
            } else if ev.kind.is_fence() {
                ev.attrs = ev.attrs.union(Attrs::ACQ).union(Attrs::REL);
            }
        }
        self
    }

    /// Shorthand: an acquire read (ARMv8 `LDAR` / C++ acquire load).
    pub fn read_acq(&mut self, t: Tid, loc: Loc) -> EventId {
        let e = self.read(t, loc);
        self.attr(e, Attrs::ACQ);
        e
    }

    /// Shorthand: a release write (ARMv8 `STLR` / C++ release store).
    pub fn write_rel(&mut self, t: Tid, loc: Loc) -> EventId {
        let e = self.write(t, loc);
        self.attr(e, Attrs::REL);
        e
    }

    /// Shorthand: a C++ atomic read with the given extra mode flags.
    pub fn read_ato(&mut self, t: Tid, loc: Loc, mode: Attrs) -> EventId {
        let e = self.read(t, loc);
        self.attr(e, Attrs::ATO.union(mode));
        e
    }

    /// Shorthand: a C++ atomic write with the given extra mode flags.
    pub fn write_ato(&mut self, t: Tid, loc: Loc, mode: Attrs) -> EventId {
        let e = self.write(t, loc);
        self.attr(e, Attrs::ATO.union(mode));
        e
    }

    /// Record an address dependency from read `r` to `e`.
    pub fn addr(&mut self, r: EventId, e: EventId) -> &mut Self {
        self.addr.push((r, e));
        self
    }

    /// Record a control dependency from read `r` to `e`.
    pub fn ctrl(&mut self, r: EventId, e: EventId) -> &mut Self {
        self.ctrl.push((r, e));
        self
    }

    /// Record a data dependency from read `r` to write `w`.
    pub fn data(&mut self, r: EventId, w: EventId) -> &mut Self {
        self.data.push((r, w));
        self
    }

    /// Mark `(r, w)` as a read-modify-write pair.
    pub fn rmw(&mut self, r: EventId, w: EventId) -> &mut Self {
        self.rmw.push((r, w));
        self
    }

    /// Make read `r` observe write `w`.
    pub fn rf(&mut self, w: EventId, r: EventId) -> &mut Self {
        self.rf.push((w, r));
        self
    }

    /// Order write `a` before write `b` in coherence.
    pub fn co(&mut self, a: EventId, b: EventId) -> &mut Self {
        self.co.push((a, b));
        self
    }

    /// Give the complete coherence order for one location.
    pub fn co_order(&mut self, ws: &[EventId]) -> &mut Self {
        for (i, &a) in ws.iter().enumerate() {
            for &b in &ws[i + 1..] {
                self.co.push((a, b));
            }
        }
        self
    }

    /// Group events into a successful (relaxed) transaction.
    pub fn txn(&mut self, evs: &[EventId]) -> &mut Self {
        self.txns.push(TxnClass {
            events: evs.to_vec(),
            atomic: false,
        });
        self
    }

    /// Group events into a successful *atomic* transaction (C++).
    pub fn txn_atomic(&mut self, evs: &[EventId]) -> &mut Self {
        self.txns.push(TxnClass {
            events: evs.to_vec(),
            atomic: true,
        });
        self
    }

    /// Construct the execution and check well-formedness.
    pub fn build(&self) -> Result<Execution, WfError> {
        let x = self.build_unchecked();
        x.check_wf()?;
        Ok(x)
    }

    /// Construct without checking (for tests that exercise ill-formed
    /// executions, and for enumerators that guarantee shape by
    /// construction).
    pub fn build_unchecked(&self) -> Execution {
        let n = self.events.len();
        let mut po = Rel::empty(n);
        for a in 0..n {
            for b in (a + 1)..n {
                if self.events[a].tid == self.events[b].tid {
                    po.add(a, b);
                }
            }
        }
        let mk = |pairs: &[(EventId, EventId)]| Rel::from_pairs(n, pairs.iter().copied());
        // Close co transitively per location so users can give chains.
        let co = mk(&self.co).plus();
        Execution::from_parts(
            self.events.clone(),
            po,
            mk(&self.addr),
            mk(&self.ctrl),
            mk(&self.data),
            mk(&self.rmw),
            mk(&self.rf),
            co,
            self.txns.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn po_follows_insertion_order() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let a = b.read(t0, 0);
        let c = b.write(t0, 0);
        let t1 = b.new_thread();
        let d = b.write(t1, 0);
        b.rf(c, a); // ill-formed direction? c is po-later but rf is fine.
        b.co(c, d);
        let x = b.build().unwrap();
        assert!(x.po().contains(a, c));
        assert!(!x.po().contains(c, a));
        assert!(!x.po().contains(a, d));
    }

    #[test]
    fn co_order_expands() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w1 = b.write(t0, 0);
        let t1 = b.new_thread();
        let w2 = b.write(t1, 0);
        let t2 = b.new_thread();
        let w3 = b.write(t2, 0);
        b.co_order(&[w1, w2, w3]);
        let x = b.build().unwrap();
        assert!(x.co().contains(w1, w3));
        assert!(x.co().contains(w1, w2));
        assert!(x.co().contains(w2, w3));
    }

    #[test]
    fn co_pairs_closed_transitively() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w1 = b.write(t0, 0);
        let t1 = b.new_thread();
        let w2 = b.write(t1, 0);
        let t2 = b.new_thread();
        let w3 = b.write(t2, 0);
        b.co(w1, w2);
        b.co(w2, w3);
        let x = b.build().unwrap();
        assert!(x.co().contains(w1, w3));
    }

    #[test]
    fn sc_normalisation() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r = b.read_ato(t0, 0, Attrs::SC);
        let w = b.write_ato(t0, 0, Attrs::SC);
        let x = b.build().unwrap();
        assert!(x.event(r).attrs.contains(Attrs::ACQ));
        assert!(!x.event(r).attrs.contains(Attrs::REL));
        assert!(x.event(w).attrs.contains(Attrs::REL));
        assert!(!x.event(w).attrs.contains(Attrs::ACQ));
    }

    #[test]
    fn sc_fence_gets_both() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let f = b.fence(t0, Fence::CppFence);
        b.attr(f, Attrs::SC);
        let x = b.build().unwrap();
        assert!(x.event(f).attrs.contains(Attrs::ACQ));
        assert!(x.event(f).attrs.contains(Attrs::REL));
    }

    #[test]
    fn acquire_release_shorthands() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let r = b.read_acq(t0, 0);
        let w = b.write_rel(t0, 0);
        let x = b.build().unwrap();
        assert!(x.event(r).attrs.contains(Attrs::ACQ));
        assert!(x.event(w).attrs.contains(Attrs::REL));
    }
}
