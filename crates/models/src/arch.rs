//! Target architectures/languages and their event vocabularies.
//!
//! Each model only gives meaning to a subset of event forms (x86 has no
//! acquire loads; Power has no `DMB`). Enumerators and compilers use
//! [`Arch::validate`] to stay inside the right vocabulary, and
//! [`Arch::downgrades`] to implement clause (iii) of the paper's ⊏
//! weakening order ("downgrading an event, e.g. reducing an acquire-read
//! to a plain read in ARMv8", §4.2).

use txmm_core::{Attrs, Event, EventKind, Execution, Fence};

/// The four targets of the paper, plus the SC/TSC reference models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// Sequential consistency (and its transactional strengthening TSC).
    Sc,
    /// Intel x86 with TSX-style transactions.
    X86,
    /// IBM Power with its hardware TM.
    Power,
    /// ARMv8 with the (unofficial) TM extension studied by the paper.
    Armv8,
    /// C++ (RC11 base model) with the TM technical specification.
    Cpp,
}

/// A vocabulary violation: the event does not exist on this target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VocabError {
    /// The offending event index.
    pub event: usize,
    /// Human-readable explanation.
    pub why: String,
}

impl std::fmt::Display for VocabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event {}: {}", self.event, self.why)
    }
}

impl std::error::Error for VocabError {}

impl Arch {
    /// A short name.
    pub fn name(self) -> &'static str {
        match self {
            Arch::Sc => "SC",
            Arch::X86 => "x86",
            Arch::Power => "Power",
            Arch::Armv8 => "ARMv8",
            Arch::Cpp => "C++",
        }
    }

    /// The fences this target provides.
    pub fn fences(self) -> &'static [Fence] {
        match self {
            Arch::Sc => &[],
            Arch::X86 => &[Fence::MFence],
            Arch::Power => &[Fence::Sync, Fence::Lwsync, Fence::Isync],
            Arch::Armv8 => &[Fence::Dmb, Fence::DmbLd, Fence::DmbSt, Fence::Isb],
            Arch::Cpp => &[Fence::CppFence],
        }
    }

    /// Is this event expressible on the target?
    fn event_ok(self, ev: &Event) -> Result<(), String> {
        match ev.kind {
            EventKind::Fence(f) => {
                if !self.fences().contains(&f) {
                    return Err(format!("fence {:?} not available on {}", f, self.name()));
                }
                match self {
                    Arch::Cpp => {
                        // C++ fences carry a mode; plain fences are no-ops
                        // and excluded from candidate executions.
                        if ev.attrs.is_empty() {
                            return Err("C++ fence needs a consistency mode".into());
                        }
                    }
                    _ => {
                        if !ev.attrs.is_empty() {
                            return Err("hardware fences carry no attributes".into());
                        }
                    }
                }
            }
            EventKind::Call(_) => {
                // Call events are placeholders for the lock-elision study
                // and are valid on every target.
                if !ev.attrs.is_empty() {
                    return Err("call events carry no attributes".into());
                }
            }
            EventKind::Read | EventKind::Write => {
                let a = ev.attrs;
                match self {
                    Arch::Sc | Arch::X86 | Arch::Power => {
                        if !a.is_empty() {
                            return Err(format!("{} accesses carry no attributes", self.name()));
                        }
                    }
                    Arch::Armv8 => {
                        // LDAR on reads, STLR on writes; no SC/Ato flags.
                        if a.contains(Attrs::SC) || a.contains(Attrs::ATO) {
                            return Err("ARMv8 has no SC/Ato access flags".into());
                        }
                    }
                    Arch::Cpp => {
                        // Acq/Rel/SC require atomicity.
                        if (a.contains(Attrs::ACQ)
                            || a.contains(Attrs::REL)
                            || a.contains(Attrs::SC))
                            && !a.contains(Attrs::ATO)
                        {
                            return Err("C++ ordered accesses must be atomic".into());
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Check that every event of `x` exists on this target.
    pub fn validate(self, x: &Execution) -> Result<(), VocabError> {
        for (i, ev) in x.events().iter().enumerate() {
            if let Err(why) = self.event_ok(ev) {
                return Err(VocabError { event: i, why });
            }
        }
        // C++ additionally requires rmw pairs to be atomic accesses.
        if self == Arch::Cpp {
            for (r, w) in x.rmw().pairs() {
                for e in [r, w] {
                    if !x.event(e).attrs.contains(Attrs::ATO) {
                        return Err(VocabError {
                            event: e,
                            why: "C++ rmw events must be atomic".into(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Clause (iii) of ⊏: the ways `ev` can be *downgraded* one step.
    ///
    /// Returns strictly weaker variants of the event (never the event
    /// itself, never a stronger one).
    pub fn downgrades(self, ev: &Event) -> Vec<Event> {
        let mut out = Vec::new();
        let mut weaken_attr = |flag: Attrs| {
            if ev.attrs.contains(flag) {
                let mut e2 = *ev;
                e2.attrs = e2.attrs.minus(flag);
                out.push(e2);
            }
        };
        match self {
            Arch::Sc | Arch::X86 | Arch::Power => {
                // Accesses have no attribute ladder; fences weaken by
                // kind on Power (sync → lwsync → isync is *not* a chain
                // in strength for all directions, so we only allow
                // sync → lwsync, the uncontroversial step).
                if self == Arch::Power && ev.kind == EventKind::Fence(Fence::Sync) {
                    let mut e2 = *ev;
                    e2.kind = EventKind::Fence(Fence::Lwsync);
                    out.push(e2);
                }
            }
            Arch::Armv8 => {
                weaken_attr(Attrs::ACQ);
                weaken_attr(Attrs::REL);
                if ev.kind == EventKind::Fence(Fence::Dmb) {
                    for weaker in [Fence::DmbLd, Fence::DmbSt] {
                        let mut e2 = *ev;
                        e2.kind = EventKind::Fence(weaker);
                        out.push(e2);
                    }
                }
            }
            Arch::Cpp => {
                // SC → (acq|rel); acq/rel → relaxed; relaxed atomics do
                // not downgrade to non-atomic (that changes the program's
                // race status, not just its strength).
                if ev.attrs.contains(Attrs::SC) {
                    let mut e2 = *ev;
                    e2.attrs = e2.attrs.minus(Attrs::SC);
                    out.push(e2);
                } else {
                    weaken_attr(Attrs::ACQ);
                    weaken_attr(Attrs::REL);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txmm_core::ExecBuilder;

    #[test]
    fn x86_rejects_acquire() {
        let mut b = ExecBuilder::new();
        let t = b.new_thread();
        b.read_acq(t, 0);
        let x = b.build().unwrap();
        assert!(Arch::X86.validate(&x).is_err());
        assert!(Arch::Armv8.validate(&x).is_ok());
    }

    #[test]
    fn fence_vocabularies() {
        let mut b = ExecBuilder::new();
        let t = b.new_thread();
        b.fence(t, Fence::Sync);
        let x = b.build().unwrap();
        assert!(Arch::Power.validate(&x).is_ok());
        assert!(Arch::X86.validate(&x).is_err());
        assert!(Arch::Armv8.validate(&x).is_err());
    }

    #[test]
    fn cpp_fence_needs_mode() {
        let mut b = ExecBuilder::new();
        let t = b.new_thread();
        b.fence(t, Fence::CppFence);
        let x = b.build().unwrap();
        assert!(Arch::Cpp.validate(&x).is_err());
        let mut b = ExecBuilder::new();
        let t = b.new_thread();
        let f = b.fence(t, Fence::CppFence);
        b.attr(f, Attrs::ACQ);
        let x = b.build().unwrap();
        assert!(Arch::Cpp.validate(&x).is_ok());
    }

    #[test]
    fn cpp_ordered_access_must_be_atomic() {
        let mut b = ExecBuilder::new();
        let t = b.new_thread();
        b.read_acq(t, 0); // acquire but not atomic
        let x = b.build().unwrap();
        assert!(Arch::Cpp.validate(&x).is_err());
    }

    #[test]
    fn cpp_rmw_must_be_atomic() {
        let mut b = ExecBuilder::new();
        let t = b.new_thread();
        let r = b.read(t, 0);
        let w = b.write(t, 0);
        b.rmw(r, w);
        let x = b.build().unwrap();
        assert!(Arch::Cpp.validate(&x).is_err());
        assert!(Arch::Power.validate(&x).is_ok());
    }

    #[test]
    fn armv8_downgrades() {
        let ev = Event::read(0, 0).with_attrs(Attrs::ACQ);
        let d = Arch::Armv8.downgrades(&ev);
        assert_eq!(d.len(), 1);
        assert!(d[0].attrs.is_empty());
        let plain = Event::read(0, 0);
        assert!(Arch::Armv8.downgrades(&plain).is_empty());
        let dmb = Event::fence(0, Fence::Dmb);
        assert_eq!(Arch::Armv8.downgrades(&dmb).len(), 2);
    }

    #[test]
    fn cpp_downgrade_ladder() {
        let sc = Event::read(0, 0).with_attrs(Attrs::ATO.union(Attrs::SC).union(Attrs::ACQ));
        let d = Arch::Cpp.downgrades(&sc);
        // SC strips first (leaving the acquire), never jumping two rungs.
        assert_eq!(d.len(), 1);
        assert!(d[0].attrs.contains(Attrs::ACQ));
        assert!(!d[0].attrs.contains(Attrs::SC));
        let acq = d[0];
        let d2 = Arch::Cpp.downgrades(&acq);
        assert_eq!(d2.len(), 1);
        assert!(d2[0].attrs.contains(Attrs::ATO));
        assert!(!d2[0].attrs.contains(Attrs::ACQ));
        // Relaxed atomic: bottom of the ladder.
        assert!(Arch::Cpp.downgrades(&d2[0]).is_empty());
    }

    #[test]
    fn power_sync_downgrades_to_lwsync() {
        let sync = Event::fence(0, Fence::Sync);
        let d = Arch::Power.downgrades(&sync);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].kind, EventKind::Fence(Fence::Lwsync));
    }
}
