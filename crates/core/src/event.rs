//! Events: the vertices of an execution graph.
//!
//! Following §2.1 of the paper, events are partitioned into reads, writes
//! and fences. For the lock-elision study (§8.3) we additionally support
//! *call* events (`lock()` / `unlock()` in both elided and non-elided
//! flavours). Architecture- and language-level distinctions (acquire,
//! release, SC, atomic) are carried as attribute flags.

use std::fmt;

/// Index of an event within an execution (dense, `0..n`).
pub type EventId = usize;

/// A memory location. Locations are small dense indices; pretty-printers
/// map them to names `x, y, z, w, v, u, ...`.
pub type Loc = u8;

/// A thread identifier (dense, `0..t`).
pub type Tid = u8;

/// The kind of fence event, covering every architecture we model.
///
/// Fences are encoded as events rather than edges (footnote 1 of the
/// paper) because this simplifies execution minimisation; the
/// architecture-specific fence *relations* (`mfence`, `sync`, ...) are
/// derived from them via [`crate::Execution::fence_rel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fence {
    /// x86 `MFENCE`.
    MFence,
    /// Power `sync` (hwsync): the full cumulative barrier.
    Sync,
    /// Power `lwsync`: lightweight barrier (no W→R ordering).
    Lwsync,
    /// Power `isync`: instruction-fetch barrier used in `ctrl+isync`.
    Isync,
    /// ARMv8 `DMB` (full).
    Dmb,
    /// ARMv8 `DMB LD`.
    DmbLd,
    /// ARMv8 `DMB ST`.
    DmbSt,
    /// ARMv8 `ISB`.
    Isb,
    /// A C++ `atomic_thread_fence`; its consistency mode is carried by
    /// the event's [`Attrs`] (`ACQ`, `REL`, `SC`).
    CppFence,
}

impl Fence {
    /// All fence kinds, in a stable order (used by enumerators).
    pub const ALL: [Fence; 9] = [
        Fence::MFence,
        Fence::Sync,
        Fence::Lwsync,
        Fence::Isync,
        Fence::Dmb,
        Fence::DmbLd,
        Fence::DmbSt,
        Fence::Isb,
        Fence::CppFence,
    ];

    /// The conventional mnemonic for this fence.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Fence::MFence => "MFENCE",
            Fence::Sync => "sync",
            Fence::Lwsync => "lwsync",
            Fence::Isync => "isync",
            Fence::Dmb => "DMB",
            Fence::DmbLd => "DMB LD",
            Fence::DmbSt => "DMB ST",
            Fence::Isb => "ISB",
            Fence::CppFence => "fence",
        }
    }
}

/// Method-call events used by the library-checking technique of §4.3/§8.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Call {
    /// `lock()` implemented by acquiring the lock in the ordinary fashion
    /// (the paper's `L` events).
    Lock,
    /// The corresponding `unlock()` (`U`).
    Unlock,
    /// `lock()` that will be transactionalised — lock elision (`Lt`).
    TLock,
    /// The corresponding `unlock()` (`Ut`).
    TUnlock,
}

impl Call {
    /// The paper's symbol for this call event.
    pub fn symbol(self) -> &'static str {
        match self {
            Call::Lock => "L",
            Call::Unlock => "U",
            Call::TLock => "Lt",
            Call::TUnlock => "Ut",
        }
    }
}

/// What an event does: read, write, fence or method call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A read of a memory location.
    Read,
    /// A write to a memory location.
    Write,
    /// A fence instruction, encoded as an event.
    Fence(Fence),
    /// A lock/unlock method call (lock-elision study only).
    Call(Call),
}

impl EventKind {
    /// True for [`EventKind::Read`].
    pub(crate) fn is_read(self) -> bool {
        matches!(self, EventKind::Read)
    }

    /// True for [`EventKind::Write`].
    pub(crate) fn is_write(self) -> bool {
        matches!(self, EventKind::Write)
    }

    /// True for reads and writes (the events that touch memory).
    pub fn is_access(self) -> bool {
        self.is_read() || self.is_write()
    }

    /// True for any fence kind.
    pub fn is_fence(self) -> bool {
        matches!(self, EventKind::Fence(_))
    }

    /// True for any call kind.
    pub(crate) fn is_call(self) -> bool {
        matches!(self, EventKind::Call(_))
    }
}

/// Attribute flags attached to events.
///
/// The flags cover both hardware annotations (ARMv8 acquire/release) and
/// the C++ consistency modes (`Ato`, `Acq`, `Rel`, `SC`). We keep them in
/// a compact bit-set so attribute algebra is cheap inside enumerators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Attrs(u8);

impl Attrs {
    /// No attributes: a plain (non-atomic, relaxed) access.
    pub const NONE: Attrs = Attrs(0);
    /// Acquire (ARMv8 `LDAR` / C++ `memory_order_acquire`).
    pub const ACQ: Attrs = Attrs(1);
    /// Release (ARMv8 `STLR` / C++ `memory_order_release`).
    pub const REL: Attrs = Attrs(1 << 1);
    /// Sequentially consistent (C++ `memory_order_seq_cst`).
    pub const SC: Attrs = Attrs(1 << 2);
    /// A C++ *atomic* operation (the paper's `Ato` set).
    pub const ATO: Attrs = Attrs(1 << 3);

    /// The union of two attribute sets.
    pub const fn union(self, other: Attrs) -> Attrs {
        Attrs(self.0 | other.0)
    }

    /// Does `self` contain every flag in `other`?
    pub const fn contains(self, other: Attrs) -> bool {
        self.0 & other.0 == other.0
    }

    /// Remove the flags in `other`.
    pub const fn minus(self, other: Attrs) -> Attrs {
        Attrs(self.0 & !other.0)
    }

    /// True if no flag is set.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Raw bits (stable across runs; used for hashing/canonical forms).
    pub const fn bits(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Attrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.contains(Attrs::ATO) {
            parts.push("Ato");
        }
        if self.contains(Attrs::ACQ) {
            parts.push("Acq");
        }
        if self.contains(Attrs::REL) {
            parts.push("Rel");
        }
        if self.contains(Attrs::SC) {
            parts.push("SC");
        }
        write!(f, "{}", parts.join(","))
    }
}

/// A single event of an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    /// What the event does.
    pub kind: EventKind,
    /// The thread the event belongs to.
    pub tid: Tid,
    /// The location accessed (`None` for fences and calls).
    pub loc: Option<Loc>,
    /// Attribute flags.
    pub attrs: Attrs,
}

impl Event {
    /// A plain read of `loc` on thread `tid`.
    pub fn read(tid: Tid, loc: Loc) -> Event {
        Event {
            kind: EventKind::Read,
            tid,
            loc: Some(loc),
            attrs: Attrs::NONE,
        }
    }

    /// A plain write of `loc` on thread `tid`.
    pub fn write(tid: Tid, loc: Loc) -> Event {
        Event {
            kind: EventKind::Write,
            tid,
            loc: Some(loc),
            attrs: Attrs::NONE,
        }
    }

    /// A fence event on thread `tid`.
    pub fn fence(tid: Tid, fence: Fence) -> Event {
        Event {
            kind: EventKind::Fence(fence),
            tid,
            loc: None,
            attrs: Attrs::NONE,
        }
    }

    /// A method-call event on thread `tid`.
    pub fn call(tid: Tid, call: Call) -> Event {
        Event {
            kind: EventKind::Call(call),
            tid,
            loc: None,
            attrs: Attrs::NONE,
        }
    }

    /// Add attributes (builder style).
    pub fn with_attrs(mut self, attrs: Attrs) -> Event {
        self.attrs = self.attrs.union(attrs);
        self
    }

    /// True for reads.
    pub fn is_read(&self) -> bool {
        self.kind.is_read()
    }

    /// True for writes.
    pub fn is_write(&self) -> bool {
        self.kind.is_write()
    }

    /// True for reads and writes.
    pub(crate) fn is_access(&self) -> bool {
        self.kind.is_access()
    }
}

/// Conventional names for the first few locations.
pub fn loc_name(loc: Loc) -> String {
    const NAMES: [&str; 6] = ["x", "y", "z", "w", "v", "u"];
    match NAMES.get(loc as usize) {
        Some(n) => (*n).to_string(),
        None => format!("l{loc}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrs_algebra() {
        let a = Attrs::ACQ.union(Attrs::ATO);
        assert!(a.contains(Attrs::ACQ));
        assert!(a.contains(Attrs::ATO));
        assert!(!a.contains(Attrs::REL));
        assert!(a.minus(Attrs::ACQ).contains(Attrs::ATO));
        assert!(!a.minus(Attrs::ACQ).contains(Attrs::ACQ));
        assert!(Attrs::NONE.is_empty());
        assert!(!a.is_empty());
    }

    #[test]
    fn attrs_display() {
        let a = Attrs::ATO.union(Attrs::SC);
        assert_eq!(a.to_string(), "Ato,SC");
        assert_eq!(Attrs::NONE.to_string(), "");
    }

    #[test]
    fn event_constructors() {
        let r = Event::read(0, 1);
        assert!(r.is_read() && !r.is_write() && r.is_access());
        assert_eq!(r.loc, Some(1));
        let w = Event::write(1, 0).with_attrs(Attrs::REL);
        assert!(w.is_write());
        assert!(w.attrs.contains(Attrs::REL));
        let f = Event::fence(0, Fence::Sync);
        assert!(f.kind.is_fence());
        assert_eq!(f.loc, None);
        let c = Event::call(0, Call::Lock);
        assert!(c.kind.is_call());
    }

    #[test]
    fn kind_predicates() {
        assert!(EventKind::Read.is_access());
        assert!(EventKind::Write.is_access());
        assert!(!EventKind::Fence(Fence::Dmb).is_access());
        assert!(!EventKind::Call(Call::Lock).is_access());
        assert!(EventKind::Fence(Fence::Isb).is_fence());
        assert!(EventKind::Call(Call::TUnlock).is_call());
    }

    #[test]
    fn loc_names() {
        assert_eq!(loc_name(0), "x");
        assert_eq!(loc_name(1), "y");
        assert_eq!(loc_name(7), "l7");
    }

    #[test]
    fn fence_mnemonics_cover_all() {
        for f in Fence::ALL {
            assert!(!f.mnemonic().is_empty());
        }
    }
}
