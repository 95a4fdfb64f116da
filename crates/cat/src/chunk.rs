//! Flat bytecode for compiled `.cat` models.
//!
//! A [`Chunk`] is a register-machine program over two register banks —
//! relations ([`RReg`]) and event sets ([`SReg`]) — produced by
//! [`mod@crate::compile`] and executed by [`crate::vm::Vm`]. Every name is
//! resolved at compile time: builtin references become [`Op::LoadR`] /
//! [`Op::LoadS`] against the shared `ExecutionAnalysis`, `let` bindings
//! become register aliases, and `let rec` groups become fixpoint loops
//! ([`Op::FixUpdate`] + [`Op::FixLoop`]) with a convergence test over
//! the bound registers. Checks carry their `as Name` labels as indices
//! into the chunk's leaked name table.
//!
//! Chunks come in two flavours: the *generic* program a model compiles
//! to once, and per-event-count *tiers* ([`crate::opt::specialise`])
//! where every subexpression built only from event-count constants
//! (`id`, `unv`, `_`, `emptyset`) has been folded into the constant
//! pools.

use txmm_core::{EventSet, ExecutionAnalysis, Fence, Rel};

use crate::parser::CheckKind;

/// A relation register (index into the VM's `Rel` bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RReg(pub u16);

/// An event-set register (index into the VM's `EventSet` bank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SReg(pub u16);

/// A builtin event set, resolved at compile time from its source name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SetBuiltin {
    /// `R`.
    Reads,
    /// `W`.
    Writes,
    /// `M`.
    Accesses,
    /// `F`.
    Fences,
    /// `A` / `Acq`.
    Acq,
    /// `L` / `Rel`.
    RelEvents,
    /// `SC`.
    ScEvents,
    /// `Ato`.
    Ato,
    /// `emptyset`.
    Empty,
    /// Fence-event sets (`MFENCE`, `SYNC`, `DMB`, ...).
    FenceEvents(Fence),
    /// `RlxW`.
    RlxW,
    /// `RlxR`.
    RlxR,
    /// `FSC`.
    Fsc,
    /// `AcqRead`.
    AcqRead,
    /// `RelWrite`.
    RelWrite,
}

impl SetBuiltin {
    /// Resolve a source name; mirrors the interpreter's builtin table.
    pub fn lookup(name: &str) -> Option<SetBuiltin> {
        use SetBuiltin::*;
        Some(match name {
            "R" => Reads,
            "W" => Writes,
            "M" => Accesses,
            "F" => Fences,
            "A" | "Acq" => Acq,
            "L" | "Rel" => RelEvents,
            "SC" => ScEvents,
            "Ato" => Ato,
            "emptyset" => Empty,
            "ISB" => FenceEvents(Fence::Isb),
            "MFENCE" => FenceEvents(Fence::MFence),
            "SYNC" => FenceEvents(Fence::Sync),
            "LWSYNC" => FenceEvents(Fence::Lwsync),
            "ISYNC" => FenceEvents(Fence::Isync),
            "DMB" => FenceEvents(Fence::Dmb),
            "DMBLD" => FenceEvents(Fence::DmbLd),
            "DMBST" => FenceEvents(Fence::DmbSt),
            "RlxW" => RlxW,
            "RlxR" => RlxR,
            "FSC" => Fsc,
            "AcqRead" => AcqRead,
            "RelWrite" => RelWrite,
            _ => return None,
        })
    }

    /// The set this builtin denotes over one execution's analysis.
    pub fn eval(self, a: &ExecutionAnalysis<'_>) -> EventSet {
        use SetBuiltin::*;
        let x = a.exec();
        match self {
            Reads => a.reads(),
            Writes => a.writes(),
            Accesses => x.accesses(),
            Fences => a.fences(),
            Acq => a.acq(),
            RelEvents => a.rel_events(),
            ScEvents => a.sc_events(),
            Ato => a.ato(),
            Empty => EventSet::EMPTY,
            FenceEvents(f) => x.fence_events(f),
            RlxW => a.writes().inter(a.ato()),
            RlxR => a.reads().inter(a.ato()),
            Fsc => a.sc_events().inter(a.fences()),
            AcqRead => a.acq().inter(a.reads()),
            RelWrite => x.with_attr(txmm_core::Attrs::REL).inter(a.writes()),
        }
    }
}

/// A builtin relation, resolved at compile time from its source name.
///
/// The tail of the enum (from [`RelBuiltin::Dp`] on) is optimiser
/// vocabulary only: relations the shared `ExecutionAnalysis` caches
/// per execution but which have no `.cat` name. The CSE/hoisting pass
/// rewrites the corresponding compound expressions (`addr | data`,
/// `poloc | com`, `stronglift(com, stxn)`, ...) into single loads of
/// these, so every model sharing an analysis shares the work too.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelBuiltin {
    /// `id` (folded per tier: depends only on the event count).
    Id,
    /// `unv` (folded per tier).
    Unv,
    /// `po`.
    Po,
    /// `addr`.
    Addr,
    /// `ctrl`.
    Ctrl,
    /// `data`.
    Data,
    /// `rmw`.
    Rmw,
    /// `rf`.
    Rf,
    /// `co`.
    Co,
    /// `fr`.
    Fr,
    /// `com`.
    Com,
    /// `rfe`.
    Rfe,
    /// `rfi`.
    Rfi,
    /// `coe`.
    Coe,
    /// `coi`.
    Coi,
    /// `fre`.
    Fre,
    /// `fri`.
    Fri,
    /// `come`.
    Come,
    /// `sloc` / `loc`.
    Sloc,
    /// `sthd` / `int`.
    Sthd,
    /// `ext`.
    Ext,
    /// `poloc`.
    PoLoc,
    /// `stxn`.
    Stxn,
    /// `stxnat`.
    Stxnat,
    /// `tfence`.
    Tfence,
    /// `scr`.
    Scr,
    /// `scrt`.
    Scrt,
    /// Builtin fence-order relations (`mfence`, `sync`, `dmb`, ...).
    FenceOrder(Fence),
    /// Optimiser-only: `addr | data` (analysis `dp`).
    Dp,
    /// Optimiser-only: `tfence+` (analysis `tfence_plus`).
    TfencePlus,
    /// Optimiser-only: `poloc | com` (analysis `coherence`).
    Coherence,
    /// Optimiser-only: `rmw & (fre ; coe)` (analysis `rmw_isol`).
    RmwIsol,
    /// Optimiser-only: `weaklift(com, stxn)` (analysis `weak_isol`).
    WeakIsol,
    /// Optimiser-only: `stronglift(com, stxn)` (analysis `strong_isol`).
    StrongIsol,
    /// Optimiser-only: `stronglift(com, stxnat)`.
    StrongIsolAtomic,
    /// Optimiser-only: `rmw & tfence+` (analysis `txn_cancels_rmw`).
    TxnCancelsRmw,
}

impl RelBuiltin {
    /// Resolve a source name; mirrors the interpreter's builtin table.
    /// Optimiser-only builtins are deliberately not source-addressable.
    pub fn lookup(name: &str) -> Option<RelBuiltin> {
        use RelBuiltin::*;
        Some(match name {
            "id" => Id,
            "unv" => Unv,
            "po" => Po,
            "addr" => Addr,
            "ctrl" => Ctrl,
            "data" => Data,
            "rmw" => Rmw,
            "rf" => Rf,
            "co" => Co,
            "fr" => Fr,
            "com" => Com,
            "rfe" => Rfe,
            "rfi" => Rfi,
            "coe" => Coe,
            "coi" => Coi,
            "fre" => Fre,
            "fri" => Fri,
            "come" => Come,
            "sloc" | "loc" => Sloc,
            "sthd" | "int" => Sthd,
            "ext" => Ext,
            "poloc" => PoLoc,
            "stxn" => Stxn,
            "stxnat" => Stxnat,
            "tfence" => Tfence,
            "scr" => Scr,
            "scrt" => Scrt,
            "mfence" => FenceOrder(Fence::MFence),
            "sync" => FenceOrder(Fence::Sync),
            "lwsync" => FenceOrder(Fence::Lwsync),
            "isync" => FenceOrder(Fence::Isync),
            "dmb" => FenceOrder(Fence::Dmb),
            "dmbld" => FenceOrder(Fence::DmbLd),
            "dmbst" => FenceOrder(Fence::DmbSt),
            "isb" => FenceOrder(Fence::Isb),
            _ => return None,
        })
    }

    /// The relation this builtin denotes over one execution's analysis.
    pub fn eval(self, a: &ExecutionAnalysis<'_>) -> Rel {
        use RelBuiltin::*;
        let x = a.exec();
        match self {
            Id => Rel::id(a.len()),
            Unv => Rel::full(a.len()),
            Po => *x.po(),
            Addr => *x.addr(),
            Ctrl => *x.ctrl(),
            Data => *x.data(),
            Rmw => *x.rmw(),
            Rf => *x.rf(),
            Co => *x.co(),
            Fr => *a.fr(),
            Com => *a.com(),
            Rfe => *a.rfe(),
            Rfi => *a.rfi(),
            Coe => *a.coe(),
            Coi => *a.coi(),
            Fre => *a.fre(),
            Fri => *a.fri(),
            Come => *a.come(),
            Sloc => *a.sloc(),
            Sthd => *a.sthd(),
            Ext => a.sthd().complement(),
            PoLoc => *a.po_loc(),
            Stxn => *a.stxn(),
            Stxnat => *a.stxnat(),
            Tfence => *a.tfence(),
            Scr => *a.scr(),
            Scrt => *a.scrt(),
            FenceOrder(f) => *a.fence_rel(f),
            Dp => *a.dp(),
            TfencePlus => *a.tfence_plus(),
            Coherence => *a.coherence(),
            RmwIsol => *a.rmw_isol(),
            WeakIsol => *a.weak_isol(),
            StrongIsol => *a.strong_isol(),
            StrongIsolAtomic => *a.strong_isol_atomic(),
            TxnCancelsRmw => *a.txn_cancels_rmw(),
        }
    }

    /// A borrowed view of the builtin when the analysis caches it —
    /// the VM row-copies these instead of materialising a full `Rel`.
    /// `None` for the computed ones ([`RelBuiltin::eval`] covers all).
    pub fn eval_ref<'r>(self, a: &'r ExecutionAnalysis<'_>) -> Option<&'r Rel> {
        use RelBuiltin::*;
        let x = a.exec();
        Some(match self {
            Id | Unv | Ext => return None,
            Po => x.po(),
            Addr => x.addr(),
            Ctrl => x.ctrl(),
            Data => x.data(),
            Rmw => x.rmw(),
            Rf => x.rf(),
            Co => x.co(),
            Fr => a.fr(),
            Com => a.com(),
            Rfe => a.rfe(),
            Rfi => a.rfi(),
            Coe => a.coe(),
            Coi => a.coi(),
            Fre => a.fre(),
            Fri => a.fri(),
            Come => a.come(),
            Sloc => a.sloc(),
            Sthd => a.sthd(),
            PoLoc => a.po_loc(),
            Stxn => a.stxn(),
            Stxnat => a.stxnat(),
            Tfence => a.tfence(),
            Scr => a.scr(),
            Scrt => a.scrt(),
            FenceOrder(f) => a.fence_rel(f),
            Dp => a.dp(),
            TfencePlus => a.tfence_plus(),
            Coherence => a.coherence(),
            RmwIsol => a.rmw_isol(),
            WeakIsol => a.weak_isol(),
            StrongIsol => a.strong_isol(),
            StrongIsolAtomic => a.strong_isol_atomic(),
            TxnCancelsRmw => a.txn_cancels_rmw(),
        })
    }

    /// Does the relation depend only on the event count, not the
    /// execution? These are the fold candidates of tier specialisation.
    pub fn is_count_constant(self) -> bool {
        matches!(self, RelBuiltin::Id | RelBuiltin::Unv)
    }
}

/// One register-machine instruction. Binary set/relation operators read
/// two registers and write a third; fixpoint groups bracket their body
/// with [`Op::FixUpdate`] convergence tests and a trailing
/// [`Op::FixLoop`] back-jump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `dst ← builtin relation`.
    LoadR { dst: RReg, b: RelBuiltin },
    /// `dst ← builtin set`.
    LoadS { dst: SReg, b: SetBuiltin },
    /// `dst ← rel_consts[idx]` (tier-folded constant).
    ConstR { dst: RReg, idx: u16 },
    /// `dst ← set_consts[idx]` (tier-folded constant).
    ConstS { dst: SReg, idx: u16 },
    /// `dst ← a ∪ b` (relations).
    UnionR { dst: RReg, a: RReg, b: RReg },
    /// `dst ← a ∩ b` (relations).
    InterR { dst: RReg, a: RReg, b: RReg },
    /// `dst ← a \ b` (relations).
    DiffR { dst: RReg, a: RReg, b: RReg },
    /// `dst ← a ; b` (relational composition).
    SeqR { dst: RReg, a: RReg, b: RReg },
    /// `dst ← a ∪ b` (sets).
    UnionS { dst: SReg, a: SReg, b: SReg },
    /// `dst ← a ∩ b` (sets).
    InterS { dst: SReg, a: SReg, b: SReg },
    /// `dst ← a \ b` (sets).
    DiffS { dst: SReg, a: SReg, b: SReg },
    /// `dst ← a × b` (set cross product).
    Cross { dst: RReg, a: SReg, b: SReg },
    /// `dst ← [src]` (identity on a set; also the set→relation
    /// coercion the interpreter applies in relation positions).
    IdOn { dst: RReg, src: SReg },
    /// `dst ← src⁺` (transitive closure).
    Plus { dst: RReg, src: RReg },
    /// `dst ← src*`.
    Star { dst: RReg, src: RReg },
    /// `dst ← src?`.
    Opt { dst: RReg, src: RReg },
    /// `dst ← src⁻¹` (transpose).
    Inverse { dst: RReg, src: RReg },
    /// `dst ← ¬src` (relation complement).
    ComplementR { dst: RReg, src: RReg },
    /// `dst ← ¬src` (set complement over the event universe).
    ComplementS { dst: SReg, src: SReg },
    /// `dst ← domain(src)`.
    Domain { dst: SReg, src: RReg },
    /// `dst ← range(src)`.
    Range { dst: SReg, src: RReg },
    /// `dst ← weaklift(a, b)`.
    Weaklift { dst: RReg, a: RReg, b: RReg },
    /// `dst ← stronglift(a, b)`.
    Stronglift { dst: RReg, a: RReg, b: RReg },
    /// `dst ← po ; [src] ; po` (herd's `fencerel`).
    Fencerel { dst: RReg, src: SReg },
    /// `dst ← _` (the event universe; folded per tier).
    Universe { dst: SReg },
    /// `dst ← ∅` — the least-fixpoint seed of a `let rec` binding.
    EmptyR { dst: RReg },
    /// Fixpoint convergence step: `changed |= bound ≠ src; bound ← src`.
    FixUpdate { bound: RReg, src: RReg },
    /// If any [`Op::FixUpdate`] since the last test changed a register,
    /// clear the flag and jump back to instruction `start`.
    FixLoop { start: u32 },
    /// Run a check over `src` and record `names[name]` on failure.
    Check {
        kind: CheckKind,
        src: RReg,
        name: u16,
    },
}

/// Either bank's register, for the generic def/use walks the optimiser
/// passes share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AnyReg {
    R(u16),
    S(u16),
}

impl Op {
    /// The register this op defines, if any. [`Op::FixUpdate`] both
    /// reads and writes its bound register; passes treat it separately.
    pub(crate) fn def(&self) -> Option<AnyReg> {
        use Op::*;
        Some(match *self {
            LoadR { dst, .. }
            | ConstR { dst, .. }
            | UnionR { dst, .. }
            | InterR { dst, .. }
            | DiffR { dst, .. }
            | SeqR { dst, .. }
            | Cross { dst, .. }
            | IdOn { dst, .. }
            | Plus { dst, .. }
            | Star { dst, .. }
            | Opt { dst, .. }
            | Inverse { dst, .. }
            | ComplementR { dst, .. }
            | Weaklift { dst, .. }
            | Stronglift { dst, .. }
            | Fencerel { dst, .. }
            | EmptyR { dst } => AnyReg::R(dst.0),
            LoadS { dst, .. }
            | ConstS { dst, .. }
            | UnionS { dst, .. }
            | InterS { dst, .. }
            | DiffS { dst, .. }
            | ComplementS { dst, .. }
            | Domain { dst, .. }
            | Range { dst, .. }
            | Universe { dst } => AnyReg::S(dst.0),
            FixUpdate { .. } | FixLoop { .. } | Check { .. } => return None,
        })
    }

    /// Visit every register this op reads.
    pub(crate) fn uses(&self, f: &mut impl FnMut(AnyReg)) {
        use Op::*;
        match *self {
            UnionR { a, b, .. }
            | InterR { a, b, .. }
            | DiffR { a, b, .. }
            | SeqR { a, b, .. }
            | Weaklift { a, b, .. }
            | Stronglift { a, b, .. } => {
                f(AnyReg::R(a.0));
                f(AnyReg::R(b.0));
            }
            UnionS { a, b, .. } | InterS { a, b, .. } | DiffS { a, b, .. } | Cross { a, b, .. } => {
                f(AnyReg::S(a.0));
                f(AnyReg::S(b.0));
            }
            Plus { src, .. }
            | Star { src, .. }
            | Opt { src, .. }
            | Inverse { src, .. }
            | ComplementR { src, .. } => f(AnyReg::R(src.0)),
            IdOn { src, .. } | Fencerel { src, .. } | ComplementS { src, .. } => {
                f(AnyReg::S(src.0))
            }
            Domain { src, .. } | Range { src, .. } => f(AnyReg::R(src.0)),
            Check { src, .. } => f(AnyReg::R(src.0)),
            FixUpdate { bound, src } => {
                f(AnyReg::R(bound.0));
                f(AnyReg::R(src.0));
            }
            LoadR { .. }
            | LoadS { .. }
            | ConstR { .. }
            | ConstS { .. }
            | Universe { .. }
            | EmptyR { .. }
            | FixLoop { .. } => {}
        }
    }

    /// Rewrite only the registers the op *reads* through the two bank
    /// maps. Used by CSE substitution, which must leave defs alone: a
    /// deduplicated op keeps its (now dead) destination for DCE to
    /// collect. [`Op::FixUpdate`]'s bound register is the mutated
    /// accumulator, never a substitutable value, so only `src` moves.
    pub(crate) fn rewrite_uses(&mut self, r: &impl Fn(u16) -> u16, s: &impl Fn(u16) -> u16) {
        use Op::*;
        let rr = |x: &mut RReg| x.0 = r(x.0);
        let ss = |x: &mut SReg| x.0 = s(x.0);
        match self {
            UnionR { a, b, .. }
            | InterR { a, b, .. }
            | DiffR { a, b, .. }
            | SeqR { a, b, .. }
            | Weaklift { a, b, .. }
            | Stronglift { a, b, .. } => {
                rr(a);
                rr(b);
            }
            UnionS { a, b, .. } | InterS { a, b, .. } | DiffS { a, b, .. } | Cross { a, b, .. } => {
                ss(a);
                ss(b);
            }
            Plus { src, .. }
            | Star { src, .. }
            | Opt { src, .. }
            | Inverse { src, .. }
            | ComplementR { src, .. } => rr(src),
            IdOn { src, .. } | Fencerel { src, .. } | ComplementS { src, .. } => ss(src),
            Domain { src, .. } | Range { src, .. } => rr(src),
            Check { src, .. } => rr(src),
            FixUpdate { src, .. } => rr(src),
            LoadR { .. }
            | LoadS { .. }
            | ConstR { .. }
            | ConstS { .. }
            | Universe { .. }
            | EmptyR { .. }
            | FixLoop { .. } => {}
        }
    }

    /// Rewrite every register the op mentions (defs and uses) through
    /// the two bank maps. Used by register compaction.
    pub(crate) fn rewrite_regs(&mut self, r: &impl Fn(u16) -> u16, s: &impl Fn(u16) -> u16) {
        use Op::*;
        let rr = |x: &mut RReg| x.0 = r(x.0);
        let ss = |x: &mut SReg| x.0 = s(x.0);
        match self {
            LoadR { dst, .. } | ConstR { dst, .. } | EmptyR { dst } => rr(dst),
            LoadS { dst, .. } | ConstS { dst, .. } | Universe { dst } => ss(dst),
            UnionR { dst, a, b }
            | InterR { dst, a, b }
            | DiffR { dst, a, b }
            | SeqR { dst, a, b }
            | Weaklift { dst, a, b }
            | Stronglift { dst, a, b } => {
                rr(dst);
                rr(a);
                rr(b);
            }
            UnionS { dst, a, b } | InterS { dst, a, b } | DiffS { dst, a, b } => {
                ss(dst);
                ss(a);
                ss(b);
            }
            Cross { dst, a, b } => {
                rr(dst);
                ss(a);
                ss(b);
            }
            IdOn { dst, src } | Fencerel { dst, src } => {
                rr(dst);
                ss(src);
            }
            Plus { dst, src }
            | Star { dst, src }
            | Opt { dst, src }
            | Inverse { dst, src }
            | ComplementR { dst, src } => {
                rr(dst);
                rr(src);
            }
            ComplementS { dst, src } => {
                ss(dst);
                ss(src);
            }
            Domain { dst, src } | Range { dst, src } => {
                ss(dst);
                rr(src);
            }
            FixUpdate { bound, src } => {
                rr(bound);
                rr(src);
            }
            Check { src, .. } => rr(src),
            FixLoop { .. } => {}
        }
    }
}

/// A compiled `.cat` program: flat ops over two register banks, the
/// leaked check-name table, the fixpoint-group ranges the optimiser
/// passes treat atomically, and (for specialised tiers) constant pools.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// The instruction stream, in declaration order.
    pub ops: Vec<Op>,
    /// Size of the relation register bank.
    pub rel_regs: u16,
    /// Size of the event-set register bank.
    pub set_regs: u16,
    /// Check labels (`as Name`), leaked once at compile time — the
    /// interpreter leaked one copy per check *evaluation* instead.
    pub names: Vec<&'static str>,
    /// `[start, end)` op ranges of `let rec` bodies (the trailing
    /// `FixLoop` is at `end - 1`).
    pub fix_groups: Vec<(u32, u32)>,
    /// Relation constants folded by tier specialisation.
    pub rel_consts: Vec<Rel>,
    /// Set constants folded by tier specialisation.
    pub set_consts: Vec<EventSet>,
    /// `Some(n)` once specialised to event count `n`.
    pub events: Option<usize>,
}

impl Chunk {
    /// A short opcode-per-line listing, for tests and debugging.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            let _ = writeln!(out, "{i:3}: {op:?}");
        }
        out
    }

    /// Number of instructions (the optimiser tests' fuel gauge).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}
