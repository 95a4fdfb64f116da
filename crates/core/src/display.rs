//! Human-readable rendering of executions: an event table and an edge
//! list.

use crate::event::{loc_name, EventKind};
use crate::exec::Execution;

/// A short label for event `e`, e.g. `a: W x` or `c: R·Acq y`.
pub(crate) fn event_label(x: &Execution, e: usize) -> String {
    let ev = x.event(e);
    let name = (b'a' + (e as u8 % 26)) as char;
    let kind = match ev.kind {
        EventKind::Read => "R".to_string(),
        EventKind::Write => "W".to_string(),
        EventKind::Fence(f) => format!("F[{}]", f.mnemonic()),
        EventKind::Call(c) => c.symbol().to_string(),
    };
    let attrs = if ev.attrs.is_empty() {
        String::new()
    } else {
        format!("·{}", ev.attrs)
    };
    match ev.loc {
        Some(l) => format!("{name}: {kind}{attrs} {}", loc_name(l)),
        None => format!("{name}: {kind}{attrs}"),
    }
}

/// Render the execution as readable text: per-thread event columns
/// followed by every non-`po` edge.
pub fn render(x: &Execution) -> String {
    let mut out = String::new();
    for t in 0..x.num_threads() {
        out.push_str(&format!("thread {t}:\n"));
        for e in x.thread_events(t as u8) {
            let txn = match x.txn_of(e) {
                Some(i) if x.txns()[i].atomic => format!("  [txn {i}, atomic]"),
                Some(i) => format!("  [txn {i}]"),
                None => String::new(),
            };
            out.push_str(&format!("  {}{}\n", event_label(x, e), txn));
        }
    }
    let edges: Vec<(&str, crate::rel::Rel)> = vec![
        ("rf", *x.rf()),
        ("co", *x.co()),
        ("fr", x.fr()),
        ("addr", *x.addr()),
        ("ctrl", *x.ctrl()),
        ("data", *x.data()),
        ("rmw", *x.rmw()),
    ];
    for (name, rel) in edges {
        for (a, b) in rel.pairs() {
            let la = (b'a' + (a as u8 % 26)) as char;
            let lb = (b'a' + (b as u8 % 26)) as char;
            out.push_str(&format!("  {la} -{name}-> {lb}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ExecBuilder;
    use crate::event::Attrs;

    fn sample() -> Execution {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write(t0, 0);
        let r = b.read_acq(t0, 1);
        let t1 = b.new_thread();
        let w2 = b.write(t1, 1);
        b.rf(w2, r);
        b.txn(&[w2]);
        let _ = w;
        b.build().unwrap()
    }

    #[test]
    fn labels() {
        let x = sample();
        assert_eq!(event_label(&x, 0), "a: W x");
        assert_eq!(event_label(&x, 1), "b: R·Acq y");
        assert_eq!(event_label(&x, 2), "c: W y");
    }

    #[test]
    fn render_mentions_all_threads_and_edges() {
        let x = sample();
        let s = render(&x);
        assert!(s.contains("thread 0"));
        assert!(s.contains("thread 1"));
        assert!(s.contains("c -rf-> b"));
        assert!(s.contains("[txn 0]"));
    }

    #[test]
    fn fence_label() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        b.fence(t0, crate::event::Fence::Sync);
        let x = b.build().unwrap();
        assert_eq!(event_label(&x, 0), "a: F[sync]");
    }

    #[test]
    fn sc_label_shows_modes() {
        let mut b = ExecBuilder::new();
        let t0 = b.new_thread();
        let w = b.write_ato(t0, 0, Attrs::SC);
        let x = b.build().unwrap();
        let l = event_label(&x, w);
        assert!(l.contains("Ato"));
        assert!(l.contains("SC"));
    }
}
