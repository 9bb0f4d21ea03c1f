//! The benchmark's own tracer: wall-clock spans recorded around calls
//! into each layer, kept in memory and written out when the run ends.
//!
//! A span has a name, a start and an end (seconds since the tracer was
//! created), the span that was open when it began (its parent) and the
//! id of the operation it belongs to. A span's *self time* is its
//! duration minus the durations of its direct children.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    op: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(), // lint: wall-clock — wall time is this benchmark's measured output
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its duration
    /// in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let popped = self.open.pop();
        assert_eq!(popped, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_s = self.origin.elapsed().as_secs_f64();
        span.secs()
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Self time of every span, indexed like the spans.
    pub fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.secs();
            }
        }
        own
    }

    /// Tab-separated span table, one line per span, prefixed `span`.
    pub fn render(&self) -> String {
        let own = self.self_times();
        let mut out = String::from("span\top\tid\tparent\tname\tstart_s\tend_s\tself_s\n");
        for (id, (s, self_s)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span\t{}\t{id}\t{parent}\t{}\t{:.6}\t{:.6}\t{self_s:.6}",
                s.op, s.name, s.start_s, s.end_s
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut sp = Spans::new();
        sp.set_op(3);
        let root = sp.enter("root");
        let child = sp.enter("child");
        let grandchild = sp.enter("grandchild");
        sp.exit(grandchild);
        sp.exit(child);
        sp.exit(root);
        let own = sp.self_times();
        let s = &sp.spans;
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert!(s.iter().all(|x| x.op == 3));
        assert!((own[0] - (s[0].secs() - s[1].secs())).abs() < 1e-12);
        assert!((own[1] - (s[1].secs() - s[2].secs())).abs() < 1e-12);
        assert!((own[2] - s[2].secs()).abs() < 1e-12);
        assert_eq!(sp.render().lines().count(), 4);
    }
}
