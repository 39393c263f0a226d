//! Outside-in spans: the benchmark times its own calls into each layer.
//!
//! Spans live in memory and are written once, at exit, as Chrome
//! trace-event JSON (`chrome://tracing`, <https://ui.perfetto.dev>) —
//! the format ROADMAP item 5 plans to export from inside the program.
//! A span's self time is its duration minus its children's.

use crate::stats::median;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    /// Spans opened from now on belong to rep `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the span open
    /// on this tracer (if any). `f` gets the tracer back to open children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record time that was accumulated piecemeal (functor calls summed
    /// by a [`crate::timed::FunctorClock`]) as one child of the open
    /// span, so self-time accounting and the viewer both see it. Clamped
    /// to the time elapsed in the parent: under two emulator threads the
    /// summed CPU time can exceed the parent's wall-clock.
    pub fn accumulated(&mut self, name: &'static str, dur_ns: u64) {
        let parent = *self
            .stack
            .last()
            .expect("accumulated time needs an open span");
        let start_ns = self.spans[parent].start_ns;
        let room = self.now_ns() - start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns.min(room),
            parent: Some(parent),
            rep: self.rep,
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn children(&self, idx: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(idx))
    }

    /// Span duration minus the part its children cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let covered: u64 = self.children(idx).map(|c| c.dur_ns()).sum();
        self.spans[idx].dur_ns().saturating_sub(covered)
    }

    /// Median over reps of the per-rep total duration of spans named
    /// `name`, in milliseconds (0 when the name never occurs).
    pub fn median_ms(&self, name: &str) -> f64 {
        self.median_by(name, |_, s| s.dur_ns())
    }

    /// As [`Tracer::median_ms`], over self times.
    pub fn median_self_ms(&self, name: &str) -> f64 {
        self.median_by(name, |i, _| self.self_ns(i))
    }

    fn median_by(&self, name: &str, ns: impl Fn(usize, &Span) -> u64) -> f64 {
        let mut per_rep: std::collections::BTreeMap<u32, u64> = Default::default();
        for (i, s) in self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
        {
            *per_rep.entry(s.rep).or_default() += ns(i, s);
        }
        let ms: Vec<f64> = per_rep.values().map(|&v| v as f64 / 1e6).collect();
        median(&ms)
    }

    /// Self time per span name inside the spans named `root`, summed over
    /// all reps, as a share of those root spans; largest first. The
    /// shares add up to 1.
    pub fn self_shares(&self, root: &str) -> Vec<(&'static str, f64)> {
        let mut by_name: std::collections::BTreeMap<&'static str, u64> = Default::default();
        let mut total = 0;
        for (i, s) in self.spans.iter().enumerate() {
            let mut top = i;
            while let Some(p) = self.spans[top].parent {
                top = p;
            }
            if self.spans[top].name == root {
                *by_name.entry(s.name).or_default() += self.self_ns(i);
                total += self.self_ns(i);
            }
        }
        let mut v: Vec<_> = by_name
            .into_iter()
            .map(|(n, ns)| (n, ns as f64 / total.max(1) as f64))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// one track (`tid`) per rep.
    pub fn chrome_json(&self) -> String {
        let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"rep\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}}}{sep}",
                sp.name,
                sp.start_ns as f64 / 1e3,
                sp.dur_ns() as f64 / 1e3,
                sp.rep,
                sp.rep,
                sp.start_ns,
                sp.end_ns,
                self.self_ns(i),
            );
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while (t.elapsed().as_micros() as u64) < us {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_nest_and_self_times_sum_to_the_root() {
        let mut tr = Tracer::new();
        for rep in 0..3 {
            tr.set_rep(rep);
            tr.span("rep", |tr| {
                spin(200);
                tr.span("a", |tr| {
                    spin(300);
                    tr.span("a.inner", |_| spin(400));
                    tr.accumulated("a.acc", 100_000);
                });
                tr.span("b", |_| spin(500));
            });
        }
        for (i, s) in tr.spans().iter().enumerate() {
            if let Some(p) = s.parent {
                let parent = &tr.spans()[p];
                assert!(p < i && parent.rep == s.rep);
                assert!(
                    parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                    "{s:?}"
                );
            }
        }
        for rep in 0..3 {
            let of_rep = |s: &&Span| s.rep == rep;
            let root = tr
                .spans()
                .iter()
                .filter(of_rep)
                .find(|s| s.name == "rep")
                .unwrap()
                .dur_ns();
            let selfs: u64 = (0..tr.spans().len())
                .filter(|&i| tr.spans()[i].rep == rep)
                .map(|i| tr.self_ns(i))
                .sum();
            let err = (root as f64 - selfs as f64).abs() / root as f64;
            assert!(err < 0.01, "self times {selfs} vs root {root}");
        }
        assert!(tr.median_ms("a") >= 0.7 && tr.median_self_ms("a") < tr.median_ms("a"));
        assert_eq!(tr.median_ms("absent"), 0.0);
        let shares = tr.self_shares("rep");
        assert_eq!(shares.len(), 5);
        assert!((shares.iter().map(|s| s.1).sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(tr.self_shares("a.inner").is_empty());
        let json = tr.chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), tr.spans().len());
    }

    #[test]
    fn accumulated_time_is_clamped_to_the_parent() {
        let mut tr = Tracer::new();
        tr.span("p", |tr| {
            spin(100);
            tr.accumulated("huge", u64::MAX / 2);
        });
        assert!(tr.spans()[1].end_ns <= tr.spans()[0].end_ns);
        assert!(tr.self_ns(0) < tr.spans()[0].dur_ns());
    }
}
