//! In-memory spans recorded by the benchmark around its calls into the
//! simulator.
//!
//! A span has a name, a start, an end and a parent; every span of one
//! injection round carries that round's id. Spans stay in memory and are
//! summarised and written out once, at the end of the run. With recording off, [`Spans`]
//! does nothing but run the closure it is given, so the untraced runs pay
//! no clock reads for it.

use std::time::Instant;

/// No parent / no round.
pub const NONE: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the log's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span name, e.g. `"send_packet"` or `"round"`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Round id, or [`NONE`] outside the injection rounds.
    pub round: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The span log.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u32,
}

impl Spans {
    /// A log that records when `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: NONE,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.stack.last().copied().unwrap_or(NONE),
            round: self.round,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let idx = self.stack.pop().expect("close without open");
        let end = self.now();
        self.spans[idx as usize].end = end;
    }

    /// Opens `round[k]`: spans opened until [`Spans::end_round`] carry id
    /// `k`.
    pub fn begin_round(&mut self, k: u32) {
        self.round = k;
        self.open("round");
    }

    /// Closes the current round span.
    pub fn end_round(&mut self) {
        self.close();
        self.round = NONE;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Self time per span name in ns — each span's duration minus the
    /// part its children cover — summed over spans of that name, sorted
    /// by name. The self times of all names add up to the summed
    /// duration of the root spans.
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child[s.parent as usize] += s.dur();
            }
        }
        let mut by_name: Vec<(&'static str, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s.dur().saturating_sub(child[i]);
            match by_name.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => by_name.push((s.name, own)),
            }
        }
        by_name.sort_unstable();
        by_name
    }

    /// The spans as a Chrome trace (`ph: "X"` complete events, µs), with
    /// each span's index, parent and round id in `args`; loadable in
    /// Perfetto or `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let id = |x: u32| if x == NONE { -1 } else { x as i64 };
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{},\"round\":{}}}}}",
                    s.name,
                    s.start as f64 / 1e3,
                    s.dur() as f64 / 1e3,
                    id(s.parent),
                    id(s.round)
                )
            })
            .collect();
        format!("{{\"traceEvents\":[{}]}}\n", events.join(",\n"))
    }

    /// Summed duration of the root spans, ns.
    pub fn root_total(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NONE)
            .map(Span::dur)
            .sum()
    }
}

/// The `q`-quantile (nearest rank) of `v`, which it sorts; 0 when empty.
pub fn quantile(v: &mut [u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_roots() {
        let mut s = Spans::new(true);
        s.open("setup");
        s.time("a", || std::hint::black_box((0..1000).sum::<u64>()));
        s.close();
        s.begin_round(0);
        s.time("b", || ());
        s.end_round();
        let total: u64 = s.self_times().iter().map(|(_, t)| t).sum();
        assert_eq!(total, s.root_total());
        assert_eq!(s.spans()[3].round, 0);
        assert_eq!(s.spans()[3].parent, 2);
        let trace = s.chrome_trace();
        assert_eq!(trace.matches("\"ph\":\"X\"").count(), 4);
        assert!(trace.contains("\"name\":\"b\""));
        assert!(trace.contains("\"parent\":2,\"round\":0"));
    }

    #[test]
    fn off_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.time("a", || 7), 7);
        assert!(s.spans().is_empty());
    }
}
