//! Host-clock spans recorded from outside the library, around its public
//! entry points.
//!
//! A [`Tracer`] is either off (the untraced run: `span` only calls the
//! closure) or on (the traced run: every span records its name, start,
//! end, parent span and the id of the attempt it belongs to). Spans stay
//! in memory and are written once, when the benchmark ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub run: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    on: bool,
    run: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            origin: Instant::now(),
            on: false,
            run: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tag every span opened from now on with attempt id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span called `name` (a child of the innermost open
    /// span). With the tracer off this is a plain call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Durations (ms) of the spans called `name` in attempt `run`, in
    /// recording order.
    pub fn durations_ms(&self, name: &str, run: u32) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.run == run)
            .map(Span::ms)
            .collect()
    }

    /// Every span as Chrome trace-event JSON (loadable in Perfetto), each
    /// attempt on its own track.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"run\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.run,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_the_run_id() {
        let mut t = Tracer::on();
        t.set_run(3);
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        assert_eq!(t.durations_ms("inner", 3).len(), 1);
        assert!(t.durations_ms("inner", 0).is_empty());
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.span("x", |_| ());
        assert!(t.durations_ms("x", 0).is_empty());
        assert_eq!(t.chrome_json(), "{\"traceEvents\":[\n\n]}\n");
    }
}
