//! Benchmark-side tracing: in-memory spans around calls into each layer.
//!
//! The library crates are measured from outside, so every span is opened
//! here — by the drivers around `Listener::poll`, `Daemon::submit`, the
//! snapshot store — or by [`TracedBackend`], which wraps the public
//! [`Backend`] seam and therefore sees the calls the daemon makes while it
//! runs *inside* a `poll` or `submit` span. The whole path is one thread,
//! so spans nest strictly and a stack gives each span its parent.
//!
//! A layer's self time is its span minus the spans it directly caused.

use rotary::core::error::Result;
use rotary::core::json::Json;
use rotary::core::SimTime;
use rotary::serve::{Backend, BackendDone, Pending};
use rotary::store::SnapshotRecords;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `transport.poll`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The submission being handled (schedule index) when it started.
    pub sub: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct Buf {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    sub: u64,
}

/// A cheap handle on the span buffer; `off()` records nothing, so the
/// untraced trials share the drivers' code without paying for spans.
#[derive(Debug, Clone)]
pub struct Tracer(Option<Rc<RefCell<Buf>>>);

/// Closes its span when dropped.
pub struct SpanGuard(Option<(Rc<RefCell<Buf>>, u32)>);

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Tracer {
        Tracer(Some(Rc::new(RefCell::new(Buf {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            sub: 0,
        }))))
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Names the submission subsequent spans belong to.
    pub fn set_sub(&self, sub: u64) {
        if let Some(buf) = &self.0 {
            buf.borrow_mut().sub = sub;
        }
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(buf) = &self.0 else { return SpanGuard(None) };
        let mut b = buf.borrow_mut();
        let id = b.spans.len() as u32;
        let parent = b.open.last().copied();
        let sub = b.sub;
        let start_ns = b.epoch.elapsed().as_nanos() as u64;
        b.spans.push(Span { name, start_ns, end_ns: start_ns, parent, sub });
        b.open.push(id);
        SpanGuard(Some((Rc::clone(buf), id)))
    }

    /// Takes the recorded spans, leaving the buffer empty for the next
    /// trial. Spans still open are dropped from the stack.
    pub fn take(&self) -> Vec<Span> {
        match &self.0 {
            Some(buf) => {
                let mut b = buf.borrow_mut();
                b.open.clear();
                std::mem::take(&mut b.spans)
            }
            None => Vec::new(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((buf, id)) = self.0.take() {
            let mut b = buf.borrow_mut();
            let now = b.epoch.elapsed().as_nanos() as u64;
            if let Some(span) = b.spans.get_mut(id as usize) {
                span.end_ns = now;
            }
            // Guards drop in reverse open order; tolerate a `take()` in
            // between by only popping our own id.
            if b.open.last() == Some(&id) {
                b.open.pop();
            }
        }
    }
}

/// Per-span self time: duration minus the durations of direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(p) = span.parent {
            if let Some(slot) = own.get_mut(p as usize) {
                *slot = slot.saturating_sub(span.duration());
            }
        }
    }
    own
}

/// What all spans of one name add up to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Each span's self time, ns, in recording order.
    pub each_self_ns: Vec<u64>,
}

/// Groups spans by name.
pub fn by_layer(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, own_ns) in spans.iter().zip(own) {
        let layer = out.entry(span.name).or_default();
        layer.count += 1;
        layer.total_ns += span.duration();
        layer.self_ns += own_ns;
        layer.each_self_ns.push(own_ns);
    }
    out
}

/// Renders spans as tab-separated text: `id name start end parent sub`.
pub fn dump(spans: &[Span]) -> String {
    let mut out = String::from("id\tname\tstart_ns\tend_ns\tparent\tsub\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{i}\t{}\t{}\t{}\t{parent}\t{}\n",
            s.name, s.start_ns, s.end_ns, s.sub
        ));
    }
    out
}

/// A [`Backend`] that records a span around every call the daemon makes
/// through the seam and otherwise behaves exactly like the one it wraps
/// (same name, so snapshot fingerprints are unchanged).
pub struct TracedBackend<B: Backend> {
    inner: B,
    tracer: Tracer,
}

impl<B: Backend> TracedBackend<B> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: B, tracer: Tracer) -> TracedBackend<B> {
        TracedBackend { inner, tracer }
    }
}

impl<B: Backend> Backend for TracedBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn validate(&self, payload: &Json) -> Result<SimTime> {
        let _s = self.tracer.span("backend.validate");
        self.inner.validate(payload)
    }

    fn admit(&mut self, now: SimTime, entry: &Pending, out: &mut Vec<BackendDone>) -> Result<()> {
        let _s = self.tracer.span("backend.admit");
        self.inner.admit(now, entry, out)
    }

    fn peek(&self) -> Option<SimTime> {
        self.inner.peek()
    }

    fn step(&mut self, out: &mut Vec<BackendDone>) -> bool {
        let _s = self.tracer.span("backend.step");
        self.inner.step(out)
    }

    fn inflight(&self) -> usize {
        self.inner.inflight()
    }

    fn snapshot(&self) -> Result<SnapshotRecords> {
        let _s = self.tracer.span("backend.snapshot");
        self.inner.snapshot()
    }

    fn restore(&mut self, records: &SnapshotRecords, admitted: &[Pending]) -> Result<()> {
        let _s = self.tracer.span("backend.restore");
        self.inner.restore(records, admitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, sub: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // poll [0,100] ─ step [10,40] ─ inner [15,25]
        //              └ step [50,70]
        let spans = vec![
            span("poll", 0, 100, None),
            span("step", 10, 40, Some(0)),
            span("inner", 15, 25, Some(1)),
            span("step", 50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let layers = by_layer(&spans);
        assert_eq!(layers["poll"].self_ns, 50);
        assert_eq!(layers["poll"].total_ns, 100);
        assert_eq!(layers["step"].count, 2);
        assert_eq!(layers["step"].self_ns, 40);
        assert_eq!(layers["step"].total_ns, 50);
        assert_eq!(layers["step"].each_self_ns, vec![20, 20]);
        // Self times partition the root span.
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn guards_nest_and_record_parent_and_submission() {
        let tracer = Tracer::on();
        tracer.set_sub(7);
        {
            let _outer = tracer.span("outer");
            tracer.set_sub(8);
            let _inner = tracer.span("inner");
        }
        let _sibling = tracer.span("sibling");
        drop(_sibling);
        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent, spans[0].sub), ("outer", None, 7));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].sub), ("inner", Some(0), 8));
        assert_eq!((spans[2].name, spans[2].parent), ("sibling", None));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(tracer.take().is_empty(), "take drains the buffer");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::off();
        assert!(!tracer.enabled());
        let _g = tracer.span("x");
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn dump_is_one_line_per_span() {
        let text = dump(&[span("a", 1, 2, None), span("b", 1, 2, Some(0))]);
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("1\tb\t1\t2\t0\t0"));
    }
}
