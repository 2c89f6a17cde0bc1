//! The traced run's instrument: spans kept in memory (name, start, end,
//! parent) and a `jury-jq` call recorder that wraps the objective the
//! replayed solves run on. Everything is measured from outside the
//! program, by timing calls into each layer's public functions.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use jury_jq::SharedJqScratch;
use jury_model::{Jury, Prior, Worker};
use jury_selection::{IncrementalSession, JspInstance, JuryObjective};

/// Index of a span in its [`Tracer`]; `ROOT` marks a span without parent.
pub type SpanId = u32;
pub const ROOT: SpanId = u32::MAX;

/// One span, or — for the `jury-jq` calls of a replayed solve — the
/// aggregate of every call of one kind under one parent: `calls` calls
/// that were busy `busy_ns` in all, between `start_ns` and `end_ns`.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: SpanId,
    start_ns: u64,
    end_ns: u64,
    calls: u64,
    busy_ns: u64,
}

/// Spans of one traced run, in start order. The recorded `jury-jq` calls
/// are counted in atomics by [`TracedObjective`] and stored here as one
/// aggregate per call kind when the replay ends, so recording a call costs
/// two clock reads and two atomic adds, and no memory traffic that would
/// disturb the kernels being timed.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    call_cost_s: f64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            call_cost_s: calibrate(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no span writer panics while holding the lock")
    }

    fn push(
        &self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
        calls: u64,
        busy_ns: u64,
    ) -> SpanId {
        let mut spans = self.spans();
        spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
            calls,
            busy_ns,
        });
        (spans.len() - 1) as SpanId
    }

    /// Opens a span now; close it with [`Self::end`].
    pub fn begin(&self, name: &'static str, parent: SpanId) -> SpanId {
        let now = self.ns(Instant::now());
        self.push(name, parent, now, now, 1, 0)
    }

    pub fn end(&self, id: SpanId) {
        let end_ns = self.ns(Instant::now());
        let mut spans = self.spans();
        let span = &mut spans[id as usize];
        span.end_ns = end_ns;
        span.busy_ns = end_ns - span.start_ns;
    }

    /// Records a finished span.
    pub fn record(&self, name: &'static str, parent: SpanId, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, parent, start_ns, end_ns, 1, end_ns - start_ns);
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.begin(name, parent);
        let result = f(id);
        self.end(id);
        result
    }

    /// Seconds spent in span `id`.
    pub fn seconds(&self, id: SpanId) -> f64 {
        self.spans()[id as usize].busy_ns as f64 * 1e-9
    }

    /// Calls and busy seconds of the spans named `name`.
    pub fn totals(&self, name: &str) -> (u64, f64) {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(n, t), s| {
                (n + s.calls, t + s.busy_ns as f64 * 1e-9)
            })
    }

    /// Busy seconds of the spans named `name` minus the part of them their
    /// direct children were busy (the self time). Children of one span
    /// never overlap here, since the traced calls run on one thread.
    pub fn self_seconds(&self, name: &str) -> f64 {
        let spans = self.spans();
        let mut child_ns: BTreeMap<SpanId, u64> = BTreeMap::new();
        for span in spans.iter().filter(|s| s.parent != ROOT) {
            *child_ns.entry(span.parent).or_default() += span.busy_ns;
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let children = child_ns.get(&(id as SpanId)).copied().unwrap_or(0);
                s.busy_ns.saturating_sub(children) as f64 * 1e-9
            })
            .sum()
    }

    /// Seconds recording one `jury-jq` call adds to the span around it.
    pub fn call_cost_s(&self) -> f64 {
        self.call_cost_s
    }

    pub fn len(&self) -> usize {
        self.spans().len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans().iter().enumerate() {
            let parent = if span.parent == ROOT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}, \"busy_ns\": {}}}",
                span.name, span.start_ns, span.end_ns, span.calls, span.busy_ns
            )?;
        }
        out.flush()
    }
}

/// Count and busy time of one kind of `jury-jq` call.
#[derive(Debug, Default)]
struct CallStat {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl CallStat {
    fn time<R>(&self, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = call();
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        result
    }
}

/// What recording one call costs: the clock reads and atomic adds of
/// [`CallStat::time`] around an empty call, averaged.
fn calibrate() -> f64 {
    const CALLS: u32 = 100_000;
    let stat = CallStat::default();
    let started = Instant::now();
    for i in 0..CALLS {
        stat.time(|| std::hint::black_box(i));
    }
    started.elapsed().as_secs_f64() / f64::from(CALLS)
}

/// The kinds of recorded `jury-jq` calls, in [`JqCalls`] order.
pub const JQ_CALLS: [&str; 5] = [
    "jq.push",
    "jq.pop",
    "jq.value",
    "jq.session_open",
    "jq.evaluate",
];

#[derive(Debug, Default)]
struct JqCalls([CallStat; 5]);

const PUSH: usize = 0;
const POP: usize = 1;
const VALUE: usize = 2;
const SESSION_OPEN: usize = 3;
const EVALUATE: usize = 4;

/// A [`JuryObjective`] decorator that records every call into `jury-jq` —
/// batch evaluations, session opens, and each session's push, pop and
/// value — and otherwise forwards untouched, so the wrapped solve runs
/// exactly as it would on the bare objective. [`Self::finish`] stores the
/// counts under the replay's span.
pub struct TracedObjective<'t, O> {
    inner: O,
    tracer: &'t Tracer,
    parent: SpanId,
    calls: JqCalls,
}

impl<'t, O: JuryObjective> TracedObjective<'t, O> {
    pub fn new(inner: O, tracer: &'t Tracer, parent: SpanId) -> Self {
        TracedObjective {
            inner,
            tracer,
            parent,
            calls: JqCalls::default(),
        }
    }

    /// Stores one aggregate span per call kind under the parent span.
    pub fn finish(self) {
        let now = self.tracer.ns(Instant::now());
        let start_ns = self.tracer.spans()[self.parent as usize].start_ns;
        for (name, stat) in JQ_CALLS.iter().zip(&self.calls.0) {
            let calls = stat.calls.load(Ordering::Relaxed);
            if calls > 0 {
                self.tracer.push(
                    name,
                    self.parent,
                    start_ns,
                    now,
                    calls,
                    stat.busy_ns.load(Ordering::Relaxed),
                );
            }
        }
    }

    fn wrap<'a>(
        &'a self,
        open: impl FnOnce() -> Option<Box<dyn IncrementalSession + 'a>>,
    ) -> Option<Box<dyn IncrementalSession + 'a>> {
        self.calls.0[SESSION_OPEN].time(open).map(|inner| {
            Box::new(TracedSession {
                inner,
                calls: &self.calls,
            }) as Box<dyn IncrementalSession + 'a>
        })
    }
}

impl<O: JuryObjective> JuryObjective for TracedObjective<'_, O> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn evaluate(&self, jury: &Jury, prior: Prior) -> f64 {
        self.calls.0[EVALUATE].time(|| self.inner.evaluate(jury, prior))
    }

    fn evaluations(&self) -> u64 {
        self.inner.evaluations()
    }

    fn incremental_session<'a>(
        &'a self,
        instance: &JspInstance,
    ) -> Option<Box<dyn IncrementalSession + 'a>> {
        self.wrap(|| self.inner.incremental_session(instance))
    }

    fn incremental_session_in<'a>(
        &'a self,
        instance: &JspInstance,
        arena: &'a SharedJqScratch,
    ) -> Option<Box<dyn IncrementalSession + 'a>> {
        self.wrap(|| self.inner.incremental_session_in(instance, arena))
    }
}

struct TracedSession<'a> {
    inner: Box<dyn IncrementalSession + 'a>,
    calls: &'a JqCalls,
}

impl IncrementalSession for TracedSession<'_> {
    fn push(&mut self, worker: &Worker) {
        self.calls.0[PUSH].time(|| self.inner.push(worker))
    }

    fn pop(&mut self, worker: &Worker) -> bool {
        self.calls.0[POP].time(|| self.inner.pop(worker))
    }

    fn value(&self) -> f64 {
        self.calls.0[VALUE].time(|| self.inner.value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let tracer = Tracer::new();
        let t0 = tracer.origin;
        let ms = |n| t0 + Duration::from_millis(n);
        tracer.record("solve", ROOT, ms(0), ms(10));
        tracer.record("jq.push", 0, ms(1), ms(3));
        tracer.record("jq.pop", 0, ms(4), ms(8));
        tracer.record("solve", ROOT, ms(20), ms(25));
        let self_s = tracer.self_seconds("solve");
        assert!((self_s - 0.009).abs() < 1e-12, "{self_s}");
        assert_eq!(tracer.totals("jq.pop").0, 1);
        tracer.push("jq.value", 0, 0, 0, 5, 1_000_000);
        assert_eq!(tracer.totals("jq.value"), (5, 0.001));
        assert!((tracer.self_seconds("solve") - 0.008).abs() < 1e-12);
        assert!((tracer.totals("solve").1 - 0.015).abs() < 1e-12);
    }
}
