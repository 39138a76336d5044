//! The benchmark's own span recorder. In a traced run every call from the
//! benchmark into a layer of the program is wrapped in a span (name, start,
//! end, parent, and the workload/rung/rep it belongs to). Spans stay in
//! memory until the run ends; a layer's *self time* is its span minus the
//! part its child spans cover. End-to-end numbers never come from a traced
//! run — an untraced [`Trace::off`] costs one `Option` check per call site.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::json::Json;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The function called, e.g. `Session::push_batch`.
    pub name: &'static str,
    /// Start, from the recorder's epoch.
    pub start: Duration,
    /// End, from the recorder's epoch.
    pub end: Duration,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
    /// Small per-process thread number.
    pub thread: u32,
    /// The rung of the ladder being measured.
    pub rung: &'static str,
    /// Repetition number within the rung.
    pub rep: u32,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    context: Mutex<(&'static str, u32)>,
    /// Per rung: the measuring thread and the summed timed walls.
    walls: Mutex<BTreeMap<&'static str, (u32, Duration)>>,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static THREAD_NO: Cell<Option<u32>> = const { Cell::new(None) };
}
static NEXT_THREAD_NO: Mutex<u32> = Mutex::new(0);

fn thread_no() -> u32 {
    THREAD_NO.with(|cell| {
        cell.get().unwrap_or_else(|| {
            let mut next = NEXT_THREAD_NO.lock().expect("thread numbering");
            let no = *next;
            *next += 1;
            cell.set(Some(no));
            no
        })
    })
}

/// Handle the workloads record spans through; cheap to clone, and a no-op
/// when tracing is off.
#[derive(Clone)]
pub struct Trace(Option<Arc<Recorder>>);

impl Trace {
    /// Tracing disabled: `span` returns at once.
    pub fn off() -> Self {
        Trace(None)
    }

    /// A recorder whose epoch is now.
    pub fn on() -> Self {
        Trace(Some(Arc::new(Recorder {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            context: Mutex::new(("", 0)),
            walls: Mutex::new(BTreeMap::new()),
        })))
    }

    /// Label the spans that follow with the rung and repetition they
    /// belong to.
    pub fn context(&self, rung: &'static str, rep: u32) {
        if let Some(rec) = &self.0 {
            *rec.context.lock().expect("span context") = (rung, rep);
        }
    }

    /// Record `f` as one span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(rec) = &self.0 else { return f() };
        let (rung, rep) = *rec.context.lock().expect("span context");
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let id = {
            let mut spans = rec.spans.lock().expect("span store");
            let start = rec.epoch.elapsed();
            spans.push(Span {
                name,
                start,
                end: start,
                parent,
                thread: thread_no(),
                rung,
                rep,
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        // Close on unwind too, so a panicking layer leaves a well-formed
        // trace behind for the failure report.
        struct Close<'a>(&'a Recorder, usize);
        impl Drop for Close<'_> {
            fn drop(&mut self) {
                let end = self.0.epoch.elapsed();
                OPEN.with(|open| open.borrow_mut().pop());
                if let Ok(mut spans) = self.0.spans.lock() {
                    spans[self.1].end = end;
                }
            }
        }
        let _close = Close(rec, id);
        f()
    }

    /// Add one repetition's timed wall to `rung`'s total (called by the
    /// timing loop, on the measuring thread).
    pub fn note_wall(&self, rung: &'static str, wall: Duration) {
        if let Some(rec) = &self.0 {
            let mut walls = rec.walls.lock().expect("rung walls");
            walls.entry(rung).or_insert((thread_no(), Duration::ZERO)).1 += wall;
        }
    }

    /// The share of the timed walls that no layer span covers — the
    /// benchmark's own glue between calls. Taken over the rungs that have
    /// spans at all, from the outermost spans on the measuring thread.
    pub fn harness_share(&self) -> f64 {
        let Some(rec) = &self.0 else { return 0.0 };
        let spans = rec.spans.lock().expect("span store");
        let walls = rec.walls.lock().expect("rung walls");
        let (mut covered, mut timed) = (Duration::ZERO, Duration::ZERO);
        for (rung, (thread, wall)) in walls.iter() {
            let inside: Duration = spans
                .iter()
                .filter(|s| s.rung == *rung && s.thread == *thread && s.parent.is_none())
                .map(Span::duration)
                .sum();
            if !inside.is_zero() {
                covered += inside;
                timed += *wall;
            }
        }
        if timed.is_zero() {
            0.0
        } else {
            1.0 - covered.as_secs_f64() / timed.as_secs_f64()
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.0 {
            Some(rec) => rec.spans.lock().expect("span store").clone(),
            None => Vec::new(),
        }
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut own: Vec<Duration> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.duration());
        }
    }
    own
}

/// Summed self time of the spans named `name` in `rung`, and how many
/// there were.
pub fn layer_self(spans: &[Span], rung: &str, name: &str) -> (u64, Duration) {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(span, _)| span.rung == rung && span.name == name)
        .fold((0, Duration::ZERO), |acc, (_, own)| {
            (acc.0 + 1, acc.1 + own)
        })
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, self time and parent in `args`.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> Json {
    let us = |d: Duration| Json::Num(d.as_nanos() as f64 / 1e3);
    let events = spans
        .iter()
        .zip(self_times(spans))
        .map(|(span, own)| {
            Json::obj([
                ("name", Json::str(span.name)),
                ("cat", Json::str(format!("{workload}/{}", span.rung))),
                ("ph", Json::str("X")),
                ("ts", us(span.start)),
                ("dur", us(span.duration())),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(span.thread))),
                (
                    "args",
                    Json::obj([
                        ("rep", Json::Num(f64::from(span.rep))),
                        ("self_us", us(own)),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("displayTimeUnit", Json::str("ns")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_micros(start),
            end: Duration::from_micros(end),
            parent,
            thread: 0,
            rung: "stream",
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = [
            span("rung", 0, 100, None),
            span("Session::new", 5, 15, Some(0)),
            span("Session::push_batch", 20, 60, Some(0)),
            span("inner", 30, 40, Some(2)),
            span("Session::finish", 60, 95, Some(0)),
        ];
        let own: Vec<u128> = self_times(&spans).iter().map(Duration::as_micros).collect();
        // The grandchild is charged to its parent only, not to the root.
        assert_eq!(own, [15, 10, 30, 10, 35]);
        assert_eq!(
            own.iter().sum::<u128>(),
            100,
            "self times add up to the root"
        );
        let (calls, push) = layer_self(&spans, "stream", "Session::push_batch");
        assert_eq!((calls, push), (1, Duration::from_micros(30)));
        assert_eq!(layer_self(&spans, "batch", "Session::push_batch").0, 0);
    }

    #[test]
    fn recorder_nests_per_thread_and_is_silent_when_off() {
        let off = Trace::off();
        assert_eq!(off.span("x", || 7), 7);
        assert!(off.spans().is_empty());

        let trace = Trace::on();
        trace.context("seq", 3);
        trace.span("outer", || {
            trace.span("inner", || ());
            std::thread::scope(|s| {
                s.spawn(|| trace.span("other-thread", || ()));
            });
        });
        trace.span("sibling", || ());
        trace.note_wall("seq", trace.spans().iter().map(Span::duration).sum());
        assert!(
            trace.harness_share() > 0.0,
            "nested spans were counted twice in the wall"
        );
        let spans = trace.spans();
        let by_name = |n: &str| spans.iter().position(|s| s.name == n).unwrap();
        assert_eq!(spans[by_name("inner")].parent, Some(by_name("outer")));
        assert_eq!(spans[by_name("other-thread")].parent, None);
        assert_eq!(spans[by_name("sibling")].parent, None);
        assert_ne!(
            spans[by_name("other-thread")].thread,
            spans[by_name("outer")].thread
        );
        assert!(spans
            .iter()
            .all(|s| s.rung == "seq" && s.rep == 3 && s.end >= s.start));

        let doc = chrome_trace("light", &spans);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(Json::parse(&doc.to_line()).unwrap(), doc);
    }
}
