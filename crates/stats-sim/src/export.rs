//! Schedule export in the Chrome trace-event format.
//!
//! The emitted JSON loads into `chrome://tracing` / Perfetto: one row per
//! simulated hardware thread, one complete ("X") event per task. A real
//! run's [`WallEvent`]s can ride along as a second process, one row per OS
//! thread, so a run and its simulated schedule open in one file. Written by
//! hand (the sanctioned dependency set has no JSON serializer); the format
//! is simple enough that escaping labels is the only subtlety.

use crate::engine::Schedule;
use crate::task::TaskGraph;

/// How a [`WallEvent`] is drawn on its thread's row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Opens a span; the row's next [`Phase::End`] closes it.
    Begin,
    /// Closes the row's innermost open span.
    End,
    /// A point in time.
    Instant,
}

/// One event of a real run, drawn beside the simulated schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct WallEvent {
    /// Event name (a span's begin and end carry the same one).
    pub name: String,
    /// Span begin, span end, or instant.
    pub phase: Phase,
    /// Real microseconds since the run's epoch.
    pub ts_us: f64,
    /// Tag of the emitting OS thread; each distinct tag gets its own row.
    pub thread: u64,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render `schedule` (of `graph`) as a Chrome trace-event JSON document.
/// Timestamps are microseconds of simulated time.
pub fn chrome_trace(graph: &TaskGraph, schedule: &Schedule) -> String {
    chrome_trace_with(graph, schedule, &[])
}

/// [`chrome_trace`] with a real run's events as a second process.
///
/// With `wall` empty the document is exactly [`chrome_trace`]'s. Otherwise
/// both processes are named: pid 1 "simulated schedule" (simulated µs, one
/// row per hardware thread) and pid 2 "wall clock" (real µs, one row per
/// OS thread in order of first appearance).
pub fn chrome_trace_with(graph: &TaskGraph, schedule: &Schedule, wall: &[WallEvent]) -> String {
    let scale = 1.0e6 / schedule.makespan_work().max(1e-12) * schedule.makespan_seconds().max(0.0);
    let mut out = String::from("{\"traceEvents\":[");
    // Every event ends in '}', so only the first one follows the '['.
    let mut push = |event: String| {
        if !out.ends_with('[') {
            out.push(',');
        }
        out.push_str(&event);
    };
    let process = |pid: u32, name: &str| {
        format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"{name}\"}}}}"
        )
    };
    if !wall.is_empty() {
        push(process(1, "simulated schedule"));
        push(process(2, "wall clock"));
    }
    for (id, task) in graph.iter() {
        let p = schedule.placements()[id.0];
        let name = if task.label.is_empty() {
            format!("task{}", id.0)
        } else {
            escape(&task.label)
        };
        push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"cost\":{cost},\
             \"mem_fraction\":{mem:.3}}}}}",
            tid = p.thread,
            ts = p.start * scale,
            dur = (p.finish - p.start) * scale,
            cost = task.cost,
            mem = task.mem_fraction,
        ));
    }
    let mut threads: Vec<u64> = Vec::new();
    for ev in wall {
        let tid = threads
            .iter()
            .position(|&t| t == ev.thread)
            .unwrap_or_else(|| {
                threads.push(ev.thread);
                threads.len() - 1
            });
        let (ph, scope) = match ev.phase {
            Phase::Begin => ('B', ""),
            Phase::End => ('E', ""),
            Phase::Instant => ('i', ",\"s\":\"t\""),
        };
        push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"pid\":2,\"tid\":{tid},\
             \"ts\":{ts:.3}{scope}}}",
            name = escape(&ev.name),
            ts = ev.ts_us,
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::platform::Platform;

    fn schedule() -> (TaskGraph, Schedule) {
        let mut g = TaskGraph::new();
        let a = g.add_labeled_task(10.0, 0.0, &[], "aux \"quote\"".into());
        g.add_task(5.0, 0.5, &[a]);
        let s = simulate(&g, &Platform::haswell_single_socket(), 2);
        (g, s)
    }

    #[test]
    fn emits_one_event_per_task() {
        let (g, s) = schedule();
        let json = chrome_trace(&g, &s);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), g.len());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn escapes_labels() {
        let (g, s) = schedule();
        let json = chrome_trace(&g, &s);
        assert!(json.contains("aux \\\"quote\\\""));
        assert!(!json.contains("aux \"quote\""));
    }

    #[test]
    fn durations_nonnegative_and_ordered() {
        let (g, s) = schedule();
        let json = chrome_trace(&g, &s);
        // crude structural check: every dur field parses and is >= 0
        for part in json.split("\"dur\":").skip(1) {
            let num: f64 = part.split(',').next().unwrap().parse().expect("dur parses");
            assert!(num >= 0.0);
        }
    }

    #[test]
    fn empty_graph_is_valid_json_shell() {
        let g = TaskGraph::new();
        let s = simulate(&g, &Platform::haswell_r730(), 1);
        assert_eq!(chrome_trace(&g, &s), "{\"traceEvents\":[]}");
    }

    #[test]
    fn wall_clock_rows_form_a_second_process() {
        let (g, s) = schedule();
        let ev = |name: &str, phase, thread| WallEvent {
            name: name.into(),
            phase,
            ts_us: 1.5,
            thread,
        };
        let wall = [
            ev("run", Phase::Begin, 7),
            ev("group \"1\"", Phase::Begin, 9),
            ev("commit\tg1", Phase::Instant, 9),
            ev("group \"1\"", Phase::End, 9),
            ev("run", Phase::End, 7),
        ];
        let json = chrome_trace_with(&g, &s, &wall);
        assert!(json.contains("\"pid\":1,\"tid\":0,\"args\":{\"name\":\"simulated schedule\"}"));
        assert!(json.contains("\"pid\":2,\"tid\":0,\"args\":{\"name\":\"wall clock\"}"));
        assert_eq!(json.matches("\"ph\":\"X\",\"pid\":1").count(), g.len());
        // Spans balance per thread row: thread 7 is row 0, thread 9 row 1.
        for tid in 0..2 {
            let row = |ph: &str| {
                json.matches(&format!("\"ph\":\"{ph}\",\"pid\":2,\"tid\":{tid},"))
                    .count()
            };
            assert_eq!(row("B"), 1, "row {tid}");
            assert_eq!(row("E"), 1, "row {tid}");
        }
        assert!(json.contains(
            "{\"name\":\"commit\\tg1\",\"ph\":\"i\",\"pid\":2,\"tid\":1,\"ts\":1.500,\"s\":\"t\"}"
        ));
        assert!(json.contains("\"name\":\"group \\\"1\\\"\""));
        assert!(!json.contains("group \"1\""));
        assert!(!chrome_trace(&g, &s).contains("process_name"));
    }
}
