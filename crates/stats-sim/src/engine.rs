//! Deterministic list-scheduling discrete-event engine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::platform::{Placement, Platform};
use crate::task::{TaskGraph, TaskId};

/// Where and when a task executed in a [`Schedule`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskPlacement {
    /// Software thread the task ran on.
    pub thread: usize,
    /// Start time, in work units.
    pub start: f64,
    /// Finish time, in work units.
    pub finish: f64,
}

/// The output of [`simulate`]: a complete, deterministic schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    placements: Vec<TaskPlacement>,
    makespan: f64,
    busy: Vec<f64>,
    placement: Placement,
    work_units_per_second: f64,
}

impl Schedule {
    /// Makespan in abstract work units.
    pub fn makespan_work(&self) -> f64 {
        self.makespan
    }

    /// Makespan converted to simulated seconds via the platform clock.
    pub fn makespan_seconds(&self) -> f64 {
        self.makespan / self.work_units_per_second
    }

    /// Per-task placements, indexed by [`TaskId`].
    pub fn placements(&self) -> &[TaskPlacement] {
        &self.placements
    }

    /// Busy time (work units) accumulated by each software thread.
    pub fn thread_busy(&self) -> &[f64] {
        &self.busy
    }

    /// The thread placement the schedule was computed for.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Fraction of the allocated threads' capacity that was busy.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0.0 {
            return 0.0;
        }
        let capacity = self.makespan * self.busy.len() as f64;
        self.busy.iter().sum::<f64>() / capacity
    }
}

/// Schedule `graph` on `threads` software threads of `platform`.
///
/// The scheduler is greedy, non-preemptive, work-conserving list scheduling:
/// when several tasks are ready, the smallest task id (submission order, as
/// from a FIFO work queue) goes first; when several threads are idle, the
/// fastest (then lowest-numbered) thread is chosen. The result is fully
/// deterministic.
pub fn simulate(graph: &TaskGraph, platform: &Platform, threads: usize) -> Schedule {
    let placement = platform.place(threads);
    let n_threads = placement.threads();
    let n_tasks = graph.len();

    let mut indegree = vec![0usize; n_tasks];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_tasks];
    for (id, task) in graph.iter() {
        indegree[id.0] = task.deps.len();
        for d in &task.deps {
            dependents[d.0].push(id.0);
        }
    }
    let mut ready_at = vec![0.0_f64; n_tasks];

    // Ready tasks, smallest id first.
    let mut ready: BinaryHeap<Reverse<usize>> = (0..n_tasks)
        .filter(|&i| indegree[i] == 0)
        .map(Reverse)
        .collect();

    // Idle threads become available when their free time passes the
    // simulation clock; among available threads the fastest (then lowest
    // id) is chosen. Encode speed as ordered bits for determinism.
    fn f64_key(x: f64) -> u64 {
        // Total order for non-negative finite floats.
        x.to_bits()
    }
    // (free_time bits, thread id) — min-heap by free time.
    let mut parked: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    // (neg speed bits, thread id) — min-heap = fastest first.
    let mut available: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    for t in 0..n_threads {
        available.push(Reverse((f64_key(1.0 / placement.thread_speeds[t]), t)));
    }

    // Running tasks: (finish time bits, task id, thread).
    let mut running: BinaryHeap<Reverse<(u64, usize, usize)>> = BinaryHeap::new();

    let mut placements = vec![
        TaskPlacement {
            thread: 0,
            start: 0.0,
            finish: 0.0,
        };
        n_tasks
    ];
    let mut busy = vec![0.0_f64; n_threads];
    let mut makespan = 0.0_f64;
    let mut scheduled = 0usize;
    let mut now = 0.0_f64;

    while scheduled < n_tasks || !running.is_empty() {
        // Threads whose free time has passed become available.
        while let Some(&Reverse((ft, t))) = parked.peek() {
            if f64::from_bits(ft) <= now {
                parked.pop();
                available.push(Reverse((f64_key(1.0 / placement.thread_speeds[t]), t)));
            } else {
                break;
            }
        }
        // Dispatch: the first ready task onto the fastest available
        // thread, starting at the simulation clock. A task only enters the
        // ready heap once its dependences completed (<= now), so starting
        // at `now` never violates data readiness.
        while ready.peek().is_some() && available.peek().is_some() {
            let Reverse(task_idx) = ready.pop().expect("peeked");
            let Reverse((_, thread)) = available.pop().expect("peeked");
            let start = now.max(ready_at[task_idx]);
            let task = graph.task(TaskId(task_idx));
            let duration = placement.duration(thread, task.cost, task.mem_fraction);
            let finish = start + duration;
            placements[task_idx] = TaskPlacement {
                thread,
                start,
                finish,
            };
            busy[thread] += duration;
            makespan = makespan.max(finish);
            running.push(Reverse((f64_key(finish), task_idx, thread)));
            parked.push(Reverse((f64_key(finish), thread)));
            scheduled += 1;
        }

        // Advance to the next completion time and release the dependents of
        // *every* task finishing then — dispatching between two co-timed
        // completions would let a later task steal a slot from an earlier
        // one that becomes ready in the same instant.
        if let Some(Reverse((ft, _, _))) = running.peek().copied() {
            now = f64::from_bits(ft);
            while let Some(&Reverse((ft2, _, _))) = running.peek() {
                if ft2 != ft {
                    break;
                }
                let Reverse((_, task_idx, _)) = running.pop().expect("peeked");
                let finish = placements[task_idx].finish;
                for &dep in &dependents[task_idx] {
                    ready_at[dep] = ready_at[dep].max(finish);
                    indegree[dep] -= 1;
                    if indegree[dep] == 0 {
                        ready.push(Reverse(dep));
                    }
                }
            }
        }
    }

    Schedule {
        placements,
        makespan,
        busy,
        placement,
        work_units_per_second: platform.work_units_per_second,
    }
}

impl Schedule {
    /// A textual Gantt chart of the schedule: one row per software thread,
    /// `width` columns of time buckets, `#` where the thread is busy.
    /// Intended for debugging and examples, not parsing.
    pub fn gantt(&self, width: usize) -> String {
        let width = width.max(1);
        let mut rows = vec![vec![b' '; width]; self.busy.len()];
        if self.makespan > 0.0 {
            for p in &self.placements {
                if p.finish <= p.start {
                    continue;
                }
                let a = ((p.start / self.makespan) * width as f64) as usize;
                let b = (((p.finish / self.makespan) * width as f64).ceil() as usize)
                    .clamp(a + 1, width);
                for c in rows[p.thread][a..b].iter_mut() {
                    *c = b'#';
                }
            }
        }
        let mut out = String::new();
        for (t, row) in rows.iter().enumerate() {
            out.push_str(&format!("t{t:<3}|"));
            out.push_str(std::str::from_utf8(row).expect("ascii"));
            out.push_str("|\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        let mut g = TaskGraph::new();
        let a = g.add_task(10.0, 0.0, &[]);
        let b = g.add_task(20.0, 0.0, &[a]);
        let c = g.add_task(20.0, 0.0, &[a]);
        let _d = g.add_task(10.0, 0.0, &[b, c]);
        g
    }

    #[test]
    fn serial_on_one_thread() {
        let g = diamond();
        let s = simulate(&g, &Platform::haswell_single_socket(), 1);
        assert!((s.makespan_work() - 60.0).abs() < 1e-9);
        assert!((s.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn diamond_parallelizes_on_two_threads() {
        let g = diamond();
        let s = simulate(&g, &Platform::haswell_single_socket(), 2);
        assert!((s.makespan_work() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn makespan_never_below_critical_path() {
        let g = diamond();
        for threads in 1..=8 {
            let s = simulate(&g, &Platform::haswell_single_socket(), threads);
            assert!(s.makespan_work() + 1e-9 >= g.critical_path());
        }
    }

    #[test]
    fn more_threads_never_slower_for_independent_tasks() {
        let mut g = TaskGraph::new();
        for _ in 0..32 {
            g.add_task(10.0, 0.0, &[]);
        }
        let p = Platform::haswell_single_socket();
        let mut last = f64::INFINITY;
        for threads in 1..=14 {
            let s = simulate(&g, &p, threads);
            assert!(s.makespan_work() <= last + 1e-9);
            last = s.makespan_work();
        }
    }

    #[test]
    fn respects_dependences() {
        let g = diamond();
        let s = simulate(&g, &Platform::haswell_r730(), 4);
        let p = s.placements();
        for (id, task) in g.iter() {
            for d in &task.deps {
                assert!(p[d.0].finish <= p[id.0].start + 1e-9);
            }
        }
    }

    #[test]
    fn smt_threads_run_slower() {
        let mut g = TaskGraph::new();
        g.add_task(100.0, 0.0, &[]);
        let p = Platform::haswell_single_socket();
        // 28 threads on 14 cores: every thread is an SMT sibling.
        let s = simulate(&g, &p, 28);
        assert!((s.makespan_work() - 100.0 / 0.65).abs() < 1e-6);
    }

    #[test]
    fn numa_penalty_applies_across_sockets() {
        let mut g = TaskGraph::new();
        g.add_task(100.0, 1.0, &[]);
        let p = Platform::haswell_r730();
        let s1 = simulate(&g, &p, 14);
        let s2 = simulate(&g, &p, 28);
        assert!((s1.makespan_work() - 100.0).abs() < 1e-9);
        assert!(s2.makespan_work() > s1.makespan_work());
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new();
        let s = simulate(&g, &Platform::haswell_r730(), 4);
        assert_eq!(s.makespan_work(), 0.0);
    }

    #[test]
    fn gantt_shows_busy_threads() {
        let g = diamond();
        let s = simulate(&g, &Platform::haswell_single_socket(), 2);
        let chart = s.gantt(40);
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('#'));
        assert!(lines[1].contains('#'));
        // Thread 0 is busy for the whole makespan (a, then b or c, then d).
        let body = &lines[0][5..45];
        assert!(!body.contains(' '), "thread 0 has gaps: {body:?}");
    }

    #[test]
    fn gantt_empty_schedule() {
        let g = TaskGraph::new();
        let s = simulate(&g, &Platform::haswell_r730(), 2);
        let chart = s.gantt(10);
        assert!(!chart.contains('#'));
    }

    #[test]
    fn work_conservation() {
        let g = diamond();
        let s = simulate(&g, &Platform::haswell_single_socket(), 3);
        let busy: f64 = s.thread_busy().iter().sum();
        assert!((busy - g.total_work()).abs() < 1e-9);
    }
}
