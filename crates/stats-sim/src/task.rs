//! Task graphs: the unit of work scheduled by the simulator.

/// Identifier of a task within a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

/// A unit of work with data dependences on earlier tasks.
#[derive(Debug, Clone)]
pub struct Task {
    /// Work units of computation (accumulated by the real workload run).
    pub cost: f64,
    /// Fraction of `cost` that is memory-bound (subject to the NUMA penalty).
    pub mem_fraction: f64,
    /// Tasks that must finish before this one may start.
    pub deps: Vec<TaskId>,
    /// Free-form label (used in traces and tests).
    pub label: String,
}

/// A directed acyclic graph of [`Task`]s.
///
/// Dependences may only point to already-added tasks, which makes cycles
/// impossible by construction.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    tasks: Vec<Task>,
}

impl TaskGraph {
    /// Create an empty task graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task and return its id.
    ///
    /// # Panics
    ///
    /// Panics if `cost` is negative or not finite, or if any dependence
    /// refers to a task that has not been added yet.
    pub fn add_task(&mut self, cost: f64, mem_fraction: f64, deps: &[TaskId]) -> TaskId {
        self.add_labeled_task(cost, mem_fraction, deps, String::new())
    }

    /// Add a task with a label and return its id.
    pub fn add_labeled_task(
        &mut self,
        cost: f64,
        mem_fraction: f64,
        deps: &[TaskId],
        label: String,
    ) -> TaskId {
        assert!(
            cost.is_finite() && cost >= 0.0,
            "task cost must be finite and >= 0"
        );
        let id = TaskId(self.tasks.len());
        for d in deps {
            assert!(
                d.0 < id.0,
                "dependence {:?} refers to a task not yet added",
                d
            );
        }
        self.tasks.push(Task {
            cost,
            mem_fraction,
            deps: deps.to_vec(),
            label,
        });
        id
    }

    /// Replace a task's label.
    pub fn set_label(&mut self, id: TaskId, label: String) {
        self.tasks[id.0].label = label;
    }

    /// Number of tasks in the graph.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Access a task by id.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// Iterate over `(id, task)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks.iter().enumerate().map(|(i, t)| (TaskId(i), t))
    }

    /// Total work units in the graph.
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.cost).sum()
    }

    /// Length (in work units, at unit speed and no NUMA penalty) of the
    /// longest dependence chain. This is a lower bound on any makespan.
    pub fn critical_path(&self) -> f64 {
        let mut finish = vec![0.0_f64; self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            let ready = t.deps.iter().map(|d| finish[d.0]).fold(0.0_f64, f64::max);
            finish[i] = ready + t.cost;
        }
        finish.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = TaskGraph::new();
        let a = g.add_task(10.0, 0.0, &[]);
        let b = g.add_task(5.0, 0.5, &[a]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.task(b).deps, vec![a]);
        assert_eq!(g.total_work(), 15.0);
    }

    #[test]
    fn critical_path_chain_vs_fanout() {
        let mut g = TaskGraph::new();
        let a = g.add_task(10.0, 0.0, &[]);
        let b = g.add_task(20.0, 0.0, &[a]);
        let _c = g.add_task(5.0, 0.0, &[a]);
        let _d = g.add_task(1.0, 0.0, &[b]);
        assert_eq!(g.critical_path(), 31.0);
    }

    #[test]
    #[should_panic(expected = "not yet added")]
    fn forward_dependence_rejected() {
        let mut g = TaskGraph::new();
        g.add_task(1.0, 0.0, &[TaskId(3)]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_cost_rejected() {
        let mut g = TaskGraph::new();
        g.add_task(-1.0, 0.0, &[]);
    }
}
