//! Speculation plans: a dependency **DAG of segments**.
//!
//! The linear protocol speculates over one ordered stream of state
//! dependences: segment `k+1` always consumes segment `k`'s final state.
//! Many real computations are wider than that — a streaming join fans a
//! source out over shards and fans the shard states back in, a game loop
//! branches per-faction AI off one frame and merges the decisions into the
//! next, a Monte-Carlo ensemble runs many chains from one burn-in. A
//! [`SpecPlan`] makes that structure explicit: **nodes** are segments (each
//! owning a contiguous run of the input stream) and **edges** are state
//! dependences (a node's initial state is the merge of its parents' final
//! states).
//!
//! Plans are validated at build time: edges must reference declared nodes,
//! self-edges are rejected, and the graph is cycle-checked; the canonical
//! *sequential topological order* (Kahn's algorithm, lowest node id first)
//! is fixed then, so every execution of the plan — sequential reference or
//! pool-parallel — resolves nodes in one deterministic order. See
//! `docs/dag.md` for the execution model and the cut-set rollback rule.

use std::collections::BinaryHeap;
use std::fmt;

/// Identifier of one plan node, as returned by [`SpecPlanBuilder::node`].
/// Node ids are dense indices `0..plan.len()`; node `i`'s inputs are the
/// contiguous slice starting at [`SpecPlan::input_base`]`(i)`.
pub type PlanNodeId = usize;

/// One segment of the plan: how many inputs it owns and which nodes' final
/// states it consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// Number of inputs this node processes (>= 1).
    pub inputs: usize,
    /// Parent node ids in ascending order; empty for root nodes, which
    /// start from the plan's initial state.
    pub parents: Vec<PlanNodeId>,
}

/// Why a plan failed to build — the structural errors
/// [`SpecPlanBuilder::build`] checks for.
///
/// Marked `#[non_exhaustive]`: future validations may add variants without
/// a breaking release, so match with a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanError {
    /// The plan declares no nodes.
    EmptyPlan,
    /// A node was declared with zero inputs.
    EmptyNode {
        /// The offending node.
        node: PlanNodeId,
    },
    /// An edge references a node id that was never declared.
    UnknownNode {
        /// The undeclared id the edge referenced.
        node: PlanNodeId,
    },
    /// An edge connects a node to itself.
    SelfEdge {
        /// The node with the self-edge.
        node: PlanNodeId,
    },
    /// The dependence edges form a cycle, so no topological order exists.
    Cycle {
        /// A node on the cycle (the lowest-id node left unordered).
        node: PlanNodeId,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::EmptyPlan => write!(f, "plan declares no nodes"),
            PlanError::EmptyNode { node } => write!(f, "node {node} owns zero inputs"),
            PlanError::UnknownNode { node } => {
                write!(f, "edge references undeclared node {node}")
            }
            PlanError::SelfEdge { node } => write!(f, "node {node} depends on itself"),
            PlanError::Cycle { node } => {
                write!(f, "dependence edges form a cycle through node {node}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Builder for a [`SpecPlan`]: declare nodes, connect them, build.
///
/// ```
/// use stats_core::SpecPlan;
///
/// // A diamond: source fans out to two shards, which join back.
/// let mut b = SpecPlan::builder();
/// let src = b.node(8);
/// let left = b.node(8);
/// let right = b.node(8);
/// let join = b.node(8);
/// b.edge(src, left);
/// b.edge(src, right);
/// b.edge(left, join);
/// b.edge(right, join);
/// let plan = b.build().expect("acyclic");
/// assert_eq!(plan.len(), 4);
/// assert_eq!(plan.total_inputs(), 32);
/// assert!(!plan.is_linear());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SpecPlanBuilder {
    sizes: Vec<usize>,
    edges: Vec<(PlanNodeId, PlanNodeId)>,
    speculate_nodes: bool,
}

impl SpecPlanBuilder {
    /// Declare a node owning the next `inputs` inputs of the stream (input
    /// ranges are assigned contiguously in declaration order) and return
    /// its id.
    pub fn node(&mut self, inputs: usize) -> PlanNodeId {
        self.sizes.push(inputs);
        self.sizes.len() - 1
    }

    /// Declare a state dependence: `to` starts from (a merge that includes)
    /// `from`'s final state.
    pub fn edge(&mut self, from: PlanNodeId, to: PlanNodeId) -> &mut Self {
        self.edges.push((from, to));
        self
    }

    /// Enable or disable **cross-node speculation** (default for built
    /// plans: enabled). When disabled, every non-root node waits for its
    /// parents' committed final states — pure dataflow scheduling, which is
    /// how a linear chain reduces byte-identically to the legacy segmented
    /// path. See `docs/dag.md`.
    pub fn speculate_nodes(&mut self, on: bool) -> &mut Self {
        self.speculate_nodes = on;
        self
    }

    /// Validate the structure and produce the immutable [`SpecPlan`].
    pub fn build(&self) -> Result<SpecPlan, PlanError> {
        let n = self.sizes.len();
        if n == 0 {
            return Err(PlanError::EmptyPlan);
        }
        for (node, &size) in self.sizes.iter().enumerate() {
            if size == 0 {
                return Err(PlanError::EmptyNode { node });
            }
        }
        let mut parents: Vec<Vec<PlanNodeId>> = vec![Vec::new(); n];
        let mut children: Vec<Vec<PlanNodeId>> = vec![Vec::new(); n];
        for &(from, to) in &self.edges {
            if from >= n {
                return Err(PlanError::UnknownNode { node: from });
            }
            if to >= n {
                return Err(PlanError::UnknownNode { node: to });
            }
            if from == to {
                return Err(PlanError::SelfEdge { node: from });
            }
            if !parents[to].contains(&from) {
                parents[to].push(from);
                children[from].push(to);
            }
        }
        for p in &mut parents {
            p.sort_unstable();
        }
        for c in &mut children {
            c.sort_unstable();
        }

        // Kahn's algorithm with a min-heap: the canonical topological order
        // is deterministic (lowest ready id first), which fixes the
        // sequential reference execution once and for all.
        let mut indegree: Vec<usize> = parents.iter().map(Vec::len).collect();
        let mut ready: BinaryHeap<std::cmp::Reverse<usize>> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| std::cmp::Reverse(i))
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(i)) = ready.pop() {
            topo.push(i);
            for &c in &children[i] {
                indegree[c] -= 1;
                if indegree[c] == 0 {
                    ready.push(std::cmp::Reverse(c));
                }
            }
        }
        if topo.len() < n {
            let node = indegree
                .iter()
                .position(|&d| d > 0)
                .expect("a cycle leaves positive indegree");
            return Err(PlanError::Cycle { node });
        }

        let mut bases = Vec::with_capacity(n);
        let mut base = 0usize;
        for &size in &self.sizes {
            bases.push(base);
            base += size;
        }
        let nodes = self
            .sizes
            .iter()
            .zip(parents)
            .map(|(&inputs, parents)| PlanNode { inputs, parents })
            .collect();
        Ok(SpecPlan {
            nodes,
            children,
            topo,
            bases,
            total_inputs: base,
            speculate_nodes: self.speculate_nodes,
        })
    }
}

/// An immutable, cycle-checked dependency DAG of segments, accepted by
/// [`RunOptions::plan`](crate::RunOptions::plan).
///
/// Nodes own contiguous, disjoint input ranges in declaration order; edges
/// say whose final states a node's initial state is merged from
/// ([`StateTransition::merge_states`](crate::StateTransition::merge_states)).
/// Build one with [`SpecPlan::builder`], or use [`SpecPlan::linear`] for a
/// chain that reduces to the legacy segmented path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecPlan {
    nodes: Vec<PlanNode>,
    children: Vec<Vec<PlanNodeId>>,
    topo: Vec<PlanNodeId>,
    bases: Vec<usize>,
    total_inputs: usize,
    speculate_nodes: bool,
}

impl SpecPlan {
    /// Start building a plan. Built plans have cross-node speculation
    /// **enabled** by default ([`SpecPlanBuilder::speculate_nodes`]).
    pub fn builder() -> SpecPlanBuilder {
        SpecPlanBuilder {
            sizes: Vec::new(),
            edges: Vec::new(),
            speculate_nodes: true,
        }
    }

    /// A linear chain with the given segment sizes and cross-node
    /// speculation **disabled**: running it is byte-identical — outputs,
    /// report, and trace — to the legacy
    /// [`RunOptions::segment`](crate::RunOptions::segment) path with the
    /// same sizes (property-tested in `tests/dag_properties.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `sizes` is empty or contains a zero.
    pub fn linear(sizes: &[usize]) -> SpecPlan {
        let mut b = SpecPlan::builder();
        b.speculate_nodes(false);
        for (i, &size) in sizes.iter().enumerate() {
            let id = b.node(size);
            if i > 0 {
                b.edge(id - 1, id);
            }
        }
        b.build()
            .expect("a chain of non-empty nodes is a valid plan")
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the plan has no nodes (never true for a built plan).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total inputs across all nodes — the length the input slice handed to
    /// the entry points must have.
    pub fn total_inputs(&self) -> usize {
        self.total_inputs
    }

    /// The node's declaration-order metadata.
    pub fn node(&self, id: PlanNodeId) -> &PlanNode {
        &self.nodes[id]
    }

    /// Absolute input index where node `id`'s range starts; the range is
    /// `input_base(id) .. input_base(id) + node(id).inputs`.
    pub fn input_base(&self, id: PlanNodeId) -> usize {
        self.bases[id]
    }

    /// Children of `id` in ascending order.
    pub fn children(&self, id: PlanNodeId) -> &[PlanNodeId] {
        &self.children[id]
    }

    /// The canonical sequential topological order (Kahn, lowest ready id
    /// first) every execution resolves nodes in.
    pub fn topo_order(&self) -> &[PlanNodeId] {
        &self.topo
    }

    /// Whether cross-node speculation is enabled for this plan.
    pub fn speculates(&self) -> bool {
        self.speculate_nodes
    }

    /// Whether the plan is a single chain `0 -> 1 -> ... -> n-1`.
    pub fn is_linear(&self) -> bool {
        self.nodes.iter().enumerate().all(|(i, n)| {
            if i == 0 {
                n.parents.is_empty()
            } else {
                n.parents == [i - 1]
            }
        })
    }

    /// Every node reachable from `id` through child edges, **excluding**
    /// `id` itself, in ascending order — the downstream cone an abort of
    /// `id` invalidates.
    pub fn downstream_cone(&self, id: PlanNodeId) -> Vec<PlanNodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<PlanNodeId> = self.children[id].to_vec();
        while let Some(n) = stack.pop() {
            if !seen[n] {
                seen[n] = true;
                stack.extend_from_slice(&self.children[n]);
            }
        }
        (0..self.nodes.len()).filter(|&n| seen[n]).collect()
    }

    /// The critical path: the root-to-sink path maximizing total input
    /// count (the engine's work proxy), as node ids in execution order:
    /// the plan's heaviest dependence chain.
    pub fn critical_path(&self) -> Vec<PlanNodeId> {
        let n = self.nodes.len();
        // Longest path ending at each node, over the topological order.
        let mut best = vec![0usize; n];
        let mut pred: Vec<Option<PlanNodeId>> = vec![None; n];
        for &i in &self.topo {
            best[i] += self.nodes[i].inputs;
            for &c in &self.children[i] {
                if best[i] > best[c] {
                    best[c] = best[i];
                    pred[c] = Some(i);
                }
            }
        }
        let mut end = 0;
        for i in 0..n {
            if best[i] > best[end] {
                end = i;
            }
        }
        let mut path = vec![end];
        while let Some(p) = pred[*path.last().expect("path is non-empty")] {
            path.push(p);
        }
        path.reverse();
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> SpecPlan {
        let mut b = SpecPlan::builder();
        let a = b.node(4);
        let l = b.node(6);
        let r = b.node(2);
        let j = b.node(4);
        b.edge(a, l).edge(a, r).edge(l, j).edge(r, j);
        b.build().unwrap()
    }

    #[test]
    fn diamond_structure() {
        let p = diamond();
        assert_eq!(p.len(), 4);
        assert_eq!(p.total_inputs(), 16);
        assert_eq!(p.node(3).parents, vec![1, 2]);
        assert_eq!(p.children(0), &[1, 2]);
        assert_eq!(p.topo_order(), &[0, 1, 2, 3]);
        assert_eq!(p.input_base(2), 10);
        assert!(!p.is_linear());
        assert!(p.speculates());
    }

    #[test]
    fn linear_constructor_reduces() {
        let p = SpecPlan::linear(&[5, 3, 8]);
        assert!(p.is_linear());
        assert!(!p.speculates());
        assert_eq!(p.total_inputs(), 16);
        assert_eq!(p.topo_order(), &[0, 1, 2]);
        assert_eq!(p.downstream_cone(0), vec![1, 2]);
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = SpecPlan::builder();
        let a = b.node(1);
        let c = b.node(1);
        b.edge(a, c).edge(c, a);
        assert!(matches!(b.build(), Err(PlanError::Cycle { .. })));
    }

    #[test]
    fn structural_errors_are_reported() {
        assert_eq!(SpecPlan::builder().build(), Err(PlanError::EmptyPlan));

        let mut b = SpecPlan::builder();
        b.node(0);
        assert_eq!(b.build(), Err(PlanError::EmptyNode { node: 0 }));

        let mut b = SpecPlan::builder();
        let a = b.node(1);
        b.edge(a, 7);
        assert_eq!(b.build(), Err(PlanError::UnknownNode { node: 7 }));

        let mut b = SpecPlan::builder();
        let a = b.node(1);
        b.edge(a, a);
        assert_eq!(b.build(), Err(PlanError::SelfEdge { node: 0 }));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut b = SpecPlan::builder();
        let a = b.node(2);
        let c = b.node(2);
        b.edge(a, c).edge(a, c);
        let p = b.build().unwrap();
        assert_eq!(p.node(c).parents, vec![a]);
        assert_eq!(p.children(a), &[c]);
    }

    #[test]
    fn back_edges_get_a_valid_topo_order() {
        // Declaration order need not be topological: node 0 may depend on
        // node 1.
        let mut b = SpecPlan::builder();
        let first = b.node(2);
        let second = b.node(2);
        b.edge(second, first);
        let p = b.build().unwrap();
        assert_eq!(p.topo_order(), &[1, 0]);
        assert_eq!(p.downstream_cone(1), vec![0]);
    }

    #[test]
    fn downstream_cone_excludes_siblings() {
        let p = diamond();
        assert_eq!(p.downstream_cone(1), vec![3]);
        assert_eq!(p.downstream_cone(2), vec![3]);
        assert_eq!(p.downstream_cone(0), vec![1, 2, 3]);
        assert!(p.downstream_cone(3).is_empty());
    }

    #[test]
    fn critical_path_takes_the_heavy_branch() {
        let p = diamond();
        // 0 (4) -> 1 (6) -> 3 (4) beats 0 -> 2 (2) -> 3.
        assert_eq!(p.critical_path(), vec![0, 1, 3]);
    }

    #[test]
    fn errors_display_human_text() {
        let e = PlanError::Cycle { node: 3 };
        assert!(e.to_string().contains("cycle"));
        assert!(PlanError::EmptyPlan.to_string().contains("no nodes"));
    }
}
