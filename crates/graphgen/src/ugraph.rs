//! Undirected graph and DAG value types used by the topology generator.

use proteus_graph::{Graph, NodeId};
use std::collections::HashMap;

/// A simple undirected graph over `0..n` (the GraphRNN sample space).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UGraph {
    adj: Vec<Vec<usize>>,
}

impl UGraph {
    /// An edgeless graph with `n` nodes.
    pub fn new(n: usize) -> UGraph {
        UGraph {
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(|l| l.len()).sum::<usize>() / 2
    }

    /// Adds an undirected edge (idempotent, ignores self-loops).
    pub fn add_edge(&mut self, u: usize, v: usize) {
        if u == v || u >= self.len() || v >= self.len() {
            return;
        }
        if !self.adj[u].contains(&v) {
            self.adj[u].push(v);
            self.adj[v].push(u);
        }
    }

    /// Neighbors of `u`.
    pub fn neighbors(&self, u: usize) -> &[usize] {
        &self.adj[u]
    }

    /// The raw adjacency lists, in their exact in-memory order.
    ///
    /// Neighbor order is an observable property of a topology: orientation
    /// induction and statistics walk the lists as stored, so persisting a
    /// trained pool (see `proteus-core::artifact`) must round-trip the
    /// lists verbatim — not as a canonicalized edge set.
    pub fn adjacency(&self) -> &[Vec<usize>] {
        &self.adj
    }

    /// Rebuilds a graph from raw adjacency lists, preserving neighbor
    /// order exactly (the inverse of [`UGraph::adjacency`]).
    ///
    /// # Errors
    /// Returns a description of the first violation when the lists do not
    /// form a simple undirected graph: an out-of-range endpoint, a
    /// self-loop, a duplicate neighbor, or an asymmetric edge.
    pub fn from_adjacency(adj: Vec<Vec<usize>>) -> Result<UGraph, String> {
        let n = adj.len();
        for (u, neigh) in adj.iter().enumerate() {
            let mut seen = std::collections::HashSet::with_capacity(neigh.len());
            for &v in neigh {
                if v >= n {
                    return Err(format!(
                        "node {u} lists out-of-range neighbor {v} (n = {n})"
                    ));
                }
                if v == u {
                    return Err(format!("node {u} lists a self-loop"));
                }
                if !seen.insert(v) {
                    return Err(format!("node {u} lists neighbor {v} twice"));
                }
                if !adj[v].contains(&u) {
                    return Err(format!("edge {u}-{v} is asymmetric: {v} does not list {u}"));
                }
            }
        }
        Ok(UGraph { adj })
    }

    /// Builds the undirected view of a computational graph, densely
    /// renumbering nodes.
    pub fn from_graph(g: &Graph) -> UGraph {
        let ids = g.node_ids();
        let index: HashMap<NodeId, usize> =
            ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let mut u = UGraph::new(ids.len());
        for (id, node) in g.iter() {
            for &inp in &node.inputs {
                u.add_edge(index[&inp], index[&id]);
            }
        }
        u
    }

    /// Adjacency in the [`proteus_graph::stats`] format so the shared
    /// statistics code applies.
    pub fn stats_adjacency(&self) -> HashMap<NodeId, Vec<NodeId>> {
        let mut out = HashMap::with_capacity(self.len());
        for (u, neigh) in self.adj.iter().enumerate() {
            let mut v: Vec<NodeId> = neigh.iter().map(|&n| NodeId::from_index(n)).collect();
            v.sort();
            out.insert(NodeId::from_index(u), v);
        }
        out
    }

    /// Graph statistics of this topology.
    pub fn stats(&self) -> proteus_graph::GraphStats {
        proteus_graph::GraphStats::of_adjacency(&self.stats_adjacency())
    }

    /// Restricts to the largest connected component, renumbering nodes.
    pub fn largest_component(&self) -> UGraph {
        let adj = self.stats_adjacency();
        let comp = proteus_graph::stats::largest_component(&adj);
        let index: HashMap<usize, usize> = comp
            .iter()
            .enumerate()
            .map(|(i, id)| (id.index(), i))
            .collect();
        let mut out = UGraph::new(comp.len());
        for id in &comp {
            let u = id.index();
            for &v in &self.adj[u] {
                if let (Some(&iu), Some(&iv)) = (index.get(&u), index.get(&v)) {
                    out.add_edge(iu, iv);
                }
            }
        }
        out
    }
}

/// An unlabeled DAG over `0..n` — the output of orientation induction and
/// the input to operator population.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dag {
    n: usize,
    edges: Vec<(usize, usize)>,
}

impl Dag {
    /// Builds a DAG from an edge list.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn new(n: usize, edges: Vec<(usize, usize)>) -> Dag {
        for &(u, v) in &edges {
            assert!(u < n && v < n, "edge ({u},{v}) out of range for n={n}");
        }
        Dag { n, edges }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Directed edges.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Predecessor lists.
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut p = vec![Vec::new(); self.n];
        for &(u, v) in &self.edges {
            p[v].push(u);
        }
        p
    }

    /// Successor lists.
    pub fn succs(&self) -> Vec<Vec<usize>> {
        let mut s = vec![Vec::new(); self.n];
        for &(u, v) in &self.edges {
            s[u].push(v);
        }
        s
    }

    /// True when the edge relation is acyclic.
    pub fn is_acyclic(&self) -> bool {
        let mut indeg = vec![0usize; self.n];
        for &(_, v) in &self.edges {
            indeg[v] += 1;
        }
        let succs = self.succs();
        let mut ready: Vec<usize> = (0..self.n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(u) = ready.pop() {
            seen += 1;
            for &v in &succs[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push(v);
                }
            }
        }
        seen == self.n
    }

    /// A topological order of the nodes.
    ///
    /// # Panics
    /// Panics if the DAG is cyclic (use [`Dag::is_acyclic`] first).
    pub fn topo_order(&self) -> Vec<usize> {
        let mut indeg = vec![0usize; self.n];
        for &(_, v) in &self.edges {
            indeg[v] += 1;
        }
        let succs = self.succs();
        let mut ready: Vec<usize> = (0..self.n).filter(|&i| indeg[i] == 0).collect();
        ready.sort_unstable_by(|a, b| b.cmp(a));
        let mut order = Vec::with_capacity(self.n);
        while let Some(u) = ready.pop() {
            order.push(u);
            for &v in &succs[u] {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    ready.push(v);
                }
            }
        }
        assert_eq!(order.len(), self.n, "Dag::topo_order on cyclic graph");
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_graph::{Activation, Op};

    #[test]
    fn ugraph_from_graph_counts() {
        let mut g = Graph::new("t");
        let x = g.input([1, 4]);
        let a = g.add(Op::Activation(Activation::Relu), [x]);
        let b = g.add(Op::Activation(Activation::Tanh), [x]);
        let c = g.add(Op::Add, [a, b]);
        g.set_outputs([c]);
        let u = UGraph::from_graph(&g);
        assert_eq!(u.len(), 4);
        assert_eq!(u.edge_count(), 4);
        let st = u.stats();
        assert_eq!(st.num_nodes, 4.0);
    }

    #[test]
    fn add_edge_dedups_and_ignores_self_loops() {
        let mut u = UGraph::new(3);
        u.add_edge(0, 1);
        u.add_edge(1, 0);
        u.add_edge(2, 2);
        assert_eq!(u.edge_count(), 1);
        assert_eq!(u.neighbors(2).len(), 0);
    }

    #[test]
    fn largest_component_extraction() {
        let mut u = UGraph::new(5);
        u.add_edge(0, 1);
        u.add_edge(1, 2);
        u.add_edge(3, 4);
        let c = u.largest_component();
        assert_eq!(c.len(), 3);
        assert_eq!(c.edge_count(), 2);
    }

    #[test]
    fn dag_acyclicity() {
        let d = Dag::new(3, vec![(0, 1), (1, 2), (0, 2)]);
        assert!(d.is_acyclic());
        assert_eq!(d.topo_order(), vec![0, 1, 2]);
        let c = Dag::new(2, vec![(0, 1), (1, 0)]);
        assert!(!c.is_acyclic());
    }
}
