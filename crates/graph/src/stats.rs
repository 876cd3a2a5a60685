//! Graph statistics used by the sentinel sampler (Algorithm 1) and by
//! heuristic adversaries (paper §5.3.1, Figures 5/11).
//!
//! All metrics treat the computational graph as an *undirected* simple graph,
//! matching the paper's use of GraphRNN (which models undirected topology)
//! and its reported metrics: average degree, clustering coefficient,
//! diameter, and node count.

use crate::graph::{Graph, NodeId};
use std::collections::{HashMap, VecDeque};

/// The four topology statistics Proteus matches between real and sentinel
/// subgraphs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GraphStats {
    /// Mean undirected degree, `2|E| / |V|`.
    pub avg_degree: f64,
    /// Mean local clustering coefficient.
    pub clustering: f64,
    /// Diameter of the largest connected component (in hops).
    pub diameter: f64,
    /// Number of live nodes.
    pub num_nodes: f64,
}

impl GraphStats {
    /// Computes the statistics of a graph's undirected view.
    pub fn of(graph: &Graph) -> GraphStats {
        let adj = graph.undirected_adjacency();
        Self::of_adjacency(&adj)
    }

    /// Computes the statistics from a prebuilt undirected adjacency map.
    pub fn of_adjacency(adj: &HashMap<NodeId, Vec<NodeId>>) -> GraphStats {
        let n = adj.len();
        if n == 0 {
            return GraphStats::default();
        }
        let edges2: usize = adj.values().map(|v| v.len()).sum();
        let avg_degree = edges2 as f64 / n as f64;
        GraphStats {
            avg_degree,
            clustering: average_clustering(adj),
            diameter: diameter(adj) as f64,
            num_nodes: n as f64,
        }
    }

    /// The statistics as a fixed-order feature vector
    /// `[avg_degree, clustering, diameter, num_nodes]`.
    pub fn to_vec(self) -> [f64; 4] {
        [
            self.avg_degree,
            self.clustering,
            self.diameter,
            self.num_nodes,
        ]
    }

    /// Feature names matching [`GraphStats::to_vec`] order.
    pub const FEATURE_NAMES: [&'static str; 4] =
        ["avg_degree", "clustering", "diameter", "num_nodes"];
}

/// Mean local clustering coefficient of an undirected graph.
pub fn average_clustering(adj: &HashMap<NodeId, Vec<NodeId>>) -> f64 {
    if adj.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for (_, neigh) in adj.iter() {
        let k = neigh.len();
        if k < 2 {
            continue;
        }
        let mut links = 0usize;
        for i in 0..k {
            for j in (i + 1)..k {
                if adj[&neigh[i]].binary_search(&neigh[j]).is_ok() {
                    links += 1;
                }
            }
        }
        total += 2.0 * links as f64 / (k * (k - 1)) as f64;
    }
    total / adj.len() as f64
}

/// BFS distances from `src`; unreachable nodes are absent.
pub fn bfs_distances(adj: &HashMap<NodeId, Vec<NodeId>>, src: NodeId) -> HashMap<NodeId, usize> {
    let mut dist = HashMap::new();
    dist.insert(src, 0usize);
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        let du = dist[&u];
        if let Some(neigh) = adj.get(&u) {
            for &v in neigh {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                    e.insert(du + 1);
                    q.push_back(v);
                }
            }
        }
    }
    dist
}

/// Diameter (max eccentricity) of the largest connected component.
pub fn diameter(adj: &HashMap<NodeId, Vec<NodeId>>) -> usize {
    let component = largest_component(adj);
    let mut best = 0usize;
    for &u in &component {
        let dist = bfs_distances(adj, u);
        for (&v, &d) in &dist {
            if component.contains(&v) {
                best = best.max(d);
            }
        }
    }
    best
}

/// Returns the endpoints `(u, v)` of a diameter path of the largest
/// component, used by Algorithm 3 (orientation induction). Deterministic:
/// ties broken by node id.
pub fn diameter_endpoints(adj: &HashMap<NodeId, Vec<NodeId>>) -> Option<(NodeId, NodeId)> {
    let component = largest_component(adj);
    let mut best: Option<(usize, NodeId, NodeId)> = None;
    let mut nodes: Vec<NodeId> = component.to_vec();
    nodes.sort();
    for &u in &nodes {
        let dist = bfs_distances(adj, u);
        for &v in &nodes {
            if let Some(&d) = dist.get(&v) {
                let cand = (d, u, v);
                let better = match best {
                    None => true,
                    Some((bd, bu, bv)) => d > bd || (d == bd && (u, v) < (bu, bv)),
                };
                if better {
                    best = Some(cand);
                }
            }
        }
    }
    best.map(|(_, u, v)| (u, v))
}

/// Nodes of the largest connected component (by size, ties by smallest id).
pub fn largest_component(adj: &HashMap<NodeId, Vec<NodeId>>) -> Vec<NodeId> {
    let mut seen: HashMap<NodeId, bool> = adj.keys().map(|&k| (k, false)).collect();
    let mut best: Vec<NodeId> = Vec::new();
    let mut keys: Vec<NodeId> = adj.keys().copied().collect();
    keys.sort();
    for &start in &keys {
        if seen[&start] {
            continue;
        }
        let dist = bfs_distances(adj, start);
        let mut comp: Vec<NodeId> = dist.keys().copied().collect();
        comp.sort();
        for &n in &comp {
            seen.insert(n, true);
        }
        if comp.len() > best.len() {
            best = comp;
        }
    }
    best
}

/// Kolmogorov–Smirnov distance between two empirical samples.
///
/// Used by the evaluation (Figure 5) to quantify how close sentinel and real
/// graph-statistic distributions are.
pub fn ks_distance(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 1.0;
    }
    let mut xs: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
    xs.sort_by(|p, q| p.partial_cmp(q).expect("no NaN"));
    let cdf = |sample: &[f64], x: f64| -> f64 {
        sample.iter().filter(|&&v| v <= x).count() as f64 / sample.len() as f64
    };
    let mut sa: Vec<f64> = a.to_vec();
    let mut sb: Vec<f64> = b.to_vec();
    sa.sort_by(|p, q| p.partial_cmp(q).expect("no NaN"));
    sb.sort_by(|p, q| p.partial_cmp(q).expect("no NaN"));
    xs.iter()
        .map(|&x| (cdf(&sa, x) - cdf(&sb, x)).abs())
        .fold(0.0, f64::max)
}

/// Mean and (population) standard deviation of a sample.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Activation, Op};

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new("path");
        let mut prev = g.input([1, 8]);
        for _ in 1..n {
            prev = g.add(Op::Activation(Activation::Relu), [prev]);
        }
        g.set_outputs([prev]);
        g
    }

    fn triangle() -> Graph {
        // x -> a -> add; x -> add  (undirected triangle x-a-add)
        let mut g = Graph::new("tri");
        let x = g.input([4]);
        let a = g.add(Op::Activation(Activation::Relu), [x]);
        let s = g.add(Op::Add, [x, a]);
        g.set_outputs([s]);
        g
    }

    #[test]
    fn path_stats() {
        let g = path_graph(5);
        let st = GraphStats::of(&g);
        assert_eq!(st.num_nodes, 5.0);
        assert_eq!(st.diameter, 4.0);
        assert!((st.avg_degree - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(st.clustering, 0.0);
    }

    #[test]
    fn triangle_clustering_is_one() {
        let g = triangle();
        let st = GraphStats::of(&g);
        assert!((st.clustering - 1.0).abs() < 1e-12);
        assert_eq!(st.diameter, 1.0);
        assert_eq!(st.avg_degree, 2.0);
    }

    #[test]
    fn diameter_endpoints_on_path() {
        let g = path_graph(6);
        let adj = g.undirected_adjacency();
        let (u, v) = diameter_endpoints(&adj).unwrap();
        let dist = bfs_distances(&adj, u);
        assert_eq!(dist[&v], 5);
    }

    #[test]
    fn ks_distance_extremes() {
        let a = [1.0, 2.0, 3.0];
        assert!(ks_distance(&a, &a) < 1e-12);
        let b = [100.0, 101.0];
        assert!((ks_distance(&a, &b) - 1.0).abs() < 1e-12);
        let c = [1.5, 2.5];
        let d = ks_distance(&a, &c);
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    fn largest_component_of_disconnected() {
        let mut g = path_graph(4);
        // isolated pair
        let i1 = g.input([2]);
        let _i2 = g.add(Op::Activation(Activation::Tanh), [i1]);
        let adj = g.undirected_adjacency();
        assert_eq!(largest_component(&adj).len(), 4);
        assert_eq!(GraphStats::of(&g).num_nodes, 6.0);
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-12);
        assert!((s - 2.0).abs() < 1e-12);
    }
}
