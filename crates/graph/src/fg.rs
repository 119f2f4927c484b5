//! The factor-graph data structure and its queries.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// Index of a variable node in a [`FactorGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VarId(u32);

impl VarId {
    /// Dense index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Index of a factor node in a [`FactorGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FactorId(u32);

impl FactorId {
    /// Dense index of this factor.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FactorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct VarNode<V> {
    payload: V,
    factors: Vec<FactorId>,
}

#[derive(Debug, Clone)]
struct FactorNode<F> {
    payload: F,
    vars: Vec<VarId>,
}

/// A bipartite factor graph with variable payloads `V` and factor payloads
/// `F`.
///
/// ```
/// use bayesperf_graph::FactorGraph;
/// let mut g: FactorGraph<&str, &str> = FactorGraph::new();
/// let a = g.add_var("a");
/// let b = g.add_var("b");
/// let c = g.add_var("c");
/// g.add_factor("f(a,b)", &[a, b]);
/// g.add_factor("g(b,c)", &[b, c]);
/// assert_eq!(g.markov_blanket(a), vec![b]);
/// let path = g.shortest_path(a, c, |_| true).unwrap();
/// assert_eq!(path, vec![a, b, c]);
/// ```
#[derive(Debug, Clone)]
pub struct FactorGraph<V, F> {
    vars: Vec<VarNode<V>>,
    factors: Vec<FactorNode<F>>,
}

impl<V, F> Default for FactorGraph<V, F> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V, F> FactorGraph<V, F> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        FactorGraph {
            vars: Vec::new(),
            factors: Vec::new(),
        }
    }

    /// Adds a variable node, returning its id.
    pub fn add_var(&mut self, payload: V) -> VarId {
        let id = VarId(self.vars.len() as u32);
        self.vars.push(VarNode {
            payload,
            factors: Vec::new(),
        });
        id
    }

    /// Adds a factor node connected to `vars`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if any variable id is out of range.
    pub fn add_factor(&mut self, payload: F, vars: &[VarId]) -> FactorId {
        let id = FactorId(self.factors.len() as u32);
        for &v in vars {
            assert!(v.index() < self.vars.len(), "variable {v} out of range");
            self.vars[v.index()].factors.push(id);
        }
        self.factors.push(FactorNode {
            payload,
            vars: vars.to_vec(),
        });
        id
    }

    /// Number of variable nodes.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of factor nodes.
    pub fn num_factors(&self) -> usize {
        self.factors.len()
    }

    /// Payload of a variable.
    pub fn var(&self, id: VarId) -> &V {
        &self.vars[id.index()].payload
    }

    /// Payload of a factor.
    pub fn factor(&self, id: FactorId) -> &F {
        &self.factors[id.index()].payload
    }

    /// Factors adjacent to a variable.
    pub fn factors_of(&self, id: VarId) -> &[FactorId] {
        &self.vars[id.index()].factors
    }

    /// Variables adjacent to a factor (its scope).
    pub fn vars_of(&self, id: FactorId) -> &[VarId] {
        &self.factors[id.index()].vars
    }

    /// Iterates over all variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> {
        (0..self.vars.len() as u32).map(VarId)
    }

    /// The Markov blanket of `v`: all variables sharing at least one factor
    /// with `v`, excluding `v` itself (Koller & Friedman, ch. 4).
    ///
    /// Given its blanket, `v` is conditionally independent of every other
    /// variable in the graph.
    pub fn markov_blanket(&self, v: VarId) -> Vec<VarId> {
        let mut blanket = BTreeSet::new();
        for &f in self.factors_of(v) {
            for &u in self.vars_of(f) {
                if u != v {
                    blanket.insert(u);
                }
            }
        }
        blanket.into_iter().collect()
    }

    /// The Markov blanket of a set: union of member blankets minus the set.
    pub fn markov_blanket_of_set(&self, set: &[VarId]) -> Vec<VarId> {
        let members: BTreeSet<VarId> = set.iter().copied().collect();
        let mut blanket = BTreeSet::new();
        for &v in set {
            for &f in self.factors_of(v) {
                for &u in self.vars_of(f) {
                    if !members.contains(&u) {
                        blanket.insert(u);
                    }
                }
            }
        }
        blanket.into_iter().collect()
    }

    /// True if the Markov blankets of two sets overlap, or one set already
    /// intersects the other's blanket — the paper's criterion for two
    /// consecutive configurations sharing a transitive statistical
    /// dependency (§4.1).
    pub fn blankets_overlap(&self, a: &[VarId], b: &[VarId]) -> bool {
        let ba: BTreeSet<VarId> = self.markov_blanket_of_set(a).into_iter().collect();
        let bb: BTreeSet<VarId> = self.markov_blanket_of_set(b).into_iter().collect();
        if ba.intersection(&bb).next().is_some() {
            return true;
        }
        let sa: BTreeSet<VarId> = a.iter().copied().collect();
        let sb: BTreeSet<VarId> = b.iter().copied().collect();
        sa.intersection(&bb).next().is_some() || sb.intersection(&ba).next().is_some()
    }

    /// Shortest variable path from `from` to `to`, where one step is a hop
    /// through a shared factor (unit edge cost, so Dijkstra reduces to BFS).
    /// Intermediate variables must satisfy `var_ok`; endpoints are exempt.
    ///
    /// Returns the inclusive variable sequence, or `None` if unreachable.
    pub fn shortest_path(
        &self,
        from: VarId,
        to: VarId,
        var_ok: impl Fn(VarId) -> bool,
    ) -> Option<Vec<VarId>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: Vec<Option<VarId>> = vec![None; self.vars.len()];
        let mut seen = vec![false; self.vars.len()];
        seen[from.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back(from);
        while let Some(v) = queue.pop_front() {
            for &f in self.factors_of(v) {
                for &u in self.vars_of(f) {
                    if seen[u.index()] {
                        continue;
                    }
                    if u != to && !var_ok(u) {
                        continue;
                    }
                    seen[u.index()] = true;
                    prev[u.index()] = Some(v);
                    if u == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while let Some(p) = prev[cur.index()] {
                            path.push(p);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(u);
                }
            }
        }
        None
    }

    /// BFS hop distances (in factor hops) from any variable of `sources`.
    /// `None` marks unreachable variables.
    pub fn distances_from(&self, sources: &[VarId]) -> Vec<Option<u32>> {
        let mut dist: Vec<Option<u32>> = vec![None; self.vars.len()];
        let mut queue = VecDeque::new();
        for &s in sources {
            if dist[s.index()].is_none() {
                dist[s.index()] = Some(0);
                queue.push_back(s);
            }
        }
        while let Some(v) = queue.pop_front() {
            let d = dist[v.index()].expect("queued variables have distances");
            for &f in self.factors_of(v) {
                for &u in self.vars_of(f) {
                    if dist[u.index()].is_none() {
                        dist[u.index()] = Some(d + 1);
                        queue.push_back(u);
                    }
                }
            }
        }
        dist
    }

    /// Connected components over variables (two variables connect when they
    /// share a factor). Returns a component index per variable.
    pub fn components(&self) -> Vec<usize> {
        let mut comp = vec![usize::MAX; self.vars.len()];
        let mut next = 0;
        for start in self.var_ids() {
            if comp[start.index()] != usize::MAX {
                continue;
            }
            let mut queue = VecDeque::new();
            comp[start.index()] = next;
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                for &f in self.factors_of(v) {
                    for &u in self.vars_of(f) {
                        if comp[u.index()] == usize::MAX {
                            comp[u.index()] = next;
                            queue.push_back(u);
                        }
                    }
                }
            }
            next += 1;
        }
        comp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A chain graph v0 - v1 - ... - v(n-1) with pairwise factors.
    fn chain(n: usize) -> (FactorGraph<usize, ()>, Vec<VarId>) {
        let mut g = FactorGraph::new();
        let vars: Vec<_> = (0..n).map(|i| g.add_var(i)).collect();
        for w in vars.windows(2) {
            g.add_factor((), &[w[0], w[1]]);
        }
        (g, vars)
    }

    #[test]
    fn blanket_of_interior_chain_node() {
        let (g, v) = chain(5);
        assert_eq!(g.markov_blanket(v[2]), vec![v[1], v[3]]);
        assert_eq!(g.markov_blanket(v[0]), vec![v[1]]);
    }

    #[test]
    fn blanket_of_set_excludes_members() {
        let (g, v) = chain(5);
        assert_eq!(g.markov_blanket_of_set(&[v[1], v[2]]), vec![v[0], v[3]]);
    }

    #[test]
    fn blanket_overlap_detects_adjacency() {
        let (g, v) = chain(6);
        // {v0,v1} and {v3,v4}: blankets {v2} and {v2,v5} overlap at v2.
        assert!(g.blankets_overlap(&[v[0], v[1]], &[v[3], v[4]]));
        // {v0} and {v4,v5}: blankets {v1} and {v3} do not overlap and
        // neither set touches the other's blanket.
        assert!(!g.blankets_overlap(&[v[0]], &[v[4], v[5]]));
    }

    #[test]
    fn shortest_path_on_chain() {
        let (g, v) = chain(5);
        let p = g.shortest_path(v[0], v[4], |_| true).unwrap();
        assert_eq!(p, v);
    }

    #[test]
    fn shortest_path_prefers_wide_factor_shortcut() {
        let (mut g, v) = chain(5);
        // A 3-ary factor connecting the endpoints directly.
        g.add_factor((), &[v[0], v[2], v[4]]);
        let p = g.shortest_path(v[0], v[4], |_| true).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn shortest_path_respects_validity_filter() {
        let (mut g, v) = chain(5);
        g.add_factor((), &[v[0], v[2]]);
        // Block v2: the path must take the long way.
        let p = g.shortest_path(v[0], v[4], |u| u != v[2]);
        assert!(p.is_none(), "chain through v2 is the only route");
        // With a detour factor around v2, the filtered path uses it.
        g.add_factor((), &[v[1], v[3]]);
        let p = g.shortest_path(v[0], v[4], |u| u != v[2]).unwrap();
        assert_eq!(p, vec![v[0], v[1], v[3], v[4]]);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut g: FactorGraph<(), ()> = FactorGraph::new();
        let a = g.add_var(());
        let b = g.add_var(());
        assert!(g.shortest_path(a, b, |_| true).is_none());
    }

    #[test]
    fn trivial_path_is_single_node() {
        let (g, v) = chain(2);
        assert_eq!(g.shortest_path(v[0], v[0], |_| true).unwrap(), vec![v[0]]);
    }

    #[test]
    fn distances_from_multiple_sources() {
        let (g, v) = chain(5);
        let d = g.distances_from(&[v[0], v[4]]);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(1), Some(0)]);
    }

    #[test]
    fn components_separate_islands() {
        let mut g: FactorGraph<(), ()> = FactorGraph::new();
        let a = g.add_var(());
        let b = g.add_var(());
        let c = g.add_var(());
        g.add_factor((), &[a, b]);
        let comp = g.components();
        assert_eq!(comp[a.index()], comp[b.index()]);
        assert_ne!(comp[a.index()], comp[c.index()]);
    }

    proptest! {
        /// Path endpoints and adjacency are always consistent.
        #[test]
        fn random_graph_paths_are_valid(
            n in 2usize..20,
            edges in proptest::collection::vec((0usize..20, 0usize..20), 1..40)
        ) {
            let mut g: FactorGraph<usize, ()> = FactorGraph::new();
            let vars: Vec<_> = (0..n).map(|i| g.add_var(i)).collect();
            for (a, b) in edges {
                let (a, b) = (vars[a % n], vars[b % n]);
                g.add_factor((), &[a, b]);
            }
            let from = vars[0];
            let to = vars[n - 1];
            if let Some(path) = g.shortest_path(from, to, |_| true) {
                prop_assert_eq!(path[0], from);
                prop_assert_eq!(*path.last().unwrap(), to);
                // Each consecutive pair shares a factor.
                for w in path.windows(2) {
                    let fs: std::collections::HashSet<_> =
                        g.factors_of(w[0]).iter().copied().collect();
                    prop_assert!(
                        g.factors_of(w[1]).iter().any(|f| fs.contains(f)),
                        "consecutive path nodes must share a factor"
                    );
                }
                // BFS optimality: path length equals hop distance + 1.
                let d = g.distances_from(&[from]);
                prop_assert_eq!(path.len() as u32, d[to.index()].unwrap() + 1);
            } else {
                // Unreachable must agree with distances.
                let d = g.distances_from(&[from]);
                prop_assert!(d[to.index()].is_none());
            }
        }

        /// Markov blanket membership is symmetric.
        #[test]
        fn blanket_symmetry(
            n in 2usize..15,
            edges in proptest::collection::vec((0usize..15, 0usize..15), 1..30)
        ) {
            let mut g: FactorGraph<usize, ()> = FactorGraph::new();
            let vars: Vec<_> = (0..n).map(|i| g.add_var(i)).collect();
            for (a, b) in edges {
                g.add_factor((), &[vars[a % n], vars[b % n]]);
            }
            for &v in &vars {
                for u in g.markov_blanket(v) {
                    prop_assert!(g.markov_blanket(u).contains(&v));
                }
            }
        }
    }
}
