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

    /// Iterates over all factor ids.
    pub fn factor_ids(&self) -> impl Iterator<Item = FactorId> {
        (0..self.factors.len() as u32).map(FactorId)
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

    /// Greedy conflict coloring of factors: factors sharing a variable get
    /// distinct colors, so all factors of one color form an independent set.
    ///
    /// Colors are assigned in factor-id order (first-fit), which makes the
    /// result deterministic — the property the parallel EP sweep schedule
    /// relies on to stay bit-identical at any thread count. Returns the
    /// color of every factor and the number of colors used.
    pub fn greedy_factor_coloring(&self) -> (Vec<u32>, u32) {
        let nf = self.factors.len();
        let mut color = vec![u32::MAX; nf];
        // Per variable, the highest-colored incident factor seen so far is
        // not enough (colors are not nested), so track full neighbor color
        // sets via a scratch bitmap over colors.
        let mut used = Vec::new();
        let mut num_colors = 0u32;
        for f in 0..nf {
            used.clear();
            used.resize(num_colors as usize, false);
            for &v in &self.factors[f].vars {
                for &g in &self.vars[v.index()].factors {
                    let c = color[g.index()];
                    if c != u32::MAX {
                        used[c as usize] = true;
                    }
                }
            }
            let c = used
                .iter()
                .position(|&u| !u)
                .map(|c| c as u32)
                .unwrap_or(num_colors);
            if c == num_colors {
                num_colors += 1;
            }
            color[f] = c;
        }
        (color, num_colors)
    }

    /// The greedy factor coloring grouped into conflict-free batches — the
    /// cacheable sweep-schedule value ([`ColorBatches`]) the EP engine farm
    /// replays across sliding windows.
    pub fn conflict_batches(&self) -> ColorBatches {
        let (colors, num_colors) = self.greedy_factor_coloring();
        ColorBatches::from_coloring(&colors, num_colors)
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

/// A cached conflict-coloring schedule: factors grouped by color into
/// conflict-free batches, CSR-flattened into two arrays.
///
/// This is the value type behind the EP engine farm's sweep schedule. The
/// coloring is a pure function of the graph topology, not of the per-window
/// data, so a corrector that keeps its factor-graph topology fixed across
/// sliding windows computes it **once** and replays it every window — the
/// warm-start path stores one of these per catalog instead of re-coloring
/// per chunk.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ColorBatches {
    /// `offsets[c]..offsets[c + 1]` bounds batch `c` in `members`.
    offsets: Vec<u32>,
    /// Factor indices, grouped by color, ascending within a batch.
    members: Vec<u32>,
}

impl ColorBatches {
    /// Groups `colors[f]` (one entry per factor, colors `< num_colors`)
    /// into per-color batches. Factor order within a batch is ascending.
    pub fn from_coloring(colors: &[u32], num_colors: u32) -> Self {
        let mut counts = vec![0u32; num_colors as usize];
        for &c in colors {
            counts[c as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(num_colors as usize + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..num_colors as usize].to_vec();
        let mut members = vec![0u32; colors.len()];
        for (f, &c) in colors.iter().enumerate() {
            members[cursor[c as usize] as usize] = f as u32;
            cursor[c as usize] += 1;
        }
        ColorBatches { offsets, members }
    }

    /// Number of batches (colors).
    pub fn num_batches(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The factor indices of batch `c`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[inline]
    pub fn batch(&self, c: usize) -> &[u32] {
        &self.members[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Size of the largest batch — the available factor-level parallelism.
    pub fn max_batch_len(&self) -> usize {
        (0..self.num_batches())
            .map(|c| self.batch(c).len())
            .max()
            .unwrap_or(0)
    }

    /// Iterates over the batches in color order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.num_batches()).map(move |c| self.batch(c))
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

    #[test]
    fn coloring_on_chain_uses_two_colors() {
        // Pairwise chain factors: adjacent factors share a variable, so the
        // chain of factors 2-colors.
        let (g, _) = chain(6);
        let (colors, n) = g.greedy_factor_coloring();
        assert_eq!(n, 2);
        assert_eq!(colors, vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn coloring_is_conflict_free() {
        let (mut g, v) = chain(6);
        g.add_factor((), &[v[0], v[3]]);
        g.add_factor((), &[v[1], v[4], v[5]]);
        let (colors, n) = g.greedy_factor_coloring();
        assert!(n >= 2);
        for var in g.var_ids() {
            let fs = g.factors_of(var);
            for (i, &a) in fs.iter().enumerate() {
                for &b in &fs[i + 1..] {
                    assert_ne!(
                        colors[a.index()],
                        colors[b.index()],
                        "factors {a} and {b} share {var} but share a color"
                    );
                }
            }
        }
    }

    proptest! {
        /// Coloring never assigns one color to two factors sharing a
        /// variable, on random bipartite graphs.
        #[test]
        fn random_coloring_is_conflict_free(
            n in 2usize..12,
            edges in proptest::collection::vec((0usize..12, 0usize..12), 1..30)
        ) {
            let mut g: FactorGraph<usize, ()> = FactorGraph::new();
            let vars: Vec<_> = (0..n).map(|i| g.add_var(i)).collect();
            for (a, b) in edges {
                g.add_factor((), &[vars[a % n], vars[b % n]]);
            }
            let (colors, num) = g.greedy_factor_coloring();
            prop_assert!(colors.iter().all(|&c| c < num));
            for v in g.var_ids() {
                let fs = g.factors_of(v);
                for (i, &a) in fs.iter().enumerate() {
                    for &b in &fs[i + 1..] {
                        prop_assert!(
                            colors[a.index()] != colors[b.index()] || a == b,
                            "conflict at {v}"
                        );
                    }
                }
            }
        }

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
