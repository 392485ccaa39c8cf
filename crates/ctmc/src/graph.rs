//! Graph structure of Markov chains: communicating classes, irreducibility
//! and connectivity (paper Definitions 2.3–2.6).
//!
//! States are vertices; a directed edge `i → j` exists whenever the
//! transition rate `s_{i,j}` is positive. Two states *communicate* when each
//! is accessible from the other; the communicating classes are exactly the
//! strongly connected components of this digraph, computed here with an
//! iterative Tarjan algorithm (no recursion, so deep chains cannot overflow
//! the stack). The module also orders states for the GTH elimination of
//! [`crate::stationary`]: reverse Cuthill–McKee on the symmetrized
//! pattern.

use crate::{Generator, SparseGenerator};

/// The communicating-class decomposition of a chain.
///
/// Members are stored flat: one vector holds every class's members, class
/// by class, and `offsets` marks where each class starts, so a
/// decomposition costs a fixed handful of allocations however many classes
/// it has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classes {
    /// `class_of[i]` is the index of the class containing state `i`.
    class_of: Vec<usize>,
    /// Members of every class, class by class; each class's members in
    /// ascending state order.
    members: Vec<usize>,
    /// `offsets[c]..offsets[c + 1]` is class `c`'s range of `members`;
    /// length `len() + 1`.
    offsets: Vec<usize>,
    /// `closed[c]`: no transition leaves class `c`.
    closed: Vec<bool>,
}

impl Classes {
    /// Number of communicating classes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.closed.len()
    }

    /// Returns `true` if there are no classes (empty chain).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.closed.is_empty()
    }

    /// Class index of `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn class_of(&self, state: usize) -> usize {
        self.class_of[state]
    }

    /// Members of class `c`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn members(&self, c: usize) -> &[usize] {
        &self.members[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Iterates over all classes.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.offsets
            .windows(2)
            .map(|range| &self.members[range[0]..range[1]])
    }

    /// Iterates over the closed classes — those no transition leaves, in
    /// a finite chain exactly the recurrent ones — in class order.
    pub fn closed(&self) -> impl Iterator<Item = &[usize]> {
        self.iter()
            .zip(&self.closed)
            .filter_map(|(members, &closed)| closed.then_some(members))
    }
}

/// Adjacency lists of the transition digraph (positive-rate edges only).
fn adjacency(generator: &Generator) -> Vec<Vec<usize>> {
    let n = generator.n_states();
    let mut adj = vec![Vec::new(); n];
    for (from, to, _) in generator.transitions() {
        adj[from].push(to);
    }
    adj
}

/// Computes the communicating classes (strongly connected components) of the
/// chain with an iterative Tarjan algorithm.
///
/// # Examples
///
/// ```
/// use dpm_ctmc::{graph, Generator};
///
/// # fn main() -> Result<(), dpm_ctmc::CtmcError> {
/// // 0 <-> 1 communicate; 2 is absorbing and only reachable from 1.
/// let g = Generator::builder(3)
///     .rate(0, 1, 1.0)
///     .rate(1, 0, 1.0)
///     .rate(1, 2, 1.0)
///     .build()?;
/// let classes = graph::communicating_classes(&g);
/// assert_eq!(classes.len(), 2);
/// assert_eq!(classes.class_of(0), classes.class_of(1));
/// assert_ne!(classes.class_of(0), classes.class_of(2));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn communicating_classes(generator: &Generator) -> Classes {
    let n = generator.n_states();
    tarjan(n, |v| {
        (0..n).filter(move |&w| w != v && generator.rate(v, w) > 0.0)
    })
}

/// Sparse twin of [`communicating_classes`]: the same iterative Tarjan
/// decomposition, walking the CSR rows in place (no adjacency lists, no
/// densifying).
///
/// # Examples
///
/// ```
/// use dpm_ctmc::{graph, SparseGenerator};
///
/// # fn main() -> Result<(), dpm_ctmc::CtmcError> {
/// let g = SparseGenerator::from_transitions(3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0)])?;
/// assert_eq!(graph::communicating_classes_sparse(&g).len(), 2);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn communicating_classes_sparse(generator: &SparseGenerator) -> Classes {
    let csr = generator.csr();
    tarjan(generator.n_states(), |v| {
        csr.row(v)
            .filter_map(move |(w, rate)| (w != v && rate > 0.0).then_some(w))
    })
}

/// Iterative Tarjan over the digraph whose edges out of `v` are
/// `successors(v)` (positive off-diagonal rates, in ascending target
/// order): classes are numbered in the order their roots finish. Each
/// call-stack frame holds its vertex's live successor iterator, so no
/// adjacency list is built and every edge is read once.
///
/// Closedness falls out of the same pass. An edge `v → w` stays inside
/// `v`'s class exactly when `w` is still on the Tarjan stack once `w` has
/// finished (its class's root is then an ancestor of `v`); every other
/// edge leaves it, and `leaves[v]` records that.
fn tarjan<I: Iterator<Item = usize>>(n: usize, successors: impl Fn(usize) -> I) -> Classes {
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut leaves = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut class_of = vec![UNVISITED; n];
    let mut members = Vec::with_capacity(n);
    let mut offsets = vec![0];
    let mut closed = Vec::new();

    let mut call_stack: Vec<(usize, I)> = Vec::new();
    for start in 0..n {
        if index[start] != UNVISITED {
            continue;
        }
        call_stack.push((start, successors(start)));
        index[start] = next_index;
        lowlink[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;

        while let Some((v, edges)) = call_stack.last_mut() {
            let v = *v;
            if let Some(w) = edges.next() {
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, successors(w)));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                } else {
                    leaves[v] = true;
                }
                continue;
            }
            call_stack.pop();
            if lowlink[v] == index[v] {
                // The stack above and including `v` is its class.
                let class_id = closed.len();
                let first = members.len();
                while let Some(w) = stack.pop() {
                    on_stack[w] = false;
                    class_of[w] = class_id;
                    members.push(w);
                    if w == v {
                        break;
                    }
                }
                let class = &mut members[first..];
                class.sort_unstable();
                closed.push(class.iter().all(|&w| !leaves[w]));
                offsets.push(members.len());
            }
            if let Some(&(parent, _)) = call_stack.last() {
                lowlink[parent] = lowlink[parent].min(lowlink[v]);
                leaves[parent] |= !on_stack[v];
            }
        }
    }
    Classes {
        class_of,
        members,
        offsets,
        closed,
    }
}

/// Reverse Cuthill–McKee order of the symmetrized pattern of `edges`:
/// `order[p]` is the state at position `p`.
///
/// Breadth-first search from a minimum-degree state, visiting each
/// state's unvisited neighbours by ascending degree, then reversed; a
/// state left unvisited (another component) restarts the search at the
/// minimum-degree one. Every tie breaks by state index, so the order is a
/// function of the pattern alone. On a banded pattern the positions keep
/// the band, which is what bounds the fill of the GTH elimination.
pub(crate) fn reverse_cuthill_mckee(
    n: usize,
    edges: impl Iterator<Item = (usize, usize)>,
) -> Vec<usize> {
    let mut adj = vec![Vec::new(); n];
    for (i, j) in edges {
        adj[i].push(j);
        adj[j].push(i);
    }
    for neighbours in &mut adj {
        neighbours.sort_unstable();
        neighbours.dedup();
    }
    let degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    for neighbours in &mut adj {
        neighbours.sort_unstable_by_key(|&v| (degree[v], v));
    }
    let mut roots: Vec<usize> = (0..n).collect();
    roots.sort_unstable_by_key(|&v| (degree[v], v));
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for root in roots {
        if visited[root] {
            continue;
        }
        visited[root] = true;
        let mut head = order.len();
        order.push(root);
        while head < order.len() {
            let v = order[head];
            head += 1;
            for &w in &adj[v] {
                if !visited[w] {
                    visited[w] = true;
                    order.push(w);
                }
            }
        }
    }
    order.reverse();
    order
}

/// Returns `true` if the chain is irreducible (a single communicating
/// class, Definition 2.5).
///
/// # Examples
///
/// ```
/// use dpm_ctmc::{graph, Generator};
///
/// # fn main() -> Result<(), dpm_ctmc::CtmcError> {
/// let g = Generator::builder(2).rate(0, 1, 1.0).rate(1, 0, 2.0).build()?;
/// assert!(graph::is_irreducible(&g));
/// let h = Generator::builder(2).rate(0, 1, 1.0).build()?;
/// assert!(!graph::is_irreducible(&h));
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn is_irreducible(generator: &Generator) -> bool {
    communicating_classes(generator).len() == 1
}

/// Returns the set of states reachable from `start` (including `start`).
///
/// # Panics
///
/// Panics if `start` is out of range.
#[must_use]
pub fn reachable_from(generator: &Generator, start: usize) -> Vec<bool> {
    let n = generator.n_states();
    assert!(start < n, "state {start} out of range for {n} states");
    let adj = adjacency(generator);
    let mut seen = vec![false; n];
    let mut queue = vec![start];
    seen[start] = true;
    while let Some(v) = queue.pop() {
        for &w in &adj[v] {
            if !seen[w] {
                seen[w] = true;
                queue.push(w);
            }
        }
    }
    seen
}

/// Returns `true` if the transition graph is weakly connected — the paper's
/// "connected Markov process" (Definition 2.6), treating edges as
/// undirected.
#[must_use]
pub fn is_connected(generator: &Generator) -> bool {
    let n = generator.n_states();
    if n == 0 {
        return true;
    }
    let mut adj = vec![Vec::new(); n];
    for (from, to, _) in generator.transitions() {
        adj[from].push(to);
        adj[to].push(from);
    }
    let mut seen = vec![false; n];
    let mut queue = vec![0usize];
    seen[0] = true;
    let mut count = 1;
    while let Some(v) = queue.pop() {
        for &w in &adj[v] {
            if !seen[w] {
                seen[w] = true;
                count += 1;
                queue.push(w);
            }
        }
    }
    count == n
}

/// Classifies each state as recurrent (`true`) or transient (`false`) in the
/// finite-chain sense: a state is recurrent iff its communicating class has
/// no transition leaving the class (Definition 2.3 specialized to finite
/// chains, where every closed class is positive recurrent).
#[must_use]
pub fn recurrent_states(generator: &Generator) -> Vec<bool> {
    let mut recurrent = vec![false; generator.n_states()];
    for members in communicating_classes(generator).closed() {
        for &i in members {
            recurrent[i] = true;
        }
    }
    recurrent
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A random digraph with community structure: states fall into up to
    /// eight blocks, a block may be a ring (strongly connected), edges
    /// run within a block or to a higher one (so lower blocks are
    /// transient and the top ones closed), a few edges run anywhere, some
    /// edges carry rate zero (no edge), and some states are isolated.
    fn structured_digraph() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
        (1usize..=60).prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec((0usize..8, 0usize..6), n..=n),
                1usize..=8,
                prop::collection::vec(0usize..3, 8..=8),
                prop::collection::vec((0..n, 0..n, 0usize..4, 0.1f64..10.0), 0..=2 * n),
                prop::collection::vec((0..n, 0..n), 0..=3),
            )
                .prop_map(|(n, state_spec, k, ring, extra, wild)| {
                    let block = |i: usize| state_spec[i].0 % k;
                    let isolated = |i: usize| state_spec[i].1 == 0;
                    let mut edges = Vec::new();
                    for b in (0..k).filter(|&b| ring[b] > 0) {
                        let members: Vec<usize> = (0..n).filter(|&i| block(i) == b).collect();
                        for (l, &i) in members.iter().enumerate() {
                            let j = members[(l + 1) % members.len()];
                            edges.push((i, j, 1.0));
                        }
                    }
                    for &(i, j, zero, rate) in &extra {
                        if block(i) <= block(j) {
                            edges.push((i, j, if zero == 0 { 0.0 } else { rate }));
                        }
                    }
                    edges.extend(wild.iter().map(|&(i, j)| (i, j, 0.5)));
                    edges.retain(|&(i, j, _)| i != j && !isolated(i) && !isolated(j));
                    (n, edges)
                })
        })
    }

    /// `reach[i][j]`: `j` is reachable from `i` along positive-rate edges
    /// (every state reaches itself).
    fn reach_closure(n: usize, edges: &[(usize, usize, f64)]) -> Vec<Vec<bool>> {
        let mut reach = vec![vec![false; n]; n];
        for (start, seen) in reach.iter_mut().enumerate() {
            seen[start] = true;
            let mut queue = vec![start];
            while let Some(v) = queue.pop() {
                for &(i, j, rate) in edges {
                    if i == v && rate > 0.0 && !seen[j] {
                        seen[j] = true;
                        queue.push(j);
                    }
                }
            }
        }
        reach
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The dense and sparse entry points give equal decompositions,
        /// and that decomposition is the mutual-reachability partition:
        /// members ascend, a class is closed exactly when nothing outside
        /// it is reachable, and classes come in reverse topological order
        /// (a class reaches only classes numbered before it).
        #[test]
        fn flat_tarjan_matches_the_reachability_closure(
            (n, edges) in structured_digraph()
        ) {
            let mut dense = Generator::builder(n);
            for &(i, j, rate) in &edges {
                dense.add_rate(i, j, rate);
            }
            let dense = communicating_classes(&dense.build().unwrap());
            let sparse = communicating_classes_sparse(
                &SparseGenerator::from_transitions(n, &edges).unwrap(),
            );
            prop_assert_eq!(&dense, &sparse);
            let reach = reach_closure(n, &edges);
            let classes = sparse;
            for (i, from_i) in reach.iter().enumerate() {
                for (j, &i_reaches_j) in from_i.iter().enumerate() {
                    prop_assert_eq!(
                        classes.class_of(i) == classes.class_of(j),
                        i_reaches_j && reach[j][i]
                    );
                    if i_reaches_j {
                        prop_assert!(classes.class_of(j) <= classes.class_of(i));
                    }
                }
            }
            let mut seen = 0;
            let mut closed = Vec::new();
            for (c, members) in classes.iter().enumerate() {
                prop_assert!(!members.is_empty());
                prop_assert!(members.windows(2).all(|w| w[0] < w[1]));
                prop_assert_eq!(members, classes.members(c));
                for &i in members {
                    prop_assert_eq!(classes.class_of(i), c);
                }
                seen += members.len();
                let is_closed = members
                    .iter()
                    .all(|&i| (0..n).all(|j| !reach[i][j] || classes.class_of(j) == c));
                if is_closed {
                    closed.push(members);
                }
            }
            prop_assert_eq!(seen, n);
            prop_assert_eq!(classes.len(), classes.iter().count());
            prop_assert_eq!(classes.closed().collect::<Vec<_>>(), closed);
        }
    }

    fn chain(edges: &[(usize, usize)], n: usize) -> Generator {
        let mut b = Generator::builder(n);
        for &(i, j) in edges {
            b.add_rate(i, j, 1.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn single_ring_is_one_class() {
        let g = chain(&[(0, 1), (1, 2), (2, 0)], 3);
        let c = communicating_classes(&g);
        assert_eq!(c.len(), 1);
        assert_eq!(c.members(0), &[0, 1, 2]);
        assert!(is_irreducible(&g));
    }

    #[test]
    fn two_rings_with_bridge() {
        let g = chain(&[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)], 4);
        let c = communicating_classes(&g);
        assert_eq!(c.len(), 2);
        assert_eq!(c.class_of(0), c.class_of(1));
        assert_eq!(c.class_of(2), c.class_of(3));
        assert_ne!(c.class_of(0), c.class_of(2));
        assert_eq!(c.closed().collect::<Vec<_>>(), [&[2, 3]]);
        assert!(!is_irreducible(&g));
        // Weakly connected even though not strongly.
        assert!(is_connected(&g));
    }

    #[test]
    fn isolated_state_breaks_connectivity() {
        let g = chain(&[(0, 1), (1, 0)], 3);
        assert!(!is_connected(&g));
        let c = communicating_classes(&g);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reachability() {
        let g = chain(&[(0, 1), (1, 2)], 4);
        let r = reachable_from(&g, 0);
        assert_eq!(r, vec![true, true, true, false]);
        let r2 = reachable_from(&g, 2);
        assert_eq!(r2, vec![false, false, true, false]);
    }

    #[test]
    fn recurrent_and_transient_classification() {
        // 0 -> 1 <-> 2 : state 0 is transient, {1, 2} recurrent.
        let g = chain(&[(0, 1), (1, 2), (2, 1)], 3);
        assert_eq!(recurrent_states(&g), vec![false, true, true]);
    }

    #[test]
    fn absorbing_state_is_recurrent() {
        let g = chain(&[(0, 1)], 2);
        assert_eq!(recurrent_states(&g), vec![false, true]);
    }

    #[test]
    fn deep_chain_does_not_overflow() {
        // A 20k-state ring exercises the iterative Tarjan on a deep path.
        let n = 20_000;
        let mut b = Generator::builder(n);
        for i in 0..n {
            b.add_rate(i, (i + 1) % n, 1.0);
        }
        let g = b.build().unwrap();
        assert!(is_irreducible(&g));
    }

    #[test]
    fn rcm_roots_at_the_lowest_minimum_degree_state() {
        // Path 3 - 1 - 0 - 2 - 4: the endpoints 3 and 4 have degree 1, so
        // the search starts at 3 and the reversed order ends there.
        let order = reverse_cuthill_mckee(5, [(3, 1), (1, 0), (0, 2), (2, 4)].into_iter());
        assert_eq!(order, [4, 2, 0, 1, 3]);
    }

    #[test]
    fn rcm_visits_neighbours_by_degree_then_index() {
        // Star centre 0 with leaves 1..=3; leaf 3 also touches 4 (degree 2).
        // Root: leaf 1 (degree 1, lowest index); then 0; then 2 (degree 1)
        // before 3 (degree 2); then 4.
        let edges = [(0, 1), (0, 2), (0, 3), (3, 4)];
        let order = reverse_cuthill_mckee(5, edges.into_iter());
        assert_eq!(order, [4, 3, 2, 0, 1]);
        // Direction and duplicates do not matter: only the symmetrized
        // pattern does.
        let flipped = edges.iter().map(|&(i, j)| (j, i)).chain(edges);
        assert_eq!(reverse_cuthill_mckee(5, flipped), order);
    }

    #[test]
    fn rcm_covers_every_component() {
        let order = reverse_cuthill_mckee(5, [(0, 1), (3, 4)].into_iter());
        assert_eq!(order, [4, 3, 1, 0, 2]);
    }

    #[test]
    fn classes_iter_visits_all() {
        let g = chain(&[(0, 1), (1, 0), (2, 3), (3, 2)], 4);
        let c = communicating_classes(&g);
        let total: usize = c.iter().map(<[usize]>::len).sum();
        assert_eq!(total, 4);
        assert!(!c.is_empty());
    }
}
