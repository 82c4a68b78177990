//! Small BFS helpers over the deduplicated call-graph adjacency.

use std::collections::{BTreeSet, VecDeque};

/// Shortest path (as a node list, `from` first) from `from` to any
/// node in `targets`.  `from` itself counts when it is a target.
pub fn shortest_path_to(
    adj: &[Vec<usize>],
    from: usize,
    targets: &BTreeSet<usize>,
) -> Option<Vec<usize>> {
    if targets.contains(&from) {
        return Some(vec![from]);
    }
    let mut parent: Vec<Option<usize>> = vec![None; adj.len()];
    let mut seen = vec![false; adj.len()];
    let mut queue = VecDeque::new();
    seen[from] = true;
    queue.push_back(from);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if seen[v] {
                continue;
            }
            seen[v] = true;
            parent[v] = Some(u);
            if targets.contains(&v) {
                return Some(unwind(&parent, from, v));
            }
            queue.push_back(v);
        }
    }
    None
}

/// Reversed adjacency (caller lists per callee).
pub fn reverse(adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    let mut rev: Vec<Vec<usize>> = vec![Vec::new(); adj.len()];
    for (u, vs) in adj.iter().enumerate() {
        for &v in vs {
            rev[v].push(u);
        }
    }
    rev
}

/// Multi-source BFS: for each node, the parent on a shortest path from
/// the nearest entry (entries have `parent = None`, `dist = 0`).
pub fn multi_source(
    adj: &[Vec<usize>],
    entries: &[usize],
) -> (Vec<Option<usize>>, Vec<Option<u32>>) {
    let mut parent: Vec<Option<usize>> = vec![None; adj.len()];
    let mut dist: Vec<Option<u32>> = vec![None; adj.len()];
    let mut queue = VecDeque::new();
    for &e in entries {
        if dist[e].is_none() {
            dist[e] = Some(0);
            queue.push_back(e);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u].unwrap_or(0);
        for &v in &adj[u] {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    (parent, dist)
}

/// Path from the entry to `node` using a multi-source parent table.
pub fn unwind_multi(parent: &[Option<usize>], node: usize) -> Vec<usize> {
    let mut path = vec![node];
    let mut cur = node;
    while let Some(p) = parent[cur] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    path
}

fn unwind(parent: &[Option<usize>], from: usize, to: usize) -> Vec<usize> {
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        match parent[cur] {
            Some(p) => {
                path.push(p);
                cur = p;
            }
            None => break,
        }
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shortest_path_prefers_fewer_hops() {
        // 0→1→3, 0→2→3 (tie broken by adjacency order), 0→3 absent.
        let adj = vec![vec![1, 2], vec![3], vec![3], vec![]];
        let targets: BTreeSet<usize> = [3].into_iter().collect();
        assert_eq!(shortest_path_to(&adj, 0, &targets), Some(vec![0, 1, 3]));
    }

    #[test]
    fn self_target_is_a_single_step() {
        let adj = vec![vec![]];
        let targets: BTreeSet<usize> = [0].into_iter().collect();
        assert_eq!(shortest_path_to(&adj, 0, &targets), Some(vec![0]));
    }

    #[test]
    fn multi_source_distances() {
        let adj = vec![vec![2], vec![2], vec![3], vec![]];
        let (parent, dist) = multi_source(&adj, &[0, 1]);
        assert_eq!(dist[3], Some(2));
        let path = unwind_multi(&parent, 3);
        assert_eq!(path.len(), 3);
        assert!(path[0] == 0 || path[0] == 1);
    }

    #[test]
    fn cycles_terminate() {
        let adj = vec![vec![1], vec![0]];
        let targets: BTreeSet<usize> = BTreeSet::new();
        assert_eq!(shortest_path_to(&adj, 0, &targets), None);
        let (_, dist) = multi_source(&adj, &[0]);
        assert_eq!(dist, vec![Some(0), Some(1)]);
    }
}
