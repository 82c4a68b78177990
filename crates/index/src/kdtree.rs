//! A k-d tree for exact nearest-neighbour search over feature vectors.
//!
//! The paper's third future direction: "the determination of image
//! feature vectors and the study of multi-dimensional indexing methods
//! for them to enable similarity searching in queries like 'find all the
//! PET studies of 40-year old females with intensities inside the
//! cerebellum similar to Ms. Smith's latest PET study'."

/// An immutable k-d tree over fixed-dimension `f64` vectors with
/// payloads, supporting exact k-nearest-neighbour queries (Euclidean).
pub struct KdTree<T> {
    dims: usize,
    nodes: Vec<KdNode<T>>,
    root: Option<usize>,
}

struct KdNode<T> {
    point: Vec<f64>,
    payload: T,
    axis: usize,
    left: Option<usize>,
    right: Option<usize>,
}

impl<T> std::fmt::Debug for KdTree<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KdTree").field("dims", &self.dims).field("len", &self.nodes.len()).finish()
    }
}

impl<T> KdTree<T> {
    /// Builds a balanced tree by recursive median split.
    ///
    /// # Panics
    /// Panics if `dims == 0`, any point has the wrong arity, or any
    /// coordinate is non-finite.
    pub fn build(dims: usize, items: Vec<(Vec<f64>, T)>) -> Self {
        assert!(dims > 0, "kd-tree dimension must be positive");
        for (p, _) in &items {
            assert_eq!(p.len(), dims, "point arity {} != dims {dims}", p.len());
            assert!(p.iter().all(|c| c.is_finite()), "non-finite coordinate in {p:?}");
        }
        let mut tree = KdTree { dims, nodes: Vec::with_capacity(items.len()), root: None };
        let mut items = items;
        tree.root = tree.build_rec(&mut items, 0);
        tree
    }

    #[expect(clippy::unreachable, reason = "mid < len, so the left half is non-empty")]
    fn build_rec(&mut self, items: &mut Vec<(Vec<f64>, T)>, depth: usize) -> Option<usize> {
        if items.is_empty() {
            return None;
        }
        let axis = depth % self.dims;
        items.sort_by(|a, b| a.0[axis].total_cmp(&b.0[axis]));
        let mid = items.len() / 2;
        let mut right_items: Vec<(Vec<f64>, T)> = items.split_off(mid + 1);
        let (point, payload) = match items.pop() {
            Some(found) => found,
            None => unreachable!("mid < len, so the left half is non-empty"),
        };
        let left = self.build_rec(items, depth + 1);
        let right = self.build_rec(&mut right_items, depth + 1);
        let idx = self.nodes.len();
        self.nodes.push(KdNode { point, payload, axis, left, right });
        Some(idx)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The `k` nearest neighbours of `query`, closest first, as
    /// `(distance, payload)`.
    ///
    /// # Panics
    /// Panics on wrong query arity.
    pub fn nearest<'a>(&'a self, query: &[f64], k: usize) -> Vec<(f64, &'a T)> {
        assert_eq!(query.len(), self.dims, "query arity {} != dims {}", query.len(), self.dims);
        if k == 0 {
            return Vec::new();
        }
        // Max-heap of current best (distance, node index).
        let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        if let Some(root) = self.root {
            self.nearest_rec(root, query, k, &mut best);
        }
        best.sort_by(|a, b| a.0.total_cmp(&b.0));
        best.into_iter().map(|(d, i)| (d, &self.nodes[i].payload)).collect()
    }

    fn nearest_rec(&self, idx: usize, query: &[f64], k: usize, best: &mut Vec<(f64, usize)>) {
        let node = &self.nodes[idx];
        let dist = euclid(&node.point, query);
        if best.len() < k {
            best.push((dist, idx));
            best.sort_by(|a, b| a.0.total_cmp(&b.0));
        } else if best.last().is_some_and(|worst| dist < worst.0) {
            best.pop();
            best.push((dist, idx));
            best.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        let diff = query[node.axis] - node.point[node.axis];
        let (near, far) =
            if diff <= 0.0 { (node.left, node.right) } else { (node.right, node.left) };
        if let Some(n) = near {
            self.nearest_rec(n, query, k, best);
        }
        // Prune the far side unless the splitting plane is closer than
        // the worst current candidate (or we still lack k candidates).
        let worst = best.last().map_or(f64::INFINITY, |w| w.0);
        if best.len() < k || diff.abs() < worst {
            if let Some(f) = far {
                self.nearest_rec(f, query, k, best);
            }
        }
    }
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn points(n: usize, dims: usize, seed: u64) -> Vec<(Vec<f64>, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|i| ((0..dims).map(|_| rng.gen_range(-10.0..10.0)).collect(), i)).collect()
    }

    fn brute_force(items: &[(Vec<f64>, usize)], q: &[f64], k: usize) -> Vec<usize> {
        let mut d: Vec<(f64, usize)> = items.iter().map(|(p, i)| (euclid(p, q), *i)).collect();
        d.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        d.into_iter().take(k).map(|(_, i)| i).collect()
    }

    #[test]
    fn exact_match_is_nearest() {
        let items = points(100, 3, 1);
        let probe = items[42].0.clone();
        let tree = KdTree::build(3, items);
        let got = tree.nearest(&probe, 1);
        assert_eq!(*got[0].1, 42);
        assert!(got[0].0 < 1e-12);
    }

    #[test]
    fn empty_and_k_zero() {
        let tree: KdTree<u32> = KdTree::build(2, vec![]);
        assert!(tree.is_empty());
        assert!(tree.nearest(&[0.0, 0.0], 3).is_empty());
        let tree = KdTree::build(2, vec![(vec![1.0, 1.0], 7u32)]);
        assert!(tree.nearest(&[0.0, 0.0], 0).is_empty());
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn k_larger_than_population() {
        let items = points(5, 2, 3);
        let tree = KdTree::build(2, items);
        let got = tree.nearest(&[0.0, 0.0], 10);
        assert_eq!(got.len(), 5, "returns everything");
        // sorted ascending
        for w in got.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let tree = KdTree::build(3, vec![(vec![1.0, 2.0, 3.0], 0u8)]);
        let _ = tree.nearest(&[1.0, 2.0], 1);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_coordinates_rejected() {
        let _ = KdTree::build(2, vec![(vec![f64::NAN, 0.0], 0u8)]);
    }

    proptest! {
        #[test]
        fn knn_matches_brute_force(seed in 0u64..200, n in 1usize..150, k in 1usize..8,
                                   q in proptest::collection::vec(-10.0f64..10.0, 4)) {
            let items = points(n, 4, seed);
            let tree = KdTree::build(4, items.clone());
            let got: Vec<usize> = tree.nearest(&q, k).into_iter().map(|(_, i)| *i).collect();
            let want = brute_force(&items, &q, k.min(n));
            // Distances can tie; compare by distance sequence.
            let got_d: Vec<f64> = got.iter().map(|&i| euclid(&items[i].0, &q)).collect();
            let want_d: Vec<f64> = want.iter().map(|&i| euclid(&items[i].0, &q)).collect();
            prop_assert_eq!(got_d.len(), want_d.len());
            for (g, w) in got_d.iter().zip(&want_d) {
                prop_assert!((g - w).abs() < 1e-9, "distance mismatch {g} vs {w}");
            }
        }
    }
}
