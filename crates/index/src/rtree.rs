//! A bulk-loaded R-tree over 3-D axis-aligned boxes.
//!
//! Built once from a known population (the catalog's structure REGIONs,
//! or activation regions across many studies) with the classic
//! Sort-Tile-Recursive packing, then queried for box overlap and point
//! containment.  Static bulk loading matches QBISM's workload: the atlas
//! changes rarely, queries are constant.

use qbism_geometry::Vec3;

/// A closed axis-aligned box in continuous grid coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Creates a box.
    ///
    /// # Panics
    /// Panics if any min component exceeds the matching max.
    pub fn new(min: Vec3, max: Vec3) -> Self {
        assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "degenerate Aabb: {min:?}..{max:?}"
        );
        Aabb { min, max }
    }

    /// The smallest box containing both operands.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb { min: self.min.min(other.min), max: self.max.max(other.max) }
    }

    /// Whether two boxes overlap (closed intervals).
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
            && self.min.z <= other.max.z
            && other.min.z <= self.max.z
    }

    /// Whether the box contains a point.
    pub fn contains(&self, p: Vec3) -> bool {
        (self.min.x..=self.max.x).contains(&p.x)
            && (self.min.y..=self.max.y).contains(&p.y)
            && (self.min.z..=self.max.z).contains(&p.z)
    }

    /// Box centre.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }
}

enum Node<T> {
    Leaf(Vec<(Aabb, T)>),
    Inner(Vec<(Aabb, Node<T>)>),
}

/// An immutable R-tree mapping boxes to payloads.
pub struct RTree<T> {
    root: Option<(Aabb, Node<T>)>,
    len: usize,
    fanout: usize,
}

impl<T> std::fmt::Debug for RTree<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RTree").field("len", &self.len).field("fanout", &self.fanout).finish()
    }
}

const DEFAULT_FANOUT: usize = 8;

impl<T> RTree<T> {
    /// Bulk-loads a tree with Sort-Tile-Recursive packing.
    pub fn bulk_load(items: Vec<(Aabb, T)>) -> Self {
        Self::bulk_load_with_fanout(items, DEFAULT_FANOUT)
    }

    /// Bulk-loads with an explicit node fanout (≥ 2).
    pub fn bulk_load_with_fanout(items: Vec<(Aabb, T)>, fanout: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        let len = items.len();
        if items.is_empty() {
            return RTree { root: None, len: 0, fanout };
        }
        // STR: sort by x-centre, slice, sort slices by y, tile, sort by z.
        let mut items = items;
        items.sort_by(|a, b| cmp_f(a.0.center().x, b.0.center().x));
        let leaf_count = len.div_ceil(fanout);
        let slabs = (leaf_count as f64).cbrt().ceil() as usize; // slabs along x
        let per_slab = len.div_ceil(slabs.max(1));
        let mut leaves: Vec<(Aabb, Node<T>)> = Vec::with_capacity(leaf_count);
        for slab in chunked(items, per_slab) {
            let mut slab = slab;
            slab.sort_by(|a, b| cmp_f(a.0.center().y, b.0.center().y));
            let rows = ((slab.len().div_ceil(fanout)) as f64).sqrt().ceil() as usize;
            let per_row = slab.len().div_ceil(rows.max(1));
            for row in chunked(slab, per_row) {
                let mut row = row;
                row.sort_by(|a, b| cmp_f(a.0.center().z, b.0.center().z));
                for leaf_items in chunked(row, fanout) {
                    let bbox = bbox_of(leaf_items.iter().map(|(b, _)| *b));
                    leaves.push((bbox, Node::Leaf(leaf_items)));
                }
            }
        }
        // Pack upward until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next: Vec<(Aabb, Node<T>)> = Vec::with_capacity(level.len().div_ceil(fanout));
            for group in chunked(level, fanout) {
                let bbox = bbox_of(group.iter().map(|(b, _)| *b));
                next.push((bbox, Node::Inner(group)));
            }
            level = next;
        }
        let root = level.into_iter().next();
        RTree { root, len, fanout }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All payloads whose boxes overlap `query`, in arbitrary order.
    pub fn search_box<'a>(&'a self, query: &Aabb) -> Vec<&'a T> {
        let mut out = Vec::new();
        if let Some((bbox, node)) = &self.root {
            if bbox.intersects(query) {
                search_node(node, query, &mut out);
            }
        }
        out
    }

    /// All payloads whose boxes contain `point`.
    pub fn search_point(&self, point: Vec3) -> Vec<&T> {
        self.search_box(&Aabb::new(point, point))
    }
}

fn search_node<'a, T>(node: &'a Node<T>, query: &Aabb, out: &mut Vec<&'a T>) {
    match node {
        Node::Leaf(items) => {
            for (bbox, item) in items {
                if bbox.intersects(query) {
                    out.push(item);
                }
            }
        }
        Node::Inner(children) => {
            for (bbox, child) in children {
                if bbox.intersects(query) {
                    search_node(child, query, out);
                }
            }
        }
    }
}

#[expect(clippy::unreachable, reason = "bbox_of is only called on non-empty groups")]
fn bbox_of<I: IntoIterator<Item = Aabb>>(boxes: I) -> Aabb {
    let mut it = boxes.into_iter();
    let first = match it.next() {
        Some(b) => b,
        None => unreachable!("bbox_of is only called on non-empty groups"),
    };
    it.fold(first, |acc, b| acc.union(&b))
}

fn cmp_f(a: f64, b: f64) -> std::cmp::Ordering {
    a.total_cmp(&b)
}

fn chunked<T>(items: Vec<T>, size: usize) -> Vec<Vec<T>> {
    let size = size.max(1);
    let mut out = Vec::with_capacity(items.len().div_ceil(size));
    let mut cur = Vec::with_capacity(size);
    for item in items {
        cur.push(item);
        if cur.len() == size {
            out.push(std::mem::replace(&mut cur, Vec::with_capacity(size)));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn boxes(n: usize, seed: u64) -> Vec<(Aabb, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let min = Vec3::new(
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                    rng.gen_range(0.0..100.0),
                );
                let ext = Vec3::new(
                    rng.gen_range(0.5..10.0),
                    rng.gen_range(0.5..10.0),
                    rng.gen_range(0.5..10.0),
                );
                (Aabb::new(min, min + ext), i)
            })
            .collect()
    }

    #[test]
    fn aabb_operations() {
        let a = Aabb::new(Vec3::ZERO, Vec3::splat(2.0));
        let b = Aabb::new(Vec3::splat(1.0), Vec3::splat(3.0));
        let c = Aabb::new(Vec3::splat(5.0), Vec3::splat(6.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert_eq!(a.union(&c), Aabb::new(Vec3::ZERO, Vec3::splat(6.0)));
        assert!(a.contains(Vec3::splat(1.5)));
        assert!(!a.contains(Vec3::splat(2.5)));
        assert_eq!(b.center(), Vec3::splat(2.0));
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn inverted_aabb_panics() {
        let _ = Aabb::new(Vec3::splat(2.0), Vec3::ZERO);
    }

    #[test]
    fn empty_tree() {
        let t: RTree<u32> = RTree::bulk_load(vec![]);
        assert!(t.is_empty());
        assert!(t.search_point(Vec3::ZERO).is_empty());
    }

    #[test]
    fn search_matches_linear_scan() {
        let items = boxes(300, 7);
        let tree = RTree::bulk_load(items.clone());
        assert_eq!(tree.len(), 300);
        let query = Aabb::new(Vec3::splat(20.0), Vec3::splat(45.0));
        let mut got: Vec<usize> = tree.search_box(&query).into_iter().copied().collect();
        got.sort_unstable();
        let mut want: Vec<usize> =
            items.iter().filter(|(b, _)| b.intersects(&query)).map(|(_, i)| *i).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty(), "query should hit something in this seed");
    }

    #[test]
    fn point_queries() {
        let items = vec![
            (Aabb::new(Vec3::ZERO, Vec3::splat(10.0)), "big"),
            (Aabb::new(Vec3::splat(2.0), Vec3::splat(4.0)), "inner"),
            (Aabb::new(Vec3::splat(20.0), Vec3::splat(30.0)), "far"),
        ];
        let tree = RTree::bulk_load(items);
        let mut hits: Vec<&str> =
            tree.search_point(Vec3::splat(3.0)).into_iter().copied().collect();
        hits.sort_unstable();
        assert_eq!(hits, vec!["big", "inner"]);
        assert!(tree.search_point(Vec3::splat(15.0)).is_empty());
    }

    proptest! {
        #[test]
        fn tree_equals_linear_scan(seed in 0u64..500, n in 1usize..200,
                                   q in proptest::array::uniform3(0.0f64..90.0)) {
            let items = boxes(n, seed);
            let tree = RTree::bulk_load(items.clone());
            let query = Aabb::new(Vec3::from(q), Vec3::from(q) + Vec3::splat(12.0));
            let mut got: Vec<usize> = tree.search_box(&query).into_iter().copied().collect();
            got.sort_unstable();
            let mut want: Vec<usize> = items
                .iter()
                .filter(|(b, _)| b.intersects(&query))
                .map(|(_, i)| *i)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }

        #[test]
        fn all_fanouts_agree(n in 1usize..120, fanout in 2usize..12) {
            let items = boxes(n, 3);
            let tree = RTree::bulk_load_with_fanout(items.clone(), fanout);
            let query = Aabb::new(Vec3::splat(10.0), Vec3::splat(60.0));
            let mut got: Vec<usize> = tree.search_box(&query).into_iter().copied().collect();
            got.sort_unstable();
            let reference = RTree::bulk_load(items);
            let mut want: Vec<usize> = reference.search_box(&query).into_iter().copied().collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
