//! Integer voxel coordinates and inclusive axis-aligned boxes.
//!
//! The paper's spatial query Q2 is "the data inside a rectangular solid
//! with corners (30,30,30) and (100,100,100)" — an inclusive integer box
//! of side 71.  [`IBox3`] models exactly that.

use crate::Vec3;

/// An integer voxel coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IVec3 {
    /// x coordinate.
    pub x: u32,
    /// y coordinate.
    pub y: u32,
    /// z coordinate.
    pub z: u32,
}

impl IVec3 {
    /// Constructs a voxel coordinate.
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        IVec3 { x, y, z }
    }

    /// The voxel centre in continuous space (voxel `(i,j,k)` spans
    /// `[i, i+1) x [j, j+1) x [k, k+1)`, so its centre is at `+0.5`).
    pub fn center(self) -> Vec3 {
        Vec3::new(f64::from(self.x) + 0.5, f64::from(self.y) + 0.5, f64::from(self.z) + 0.5)
    }

    /// As a `[u32; 3]` array in `(x, y, z)` order.
    pub const fn to_array(self) -> [u32; 3] {
        [self.x, self.y, self.z]
    }
}

impl From<[u32; 3]> for IVec3 {
    fn from(a: [u32; 3]) -> Self {
        IVec3::new(a[0], a[1], a[2])
    }
}

/// An inclusive axis-aligned box of voxels: both corners are inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IBox3 {
    /// Minimum corner (inclusive).
    pub min: IVec3,
    /// Maximum corner (inclusive).
    pub max: IVec3,
}

impl IBox3 {
    /// Constructs a box from two inclusive corners.
    ///
    /// # Panics
    /// Panics if any `min` component exceeds the matching `max` component.
    pub fn new(min: IVec3, max: IVec3) -> Self {
        assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "degenerate box: min {min:?} exceeds max {max:?}"
        );
        IBox3 { min, max }
    }

    /// Extent along each axis (inclusive count of voxels).
    pub fn extent(&self) -> IVec3 {
        IVec3::new(
            self.max.x - self.min.x + 1,
            self.max.y - self.min.y + 1,
            self.max.z - self.min.z + 1,
        )
    }

    /// Number of voxels inside.
    pub fn volume(&self) -> u64 {
        let e = self.extent();
        u64::from(e.x) * u64::from(e.y) * u64::from(e.z)
    }

    /// Whether `p` lies inside the box.
    pub fn contains(&self, p: IVec3) -> bool {
        (self.min.x..=self.max.x).contains(&p.x)
            && (self.min.y..=self.max.y).contains(&p.y)
            && (self.min.z..=self.max.z).contains(&p.z)
    }

    /// Intersection with `other`, or `None` if disjoint.
    pub fn intersect(&self, other: &IBox3) -> Option<IBox3> {
        let min = IVec3::new(
            self.min.x.max(other.min.x),
            self.min.y.max(other.min.y),
            self.min.z.max(other.min.z),
        );
        let max = IVec3::new(
            self.max.x.min(other.max.x),
            self.max.y.min(other.max.y),
            self.max.z.min(other.max.z),
        );
        if min.x <= max.x && min.y <= max.y && min.z <= max.z {
            Some(IBox3 { min, max })
        } else {
            None
        }
    }

    /// Iterates every voxel in the box in scanline order (z fastest).
    pub fn iter(&self) -> impl Iterator<Item = IVec3> + '_ {
        let (xs, ys, zs) =
            (self.min.x..=self.max.x, self.min.y..=self.max.y, self.min.z..=self.max.z);
        xs.flat_map(move |x| {
            let zs = zs.clone();
            ys.clone().flat_map(move |y| zs.clone().map(move |z| IVec3::new(x, y, z)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn containment_is_inclusive_on_both_corners() {
        let b = IBox3::new(IVec3::new(2, 2, 2), IVec3::new(4, 4, 4));
        assert!(b.contains(IVec3::new(2, 2, 2)));
        assert!(b.contains(IVec3::new(4, 4, 4)));
        assert!(!b.contains(IVec3::new(5, 4, 4)));
        assert!(!b.contains(IVec3::new(1, 3, 3)));
        assert_eq!(b.volume(), 27);
    }

    #[test]
    fn intersection_cases() {
        let a = IBox3::new(IVec3::new(0, 0, 0), IVec3::new(5, 5, 5));
        let b = IBox3::new(IVec3::new(3, 3, 3), IVec3::new(8, 8, 8));
        let c = a.intersect(&b).unwrap();
        assert_eq!(c, IBox3::new(IVec3::new(3, 3, 3), IVec3::new(5, 5, 5)));
        // Touching at a single voxel still counts (inclusive boxes).
        let d = IBox3::new(IVec3::new(5, 5, 5), IVec3::new(9, 9, 9));
        assert_eq!(a.intersect(&d).unwrap().volume(), 1);
        // Disjoint.
        let e = IBox3::new(IVec3::new(6, 0, 0), IVec3::new(9, 2, 2));
        assert!(a.intersect(&e).is_none());
    }

    #[test]
    fn iter_visits_each_voxel_once() {
        let b = IBox3::new(IVec3::new(1, 2, 3), IVec3::new(3, 3, 5));
        let voxels: Vec<IVec3> = b.iter().collect();
        assert_eq!(voxels.len() as u64, b.volume());
        let mut dedup = voxels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), voxels.len());
        assert!(voxels.iter().all(|&v| b.contains(v)));
    }

    #[test]
    fn voxel_center() {
        assert_eq!(IVec3::new(0, 0, 0).center(), Vec3::new(0.5, 0.5, 0.5));
        assert_eq!(IVec3::new(10, 20, 30).center(), Vec3::new(10.5, 20.5, 30.5));
    }

    #[test]
    #[should_panic(expected = "degenerate box")]
    fn inverted_corners_panic() {
        let _ = IBox3::new(IVec3::new(5, 0, 0), IVec3::new(4, 9, 9));
    }

    proptest! {
        #[test]
        fn intersect_commutes_and_shrinks(
            a_min in proptest::array::uniform3(0u32..50),
            a_ext in proptest::array::uniform3(1u32..30),
            b_min in proptest::array::uniform3(0u32..50),
            b_ext in proptest::array::uniform3(1u32..30),
        ) {
            let mk = |min: [u32; 3], ext: [u32; 3]| IBox3::new(
                IVec3::from(min),
                IVec3::new(min[0] + ext[0] - 1, min[1] + ext[1] - 1, min[2] + ext[2] - 1),
            );
            let a = mk(a_min, a_ext);
            let b = mk(b_min, b_ext);
            let ab = a.intersect(&b);
            prop_assert_eq!(ab, b.intersect(&a));
            if let Some(c) = ab {
                prop_assert!(c.volume() <= a.volume().min(b.volume()));
                prop_assert!([a, b].iter().all(|x| x.contains(c.min) && x.contains(c.max)));
            }
        }
    }
}
