//! Analytic solids: the membership predicates used to synthesize anatomy.
//!
//! The paper chose a *volumetric* REGION representation precisely because
//! "arbitrary REGIONs of interest do not necessarily have simple analytical
//! descriptions" — but our synthetic atlas structures (the stand-in for the
//! digitized Talairach atlas) are *generated from* analytic solids and then
//! rasterized into volumetric REGIONs, after which the rest of the system
//! treats them as arbitrary.

use crate::{Affine3, Vec3};

/// A closed axis-aligned box over continuous coordinates that a solid
/// is known to lie inside — what lets a rasterizer sweep the part of
/// the grid a structure can occupy instead of all of it.
///
/// Bounds are *conservative*: every point a solid contains is inside
/// its bounds, never the converse.  An unbounded solid (a half-space, a
/// complement) reports [`Bounds3::EVERYTHING`]; a box whose `min`
/// exceeds its `max` on some axis is empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds3 {
    /// Minimum corner (inclusive).
    pub min: Vec3,
    /// Maximum corner (inclusive).
    pub max: Vec3,
}

impl Bounds3 {
    /// All of space: the bounds of a solid with no finite extent.
    pub const EVERYTHING: Bounds3 =
        Bounds3 { min: Vec3::splat(f64::NEG_INFINITY), max: Vec3::splat(f64::INFINITY) };

    /// The box `center ± radii`, widened by a few ulps of the
    /// coordinates involved so that rounding inside a `contains`
    /// predicate can never put a contained point outside it.
    fn around(center: Vec3, radii: Vec3) -> Bounds3 {
        let slack = |c: f64, r: f64| (c.abs() + r) * (16.0 * f64::EPSILON);
        let pad = radii
            + Vec3::new(
                slack(center.x, radii.x),
                slack(center.y, radii.y),
                slack(center.z, radii.z),
            );
        Bounds3 { min: center - pad, max: center + pad }
    }

    /// Whether `p` lies inside the box.
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// The box common to both (empty when they are disjoint).
    pub fn intersect(&self, other: &Bounds3) -> Bounds3 {
        Bounds3 { min: self.min.max(other.min), max: self.max.min(other.max) }
    }

    /// The smallest box holding both.
    pub fn hull(&self, other: &Bounds3) -> Bounds3 {
        Bounds3 { min: self.min.min(other.min), max: self.max.max(other.max) }
    }
}

/// A solid is a membership predicate over continuous 3-space.
pub trait Solid {
    /// Whether point `p` is inside the solid.
    fn contains(&self, p: Vec3) -> bool;

    /// A conservative bounding box: `contains(p)` implies
    /// `bounds().contains(p)`.
    fn bounds(&self) -> Bounds3;

    /// A signed "inside-ness" field: negative inside, positive outside,
    /// zero on the boundary.  Need not be a true distance; it is used for
    /// smooth intensity synthesis (e.g. activity falling off away from a
    /// structure) and surface extraction.
    fn field(&self, p: Vec3) -> f64;
}

/// A sphere.
#[derive(Debug, Clone, Copy)]
pub struct Sphere {
    /// Centre.
    pub center: Vec3,
    /// Radius (must be positive).
    pub radius: f64,
}

impl Sphere {
    /// Creates a sphere.
    ///
    /// # Panics
    /// Panics unless `radius > 0`.
    pub fn new(center: Vec3, radius: f64) -> Self {
        assert!(radius > 0.0, "sphere radius must be positive, got {radius}");
        Sphere { center, radius }
    }
}

impl Solid for Sphere {
    fn contains(&self, p: Vec3) -> bool {
        (p - self.center).length_squared() <= self.radius * self.radius
    }

    fn bounds(&self) -> Bounds3 {
        Bounds3::around(self.center, Vec3::splat(self.radius))
    }

    fn field(&self, p: Vec3) -> f64 {
        (p - self.center).length() - self.radius
    }
}

/// An axis-aligned ellipsoid.
#[derive(Debug, Clone, Copy)]
pub struct Ellipsoid {
    /// Centre.
    pub center: Vec3,
    /// Semi-axes (all positive).
    pub radii: Vec3,
}

impl Ellipsoid {
    /// Creates an ellipsoid.
    ///
    /// # Panics
    /// Panics unless all semi-axes are positive.
    pub fn new(center: Vec3, radii: Vec3) -> Self {
        assert!(
            radii.x > 0.0 && radii.y > 0.0 && radii.z > 0.0,
            "ellipsoid radii must be positive, got {radii:?}"
        );
        Ellipsoid { center, radii }
    }

    fn normalized_radius(&self, p: Vec3) -> f64 {
        let d = p - self.center;
        let q = Vec3::new(d.x / self.radii.x, d.y / self.radii.y, d.z / self.radii.z);
        q.length()
    }
}

impl Solid for Ellipsoid {
    fn contains(&self, p: Vec3) -> bool {
        self.normalized_radius(p) <= 1.0
    }

    fn bounds(&self) -> Bounds3 {
        Bounds3::around(self.center, self.radii)
    }

    fn field(&self, p: Vec3) -> f64 {
        // Approximate signed distance: scaled radial excess.
        (self.normalized_radius(p) - 1.0) * self.radii.x.min(self.radii.y).min(self.radii.z)
    }
}

/// A superquadric `|x/a|^e + |y/b|^e + |z/c|^e <= 1`.
///
/// Exponent 2 is an ellipsoid; larger exponents are "boxier", smaller are
/// "pointier" — useful variety for synthetic anatomic structures.
#[derive(Debug, Clone, Copy)]
pub struct Superquadric {
    /// Centre.
    pub center: Vec3,
    /// Semi-axes (all positive).
    pub radii: Vec3,
    /// Shape exponent (must be positive).
    pub exponent: f64,
}

impl Superquadric {
    /// Creates a superquadric.
    ///
    /// # Panics
    /// Panics unless all semi-axes and the exponent are positive.
    pub fn new(center: Vec3, radii: Vec3, exponent: f64) -> Self {
        assert!(
            radii.x > 0.0 && radii.y > 0.0 && radii.z > 0.0,
            "superquadric radii must be positive"
        );
        assert!(exponent > 0.0, "superquadric exponent must be positive");
        Superquadric { center, radii, exponent }
    }

    fn level(&self, p: Vec3) -> f64 {
        let d = p - self.center;
        (d.x / self.radii.x).abs().powf(self.exponent)
            + (d.y / self.radii.y).abs().powf(self.exponent)
            + (d.z / self.radii.z).abs().powf(self.exponent)
    }
}

impl Solid for Superquadric {
    fn contains(&self, p: Vec3) -> bool {
        self.level(p) <= 1.0
    }

    fn bounds(&self) -> Bounds3 {
        // Every term of `level` is non-negative, so each is at most 1.
        Bounds3::around(self.center, self.radii)
    }

    fn field(&self, p: Vec3) -> f64 {
        self.level(p) - 1.0
    }
}

/// An axis-aligned solid box over continuous coordinates.
#[derive(Debug, Clone, Copy)]
pub struct SolidBox {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl SolidBox {
    /// Creates a box.
    ///
    /// # Panics
    /// Panics if any `min` component exceeds the matching `max`.
    pub fn new(min: Vec3, max: Vec3) -> Self {
        assert!(min.x <= max.x && min.y <= max.y && min.z <= max.z, "degenerate solid box");
        SolidBox { min, max }
    }
}

impl Solid for SolidBox {
    fn contains(&self, p: Vec3) -> bool {
        self.bounds().contains(p)
    }

    fn bounds(&self) -> Bounds3 {
        Bounds3 { min: self.min, max: self.max }
    }

    fn field(&self, p: Vec3) -> f64 {
        let center = (self.min + self.max) * 0.5;
        let half = (self.max - self.min) * 0.5;
        let d = p - center;
        let q = Vec3::new(d.x.abs() - half.x, d.y.abs() - half.y, d.z.abs() - half.z);
        let outside = Vec3::new(q.x.max(0.0), q.y.max(0.0), q.z.max(0.0)).length();
        let inside = q.x.max(q.y).max(q.z).min(0.0);
        outside + inside
    }
}

/// The half-space `n . p <= d`.
#[derive(Debug, Clone, Copy)]
pub struct HalfSpace {
    /// Outward normal (need not be unit length).
    pub normal: Vec3,
    /// Plane offset: the boundary is `normal . p = offset`.
    pub offset: f64,
}

impl HalfSpace {
    /// Creates a half-space `normal . p <= offset`.
    pub fn new(normal: Vec3, offset: f64) -> Self {
        HalfSpace { normal, offset }
    }
}

impl Solid for HalfSpace {
    fn contains(&self, p: Vec3) -> bool {
        self.normal.dot(p) <= self.offset
    }

    fn bounds(&self) -> Bounds3 {
        // A plane normal to one axis bounds that axis on one side: the
        // dot product is then `n * p[axis]` exactly, so `p[axis]` is at
        // most (`n > 0`) or at least (`n < 0`) `offset / n`, widened by
        // a few ulps for the rounding of the product and the quotient.
        let n = [self.normal.x, self.normal.y, self.normal.z];
        let mut axes = (0..3).filter(|&a| n[a] != 0.0);
        let (Some(axis), None) = (axes.next(), axes.next()) else {
            return Bounds3::EVERYTHING;
        };
        let edge = self.offset / n[axis];
        if !edge.is_finite() {
            return Bounds3::EVERYTHING;
        }
        let slack = (edge.abs() + 1.0) * (16.0 * f64::EPSILON);
        let (mut min, mut max) = ([f64::NEG_INFINITY; 3], [f64::INFINITY; 3]);
        if n[axis] > 0.0 {
            max[axis] = edge + slack;
        } else {
            min[axis] = edge - slack;
        }
        Bounds3 { min: Vec3::from(min), max: Vec3::from(max) }
    }

    fn field(&self, p: Vec3) -> f64 {
        (self.normal.dot(p) - self.offset) / self.normal.length().max(f64::EPSILON)
    }
}

/// Union of two solids.
#[derive(Debug, Clone, Copy)]
pub struct Union<A, B>(pub A, pub B);

impl<A: Solid, B: Solid> Solid for Union<A, B> {
    fn contains(&self, p: Vec3) -> bool {
        self.0.contains(p) || self.1.contains(p)
    }

    fn bounds(&self) -> Bounds3 {
        self.0.bounds().hull(&self.1.bounds())
    }

    fn field(&self, p: Vec3) -> f64 {
        self.0.field(p).min(self.1.field(p))
    }
}

/// Intersection of two solids.
#[derive(Debug, Clone, Copy)]
pub struct Intersection<A, B>(pub A, pub B);

impl<A: Solid, B: Solid> Solid for Intersection<A, B> {
    fn contains(&self, p: Vec3) -> bool {
        self.0.contains(p) && self.1.contains(p)
    }

    fn bounds(&self) -> Bounds3 {
        self.0.bounds().intersect(&self.1.bounds())
    }

    fn field(&self, p: Vec3) -> f64 {
        self.0.field(p).max(self.1.field(p))
    }
}

/// Difference `A \ B`.
#[derive(Debug, Clone, Copy)]
pub struct Difference<A, B>(pub A, pub B);

impl<A: Solid, B: Solid> Solid for Difference<A, B> {
    fn contains(&self, p: Vec3) -> bool {
        self.0.contains(p) && !self.1.contains(p)
    }

    fn bounds(&self) -> Bounds3 {
        self.0.bounds()
    }

    fn field(&self, p: Vec3) -> f64 {
        self.0.field(p).max(-self.1.field(p))
    }
}

/// Complement of a solid.
#[derive(Debug, Clone, Copy)]
pub struct Complement<A>(pub A);

impl<A: Solid> Solid for Complement<A> {
    fn contains(&self, p: Vec3) -> bool {
        !self.0.contains(p)
    }

    fn bounds(&self) -> Bounds3 {
        Bounds3::EVERYTHING
    }

    fn field(&self, p: Vec3) -> f64 {
        -self.0.field(p)
    }
}

/// A solid transformed by an affine map: `p` is inside iff
/// `inverse(transform)(p)` is inside the base solid.
#[derive(Debug, Clone)]
pub struct Transformed<A> {
    base: A,
    forward: Affine3,
    inverse: Affine3,
}

impl<A: Solid> Transformed<A> {
    /// Wraps `base` so it appears moved by `transform`.
    ///
    /// # Panics
    /// Panics if `transform` is singular.
    #[expect(
        clippy::panic,
        reason = "documented '# Panics' invariant: transforming a solid by a singular affine map has no geometric meaning"
    )]
    pub fn new(base: A, transform: Affine3) -> Self {
        let inverse = match transform.inverse() {
            Some(inv) => inv,
            None => panic!("cannot transform a solid by a singular affine map"),
        };
        Transformed { base, forward: transform, inverse }
    }
}

impl<A: Solid> Solid for Transformed<A> {
    fn contains(&self, p: Vec3) -> bool {
        self.base.contains(self.inverse.apply(p))
    }

    fn bounds(&self) -> Bounds3 {
        let base = self.base.bounds();
        let ends = [base.min, base.max];
        if ends.iter().any(|e| !(e.x.is_finite() && e.y.is_finite() && e.z.is_finite())) {
            return Bounds3::EVERYTHING;
        }
        // An affine image of a box lies in the hull of its eight mapped
        // corners.
        let (mut min, mut max) = (Vec3::splat(f64::INFINITY), Vec3::splat(f64::NEG_INFINITY));
        for i in 0..8usize {
            let corner = Vec3::new(ends[i >> 2].x, ends[(i >> 1) & 1].y, ends[i & 1].z);
            let mapped = self.forward.apply(corner);
            min = min.min(mapped);
            max = max.max(mapped);
        }
        // `contains` tests `inverse(p)`, and `inverse ∘ forward` is the
        // identity only to rounding: widen by far more than that error.
        let reach =
            [min.x, min.y, min.z, max.x, max.y, max.z].into_iter().fold(1.0, |r, c| c.abs().max(r));
        let slack = Vec3::splat(reach * 1e-9);
        Bounds3 { min: min - slack, max: max + slack }
    }

    fn field(&self, p: Vec3) -> f64 {
        self.base.field(self.inverse.apply(p))
    }
}

impl<S: Solid + ?Sized> Solid for &S {
    fn contains(&self, p: Vec3) -> bool {
        (**self).contains(p)
    }

    fn bounds(&self) -> Bounds3 {
        (**self).bounds()
    }

    fn field(&self, p: Vec3) -> f64 {
        (**self).field(p)
    }
}

impl<S: Solid + ?Sized> Solid for Box<S> {
    fn contains(&self, p: Vec3) -> bool {
        (**self).contains(p)
    }

    fn bounds(&self) -> Bounds3 {
        (**self).bounds()
    }

    fn field(&self, p: Vec3) -> f64 {
        (**self).field(p)
    }
}

impl<S: Solid + ?Sized> Solid for std::sync::Arc<S> {
    fn contains(&self, p: Vec3) -> bool {
        (**self).contains(p)
    }

    fn bounds(&self) -> Bounds3 {
        (**self).bounds()
    }

    fn field(&self, p: Vec3) -> f64 {
        (**self).field(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sphere_membership_and_field_sign() {
        let s = Sphere::new(Vec3::new(5.0, 5.0, 5.0), 2.0);
        assert!(s.contains(Vec3::new(5.0, 5.0, 5.0)));
        assert!(s.contains(Vec3::new(6.9, 5.0, 5.0)));
        assert!(!s.contains(Vec3::new(7.1, 5.0, 5.0)));
        assert!(s.field(Vec3::new(5.0, 5.0, 5.0)) < 0.0);
        assert!(s.field(Vec3::new(10.0, 5.0, 5.0)) > 0.0);
        assert!(s.field(Vec3::new(7.0, 5.0, 5.0)).abs() < 1e-12);
    }

    #[test]
    fn ellipsoid_respects_anisotropy() {
        let e = Ellipsoid::new(Vec3::ZERO, Vec3::new(4.0, 1.0, 1.0));
        assert!(e.contains(Vec3::new(3.9, 0.0, 0.0)));
        assert!(!e.contains(Vec3::new(0.0, 1.1, 0.0)));
    }

    #[test]
    fn superquadric_exponent_two_is_ellipsoid() {
        let e = Ellipsoid::new(Vec3::ZERO, Vec3::new(3.0, 2.0, 1.0));
        let q = Superquadric::new(Vec3::ZERO, Vec3::new(3.0, 2.0, 1.0), 2.0);
        for p in [
            Vec3::new(1.0, 1.0, 0.2),
            Vec3::new(2.9, 0.0, 0.0),
            Vec3::new(2.0, 1.5, 0.5),
            Vec3::new(0.0, 0.0, 1.05),
        ] {
            assert_eq!(e.contains(p), q.contains(p), "{p:?}");
        }
    }

    #[test]
    fn high_exponent_superquadric_fills_corners() {
        // e -> infinity approaches the bounding box; the corner region an
        // ellipsoid misses must be inside for a boxy superquadric.
        let corner = Vec3::new(0.85, 0.85, 0.85);
        let ball = Superquadric::new(Vec3::ZERO, Vec3::ONE, 2.0);
        let boxy = Superquadric::new(Vec3::ZERO, Vec3::ONE, 10.0);
        assert!(!ball.contains(corner));
        assert!(boxy.contains(corner));
    }

    #[test]
    fn half_space_splits_hemispheres() {
        // The paper's "right brain hemisphere" selections are half-space
        // intersections with the head structure.
        let right = HalfSpace::new(Vec3::new(1.0, 0.0, 0.0), 64.0);
        assert!(right.contains(Vec3::new(10.0, 100.0, 3.0)));
        assert!(!right.contains(Vec3::new(65.0, 0.0, 0.0)));
    }

    #[test]
    fn csg_laws_pointwise() {
        let a = Sphere::new(Vec3::ZERO, 2.0);
        let b = Sphere::new(Vec3::new(1.5, 0.0, 0.0), 2.0);
        let pts = [
            Vec3::ZERO,
            Vec3::new(1.5, 0.0, 0.0),
            Vec3::new(-1.9, 0.0, 0.0),
            Vec3::new(3.4, 0.0, 0.0),
            Vec3::new(10.0, 10.0, 10.0),
        ];
        for p in pts {
            assert_eq!(Union(a, b).contains(p), a.contains(p) || b.contains(p));
            assert_eq!(Intersection(a, b).contains(p), a.contains(p) && b.contains(p));
            assert_eq!(Difference(a, b).contains(p), a.contains(p) && !b.contains(p));
            assert_eq!(Complement(a).contains(p), !a.contains(p));
        }
    }

    #[test]
    fn transformed_solid_moves() {
        let s = Sphere::new(Vec3::ZERO, 1.0);
        let moved = Transformed::new(s, Affine3::translation(Vec3::new(10.0, 0.0, 0.0)));
        assert!(moved.contains(Vec3::new(10.2, 0.0, 0.0)));
        assert!(!moved.contains(Vec3::ZERO));
    }

    #[test]
    fn box_field_is_signed_distance() {
        let b = SolidBox::new(Vec3::ZERO, Vec3::new(2.0, 2.0, 2.0));
        assert!((b.field(Vec3::new(3.0, 1.0, 1.0)) - 1.0).abs() < 1e-12);
        assert!((b.field(Vec3::new(1.0, 1.0, 1.0)) + 1.0).abs() < 1e-12);
        // corner distance
        let d = b.field(Vec3::new(3.0, 3.0, 3.0));
        assert!((d - (3.0f64).sqrt()).abs() < 1e-12);
    }

    /// Builds a random CSG tree from a stream of uniform `[0, 1)` draws:
    /// primitives at the leaves, every combinator (and an unbounded
    /// operand now and then) above them.
    fn arb_solid(draw: &mut impl FnMut() -> f64, depth: u32) -> Box<dyn Solid> {
        let mut point = |scale: f64| {
            Vec3::new((draw() - 0.5) * scale, (draw() - 0.5) * scale, (draw() - 0.5) * scale)
        };
        let center = point(8.0);
        let radii = point(3.0) + Vec3::splat(1.6);
        let kinds = if depth == 0 { 4.0 } else { 10.0 };
        match (draw() * kinds) as usize {
            0 => Box::new(Sphere::new(center, radii.x)),
            1 => Box::new(Ellipsoid::new(center, radii)),
            2 => Box::new(Superquadric::new(center, radii, 0.6 + draw() * 3.0)),
            3 => Box::new(SolidBox::new(center - radii, center + radii)),
            4 => Box::new(Union(arb_solid(draw, depth - 1), arb_solid(draw, depth - 1))),
            5 => Box::new(Intersection(arb_solid(draw, depth - 1), arb_solid(draw, depth - 1))),
            6 => Box::new(Difference(arb_solid(draw, depth - 1), arb_solid(draw, depth - 1))),
            7 => {
                // Now and then normal to one axis, the one-sided bounded case.
                let normal = match (draw() * 4.0) as usize {
                    0 => Vec3::new(radii.x, 0.0, 0.0),
                    1 => Vec3::new(0.0, -radii.y, 0.0),
                    _ => radii,
                };
                Box::new(Intersection(arb_solid(draw, depth - 1), HalfSpace::new(normal, draw())))
            }
            8 => Box::new(Difference(
                arb_solid(draw, depth - 1),
                Complement(arb_solid(draw, depth - 1)),
            )),
            _ => {
                let place = Affine3::rotation_z(draw() * 6.0)
                    .then(&Affine3::rotation_y(draw() * 6.0))
                    .then(&Affine3::scaling(radii * 0.5))
                    .then(&Affine3::translation(center));
                Box::new(Transformed::new(arb_solid(draw, depth - 1), place))
            }
        }
    }

    #[test]
    fn unbounded_solids_report_everything_and_boxes_are_exact() {
        let half = HalfSpace::new(Vec3::new(1.0, 1.0, 0.0), 2.0);
        assert_eq!(half.bounds(), Bounds3::EVERYTHING);
        assert_eq!(Complement(Sphere::new(Vec3::ZERO, 1.0)).bounds(), Bounds3::EVERYTHING);
        let b = SolidBox::new(Vec3::splat(-1.0), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.bounds(), Bounds3 { min: b.min, max: b.max });
        // ∩ with an unbounded operand keeps the bounded one's box; a
        // transformed unbounded solid stays unbounded.
        assert_eq!(Intersection(b, half).bounds(), b.bounds());
        let moved = Transformed::new(half, Affine3::rotation_z(0.4));
        assert_eq!(moved.bounds(), Bounds3::EVERYTHING);
        // Disjoint operands intersect to an empty box that holds nothing.
        let far = SolidBox::new(Vec3::splat(10.0), Vec3::splat(11.0));
        assert!(!Intersection(b, far).bounds().contains(Vec3::splat(10.5)));
    }

    #[test]
    fn an_axis_aligned_half_space_is_bounded_on_one_side() {
        let below = HalfSpace::new(Vec3::new(2.0, 0.0, 0.0), 3.0).bounds();
        assert!((below.max.x - 1.5).abs() < 1e-12 && below.max.x >= 1.5);
        assert_eq!(below.min.x, f64::NEG_INFINITY);
        assert_eq!((below.min.y, below.max.z), (f64::NEG_INFINITY, f64::INFINITY));
        let above = HalfSpace::new(Vec3::new(0.0, 0.0, -1.0), -4.0).bounds();
        assert!((above.min.z - 4.0).abs() < 1e-12 && above.min.z <= 4.0);
        assert_eq!(above.max.z, f64::INFINITY);
        // Points on the plane are inside the half-space and its bounds.
        for x in [1.5, 1.5 - 1e-15, -7.0] {
            let p = Vec3::new(x, 3.0, 9.0);
            let h = HalfSpace::new(Vec3::new(2.0, 0.0, 0.0), 3.0);
            assert_eq!(h.contains(p), below.contains(p), "{p:?}");
        }
    }

    #[test]
    fn ellipsoid_bounds_are_tight() {
        let e = Ellipsoid::new(Vec3::new(5.0, 6.0, 7.0), Vec3::new(1.0, 2.0, 3.0));
        let b = e.bounds();
        for (got, want) in [(b.min.x, 4.0), (b.max.y, 8.0), (b.min.z, 4.0), (b.max.z, 10.0)] {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    proptest! {
        #[test]
        fn contained_points_lie_inside_the_bounds(
            draws in proptest::collection::vec(0.0f64..1.0, 400),
            points in proptest::collection::vec(proptest::array::uniform3(-9.0f64..9.0), 300),
        ) {
            let mut draws = draws.into_iter().cycle();
            let solid = arb_solid(&mut || draws.next().unwrap_or(0.5), 3);
            let bounds = solid.bounds();
            for p in points {
                let p = Vec3::from(p);
                if solid.contains(p) {
                    prop_assert!(bounds.contains(p), "{p:?} inside the solid but outside {bounds:?}");
                }
            }
        }

        #[test]
        fn field_sign_agrees_with_contains(p in proptest::array::uniform3(-5.0f64..5.0)) {
            let p = Vec3::from(p);
            let solids: Vec<Box<dyn Solid>> = vec![
                Box::new(Sphere::new(Vec3::ZERO, 2.0)),
                Box::new(Ellipsoid::new(Vec3::ZERO, Vec3::new(3.0, 1.0, 2.0))),
                Box::new(Superquadric::new(Vec3::ZERO, Vec3::new(2.0, 2.0, 1.0), 3.0)),
                Box::new(SolidBox::new(Vec3::splat(-1.5), Vec3::splat(1.5))),
                Box::new(HalfSpace::new(Vec3::new(0.0, 1.0, 0.0), 0.5)),
            ];
            for s in &solids {
                // strictly negative field => inside; strictly positive => outside.
                let f = s.field(p);
                if f < -1e-9 {
                    prop_assert!(s.contains(p));
                }
                if f > 1e-9 {
                    prop_assert!(!s.contains(p));
                }
            }
        }

        #[test]
        fn de_morgan_for_solids(p in proptest::array::uniform3(-4.0f64..4.0)) {
            let p = Vec3::from(p);
            let a = Sphere::new(Vec3::ZERO, 2.0);
            let b = SolidBox::new(Vec3::splat(-1.0), Vec3::splat(3.0));
            let lhs = Complement(Union(a, b)).contains(p);
            let rhs = Intersection(Complement(a), Complement(b)).contains(p);
            prop_assert_eq!(lhs, rhs);
        }
    }
}
