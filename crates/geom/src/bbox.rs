//! Axis-aligned and oriented bounding boxes.
//!
//! Every Scenic `Object` has a bounding box determined by its `position`,
//! `heading`, `width`, and `height` (Table 2). The default requirements
//! (§3: containment, no collisions, visibility) are defined on these
//! boxes, so intersection tests must be exact; we use the separating-axis
//! theorem for box–box tests and polygon conversion for everything else.

use crate::{Heading, Polygon, Vec2};
use serde::{Deserialize, Serialize};

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec2,
    /// Maximum corner.
    pub max: Vec2,
}

impl Aabb {
    /// Box spanning the two corners (in any order).
    pub fn new(a: Vec2, b: Vec2) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Smallest box containing all points; `None` for an empty iterator.
    pub fn from_points(points: impl IntoIterator<Item = Vec2>) -> Option<Self> {
        let mut iter = points.into_iter();
        let first = iter.next()?;
        let mut bb = Aabb {
            min: first,
            max: first,
        };
        for p in iter {
            bb.min = bb.min.min(p);
            bb.max = bb.max.max(p);
        }
        Some(bb)
    }

    /// Width along x.
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Center point.
    pub fn center(&self) -> Vec2 {
        (self.min + self.max) * 0.5
    }

    /// Whether `p` lies inside (inclusive).
    pub fn contains(&self, p: Vec2) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Whether two boxes overlap (inclusive).
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// The smallest box containing both.
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Grows the box by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> Aabb {
        Aabb {
            min: self.min - Vec2::new(margin, margin),
            max: self.max + Vec2::new(margin, margin),
        }
    }

    /// Uniformly samples a point inside the box.
    pub fn sample(&self, rng: &mut impl rand::Rng) -> Vec2 {
        Vec2::new(
            rng.gen_range(self.min.x..=self.max.x),
            rng.gen_range(self.min.y..=self.max.y),
        )
    }
}

/// An oriented rectangle: the bounding box of a Scenic `Object`.
///
/// `width` extends along the local x-axis (left–right), `height` along the
/// local y-axis (back–front), matching Table 2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OrientedBox {
    /// Center of the box (the object's `position`).
    pub center: Vec2,
    /// Orientation of the local y-axis.
    pub heading: Heading,
    /// Extent along the local x-axis.
    pub width: f64,
    /// Extent along the local y-axis.
    pub height: f64,
}

impl OrientedBox {
    /// Creates an oriented box.
    pub fn new(center: Vec2, heading: Heading, width: f64, height: f64) -> Self {
        OrientedBox {
            center,
            heading,
            width,
            height,
        }
    }

    /// Transforms a local offset `(dx, dy)` (x right, y forward) into a
    /// world-space point: the paper's `offsetLocal`.
    pub fn offset_local(&self, offset: Vec2) -> Vec2 {
        self.center + offset.rotated(self.heading.radians())
    }

    /// The four corners, anticlockwise starting from front-right.
    pub fn corners(&self) -> [Vec2; 4] {
        let hw = self.width / 2.0;
        let hh = self.height / 2.0;
        [
            self.offset_local(Vec2::new(hw, hh)),
            self.offset_local(Vec2::new(-hw, hh)),
            self.offset_local(Vec2::new(-hw, -hh)),
            self.offset_local(Vec2::new(hw, -hh)),
        ]
    }

    /// Converts to a polygon.
    pub fn to_polygon(&self) -> Polygon {
        Polygon::new(self.corners().to_vec())
    }

    /// Axis-aligned bounding box of the corners.
    pub fn aabb(&self) -> Aabb {
        Aabb::from_points(self.corners()).expect("four corners")
    }

    /// Radius of the smallest disc centered at `center` containing the
    /// box; an upper bound for containment pruning.
    pub fn circumradius(&self) -> f64 {
        0.5 * (self.width * self.width + self.height * self.height).sqrt()
    }

    /// Radius of the largest disc centered at `center` inside the box:
    /// the `minRadius` lower bound of the containment-pruning technique
    /// (§5.2).
    pub fn inradius(&self) -> f64 {
        (self.width / 2.0).min(self.height / 2.0)
    }

    /// Whether `p` lies inside the box (inclusive).
    pub fn contains(&self, p: Vec2) -> bool {
        let local = (p - self.center).rotated(-self.heading.radians());
        local.x.abs() <= self.width / 2.0 + crate::EPSILON
            && local.y.abs() <= self.height / 2.0 + crate::EPSILON
    }

    /// Whether this box lies clear of every box within `radius` of `p`:
    /// where it returns true, [`OrientedBox::intersects`] is false
    /// against each of them. Decided from the circumscribed discs with a
    /// rounding slack, which covers `intersects`' `EPSILON` since the
    /// separating-axis gap of two boxes is at least `1/√2` of their
    /// distance. `false` whenever this box or `p` is not finite.
    pub fn clear_of_disc(&self, p: Vec2, radius: f64) -> bool {
        let finite = self.center.is_finite()
            && p.is_finite()
            && self.heading.radians().is_finite()
            && self.width.is_finite()
            && self.height.is_finite();
        let reach = self.circumradius() + radius;
        let scale = crate::magnitude(self.center) + crate::magnitude(p) + reach;
        let clear = reach + crate::disc_slack(scale);
        finite && (self.center - p).norm_squared() > clear * clear
    }

    /// Exact box–box intersection via the separating-axis theorem.
    pub fn intersects(&self, other: &OrientedBox) -> bool {
        let ca = self.corners();
        let cb = other.corners();
        let axes = [
            self.heading.direction(),
            self.heading.direction().perp(),
            other.heading.direction(),
            other.heading.direction().perp(),
        ];
        for axis in axes {
            let (a_lo, a_hi) = project(&ca, axis);
            let (b_lo, b_hi) = project(&cb, axis);
            if a_hi < b_lo - crate::EPSILON || b_hi < a_lo - crate::EPSILON {
                return false;
            }
        }
        true
    }
}

fn project(points: &[Vec2; 4], axis: Vec2) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &p in points {
        let t = p.dot(axis);
        lo = lo.min(t);
        hi = hi.max(t);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn aabb_basics() {
        let bb = Aabb::new(Vec2::new(2.0, 3.0), Vec2::new(-1.0, 1.0));
        assert_eq!(bb.min, Vec2::new(-1.0, 1.0));
        assert_eq!(bb.max, Vec2::new(2.0, 3.0));
        assert!((bb.width() - 3.0).abs() < 1e-12);
        assert!((bb.height() - 2.0).abs() < 1e-12);
        assert!(bb.contains(Vec2::new(0.0, 2.0)));
        assert!(!bb.contains(Vec2::new(0.0, 0.0)));
    }

    #[test]
    fn aabb_intersection_and_union() {
        let a = Aabb::new(Vec2::ZERO, Vec2::new(2.0, 2.0));
        let b = Aabb::new(Vec2::new(1.0, 1.0), Vec2::new(3.0, 3.0));
        let c = Aabb::new(Vec2::new(5.0, 5.0), Vec2::new(6.0, 6.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let u = a.union(&c);
        assert_eq!(u.min, Vec2::ZERO);
        assert_eq!(u.max, Vec2::new(6.0, 6.0));
    }

    #[test]
    fn oriented_box_corners_face_north() {
        let b = OrientedBox::new(Vec2::ZERO, Heading::NORTH, 2.0, 4.0);
        let corners = b.corners();
        // Front-right corner is (1, 2) when facing North.
        assert!(corners[0].approx_eq(Vec2::new(1.0, 2.0), 1e-12));
        assert!(corners[2].approx_eq(Vec2::new(-1.0, -2.0), 1e-12));
    }

    #[test]
    fn oriented_box_rotated_corners() {
        // Facing West (90° ccw), "forward" is -x.
        let b = OrientedBox::new(Vec2::ZERO, Heading(FRAC_PI_2), 2.0, 4.0);
        let corners = b.corners();
        // Front-right local (1, 2) maps to world (-2, -1)... verify by
        // rotation: (1,2) rotated 90° ccw = (-2, 1).
        assert!(corners[0].approx_eq(Vec2::new(-2.0, 1.0), 1e-12));
    }

    #[test]
    fn sat_detects_rotated_overlap() {
        let a = OrientedBox::new(Vec2::ZERO, Heading::NORTH, 2.0, 2.0);
        let b = OrientedBox::new(Vec2::new(1.9, 0.0), Heading::from_degrees(45.0), 2.0, 2.0);
        assert!(a.intersects(&b));
        let far = OrientedBox::new(Vec2::new(4.0, 0.0), Heading::from_degrees(45.0), 2.0, 2.0);
        assert!(!a.intersects(&far));
    }

    #[test]
    fn sat_diagonal_gap() {
        // Two unit boxes at 45° can be closer than sqrt(2) without
        // touching corner-to-corner; SAT must find the diagonal axis.
        let a = OrientedBox::new(Vec2::ZERO, Heading::from_degrees(45.0), 1.0, 1.0);
        let b = OrientedBox::new(Vec2::new(1.5, 1.5), Heading::from_degrees(45.0), 1.0, 1.0);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn box_contains() {
        let b = OrientedBox::new(Vec2::new(1.0, 1.0), Heading::from_degrees(90.0), 2.0, 6.0);
        // Facing West: height extends along -x/+x.
        assert!(b.contains(Vec2::new(3.5, 1.0)));
        assert!(!b.contains(Vec2::new(1.0, 3.5)));
    }

    #[test]
    fn radii() {
        let b = OrientedBox::new(Vec2::ZERO, Heading::NORTH, 6.0, 8.0);
        assert!((b.circumradius() - 5.0).abs() < 1e-12);
        assert!((b.inradius() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn boxes_clear_of_a_disc_never_intersect_a_box_inside_it() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut cleared = 0;
        for _ in 0..4000 {
            let fixed = OrientedBox::new(
                Vec2::new(rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)),
                Heading(rng.gen_range(-4.0..4.0)),
                rng.gen_range(0.0..6.0),
                rng.gen_range(0.0..6.0),
            );
            let p = Vec2::new(rng.gen_range(-15.0..15.0), rng.gen_range(-15.0..15.0));
            let radius = rng.gen_range(0.0..6.0);
            if !fixed.clear_of_disc(p, radius) {
                continue;
            }
            cleared += 1;
            // The largest boxes the disc holds, at every heading.
            let split = rng.gen_range(0.0..FRAC_PI_2);
            let inside = OrientedBox::new(
                p,
                Heading(rng.gen_range(-4.0..4.0)),
                2.0 * radius * split.cos(),
                2.0 * radius * split.sin(),
            );
            assert!(!fixed.intersects(&inside), "{fixed:?} against {inside:?}");
        }
        assert!(cleared > 1000, "only {cleared} cases exercised");
        let b = OrientedBox::new(Vec2::ZERO, Heading::NORTH, 6.0, 8.0);
        assert!(b.clear_of_disc(Vec2::new(0.0, 10.1), 5.0));
        assert!(!b.clear_of_disc(Vec2::new(0.0, 9.9), 5.0));
        let nan = OrientedBox::new(Vec2::ZERO, Heading(f64::NAN), 6.0, 8.0);
        assert!(!nan.clear_of_disc(Vec2::new(0.0, 100.0), 5.0));
        assert!(!b.clear_of_disc(Vec2::new(0.0, f64::INFINITY), 5.0));
    }
}
