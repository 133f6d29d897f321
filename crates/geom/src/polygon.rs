//! Simple polygons: containment, area, sampling support.

use crate::vec2::{point_segment_distance, segment_intersection};
use crate::{Aabb, Vec2};
use serde::{Deserialize, Serialize};

/// How far outside its bounding box [`Polygon::contains`] still runs the
/// exact tests: far above [`crate::EPSILON`], the boundary tolerance, and
/// far above the rounding error of coordinates on the scale of a map.
const CONTAINS_MARGIN: f64 = 1e-6;

/// A simple polygon, stored as a ring of vertices in anticlockwise order.
///
/// Constructors normalize the winding; self-intersecting rings are not
/// detected and yield unspecified results from the area/containment
/// predicates (matching the usual computational-geometry contract).
///
/// # Example
///
/// ```
/// use scenic_geom::{Polygon, Vec2};
/// let tri = Polygon::new(vec![
///     Vec2::new(0.0, 0.0),
///     Vec2::new(4.0, 0.0),
///     Vec2::new(0.0, 3.0),
/// ]);
/// assert!((tri.area() - 6.0).abs() < 1e-12);
/// assert!(tri.contains(Vec2::new(1.0, 1.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polygon {
    vertices: Vec<Vec2>,
}

impl Polygon {
    /// Creates a polygon from a vertex ring, normalizing to anticlockwise
    /// winding.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 3 vertices are supplied.
    pub fn new(mut vertices: Vec<Vec2>) -> Self {
        assert!(vertices.len() >= 3, "polygon needs at least 3 vertices");
        if signed_area(&vertices) < 0.0 {
            vertices.reverse();
        }
        Polygon { vertices }
    }

    /// Axis-aligned rectangle centered at `center`.
    pub fn rectangle(center: Vec2, width: f64, height: f64) -> Self {
        let hw = width / 2.0;
        let hh = height / 2.0;
        Polygon::new(vec![
            center + Vec2::new(-hw, -hh),
            center + Vec2::new(hw, -hh),
            center + Vec2::new(hw, hh),
            center + Vec2::new(-hw, hh),
        ])
    }

    /// Regular `n`-gon approximation of a disc, used for Minkowski
    /// dilation by a disc (§5.2 pruning).
    pub fn regular(center: Vec2, radius: f64, n: usize) -> Self {
        assert!(n >= 3, "regular polygon needs at least 3 sides");
        let verts = (0..n)
            .map(|i| {
                let theta = i as f64 * std::f64::consts::TAU / n as f64;
                center + Vec2::new(radius * theta.cos(), radius * theta.sin())
            })
            .collect();
        Polygon::new(verts)
    }

    /// The vertices in anticlockwise order.
    pub fn vertices(&self) -> &[Vec2] {
        &self.vertices
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always false: a polygon has at least 3 vertices.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterator over directed edges `(a, b)`.
    pub fn edges(&self) -> impl Iterator<Item = (Vec2, Vec2)> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| (self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Polygon area (non-negative).
    pub fn area(&self) -> f64 {
        signed_area(&self.vertices).abs()
    }

    /// Area centroid.
    pub fn centroid(&self) -> Vec2 {
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut a = 0.0;
        for (p, q) in self.edges() {
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
            a += w;
        }
        if a.abs() < crate::EPSILON {
            // Degenerate: fall back to the vertex mean.
            let n = self.vertices.len() as f64;
            let sum = self.vertices.iter().fold(Vec2::ZERO, |s, &v| s + v);
            return sum / n;
        }
        Vec2::new(cx / (3.0 * a), cy / (3.0 * a))
    }

    /// Point-in-polygon test (even-odd crossing rule); points within
    /// [`crate::EPSILON`] of the boundary count as inside.
    ///
    /// The tests run cheapest first, and the result is the same boolean
    /// as `distance_to_boundary(p) < EPSILON || crossing(p)`. A point
    /// outside the bounding box inflated by `CONTAINS_MARGIN` (1e-6) is
    /// farther than that margin (far above `EPSILON`) from every edge,
    /// and its horizontal ray crosses the ring an even number of times
    /// or not at all, so both terms are false and it is rejected
    /// without either test. Otherwise the crossing test decides, and
    /// only a point it puts outside pays for the per-edge distance.
    pub fn contains(&self, p: Vec2) -> bool {
        self.aabb().inflated(CONTAINS_MARGIN).contains(p)
            && (self.crossing(p) || self.distance_to_boundary(p) < crate::EPSILON)
    }

    /// The even-odd crossing rule: whether a ray from `p` towards +x
    /// crosses the ring an odd number of times.
    fn crossing(&self, p: Vec2) -> bool {
        let mut inside = false;
        for (a, b) in self.edges() {
            if (a.y > p.y) != (b.y > p.y) {
                let x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
        }
        inside
    }

    /// Distance from `p` to the polygon boundary (zero on the boundary).
    pub fn distance_to_boundary(&self, p: Vec2) -> f64 {
        self.edges()
            .map(|(a, b)| point_segment_distance(p, a, b))
            .fold(f64::INFINITY, f64::min)
    }

    /// Signed distance: negative inside, positive outside.
    pub fn signed_distance(&self, p: Vec2) -> f64 {
        let d = self.distance_to_boundary(p);
        if self.contains(p) {
            -d
        } else {
            d
        }
    }

    /// Whether the polygon is convex (allowing collinear vertices).
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            let c = self.vertices[(i + 2) % n];
            if (b - a).cross(c - b) < -crate::EPSILON {
                return false;
            }
        }
        true
    }

    /// Axis-aligned bounding box.
    pub fn aabb(&self) -> Aabb {
        Aabb::from_points(self.vertices.iter().copied()).expect("polygon has at least 3 vertices")
    }

    /// Translates every vertex by `offset`.
    pub fn translated(&self, offset: Vec2) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&v| v + offset).collect(),
        }
    }

    /// Rotates every vertex about `pivot` by `theta` radians
    /// anticlockwise.
    pub fn rotated_about(&self, pivot: Vec2, theta: f64) -> Polygon {
        Polygon::new(
            self.vertices
                .iter()
                .map(|&v| pivot + (v - pivot).rotated(theta))
                .collect(),
        )
    }

    /// Whether this polygon intersects another (shared area, edge
    /// crossings, or full containment).
    pub fn intersects(&self, other: &Polygon) -> bool {
        if !self.aabb().intersects(&other.aabb()) {
            return false;
        }
        for (a1, a2) in self.edges() {
            for (b1, b2) in other.edges() {
                if segment_intersection(a1, a2, b1, b2).is_some() {
                    return true;
                }
            }
        }
        self.contains(other.vertices[0]) || other.contains(self.vertices[0])
    }

    /// The maximum "width" of the polygon across the direction
    /// perpendicular to `heading` — used by pruning-by-size
    /// (Algorithm 3's `narrow` subroutine).
    pub fn extent_across(&self, heading: crate::Heading) -> f64 {
        // Project vertices onto the axis perpendicular to the heading
        // direction (the local x-axis).
        let right = heading.direction().rotated(-std::f64::consts::FRAC_PI_2);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.vertices {
            let t = v.dot(right);
            lo = lo.min(t);
            hi = hi.max(t);
        }
        hi - lo
    }
}

fn signed_area(vertices: &[Vec2]) -> f64 {
    let n = vertices.len();
    let mut sum = 0.0;
    for i in 0..n {
        sum += vertices[i].cross(vertices[(i + 1) % n]);
    }
    sum / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Heading;
    use proptest::prelude::*;

    /// The oracle for [`Polygon::contains`]: the same tests in the
    /// original order, boundary distance first.
    fn contains_distance_first(poly: &Polygon, p: Vec2) -> bool {
        poly.distance_to_boundary(p) < crate::EPSILON || poly.crossing(p)
    }

    /// The concave L-shape of `concave_containment`, scaled.
    fn l_shape(size: f64) -> Polygon {
        Polygon::new(
            [
                (0.0, 0.0),
                (2.0, 0.0),
                (2.0, 1.0),
                (1.0, 1.0),
                (1.0, 2.0),
                (0.0, 2.0),
            ]
            .iter()
            .map(|&(x, y)| Vec2::new(x, y) * size)
            .collect(),
        )
    }

    /// Points that probe every branch of `contains`: each vertex; a point
    /// on each edge and points off it by `1e-9` and `1e-6` (the tolerance
    /// and the box margin) and just either side of those; points spread
    /// over the box and a ring around it; the inflated box's edges; and
    /// far-away points. `t` and `s` (in `[0, 1]`) pick positions.
    fn probes(poly: &Polygon, t: f64, s: f64) -> Vec<Vec2> {
        let mut points = Vec::new();
        for (a, b) in poly.edges() {
            points.push(a);
            let on_edge = a + (b - a) * t;
            points.push(on_edge);
            let normal = (b - a).rotated(std::f64::consts::FRAC_PI_2) / (b - a).norm();
            for d in [1e-9, 0.9e-9, 1.1e-9, 1e-6, 0.9e-6, 1.1e-6, 1e-3] {
                points.push(on_edge + normal * d);
                points.push(on_edge - normal * d);
            }
        }
        let bb = poly.aabb();
        let (w, h) = (bb.width(), bb.height());
        for k in 0..5 {
            let f = k as f64 / 4.0;
            points.push(bb.min + Vec2::new(w * t, h * f));
            points.push(bb.min + Vec2::new(w * f, h * s));
            // A ring around the box, a quarter of its size out.
            points.push(bb.min + Vec2::new(w * (1.5 * f - 0.25), -0.25 * h));
            points.push(bb.min + Vec2::new(-0.25 * w, h * (1.5 * f - 0.25)));
        }
        for margin in [
            CONTAINS_MARGIN,
            0.9 * CONTAINS_MARGIN,
            1.1 * CONTAINS_MARGIN,
        ] {
            let outer = bb.inflated(margin);
            points.push(Vec2::new(outer.min.x, bb.min.y + h * s));
            points.push(Vec2::new(outer.max.x, bb.min.y + h * s));
            points.push(Vec2::new(bb.min.x + w * t, outer.min.y));
            points.push(Vec2::new(bb.min.x + w * t, outer.max.y));
        }
        for far in [
            Vec2::new(1e4, 0.0),
            Vec2::new(-3e3, 7e3),
            Vec2::new(0.0, -1e5),
        ] {
            points.push(bb.center() + far);
        }
        points
    }

    proptest! {
        #[test]
        fn cheapest_first_contains_matches_distance_first(
            shape in 0u8..4,
            cx in -500.0..500.0f64,
            cy in -500.0..500.0f64,
            size in 0.01..40.0f64,
            aspect in 0.1..10.0f64,
            theta in -3.2..3.2f64,
            n in 3usize..16,
            t in 0.0..1.0f64,
            s in 0.0..1.0f64,
        ) {
            let center = Vec2::new(cx, cy);
            let poly = match shape {
                0 => Polygon::rectangle(center, size, size * aspect),
                1 => Polygon::rectangle(center, size, size * aspect).rotated_about(center, theta),
                2 => Polygon::regular(center, size, n),
                _ => l_shape(size).rotated_about(Vec2::ZERO, theta).translated(center),
            };
            for p in probes(&poly, t, s) {
                prop_assert!(
                    poly.contains(p) == contains_distance_first(&poly, p),
                    "{p} against {poly:?}"
                );
            }
        }
    }

    fn unit_square() -> Polygon {
        Polygon::rectangle(Vec2::new(0.5, 0.5), 1.0, 1.0)
    }

    #[test]
    fn winding_is_normalized() {
        let cw = Polygon::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(0.0, 1.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(1.0, 0.0),
        ]);
        assert!(signed_area(cw.vertices()) > 0.0);
    }

    #[test]
    fn rectangle_area_and_centroid() {
        let r = Polygon::rectangle(Vec2::new(3.0, -2.0), 4.0, 6.0);
        assert!((r.area() - 24.0).abs() < 1e-12);
        assert!(r.centroid().approx_eq(Vec2::new(3.0, -2.0), 1e-12));
    }

    #[test]
    fn containment() {
        let sq = unit_square();
        assert!(sq.contains(Vec2::new(0.5, 0.5)));
        assert!(sq.contains(Vec2::new(0.0, 0.5))); // boundary
        assert!(!sq.contains(Vec2::new(1.5, 0.5)));
        assert!(!sq.contains(Vec2::new(-0.1, -0.1)));
    }

    #[test]
    fn concave_containment() {
        // An L-shape: the notch must not be inside.
        let l = Polygon::new(vec![
            Vec2::new(0.0, 0.0),
            Vec2::new(2.0, 0.0),
            Vec2::new(2.0, 1.0),
            Vec2::new(1.0, 1.0),
            Vec2::new(1.0, 2.0),
            Vec2::new(0.0, 2.0),
        ]);
        assert!(l.contains(Vec2::new(0.5, 1.5)));
        assert!(l.contains(Vec2::new(1.5, 0.5)));
        assert!(!l.contains(Vec2::new(1.5, 1.5)));
        assert!(!l.is_convex());
        assert!((l.area() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn distance_to_boundary() {
        let sq = unit_square();
        assert!((sq.distance_to_boundary(Vec2::new(0.5, 0.5)) - 0.5).abs() < 1e-12);
        assert!((sq.distance_to_boundary(Vec2::new(2.0, 0.5)) - 1.0).abs() < 1e-12);
        assert!((sq.signed_distance(Vec2::new(0.5, 0.5)) + 0.5).abs() < 1e-12);
        assert!(sq.signed_distance(Vec2::new(2.0, 0.5)) > 0.0);
    }

    #[test]
    fn convexity() {
        assert!(unit_square().is_convex());
        assert!(Polygon::regular(Vec2::ZERO, 2.0, 12).is_convex());
    }

    #[test]
    fn regular_polygon_approximates_disc() {
        let p = Polygon::regular(Vec2::ZERO, 1.0, 64);
        assert!((p.area() - std::f64::consts::PI).abs() < 0.01);
    }

    #[test]
    fn intersects_cases() {
        let a = unit_square();
        let b = a.translated(Vec2::new(0.5, 0.5));
        let c = a.translated(Vec2::new(5.0, 5.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        // Full containment (no edge crossings).
        let inner = Polygon::rectangle(Vec2::new(0.5, 0.5), 0.2, 0.2);
        assert!(a.intersects(&inner));
        assert!(inner.intersects(&a));
    }

    #[test]
    fn extent_across_axis_aligned() {
        let r = Polygon::rectangle(Vec2::ZERO, 4.0, 10.0);
        // Facing North, the cross-road extent is the width (4).
        assert!((r.extent_across(Heading::NORTH) - 4.0).abs() < 1e-12);
        // Facing West, the extent across is the height (10).
        let west = Heading::from_degrees(90.0);
        assert!((r.extent_across(west) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_about_pivot() {
        let r = Polygon::rectangle(Vec2::new(2.0, 0.0), 2.0, 2.0);
        let rotated = r.rotated_about(Vec2::ZERO, std::f64::consts::PI);
        assert!(rotated.centroid().approx_eq(Vec2::new(-2.0, 0.0), 1e-9));
        assert!((rotated.area() - 4.0).abs() < 1e-9);
    }
}
