//! Circular sectors: the view cones of `Point`/`OrientedPoint`.
//!
//! The paper's visibility model (§4.2): a `Point` can see a disc of
//! radius `viewDistance`; an `OrientedPoint` restricts this to the sector
//! along its heading with angle `viewAngle`. A sector with angle ≥ 360°
//! degenerates to the full disc.

use crate::{Heading, Polygon, Vec2};
use serde::{Deserialize, Serialize};

/// A circular sector (or full disc when `angle >= 2π`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sector {
    /// Apex of the sector.
    pub center: Vec2,
    /// Radius.
    pub radius: f64,
    /// Central direction of the cone.
    pub heading: Heading,
    /// Full opening angle in radians.
    pub angle: f64,
}

impl Sector {
    /// A full disc.
    pub fn disc(center: Vec2, radius: f64) -> Self {
        Sector {
            center,
            radius,
            heading: Heading::NORTH,
            angle: std::f64::consts::TAU,
        }
    }

    /// A cone of opening `angle` about `heading`.
    pub fn cone(center: Vec2, radius: f64, heading: Heading, angle: f64) -> Self {
        Sector {
            center,
            radius,
            heading,
            angle,
        }
    }

    /// Whether the sector is a full disc.
    pub fn is_disc(&self) -> bool {
        self.angle >= std::f64::consts::TAU - crate::EPSILON
    }

    /// Whether `p` lies inside the sector (inclusive).
    ///
    /// A point outside the square about the apex that circumscribes the
    /// disc is rejected before the distance is computed. That is exact:
    /// when neither coordinate of the offset is NaN, `hypot(x, y) >=
    /// max(|x|, |y|)`, so the square rejects only points the distance
    /// test rejects too. A NaN coordinate makes the distance NaN (unless
    /// the other one is infinite), which the distance test lets through,
    /// so such an offset skips the square. The argument holds for every
    /// radius, NaN, zero, negative and infinite included.
    pub fn contains(&self, p: Vec2) -> bool {
        let d = p - self.center;
        let reach = self.radius + crate::EPSILON;
        if (d.x.abs() > reach || d.y.abs() > reach) && !d.x.is_nan() && !d.y.is_nan() {
            return false;
        }
        let distance = d.norm();
        if distance > reach {
            return false;
        }
        if self.is_disc() || distance < crate::EPSILON {
            return true;
        }
        let dir = Heading::of_vector(d);
        self.heading.abs_difference(dir) <= self.angle / 2.0 + crate::EPSILON
    }

    /// Area of the sector.
    pub fn area(&self) -> f64 {
        let sweep = self.angle.min(std::f64::consts::TAU);
        0.5 * sweep * self.radius * self.radius
    }

    /// Uniformly samples a point inside the sector.
    pub fn sample(&self, rng: &mut impl rand::Rng) -> Vec2 {
        let sweep = self.angle.min(std::f64::consts::TAU);
        let theta = self.heading.radians() + rng.gen_range(-sweep / 2.0..=sweep / 2.0);
        let r = self.radius * rng.gen::<f64>().sqrt();
        self.center + Heading(theta).direction() * r
    }

    /// Polygonal over-approximation (circumscribed), `n` segments.
    pub fn to_polygon(&self, n: usize) -> Polygon {
        let n = n.max(3);
        let sweep = self.angle.min(std::f64::consts::TAU);
        let step = sweep / n as f64;
        // Circumscribe the arc so the polygon contains the sector.
        let r = self.radius / (step / 2.0).cos();
        let mut verts = Vec::with_capacity(n + 2);
        if !self.is_disc() {
            verts.push(self.center);
        }
        for k in 0..=n {
            let theta = self.heading.radians() - sweep / 2.0 + step * k as f64;
            let radius = if k == 0 || k == n { self.radius } else { r };
            verts.push(self.center + Heading(theta).direction() * radius);
        }
        if self.is_disc() {
            verts.pop(); // last == first
        }
        Polygon::new(verts)
    }

    /// Whether the sector intersects a polygon (shared point).
    ///
    /// Exact up to the arc: we check (1) polygon vertices in the sector,
    /// (2) the apex in the polygon, (3) boundary-ray/edge crossings, and
    /// (4) closest approach of edges to the apex within the cone.
    pub fn intersects_polygon(&self, poly: &Polygon) -> bool {
        if poly.vertices().iter().any(|&v| self.contains(v)) {
            return true;
        }
        if poly.contains(self.center) {
            return true;
        }
        // The two straight boundary rays (for non-disc sectors).
        if !self.is_disc() {
            let half = self.angle / 2.0;
            for side in [-half, half] {
                let dir = Heading(self.heading.radians() + side).direction();
                let end = self.center + dir * self.radius;
                for (a, b) in poly.edges() {
                    if crate::vec2::segment_intersection(self.center, end, a, b).is_some() {
                        return true;
                    }
                }
            }
        }
        // Edges passing through the cone interior: find the closest point
        // of each edge to the apex and test it.
        for (a, b) in poly.edges() {
            let ab = b - a;
            let len2 = ab.norm_squared();
            if len2 < crate::EPSILON {
                continue;
            }
            let t = ((self.center - a).dot(ab) / len2).clamp(0.0, 1.0);
            let closest = a + ab * t;
            if self.contains(closest) {
                return true;
            }
            // Also sample the edge midpoint region against the arc: an
            // edge can cross the arc without its closest point being
            // inside (chord through the rim). Check both intersections of
            // the edge with the circle.
            for p in circle_segment_intersections(self.center, self.radius, a, b) {
                if self.contains(p) {
                    return true;
                }
            }
        }
        false
    }
}

/// Intersections of the circle `(center, radius)` with segment `a`-`b`.
fn circle_segment_intersections(center: Vec2, radius: f64, a: Vec2, b: Vec2) -> Vec<Vec2> {
    let d = b - a;
    let f = a - center;
    let qa = d.norm_squared();
    if qa < crate::EPSILON {
        return Vec::new();
    }
    let qb = 2.0 * f.dot(d);
    let qc = f.norm_squared() - radius * radius;
    let disc = qb * qb - 4.0 * qa * qc;
    if disc < 0.0 {
        return Vec::new();
    }
    let sqrt_disc = disc.sqrt();
    let mut out = Vec::new();
    for sign in [-1.0, 1.0] {
        let t = (-qb + sign * sqrt_disc) / (2.0 * qa);
        if (0.0..=1.0).contains(&t) {
            out.push(a + d * t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `contains` as it was before the square early-out: the oracle.
    fn contains_by_distance(s: &Sector, p: Vec2) -> bool {
        let d = p - s.center;
        if d.norm() > s.radius + crate::EPSILON {
            return false;
        }
        if s.is_disc() || d.norm() < crate::EPSILON {
            return true;
        }
        let dir = Heading::of_vector(d);
        s.heading.abs_difference(dir) <= s.angle / 2.0 + crate::EPSILON
    }

    /// A radius from each case: ordinary, zero, negative, infinite, NaN.
    fn radius_from(branch: u8, r: f64) -> f64 {
        match branch % 6 {
            0 | 1 => r,
            2 => 0.0,
            3 => -r,
            4 => f64::INFINITY,
            _ => f64::NAN,
        }
    }

    /// An offset from the apex from each case: anywhere in a box a bit
    /// larger than the disc's square, within 1e-9 of the circle or of the
    /// square's edges (inside and out), the apex itself, and NaN or
    /// infinite coordinates.
    fn offset_from(branch: u8, reach: f64, t: f64, u: f64, jitter: f64) -> Vec2 {
        let r = if reach.is_finite() { reach } else { 50.0 };
        match branch % 8 {
            0 | 1 => Vec2::new(r * 1.5 * t, r * 1.5 * u),
            2 => Heading(std::f64::consts::TAU * t).direction() * (r + jitter),
            3 => Vec2::new(r + jitter, r * u),
            4 => Vec2::new(r * t, -(r + jitter)),
            5 => Vec2::ZERO,
            6 => Vec2::new(if u > 0.0 { f64::NAN } else { f64::INFINITY }, r * t),
            _ => Vec2::new(r * t, if u > 0.0 { f64::NEG_INFINITY } else { f64::NAN }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn square_early_out_agrees_with_the_distance_test(
            cx in -100.0..100.0f64,
            cy in -100.0..100.0f64,
            radius_branch in proptest::num::u8::ANY,
            r in 0.0..60.0f64,
            heading in -7.0..7.0f64,
            cone in proptest::bool::ANY,
            angle in 0.0..6.3f64,
            point_branch in proptest::num::u8::ANY,
            t in -1.0..1.0f64,
            u in -1.0..1.0f64,
            jitter in -1e-9..1e-9f64,
        ) {
            let center = Vec2::new(cx, cy);
            let radius = radius_from(radius_branch, r);
            let sector = if cone {
                Sector::cone(center, radius, Heading(heading), angle)
            } else {
                Sector::disc(center, radius)
            };
            let d = offset_from(point_branch, radius + crate::EPSILON, t, u, jitter);
            let p = center + d;
            prop_assert_eq!(sector.contains(p), contains_by_distance(&sector, p));
            // The inequality the early-out rests on, for this offset.
            let d = p - center;
            if !d.x.is_nan() && !d.y.is_nan() {
                prop_assert!(d.x.hypot(d.y) >= d.x.abs().max(d.y.abs()), "{d:?}");
            }
        }
    }

    #[test]
    fn disc_contains() {
        let d = Sector::disc(Vec2::ZERO, 5.0);
        assert!(d.contains(Vec2::new(3.0, 4.0)));
        assert!(!d.contains(Vec2::new(3.1, 4.0)));
        assert!(d.is_disc());
    }

    #[test]
    fn cone_contains() {
        // 90° cone facing North.
        let c = Sector::cone(
            Vec2::ZERO,
            10.0,
            Heading::NORTH,
            std::f64::consts::FRAC_PI_2,
        );
        assert!(c.contains(Vec2::new(0.0, 5.0)));
        assert!(c.contains(Vec2::new(-3.0, 5.0))); // 31° off-axis < 45°
        assert!(!c.contains(Vec2::new(-6.0, 5.0))); // 50° off-axis
        assert!(!c.contains(Vec2::new(0.0, -5.0)));
        assert!(c.contains(Vec2::ZERO)); // apex
    }

    #[test]
    fn sector_area() {
        let c = Sector::cone(Vec2::ZERO, 2.0, Heading::NORTH, std::f64::consts::PI);
        assert!((c.area() - 2.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn sampling_stays_inside() {
        let c = Sector::cone(Vec2::new(3.0, 1.0), 7.0, Heading::from_degrees(40.0), 1.2);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..1000 {
            let p = c.sample(&mut rng);
            assert!(c.contains(p), "sampled {p} outside sector");
        }
    }

    #[test]
    fn polygon_over_approximates() {
        let c = Sector::cone(Vec2::ZERO, 5.0, Heading::NORTH, 1.0);
        let poly = c.to_polygon(16);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let p = c.sample(&mut rng);
            assert!(poly.contains(p));
        }
    }

    #[test]
    fn intersects_polygon_cases() {
        let c = Sector::cone(
            Vec2::ZERO,
            10.0,
            Heading::NORTH,
            std::f64::consts::FRAC_PI_2,
        );
        // Box directly ahead.
        let ahead = Polygon::rectangle(Vec2::new(0.0, 5.0), 2.0, 2.0);
        assert!(c.intersects_polygon(&ahead));
        // Box behind.
        let behind = Polygon::rectangle(Vec2::new(0.0, -5.0), 2.0, 2.0);
        assert!(!c.intersects_polygon(&behind));
        // Box beyond the radius.
        let far = Polygon::rectangle(Vec2::new(0.0, 20.0), 2.0, 2.0);
        assert!(!c.intersects_polygon(&far));
        // Large box containing the apex.
        let around = Polygon::rectangle(Vec2::ZERO, 50.0, 50.0);
        assert!(c.intersects_polygon(&around));
        // Box straddling the cone edge: no vertex inside but an edge
        // crosses the boundary ray.
        let straddle = Polygon::rectangle(Vec2::new(5.0, 5.0), 6.0, 0.5);
        assert!(c.intersects_polygon(&straddle));
    }

    #[test]
    fn chord_through_rim_detected() {
        // A thin box whose edge crosses the disc rim but whose vertices
        // are outside and whose closest point to center is inside:
        let d = Sector::disc(Vec2::ZERO, 5.0);
        let chord = Polygon::rectangle(Vec2::new(0.0, 4.9), 30.0, 0.05);
        assert!(d.intersects_polygon(&chord));
    }
}
