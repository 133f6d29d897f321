//! Visibility: the `can see` predicate and `visibleRegion` (§4.2).
//!
//! "X can see Y uses a simple model where a `Point` can see a certain
//! distance, and an `OrientedPoint` restricts this to the sector along
//! its heading with a certain angle. An `Object` is visible iff its
//! bounding box is."

use crate::{Heading, OrientedBox, Sector, Vec2};

/// The view parameters of an observer (from Table 2:
/// `viewDistance` default 50, `viewAngle` default 360°).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Viewer {
    /// Observer position.
    pub position: Vec2,
    /// Observer heading (ignored when `view_angle` covers the circle).
    pub heading: Heading,
    /// Maximum view distance in meters.
    pub view_distance: f64,
    /// View cone opening angle in radians.
    pub view_angle: f64,
}

impl Viewer {
    /// An omnidirectional viewer (a `Point` in the paper's model).
    pub fn point(position: Vec2, view_distance: f64) -> Self {
        Viewer {
            position,
            heading: Heading::NORTH,
            view_distance,
            view_angle: std::f64::consts::TAU,
        }
    }

    /// A directional viewer (an `OrientedPoint`).
    pub fn oriented(position: Vec2, heading: Heading, view_distance: f64, view_angle: f64) -> Self {
        Viewer {
            position,
            heading,
            view_distance,
            view_angle,
        }
    }

    /// The paper's `visibleRegion(X)`: a disc for points, a sector for
    /// oriented points.
    pub fn visible_region(&self) -> Sector {
        if self.view_angle >= std::f64::consts::TAU - crate::EPSILON {
            Sector::disc(self.position, self.view_distance)
        } else {
            Sector::cone(
                self.position,
                self.view_distance,
                self.heading,
                self.view_angle,
            )
        }
    }

    /// Whether a bare point is visible.
    pub fn can_see_point(&self, p: Vec2) -> bool {
        self.visible_region().contains(p)
    }

    /// Whether an object's bounding box is visible:
    /// `visibleRegion(X) ∩ boundingBox(O) ≠ ∅`.
    pub fn can_see_box(&self, bbox: &OrientedBox) -> bool {
        // A finite heading keeps every corner within the circumradius of
        // the center, so a disc the viewer cannot see decides the test
        // before the sector and the polygon are built.
        if bbox.heading.radians().is_finite()
            && !self.may_see_disc(bbox.center, bbox.circumradius())
        {
            return false;
        }
        self.visible_region().intersects_polygon(&bbox.to_polygon())
    }

    /// Whether a box lying within `radius` of `center` might be visible:
    /// `false` only when [`Viewer::can_see_box`] is false for every such
    /// box.
    ///
    /// The visible sector is widened by every tolerance of the exact
    /// test — `EPSILON` on distances and angles in [`Sector::contains`],
    /// relative `EPSILON` on the ray and edge parameters of its
    /// segment–ray crossings — plus a rounding slack. The disc misses it
    /// when its center lies beyond `view_distance + radius`, or, for a
    /// cone, when the center's direction falls outside the cone by more
    /// than `asin(radius / d)` at distance `d`. A disc that may cover the
    /// viewer, a negative view distance and any NaN answer `true`.
    pub fn may_see_disc(&self, center: Vec2, radius: f64) -> bool {
        let offset = center - self.position;
        // Distances compare squared; the slack dwarfs the rounding.
        let d2 = offset.norm_squared();
        let range = self.view_distance;
        let scale = crate::magnitude(center) + crate::magnitude(self.position) + range + radius;
        let reach = radius + crate::disc_slack(scale);
        // NaN fails every comparison, so it answers `true` here.
        if !(range >= 0.0 && d2 > reach * reach) {
            return true;
        }
        let beyond = range + crate::EPSILON + reach;
        if d2 > beyond * beyond {
            return false;
        }
        if self.view_angle >= std::f64::consts::TAU - crate::EPSILON {
            return true;
        }
        let outside = self.heading.abs_difference(Heading::of_vector(offset))
            - (self.view_angle / 2.0).abs()
            - crate::EPSILON;
        let limit =
            (reach / offset.norm()).asin() + crate::disc_slack(self.heading.radians().abs());
        outside.partial_cmp(&limit) != Some(std::cmp::Ordering::Greater)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The test [`Viewer::can_see_box`] decides without its early-out.
    fn full_test(viewer: &Viewer, bbox: &OrientedBox) -> bool {
        viewer
            .visible_region()
            .intersects_polygon(&bbox.to_polygon())
    }

    /// A disc placed where the exact test is hardest, and the direction
    /// from its center towards the visible sector: across the rim, across
    /// one of the cone's rays, around the viewer, anywhere near the
    /// sector, or just outside the rim or a ray, where a box inside the
    /// disc barely misses the sector or barely reaches it. `u`, `v` and
    /// `w` in `[0, 1)` pick the place.
    fn disc_near(
        viewer: &Viewer,
        mode: u8,
        radius: f64,
        u: f64,
        v: f64,
        w: f64,
    ) -> (Vec2, Heading) {
        let range = viewer.view_distance;
        let half = viewer.view_angle / 2.0;
        let polar = |angle: f64, distance: f64| {
            viewer.position + Heading(viewer.heading.radians() + angle).direction() * distance
        };
        let toward_viewer = |center: Vec2| Heading::of_vector(viewer.position - center);
        // The critical gap, give or take half a percent.
        let critical = radius * (1.0 + 0.01 * (v - 0.5));
        let beside_ray = |gap: f64| {
            let side = if w < 0.5 { -half } else { half };
            let ray = Heading(viewer.heading.radians() + side);
            let outward = ray.direction().perp() * side.signum();
            let center = polar(side, 1.2 * range * u) + outward * gap;
            (center, Heading::of_vector(outward * -gap.signum()))
        };
        let around = |distance: f64| {
            let center = polar(std::f64::consts::TAU * u, distance);
            (center, toward_viewer(center))
        };
        match mode {
            0 => around(range + radius * (3.0 * v - 1.5)),
            1 => beside_ray(radius * (3.0 * v - 1.5)),
            2 => around(2.0 * radius * v),
            3 => around(1.5 * (range + radius) * v),
            4 => around(range + critical),
            _ => beside_ray(critical),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn discs_the_viewer_cannot_see_hold_no_visible_box(
            x in -300.0..300.0f64,
            y in -300.0..300.0f64,
            heading in -7.0..7.0f64,
            range in 0.5..80.0f64,
            angle_deg in 1.0..400.0f64,
            radius in 0.0..12.0f64,
            mode in 0u8..6,
            u in 0.0..1.0f64,
            v in 0.0..1.0f64,
            w in 0.0..1.0f64,
            layout_seed in 0u64..1_000_000,
        ) {
            use rand::{Rng, SeedableRng};
            // Angles of 360° and up make a disc viewer.
            let angle = angle_deg.min(359.0).to_radians() + if angle_deg > 359.0 { 7.0 } else { 0.0 };
            let viewer = Viewer::oriented(Vec2::new(x, y), Heading(heading), range, angle);
            let (center, aim) = disc_near(&viewer, mode, radius, u, v, w);
            let may_see = viewer.may_see_disc(center, radius);
            let mut rng = rand::rngs::StdRng::seed_from_u64(layout_seed);
            for k in 0..24 {
                // A box inside the disc: its center `t` of the way out,
                // its half-diagonal the rest, split between width and
                // height (zero width, zero height and a point included).
                let t: f64 = if k == 0 { 0.0 } else { rng.gen_range(0.0..1.0) };
                let offset = Heading(rng.gen_range(-4.0..4.0)).direction() * (t * radius);
                let half_diagonal = (1.0 - t) * radius * if k == 1 { 0.0 } else { 1.0 };
                let split = match k {
                    2 => 0.0,
                    3 => std::f64::consts::FRAC_PI_2,
                    _ => rng.gen_range(0.0..std::f64::consts::FRAC_PI_2),
                };
                let bbox = if k == 4 {
                    // A needle across the whole disc, aimed at the sector.
                    OrientedBox::new(center, aim, 0.0, 2.0 * radius)
                } else {
                    OrientedBox::new(
                        center + offset,
                        Heading(rng.gen_range(-4.0..4.0)),
                        2.0 * half_diagonal * split.cos(),
                        2.0 * half_diagonal * split.sin(),
                    )
                };
                let full = full_test(&viewer, &bbox);
                prop_assert!(
                    may_see || !full,
                    "box {bbox:?} seen inside a disc ({center}, {radius}) judged unseeable"
                );
                prop_assert_eq!(viewer.can_see_box(&bbox), full);
            }
        }
    }

    #[test]
    fn may_see_disc_bounds_distance_and_angle() {
        let cone = Viewer::oriented(Vec2::ZERO, Heading::NORTH, 30.0, 80f64.to_radians());
        // Ahead and in range, or overlapping the viewer.
        assert!(cone.may_see_disc(Vec2::new(0.0, 20.0), 1.0));
        assert!(cone.may_see_disc(Vec2::new(0.0, -1.0), 2.0));
        // Past the range by more than the radius.
        assert!(!cone.may_see_disc(Vec2::new(0.0, 36.0), 5.64));
        assert!(cone.may_see_disc(Vec2::new(0.0, 35.0), 5.64));
        // Beside the cone: 10 m off a ray at 40°, farther than the radius.
        let ray = Heading::from_degrees(40.0).direction();
        let beside = ray * 20.0 + ray.perp() * 10.0;
        assert!(!cone.may_see_disc(beside, 5.64));
        assert!(cone.may_see_disc(beside, 10.5));
        // Behind the viewer.
        assert!(!cone.may_see_disc(Vec2::new(0.0, -10.0), 5.64));
        // A disc viewer sees all around.
        let disc = Viewer::point(Vec2::ZERO, 30.0);
        assert!(disc.may_see_disc(Vec2::new(0.0, -10.0), 5.64));
        assert!(!disc.may_see_disc(Vec2::new(0.0, -40.0), 5.64));
        // NaN and negative view distances never rule anything out.
        assert!(cone.may_see_disc(Vec2::new(f64::NAN, 0.0), 1.0));
        assert!(cone.may_see_disc(Vec2::new(0.0, 1e3), f64::NAN));
        let backwards = Viewer::point(Vec2::ZERO, -5.0);
        assert!(backwards.may_see_disc(Vec2::new(0.0, 1e3), 1.0));
    }

    #[test]
    fn can_see_box_keeps_the_full_test_for_non_finite_headings() {
        // Corners of a box with a NaN heading are NaN, which the full
        // test treats as inside a disc viewer's range.
        let disc = Viewer::point(Vec2::ZERO, 10.0);
        let nan = OrientedBox::new(Vec2::new(0.0, 100.0), Heading(f64::NAN), 2.0, 2.0);
        assert_eq!(disc.can_see_box(&nan), full_test(&disc, &nan));
    }

    #[test]
    fn point_viewer_sees_disc() {
        let v = Viewer::point(Vec2::ZERO, 10.0);
        assert!(v.can_see_point(Vec2::new(0.0, -9.0)));
        assert!(!v.can_see_point(Vec2::new(0.0, -11.0)));
    }

    #[test]
    fn oriented_viewer_restricted_to_cone() {
        let v = Viewer::oriented(Vec2::ZERO, Heading::NORTH, 50.0, 80f64.to_radians());
        assert!(v.can_see_point(Vec2::new(0.0, 20.0)));
        // 45° off-axis is outside an 80° cone.
        assert!(!v.can_see_point(Vec2::new(20.0, 20.0)));
        assert!(!v.can_see_point(Vec2::new(0.0, -20.0)));
    }

    #[test]
    fn object_visible_iff_bounding_box_is() {
        let v = Viewer::oriented(Vec2::ZERO, Heading::NORTH, 30.0, 80f64.to_radians());
        // Center out of the cone, but the box pokes into it.
        let b = OrientedBox::new(Vec2::new(18.0, 20.0), Heading::NORTH, 10.0, 2.0);
        assert!(v.can_see_box(&b));
        // Entirely outside.
        let far = OrientedBox::new(Vec2::new(0.0, 40.0), Heading::NORTH, 2.0, 2.0);
        assert!(!v.can_see_box(&far));
        // Behind the viewer.
        let behind = OrientedBox::new(Vec2::new(0.0, -5.0), Heading::NORTH, 2.0, 2.0);
        assert!(!v.can_see_box(&behind));
    }

    #[test]
    fn visible_region_shape() {
        let p = Viewer::point(Vec2::ZERO, 5.0);
        assert!(p.visible_region().is_disc());
        let o = Viewer::oriented(Vec2::ZERO, Heading::NORTH, 5.0, 1.0);
        assert!(!o.visible_region().is_disc());
    }
}
