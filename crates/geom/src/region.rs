//! Regions: sets of points in space (§4.1).
//!
//! Regions can have an associated vector field giving points preferred
//! orientations (used by the `on region` specifier to optionally specify
//! `heading`). Regions support containment tests, uniform sampling, and
//! the intersection/difference combinators needed by `visible region` and
//! the pruning pre-passes.

use crate::triangulate::PolygonSampler;
use crate::{Aabb, GridIndex, Heading, OrientedBox, Polygon, Sector, Vec2, VectorField};
use rand::Rng;
use std::sync::Arc;

/// Maximum rejection attempts when sampling composite regions.
const COMPOSITE_SAMPLE_TRIES: usize = 200;

/// A set of polygons with an optional preferred-orientation field and an
/// optional erosion margin.
///
/// The erosion margin implements the §5.2 containment-pruning restriction
/// `R ∩ erode(C, minRadius)`: points closer than `margin` to the *outer*
/// boundary of the union are excluded. Edges shared exactly between two
/// polygons (as in road maps, where adjacent cells abut) are interior and
/// do not contribute to the boundary.
#[derive(Debug, Clone)]
pub struct PolygonRegion {
    polygons: Arc<Vec<Polygon>>,
    orientation: Option<VectorField>,
    sampler: Arc<PolygonSampler>,
    margin: f64,
    /// Outer-boundary edges (excludes edges shared between two cells).
    boundary_edges: Arc<Vec<(Vec2, Vec2)>>,
    /// Grid index over the polygons' bounding boxes: `contains` only
    /// tests the pieces whose box covers the query point.
    index: Arc<GridIndex>,
}

impl PolygonRegion {
    /// Builds a region from polygons, with an optional orientation field.
    pub fn new(polygons: Vec<Polygon>, orientation: Option<VectorField>) -> Self {
        let sampler = Arc::new(PolygonSampler::new(polygons.iter()));
        let boundary_edges = Arc::new(outer_boundary_edges(&polygons));
        let boxes: Vec<Aabb> = polygons.iter().map(Polygon::aabb).collect();
        let index = Arc::new(GridIndex::build(&boxes));
        PolygonRegion {
            polygons: Arc::new(polygons),
            orientation,
            sampler,
            margin: 0.0,
            boundary_edges,
            index,
        }
    }

    /// The constituent polygons.
    pub fn polygons(&self) -> &[Polygon] {
        &self.polygons
    }

    /// The orientation field, if any.
    pub fn orientation(&self) -> Option<&VectorField> {
        self.orientation.as_ref()
    }

    /// Total polygon area (overlaps counted with multiplicity).
    pub fn area(&self) -> f64 {
        self.sampler.total_area()
    }

    /// Returns a copy eroded by `margin` meters from the outer boundary.
    pub fn eroded(&self, margin: f64) -> Self {
        let mut r = self.clone();
        r.margin = (r.margin + margin).max(0.0);
        r
    }

    /// The current erosion margin (0 when the region is un-eroded).
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Total length of the outer boundary (edges not shared between two
    /// cells).
    pub fn boundary_length(&self) -> f64 {
        self.boundary_edges
            .iter()
            .map(|&(a, b)| a.distance_to(b))
            .sum()
    }

    /// First-order area estimate honoring the erosion margin: the raw
    /// polygon area minus a boundary strip of width `margin`, clamped at
    /// zero. Exact for un-eroded regions; for eroded ones it ignores
    /// corner effects (an over-estimate at convex corners, an
    /// under-estimate at reflex ones). The §5.2 pruning layer applies
    /// the same boundary-strip correction to its union estimates;
    /// overlap-free callers can use this directly.
    pub fn area_estimate(&self) -> f64 {
        (self.area() - self.margin * self.boundary_length()).max(0.0)
    }

    /// Distance from `p` to the outer boundary of the union.
    pub fn distance_to_outer_boundary(&self, p: Vec2) -> f64 {
        self.boundary_edges
            .iter()
            .map(|&(a, b)| crate::vec2::point_segment_distance(p, a, b))
            .fold(f64::INFINITY, f64::min)
    }

    fn contains_raw(&self, p: Vec2) -> bool {
        self.index
            .candidates(p)
            .iter()
            .any(|&i| self.polygons[i as usize].contains(p))
    }

    /// Containment, honoring the erosion margin.
    pub fn contains(&self, p: Vec2) -> bool {
        if !self.contains_raw(p) {
            return false;
        }
        self.margin <= crate::EPSILON || self.distance_to_outer_boundary(p) >= self.margin
    }

    /// Uniform sample (rejection against the margin when eroded).
    pub fn sample(&self, rng: &mut impl Rng) -> Option<Vec2> {
        if self.margin <= crate::EPSILON {
            return self.sampler.sample(rng);
        }
        for _ in 0..COMPOSITE_SAMPLE_TRIES {
            let p = self.sampler.sample(rng)?;
            if self.distance_to_outer_boundary(p) >= self.margin {
                return Some(p);
            }
        }
        None
    }
}

/// Finds edges on the outer boundary: edges not shared (in reverse) by
/// another polygon in the set.
fn outer_boundary_edges(polygons: &[Polygon]) -> Vec<(Vec2, Vec2)> {
    let mut all: Vec<(Vec2, Vec2)> = Vec::new();
    for poly in polygons {
        all.extend(poly.edges());
    }
    let shared = |a: Vec2, b: Vec2| {
        all.iter()
            .filter(|&&(c, d)| {
                (c.approx_eq(b, 1e-6) && d.approx_eq(a, 1e-6))
                    || (c.approx_eq(a, 1e-6) && d.approx_eq(b, 1e-6))
            })
            .count()
            > 1
    };
    all.iter()
        .copied()
        .filter(|&(a, b)| !shared(a, b))
        .collect()
}

/// A set of points in space.
///
/// # Example
///
/// ```
/// use scenic_geom::{Region, Polygon, Vec2};
/// use rand::SeedableRng;
///
/// let road = Region::from(Polygon::rectangle(Vec2::ZERO, 8.0, 100.0));
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let p = road.sample(&mut rng).unwrap();
/// assert!(road.contains(p));
/// ```
#[derive(Debug, Clone, Default)]
pub enum Region {
    /// The empty region.
    #[default]
    Empty,
    /// All of space (cannot be sampled).
    Everywhere,
    /// A disc or circular sector.
    Sector(Sector),
    /// A union of polygons with optional orientation.
    Polygons(PolygonRegion),
    /// Intersection of two regions. Sampling draws from the left operand
    /// and rejects against the right.
    Intersection(Box<Region>, Box<Region>),
    /// Points of the left region not in the right. Sampling draws from
    /// the left operand and rejects against the right.
    Difference(Box<Region>, Box<Region>),
}

impl Region {
    /// A rectangle region.
    pub fn rectangle(center: Vec2, width: f64, height: f64) -> Self {
        Region::from(Polygon::rectangle(center, width, height))
    }

    /// A disc region.
    pub fn disc(center: Vec2, radius: f64) -> Self {
        Region::Sector(Sector::disc(center, radius))
    }

    /// Polygon-set region with a preferred orientation field.
    pub fn polygons_with_orientation(polygons: Vec<Polygon>, field: VectorField) -> Self {
        Region::Polygons(PolygonRegion::new(polygons, Some(field)))
    }

    /// Whether the point lies in the region.
    pub fn contains(&self, p: Vec2) -> bool {
        match self {
            Region::Empty => false,
            Region::Everywhere => true,
            Region::Sector(s) => s.contains(p),
            Region::Polygons(pr) => pr.contains(p),
            Region::Intersection(a, b) => a.contains(p) && b.contains(p),
            Region::Difference(a, b) => a.contains(p) && !b.contains(p),
        }
    }

    /// The preferred orientation at `p`, if the region has one (§4.1:
    /// "These can have an associated vector field giving points in the
    /// region preferred orientations").
    pub fn orientation_at(&self, p: Vec2) -> Option<Heading> {
        match self {
            Region::Polygons(pr) => pr.orientation().map(|f| f.at(p)),
            Region::Intersection(a, b) | Region::Difference(a, b) => {
                a.orientation_at(p).or_else(|| b.orientation_at(p))
            }
            _ => None,
        }
    }

    /// Uniformly samples a point, or `None` if the region is empty,
    /// unbounded, or rejection fails after a bounded number of tries.
    pub fn sample(&self, rng: &mut impl Rng) -> Option<Vec2> {
        match self {
            Region::Empty | Region::Everywhere => None,
            Region::Sector(s) => Some(s.sample(rng)),
            Region::Polygons(pr) => pr.sample(rng),
            Region::Intersection(a, b) => {
                for _ in 0..COMPOSITE_SAMPLE_TRIES {
                    let p = a.sample(rng)?;
                    if b.contains(p) {
                        return Some(p);
                    }
                }
                None
            }
            Region::Difference(a, b) => {
                for _ in 0..COMPOSITE_SAMPLE_TRIES {
                    let p = a.sample(rng)?;
                    if !b.contains(p) {
                        return Some(p);
                    }
                }
                None
            }
        }
    }

    /// Area of the region, when it has a direct one: exact for sectors
    /// and un-eroded polygon sets, a first-order boundary-strip estimate
    /// for eroded ones ([`PolygonRegion::area_estimate`]), zero for the
    /// empty region, and `None` for unbounded or composite regions
    /// (whose area has no closed form here).
    pub fn area_estimate(&self) -> Option<f64> {
        match self {
            Region::Empty => Some(0.0),
            Region::Everywhere | Region::Intersection(..) | Region::Difference(..) => None,
            Region::Sector(s) => Some(s.area()),
            Region::Polygons(pr) => Some(pr.area_estimate()),
        }
    }

    /// Bounding box, if the region is bounded.
    pub fn aabb(&self) -> Option<Aabb> {
        match self {
            Region::Empty => None,
            Region::Everywhere => None,
            Region::Sector(s) => Some(Aabb::new(
                s.center - Vec2::new(s.radius, s.radius),
                s.center + Vec2::new(s.radius, s.radius),
            )),
            Region::Polygons(pr) => {
                let mut it = pr.polygons().iter();
                let first = it.next()?.aabb();
                Some(it.fold(first, |bb, p| bb.union(&p.aabb())))
            }
            Region::Intersection(a, b) => a.aabb().or_else(|| b.aabb()),
            Region::Difference(a, _) => a.aabb(),
        }
    }

    /// The part of the region visible from a view sector — the paper's
    /// `visible region` / `region visible from X` operators.
    pub fn visible_from(&self, view: Sector) -> Region {
        Region::Intersection(Box::new(self.clone()), Box::new(Region::Sector(view)))
    }

    /// Intersection combinator.
    pub fn intersection(self, other: Region) -> Region {
        Region::Intersection(Box::new(self), Box::new(other))
    }

    /// Difference combinator.
    pub fn difference(self, other: Region) -> Region {
        Region::Difference(Box::new(self), Box::new(other))
    }

    /// The polygon set, if this is (or wraps) a polygonal region.
    pub fn as_polygons(&self) -> Option<&PolygonRegion> {
        match self {
            Region::Polygons(pr) => Some(pr),
            Region::Intersection(a, _) | Region::Difference(a, _) => a.as_polygons(),
            _ => None,
        }
    }

    /// Containment-pruned copy (§5.2 "Pruning Based on Containment"):
    /// restricts a polygonal region by eroding `min_radius` from its
    /// outer boundary. Falls back to `self` unchanged for non-polygonal
    /// regions.
    pub fn eroded(&self, min_radius: f64) -> Region {
        match self {
            Region::Polygons(pr) => Region::Polygons(pr.eroded(min_radius)),
            Region::Intersection(a, b) => Region::Intersection(
                Box::new(a.eroded(min_radius)),
                Box::new(b.clone().as_ref().clone()),
            ),
            other => other.clone(),
        }
    }

    /// This region as half-planes, where that is exact: all of space, or
    /// one convex polygon with no erosion margin. `None` for any other
    /// region, so that [`HalfPlanes::contains_disc`] never has to
    /// answer for one.
    pub fn half_planes(&self) -> Option<HalfPlanes> {
        match self {
            Region::Everywhere => Some(HalfPlanes::default()),
            Region::Polygons(pr) if pr.margin() == 0.0 => match pr.polygons() {
                [poly] if poly.is_convex() && winds_once(poly) => Some(HalfPlanes {
                    planes: poly
                        .edges()
                        .map(|(a, b)| {
                            // Vertices run anticlockwise, so the interior
                            // lies to the left of each edge.
                            let normal = (b - a).perp().normalized();
                            (normal, normal.dot(a))
                        })
                        .collect(),
                }),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Whether the polygon's boundary turns through one full circle: with
/// every turn to the left ([`Polygon::is_convex`]), that makes it a
/// simple convex polygon rather than, say, a pentagram, whose interior
/// the even-odd rule of [`Polygon::contains`] does not fill.
fn winds_once(poly: &Polygon) -> bool {
    let vertices = poly.vertices();
    let n = vertices.len();
    let turning: f64 = (0..n)
        .map(|i| {
            let a = vertices[(i + 1) % n] - vertices[i];
            let b = vertices[(i + 2) % n] - vertices[(i + 1) % n];
            a.cross(b).atan2(a.dot(b))
        })
        .sum();
    (turning - std::f64::consts::TAU).abs() < 1e-6
}

/// A convex region as the intersection of closed half-planes (none: all
/// of space), for deciding that a disc lies inside it.
#[derive(Debug, Clone, Default)]
pub struct HalfPlanes {
    /// `(n, c)` for the points `p` with `n · p >= c`, `n` a unit normal.
    planes: Vec<(Vec2, f64)>,
}

impl HalfPlanes {
    /// Whether every point within `radius` of `center` lies inside, with
    /// a rounding slack: where it returns true, [`Region::contains`] on
    /// the region these came from holds for each such point. NaN answers
    /// false.
    pub fn contains_disc(&self, center: Vec2, radius: f64) -> bool {
        let scale = crate::magnitude(center) + radius;
        self.planes.iter().all(|&(normal, offset)| {
            normal.dot(center) - offset >= radius + crate::disc_slack(scale + offset.abs())
        })
    }

    /// Whether the box lies inside, decided from its circumscribed disc:
    /// where it returns true, [`Region::contains`] on the region these
    /// came from holds for each of the box's corners and its center. A
    /// box whose heading is not finite has no finite corners, so it
    /// answers false.
    pub fn contains_box(&self, b: &OrientedBox) -> bool {
        b.heading.radians().is_finite() && self.contains_disc(b.center, b.circumradius())
    }
}

impl From<Polygon> for Region {
    fn from(p: Polygon) -> Self {
        Region::Polygons(PolygonRegion::new(vec![p], None))
    }
}

impl From<Sector> for Region {
    fn from(s: Sector) -> Self {
        Region::Sector(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn half_planes_exist_only_where_they_are_exact() {
        let square = Polygon::rectangle(Vec2::ZERO, 8.0, 8.0);
        assert!(Region::Everywhere.half_planes().is_some());
        assert!(Region::from(square.clone()).half_planes().is_some());
        let rotated = square.rotated_about(Vec2::new(1.0, 2.0), 0.3);
        assert!(Region::from(rotated).half_planes().is_some());
        // Eroded, two pieces, non-convex, a pentagram, not a polygon.
        assert!(Region::from(square.clone())
            .eroded(0.5)
            .half_planes()
            .is_none());
        let two = Region::Polygons(PolygonRegion::new(
            vec![square.clone(), square.translated(Vec2::new(20.0, 0.0))],
            None,
        ));
        assert!(two.half_planes().is_none());
        let l_shape = Polygon::new(
            [
                (0.0, 0.0),
                (2.0, 0.0),
                (2.0, 1.0),
                (1.0, 1.0),
                (1.0, 2.0),
                (0.0, 2.0),
            ]
            .map(|(x, y)| Vec2::new(x, y))
            .to_vec(),
        );
        assert!(Region::from(l_shape).half_planes().is_none());
        let star = Polygon::new(
            (0..5)
                .map(|i| Heading::from_degrees(144.0 * i as f64).direction() * 5.0)
                .collect(),
        );
        assert!(star.is_convex(), "every turn of a pentagram is a left turn");
        assert!(Region::from(star).half_planes().is_none());
        assert!(Region::disc(Vec2::ZERO, 5.0).half_planes().is_none());
    }

    #[test]
    fn contains_disc_on_a_square() {
        let planes = Region::rectangle(Vec2::ZERO, 8.0, 8.0)
            .half_planes()
            .unwrap();
        assert!(planes.contains_disc(Vec2::ZERO, 3.9));
        assert!(!planes.contains_disc(Vec2::ZERO, 4.0));
        assert!(planes.contains_disc(Vec2::new(2.0, -2.0), 1.9));
        assert!(!planes.contains_disc(Vec2::new(2.0, -2.0), 2.1));
        assert!(!planes.contains_disc(Vec2::new(9.0, 0.0), 0.0));
        assert!(!planes.contains_disc(Vec2::new(f64::NAN, 0.0), 0.0));
        assert!(!planes.contains_disc(Vec2::new(f64::INFINITY, 0.0), 0.0));
        let everywhere = Region::Everywhere.half_planes().unwrap();
        assert!(everywhere.contains_disc(Vec2::new(1e9, -1e9), 1e6));
    }

    #[test]
    fn discs_inside_the_half_planes_lie_inside_the_region() {
        let mut rng = StdRng::seed_from_u64(5);
        for case in 0..200 {
            let center = Vec2::new(rng.gen_range(-50.0..50.0), rng.gen_range(-50.0..50.0));
            let poly = if case % 2 == 0 {
                Polygon::rectangle(center, rng.gen_range(1.0..30.0), rng.gen_range(1.0..30.0))
                    .rotated_about(center, rng.gen_range(-3.2..3.2))
            } else {
                Polygon::regular(center, rng.gen_range(1.0..30.0), rng.gen_range(3..12))
            };
            let region = Region::from(poly);
            let planes = region.half_planes().expect("convex");
            for _ in 0..50 {
                let p = center + Vec2::new(rng.gen_range(-20.0..20.0), rng.gen_range(-20.0..20.0));
                let r = rng.gen_range(0.0..8.0);
                if !planes.contains_disc(p, r) {
                    continue;
                }
                for _ in 0..16 {
                    let q = p + Heading(rng.gen_range(-4.0..4.0)).direction()
                        * (r * rng.gen_range(0.0..=1.0));
                    assert!(region.contains(q), "{q} within {r} of {p}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        /// Where `contains_box` accepts a box, the five point tests of the
        /// containment requirement (four corners, then the center) pass:
        /// on axis-aligned rectangles, rotated rectangles and convex
        /// n-gons, for empty, tiny, ordinary and huge boxes with headings
        /// that include NaN and ±∞, centered 1e-9 to 1e-3 from an edge or
        /// corner, or that far beyond the box's inradius or circumradius.
        #[test]
        fn boxes_inside_the_half_planes_pass_the_five_point_tests(
            shape in 0u32..3,
            sides in 3usize..12,
            cx in -1e3..1e3f64,
            cy in -1e3..1e3f64,
            extent in 1.0..60.0f64,
            aspect in 0.05..1.0f64,
            spin in -3.2..3.2f64,
            anchor in 0usize..64,
            along in -0.2..1.0f64,
            gap_exp in -9.0..-3.0f64,
            reach in 0u32..4,
            size in 0u32..5,
            w_frac in 0.0..1.0f64,
            h_frac in 0.0..1.0f64,
            turn in 0u32..8,
            heading in -10.0..10.0f64,
        ) {
            let center = Vec2::new(cx, cy);
            let poly = match shape {
                0 => Polygon::rectangle(center, extent, extent * aspect),
                1 => Polygon::rectangle(center, extent, extent * aspect).rotated_about(center, spin),
                _ => Polygon::regular(center, extent, sides).rotated_about(center, spin),
            };
            let region = Region::from(poly.clone());
            let planes = region.half_planes().expect("convex");
            let (width, height) = match size {
                0 => (0.0, 0.0),
                1 => (w_frac * 1e-6, h_frac * 1e-6),
                2 => (w_frac * extent, h_frac * extent),
                3 => (0.0, h_frac * extent),
                _ => (10f64.powf(w_frac * 300.0), 10f64.powf(h_frac * 300.0)),
            };
            let heading = match turn {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => heading * 1e15,
                _ => heading,
            };
            // A point on an edge (or, for `along < 0`, its first corner),
            // moved inward by a gap past nothing, the box's inradius or
            // its circumradius, or outward by the gap.
            let vertices = poly.vertices();
            let i = anchor % vertices.len();
            let (a, b) = (vertices[i], vertices[(i + 1) % vertices.len()]);
            let on_boundary = a.lerp(b, along.max(0.0));
            let inward = if along < 0.0 {
                (center - a).normalized()
            } else {
                (b - a).perp().normalized()
            };
            let probe = OrientedBox::new(Vec2::ZERO, Heading(heading), width, height);
            let gap = 10f64.powf(gap_exp);
            let depth = match reach {
                0 => gap,
                1 => probe.inradius() + gap,
                2 => probe.circumradius() + gap,
                _ => -gap,
            };
            let b = OrientedBox { center: on_boundary + inward * depth, ..probe };
            if !heading.is_finite() {
                prop_assert!(!planes.contains_box(&b), "{b:?}");
            }
            if planes.contains_box(&b) {
                for corner in b.corners() {
                    prop_assert!(region.contains(corner), "corner {corner} of {b:?}");
                }
                prop_assert!(region.contains(b.center), "center of {b:?}");
            }
        }
    }

    #[test]
    fn empty_and_everywhere() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(!Region::Empty.contains(Vec2::ZERO));
        assert!(Region::Everywhere.contains(Vec2::new(1e9, -1e9)));
        assert!(Region::Empty.sample(&mut rng).is_none());
        assert!(Region::Everywhere.sample(&mut rng).is_none());
    }

    #[test]
    fn polygon_region_sampling() {
        let r = Region::rectangle(Vec2::ZERO, 10.0, 4.0);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let p = r.sample(&mut rng).unwrap();
            assert!(r.contains(p));
            assert!(p.x.abs() <= 5.0 && p.y.abs() <= 2.0);
        }
    }

    #[test]
    fn intersection_sampling() {
        let a = Region::rectangle(Vec2::ZERO, 10.0, 10.0);
        let b = Region::disc(Vec2::new(5.0, 0.0), 3.0);
        let both = a.intersection(b);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            let p = both.sample(&mut rng).unwrap();
            assert!(p.x <= 5.0 && p.distance_to(Vec2::new(5.0, 0.0)) <= 3.0);
        }
    }

    #[test]
    fn difference_region() {
        let a = Region::rectangle(Vec2::ZERO, 10.0, 10.0);
        let hole = Region::disc(Vec2::ZERO, 2.0);
        let donut = a.difference(hole);
        assert!(!donut.contains(Vec2::ZERO));
        assert!(donut.contains(Vec2::new(4.0, 4.0)));
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let p = donut.sample(&mut rng).unwrap();
            assert!(p.norm() >= 2.0 - 1e-9);
        }
    }

    #[test]
    fn erosion_excludes_margin() {
        let r = Region::rectangle(Vec2::ZERO, 10.0, 10.0);
        let eroded = r.eroded(2.0);
        assert!(eroded.contains(Vec2::ZERO));
        assert!(!eroded.contains(Vec2::new(4.5, 0.0)));
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            let p = eroded.sample(&mut rng).unwrap();
            assert!(p.x.abs() <= 3.0 + 1e-9 && p.y.abs() <= 3.0 + 1e-9);
        }
    }

    #[test]
    fn shared_edges_are_interior() {
        // Two abutting cells: the shared edge at x = 0 must not count as
        // boundary, so a point at (0, 0) is 5m from the outer boundary.
        let left = Polygon::rectangle(Vec2::new(-5.0, 0.0), 10.0, 10.0);
        let right = Polygon::rectangle(Vec2::new(5.0, 0.0), 10.0, 10.0);
        let pr = PolygonRegion::new(vec![left, right], None);
        assert!((pr.distance_to_outer_boundary(Vec2::ZERO) - 5.0).abs() < 1e-9);
        // Eroding by 4 keeps the seam point.
        let eroded = pr.eroded(4.0);
        assert!(eroded.contains(Vec2::ZERO));
        assert!(!eroded.contains(Vec2::new(-9.0, 0.0)));
    }

    #[test]
    fn area_estimates() {
        let r = Region::rectangle(Vec2::ZERO, 10.0, 10.0);
        assert_eq!(r.area_estimate(), Some(100.0));
        // Eroding by 1 removes a boundary strip: 100 − 1·40 = 60 (the
        // exact eroded area is 64; the estimate ignores corners).
        let eroded = r.eroded(1.0);
        assert_eq!(eroded.area_estimate(), Some(60.0));
        assert_eq!(Region::Empty.area_estimate(), Some(0.0));
        assert!(Region::Everywhere.area_estimate().is_none());
        let Region::Polygons(pr) = &r else { panic!() };
        assert!((pr.boundary_length() - 40.0).abs() < 1e-9);
        assert_eq!(pr.margin(), 0.0);
    }

    #[test]
    fn orientation_field_exposed() {
        let field = VectorField::Constant(Heading::from_degrees(45.0));
        let r = Region::polygons_with_orientation(
            vec![Polygon::rectangle(Vec2::ZERO, 4.0, 4.0)],
            field,
        );
        let h = r.orientation_at(Vec2::ZERO).unwrap();
        assert!(h.approx_eq(Heading::from_degrees(45.0), 1e-9));
        assert!(Region::Empty.orientation_at(Vec2::ZERO).is_none());
    }

    #[test]
    fn visible_from_restricts() {
        let road = Region::rectangle(Vec2::new(0.0, 50.0), 10.0, 100.0);
        let view = Sector::cone(Vec2::ZERO, 30.0, Heading::NORTH, 1.0);
        let vis = road.visible_from(view);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..100 {
            let p = vis.sample(&mut rng).unwrap();
            assert!(p.norm() <= 30.0 + 1e-9);
            assert!(p.y >= 0.0);
        }
    }

    #[test]
    fn aabb_of_composites() {
        let a = Region::rectangle(Vec2::ZERO, 2.0, 2.0);
        let bb = a.aabb().unwrap();
        assert_eq!(bb.min, Vec2::new(-1.0, -1.0));
        let d = Region::disc(Vec2::new(1.0, 1.0), 2.0);
        let i = a.intersection(d);
        assert!(i.aabb().is_some());
        assert!(Region::Everywhere.aabb().is_none());
    }
}
