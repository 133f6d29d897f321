//! # scenic-geom
//!
//! 2D geometry substrate for the Scenic reproduction.
//!
//! Scenic (PLDI 2019) is "primarily concerned with geometry": scenes are
//! configurations of oriented, boxed objects placed in regions and aligned
//! to vector fields. This crate implements, from scratch, everything the
//! language semantics (Appendix C of the paper) and the pruning algorithms
//! (§5.2, Algorithms 2 & 3) need:
//!
//! - [`Vec2`] vectors and [`heading`] conventions (radians, anticlockwise
//!   from North, per §4.1 of the paper);
//! - [`Polygon`] with containment, area, triangulation-based uniform
//!   sampling, convex clipping, and Minkowski dilation by a disc;
//! - [`Region`]s: discs, sectors, polygon sets with preferred
//!   orientations, intersections and differences (§4.1 "Regions");
//! - [`VectorField`]s, including the polygonal-cell fields used by road
//!   maps (§5.2) and forward-Euler `follow` (Appendix C.1);
//! - [`OrientedBox`] bounding boxes with exact intersection tests, used by
//!   the default requirements (collision / containment / visibility);
//! - [`GridIndex`], a uniform-grid point-query index over region pieces
//!   and field cells that keeps per-candidate containment checks O(1)
//!   instead of O(pieces).
//!
//! # Example
//!
//! ```
//! use scenic_geom::{Vec2, Polygon, Region};
//!
//! let square = Polygon::rectangle(Vec2::new(0.0, 0.0), 10.0, 10.0);
//! let region = Region::from(square);
//! assert!(region.contains(Vec2::new(1.0, 1.0)));
//! ```

pub mod bbox;
pub mod clip;
pub mod field;
pub mod heading;
pub mod index;
pub mod polygon;
pub mod region;
pub mod sector;
pub mod triangulate;
pub mod vec2;
pub mod visibility;

pub use bbox::{Aabb, OrientedBox};
pub use field::VectorField;
pub use heading::Heading;
pub use index::GridIndex;
pub use polygon::Polygon;
pub use region::Region;
pub use sector::Sector;
pub use vec2::Vec2;

/// Tolerance used for geometric predicates throughout the crate.
pub const EPSILON: f64 = 1e-9;

/// The rounding slack of the conservative disc tests
/// ([`visibility::Viewer::may_see_disc`],
/// [`region::HalfPlanes::contains_disc`],
/// [`OrientedBox::clear_of_disc`]) at coordinates of size `magnitude`.
/// The exact tests they stand in for round to a few ulps of their inputs
/// (about `1e-16` of the magnitudes) and accept relative `EPSILON`
/// tolerances; `1e-7` of the magnitudes covers both with room to spare
/// and is still far below any distance a scene cares about.
fn disc_slack(magnitude: f64) -> f64 {
    1e-7 * (1.0 + magnitude)
}

/// A cheap bound on `|v|` for [`disc_slack`].
fn magnitude(v: Vec2) -> f64 {
    v.x.abs() + v.y.abs()
}
