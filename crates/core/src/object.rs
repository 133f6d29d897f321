//! Object instances: `Point`, `OrientedPoint`, `Object`, and user
//! subclasses.
//!
//! An instance keeps its property values in a vector indexed by a
//! *layout*, the sorted names its construction site assigns, shared by
//! every object built there (the "maps" of Self: Chambers, Ungar & Lee,
//! OOPSLA 1989). Construction writes each value to a slot the site
//! precomputed, and a read by name scans about 15 names. The runtime's
//! own reads (footprints, viewers, mutation) name one of ten
//! `Known` properties, whose slots each layout records when it is
//! built: an inline cache (Deutsch & Schiffman, POPL 1984) on the map.

use crate::error::{RunResult, ScenicError};
use crate::value::Value;
use scenic_geom::visibility::Viewer;
use scenic_geom::{Heading, OrientedBox, Vec2};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared reference to an instance.
pub type ObjRef = Rc<RefCell<ObjData>>;

/// A property name. Construction clones names out of staged, per-site
/// tables (the resolved specifier order and its layout), so naming a
/// property costs a reference-count bump, not a string copy.
pub type PropName = Rc<str>;

/// A property the runtime itself reads, by slot: what the default
/// requirements, viewers, mutation and `beside` offsets look at.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Known {
    Position,
    Heading,
    Width,
    Height,
    AllowCollisions,
    RequireVisible,
    MutationScale,
    ViewAngle,
    VisibleDistance,
    ViewDistance,
}

impl Known {
    /// Every well-known property, in declaration order: `prop as usize`
    /// is its index here.
    pub(crate) const ALL: [Known; 10] = [
        Known::Position,
        Known::Heading,
        Known::Width,
        Known::Height,
        Known::AllowCollisions,
        Known::RequireVisible,
        Known::MutationScale,
        Known::ViewAngle,
        Known::VisibleDistance,
        Known::ViewDistance,
    ];

    /// The property's name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Known::Position => "position",
            Known::Heading => "heading",
            Known::Width => "width",
            Known::Height => "height",
            Known::AllowCollisions => "allowCollisions",
            Known::RequireVisible => "requireVisible",
            Known::MutationScale => "mutationScale",
            Known::ViewAngle => "viewAngle",
            Known::VisibleDistance => "visibleDistance",
            Known::ViewDistance => "viewDistance",
        }
    }
}

/// The property names an instance has slots for: sorted by name and
/// deduplicated. Every object built at one construction site shares one
/// layout; a write to a name outside it gives that object a grown copy.
#[derive(Debug)]
pub(crate) struct Layout {
    names: Box<[PropName]>,
    /// The slot of each [`Known`] property, indexed by the variant.
    known: [Option<usize>; Known::ALL.len()],
}

impl Layout {
    /// The layout of `names`, sorted and deduplicated.
    pub(crate) fn new(names: impl IntoIterator<Item = PropName>) -> Layout {
        let mut names: Vec<PropName> = names.into_iter().collect();
        names.sort_unstable();
        names.dedup();
        Layout::of_sorted(names.into())
    }

    /// The layout of `names`, already sorted and deduplicated, with the
    /// slots of the well-known names found.
    fn of_sorted(names: Box<[PropName]>) -> Layout {
        let known = Known::ALL.map(|prop| slot_in(&names, prop.name()));
        Layout { names, known }
    }

    /// The number of slots.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// The slot of `name`, if the layout has one.
    pub(crate) fn slot(&self, name: &str) -> Option<usize> {
        slot_in(&self.names, name)
    }

    /// This layout plus `name` (absent from it), and the slot `name`
    /// takes.
    fn with(&self, name: &str) -> (Layout, usize) {
        let at = self.names.partition_point(|n| **n < *name);
        let mut names = Vec::with_capacity(self.names.len() + 1);
        names.extend_from_slice(&self.names[..at]);
        names.push(PropName::from(name));
        names.extend_from_slice(&self.names[at..]);
        (Layout::of_sorted(names.into()), at)
    }
}

/// The position of `name` in `names`.
///
/// A linear scan that compares lengths first: a name's length sits in
/// its fat pointer, so most of the ~15 mismatches never touch the bytes,
/// where a binary search would compare whole strings at every step.
fn slot_in(names: &[PropName], name: &str) -> Option<usize> {
    names
        .iter()
        .position(|n| n.len() == name.len() && n.as_bytes() == name.as_bytes())
}

/// The state of an instance: its class and property assignments.
#[derive(Debug, Clone)]
pub struct ObjData {
    /// Chain of class names from most derived to `Point`, shared with
    /// the class (see [`crate::class::RuntimeClass::lineage`]).
    pub lineage: Rc<[String]>,
    /// The names `values` is indexed by.
    layout: Rc<Layout>,
    /// One value per slot of `layout`; `None` until assigned.
    values: Vec<Option<Value>>,
    /// Creation index within the run (stable identity for scenes).
    pub id: usize,
}

impl ObjData {
    /// An instance of the class whose lineage is `lineage` (most derived
    /// first, never empty) with every slot of `layout` unassigned.
    pub(crate) fn new(lineage: Rc<[String]>, layout: Rc<Layout>, id: usize) -> ObjData {
        ObjData {
            lineage,
            values: vec![None; layout.len()],
            layout,
            id,
        }
    }

    /// Most-derived class name.
    pub fn class_name(&self) -> &str {
        &self.lineage[0]
    }

    /// Reads a property.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.values[self.layout.slot(name)?].clone()
    }

    /// Reads a property or errors.
    pub fn get_required(&self, name: &str) -> RunResult<Value> {
        self.get(name).ok_or_else(|| ScenicError::Undefined {
            name: format!("{}.{name}", self.class_name()),
            line: 0,
        })
    }

    /// Borrows a well-known property, found by the slot its layout
    /// recorded.
    pub(crate) fn known(&self, prop: Known) -> Option<&Value> {
        self.values[self.layout.known[prop as usize]?].as_ref()
    }

    /// Borrows a well-known property or errors as [`ObjData::get_required`]
    /// does.
    fn known_required(&self, prop: Known) -> RunResult<&Value> {
        self.known(prop).ok_or_else(|| ScenicError::Undefined {
            name: format!("{}.{}", self.class_name(), prop.name()),
            line: 0,
        })
    }

    /// A well-known scalar property, or `default` when it is unset or
    /// not a scalar.
    pub(crate) fn known_number_or(&self, prop: Known, default: f64) -> f64 {
        self.known(prop)
            .and_then(|v| v.as_number().ok())
            .unwrap_or(default)
    }

    /// A well-known boolean property, or `default` when it is unset or
    /// not a boolean.
    pub(crate) fn known_bool_or(&self, prop: Known, default: bool) -> bool {
        self.known(prop)
            .and_then(|v| v.as_bool().ok())
            .unwrap_or(default)
    }

    /// Writes a property. A name outside the object's layout gives the
    /// object a grown copy of the layout (other objects keep theirs).
    pub fn set(&mut self, name: &str, value: Value) {
        match self.layout.slot(name) {
            Some(slot) => self.values[slot] = Some(value),
            None => {
                let (layout, slot) = self.layout.with(name);
                self.layout = Rc::new(layout);
                self.values.insert(slot, Some(value));
            }
        }
    }

    /// Writes slot `slot` of `layout`, the layout the object was created
    /// with: by index while the object still has that layout, by name if
    /// a write outside it has since grown the object's own.
    pub(crate) fn set_slot(&mut self, layout: &Rc<Layout>, slot: usize, value: Value) {
        if Rc::ptr_eq(&self.layout, layout) {
            self.values[slot] = Some(value);
        } else {
            self.set(&layout.names[slot], value);
        }
    }

    /// The assigned properties, in name order (the order scenes list
    /// them in).
    pub fn properties(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.layout
            .names
            .iter()
            .zip(&self.values)
            .filter_map(|(name, value)| Some((&**name, value.as_ref()?)))
    }

    /// The object's position, as a vector.
    pub fn position(&self) -> RunResult<Vec2> {
        self.known_required(Known::Position)?.as_vector()
    }

    /// The object's heading, in radians.
    pub fn heading(&self) -> RunResult<f64> {
        self.known_required(Known::Heading)?.as_heading()
    }

    /// Scalar property with a default.
    pub fn scalar_or(&self, name: &str, default: f64) -> f64 {
        self.get(name)
            .and_then(|v| v.as_number().ok())
            .unwrap_or(default)
    }

    /// Whether this instance descends from `class` (inclusive).
    pub fn is_instance_of(&self, class: &str) -> bool {
        self.lineage.iter().any(|c| c == class)
    }

    /// Whether the instance is a physical object (descends from
    /// `Object`): only these take part in scenes, collisions, and
    /// visibility requirements (§4.1).
    pub fn is_physical(&self) -> bool {
        self.is_instance_of("Object")
    }

    /// The bounding box (Table 2: `width` × `height` centered at
    /// `position`, aligned to `heading`).
    pub fn bounding_box(&self) -> RunResult<OrientedBox> {
        Ok(OrientedBox::new(
            self.position()?,
            Heading(self.heading().unwrap_or(0.0)),
            self.known_number_or(Known::Width, 1.0),
            self.known_number_or(Known::Height, 1.0),
        ))
    }

    /// The visibility model of this instance (§4.2): `viewDistance` disc
    /// for points, restricted to the `viewAngle` cone for oriented
    /// points.
    pub fn viewer(&self) -> RunResult<Viewer> {
        let position = self.position()?;
        let view_distance = self.known_number_or(
            Known::VisibleDistance,
            self.known_number_or(Known::ViewDistance, 50.0),
        );
        if self.is_instance_of("OrientedPoint") {
            Ok(Viewer::oriented(
                position,
                Heading(self.heading()?),
                view_distance,
                self.known_number_or(Known::ViewAngle, std::f64::consts::TAU),
            ))
        } else {
            Ok(Viewer::point(position, view_distance))
        }
    }
}

thread_local! {
    /// The lineage and layout every detached `OrientedPoint` shares.
    static ORIENTED_POINT: (Rc<[String]>, Rc<Layout>) = (
        Rc::new(["OrientedPoint".to_string(), "Point".to_string()]),
        Rc::new(Layout::new(
            ["heading", "position", "viewAngle", "viewDistance"].map(PropName::from),
        )),
    );
}

/// Creates a detached `OrientedPoint` instance (used by operators like
/// `front of O` that return oriented points, Fig. 35).
pub fn oriented_point(position: Vec2, heading: f64) -> ObjRef {
    let (lineage, layout) = ORIENTED_POINT.with(|(l, k)| (Rc::clone(l), Rc::clone(k)));
    let mut data = ObjData::new(lineage, layout, usize::MAX);
    data.set("position", Value::Vector(position));
    data.set("heading", Value::Number(heading));
    data.set("viewDistance", Value::Number(50.0));
    data.set("viewAngle", Value::Number(std::f64::consts::TAU));
    Rc::new(RefCell::new(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn names(list: &[&str]) -> Vec<PropName> {
        list.iter().map(|&n| PropName::from(n)).collect()
    }

    fn sample_object() -> ObjRef {
        let layout = Layout::new(names(&["position", "heading", "width", "height"]));
        let lineage: Rc<[String]> = Rc::new([
            "Car".into(),
            "Object".into(),
            "OrientedPoint".into(),
            "Point".into(),
        ]);
        let mut data = ObjData::new(lineage, Rc::new(layout), 0);
        data.set("position", Value::Vector(Vec2::new(1.0, 2.0)));
        data.set("heading", Value::Number(0.5));
        data.set("width", Value::Number(2.0));
        data.set("height", Value::Number(4.0));
        Rc::new(RefCell::new(data))
    }

    #[test]
    fn property_access() {
        let o = sample_object();
        assert_eq!(o.borrow().class_name(), "Car");
        assert_eq!(o.borrow().position().unwrap(), Vec2::new(1.0, 2.0));
        assert_eq!(o.borrow().heading().unwrap(), 0.5);
        assert!(o.borrow().get("missing").is_none());
        assert!(o.borrow().get_required("missing").is_err());
    }

    #[test]
    fn lineage_checks() {
        let o = sample_object();
        assert!(o.borrow().is_instance_of("Object"));
        assert!(o.borrow().is_instance_of("Car"));
        assert!(!o.borrow().is_instance_of("Rover"));
        assert!(o.borrow().is_physical());
    }

    #[test]
    fn bounding_box_matches_properties() {
        let o = sample_object();
        let bb = o.borrow().bounding_box().unwrap();
        assert_eq!(bb.width, 2.0);
        assert_eq!(bb.height, 4.0);
        assert_eq!(bb.center, Vec2::new(1.0, 2.0));
    }

    #[test]
    fn detached_oriented_point() {
        let op = oriented_point(Vec2::new(3.0, 4.0), 1.0);
        assert!(op.borrow().is_instance_of("OrientedPoint"));
        assert!(!op.borrow().is_physical());
        assert_eq!(op.borrow().position().unwrap(), Vec2::new(3.0, 4.0));
    }

    #[test]
    fn layouts_are_sorted_and_deduplicated() {
        let layout = Layout::new(names(&["width", "heading", "position", "heading"]));
        assert_eq!(*layout.names, *names(&["heading", "position", "width"]));
        assert_eq!(layout.slot("position"), Some(1));
        assert_eq!(layout.slot("positio"), None);
        assert_eq!(layout.slot("height"), None);
    }

    #[test]
    fn detached_points_share_a_layout_until_one_grows() {
        let a = oriented_point(Vec2::ZERO, 0.0);
        let b = oriented_point(Vec2::ZERO, 0.0);
        assert!(Rc::ptr_eq(&a.borrow().layout, &b.borrow().layout));
        a.borrow_mut().set("mutationScale", Value::Number(2.0));
        assert!(!Rc::ptr_eq(&a.borrow().layout, &b.borrow().layout));
        assert_eq!(a.borrow().scalar_or("mutationScale", 0.0), 2.0);
        assert!(b.borrow().get("mutationScale").is_none());
        assert_eq!(b.borrow().layout.len(), 4);
    }

    #[test]
    fn slot_writes_follow_a_grown_layout() {
        let layout = Rc::new(Layout::new(names(&["b", "d"])));
        let mut data = ObjData::new(Rc::new(["Point".into()]), Rc::clone(&layout), 0);
        data.set("a", Value::Number(1.0));
        // Slot 1 of the creation layout is `d`, now slot 2 of the object's.
        data.set_slot(&layout, 1, Value::Number(4.0));
        let props: Vec<(&str, &Value)> = data.properties().collect();
        assert_eq!(props.len(), 2);
        assert_eq!(props[0].0, "a");
        assert_eq!(props[1].0, "d");
        assert_eq!(data.scalar_or("d", 0.0), 4.0);
    }

    /// Property names the oracle test writes: a layout takes a subset,
    /// so some writes land outside it. Every well-known name is here,
    /// and so are names that sort before and between them.
    const POOL: [&str; 14] = [
        "position",
        "heading",
        "width",
        "height",
        "viewAngle",
        "tag",
        "mutationScale",
        "h",
        "headingStdDev",
        "a",
        "allowCollisions",
        "requireVisible",
        "visibleDistance",
        "viewDistance",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn objects_read_back_like_a_name_keyed_map(
            mask in 0u32..(1 << POOL.len()),
            writes in proptest::collection::vec(0u32..(POOL.len() as u32 * 8), 0..40),
        ) {
            let in_layout = |i: usize| mask & (1 << i) != 0;
            let layout = Rc::new(Layout::new(
                (0..POOL.len()).filter(|&i| in_layout(i)).map(|i| PropName::from(POOL[i])),
            ));
            let mut data = ObjData::new(Rc::new(["Point".into()]), Rc::clone(&layout), 0);
            let mut oracle: BTreeMap<String, Value> = BTreeMap::new();
            for (step, &w) in writes.iter().enumerate() {
                let w = w as usize;
                let name = POOL[w % POOL.len()];
                let value = Value::Number(step as f64);
                // Half the writes to a name of the creation layout go by
                // slot, as construction writes; the rest go by name.
                match layout.slot(name) {
                    Some(slot) if w / POOL.len() < 4 => {
                        data.set_slot(&layout, slot, value.clone())
                    }
                    _ => data.set(name, value.clone()),
                }
                oracle.insert(name.to_string(), value);
            }
            for name in POOL {
                let got = data.get(name).map(|v| v.as_number().unwrap());
                let want = oracle.get(name).map(|v| v.as_number().unwrap());
                prop_assert_eq!(got, want);
            }
            for prop in Known::ALL {
                let got = data.known(prop).map(|v| v.as_number().unwrap());
                let want = oracle.get(prop.name()).map(|v| v.as_number().unwrap());
                prop_assert!(got == want, "{}: {:?} != {:?}", prop.name(), got, want);
            }
            let got: Vec<(String, f64)> = data
                .properties()
                .map(|(k, v)| (k.to_string(), v.as_number().unwrap()))
                .collect();
            let want: Vec<(String, f64)> = oracle
                .iter()
                .map(|(k, v)| (k.clone(), v.as_number().unwrap()))
                .collect();
            prop_assert_eq!(got, want);
        }
    }
}
