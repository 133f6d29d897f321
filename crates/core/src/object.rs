//! Object instances: `Point`, `OrientedPoint`, `Object`, and user
//! subclasses.

use crate::error::{RunResult, ScenicError};
use crate::value::Value;
use scenic_geom::visibility::Viewer;
use scenic_geom::{Heading, OrientedBox, Vec2};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Shared reference to an instance.
pub type ObjRef = Rc<RefCell<ObjData>>;

/// A property name. Construction clones names out of staged, per-class
/// tables (the resolved specifier order and the class defaults), so a
/// property write costs a reference-count bump, not a string copy.
pub type PropName = Rc<str>;

/// The state of an instance: its class and property assignments.
#[derive(Debug, Clone)]
pub struct ObjData {
    /// Class name (most derived).
    pub class_name: String,
    /// Chain of class names from most derived to `Point`, shared with
    /// the class (see [`crate::class::RuntimeClass::lineage`]).
    pub lineage: Rc<[String]>,
    /// Property values, in name order (the order scenes list them in).
    pub properties: BTreeMap<PropName, Value>,
    /// Creation index within the run (stable identity for scenes).
    pub id: usize,
}

impl ObjData {
    /// Reads a property.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.properties.get(name).cloned()
    }

    /// Reads a property or errors.
    pub fn get_required(&self, name: &str) -> RunResult<Value> {
        self.get(name).ok_or_else(|| ScenicError::Undefined {
            name: format!("{}.{name}", self.class_name),
            line: 0,
        })
    }

    /// Writes a property.
    pub fn set(&mut self, name: impl Into<PropName>, value: Value) {
        self.properties.insert(name.into(), value);
    }

    /// The object's position, as a vector.
    pub fn position(&self) -> RunResult<Vec2> {
        self.get_required("position")?.as_vector()
    }

    /// The object's heading, in radians.
    pub fn heading(&self) -> RunResult<f64> {
        self.get_required("heading")?.as_heading()
    }

    /// Scalar property with a default.
    pub fn scalar_or(&self, name: &str, default: f64) -> f64 {
        self.get(name)
            .and_then(|v| v.as_number().ok())
            .unwrap_or(default)
    }

    /// Boolean property with a default.
    pub fn bool_or(&self, name: &str, default: bool) -> bool {
        self.get(name)
            .and_then(|v| v.as_bool().ok())
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
            self.scalar_or("width", 1.0),
            self.scalar_or("height", 1.0),
        ))
    }

    /// The visibility model of this instance (§4.2): `viewDistance` disc
    /// for points, restricted to the `viewAngle` cone for oriented
    /// points.
    pub fn viewer(&self) -> RunResult<Viewer> {
        let position = self.position()?;
        let view_distance = self.scalar_or("visibleDistance", self.scalar_or("viewDistance", 50.0));
        if self.is_instance_of("OrientedPoint") {
            Ok(Viewer::oriented(
                position,
                Heading(self.heading()?),
                view_distance,
                self.scalar_or("viewAngle", std::f64::consts::TAU),
            ))
        } else {
            Ok(Viewer::point(position, view_distance))
        }
    }
}

/// Creates a detached `OrientedPoint` instance (used by operators like
/// `front of O` that return oriented points, Fig. 35).
pub fn oriented_point(position: Vec2, heading: f64) -> ObjRef {
    let mut properties = BTreeMap::new();
    properties.insert("position".into(), Value::Vector(position));
    properties.insert("heading".into(), Value::Number(heading));
    properties.insert("viewDistance".into(), Value::Number(50.0));
    properties.insert("viewAngle".into(), Value::Number(std::f64::consts::TAU));
    Rc::new(RefCell::new(ObjData {
        class_name: "OrientedPoint".to_string(),
        lineage: Rc::new(["OrientedPoint".to_string(), "Point".to_string()]),
        properties,
        id: usize::MAX,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_object() -> ObjRef {
        let mut properties = BTreeMap::new();
        properties.insert("position".into(), Value::Vector(Vec2::new(1.0, 2.0)));
        properties.insert("heading".into(), Value::Number(0.5));
        properties.insert("width".into(), Value::Number(2.0));
        properties.insert("height".into(), Value::Number(4.0));
        Rc::new(RefCell::new(ObjData {
            class_name: "Car".into(),
            lineage: Rc::new([
                "Car".into(),
                "Object".into(),
                "OrientedPoint".into(),
                "Point".into(),
            ]),
            properties,
            id: 0,
        }))
    }

    #[test]
    fn property_access() {
        let o = sample_object();
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
}
