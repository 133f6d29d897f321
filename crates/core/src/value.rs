//! Runtime values of the Scenic interpreter.
//!
//! §4.1 lists the primitive types: booleans, scalars, vectors, headings,
//! vector fields, and regions; plus class and object values. Headings are
//! scalars in 2D. Distribution expressions evaluate to [`Value::Sample`],
//! which carries both the drawn value and the originating distribution so
//! that `resample(D)` can redraw (conditioned on the distribution's
//! evaluated parameters, per footnote 2 of the paper).

use crate::error::{RunResult, ScenicError};
use crate::object::ObjRef;
use scenic_geom::{Region, Vec2, VectorField};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A distribution specification (Table 1).
#[derive(Debug, Clone)]
pub enum DistSpec {
    /// `(low, high)` — uniform on an interval.
    Range(f64, f64),
    /// `Uniform(v, ...)` — uniform over explicit values.
    UniformOf(Vec<Value>),
    /// `Discrete({v: w, ...})` — weighted discrete choice.
    Discrete(Vec<(Value, f64)>),
    /// `Normal(mean, stdDev)`.
    Normal(f64, f64),
    /// `TruncatedNormal(mean, stdDev, low, high)` — a normal conditioned
    /// on the interval `[low, high]` (one of the "custom distributions
    /// beyond those in the Table" that §4.2 says Scenic allows; drawn
    /// by rejection, matching the language's requirement semantics).
    TruncatedNormal {
        /// Mean of the underlying normal.
        mean: f64,
        /// Standard deviation of the underlying normal.
        std: f64,
        /// Lower truncation bound.
        low: f64,
        /// Upper truncation bound.
        high: f64,
    },
    /// Not a real distribution: marks a value *derived from* random
    /// samples (taint), so conditionals can detect randomness (§4's
    /// no-random-control-flow restriction). Cannot be resampled.
    Derived,
}

impl DistSpec {
    /// Draws a raw value from the distribution.
    pub fn draw(&self, rng: &mut dyn rand::RngCore) -> RunResult<Value> {
        use rand::Rng;
        Ok(match self {
            DistSpec::Range(lo, hi) => {
                let (lo, hi) = (lo.min(*hi), lo.max(*hi));
                if (hi - lo).abs() < f64::EPSILON {
                    Value::Number(lo)
                } else {
                    Value::Number(rng.gen_range(lo..hi))
                }
            }
            DistSpec::UniformOf(values) => {
                if values.is_empty() {
                    return Err(ScenicError::runtime("Uniform() needs at least one value"));
                }
                values[rng.gen_range(0..values.len())].clone()
            }
            DistSpec::Discrete(pairs) => {
                let total: f64 = pairs.iter().map(|(_, w)| w).sum();
                if total <= 0.0 {
                    return Err(ScenicError::runtime(
                        "Discrete() weights must sum to a positive value",
                    ));
                }
                let mut t = rng.gen_range(0.0..total);
                for (v, w) in pairs {
                    t -= w;
                    if t <= 0.0 {
                        return Ok(v.clone());
                    }
                }
                pairs.last().expect("nonempty").0.clone()
            }
            DistSpec::Derived => {
                return Err(ScenicError::runtime(
                    "cannot resample a value derived from other samples",
                ))
            }
            DistSpec::Normal(mean, std) => {
                // Box–Muller transform.
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                Value::Number(mean + std * z)
            }
            DistSpec::TruncatedNormal {
                mean,
                std,
                low,
                high,
            } => {
                if low > high {
                    return Err(ScenicError::runtime("TruncatedNormal() needs low <= high"));
                }
                // Rejection from the parent normal; bail out if the
                // window captures too little mass to hit by luck.
                let parent = DistSpec::Normal(*mean, *std);
                for _ in 0..10_000 {
                    let v = parent.draw(rng)?;
                    if let Value::Number(x) = v {
                        if (*low..=*high).contains(&x) {
                            return Ok(Value::Number(x));
                        }
                    }
                }
                return Err(ScenicError::runtime(format!(
                    "TruncatedNormal({mean}, {std}, {low}, {high}) kept rejecting: \
                     the window is too far into the tail"
                )));
            }
        })
    }

    /// Draws and wraps the result as a [`Value::Sample`], preserving the
    /// spec for later `resample` calls.
    pub fn sample(self: &Rc<Self>, rng: &mut dyn rand::RngCore) -> RunResult<Value> {
        let value = self.draw(rng)?;
        Ok(Value::Sample(Rc::new(SampleValue {
            spec: Rc::clone(self),
            value,
        })))
    }
}

/// Marks `value` as derived from random samples without a resampleable
/// distribution.
pub fn tainted(value: Value) -> Value {
    Value::Sample(Rc::new(SampleValue {
        spec: Rc::new(DistSpec::Derived),
        value,
    }))
}

/// A value drawn from a distribution, remembering its origin.
#[derive(Debug, Clone)]
pub struct SampleValue {
    /// The distribution it came from.
    pub spec: Rc<DistSpec>,
    /// The drawn value.
    pub value: Value,
}

/// A user-defined function (closure over its defining environment).
pub struct UserFunc {
    /// The parsed definition, shared with the `def` statement: creating
    /// the function copies no syntax.
    pub def: std::sync::Arc<scenic_lang::FuncDef>,
    /// Captured environment.
    pub closure: crate::env::EnvRef,
}

impl fmt::Debug for UserFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<function {}>", self.def.name)
    }
}

/// A user-defined specifier (closure over its defining environment),
/// declared with the `specifier` statement and applied at a construction
/// site with `using name(args)`.
pub struct UserSpecifier {
    /// The parsed definition, shared with the `specifier` statement.
    pub def: std::sync::Arc<scenic_lang::SpecifierDef>,
    /// Captured environment.
    pub closure: crate::env::EnvRef,
}

impl fmt::Debug for UserSpecifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<specifier {}>", self.def.name)
    }
}

/// Context handed to native functions (library builtins).
pub struct NativeCtx<'a> {
    /// Random source for distribution builtins.
    pub rng: &'a mut dyn rand::RngCore,
}

/// Signature of native (Rust-implemented) functions callable from Scenic.
///
/// The `Send + Sync` bound lets native functions live inside a compiled
/// [`crate::World`] shared across `sample_batch` worker threads; the
/// *returned* [`Value`]s are still thread-local interpreter state.
pub type NativeFnImpl = Arc<
    dyn Fn(&mut NativeCtx<'_>, Vec<Value>, Vec<(String, Value)>) -> RunResult<Value> + Send + Sync,
>;

/// A named native function.
#[derive(Clone)]
pub struct NativeFn {
    /// Display name, shared by every copy of the value.
    pub name: Arc<str>,
    /// Implementation.
    pub imp: NativeFnImpl,
    /// Every value the function can return, when the world declares it;
    /// `None` promises nothing. A declared support must hold for every
    /// call, whatever the arguments and the random draws: static
    /// analyses read bounds off it (the compiled engine's visibility
    /// guard bounds gta `Car` dimensions by `CarModel.defaultModel()`'s),
    /// so a value outside it would let them reject a candidate the full
    /// checks accept. (A thin pointer: see the size check below.)
    pub support: Option<Arc<Vec<crate::world::NativeValue>>>,
}

// `NativeFn` is `Value`'s largest variant, so it sets the size of every
// value the interpreter moves: one more word here slowed every
// `mars_bottleneck` candidate by several percent.
const _: () = assert!(std::mem::size_of::<Value>() <= 48);

impl fmt::Debug for NativeFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<builtin {}>", self.name)
    }
}

/// Shared mutable association list (used for `Discrete({...})` weights,
/// library namespaces like `CarModel.models`, and model records).
/// Lookups by string key scan linearly; dictionaries in scenarios are
/// small.
pub type DictRef = Rc<RefCell<Vec<(Value, Value)>>>;

/// Looks up a string key in a dictionary value.
pub fn dict_get(dict: &DictRef, key: &str) -> Option<Value> {
    dict.borrow()
        .iter()
        .find(|(k, _)| matches!(k.unwrap_sample(), Value::Str(s) if &**s == key))
        .map(|(_, v)| v.clone())
}

/// Builds a dictionary from string keys.
pub fn dict_from<I: IntoIterator<Item = (String, Value)>>(items: I) -> DictRef {
    Rc::new(RefCell::new(
        items.into_iter().map(|(k, v)| (Value::str(k), v)).collect(),
    ))
}

/// A runtime value.
#[derive(Debug, Clone)]
pub enum Value {
    /// `None`.
    None,
    /// Boolean.
    Bool(bool),
    /// Scalar (also used for headings, in radians).
    Number(f64),
    /// String.
    Str(Rc<str>),
    /// Vector (`X @ Y`).
    Vector(Vec2),
    /// Region (`Arc`: regions also appear in thread-shared worlds).
    Region(Arc<Region>),
    /// Vector field (`Arc`: fields also appear in thread-shared worlds).
    Field(Arc<VectorField>),
    /// List.
    List(Rc<Vec<Value>>),
    /// String-keyed dictionary / namespace.
    Dict(DictRef),
    /// A sample drawn from a distribution (coerces to its value).
    Sample(Rc<SampleValue>),
    /// A `Point`/`OrientedPoint`/`Object` instance.
    Object(ObjRef),
    /// A class.
    Class(Rc<crate::class::RuntimeClass>),
    /// A user-defined function.
    Function(Rc<UserFunc>),
    /// A user-defined specifier (applied with `using name(args)`).
    Specifier(Rc<UserSpecifier>),
    /// A native function.
    Native(NativeFn),
}

impl Value {
    /// Creates a string value.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Rc::from(s.as_ref()))
    }

    /// Strips `Sample` wrappers, exposing the underlying drawn value.
    pub fn unwrap_sample(&self) -> &Value {
        let mut v = self;
        while let Value::Sample(s) = v {
            v = &s.value;
        }
        v
    }

    /// Whether the value involves a random draw (used to enforce the
    /// no-random-control-flow restriction of §4).
    pub fn is_random(&self) -> bool {
        matches!(self, Value::Sample(_))
    }

    /// Scalar coercion: numbers and samples of numbers.
    pub fn as_number(&self) -> RunResult<f64> {
        match self.unwrap_sample() {
            Value::Number(n) => Ok(*n),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            other => Err(ScenicError::type_error(format!(
                "expected a scalar, found {}",
                other.type_name()
            ))),
        }
    }

    /// Vector coercion: vectors, and `Point`-ish objects via their
    /// `position` (the auto-interpretation rule of §4.1).
    pub fn as_vector(&self) -> RunResult<Vec2> {
        match self.unwrap_sample() {
            Value::Vector(v) => Ok(*v),
            Value::Object(o) => o.borrow().position(),
            other => Err(ScenicError::type_error(format!(
                "expected a vector, found {}",
                other.type_name()
            ))),
        }
    }

    /// Heading coercion: scalars, and `OrientedPoint`-ish objects via
    /// their `heading` (§4.1).
    pub fn as_heading(&self) -> RunResult<f64> {
        match self.unwrap_sample() {
            Value::Number(n) => Ok(*n),
            Value::Object(o) => o.borrow().heading(),
            other => Err(ScenicError::type_error(format!(
                "expected a heading, found {}",
                other.type_name()
            ))),
        }
    }

    /// Boolean coercion (strict: only booleans and `None` are truthy
    /// tested; Scenic has no Python-style truthiness).
    pub fn as_bool(&self) -> RunResult<bool> {
        match self.unwrap_sample() {
            Value::Bool(b) => Ok(*b),
            Value::None => Ok(false),
            other => Err(ScenicError::type_error(format!(
                "expected a boolean, found {}",
                other.type_name()
            ))),
        }
    }

    /// Region coercion.
    pub fn as_region(&self) -> RunResult<Arc<Region>> {
        match self.unwrap_sample() {
            Value::Region(r) => Ok(Arc::clone(r)),
            other => Err(ScenicError::type_error(format!(
                "expected a region, found {}",
                other.type_name()
            ))),
        }
    }

    /// Field coercion.
    pub fn as_field(&self) -> RunResult<Arc<VectorField>> {
        match self.unwrap_sample() {
            Value::Field(f) => Ok(Arc::clone(f)),
            other => Err(ScenicError::type_error(format!(
                "expected a vector field, found {}",
                other.type_name()
            ))),
        }
    }

    /// Object coercion.
    pub fn as_object(&self) -> RunResult<ObjRef> {
        match self.unwrap_sample() {
            Value::Object(o) => Ok(o.clone()),
            other => Err(ScenicError::type_error(format!(
                "expected an object, found {}",
                other.type_name()
            ))),
        }
    }

    /// String coercion.
    pub fn as_str(&self) -> RunResult<Rc<str>> {
        match self.unwrap_sample() {
            Value::Str(s) => Ok(Rc::clone(s)),
            other => Err(ScenicError::type_error(format!(
                "expected a string, found {}",
                other.type_name()
            ))),
        }
    }

    /// A short name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::None => "None",
            Value::Bool(_) => "boolean",
            Value::Number(_) => "scalar",
            Value::Str(_) => "string",
            Value::Vector(_) => "vector",
            Value::Region(_) => "region",
            Value::Field(_) => "vector field",
            Value::List(_) => "list",
            Value::Dict(_) => "dict",
            Value::Sample(_) => "distribution sample",
            Value::Object(_) => "object",
            Value::Class(_) => "class",
            Value::Function(_) => "function",
            Value::Specifier(_) => "specifier",
            Value::Native(_) => "builtin",
        }
    }

    /// Structural equality for `==` (numbers, strings, booleans, `None`,
    /// vectors, lists; objects compare by identity).
    pub fn equals(&self, other: &Value) -> bool {
        match (self.unwrap_sample(), other.unwrap_sample()) {
            (Value::None, Value::None) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Number(a), Value::Number(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Vector(a), Value::Vector(b)) => a == b,
            (Value::List(a), Value::List(b)) => {
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.equals(y))
            }
            (Value::Object(a), Value::Object(b)) => Rc::ptr_eq(a, b),
            (Value::Dict(a), Value::Dict(b)) => Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.unwrap_sample() {
            Value::None => write!(f, "None"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => write!(f, "{n}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Vector(v) => write!(f, "{v}"),
            Value::Region(_) => write!(f, "<region>"),
            Value::Field(_) => write!(f, "<vector field>"),
            Value::List(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Value::Dict(d) => write!(f, "<dict of {} entries>", d.borrow().len()),
            Value::Object(o) => write!(f, "<{} #{}>", o.borrow().class_name(), o.borrow().id),
            Value::Class(c) => write!(f, "<class {}>", c.name),
            Value::Function(func) => write!(f, "<function {}>", func.def.name),
            Value::Specifier(s) => write!(f, "<specifier {}>", s.def.name),
            Value::Native(n) => write!(f, "<builtin {}>", n.name),
            Value::Sample(_) => unreachable!("unwrapped"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn range_draws_within_bounds() {
        let spec = Rc::new(DistSpec::Range(2.0, 5.0));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = spec.sample(&mut rng).unwrap();
            let n = v.as_number().unwrap();
            assert!((2.0..5.0).contains(&n));
            assert!(v.is_random());
        }
    }

    #[test]
    fn reversed_range_is_normalized() {
        let spec = Rc::new(DistSpec::Range(5.0, 2.0));
        let mut rng = StdRng::seed_from_u64(2);
        let n = spec.sample(&mut rng).unwrap().as_number().unwrap();
        assert!((2.0..5.0).contains(&n));
    }

    #[test]
    fn uniform_of_values() {
        let spec = Rc::new(DistSpec::UniformOf(vec![
            Value::Number(1.0),
            Value::Number(-1.0),
        ]));
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let n = spec.sample(&mut rng).unwrap().as_number().unwrap();
            seen.insert(n as i64);
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn discrete_respects_weights() {
        let spec = Rc::new(DistSpec::Discrete(vec![
            (Value::Number(0.0), 9.0),
            (Value::Number(1.0), 1.0),
        ]));
        let mut rng = StdRng::seed_from_u64(4);
        let mut ones = 0;
        for _ in 0..2000 {
            if spec.sample(&mut rng).unwrap().as_number().unwrap() > 0.5 {
                ones += 1;
            }
        }
        let frac = ones as f64 / 2000.0;
        assert!((frac - 0.1).abs() < 0.03, "frac {frac}");
    }

    #[test]
    fn normal_mean_and_spread() {
        let spec = Rc::new(DistSpec::Normal(10.0, 2.0));
        let mut rng = StdRng::seed_from_u64(5);
        let n = 4000;
        let samples: Vec<f64> = (0..n)
            .map(|_| spec.sample(&mut rng).unwrap().as_number().unwrap())
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.15, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.15, "std {}", var.sqrt());
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Number(3.0).as_number().unwrap(), 3.0);
        assert!(Value::str("x").as_number().is_err());
        assert_eq!(
            Value::Vector(Vec2::new(1.0, 2.0)).as_vector().unwrap(),
            Vec2::new(1.0, 2.0)
        );
        assert!(Value::None.as_bool() == Ok(false));
        assert!(Value::Number(0.5).as_bool().is_err());
    }

    #[test]
    fn equality_semantics() {
        assert!(Value::Number(2.0).equals(&Value::Number(2.0)));
        assert!(Value::str("a").equals(&Value::str("a")));
        assert!(!Value::str("a").equals(&Value::Number(1.0)));
        assert!(Value::None.equals(&Value::None));
        let l1 = Value::List(Rc::new(vec![Value::Number(1.0)]));
        let l2 = Value::List(Rc::new(vec![Value::Number(1.0)]));
        assert!(l1.equals(&l2));
    }

    #[test]
    fn sample_unwrapping_is_recursive() {
        let inner = Value::Sample(Rc::new(SampleValue {
            spec: Rc::new(DistSpec::Range(0.0, 1.0)),
            value: Value::Number(0.5),
        }));
        let outer = Value::Sample(Rc::new(SampleValue {
            spec: Rc::new(DistSpec::Range(0.0, 1.0)),
            value: inner,
        }));
        assert_eq!(outer.as_number().unwrap(), 0.5);
    }
}
