//! Specifier resolution: Algorithm 1 of the paper (`resolveSpecifiers`).
//!
//! When an object is constructed from a set of specifiers, each specifier
//! is a function from *dependencies* (values of other properties) to
//! values for the properties it specifies, some only *optionally* (so
//! other specifiers may override them). The resolution procedure:
//!
//! 1. gather non-optionally specified properties (erroring on double
//!    specification);
//! 2. keep optional specifications only where nothing else specifies the
//!    property, erroring on ambiguity;
//! 3. add class default-value specifiers for remaining properties;
//! 4. build the dependency graph and topologically sort it;
//! 5. evaluate the specifiers in that order.
//!
//! This module implements steps 1–4 on specifier *metadata*; evaluation
//! (step 5) happens in the interpreter.

use crate::error::{RunResult, ScenicError};
use crate::object::PropName;

/// Where a specifier came from (priority order of Algorithm 1 step 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecSource {
    /// Written explicitly at the construction site.
    Explicit,
    /// A class default value.
    Default,
}

/// Metadata of one specifier instance.
///
/// `Eq + Hash` let the compiled engine memoize [`resolve`] results by
/// `(class, metas)` — resolution is a pure function of this metadata.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SpecMeta {
    /// Display name for diagnostics (e.g. `left of`).
    pub name: String,
    /// Properties specified non-optionally.
    pub specifies: Vec<String>,
    /// Properties specified optionally.
    pub optional: Vec<String>,
    /// Properties this specifier depends on.
    pub deps: Vec<String>,
    /// Whether explicit or a default.
    pub source: SpecSource,
}

/// Result of resolution: for each specifier index (into the input
/// slice), the properties it is responsible for, in evaluation order.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedOrder {
    /// `(specifier index, properties to assign)` in evaluation order.
    /// The names are the ones objects are keyed by: construction clones
    /// them from here.
    pub order: Vec<(usize, Vec<PropName>)>,
}

/// Runs Algorithm 1 over the given specifiers (explicit specifiers must
/// precede defaults in the slice for deterministic diagnostics, but any
/// order is accepted).
///
/// # Errors
///
/// Returns [`ScenicError::Specifier`] on double specification, ambiguous
/// optional specification, missing dependencies, or cyclic dependencies.
pub fn resolve(class: &str, specs: &[SpecMeta]) -> RunResult<ResolvedOrder> {
    let err = |message: String| ScenicError::Specifier {
        message,
        class: class.to_string(),
    };

    // Step 1: non-optional specifications (explicit specifiers only
    // conflict with each other; defaults never conflict because the
    // caller only passes defaults for otherwise-unspecified properties).
    let mut spec_for_property: Vec<(String, usize)> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        if spec.source != SpecSource::Explicit {
            continue;
        }
        for prop in &spec.specifies {
            if let Some((_, prev)) = spec_for_property.iter().find(|(p, _)| p == prop) {
                return Err(err(format!(
                    "property `{prop}` specified twice (by `{}` and `{}`)",
                    specs[*prev].name, spec.name
                )));
            }
            spec_for_property.push((prop.clone(), i));
        }
    }

    // Step 2: optional specifications.
    for (i, spec) in specs.iter().enumerate() {
        if spec.source != SpecSource::Explicit {
            continue;
        }
        for prop in &spec.optional {
            if spec_for_property.iter().any(|(p, _)| p == prop) {
                continue;
            }
            let other_optional = specs
                .iter()
                .enumerate()
                .filter(|(j, s)| {
                    *j != i && s.source == SpecSource::Explicit && s.optional.contains(prop)
                })
                .count();
            if other_optional > 0 {
                return Err(err(format!(
                    "property `{prop}` optionally specified by multiple specifiers"
                )));
            }
            spec_for_property.push((prop.clone(), i));
        }
    }

    // Step 3: defaults for any remaining properties.
    for (i, spec) in specs.iter().enumerate() {
        if spec.source != SpecSource::Default {
            continue;
        }
        for prop in &spec.specifies {
            if !spec_for_property.iter().any(|(p, _)| p == prop) {
                spec_for_property.push((prop.clone(), i));
            }
        }
    }

    // Step 4: dependency graph over the *used* specifiers.
    let used: Vec<usize> = {
        let mut v: Vec<usize> = spec_for_property.iter().map(|&(_, i)| i).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let spec_of = |prop: &str| -> Option<usize> {
        spec_for_property
            .iter()
            .find(|(p, _)| p == prop)
            .map(|&(_, i)| i)
    };
    // edges[i] = specifiers that must run before specifier i.
    let mut before: std::collections::HashMap<usize, Vec<usize>> = std::collections::HashMap::new();
    for &i in &used {
        let mut preds = Vec::new();
        for dep in &specs[i].deps {
            match spec_of(dep) {
                Some(j) => {
                    if j != i {
                        preds.push(j);
                    }
                }
                None => {
                    return Err(err(format!(
                        "specifier `{}` depends on property `{dep}`, which nothing specifies",
                        specs[i].name
                    )));
                }
            }
        }
        before.insert(i, preds);
    }

    // Kahn's algorithm, stable by input index for determinism.
    let mut order = Vec::with_capacity(used.len());
    let mut done: std::collections::HashSet<usize> = std::collections::HashSet::new();
    let mut remaining: Vec<usize> = used.clone();
    while !remaining.is_empty() {
        let next = remaining
            .iter()
            .position(|&i| before[&i].iter().all(|p| done.contains(p)));
        match next {
            Some(k) => {
                let i = remaining.remove(k);
                done.insert(i);
                let props: Vec<PropName> = spec_for_property
                    .iter()
                    .filter(|&&(_, s)| s == i)
                    .map(|(p, _)| PropName::from(p.as_str()))
                    .collect();
                order.push((i, props));
            }
            None => {
                let names: Vec<&str> = remaining.iter().map(|&i| specs[i].name.as_str()).collect();
                return Err(err(format!(
                    "specifiers have cyclic dependencies: {}",
                    names.join(", ")
                )));
            }
        }
    }
    Ok(ResolvedOrder { order })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(
        name: &str,
        specifies: &[&str],
        optional: &[&str],
        deps: &[&str],
        source: SpecSource,
    ) -> SpecMeta {
        SpecMeta {
            name: name.into(),
            specifies: specifies.iter().map(|s| s.to_string()).collect(),
            optional: optional.iter().map(|s| s.to_string()).collect(),
            deps: deps.iter().map(|s| s.to_string()).collect(),
            source,
        }
    }

    #[test]
    fn simple_order_respects_dependencies() {
        // `left of spot by 0.5` depends on width, whose default depends
        // on model, whose default depends on nothing.
        let specs = vec![
            meta(
                "left of",
                &["position"],
                &[],
                &["heading", "width"],
                SpecSource::Explicit,
            ),
            meta(
                "default heading",
                &["heading"],
                &[],
                &[],
                SpecSource::Default,
            ),
            meta(
                "default width",
                &["width"],
                &[],
                &["model"],
                SpecSource::Default,
            ),
            meta("default model", &["model"], &[], &[], SpecSource::Default),
        ];
        let r = resolve("Car", &specs).unwrap();
        let pos = |i: usize| r.order.iter().position(|&(s, _)| s == i).unwrap();
        assert!(pos(3) < pos(2), "model before width");
        assert!(pos(2) < pos(0), "width before left-of");
        assert!(pos(1) < pos(0), "heading before left-of");
    }

    #[test]
    fn double_specification_errors() {
        let specs = vec![
            meta("at", &["position"], &[], &[], SpecSource::Explicit),
            meta("offset by", &["position"], &[], &[], SpecSource::Explicit),
        ];
        let e = resolve("Car", &specs).unwrap_err();
        assert!(matches!(e, ScenicError::Specifier { .. }), "{e}");
    }

    #[test]
    fn optional_overridden_by_non_optional() {
        // `on road` optionally specifies heading; `facing 20 deg`
        // overrides it.
        let specs = vec![
            meta(
                "on region",
                &["position"],
                &["heading"],
                &[],
                SpecSource::Explicit,
            ),
            meta("facing", &["heading"], &[], &[], SpecSource::Explicit),
        ];
        let r = resolve("Object", &specs).unwrap();
        let heading_owner = r
            .order
            .iter()
            .find(|(_, props)| props.iter().any(|p| &**p == "heading"))
            .unwrap()
            .0;
        assert_eq!(heading_owner, 1);
    }

    #[test]
    fn ambiguous_optionals_error() {
        let specs = vec![
            meta(
                "on region",
                &["position"],
                &["heading"],
                &[],
                SpecSource::Explicit,
            ),
            meta(
                "following",
                &["dummy"],
                &["heading"],
                &[],
                SpecSource::Explicit,
            ),
        ];
        assert!(resolve("Object", &specs).is_err());
    }

    #[test]
    fn optional_used_when_unopposed() {
        let specs = vec![
            meta(
                "on region",
                &["position"],
                &["heading"],
                &[],
                SpecSource::Explicit,
            ),
            meta(
                "default heading",
                &["heading"],
                &[],
                &[],
                SpecSource::Default,
            ),
        ];
        let r = resolve("Object", &specs).unwrap();
        // The optional wins over the default.
        let heading_owner = r
            .order
            .iter()
            .find(|(_, props)| props.iter().any(|p| &**p == "heading"))
            .unwrap()
            .0;
        assert_eq!(heading_owner, 0);
    }

    #[test]
    fn cycle_detected() {
        // The paper's example: `Car left of 0 @ 0, facing roadDirection`
        // (left-of needs heading, facing-field needs position).
        let specs = vec![
            meta(
                "left of",
                &["position"],
                &[],
                &["heading", "width"],
                SpecSource::Explicit,
            ),
            meta(
                "facing field",
                &["heading"],
                &[],
                &["position"],
                SpecSource::Explicit,
            ),
            meta("default width", &["width"], &[], &[], SpecSource::Default),
        ];
        let e = resolve("Car", &specs).unwrap_err();
        let ScenicError::Specifier { message, .. } = e else {
            panic!();
        };
        assert!(message.contains("cyclic"), "{message}");
    }

    #[test]
    fn missing_dependency_errors() {
        let specs = vec![meta(
            "left of",
            &["position"],
            &[],
            &["nonexistent"],
            SpecSource::Explicit,
        )];
        let e = resolve("Car", &specs).unwrap_err();
        let ScenicError::Specifier { message, .. } = e else {
            panic!();
        };
        assert!(message.contains("nonexistent"), "{message}");
    }

    #[test]
    fn unused_defaults_are_dropped() {
        let specs = vec![
            meta("at", &["position"], &[], &[], SpecSource::Explicit),
            meta(
                "default position",
                &["position"],
                &[],
                &[],
                SpecSource::Default,
            ),
        ];
        let r = resolve("Point", &specs).unwrap();
        assert_eq!(r.order.len(), 1);
        assert_eq!(r.order[0].0, 0);
    }
}
