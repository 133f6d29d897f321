//! Built-in functions available to every scenario.
//!
//! Covers the distribution constructors of Table 1 (`Uniform`,
//! `Discrete`, `Normal`), `resample` (§4.2), and the small Python-ish
//! library (`range`, `abs`, `min`, `max`, …) that the paper's examples
//! use.

use crate::env::{define, EnvRef};
use crate::error::{RunResult, ScenicError};
use crate::value::{DistSpec, NativeCtx, NativeFn, Value};
use std::collections::HashSet;
use std::io::Write as _;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

fn native(
    name: &str,
    f: impl Fn(&mut NativeCtx<'_>, Vec<Value>, Vec<(String, Value)>) -> RunResult<Value>
        + Send
        + Sync
        + 'static,
) -> Value {
    Value::Native(NativeFn {
        name: name.into(),
        imp: Arc::new(f),
        support: None,
    })
}

fn arity_error(name: &str, expected: &str, got: usize) -> ScenicError {
    ScenicError::runtime(format!(
        "{name}() expects {expected} argument(s), got {got}"
    ))
}

/// The names [`install`] binds, worked out once per process.
pub(crate) fn names() -> &'static HashSet<String> {
    static NAMES: OnceLock<HashSet<String>> = OnceLock::new();
    NAMES.get_or_init(|| {
        let env = crate::env::Scope::root();
        install(&env);
        crate::env::own_vars(&env)
            .into_iter()
            .map(|(name, _)| name)
            .collect()
    })
}

/// Installs the builtins into an environment.
pub fn install(env: &EnvRef) {
    define(
        env,
        "Uniform",
        native("Uniform", |ctx, args, _| {
            if args.is_empty() {
                return Err(arity_error("Uniform", "at least 1", 0));
            }
            Rc::new(DistSpec::UniformOf(args)).sample(ctx.rng)
        }),
    );
    define(
        env,
        "Normal",
        native("Normal", |ctx, args, _| {
            if args.len() != 2 {
                return Err(arity_error("Normal", "2", args.len()));
            }
            let mean = args[0].as_number()?;
            let std = args[1].as_number()?;
            Rc::new(DistSpec::Normal(mean, std)).sample(ctx.rng)
        }),
    );
    define(
        env,
        "TruncatedNormal",
        native("TruncatedNormal", |ctx, args, _| {
            if args.len() != 4 {
                return Err(arity_error("TruncatedNormal", "4", args.len()));
            }
            let mean = args[0].as_number()?;
            let std = args[1].as_number()?;
            let low = args[2].as_number()?;
            let high = args[3].as_number()?;
            Rc::new(DistSpec::TruncatedNormal {
                mean,
                std,
                low,
                high,
            })
            .sample(ctx.rng)
        }),
    );
    define(
        env,
        "Discrete",
        native("Discrete", |ctx, args, _| {
            let [dict] = &args[..] else {
                return Err(arity_error("Discrete", "1", args.len()));
            };
            let Value::Dict(d) = dict.unwrap_sample() else {
                return Err(ScenicError::type_error(
                    "Discrete() expects a {value: weight} dictionary",
                ));
            };
            let pairs: RunResult<Vec<(Value, f64)>> = d
                .borrow()
                .iter()
                .map(|(k, w)| Ok((k.clone(), w.as_number()?)))
                .collect();
            Rc::new(DistSpec::Discrete(pairs?)).sample(ctx.rng)
        }),
    );
    define(
        env,
        "resample",
        native("resample", |ctx, args, _| {
            let [value] = &args[..] else {
                return Err(arity_error("resample", "1", args.len()));
            };
            match value {
                Value::Sample(s) => s.spec.clone().sample(ctx.rng),
                other => Ok(other.clone()),
            }
        }),
    );
    define(
        env,
        "range",
        native("range", |_, args, _| {
            let (start, stop, step) = match args.len() {
                1 => (0.0, args[0].as_number()?, 1.0),
                2 => (args[0].as_number()?, args[1].as_number()?, 1.0),
                3 => (
                    args[0].as_number()?,
                    args[1].as_number()?,
                    args[2].as_number()?,
                ),
                n => return Err(arity_error("range", "1-3", n)),
            };
            if args.iter().any(Value::is_random) {
                return Err(ScenicError::RandomControlFlow { line: 0 });
            }
            if step == 0.0 {
                return Err(ScenicError::runtime("range() step must be nonzero"));
            }
            let mut items = Vec::new();
            let mut x = start;
            while (step > 0.0 && x < stop) || (step < 0.0 && x > stop) {
                items.push(Value::Number(x));
                x += step;
                if items.len() > 10_000_000 {
                    return Err(ScenicError::runtime("range() too large"));
                }
            }
            Ok(Value::List(Rc::new(items)))
        }),
    );
    define(
        env,
        "len",
        native("len", |_, args, _| {
            let [v] = &args[..] else {
                return Err(arity_error("len", "1", args.len()));
            };
            match v.unwrap_sample() {
                Value::List(items) => Ok(Value::Number(items.len() as f64)),
                Value::Dict(d) => Ok(Value::Number(d.borrow().len() as f64)),
                Value::Str(s) => Ok(Value::Number(s.chars().count() as f64)),
                other => Err(ScenicError::type_error(format!(
                    "len() not supported for {}",
                    other.type_name()
                ))),
            }
        }),
    );
    define(
        env,
        "abs",
        native("abs", |_, args, _| {
            let [v] = &args[..] else {
                return Err(arity_error("abs", "1", args.len()));
            };
            Ok(Value::Number(v.as_number()?.abs()))
        }),
    );
    define(
        env,
        "min",
        native("min", |_, args, _| fold_numbers("min", args, f64::min)),
    );
    define(
        env,
        "max",
        native("max", |_, args, _| fold_numbers("max", args, f64::max)),
    );
    define(
        env,
        "round",
        native("round", |_, args, _| {
            let [v] = &args[..] else {
                return Err(arity_error("round", "1", args.len()));
            };
            Ok(Value::Number(v.as_number()?.round()))
        }),
    );
    define(
        env,
        "sqrt",
        native("sqrt", |_, args, _| {
            let [v] = &args[..] else {
                return Err(arity_error("sqrt", "1", args.len()));
            };
            Ok(Value::Number(v.as_number()?.sqrt()))
        }),
    );
    define(
        env,
        "floor",
        native("floor", |_, args, _| {
            let [v] = &args[..] else {
                return Err(arity_error("floor", "1", args.len()));
            };
            Ok(Value::Number(v.as_number()?.floor()))
        }),
    );
    define(
        env,
        "ceil",
        native("ceil", |_, args, _| {
            let [v] = &args[..] else {
                return Err(arity_error("ceil", "1", args.len()));
            };
            Ok(Value::Number(v.as_number()?.ceil()))
        }),
    );
    define(
        env,
        "str",
        native("str", |_, args, _| {
            let [v] = &args[..] else {
                return Err(arity_error("str", "1", args.len()));
            };
            Ok(Value::str(v.to_string()))
        }),
    );
    define(
        env,
        "print",
        native("print", |_, args, _| {
            let text: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            // A closed or full stderr drops the line: printing is a
            // side channel and must not end the run.
            let _ = writeln!(std::io::stderr().lock(), "{}", text.join(" "));
            Ok(Value::None)
        }),
    );
}

fn fold_numbers(name: &str, args: Vec<Value>, f: impl Fn(f64, f64) -> f64) -> RunResult<Value> {
    // Accept either a single list or variadic scalars.
    let numbers: Vec<f64> = if args.len() == 1 {
        match args[0].unwrap_sample() {
            Value::List(items) => items
                .iter()
                .map(Value::as_number)
                .collect::<RunResult<_>>()?,
            _ => vec![args[0].as_number()?],
        }
    } else {
        args.iter()
            .map(Value::as_number)
            .collect::<RunResult<_>>()?
    };
    let mut iter = numbers.into_iter();
    let first = iter
        .next()
        .ok_or_else(|| ScenicError::runtime(format!("{name}() of empty sequence")))?;
    Ok(Value::Number(iter.fold(first, f)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{lookup, Scope};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn call(name: &str, args: Vec<Value>) -> RunResult<Value> {
        let env = Scope::root();
        install(&env);
        let Some(Value::Native(f)) = lookup(&env, name) else {
            panic!("missing builtin {name}");
        };
        let mut rng = StdRng::seed_from_u64(0);
        let mut ctx = NativeCtx { rng: &mut rng };
        (f.imp)(&mut ctx, args, Vec::new())
    }

    #[test]
    fn range_builds_lists() {
        let v = call("range", vec![Value::Number(4.0)]).unwrap();
        let Value::List(items) = v else { panic!() };
        assert_eq!(items.len(), 4);
        assert_eq!(items[3].as_number().unwrap(), 3.0);
    }

    #[test]
    fn range_rejects_random_bounds() {
        let sample = Rc::new(DistSpec::Range(0.0, 5.0));
        let mut rng = StdRng::seed_from_u64(1);
        let v = sample.sample(&mut rng).unwrap();
        assert!(matches!(
            call("range", vec![v]),
            Err(ScenicError::RandomControlFlow { .. })
        ));
    }

    #[test]
    fn min_max_variadic_and_list() {
        assert_eq!(
            call("max", vec![Value::Number(1.0), Value::Number(5.0)])
                .unwrap()
                .as_number()
                .unwrap(),
            5.0
        );
        let list = Value::List(Rc::new(vec![Value::Number(3.0), Value::Number(-2.0)]));
        assert_eq!(call("min", vec![list]).unwrap().as_number().unwrap(), -2.0);
    }

    #[test]
    fn resample_redraws_only_samples() {
        let v = call("resample", vec![Value::Number(7.0)]).unwrap();
        assert_eq!(v.as_number().unwrap(), 7.0);
        let spec = Rc::new(DistSpec::Range(0.0, 100.0));
        let mut rng = StdRng::seed_from_u64(2);
        let s = spec.sample(&mut rng).unwrap();
        let r = call("resample", vec![s.clone()]).unwrap();
        assert!(r.is_random());
    }

    #[test]
    fn uniform_and_discrete() {
        let v = call("Uniform", vec![Value::str("a"), Value::str("b")]).unwrap();
        let s = v.as_str().unwrap();
        assert!(&*s == "a" || &*s == "b");
        let d = crate::value::dict_from([("x".to_string(), Value::Number(1.0))]);
        let v = call("Discrete", vec![Value::Dict(d)]).unwrap();
        assert_eq!(&*v.as_str().unwrap(), "x");
    }

    #[test]
    fn numeric_helpers() {
        assert_eq!(
            call("abs", vec![Value::Number(-3.0)])
                .unwrap()
                .as_number()
                .unwrap(),
            3.0
        );
        assert_eq!(
            call("sqrt", vec![Value::Number(16.0)])
                .unwrap()
                .as_number()
                .unwrap(),
            4.0
        );
        assert_eq!(
            call("len", vec![Value::str("abc")])
                .unwrap()
                .as_number()
                .unwrap(),
            3.0
        );
    }
}
