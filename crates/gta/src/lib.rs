//! # scenic-gta
//!
//! The driving-world substrate of the paper's case study (§6.1): a
//! procedurally generated city standing in for the GTAV map, plus the
//! `gtaLib` Scenic library (Appendix A.1) — the `Car`/`EgoCar` classes,
//! `road`/`curb` regions, the `roadDirection` field, car models and
//! colors, and the platoon helper functions of Figs. 18 and 20.
//!
//! # Example
//!
//! ```
//! use scenic_core::sampler::Sampler;
//! use scenic_gta::{scenarios, World};
//!
//! let world = World::generate(scenic_gta::MapConfig::default());
//! let scenario = scenic_core::compile_with_world(scenarios::SIMPLEST, world.core())?;
//! let scene = Sampler::new(&scenario).sample_seeded(3)?;
//! assert_eq!(scene.objects.len(), 2);
//! # Ok::<(), scenic_core::ScenicError>(())
//! ```

pub mod map;
pub mod models;
pub mod scenarios;

pub use map::{MapConfig, RoadMap};
pub use models::{CarColor, CarModel, CAR_COLORS, CAR_MODELS, EGO_MODEL, WEATHER_TYPES};

use scenic_core::prune::{prune_region, PruneParams, PrunerEffect};
use scenic_core::value::{DistSpec, NativeFn, Value};
use scenic_core::{Module, NativeValue, RunResult};
use scenic_geom::{Heading, Region, VectorField};
use std::rc::Rc;
use std::sync::Arc;

/// The `gtaLib` Scenic source: the paper's Appendix A.1, verbatim except
/// for the fixed ego model name.
pub const GTA_LIB_SOURCE: &str = "\
class Car:
    position: Point on road
    heading: (roadDirection at self.position) + self.roadDeviation
    roadDeviation: 0
    width: self.model.width
    height: self.model.height
    viewAngle: 80 deg
    visibleDistance: 30
    model: CarModel.defaultModel()
    color: CarColor.defaultColor()

class EgoCar(Car):
    model: CarModel.models['EGO_BLISTA']

def carAheadOfCar(car, gap, offsetX=0, wiggle=0):
    pos = OrientedPoint at (front of car) offset by (offsetX @ gap), facing resample(wiggle) relative to roadDirection
    return Car ahead of pos

def createPlatoonAt(car, numCars, model=None, dist=(2, 8), shift=(-0.5, 0.5), wiggle=0):
    lastCar = car
    for i in range(numCars-1):
        center = follow roadDirection from (front of lastCar) for resample(dist)
        pos = OrientedPoint right of center by shift, facing resample(wiggle) relative to roadDirection
        lastCar = Car ahead of pos, with model (car.model if model is None else resample(model))
";

/// The driving world: the generated map plus a ready-to-use
/// [`scenic_core::World`] with the `gtaLib` module auto-imported.
#[derive(Debug, Clone)]
pub struct World {
    /// The generated road map.
    pub map: RoadMap,
    core: scenic_core::World,
}

impl World {
    /// Generates a city and assembles the Scenic world around it.
    pub fn generate(config: MapConfig) -> World {
        let map = RoadMap::generate(&config);
        let core = build_core_world(&map);
        World { map, core }
    }

    /// The Scenic world to compile scenarios against.
    pub fn core(&self) -> &scenic_core::World {
        &self.core
    }

    /// A copy of the world whose `road` region has been *replaced* by
    /// its §5.2-pruned restriction, for faster sampling (positions
    /// only; orientations and requirement checks are unaffected).
    ///
    /// Thin wrapper over the core restrict-mode path
    /// ([`scenic_core::prune::prune_region`]): the only gta-specific
    /// choice is the cell granularity — width pruning reasons about
    /// whole direction blocks (a single lane is always "narrow"), the
    /// other pruners use lane cells. Region replacement shifts the RNG
    /// stream, so the scenes differ from unpruned sampling; the
    /// in-sampler guard mode
    /// ([`scenic_core::sampler::Sampler::with_pruning`]) keeps the
    /// unpruned stream and only counts what pruning would save. See
    /// [`World::pruned_report`] for the same substitution with its
    /// per-pruner area effects.
    ///
    /// # Errors
    ///
    /// Propagates failures from the world rewrite (absent module —
    /// cannot happen for worlds built by [`World::generate`]).
    pub fn pruned(&self, params: &PruneParams) -> RunResult<scenic_core::World> {
        self.pruned_report(params).map(|(world, _)| world)
    }

    /// [`World::pruned`] plus the per-pruner area instrumentation of
    /// the core path.
    ///
    /// # Errors
    ///
    /// Same as [`World::pruned`].
    pub fn pruned_report(
        &self,
        params: &PruneParams,
    ) -> RunResult<(scenic_core::World, Vec<PrunerEffect>)> {
        let cells = if params.min_width.is_some() {
            self.map.blocks.clone()
        } else {
            self.map.drivable_cells()
        };
        let pruned = prune_region(&cells, self.map.road_direction(), params);
        let world =
            scenic_core::prune::world_with_region(&self.core, "gtaLib", "road", pruned.region)?;
        Ok((world, pruned.effects))
    }
}

fn car_model_value(m: &models::CarModel) -> Value {
    Value::Dict(scenic_core::value::dict_from([
        ("name".to_string(), Value::str(m.name)),
        ("width".to_string(), Value::Number(m.width)),
        ("height".to_string(), Value::Number(m.height)),
    ]))
}

fn car_model_native(m: &models::CarModel) -> NativeValue {
    NativeValue::Namespace(vec![
        ("name".into(), NativeValue::Str(m.name.to_string())),
        ("width".into(), NativeValue::Number(m.width)),
        ("height".into(), NativeValue::Number(m.height)),
    ])
}

fn build_core_world(map: &RoadMap) -> scenic_core::World {
    let road_field = map.road_direction();
    let road: Region = Region::polygons_with_orientation(map.road_polygons(), road_field.clone());
    let curb_field = VectorField::polygonal(map.curb_cells().to_vec(), Heading::NORTH);
    let curb = Region::polygons_with_orientation(
        map.curb_cells().iter().map(|c| c.polygon.clone()).collect(),
        curb_field,
    );

    // CarModel namespace: `models` dict + `defaultModel()`. The native
    // closures must be `Send + Sync` (worlds are shared across
    // `sample_batch` workers), so instead of capturing an `Rc<DistSpec>`
    // they rebuild it from the model/color constants — once per thread,
    // via `thread_local!`, since defaultModel()/defaultColor() sit on
    // the rejection-sampling hot path. The drawn RNG stream is
    // unchanged.
    let models_ns = NativeValue::Namespace(
        CAR_MODELS
            .iter()
            .map(|m| (m.name.to_string(), car_model_native(m)))
            .chain(std::iter::once((
                EGO_MODEL.name.to_string(),
                car_model_native(&EGO_MODEL),
            )))
            .collect(),
    );
    // `defaultModel()` declares its support, read off the same
    // `CAR_MODELS` list its draw uses: static analyses bound `Car`
    // dimensions by it (see `NativeFn::support`).
    let default_model = NativeFn {
        name: "CarModel.defaultModel".into(),
        imp: Arc::new(|ctx, _, _| {
            thread_local! {
                static SPEC: Rc<DistSpec> = Rc::new(DistSpec::UniformOf(
                    CAR_MODELS.iter().map(car_model_value).collect(),
                ));
            }
            SPEC.with(|spec| spec.sample(ctx.rng))
        }),
        support: Some(Arc::new(CAR_MODELS.iter().map(car_model_native).collect())),
    };
    let car_model_ns = NativeValue::Namespace(vec![
        ("models".to_string(), models_ns),
        (
            "defaultModel".to_string(),
            NativeValue::Function(default_model),
        ),
    ]);

    // CarColor namespace: `defaultColor()` + `byteToReal([r, g, b])`.
    let default_color = NativeFn {
        name: "CarColor.defaultColor".into(),
        imp: Arc::new(|ctx, _, _| {
            thread_local! {
                static SPEC: Rc<DistSpec> = Rc::new(DistSpec::Discrete(
                    CAR_COLORS
                        .iter()
                        .map(|c| {
                            (
                                Value::List(Rc::new(vec![
                                    Value::Number(c.rgb[0]),
                                    Value::Number(c.rgb[1]),
                                    Value::Number(c.rgb[2]),
                                ])),
                                c.weight,
                            )
                        })
                        .collect(),
                ));
            }
            SPEC.with(|spec| spec.sample(ctx.rng))
        }),
        support: None,
    };
    let byte_to_real = NativeFn {
        name: "CarColor.byteToReal".into(),
        imp: Arc::new(|_, args, _| {
            let [list] = &args[..] else {
                return Err(scenic_core::ScenicError::runtime(
                    "byteToReal expects one list argument",
                ));
            };
            let Value::List(items) = list.unwrap_sample() else {
                return Err(scenic_core::ScenicError::runtime(
                    "byteToReal expects a list",
                ));
            };
            let reals: RunResult<Vec<Value>> = items
                .iter()
                .map(|v| Ok(Value::Number(v.as_number()? / 255.0)))
                .collect();
            Ok(Value::List(Rc::new(reals?)))
        }),
        support: None,
    };
    let car_color_ns = NativeValue::Namespace(vec![
        (
            "defaultColor".to_string(),
            NativeValue::Function(default_color),
        ),
        (
            "byteToReal".to_string(),
            NativeValue::Function(byte_to_real),
        ),
    ]);

    // Default time (minutes since midnight) and weather distributions
    // (§6.1: under the default distribution "rain is less likely than
    // shine").
    let default_time = NativeFn {
        name: "defaultTime".into(),
        imp: Arc::new(|ctx, _, _| Rc::new(DistSpec::Range(0.0, 1440.0)).sample(ctx.rng)),
        support: None,
    };
    let default_weather = NativeFn {
        name: "defaultWeather".into(),
        imp: Arc::new(|ctx, _, _| {
            thread_local! {
                static SPEC: Rc<DistSpec> = Rc::new(DistSpec::Discrete(
                    WEATHER_TYPES
                        .iter()
                        .map(|(name, w)| (Value::str(*name), *w))
                        .collect(),
                ));
            }
            SPEC.with(|spec| spec.sample(ctx.rng))
        }),
        support: None,
    };

    let full_road = Arc::new(road);
    let module = Module {
        natives: vec![
            ("road".into(), NativeValue::Region(Arc::clone(&full_road))),
            // `fullRoad` is never replaced by pruning: requirements must
            // check against the true region (§5.2 pruning is sound only
            // for *sampling*).
            ("fullRoad".into(), NativeValue::Region(full_road)),
            ("curb".into(), NativeValue::Region(Arc::new(curb))),
            (
                "roadDirection".into(),
                NativeValue::Field(Arc::new(road_field)),
            ),
            ("CarModel".into(), car_model_ns),
            ("CarColor".into(), car_color_ns),
            ("defaultTime".into(), NativeValue::Function(default_time)),
            (
                "defaultWeather".into(),
                NativeValue::Function(default_weather),
            ),
        ],
        source: Some(GTA_LIB_SOURCE.to_string()),
    };

    let mut world = scenic_core::World::with_workspace(Region::rectangle(
        map.bounds.center(),
        map.bounds.width(),
        map.bounds.height(),
    ));
    world.add_auto_module("gtaLib", module);
    world
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenic_core::sampler::Sampler;

    fn world() -> World {
        World::generate(MapConfig::default())
    }

    fn sample(source: &str, seed: u64) -> scenic_core::Scene {
        let w = world();
        let scenario = scenic_core::compile_with_world(source, w.core()).expect("compiles");
        Sampler::new(&scenario)
            .sample_seeded(seed)
            .expect("samples")
    }

    #[test]
    fn simplest_scenario_cars_on_road() {
        let scene = sample(scenarios::SIMPLEST, 1);
        assert_eq!(scene.objects.len(), 2);
        // The ego follows the road direction at its position: heading is
        // one of the four cardinals (roadDeviation 0).
        let h = scene.ego().heading.to_degrees().rem_euclid(360.0);
        let ok = [0.0, 90.0, 180.0, 270.0, 360.0]
            .iter()
            .any(|d| (h - d).abs() < 1.0);
        assert!(ok, "heading {h}");
    }

    #[test]
    fn default_model_draws_exactly_its_declared_support() {
        use rand::SeedableRng;
        let world = world();
        let module = world.core().module("gtaLib").expect("gtaLib");
        let natives = |value: &NativeValue, name: &str| match value {
            NativeValue::Namespace(fields) => fields
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.clone()),
            _ => None,
        };
        let car_model = module.natives.iter().find(|(n, _)| n == "CarModel");
        let Some(NativeValue::Function(default_model)) =
            natives(&car_model.expect("CarModel").1, "defaultModel")
        else {
            panic!("CarModel.defaultModel is not a native function");
        };
        let support = default_model
            .support
            .as_deref()
            .expect("a declared support");
        // Models as (name, width, height), read through the values a
        // scenario sees.
        let key = |value: &Value| {
            let Value::Dict(d) = value.unwrap_sample() else {
                panic!("a model is a dictionary, got {value:?}");
            };
            let field = |name| scenic_core::value::dict_get(d, name).expect("model field");
            (
                field("name").to_string(),
                field("width").as_number().unwrap(),
                field("height").as_number().unwrap(),
            )
        };
        let entries: Vec<_> = support.iter().map(|v| key(&v.to_value())).collect();
        assert_eq!(entries.len(), CAR_MODELS.len());
        let mut drawn = vec![0; entries.len()];
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let mut ctx = scenic_core::value::NativeCtx { rng: &mut rng };
            let model = key(&(default_model.imp)(&mut ctx, Vec::new(), Vec::new()).unwrap());
            let i = entries
                .iter()
                .position(|e| *e == model)
                .unwrap_or_else(|| panic!("{model:?} drawn outside the declared support"));
            drawn[i] += 1;
        }
        assert!(drawn.iter().all(|&n| n > 0), "never drawn: {drawn:?}");
        // The bounds the visibility guard reads off it.
        let widest = entries.iter().map(|e| e.1).fold(0.0, f64::max);
        let longest = entries.iter().map(|e| e.2).fold(0.0, f64::max);
        assert_eq!((widest, longest), (2.5, 11.0));
    }

    #[test]
    fn cars_have_models_and_colors() {
        let scene = sample(scenarios::SIMPLEST, 5);
        for car in &scene.objects {
            let model = car.property("model").expect("model property");
            let scenic_core::PropValue::Map(m) = model else {
                panic!("model not a map: {model:?}");
            };
            let name = m["name"].as_str().unwrap();
            assert!(
                models::model_by_name(name).is_some(),
                "unknown model {name}"
            );
            assert!((m["width"].as_number().unwrap() - car.width).abs() < 1e-9);
            let color = car.property("color").expect("color");
            let scenic_core::PropValue::List(rgb) = color else {
                panic!("color not a list");
            };
            assert_eq!(rgb.len(), 3);
        }
    }

    #[test]
    fn one_car_scenario_with_wiggle() {
        let scene = sample(scenarios::ONE_CAR, 7);
        assert_eq!(scene.objects.len(), 2);
        // Both cars deviate at most 10° from the road direction — check
        // the recorded roadDeviation property.
        for car in &scene.objects {
            let dev = car
                .property("roadDeviation")
                .and_then(|p| p.as_number())
                .unwrap();
            assert!(dev.abs() <= 10f64.to_radians() + 1e-9, "dev {dev}");
        }
    }

    #[test]
    fn badly_parked_scenario() {
        let scene = sample(scenarios::BADLY_PARKED, 3);
        assert_eq!(scene.objects.len(), 2);
    }

    #[test]
    fn two_car_and_overlap_scenarios() {
        let scene = sample(scenarios::TWO_CARS, 11);
        assert_eq!(scene.objects.len(), 3);
        let scene = sample(scenarios::TWO_OVERLAPPING, 11);
        assert_eq!(scene.objects.len(), 3);
    }

    #[test]
    fn four_cars_bad_conditions() {
        let scene = sample(scenarios::FOUR_CARS_BAD_CONDITIONS, 23);
        assert_eq!(scene.objects.len(), 5);
        assert_eq!(
            scene.param("weather").unwrap().as_str(),
            Some("RAIN"),
            "weather fixed to rain"
        );
        assert_eq!(scene.param("time").unwrap().as_number(), Some(0.0));
    }

    #[test]
    fn generic_scenario_builder() {
        let src = scenarios::generic_n_cars(3);
        let scene = sample(&src, 2);
        assert_eq!(scene.objects.len(), 4);
        assert!(scene.param("time").is_some());
        assert!(scene.param("weather").is_some());
    }

    #[test]
    fn platoon_scenario() {
        let scene = sample(scenarios::PLATOON_DAYTIME, 6);
        // ego + seed car + 4 platoon cars.
        assert_eq!(scene.objects.len(), 6);
        let t = scene.param("time").unwrap().as_number().unwrap();
        assert!((480.0..1200.0).contains(&t), "time {t}");
    }

    #[test]
    fn bumper_to_bumper_scenario() {
        let scene = sample(scenarios::BUMPER_TO_BUMPER, 4);
        // ego + 3 lane leaders + 3 lanes × 3 followers = 13 cars.
        assert_eq!(scene.objects.len(), 13);
    }

    #[test]
    fn oncoming_scenario_faces_ego() {
        let scene = sample(scenarios::ONCOMING, 9);
        assert_eq!(scene.objects.len(), 2);
        // The oncoming car's 30° view cone contains the ego.
        let ego = scene.ego();
        let car = scene.non_ego_objects().next().unwrap();
        let view = scenic_geom::visibility::Viewer::oriented(
            car.position_vec(),
            scenic_geom::Heading(car.heading),
            30.0,
            30f64.to_radians(),
        );
        assert!(view.can_see_box(&ego.bounding_box()));
    }

    #[test]
    fn pruned_world_still_samples() {
        let w = world();
        let pruned = w
            .pruned(&PruneParams {
                min_radius: 1.0,
                ..PruneParams::default()
            })
            .unwrap();
        let scenario = scenic_core::compile_with_world(scenarios::SIMPLEST, &pruned).unwrap();
        let scene = Sampler::new(&scenario).sample_seeded(8).unwrap();
        assert_eq!(scene.objects.len(), 2);
    }

    #[test]
    fn pruned_report_instruments_the_shrink() {
        let w = world();
        let pi = std::f64::consts::PI;
        let (pruned, effects) = w
            .pruned_report(&PruneParams {
                min_radius: 1.0,
                relative_heading: Some((pi - 0.6, pi + 0.6)),
                max_distance: 50.0,
                heading_tolerance: 0.0,
                min_width: None,
            })
            .unwrap();
        // Orientation first, then the containment erosion.
        assert_eq!(effects.len(), 2);
        assert_eq!(effects[0].pruner, scenic_core::Pruner::Orientation);
        assert_eq!(effects[1].pruner, scenic_core::Pruner::Containment);
        for e in &effects {
            assert!(e.area_after <= e.area_before + 1e-6, "{e:?}");
        }
        // The replaced world still samples.
        let scenario = scenic_core::compile_with_world(scenarios::SIMPLEST, &pruned).unwrap();
        assert!(Sampler::new(&scenario).sample_seeded(2).is_ok());
    }

    #[test]
    fn guard_mode_counts_orientation_rejections_on_oncoming() {
        // Mostly one-way city: many cells lack an opposing cell within
        // M, so ego draws there are guard-rejected before the run pays
        // for car2 and the visibility checks.
        let w = World::generate(MapConfig {
            arterial_every: 0,
            one_way_fraction: 0.85,
            ..MapConfig::default()
        });
        let scenario = scenic_core::compile_with_world(scenarios::ONCOMING, w.core()).unwrap();
        let pi = std::f64::consts::PI;
        let params = PruneParams {
            min_radius: 0.0,
            relative_heading: Some((pi - 0.6, pi + 0.6)),
            max_distance: 50.0,
            heading_tolerance: 0.0,
            min_width: None,
        };
        let mut sampler = Sampler::new(&scenario)
            .with_seed(7)
            .with_config(scenic_core::SamplerConfig {
                max_iterations: 100_000,
            })
            .with_prune_params(&params);
        assert!(sampler.prune_plan().is_some(), "no guards built");
        sampler.sample_batch(3, 2).unwrap();
        let stats = sampler.stats();
        assert!(
            stats.prune_orientation_rejections > 0,
            "orientation guard never fired: {stats:?}"
        );
        assert!(stats.full_iterations() < stats.iterations);
        assert_eq!(
            stats.full_iterations(),
            stats.iterations - stats.prune_rejections()
        );
    }

    #[test]
    fn noise_scenario_reproduces_and_perturbs() {
        let src = scenarios::noise_around_seed(100.0, 120.0, 5.0, "DOMINATOR");
        let scene = sample(&src, 14);
        assert_eq!(scene.objects.len(), 2);
        let car = scene.non_ego_objects().next().unwrap();
        // Mutation noise moved it off the exact seed position, but not
        // far (σ = 1m).
        let d = (car.position_vec() - scenic_geom::Vec2::new(100.0, 126.0)).norm();
        assert!(d > 0.0 && d < 8.0, "distance {d}");
    }
}
