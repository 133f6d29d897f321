//! # Scenic (Rust reproduction)
//!
//! A from-scratch Rust implementation of **Scenic: A Language for
//! Scenario Specification and Scene Generation** (Fremont et al.,
//! PLDI 2019): a probabilistic programming language whose programs
//! describe *distributions over scenes* — configurations of physical
//! objects and agents.
//!
//! This façade crate re-exports the workspace:
//!
//! - [`geom`]: the 2D geometry substrate (vectors, headings, polygons,
//!   regions, vector fields, visibility);
//! - [`lang`]: lexer, parser, and AST for the Scenic language;
//! - [`core`]: the interpreter (specifier resolution, operator
//!   semantics, requirements, mutation) and the domain-specific
//!   samplers with §5.2 pruning;
//! - [`gta`]: the synthetic driving world and `gtaLib` standard library
//!   used by the paper's autonomous-car case study;
//! - [`sim`]: the camera/rendering substrate producing labeled
//!   bounding boxes, plus detection metrics (IoU, precision, recall,
//!   average precision);
//! - [`detect`]: the synthetic car detector standing in for squeezeDet,
//!   with the training/evaluation harness behind §6's experiments;
//! - [`mars`]: the Mars-rover robotics workspace of Fig. 4/§A.12;
//! - [`serve`]: `scenicd`, a long-running scenario service sharing one
//!   worker pool and compiled-scenario cache across clients over a
//!   length-prefixed JSON protocol, with its client library;
//! - [`mod@bench`]: the experiment layer behind `scenic exp` — typed
//!   drivers regenerating the paper's §6/Appendix D tables and
//!   figures, with shape-check verdicts and the `scenic-exp/v1`
//!   artifact writers.
//!
//! # Quickstart
//!
//! ```
//! use scenic::prelude::*;
//!
//! let source = r#"
//! ego = Car
//! Car offset by (-10, 10) @ (20, 40)
//! "#;
//! let world = scenic::gta::World::generate(scenic::gta::MapConfig::default());
//! let scenario = compile_with_world(source, world.core())?;
//! let mut sampler = Sampler::new(&scenario);
//! let scene = sampler.sample_seeded(42)?;
//! assert_eq!(scene.objects.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Batches parallelize across threads without changing the output
//! (every scene's RNG stream derives from the root seed and its index):
//!
//! ```
//! use scenic::prelude::*;
//!
//! let scenario = compile("ego = Object at 0 @ 0\nObject at 0 @ (5, 9)\n")?;
//! let scenes = Sampler::new(&scenario).with_seed(1).sample_batch(8, 4)?;
//! assert_eq!(scenes.len(), 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use scenic_bench as bench;
pub use scenic_core as core;
pub use scenic_detect as detect;
pub use scenic_geom as geom;
pub use scenic_gta as gta;
pub use scenic_lang as lang;
pub use scenic_mars as mars;
pub use scenic_serve as serve;
pub use scenic_sim as sim;

/// Convenient glob-import surface for examples and downstream users.
pub mod prelude {
    pub use scenic_core::cache::{source_hash, ScenarioCache};
    pub use scenic_core::compile::Engine;
    pub use scenic_core::pool::WorkerPool;
    pub use scenic_core::sampler::{derive_scene_seed, BatchReport, Sampler, SamplerConfig};
    pub use scenic_core::scene::{Scene, SceneObject};
    pub use scenic_core::{batch_digest, compile, compile_with_world, scene_digest, ScenicError};
    pub use scenic_geom::{Heading, Polygon, Region, Vec2, VectorField};
    pub use scenic_serve::{Client, SampleRequest, Server};
}
