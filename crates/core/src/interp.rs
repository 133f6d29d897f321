//! The Scenic interpreter: operational semantics of Appendix B.
//!
//! A scenario is executed once per sample. The interpreter makes random
//! choices when evaluating distributions, constructs objects via
//! specifier resolution (Algorithm 1), and checks the requirements
//! (user-declared and the three defaults: containment, no collisions,
//! visibility) — each as soon as it is decidable (the `early` module
//! says where), the rest at termination, after mutations — before it
//! emits a [`Scene`]. Violated requirements surface as
//! [`ScenicError::Rejected`], which the sampler treats as "retry".

use crate::builtins;
use crate::class::{self_dependencies, RuntimeClass, PRELUDE};
use crate::early::{EarlyPlan, VisibilityGuard};
use crate::env::{assign, clear, define, lookup, set_slot, slot, EnvRef, Scope};
use crate::error::{Rejection, RunResult, ScenicError};
use crate::facts::{Facts, Origin};
use crate::object::{oriented_point, Known, Layout, ObjData, ObjRef, PropName};
use crate::prune::{self, PruneParams, PrunePlan};
use crate::scene::{PropValue, Scene, SceneObject};
use crate::specifier::{resolve, SpecMeta, SpecSource};
use crate::value::{dict_get, tainted, DistSpec, NativeCtx, Value};
use crate::world::World;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenic_geom::region::HalfPlanes;
use scenic_geom::visibility::Viewer;
use scenic_geom::{Heading, OrientedBox, Region, Vec2, VectorField};
use scenic_lang::ast::{
    Addr, BinOp, BoxPoint, CmpOp, CtorSite, Expr, Program, Side, Specifier, Stmt, StmtKind,
};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;

/// Maximum user-function call depth.
///
/// Each interpreted call consumes several native stack frames (statement
/// execution plus expression evaluation), and test threads run with a 2 MiB
/// stack by default, so this is kept conservative.
const MAX_CALL_DEPTH: usize = 24;
/// Maximum `while` iterations (guards non-terminating loops).
const MAX_LOOP_ITERATIONS: usize = 1_000_000;
/// Forward-Euler steps for `follow` (Appendix C.1: N = 4).
const EULER_STEPS: usize = 4;

/// A compiled scenario: parsed program plus its world and pre-parsed
/// libraries.
///
/// Scenarios are immutable once compiled and `Send + Sync`, so a single
/// compiled scenario can be shared by reference across the
/// [`crate::sampler::Sampler::sample_batch`] worker threads; each run
/// spins up its own thread-local [`Interpreter`].
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The user program.
    pub program: Arc<Program>,
    /// The world it runs against.
    pub world: World,
    pub(crate) prelude: Arc<Program>,
    pub(crate) module_programs: HashMap<String, Arc<Program>>,
    /// The derived-parameter §5.2 prune plan, built lazily on first use
    /// and shared by every clone of this compiled scenario (so
    /// `ScenarioCache` hits and batch workers never re-prune).
    pub(crate) prune: Arc<std::sync::OnceLock<Arc<PrunePlan>>>,
    /// The lowered draw path ([`crate::compile::CompiledProgram`]),
    /// built lazily on first use and shared by every clone, exactly
    /// like `prune`.
    pub(crate) compiled: Arc<std::sync::OnceLock<Arc<crate::compile::CompiledProgram>>>,
    /// Which constraints a candidate checks as soon as they are
    /// decidable (`EarlyPlan`), built lazily on first use and shared by
    /// every clone, like `prune`.
    pub(crate) early: Arc<std::sync::OnceLock<Arc<EarlyPlan>>>,
}

// The parallel batch sampler relies on this; a non-thread-safe field
// sneaking back into the compiled artifacts must fail to compile here,
// not data-race at runtime.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Scenario>();
};

/// Compiles a scenario against a bare world (no libraries, unbounded
/// workspace). Useful for tests and geometry-only scenarios.
///
/// # Errors
///
/// Returns parse errors from the program or any library source.
pub fn compile(source: &str) -> RunResult<Scenario> {
    compile_with_world(source, &World::bare())
}

/// Compiles a scenario against a world (workspace + libraries).
///
/// # Errors
///
/// Returns parse errors from the program or any library source.
///
/// # Example
///
/// ```
/// let scenario = scenic_core::compile("ego = Object at 0 @ 0\n")?;
/// assert_eq!(scenario.program.statements.len(), 1);
/// # Ok::<(), scenic_core::ScenicError>(())
/// ```
pub fn compile_with_world(source: &str, world: &World) -> RunResult<Scenario> {
    let program = Arc::new(scenic_lang::parse(source)?);
    let prelude = prelude_program();
    let mut module_programs = HashMap::new();
    for (name, module) in &world.modules {
        if let Some(src) = &module.source {
            module_programs.insert(name.clone(), module_program(src)?);
        }
    }
    Ok(Scenario {
        program,
        world: world.clone(),
        prelude,
        module_programs,
        prune: Arc::new(std::sync::OnceLock::new()),
        compiled: Arc::new(std::sync::OnceLock::new()),
        early: Arc::new(std::sync::OnceLock::new()),
    })
}

/// The built-in prelude, parsed once per process. Every scenario shares
/// the same parsed program (it is immutable), so repeated compiles pay
/// for the prelude parse exactly once.
pub(crate) fn prelude_program() -> Arc<Program> {
    static PARSED: std::sync::OnceLock<Arc<Program>> = std::sync::OnceLock::new();
    Arc::clone(
        PARSED.get_or_init(|| Arc::new(scenic_lang::parse(PRELUDE).expect("prelude parses"))),
    )
}

/// Parses a module library source, memoized process-wide by content
/// hash: the gta/mars libraries are parsed once no matter how many
/// scenarios compile against them.
///
/// # Errors
///
/// Returns the parse error (never cached — parse failures are cheap to
/// reproduce and callers want them anew).
pub(crate) fn module_program(source: &str) -> RunResult<Arc<Program>> {
    use std::collections::hash_map::Entry;
    static PARSED: std::sync::Mutex<Option<HashMap<u64, Arc<Program>>>> =
        std::sync::Mutex::new(None);
    let key = crate::cache::source_hash(source);
    let mut cache = PARSED.lock().expect("module parse cache poisoned");
    match cache.get_or_insert_with(HashMap::new).entry(key) {
        Entry::Occupied(e) => Ok(Arc::clone(e.get())),
        Entry::Vacant(v) => {
            let program = Arc::new(scenic_lang::parse(source)?);
            Ok(Arc::clone(v.insert(program)))
        }
    }
}

impl Scenario {
    /// Executes the scenario once (a single rejection-sampling attempt).
    ///
    /// # Errors
    ///
    /// [`ScenicError::Rejected`] when a requirement failed (retryable);
    /// other variants for genuine program errors.
    pub fn generate(&self, rng: &mut StdRng) -> RunResult<Scene> {
        let mut interp = Interpreter::new(self, rng);
        interp.run()
    }

    /// Executes with a fresh RNG seeded by `seed`.
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::generate`].
    pub fn generate_seeded(&self, seed: u64) -> RunResult<Scene> {
        let mut rng = StdRng::seed_from_u64(seed);
        self.generate(&mut rng)
    }

    /// The sound [`PruneParams`] the §5.2 prepare step derives from this
    /// scenario's parsed sources: the smallest in-radius of any class
    /// that may be physical, lowered by constant `with width`/`height`
    /// overrides, unless a `mutate`, a non-constant dimension or a helper
    /// point drawn `on` a region defeats it; the largest
    /// `roadDeviation`-style wiggle as δ; the smallest explicit
    /// `visibleDistance` as M. Orientation and size pruning stay off.
    pub fn derived_prune_params(&self) -> PruneParams {
        prune::derive_params_explained(&Facts::of(self)).0
    }

    /// The per-pruner enable/disable decisions behind
    /// [`Scenario::derived_prune_params`], with their reasons — the
    /// source of the `I2xx` diagnostics shown by `scenic lint`.
    pub fn derived_prune_decisions(&self) -> Vec<prune::PruneDecision> {
        prune::derive_params_explained(&Facts::of(self)).1
    }

    /// Every parsed source of this scenario with its origin, prelude
    /// first, then the user program, then the module libraries in name
    /// order.
    pub(crate) fn sources(&self) -> Vec<(Origin, &Program)> {
        let mut sources = vec![
            (Origin::Library, &*self.prelude),
            (Origin::User, &*self.program),
        ];
        let mut names: Vec<&String> = self.module_programs.keys().collect();
        names.sort();
        for name in names {
            sources.push((Origin::Library, &self.module_programs[name]));
        }
        sources
    }

    /// The derived-parameter prune plan, built once per compiled
    /// scenario and shared by all clones — repeated sampling (and
    /// `ScenarioCache` hits) never re-prune.
    pub fn prune_plan(&self) -> Arc<PrunePlan> {
        Arc::clone(self.prune.get_or_init(|| {
            Arc::new(prune::plan_for_world(
                &self.world,
                &self.derived_prune_params(),
            ))
        }))
    }

    /// A prune plan for caller-supplied parameters (bypasses the
    /// derived-plan cache). The §5.2 soundness obligations — e.g. that
    /// a `relative_heading` interval really is implied by the
    /// scenario's requirements — are the caller's, exactly as for
    /// restrict-mode [`prune::prune_region`].
    pub fn prune_plan_with(&self, params: &PruneParams) -> Arc<PrunePlan> {
        Arc::new(prune::plan_for_world(&self.world, params))
    }

    /// The lowered draw path of this scenario
    /// ([`crate::compile::CompiledProgram`]), built once per compiled
    /// scenario and shared by all clones — repeated sampling (and
    /// `ScenarioCache` hits) never re-lower.
    pub fn compiled(&self) -> Arc<crate::compile::CompiledProgram> {
        Arc::clone(
            self.compiled
                .get_or_init(|| Arc::new(crate::compile::lower(self))),
        )
    }

    /// Like [`Scenario::generate`], but dispatched through the chosen
    /// evaluation [`crate::compile::Engine`] and with the §5.2 prune
    /// guards of `plan` active: positions are still drawn from the
    /// original regions (the RNG stream is byte-identical to an
    /// unguarded run), but a draw outside a guarded region's pruned
    /// restriction aborts the run immediately with
    /// [`Rejection::Pruned`]. Both engines produce byte-identical scenes
    /// from identical RNG states.
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::generate`], plus the early
    /// [`ScenicError::Rejected`]\([`Rejection::Pruned`]\) rejections.
    pub fn generate_with<'a>(
        &'a self,
        rng: &mut StdRng,
        plan: Option<&'a PrunePlan>,
        engine: crate::compile::Engine,
    ) -> RunResult<Scene> {
        self.generate_checked(rng, plan, engine, self.early_plan())
    }

    /// [`Scenario::generate_with`] under a given early-rejection plan
    /// (the sampler passes an empty one to defer every check to
    /// termination).
    pub(crate) fn generate_checked<'a>(
        &'a self,
        rng: &mut StdRng,
        prune: Option<&'a PrunePlan>,
        engine: crate::compile::Engine,
        early: &'a EarlyPlan,
    ) -> RunResult<Scene> {
        match engine {
            crate::compile::Engine::Ast => {
                let mut interp = Interpreter::new(self, rng);
                interp.prune = prune;
                interp.early = early;
                interp.run()
            }
            crate::compile::Engine::Compiled => self.compiled().generate(rng, prune, early),
        }
    }

    /// Which constraints a candidate checks as soon as they are
    /// decidable, derived once per compiled scenario and shared by all
    /// clones.
    pub(crate) fn early_plan(&self) -> &Arc<EarlyPlan> {
        self.early.get_or_init(|| Arc::new(EarlyPlan::build(self)))
    }
}

enum Flow {
    Normal,
    Return(Value),
}

/// How to produce a specifier's property values at evaluation time.
/// Borrows from the construction site's specifiers (`'a`).
enum Action<'a> {
    /// Values already computed (argument expressions have no
    /// dependencies on the object under construction), each under its
    /// property's name: a literal, or the name a `with` spells.
    Const(Vec<(&'a str, Value)>),
    /// `left/right/ahead of | behind <vector>` — needs `heading` plus
    /// `width`/`height`.
    BesideVector { side: Side, target: Vec2, gap: f64 },
    /// `left/right/ahead of | behind <OrientedPoint>` — needs
    /// `width`/`height`; optionally specifies `heading`.
    BesideOriented {
        side: Side,
        position: Vec2,
        heading: f64,
        gap: f64,
    },
    /// `facing <vectorField>` — needs `position`.
    FacingField(Arc<VectorField>),
    /// `facing toward/away from <vector>` — needs `position`.
    FacingToward { target: Vec2, away: bool },
    /// `apparently facing H [from V]` — needs `position`.
    ApparentlyFacing { heading: f64, from: Vec2 },
    /// An argument that mentioned a vector field in heading position;
    /// deferred until `position` is known.
    DeferredExpr {
        prop: &'a str,
        expr: &'a Expr,
        env: EnvRef,
    },
    /// `using name(args)` — a user-defined specifier application. The
    /// body runs with `self` bound to the object under construction
    /// (its `requires` properties are already assigned) and must return
    /// a dict of property values.
    UserSpec {
        spec: Rc<crate::value::UserSpecifier>,
        args: Vec<Value>,
        kwargs: Vec<(String, Value)>,
    },
}

/// Cheap classification of one prepared explicit specifier — the only
/// run-to-run variability in a construction site's metadata. At a
/// fixed site (same specifier syntax) constructing a fixed class,
/// equal shape vectors imply row-for-row identical [`SpecMeta`]s (the
/// class default rows are fixed by the class), so the staged
/// Algorithm 1 resolution can be reused; `using` entries additionally
/// validate the cached row against the callee's declared properties
/// (see [`stage_matches`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ActionShape {
    /// Values known up front; the count disambiguates a region draw
    /// with vs. without an orientation.
    Const(usize),
    /// `left of <vector>` and friends.
    BesideVector,
    /// `left of <OrientedPoint>` and friends.
    BesideOriented,
    /// `facing <vectorField>`.
    FacingField,
    /// `facing toward/away from <vector>`.
    FacingToward,
    /// `apparently facing`.
    ApparentlyFacing,
    /// A `self`-dependent argument deferred until `position` is known.
    Deferred,
    /// A user-defined specifier application.
    User,
}

impl Action<'_> {
    /// Whether every number the action carries is finite, so that a
    /// heading it feeds stays finite and the object's box stays within
    /// its circumradius of its position (see `guard_rejects`).
    fn is_finite(&self) -> bool {
        match self {
            Action::Const(values) => values.iter().all(|(_, v)| finite(v)),
            Action::BesideVector { target, gap, .. } => target.is_finite() && gap.is_finite(),
            Action::BesideOriented {
                position,
                heading,
                gap,
                ..
            } => position.is_finite() && heading.is_finite() && gap.is_finite(),
            Action::FacingField(_) => true,
            Action::FacingToward { target, .. } => target.is_finite(),
            Action::ApparentlyFacing { heading, from } => heading.is_finite() && from.is_finite(),
            Action::DeferredExpr { .. } | Action::UserSpec { .. } => false,
        }
    }

    fn shape(&self) -> ActionShape {
        match self {
            Action::Const(values) => ActionShape::Const(values.len()),
            Action::BesideVector { .. } => ActionShape::BesideVector,
            Action::BesideOriented { .. } => ActionShape::BesideOriented,
            Action::FacingField(_) => ActionShape::FacingField,
            Action::FacingToward { .. } => ActionShape::FacingToward,
            Action::ApparentlyFacing { .. } => ActionShape::ApparentlyFacing,
            Action::DeferredExpr { .. } => ActionShape::Deferred,
            Action::UserSpec { .. } => ActionShape::User,
        }
    }
}

struct DeferredRequirement {
    cond: Arc<Expr>,
    env: EnvRef,
    line: u32,
}

/// What the default requirements read off one physical object.
struct Footprint {
    bbox: OrientedBox,
    allow_collisions: bool,
    require_visible: bool,
}

impl Footprint {
    fn of(d: &ObjData) -> RunResult<Footprint> {
        Ok(Footprint {
            bbox: d.bounding_box()?,
            allow_collisions: d.known_bool_or(Known::AllowCollisions, false),
            require_visible: d.known_bool_or(Known::RequireVisible, true),
        })
    }
}

/// One execution of a scenario.
pub struct Interpreter<'s, 'r> {
    scenario: &'s Scenario,
    rng: &'r mut StdRng,
    /// Active §5.2 prune guards, if any ([`Scenario::generate_with`]).
    prune: Option<&'s PrunePlan>,
    /// Which constraints are checked as soon as they are decidable.
    early: &'s EarlyPlan,
    globals: EnvRef,
    objects: Vec<ObjRef>,
    ego: Option<ObjRef>,
    params: Vec<(String, Value)>,
    requirements: Vec<DeferredRequirement>,
    /// Modules imported so far: the base's set, shared by every
    /// candidate on the compiled engine, copied only by an `import`.
    imported: Rc<HashSet<String>>,
    next_id: usize,
    current_self: Option<ObjRef>,
    /// The object whose class default is evaluating: what a resolved
    /// `self` in a default ([`Addr::DefaultSelf`]) reads.
    default_self: Option<ObjRef>,
    depth: usize,
    /// Per-thread state of the compiled engine's hoisted path (base
    /// slots, staged construction sites); `None` under the reference
    /// AST engine and the fallback path.
    exec_cache: Option<Rc<crate::compile::ExecCache>>,
    /// The candidate's frame: the values of the user program's top-level
    /// names resolved to slots ([`Addr::Candidate`]), `None` while
    /// unbound.
    frame: Vec<Option<Value>>,
    /// Set once a physical object exists that termination will mutate:
    /// from then on nothing is decided early, since mutation moves
    /// objects before the deferred checks run.
    mutation_pending: bool,
    /// Footprints of the objects whose containment and collisions are
    /// decided — always a prefix of `objects`, grown at construction
    /// while early checks run and completed by `finalize`.
    footprints: Vec<Footprint>,
    /// The ego's viewer, taken when `ego` is assigned, and the number of
    /// objects constructed before that: each later object's visibility
    /// is decided at its construction.
    ego_view: Option<(Viewer, usize)>,
}

impl<'s, 'r> Interpreter<'s, 'r> {
    /// Creates an interpreter for one run.
    pub fn new(scenario: &'s Scenario, rng: &'r mut StdRng) -> Self {
        Interpreter {
            scenario,
            rng,
            prune: None,
            early: scenario.early_plan(),
            globals: Scope::root(),
            objects: Vec::new(),
            ego: None,
            params: Vec::new(),
            requirements: Vec::new(),
            imported: Rc::default(),
            next_id: 0,
            current_self: None,
            default_self: None,
            depth: 0,
            exec_cache: None,
            frame: Vec::new(),
            mutation_pending: false,
            footprints: Vec::new(),
            ego_view: None,
        }
    }

    /// Creates an interpreter whose deterministic prefix (builtins,
    /// workspace, prelude, auto-imports) has already been executed into
    /// the parent of `globals` by the compiled engine; only
    /// [`Interpreter::run_main`] remains to be run.
    pub(crate) fn with_base(
        scenario: &'s Scenario,
        rng: &'r mut StdRng,
        globals: EnvRef,
        imported: Rc<HashSet<String>>,
        exec_cache: Rc<crate::compile::ExecCache>,
        prune: Option<&'s PrunePlan>,
        early: &'s EarlyPlan,
    ) -> Self {
        Interpreter {
            scenario,
            rng,
            prune,
            early,
            globals,
            objects: Vec::new(),
            ego: None,
            params: Vec::new(),
            requirements: Vec::new(),
            imported,
            next_id: 0,
            current_self: None,
            default_self: None,
            depth: 0,
            frame: vec![None; exec_cache.frame_len],
            exec_cache: Some(exec_cache),
            mutation_pending: false,
            footprints: Vec::new(),
            ego_view: None,
        }
    }

    /// Runs the program to completion and finalizes the scene.
    ///
    /// # Errors
    ///
    /// Rejections and program errors, per [`Scenario::generate`].
    pub fn run(&mut self) -> RunResult<Scene> {
        self.run_prefix()?;
        self.run_main()
    }

    /// The deterministic prefix of every run: install builtins, bind
    /// `workspace`, execute the prelude, then the auto-imported
    /// modules. The compiled engine hoists this out of the candidate
    /// loop (after verifying it draws no randomness — see
    /// [`crate::compile`]).
    pub(crate) fn run_prefix(&mut self) -> RunResult<()> {
        builtins::install(&self.globals);
        define(
            &self.globals,
            "workspace",
            Value::Region(Arc::clone(&self.scenario.world.workspace)),
        );
        let prelude = Arc::clone(&self.scenario.prelude);
        self.exec_block(&prelude.statements, &self.globals.clone())?;
        for name in self.scenario.world.auto_imports.clone() {
            self.import_module(&name, 0)?;
        }
        Ok(())
    }

    /// The per-candidate remainder of a run: execute the user program
    /// and finalize the scene. The candidate scope's bindings are
    /// cleared on the way out, whatever the outcome — the scene has been
    /// copied out by then — so the scope is freed with the interpreter
    /// (see `env::clear`).
    pub(crate) fn run_main(&mut self) -> RunResult<Scene> {
        let program = Arc::clone(&self.scenario.program);
        let globals = self.globals.clone();
        let scene = self
            .exec_main(&program.statements, &globals)
            .and_then(|()| self.finalize());
        clear(&globals);
        scene
    }

    /// The user program's top-level statements, each `require` the plan
    /// marks decided at its own statement where possible.
    fn exec_main(&mut self, stmts: &[Stmt], env: &EnvRef) -> RunResult<()> {
        for (i, stmt) in stmts.iter().enumerate() {
            if let StmtKind::Require { cond, .. } = &stmt.kind {
                if self.early.decides_require(i)
                    && self.decide_requirement(cond, env, stmt.line())?
                {
                    continue;
                }
            }
            if let Flow::Return(_) = self.exec_stmt(stmt, env)? {
                break;
            }
        }
        Ok(())
    }

    /// Decides a hard `require` at its own statement: `Ok(true)` when it
    /// holds, its rejection when it fails, and `Ok(false)` when it must
    /// wait for termination. It waits when an object to be mutated
    /// exists, when the evaluation draws from the RNG (the snapshot is
    /// restored, so no later draw shifts), and when the evaluation
    /// raises an error (the deferred check raises it again, with its
    /// line, if the candidate gets that far).
    fn decide_requirement(&mut self, cond: &Expr, env: &EnvRef, line: u32) -> RunResult<bool> {
        if self.mutation_pending {
            return Ok(false);
        }
        let snapshot = self.rng.clone();
        let outcome = self.check_requirement(cond, env, line);
        if *self.rng != snapshot {
            *self.rng = snapshot;
            return Ok(false);
        }
        match outcome {
            Ok(()) => Ok(true),
            Err(rejected @ ScenicError::Rejected(Rejection::Requirement { .. })) => Err(rejected),
            Err(_) => Ok(false),
        }
    }

    /// The global scope and imported-module set after
    /// [`Interpreter::run_prefix`] (cloned handles; used by the
    /// compiled engine to capture a hoisted base environment).
    pub(crate) fn base_snapshot(&self) -> (EnvRef, Rc<HashSet<String>>) {
        (self.globals.clone(), Rc::clone(&self.imported))
    }

    /// Whether the prefix left all per-candidate state untouched — no
    /// objects, ego, params, requirements, or identifiers allocated. A
    /// prefix that dirtied any of these cannot be hoisted.
    pub(crate) fn prefix_is_clean(&self) -> bool {
        self.objects.is_empty()
            && self.ego.is_none()
            && self.params.is_empty()
            && self.requirements.is_empty()
            && self.next_id == 0
            && self.current_self.is_none()
    }

    // -----------------------------------------------------------------
    // Statements
    // -----------------------------------------------------------------

    fn exec_block(&mut self, stmts: &[Stmt], env: &EnvRef) -> RunResult<Flow> {
        for stmt in stmts {
            match self.exec_stmt(stmt, env)? {
                Flow::Normal => {}
                ret => return Ok(ret),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, env: &EnvRef) -> RunResult<Flow> {
        let line = stmt.line();
        match &stmt.kind {
            StmtKind::Import(name) => {
                self.import_module(name, line)?;
            }
            StmtKind::Assign { name, value } => {
                let v = self.eval(value, env).map_err(|e| e.with_line(line))?;
                self.note_ego(name, &v, line)?;
                assign(env, name, v);
            }
            StmtKind::Store { target, value } => {
                let v = self.eval(value, env).map_err(|e| e.with_line(line))?;
                self.note_ego(&target.name, &v, line)?;
                // A name a frame binds is in that frame's slots, or it
                // stays by name: a store never walks out of its frame.
                match target.addr {
                    Addr::Candidate(i) => self.frame[i as usize] = Some(v),
                    Addr::Local { hops: 0, slot } => set_slot(env, slot, v),
                    Addr::Local { .. } | Addr::Base(_) | Addr::DefaultSelf => {
                        unreachable!("lowering stores only to the current frame")
                    }
                }
            }
            StmtKind::Param(params) => {
                for (name, expr) in params {
                    let v = self.eval(expr, env).map_err(|e| e.with_line(line))?;
                    self.params.push((name.clone(), v));
                }
            }
            StmtKind::ClassDef(cd) => {
                let superclass = match &cd.superclass {
                    Some(name) => Some(self.lookup_class(name, env, line)?),
                    None if cd.name == "Point" => None,
                    None => Some(self.lookup_class("Object", env, line)?),
                };
                let class = Rc::new(RuntimeClass::new(
                    cd.name.clone(),
                    superclass,
                    cd.properties.clone(),
                    env.clone(),
                ));
                define(env, &cd.name, Value::Class(class));
            }
            StmtKind::Expr(expr) => {
                self.eval(expr, env).map_err(|e| e.with_line(line))?;
            }
            StmtKind::Require { prob, cond } => {
                let enforce = match prob {
                    None => true,
                    Some(p_expr) => {
                        let p = self.eval(p_expr, env).map_err(|e| e.with_line(line))?;
                        if p.is_random() {
                            return Err(ScenicError::runtime(
                                "soft-requirement probability must be a constant",
                            )
                            .with_line(line));
                        }
                        let p = p.as_number().map_err(|e| e.with_line(line))?;
                        if !(0.0..=1.0).contains(&p) {
                            return Err(ScenicError::runtime(format!(
                                "soft-requirement probability must be in [0, 1], got {p}"
                            ))
                            .with_line(line));
                        }
                        use rand::Rng;
                        self.rng.gen::<f64>() < p
                    }
                };
                if enforce {
                    self.requirements.push(DeferredRequirement {
                        cond: Arc::clone(cond),
                        env: env.clone(),
                        line,
                    });
                }
            }
            StmtKind::Mutate { targets, scale } => {
                let scale = match scale {
                    Some(e) => self
                        .eval(e, env)
                        .and_then(|v| v.as_number())
                        .map_err(|e| e.with_line(line))?,
                    None => 1.0,
                };
                if targets.is_empty() {
                    for obj in &self.objects {
                        obj.borrow_mut().set("mutationScale", Value::Number(scale));
                    }
                } else {
                    for name in targets {
                        let v = lookup(env, name).ok_or_else(|| ScenicError::Undefined {
                            name: name.clone(),
                            line,
                        })?;
                        let obj = v.as_object().map_err(|e| e.with_line(line))?;
                        obj.borrow_mut().set("mutationScale", Value::Number(scale));
                    }
                }
            }
            StmtKind::FuncDef(fd) => {
                define(
                    env,
                    &fd.name,
                    Value::Function(Rc::new(crate::value::UserFunc {
                        def: Arc::clone(fd),
                        closure: env.clone(),
                    })),
                );
            }
            StmtKind::SpecifierDef(sd) => {
                define(
                    env,
                    &sd.name,
                    Value::Specifier(Rc::new(crate::value::UserSpecifier {
                        def: Arc::clone(sd),
                        closure: env.clone(),
                    })),
                );
            }
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => self.eval(e, env).map_err(|e| e.with_line(line))?,
                    None => Value::None,
                };
                return Ok(Flow::Return(v));
            }
            StmtKind::If {
                branches,
                else_body,
            } => {
                for (cond, body) in branches {
                    let c = self.eval(cond, env).map_err(|e| e.with_line(line))?;
                    if c.is_random() {
                        return Err(ScenicError::RandomControlFlow { line });
                    }
                    if c.as_bool().map_err(|e| e.with_line(line))? {
                        return self.exec_block(body, env);
                    }
                }
                return self.exec_block(else_body, env);
            }
            StmtKind::For { var, iter, body } => {
                let items = self.eval(iter, env).map_err(|e| e.with_line(line))?;
                if items.is_random() {
                    return Err(ScenicError::RandomControlFlow { line });
                }
                let Value::List(items) = items.unwrap_sample().clone() else {
                    return Err(ScenicError::type_error("for loop expects a list").with_line(line));
                };
                for item in items.iter() {
                    define(env, var, item.clone());
                    match self.exec_block(body, env)? {
                        Flow::Normal => {}
                        ret => return Ok(ret),
                    }
                }
            }
            StmtKind::While { cond, body } => {
                let mut iterations = 0usize;
                loop {
                    let c = self.eval(cond, env).map_err(|e| e.with_line(line))?;
                    if c.is_random() {
                        return Err(ScenicError::RandomControlFlow { line });
                    }
                    if !c.as_bool().map_err(|e| e.with_line(line))? {
                        break;
                    }
                    match self.exec_block(body, env)? {
                        Flow::Normal => {}
                        ret => return Ok(ret),
                    }
                    iterations += 1;
                    if iterations > MAX_LOOP_ITERATIONS {
                        return Err(ScenicError::runtime("while loop exceeded iteration limit")
                            .with_line(line));
                    }
                }
            }
            StmtKind::Pass => {}
        }
        Ok(Flow::Normal)
    }

    /// Takes the ego's viewer when an assignment binds `ego`.
    fn note_ego(&mut self, name: &str, v: &Value, line: u32) -> RunResult<()> {
        if name == "ego" {
            let obj = v.as_object().map_err(|e| e.with_line(line))?;
            if self.early.objects && !self.mutation_pending {
                let viewer = obj.borrow().viewer().ok();
                self.ego_view = viewer.map(|v| (v, self.objects.len()));
            }
            self.ego = Some(obj);
        }
        Ok(())
    }

    fn import_module(&mut self, name: &str, line: u32) -> RunResult<()> {
        if self.imported.contains(name) {
            return Ok(());
        }
        Rc::make_mut(&mut self.imported).insert(name.to_string());
        let module = self
            .scenario
            .world
            .module(name)
            .ok_or_else(|| ScenicError::Undefined {
                name: format!("module {name}"),
                line,
            })?
            .clone();
        for (var, value) in &module.natives {
            define(&self.globals, var, value.to_value());
        }
        if let Some(program) = self.scenario.module_programs.get(name).cloned() {
            self.exec_block(&program.statements, &self.globals.clone())?;
        }
        Ok(())
    }

    fn lookup_class(&self, name: &str, env: &EnvRef, line: u32) -> RunResult<Rc<RuntimeClass>> {
        self.class_value(name, lookup(env, name), line)
    }

    /// The class `found` holds, the value `name` named.
    fn class_value(
        &self,
        name: &str,
        found: Option<Value>,
        line: u32,
    ) -> RunResult<Rc<RuntimeClass>> {
        match found {
            Some(Value::Class(c)) => Ok(c),
            Some(other) => Err(ScenicError::type_error(format!(
                "`{name}` is {} , not a class",
                other.type_name()
            ))
            .with_line(line)),
            None => Err(ScenicError::Undefined {
                name: name.to_string(),
                line,
            }),
        }
    }

    // -----------------------------------------------------------------
    // Expressions
    // -----------------------------------------------------------------

    fn eval(&mut self, expr: &Expr, env: &EnvRef) -> RunResult<Value> {
        match expr {
            Expr::Number(n) => Ok(Value::Number(*n)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Str(s) => Ok(Value::str(s)),
            Expr::None => Ok(Value::None),
            Expr::Ident(name) => self.eval_ident(name, env),
            Expr::Resolved(r) => {
                self.read(&r.name, r.addr, env)
                    .ok_or_else(|| ScenicError::Undefined {
                        name: r.name.clone(),
                        line: 0,
                    })
            }
            Expr::Vector(x, y) => {
                let x = self.eval(x, env)?.as_number()?;
                let y = self.eval(y, env)?.as_number()?;
                Ok(Value::Vector(Vec2::new(x, y)))
            }
            Expr::Interval(lo, hi) => {
                let lo = self.eval(lo, env)?.as_number()?;
                let hi = self.eval(hi, env)?.as_number()?;
                Rc::new(DistSpec::Range(lo, hi)).sample(self.rng)
            }
            Expr::Call { func, args, kwargs } => self.eval_call(func, args, kwargs, env),
            Expr::Attribute { obj, name } => self.eval_attribute(obj, name, env),
            Expr::Index { obj, key } => self.eval_index(obj, key, env),
            Expr::List(items) => {
                let values: RunResult<Vec<Value>> =
                    items.iter().map(|e| self.eval(e, env)).collect();
                Ok(Value::List(Rc::new(values?)))
            }
            Expr::Dict(items) => {
                let mut pairs = Vec::with_capacity(items.len());
                for (k, v) in items {
                    pairs.push((self.eval(k, env)?, self.eval(v, env)?));
                }
                Ok(Value::Dict(Rc::new(RefCell::new(pairs))))
            }
            Expr::Neg(e) => {
                let v = self.eval(e, env)?;
                match v.unwrap_sample() {
                    Value::Vector(vec) => Ok(Value::Vector(-*vec)),
                    _ => {
                        let n = -v.as_number()?;
                        Ok(maybe_taint(Value::Number(n), v.is_random()))
                    }
                }
            }
            Expr::NotOp(e) => {
                let v = self.eval(e, env)?;
                let b = !v.as_bool()?;
                Ok(maybe_taint(Value::Bool(b), v.is_random()))
            }
            Expr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs, env),
            Expr::Compare { op, lhs, rhs } => self.eval_compare(*op, lhs, rhs, env),
            Expr::IfElse {
                cond,
                then,
                otherwise,
            } => {
                let c = self.eval(cond, env)?;
                if c.is_random() {
                    return Err(ScenicError::RandomControlFlow { line: 0 });
                }
                if c.as_bool()? {
                    self.eval(then, env)
                } else {
                    self.eval(otherwise, env)
                }
            }
            Expr::Deg(e) => {
                let v = self.eval(e, env)?;
                let n = v.as_number()?.to_radians();
                Ok(maybe_taint(Value::Number(n), v.is_random()))
            }
            Expr::RelativeTo(a, b) => {
                let va = self.eval(a, env)?;
                let vb = self.eval(b, env)?;
                self.relative_to(va, vb)
            }
            Expr::OffsetBy(a, b) => {
                let va = self.eval(a, env)?;
                let offset = self.eval(b, env)?.as_vector()?;
                match va.unwrap_sample() {
                    Value::Object(o) if o.borrow().is_instance_of("OrientedPoint") => {
                        // Fig. 35: `OP offset by V` = `V relative to OP`.
                        let (pos, heading) = {
                            let d = o.borrow();
                            (d.position()?, d.heading()?)
                        };
                        Ok(Value::Object(oriented_point(
                            pos + offset.rotated(heading),
                            heading,
                        )))
                    }
                    _ => Ok(Value::Vector(va.as_vector()? + offset)),
                }
            }
            Expr::OffsetAlong {
                base,
                direction,
                offset,
            } => {
                let base = self.eval(base, env)?.as_vector()?;
                let dir = self.eval(direction, env)?;
                let offset = self.eval(offset, env)?.as_vector()?;
                let heading = match dir.unwrap_sample() {
                    Value::Field(f) => f.at(base).radians(),
                    _ => dir.as_heading()?,
                };
                Ok(Value::Vector(base + offset.rotated(heading)))
            }
            Expr::FieldAt(f, v) => {
                let field = self.eval(f, env)?.as_field()?;
                let at = self.eval(v, env)?.as_vector()?;
                Ok(Value::Number(field.at(at).radians()))
            }
            Expr::CanSee(x, y) => {
                let viewer = self.eval(x, env)?.as_object()?;
                let viewer = viewer.borrow().viewer()?;
                let target = self.eval(y, env)?;
                let seen = match target.unwrap_sample() {
                    Value::Object(o) if o.borrow().is_physical() => {
                        viewer.can_see_box(&o.borrow().bounding_box()?)
                    }
                    other => viewer.can_see_point(other.as_vector()?),
                };
                Ok(Value::Bool(seen))
            }
            Expr::IsIn(x, r) => {
                let region = self.eval(r, env)?.as_region()?;
                let target = self.eval(x, env)?;
                let inside = match target.unwrap_sample() {
                    Value::Object(o) if o.borrow().is_physical() => {
                        let bb = o.borrow().bounding_box()?;
                        bb.corners().iter().all(|&c| region.contains(c))
                            && region.contains(bb.center)
                    }
                    other => region.contains(other.as_vector()?),
                };
                Ok(Value::Bool(inside))
            }
            Expr::DistanceTo { from, to } => {
                let from = self.optional_vector(from.as_deref(), env)?;
                let to = self.eval(to, env)?.as_vector()?;
                Ok(Value::Number(from.distance_to(to)))
            }
            Expr::AngleTo { from, to } => {
                let from = self.optional_vector(from.as_deref(), env)?;
                let to = self.eval(to, env)?.as_vector()?;
                Ok(Value::Number(Heading::of_vector(to - from).radians()))
            }
            Expr::RelativeHeadingOf { of, from } => {
                let of = self.eval(of, env)?.as_heading()?;
                let from = match from {
                    Some(e) => self.eval(e, env)?.as_heading()?,
                    None => self.ego()?.borrow().heading()?,
                };
                Ok(Value::Number(Heading(from).angle_to(Heading(of))))
            }
            Expr::ApparentHeadingOf { of, from } => {
                let op = self.eval(of, env)?.as_object()?;
                let (pos, heading) = {
                    let d = op.borrow();
                    (d.position()?, d.heading()?)
                };
                let from = self.optional_vector(from.as_deref(), env)?;
                let line_of_sight = Heading::of_vector(pos - from);
                Ok(Value::Number(
                    Heading(heading - line_of_sight.radians())
                        .normalized()
                        .radians(),
                ))
            }
            Expr::Visible(r) => {
                let region = self.eval(r, env)?.as_region()?;
                let viewer = self.ego()?.borrow().viewer()?;
                Ok(Value::Region(Arc::new(
                    (*region).clone().visible_from(viewer.visible_region()),
                )))
            }
            Expr::VisibleFrom(r, p) => {
                let region = self.eval(r, env)?.as_region()?;
                let from = self.eval(p, env)?.as_object()?;
                let viewer = from.borrow().viewer()?;
                Ok(Value::Region(Arc::new(
                    (*region).clone().visible_from(viewer.visible_region()),
                )))
            }
            Expr::Follow {
                field,
                from,
                distance,
            } => {
                let field = self.eval(field, env)?.as_field()?;
                let from = self.optional_vector(from.as_deref(), env)?;
                let d = self.eval(distance, env)?.as_number()?;
                let end = field.follow(from, d, EULER_STEPS);
                Ok(Value::Object(oriented_point(end, field.at(end).radians())))
            }
            Expr::BoxPointOf { which, obj } => {
                let o = self.eval(obj, env)?.as_object()?;
                let (pos, heading, w, h) = {
                    let d = o.borrow();
                    (
                        d.position()?,
                        d.heading()?,
                        d.known_number_or(Known::Width, 1.0),
                        d.known_number_or(Known::Height, 1.0),
                    )
                };
                let local = box_point_offset(*which, w, h);
                Ok(Value::Object(oriented_point(
                    pos + local.rotated(heading),
                    heading,
                )))
            }
            Expr::Ctor {
                class,
                specifiers,
                site,
            } => self.construct(class, specifiers, site.as_ref(), env, 0),
        }
    }

    fn eval_ident(&mut self, name: &str, env: &EnvRef) -> RunResult<Value> {
        if let Some(v) = lookup(env, name) {
            // An uppercase bare reference to a class constructs an
            // instance (`ego = Car`): the parser emits `Ctor` for those,
            // so a plain `Ident` hit on a class stays a class value.
            return Ok(v);
        }
        Err(ScenicError::Undefined {
            name: name.to_string(),
            line: 0,
        })
    }

    /// The value at a resolved name's address, if bound. While the base
    /// itself is built there are no base slots yet: a base name is then
    /// looked up by `name`.
    fn read(&self, name: &str, addr: Addr, env: &EnvRef) -> Option<Value> {
        match addr {
            Addr::Base(i) => match &self.exec_cache {
                Some(cache) => Some(cache.base_slots[i as usize].clone()),
                None => lookup(env, name),
            },
            Addr::Candidate(i) => self.frame[i as usize].clone(),
            Addr::Local { hops, slot: i } => slot(env, hops, i),
            Addr::DefaultSelf => self.default_self.clone().map(Value::Object),
        }
    }

    fn ego(&self) -> RunResult<ObjRef> {
        self.ego.clone().ok_or(ScenicError::EgoUndefined)
    }

    fn optional_vector(&mut self, e: Option<&Expr>, env: &EnvRef) -> RunResult<Vec2> {
        match e {
            Some(e) => self.eval(e, env)?.as_vector(),
            None => self.ego()?.borrow().position(),
        }
    }

    fn eval_binary(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr, env: &EnvRef) -> RunResult<Value> {
        // `and`/`or` short-circuit.
        if matches!(op, BinOp::And | BinOp::Or) {
            let l = self.eval(lhs, env)?;
            let lb = l.as_bool()?;
            let short = matches!(op, BinOp::And) != lb;
            if short {
                return Ok(maybe_taint(Value::Bool(lb), l.is_random()));
            }
            let r = self.eval(rhs, env)?;
            let rb = r.as_bool()?;
            return Ok(maybe_taint(Value::Bool(rb), l.is_random() || r.is_random()));
        }
        let l = self.eval(lhs, env)?;
        let r = self.eval(rhs, env)?;
        let random = l.is_random() || r.is_random();
        let result = match (op, l.unwrap_sample(), r.unwrap_sample()) {
            (BinOp::Add, Value::Vector(a), Value::Vector(b)) => Value::Vector(*a + *b),
            (BinOp::Sub, Value::Vector(a), Value::Vector(b)) => Value::Vector(*a - *b),
            (BinOp::Add, Value::Vector(a), Value::Object(o)) => {
                Value::Vector(*a + o.borrow().position()?)
            }
            (BinOp::Add, Value::Object(o), Value::Vector(b)) => {
                Value::Vector(o.borrow().position()? + *b)
            }
            (BinOp::Sub, Value::Vector(a), Value::Object(o)) => {
                Value::Vector(*a - o.borrow().position()?)
            }
            (BinOp::Sub, Value::Object(o), Value::Vector(b)) => {
                Value::Vector(o.borrow().position()? - *b)
            }
            (BinOp::Mul, Value::Vector(a), _) => Value::Vector(*a * r.as_number()?),
            (BinOp::Mul, _, Value::Vector(b)) => Value::Vector(*b * l.as_number()?),
            (BinOp::Div, Value::Vector(a), _) => Value::Vector(*a / r.as_number()?),
            (BinOp::Add, Value::Str(a), Value::Str(b)) => Value::str(format!("{a}{b}")),
            (BinOp::Add, Value::List(a), Value::List(b)) => {
                let mut items = a.as_ref().clone();
                items.extend(b.iter().cloned());
                Value::List(Rc::new(items))
            }
            (BinOp::Add, ..) => Value::Number(l.as_number()? + r.as_number()?),
            (BinOp::Sub, ..) => Value::Number(l.as_number()? - r.as_number()?),
            (BinOp::Mul, ..) => Value::Number(l.as_number()? * r.as_number()?),
            (BinOp::Div, ..) => {
                let d = r.as_number()?;
                if d == 0.0 {
                    return Err(ScenicError::runtime("division by zero"));
                }
                Value::Number(l.as_number()? / d)
            }
            (BinOp::Mod, ..) => {
                let d = r.as_number()?;
                if d == 0.0 {
                    return Err(ScenicError::runtime("modulo by zero"));
                }
                Value::Number(l.as_number()?.rem_euclid(d))
            }
            (BinOp::And | BinOp::Or, ..) => unreachable!("handled above"),
        };
        Ok(maybe_taint(result, random))
    }

    fn eval_compare(
        &mut self,
        op: CmpOp,
        lhs: &Expr,
        rhs: &Expr,
        env: &EnvRef,
    ) -> RunResult<Value> {
        let l = self.eval(lhs, env)?;
        let r = self.eval(rhs, env)?;
        // Identity tests (`is None`) depend on program structure, not on
        // the drawn value, so they never count as random (this is what
        // lets Fig. 18's `model is None` guard a conditional).
        let random = !matches!(op, CmpOp::Is | CmpOp::IsNot) && (l.is_random() || r.is_random());
        let b = match op {
            CmpOp::Eq => l.equals(&r),
            CmpOp::Ne => !l.equals(&r),
            CmpOp::Is => l.equals(&r),
            CmpOp::IsNot => !l.equals(&r),
            CmpOp::Lt => l.as_number()? < r.as_number()?,
            CmpOp::Le => l.as_number()? <= r.as_number()?,
            CmpOp::Gt => l.as_number()? > r.as_number()?,
            CmpOp::Ge => l.as_number()? >= r.as_number()?,
        };
        Ok(maybe_taint(Value::Bool(b), random))
    }

    fn eval_call(
        &mut self,
        func: &Expr,
        args: &[Expr],
        kwargs: &[(String, Expr)],
        env: &EnvRef,
    ) -> RunResult<Value> {
        let callee = self.eval(func, env)?;
        let mut arg_values = Vec::with_capacity(args.len());
        for a in args {
            arg_values.push(self.eval(a, env)?);
        }
        let mut kw_values = Vec::with_capacity(kwargs.len());
        for (k, v) in kwargs {
            kw_values.push((k.clone(), self.eval(v, env)?));
        }
        match callee.unwrap_sample() {
            Value::Native(f) => {
                let mut ctx = NativeCtx { rng: self.rng };
                (f.imp)(&mut ctx, arg_values, kw_values)
            }
            Value::Function(f) => self.call_user(f.clone(), arg_values, kw_values),
            other => Err(ScenicError::type_error(format!(
                "{} is not callable",
                other.type_name()
            ))),
        }
    }

    fn call_user(
        &mut self,
        f: Rc<crate::value::UserFunc>,
        args: Vec<Value>,
        kwargs: Vec<(String, Value)>,
    ) -> RunResult<Value> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(ScenicError::runtime("maximum recursion depth exceeded"));
        }
        let local = Scope::child(&f.closure);
        self.bind_params(
            ("", &f.def.name),
            &f.def.params,
            &f.def.param_slots,
            &args,
            &kwargs,
            &f.closure,
            &local,
        )?;
        self.depth += 1;
        let result = self.exec_block(&f.def.body, &local);
        self.depth -= 1;
        match result? {
            Flow::Return(v) => Ok(v),
            Flow::Normal => Ok(Value::None),
        }
    }

    /// Binds a call's arguments to the parameters of the callee (`kind`
    /// and name, for messages) in its frame `local`: by position, then by
    /// keyword, then by default (which evaluates in the callee's
    /// `closure`). A parameter lowering resolved goes to its slot
    /// ([`FuncDef::param_slots`]), any other by name.
    ///
    /// [`FuncDef::param_slots`]: scenic_lang::FuncDef::param_slots
    #[allow(clippy::too_many_arguments)]
    fn bind_params(
        &mut self,
        (kind, callee): (&str, &str),
        params: &[(String, Option<Expr>)],
        slots: &[Option<u32>],
        args: &[Value],
        kwargs: &[(String, Value)],
        closure: &EnvRef,
        local: &EnvRef,
    ) -> RunResult<()> {
        if args.len() > params.len() {
            return Err(ScenicError::runtime(format!(
                "{kind}{callee}() takes at most {} arguments, got {}",
                params.len(),
                args.len()
            )));
        }
        for (i, (name, default)) in params.iter().enumerate() {
            let keyword = kwargs.iter().find(|(k, _)| k == name);
            let value = match (args.get(i), keyword) {
                (Some(_), Some(_)) => {
                    return Err(ScenicError::runtime(format!(
                        "{kind}{callee}() got multiple values for argument `{name}`"
                    )))
                }
                (Some(v), None) | (None, Some((_, v))) => v.clone(),
                (None, None) => match default {
                    Some(d) => self.eval(d, closure)?,
                    None => {
                        return Err(ScenicError::runtime(format!(
                            "{kind}{callee}() missing argument `{name}`"
                        )))
                    }
                },
            };
            match slots.get(i).copied().flatten() {
                Some(slot) => set_slot(local, slot, value),
                None => define(local, name, value),
            }
        }
        for (k, _) in kwargs {
            if !params.iter().any(|(p, _)| p == k) {
                return Err(ScenicError::runtime(format!(
                    "{kind}{callee}() got unexpected keyword `{k}`"
                )));
            }
        }
        Ok(())
    }

    fn eval_attribute(&mut self, obj: &Expr, name: &str, env: &EnvRef) -> RunResult<Value> {
        let receiver = self.eval(obj, env)?;
        match receiver.unwrap_sample() {
            Value::Object(o) => o.borrow().get(name).ok_or_else(|| ScenicError::Undefined {
                name: format!("{}.{}", o.borrow().class_name(), name),
                line: 0,
            }),
            Value::Dict(d) => dict_get(d, name).ok_or_else(|| ScenicError::Undefined {
                name: format!("<dict>.{name}"),
                line: 0,
            }),
            Value::Vector(v) => match name {
                "x" => Ok(Value::Number(v.x)),
                "y" => Ok(Value::Number(v.y)),
                _ => Err(ScenicError::Undefined {
                    name: format!("<vector>.{name}"),
                    line: 0,
                }),
            },
            other => Err(ScenicError::type_error(format!(
                "{} has no attributes",
                other.type_name()
            ))),
        }
    }

    fn eval_index(&mut self, obj: &Expr, key: &Expr, env: &EnvRef) -> RunResult<Value> {
        let receiver = self.eval(obj, env)?;
        let key = self.eval(key, env)?;
        match receiver.unwrap_sample() {
            Value::List(items) => {
                let n = key.as_number()?;
                if n.fract() != 0.0 {
                    return Err(ScenicError::runtime("list index must be an integer"));
                }
                // Python's rule: a negative index counts from the end.
                let i = if n < 0.0 { n + items.len() as f64 } else { n };
                (0.0..items.len() as f64)
                    .contains(&i)
                    .then(|| items[i as usize].clone())
                    .ok_or_else(|| ScenicError::runtime("list index out of range"))
            }
            Value::Dict(d) => {
                let found = d
                    .borrow()
                    .iter()
                    .find(|(k, _)| k.equals(&key))
                    .map(|(_, v)| v.clone());
                found.ok_or_else(|| ScenicError::runtime(format!("key `{key}` not found")))
            }
            other => Err(ScenicError::type_error(format!(
                "{} is not indexable",
                other.type_name()
            ))),
        }
    }

    /// `X relative to Y` across all the typing cases of Fig. 32/33/35.
    fn relative_to(&mut self, a: Value, b: Value) -> RunResult<Value> {
        let self_position = || -> RunResult<Vec2> {
            match &self.current_self {
                Some(obj) => obj.borrow().position(),
                None => Err(ScenicError::NeedsSelf),
            }
        };
        match (a.unwrap_sample(), b.unwrap_sample()) {
            // Field combinations need the position of the object being
            // specified (§4.2).
            (Value::Field(f1), Value::Field(f2)) => {
                let p = self_position()?;
                Ok(Value::Number(f1.at(p).radians() + f2.at(p).radians()))
            }
            (Value::Field(f), _) => {
                let p = self_position()?;
                let h = b.as_heading()?;
                Ok(maybe_taint(
                    Value::Number(f.at(p).radians() + h),
                    b.is_random(),
                ))
            }
            (_, Value::Field(f)) => {
                let p = self_position()?;
                let h = a.as_heading()?;
                Ok(maybe_taint(
                    Value::Number(h + f.at(p).radians()),
                    a.is_random(),
                ))
            }
            (Value::Vector(v), Value::Vector(w)) => Ok(Value::Vector(*v + *w)),
            // `V relative to OP`: a local-coordinate offset (Fig. 35).
            (Value::Vector(v), Value::Object(o)) => {
                if o.borrow().is_instance_of("OrientedPoint") {
                    let (pos, heading) = {
                        let d = o.borrow();
                        (d.position()?, d.heading()?)
                    };
                    Ok(Value::Object(oriented_point(
                        pos + v.rotated(heading),
                        heading,
                    )))
                } else {
                    Ok(Value::Vector(*v + o.borrow().position()?))
                }
            }
            (Value::Object(_), Value::Object(_)) => Err(ScenicError::type_error(
                "ambiguous `relative to` between two objects; use `.position` or `.heading`",
            )),
            // Heading relative to heading (objects coerce to headings).
            _ => {
                let ha = a.as_heading()?;
                let hb = b.as_heading()?;
                Ok(maybe_taint(
                    Value::Number(ha + hb),
                    a.is_random() || b.is_random(),
                ))
            }
        }
    }

    // -----------------------------------------------------------------
    // Object construction (specifiers + Algorithm 1)
    // -----------------------------------------------------------------

    fn construct(
        &mut self,
        class_name: &str,
        specifiers: &[Specifier],
        site: Option<&CtorSite>,
        env: &EnvRef,
        line: u32,
    ) -> RunResult<Value> {
        let class = match site.and_then(|s| s.class) {
            Some(addr) => self.class_value(class_name, self.read(class_name, addr, env), line)?,
            None => self.lookup_class(class_name, env, line)?,
        };

        // Argument evaluation must not see an enclosing object under
        // construction (only class *defaults* may reference `self`).
        let saved_self = self.current_self.take();
        let prepared = self.prepare_specifiers(specifiers, env);
        self.current_self = saved_self;
        let actions = prepared?;

        // Specifier metadata, the class's default-value specifiers and
        // Algorithm 1 resolution, staged per site under the compiled
        // engine. The defaults follow the explicit specifiers in the
        // stage's rows: row `actions.len() + k` is `defaults[k]`.
        let stage = self.ctor_stage(site.map(|s| s.id), specifiers, &class, &actions)?;
        let defaults = &stage.defaults;

        let obj: ObjRef = Rc::new(RefCell::new(ObjData::new(
            class.lineage(),
            Rc::clone(&stage.layout),
            self.next_id,
        )));

        let saved_self = self.current_self.replace(Rc::clone(&obj));
        // Every default evaluates in the class's scope with `self` bound:
        // under the compiled engine, `self` in a default is resolved to
        // `default_self`; under the AST engine it is bound in a child
        // scope. Expressions never define names, so one such scope serves
        // all of this object's defaults.
        let mut default_scope = None;
        let mut slots = stage.slots.iter().copied();
        let result = (|| -> RunResult<()> {
            for (row, (idx, props)) in stage.order.order.iter().enumerate() {
                let not_produced = |prop: &PropName| ScenicError::Specifier {
                    message: format!(
                        "specifier `{}` did not produce property `{prop}`",
                        stage.metas[*idx].name
                    ),
                    class: class.name.clone(),
                };
                match idx.checked_sub(actions.len()).map(|k| &defaults[k]) {
                    // An explicit specifier: its action yields named values,
                    // a `Const` one without evaluating anything.
                    None => {
                        let written = match &actions[*idx] {
                            Action::Const(values) => {
                                write_named(&obj, &stage.layout, props, &mut slots, values)
                            }
                            action => {
                                let values = self.eval_action(action, &obj)?;
                                write_named(&obj, &stage.layout, props, &mut slots, &values)
                            }
                        };
                        written.map_err(not_produced)?;
                    }
                    // A class default: its one value goes straight into
                    // the object. The compiled engine writes a literal's
                    // staged value: it draws nothing, reads nothing and
                    // cannot fail, so every draw, read and error stays
                    // where evaluating it would leave them.
                    Some(default) => {
                        let value = match (&default.literal, self.exec_cache.is_some()) {
                            (Some(literal), true) => literal.clone(),
                            (None, true) => {
                                let outer = self.default_self.replace(Rc::clone(&obj));
                                let value = self.eval(&default.expr, &class.env);
                                self.default_self = outer;
                                value?
                            }
                            (_, false) => {
                                let scope = default_scope.get_or_insert_with(|| {
                                    Scope::child_with_self(
                                        &class.env,
                                        Value::Object(Rc::clone(&obj)),
                                    )
                                });
                                self.eval(&default.expr, scope)?
                            }
                        };
                        for (prop, slot) in props.iter().zip(&mut slots) {
                            if *prop != default.prop {
                                return Err(not_produced(prop));
                            }
                            obj.borrow_mut()
                                .set_slot(&stage.layout, slot, value.clone());
                        }
                    }
                }
                if stage
                    .guard
                    .is_some_and(|g| g.row == row && self.guard_rejects(&g, &obj, &actions))
                {
                    return Err(ScenicError::Rejected(Rejection::Visibility));
                }
            }
            Ok(())
        })();
        self.current_self = saved_self;
        result.map_err(|e| e.with_line(line))?;

        if obj.borrow().is_physical() {
            self.next_id += 1;
            self.objects.push(Rc::clone(&obj));
            self.decide_new_object(&obj)?;
        }
        Ok(Value::Object(obj))
    }

    /// Checks a just-constructed physical object's default requirements
    /// (Fig. 25) that are already final: its workspace containment, its
    /// collisions with every earlier object, and, once `ego` is
    /// assigned, its visibility. An object that termination will mutate
    /// or whose footprint cannot be computed leaves its checks, and every
    /// later object's, to `finalize`.
    fn decide_new_object(&mut self, obj: &ObjRef) -> RunResult<()> {
        if self.mutation_pending {
            return Ok(());
        }
        let footprint = {
            let d = obj.borrow();
            if mutation_scale(&d).is_some() {
                self.mutation_pending = true;
                return Ok(());
            }
            if !self.early.objects || self.footprints.len() + 1 != self.objects.len() {
                return Ok(());
            }
            match Footprint::of(&d) {
                Ok(footprint) => footprint,
                Err(_) => return Ok(()),
            }
        };
        check_containment(
            &self.scenario.world.workspace,
            self.half_planes(),
            &footprint,
        )?;
        check_collisions(&self.footprints, &footprint)?;
        if let Some((viewer, _)) = &self.ego_view {
            check_visibility(viewer, &footprint)?;
        }
        self.footprints.push(footprint);
        Ok(())
    }

    /// The workspace as half-planes, where that is exact, under the
    /// compiled engine's hoisted path.
    fn half_planes(&self) -> Option<&HalfPlanes> {
        self.exec_cache.as_ref()?.workspace.as_ref()
    }

    /// A staged site's visibility guard (see [`crate::early`]), right
    /// after the row that assigns `position`: whether `decide_new_object`
    /// is certain to check this object at construction, pass its
    /// containment and collisions, and fail its visibility. (The ego's
    /// viewer is only taken when the early plan checks objects.)
    fn guard_rejects(&self, guard: &VisibilityGuard, obj: &ObjRef, actions: &[Action]) -> bool {
        let Some((viewer, _)) = &self.ego_view else {
            return false;
        };
        let Some(workspace) = self.half_planes() else {
            return false;
        };
        if self.mutation_pending || self.footprints.len() != self.objects.len() {
            return false;
        }
        let Ok(p) = obj.borrow().position() else {
            return false;
        };
        let r = guard.radius;
        !viewer.may_see_disc(p, r)
            && workspace.contains_disc(p, r)
            && (guard.allow_collisions
                || self
                    .footprints
                    .iter()
                    .all(|e| e.allow_collisions || e.bbox.clear_of_disc(p, r)))
            && actions.iter().all(Action::is_finite)
    }

    /// The staged metadata, class defaults and Algorithm 1 resolution for
    /// one construction site.
    ///
    /// Under the compiled engine, a site (numbered by lowering) that
    /// constructs a class living in the shared base environment is staged
    /// once per thread — every later candidate revalidates by class and
    /// shape (pointer and tag comparisons) instead of walking the
    /// superclass chain, rebuilding ~15 metadata rows and re-running
    /// resolution. The AST engine, and per-candidate user classes (whose
    /// `Rc` identity is fresh each run), rebuild the stage on every
    /// construction.
    fn ctor_stage(
        &self,
        site: Option<u32>,
        specifiers: &[Specifier],
        class: &Rc<RuntimeClass>,
        actions: &[Action],
    ) -> RunResult<Rc<crate::compile::CtorStage>> {
        let cache = self
            .exec_cache
            .as_ref()
            .filter(|c| Rc::ptr_eq(&class.env, &c.base_env));
        let (Some(cache), Some(site)) = (cache, site) else {
            return Ok(Rc::new(build_stage(class, specifiers, actions, false)?));
        };
        let site = site as usize;
        if let Some(hit) = &cache.sites.borrow()[site] {
            if hit.class == Rc::as_ptr(class) as usize && stage_matches(hit, actions) {
                return Ok(Rc::clone(hit));
            }
        }
        let stage = Rc::new(build_stage(class, specifiers, actions, true)?);
        cache.sites.borrow_mut()[site] = Some(Rc::clone(&stage));
        Ok(stage)
    }

    /// Evaluates explicit specifier arguments, classifying each into an
    /// [`Action`]. Metadata is *not* built here — it depends only on
    /// the specifier syntax plus each action's [`ActionShape`] (see
    /// [`spec_meta`]), so staged construction sites skip it entirely.
    fn prepare_specifiers<'a>(
        &mut self,
        specifiers: &'a [Specifier],
        env: &EnvRef,
    ) -> RunResult<Vec<Action<'a>>> {
        let mut out = Vec::with_capacity(specifiers.len());
        for spec in specifiers {
            let entry = match spec {
                Specifier::With(prop, expr) => match self.eval(expr, env) {
                    Ok(v) => Action::Const(vec![(prop, v)]),
                    Err(ScenicError::NeedsSelf) => Action::DeferredExpr {
                        prop,
                        expr,
                        env: env.clone(),
                    },
                    Err(e) => return Err(e),
                },
                Specifier::Using {
                    name: spec_name,
                    args,
                    kwargs,
                } => {
                    let callee = self.eval_ident(spec_name, env)?;
                    let Value::Specifier(spec) = callee.unwrap_sample() else {
                        return Err(ScenicError::type_error(format!(
                            "`using {spec_name}` does not name a specifier (found {})",
                            callee.type_name()
                        )));
                    };
                    let spec = Rc::clone(spec);
                    let mut arg_values = Vec::with_capacity(args.len());
                    for a in args {
                        arg_values.push(self.eval(a, env)?);
                    }
                    let mut kwarg_values = Vec::with_capacity(kwargs.len());
                    for (k, v) in kwargs {
                        kwarg_values.push((k.clone(), self.eval(v, env)?));
                    }
                    Action::UserSpec {
                        spec,
                        args: arg_values,
                        kwargs: kwarg_values,
                    }
                }
                Specifier::At(expr) => {
                    let v = self.eval(expr, env)?.as_vector()?;
                    Action::Const(vec![("position", Value::Vector(v))])
                }
                Specifier::OffsetBy(expr) => {
                    let offset = self.eval(expr, env)?.as_vector()?;
                    let ego = self.ego()?;
                    let (pos, heading) = {
                        let d = ego.borrow();
                        (d.position()?, d.heading().unwrap_or(0.0))
                    };
                    Action::Const(vec![(
                        "position",
                        Value::Vector(pos + offset.rotated(heading)),
                    )])
                }
                Specifier::OffsetAlong(direction, offset) => {
                    let base = self.ego()?.borrow().position()?;
                    let dir = self.eval(direction, env)?;
                    let offset = self.eval(offset, env)?.as_vector()?;
                    let heading = match dir.unwrap_sample() {
                        Value::Field(f) => f.at(base).radians(),
                        _ => dir.as_heading()?,
                    };
                    Action::Const(vec![(
                        "position",
                        Value::Vector(base + offset.rotated(heading)),
                    )])
                }
                Specifier::Beside { side, target, by } => {
                    let gap = match by {
                        Some(e) => self.eval(e, env)?.as_number()?,
                        None => 0.0,
                    };
                    let target_value = self.eval(target, env)?;
                    match target_value.unwrap_sample() {
                        Value::Object(o) if o.borrow().is_instance_of("OrientedPoint") => {
                            let (mut pos, heading) = {
                                let d = o.borrow();
                                (d.position()?, d.heading()?)
                            };
                            if o.borrow().is_physical() {
                                // Table 3 second group via Fig. 28:
                                // `left of Object` = `left of (left edge)`.
                                let d = o.borrow();
                                let (w, h) = (
                                    d.known_number_or(Known::Width, 1.0),
                                    d.known_number_or(Known::Height, 1.0),
                                );
                                let edge = match side {
                                    Side::Left => Vec2::new(-w / 2.0, 0.0),
                                    Side::Right => Vec2::new(w / 2.0, 0.0),
                                    Side::Ahead => Vec2::new(0.0, h / 2.0),
                                    Side::Behind => Vec2::new(0.0, -h / 2.0),
                                };
                                pos += edge.rotated(heading);
                            }
                            Action::BesideOriented {
                                side: *side,
                                position: pos,
                                heading,
                                gap,
                            }
                        }
                        _ => Action::BesideVector {
                            side: *side,
                            target: target_value.as_vector()?,
                            gap,
                        },
                    }
                }
                Specifier::Beyond {
                    target,
                    offset,
                    from,
                } => {
                    let target = self.eval(target, env)?.as_vector()?;
                    let offset = self.eval(offset, env)?.as_vector()?;
                    let from = match from {
                        Some(e) => self.eval(e, env)?.as_vector()?,
                        None => self.ego()?.borrow().position()?,
                    };
                    let sight = Heading::of_vector(target - from).radians();
                    Action::Const(vec![(
                        "position",
                        Value::Vector(target + offset.rotated(sight)),
                    )])
                }
                Specifier::Visible(from) => {
                    let viewer = match from {
                        Some(e) => self.eval(e, env)?.as_object()?.borrow().viewer()?,
                        None => self.ego()?.borrow().viewer()?,
                    };
                    let sector = viewer.visible_region();
                    let p = sector.sample(self.rng);
                    Action::Const(vec![("position", Value::Vector(p))])
                }
                Specifier::InRegion(expr) => {
                    let region = self.eval(expr, env)?.as_region()?;
                    let p = region
                        .sample(self.rng)
                        .ok_or(ScenicError::Rejected(Rejection::EmptyRegion))?;
                    // §5.2 prune guard: the draw came from the original
                    // region (stream-identical to unpruned sampling),
                    // but if it falls outside the pruned restriction
                    // this run can never be accepted — abandon it now,
                    // before the rest of the interpretation.
                    if let Some(pruner) = self.prune.and_then(|plan| plan.check(&region, p)) {
                        return Err(ScenicError::Rejected(Rejection::Pruned(pruner)));
                    }
                    let mut values = Vec::with_capacity(2);
                    values.push(("position", Value::Vector(p)));
                    if let Some(h) = region.orientation_at(p) {
                        values.push(("heading", Value::Number(h.radians())));
                    }
                    Action::Const(values)
                }
                Specifier::Following {
                    field,
                    from,
                    distance,
                } => {
                    let f = self.eval(field, env)?.as_field()?;
                    let from = match from {
                        Some(e) => self.eval(e, env)?.as_vector()?,
                        None => self.ego()?.borrow().position()?,
                    };
                    let d = self.eval(distance, env)?.as_number()?;
                    let end = f.follow(from, d, EULER_STEPS);
                    Action::Const(vec![
                        ("position", Value::Vector(end)),
                        ("heading", Value::Number(f.at(end).radians())),
                    ])
                }
                Specifier::Facing(expr) => match self.eval(expr, env) {
                    Ok(v) => match v.unwrap_sample() {
                        Value::Field(f) => Action::FacingField(Arc::clone(f)),
                        _ => {
                            let h = v.as_heading()?;
                            Action::Const(vec![(
                                "heading",
                                maybe_taint(Value::Number(h), v.is_random()),
                            )])
                        }
                    },
                    Err(ScenicError::NeedsSelf) => Action::DeferredExpr {
                        prop: "heading",
                        expr,
                        env: env.clone(),
                    },
                    Err(e) => return Err(e),
                },
                Specifier::FacingToward(expr) => {
                    let target = self.eval(expr, env)?.as_vector()?;
                    Action::FacingToward {
                        target,
                        away: false,
                    }
                }
                Specifier::FacingAwayFrom(expr) => {
                    let target = self.eval(expr, env)?.as_vector()?;
                    Action::FacingToward { target, away: true }
                }
                Specifier::ApparentlyFacing { heading, from } => {
                    let h = self.eval(heading, env)?.as_heading()?;
                    let from = match from {
                        Some(e) => self.eval(e, env)?.as_vector()?,
                        None => self.ego()?.borrow().position()?,
                    };
                    Action::ApparentlyFacing { heading: h, from }
                }
            };
            out.push(entry);
        }
        Ok(out)
    }

    /// The named values a specifier that needs the object under
    /// construction produces. (`construct` writes an [`Action::Const`]'s
    /// values straight from the action.)
    fn eval_action(&mut self, action: &Action, obj: &ObjRef) -> RunResult<Vec<(String, Value)>> {
        match action {
            Action::Const(_) => unreachable!("construct writes Const values from the action"),
            Action::BesideVector { side, target, gap } => {
                let (heading, offset) = {
                    let d = obj.borrow();
                    let heading = d.heading()?;
                    (heading, beside_offset(*side, &d, *gap))
                };
                Ok(vec![(
                    "position".into(),
                    Value::Vector(*target + offset.rotated(heading)),
                )])
            }
            Action::BesideOriented {
                side,
                position,
                heading,
                gap,
            } => {
                let offset = beside_offset(*side, &obj.borrow(), *gap);
                Ok(vec![
                    (
                        "position".into(),
                        Value::Vector(*position + offset.rotated(*heading)),
                    ),
                    ("heading".into(), Value::Number(*heading)),
                ])
            }
            Action::FacingField(f) => {
                let p = obj.borrow().position()?;
                Ok(vec![("heading".into(), Value::Number(f.at(p).radians()))])
            }
            Action::FacingToward { target, away } => {
                let p = obj.borrow().position()?;
                let d = if *away { p - *target } else { *target - p };
                Ok(vec![(
                    "heading".into(),
                    Value::Number(Heading::of_vector(d).radians()),
                )])
            }
            Action::ApparentlyFacing { heading, from } => {
                let p = obj.borrow().position()?;
                let sight = Heading::of_vector(p - *from).radians();
                Ok(vec![("heading".into(), Value::Number(heading + sight))])
            }
            Action::DeferredExpr { prop, expr, env } => {
                let v = self.eval(expr, env)?;
                Ok(vec![(prop.to_string(), v)])
            }
            Action::UserSpec { spec, args, kwargs } => {
                let values = self.run_user_specifier(spec, args, kwargs, obj)?;
                Ok(values)
            }
        }
    }

    /// Runs a user-defined specifier body with `self` bound to the
    /// object under construction, returning the `(property, value)`
    /// pairs of its result dict.
    fn run_user_specifier(
        &mut self,
        spec: &Rc<crate::value::UserSpecifier>,
        args: &[Value],
        kwargs: &[(String, Value)],
        obj: &ObjRef,
    ) -> RunResult<Vec<(String, Value)>> {
        let def = &spec.def;
        if self.depth >= MAX_CALL_DEPTH {
            return Err(ScenicError::runtime("maximum recursion depth exceeded"));
        }
        let local = Scope::child_with_self(&spec.closure, Value::Object(Rc::clone(obj)));
        self.bind_params(
            ("specifier ", &def.name),
            &def.params,
            &def.param_slots,
            args,
            kwargs,
            &spec.closure,
            &local,
        )?;
        self.depth += 1;
        let result = self.exec_block(&def.body, &local);
        self.depth -= 1;
        let returned = match result? {
            Flow::Return(v) => v,
            Flow::Normal => Value::None,
        };
        let Value::Dict(dict) = returned.unwrap_sample() else {
            return Err(ScenicError::type_error(format!(
                "specifier {}() must return a dict of property values, got {}",
                def.name,
                returned.type_name()
            )));
        };
        let mut out = Vec::new();
        for (k, v) in dict.borrow().iter() {
            let Value::Str(key) = k.unwrap_sample() else {
                return Err(ScenicError::type_error(format!(
                    "specifier {}() returned a non-string property key ({})",
                    def.name,
                    k.type_name()
                )));
            };
            let key = key.to_string();
            if !def.specifies.contains(&key) && !def.optional.contains(&key) {
                return Err(ScenicError::runtime(format!(
                    "specifier {}() returned property `{key}`, which it does not declare \
                     (declare it with `specifies` or `optionally`)",
                    def.name
                )));
            }
            out.push((key, v.clone()));
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Termination (Fig. 25): mutations, then the requirement checks not
    // already decided
    // -----------------------------------------------------------------

    /// One user requirement: `Ok` when it holds, its
    /// [`Rejection::Requirement`] when it fails.
    fn check_requirement(&mut self, cond: &Expr, env: &EnvRef, line: u32) -> RunResult<()> {
        let v = self.eval(cond, env).map_err(|e| e.with_line(line))?;
        if v.as_bool().map_err(|e| e.with_line(line))? {
            Ok(())
        } else {
            Err(ScenicError::Rejected(Rejection::Requirement { line }))
        }
    }

    fn finalize(&mut self) -> RunResult<Scene> {
        let ego = self.ego()?;

        // Step 1: apply mutations.
        for obj in &self.objects {
            let Some(scale) = mutation_scale(&obj.borrow()) else {
                continue;
            };
            let (pos, heading, pos_std, head_std) = {
                let d = obj.borrow();
                (
                    d.position()?,
                    d.heading()?,
                    d.scalar_or("positionStdDev", 1.0),
                    d.scalar_or("headingStdDev", 5f64.to_radians()),
                )
            };
            let nx = DistSpec::Normal(0.0, scale * pos_std)
                .draw(self.rng)?
                .as_number()?;
            let ny = DistSpec::Normal(0.0, scale * pos_std)
                .draw(self.rng)?
                .as_number()?;
            let nh = DistSpec::Normal(0.0, scale * head_std)
                .draw(self.rng)?
                .as_number()?;
            let mut d = obj.borrow_mut();
            d.set("position", Value::Vector(pos + Vec2::new(nx, ny)));
            d.set("heading", Value::Number(heading + nh));
        }

        // Step 2a: user requirements not decided at their statement
        // (checked after mutation, §5.1).
        let requirements = std::mem::take(&mut self.requirements);
        for req in &requirements {
            self.check_requirement(&req.cond, &req.env, req.line)?;
        }

        // Step 2b: default requirements of the objects not decided at
        // construction (Fig. 25 termination rule): containment for each
        // of them, then their collisions with every earlier object, then
        // visibility for every object not already checked.
        let decided = self.footprints.len();
        for obj in &self.objects[decided..] {
            let footprint = Footprint::of(&obj.borrow())?;
            check_containment(
                &self.scenario.world.workspace,
                self.half_planes(),
                &footprint,
            )?;
            self.footprints.push(footprint);
        }
        for k in decided..self.footprints.len() {
            check_collisions(&self.footprints[..k], &self.footprints[k])?;
        }
        let ego_viewer = ego.borrow().viewer()?;
        let seen = self
            .ego_view
            .as_ref()
            .map_or(0..0, |(_, from)| *from..decided);
        for (k, (obj, footprint)) in self.objects.iter().zip(&self.footprints).enumerate() {
            if !seen.contains(&k) && !Rc::ptr_eq(obj, &ego) {
                check_visibility(&ego_viewer, footprint)?;
            }
        }

        // Emit the scene.
        let mut params = BTreeMap::new();
        for (k, v) in &self.params {
            params.insert(k.clone(), PropValue::from_value(v));
        }
        let objects = self
            .objects
            .iter()
            .map(|o| SceneObject::from_object(o, Rc::ptr_eq(o, &ego)))
            .collect();
        Ok(Scene { params, objects })
    }
}

/// Whether a specifier value holds only finite numbers. Objects,
/// dictionaries and the other compound values count as not finite: an
/// object's heading, say, could be anything.
fn finite(value: &Value) -> bool {
    match value.unwrap_sample() {
        Value::Number(n) => n.is_finite(),
        Value::Vector(v) => v.is_finite(),
        Value::List(items) => items.iter().all(finite),
        Value::None | Value::Bool(_) | Value::Str(_) => true,
        _ => false,
    }
}

/// The scale at which termination mutates this object (Fig. 25), if it
/// does.
fn mutation_scale(d: &ObjData) -> Option<f64> {
    let scale = d.known_number_or(Known::MutationScale, 0.0);
    // NaN is not `<= 0`, so termination mutates with it.
    (scale > 0.0 || scale.is_nan()).then_some(scale)
}

/// Default requirement: the object lies inside the workspace, which
/// holds when its four corners and its center do. `planes`, the
/// workspace as exact half-planes, accepts most boxes with one disc
/// test: where [`HalfPlanes::contains_box`] holds, so do the five point
/// tests, and where it fails they run.
fn check_containment(
    workspace: &Region,
    planes: Option<&HalfPlanes>,
    footprint: &Footprint,
) -> RunResult<()> {
    let bb = &footprint.bbox;
    let inside = matches!(workspace, Region::Everywhere)
        || planes.is_some_and(|p| p.contains_box(bb))
        || (bb.corners().iter().all(|&c| workspace.contains(c)) && workspace.contains(bb.center));
    if inside {
        Ok(())
    } else {
        Err(ScenicError::Rejected(Rejection::Containment))
    }
}

/// Default requirement: the object collides with none of the `earlier`
/// ones (objects allowing collisions exempt both sides of a pair).
fn check_collisions(earlier: &[Footprint], footprint: &Footprint) -> RunResult<()> {
    let apart = footprint.allow_collisions
        || earlier
            .iter()
            .all(|e| e.allow_collisions || !e.bbox.intersects(&footprint.bbox));
    if apart {
        Ok(())
    } else {
        Err(ScenicError::Rejected(Rejection::Collision))
    }
}

/// Default requirement: the ego sees the object, unless it opts out.
fn check_visibility(ego_viewer: &Viewer, footprint: &Footprint) -> RunResult<()> {
    if !footprint.require_visible || ego_viewer.can_see_box(&footprint.bbox) {
        Ok(())
    } else {
        Err(ScenicError::Rejected(Rejection::Visibility))
    }
}

/// Builds the metadata row for one explicit specifier given the action
/// its evaluation produced. Separated from evaluation so staged
/// construction sites can skip it on a cache hit: metadata depends
/// only on the specifier syntax and the action's [`ActionShape`],
/// never on the values drawn.
fn spec_meta(spec: &Specifier, action: &Action) -> SpecMeta {
    let meta = |specifies: Vec<&str>, optional: Vec<&str>, deps: Vec<&str>| SpecMeta {
        name: spec.name(),
        specifies: specifies.into_iter().map(String::from).collect(),
        optional: optional.into_iter().map(String::from).collect(),
        deps: deps.into_iter().map(String::from).collect(),
        source: SpecSource::Explicit,
    };
    match (spec, action) {
        (Specifier::With(prop, _), Action::DeferredExpr { .. }) => {
            meta(vec![prop], vec![], vec!["position"])
        }
        (Specifier::With(prop, _), _) => meta(vec![prop], vec![], vec![]),
        (Specifier::Using { .. }, Action::UserSpec { spec: callee, .. }) => SpecMeta {
            name: spec.name(),
            specifies: callee.def.specifies.clone(),
            optional: callee.def.optional.clone(),
            deps: callee.def.requires.clone(),
            source: SpecSource::Explicit,
        },
        (Specifier::Using { .. }, _) => {
            unreachable!("`using` always prepares a UserSpec action")
        }
        (
            Specifier::At(_)
            | Specifier::OffsetBy(_)
            | Specifier::OffsetAlong(..)
            | Specifier::Beyond { .. }
            | Specifier::Visible(_),
            _,
        ) => meta(vec!["position"], vec![], vec![]),
        (Specifier::Beside { side, .. }, action) => {
            let dim_dep = match side {
                Side::Left | Side::Right => "width",
                Side::Ahead | Side::Behind => "height",
            };
            match action {
                Action::BesideOriented { .. } => {
                    meta(vec!["position"], vec!["heading"], vec![dim_dep])
                }
                _ => meta(vec!["position"], vec![], vec!["heading", dim_dep]),
            }
        }
        (Specifier::InRegion(_), Action::Const(values)) if values.len() > 1 => {
            meta(vec!["position"], vec!["heading"], vec![])
        }
        (Specifier::InRegion(_), _) => meta(vec!["position"], vec![], vec![]),
        (Specifier::Following { .. }, _) => meta(vec!["position"], vec!["heading"], vec![]),
        (Specifier::Facing(_), Action::Const(_)) => meta(vec!["heading"], vec![], vec![]),
        (Specifier::Facing(_), _) => meta(vec!["heading"], vec![], vec!["position"]),
        (
            Specifier::FacingToward(_)
            | Specifier::FacingAwayFrom(_)
            | Specifier::ApparentlyFacing { .. },
            _,
        ) => meta(vec!["heading"], vec![], vec!["position"]),
    }
}

/// Whether a staged site can be reused for this candidate's prepared
/// actions: same shape vector, and for `using` entries the same
/// declared properties. (User-defined specifier values are fresh each
/// candidate when defined in the user program, so pointer identity is
/// not a sound fingerprint — compare the metadata-relevant content.)
fn stage_matches(stage: &crate::compile::CtorStage, actions: &[Action]) -> bool {
    stage.shapes.len() == actions.len()
        && stage
            .shapes
            .iter()
            .zip(actions)
            .enumerate()
            .all(|(i, (shape, action))| {
                if *shape != action.shape() {
                    return false;
                }
                match action {
                    Action::UserSpec { spec, .. } => {
                        let m = &stage.metas[i];
                        m.specifies == spec.def.specifies
                            && m.optional == spec.def.optional
                            && m.deps == spec.def.requires
                    }
                    _ => true,
                }
            })
}

/// Builds a construction site's stage: the metadata rows (explicit
/// entries first, then the class defaults, mirroring the prepared
/// action order), their Algorithm 1 resolution, the layout and slots of
/// the properties the resolution assigns, and — for a `guarded` stage,
/// one the compiled engine caches — its visibility guard.
fn build_stage(
    class: &Rc<RuntimeClass>,
    specifiers: &[Specifier],
    actions: &[Action],
    guarded: bool,
) -> RunResult<crate::compile::CtorStage> {
    let defaults = stage_class_defaults(class);
    let mut metas: Vec<SpecMeta> = specifiers
        .iter()
        .zip(actions)
        .map(|(s, a)| spec_meta(s, a))
        .collect();
    metas.extend(defaults.iter().map(|d| d.meta.clone()));
    let order = resolve(&class.name, &metas)?;
    let shapes: Vec<ActionShape> = actions.iter().map(Action::shape).collect();
    let guard = guarded
        .then(|| crate::early::visibility_guard(class, &shapes, &order, &defaults))
        .flatten();
    let assigned = || order.order.iter().flat_map(|(_, props)| props);
    let layout = Layout::new(assigned().cloned());
    let slots = assigned()
        .map(|prop| {
            layout
                .slot(prop)
                .expect("the layout holds every assigned name")
        })
        .collect();
    Ok(crate::compile::CtorStage {
        class: Rc::as_ptr(class) as usize,
        shapes,
        defaults,
        metas,
        order,
        layout: Rc::new(layout),
        slots,
        guard,
    })
}

/// Builds the staged default-value specifiers of a class: one
/// [`crate::compile::CachedDefault`] per inherited-or-own property, with
/// the specifier metadata (including the `self`-dependency analysis)
/// precomputed.
fn stage_class_defaults(class: &Rc<RuntimeClass>) -> Vec<crate::compile::CachedDefault> {
    class
        .defaults()
        .into_iter()
        .map(|(prop, expr)| crate::compile::CachedDefault {
            meta: SpecMeta {
                name: format!("default {prop}"),
                specifies: vec![prop.clone()],
                optional: Vec::new(),
                deps: self_dependencies(&expr),
                source: SpecSource::Default,
            },
            prop: prop.into(),
            literal: match *expr {
                Expr::Number(n) => Some(Value::Number(n)),
                Expr::Bool(b) => Some(Value::Bool(b)),
                Expr::None => Some(Value::None),
                _ => None,
            },
            expr,
        })
        .collect()
}

/// Writes each of `props`, a specifier's row in the resolved order, from
/// the specifier's named output `values` into `obj`, at the next of
/// `slots` in `layout`; errs with the first property the output lacks.
fn write_named<'p, K: AsRef<str>>(
    obj: &ObjRef,
    layout: &Rc<Layout>,
    props: &'p [PropName],
    slots: &mut impl Iterator<Item = usize>,
    values: &[(K, Value)],
) -> Result<(), &'p PropName> {
    for (prop, slot) in props.iter().zip(slots) {
        let (_, value) = values
            .iter()
            .find(|(p, _)| p.as_ref() == &**prop)
            .ok_or(prop)?;
        obj.borrow_mut().set_slot(layout, slot, value.clone());
    }
    Ok(())
}

/// Local offset for `left of` / `right of` / `ahead of` / `behind`
/// (Figs. 27 & 28): the object's own half-extent plus the gap.
fn beside_offset(side: Side, obj: &ObjData, gap: f64) -> Vec2 {
    let w = obj.known_number_or(Known::Width, 1.0);
    let h = obj.known_number_or(Known::Height, 1.0);
    match side {
        Side::Left => Vec2::new(-(w / 2.0 + gap), 0.0),
        Side::Right => Vec2::new(w / 2.0 + gap, 0.0),
        Side::Ahead => Vec2::new(0.0, h / 2.0 + gap),
        Side::Behind => Vec2::new(0.0, -(h / 2.0 + gap)),
    }
}

/// Local coordinates of box edge/corner points (Fig. 35).
fn box_point_offset(which: BoxPoint, w: f64, h: f64) -> Vec2 {
    match which {
        BoxPoint::Front => Vec2::new(0.0, h / 2.0),
        BoxPoint::Back => Vec2::new(0.0, -h / 2.0),
        BoxPoint::Left => Vec2::new(-w / 2.0, 0.0),
        BoxPoint::Right => Vec2::new(w / 2.0, 0.0),
        BoxPoint::FrontLeft => Vec2::new(-w / 2.0, h / 2.0),
        BoxPoint::FrontRight => Vec2::new(w / 2.0, h / 2.0),
        BoxPoint::BackLeft => Vec2::new(-w / 2.0, -h / 2.0),
        BoxPoint::BackRight => Vec2::new(w / 2.0, -h / 2.0),
    }
}

fn maybe_taint(value: Value, random: bool) -> Value {
    if random {
        tainted(value)
    } else {
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_scope_is_freed_after_a_reference_run() {
        // The prelude classes, the `def` and the user class all close
        // over the root scope that holds them.
        let scenario = crate::compile(
            "class Marker(Object):\n    width: 2\ndef f():\n    return 1\nego = Marker at 0 @ f()\n",
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut interp = Interpreter::new(&scenario, &mut rng);
        let scope = Rc::downgrade(&interp.globals);
        interp.run().unwrap();
        drop(interp);
        assert!(scope.upgrade().is_none(), "root scope leaked");
    }

    #[test]
    fn running_a_def_twice_shares_one_definition() {
        // Creating a function or specifier value shares the statement's
        // definition: a candidate that runs a `def` copies no syntax.
        let scenario = crate::compile(
            "def f():\n    return Object at 0 @ 0\n\
             specifier wide() specifies width:\n    return {\"width\": 3}\n",
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut interp = Interpreter::new(&scenario, &mut rng);
        interp.run_prefix().unwrap();
        let mut run_defs = || {
            let scope = Scope::child(&interp.globals);
            interp
                .exec_block(&scenario.program.statements, &scope)
                .unwrap();
            match (lookup(&scope, "f"), lookup(&scope, "wide")) {
                (Some(Value::Function(f)), Some(Value::Specifier(s))) => (f, s),
                other => panic!("expected a function and a specifier, got {other:?}"),
            }
        };
        let (f1, s1) = run_defs();
        let (f2, s2) = run_defs();
        assert!(!Rc::ptr_eq(&f1, &f2), "each run creates its own function");
        assert!(Arc::ptr_eq(&f1.def, &f2.def));
        assert!(Arc::ptr_eq(&s1.def, &s2.def));
        let StmtKind::FuncDef(def) = &scenario.program.statements[0].kind else {
            panic!("expected the `def` statement");
        };
        assert!(Arc::ptr_eq(&f1.def, def));
    }
}
