//! Compiled draw-path evaluation: a lowering pass that flattens the
//! per-candidate work of rejection sampling.
//!
//! The reference tree-walking interpreter ([`crate::Interpreter`])
//! re-executes, for *every* rejection-sampling candidate: the builtin
//! installation, the prelude (the `Point`/`OrientedPoint`/`Object`
//! class definitions), and every auto-imported library module — plus,
//! per object construction, a walk up the superclass chain collecting
//! every class default expression, a `self`-dependency walk over each
//! of them, and a fresh topological sort of the specifier graph
//! (Algorithm 1) with the property layout it implies. None of that
//! depends on the candidate's random draws, so the lowering pass stages
//! it once per scenario:
//!
//! - **Constant folding** rewrites the user program, the prelude, and
//!   the module libraries with literal arithmetic pre-evaluated
//!   (`-30 deg`, `5 / 2`, `2 < 3`, branches of `a if True else b`).
//!   Folding never touches `(low, high)` intervals or calls — anything
//!   that draws, or could draw, from the RNG — and never folds an
//!   expression whose evaluation would error (division by zero stays in
//!   the tree), so the folded program consumes the random stream
//!   byte-for-byte like the original and fails exactly where it would.
//! - **Prefix hoisting** executes the deterministic prefix (builtins,
//!   `workspace`, prelude, auto-imports) once per thread into a shared
//!   *base environment*; each candidate then runs only the user program
//!   in a fresh child scope of that base.
//! - **Name resolution** rewrites, in the hoisted path's copy of the
//!   programs, each name a candidate reads or writes into an address
//!   (lexical addressing, SICP §5.5.6): a slot of the hoisted base, of
//!   the candidate's frame or of a function frame, so no candidate hashes
//!   a name or walks a scope chain for it. A name whose scope resolution
//!   cannot prove keeps its lookup by name (see `resolve`). Every
//!   construction site gets a dense id.
//! - **Construction staging** caches, per construction *site* (by id),
//!   the class's default-value specifiers, the specifier metadata rows,
//!   their Algorithm 1 resolution and the property layout it implies
//!   (`CtorStage`) — revalidated each candidate by the class and a cheap
//!   per-entry shape tag, since metadata depends only on the specifier
//!   syntax and that classification, never on the values drawn.
//!
//! # Why the RNG stream is identical
//!
//! The sampler's determinism contract is that engine choice never
//! changes a drawn scene, so every transformation here must preserve
//! the exact sequence of RNG draws:
//!
//! - Folding only rewrites expressions built from literals, which never
//!   draw; intervals, calls, and anything containing them stay in the
//!   tree. A folded `if`-expression arm is only selected when the
//!   condition is a literal, mirroring the interpreter's eager branch
//!   pick on non-random conditions.
//! - The hoisted prefix is *verified* to draw nothing: the base build
//!   runs it against a scratch RNG and compares the generator state
//!   before and after (the vendored [`StdRng`] is `PartialEq`). A
//!   prefix that consumed randomness — or created objects, parameters,
//!   or requirements — disqualifies hoisting.
//! - Resolution only changes where a value is found, never which value:
//!   a name gets a slot only where every binding and read of it agrees on
//!   the scope it lives in.
//! - Construction staging caches pure metadata only; evaluation of the
//!   staged expressions still happens per candidate, in the same order
//!   the interpreter would evaluate them.
//!
//! # Fallback
//!
//! Hoisting is verified, not assumed. If any static or dynamic check
//! fails (see [`CompiledProgram::hoisted`]), the compiled engine runs
//! candidates through [`crate::Scenario::generate_with`] on the folded
//! program with [`Engine::Ast`] — the reference path — so results stay
//! correct, just without the speedup.

use crate::early::EarlyPlan;
use crate::env::{own_vars, EnvRef, Scope};
use crate::error::RunResult;
use crate::interp::{Interpreter, Scenario};
use crate::object::{Layout, PropName};
use crate::prune::PrunePlan;
use crate::scene::Scene;
use crate::specifier::{ResolvedOrder, SpecMeta};
use crate::value::{DistSpec, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scenic_geom::region::HalfPlanes;
use scenic_lang::ast::{
    for_each_stmt, Addr, BinOp, ClassDef, CmpOp, CtorSite, Expr, Program, Resolved, Specifier,
    Stmt, StmtChild, StmtChildMut, StmtKind,
};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which evaluation engine executes sampling candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The reference tree-walking interpreter.
    Ast,
    /// The lowered draw path ([`CompiledProgram`]): scene-for-scene and
    /// byte-for-byte identical to [`Engine::Ast`], including the RNG
    /// stream, but with the candidate-invariant work hoisted out.
    #[default]
    Compiled,
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ast" => Ok(Engine::Ast),
            "compiled" => Ok(Engine::Compiled),
            other => Err(format!(
                "unknown engine `{other}` (expected `ast` or `compiled`)"
            )),
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Ast => write!(f, "ast"),
            Engine::Compiled => write!(f, "compiled"),
        }
    }
}

/// A scenario lowered for fast per-candidate evaluation: the
/// constant-folded programs plus the static hoist-safety verdict.
///
/// Built once per [`Scenario`] (cached behind the scenario's
/// `OnceLock`, like the prune plan) and shared across batch worker
/// threads; the hoisted base environment itself is interior-mutable
/// interpreter state and therefore lives in a per-thread cache keyed by
/// this program's identity.
#[derive(Debug)]
pub struct CompiledProgram {
    /// Process-unique identity for the per-thread base cache.
    id: u64,
    /// The constant-folded scenario (same world, shared prune plan): what
    /// the fallback path runs.
    folded: Scenario,
    /// The folded scenario with its names resolved, which the hoisted
    /// path runs; `None` when the static hoist-safety check failed.
    resolved: Option<Resolution>,
    /// Names a candidate might `assign`. If any of them names a base
    /// variable, assignment would write the shared base scope and leak
    /// state across candidates — checked against the built base.
    mutable_names: HashSet<String>,
}

/// Source of `CompiledProgram::id` values.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// Per-thread cap on cached base environments (cleared wholesale when
/// exceeded; scenarios are few, this is a leak guard, not an LRU).
const MAX_CACHED_BASES: usize = 32;

thread_local! {
    /// Hoisted bases by `CompiledProgram::id`. `None` records a failed
    /// dynamic check so fallback runs don't rebuild the base each
    /// candidate.
    static BASES: RefCell<HashMap<u64, Option<Rc<HoistedBase>>>> =
        RefCell::new(HashMap::new());
}

/// The once-per-thread result of executing a scenario's deterministic
/// prefix: the shared base scope, the modules it imported, and the
/// construction caches every candidate on this thread reuses.
struct HoistedBase {
    globals: EnvRef,
    imported: Rc<HashSet<String>>,
    cache: Rc<ExecCache>,
}

/// Per-thread state handed to each candidate's interpreter on the
/// hoisted path: the base's resolved values and the staged construction
/// sites. Keyed to one base environment — only classes whose defining
/// scope *is* that base are staged.
pub(crate) struct ExecCache {
    /// The base scope the cached classes live in.
    pub(crate) base_env: EnvRef,
    /// The value of each base slot ([`Addr::Base`]), read once from the
    /// base, which no candidate writes.
    pub(crate) base_slots: Vec<Value>,
    /// Slots in a candidate's frame ([`Addr::Candidate`]).
    pub(crate) frame_len: usize,
    /// Staged construction sites by site id ([`CtorSite::id`]).
    pub(crate) sites: RefCell<Vec<Option<Rc<CtorStage>>>>,
    /// The workspace as half-planes, when that is exact: what the
    /// visibility guard needs to know an object's disc lies inside it.
    pub(crate) workspace: Option<HalfPlanes>,
}

/// One staged construction site: the specifier metadata (explicit
/// entries first, then class defaults), the Algorithm 1 resolution over
/// it and the layout of the objects it builds, built on the first
/// construction and reused by every later candidate whose per-run
/// specifier classification matches.
pub(crate) struct CtorStage {
    /// The class staged, by address: a site whose class name is looked up
    /// by name could construct another class on a later candidate.
    pub(crate) class: usize,
    /// Per-entry classification fingerprint validating reuse — the only
    /// run-to-run variability in a site's metadata (see
    /// [`crate::interp::ActionShape`]).
    pub(crate) shapes: Vec<crate::interp::ActionShape>,
    /// The class's staged default-value specifiers: rows past the
    /// explicit specifiers index them.
    pub(crate) defaults: Vec<CachedDefault>,
    /// Specifier metadata rows, aligned with the prepared actions.
    pub(crate) metas: Vec<SpecMeta>,
    /// The resolved specifier order over `metas`.
    pub(crate) order: ResolvedOrder,
    /// The names `order` assigns: every object built here starts with
    /// this layout.
    pub(crate) layout: Rc<Layout>,
    /// The slot in `layout` of each property `order` assigns, row by row
    /// in order.
    pub(crate) slots: Vec<usize>,
    /// The site's visibility guard, when its facts allow one (see
    /// [`crate::early`]).
    pub(crate) guard: Option<crate::early::VisibilityGuard>,
}

/// One staged class-default specifier: precomputed metadata plus the
/// shared default expression.
pub(crate) struct CachedDefault {
    /// Specifier metadata (name, specified property, `self` deps).
    pub(crate) meta: SpecMeta,
    /// The property the default assigns.
    pub(crate) prop: PropName,
    /// The value of a literal (`Number`, `Bool`, `None`) expression,
    /// which the compiled engine writes without evaluating it.
    pub(crate) literal: Option<Value>,
    /// The default expression, shared with the class definition.
    pub(crate) expr: Arc<Expr>,
}

/// Lowers a scenario: constant-folds every program and computes the
/// static hoist-safety analysis. Cheap enough to run eagerly; the
/// per-thread base build (and its dynamic verification) happens on
/// first generation.
pub(crate) fn lower(scenario: &Scenario) -> CompiledProgram {
    // Both engines must decide the same checks early, so the folded
    // scenario shares the plan derived from the source program (folding
    // only ever removes reads).
    scenario.early_plan();
    let folded = Scenario {
        program: Arc::new(fold_program(&scenario.program)),
        world: scenario.world.clone(),
        prelude: Arc::new(fold_program(&scenario.prelude)),
        module_programs: scenario
            .module_programs
            .iter()
            .map(|(name, p)| (name.clone(), Arc::new(fold_program(p))))
            .collect(),
        prune: Arc::clone(&scenario.prune),
        compiled: Arc::new(std::sync::OnceLock::new()),
        early: Arc::clone(&scenario.early),
    };

    // Static hoist-safety. Library code (prelude + modules) runs in, or
    // closes over, the shared base scope; its lookups must never be
    // able to land on a name the user program (re)defines, because in
    // single-scope AST evaluation those user definitions *would* be
    // visible to, e.g., a library class default evaluated later.
    let mut user_defined = HashSet::new();
    defined_names(&folded.program.statements, &mut user_defined);
    let mut library_refs = HashSet::new();
    referenced_idents(&folded.prelude.statements, &mut library_refs);
    for program in folded.module_programs.values() {
        referenced_idents(&program.statements, &mut library_refs);
    }
    // `self` in a class default is bound by the interpreter before the
    // expression evaluates, in both engines — never a free reference.
    library_refs.remove("self");
    let resolved = user_defined
        .is_disjoint(&library_refs)
        .then(|| resolve(&folded));

    // Assignment targets that can execute during a candidate: the whole
    // user program, function/specifier bodies anywhere (they only run
    // when called), and the full body of any module that is *not*
    // auto-imported (an `import` in the user program executes it per
    // candidate).
    let mut mutable_names = HashSet::new();
    assigns_all(&folded.program.statements, &mut mutable_names);
    assigns_in_defs(&folded.prelude.statements, &mut mutable_names);
    for (name, program) in &folded.module_programs {
        if folded.world.auto_imports.iter().any(|m| m == name) {
            assigns_in_defs(&program.statements, &mut mutable_names);
        } else {
            assigns_all(&program.statements, &mut mutable_names);
        }
    }

    CompiledProgram {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        folded,
        resolved,
        mutable_names,
    }
}

impl CompiledProgram {
    /// Executes one candidate. On the fast path the deterministic
    /// prefix comes from this thread's hoisted base and only the user
    /// program runs; otherwise the folded program runs end-to-end on
    /// the reference path.
    ///
    /// # Errors
    ///
    /// Same as [`Scenario::generate_with`].
    pub(crate) fn generate<'a>(
        &'a self,
        rng: &mut StdRng,
        plan: Option<&'a PrunePlan>,
        early: &'a EarlyPlan,
    ) -> RunResult<Scene> {
        match self.base() {
            Some(base) => {
                let resolved = self.resolved.as_ref().expect("a hoisted base is resolved");
                let globals = Scope::child(&base.globals);
                let mut interp = Interpreter::with_base(
                    &resolved.scenario,
                    rng,
                    globals,
                    Rc::clone(&base.imported),
                    Rc::clone(&base.cache),
                    plan,
                    early,
                );
                interp.run_main()
            }
            None => self.folded.generate_checked(rng, plan, Engine::Ast, early),
        }
    }

    /// Whether candidates on this thread run on the hoisted fast path
    /// (building and verifying the base on first call). `false` means
    /// every candidate takes the reference fallback.
    pub fn hoisted(&self) -> bool {
        self.base().is_some()
    }

    /// The constant-folded scenario this program executes.
    pub fn folded(&self) -> &Scenario {
        &self.folded
    }

    /// The names the hoisted path still looks up by name, sorted: in the
    /// user program (its function and specifier bodies included) and in
    /// the class defaults of every program. `None` when the scenario
    /// cannot hoist. A user program that defines no functions, classes or
    /// specifiers, loops or `mutate`s, imports nothing and shadows no base
    /// name has none.
    pub fn unresolved_names(&self) -> Option<Vec<String>> {
        let scenario = &self.resolved.as_ref()?.scenario;
        let mut names = BTreeSet::new();
        let mut from_expr = |e: &Expr| match e {
            Expr::Ident(name) => {
                names.insert(name.clone());
            }
            Expr::Ctor {
                class,
                specifiers,
                site,
            } => {
                if site.is_none_or(|s| s.class.is_none()) {
                    names.insert(class.clone());
                }
                for spec in specifiers {
                    if let Specifier::Using { name, .. } = spec {
                        names.insert(name.clone());
                    }
                }
            }
            _ => {}
        };
        let mut bound = BTreeSet::new();
        for_each_stmt(&scenario.program.statements, &mut |stmt| {
            stmt.walk_exprs(&mut from_expr);
            match &stmt.kind {
                StmtKind::Assign { name, .. } | StmtKind::For { var: name, .. } => {
                    bound.insert(name.clone());
                }
                StmtKind::FuncDef(fd) => {
                    bound.insert(fd.name.clone());
                }
                StmtKind::SpecifierDef(sd) => {
                    bound.insert(sd.name.clone());
                }
                StmtKind::ClassDef(cd) => {
                    bound.insert(cd.name.clone());
                    bound.extend(cd.superclass.iter().cloned());
                }
                StmtKind::Mutate { targets, .. } => bound.extend(targets.iter().cloned()),
                _ => {}
            }
        });
        for (_, program) in scenario.sources() {
            for_each_stmt(&program.statements, &mut |stmt| {
                if let StmtKind::ClassDef(_) = stmt.kind {
                    stmt.walk_exprs(&mut from_expr);
                }
            });
        }
        names.extend(bound);
        Some(names.into_iter().collect())
    }

    fn base(&self) -> Option<Rc<HoistedBase>> {
        self.resolved.as_ref()?;
        if let Some(cached) = BASES.with(|b| b.borrow().get(&self.id).cloned()) {
            return cached;
        }
        let built = self.build_base().map(Rc::new);
        BASES.with(|b| {
            let mut map = b.borrow_mut();
            if map.len() >= MAX_CACHED_BASES && !map.contains_key(&self.id) {
                map.clear();
            }
            map.insert(self.id, built.clone());
        });
        built
    }

    /// Runs the deterministic prefix once and verifies, at runtime,
    /// everything the static analysis could not: the prefix draws no
    /// randomness, allocates no per-candidate state, and leaves no
    /// value in the base scope that a candidate could mutate in place.
    fn build_base(&self) -> Option<HoistedBase> {
        let resolved = self.resolved.as_ref()?;
        let mut rng = StdRng::seed_from_u64(0);
        let snapshot = rng.clone();
        let (globals, imported, clean) = {
            let mut interp = Interpreter::new(&resolved.scenario, &mut rng);
            if interp.run_prefix().is_err() {
                return None;
            }
            let (globals, imported) = interp.base_snapshot();
            let clean = interp.prefix_is_clean();
            (globals, imported, clean)
        };
        if rng != snapshot || !clean {
            return None;
        }
        let vars: HashMap<String, Value> = own_vars(&globals).into_iter().collect();
        for (name, value) in &vars {
            if self.mutable_names.contains(name)
                || !resolved.base_names.contains(name)
                || !value_is_hoist_safe(value, &globals)
            {
                return None;
            }
        }
        let base_slots = resolved
            .base_slots
            .iter()
            .map(|name| vars.get(name).cloned())
            .collect::<Option<Vec<Value>>>()?;
        let cache = Rc::new(ExecCache {
            base_env: globals.clone(),
            base_slots,
            frame_len: resolved.frame_len,
            sites: RefCell::new(vec![None; resolved.sites]),
            workspace: self.folded.world.workspace.half_planes(),
        });
        Some(HoistedBase {
            globals,
            imported,
            cache,
        })
    }
}

#[cfg(test)]
impl CompiledProgram {
    /// The visibility guards of the sites this thread has staged that
    /// construct the base-environment class `class`.
    pub(crate) fn staged_guards(&self, class: &str) -> Vec<Option<crate::early::VisibilityGuard>> {
        let base = self.base().expect("the scenario hoists");
        let Some(Value::Class(class)) = crate::env::lookup(&base.globals, class) else {
            panic!("`{class}` is not a base class");
        };
        let class = Rc::as_ptr(&class) as usize;
        let sites = base.cache.sites.borrow();
        sites
            .iter()
            .flatten()
            .filter(|stage| stage.class == class)
            .map(|stage| stage.guard)
            .collect()
    }
}

/// Whether a base-scope value can safely be shared by every candidate:
/// no `Object` anywhere inside it (candidates can `mutate` objects in
/// place), and any closure or class must close over the base scope
/// itself, not some other mutable environment.
fn value_is_hoist_safe(value: &Value, base: &EnvRef) -> bool {
    match value {
        Value::Object(_) => false,
        Value::List(items) => items.iter().all(|v| value_is_hoist_safe(v, base)),
        Value::Dict(d) => d
            .borrow()
            .iter()
            .all(|(k, v)| value_is_hoist_safe(k, base) && value_is_hoist_safe(v, base)),
        Value::Sample(s) => {
            value_is_hoist_safe(&s.value, base)
                && match s.spec.as_ref() {
                    DistSpec::UniformOf(vs) => vs.iter().all(|v| value_is_hoist_safe(v, base)),
                    DistSpec::Discrete(vs) => vs.iter().all(|(v, _)| value_is_hoist_safe(v, base)),
                    _ => true,
                }
        }
        Value::Function(f) => Rc::ptr_eq(&f.closure, base),
        Value::Specifier(s) => Rc::ptr_eq(&s.closure, base),
        Value::Class(c) => Rc::ptr_eq(&c.env, base),
        _ => true,
    }
}

// ---------------------------------------------------------------------
// Name resolution (lexical addressing)
// ---------------------------------------------------------------------

/// The compiled engine's copy of a hoistable scenario, its names
/// rewritten to addresses (SICP §5.5.6), with what the base build needs
/// to run it.
#[derive(Debug)]
struct Resolution {
    /// The folded scenario with resolved programs (same world and plans).
    scenario: Scenario,
    /// The base name behind each base slot.
    base_slots: Vec<String>,
    /// Every name resolution assumed the hoisted base may bind: a base
    /// binding any other name is not the one it reasoned about.
    base_names: HashSet<String>,
    /// Slots in a candidate's frame.
    frame_len: usize,
    /// Construction sites numbered.
    sites: usize,
}

/// Resolves the names of a folded, statically hoistable scenario.
///
/// A name a candidate reads or writes gets one of three addresses: a
/// slot of the hoisted base, a slot of the candidate's frame (a top-level
/// name of the user program) or a slot of a function or specifier
/// frame. Scoping is dynamic in ways slots cannot follow, so a name keeps
/// its lookup by name, everywhere, when
///
/// - a frame binds it and an enclosing frame or the base may bind it
///   too: an `assign` writes whichever scope holds the name when it
///   runs, and a read before the frame's own binding falls through to
///   the outer one (parameters are exempt: the call binds them before
///   the body runs);
/// - a non-auto `import` may bind it in the candidate's scope.
///
/// A name the interpreter binds or looks up as a string — a `def`,
/// `class` or `specifier` name, a superclass, a loop variable, a `mutate`
/// target or a `using` name — never lives in a frame slot; it may still
/// read as a base slot, since the base keeps its table.
///
/// `self` in a class default is the object whose default evaluates. The
/// top-level statements of the prelude and the auto-imported modules run
/// once, into the base, by name; their class defaults and function
/// bodies, which run per candidate, are resolved.
fn resolve(folded: &Scenario) -> Resolution {
    let world = &folded.world;
    let is_auto = |m: &str| world.auto_imports.iter().any(|a| a == m);
    let module_names = |m: &str, out: &mut HashSet<String>| {
        if let Some(module) = world.module(m) {
            out.extend(module.natives.iter().map(|(name, _)| name.clone()));
        }
        if let Some(program) = folded.module_programs.get(m) {
            defined_names(&program.statements, out);
        }
    };
    let mut modules: Vec<(&String, &Arc<Program>)> = folded.module_programs.iter().collect();
    modules.sort_by_key(|(name, _)| *name);
    let prefix: Vec<&Program> = std::iter::once(&*folded.prelude)
        .chain(
            world
                .auto_imports
                .iter()
                .filter_map(|m| folded.module_programs.get(m).map(|p| &**p)),
        )
        .collect();
    let imported: Vec<&Program> = modules
        .iter()
        .filter(|(name, _)| !is_auto(name))
        .map(|(_, p)| &***p)
        .collect();

    // What the base binds: the builtins, `workspace`, the auto-imported
    // natives and the prefix's top-level bindings.
    let mut base_names = crate::builtins::names().clone();
    base_names.insert("workspace".into());
    for module in world.auto_imports.iter().filter_map(|m| world.module(m)) {
        base_names.extend(module.natives.iter().map(|(name, _)| name.clone()));
    }
    for program in &prefix {
        let mut binds = Vec::new();
        frame_binds(&program.statements, &mut binds);
        base_names.extend(binds);
        for_each_stmt(&program.statements, &mut |stmt| {
            if let StmtKind::Import(m) = &stmt.kind {
                module_names(m, &mut base_names);
            }
        });
    }

    // Names the interpreter binds or looks up as strings, which never
    // take a frame slot, and names looked up by name everywhere: those a
    // non-auto `import` may bind, and (below) those a frame binds where
    // the base or an enclosing frame may bind them too.
    let mut unslotted = HashSet::new();
    let mut by_name = HashSet::new();
    for program in std::iter::once(&*folded.program)
        .chain(prefix.iter().copied())
        .chain(imported.iter().copied())
    {
        for_each_stmt(&program.statements, &mut |stmt| {
            match &stmt.kind {
                StmtKind::FuncDef(fd) => {
                    unslotted.insert(fd.name.clone());
                }
                StmtKind::SpecifierDef(sd) => {
                    unslotted.insert(sd.name.clone());
                }
                StmtKind::ClassDef(cd) => {
                    unslotted.insert(cd.name.clone());
                    unslotted.extend(cd.superclass.iter().cloned());
                }
                StmtKind::For { var, .. } => {
                    unslotted.insert(var.clone());
                }
                StmtKind::Mutate { targets, .. } => unslotted.extend(targets.iter().cloned()),
                StmtKind::Import(m) if !is_auto(m) => module_names(m, &mut by_name),
                _ => {}
            }
            stmt.walk_exprs(&mut |e| {
                if let Expr::Ctor { specifiers, .. } = e {
                    for spec in specifiers {
                        if let Specifier::Using { name, .. } = spec {
                            unslotted.insert(name.clone());
                        }
                    }
                }
            });
        });
    }
    let mut top = Vec::new();
    frame_binds(&folded.program.statements, &mut top);
    by_name.extend(top.iter().filter(|n| base_names.contains(*n)).cloned());
    let top: HashSet<String> = top.into_iter().collect();
    shadowing_in_defs(
        &folded.program.statements,
        &mut vec![top.clone()],
        &base_names,
        &mut by_name,
    );
    // An imported module's top level runs in the candidate's scope.
    for program in &imported {
        let mut binds = Vec::new();
        frame_binds(&program.statements, &mut binds);
        let mut outer = vec![top.iter().cloned().chain(binds).collect()];
        shadowing_in_defs(&program.statements, &mut outer, &base_names, &mut by_name);
    }
    for program in &prefix {
        shadowing_in_defs(
            &program.statements,
            &mut Vec::new(),
            &base_names,
            &mut by_name,
        );
    }
    unslotted.extend(by_name.iter().cloned());

    let mut resolver = Resolver {
        base_names: &base_names,
        by_name: &by_name,
        unslotted: &unslotted,
        base_index: HashMap::new(),
        base_slots: Vec::new(),
        frames: Vec::new(),
        candidate_root: true,
        in_default: false,
        sites: 0,
    };
    // The user program, and the modules it imports, run in the
    // candidate's frame.
    let mut program = (*folded.program).clone();
    resolver.enter(&[], &program.statements);
    resolver.block(&mut program.statements);
    let mut module_programs = HashMap::new();
    for (name, source) in &modules {
        if !is_auto(name) {
            let mut p = (***source).clone();
            resolver.block(&mut p.statements);
            module_programs.insert((*name).clone(), Arc::new(p));
        }
    }
    let frame_len = resolver.frames[0].len();
    resolver.frames.clear();
    resolver.candidate_root = false;
    let mut prelude = (*folded.prelude).clone();
    resolver.prefix(&mut prelude.statements);
    for (name, source) in &modules {
        if is_auto(name) {
            let mut p = (***source).clone();
            resolver.prefix(&mut p.statements);
            module_programs.insert((*name).clone(), Arc::new(p));
        }
    }
    let (base_slots, sites) = (resolver.base_slots, resolver.sites as usize);
    Resolution {
        scenario: Scenario {
            program: Arc::new(program),
            world: folded.world.clone(),
            prelude: Arc::new(prelude),
            module_programs,
            prune: Arc::clone(&folded.prune),
            compiled: Arc::new(std::sync::OnceLock::new()),
            early: Arc::clone(&folded.early),
        },
        base_slots,
        base_names,
        frame_len,
        sites,
    }
}

/// The names a frame's own statements bind, in order of first binding:
/// assignment targets, `def`, `class` and `specifier` names and loop
/// variables, through `if`/`for`/`while` bodies but not into nested
/// function or specifier bodies (each is a frame of its own).
fn frame_binds(stmts: &[Stmt], out: &mut Vec<String>) {
    for stmt in stmts {
        let name = match &stmt.kind {
            StmtKind::Assign { name, .. } => Some(name),
            StmtKind::ClassDef(cd) => Some(&cd.name),
            StmtKind::FuncDef(fd) => Some(&fd.name),
            StmtKind::SpecifierDef(sd) => Some(&sd.name),
            StmtKind::For { var, .. } => Some(var),
            _ => None,
        };
        if let Some(name) = name.filter(|n| !out.contains(n)) {
            out.push(name.clone());
        }
        stmt.for_each_child(&mut |child| {
            if let StmtChild::Block { body, frame: false } = child {
                frame_binds(body, out);
            }
        });
    }
}

/// Adds to `by_name` every name a function or specifier frame under
/// `stmts` binds (other than as a parameter) that the base or an
/// enclosing frame (`outer`, innermost last) binds too.
fn shadowing_in_defs(
    stmts: &[Stmt],
    outer: &mut Vec<HashSet<String>>,
    base: &HashSet<String>,
    by_name: &mut HashSet<String>,
) {
    for stmt in stmts {
        let (params, body) = match &stmt.kind {
            StmtKind::FuncDef(fd) => (&fd.params, &fd.body),
            StmtKind::SpecifierDef(sd) => (&sd.params, &sd.body),
            _ => {
                stmt.for_each_child(&mut |child| {
                    if let StmtChild::Block { body, .. } = child {
                        shadowing_in_defs(body, outer, base, by_name);
                    }
                });
                continue;
            }
        };
        let mut binds = Vec::new();
        frame_binds(body, &mut binds);
        for name in &binds {
            if base.contains(name) || outer.iter().any(|o| o.contains(name)) {
                by_name.insert(name.clone());
            }
        }
        let mut here: HashSet<String> = binds.into_iter().collect();
        here.extend(params.iter().map(|(p, _)| p.clone()));
        outer.push(here);
        shadowing_in_defs(body, outer, base, by_name);
        outer.pop();
    }
}

/// The rewriting half of [`resolve`].
struct Resolver<'a> {
    /// Every name the base may bind.
    base_names: &'a HashSet<String>,
    /// Names every program keeps looking up by name.
    by_name: &'a HashSet<String>,
    /// Names no frame holds in a slot: `by_name`, and the names the
    /// interpreter binds or looks up as strings (which the base's own
    /// table still answers).
    unslotted: &'a HashSet<String>,
    /// The base slot of each base name read so far, and the names by slot.
    base_index: HashMap<String, u32>,
    base_slots: Vec<String>,
    /// The frames enclosing the code being resolved, innermost last: each
    /// maps the names it holds in slots to their slots.
    frames: Vec<HashMap<String, u32>>,
    /// Whether the outermost frame is the candidate's.
    candidate_root: bool,
    /// Whether a class default is being resolved (`self` is its object).
    in_default: bool,
    /// Construction sites numbered so far.
    sites: u32,
}

impl Resolver<'_> {
    /// Opens a frame holding `params` and the names `body` binds, and
    /// returns each parameter's slot.
    fn enter(&mut self, params: &[(String, Option<Expr>)], body: &[Stmt]) -> Vec<Option<u32>> {
        let mut frame = HashMap::new();
        let mut slot_of = |name: &String| {
            let next = frame.len() as u32;
            (!self.unslotted.contains(name)).then(|| *frame.entry(name.clone()).or_insert(next))
        };
        let param_slots = params.iter().map(|(p, _)| slot_of(p)).collect();
        let mut binds = Vec::new();
        frame_binds(body, &mut binds);
        for name in &binds {
            slot_of(name);
        }
        self.frames.push(frame);
        param_slots
    }

    /// Where `name` lives from the code being resolved, if resolution can
    /// place it.
    fn addr(&mut self, name: &str) -> Option<Addr> {
        if self.in_default && name == "self" {
            return Some(Addr::DefaultSelf);
        }
        if self.by_name.contains(name) {
            return None;
        }
        let depth = self.frames.len();
        for (hops, frame) in self.frames.iter().rev().enumerate() {
            if let Some(&slot) = frame.get(name) {
                return Some(if self.candidate_root && hops + 1 == depth {
                    Addr::Candidate(slot)
                } else {
                    Addr::Local {
                        hops: hops as u32,
                        slot,
                    }
                });
            }
        }
        if !self.base_names.contains(name) {
            return None;
        }
        let slots = &mut self.base_slots;
        let slot = *self.base_index.entry(name.to_string()).or_insert_with(|| {
            slots.push(name.to_string());
            slots.len() as u32 - 1
        });
        Some(Addr::Base(slot))
    }

    /// Resolves the statements of the innermost frame.
    fn block(&mut self, stmts: &mut [Stmt]) {
        for stmt in stmts {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &mut Stmt) {
        match &mut stmt.kind {
            StmtKind::Assign { name, value } => {
                self.expr(value);
                if let Some(addr) = self.addr(name) {
                    let target = Resolved {
                        name: std::mem::take(name),
                        addr,
                    };
                    let value = std::mem::replace(value, Expr::None);
                    stmt.kind = StmtKind::Store { target, value };
                }
            }
            StmtKind::ClassDef(cd) => self.class_defaults(cd),
            StmtKind::FuncDef(fd) => {
                let fd = Arc::make_mut(fd);
                fd.param_slots = self.def(&mut fd.params, &mut fd.body);
            }
            StmtKind::SpecifierDef(sd) => {
                let sd = Arc::make_mut(sd);
                sd.param_slots = self.def(&mut sd.params, &mut sd.body);
            }
            _ => stmt.for_each_child_mut(&mut |child| match child {
                StmtChildMut::Expr(e) => self.expr(e),
                StmtChildMut::Block { body, .. } => self.block(body),
            }),
        }
    }

    /// Resolves the class defaults and function and specifier bodies of
    /// base-level statements, which themselves run by name.
    fn prefix(&mut self, stmts: &mut [Stmt]) {
        for stmt in stmts {
            match &mut stmt.kind {
                StmtKind::ClassDef(cd) => self.class_defaults(cd),
                StmtKind::FuncDef(fd) => {
                    let fd = Arc::make_mut(fd);
                    fd.param_slots = self.def(&mut fd.params, &mut fd.body);
                }
                StmtKind::SpecifierDef(sd) => {
                    let sd = Arc::make_mut(sd);
                    sd.param_slots = self.def(&mut sd.params, &mut sd.body);
                }
                _ => stmt.for_each_child_mut(&mut |child| {
                    if let StmtChildMut::Block { body, .. } = child {
                        self.prefix(body);
                    }
                }),
            }
        }
    }

    /// Resolves a function or specifier definition: its parameter
    /// defaults in the defining frame, its body in a frame of its own.
    fn def(
        &mut self,
        params: &mut [(String, Option<Expr>)],
        body: &mut [Stmt],
    ) -> Vec<Option<u32>> {
        for (_, default) in params.iter_mut() {
            if let Some(d) = default {
                self.expr(d);
            }
        }
        let slots = self.enter(params, body);
        self.block(body);
        self.frames.pop();
        slots
    }

    fn class_defaults(&mut self, cd: &mut ClassDef) {
        self.in_default = true;
        for (_, e) in &mut cd.properties {
            self.expr(Arc::make_mut(e));
        }
        self.in_default = false;
    }

    fn expr(&mut self, e: &mut Expr) {
        match e {
            Expr::Ident(name) => {
                if let Some(addr) = self.addr(name) {
                    let name = std::mem::take(name);
                    *e = Expr::Resolved(Resolved { name, addr });
                }
                return;
            }
            Expr::Ctor { class, site, .. } => {
                *site = Some(CtorSite {
                    id: self.sites,
                    class: self.addr(class),
                });
                self.sites += 1;
            }
            _ => {}
        }
        e.for_each_child_mut(&mut |e| self.expr(e));
    }
}

// ---------------------------------------------------------------------
// Constant folding
// ---------------------------------------------------------------------

/// Folds a copy of a program.
fn fold_program(program: &Program) -> Program {
    let mut folded = program.clone();
    fold_block(&mut folded.statements);
    folded
}

fn fold_block(stmts: &mut [Stmt]) {
    for stmt in stmts {
        stmt.for_each_child_mut(&mut |child| match child {
            StmtChildMut::Expr(e) => fold_expr(e),
            StmtChildMut::Block { body, .. } => fold_block(body),
        });
    }
}

/// Folds one expression in place, children first. Conservative by
/// construction: only rewrites applications over *literals*, never
/// distributions (`Interval` draws from the RNG when evaluated; its
/// bounds fold, the node stays) or calls, and never folds anything whose
/// evaluation the interpreter would reject (division by zero, boolean
/// coercion of a number).
fn fold_expr(expr: &mut Expr) {
    expr.for_each_child_mut(&mut fold_expr);
    let folded = match expr {
        Expr::Neg(e) => match **e {
            Expr::Number(n) => Expr::Number(-n),
            _ => return,
        },
        Expr::NotOp(e) => match **e {
            Expr::Bool(b) => Expr::Bool(!b),
            _ => return,
        },
        Expr::Deg(e) => match **e {
            Expr::Number(n) => Expr::Number(n.to_radians()),
            _ => return,
        },
        Expr::Binary { op, lhs, rhs } => match fold_binary(*op, lhs, rhs) {
            Some(folded) => folded,
            None => return,
        },
        Expr::Compare { op, lhs, rhs } => match fold_compare(*op, lhs, rhs) {
            Some(folded) => folded,
            None => return,
        },
        // The interpreter picks the branch eagerly on a non-random
        // condition; a literal condition makes that pick static.
        Expr::IfElse {
            cond,
            then,
            otherwise,
        } => match **cond {
            Expr::Bool(true) => std::mem::replace(&mut **then, Expr::None),
            Expr::Bool(false) => std::mem::replace(&mut **otherwise, Expr::None),
            _ => return,
        },
        _ => return,
    };
    *expr = folded;
}

/// The literal a binary application over literal operands folds to,
/// mirroring the interpreter's numeric/string cases exactly.
/// Short-circuit folds for `and`/`or` only fire where the interpreter
/// provably never evaluates the right operand.
fn fold_binary(op: BinOp, lhs: &Expr, rhs: &Expr) -> Option<Expr> {
    Some(match (op, lhs, rhs) {
        (BinOp::Add, Expr::Number(a), Expr::Number(b)) => Expr::Number(a + b),
        (BinOp::Sub, Expr::Number(a), Expr::Number(b)) => Expr::Number(a - b),
        (BinOp::Mul, Expr::Number(a), Expr::Number(b)) => Expr::Number(a * b),
        // Division/modulo by literal zero is a runtime error; leave the
        // node so the error (and its source line) survive.
        (BinOp::Div, Expr::Number(a), Expr::Number(b)) if *b != 0.0 => Expr::Number(a / b),
        (BinOp::Mod, Expr::Number(a), Expr::Number(b)) if *b != 0.0 => {
            Expr::Number(a.rem_euclid(*b))
        }
        (BinOp::Add, Expr::Str(a), Expr::Str(b)) => Expr::Str(format!("{a}{b}")),
        (BinOp::And, Expr::Bool(false), _) => Expr::Bool(false),
        (BinOp::Or, Expr::Bool(true), _) => Expr::Bool(true),
        (BinOp::And, Expr::Bool(true), Expr::Bool(b)) => Expr::Bool(*b),
        (BinOp::Or, Expr::Bool(false), Expr::Bool(b)) => Expr::Bool(*b),
        _ => return None,
    })
}

/// The literal a comparison over same-kind literals folds to (numbers
/// order and compare; strings and booleans compare for equality/identity
/// only), mirroring [`Value::equals`].
fn fold_compare(op: CmpOp, lhs: &Expr, rhs: &Expr) -> Option<Expr> {
    let eq = match (lhs, rhs) {
        (Expr::Number(a), Expr::Number(b)) => {
            if let Some(b) = match op {
                CmpOp::Lt => Some(a < b),
                CmpOp::Le => Some(a <= b),
                CmpOp::Gt => Some(a > b),
                CmpOp::Ge => Some(a >= b),
                _ => None,
            } {
                return Some(Expr::Bool(b));
            }
            a == b
        }
        (Expr::Str(a), Expr::Str(b)) => a == b,
        (Expr::Bool(a), Expr::Bool(b)) => a == b,
        _ => return None,
    };
    match op {
        CmpOp::Eq | CmpOp::Is => Some(Expr::Bool(eq)),
        CmpOp::Ne | CmpOp::IsNot => Some(Expr::Bool(!eq)),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Static hoist-safety analysis
// ---------------------------------------------------------------------

/// `assign` targets at every nesting depth.
fn assigns_all(stmts: &[Stmt], out: &mut HashSet<String>) {
    for_each_stmt(stmts, &mut |stmt| {
        if let StmtKind::Assign { name, .. } = &stmt.kind {
            out.insert(name.clone());
        }
    });
}

/// `assign` targets inside function/specifier bodies only — the
/// statements of a library that run *per candidate* (when called)
/// rather than once during the prefix.
pub(crate) fn assigns_in_defs(stmts: &[Stmt], out: &mut HashSet<String>) {
    for_each_stmt(stmts, &mut |stmt| match &stmt.kind {
        StmtKind::FuncDef(fd) => assigns_all(&fd.body, out),
        StmtKind::SpecifierDef(sd) => assigns_all(&sd.body, out),
        _ => {}
    });
}

/// Every name the statements bind: assignments, class/function/
/// specifier definitions, and loop variables, at every depth.
pub(crate) fn defined_names(stmts: &[Stmt], out: &mut HashSet<String>) {
    for_each_stmt(stmts, &mut |stmt| match &stmt.kind {
        StmtKind::Assign { name, .. } => {
            out.insert(name.clone());
        }
        StmtKind::ClassDef(cd) => {
            out.insert(cd.name.clone());
        }
        StmtKind::FuncDef(fd) => {
            out.insert(fd.name.clone());
        }
        StmtKind::SpecifierDef(sd) => {
            out.insert(sd.name.clone());
        }
        StmtKind::For { var, .. } => {
            out.insert(var.clone());
        }
        _ => {}
    });
}

/// Every identifier the statements might look up *in their defining
/// scope* ([`stmt_reads`]), at every depth. References inside a function
/// or specifier body to that def's own parameters are *not* free —
/// parameters are bound in the local scope at call entry, before any body
/// statement runs, so they can never resolve to an outer name in either
/// engine; nor is `self`, which the interpreter binds before evaluating
/// any specifier or default. Locally-assigned names are NOT subtracted:
/// our scoping is dynamic, so a body can read a name before its own
/// assignment reaches it (`x = x + 1` reads the outer `x`).
fn referenced_idents(stmts: &[Stmt], out: &mut HashSet<String>) {
    for stmt in stmts {
        stmt_reads(stmt, out);
        let params = match &stmt.kind {
            StmtKind::FuncDef(fd) => &fd.params[..],
            StmtKind::SpecifierDef(sd) => &sd.params,
            _ => &[],
        };
        stmt.for_each_child(&mut |child| match child {
            StmtChild::Expr(_) => {}
            StmtChild::Block { body, frame: false } => referenced_idents(body, out),
            StmtChild::Block { body, frame: true } => {
                let mut body_refs = HashSet::new();
                referenced_idents(body, &mut body_refs);
                for (name, _) in params {
                    body_refs.remove(name);
                }
                body_refs.remove("self");
                out.extend(body_refs);
            }
        });
    }
}

/// The names one statement itself reads, not counting its nested
/// statements: the identifiers of its own expressions
/// ([`collect_expr_idents`]), its superclass and its `mutate` targets.
pub(crate) fn stmt_reads(stmt: &Stmt, out: &mut HashSet<String>) {
    match &stmt.kind {
        StmtKind::ClassDef(cd) => out.extend(cd.superclass.iter().cloned()),
        StmtKind::Mutate { targets, .. } => out.extend(targets.iter().cloned()),
        _ => {}
    }
    stmt.for_each_child(&mut |child| {
        if let StmtChild::Expr(e) = child {
            collect_expr_idents(e, out);
        }
    });
}

/// Every name an expression may look up, at every depth: identifiers,
/// constructed classes and `using` specifier names.
pub(crate) fn collect_expr_idents(expr: &Expr, out: &mut HashSet<String>) {
    expr.walk(&mut |e| match e {
        Expr::Ident(_) | Expr::Resolved(_) => out.extend(e.ident().map(String::from)),
        Expr::Ctor {
            class, specifiers, ..
        } => {
            out.insert(class.clone());
            for spec in specifiers {
                if let Specifier::Using { name, .. } = spec {
                    out.insert(name.clone());
                }
            }
        }
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use scenic_lang::parse;

    fn fold_source(src: &str) -> Program {
        fold_program(&parse(src).unwrap())
    }

    fn first_assign_value(p: &Program) -> &Expr {
        match &p.statements[0].kind {
            StmtKind::Assign { value, .. } => value,
            other => panic!("expected assign, got {other:?}"),
        }
    }

    #[test]
    fn folds_literal_arithmetic() {
        let p = fold_source("x = 1 + 2 * 3 - 4 / 2\n");
        assert_eq!(*first_assign_value(&p), Expr::Number(5.0));
    }

    #[test]
    fn folds_deg_and_neg() {
        let p = fold_source("x = -30 deg\n");
        let Expr::Number(n) = first_assign_value(&p) else {
            panic!("not folded: {p:?}");
        };
        assert!((n - (-30f64).to_radians()).abs() < 1e-12);
    }

    #[test]
    fn keeps_division_by_zero() {
        let p = fold_source("x = 1 / 0\n");
        assert!(matches!(first_assign_value(&p), Expr::Binary { .. }));
    }

    #[test]
    fn never_folds_intervals() {
        // The interval itself must survive (it draws), but its literal
        // bounds fold.
        let p = fold_source("x = (1 + 1, 2 * 3)\n");
        let Expr::Interval(lo, hi) = first_assign_value(&p) else {
            panic!("interval folded away");
        };
        assert_eq!(**lo, Expr::Number(2.0));
        assert_eq!(**hi, Expr::Number(6.0));
    }

    #[test]
    fn folds_literal_conditionals() {
        let p = fold_source("x = 1 if 2 < 3 else 2\n");
        assert_eq!(*first_assign_value(&p), Expr::Number(1.0));
    }

    #[test]
    fn short_circuit_folds_respect_evaluation_order() {
        // `False and <draw>` never evaluates the draw — foldable.
        let p = fold_source("x = False and (0, 1)\n");
        assert_eq!(*first_assign_value(&p), Expr::Bool(false));
        // `True and <draw>` evaluates the draw — must not fold.
        let p = fold_source("x = True and (0, 1)\n");
        assert!(matches!(first_assign_value(&p), Expr::Binary { .. }));
    }

    #[test]
    fn static_analysis_sees_through_nesting() {
        let src = "def f(a):\n    b = a\n    return b\nc = 1\nfor i in [1]:\n    d = i\n";
        let program = parse(src).unwrap();
        let mut assigns = HashSet::new();
        assigns_all(&program.statements, &mut assigns);
        assert!(assigns.contains("b") && assigns.contains("c") && assigns.contains("d"));
        let mut nested = HashSet::new();
        assigns_in_defs(&program.statements, &mut nested);
        assert!(nested.contains("b") && !nested.contains("c"));
        let mut defined = HashSet::new();
        defined_names(&program.statements, &mut defined);
        for name in ["f", "b", "c", "i", "d"] {
            assert!(defined.contains(name), "missing {name}");
        }
    }

    #[test]
    fn hoisted_candidate_scope_is_freed_after_the_run() {
        // The `def` and the user class both close over the candidate
        // scope that holds them.
        let scenario = crate::compile(
            "class Marker(Object):\n    width: 2\ndef f():\n    return 1\nego = Marker at 0 @ f()\n",
        )
        .unwrap();
        let compiled = scenario.compiled();
        let base = compiled.base().expect("hoists");
        let candidate = Scope::child(&base.globals);
        let scope = Rc::downgrade(&candidate);
        let mut rng = StdRng::seed_from_u64(0);
        Interpreter::with_base(
            &compiled.resolved.as_ref().unwrap().scenario,
            &mut rng,
            candidate,
            base.imported.clone(),
            Rc::clone(&base.cache),
            None,
            scenario.early_plan(),
        )
        .run_main()
        .unwrap();
        assert!(scope.upgrade().is_none(), "candidate scope leaked");
    }

    #[test]
    fn runtime_syntax_stages_each_construction_site_once() {
        // Library-class constructions inside a `def` body, a user class
        // default and a `require` deferred to termination (its condition
        // draws). Each candidate runs all three again, each under its
        // site id.
        let scenario = crate::compile(
            "class Crate(Object):\n    anchor: Point at 1 @ 1\n\
             def f():\n    return Object at 0 @ (2, 3)\n\
             ego = Crate at 0 @ -2\na = f()\n\
             require (Point at (0, 1) @ 0).position.x < 5\n",
        )
        .unwrap();
        let compiled = scenario.compiled();
        let base = compiled.base().expect("hoists");
        let mut rng = StdRng::seed_from_u64(0);
        let mut staged = Vec::new();
        for _ in 0..20 {
            compiled
                .generate(&mut rng, None, scenario.early_plan())
                .unwrap();
            staged.push(base.cache.sites.borrow().iter().flatten().count());
        }
        assert_eq!(staged, vec![3; 20]);
    }

    /// The names of `source` that lowering leaves to lookup by name.
    fn unresolved(source: &str) -> Vec<String> {
        crate::compile(source)
            .unwrap()
            .compiled()
            .unresolved_names()
            .expect("hoists")
    }

    #[test]
    fn resolution_falls_back_per_name() {
        // Top-level names, parameters and base names resolve.
        assert!(unresolved("x = 2\nego = Object at x @ abs(-1)\n").is_empty());
        // An `assign` in a body to a top-level name writes whichever scope
        // holds it when it runs: `x` stays by name, `y` does not.
        let bump = "x = 1\ny = 2\ndef bump(k):\n    x = x + k\n    return y\nbump(y)\n\
                    ego = Object at x @ 0\n";
        assert_eq!(unresolved(bump), ["bump", "x"]);
        // A `def` shadowing a base native.
        assert_eq!(
            unresolved("a = abs(-3)\ndef abs(v):\n    return v\n"),
            ["abs"]
        );
        // A local read before its assignment, with no outer binding,
        // resolves: its empty slot raises the same E003.
        assert_eq!(
            unresolved("def f():\n    a = b\n    b = 1\n    return a\n"),
            ["f"]
        );
    }

    #[test]
    fn reads_are_found_in_every_specifier_slot() {
        let slots = [
            "with w $",
            "at $",
            "offset by $",
            "offset along $ by 0 @ 0",
            "offset along 0 by $",
            "left of $",
            "left of 0 @ 0 by $",
            "beyond $ by 0 @ 0",
            "beyond 0 @ 0 by $",
            "beyond 0 @ 0 by 0 @ 0 from $",
            "visible from $",
            "in $",
            "following $ for 1",
            "following f from $ for 1",
            "following f for $",
            "facing $",
            "facing toward $",
            "facing away from $",
            "apparently facing $",
            "apparently facing 0 from $",
            "using u($)",
            "using u(k=$)",
        ];
        for slot in slots {
            // `Object <slot>`, with `arg` in the slot, nested one
            // expression deep.
            let ctor = |arg: &str| {
                let source = format!("Object {}\n", slot.replace('$', &format!("[{arg}]")));
                let program = parse(&source).unwrap();
                let StmtKind::Expr(e) = &program.statements[0].kind else {
                    panic!("{source}");
                };
                e.clone()
            };
            let mut names = HashSet::new();
            collect_expr_idents(&ctor("target"), &mut names);
            assert!(names.contains("target"), "{slot}: {names:?}");
            assert_eq!(
                crate::class::self_dependencies(&ctor("self.p")),
                ["p"],
                "{slot}"
            );
        }
    }

    #[test]
    fn referenced_idents_cover_ctors_and_superclasses() {
        let src = "class Car(Vehicle):\n    width: carWidth\nego = Car at spot\n";
        let program = parse(src).unwrap();
        let mut refs = HashSet::new();
        referenced_idents(&program.statements, &mut refs);
        for name in ["Vehicle", "carWidth", "Car", "spot"] {
            assert!(refs.contains(name), "missing {name}");
        }
    }
}
