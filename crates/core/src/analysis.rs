//! Static analysis of scenario programs (`scenic lint`).
//!
//! The §5.2 pruning derivation is already a static analysis of scenario
//! source; this module generalizes the idea into a user-facing pass
//! producing typed [`Diagnostic`]s. Two engines run over the compiled
//! AST:
//!
//! 1. a **syntactic pass**: definition/use tracking for `W001
//!    unused-definition` and `W002 shadowed-binding`;
//! 2. an **interval abstract interpretation** of the draw path: every
//!    distribution maps into a conservative interval lattice
//!    ([`Interval`] for scalars, boxes for vectors and object
//!    positions, three-valued [`AbsBool`] for conditions), specifier
//!    composition propagates bounds through positions, headings, and
//!    dimensions, and requirement expressions are evaluated abstractly.
//!    A hard requirement whose abstract value is definitely false can
//!    never be satisfied by any sample (`E101`); definitely true means
//!    it constrains nothing (`W104`); a physical object whose possible
//!    positions never meet the workspace would reject every sample
//!    (`W103`).
//!
//! The pass also surfaces each enable/disable decision of the pruning
//! derivation ([`crate::Scenario::derived_prune_decisions`]) as an
//! `I2xx` note, so pruning behavior is self-explaining.
//!
//! Which classes are physical, which defaults are known, which
//! properties a `using` sets and whether any source `mutate`s all come
//! from the static-facts module (`facts.rs`).
//!
//! Everything here is advisory: the tree-walking sampler is untouched
//! and abstract evaluation errs on the side of `Unknown` (a diagnostic
//! is only emitted on a *definite* fact, so widening can cause missed
//! warnings but never false ones).

use crate::diag::{Code, Diagnostic};
use crate::facts::Facts;
use crate::interp::Scenario;
use crate::prune;
use crate::world::NativeValue;
use scenic_geom::Aabb;
use scenic_lang::ast::{for_each_stmt, Expr, Program, Specifier, Stmt, StmtChild, StmtKind};
use scenic_lang::Span;
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------
// The interval lattice
// ---------------------------------------------------------------------

/// A closed scalar interval `[lo, hi]` (possibly unbounded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (may be `-inf`).
    pub lo: f64,
    /// Upper bound (may be `+inf`).
    pub hi: f64,
}

impl Interval {
    /// The single value `v`.
    pub fn point(v: f64) -> Self {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]` (operands in either order).
    pub fn new(a: f64, b: f64) -> Self {
        Interval {
            lo: a.min(b),
            hi: a.max(b),
        }
    }

    /// The whole real line (no information).
    pub fn top() -> Self {
        Interval {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
        }
    }

    /// Whether both bounds are finite.
    pub fn is_bounded(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// Smallest interval containing both.
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn add(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo + o.lo,
            hi: self.hi + o.hi,
        }
    }

    fn sub(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo - o.hi,
            hi: self.hi - o.lo,
        }
    }

    fn neg(self) -> Interval {
        Interval {
            lo: -self.hi,
            hi: -self.lo,
        }
    }

    fn mul(self, o: Interval) -> Interval {
        // 0 * inf would be NaN; an exact zero factor contributes 0.
        fn m(a: f64, b: f64) -> f64 {
            if a == 0.0 || b == 0.0 {
                0.0
            } else {
                a * b
            }
        }
        let products = [
            m(self.lo, o.lo),
            m(self.lo, o.hi),
            m(self.hi, o.lo),
            m(self.hi, o.hi),
        ];
        Interval {
            lo: products.iter().copied().fold(f64::INFINITY, f64::min),
            hi: products.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    fn abs(self) -> Interval {
        if self.lo >= 0.0 {
            self
        } else if self.hi <= 0.0 {
            self.neg()
        } else {
            Interval {
                lo: 0.0,
                hi: self.hi.max(-self.lo),
            }
        }
    }

    fn scale(self, k: f64) -> Interval {
        self.mul(Interval::point(k))
    }

    /// The largest absolute value in the interval.
    fn max_abs(&self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }
}

/// A three-valued boolean (the abstract truth lattice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbsBool {
    /// Definitely true in every sample.
    True,
    /// Definitely false in every sample.
    False,
    /// Could go either way.
    Unknown,
}

impl AbsBool {
    fn not(self) -> AbsBool {
        match self {
            AbsBool::True => AbsBool::False,
            AbsBool::False => AbsBool::True,
            AbsBool::Unknown => AbsBool::Unknown,
        }
    }

    fn and(self, o: AbsBool) -> AbsBool {
        match (self, o) {
            (AbsBool::False, _) | (_, AbsBool::False) => AbsBool::False,
            (AbsBool::True, AbsBool::True) => AbsBool::True,
            _ => AbsBool::Unknown,
        }
    }

    fn or(self, o: AbsBool) -> AbsBool {
        match (self, o) {
            (AbsBool::True, _) | (_, AbsBool::True) => AbsBool::True,
            (AbsBool::False, AbsBool::False) => AbsBool::False,
            _ => AbsBool::Unknown,
        }
    }
}

/// An axis-aligned box of possible positions.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BoxAbs {
    x: Interval,
    y: Interval,
}

impl BoxAbs {
    fn top() -> Self {
        BoxAbs {
            x: Interval::top(),
            y: Interval::top(),
        }
    }

    fn from_aabb(bb: &Aabb) -> Self {
        BoxAbs {
            x: Interval::new(bb.min.x, bb.max.x),
            y: Interval::new(bb.min.y, bb.max.y),
        }
    }

    fn is_bounded(&self) -> bool {
        self.x.is_bounded() && self.y.is_bounded()
    }

    /// Grown by `m` in every direction (conservative for any rotation
    /// of an offset whose L1 norm is at most `m`).
    fn inflate(self, m: f64) -> Self {
        if !m.is_finite() {
            return BoxAbs::top();
        }
        BoxAbs {
            x: Interval {
                lo: self.x.lo - m,
                hi: self.x.hi + m,
            },
            y: Interval {
                lo: self.y.lo - m,
                hi: self.y.hi + m,
            },
        }
    }

    fn add(self, v: BoxAbs) -> Self {
        BoxAbs {
            x: self.x.add(v.x),
            y: self.y.add(v.y),
        }
    }

    fn disjoint(&self, o: &BoxAbs) -> bool {
        self.x.hi < o.x.lo || o.x.hi < self.x.lo || self.y.hi < o.y.lo || o.y.hi < self.y.lo
    }

    /// Interval of possible Euclidean distances between a point of
    /// `self` and a point of `o`.
    fn distance(&self, o: &BoxAbs) -> Interval {
        let gap = |a: Interval, b: Interval| (a.lo - b.hi).max(b.lo - a.hi).max(0.0);
        let lo = gap(self.x, o.x).hypot(gap(self.y, o.y));
        let span = |a: Interval, b: Interval| (a.hi - b.lo).max(b.hi - a.lo).max(0.0);
        let hx = span(self.x, o.x);
        let hy = span(self.y, o.y);
        let hi = if hx.is_finite() && hy.is_finite() {
            hx.hypot(hy)
        } else {
            f64::INFINITY
        };
        Interval { lo, hi }
    }
}

/// An object under construction: position box, heading, and dimension
/// intervals, plus whether the class is physical (subject to the
/// default containment requirement).
#[derive(Debug, Clone, PartialEq)]
struct AbsObject {
    class: String,
    physical: bool,
    position: BoxAbs,
    heading: Interval,
    width: Interval,
    height: Interval,
}

/// Abstract values.
#[derive(Debug, Clone, PartialEq)]
enum AbsValue {
    Num(Interval),
    Bool(AbsBool),
    Vec(BoxAbs),
    Region(Option<BoxAbs>),
    Object(Box<AbsObject>),
    None,
    Top,
}

impl AbsValue {
    /// The scalar interval this value could be, `Top → (-inf, inf)`.
    fn as_num(&self) -> Option<Interval> {
        match self {
            AbsValue::Num(i) => Some(*i),
            AbsValue::Top => Some(Interval::top()),
            _ => Option::None,
        }
    }

    /// The position box this value could occupy (vectors, objects, and
    /// unknown values; scalars are not positions).
    fn as_box(&self) -> Option<BoxAbs> {
        match self {
            AbsValue::Vec(b) => Some(*b),
            AbsValue::Object(o) => Some(o.position),
            AbsValue::Top => Some(BoxAbs::top()),
            _ => Option::None,
        }
    }
}

// ---------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------

/// Runs the full static-analysis pass over a compiled scenario.
///
/// Diagnostics are ordered by source position (spanless pruning notes
/// last), so output is deterministic and golden-testable.
///
/// # Example
///
/// ```
/// use scenic_core::diag::Code;
///
/// let scenario = scenic_core::compile("ego = Object at 0 @ 0\nrequire 1 > 2\n")?;
/// let diags = scenic_core::analysis::analyze(&scenario);
/// assert!(diags.iter().any(|d| d.code == Code::UnsatisfiableRequirement));
/// # Ok::<(), scenic_core::ScenicError>(())
/// ```
pub fn analyze(scenario: &Scenario) -> Vec<Diagnostic> {
    let facts = Facts::of(scenario);
    let (params, decisions) = prune::derive_params_explained(&facts);
    let mut diags = Vec::new();

    let mut analyzer = Analyzer::new(scenario, &facts, params.max_distance);
    analyzer.check_defs(&scenario.program, &mut diags);
    analyzer.run(&scenario.program, &mut diags);

    diags.sort_by_key(|d| match d.span {
        Some(s) => (0u8, s.start.line, s.start.col, d.code.as_str()),
        None => (1u8, 0, 0, d.code.as_str()),
    });

    // Pruning-derivation notes, in Containment/Orientation/Size order.
    for d in decisions {
        let code = if d.enabled {
            Code::PrunerEnabled
        } else {
            Code::PrunerDisabled
        };
        diags.push(Diagnostic::global(
            code,
            format!(
                "{} pruning {}: {}",
                d.pruner,
                if d.enabled { "enabled" } else { "disabled" },
                d.reason
            ),
        ));
    }
    diags
}

// ---------------------------------------------------------------------
// Pass 1: definitions and uses
// ---------------------------------------------------------------------

/// Collects every identifier *read* anywhere in `stmts` (all nesting
/// levels; assignment targets and loop variables are not reads, and a
/// body's reads of its own parameters count).
fn collect_uses(stmts: &[Stmt], uses: &mut HashSet<String>) {
    for_each_stmt(stmts, &mut |stmt| crate::compile::stmt_reads(stmt, uses));
}

// ---------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------

struct Analyzer<'a> {
    scenario: &'a Scenario,
    /// The classes, specifiers and `mutate`s of every source. Any
    /// `mutate`: post-sampling noise is unbounded (`Normal`), so object
    /// positions/headings are unknowable and `W103` would be unsound.
    facts: &'a Facts<'a>,
    env: HashMap<String, AbsValue>,
    /// The derived maximum-distance pruning bound (for `I203`).
    derived_max_distance: f64,
}

impl<'a> Analyzer<'a> {
    fn new(scenario: &'a Scenario, facts: &'a Facts<'a>, derived_max_distance: f64) -> Self {
        let mut analyzer = Analyzer {
            scenario,
            facts,
            env: HashMap::new(),
            derived_max_distance,
        };
        analyzer.install_natives();
        analyzer
    }

    /// Pre-binds every module-native value (regions become bounding
    /// boxes, scalars and vectors become points, everything else Top).
    fn install_natives(&mut self) {
        for module in self.scenario.world.modules.values() {
            for (name, native) in &module.natives {
                let abs = match native {
                    NativeValue::Number(n) => AbsValue::Num(Interval::point(*n)),
                    NativeValue::Bool(b) => {
                        AbsValue::Bool(if *b { AbsBool::True } else { AbsBool::False })
                    }
                    NativeValue::Vector(v) => AbsValue::Vec(BoxAbs {
                        x: Interval::point(v.x),
                        y: Interval::point(v.y),
                    }),
                    NativeValue::Region(r) => {
                        AbsValue::Region(r.aabb().as_ref().map(BoxAbs::from_aabb))
                    }
                    _ => AbsValue::Top,
                };
                self.env.insert(name.clone(), abs);
            }
        }
    }

    // -----------------------------------------------------------------
    // W001 / W002
    // -----------------------------------------------------------------

    fn check_defs(&self, program: &Program, diags: &mut Vec<Diagnostic>) {
        let mut all_uses = HashSet::new();
        collect_uses(&program.statements, &mut all_uses);

        // Names that already mean something before the program runs.
        let mut ambient: HashMap<&str, &str> = HashMap::new();
        for b in crate::builtins::names() {
            ambient.insert(b, "built-in function");
        }
        for name in self.facts.library_classes() {
            ambient.insert(name, "library class");
        }
        for module in self.scenario.world.modules.values() {
            for (name, _) in &module.natives {
                ambient.insert(name, "world native");
            }
        }

        // Ordered scan: (definition span, read since defined?).
        let mut bindings: HashMap<String, (Span, u32, bool)> = HashMap::new();
        for stmt in &program.statements {
            // Reads in this statement mark earlier bindings live.
            let mut reads = HashSet::new();
            collect_uses(std::slice::from_ref(stmt), &mut reads);
            for name in &reads {
                if let Some(entry) = bindings.get_mut(name) {
                    entry.2 = true;
                }
            }
            let def = match &stmt.kind {
                StmtKind::Assign { name, .. } => {
                    Some((name.clone(), Span::at(stmt.span.start, name.len() as u32)))
                }
                StmtKind::FuncDef(fd) => Some((
                    fd.name.clone(),
                    Span::at(stmt.span.start, 4 + fd.name.len() as u32),
                )),
                StmtKind::ClassDef(cd) => Some((
                    cd.name.clone(),
                    Span::at(stmt.span.start, 6 + cd.name.len() as u32),
                )),
                StmtKind::SpecifierDef(sd) => Some((
                    sd.name.clone(),
                    Span::at(stmt.span.start, 10 + sd.name.len() as u32),
                )),
                _ => None,
            };
            let Some((name, span)) = def else { continue };
            if name == "ego" || name.starts_with('_') {
                // `ego` is the scenario's output; `_`-prefixed names opt
                // out, Python-style.
                bindings.remove(&name);
                continue;
            }
            if let Some((_, prev_line, read)) = bindings.get(&name) {
                if !read {
                    diags.push(
                        Diagnostic::new(
                            Code::ShadowedBinding,
                            span,
                            format!(
                                "`{name}` is rebound here, but the binding at line {prev_line} \
                                 was never read"
                            ),
                        )
                        .with_help(format!(
                            "remove the earlier `{name} = ...` at line {prev_line}"
                        )),
                    );
                }
            } else if let Some(kind) = ambient.get(name.as_str()) {
                diags.push(
                    Diagnostic::new(
                        Code::ShadowedBinding,
                        span,
                        format!("`{name}` shadows the {kind} of the same name"),
                    )
                    .with_help("rename the definition to keep the original reachable"),
                );
            }
            bindings.insert(name, (span, stmt.span.start.line, false));
        }

        for (name, (span, _, _)) in &bindings {
            if !all_uses.contains(name) {
                diags.push(
                    Diagnostic::new(
                        Code::UnusedDefinition,
                        *span,
                        format!("`{name}` is never used"),
                    )
                    .with_help(format!(
                        "remove the definition, or rename it `_{name}` to keep it deliberately"
                    )),
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // Pass 2: abstract interpretation
    // -----------------------------------------------------------------

    fn run(&mut self, program: &Program, diags: &mut Vec<Diagnostic>) {
        for stmt in &program.statements {
            match &stmt.kind {
                StmtKind::Import(_) | StmtKind::Pass | StmtKind::Return(_) => {}
                StmtKind::Assign { name, value }
                | StmtKind::Store {
                    target: scenic_lang::Resolved { name, .. },
                    value,
                } => {
                    let v = self.eval(value);
                    if let AbsValue::Object(obj) = &v {
                        self.check_workspace(obj, stmt.span, diags);
                    }
                    self.env.insert(name.clone(), v);
                }
                StmtKind::Param(params) => {
                    // Externally overridable: the default tells us
                    // nothing sound about the run-time value.
                    for (name, _) in params {
                        self.env.insert(name.clone(), AbsValue::Top);
                    }
                }
                StmtKind::Expr(e) => {
                    let v = self.eval(e);
                    if let AbsValue::Object(obj) = &v {
                        self.check_workspace(obj, stmt.span, diags);
                    }
                }
                StmtKind::Require { prob, cond } => {
                    self.check_require(prob.is_none(), cond, stmt.span, diags);
                }
                StmtKind::Mutate { .. } => {}
                StmtKind::ClassDef(cd) => {
                    self.env.insert(cd.name.clone(), AbsValue::Top);
                }
                StmtKind::FuncDef(fd) => {
                    self.env.insert(fd.name.clone(), AbsValue::Top);
                }
                StmtKind::SpecifierDef(_) => {}
                StmtKind::If {
                    branches,
                    else_body,
                } => {
                    // Conservative: anything a branch might assign is
                    // unknown afterwards; requires inside branches are
                    // conditional, so E101/W104 do not apply.
                    for (_, body) in branches {
                        self.widen_assigned(body);
                    }
                    self.widen_assigned(else_body);
                }
                StmtKind::For { var, body, .. } => {
                    self.env.insert(var.clone(), AbsValue::Top);
                    self.widen_assigned(body);
                }
                StmtKind::While { body, .. } => {
                    self.widen_assigned(body);
                }
            }
        }
    }

    /// Sets every name a block might assign to Top.
    fn widen_assigned(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            if let StmtKind::Assign { name, .. } | StmtKind::For { var: name, .. } = &stmt.kind {
                self.env.insert(name.clone(), AbsValue::Top);
            }
            stmt.for_each_child(&mut |child| {
                if let StmtChild::Block { body, frame: false } = child {
                    self.widen_assigned(body);
                }
            });
        }
    }

    fn check_workspace(&self, obj: &AbsObject, span: Span, diags: &mut Vec<Diagnostic>) {
        if !obj.physical || self.facts.has_mutation {
            return;
        }
        let Some(ws) = self.scenario.world.workspace.aabb() else {
            return; // unbounded workspace: containment can't fail
        };
        let ws_box = BoxAbs::from_aabb(&ws);
        if obj.position.is_bounded() && obj.position.disjoint(&ws_box) {
            diags.push(
                Diagnostic::new(
                    Code::ObjectOutsideWorkspace,
                    span,
                    format!(
                        "every possible position of this `{}` lies outside the workspace, \
                         so every sample would be rejected by the containment requirement",
                        obj.class
                    ),
                )
                .with_help("move the object inside the workspace or enlarge the workspace"),
            );
        }
    }

    fn check_require(&mut self, hard: bool, cond: &Expr, span: Span, diags: &mut Vec<Diagnostic>) {
        let verdict = self.eval_bool(cond);
        match verdict {
            AbsBool::False if hard => diags.push(
                Diagnostic::new(
                    Code::UnsatisfiableRequirement,
                    span,
                    "this requirement is false for every possible sample, so the scenario \
                     can never generate a scene",
                )
                .with_help("the condition's abstract value is definitely false; fix or remove it"),
            ),
            AbsBool::True => diags.push(
                Diagnostic::new(
                    Code::VacuousRequirement,
                    span,
                    "this requirement is true for every possible sample, so it constrains \
                     nothing",
                )
                .with_help("remove it, or tighten it if it was meant to constrain the scene"),
            ),
            _ => {}
        }
        // I203: `require (distance ...) < M` with constant M below the
        // derived max-distance bound is a pruning opportunity the
        // syntactic derivation cannot prove on its own.
        if hard {
            if let Expr::Compare { op, lhs, rhs } = cond {
                use scenic_lang::ast::CmpOp;
                if matches!(op, CmpOp::Lt | CmpOp::Le) && matches!(**lhs, Expr::DistanceTo { .. }) {
                    if let Some(bound) = self.eval(rhs).as_num() {
                        if bound.hi.is_finite() && bound.hi < self.derived_max_distance {
                            diags.push(
                                Diagnostic::new(
                                    Code::PruningOpportunity,
                                    span,
                                    format!(
                                        "this requirement bounds a distance by {} m (tighter than \
                                         the derived {} m maximum)",
                                        bound.hi, self.derived_max_distance
                                    ),
                                )
                                .with_help(format!(
                                    "`scenic prune-report --max-distance {}` would exploit it",
                                    bound.hi
                                )),
                            );
                        }
                    }
                }
            }
        }
    }

    fn eval_bool(&mut self, expr: &Expr) -> AbsBool {
        match self.eval(expr) {
            AbsValue::Bool(b) => b,
            _ => AbsBool::Unknown,
        }
    }

    fn eval(&mut self, expr: &Expr) -> AbsValue {
        use Expr::*;
        match expr {
            Number(n) => AbsValue::Num(self::Interval::point(*n)),
            Bool(b) => AbsValue::Bool(if *b { AbsBool::True } else { AbsBool::False }),
            Str(_) => AbsValue::Top,
            Expr::None => AbsValue::None,
            Ident(name) | Resolved(scenic_lang::Resolved { name, .. }) => {
                self.env.get(name).cloned().unwrap_or(AbsValue::Top)
            }
            Vector(a, b) => {
                let (x, y) = (self.eval(a), self.eval(b));
                match (x.as_num(), y.as_num()) {
                    (Some(x), Some(y)) => AbsValue::Vec(BoxAbs { x, y }),
                    _ => AbsValue::Top,
                }
            }
            Interval(a, b) => {
                // `(lo, hi)` draws uniformly: the abstract value is the
                // hull of everything either bound could be.
                match (self.eval(a).as_num(), self.eval(b).as_num()) {
                    (Some(lo), Some(hi)) => AbsValue::Num(lo.join(hi)),
                    _ => AbsValue::Top,
                }
            }
            Call { func, args, .. } => self.eval_call(func, args),
            Attribute { obj, name } => {
                let base = self.eval(obj);
                match (&base, name.as_str()) {
                    (AbsValue::Object(o), "position") => AbsValue::Vec(o.position),
                    (AbsValue::Object(o), "heading") => AbsValue::Num(o.heading),
                    (AbsValue::Object(o), "width") => AbsValue::Num(o.width),
                    (AbsValue::Object(o), "height") => AbsValue::Num(o.height),
                    (AbsValue::Vec(b), "x") => AbsValue::Num(b.x),
                    (AbsValue::Vec(b), "y") => AbsValue::Num(b.y),
                    _ => AbsValue::Top,
                }
            }
            Index { .. } | List(_) | Dict(_) => AbsValue::Top,
            Neg(e) => match self.eval(e).as_num() {
                Some(i) => AbsValue::Num(i.neg()),
                _ => AbsValue::Top,
            },
            NotOp(e) => AbsValue::Bool(self.eval_bool(e).not()),
            Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs),
            Compare { op, lhs, rhs } => self.eval_compare(*op, lhs, rhs),
            IfElse {
                cond,
                then,
                otherwise,
            } => match self.eval_bool(cond) {
                AbsBool::True => self.eval(then),
                AbsBool::False => self.eval(otherwise),
                AbsBool::Unknown => {
                    let (a, b) = (self.eval(then), self.eval(otherwise));
                    match (a.as_num(), b.as_num()) {
                        (Some(x), Some(y)) => AbsValue::Num(x.join(y)),
                        _ => AbsValue::Top,
                    }
                }
            },
            Deg(e) => match self.eval(e).as_num() {
                Some(i) => AbsValue::Num(i.scale(std::f64::consts::PI / 180.0)),
                _ => AbsValue::Top,
            },
            RelativeTo(a, b) => {
                let (x, y) = (self.eval(a), self.eval(b));
                match (&x, &y) {
                    (AbsValue::Num(i), AbsValue::Num(j)) => AbsValue::Num(i.add(*j)),
                    (AbsValue::Vec(v), AbsValue::Vec(w)) => AbsValue::Vec(v.add(*w)),
                    // `H relative to <field>` — the field's heading at
                    // an unknown point is unknown.
                    _ => AbsValue::Top,
                }
            }
            OffsetBy(base, offset) => self.offset_box(base, offset),
            OffsetAlong { base, offset, .. } => self.offset_box(base, offset),
            FieldAt(..) => AbsValue::Top,
            CanSee(..) => AbsValue::Bool(AbsBool::Unknown),
            IsIn(x, region) => {
                let item = self.eval(x);
                let reg = self.eval(region);
                match (item.as_box(), &reg) {
                    (Some(b), AbsValue::Region(Some(r))) if b.is_bounded() && b.disjoint(r) => {
                        AbsValue::Bool(AbsBool::False)
                    }
                    _ => AbsValue::Bool(AbsBool::Unknown),
                }
            }
            DistanceTo { from, to } => {
                let from_box = match from {
                    Some(e) => self.eval(e).as_box(),
                    Option::None => self.ego_box(),
                };
                let to_box = self.eval(to).as_box();
                match (from_box, to_box) {
                    (Some(a), Some(b)) => AbsValue::Num(a.distance(&b)),
                    _ => AbsValue::Num(self::Interval {
                        lo: 0.0,
                        hi: f64::INFINITY,
                    }),
                }
            }
            AngleTo { .. } | RelativeHeadingOf { .. } | ApparentHeadingOf { .. } => {
                // Normalized angles (Appendix C).
                AbsValue::Num(self::Interval::new(
                    -std::f64::consts::PI,
                    std::f64::consts::PI,
                ))
            }
            Visible(r) | VisibleFrom(r, _) => {
                // The visible part of a region is a subset of it.
                self.eval(r)
            }
            Follow { .. } => AbsValue::Top,
            BoxPointOf { obj, .. } => {
                // A box edge/corner point is within (w+h)/2 of the
                // center for any rotation (L1 bound).
                match self.eval(obj) {
                    AbsValue::Object(o) => {
                        let m = (o.width.max_abs() + o.height.max_abs()) / 2.0;
                        AbsValue::Vec(o.position.inflate(m))
                    }
                    v => match v.as_box() {
                        Some(b) => AbsValue::Vec(b),
                        _ => AbsValue::Top,
                    },
                }
            }
            Ctor {
                class, specifiers, ..
            } => self.eval_ctor(class, specifiers),
        }
    }

    /// `base offset by v` / `offset along D by v`: the result stays
    /// within the L1 norm of the offset from the base, whatever the
    /// rotation frame.
    fn offset_box(&mut self, base: &Expr, offset: &Expr) -> AbsValue {
        let b = self.eval(base).as_box();
        let o = self.eval(offset);
        match (b, &o) {
            (Some(b), AbsValue::Vec(v)) => AbsValue::Vec(b.inflate(v.x.max_abs() + v.y.max_abs())),
            _ => AbsValue::Top,
        }
    }

    fn ego_box(&self) -> Option<BoxAbs> {
        self.env.get("ego").and_then(AbsValue::as_box)
    }

    fn eval_call(&mut self, func: &Expr, args: &[Expr]) -> AbsValue {
        let Expr::Ident(name) = func else {
            return AbsValue::Top;
        };
        // A user rebinding of a builtin name makes the call opaque.
        if self.env.contains_key(name) {
            return AbsValue::Top;
        }
        match (name.as_str(), args) {
            ("Uniform", args) if !args.is_empty() => {
                let mut acc: Option<Interval> = None;
                for a in args {
                    match self.eval(a).as_num() {
                        Some(i) => acc = Some(acc.map_or(i, |j| j.join(i))),
                        Option::None => return AbsValue::Top,
                    }
                }
                AbsValue::Num(acc.expect("nonempty"))
            }
            ("Normal", _) => AbsValue::Num(Interval::top()),
            ("TruncatedNormal", [_, _, lo, hi]) => {
                match (self.eval(lo).as_num(), self.eval(hi).as_num()) {
                    (Some(lo), Some(hi)) => AbsValue::Num(Interval {
                        lo: lo.lo,
                        hi: hi.hi,
                    }),
                    _ => AbsValue::Top,
                }
            }
            ("resample", [arg]) => self.eval(arg),
            ("abs", [arg]) => match self.eval(arg).as_num() {
                Some(i) => AbsValue::Num(i.abs()),
                _ => AbsValue::Top,
            },
            ("min" | "max", args) if !args.is_empty() => {
                let mut nums = Vec::new();
                for a in args {
                    match self.eval(a).as_num() {
                        Some(i) => nums.push(i),
                        Option::None => return AbsValue::Top,
                    }
                }
                let fold = |f: fn(f64, f64) -> f64, pick: fn(&Interval) -> f64| {
                    nums.iter().map(pick).reduce(f).expect("nonempty")
                };
                if name == "min" {
                    AbsValue::Num(Interval {
                        lo: fold(f64::min, |i| i.lo),
                        hi: fold(f64::min, |i| i.hi),
                    })
                } else {
                    AbsValue::Num(Interval {
                        lo: fold(f64::max, |i| i.lo),
                        hi: fold(f64::max, |i| i.hi),
                    })
                }
            }
            ("sqrt", [arg]) => match self.eval(arg).as_num() {
                Some(i) => AbsValue::Num(Interval {
                    lo: i.lo.max(0.0).sqrt(),
                    hi: i.hi.max(0.0).sqrt(),
                }),
                _ => AbsValue::Top,
            },
            _ => AbsValue::Top,
        }
    }

    fn eval_binary(&mut self, op: scenic_lang::ast::BinOp, lhs: &Expr, rhs: &Expr) -> AbsValue {
        use scenic_lang::ast::BinOp;
        match op {
            BinOp::And => AbsValue::Bool(self.eval_bool(lhs).and(self.eval_bool(rhs))),
            BinOp::Or => AbsValue::Bool(self.eval_bool(lhs).or(self.eval_bool(rhs))),
            _ => {
                let (a, b) = (self.eval(lhs), self.eval(rhs));
                match (a.as_num(), b.as_num()) {
                    (Some(x), Some(y)) => match op {
                        BinOp::Add => AbsValue::Num(x.add(y)),
                        BinOp::Sub => AbsValue::Num(x.sub(y)),
                        BinOp::Mul => AbsValue::Num(x.mul(y)),
                        // Division/modulo intervals need pole handling;
                        // Unknown is sound.
                        _ => AbsValue::Top,
                    },
                    _ => AbsValue::Top,
                }
            }
        }
    }

    fn eval_compare(&mut self, op: scenic_lang::ast::CmpOp, lhs: &Expr, rhs: &Expr) -> AbsValue {
        use scenic_lang::ast::CmpOp;
        let (a, b) = (self.eval(lhs), self.eval(rhs));
        if matches!(op, CmpOp::Is | CmpOp::IsNot) {
            let same = match (&a, &b) {
                (AbsValue::None, AbsValue::None) => AbsBool::True,
                (AbsValue::None, AbsValue::Top) | (AbsValue::Top, AbsValue::None) => {
                    AbsBool::Unknown
                }
                (AbsValue::None, _) | (_, AbsValue::None) => AbsBool::False,
                _ => AbsBool::Unknown,
            };
            return AbsValue::Bool(if matches!(op, CmpOp::Is) {
                same
            } else {
                same.not()
            });
        }
        let (Some(x), Some(y)) = (a.as_num(), b.as_num()) else {
            return AbsValue::Bool(AbsBool::Unknown);
        };
        let verdict = match op {
            CmpOp::Lt => {
                if x.hi < y.lo {
                    AbsBool::True
                } else if x.lo >= y.hi {
                    AbsBool::False
                } else {
                    AbsBool::Unknown
                }
            }
            CmpOp::Le => {
                if x.hi <= y.lo {
                    AbsBool::True
                } else if x.lo > y.hi {
                    AbsBool::False
                } else {
                    AbsBool::Unknown
                }
            }
            CmpOp::Gt => {
                if x.lo > y.hi {
                    AbsBool::True
                } else if x.hi <= y.lo {
                    AbsBool::False
                } else {
                    AbsBool::Unknown
                }
            }
            CmpOp::Ge => {
                if x.lo >= y.hi {
                    AbsBool::True
                } else if x.hi < y.lo {
                    AbsBool::False
                } else {
                    AbsBool::Unknown
                }
            }
            CmpOp::Eq => {
                if x.hi < y.lo || y.hi < x.lo {
                    AbsBool::False
                } else if x.lo == x.hi && y.lo == y.hi && x.lo == y.lo {
                    AbsBool::True
                } else {
                    AbsBool::Unknown
                }
            }
            CmpOp::Ne => {
                if x.hi < y.lo || y.hi < x.lo {
                    AbsBool::True
                } else if x.lo == x.hi && y.lo == y.hi && x.lo == y.lo {
                    AbsBool::False
                } else {
                    AbsBool::Unknown
                }
            }
            CmpOp::Is | CmpOp::IsNot => unreachable!("handled above"),
        };
        AbsValue::Bool(verdict)
    }

    // -----------------------------------------------------------------
    // Constructors and specifier composition
    // -----------------------------------------------------------------

    fn eval_ctor(&mut self, class: &str, specifiers: &[Specifier]) -> AbsValue {
        let mut obj = AbsObject {
            class: class.to_string(),
            physical: self.facts.must_be_physical(class),
            position: self.class_default_box(class),
            heading: Interval::top(),
            width: self.class_default_dim(class, "width"),
            height: self.class_default_dim(class, "height"),
        };
        if self.facts.has_mutation {
            obj.position = BoxAbs::top();
        }
        for spec in specifiers {
            self.apply_specifier(&mut obj, spec);
        }
        AbsValue::Object(Box::new(obj))
    }

    /// The abstract position of a class's `position:` default (e.g.
    /// gtaLib's `Point on road` → the road's bounding box).
    fn class_default_box(&mut self, class: &str) -> BoxAbs {
        match self.facts.known_default(class, "position") {
            Some(e) => self.eval(e).as_box().unwrap_or_else(BoxAbs::top),
            Option::None => BoxAbs::top(),
        }
    }

    fn class_default_dim(&mut self, class: &str, prop: &str) -> Interval {
        match self.facts.known_default(class, prop) {
            Some(e) => self.eval(e).as_num().unwrap_or_else(Interval::top),
            Option::None => Interval::top(),
        }
    }

    fn apply_specifier(&mut self, obj: &mut AbsObject, spec: &Specifier) {
        use Specifier::*;
        match spec {
            At(e) => {
                obj.position = self.eval(e).as_box().unwrap_or_else(BoxAbs::top);
            }
            InRegion(e) => {
                obj.position = match self.eval(e) {
                    AbsValue::Region(Some(b)) => b,
                    AbsValue::Vec(b) => b,
                    _ => BoxAbs::top(),
                };
                obj.heading = Interval::top();
            }
            OffsetBy(e) => {
                let v = self.eval(e);
                obj.position = match (self.ego_box(), &v) {
                    (Some(ego), AbsValue::Vec(o)) => ego.inflate(o.x.max_abs() + o.y.max_abs()),
                    _ => BoxAbs::top(),
                };
            }
            OffsetAlong(_, e) => {
                let v = self.eval(e);
                obj.position = match (self.ego_box(), &v) {
                    (Some(ego), AbsValue::Vec(o)) => ego.inflate(o.x.max_abs() + o.y.max_abs()),
                    _ => BoxAbs::top(),
                };
            }
            Beside { target, by, .. } => {
                let t = self.eval(target);
                let gap = match by {
                    Some(e) => self.eval(e).as_num().map(|i| i.max_abs()),
                    Option::None => Some(0.0),
                };
                obj.position = match (t.as_box(), gap) {
                    (Some(tb), Some(g)) => {
                        // At most (dims of both)/2 + gap from the target
                        // center, any rotation.
                        let t_extent = match &t {
                            AbsValue::Object(to) => {
                                (to.width.max_abs() + to.height.max_abs()) / 2.0
                            }
                            _ => 0.0,
                        };
                        let s_extent = (obj.width.max_abs() + obj.height.max_abs()) / 2.0;
                        tb.inflate(t_extent + s_extent + g)
                    }
                    _ => BoxAbs::top(),
                };
            }
            Beyond { target, offset, .. } => {
                let t = self.eval(target).as_box();
                let o = self.eval(offset);
                obj.position = match (t, &o) {
                    (Some(tb), AbsValue::Vec(ov)) => tb.inflate(ov.x.max_abs() + ov.y.max_abs()),
                    _ => BoxAbs::top(),
                };
            }
            Visible(from) => {
                // Within the viewer's view distance of the viewer.
                let viewer = match from {
                    Some(e) => self.eval(e).as_box(),
                    Option::None => self.ego_box(),
                };
                let reach = self.derived_max_distance.max(50.0);
                obj.position = match viewer {
                    Some(b) => b.inflate(reach),
                    Option::None => BoxAbs::top(),
                };
            }
            Following { .. } => {
                obj.position = BoxAbs::top();
                obj.heading = Interval::top();
            }
            Facing(e) => {
                obj.heading = self.eval(e).as_num().unwrap_or_else(Interval::top);
            }
            FacingToward(_) | FacingAwayFrom(_) | ApparentlyFacing { .. } => {
                obj.heading = Interval::top();
            }
            With(prop, e) => {
                let v = self.eval(e);
                match prop.as_str() {
                    "position" => obj.position = v.as_box().unwrap_or_else(BoxAbs::top),
                    "heading" => obj.heading = v.as_num().unwrap_or_else(Interval::top),
                    "width" => obj.width = v.as_num().unwrap_or_else(Interval::top),
                    "height" => obj.height = v.as_num().unwrap_or_else(Interval::top),
                    _ => {}
                }
            }
            Using { name, .. } => {
                // Widen exactly the properties the user specifier can
                // set (all of them if it is unknown).
                let props = self
                    .facts
                    .specifier_properties(name)
                    .unwrap_or(&["position", "heading", "width", "height"]);
                for p in props {
                    match *p {
                        "position" => obj.position = BoxAbs::top(),
                        "heading" => obj.heading = Interval::top(),
                        "width" => obj.width = Interval::top(),
                        "height" => obj.height = Interval::top(),
                        _ => {}
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use scenic_geom::{Region, Vec2};

    fn lint(source: &str) -> Vec<Diagnostic> {
        let scenario = crate::compile(source).expect("compiles");
        analyze(&scenario)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn interval_arithmetic_is_conservative() {
        let a = Interval::new(1.0, 3.0);
        let b = Interval::new(-2.0, 2.0);
        assert_eq!(a.add(b), Interval::new(-1.0, 5.0));
        assert_eq!(a.mul(b), Interval::new(-6.0, 6.0));
        assert_eq!(b.abs(), Interval::new(0.0, 2.0));
        assert_eq!(a.sub(a), Interval::new(-2.0, 2.0));
        let top = Interval::top();
        assert!(top.mul(Interval::point(0.0)).lo == 0.0);
    }

    #[test]
    fn always_false_requirement_is_e101() {
        let diags = lint("ego = Object at 0 @ 0\nrequire 1 > 2\n");
        assert!(codes(&diags).contains(&"E101"), "{diags:?}");
        let d = diags
            .iter()
            .find(|d| d.code == Code::UnsatisfiableRequirement)
            .unwrap();
        assert_eq!(d.span.unwrap().start.line, 2);
    }

    #[test]
    fn negative_distance_requirement_is_e101() {
        let diags = lint(
            "ego = Object at 0 @ 0\nother = Object at (3, 5) @ 0\nrequire (distance to other) < 0\n",
        );
        assert!(codes(&diags).contains(&"E101"), "{diags:?}");
    }

    #[test]
    fn always_true_requirement_is_w104() {
        let diags = lint("ego = Object at 0 @ 0\nrequire (distance to 9 @ 0) >= 0\n");
        assert!(codes(&diags).contains(&"W104"), "{diags:?}");
    }

    #[test]
    fn uniform_draws_stay_unknown() {
        // Satisfiable and falsifiable: (3, 7) vs 5 must be Unknown.
        let diags = lint("ego = Object at 0 @ 0\nrequire (3, 7) > 5\n");
        assert!(!codes(&diags).contains(&"E101"), "{diags:?}");
        assert!(!codes(&diags).contains(&"W104"), "{diags:?}");
        // But (3, 7) > 2 is definite.
        let diags = lint("ego = Object at 0 @ 0\nrequire (3, 7) > 2\n");
        assert!(codes(&diags).contains(&"W104"), "{diags:?}");
    }

    #[test]
    fn normal_noise_is_unbounded() {
        let diags = lint("x = Normal(0, 1)\nego = Object at 0 @ 0\nrequire x < 1000000\n");
        assert!(!codes(&diags).contains(&"W104"), "{diags:?}");
    }

    #[test]
    fn unused_definition_is_w001() {
        let diags = lint("ego = Object at 0 @ 0\nunused = 5\n");
        let d = diags
            .iter()
            .find(|d| d.code == Code::UnusedDefinition)
            .expect("W001");
        assert_eq!(d.span.unwrap().start.line, 2);
        assert_eq!(d.span.unwrap().end.col - d.span.unwrap().start.col, 6);
    }

    #[test]
    fn underscore_names_opt_out_of_w001() {
        let diags = lint("ego = Object at 0 @ 0\n_scratch = 5\n");
        assert!(!codes(&diags).contains(&"W001"), "{diags:?}");
    }

    #[test]
    fn dead_rebinding_is_w002() {
        let diags = lint("ego = Object at 0 @ 0\nx = 1\nx = 2\nrequire ego can see 0 @ x\n");
        let d = diags
            .iter()
            .find(|d| d.code == Code::ShadowedBinding)
            .expect("W002");
        assert_eq!(d.span.unwrap().start.line, 3);
        // The name is used later, so no W001.
        assert!(!codes(&diags).contains(&"W001"), "{diags:?}");
    }

    #[test]
    fn rebinding_after_a_read_is_fine() {
        let diags =
            lint("ego = Object at 0 @ 0\nx = 1\ny = x + 1\nx = y\nrequire ego can see 0 @ x\n");
        assert!(!codes(&diags).contains(&"W002"), "{diags:?}");
    }

    #[test]
    fn shadowing_a_builtin_is_w002() {
        let diags = lint("ego = Object at 0 @ 0\nabs = 3\nrequire ego can see 0 @ abs\n");
        assert!(codes(&diags).contains(&"W002"), "{diags:?}");
    }

    #[test]
    fn object_outside_workspace_is_w103() {
        let world = World::with_workspace(Region::rectangle(Vec2::new(0.0, 0.0), 20.0, 20.0));
        let scenario =
            crate::compile_with_world("ego = Object at 0 @ 0\nObject at 100 @ 100\n", &world)
                .expect("compiles");
        let diags = analyze(&scenario);
        let d = diags
            .iter()
            .find(|d| d.code == Code::ObjectOutsideWorkspace)
            .expect("W103");
        assert_eq!(d.span.unwrap().start.line, 2);
        // The in-bounds ego is not flagged.
        assert_eq!(
            codes(&diags).iter().filter(|c| **c == "W103").count(),
            1,
            "{diags:?}"
        );
    }

    #[test]
    fn mutation_suppresses_w103_and_position_facts() {
        let world = World::with_workspace(Region::rectangle(Vec2::new(0.0, 0.0), 20.0, 20.0));
        let scenario = crate::compile_with_world(
            "ego = Object at 0 @ 0\nObject at 100 @ 100\nmutate\n",
            &world,
        )
        .expect("compiles");
        let diags = analyze(&scenario);
        assert!(!codes(&diags).contains(&"W103"), "{diags:?}");
    }

    #[test]
    fn pruner_decisions_are_reported() {
        let diags = lint("ego = Object at 0 @ 0\n");
        let infos: Vec<_> = diags
            .iter()
            .filter(|d| matches!(d.code, Code::PrunerDisabled | Code::PrunerEnabled))
            .collect();
        assert_eq!(infos.len(), 3, "{diags:?}");
        // Orientation and size are never syntactically derivable.
        assert!(infos
            .iter()
            .any(|d| d.code == Code::PrunerDisabled && d.message.contains("orientation")));
        assert!(infos
            .iter()
            .any(|d| d.code == Code::PrunerDisabled && d.message.contains("size")));
    }

    #[test]
    fn conditional_requires_are_not_judged() {
        let diags = lint("ego = Object at 0 @ 0\nx = 1\nif x > 0:\n    require 1 > 2\n");
        assert!(!codes(&diags).contains(&"E101"), "{diags:?}");
    }

    #[test]
    fn branch_assignments_widen() {
        let diags = lint(
            "ego = Object at 0 @ 0\nx = 1\nif ego.position.x > 0:\n    x = 100\nrequire x < 50\n",
        );
        assert!(!codes(&diags).contains(&"E101"), "{diags:?}");
        assert!(!codes(&diags).contains(&"W104"), "{diags:?}");
    }

    #[test]
    fn diagnostics_are_ordered_by_position() {
        let diags = lint("ego = Object at 0 @ 0\nunusedB = 2\nunusedA = 1\nrequire 1 > 2\n");
        let spanned: Vec<u32> = diags
            .iter()
            .filter_map(|d| d.span.map(|s| s.start.line))
            .collect();
        let mut sorted = spanned.clone();
        sorted.sort_unstable();
        assert_eq!(spanned, sorted, "{diags:?}");
    }
}
