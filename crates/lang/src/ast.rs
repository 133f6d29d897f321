//! Abstract syntax tree for Scenic.
//!
//! Mirrors the grammar of Fig. 5 in the paper: statements (Table 5),
//! expressions/operators (Fig. 7), and specifiers (Tables 3 & 4).

use crate::token::Span;
use std::fmt;
use std::sync::Arc;

/// A parsed Scenic scenario: a sequence of imports followed by
/// statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Top-level statements in source order.
    pub statements: Vec<Stmt>,
}

/// A statement, tagged with the source range it covers.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// What the statement does.
    pub kind: StmtKind,
    /// Source range of the statement (for a block statement, the whole
    /// block including its body).
    pub span: Span,
}

/// Structural equality: two statements are equal when they do the same
/// thing, wherever they sit in the source (so a pretty-print/re-parse
/// round trip compares equal even though the layout moved).
impl PartialEq for Stmt {
    fn eq(&self, other: &Self) -> bool {
        self.kind == other.kind
    }
}

impl Stmt {
    /// The 1-based source line where the statement starts.
    pub fn line(&self) -> u32 {
        self.span.start.line
    }

    /// Calls `f` on every expression node of the statement's own
    /// expressions (see [`Stmt::for_each_child`]), parents first, but not
    /// on those of the statements nested in it.
    pub fn walk_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.for_each_child(&mut |child| {
            if let StmtChild::Expr(e) = child {
                e.walk(f);
            }
        });
    }
}

/// Calls `f` on every statement of `stmts` and of the blocks nested in
/// them, at every depth, each statement before its nested ones.
pub fn for_each_stmt<'a>(stmts: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for_each_stmt_framed(stmts, false, &mut |stmt, _| f(stmt));
}

/// [`for_each_stmt`], also telling `f` whether the statement sits in a
/// `def` or `specifier` body at any depth (`in_frame` says whether
/// `stmts` itself does).
pub fn for_each_stmt_framed<'a>(
    stmts: &'a [Stmt],
    in_frame: bool,
    f: &mut impl FnMut(&'a Stmt, bool),
) {
    for stmt in stmts {
        f(stmt, in_frame);
        stmt.for_each_child(&mut |child| {
            if let StmtChild::Block { body, frame } = child {
                for_each_stmt_framed(body, in_frame || frame, f);
            }
        });
    }
}

/// One child of a statement, as [`Stmt::for_each_child`] visits it.
#[derive(Debug, Clone, Copy)]
pub enum StmtChild<'a> {
    /// One of the statement's own expressions: a value, a condition, an
    /// iterated expression, a parameter default or a class default.
    Expr(&'a Expr),
    /// A nested block of statements.
    Block {
        /// The block's statements.
        body: &'a [Stmt],
        /// Whether the block runs in a frame of its own: a `def` or
        /// `specifier` body, not an `if`, `for` or `while` body.
        frame: bool,
    },
}

/// One child of a statement, as [`Stmt::for_each_child_mut`] visits it.
#[derive(Debug)]
pub enum StmtChildMut<'a> {
    /// One of the statement's own expressions.
    Expr(&'a mut Expr),
    /// A nested block of statements.
    Block {
        /// The block's statements.
        body: &'a mut [Stmt],
        /// Whether the block runs in a frame of its own.
        frame: bool,
    },
}

/// Defines the child visits of [`Expr`], [`Specifier`] and [`Stmt`] from
/// one list of each variant's children: invoked once for the shared form
/// and once, with `mut`, for the mutable form, so the two cannot disagree.
/// `$arc` reaches through the `Arc`s that share syntax; the mutable form
/// passes `Arc::make_mut`, which copies shared syntax on write.
///
/// Children come in one fixed order, which the compiled engine's lowering
/// numbers construction sites by: the callee before the arguments, an
/// `if`-expression's condition before its arms, a statement's expressions
/// and blocks in source order (each `if` condition before its body).
macro_rules! child_visits {
    ($visit:ident, $child:ident, $arc:path $(, $m:ident)?) => {
        impl Expr {
            /// Calls `f` on each direct subexpression.
            pub fn $visit<'a>(&'a $($m)? self, f: &mut impl FnMut(&'a $($m)? Expr)) {
                match self {
                    Expr::Number(_)
                    | Expr::Bool(_)
                    | Expr::Str(_)
                    | Expr::None
                    | Expr::Ident(_)
                    | Expr::Resolved(_) => {}
                    Expr::Attribute { obj: e, .. }
                    | Expr::Neg(e)
                    | Expr::NotOp(e)
                    | Expr::Deg(e)
                    | Expr::Visible(e)
                    | Expr::BoxPointOf { obj: e, .. } => f(e),
                    Expr::Vector(a, b)
                    | Expr::Interval(a, b)
                    | Expr::RelativeTo(a, b)
                    | Expr::OffsetBy(a, b)
                    | Expr::FieldAt(a, b)
                    | Expr::CanSee(a, b)
                    | Expr::IsIn(a, b)
                    | Expr::VisibleFrom(a, b)
                    | Expr::Index { obj: a, key: b }
                    | Expr::Binary { lhs: a, rhs: b, .. }
                    | Expr::Compare { lhs: a, rhs: b, .. } => {
                        f(a);
                        f(b);
                    }
                    Expr::IfElse {
                        cond: a,
                        then: b,
                        otherwise: c,
                    }
                    | Expr::OffsetAlong {
                        base: a,
                        direction: b,
                        offset: c,
                    } => {
                        f(a);
                        f(b);
                        f(c);
                    }
                    Expr::Call { func, args, kwargs } => {
                        f(func);
                        for arg in args {
                            f(arg);
                        }
                        for (_, arg) in kwargs {
                            f(arg);
                        }
                    }
                    Expr::List(items) => {
                        for item in items {
                            f(item);
                        }
                    }
                    Expr::Dict(pairs) => {
                        for (k, v) in pairs {
                            f(k);
                            f(v);
                        }
                    }
                    Expr::DistanceTo { from, to: e } | Expr::AngleTo { from, to: e } => {
                        if let Some(from) = from {
                            f(from);
                        }
                        f(e);
                    }
                    Expr::RelativeHeadingOf { of: e, from }
                    | Expr::ApparentHeadingOf { of: e, from } => {
                        f(e);
                        if let Some(from) = from {
                            f(from);
                        }
                    }
                    Expr::Follow {
                        field,
                        from,
                        distance,
                    } => {
                        f(field);
                        if let Some(from) = from {
                            f(from);
                        }
                        f(distance);
                    }
                    Expr::Ctor { specifiers, .. } => {
                        for spec in specifiers {
                            spec.$visit(f);
                        }
                    }
                }
            }
        }

        impl Specifier {
            /// Calls `f` on each of the specifier's expressions.
            pub fn $visit<'a>(&'a $($m)? self, f: &mut impl FnMut(&'a $($m)? Expr)) {
                match self {
                    Specifier::With(_, e)
                    | Specifier::At(e)
                    | Specifier::OffsetBy(e)
                    | Specifier::InRegion(e)
                    | Specifier::Facing(e)
                    | Specifier::FacingToward(e)
                    | Specifier::FacingAwayFrom(e) => f(e),
                    Specifier::OffsetAlong(a, b) => {
                        f(a);
                        f(b);
                    }
                    Specifier::Beside { target, by, .. } => {
                        f(target);
                        if let Some(by) = by {
                            f(by);
                        }
                    }
                    Specifier::Beyond {
                        target,
                        offset,
                        from,
                    } => {
                        f(target);
                        f(offset);
                        if let Some(from) = from {
                            f(from);
                        }
                    }
                    Specifier::Visible(from) => {
                        if let Some(from) = from {
                            f(from);
                        }
                    }
                    Specifier::Following {
                        field,
                        from,
                        distance,
                    } => {
                        f(field);
                        if let Some(from) = from {
                            f(from);
                        }
                        f(distance);
                    }
                    Specifier::ApparentlyFacing { heading, from } => {
                        f(heading);
                        if let Some(from) = from {
                            f(from);
                        }
                    }
                    Specifier::Using { args, kwargs, .. } => {
                        for arg in args {
                            f(arg);
                        }
                        for (_, arg) in kwargs {
                            f(arg);
                        }
                    }
                }
            }
        }

        impl Stmt {
            /// Calls `f` on each of the statement's own expressions and on
            /// each block nested in it. The mutable form reaches syntax an
            /// `Arc` shares through `Arc::make_mut`, copying it on write.
            pub fn $visit<'a>(&'a $($m)? self, f: &mut impl FnMut($child<'a>)) {
                match &$($m)? self.kind {
                    StmtKind::Import(_) | StmtKind::Pass | StmtKind::Return(None) => {}
                    StmtKind::Assign { value: e, .. }
                    | StmtKind::Store { value: e, .. }
                    | StmtKind::Expr(e)
                    | StmtKind::Return(Some(e)) => f($child::Expr(e)),
                    StmtKind::Param(params) => {
                        for (_, e) in params {
                            f($child::Expr(e));
                        }
                    }
                    StmtKind::ClassDef(cd) => {
                        for (_, e) in &$($m)? cd.properties {
                            f($child::Expr($arc(e)));
                        }
                    }
                    StmtKind::Require { prob, cond } => {
                        if let Some(prob) = prob {
                            f($child::Expr(prob));
                        }
                        f($child::Expr($arc(cond)));
                    }
                    StmtKind::Mutate { scale, .. } => {
                        if let Some(scale) = scale {
                            f($child::Expr(scale));
                        }
                    }
                    StmtKind::FuncDef(fd) => {
                        let fd = $arc(fd);
                        for (_, default) in &$($m)? fd.params {
                            if let Some(default) = default {
                                f($child::Expr(default));
                            }
                        }
                        f($child::Block {
                            body: &$($m)? fd.body,
                            frame: true,
                        });
                    }
                    StmtKind::SpecifierDef(sd) => {
                        let sd = $arc(sd);
                        for (_, default) in &$($m)? sd.params {
                            if let Some(default) = default {
                                f($child::Expr(default));
                            }
                        }
                        f($child::Block {
                            body: &$($m)? sd.body,
                            frame: true,
                        });
                    }
                    StmtKind::If {
                        branches,
                        else_body,
                    } => {
                        for (cond, body) in branches {
                            f($child::Expr(cond));
                            f($child::Block { body, frame: false });
                        }
                        f($child::Block {
                            body: else_body,
                            frame: false,
                        });
                    }
                    StmtKind::For { iter: e, body, .. } | StmtKind::While { cond: e, body } => {
                        f($child::Expr(e));
                        f($child::Block { body, frame: false });
                    }
                }
            }
        }
    };
}

child_visits!(for_each_child, StmtChild, Arc::as_ref);
child_visits!(for_each_child_mut, StmtChildMut, Arc::make_mut, mut);

/// Statement kinds (Table 5, plus the Python-inherited control flow the
/// paper mentions in §4: conditionals, loops, functions, methods).
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `import file`
    Import(String),
    /// `identifier = value`
    Assign {
        /// Assignment target.
        name: String,
        /// Right-hand side.
        value: Expr,
    },
    /// `identifier = value` whose target the compiled engine's lowering
    /// resolved to a slot (never produced by the parser).
    Store {
        /// Assignment target and its slot.
        target: Resolved,
        /// Right-hand side.
        value: Expr,
    },
    /// `param identifier = value, ...`
    Param(Vec<(String, Expr)>),
    /// `class Name[(Superclass)]: property: default ...`
    ClassDef(ClassDef),
    /// A bare expression (usually an object definition).
    Expr(Expr),
    /// `require B` / `require[p] B`
    Require {
        /// Soft-requirement probability (hard requirement when `None`).
        prob: Option<Expr>,
        /// The condition that must hold, shared with every check deferred
        /// to termination.
        cond: Arc<Expr>,
    },
    /// `mutate x, y by n` (empty target list = every object).
    Mutate {
        /// Objects to mutate (all objects when empty).
        targets: Vec<String>,
        /// Noise scale (default 1).
        scale: Option<Expr>,
    },
    /// `def name(params): body`, shared with every function value the
    /// statement creates.
    FuncDef(Arc<FuncDef>),
    /// `specifier name(params) specifies props …: body` — a user-defined
    /// specifier (the extension named in §8 of the paper), shared with
    /// every specifier value the statement creates.
    SpecifierDef(Arc<SpecifierDef>),
    /// `return [expr]`
    Return(Option<Expr>),
    /// `if/elif/else`
    If {
        /// `(condition, body)` pairs for `if` and each `elif`.
        branches: Vec<(Expr, Vec<Stmt>)>,
        /// The `else` body (possibly empty).
        else_body: Vec<Stmt>,
    },
    /// `for var in iterable: body`
    For {
        /// Loop variable.
        var: String,
        /// Iterated expression (e.g. `range(n)` or a list).
        iter: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `while cond: body` (condition must be non-random, §4).
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `pass`
    Pass,
}

/// A class definition with per-property default-value expressions
/// (evaluated per instance, §4.1).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDef {
    /// Class name.
    pub name: String,
    /// Optional superclass (defaults to `Object` at runtime).
    pub superclass: Option<String>,
    /// `property: defaultValueExpr` pairs in declaration order. Each
    /// expression is shared with every runtime class the definition
    /// creates.
    pub properties: Vec<(String, Arc<Expr>)>,
}

/// A user-defined specifier definition:
///
/// ```text
/// specifier name(params) specifies p1, p2 [optionally q1, …] [requires d1, …]:
///     body ending in `return {"p1": …, "p2": …}`
/// ```
///
/// At a construction site it is applied with `using name(args)`. The
/// body runs with `self` bound to the object under construction (the
/// `requires` properties are guaranteed to be assigned already, exactly
/// like the dependencies of built-in specifiers in Algorithm 1) and must
/// return a dictionary mapping each specified property name to its
/// value. Optional properties may be omitted from the result and are
/// overridden by any other specifier that targets them.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecifierDef {
    /// Specifier name.
    pub name: String,
    /// Parameters with optional default expressions.
    pub params: Vec<(String, Option<Expr>)>,
    /// Properties specified non-optionally.
    pub specifies: Vec<String>,
    /// Properties specified optionally (other specifiers may override).
    pub optional: Vec<String>,
    /// Properties the body reads from `self` (its dependencies).
    pub requires: Vec<String>,
    /// Body statements (must `return` a dict of property values).
    pub body: Vec<Stmt>,
    /// The frame slot of each parameter (see [`FuncDef::param_slots`]).
    pub param_slots: Vec<Option<u32>>,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Parameters with optional default expressions.
    pub params: Vec<(String, Option<Expr>)>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// The slot of each parameter in the call's frame, by position, where
    /// the compiled engine's lowering resolved it (`None` binds that
    /// parameter by name). The parser leaves it empty: every parameter is
    /// bound by name.
    pub param_slots: Vec<Option<u32>>,
}

/// Binary arithmetic/logic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `and`
    And,
    /// `or`
    Or,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `is` (identity; used for `is None`)
    Is,
    /// `is not`
    IsNot,
}

/// Sides for the positional operators/specifiers (`left of`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// `left of`
    Left,
    /// `right of`
    Right,
    /// `ahead of`
    Ahead,
    /// `behind`
    Behind,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Left => write!(f, "left of"),
            Side::Right => write!(f, "right of"),
            Side::Ahead => write!(f, "ahead of"),
            Side::Behind => write!(f, "behind"),
        }
    }
}

/// Corners/edges for `front of`, `back left of`, … (Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoxPoint {
    /// `front of`
    Front,
    /// `back of`
    Back,
    /// `left of`
    Left,
    /// `right of`
    Right,
    /// `front left of`
    FrontLeft,
    /// `front right of`
    FrontRight,
    /// `back left of`
    BackLeft,
    /// `back right of`
    BackRight,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Number(f64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
    /// `None`.
    None,
    /// Variable reference.
    Ident(String),
    /// Variable reference the compiled engine's lowering resolved to an
    /// address (never produced by the parser).
    Resolved(Resolved),
    /// `X @ Y` vector construction.
    Vector(Box<Expr>, Box<Expr>),
    /// `(low, high)` uniform-interval distribution.
    Interval(Box<Expr>, Box<Expr>),
    /// `f(args, kw=...)`
    Call {
        /// Callee expression.
        func: Box<Expr>,
        /// Positional arguments.
        args: Vec<Expr>,
        /// Keyword arguments.
        kwargs: Vec<(String, Expr)>,
    },
    /// `obj.attr`
    Attribute {
        /// Receiver.
        obj: Box<Expr>,
        /// Attribute name.
        name: String,
    },
    /// `obj[key]`
    Index {
        /// Receiver.
        obj: Box<Expr>,
        /// Key expression.
        key: Box<Expr>,
    },
    /// `[a, b, ...]`
    List(Vec<Expr>),
    /// `{k: v, ...}`
    Dict(Vec<(Expr, Expr)>),
    /// Unary negation `-x`.
    Neg(Box<Expr>),
    /// `not x`.
    NotOp(Box<Expr>),
    /// Binary operator application.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Comparison.
    Compare {
        /// Operator.
        op: CmpOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `a if cond else b` (Python conditional expression).
    IfElse {
        /// Condition (must be non-random, §4).
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        otherwise: Box<Expr>,
    },
    /// `X deg` — degrees-to-radians conversion.
    Deg(Box<Expr>),
    /// `X relative to Y` (headings, vectors, or fields).
    RelativeTo(Box<Expr>, Box<Expr>),
    /// `V offset by V`.
    OffsetBy(Box<Expr>, Box<Expr>),
    /// `V offset along D by V`.
    OffsetAlong {
        /// Base vector.
        base: Box<Expr>,
        /// Direction (heading or vector field).
        direction: Box<Expr>,
        /// Offset vector.
        offset: Box<Expr>,
    },
    /// `F at V` — vector field evaluation.
    FieldAt(Box<Expr>, Box<Expr>),
    /// `X can see Y`.
    CanSee(Box<Expr>, Box<Expr>),
    /// `X is in R` (also `X in R` in require conditions).
    IsIn(Box<Expr>, Box<Expr>),
    /// `distance [from X] to Y`.
    DistanceTo {
        /// Origin (`ego` when omitted).
        from: Option<Box<Expr>>,
        /// Target vector.
        to: Box<Expr>,
    },
    /// `angle [from X] to Y`.
    AngleTo {
        /// Origin (`ego` when omitted).
        from: Option<Box<Expr>>,
        /// Target vector.
        to: Box<Expr>,
    },
    /// `relative heading of H [from H2]`.
    RelativeHeadingOf {
        /// Subject heading.
        of: Box<Expr>,
        /// Reference (`ego.heading` when omitted).
        from: Option<Box<Expr>>,
    },
    /// `apparent heading of OP [from V]`.
    ApparentHeadingOf {
        /// Subject oriented point.
        of: Box<Expr>,
        /// Viewpoint (`ego.position` when omitted).
        from: Option<Box<Expr>>,
    },
    /// `visible R` — region visible from ego.
    Visible(Box<Expr>),
    /// `R visible from P`.
    VisibleFrom(Box<Expr>, Box<Expr>),
    /// `follow F [from V] for S` — oriented point along a field.
    Follow {
        /// Field to follow.
        field: Box<Expr>,
        /// Start (`ego.position` when omitted).
        from: Option<Box<Expr>>,
        /// Distance.
        distance: Box<Expr>,
    },
    /// `front of O`, `back left of O`, … — box-edge oriented points.
    BoxPointOf {
        /// Which point of the box.
        which: BoxPoint,
        /// The object.
        obj: Box<Expr>,
    },
    /// Object construction: `Class specifier, specifier, ...`
    Ctor {
        /// Class name.
        class: String,
        /// Specifier list (possibly empty).
        specifiers: Vec<Specifier>,
        /// The site's id and the class's address, from the compiled
        /// engine's lowering; `None` from the parser.
        site: Option<CtorSite>,
    },
}

impl Expr {
    /// The name an identifier refers to, resolved or not.
    pub fn ident(&self) -> Option<&str> {
        match self {
            Expr::Ident(name) => Some(name),
            Expr::Resolved(r) => Some(&r.name),
            _ => None,
        }
    }

    /// Calls `f` on this expression and on every expression nested in it,
    /// parents first, in [`Expr::for_each_child`] order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.for_each_child(&mut |child| child.walk(f));
    }
}

/// Where a name lives at run time, as the compiled engine's lowering
/// proved it (lexical addressing, SICP §5.5.6). Only that lowering
/// writes addresses, into its own copy of a program: the parser never
/// produces one, and the reference interpreter's programs carry plain
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Addr {
    /// A slot of the hoisted base environment: a builtin, a library
    /// native, or a prelude or library class or function.
    Base(u32),
    /// A slot of the candidate's frame: a top-level name of the user
    /// program.
    Candidate(u32),
    /// A slot of the function or specifier frame `hops` frames out from
    /// the one evaluating.
    Local {
        /// Frames to walk out.
        hops: u32,
        /// Slot in that frame.
        slot: u32,
    },
    /// `self` in a class default: the object whose default evaluates.
    DefaultSelf,
}

/// A name with its resolved address.
#[derive(Debug, Clone, PartialEq)]
pub struct Resolved {
    /// The name, for messages and printing.
    pub name: String,
    /// Where it lives.
    pub addr: Addr,
}

/// A construction site as the compiled engine's lowering numbered it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtorSite {
    /// Dense per-scenario id, indexing the staged-site cache.
    pub id: u32,
    /// The class name's address, when resolved.
    pub class: Option<Addr>,
}

/// Specifiers for object construction (Tables 3 & 4).
#[derive(Debug, Clone, PartialEq)]
pub enum Specifier {
    /// `with property value` — any property.
    With(String, Expr),
    /// `at vector`.
    At(Expr),
    /// `offset by vector`.
    OffsetBy(Expr),
    /// `offset along direction by vector`.
    OffsetAlong(Expr, Expr),
    /// `left of / right of / ahead of / behind X [by scalar]` — `X` may
    /// be a vector, `OrientedPoint`, or `Object` (disambiguated at
    /// runtime, per Table 3's two groups).
    Beside {
        /// Which side.
        side: Side,
        /// The reference.
        target: Expr,
        /// Optional gap.
        by: Option<Expr>,
    },
    /// `beyond vector by vector [from vector]`.
    Beyond {
        /// Sighted target.
        target: Expr,
        /// Offset in the line-of-sight frame.
        offset: Expr,
        /// Viewpoint (`ego` when omitted).
        from: Option<Expr>,
    },
    /// `visible [from Point/OrientedPoint]`.
    Visible(Option<Expr>),
    /// `in region` / `on region` (also optionally specifies heading).
    InRegion(Expr),
    /// `following vectorField [from vector] for scalar`.
    Following {
        /// Field to follow.
        field: Expr,
        /// Start (`ego` when omitted).
        from: Option<Expr>,
        /// Distance along the field.
        distance: Expr,
    },
    /// `facing heading` or `facing vectorField` (disambiguated at
    /// runtime).
    Facing(Expr),
    /// `facing toward vector`.
    FacingToward(Expr),
    /// `facing away from vector`.
    FacingAwayFrom(Expr),
    /// `apparently facing heading [from vector]`.
    ApparentlyFacing {
        /// Apparent heading w.r.t. the line of sight.
        heading: Expr,
        /// Viewpoint (`ego` when omitted).
        from: Option<Expr>,
    },
    /// `using name(args)` — application of a user-defined specifier.
    Using {
        /// The specifier's name (looked up at runtime).
        name: String,
        /// Positional arguments.
        args: Vec<Expr>,
        /// Keyword arguments.
        kwargs: Vec<(String, Expr)>,
    },
}

impl Specifier {
    /// A short human-readable name for diagnostics.
    pub fn name(&self) -> String {
        match self {
            Specifier::With(p, _) => format!("with {p}"),
            Specifier::At(_) => "at".into(),
            Specifier::OffsetBy(_) => "offset by".into(),
            Specifier::OffsetAlong(..) => "offset along".into(),
            Specifier::Beside { side, .. } => side.to_string(),
            Specifier::Beyond { .. } => "beyond".into(),
            Specifier::Visible(_) => "visible".into(),
            Specifier::InRegion(_) => "in/on region".into(),
            Specifier::Following { .. } => "following".into(),
            Specifier::Facing(_) => "facing".into(),
            Specifier::FacingToward(_) => "facing toward".into(),
            Specifier::FacingAwayFrom(_) => "facing away from".into(),
            Specifier::ApparentlyFacing { .. } => "apparently facing".into(),
            Specifier::Using { name, .. } => format!("using {name}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every statement kind with children, every expression variant the
    /// parser produces and every specifier, optional `from`/`by` slots
    /// filled, with the names `a01`, `a02`, … in visit order.
    const EVERY_SLOT: &str = "\
import lib
t = a01
param p = a02, q = a03
class C(Base):
    width: a04
    height: a05.w
a06
require[a07] a08
mutate m by a09
def f(x=a10):
    return a11
specifier s(y=a12) specifies position:
    return a13
if a14:
    a15
elif a16:
    a17
else:
    a18
for i in a19:
    a20
while a21:
    pass
a22 @ a23
(a24, a25)
a26(a27, k=a28)
a29.attr
a30[a31]
[a32, a33, True, None, 'text', 1]
{a34: a35}
-a36
not a37
a38 + a39
a40 < a41
a43 if a42 else a44
a45 deg
a46 relative to a47
a48 offset by a49
a50 offset along a51 by a52
a53 at a54
a55 can see a56
a57 is in a58
distance from a59 to a60
distance to a61
angle from a62 to a63
relative heading of a64 from a65
apparent heading of a66 from a67
visible a68
a69 visible from a70
follow a71 from a72 for a73
front of a74
Obj with w a75, at a76, offset by a77, offset along a78 by a79, left of a80 by a81, \
beyond a82 by a83 from a84, visible from a85, in a86, following a87 from a88 for a89, \
facing a90, facing toward a91, facing away from a92, apparently facing a93 from a94, \
using u(a95, k=a96)
";

    /// The variant's name: an exhaustive match, so a new variant does not
    /// compile until this test covers it.
    fn expr_variant(e: &Expr) -> &'static str {
        match e {
            Expr::Number(_) => "Number",
            Expr::Bool(_) => "Bool",
            Expr::Str(_) => "Str",
            Expr::None => "None",
            Expr::Ident(_) => "Ident",
            Expr::Resolved(_) => "Resolved",
            Expr::Vector(..) => "Vector",
            Expr::Interval(..) => "Interval",
            Expr::Call { .. } => "Call",
            Expr::Attribute { .. } => "Attribute",
            Expr::Index { .. } => "Index",
            Expr::List(_) => "List",
            Expr::Dict(_) => "Dict",
            Expr::Neg(_) => "Neg",
            Expr::NotOp(_) => "NotOp",
            Expr::Binary { .. } => "Binary",
            Expr::Compare { .. } => "Compare",
            Expr::IfElse { .. } => "IfElse",
            Expr::Deg(_) => "Deg",
            Expr::RelativeTo(..) => "RelativeTo",
            Expr::OffsetBy(..) => "OffsetBy",
            Expr::OffsetAlong { .. } => "OffsetAlong",
            Expr::FieldAt(..) => "FieldAt",
            Expr::CanSee(..) => "CanSee",
            Expr::IsIn(..) => "IsIn",
            Expr::DistanceTo { .. } => "DistanceTo",
            Expr::AngleTo { .. } => "AngleTo",
            Expr::RelativeHeadingOf { .. } => "RelativeHeadingOf",
            Expr::ApparentHeadingOf { .. } => "ApparentHeadingOf",
            Expr::Visible(_) => "Visible",
            Expr::VisibleFrom(..) => "VisibleFrom",
            Expr::Follow { .. } => "Follow",
            Expr::BoxPointOf { .. } => "BoxPointOf",
            Expr::Ctor { .. } => "Ctor",
        }
    }

    fn specifier_variant(s: &Specifier) -> &'static str {
        match s {
            Specifier::With(..) => "With",
            Specifier::At(_) => "At",
            Specifier::OffsetBy(_) => "OffsetBy",
            Specifier::OffsetAlong(..) => "OffsetAlong",
            Specifier::Beside { .. } => "Beside",
            Specifier::Beyond { .. } => "Beyond",
            Specifier::Visible(_) => "Visible",
            Specifier::InRegion(_) => "InRegion",
            Specifier::Following { .. } => "Following",
            Specifier::Facing(_) => "Facing",
            Specifier::FacingToward(_) => "FacingToward",
            Specifier::FacingAwayFrom(_) => "FacingAwayFrom",
            Specifier::ApparentlyFacing { .. } => "ApparentlyFacing",
            Specifier::Using { .. } => "Using",
        }
    }

    /// What one recursive visit saw, in order.
    #[derive(Debug, Default, PartialEq)]
    struct Seen {
        names: Vec<String>,
        /// Each nested block's `frame` flag.
        blocks: Vec<bool>,
        variants: BTreeSet<&'static str>,
        specifiers: BTreeSet<&'static str>,
    }

    impl Seen {
        fn node(&mut self, e: &Expr) {
            self.variants.insert(expr_variant(e));
            match e {
                Expr::Ident(name) => self.names.push(name.clone()),
                Expr::Ctor { specifiers, .. } => {
                    self.specifiers
                        .extend(specifiers.iter().map(specifier_variant));
                }
                _ => {}
            }
        }

        fn block(&mut self, body: &[Stmt]) {
            for stmt in body {
                stmt.for_each_child(&mut |child| match child {
                    StmtChild::Expr(e) => self.expr(e),
                    StmtChild::Block { body, frame } => {
                        self.blocks.push(frame);
                        self.block(body);
                    }
                });
            }
        }

        fn expr(&mut self, e: &Expr) {
            self.node(e);
            e.for_each_child(&mut |child| self.expr(child));
        }

        /// The mutable visit, renaming each identifier to upper case.
        fn block_mut(&mut self, body: &mut [Stmt]) {
            for stmt in body {
                stmt.for_each_child_mut(&mut |child| match child {
                    StmtChildMut::Expr(e) => self.expr_mut(e),
                    StmtChildMut::Block { body, frame } => {
                        self.blocks.push(frame);
                        self.block_mut(body);
                    }
                });
            }
        }

        fn expr_mut(&mut self, e: &mut Expr) {
            self.node(e);
            if let Expr::Ident(name) = e {
                *name = name.to_uppercase();
            }
            e.for_each_child_mut(&mut |child| self.expr_mut(child));
        }
    }

    #[test]
    fn child_visits_reach_every_slot_in_one_order() {
        let mut program = crate::parse(EVERY_SLOT).unwrap();
        let shared = program.clone();
        let mut seen = Seen::default();
        seen.block(&program.statements);

        let names: Vec<String> = (1..=96).map(|i| format!("a{i:02}")).collect();
        assert_eq!(seen.names, names);
        // The `def` and `specifier` bodies open frames; `if`/`elif`/
        // `else`, `for` and `while` bodies do not.
        assert_eq!(seen.blocks, [true, true, false, false, false, false, false]);
        // Every expression variant but `Resolved`, which only lowering
        // writes, and every specifier.
        assert_eq!(seen.variants.len(), 33, "{:?}", seen.variants);
        assert!(!seen.variants.contains("Resolved"));
        assert_eq!(seen.specifiers.len(), 14, "{:?}", seen.specifiers);

        // The mutable visit sees the same slots in the same order, and
        // its writes land in each of them, shared syntax (class defaults,
        // `require` conditions, `def` and `specifier` bodies) included.
        let mut seen_mut = Seen::default();
        seen_mut.block_mut(&mut program.statements);
        assert_eq!(seen_mut, seen);
        let mut renamed = Seen::default();
        renamed.block(&program.statements);
        let upper: Vec<String> = names.iter().map(|n| n.to_uppercase()).collect();
        assert_eq!(renamed.names, upper);
        // Writes copied the shared syntax rather than changing it.
        let mut original = Seen::default();
        original.block(&shared.statements);
        assert_eq!(original.names, names);
    }
}
