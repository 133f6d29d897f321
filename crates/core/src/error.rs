//! Errors of the Scenic runtime.

use std::fmt;

/// One of the §5.2 sample-space pruning techniques (Algorithms 2 & 3
/// plus containment erosion). Used to attribute prune-guard rejections
/// to the technique whose region restriction caught them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pruner {
    /// Containment pruning: positions must keep the minimum object
    /// radius of clearance from the workspace boundary.
    Containment,
    /// Orientation pruning (Algorithm 2): cells whose relative heading
    /// to every cell within the maximum distance falls outside the
    /// allowed interval.
    Orientation,
    /// Size pruning (Algorithm 3): cells too narrow for the whole
    /// configuration, beyond reach of any other cell.
    Size,
}

impl fmt::Display for Pruner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pruner::Containment => write!(f, "containment"),
            Pruner::Orientation => write!(f, "orientation"),
            Pruner::Size => write!(f, "size"),
        }
    }
}

/// Why a scene-generation run was rejected (not an error: rejection
/// sampling simply retries, per §5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// A user `require` statement evaluated to false.
    Requirement {
        /// Source line of the requirement.
        line: u32,
    },
    /// Two objects' bounding boxes intersect (default requirement).
    Collision,
    /// An object's bounding box left the workspace (default
    /// requirement).
    Containment,
    /// An object with `requireVisible` is not visible from the ego
    /// (default requirement).
    Visibility,
    /// A region sampler could not produce a point (empty or
    /// over-constrained region).
    EmptyRegion,
    /// A position drawn from a pruned region fell outside the §5.2
    /// restriction — the run could never be accepted, so the sampler
    /// abandons it before finishing the (expensive) interpretation and
    /// requirement checks. Tagged with the pruner whose restriction
    /// caught it.
    Pruned(Pruner),
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::Requirement { line } => {
                write!(f, "requirement at line {line} violated")
            }
            Rejection::Collision => write!(f, "objects intersect"),
            Rejection::Containment => write!(f, "object outside workspace"),
            Rejection::Visibility => write!(f, "object not visible from ego"),
            Rejection::EmptyRegion => write!(f, "sampled region is empty"),
            Rejection::Pruned(p) => {
                write!(f, "position outside the {p}-pruned region")
            }
        }
    }
}

/// An error raised while compiling or executing a Scenic scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenicError {
    /// Front-end error.
    Parse(scenic_lang::ParseError),
    /// A type mismatch, e.g. using a region where a vector is expected.
    Type {
        /// What went wrong.
        message: String,
        /// Source line, when known.
        line: u32,
    },
    /// Reference to an undefined variable, property, or class.
    Undefined {
        /// The missing name.
        name: String,
        /// Source line, when known.
        line: u32,
    },
    /// Ill-formed specifier combination (Algorithm 1 failures): a
    /// property specified twice, cyclic dependencies, or a missing
    /// dependency.
    Specifier {
        /// Description of the conflict.
        message: String,
        /// Class being constructed.
        class: String,
    },
    /// Conditional control flow depended on a random value (§4's
    /// restriction enabling the pruning analyses).
    RandomControlFlow {
        /// Source line of the branch.
        line: u32,
    },
    /// The scenario never defined `ego` but needed it ("it is a syntax
    /// error to leave ego undefined", §3).
    EgoUndefined,
    /// Internal marker: an expression needed the position of the object
    /// being specified (e.g. `facing F relative to G`); the interpreter
    /// catches this and defers the specifier until `position` is known.
    NeedsSelf,
    /// The current run was rejected; the sampler will retry.
    Rejected(Rejection),
    /// The sampler exhausted its iteration budget.
    MaxIterationsExceeded {
        /// The configured budget.
        limit: usize,
    },
    /// Any other runtime failure.
    Runtime {
        /// What went wrong.
        message: String,
        /// Source line, when known.
        line: u32,
    },
    /// A sampler worker thread panicked (an interpreter bug, not a
    /// property of the scenario). Surfaced as an error instead of
    /// poisoning the calling thread so long-running drivers — the
    /// `scenicd` daemon in particular — can return a structured reply
    /// and keep serving other requests.
    WorkerPanic {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl ScenicError {
    /// Convenience constructor for type errors.
    pub fn type_error(message: impl Into<String>) -> Self {
        ScenicError::Type {
            message: message.into(),
            line: 0,
        }
    }

    /// Convenience constructor for runtime errors.
    pub fn runtime(message: impl Into<String>) -> Self {
        ScenicError::Runtime {
            message: message.into(),
            line: 0,
        }
    }

    /// Attaches a source line to errors that lack one.
    pub fn with_line(mut self, new_line: u32) -> Self {
        match &mut self {
            ScenicError::Type { line, .. }
            | ScenicError::Undefined { line, .. }
            | ScenicError::Runtime { line, .. }
            | ScenicError::RandomControlFlow { line }
                if *line == 0 =>
            {
                *line = new_line;
            }
            _ => {}
        }
        self
    }
}

impl fmt::Display for ScenicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenicError::Parse(e) => write!(f, "{e}"),
            ScenicError::Type { message, line } => {
                write!(f, "type error at line {line}: {message}")
            }
            ScenicError::Undefined { name, line } => {
                write!(f, "undefined name `{name}` at line {line}")
            }
            ScenicError::Specifier { message, class } => {
                write!(f, "invalid specifiers for `{class}`: {message}")
            }
            ScenicError::RandomControlFlow { line } => write!(
                f,
                "conditional at line {line} depends on a random value (not allowed in Scenic)"
            ),
            ScenicError::EgoUndefined => write!(f, "scenario does not define `ego`"),
            ScenicError::NeedsSelf => write!(
                f,
                "expression requires the object being specified (internal marker)"
            ),
            ScenicError::Rejected(r) => write!(f, "sample rejected: {r}"),
            ScenicError::MaxIterationsExceeded { limit } => {
                write!(
                    f,
                    "no valid scene found within {limit} rejection-sampling iterations"
                )
            }
            ScenicError::Runtime { message, line } => {
                write!(f, "runtime error at line {line}: {message}")
            }
            ScenicError::WorkerPanic { message } => {
                write!(f, "sampler worker thread panicked: {message}")
            }
        }
    }
}

impl std::error::Error for ScenicError {}

impl From<scenic_lang::ParseError> for ScenicError {
    fn from(e: scenic_lang::ParseError) -> Self {
        ScenicError::Parse(e)
    }
}

/// Result alias for runtime operations.
pub type RunResult<T> = Result<T, ScenicError>;
