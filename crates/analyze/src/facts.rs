//! Per-file analysis facts: the output of the parse phase.
//!
//! `rto-analyze` is a two-phase analyzer. Phase 1 turns each source
//! file into a [`FileFacts`] value: the functions it defines, the calls
//! they make, the panic-family seeds they contain, declared/inferred
//! units of measure, raw token-tier (L1–L6) findings, and waiver
//! comments. Phase 2 resolves symbols, builds the interprocedural call
//! graph, applies waivers, and runs the A-rules over the facts of every
//! file. Facts carry no waiver state, so every rule reads waivers the
//! same way, in phase 2.

use std::fmt;

/// A unit-of-measure tag for the A2 dataflow (paper quantities are
/// nanosecond counts, millisecond floats, and dimensionless densities).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Unit {
    /// Integer (or float) nanosecond count.
    Ns,
    /// Millisecond value (usually an `f64`).
    Ms,
    /// A density / utilization ratio (`(C1+C2)/(D−R)` and friends).
    Ratio,
    /// Known to carry no physical unit (bare literals, counters).
    Dimensionless,
    /// Nothing is known.
    #[default]
    Unknown,
}

impl Unit {
    /// Stable single-token spelling used in messages.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Ms => "ms",
            Unit::Ratio => "ratio",
            Unit::Dimensionless => "dimensionless",
            Unit::Unknown => "unknown",
        }
    }

    /// True for units that participate in cross-unit conflict checks.
    #[must_use]
    pub fn is_concrete(self) -> bool {
        matches!(self, Unit::Ns | Unit::Ms | Unit::Ratio)
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a panic can be triggered at a seed site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedKind {
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`.
    PanicMacro,
    /// `.unwrap()`.
    Unwrap,
    /// `.expect(..)`.
    Expect,
    /// Bare slice/array indexing.
    Index,
}

/// One potential panic site inside a function body.
#[derive(Debug, Clone)]
pub struct SeedFact {
    /// What kind of site this is.
    pub kind: SeedKind,
    /// 1-based source line. A waiver for `A1` or `L3` here marks the
    /// site a documented contract that does not seed A1 reachability.
    pub line: u32,
}

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallFact {
    /// Callee name (method or function identifier).
    pub callee: String,
    /// `Type::` qualifier for path calls (`Duration::from_ns`), if any.
    pub qual: Option<String>,
    /// 1-based source line.
    pub line: u32,
    /// Inferred unit of each top-level argument.
    pub arg_units: Vec<Unit>,
    /// The call site is lexically inside the argument group of a
    /// `spawn(..)` call (i.e. inside a worker closure) — A5 uses this
    /// to seed the blocking-reachability check.
    pub in_spawn: bool,
    /// The call was written method-style (`recv.f(…)`). A8's step-bound
    /// graph keeps only *uniquely* resolving method calls, because the
    /// bare-name over-approximation would manufacture recursion cycles
    /// out of every same-named `push`/`pop` pair.
    pub method: bool,
    /// Method call whose immediate receiver is `self` (`self.f(…)`,
    /// not `self.field.f(…)`) — the only method shape A8 trusts for
    /// call-graph edges.
    pub recv_self: bool,
    /// Number of loops lexically enclosing the call site — A8 composes
    /// symbolic step bounds as `loop_depth + degree(callee)`.
    pub loop_depth: u32,
    /// The argument list carries a decreasing-argument pattern
    /// (`n - 1`, `n / 2`, `n >> 1`, `.saturating_sub(..)`, a shrunk
    /// slice) — A8's witness that a recursive call makes progress.
    pub decreasing: bool,
}

/// The hazard class of one A4 interval finding site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum A4Kind {
    /// `expr as u32/usize/…` where the value interval does not provably
    /// fit the target type (float→int truncation included).
    LossyCast,
    /// Integer `/` or `%` whose divisor interval is not provably
    /// nonzero.
    DivZero,
    /// Unsigned `a - b` where `a >= b` is not provable.
    SubUnderflow,
    /// `+`/`*` on *derived* intervals whose result exceeds the operand
    /// type range.
    Overflow,
}

impl A4Kind {
    /// Stable spelling for messages.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            A4Kind::LossyCast => "lossy-cast",
            A4Kind::DivZero => "div-zero",
            A4Kind::SubUnderflow => "sub-underflow",
            A4Kind::Overflow => "overflow",
        }
    }
}

/// One unproven (or definitely violated) value-range site recorded by
/// the phase-1 interval walk. Phase 2 may discharge it through an
/// interprocedural return-interval summary ([`A4Site::dep`]), or turn
/// it into a diagnostic.
#[derive(Debug, Clone)]
pub struct A4Site {
    /// Hazard class.
    pub kind: A4Kind,
    /// 1-based source line.
    pub line: u32,
    /// Short source snippet of the offending expression.
    pub expr: String,
    /// Cast target type name (`u32`), or the operator (`/`, `-`, `+`).
    pub target: String,
    /// Rendered witness interval at the site (`[0, 2^53]`, `⊤`).
    pub witness: String,
    /// `true`: the derived interval *proves* the violation; `false`:
    /// merely not provably safe.
    pub definite: bool,
    /// When the value is exactly one call's result, the `(qual, name)`
    /// summary key phase 2 resolves against the symbol table.
    pub dep: Option<(Option<String>, String)>,
}

/// One atomic operation with an explicit memory ordering (A5).
#[derive(Debug, Clone)]
pub struct AtomicFact {
    /// Method name (`fetch_add`, `load`, `compare_exchange`, …).
    pub op: String,
    /// Ordering variant name (`Relaxed`, `SeqCst`, …). One fact per
    /// `Ordering::X` token in the call's arguments.
    pub ordering: String,
    /// 1-based source line.
    pub line: u32,
}

/// The class of a nondeterminism source (A6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NondetKind {
    /// Iteration over a `HashMap`/`HashSet` (key order is randomized
    /// per process by the SipHash seed).
    HashIter,
    /// `Instant::now()` / `SystemTime::now()` outside `obs::Stopwatch`.
    WallClock,
    /// `thread::current().id()` — scheduler-dependent identity.
    ThreadId,
    /// Ambient / unseeded RNG (`thread_rng`, `from_entropy`,
    /// `RandomState::new`).
    Rng,
    /// Environment reads (`env::var`, `env::args`, …).
    EnvRead,
    /// Filesystem reads (`fs::read_to_string`, `File::open`, …).
    FsRead,
}

/// One nondeterminism source site inside a function body (A6).
#[derive(Debug, Clone)]
pub struct NondetFact {
    /// Source class.
    pub kind: NondetKind,
    /// 1-based source line.
    pub line: u32,
    /// Human label for witness chains
    /// (``"`HashMap` iteration (`seg_counts.values()`)"``).
    pub desc: String,
}

/// The class of a hot-path allocation site (A7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocKind {
    /// Growth into a dynamic container (`.push`, `.extend`, `.append`,
    /// `.insert`) without `with_capacity`/`reserve` evidence in the
    /// same file.
    GrowPush,
    /// String construction (`format!`, `.to_string()`, `.to_owned()`,
    /// `String::from`).
    Str,
    /// Heap-box churn (`Box::new`, `Rc::new`, `Arc::new`).
    BoxRc,
    /// `.collect()` / `vec!` into a growable container.
    Collect,
}

/// One allocating construct inside a function body (A7).
#[derive(Debug, Clone)]
pub struct AllocFact {
    /// Allocation class.
    pub kind: AllocKind,
    /// 1-based source line.
    pub line: u32,
    /// Human label (``"`format!`"``, ``"`buf.push(..)`"``).
    pub desc: String,
}

/// How A8 classified one loop (the termination lattice; see
/// DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// `for` over a visibly finite iterable (range, container, chained
    /// iterator) — trip count bounded by the iterable's extent.
    ForBounded,
    /// `for` over an endless-iterator idiom: an open range (`lo..`),
    /// `.cycle()`, or `iter::repeat(..)` with no `.take(..)` in sight.
    ForEndless,
    /// `while`/`while let` with a monotone progress witness: a guard
    /// variable strictly advanced in the body, or a scrutinee that
    /// drains a finite source the body does not refill.
    WhileProgress,
    /// `loop`/`while` whose body reaches an unconditional top-level
    /// `break`/`return` — every iteration that completes exits.
    LoopBreaks,
    /// No witness found: the loop cannot be shown to terminate.
    Unbounded,
}

impl LoopKind {
    /// A bounded classification: contributes its nesting depth to the
    /// function's step-bound degree instead of forcing `⊤`.
    #[must_use]
    pub fn is_bounded(self) -> bool {
        !matches!(self, LoopKind::ForEndless | LoopKind::Unbounded)
    }
}

/// One loop inside a function body (A8).
#[derive(Debug, Clone)]
pub struct LoopFact {
    /// Termination classification.
    pub kind: LoopKind,
    /// 1-based line of the loop keyword.
    pub line: u32,
    /// Nesting depth inside the function, 1-based (a loop directly in
    /// the body is depth 1; a loop inside it is depth 2, …).
    pub depth: u32,
    /// Human label (``"`loop`"``, ``"`while hull.len() >= 2`"``).
    pub desc: String,
    /// The progress witness, empty when none was found
    /// (``"guard `i` advanced by `+=`"``, ``"drains `heap.pop()`"``).
    pub witness: String,
}

/// One potentially blocking call site (A5).
#[derive(Debug, Clone)]
pub struct BlockFact {
    /// Human label (``"`Mutex::lock`"``, ``"file I/O (`fs::write`)"``).
    pub desc: String,
    /// 1-based source line.
    pub line: u32,
    /// Lexically inside a `spawn(..)` argument group.
    pub in_spawn: bool,
}

/// Facts about one function (or method) definition.
#[derive(Debug, Clone, Default)]
pub struct FnFact {
    /// Function name.
    pub name: String,
    /// Surrounding `impl`/`trait` type name, if any.
    pub qual: Option<String>,
    /// Trait being implemented (`impl Trait for Type`), if any.
    pub trait_name: Option<String>,
    /// Whether this is (conservatively) part of the crate's public API:
    /// `pub fn`, or any fn in a trait / trait impl.
    pub is_pub: bool,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameter names with their inferred units (`self` excluded).
    pub params: Vec<(String, Unit)>,
    /// Primitive type annotation of each parameter, aligned with
    /// `params` (`""` when the type is not a bare primitive).
    pub param_tys: Vec<String>,
    /// Unit implied by the function's name (`..._ns`, `ratio`, …).
    pub ret_unit: Unit,
    /// Primitive return type (`"u64"`, `"f64"`, `""` otherwise).
    pub ret_ty: String,
    /// Abstract return interval — the intra-procedural A4 summary, the
    /// fallback when phase 2 cannot re-walk the body.
    pub ret_abs: crate::domains::Abs,
    /// Token span of the body in the test-stripped token stream:
    /// `(first, one-past-last)` — lets the phase-2 fixpoint engine
    /// re-walk the body with callee summaries without re-parsing.
    pub body_span: (usize, usize),
    /// Call sites in the body.
    pub calls: Vec<CallFact>,
    /// Panic-family seeds in the body.
    pub seeds: Vec<SeedFact>,
    /// Lock acquisitions (`recv.lock()` and RwLock read/write), as
    /// `(receiver name, line)` in source order — A5's lock-order input.
    pub lock_acqs: Vec<(String, u32)>,
    /// Potentially blocking call sites in the body.
    pub blocking: Vec<BlockFact>,
    /// Annotated as a hot region (`// analyze: hot-path` on the line
    /// before the `fn`) — the A7 reachability roots.
    pub hot: bool,
    /// Nondeterminism sources in the body (A6).
    pub nondet: Vec<NondetFact>,
    /// Allocating constructs in the body (A7).
    pub allocs: Vec<AllocFact>,
    /// Loops in the body with their termination classification (A8).
    pub loops: Vec<LoopFact>,
}

impl FnFact {
    /// `Type::name` or plain `name`.
    #[must_use]
    pub fn qualified(&self) -> String {
        match &self.qual {
            Some(q) => format!("{q}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// A per-file finding as plain data (path is implied by the owning
/// [`FileFacts`]): a token-tier finding or a local A2 finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFinding {
    /// Rule id (`"L1"`…`"L6"`, `"A2"`).
    pub rule: String,
    /// 1-based source line.
    pub line: u32,
    /// `"deny"` or `"warn"`.
    pub severity: String,
    /// Human-readable message.
    pub message: String,
}

/// One inline waiver comment, `// analyze: allow(RULE): reason`.
#[derive(Debug, Clone)]
pub struct WaiverComment {
    /// The rule id it waives (`L3`, `A1`, …).
    pub rule: String,
    /// 1-based line the comment starts on (it covers findings on this
    /// line and the next).
    pub line: u32,
}

/// Everything the global phase needs to know about one source file.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Workspace-relative path, forward slashes.
    pub rel_path: String,
    /// Crate directory under `crates/` (`core`, `mckp`, …); `None` for
    /// the facade package's `src/`.
    pub crate_dir: Option<String>,
    /// Function definitions (test regions stripped).
    pub fns: Vec<FnFact>,
    /// Token-tier (L1–L6) findings on production (test-stripped)
    /// tokens, with no waivers applied.
    pub lint_prod: Vec<RawFinding>,
    /// Token-tier findings on the full token stream (tests included);
    /// used only to justify inline waivers that live in test code.
    pub lint_all: Vec<RawFinding>,
    /// Intra-function A2 findings.
    pub a2_local: Vec<RawFinding>,
    /// Inline waiver comments found anywhere in the file.
    pub waivers: Vec<WaiverComment>,
    /// A4 interval sites recorded by the phase-1 walk (pre-waiver).
    pub a4: Vec<A4Site>,
    /// Atomic operations with explicit orderings (test-stripped).
    pub atomics: Vec<AtomicFact>,
    /// Module-level integer constants (`const NAME: TY = <literal>;`),
    /// as `(name, primitive type, value)` — the interval walker reads
    /// them so masks and shifts by named constants stay bounded.
    pub consts: Vec<(String, String, i128)>,
    /// The file contains a `with_capacity`/`reserve` token anywhere —
    /// file-granular evidence that its `GrowPush` sites amortize into
    /// a pre-sized buffer (a deliberate, documented over-approximation).
    pub capacity_evidence: bool,
}

impl FileFacts {
    /// The crate name used for call-graph scoping: the crate dir, or
    /// `"rto"` for the facade package at the workspace root.
    #[must_use]
    pub fn crate_key(&self) -> &str {
        self.crate_dir.as_deref().unwrap_or("rto")
    }
}
