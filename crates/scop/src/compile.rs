//! Compile-once / walk-many lowering of a SCoP: the compiled walk.
//!
//! The reference walk ([`crate::walk::for_each_access`]) re-evaluates a
//! full affine dot product per access, re-checks `domain.contains`
//! against every basic set per iteration, and derives loop bounds with a
//! fresh lexmin/lexmax search per loop entry.  All of that work is
//! affine in the iteration vector, so it can be paid once per *kernel*
//! instead of once per *access*:
//!
//! * **Strength-reduced addresses** — each access keeps a running base
//!   address; entering a loop at value `v` adds `coeff × v` for every
//!   access below it, advancing adds `coeff × stride`, and leaving
//!   subtracts the accumulated contribution (the per-level carry
//!   deltas).  Steady-state iteration never evaluates an [`Aff`] again.
//! * **Hoisted bounds** — a loop whose domain is a single conjunction
//!   compiles to `LoopBounds::Exact`: per entry, one pass over the
//!   constraints ([`BasicSet::dim_bounds`]) yields the inclusive bound
//!   interval, replacing the per-entry lexmin/lexmax searches, and makes
//!   the per-iteration `contains` check provably redundant.  Unions of
//!   conjunctions fall back to the reference enumeration
//!   (`LoopBounds::Dynamic`), still with strength-reduced addresses.
//! * **Hoisted guards** — an access whose domain constraints are all
//!   syntactically established by enclosing exact loops needs no
//!   membership test at all (`GuardPlan::Trivial`); a genuinely
//!   guarded single-conjunction domain clips the innermost interval once
//!   per entry (`GuardPlan::Exact`); only non-convex guards pay a
//!   per-point check (`GuardPlan::Dynamic`).
//! * **Runs** — an innermost loop whose body is a single guarded access
//!   emits one [`AccessRun`] (`base, stride, count`) per entry instead
//!   of `count` single accesses, letting the cache layer batch
//!   same-line accesses (see `MultiLevelState::access_run`).
//!
//! # One walker, many consumers
//!
//! The walk drives a [`WalkVisitor`]: access runs arrive with their
//! iteration vector, loop entries and exits with their first and last
//! value, and every iteration head may skip `k` iterations, advancing
//! the running bases by `k × stride × coeff` without visiting them.
//! Every simulating backend walks through it — classic and trace via the
//! closure adapters ([`CompiledScop::for_each_run`],
//! [`CompiledScop::for_each_access`], [`for_each_run_at`]), warping with
//! its match attempts at iteration heads and warps as skips, the sampler
//! by collecting top-level iteration values, and the access-budget probe
//! ([`CompiledScop::exceeds_access_count`]) by skipping everything once
//! its cap is passed.
//!
//! The compiled walk produces the *identical* access stream (node,
//! address, kind, order) as the reference walk; the
//! `compiled_walk_equivalence` suite in the engine crate asserts this
//! over random kernels.  The reference walk is that suite's oracle and
//! nothing else.
//!
//! [`Aff`]: polyhedra::Aff

use crate::tree::{AccessNode, LoopNode, Node, Scop};
use cache_model::AccessKind;
use polyhedra::{BasicSet, Constraint, Set};

/// A run of dynamic accesses from one access node: `count` accesses
/// starting at `base`, each `stride` bytes after the previous one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessRun {
    /// Id of the access node that produced the run.
    pub node: usize,
    /// Byte address of the first access.
    pub base: u64,
    /// Byte delta between consecutive accesses (zero or negative are
    /// legal: a zero-stride run re-touches one address).
    pub stride: i64,
    /// Number of accesses in the run (always ≥ 1).
    pub count: u64,
    /// Read or write.
    pub kind: AccessKind,
}

impl AccessRun {
    /// The addresses of the run, in order.
    pub fn addresses(&self) -> impl Iterator<Item = u64> + '_ {
        let (base, stride) = (self.base as i64, self.stride);
        (0..self.count as i64).map(move |k| (base + k * stride) as u64)
    }
}

/// How a loop's bound interval is derived per entry.
#[derive(Clone, Debug)]
enum LoopBounds {
    /// Single-conjunction domain: one [`BasicSet::dim_bounds`] pass per
    /// entry yields the exact inclusive interval, and every grid point
    /// inside it is in the domain (no per-iteration `contains`).
    Exact(BasicSet),
    /// Union domain: reference-style lexmin/lexmax enumeration with
    /// per-point membership checks.
    Dynamic(Set),
}

/// How an access's guard is evaluated.
#[derive(Clone, Debug)]
enum GuardPlan {
    /// Every domain constraint is established by an enclosing exact
    /// loop: membership is implied, no check at runtime.
    Trivial,
    /// Single-conjunction guard: clipped to an interval of the
    /// innermost dimension once per loop entry (run fast path) or
    /// checked per point.
    Exact(BasicSet),
    /// Union guard: per-point membership check.
    Dynamic(Set),
}

/// A compiled access node: strength-reduced address plus a guard plan.
#[derive(Clone, Debug)]
pub struct CompiledAccess {
    /// Id of the source [`AccessNode`] (also its base-address slot).
    pub id: usize,
    /// Nesting depth (dimensionality of the guard domain).
    pub depth: usize,
    /// Read or write.
    pub kind: AccessKind,
    /// Address coefficients per iterator dimension.
    coeffs: Vec<i64>,
    /// Address constant term.
    constant: i64,
    guard: GuardPlan,
}

impl CompiledAccess {
    /// Whether the iteration vector `iv` (of length `depth`) satisfies
    /// the guard.
    fn guard_holds(&self, iv: &[i64]) -> bool {
        match &self.guard {
            GuardPlan::Trivial => true,
            GuardPlan::Exact(bs) => bs.contains(iv),
            GuardPlan::Dynamic(set) => set.contains(iv),
        }
    }
}

/// A compiled loop node.
#[derive(Clone, Debug)]
pub struct CompiledLoop {
    /// Preorder index of the loop among the SCoP's loops: the same for
    /// every compilation of one SCoP, so per-loop state can outlive a
    /// compiled tree.
    pub id: usize,
    /// Nesting depth (1 = outermost).
    pub depth: usize,
    /// Iterator increment per iteration (non-zero; negative walks
    /// lexmax-first).
    pub stride: i64,
    bounds: LoopBounds,
    /// Strength-reduction table: for every access slot in the subtree,
    /// the address coefficient on this loop's dimension (zero
    /// coefficients are omitted).
    deltas: Vec<(usize, i64)>,
    children: Vec<CompiledNode>,
    /// Whether the single-access-body run fast path applies (exactly
    /// one child, an access, exact bounds, non-dynamic guard).
    run_body: bool,
}

impl CompiledLoop {
    /// The compiled children, in execution order (mirrors the source
    /// [`LoopNode::children`] one to one).
    pub fn children(&self) -> &[CompiledNode] {
        &self.children
    }

    /// Whether the domain contains `iv`, a grid point the walk offers to
    /// [`WalkVisitor::head`].  Always true when the bounds compiled
    /// exactly; a union domain is checked point by point.
    pub fn contains(&self, iv: &[i64]) -> bool {
        match &self.bounds {
            LoopBounds::Exact(_) => true,
            LoopBounds::Dynamic(set) => set.contains(iv),
        }
    }
}

/// A node of the compiled tree, mirroring the source [`Node`] shape.
#[derive(Clone, Debug)]
pub enum CompiledNode {
    /// A loop.
    Loop(CompiledLoop),
    /// An access.
    Access(CompiledAccess),
}

/// Reusable per-walk state: the iteration vector and the per-slot
/// running base addresses.  Steady-state iteration allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct WalkScratch {
    iv: Vec<i64>,
    bases: Vec<i64>,
    /// Endpoint buffers for the dynamic-bounds fallback.
    lex_a: Vec<i64>,
    lex_b: Vec<i64>,
}

/// A [`Scop`] lowered for the compiled walk.  Self-contained (owns
/// clones of the affine data it needs), so it can be cached next to the
/// parse-once kernel templates and shared across threads.
#[derive(Clone, Debug)]
pub struct CompiledScop {
    roots: Vec<CompiledNode>,
    num_slots: usize,
    num_loops: usize,
    max_depth: usize,
}

/// Lowers a SCoP for the compiled walk.
pub fn compile(scop: &Scop) -> CompiledScop {
    let mut lowering = Lowering::default();
    let roots = scop.roots().iter().map(|n| lowering.node(n)).collect();
    CompiledScop {
        roots,
        num_slots: scop.num_access_nodes(),
        num_loops: lowering.loops,
        max_depth: lowering.max_depth,
    }
}

/// The state threaded through [`compile`]'s recursion.
#[derive(Default)]
struct Lowering {
    /// Constraints of the enclosing exact loops.
    established: Vec<Constraint>,
    max_depth: usize,
    /// Loops lowered so far (the next loop's preorder id).
    loops: usize,
}

impl Lowering {
    fn node(&mut self, node: &Node) -> CompiledNode {
        match node {
            Node::Access(a) => CompiledNode::Access(self.lower_access(a)),
            Node::Loop(l) => CompiledNode::Loop(self.lower_loop(l)),
        }
    }

    fn lower_access(&self, a: &AccessNode) -> CompiledAccess {
        let guard = match a.domain.basics() {
            [bs] if bs
                .constraints()
                .iter()
                .all(|c| self.established.iter().any(|e| same_constraint(e, c))) =>
            {
                GuardPlan::Trivial
            }
            [bs] => GuardPlan::Exact(bs.clone()),
            _ => GuardPlan::Dynamic(a.domain.clone()),
        };
        CompiledAccess {
            id: a.id,
            depth: a.depth,
            kind: a.kind,
            coeffs: a.address.coeffs().to_vec(),
            constant: a.address.constant_term(),
            guard,
        }
    }

    fn lower_loop(&mut self, l: &LoopNode) -> CompiledLoop {
        let id = self.loops;
        self.loops += 1;
        self.max_depth = self.max_depth.max(l.depth);
        let (bounds, pushed) = match l.domain.basics() {
            [bs] => {
                let n = bs.constraints().len();
                self.established.extend(bs.constraints().iter().cloned());
                (LoopBounds::Exact(bs.clone()), n)
            }
            _ => (LoopBounds::Dynamic(l.domain.clone()), 0),
        };
        let children: Vec<CompiledNode> = l.children.iter().map(|c| self.node(c)).collect();
        self.established.truncate(self.established.len() - pushed);
        let mut deltas = Vec::new();
        for child in &children {
            collect_deltas(child, l.depth - 1, &mut deltas);
        }
        let run_body = matches!(bounds, LoopBounds::Exact(_))
            && children.len() == 1
            && matches!(
                &children[0],
                CompiledNode::Access(a) if !matches!(a.guard, GuardPlan::Dynamic(_))
            );
        CompiledLoop {
            id,
            depth: l.depth,
            stride: l.stride,
            bounds,
            deltas,
            children,
            run_body,
        }
    }
}

/// Collects `(slot, coeff-on-dim)` pairs for every access in the
/// subtree whose address involves the dimension.
fn collect_deltas(node: &CompiledNode, dim: usize, out: &mut Vec<(usize, i64)>) {
    match node {
        CompiledNode::Access(a) => {
            let c = a.coeffs.get(dim).copied().unwrap_or(0);
            if c != 0 {
                out.push((a.id, c));
            }
        }
        CompiledNode::Loop(l) => {
            for child in &l.children {
                collect_deltas(child, dim, out);
            }
        }
    }
}

/// Whether two constraints are syntactically identical, comparing
/// coefficient vectors up to trailing zeros (enclosing loop domains
/// range over fewer dimensions than the access domains they imply).
fn same_constraint(a: &Constraint, b: &Constraint) -> bool {
    if a.kind() != b.kind() || a.aff().constant_term() != b.aff().constant_term() {
        return false;
    }
    let (x, y) = (a.aff().coeffs(), b.aff().coeffs());
    let n = x.len().max(y.len());
    (0..n).all(|i| x.get(i).copied().unwrap_or(0) == y.get(i).copied().unwrap_or(0))
}

/// A consumer of the compiled walk.
///
/// The walk drives one visitor through the SCoP in execution order.
/// Every hook but [`WalkVisitor::run`] defaults to a no-op, so a plain
/// access consumer only implements that one; the loop hooks let a
/// consumer watch (and skip ahead in) the loop structure without a
/// walker of its own.  With every hook inlined away the walk costs what
/// a hand-written closure walk costs.
pub trait WalkVisitor {
    /// Whether an innermost loop whose body is a single access may emit
    /// one [`AccessRun`] per entry.  Such entries call
    /// [`WalkVisitor::enter`] and [`WalkVisitor::exit`] but no
    /// [`WalkVisitor::head`]; with `RUNS = false` every run has count 1.
    const RUNS: bool;

    /// Called for every run of accesses, in execution order.  `iv` is the
    /// iteration vector of the run's first access (its length is the
    /// access depth).
    fn run(&mut self, run: &AccessRun, iv: &[i64]);

    /// Called when an entry of `l` with at least one grid point starts.
    /// The entry's iterator starts at `first` and moves by `l.stride`
    /// towards `last`, the far end of the entry's bound interval (the
    /// last value when that lies on the stride grid).
    fn enter(&mut self, _l: &CompiledLoop, _first: i64, _last: i64) {}

    /// Called when the entry of `l` started by the matching
    /// [`WalkVisitor::enter`] ends.
    fn exit(&mut self, _l: &CompiledLoop) {}

    /// Called at the head of every iteration of `l`, before its body —
    /// for a loop that did not compile exactly, at every grid point,
    /// before the point's membership check.  `iv` ends with the current
    /// iterator value, and `index` counts grid points since the entry's
    /// first value.  Returning `k > 0` skips `k` iterations unvisited:
    /// the iterator and the strength-reduced base addresses advance by
    /// `k` strides and the head is called again there, or the entry ends
    /// if that is past its last grid point.
    fn head(&mut self, _l: &CompiledLoop, _iv: &[i64], _index: u64) -> u64 {
        0
    }
}

/// The closure adapter behind [`CompiledScop::for_each_run`] and
/// [`for_each_run_at`]: batched runs, access count kept alongside.
struct RunVisitor<F> {
    visit: F,
    count: u64,
}

impl<F: FnMut(&AccessRun)> WalkVisitor for RunVisitor<F> {
    const RUNS: bool = true;

    fn run(&mut self, run: &AccessRun, _iv: &[i64]) {
        self.count += run.count;
        (self.visit)(run);
    }
}

/// Counts accesses and, once the count passes `cap`, skips every
/// remaining iteration of every loop.
struct CappedCount {
    cap: u64,
    count: u64,
}

impl WalkVisitor for CappedCount {
    const RUNS: bool = true;

    fn run(&mut self, run: &AccessRun, _iv: &[i64]) {
        self.count = self.count.saturating_add(run.count);
    }

    fn head(&mut self, _l: &CompiledLoop, _iv: &[i64], _index: u64) -> u64 {
        if self.count > self.cap {
            u64::MAX
        } else {
            0
        }
    }
}

impl CompiledScop {
    /// The compiled top-level nodes, in execution order (mirrors
    /// [`Scop::roots`] one to one).
    pub fn roots(&self) -> &[CompiledNode] {
        &self.roots
    }

    /// The number of loops in the SCoP: every [`CompiledLoop::id`] is
    /// below it.
    pub fn num_loops(&self) -> usize {
        self.num_loops
    }

    /// A scratch buffer sized for this SCoP.  Reuse it across walks to
    /// keep steady-state iteration allocation-free.
    pub fn new_scratch(&self) -> WalkScratch {
        WalkScratch {
            iv: Vec::with_capacity(self.max_depth),
            bases: vec![0; self.num_slots],
            lex_a: Vec::new(),
            lex_b: Vec::new(),
        }
    }

    /// Drives `visitor` through the whole SCoP in execution order.
    pub fn walk<V: WalkVisitor>(&self, scratch: &mut WalkScratch, visitor: &mut V) {
        for root in &self.roots {
            walk_at(root, &[], scratch, visitor);
        }
    }

    /// Walks every access run of the SCoP in execution order.  Returns
    /// the number of dynamic accesses covered.
    pub fn for_each_run(&self, scratch: &mut WalkScratch, visit: impl FnMut(&AccessRun)) -> u64 {
        let mut visitor = RunVisitor { visit, count: 0 };
        self.walk(scratch, &mut visitor);
        visitor.count
    }

    /// Walks every dynamic access (runs expanded) in execution order.
    /// The stream is identical to the reference walk's: same node ids,
    /// addresses, kinds, same order.
    pub fn for_each_access(
        &self,
        scratch: &mut WalkScratch,
        mut visit: impl FnMut(usize, u64, AccessKind),
    ) -> u64 {
        self.for_each_run(scratch, |run| {
            let mut addr = run.base as i64;
            for _ in 0..run.count {
                visit(run.node, addr as u64, run.kind);
                addr += run.stride;
            }
        })
    }

    /// Whether the SCoP performs strictly more than `cap` dynamic
    /// accesses.  The walk skips every remaining iteration once the
    /// count passes `cap`, so probing a trillion-access kernel against a
    /// small budget costs O(cap) instead of O(total).  Serving layers
    /// use it to decide when to degrade a request to approximate
    /// simulation.
    pub fn exceeds_access_count(&self, cap: u64) -> bool {
        let mut visitor = CappedCount { cap, count: 0 };
        self.walk(&mut self.new_scratch(), &mut visitor);
        visitor.count > cap
    }

    /// The exact dynamic access count in closed form, for SCoPs whose
    /// loop bounds and guards are all rectangular (every constraint
    /// involves a single dimension).  `None` means the shape is not
    /// rectangular and the count must be derived by walking; the count
    /// saturates at `u64::MAX` instead of overflowing.
    pub fn static_access_count(&self) -> Option<u64> {
        let mut grids = Vec::new();
        let mut established = Vec::new();
        let mut total: u64 = 0;
        for root in &self.roots {
            total = total.saturating_add(static_count_node(root, &mut grids, &mut established)?);
        }
        Some(total)
    }
}

/// Drives `visitor` through one compiled subtree at a fixed outer
/// iteration vector — the per-subtree slice of [`CompiledScop::walk`],
/// which lets a consumer replay one outer iteration at a time.
pub fn walk_at<V: WalkVisitor>(
    node: &CompiledNode,
    outer: &[i64],
    scratch: &mut WalkScratch,
    visitor: &mut V,
) {
    scratch.iv.clear();
    scratch.iv.extend_from_slice(outer);
    init_bases(node, outer, &mut scratch.bases);
    walk_node(node, scratch, visitor);
}

/// Walks the access runs of one compiled subtree at a fixed outer
/// iteration vector (see [`walk_at`]), used by interval samplers to
/// replay one outer iteration at a time.  Returns the number of dynamic
/// accesses covered.
pub fn for_each_run_at(
    node: &CompiledNode,
    outer: &[i64],
    scratch: &mut WalkScratch,
    visit: impl FnMut(&AccessRun),
) -> u64 {
    let mut visitor = RunVisitor { visit, count: 0 };
    walk_at(node, outer, scratch, &mut visitor);
    visitor.count
}

/// Seeds the base-address slots of every access in the subtree with the
/// address constant plus the contribution of the fixed outer prefix.
fn init_bases(node: &CompiledNode, outer: &[i64], bases: &mut Vec<i64>) {
    match node {
        CompiledNode::Access(a) => {
            let mut v = a.constant;
            for (c, x) in a.coeffs.iter().zip(outer) {
                v += c * x;
            }
            if a.id >= bases.len() {
                bases.resize(a.id + 1, 0);
            }
            bases[a.id] = v;
        }
        CompiledNode::Loop(l) => {
            for child in &l.children {
                init_bases(child, outer, bases);
            }
        }
    }
}

fn walk_node<V: WalkVisitor>(node: &CompiledNode, scratch: &mut WalkScratch, visitor: &mut V) {
    match node {
        CompiledNode::Access(a) => {
            if a.guard_holds(&scratch.iv) {
                let base = scratch.bases[a.id];
                debug_assert!(base >= 0, "access to a negative address");
                let run = AccessRun {
                    node: a.id,
                    base: base as u64,
                    stride: 0,
                    count: 1,
                    kind: a.kind,
                };
                visitor.run(&run, &scratch.iv);
            }
        }
        CompiledNode::Loop(l) => walk_loop(l, scratch, visitor),
    }
}

fn walk_loop<V: WalkVisitor>(l: &CompiledLoop, scratch: &mut WalkScratch, visitor: &mut V) {
    let d = l.depth;
    let s = l.stride;
    // The entry's grid: first value, far bound, and the set every grid
    // point must be checked against (none when the bounds are exact).
    let (v0, v_end, member) = match &l.bounds {
        LoopBounds::Exact(bs) => match bs.dim_bounds(d - 1, &scratch.iv) {
            Some((Some(lo), Some(hi))) if lo <= hi => {
                if s > 0 {
                    (lo, hi, None)
                } else {
                    (hi, lo, None)
                }
            }
            _ => return,
        },
        LoopBounds::Dynamic(set) => {
            // Lexmin/lexmax anchors, per-point membership.
            let WalkScratch {
                iv, lex_a, lex_b, ..
            } = &mut *scratch;
            let found = if s < 0 {
                set.lexmax_with_prefix_into(iv, lex_a) && set.lexmin_with_prefix_into(iv, lex_b)
            } else {
                set.lexmin_with_prefix_into(iv, lex_a) && set.lexmax_with_prefix_into(iv, lex_b)
            };
            if !found {
                return;
            }
            (lex_a[d - 1], lex_b[d - 1], Some(set))
        }
    };
    let n = (v_end - v0) / s + 1;
    visitor.enter(l, v0, v_end);
    if V::RUNS && l.run_body {
        let CompiledNode::Access(a) = &l.children[0] else {
            unreachable!("run_body implies a single access child");
        };
        emit_run(
            a,
            d,
            s,
            v0,
            n,
            v0.min(v_end),
            v0.max(v_end),
            scratch,
            visitor,
        );
    } else {
        walk_iterations(l, member, v0, n, scratch, visitor);
    }
    visitor.exit(l);
}

/// Steps through the `n` grid points of one loop entry starting at
/// `v0`, calling the head hook at each and walking the body of every
/// point that is not skipped (and, for a non-exact loop, is in the
/// domain).
fn walk_iterations<V: WalkVisitor>(
    l: &CompiledLoop,
    member: Option<&Set>,
    v0: i64,
    n: i64,
    scratch: &mut WalkScratch,
    visitor: &mut V,
) {
    let s = l.stride;
    scratch.iv.push(v0);
    for &(slot, c) in &l.deltas {
        scratch.bases[slot] += c * v0;
    }
    let mut v = v0;
    let mut k: i64 = 0;
    loop {
        let skip = visitor.head(l, &scratch.iv, k as u64);
        let step = if skip == 0 {
            if member.is_none_or(|set| set.contains(&scratch.iv)) {
                for child in &l.children {
                    walk_node(child, scratch, visitor);
                }
            }
            1
        } else {
            skip.min((n - k) as u64) as i64
        };
        k += step;
        if k >= n {
            break;
        }
        v += step * s;
        *scratch.iv.last_mut().expect("loop pushed its dimension") = v;
        for &(slot, c) in &l.deltas {
            scratch.bases[slot] += c * s * step;
        }
    }
    for &(slot, c) in &l.deltas {
        scratch.bases[slot] -= c * v;
    }
    scratch.iv.pop();
}

/// The run fast path: one [`AccessRun`] per loop entry, its interval
/// clipped to the access guard on the stride grid.
#[allow(clippy::too_many_arguments)]
fn emit_run<V: WalkVisitor>(
    a: &CompiledAccess,
    d: usize,
    s: i64,
    v0: i64,
    n: i64,
    lo: i64,
    hi: i64,
    scratch: &mut WalkScratch,
    visitor: &mut V,
) {
    let (k_min, k_max) = match &a.guard {
        GuardPlan::Trivial => (0, n - 1),
        GuardPlan::Exact(bs) => {
            let Some((glo, ghi)) = bs.dim_bounds(d - 1, &scratch.iv) else {
                return;
            };
            let (glo, ghi) = (glo.unwrap_or(lo), ghi.unwrap_or(hi));
            if glo > ghi {
                return;
            }
            // Grid indices k with glo <= v0 + k*s <= ghi.
            let (k_min, k_max) = if s > 0 {
                (div_ceil(glo - v0, s), div_floor(ghi - v0, s))
            } else {
                (div_ceil(v0 - ghi, -s), div_floor(v0 - glo, -s))
            };
            (k_min.max(0), k_max.min(n - 1))
        }
        GuardPlan::Dynamic(_) => unreachable!("run bodies never have dynamic guards"),
    };
    if k_min > k_max {
        return;
    }
    let first = v0 + k_min * s;
    let c = a.coeffs.get(d - 1).copied().unwrap_or(0);
    let base = scratch.bases[a.id] + c * first;
    debug_assert!(base >= 0, "access to a negative address");
    let run = AccessRun {
        node: a.id,
        base: base as u64,
        stride: c * s,
        count: (k_max - k_min + 1) as u64,
        kind: a.kind,
    };
    scratch.iv.push(first);
    visitor.run(&run, &scratch.iv);
    scratch.iv.pop();
}

/// One enclosing loop's stride grid for the closed-form count.
#[derive(Clone, Copy)]
struct Grid {
    /// First grid value (`lo` for positive strides, `hi` for negative).
    v0: i64,
    stride: i64,
    /// Inclusive bound interval.
    lo: i64,
    hi: i64,
    /// Grid points in the interval.
    n: i64,
}

fn static_count_node(
    node: &CompiledNode,
    grids: &mut Vec<Grid>,
    established: &mut Vec<Constraint>,
) -> Option<u64> {
    match node {
        CompiledNode::Access(a) => static_count_access(a, grids),
        CompiledNode::Loop(l) => {
            let LoopBounds::Exact(bs) = &l.bounds else {
                return None;
            };
            let interval = match rect_interval(bs, l.depth - 1, established)? {
                Some(iv) => iv,
                // Exactly empty: the subtree contributes nothing.
                None => return Some(0),
            };
            let (lo, hi) = interval;
            let s = l.stride;
            let grid = Grid {
                v0: if s > 0 { lo } else { hi },
                stride: s,
                lo,
                hi,
                n: (hi - lo) / s.abs() + 1,
            };
            grids.push(grid);
            let pushed = bs.constraints().len();
            established.extend(bs.constraints().iter().cloned());
            let mut sum: Option<u64> = Some(0);
            for child in &l.children {
                match static_count_node(child, grids, established) {
                    Some(c) => sum = sum.map(|s| s.saturating_add(c)),
                    None => {
                        sum = None;
                        break;
                    }
                }
            }
            established.truncate(established.len() - pushed);
            grids.pop();
            sum
        }
    }
}

fn static_count_access(a: &CompiledAccess, grids: &[Grid]) -> Option<u64> {
    debug_assert_eq!(a.depth, grids.len(), "grids mirror the enclosing loops");
    match &a.guard {
        GuardPlan::Trivial => Some(
            grids
                .iter()
                .fold(1u64, |acc, g| acc.saturating_mul(g.n as u64)),
        ),
        GuardPlan::Exact(bs) => {
            let mut product: u64 = 1;
            for (k, g) in grids.iter().enumerate() {
                let clipped = match rect_interval_for_dim(bs, k)? {
                    Some(iv) => iv,
                    None => return Some(0),
                };
                let (glo, ghi) = (clipped.0.max(g.lo), clipped.1.min(g.hi));
                if glo > ghi {
                    return Some(0);
                }
                let s = g.stride;
                let (k_min, k_max) = if s > 0 {
                    (div_ceil(glo - g.v0, s), div_floor(ghi - g.v0, s))
                } else {
                    (div_ceil(g.v0 - ghi, -s), div_floor(g.v0 - glo, -s))
                };
                let (k_min, k_max) = (k_min.max(0), k_max.min(g.n - 1));
                if k_min > k_max {
                    return Some(0);
                }
                product = product.saturating_mul((k_max - k_min + 1) as u64);
            }
            Some(product)
        }
        GuardPlan::Dynamic(set) if a.depth == 0 => Some(u64::from(set.contains(&[]))),
        GuardPlan::Dynamic(_) => None,
    }
}

/// The interval `[lo, hi]` a single-conjunction loop domain imposes on
/// dimension `dim`, when every constraint not already established by an
/// enclosing loop is rectangular (involves only that one dimension).
/// Outer `None` = not rectangular or unbounded (fall back to walking);
/// inner `None` = exactly empty.
fn rect_interval(
    bs: &BasicSet,
    dim: usize,
    established: &[Constraint],
) -> Option<Option<(i64, i64)>> {
    let mut lo = i64::MIN;
    let mut hi = i64::MAX;
    for c in bs.constraints() {
        // Constraints inherited from enclosing exact loops hold for
        // every entry by construction.
        if established.iter().any(|e| same_constraint(e, c)) {
            continue;
        }
        for ineq in c.as_inequalities() {
            let aff = ineq.aff();
            match aff.last_involved_dim() {
                None => {
                    if aff.constant_term() < 0 {
                        return Some(None);
                    }
                }
                Some(d)
                    if d == dim
                        && aff
                            .coeffs()
                            .iter()
                            .enumerate()
                            .all(|(i, &v)| i == dim || v == 0) =>
                {
                    // a*x + b >= 0
                    let a = aff.coeff(dim);
                    let b = aff.constant_term();
                    if a > 0 {
                        lo = lo.max(div_ceil(-b, a));
                    } else {
                        hi = hi.min(div_floor(b, -a));
                    }
                }
                _ => return None,
            }
        }
    }
    // Unbounded rectangular domains have no closed-form count.
    if lo == i64::MIN || hi == i64::MAX {
        return None;
    }
    if lo > hi {
        return Some(None);
    }
    Some(Some((lo, hi)))
}

/// Like [`rect_interval`] but for an access guard: constraints
/// involving *other* dimensions only make the guard non-rectangular,
/// and a dimension without bound constraints is unclipped.
fn rect_interval_for_dim(bs: &BasicSet, dim: usize) -> Option<Option<(i64, i64)>> {
    let mut lo = i64::MIN;
    let mut hi = i64::MAX;
    for c in bs.constraints() {
        for ineq in c.as_inequalities() {
            let aff = ineq.aff();
            match aff.last_involved_dim() {
                None => {
                    // Constant constraint: either trivially true or the
                    // whole domain is empty.
                    if aff.constant_term() < 0 {
                        return Some(None);
                    }
                }
                Some(d) if d == dim => {
                    let a = aff.coeff(dim);
                    let b = aff.constant_term();
                    // a*x + b >= 0
                    if aff
                        .coeffs()
                        .iter()
                        .enumerate()
                        .any(|(i, &v)| i != dim && v != 0)
                    {
                        return None;
                    }
                    if a > 0 {
                        lo = lo.max(div_ceil(-b, a));
                    } else {
                        hi = hi.min(div_floor(b, -a));
                    }
                }
                Some(d) => {
                    // Involves another dimension: rectangular only if it
                    // does not couple dimensions.
                    if aff.coeffs().iter().filter(|&&v| v != 0).count() > 1 {
                        return None;
                    }
                    let _ = d; // single-dim constraint on another dim:
                               // handled when that dim is queried.
                }
            }
        }
    }
    if lo > hi {
        return Some(None);
    }
    Some(Some((lo, hi)))
}

fn div_floor(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    a.div_euclid(b)
}

fn div_ceil(a: i64, b: i64) -> i64 {
    debug_assert!(b > 0);
    -((-a).div_euclid(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walk::for_each_access;
    use crate::{elaborate, parse_program, ElaborateOptions};

    fn scop_of(src: &str) -> Scop {
        elaborate(&parse_program(src).unwrap(), &ElaborateOptions::default()).unwrap()
    }

    fn reference_stream(scop: &Scop) -> Vec<(usize, u64, AccessKind)> {
        let mut out = Vec::new();
        for_each_access(scop, |acc| out.push((acc.node.id, acc.address, acc.kind)));
        out
    }

    fn compiled_stream(scop: &Scop) -> Vec<(usize, u64, AccessKind)> {
        let compiled = compile(scop);
        let mut scratch = compiled.new_scratch();
        let mut out = Vec::new();
        let n = compiled.for_each_access(&mut scratch, |node, addr, kind| {
            out.push((node, addr, kind));
        });
        assert_eq!(n as usize, out.len());
        out
    }

    #[track_caller]
    fn assert_equivalent(src: &str) {
        let scop = scop_of(src);
        assert_eq!(compiled_stream(&scop), reference_stream(&scop), "{src}");
    }

    #[test]
    fn streaming_kernel_is_one_run_per_entry() {
        let scop = scop_of("double A[1024]; for (i = 0; i < 1024; i++) A[i] = 0;");
        let compiled = compile(&scop);
        let mut scratch = compiled.new_scratch();
        let mut runs = Vec::new();
        let total = compiled.for_each_run(&mut scratch, |run| runs.push(*run));
        assert_eq!(total, 1024);
        assert_eq!(runs.len(), 1, "a single-access body emits one run");
        assert_eq!(runs[0].count, 1024);
        assert_eq!(runs[0].stride, 8);
        assert_eq!(runs[0].base, scop.arrays()[0].base_address);
    }

    #[test]
    fn stencil_matches_reference() {
        assert_equivalent(
            "double A[1000]; double B[1000];\n\
             for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];",
        );
    }

    #[test]
    fn triangular_guarded_and_strided_match_reference() {
        assert_equivalent(
            "double A[100][100]; double x[100]; double c[100];\n\
             for (i = 0; i < 100; i++) {\n\
               c[i] = 0;\n\
               for (j = i; j < 100; j++) c[i] = c[i] + A[i][j] * x[j];\n\
             }",
        );
        assert_equivalent("double A[100]; for (i = 0; i < 100; i++) if (i >= 90) A[i] = 0;");
        assert_equivalent("double A[200]; for (i = 0; i < 100; i += 2) A[i] = A[i+1];");
        assert_equivalent("double A[20]; for (i = 0; i < 11; i += 3) A[i] = 0;");
    }

    #[test]
    fn decreasing_and_nested_loops_match_reference() {
        assert_equivalent("double A[10]; for (i = 9; i >= 0; i--) A[i] = 0;");
        assert_equivalent("double A[10]; for (i = 9; i >= 0; i -= 3) A[i] = 0;");
        assert_equivalent("double A[10]; for (i = 9; i > 1; i -= 3) A[i] = 0;");
        assert_equivalent("double A[10]; for (i = 9; i >= 0; i -= 3) if (i < 7) A[i] = 0;");
        assert_equivalent(
            "double A[8][8];\n\
             for (i = 0; i < 4; i++) for (j = 3; j >= 0; j--) A[i][j] = 0;",
        );
    }

    #[test]
    fn empty_domains_emit_nothing() {
        assert_equivalent("double A[10]; for (i = 5; i < 5; i++) A[i] = 0;");
        let scop = scop_of("double A[10]; for (i = 5; i < 5; i++) A[i] = 0;");
        assert_eq!(compile(&scop).static_access_count(), Some(0));
        assert_equivalent("double A[10]; for (i = 5; i < 3; i++) A[i] = 0;");
        // A constant-false guard leaves the inner loop's domain with no
        // conjunction at all: it takes the dynamic path.
        let src = "double A[10];\n\
                   for (t = 0; t < 3; t++) if (3 > 5) for (j = 0; j < 4; j++) A[j] = 0;";
        assert_equivalent(src);
        let compiled = compile(&scop_of(src));
        let CompiledNode::Loop(outer) = &compiled.roots()[0] else {
            panic!("root is a loop");
        };
        let CompiledNode::Loop(inner) = &outer.children()[0] else {
            panic!("the guarded child is a loop");
        };
        assert!(matches!(inner.bounds, LoopBounds::Dynamic(_)));
    }

    #[test]
    fn rectangular_guards_are_hoisted() {
        let scop = scop_of("double A[100]; for (i = 0; i < 100; i++) A[i] = 0;");
        let compiled = compile(&scop);
        let CompiledNode::Loop(l) = &compiled.roots()[0] else {
            panic!("root is a loop");
        };
        assert!(matches!(l.bounds, LoopBounds::Exact(_)));
        let CompiledNode::Access(a) = &l.children()[0] else {
            panic!("child is an access");
        };
        assert!(
            matches!(a.guard, GuardPlan::Trivial),
            "guard-free rectangular accesses hoist entirely"
        );
    }

    #[test]
    fn static_count_matches_walking() {
        for src in [
            "double A[100]; for (i = 0; i < 100; i++) A[i] = 0;",
            "double A[100]; for (i = 0; i < 100; i++) if (i >= 90) A[i] = 0;",
            "double A[20]; for (i = 0; i < 11; i += 3) A[i] = 0;",
            "double A[10]; for (i = 9; i >= 0; i -= 3) if (i < 7) A[i] = 0;",
            "double A[16][16]; for (i = 0; i < 16; i++) for (j = 0; j < 16; j++) A[i][j] = 0;",
        ] {
            let scop = scop_of(src);
            let walked = crate::walk::count_accesses(&scop);
            assert_eq!(compile(&scop).static_access_count(), Some(walked), "{src}");
        }
        // Triangular domains have no closed form: the walking probe decides.
        let tri = scop_of(
            "double A[10][10];\n\
             for (i = 0; i < 10; i++) for (j = i; j < 10; j++) A[i][j] = 0;",
        );
        assert_eq!(compile(&tri).static_access_count(), None);
    }

    #[test]
    fn per_subtree_runs_match_full_walk() {
        let scop = scop_of(
            "double A[200]; double B[200];\n\
             for (i = 1; i < 99; i++) B[i] = A[i-1] + A[i+1];",
        );
        let compiled = compile(&scop);
        let mut scratch = compiled.new_scratch();
        let mut full = Vec::new();
        compiled.for_each_access(&mut scratch, |node, addr, kind| {
            full.push((node, addr, kind));
        });
        let CompiledNode::Loop(l) = &compiled.roots()[0] else {
            panic!("root is a loop");
        };
        let mut replayed = Vec::new();
        let mut count = 0;
        for i in 1..99i64 {
            for child in l.children() {
                count += for_each_run_at(child, &[i], &mut scratch, |run| {
                    for addr in run.addresses() {
                        replayed.push((run.node, addr, run.kind));
                    }
                });
            }
        }
        assert_eq!(count as usize, full.len());
        assert_eq!(replayed, full);
    }
}
