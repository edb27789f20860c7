//! Elaboration of the affine AST into the SCoP tree representation.
//!
//! Elaboration resolves iterator names to dimensions, accumulates the
//! iteration domains of nested loops and guards, lays out arrays in a
//! simulated address space and linearises array subscripts into affine byte
//! address expressions (the `linearize`/`block` step of §3.2 of the paper).

use crate::ast::{ArrayAccess, CmpOp, Condition, Expr, Program, Statement};
use crate::tree::{AccessNode, ArrayInfo, LoopNode, Node, Scop};
use cache_model::AccessKind;
use polyhedra::{Aff, BasicSet, Constraint, Set};
use std::collections::HashMap;
use std::fmt;

/// Options controlling elaboration.
#[derive(Clone, Debug)]
pub struct ElaborateOptions {
    /// Whether references to undeclared identifiers are modelled as
    /// zero-dimensional arrays (scalars).  The paper's tool and HayStack
    /// consider array accesses only; Dinero IV also sees scalar accesses, so
    /// the trace-based reference model enables this option.
    pub include_scalars: bool,
    /// Alignment (in bytes) of each array's base address.
    pub array_alignment: u64,
    /// Base address of the first array.
    pub base_address: u64,
    /// Element size assumed for scalars.
    pub scalar_size: u64,
}

impl Default for ElaborateOptions {
    fn default() -> Self {
        ElaborateOptions {
            include_scalars: false,
            array_alignment: 64,
            base_address: 64,
            scalar_size: 8,
        }
    }
}

impl ElaborateOptions {
    /// Options that additionally model scalar accesses (used by the
    /// hardware-reference model).
    pub fn with_scalars() -> Self {
        ElaborateOptions {
            include_scalars: true,
            ..ElaborateOptions::default()
        }
    }
}

/// Errors reported by [`elaborate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ElaborateError {
    /// An expression refers to a name that is not a loop iterator in scope.
    UnknownIterator(String),
    /// A subscripted reference to an array that was never declared.
    UnknownArray(String),
    /// The number of subscripts does not match the array's dimensionality.
    SubscriptCount {
        /// Array name.
        array: String,
        /// Expected number of subscripts.
        expected: usize,
        /// Number of subscripts found.
        found: usize,
    },
    /// The same iterator name is used by two nested loops.
    DuplicateIterator(String),
    /// An array extent did not fold to a constant (an unbound parameter).
    NonConstantExtent {
        /// Array name.
        array: String,
        /// The offending extent expression.
        expr: String,
    },
    /// An array extent folded to a non-positive value after substitution.
    NonPositiveExtent {
        /// Array name.
        array: String,
        /// The folded extent value.
        value: i64,
    },
    /// A loop stride did not fold to a constant (an unbound parameter).
    NonConstantStride {
        /// Loop iterator name.
        iter: String,
        /// The offending stride expression.
        expr: String,
    },
    /// A loop stride folded to zero after substitution.
    ZeroStride(String),
    /// A division or product did not fold to an affine expression.
    NonAffine(String),
    /// An array does not fit the simulated address space: its end
    /// address would pass `i64::MAX`.
    ArrayTooLarge(String),
}

impl fmt::Display for ElaborateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElaborateError::UnknownIterator(n) => write!(f, "unknown iterator `{n}`"),
            ElaborateError::UnknownArray(n) => write!(f, "unknown array `{n}`"),
            ElaborateError::SubscriptCount {
                array,
                expected,
                found,
            } => write!(
                f,
                "array `{array}` has {expected} dimensions but {found} subscripts were given"
            ),
            ElaborateError::DuplicateIterator(n) => {
                write!(f, "iterator `{n}` shadows an enclosing loop iterator")
            }
            ElaborateError::NonConstantExtent { array, expr } => write!(
                f,
                "array `{array}` has non-constant extent `{expr}` (bind its parameters before \
                 elaborating)"
            ),
            ElaborateError::NonPositiveExtent { array, value } => write!(
                f,
                "array `{array}` has non-positive extent {value} after parameter substitution"
            ),
            ElaborateError::NonConstantStride { iter, expr } => write!(
                f,
                "loop `{iter}` has non-constant stride `{expr}` (bind its parameters before \
                 elaborating)"
            ),
            ElaborateError::ZeroStride(iter) => write!(
                f,
                "loop `{iter}` has zero stride after parameter substitution"
            ),
            ElaborateError::ArrayTooLarge(array) => write!(
                f,
                "array `{array}` does not fit the simulated address space (its end address \
                 would pass {})",
                i64::MAX
            ),
            ElaborateError::NonAffine(expr) => write!(
                f,
                "non-affine expression `{expr}` (divisions and symbolic products must fold to \
                 constants after parameter substitution)"
            ),
        }
    }
}

impl std::error::Error for ElaborateError {}

/// Elaborates an affine [`Program`] into a [`Scop`].
///
/// # Errors
///
/// Returns an [`ElaborateError`] if the program refers to unknown iterators
/// or arrays, or subscripts an array with the wrong number of indices.
pub fn elaborate(program: &Program, options: &ElaborateOptions) -> Result<Scop, ElaborateError> {
    let mut elab = Elaborator::new(program, options.clone())?;
    let mut roots = Vec::new();
    let empty_domain = Set::universe(0);
    for stmt in &program.stmts {
        elab.statement(stmt, &mut Vec::new(), &empty_domain, &mut roots)?;
    }
    Ok(elab.finish(roots))
}

struct Elaborator {
    options: ElaborateOptions,
    arrays: Vec<ArrayInfo>,
    array_index: HashMap<String, usize>,
    next_base: u64,
    next_access_id: usize,
}

impl Elaborator {
    fn new(program: &Program, options: ElaborateOptions) -> Result<Self, ElaborateError> {
        let mut elab = Elaborator {
            next_base: options.base_address,
            options,
            arrays: Vec::new(),
            array_index: HashMap::new(),
            next_access_id: 0,
        };
        for decl in &program.arrays {
            let mut extents = Vec::with_capacity(decl.extents.len());
            for extent in &decl.extents {
                let value =
                    extent
                        .eval_const()
                        .ok_or_else(|| ElaborateError::NonConstantExtent {
                            array: decl.name.clone(),
                            expr: extent.to_string(),
                        })?;
                if value <= 0 {
                    return Err(ElaborateError::NonPositiveExtent {
                        array: decl.name.clone(),
                        value,
                    });
                }
                extents.push(value as u64);
            }
            elab.declare_array(&decl.name, extents, decl.elem_size)?;
        }
        Ok(elab)
    }

    /// Lays out an array after the previous one.  Addresses are affine
    /// `i64` expressions, so an array whose end would pass `i64::MAX` is
    /// rejected rather than wrapped onto its neighbours.
    fn declare_array(
        &mut self,
        name: &str,
        extents: Vec<u64>,
        elem_size: u64,
    ) -> Result<usize, ElaborateError> {
        let align = self.options.array_alignment.max(1);
        let base = self.next_base.checked_next_multiple_of(align);
        let info = ArrayInfo {
            name: name.to_owned(),
            extents,
            elem_size,
            base_address: base.unwrap_or(0),
        };
        let end = base
            .zip(info.size_bytes())
            .and_then(|(base, size)| base.checked_add(size))
            .filter(|&end| end <= i64::MAX as u64)
            .ok_or_else(|| ElaborateError::ArrayTooLarge(name.to_owned()))?;
        self.next_base = end;
        let idx = self.arrays.len();
        self.arrays.push(info);
        self.array_index.insert(name.to_owned(), idx);
        Ok(idx)
    }

    fn finish(self, roots: Vec<Node>) -> Scop {
        Scop::new(self.arrays, roots, self.next_access_id)
    }

    fn statement(
        &mut self,
        stmt: &Statement,
        iters: &mut Vec<String>,
        domain: &Set,
        out: &mut Vec<Node>,
    ) -> Result<(), ElaborateError> {
        match stmt {
            Statement::For {
                iter,
                lower,
                upper,
                stride,
                body,
            } => {
                if iters.iter().any(|i| i == iter) {
                    return Err(ElaborateError::DuplicateIterator(iter.clone()));
                }
                let stride =
                    stride
                        .eval_const()
                        .ok_or_else(|| ElaborateError::NonConstantStride {
                            iter: iter.clone(),
                            expr: stride.to_string(),
                        })?;
                if stride == 0 {
                    return Err(ElaborateError::ZeroStride(iter.clone()));
                }
                let depth = iters.len() + 1;
                iters.push(iter.clone());
                let lower_aff = expr_to_aff(lower, iters, depth)?;
                let upper_aff = expr_to_aff(upper, iters, depth)?;
                let var = Aff::var(depth, depth - 1);
                let bounds = BasicSet::universe(depth)
                    .with_ge(var.clone().sub(&lower_aff))
                    .with_gt(upper_aff.sub(&var));
                let loop_domain = domain.extend_dims(depth).intersect_basic(&bounds);
                let mut children = Vec::new();
                for s in body {
                    self.statement(s, iters, &loop_domain, &mut children)?;
                }
                iters.pop();
                out.push(Node::Loop(LoopNode {
                    depth,
                    domain: loop_domain,
                    stride,
                    children,
                }));
                Ok(())
            }
            Statement::If { conditions, body } => {
                let depth = iters.len();
                let mut guard = BasicSet::universe(depth);
                for c in conditions {
                    guard.add_constraint(condition_to_constraint(c, iters, depth)?);
                }
                let guarded = domain.intersect_basic(&guard);
                for s in body {
                    self.statement(s, iters, &guarded, out)?;
                }
                Ok(())
            }
            Statement::Assign { write, reads } => {
                for r in reads {
                    if let Some(node) = self.access_node(r, AccessKind::Read, iters, domain)? {
                        out.push(Node::Access(node));
                    }
                }
                if let Some(node) = self.access_node(write, AccessKind::Write, iters, domain)? {
                    out.push(Node::Access(node));
                }
                Ok(())
            }
        }
    }

    fn access_node(
        &mut self,
        access: &ArrayAccess,
        kind: AccessKind,
        iters: &[String],
        domain: &Set,
    ) -> Result<Option<AccessNode>, ElaborateError> {
        let depth = iters.len();
        let array_idx = match self.array_index.get(&access.array) {
            Some(&idx) => idx,
            None => {
                if !access.indices.is_empty() {
                    return Err(ElaborateError::UnknownArray(access.array.clone()));
                }
                if !self.options.include_scalars {
                    return Ok(None);
                }
                self.declare_array(&access.array, Vec::new(), self.options.scalar_size)?
            }
        };
        let info = &self.arrays[array_idx];
        if access.indices.len() != info.extents.len() {
            return Err(ElaborateError::SubscriptCount {
                array: access.array.clone(),
                expected: info.extents.len(),
                found: access.indices.len(),
            });
        }
        // Row-major linearisation: ((i1 * e2 + i2) * e3 + i3) ...
        let mut linear = Aff::constant(depth, 0);
        for (dim, idx_expr) in access.indices.iter().enumerate() {
            let idx = expr_to_aff(idx_expr, iters, depth)?;
            if dim > 0 {
                linear = linear.scale(info.extents[dim] as i64);
            }
            linear = linear.add(&idx);
        }
        let address = linear
            .scale(info.elem_size as i64)
            .offset(info.base_address as i64);
        let id = self.next_access_id;
        self.next_access_id += 1;
        Ok(Some(AccessNode {
            id,
            array: array_idx,
            depth,
            domain: domain.clone(),
            address,
            kind,
        }))
    }
}

/// Converts an affine AST expression into an [`Aff`] over `dims` dimensions,
/// one per iterator in `iters`.
fn expr_to_aff(expr: &Expr, iters: &[String], dims: usize) -> Result<Aff, ElaborateError> {
    Ok(match expr {
        Expr::Const(c) => Aff::constant(dims, *c),
        Expr::Iter(name) => {
            let d = iters
                .iter()
                .position(|i| i == name)
                .ok_or_else(|| ElaborateError::UnknownIterator(name.clone()))?;
            Aff::var(dims, d)
        }
        Expr::Add(a, b) => expr_to_aff(a, iters, dims)?.add(&expr_to_aff(b, iters, dims)?),
        Expr::Sub(a, b) => expr_to_aff(a, iters, dims)?.sub(&expr_to_aff(b, iters, dims)?),
        Expr::Mul(k, e) => expr_to_aff(e, iters, dims)?.scale(*k),
        Expr::Div(_, _) => match expr.eval_const() {
            Some(c) => Aff::constant(dims, c),
            None => return Err(ElaborateError::NonAffine(expr.to_string())),
        },
        Expr::Prod(a, b) => {
            if let Some(c) = expr.eval_const() {
                Aff::constant(dims, c)
            } else if let Some(k) = a.eval_const() {
                expr_to_aff(b, iters, dims)?.scale(k)
            } else if let Some(k) = b.eval_const() {
                expr_to_aff(a, iters, dims)?.scale(k)
            } else {
                return Err(ElaborateError::NonAffine(expr.to_string()));
            }
        }
    })
}

/// Converts a guard condition into a polyhedral constraint.
fn condition_to_constraint(
    cond: &Condition,
    iters: &[String],
    dims: usize,
) -> Result<Constraint, ElaborateError> {
    let lhs = expr_to_aff(&cond.lhs, iters, dims)?;
    let rhs = expr_to_aff(&cond.rhs, iters, dims)?;
    Ok(match cond.op {
        CmpOp::Lt => Constraint::gt(rhs.sub(&lhs)),
        CmpOp::Le => Constraint::ge(rhs.sub(&lhs)),
        CmpOp::Gt => Constraint::gt(lhs.sub(&rhs)),
        CmpOp::Ge => Constraint::ge(lhs.sub(&rhs)),
        CmpOp::Eq => Constraint::eq(lhs.sub(&rhs)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{access, assign, for_loop};
    use crate::parse_program;

    fn stencil_program() -> Program {
        // for (i = 1; i < 999; i++) B[i-1] = A[i-1] + A[i];
        Program::new()
            .with_array("A", &[1000], 8)
            .with_array("B", &[1000], 8)
            .with_stmt(for_loop(
                "i",
                Expr::Const(1),
                Expr::Const(999),
                vec![assign(
                    access("B", vec![Expr::iter("i").offset(-1)]),
                    vec![
                        access("A", vec![Expr::iter("i").offset(-1)]),
                        access("A", vec![Expr::iter("i")]),
                    ],
                )],
            ))
    }

    #[test]
    fn stencil_elaboration() {
        let scop = elaborate(&stencil_program(), &ElaborateOptions::default()).unwrap();
        assert_eq!(scop.arrays().len(), 2);
        assert_eq!(scop.num_access_nodes(), 3);
        let accesses: Vec<_> = scop.access_nodes().collect();
        // Order: reads A[i-1], A[i], then write B[i-1].
        assert_eq!(accesses[0].kind, AccessKind::Read);
        assert_eq!(accesses[2].kind, AccessKind::Write);
        let a_base = scop.arrays()[0].base_address;
        let b_base = scop.arrays()[1].base_address;
        assert_eq!(accesses[0].address_at(&[1]), a_base);
        assert_eq!(accesses[1].address_at(&[1]), a_base + 8);
        assert_eq!(accesses[2].address_at(&[1]), b_base);
        // Arrays do not overlap and are 64-byte aligned.
        assert!(b_base >= a_base + 8000);
        assert_eq!(b_base % 64, 0);
    }

    #[test]
    fn two_dimensional_linearisation() {
        let p = Program::new()
            .with_array("A", &[23, 42], 4)
            .with_stmt(for_loop(
                "i",
                Expr::Const(0),
                Expr::Const(23),
                vec![for_loop(
                    "j",
                    Expr::Const(0),
                    Expr::Const(42),
                    vec![assign(
                        access("A", vec![Expr::iter("i"), Expr::iter("j")]),
                        vec![],
                    )],
                )],
            ));
        let scop = elaborate(&p, &ElaborateOptions::default()).unwrap();
        let a = scop.access_nodes().next().unwrap();
        let base = scop.arrays()[0].base_address;
        // linearize(A[i][j]) = base + 42*4*i + 4*j (the example of §3.2).
        assert_eq!(a.address_at(&[3, 5]), base + 42 * 4 * 3 + 4 * 5);
    }

    #[test]
    fn guards_restrict_access_domains() {
        // for i in 0..10: if (i >= 5) A[i] = 0;
        let p = Program::new().with_array("A", &[10], 8).with_stmt(for_loop(
            "i",
            Expr::Const(0),
            Expr::Const(10),
            vec![Statement::If {
                conditions: vec![Condition {
                    lhs: Expr::iter("i"),
                    op: CmpOp::Ge,
                    rhs: Expr::Const(5),
                }],
                body: vec![assign(access("A", vec![Expr::iter("i")]), vec![])],
            }],
        ));
        let scop = elaborate(&p, &ElaborateOptions::default()).unwrap();
        let a = scop.access_nodes().next().unwrap();
        assert!(!a.domain.contains(&[4]));
        assert!(a.domain.contains(&[5]));
        // The loop itself still spans the full range.
        let Node::Loop(l) = &scop.roots()[0] else {
            panic!()
        };
        assert!(l.domain.contains(&[4]));
    }

    #[test]
    fn scalars_are_ignored_unless_requested() {
        let p = Program::new().with_array("A", &[4], 8).with_stmt(for_loop(
            "i",
            Expr::Const(0),
            Expr::Const(4),
            vec![Statement::Assign {
                write: access("s", vec![]),
                reads: vec![access("A", vec![Expr::iter("i")])],
            }],
        ));
        let without = elaborate(&p, &ElaborateOptions::default()).unwrap();
        assert_eq!(without.num_access_nodes(), 1);
        let with = elaborate(&p, &ElaborateOptions::with_scalars()).unwrap();
        assert_eq!(with.num_access_nodes(), 2);
        assert_eq!(with.arrays().len(), 2);
    }

    #[test]
    fn unbound_parameters_are_reported() {
        use crate::parser::parse_program;
        let unbound_extent =
            parse_program("param N; double A[N]; for (i = 0; i < 8; i++) A[i] = 0;").unwrap();
        let err = elaborate(&unbound_extent, &ElaborateOptions::default()).unwrap_err();
        assert!(
            matches!(err, ElaborateError::NonConstantExtent { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("bind its parameters"), "{err}");

        let unbound_stride =
            parse_program("param T; double A[8]; for (i = 0; i < 8; i += T) A[i] = 0;").unwrap();
        assert!(matches!(
            elaborate(&unbound_stride, &ElaborateOptions::default()),
            Err(ElaborateError::NonConstantStride { .. })
        ));

        let unbound_bound =
            parse_program("param N; double A[8]; for (i = 0; i < N; i++) A[i] = 0;").unwrap();
        assert!(matches!(
            elaborate(&unbound_bound, &ElaborateOptions::default()),
            Err(ElaborateError::UnknownIterator(_))
        ));
    }

    #[test]
    fn arrays_past_the_address_space_are_rejected() {
        // 2^62 doubles: the size wraps u64, and unchecked arithmetic put
        // both arrays at the same base address.
        let wrapping = parse_program(
            "double A[4611686018427387904]; double B[4];\n\
             for (i = 0; i < 4; i++) B[i] = A[i];",
        )
        .unwrap();
        assert_eq!(
            elaborate(&wrapping, &ElaborateOptions::default()),
            Err(ElaborateError::ArrayTooLarge("A".into()))
        );
        let product = parse_program(
            "double A[9223372036854775807][4];\n\
             for (i = 0; i < 4; i++) A[i][i] = 0;",
        )
        .unwrap();
        let err = elaborate(&product, &ElaborateOptions::default()).unwrap_err();
        assert_eq!(err, ElaborateError::ArrayTooLarge("A".into()));
        assert!(err.to_string().contains("array `A`"), "{err}");
        // Below the limit, the layout is untouched.
        let fits = parse_program(
            "double A[1000000000000]; double B[4];\n\
             for (i = 0; i < 4; i++) B[i] = A[i];",
        )
        .unwrap();
        let scop = elaborate(&fits, &ElaborateOptions::default()).unwrap();
        assert_eq!(scop.arrays()[1].base_address, 64 + 8_000_000_000_000);
    }

    #[test]
    fn errors_are_reported() {
        let bad_iter = Program::new().with_array("A", &[4], 8).with_stmt(for_loop(
            "i",
            Expr::Const(0),
            Expr::iter("n"),
            vec![],
        ));
        assert!(matches!(
            elaborate(&bad_iter, &ElaborateOptions::default()),
            Err(ElaborateError::UnknownIterator(_))
        ));
        let bad_subscripts = Program::new()
            .with_array("A", &[4, 4], 8)
            .with_stmt(for_loop(
                "i",
                Expr::Const(0),
                Expr::Const(4),
                vec![assign(access("A", vec![Expr::iter("i")]), vec![])],
            ));
        assert!(matches!(
            elaborate(&bad_subscripts, &ElaborateOptions::default()),
            Err(ElaborateError::SubscriptCount { .. })
        ));
        let shadowed = Program::new().with_array("A", &[4], 8).with_stmt(for_loop(
            "i",
            Expr::Const(0),
            Expr::Const(4),
            vec![for_loop("i", Expr::Const(0), Expr::Const(4), vec![])],
        ));
        assert!(matches!(
            elaborate(&shadowed, &ElaborateOptions::default()),
            Err(ElaborateError::DuplicateIterator(_))
        ));
        let undeclared = Program::new().with_stmt(for_loop(
            "i",
            Expr::Const(0),
            Expr::Const(4),
            vec![assign(access("A", vec![Expr::iter("i")]), vec![])],
        ));
        assert!(matches!(
            elaborate(&undeclared, &ElaborateOptions::default()),
            Err(ElaborateError::UnknownArray(_))
        ));
    }
}
