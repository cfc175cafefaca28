//! Error types for abstraction-tree construction and validation.

use std::fmt;

/// Errors raised while building or validating trees, forests and VVSs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The same label was used for two nodes.
    DuplicateLabel(String),
    /// A child referenced a parent that was never declared.
    UnknownParent {
        /// The undeclared parent label.
        parent: String,
        /// The child whose declaration referenced it.
        child: String,
    },
    /// A tree must contain at least the root.
    EmptyTree,
    /// Two trees of a forest share a variable — the forest is not a
    /// *valid abstraction forest* (Def. of §2.3).
    ForestNotDisjoint(String),
    /// A leaf of the forest does not occur in the polynomial set, so the
    /// forest is not compatible (use [`crate::clean`] first).
    LeafNotInPolynomials(String),
    /// An internal node (meta-variable) already occurs in the polynomial
    /// set — meta-variables must be fresh (§2.2).
    MetaVariableInPolynomials(String),
    /// A monomial contains more than one node of the same tree, violating
    /// the compatibility requirement `∀m ∈ M(P). |m ∩ T| ≤ 1` (§2.2).
    MonomialNotCompatible {
        /// Root label of the violated tree.
        tree_root: String,
    },
    /// A node set is not a valid variable set: some leaf has no ancestor
    /// in the set (condition 1 of Def. 4).
    LeafNotCovered(String),
    /// A node set is not a valid variable set: two chosen nodes are
    /// related by the descendant order (condition 2 of Def. 4).
    NotAntichain {
        /// The chosen ancestor.
        ancestor: String,
        /// The chosen node below it.
        descendant: String,
    },
    /// The requested bound admits no adequate VVS (Example 8).
    BoundUnattainable {
        /// The requested bound `B`.
        bound: usize,
        /// The best (smallest) size any abstraction can reach.
        best_possible: usize,
    },
    /// The algorithm requires a single-tree forest (Algorithm 1).
    ExpectedSingleTree(usize),
    /// The textual tree notation could not be parsed.
    ParseError(String),
    /// Exhaustive enumeration was asked to cover more cuts than the
    /// caller's limit (the brute-force baseline refuses, mirroring the
    /// paper's observation that brute force only completes below ~80 000
    /// VVSs).
    SearchSpaceTooLarge {
        /// Number of cuts the forest admits (saturating).
        cuts: u128,
        /// The configured enumeration limit.
        limit: u128,
    },
    /// A tree-type family outside Table 2's `1..=7` range was requested
    /// from the generators.
    UnknownTreeType {
        /// The requested type.
        ty: u8,
    },
    /// A shape index past the end of a tree-type family's shape list.
    UnknownTreeShape {
        /// The tree type.
        ty: u8,
        /// The requested shape index.
        shape_idx: usize,
        /// How many shapes the type has.
        shapes: usize,
    },
    /// A worker thread panicked; the panic was caught at the thread
    /// boundary and its payload rendered — sibling workers completed.
    WorkerPanic {
        /// The rendered panic payload.
        payload: String,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::DuplicateLabel(l) => write!(f, "duplicate node label {l:?}"),
            TreeError::UnknownParent { parent, child } => {
                write!(f, "child {child:?} references unknown parent {parent:?}")
            }
            TreeError::EmptyTree => write!(f, "abstraction tree has no nodes"),
            TreeError::ForestNotDisjoint(l) => {
                write!(f, "forest trees are not disjoint: {l:?} occurs twice")
            }
            TreeError::LeafNotInPolynomials(l) => {
                write!(
                    f,
                    "leaf {l:?} does not occur in the polynomials (clean the forest first)"
                )
            }
            TreeError::MetaVariableInPolynomials(l) => {
                write!(f, "meta-variable {l:?} already occurs in the polynomials")
            }
            TreeError::MonomialNotCompatible { tree_root } => write!(
                f,
                "a monomial contains more than one variable of the tree rooted at {tree_root:?}"
            ),
            TreeError::LeafNotCovered(l) => {
                write!(f, "leaf {l:?} has no ancestor in the variable set")
            }
            TreeError::NotAntichain {
                ancestor,
                descendant,
            } => write!(
                f,
                "variable set contains related nodes {ancestor:?} and {descendant:?}"
            ),
            TreeError::BoundUnattainable {
                bound,
                best_possible,
            } => write!(
                f,
                "no adequate VVS for bound {bound}: best attainable size is {best_possible}"
            ),
            TreeError::ExpectedSingleTree(n) => {
                write!(f, "algorithm requires exactly one tree, forest has {n}")
            }
            TreeError::ParseError(msg) => write!(f, "tree syntax error: {msg}"),
            TreeError::SearchSpaceTooLarge { cuts, limit } => {
                write!(f, "forest admits {cuts} cuts, above the limit {limit}")
            }
            TreeError::UnknownTreeType { ty } => {
                write!(f, "tree types are 1..=7, got {ty}")
            }
            TreeError::UnknownTreeShape {
                ty,
                shape_idx,
                shapes,
            } => write!(
                f,
                "tree type {ty} has shapes 0..{shapes}, got shape {shape_idx}"
            ),
            TreeError::WorkerPanic { payload } => {
                write!(f, "worker thread panicked: {payload}")
            }
        }
    }
}

impl std::error::Error for TreeError {}
