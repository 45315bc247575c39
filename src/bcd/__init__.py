"""Intersection types without a top element: syntax, rewriting, a polynomial
subtype decision procedure, and finite depth-truncation models."""

from .decide import (
    DecisionCache,
    LimitExceeded,
    SubtypeMatrix,
    equiv,
    explain,
    subseteq,
    subtype_matrix,
)
from .factors import Factor, factor_to_expr, factors
from .model import (
    Model,
    StackOfTwos,
    UnknownAtom,
    build_model,
    satisfies_eq,
    stack_of_twos,
)
from .rewrite import (
    ASSO,
    ASSO_INV,
    COMM,
    DIST,
    IDEM,
    INFINITE_DEPTH,
    MissingParameter,
    NotARedex,
    Rule,
    Trace,
    TraceStep,
    Verdict,
    absp,
    apply,
    convertible_bounded,
    dept,
    dept_normal_form,
    dist_normal_form,
    meet_members,
    meet_of,
    redexes,
    slat_canonical,
)
from .syntax import (
    ARROW_SOURCE,
    ARROW_TARGET,
    MEET_LEFT,
    MEET_RIGHT,
    TRUNCATION_ATOM,
    Arrow,
    Atom,
    Expr,
    InvalidPosition,
    Meet,
    ParseError,
    Polarity,
    arrow_depth,
    atoms_of,
    ebb,
    node_at,
    node_count,
    parse,
    polarity,
    render,
    replace_at,
    subexpressions,
)

__version__ = "0.1.0"
