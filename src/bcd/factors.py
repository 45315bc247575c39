"""Factors: maximal strictly positive unrollings args(1) -> (... (args(t) -> head) ...).

An expression with no arrow targeting a meet is an intersection of such
unrollings with atomic heads; the factors recursion extracts them from any
expression directly, distributing arrow sources over meet targets as it goes.
Here "@" is not distinguished from other atoms.

`factors` is the package's only factor recursion: the decision cache, the
subtype matrix and explanations all read factor sets through it.
"""

from __future__ import annotations

from typing import NamedTuple

from .syntax import Arrow, Atom, Expr, Meet, render


class Factor(NamedTuple):
    args: tuple  # tuple of Expr, outermost argument first; () means a bare atom
    head: str

    @property
    def arity(self) -> int:
        return len(self.args)


def factors(e: Expr, memo: dict | None = None) -> frozenset:
    """The factor set of e.

    factors(p) = {p}; factors of a meet is the union over its operands; an
    arrow prepends its source to every factor of its target.  Deduplicated as
    a set under syntactic equality.  Results are memoized per subexpression in
    memo, which callers may share across calls on related expressions.
    """
    if memo is None:
        memo = {}
    fs = memo.get(e)
    if fs is None:
        if isinstance(e, Atom):
            fs = frozenset([Factor((), e.name)])
        elif isinstance(e, Meet):
            fs = factors(e.left, memo) | factors(e.right, memo)
        else:
            src = e.source
            fs = frozenset(Factor((src,) + f.args, f.head) for f in factors(e.target, memo))
        memo[e] = fs
    return fs


def factor_to_expr(f: Factor) -> Expr:
    """Rebuild the right-nested arrow expression; factors of the result is {f}."""
    e: Expr = Atom(f.head)
    for arg in reversed(f.args):
        e = Arrow(arg, e)
    return e


def sorted_factors(e: Expr, memo: dict | None = None) -> list:
    """The factors of e in a deterministic order: head, arity, rendered text."""
    return sorted(factors(e, memo), key=lambda f: (f.head, f.arity, render(factor_to_expr(f))))
