"""Factors: maximal strictly positive unrollings args(1) -> (... (args(t) -> head) ...).

An expression with no arrow targeting a meet is an intersection of such
unrollings with atomic heads; the factor walk extracts them from any
expression directly, distributing arrow sources over meet targets as it goes.
Here "@" is not distinguished from other atoms.

`factor_groups` is the package's only factor walk, and it does not recurse:
the decision cache, the subtype matrix, explanations and `factors` all read
the (head, arity) groups it returns.
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


def factor_groups(e: Expr) -> dict:
    """The factors of e as a dict from (head, arity) to argument tuples,
    without duplicates and in walk order (left operands first).

    One loop over an explicit stack of (node, prefix) states on e's strictly
    positive spine: a meet passes its prefix to both operands, and an arrow
    adds its source to the prefix of its target.  A prefix is an interned
    cons cell, a number standing for (last source, enclosing prefix), so it
    grows in O(1) and two paths that reach a node with the same sources
    reach the same state.  Each state is visited once, so a shared subterm
    stays polynomial and an n-arrow chain costs O(n) time and memory; an
    atom's arguments are read off its cell once, when it is reached.  The
    arrows above the first meet are read into a plain list first, so a
    spine with no meet is one factor and costs no cell.
    """
    prefix = []
    x = e
    while x.__class__ is Arrow:
        prefix.append(x.source)
        x = x.target
    if x.__class__ is Atom:  # no meet on the spine: one factor
        return {(x.name, len(prefix)): [tuple(prefix)]}
    # Cell k <= len(prefix) stands for prefix[:k]; no later state's prefix
    # is that short, so these cells are never looked up.
    groups = {}
    sources = [None, *prefix]  # cell 0 is the empty prefix
    enclosing = [0, *range(len(prefix))]
    cells = {}  # (source, enclosing cell) -> cell
    seen = set()  # the states reached through a meet or an arrow
    stack = [x, len(prefix)]
    while stack:
        c = stack.pop()
        x = stack.pop()
        while x.__class__ is Arrow:
            s = x.source
            k = cells.get((s, c))
            if k is None:
                k = cells[s, c] = len(sources)
                sources.append(s)
                enclosing.append(c)
            x = x.target
            c = k
            state = (x, c)
            if state in seen:
                break
            seen.add(state)
        else:
            if x.__class__ is Meet:
                for y in (x.right, x.left):
                    state = (y, c)
                    if state not in seen:
                        seen.add(state)
                        stack += state
                continue
            args = []
            while c:
                args.append(sources[c])
                c = enclosing[c]
            args.reverse()
            key = (x.name, len(args))
            group = groups.get(key)
            if group is None:
                groups[key] = [tuple(args)]
            else:
                group.append(tuple(args))
    return groups


def factors(e: Expr) -> frozenset:
    """The factor set of e, as Factors built from factor_groups(e).

    factors(p) = {p}; factors of a meet is the union over its operands; an
    arrow prepends its source to every factor of its target.  Deduplicated as
    a set under syntactic equality.
    """
    return frozenset(
        Factor(args, head) for (head, _), argss in factor_groups(e).items() for args in argss
    )


def factor_to_expr(f: Factor) -> Expr:
    """Rebuild the right-nested arrow expression; factors of the result is {f}."""
    e: Expr = Atom(f.head)
    for arg in reversed(f.args):
        e = Arrow(arg, e)
    return e


def factor_text(args: tuple, head: str) -> str:
    """render(factor_to_expr(Factor(args, head))), composed from the
    arguments' renderings without building the factor expression."""
    texts = [f"({render(a)})" if a.__class__ is Arrow else render(a) for a in args]
    texts.append(head)
    return " -> ".join(texts)


def sorted_groups(groups: dict) -> dict:
    """factor_groups output in display order: keys sorted by (head, arity),
    and each group as (factor text, arguments) pairs sorted by the text."""
    return {
        key: sorted((factor_text(args, key[0]), args) for args in groups[key])
        for key in sorted(groups)
    }
