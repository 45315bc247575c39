"""Polynomial-time decision of the intersection type preorder by factor matching.

A factor is a maximal strictly positive unrolling
args(1) -> (... (args(t) -> head) ...).  An expression with no arrow
targeting a meet is an intersection of such unrollings with atomic heads;
the factor walk extracts them from any expression directly, distributing
arrow sources over meet targets as it goes.  factor_groups is the package's
only factor walk, and it does not recurse: the decision cache, the subtype
matrix, explanations and `factors` all read the (head, arity) groups it
returns.

a is below b exactly when every factor of b finds a factor of a with the same
head atom and the same arity whose arguments dominate pointwise in the
contravariant direction: the b-side argument must be below the a-side
argument.  The recursion terminates because factor arguments are proper
subexpressions, and it needs no prior normalization since the factor walk
already distributes arrows over meets.  Deciding recurses only through arrow
sources (a factor's arguments); factoring does not recurse at all.

Two implementations are provided: a memoized recursion on subexpression pairs
(the workhorse), whose cache also builds explanations, and an explicit
Boolean matrix over the subexpressions of a root, filled once per pair of
distinct subexpressions whose (head, arity) key sets pass the subset test,
in decreasing order of the smaller index, into one row per distinct
subexpression.  Both read factor_groups.  The cache keeps each asked node's
groups on the node, as _groups, so every cache shares them; the matrix
numbers its own copy and keeps nothing.  The matrix's fill is its own
matching loop, so it stays an independent check on the recursion.

"@" receives no special treatment here, except in satisfies_eq: equality in
the depth-n model, which by the finite model property is equiv over the two
depth-n truncations.

Results are pure; a DecisionCache may be shared freely, including across
threads, and behaves as if each query were evaluated in isolation.
"""

from __future__ import annotations

from typing import NamedTuple

from .syntax import INFINITE_DEPTH, Arrow, Atom, Expr, Meet, dept_normal_form, render


# ---------------------------------------------------------------------------
# Factors

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


def factor_text(args: tuple, head: str) -> str:
    """The rendering of the factor args(1) -> (... (args(t) -> head) ...),
    composed from the arguments' renderings without building the factor
    expression."""
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


# ---------------------------------------------------------------------------
# Decision

MATRIX_CAP_BYTES = 10**8


class LimitExceeded(RuntimeError):
    """A computation would exceed one of the package's fixed size caps."""


def _check_bytes(need: int, what: str) -> None:
    """Refuse with LimitExceeded a structure of need bytes above MATRIX_CAP_BYTES."""
    if need > MATRIX_CAP_BYTES:
        raise LimitExceeded(f"{what} {need} bytes; the cap is {MATRIX_CAP_BYTES}")


class DecisionCache:
    """Memo table for subtype queries over a family of related expressions.

    The cache holds only its pair answers.  Each asked node's factor groups
    are kept on the node itself, as _groups, where every cache, and every
    later query on that node, finds them: they depend on the node alone and
    hold only its proper subterms, so the node still dies by reference
    counting.
    """

    __slots__ = ("_sub",)

    def __init__(self):
        self._sub = {}

    @staticmethod
    def _group(e: Expr) -> dict:
        """factor_groups(e), computed once per node; the only writer of _groups."""
        g = e.__dict__.get("_groups")
        if g is None:
            g = e.__dict__["_groups"] = factor_groups(e)
        return g

    def subseteq(self, a: Expr, b: Expr) -> bool:
        if a is b:
            return True
        key = (a, b)
        v = self._sub.get(key)
        if v is None:
            v = self._sub[key] = self._matches(self._group(a), self._group(b))
        return v

    def _matches(self, ga: dict, gb: dict) -> bool:
        """Every factor of gb finds one in ga of its head and arity whose
        arguments each lie above the gb factor's argument at that place.
        A factor that ga holds itself matches by reflexivity, found in a set
        of ga's group before any candidate is tried, so a meet against a
        reordering of itself decides no pair of distinct arguments."""
        subseteq = self.subseteq
        for ha, blists in gb.items():
            alist = ga.get(ha)
            if alist is None:
                return False
            aset = set(alist)
            for bargs in blists:
                if bargs in aset:
                    continue
                for aargs in alist:
                    for x, y in zip(bargs, aargs):
                        if not subseteq(x, y):
                            break
                    else:
                        break
                else:
                    return False
        return True

    def equiv(self, a: Expr, b: Expr) -> bool:
        return self.subseteq(a, b) and self.subseteq(b, a)

    def explain(self, a: Expr, b: Expr) -> dict:
        """Factor-matching tree justifying subseteq(a, b), as plain data.

        Each factor of b is matched to the first factor of a, in sorted
        order, whose arguments pass subseteq; only that match is expanded.
        """
        sa = sorted_groups(self._group(a))
        obligations = []
        for key, pairs in sorted_groups(self._group(b)).items():
            candidates = sa.get(key, ())
            for btext, bargs in pairs:
                matched = None
                for atext, aargs in candidates:
                    if all(self.subseteq(x, y) for x, y in zip(bargs, aargs)):
                        matched = {
                            "factor": atext,
                            "args": [self.explain(x, y) for x, y in zip(bargs, aargs)],
                        }
                        break
                obligations.append({"factor": btext, "matched": matched})
        return {
            "sub": render(a),
            "sup": render(b),
            "holds": all(ob["matched"] is not None for ob in obligations),
            "obligations": obligations,
        }


def subseteq(a: Expr, b: Expr) -> bool:
    """True iff a is below b in the preorder."""
    return DecisionCache().subseteq(a, b)


def equiv(a: Expr, b: Expr) -> bool:
    """True iff a and b are mutually below each other."""
    return DecisionCache().equiv(a, b)


def explain(a: Expr, b: Expr) -> dict:
    """Factor-matching tree justifying subseteq(a, b), as plain data."""
    return DecisionCache().explain(a, b)


def satisfies_eq(n: int, a: Expr, b: Expr) -> bool:
    """Depth-n model equality, decided without a carrier.

    Truncation at depth n stays inside the model's congruence class, and
    truncated expressions are shallow enough that model equality collapses
    to plain congruence, so this is equiv over the truncations.
    """
    if n == INFINITE_DEPTH or n < 0:
        raise ValueError("depth must be a finite natural number")
    return equiv(dept_normal_form(a, n), dept_normal_form(b, n))


# ---------------------------------------------------------------------------
# Explicit matrix form

class SubtypeMatrix(NamedTuple):
    """Square Boolean matrix over the DFS-numbered subexpressions of a root.

    rows[c][d] is 1 exactly when class c is below class d, and classes[i]
    is the class (distinct subexpression) of preorder position i; the
    diagonal is reflexive and the relation is transitive.
    """

    exprs: tuple
    classes: tuple  # the class of each preorder position
    rows: tuple  # one bytearray row of k entries per class

    @property
    def size(self) -> int:
        return len(self.exprs)

    def holds(self, i: int, j: int) -> bool:
        return bool(self.rows[self.classes[i]][self.classes[j]])


def _numbering(root: Expr):
    """The preorder list, the class numbers, and each class's factor groups
    with arguments as class numbers; first checks the matrix's k*k + 8*n
    bytes against MATRIX_CAP_BYTES.

    A class is a distinct subexpression, numbered in order of its last
    preorder occurrence.  Each occurrence of a node contains its factor
    arguments after it, so an argument's number exceeds its node's: that is
    what lets the matrix fill entries in decreasing order of min(i, j).
    """
    exprs = []
    stack = [root]
    while stack:
        e = stack.pop()
        exprs.append(e)
        if isinstance(e, Arrow):
            stack += (e.target, e.source)
        elif isinstance(e, Meet):
            stack += (e.right, e.left)
    number = {x: c for c, x in enumerate(reversed(dict.fromkeys(reversed(exprs))))}
    _check_bytes(len(number) ** 2 + 8 * len(exprs), "subtype matrix needs")
    at = number.__getitem__
    groups = [
        {key: [tuple(map(at, args)) for args in argss] for key, argss in factor_groups(e).items()}
        for e in number
    ]
    for idx, g in enumerate(groups):
        for argss in g.values():
            for args in argss:
                assert all(k > idx for k in args), "factor argument below its node"
    return exprs, number, groups


def subtype_matrix(root: Expr) -> SubtypeMatrix:
    """Fill the full subexpression-pair matrix of the root.

    Entries are computed over the k classes of _numbering in decreasing
    order of min(i, j): for each m, row m's entries (m, j >= m), then column
    m's entries (i > m, m).  Entry (i, j) reads only entries (b, a) with
    b > j and a > i, whose min is larger, so each is decided by factor
    matching over pairs filled before it.  Only pairs whose key sets pass
    the subset test are visited: each row and column takes its candidates
    from the bitmask of the classes whose key sets lie below or above its
    own.  The filled rows, one per class, are the matrix's rows: k*k bytes,
    plus a class tuple of n entries for n nodes, refused with LimitExceeded
    above MATRIX_CAP_BYTES.  Agrees pointwise with subseteq on every pair.
    """
    exprs, number, grouped = _numbering(root)
    k = len(number)
    keysets = [frozenset(g) for g in grouped]
    members = {}  # key set -> bitmask of the classes that have it
    for c, ks in enumerate(keysets):
        members[ks] = members.get(ks, 0) | 1 << c
    below = dict.fromkeys(members, 0)  # classes whose key set is a subset
    above = dict.fromkeys(members, 0)  # classes whose key set is a superset
    for ks, bits in members.items():
        for other, other_bits in members.items():
            if other <= ks:
                below[ks] |= other_bits
                above[other] |= bits
    rows = [bytearray(k) for _ in range(k)]
    for m in range(k - 1, -1, -1):
        gm, row, ks = grouped[m], rows[m], keysets[m]
        for j in _set_bits(below[ks], m):
            if _matrix_entry(gm, grouped[j], rows):
                row[j] = 1
        for i in _set_bits(above[ks], m + 1):
            if _matrix_entry(grouped[i], gm, rows):
                rows[i][m] = 1
    return SubtypeMatrix(tuple(exprs), tuple(map(number.__getitem__, exprs)), tuple(rows))


def _set_bits(mask: int, start: int):
    """The positions of the set bits of mask from start on, lowest first."""
    text = bin(mask >> start)[:1:-1]
    j = text.find("1")
    while j >= 0:
        yield start + j
        j = text.find("1", j + 1)


def _matrix_entry(gi: dict, gj: dict, rows) -> int:
    for ha, blists in gj.items():
        alist = gi[ha]
        for bargs in blists:
            ok = False
            for aargs in alist:
                matched = True
                for k in range(len(bargs)):
                    if not rows[bargs[k]][aargs[k]]:
                        matched = False
                        break
                if matched:
                    ok = True
                    break
            if not ok:
                return 0
    return 1
