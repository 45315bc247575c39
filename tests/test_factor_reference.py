"""The factor walk against the recursion it replaced.

bcd.factors reads every factor off one loop over the asked expression's
strictly positive spine.  The functions below are verbatim copies of the
memoized recursion `factors` and of the `sorted_factors` that this replaced,
and of the `factor_to_expr` that `sorted_factors` and test_decide's
reference explain read (they build Factors of the unchanged
bcd.decide.Factor), kept so that the pins compare the walk with the code it must agree with: the same factor
sets, the same display order from `sorted_groups`, which the CLI and
`explain` read, and groups that hold each factor once, on seeded random
trees, on random DAGs that share subterms, and on a nest of shared meets
that a walk without a visited set would take exponential time over.
"""

import random

from bcd.decide import Factor, factor_groups, factors, sorted_groups
from bcd.gen import random_expr
from bcd.syntax import Arrow, Atom, Expr, Meet, parse, render


# ---------------------------------------------------------------------------
# Verbatim copies (then in bcd.factors)

def reference_factors(e: Expr, memo: dict | None = None) -> frozenset:
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
            fs = reference_factors(e.left, memo) | reference_factors(e.right, memo)
        else:
            src = e.source
            fs = frozenset(
                Factor((src,) + f.args, f.head) for f in reference_factors(e.target, memo)
            )
        memo[e] = fs
    return fs


def factor_to_expr(f: Factor) -> Expr:
    """Rebuild the right-nested arrow expression; factors of the result is {f}."""
    e: Expr = Atom(f.head)
    for arg in reversed(f.args):
        e = Arrow(arg, e)
    return e


def reference_sorted_factors(e: Expr, memo: dict | None = None) -> list:
    """The factors of e in a deterministic order: head, arity, rendered text."""
    return sorted(
        reference_factors(e, memo), key=lambda f: (f.head, f.arity, render(factor_to_expr(f)))
    )


# ---------------------------------------------------------------------------

def _pin(e):
    want = reference_factors(e)
    assert factors(e) == want
    groups = factor_groups(e)
    flat = [(args, head) for (head, arity), argss in groups.items() for args in argss]
    assert len(flat) == len(set(flat)), "a factor listed twice"
    assert all(len(args) == arity for (_, arity), argss in groups.items() for args in argss)
    assert {Factor(args, head) for args, head in flat} == want
    shown = [
        Factor(args, head) for (head, _), pairs in sorted_groups(groups).items() for _, args in pairs
    ]
    assert shown == reference_sorted_factors(e)


def _random_dag(rng, atoms, steps):
    """A root over a pool that each step grows by an arrow or a meet of two
    pool members, so most subterms are shared by several parents."""
    pool = [Atom(a) for a in atoms]
    for _ in range(steps):
        x, y = rng.choice(pool), rng.choice(pool[-8:])
        pool.append(rng.choice((Arrow, Meet, Meet))(x, y))
    return pool[-1]


def shared_nest(levels):
    """Meet(e, e) nested `levels` times over e = p -> (@ & (p -> @))."""
    x = parse("p -> (@ & (p -> @))")
    for _ in range(levels):
        x = Meet(x, x)
    return x


class TestWalkMatchesRecursion:
    def test_random_trees(self):
        rng = random.Random(1701)
        for _ in range(500):
            _pin(random_expr(rng, rng.randint(1, 60)))

    def test_random_dags(self):
        rng = random.Random(1702)
        for _ in range(300):
            _pin(_random_dag(rng, "abc@", rng.randint(1, 40)))

    def test_meets_that_converge_below_arrows(self):
        # s -> b is reached twice with prefix (s): through an arrow and
        # through a meet operand; it is one factor
        e = parse("(s -> b) & (s -> (b & u))")
        _pin(e)
        assert factor_groups(e) == {("b", 1): [(Atom("s"),)], ("u", 1): [(Atom("s"),)]}

    def test_shared_nest(self):
        e = shared_nest(200)
        _pin(e)
        assert factor_groups(e) == factor_groups(parse("p -> (@ & (p -> @))"))

    def test_shared_memo_holds_the_asked_nodes(self):
        rng = random.Random(1703)
        family = [_random_dag(rng, "ab", 30) for _ in range(20)]
        for e in family:
            assert factors(e) == reference_factors(e)
