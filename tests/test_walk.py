"""bcd.syntax's one preorder walk, _preorder, and the code that reads it.

subexpressions, bcd.rewrite's redexes and bcd.gen's
random_strictly_positive_step all read the walk; the last two use the arrow
count it gives each position.  The tests here hold that count against
test_step_reference's ebb and the walk that enters no arrow source against
the full walk, guard redexes against deep input as
test_syntax.TestNothingRecurses guards subexpressions, and pin
random_strictly_positive_step to a copy of the version that listed every
redex and kept the strictly positive ones.
"""

import random

import pytest
from hypothesis import given

from bcd.gen import random_expr, random_strictly_positive_step
from bcd.rewrite import (
    ASSO,
    ASSO_INV,
    COMM,
    DIST,
    IDEM,
    _is_redex,
    absp,
    apply,
    dept,
    redexes,
    witness_pool,
)
from bcd.syntax import ARROW_SOURCE, Arrow, Atom, Meet, _preorder

from conftest import big_expr_strategy, expr_strategy
from test_step_reference import ebb, node_at
from test_syntax import _EVERY_STEP, _at_limit_1000, _nest

A = Atom("a")


class TestPreorder:
    @given(big_expr_strategy())
    def test_arrow_count_is_ebb(self, e):
        for pos, x, arrows in _preorder(e):
            assert x is node_at(e, pos)
            assert arrows == ebb(e, pos)

    @given(big_expr_strategy())
    def test_no_sources_is_the_full_walk_without_them(self, e):
        full = [item for item in _preorder(e) if ARROW_SOURCE not in item[0]]
        assert list(_preorder(e, sources=False)) == full


# The rule of each kind that the deep guard lists.
_RULES = [ASSO, ASSO_INV, COMM, IDEM, absp(A), DIST, dept(1)]


def _match_count(e, rule, restricted):
    """How many occurrences of e the rule matches, by a walk over (node,
    arrows on its path) pairs that builds no positions."""
    count, stack = 0, [(e, 0)]
    while stack:
        x, arrows = stack.pop()
        if x.__class__ is Arrow:
            arrows += 1
            stack += ((x.source, arrows), (x.target, arrows))
        elif x.__class__ is Meet:
            stack += ((x.left, arrows), (x.right, arrows))
        count += _is_redex(rule, x, arrows, restricted)
    return count


class TestRedexesAtDepth:
    """redexes lists every rule kind's redexes, restricted or not, on a
    3,000-deep nest through every kind of step at recursion limit 1,000.
    The nest runs its steps in both cycle orders, so that each rule kind
    matches somewhere; like subexpressions, redexes builds one position
    tuple per match, so the nest is not deeper."""

    @pytest.mark.parametrize("rule", _RULES, ids=lambda r: r.kind)
    def test_every_rule_kind_at_recursion_limit_1000(self, rule):
        found = 0
        for steps in (_EVERY_STEP, _EVERY_STEP[::-1]):
            e, bottom = _nest(3000, steps)
            for restricted in (False, True):
                positions = _at_limit_1000(redexes, e, rule, restricted)
                assert len(positions) == _match_count(e, rule, restricted)
                for pos in positions[:: len(positions) // 4 or 1]:  # about five, spread out
                    assert _is_redex(rule, node_at(e, pos), ebb(e, pos), restricted)
                if rule is IDEM:
                    assert bottom in positions
                found += len(positions)
        assert found > 0


# gen.random_strictly_positive_step as it was before it read the walk,
# verbatim apart from its name and its strict positivity test, which asked
# polarity (since deleted) and here reads its definition: no arrow-source step.
def _reference_random_strictly_positive_step(rng: random.Random, e):
    """One random restricted reduction step at a strictly positive position,
    with the absp witness drawn from the subexpressions of e.

    Returns (rule, position, result); atoms always admit at least an idem
    step at the root, so this never fails.
    """
    rules = [ASSO, ASSO_INV, COMM, IDEM, DIST, absp(rng.choice(witness_pool(e)))]
    options = []
    for rule in rules:
        for pos in redexes(e, rule, restricted=True):
            if ARROW_SOURCE not in pos:
                options.append((rule, pos))
    rule, pos = rng.choice(options)
    return rule, pos, apply(e, rule, pos)


class TestStrictlyPositiveStepMatchesTheReplacedCode:
    def test_seeded_expressions(self):
        rng = random.Random(23)
        rules = set()
        for k in range(2500):
            e = random_expr(rng, rng.randint(1, 41), ("a", "b", "@"))
            ours, theirs = random.Random(k), random.Random(k)
            got = random_strictly_positive_step(ours, e)
            want = _reference_random_strictly_positive_step(theirs, e)
            assert got[0] == want[0] and got[1] == want[1] and got[2] is want[2]
            assert ours.getstate() == theirs.getstate()
            rules.add(got[0].kind)
        assert rules == {"asso", "asso_inv", "comm", "idem", "dist", "absp"}

    @given(expr_strategy(max_leaves=10))
    def test_hypothesis_expressions(self, e):
        ours, theirs = random.Random(17), random.Random(17)
        assert random_strictly_positive_step(ours, e) == (
            _reference_random_strictly_positive_step(theirs, e)
        )
        assert ours.getstate() == theirs.getstate()
