import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings

from bcd.decide import DecisionCache, Factor, factors
from bcd.gen import random_strictly_positive_step
from bcd.rewrite import dist_normal_form, slat_canonical
from bcd.syntax import (
    ARROW_TARGET,
    Arrow,
    Atom,
    Meet,
    parse,
    subexpressions,
)

from conftest import expr_strategy
from test_factor_reference import factor_to_expr
from test_syntax import _reference_strictly_positive_atom_positions

A, B, C, P, Q = Atom("a"), Atom("b"), Atom("c"), Atom("p"), Atom("q")


class TestFactors:
    def test_atom(self):
        assert factors(P) == {Factor((), "p")}

    def test_arrow_distributes_over_meet(self):
        assert factors(parse("a -> (b & c)")) == {
            Factor((A,), "b"),
            Factor((A,), "c"),
        }

    def test_meet_unions(self):
        assert factors(parse("(a -> p) & q")) == {
            Factor((A,), "p"),
            Factor((), "q"),
        }

    def test_dedup(self):
        assert factors(parse("p & p")) == {Factor((), "p")}

    @given(expr_strategy())
    def test_args_are_subexpressions(self, e):
        subs = {sub for _, sub in subexpressions(e)}
        for f in factors(e):
            for arg in f.args:
                assert arg in subs

    @given(expr_strategy())
    def test_invariant_under_dist_normalization(self, e):
        # the factor skeleton survives dist normalization; arguments are
        # themselves dist-normalized because sources get rewritten too
        mapped = {
            Factor(tuple(dist_normal_form(a) for a in f.args), f.head)
            for f in factors(e)
        }
        assert factors(dist_normal_form(e)) == mapped

    @given(expr_strategy())
    def test_literal_invariance_when_sources_are_normal(self, e):
        nf = dist_normal_form(e)
        assert factors(dist_normal_form(nf)) == factors(nf)

    @given(expr_strategy())
    def test_matches_strictly_positive_atom_walk(self, e):
        # independent construction: every strictly positive atom occurrence
        # induces the factor collecting the arrow sources along its path
        built = set()
        for pos in _reference_strictly_positive_atom_positions(e):
            args = []
            cur = e
            for step in pos:
                if isinstance(cur, Arrow) and step == ARROW_TARGET:
                    args.append(cur.source)
                cur = (
                    cur.target
                    if isinstance(cur, Arrow)
                    else (cur.left if step == "left" else cur.right)
                )
            built.add(Factor(tuple(args), cur.name))
        assert built == factors(e)

    @given(expr_strategy())
    def test_one_one_correspondence_on_dist_normal_forms(self, e):
        nf = dist_normal_form(e)
        occurrence_factors = {}
        for pos in _reference_strictly_positive_atom_positions(nf):
            args = []
            cur = nf
            for step in pos:
                if isinstance(cur, Arrow):
                    args.append(cur.source)
                    cur = cur.target
                else:
                    cur = cur.left if step == "left" else cur.right
            occurrence_factors.setdefault(Factor(tuple(args), cur.name), []).append(pos)
        assert set(occurrence_factors) == factors(nf)


class TestFactorToExpr:
    """factors reads one factor back off the right-nested arrow expression
    that test_factor_reference's factor_to_expr rebuilds from it."""

    @given(expr_strategy(max_leaves=10))
    def test_round_trip(self, e):
        for f in factors(e):
            assert factors(factor_to_expr(f)) == {f}


class TestCompleteInvariants:
    @given(expr_strategy(max_leaves=10))
    @settings(max_examples=60)
    def test_strictly_positive_step_preserves_factors(self, e):
        rng = random.Random(17)
        rule, pos, after = random_strictly_positive_step(rng, e)
        assert factors(e) <= factors(after)
        # reverse direction: every factor of the result traces back to one of
        # the original, with arguments widened by at most a meet with a
        # subexpression of the result
        deltas = [sub for _, sub in subexpressions(after)]
        for f_new in factors(after):
            ok = False
            for f_old in factors(e):
                if f_old.head != f_new.head or f_old.arity != f_new.arity:
                    continue
                good = True
                for k in range(f_new.arity):
                    if slat_canonical(f_new.args[k]) == slat_canonical(f_old.args[k]):
                        continue
                    if any(
                        slat_canonical(f_new.args[k])
                        == slat_canonical(Meet(f_old.args[k], d))
                        for d in deltas
                    ):
                        continue
                    good = False
                    break
                if good:
                    ok = True
                    break
            assert ok


class TestLinearCost:
    """Right-nested chains are factored and decided at recursion limit 1,000
    in memory linear in their length: the walk grows each argument prefix by
    one interned cell, where the recursion's memo held about n*n/2 argument
    slots (4.4 MB at 1,000 arrows, 259 MB at 8,000).  A pure chain has no
    meet on its spine and needs no cell at all (1.5 MB at 10^5 arrows,
    measured with tracemalloc on CPython 3.11); a chain whose every target
    is a meet of two equal operands takes the general walk (7 MB at 2*10^4
    levels)."""

    N = 100_000
    # (levels, MB) by whether the chain has meets
    SIZE = {False: (N, 8), True: (20_000, 16)}

    def _chain(self, middle, meets):
        n = self.SIZE[meets][0]
        e = A
        for k in range(n):
            e = Arrow(middle if k == n // 2 else A, Meet(e, e) if meets else e)
        return e

    def _peak_mb(self, fn, *args):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        tracemalloc.start()
        try:
            value = fn(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sys.setrecursionlimit(limit)
        return value, peak / 2**20

    @pytest.mark.parametrize("meets", [False, True], ids=["chain", "meet-chain"])
    def test_factors(self, meets):
        n, limit_mb = self.SIZE[meets]
        fs, mb = self._peak_mb(factors, self._chain(B, meets))
        ((args, head),) = fs
        assert head == "a" and len(args) == n
        assert args[n // 2 - 1] is B and args.count(A) == n - 1
        assert mb < limit_mb

    def test_subseteq(self):
        chain, other = self._chain(A, False), self._chain(B, False)
        for a, b in ((chain, other), (other, chain), (chain, A)):
            holds, mb = self._peak_mb(DecisionCache().subseteq, a, b)
            assert holds is False
            assert mb < self.SIZE[False][1]
