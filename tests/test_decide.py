import json
import random
import threading
import time
import tracemalloc

from hypothesis import given, settings

from bcd.decide import (
    DecisionCache,
    Factor,
    _numbering,
    equiv,
    explain,
    factor_groups,
    factors,
    satisfies_eq,
    sorted_groups,
    subseteq,
    subtype_matrix,
)
from bcd.gen import all_exprs, random_expr
from bcd.rewrite import (
    ASSO,
    ASSO_INV,
    COMM,
    DIST,
    IDEM,
    Verdict,
    absp,
    apply,
    convertible_bounded,
    redexes,
    witness_pool,
)
from bcd.syntax import Arrow, Atom, Meet, arrow_depth, parse, render

from conftest import expr_strategy
from test_factor_reference import factor_to_expr

A, B, C, P, Q = Atom("a"), Atom("b"), Atom("c"), Atom("p"), Atom("q")


class TestSubseteq:
    def test_meet_below_component(self):
        assert subseteq(parse("a & b"), A)

    def test_weak_distributivity(self):
        assert subseteq(parse("(c->a) & (c->b)"), parse("c -> (a & b)"))

    def test_absorption_direction(self):
        assert subseteq(parse("a -> b"), parse("(a & c) -> b"))

    def test_absorption_converse_fails(self):
        a, b = parse("(a & c) -> b"), parse("a -> b")
        assert not subseteq(a, b)
        # cross-checks: the search does not confirm, and a finite model separates
        assert convertible_bounded(a, b, budget=60) is Verdict.UNKNOWN
        assert not satisfies_eq(1, a, b) or not satisfies_eq(1, b, a)

    def test_distinct_atoms(self):
        assert not subseteq(P, Q)

    def test_arity_mismatch_never_matches(self):
        assert not subseteq(parse("a -> (a -> b)"), parse("a -> b"))
        assert not subseteq(parse("a -> b"), parse("a -> (a -> b)"))


class TestMemoOnSharedInput:
    """The pair memo keeps a shared family linear: each level's meet holds
    two arrows from one shared source, so a decider that forgets its pairs
    decides that source twice per level."""

    def test_match_calls_are_linear_in_the_depth(self, monkeypatch):
        # x_{k+1} = (x_k -> h) & (x_k -> g) against its reordering
        # y_{k+1} = (y_k -> g) & (y_k -> h), from x_0 = y_0 = a: 20 group
        # matches per direction at k = 20 with the memo, 2^20 - 1 without
        g, h = Atom("g"), Atom("h")
        x = y = A
        for _ in range(20):
            x = Meet(Arrow(x, h), Arrow(x, g))
            y = Meet(Arrow(y, g), Arrow(y, h))
        inner = DecisionCache._matches
        calls = [0]

        def counting(self, ga, gb):
            calls[0] += 1
            assert calls[0] <= 1_000, "the pair memo is not consulted"
            return inner(self, ga, gb)

        monkeypatch.setattr(DecisionCache, "_matches", counting)
        cache = DecisionCache()
        assert cache.subseteq(x, y) and cache.subseteq(y, x)
        assert calls[0] == 40


class TestReflexiveMatch:
    def test_arrow_meet_against_its_reverse_in_linear_time(self):
        # each factor of the reversed meet is found in a set of the other's
        # group, built once: about 0.2 s on a 2-CPU desk machine, where
        # scanning the group as a list took 5.4 s
        arrows = [f"(x{i} -> a)" for i in range(20_000)]
        m, r = parse(" & ".join(arrows)), parse(" & ".join(reversed(arrows)))
        t0 = time.perf_counter()
        assert subseteq(m, r)
        assert time.perf_counter() - t0 < 1.0


class TestEquiv:
    def test_distributive_law(self):
        assert equiv(parse("c -> (a & b)"), parse("(c->a) & (c->b)"))

    def test_idempotence(self):
        assert equiv(A, parse("a & a"))

    def test_arrow_not_symmetric(self):
        assert not equiv(parse("a -> b"), parse("b -> a"))
        # countermodel at depth 1: the truncations are the originals
        assert not satisfies_eq(1, parse("a -> b"), parse("b -> a"))


class TestPreorderLaws:
    @given(expr_strategy())
    def test_reflexive(self, e):
        assert subseteq(e, e)

    @given(expr_strategy(max_leaves=8), expr_strategy(max_leaves=8), expr_strategy(max_leaves=8))
    @settings(max_examples=40)
    def test_transitive_on_constructed_chains(self, x, y, z):
        b = Meet(x, y)
        a = Meet(b, z)
        cache = DecisionCache()
        assert cache.subseteq(a, b) and cache.subseteq(b, x)
        assert cache.subseteq(a, x)

    @given(expr_strategy(max_leaves=8), expr_strategy(max_leaves=8))
    def test_meet_laws(self, a, b):
        cache = DecisionCache()
        m = Meet(a, b)
        assert cache.subseteq(m, a)
        assert cache.subseteq(m, b)

    @given(expr_strategy(max_leaves=6), expr_strategy(max_leaves=6), expr_strategy(max_leaves=6))
    @settings(max_examples=40)
    def test_meet_introduction(self, a, b, z):
        c = Meet(Meet(a, b), z)
        cache = DecisionCache()
        assert cache.subseteq(c, a) and cache.subseteq(c, b)
        assert cache.subseteq(c, Meet(a, b))

    @given(expr_strategy(max_leaves=6), expr_strategy(max_leaves=6), expr_strategy(max_leaves=6), expr_strategy(max_leaves=6))
    @settings(max_examples=40)
    def test_contravariance(self, a, u, d, v):
        c = Meet(a, u)
        b = Meet(d, v)
        cache = DecisionCache()
        assert cache.subseteq(c, a) and cache.subseteq(b, d)
        assert cache.subseteq(Arrow(a, b), Arrow(c, d))

    @given(expr_strategy(max_leaves=6), expr_strategy(max_leaves=6), expr_strategy(max_leaves=6))
    @settings(max_examples=40)
    def test_congruence(self, a, b, c):
        # equivalence is preserved by the connectives; use the distributive
        # law to manufacture an equivalent pair
        x = Arrow(c, Meet(a, b))
        y = Meet(Arrow(c, a), Arrow(c, b))
        cache = DecisionCache()
        assert cache.equiv(x, y)
        assert cache.equiv(Meet(x, c), Meet(y, c))
        assert cache.equiv(Arrow(c, x), Arrow(c, y))
        assert cache.equiv(Arrow(x, c), Arrow(y, c))

    @given(expr_strategy(max_leaves=8))
    @settings(max_examples=40)
    def test_rewriting_soundness(self, e):
        rng = random.Random(3)
        cache = DecisionCache()
        pool = witness_pool(e)
        for rule in (ASSO, ASSO_INV, COMM, IDEM, DIST, absp(rng.choice(pool))):
            positions = redexes(e, rule)
            if positions:
                pos = rng.choice(positions)
                assert cache.equiv(e, apply(e, rule, pos))


class TestOracleAndModelAgreement:
    def test_small_universe_against_search_and_model(self):
        universe = all_exprs(("@", "p"), 5)
        cache = DecisionCache()
        rng = random.Random(9)
        for _ in range(250):
            a, b = rng.choice(universe), rng.choice(universe)
            eq = cache.equiv(a, b)
            n = max(arrow_depth(a), arrow_depth(b))
            assert satisfies_eq(n, a, b) == eq
            if eq:
                assert convertible_bounded(a, b, budget=2000) is Verdict.CONFIRMED


class TestSubtypeMatrix:
    def test_single_atom(self):
        m = subtype_matrix(P)
        assert m.size == 1
        assert m.holds(0, 0)

    def test_meet_entries(self):
        m = subtype_matrix(parse("a & b"))
        # nodes: 0 = a & b, 1 = a, 2 = b
        assert m.holds(0, 1) and m.holds(0, 2)
        assert not m.holds(1, 0) and not m.holds(2, 0)
        assert not m.holds(1, 2)

    def test_reflexive_diagonal(self):
        m = subtype_matrix(parse("(a -> b) & (c -> (a & b))"))
        assert all(m.holds(i, i) for i in range(m.size))

    def test_transitive(self):
        rng = random.Random(31)
        for _ in range(10):
            m = subtype_matrix(random_expr(rng, 41))
            n = m.size
            for i in range(n):
                for j in range(n):
                    if not m.holds(i, j):
                        continue
                    for k in range(n):
                        if m.holds(j, k):
                            assert m.holds(i, k)

    def test_agrees_with_recursion(self):
        rng = random.Random(32)
        for _ in range(20):
            root = random_expr(rng, rng.randint(1, 49))
            m = subtype_matrix(root)
            cache = DecisionCache()
            for i in range(m.size):
                for j in range(m.size):
                    assert m.holds(i, j) == cache.subseteq(m.exprs[i], m.exprs[j])

    def test_numbered_factor_arguments_deeper(self):
        rng = random.Random(33)
        for _ in range(30):
            root = random_expr(rng, rng.randint(1, 61))
            _, _, groups = _numbering(root)
            for idx, g in enumerate(groups):
                for args in (args for argss in g.values() for args in argss):
                    assert all(k > idx for k in args)
                    assert idx + idx < min(
                        (k + kk for k in args for kk in args), default=10**9
                    )

    def test_repeated_subtrees_agree_with_recursion(self):
        # a meet of separately parsed copies of three subtrees, plus arrows
        # between copies: most pairs are read from a later occurrence
        rng = random.Random(34)
        texts = [render(random_expr(rng, 11)) for _ in range(3)]
        copies = [parse(texts[k % 3]) for k in range(30)]
        arrows = [Arrow(copies[k], copies[k + 4]) for k in range(0, 24, 3)]
        root = copies[0]
        for e in copies[1:] + arrows:
            root = Meet(root, e)
        m = subtype_matrix(root)
        assert m.size > 30 * 11
        cache = DecisionCache()
        for i in range(m.size):
            for j in range(m.size):
                assert m.holds(i, j) == cache.subseteq(m.exprs[i], m.exprs[j])

    def test_fill_memory_is_linear_in_entries(self):
        root = random_expr(random.Random(1601), 1601)
        tracemalloc.start()
        try:
            m = subtype_matrix(root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.size == 1601
        assert peak < 4 * m.size**2


# The preorder-pair fill that subtype_matrix replaced, copied verbatim: one
# iteration per preorder pair, a repeated pair copied from its last occurrence.


def _reference_numbered_factors(root):
    """Preorder subexpression list plus per-node factor sets whose arguments
    are expressed as node indices.

    A factor argument is numbered by the last preorder index of its
    structural class.  That index is always strictly larger than the node's
    own index, which is what lets the matrix fill entries in decreasing order
    of index sum.
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
    last = {x: i for i, x in enumerate(exprs)}
    memo = {e: factors(e) for e in set(exprs)}
    facts = [
        frozenset((f.head, tuple(last[x] for x in f.args)) for f in memo[e]) for e in exprs
    ]
    for idx, fs in enumerate(facts):
        for _, args in fs:
            assert all(k > idx for k in args), "factor argument below its node"
    return exprs, facts


def _reference_subtype_matrix(root):
    """Fill the full subexpression-pair matrix of the root.

    Entries are computed in decreasing order of index sum i+j, each decided
    by factor matching over already-filled deeper pairs.  A pair of repeated
    subexpressions is decided once, at the last preorder occurrence of each
    (the largest index sum), and copied from there.  Agrees pointwise with
    subseteq on every pair.
    """
    exprs, facts = _reference_numbered_factors(root)
    n = len(exprs)

    grouped = []
    keysets = []
    for fs in facts:
        g = {}
        for head, args in fs:
            g.setdefault((head, len(args)), []).append(args)
        grouped.append(g)
        keysets.append(frozenset(g))

    index = {x: i for i, x in enumerate(exprs)}
    last = [index[x] for x in exprs]

    rows = [bytearray(n) for _ in range(n)]
    for s in range(2 * n - 2, -1, -1):
        for i in range(max(0, s - n + 1), min(n - 1, s) + 1):
            j = s - i
            li, lj = last[i], last[j]
            if li + lj > s:
                # the pair's last occurrence has a larger index sum: filled already
                v = rows[li][lj]
            elif exprs[i] is exprs[j]:
                v = 1
            elif not keysets[j] <= keysets[i]:
                v = 0
            else:
                v = _reference_matrix_entry(grouped[i], grouped[j], rows)
            rows[i][j] = v
    return tuple(exprs), tuple(bytes(r) for r in rows)


def _reference_matrix_entry(gi: dict, gj: dict, rows) -> int:
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


def _repeated_copies_root():
    rng = random.Random(34)
    texts = [render(random_expr(rng, 11)) for _ in range(3)]
    copies = [parse(texts[k % 3]) for k in range(30)]
    arrows = [Arrow(copies[k], copies[k + 4]) for k in range(0, 24, 3)]
    root = copies[0]
    for e in copies[1:] + arrows:
        root = Meet(root, e)
    return root


class TestSubtypeMatrixMatchesReference:
    def _pin(self, root):
        m = subtype_matrix(root)
        exprs, bits = _reference_subtype_matrix(root)
        assert m.exprs == exprs
        assert all(
            m.holds(i, j) == bool(bits[i][j]) for i in range(m.size) for j in range(m.size)
        )
        # one row of k bytes for each of the k distinct subexpressions, and
        # all positions of one node share its class
        k = len(set(exprs))
        assert len(m.rows) == k and all(len(row) == k for row in m.rows)
        assert len(m.classes) == m.size
        class_of = {}
        for x, c in zip(m.exprs, m.classes):
            assert class_of.setdefault(x, c) == c
        assert sorted(class_of.values()) == list(range(k))

    def test_single_atom(self):
        self._pin(P)

    def test_random_roots(self):
        rng = random.Random(35)
        for _ in range(200):
            self._pin(random_expr(rng, rng.randint(1, 120)))

    def test_repeated_copies(self):
        self._pin(_repeated_copies_root())

    def test_kilonode_root(self):
        self._pin(random_expr(random.Random(1601), 1601))

    def test_fill_memory_is_below_one_byte_per_entry(self):
        # k*k bytes of rows for k distinct subterms, plus the fill's
        # per-class factor groups and key sets: under half a byte per entry
        # of the n x n matrix.  Expanding the rows to the n positions (k*n
        # more bytes) went past that bound, and the preorder-pair fill
        # needed two n*n tables
        root = random_expr(random.Random(1601), 1601)
        tracemalloc.start()
        try:
            m = subtype_matrix(root)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m.size == 1601
        assert peak < m.size**2 // 2

    def test_hundred_copies_root_is_answered(self):
        # a 200,199-node meet of 100 copies of one 2,001-node tree: 729
        # classes, so 729 rows of 729 bytes, where k*k + k*n bytes of
        # per-position rows would exceed the byte cap
        tree = random_expr(random.Random(7), 2001)
        root = tree
        for _ in range(99):
            root = Meet(root, tree)
        m = subtype_matrix(root)
        assert m.size == 200_199
        assert len(m.rows) == 729 and all(len(row) == 729 for row in m.rows)
        rng = random.Random(39)
        cache = DecisionCache()
        for _ in range(2000):
            i, j = rng.randrange(m.size), rng.randrange(m.size)
            assert m.holds(i, j) == cache.subseteq(m.exprs[i], m.exprs[j])


class TestExplain:
    def test_positive_case(self):
        tree = explain(parse("a & b"), A)
        assert tree["holds"]
        assert json.dumps(tree)  # serializable

    def test_negative_case_marks_unmatched(self):
        tree = explain(P, Q)
        assert not tree["holds"]
        assert any(ob["matched"] is None for ob in tree["obligations"])

    def test_agrees_with_subseteq(self):
        rng = random.Random(41)
        for _ in range(50):
            a = random_expr(rng, rng.randint(1, 13))
            b = random_expr(rng, rng.randint(1, 13))
            assert explain(a, b)["holds"] == subseteq(a, b)


def _display_factors(e):
    """The factors of e in display order, as the CLI and explain read them."""
    return [
        Factor(args, head)
        for (head, _), pairs in sorted_groups(factor_groups(e)).items()
        for _, args in pairs
    ]


def _reference_explain(a, b):
    """The unmemoized matcher that explain replaced: every candidate factor
    is re-decided by explaining its arguments from scratch."""
    obligations = []
    holds = True
    fas = _display_factors(a)
    for fb in _display_factors(b):
        matched = None
        for fa in fas:
            if fa.head != fb.head or fa.arity != fb.arity:
                continue
            subtrees = [_reference_explain(fb.args[k], fa.args[k]) for k in range(fb.arity)]
            if all(t["holds"] for t in subtrees):
                matched = {"factor": render(factor_to_expr(fa)), "args": subtrees}
                break
        if matched is None:
            holds = False
        obligations.append({"factor": render(factor_to_expr(fb)), "matched": matched})
    return {"sub": render(a), "sup": render(b), "holds": holds, "obligations": obligations}


def _absorption_nest(levels):
    e = Atom("x")
    for _ in range(levels):
        e = Meet(Arrow(e, B), Arrow(Meet(e, C), B))
    return e


class TestExplainMatchesReference:
    def test_random_pairs(self):
        rng = random.Random(42)
        for _ in range(300):
            a = random_expr(rng, rng.randint(1, 25))
            b = random_expr(rng, rng.randint(1, 25))
            assert json.dumps(explain(a, b)) == json.dumps(_reference_explain(a, b))

    def test_absorption_nest(self):
        e = _absorption_nest(6)
        for a, b in ((e, e), (e, Arrow(Meet(e, C), B)), (Arrow(Meet(e, C), B), e)):
            assert json.dumps(explain(a, b)) == json.dumps(_reference_explain(a, b))

    def test_shared_cache_matches_fresh(self):
        rng = random.Random(43)
        cache = DecisionCache()
        for _ in range(50):
            a = random_expr(rng, rng.randint(1, 25))
            b = random_expr(rng, rng.randint(1, 25))
            assert cache.explain(a, b) == explain(a, b)


class TestConcurrency:
    def test_shared_cache_parallel_queries(self):
        rng = random.Random(55)
        pairs = [
            (random_expr(rng, rng.randint(1, 31)), random_expr(rng, rng.randint(1, 31)))
            for _ in range(200)
        ]
        expected = [subseteq(a, b) for a, b in pairs]
        cache = DecisionCache()
        results = [None] * len(pairs)

        def worker(start: int):
            for idx in range(start, len(pairs), 4):
                a, b = pairs[idx]
                results[idx] = cache.subseteq(a, b)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == expected
