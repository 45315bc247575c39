import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bcd.decide import DecisionCache
from bcd.rewrite import (
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
    Verdict,
    _successors,
    absp,
    apply,
    convertible_bounded,
    dept,
    dept_normal_form,
    dist_normal_form,
    meet_members,
    meet_of,
    prune,
    redexes,
    slat_canonical,
)
from bcd import rewrite
from bcd.syntax import (
    Arrow,
    Atom,
    Expr,
    Meet,
    Position,
    arrow_depth,
    ebb,
    node_at,
    node_count,
    parse,
    render,
    replace_at,
    subexpressions,
)

from bcd.gen import all_exprs, random_walk, witness_pool
from bcd.gen import random_expr as random_expr_local

from conftest import expr_strategy

A, B, C, P = Atom("a"), Atom("b"), Atom("c"), Atom("p")
AT = Atom("@")


class TestRedexes:
    def test_asso_example(self):
        assert redexes(parse("a & (b & c)"), ASSO) == [()]

    def test_asso_inv(self):
        assert redexes(parse("a & b & c"), ASSO_INV) == [()]

    def test_dist_none_on_atom(self):
        assert redexes(Atom("p"), DIST) == []

    def test_dept_inner_arrow(self):
        e = parse("a -> (@ -> @)")
        assert redexes(e, dept(1), restricted=True) == [("target",)]

    def test_dept_unrestricted_excludes_truncation_atom(self):
        e = parse("a -> (@ -> @)")
        positions = redexes(e, dept(1), restricted=False)
        assert ("target",) in positions
        # the two @ leaves at ebb 2 are trivial loops, never redexes
        assert ("target", "source") not in positions
        assert ("target", "target") not in positions
        # but a non-@ atom at deep ebb is one
        e2 = parse("a -> (b -> c)")
        assert ("target", "source") in redexes(e2, dept(1), restricted=False)

    def test_dept_restricted_shapes(self):
        e = parse("x -> ((a & b) -> (p -> q))")
        positions = set(redexes(e, dept(1), restricted=True))
        # the meet of atoms at ebb 2 and the atoms inside p -> q at ebb 3
        assert ("target", "source") in positions
        assert ("target",) not in positions  # arrow but not @ -> @
        e2 = parse("x -> (@ -> @)")
        assert set(redexes(e2, dept(1), restricted=True)) == {("target",)}

    def test_dept_infinite_depth_trivial(self):
        e = parse("(a -> b) -> (c -> d)")
        assert redexes(e, dept(INFINITE_DEPTH)) == []

    def test_idem_restriction(self):
        e = parse("(a & b) -> c")
        assert set(redexes(e, IDEM, restricted=False)) == {
            pos for pos, _ in subexpressions(e)
        }
        assert set(redexes(e, IDEM, restricted=True)) == {
            ("source", "left"),
            ("source", "right"),
            ("target",),
        }

    def test_comm_restriction(self):
        e = parse("(a & (b & c)) & (x -> y)")
        unrestricted = set(redexes(e, COMM, restricted=False))
        restricted = set(redexes(e, COMM, restricted=True))
        assert ("left", "right") in restricted  # b & c: both atoms
        assert () not in restricted  # left operand is itself a meet
        assert ("left",) not in restricted  # right operand is a meet
        assert restricted <= unrestricted
        e2 = parse("a & (x -> y)")
        assert () in redexes(e2, COMM, restricted=True)

    def test_missing_parameters(self):
        with pytest.raises(MissingParameter):
            redexes(parse("a -> b"), Rule("absp"))
        with pytest.raises(MissingParameter):
            redexes(parse("a -> b"), Rule("dept"))

    @given(expr_strategy(max_leaves=12), st.integers(min_value=0, max_value=2))
    def test_dept_redexes_are_exactly_deep_non_placeholder_positions(self, e, n):
        expected = [
            pos
            for pos, sub in subexpressions(e)
            if ebb(e, pos) > n and sub != AT
        ]
        assert redexes(e, dept(n)) == expected


class TestApply:
    def test_dist(self):
        assert apply(parse("a -> (b & c)"), DIST, ()) == parse("(a -> b) & (a -> c)")

    def test_absp(self):
        assert apply(parse("a -> b"), absp(C), ()) == parse("(a -> b) & ((a & c) -> b)")

    def test_idem(self):
        assert apply(Atom("p"), IDEM, ()) == parse("p & p")

    def test_asso(self):
        assert apply(parse("a & (b & c)"), ASSO, ()) == parse("(a & b) & c")
        assert apply(parse("(a & b) & c"), ASSO_INV, ()) == parse("a & (b & c)")

    def test_comm(self):
        assert apply(parse("a & b"), COMM, ()) == parse("b & a")

    def test_dept_replaces_with_truncation_atom(self):
        e = parse("a -> (b -> c)")
        assert apply(e, dept(1), ("target",)) == parse("a -> @")

    def test_not_a_redex(self):
        with pytest.raises(NotARedex):
            apply(parse("a & b"), DIST, ())
        with pytest.raises(NotARedex):
            apply(parse("a -> b"), dept(5), ())

    @given(expr_strategy(max_leaves=10))
    @settings(max_examples=40)
    def test_only_the_redex_changes(self, e):
        rng = random.Random(7)
        for rule in (ASSO, ASSO_INV, COMM, IDEM, DIST, absp(C)):
            positions = redexes(e, rule)
            if not positions:
                continue
            pos = rng.choice(positions)
            before = dict(subexpressions(e))
            after = apply(e, rule, pos)
            changed = dict(subexpressions(after))
            for p, sub in before.items():
                if len(p) < len(pos) and pos[: len(p)] == p:
                    continue  # ancestors change
                if p[: len(pos)] == pos:
                    continue  # inside the redex
                assert changed[p] == sub


class TestComb:
    """comm restriction reading: both operands atoms or arrow-rooted."""

    def test_meets_with_meet_operand_excluded(self):
        e = parse("(a & b) & c")
        assert () not in redexes(e, COMM, restricted=True)
        assert ("left",) in redexes(e, COMM, restricted=True)

    def test_arrow_operands_allowed(self):
        e = parse("(x -> y) & c")
        assert () in redexes(e, COMM, restricted=True)


class TestDistNormalForm:
    def test_simple(self):
        assert dist_normal_form(parse("a -> (b & c)")) == parse("(a -> b) & (a -> c)")

    def test_already_normal(self):
        assert dist_normal_form(parse("p & q")) == parse("p & q")

    def test_nested_target_up_to_slat(self):
        got = dist_normal_form(parse("a -> (b & (c & d))"))
        want = parse("(a -> b) & ((a -> c) & (a -> d))")
        assert slat_canonical(got) == slat_canonical(want)

    @given(expr_strategy())
    def test_no_arrow_targets_meet(self, e):
        nf = dist_normal_form(e)
        assert not any(
            isinstance(sub, Arrow) and isinstance(sub.target, Meet)
            for _, sub in subexpressions(nf)
        )

    @given(expr_strategy(max_leaves=12))
    @settings(max_examples=30)
    def test_matches_random_strategy_exhaustion(self, e):
        rng = random.Random(13)
        cur = e
        while True:
            positions = redexes(cur, DIST)
            if not positions:
                break
            cur = apply(cur, DIST, rng.choice(positions))
        assert slat_canonical(cur) == slat_canonical(dist_normal_form(e))

    def test_step_bound_on_200_node_instances(self):
        # random-strategy dist normalization stays within (node count)^2 steps
        rng = random.Random(99)
        for _ in range(12):
            e = random_expr_local(rng, 199)
            bound = node_count(e) ** 2
            steps = 0
            cur = e
            while True:
                positions = redexes(cur, DIST)
                if not positions:
                    break
                cur = apply(cur, DIST, rng.choice(positions))
                steps += 1
                assert steps <= bound

    @given(expr_strategy(max_leaves=12))
    @settings(max_examples=30)
    def test_two_random_strategies_agree(self, e):
        results = []
        for seed in (1, 2):
            rng = random.Random(seed)
            cur = e
            while True:
                positions = redexes(cur, DIST)
                if not positions:
                    break
                cur = apply(cur, DIST, rng.choice(positions))
            results.append(slat_canonical(cur))
        assert results[0] == results[1]


class TestDeptNormalForm:
    def test_no_arrows_unchanged(self):
        assert dept_normal_form(parse("p & q"), 0) == parse("p & q")

    def test_root_arrow_truncated_at_zero(self):
        assert dept_normal_form(parse("a -> b"), 0) == AT

    def test_inner_arrow_truncated(self):
        assert dept_normal_form(parse("a -> (b -> c)"), 1) == parse("a -> @")

    @given(expr_strategy(), st.integers(min_value=0, max_value=3))
    def test_result_has_no_deep_positions(self, e, n):
        nf = dept_normal_form(e, n)
        assert arrow_depth(nf) <= n
        assert redexes(nf, dept(n)) == []

    @given(expr_strategy(), st.integers(min_value=0, max_value=2))
    def test_reachable_by_dept_steps(self, e, n):
        # truncating each maximal deep subexpression is itself a dept step
        trace = Trace(e)
        rule = dept(n)
        while True:
            positions = redexes(trace.final, rule)
            if not positions:
                break
            trace = trace.extend(rule, positions[0])
        assert trace.final == dept_normal_form(e, n)
        assert trace.verify()

    @given(expr_strategy(), st.integers(min_value=0, max_value=2))
    def test_identity_on_shallow_expressions(self, e, n):
        if arrow_depth(e) <= n:
            assert dept_normal_form(e, n) == e

    @given(expr_strategy(max_leaves=15), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40)
    def test_restricted_steps_decrease_measure(self, e, n):
        # each restricted step shortens the expression or turns an atom into @
        rng = random.Random(5)
        cur = e
        while True:
            positions = redexes(cur, dept(n), restricted=True)
            if not positions:
                break
            nxt = apply(cur, dept(n), rng.choice(positions))
            m_cur = (node_count(cur), sum(1 for _, s in subexpressions(cur) if isinstance(s, Atom) and s != AT))
            m_nxt = (node_count(nxt), sum(1 for _, s in subexpressions(nxt) if isinstance(s, Atom) and s != AT))
            assert m_nxt < m_cur
            cur = nxt
        assert arrow_depth(cur) <= n


class TestSlatCanonical:
    def test_flatten_sort_dedup(self):
        assert slat_canonical(parse("(b & a) & b")) == parse("a & b")

    def test_arrow_untouched(self):
        assert slat_canonical(parse("a -> b")) == parse("a -> b")

    def test_idem_collapse(self):
        assert slat_canonical(parse("(a & b) & (a & b)")) == parse("a & b")

    @given(expr_strategy())
    def test_idempotent(self, e):
        c = slat_canonical(e)
        assert slat_canonical(c) == c

    @given(expr_strategy(max_leaves=12))
    @settings(max_examples=50)
    def test_invariant_under_slat_steps(self, e):
        rng = random.Random(3)
        for rule in (ASSO, ASSO_INV, COMM, IDEM):
            positions = redexes(e, rule)
            if positions:
                pos = rng.choice(positions)
                assert slat_canonical(apply(e, rule, pos)) == slat_canonical(e)

    @given(expr_strategy())
    def test_members_sorted_and_distinct(self, e):
        for _, sub in subexpressions(slat_canonical(e)):
            if isinstance(sub, Meet):
                members = meet_members(sub)
                rendered = [render(m) for m in members]
                assert rendered == sorted(rendered)
                assert len(set(rendered)) == len(rendered)

    @given(expr_strategy())
    def test_meets_left_nested(self, e):
        for _, sub in subexpressions(slat_canonical(e)):
            if isinstance(sub, Meet):
                assert not isinstance(sub.right, Meet)


class TestTrace:
    def make_trace(self):
        t = Trace(parse("a -> (b & c)"))
        t = t.extend(DIST, ())
        t = t.extend(absp(C), ("left",))
        # the a & c source sits at ebb 1, a dept redex at depth 0
        t = t.extend(dept(0), ("left", "right", "source"))
        return t

    def test_verify(self):
        assert self.make_trace().verify()

    def test_json_round_trip(self):
        t = self.make_trace()
        back = Trace.from_json(t.to_json())
        assert back == t
        assert back.verify()

    def test_final(self):
        t = Trace(A)
        assert t.final == A


class TestConvertibleBounded:
    def test_distributive_law(self):
        assert (
            convertible_bounded(parse("(c->a) & (c->b)"), parse("c -> (a & b)"))
            is Verdict.CONFIRMED
        )

    def test_absorption_law(self):
        assert (
            convertible_bounded(parse("a -> b"), parse("(a->b) & ((a&c) -> b)"))
            is Verdict.CONFIRMED
        )

    def test_distinct_atoms_unknown(self):
        assert convertible_bounded(Atom("p"), Atom("q"), budget=200) is Verdict.UNKNOWN

    def test_slat_variants_instant(self):
        assert (
            convertible_bounded(parse("p & (q & p)"), parse("q & p"), budget=0)
            is Verdict.CONFIRMED
        )

    def test_confirmed_implies_congruent(self):
        rng = random.Random(11)
        cache = DecisionCache()
        checked = 0
        universe = all_exprs(("@", "p"), 5)
        for _ in range(300):
            a, b = rng.choice(universe), rng.choice(universe)
            if convertible_bounded(a, b, budget=30) is Verdict.CONFIRMED:
                assert cache.equiv(a, b)
                checked += 1
        assert checked > 10


class TestPrune:
    def test_merges_same_source(self):
        assert prune(parse("(c->a) & (c->b)")) == slat_canonical(parse("c -> (a & b)"))

    def test_drops_absorbed(self):
        assert prune(parse("(a->b) & ((a&c)->b)")) == parse("a -> b")

    @given(expr_strategy(max_leaves=10))
    @settings(max_examples=40)
    def test_stays_congruent(self, e):
        cache = DecisionCache()
        assert cache.equiv(e, prune(e))

    def test_shared_memo_matches_fresh_calls(self):
        rng = random.Random(67)
        base = _random_states(rng, 20)
        family = base + [
            rng.choice((Arrow, Meet))(rng.choice(base), rng.choice(base)) for _ in range(60)
        ]
        memo = {}
        for e in family:
            assert prune(e, memo) is prune(e)
        assert all(memo[e] is prune(e) for e in family)

    def test_matches_fixpoint_loop(self):
        rng = random.Random(71)
        exprs = _random_states(rng, 2000) + all_exprs(("@", "p"), 5)
        for e in exprs:
            assert prune(e) is _reference_prune(e), render(e)


class TestRedoSoundness:
    @given(expr_strategy(max_leaves=10))
    @settings(max_examples=50)
    def test_every_redo_step_preserves_congruence(self, e):
        rng = random.Random(23)
        cache = DecisionCache()
        witness = rng.choice([sub for _, sub in subexpressions(e)])
        for rule in (ASSO, ASSO_INV, COMM, IDEM, DIST, absp(witness)):
            for pos in redexes(e, rule):
                assert cache.equiv(e, apply(e, rule, pos))

    @given(expr_strategy(max_leaves=8), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40)
    def test_dept_steps_sound_for_truncation_model(self, e, n):
        from bcd.model import satisfies_eq

        for pos in redexes(e, dept(n), restricted=True):
            assert satisfies_eq(n, e, apply(e, dept(n), pos))


def _spine_set(e: Expr) -> frozenset:
    return frozenset(meet_members(e))


# Reference prune: merge and drop repeated until neither applies, uncached.
def _reference_merge_cluster(members: list) -> tuple:
    """Union the targets of same-source arrow members (reverse dist,
    repeatedly); newly merged members are re-pruned since their combined
    targets may expose further merges."""
    by_source = {}
    rest = []
    for m in members:
        if isinstance(m, Arrow):
            by_source.setdefault(m.source, []).append(m)
        else:
            rest.append(m)
    out = list(rest)
    changed = False
    for src, group in by_source.items():
        if len(group) == 1:
            out.append(group[0])
        else:
            changed = True
            spine = set()
            for g in group:
                spine |= _spine_set(g.target)
            target = _reference_prune(meet_of(sorted(spine, key=render)))
            out.append(_reference_prune(Arrow(src, target)))
    return out, changed


def _reference_drop_absorbed(members: list) -> tuple:
    """Drop members made redundant by absorption: an arrow whose source spine
    contains another member's source spine and whose target coincides."""
    keep = []
    changed = False
    for i, v in enumerate(members):
        absorbed = False
        if isinstance(v, Arrow):
            vs = _spine_set(v.source)
            for j, u in enumerate(members):
                if i == j or not isinstance(u, Arrow):
                    continue
                if u.target is v.target and _spine_set(u.source) < vs:
                    absorbed = True
                    break
        if absorbed:
            changed = True
        else:
            keep.append(v)
    return keep, changed


def _reference_prune(e: Expr) -> Expr:
    """Normalize by reverse-dist merging and absorption removal, bottom up,
    until neither applies."""
    c = slat_canonical(e)
    if isinstance(c, Atom):
        result = c
    elif isinstance(c, Arrow):
        result = Arrow(_reference_prune(c.source), _reference_prune(c.target))
    else:
        members = [_reference_prune(m) for m in meet_members(c)]
        while True:
            members, merged = _reference_merge_cluster(members)
            members, dropped = _reference_drop_absorbed(members)
            if not (merged or dropped):
                break
        result = slat_canonical(meet_of(members))
    return result


# Reference successors: one move at each position of the state, rebuilt and
# re-canonicalized in full, as the search computed them before _successors.
def _reference_neighbors(state: Expr, witnesses: list) -> list:
    """Sound one-move successors of a slat-canonical state.

    Moves are dist and absp applied in both directions at arbitrary
    positions, phrased on meet spines so that the asso/comm/idem orbit never
    has to be searched: split one member out of an arrow's meet target (with
    or without retaining the original), merge two same-source arrows,
    append an absorption component from a witness, or drop an absorbed
    component.
    """
    out = set()

    def add(pos: Position, replacement: Expr) -> None:
        out.add(slat_canonical(replace_at(state, pos, replacement)))

    for pos, sub in subexpressions(state):
        if isinstance(sub, Arrow):
            src, tgt = sub.source, sub.target
            for w in witnesses:
                add(pos, Meet(sub, Arrow(Meet(src, w), tgt)))
            if isinstance(tgt, Meet):
                members = meet_members(tgt)
                for i, x in enumerate(members):
                    rest = members[:i] + members[i + 1:]
                    add(pos, Meet(Arrow(src, x), Arrow(src, meet_of(rest))))
                    add(pos, Meet(Arrow(src, x), sub))
        elif isinstance(sub, Meet):
            if pos and node_at(state, pos[:-1]).__class__ is Meet:
                continue  # handle each maximal meet cluster once
            members = meet_members(sub)
            arrows = [(i, m) for i, m in enumerate(members) if isinstance(m, Arrow)]
            for (i, u), (j, v) in combinations(arrows, 2):
                if u.source is v.source:
                    merged = Arrow(u.source, Meet(u.target, v.target))
                    rest = [m for k, m in enumerate(members) if k not in (i, j)]
                    add(pos, meet_of(rest + [merged]))
            for (i, u) in arrows:
                for (j, v) in arrows:
                    if i == j or u.target is not v.target:
                        continue
                    if _spine_set(u.source) <= _spine_set(v.source):
                        rest = [m for k, m in enumerate(members) if k != j]
                        add(pos, meet_of(rest))
    return sorted(out, key=render)



def _random_states(rng: random.Random, count: int) -> list:
    """Seeded slat-canonical states: random trees, and short random
    reductions of small law-shaped sources, which carry the same-source
    arrows and absorption components that the cluster moves act on."""
    states = []
    while len(states) < count:
        if rng.random() < 0.5:
            e = random_expr_local(rng, rng.randint(1, 17), atoms=("a", "b", "@"))
        else:
            src = random_expr_local(rng, rng.choice((3, 5, 7)), atoms=("a", "b", "@"))
            e = random_walk(rng, src, 6, witnesses=witness_pool(src)).final
        states.append(slat_canonical(e))
    return states


def _seeded_pool(rng: random.Random, state) -> list:
    # canonical, deduplicated and sorted, as convertible_bounded passes them
    subs = [sub for _, sub in subexpressions(state)]
    picks = rng.sample(subs, min(len(subs), rng.randint(0, 3)))
    picks += [random_expr_local(rng, 3) for _ in range(rng.randint(0, 1))]
    return sorted({slat_canonical(w) for w in picks}, key=render)


class TestSuccessors:
    def test_matches_reference_on_random_states(self):
        rng = random.Random(505)
        states = _random_states(rng, 1000)
        total = 0
        for k in range(0, len(states), 50):
            group = states[k:k + 50]
            witnesses = _seeded_pool(rng, group[0])
            memo = {}  # shared by the group, as one search shares it
            for state in group:
                for s in (state, prune(state)):
                    got = sorted(_successors(s, witnesses, memo), key=render)
                    assert got == _reference_neighbors(s, witnesses), render(s)
                    total += len(got)
        assert total > 5_000

    def test_matches_reference_on_every_expanded_state(self, monkeypatch):
        # the criterion-02 searches over the {@,p} universe of up to 3 nodes
        visited = set()
        inner = rewrite._successors

        def recording(x, witnesses, memo):
            visited.add((x, tuple(witnesses)))
            return inner(x, witnesses, memo)

        monkeypatch.setattr(rewrite, "_successors", recording)
        universe = all_exprs(("@", "p"), 3)
        cache = DecisionCache()
        for i, a in enumerate(universe):
            for b in universe[i:]:
                budget = 10_000 if cache.equiv(a, b) else 15
                convertible_bounded(a, b, budget=budget)
        assert len(visited) > 500
        for x, witnesses in visited:
            got = sorted(inner(x, list(witnesses), {}), key=render)
            assert got == _reference_neighbors(x, list(witnesses)), render(x)
