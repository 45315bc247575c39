import random
import sys
from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bcd.decide import DecisionCache, factor_groups
from bcd.rewrite import (
    ASSO,
    ASSO_INV,
    COMM,
    DIST,
    IDEM,
    MissingParameter,
    NotARedex,
    Rule,
    Trace,
    TraceStep,
    Verdict,
    _state_key,
    _successors,
    absp,
    apply,
    convertible_bounded,
    dept,
    dist_normal_form,
    meet_members,
    meet_of,
    prune,
    redexes,
    slat_canonical,
    witness_pool,
)
from bcd import rewrite, selftest, syntax
from bcd.syntax import (
    ARROW_SOURCE,
    ARROW_TARGET,
    INFINITE_DEPTH,
    Arrow,
    Atom,
    Expr,
    Meet,
    Position,
    arrow_depth,
    dept_normal_form,
    node_count,
    parse,
    render,
    subexpressions,
)

from bcd.gen import all_exprs, random_walk
from bcd.gen import random_expr as random_expr_local

from conftest import alarm, expr_strategy
from test_step_reference import ebb, node_at, replace_at

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

    def test_unknown_rule_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown rule kind 'bogus'"):
            Rule("bogus")

    def test_meet_of_nothing_is_refused(self):
        with pytest.raises(ValueError, match="empty"):
            meet_of([])

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

    def test_verify_refuses_a_wrong_recorded_result(self):
        t = self.make_trace()
        for i, step in enumerate(t.steps):
            wrong = TraceStep(step.rule, step.position, Meet(step.result, step.result))
            assert not Trace(t.start, t.steps[:i] + (wrong,) + t.steps[i + 1:]).verify(), i

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
        from bcd.decide import satisfies_eq

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


def _successor_nodes(x: Expr, witnesses: list, memo: dict) -> list:
    """_successors(x, witnesses, memo) as expressions: each member set as
    the left-nested meet of its members in rendering order, built here
    rather than by rewrite's own node builders."""
    return [meet_of(sorted(s, key=render)) for s in _successors(x, witnesses, memo)]


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
            e = random_walk(rng, src, 6, witnesses=witness_pool(src))
        states.append(slat_canonical(e))
    return states


def _seeded_pool(rng: random.Random, state) -> list:
    # canonical, deduplicated and sorted, as convertible_bounded passes them
    subs = [sub for _, sub in subexpressions(state)]
    picks = rng.sample(subs, min(len(subs), rng.randint(0, 3)))
    picks += [random_expr_local(rng, 3) for _ in range(rng.randint(0, 1))]
    return sorted({slat_canonical(w) for w in picks}, key=render)


def _reference_without_start(s: Expr, witnesses: list) -> tuple:
    """_reference_neighbors(s, witnesses) with s itself removed, since no
    move of the search leads back to its start, and whether it held s."""
    want = _reference_neighbors(s, witnesses)
    held = s in want
    return [n for n in want if n is not s], held


class TestSuccessors:
    def test_matches_reference_on_random_states(self):
        rng = random.Random(505)
        states = _random_states(rng, 1000)
        total = checks = held = 0
        for k in range(0, len(states), 50):
            group = states[k:k + 50]
            witnesses = _seeded_pool(rng, group[0])
            memo = {}  # shared by the group, as one search shares it
            for state in group:
                for s in (state, prune(state)):
                    got = sorted(_successor_nodes(s, witnesses, memo), key=render)
                    want, had_start = _reference_without_start(s, witnesses)
                    assert got == want, render(s)
                    total += len(got)
                    checks += 1
                    held += had_start
        # the reference holds the start in 485 of the 2,000 checks, so
        # leaving it out is exercised
        assert total > 5_000 and checks == 2_000 and held > 400, (total, held)

    def test_returns_member_sets(self):
        # each successor is the set of its top-level members, distinct
        # non-meets whose meet in rendering order is a slat-canonical form
        # (6,232 sets from 1,100 states; 1,000 gave 4,974 once no move
        # led back to its start)
        rng = random.Random(506)
        states = _random_states(rng, 1100)
        total = 0
        for k in range(0, len(states), 50):
            group = states[k:k + 50]
            witnesses = _seeded_pool(rng, group[0])
            memo = {}
            for state in group:
                for x in (state, prune(state)):
                    for s in _successors(x, witnesses, memo):
                        assert isinstance(s, frozenset) and s, render(x)
                        assert all(m.__class__ is not Meet for m in s), render(x)
                        n = meet_of(sorted(s, key=render))
                        assert slat_canonical(n) is n, render(x)
                        total += 1
        assert total > 5_000

    def test_matches_reference_on_every_expanded_state(self, monkeypatch):
        # the criterion-02 searches over the {@,p} universe of up to 3 nodes;
        # every state, top-level or a meet nested in one, goes through the
        # state-level routine as a member collection
        visited = set()
        inner = rewrite._member_successors

        def recording(members, witnesses, memo):
            visited.add((members, tuple(witnesses)))
            return inner(members, witnesses, memo)

        monkeypatch.setattr(rewrite, "_member_successors", recording)
        universe = all_exprs(("@", "p"), 3)
        cache = DecisionCache()
        for i, a in enumerate(universe):
            for b in universe[i:]:
                budget = 10_000 if cache.equiv(a, b) else 15
                convertible_bounded(a, b, budget=budget)
        assert len(visited) > 500
        held = 0
        for members, witnesses in visited:
            x = meet_of(sorted(members, key=render))
            got = sorted((meet_of(sorted(t, key=render)) for t in inner(members, list(witnesses), {})), key=render)
            want, had_start = _reference_without_start(x, list(witnesses))
            assert got == want, render(x)
            held += had_start
        # the reference holds the start for 503 of the 534 collections (530
        # sets: four are met both as a top-level frozenset and a nested tuple)
        assert held > 450, held


class TestNoMoveLeadsBack:
    """No successor set equals its start's member set, at any level: a
    move that would rebuild its start is never built."""

    def test_seeded_states_and_every_subterm_they_reach(self):
        # the seeded states of TestSuccessors and their pruned forms; the
        # move memo then holds every subterm reached on the way, each
        # checked against its own member set
        rng = random.Random(505)
        states = _random_states(rng, 1000)
        checked = 0
        for k in range(0, len(states), 50):
            group = states[k:k + 50]
            witnesses = _seeded_pool(rng, group[0])
            memo = {}
            for state in group:
                for s in (state, prune(state)):
                    assert frozenset(rewrite._members(s)) not in _successors(s, witnesses, memo), render(s)
            for x, out in memo.items():
                assert frozenset(rewrite._members(x)) not in out, render(x)
                checked += 1
        assert checked > 1_500, checked  # 1,594 distinct subterms

    def test_desk_criterion_02_member_tuples(self, monkeypatch):
        # every member tuple that desk criterion 02's searches pass to the
        # state-level routine, top-level states and nested meets alike
        inner = rewrite._member_successors
        calls = [0]

        def checking(members, witnesses, memo):
            out = inner(members, witnesses, memo)
            assert frozenset(members) not in out, render(meet_of(members))
            calls[0] += 1
            return out

        monkeypatch.setattr(rewrite, "_member_successors", checking)
        _desk_criterion_02_memo(monkeypatch)
        assert calls[0] > 500, calls[0]  # 601 calls


def _reference_default_witnesses(*exprs: Expr) -> list:
    """Deduplicated slat-canonical subexpressions of the given expressions,
    collected by one walk over their distinct subterms."""
    seen, stack = set(), list(exprs)
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            if x.__class__ is Arrow:
                stack += (x.source, x.target)
            elif x.__class__ is Meet:
                stack += (x.left, x.right)
    return sorted({slat_canonical(x) for x in seen}, key=render)


# Reference search: convertible_bounded as it was when a search state was a
# slat-canonical expression, verbatim apart from the log of expanded states,
# from reading the successors as expressions through _successor_nodes, and
# from its default pool, read from the verbatim copy above.
def _reference_search(
    a: Expr,
    b: Expr,
    budget: int = 1000,
    witnesses=None,
    log: list = None,
) -> Verdict:
    """Bidirectional breadth-first search for a conversion between a and b.

    States are slat-canonical; moves are dist and absp in both directions,
    with absp instantiated only from the witness pool (by default the
    subexpressions of a and b).  Each side is expanded at most `budget`
    times, with both start states additionally seeded with their pruned
    forms.  CONFIRMED is returned exactly when the explored sets intersect,
    which implies a and b are congruent; UNKNOWN implies nothing.  Moves and
    pruned forms are memoized per subexpression for the duration of the call.
    """
    if witnesses is None:
        witnesses = _reference_default_witnesses(a, b)
    else:
        witnesses = sorted({slat_canonical(w) for w in witnesses}, key=render)

    moves, pruned_memo = {}, {}
    sides = []
    for root in (a, b):
        canon = slat_canonical(root)
        seen = {canon}
        queue = deque([canon])
        pruned = prune(canon, pruned_memo)
        if pruned not in seen:
            seen.add(pruned)
            queue.append(pruned)
        sides.append((seen, queue))

    (seen_a, queue_a), (seen_b, queue_b) = sides
    if seen_a & seen_b:
        return Verdict.CONFIRMED

    spent = [0, 0]
    while (queue_a and spent[0] < budget) or (queue_b and spent[1] < budget):
        for idx, (seen, queue, other) in enumerate(
            ((seen_a, queue_a, seen_b), (seen_b, queue_b, seen_a))
        ):
            if not queue or spent[idx] >= budget:
                continue
            state = queue.popleft()
            log.append(render(state))
            spent[idx] += 1
            for nb in sorted(_successor_nodes(state, witnesses, moves), key=render):
                for candidate in (nb, prune(nb, pruned_memo)):
                    if candidate in other:
                        return Verdict.CONFIRMED
                    if candidate not in seen:
                        seen.add(candidate)
                        queue.append(candidate)
    return Verdict.UNKNOWN


def _logged_search(monkeypatch, a, b, **kwargs):
    """convertible_bounded's verdict and the renderings of the states it
    expands, in order: the top-level calls of the state-level routine."""
    log, depth = [], [0]
    inner = rewrite._member_successors

    def recording(members, witnesses, memo):
        if not depth[0]:
            state = meet_of(sorted(members, key=render))
            assert _state_key(members) == render(state)
            log.append(render(state))
        depth[0] += 1
        try:
            return inner(members, witnesses, memo)
        finally:
            depth[0] -= 1

    with monkeypatch.context() as m:
        m.setattr(rewrite, "_member_successors", recording)
        verdict = convertible_bounded(a, b, **kwargs)
    return verdict, log


class TestSearchMatchesReference:
    """Member-tuple states expand the same states, in the same order, with
    the same verdicts, as the search over expressions did."""

    def check(self, monkeypatch, a, b, **kwargs):
        expected = []
        reference_kwargs = {k: v for k, v in kwargs.items() if k != "memo"}
        verdict = _reference_search(a, b, log=expected, **reference_kwargs)
        got, log = _logged_search(monkeypatch, a, b, **kwargs)
        assert got is verdict, (render(a), render(b))
        assert log == expected, (render(a), render(b))
        return verdict, len(log)

    def test_criterion_02_universe(self, monkeypatch):
        # criterion 02's budgets, with one pruned-form memo for every search
        universe = all_exprs(("@", "p"), 4)
        cache = DecisionCache()
        memo = {}
        confirmed = expanded = 0
        for i, a in enumerate(universe):
            for b in universe[i:]:
                if cache.equiv(a, b):
                    verdict, n = self.check(monkeypatch, a, b, budget=200, memo=memo)
                    expanded += n
                    if verdict is not Verdict.CONFIRMED:
                        verdict, n = self.check(monkeypatch, a, b, budget=10_000, memo=memo)
                        expanded += n
                    assert verdict is Verdict.CONFIRMED
                    confirmed += 1
                else:
                    verdict, n = self.check(monkeypatch, a, b, budget=15, memo=memo)
                    expanded += n
        assert confirmed == 13 and expanded > 500

    def test_confluence_peaks(self, monkeypatch):
        # criterion-07-style peaks: two short walks from one source, joined
        # under the source's and the walks' witness pool
        rng = random.Random(707)
        for _ in range(150):
            src = random_expr_local(rng, rng.randint(1, 12), ("a", "b", "c"))
            pool = witness_pool(src)
            a = random_walk(rng, src, 4, witnesses=pool)
            b = random_walk(rng, src, 4, witnesses=pool)
            verdict, _ = self.check(monkeypatch, a, b, budget=4000, witnesses=witness_pool(src, a, b))
            assert verdict is Verdict.CONFIRMED

    def test_sample_of_criterion_02_pairs(self, monkeypatch):
        # most peaks rejoin before any expansion, so the long searches come
        # from a seeded sample of criterion 02's own pairs
        rng = random.Random(202)
        universe = all_exprs(("@", "p"), 6)
        cache = DecisionCache()
        pairs = [(a, b) for i, a in enumerate(universe) for b in universe[i:]]
        congruent = [p for p in pairs if cache.equiv(*p)]
        expanded = 0
        for a, b in rng.sample(congruent, 24):
            verdict, n = self.check(monkeypatch, a, b, budget=200)
            expanded += n
            if verdict is not Verdict.CONFIRMED:
                expanded += self.check(monkeypatch, a, b, budget=10_000)[1]
        for a, b in rng.sample(pairs, 100):
            expanded += self.check(monkeypatch, a, b, budget=15)[1]
        assert expanded > 1_000


class TestUnsortedTail:
    """A side expands at most budget states, so successors that can no
    longer be expanded are neither rendered nor sorted."""

    @staticmethod
    def _sample():
        rng = random.Random(203)
        universe = all_exprs(("@", "p"), 6)
        return rng.sample([(a, b) for i, a in enumerate(universe) for b in universe[i:]], 60)

    def test_budget_one_never_renders_a_state(self, monkeypatch):
        def unreachable(state):
            raise AssertionError("a successor was sorted")

        monkeypatch.setattr(rewrite, "_state_key", unreachable)
        # prune merges the same-source arrows of the first side before it
        # absorbs, so it stops one move short of the second side, and only
        # the one expansion's unranked successors confirm the pair
        tail = (parse("a & ((a -> a) & ((a & b) -> a) & (a -> b))"), parse("a & (a -> (a & b))"))
        for a, b in self._sample() + [tail]:
            verdict = _reference_search(a, b, budget=1, log=[])
            assert convertible_bounded(a, b, budget=1) is verdict, (render(a), render(b))
        assert convertible_bounded(*tail, budget=0) is Verdict.UNKNOWN
        assert convertible_bounded(*tail, budget=1) is Verdict.CONFIRMED

    def test_renders_only_while_the_queue_is_shorter_than_the_budget_left(self, monkeypatch):
        budget = 15
        slack = []  # per expansion: the budget left minus the queue's length

        class Queue(deque):
            pops = 0

            def popleft(self):
                state = super().popleft()
                self.pops += 1
                slack.append(budget - self.pops - len(self))
                return state

        keyed = []

        def key(state):
            keyed.append(slack[-1])
            return _state_key(state)

        monkeypatch.setattr(rewrite, "deque", Queue)
        monkeypatch.setattr(rewrite, "_state_key", key)
        for a, b in self._sample():
            verdict = _reference_search(a, b, budget=budget, log=[])
            assert convertible_bounded(a, b, budget=budget) is verdict, (render(a), render(b))
        assert keyed and min(keyed) > 0
        assert sum(s <= 0 for s in slack) > len(slack) // 2


class TestSetOrder:
    """Sets of nodes iterate in allocation order, so no verdict and no
    expanded state may depend on the order in which a set is walked."""

    def test_reversed_successors_and_members_change_nothing(self, monkeypatch):
        sample = TestUnsortedTail._sample()
        expected = []
        for a, b in sample:
            log = []
            expected.append((_reference_search(a, b, budget=15, log=log), log))
        successors, prune_members = rewrite._member_successors, rewrite._prune_members
        calls = [0, 0]

        def reversed_successors(members, witnesses, memo):
            calls[0] += 1
            out = successors(members, witnesses, memo)
            return sorted(out, key=lambda s: _state_key(tuple(sorted(s, key=render))), reverse=True)

        def reversed_members(members, memo):
            # the merge and absorption step, run on a set of pruned members
            calls[1] += 1
            return prune_members(list(members)[::-1], memo)

        monkeypatch.setattr(rewrite, "_member_successors", reversed_successors)
        monkeypatch.setattr(rewrite, "_prune_members", reversed_members)
        for (a, b), want in zip(sample, expected):
            assert _logged_search(monkeypatch, a, b, budget=15) == want, (render(a), render(b))
        assert min(calls) > 1_000


def _desk_criterion_02_memo(monkeypatch, passes: bool = True) -> dict:
    """The pruned-form memo shared by the searches of desk criterion 02."""
    memos = []
    inner = selftest.convertible_bounded

    def recording(a, b, budget=1000, witnesses=None, memo=None):
        memos.append(memo)
        return inner(a, b, budget=budget, witnesses=witnesses, memo=memo)

    with monkeypatch.context() as m:
        m.setattr(selftest, "convertible_bounded", recording)
        ok, detail = selftest.criterion_oracle_agreement(**selftest.DESK_SCALE["02 oracle agreement"])
    assert ok or not passes, detail
    assert memos and all(m is memos[0] for m in memos)
    return memos[0]


def _pruned_form_states() -> list:
    """The {@,p} expressions of at most 6 nodes, and 1,000 seeded random
    states (seed 303)."""
    return [all_exprs(("@", "p"), 6), _random_states(random.Random(303), 1000)]


def _not_idempotent(exprs: list) -> list:
    """The expressions whose pruned form, from a memo that they share,
    prunes to another form in a memo that has not seen it."""
    memo = {}
    return [e for e in exprs if prune(p := prune(e, memo), {}) is not p]


def _pruned_set(members: frozenset, memo: dict) -> frozenset:
    """The member set of the pruned form, from memo, of the meet of a
    member set, built here in rendering order."""
    return frozenset(meet_members(prune(meet_of(sorted(members, key=render)), memo)))


def _pruned_states(memo: dict) -> set:
    """The pruned member sets that memo holds."""
    return {v for v in memo.values() if isinstance(v, frozenset)}


def _not_own_form(memo: dict) -> list:
    """The pruned member sets held in memo whose meet prunes to another form
    in a memo that has not seen it."""
    return [p for p in _pruned_states(memo) if _pruned_set(p, {}) != p]


class TestPrunedForms:
    """A pruned form is its own pruned form.  The memo relies on it: a
    pruned member set keys itself, and since a meet is keyed by its
    members' pruned forms, that entry answers the form's own member set
    too.  So a memo that holds a form cannot show
    that pruning it again would change it, and each check prunes again in
    a memo that has not seen the form."""

    def test_prune_is_idempotent(self):
        for exprs in _pruned_form_states():
            assert not _not_idempotent(exprs), [render(e) for e in _not_idempotent(exprs)[:5]]

    def test_every_pruned_state_of_desk_criterion_02_is_its_own_form(self, monkeypatch):
        memo = _desk_criterion_02_memo(monkeypatch)
        assert len(_pruned_states(memo)) > 150  # 197 at desk scale
        assert not _not_own_form(memo), [sorted(map(render, p)) for p in _not_own_form(memo)[:5]]

    def test_both_checks_catch_an_absorption_that_drops_one_arrow_per_pass(self, monkeypatch):
        # sound but not idempotent: of the absorbed arrows, drop the first
        # only, so a second prune drops another; in the memo that pruned
        # them, the unfinished forms look finished
        assert not _not_idempotent(_pruned_form_states()[0])
        absorbed = rewrite._absorbed
        monkeypatch.setattr(rewrite, "_absorbed", lambda arrows: absorbed(arrows)[:1])
        unfinished = 0
        for exprs in _pruned_form_states():
            memo = {}
            assert all(prune(p := prune(e, memo), memo) is p for e in exprs)
            unfinished += len(_not_idempotent(exprs))
        assert unfinished
        memo = _desk_criterion_02_memo(monkeypatch, passes=False)
        assert all(_pruned_set(p, memo) == p for p in _pruned_states(memo))
        assert _not_own_form(memo)

    def test_desk_criterion_02_memo_holds_one_object_per_pruned_form(self, monkeypatch):
        memo = _desk_criterion_02_memo(monkeypatch)
        values = list(memo.values())
        assert len({id(v) for v in values}) == len(set(values))
        # many state keys share a pruned form, so the sharing matters
        keys = sum(isinstance(k, frozenset) for k in memo)
        assert keys > 2 * sum(isinstance(v, frozenset) for v in set(values))


class TestPrunedMemberKey:
    """_pruned_form keys a meet by the set of its members' pruned forms,
    which is exact: merging and absorption read that set alone."""

    def test_a_meet_prunes_as_its_members_pruned_forms(self):
        checked = 0
        for states in _pruned_form_states():
            for e in states:
                members = set(meet_members(slat_canonical(e)))
                pruned_members = {prune(m, {}) for m in members}
                want = _reference_prune(e)
                assert prune(meet_of(sorted(members, key=render)), {}) is want, render(e)
                assert prune(meet_of(sorted(pruned_members, key=render)), {}) is want, render(e)
                checked += 1
        assert checked == 1_074

    def test_desk_criterion_02_absorption_count(self, monkeypatch):
        # the merge and absorption step runs once per distinct set of pruned
        # members, not once per meet: 1,292 calls of _absorbed over desk
        # criterion 02 (1,271 before it pruned its 20 expressions with two
        # absorbed arrows, and then 2,593 when every meet ran the step)
        calls = [0]
        absorbed = rewrite._absorbed

        def counting(arrows):
            calls[0] += 1
            return absorbed(arrows)

        monkeypatch.setattr(rewrite, "_absorbed", counting)
        _desk_criterion_02_memo(monkeypatch)
        assert 0 < calls[0] <= 1_300, calls[0]

    def test_desk_criterion_02_sorted_meet_count(self, monkeypatch):
        # the search builds no move that leads back to its start: 2,909
        # calls of _sorted_meet over desk criterion 02, the same under hash
        # seeds 0, 1 and 2
        # (3,722 when absp took witnesses the source already held and a
        # meet listed its own member set among its successors)
        calls = [0]
        sorted_meet = rewrite._sorted_meet

        def counting(members):
            calls[0] += 1
            return sorted_meet(members)

        monkeypatch.setattr(rewrite, "_sorted_meet", counting)
        _desk_criterion_02_memo(monkeypatch)
        assert 0 < calls[0] <= 3_000, calls[0]


def _reference_slat(e: Expr) -> Expr:
    """slat_canonical without its node cache: each meet spine flattened,
    deduplicated, sorted by rendering and left-nested, inside arrows too."""
    if isinstance(e, Atom):
        return e
    if isinstance(e, Arrow):
        return Arrow(_reference_slat(e.source), _reference_slat(e.target))
    return meet_of(sorted({_reference_slat(m) for m in meet_members(e)}, key=render))


def _shared_nest(levels: int) -> Expr:
    """Meet(e, e) nested levels deep over e = p -> (@ & (p -> @)): 2^levels
    copies of e as a tree, levels + 1 distinct meets and arrows as a DAG."""
    e = parse("p -> (@ & (p -> @))")
    for _ in range(levels):
        e = Meet(e, e)
    return e


class TestSlatSharedMeets:
    """slat_canonical reads a meet spine through its distinct meets."""

    @pytest.mark.parametrize("levels", [12, 13, 14, 15, 16])
    def test_matches_reference(self, levels):
        e = _shared_nest(levels)
        assert slat_canonical(e) is _reference_slat(e)

    def test_deep_nest_answers(self):
        e = _shared_nest(200)
        with alarm(10, "slat_canonical walks a shared meet once per copy"):
            c = slat_canonical(e)
        assert c is _reference_slat(parse("p -> (@ & (p -> @))"))


class TestNodeCaches:
    """Facts cached on nodes must be right, and slat_canonical is the only
    writer of its own cache: every live node that carries one was asked
    about or returned by slat_canonical.  A node marked as its own
    slat-canonical form must be one, a node pointing at its form must point
    at the right one, and a cached spine, kept on meets only and as a tuple
    only, must be the node's spine.  No cached value is or holds its own
    node, so that nodes die by reference counting.  Every live node loses
    its slat cache first, every node published while the searches run is
    kept alive, and then every live node is checked."""

    @staticmethod
    def _keep_built(monkeypatch) -> list:
        built = []
        publish = syntax._publish

        def recording(key, node):
            node = publish(key, node)
            built.append(node)
            return node

        monkeypatch.setattr(syntax, "_publish", recording)
        return built

    @staticmethod
    def _record_slat(monkeypatch) -> set:
        """Clear every live node's slat cache, then record each node that
        slat_canonical is asked about or returns, through rewrite's name and
        this module's."""
        for ref in list(syntax._table.values()):
            node = ref()
            if node is not None:
                node.__dict__.pop("_slat", None)
        seen = set()
        inner = rewrite.slat_canonical

        def recording(e):
            c = inner(e)
            seen.add(e)
            seen.add(c)
            return c

        monkeypatch.setattr(rewrite, "slat_canonical", recording)
        monkeypatch.setitem(globals(), "slat_canonical", recording)
        return seen

    @staticmethod
    def _check_live_nodes(slat_seen: set) -> tuple:
        marked = spines = 0
        unasked = []
        for ref in list(syntax._table.values()):
            node = ref()
            if node is None:
                continue
            cached = node.__dict__
            for value in cached.values():
                assert value is not node, render(node)
                if isinstance(value, (tuple, frozenset)):
                    assert node not in value, render(node)
            slat = cached.get("_slat")
            if slat is not None and node not in slat_seen:
                unasked.append(render(node))
            if slat is True:
                assert _reference_slat(node) is node, render(node)
                marked += 1
            elif slat is not None:
                assert _reference_slat(node) is slat, render(node)
            if "_groups" in cached:
                assert cached["_groups"] == factor_groups(node), render(node)
            if "_dept" in cached:
                # drop the cached answer, so that the truncation is walked afresh
                n, t = cached.pop("_dept")
                assert dept_normal_form(node, n) is (node if t is True else t), render(node)
            # the spine tuple is the one spine cache, and only a meet keeps it
            assert "_memberset" not in cached, render(node)
            if node.__class__ is not Meet:
                assert "_members" not in cached, render(node)
                continue
            if "_members" in cached:
                assert cached["_members"] == tuple(meet_members(node)), render(node)
                spines += 1
        assert not unasked, unasked[:5]
        return marked, spines

    def test_criterion_02_searches(self, monkeypatch):
        slat_seen = self._record_slat(monkeypatch)
        built = self._keep_built(monkeypatch)
        universe = all_exprs(("@", "p"), 4)
        for a in universe:
            dept_normal_form(a, 1)
        cache = DecisionCache()
        memo = {}
        for i, a in enumerate(universe):
            for b in universe[i:]:
                if cache.equiv(a, b):
                    if convertible_bounded(a, b, budget=200, memo=memo) is not Verdict.CONFIRMED:
                        convertible_bounded(a, b, budget=10_000, memo=memo)
                else:
                    convertible_bounded(a, b, budget=15, memo=memo)
        marked, spines = self._check_live_nodes(slat_seen)
        # only the roots and witnesses are asked for their forms; spines are
        # kept on meets only, and the search builds a meet node only where a
        # move is lifted into an arrow: this run caches 467
        assert built and slat_seen and spines > 381

    def test_random_states(self, monkeypatch):
        slat_seen = self._record_slat(monkeypatch)
        built = self._keep_built(monkeypatch)
        rng = random.Random(151)
        states = _random_states(rng, 1000)
        for k in range(0, len(states), 20):
            group = states[k:k + 20]
            witnesses = _seeded_pool(rng, group[0])
            moves, memo = {}, {}
            for state in group:
                for s in (state, prune(state, memo)):
                    for n in _successor_nodes(s, witnesses, moves):
                        prune(n, memo)
            convertible_bounded(group[0], group[1], budget=20, witnesses=witnesses)
        marked, spines = self._check_live_nodes(slat_seen)
        # prune asks each successor for its form, which marks it; spines are
        # kept on meets only: this run marks 6,669 and caches 6,294
        assert built and marked > 6_500 and spines > 6_173


class TestCountedRedexes:
    """count_restricted and apply_nth_restricted: a random restricted step
    by counted descent, the step that criterion 06 takes."""

    RULES = [ASSO, ASSO_INV, COMM, IDEM, DIST, absp(A), dept(0), dept(1), dept(2)]

    @pytest.mark.parametrize(
        "rule", RULES, ids=lambda r: r.kind if r.depth_param is None else f"dept{r.depth_param}"
    )
    def test_kth_step_is_apply_at_the_kth_listed_redex(self, rule):
        rng = random.Random(606)
        for _ in range(150):
            e = random_expr_local(rng, rng.randint(1, 41), ("a", "b", "@"))
            memo = {}
            positions = redexes(e, rule, restricted=True)
            assert rewrite.count_restricted(e, rule, memo) == len(positions)
            for k, pos in enumerate(positions):
                result = rewrite.apply_nth_restricted(e, rule, k, memo)
                assert result is apply(e, rule, pos)
                # the rebuild left the result's counts in the shared memo
                expected = len(redexes(result, rule, restricted=True))
                assert rewrite.count_restricted(result, rule, memo) == expected
            for k in (-1, len(positions)):
                with pytest.raises(IndexError):
                    rewrite.apply_nth_restricted(e, rule, k, memo)

    def test_criterion_06_runs_match_the_listing_walk(self):
        # sha256 over "steps render(final)" lines of all 10,000 runs, as the
        # walk that listed every redex and took rng.choice of the positions
        # computed it
        import hashlib

        from bcd.selftest import termination_runs

        digest = hashlib.sha256()
        for steps, final, _ in termination_runs():
            digest.update(f"{steps} {render(final)}\n".encode())
        assert digest.hexdigest() == (
            "7157cbc9fabb6d0ac8407149477f18aadcd33f5aa14d19832aa98ef2f004645d"
        )


class TestDeepPositions:
    """A rewrite step walks its position by one loop down and rebuilds it by
    one loop up, so a position deeper than the recursion limit costs no
    frames."""

    @pytest.mark.parametrize("step", [ARROW_TARGET, ARROW_SOURCE])
    def test_a_step_at_a_100000_step_position(self, step):
        n = 100_000

        def chain(leaf: Expr) -> Expr:  # the leaf at the end of n arrows
            e = leaf
            for _ in range(n):
                e = Arrow(A, e) if step == ARROW_TARGET else Arrow(e, A)
            return e

        e, pos = chain(A), (step,) * n
        doubled = chain(Meet(A, A))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert apply(e, IDEM, pos) is doubled
            assert apply(e, dept(n - 1), pos) is chain(AT)
            with pytest.raises(NotARedex):
                apply(e, dept(n), pos)
            trace = Trace(e).extend(IDEM, pos)
            assert trace.final is doubled and trace.verify()
        finally:
            sys.setrecursionlimit(limit)
