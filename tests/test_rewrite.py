import random
from collections import deque
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
    _state_key,
    _successors,
    absp,
    apply,
    convertible_bounded,
    default_witnesses,
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
        # the criterion-02 searches over the {@,p} universe of up to 3 nodes;
        # every state, top-level or a meet nested in one, goes through the
        # state-level routine as a member tuple
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
        for members, witnesses in visited:
            x = meet_of(members)
            got = sorted((meet_of(t) for t in inner(members, list(witnesses), {})), key=render)
            assert got == _reference_neighbors(x, list(witnesses)), render(x)


# Reference search: convertible_bounded as it was when a search state was a
# slat-canonical expression, verbatim apart from the log of expanded states.
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
        witnesses = default_witnesses(a, b)
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
            for nb in sorted(_successors(state, witnesses, moves), key=render):
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
            assert _state_key(members) == render(meet_of(members))
            log.append(render(meet_of(members)))
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
            a = random_walk(rng, src, 4, witnesses=pool).final
            b = random_walk(rng, src, 4, witnesses=pool).final
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
