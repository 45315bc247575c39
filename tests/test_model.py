import dataclasses
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from bcd.decide import DecisionCache, equiv, satisfies_eq
from bcd.gen import all_exprs, random_walk
from bcd.model import (
    CARRIER_CAP,
    LimitExceeded,
    UnknownAtom,
    _close_level,
    _unit_mask,
    build_model,
    stack_of_twos,
)
from bcd.rewrite import meet_of, slat_canonical, witness_pool
from bcd.syntax import Arrow, Atom, Meet, arrow_depth, atoms_of, dept_normal_form, parse, render

from conftest import alarm, expr_strategy


class TestStackOfTwos:
    def test_base(self):
        assert stack_of_twos(0, 5) == 5

    def test_one_level(self):
        assert stack_of_twos(1, 3) == 8

    def test_two_levels(self):
        assert stack_of_twos(2, 2) == 16

    def test_recurrence(self):
        for n in range(1, 4):
            for m in range(4):
                assert stack_of_twos(n, m) == 2 ** stack_of_twos(n - 1, m)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            stack_of_twos(6, 2)

    def test_invalid(self):
        with pytest.raises(ValueError):
            stack_of_twos(-1, 2)


def _levels_before_refusal(monkeypatch, atoms, depth, primes):
    """The carrier size of each level that build_model builds before its byte
    check refuses a level of the given primes."""
    levels = []

    def close_level(atoms, prev=None):
        level = _close_level(atoms, prev)
        levels.append(len(level.carrier))
        return level

    monkeypatch.setattr("bcd.model._close_level", close_level)
    message = f"^closure over {primes} primes .* bytes; the cap is"
    with pytest.raises(LimitExceeded, match=message):
        build_model(atoms, depth)
    return levels


class TestBuildModel:
    def test_single_atom_depth_zero(self):
        m = build_model(["@"], 0)
        assert m.size == 1
        assert m.carrier == (Atom("@"),)
        assert m.size <= stack_of_twos(1, 1)

    def test_single_atom_depth_one(self):
        m = build_model(["@"], 1)
        assert m.size == 3
        assert set(m.carrier) == {
            parse("@"),
            parse("@ -> @"),
            parse("@ & (@ -> @)"),
        }
        assert m.size <= stack_of_twos(2, 2)

    def test_two_atoms_depth_zero(self):
        m = build_model(["@", "p"], 0)
        assert m.size == 3
        assert set(m.carrier) == {parse("@"), parse("p"), parse("@ & p")}
        assert m.size <= stack_of_twos(1, 2)

    def test_two_atoms_depth_one_regression(self):
        m = build_model(["@", "p"], 1)
        assert m.size == 99  # enumeration-derived regression value
        assert m.size <= stack_of_twos(2, 3)

    def test_carrier_pairwise_non_congruent(self):
        for atoms, depth in ((("@",), 1), (("@", "p"), 0), (("@", "p"), 1), (("@",), 2)):
            m = build_model(atoms, depth)
            cache = DecisionCache()
            for a, b in combinations(m.carrier, 2):
                assert not cache.equiv(a, b)

    def test_carrier_members_shallow_and_on_atoms(self):
        m = build_model(["@", "p"], 1)
        from bcd.syntax import atoms_of

        for e in m.carrier:
            assert arrow_depth(e) <= m.depth
            assert atoms_of(e) <= set(m.atoms)

    def test_fingerprint_dedup_matches_naive_pairwise(self):
        # rebuild F(1) over {@} by naive pairwise comparison
        m = build_model(["@"], 1)
        cache = DecisionCache()
        carrier0 = [Atom("@")]
        primes = [Atom("@")] + [Arrow(x, y) for x in carrier0 for y in carrier0]
        reps = []
        for mask in range(1, 1 << len(primes)):
            members = [primes[k] for k in range(len(primes)) if mask >> k & 1]
            cand = slat_canonical(meet_of(members))
            if not any(cache.equiv(cand, r) for r in reps):
                reps.append(cand)
        assert reps == list(m.carrier)

    def test_requires_truncation_atom(self):
        with pytest.raises(ValueError):
            build_model(["p"], 0)

    @pytest.mark.parametrize("name", ["A", "a b", "->", "x)", "9", "_a", "a'", "", "@@", "a\n"])
    def test_rejects_names_parse_cannot_read(self, name):
        # every carrier line is rendered text that parse must read back
        with pytest.raises(ValueError, match="bad atom name"):
            build_model(["@", name], 0)

    def test_accepts_a_name_with_every_character_class(self):
        m = build_model(["@", "x_Y9"], 0)
        assert [parse(render(e)) for e in m.carrier] == list(m.carrier)

    def test_limits(self):
        assert build_model(["@"], 2).size == 49  # depth has no cap of its own
        with pytest.raises(LimitExceeded, match="^depth 2 exceeds the cap of 1$"):
            build_model(["@"], 2, max_depth=1)
        m = build_model(["@", "p", "q"], 0)
        assert m.size == 7  # nonempty subsets of three incomparable atoms

    @pytest.mark.parametrize(
        "atoms, depth", [(["@"], 3), (["@", "p", "q", "r"], 1)], ids=["at-d3", "at_p_q_r-d1"]
    )
    def test_carrier_cap_refuses_in_the_closure(self, atoms, depth):
        with alarm(10, f"{atoms} at depth {depth} was not refused in 10 s"):
            with pytest.raises(LimitExceeded, match=f"classes after .* cap of {CARRIER_CAP}$"):
                build_model(atoms, depth)

    def test_carrier_cap_refuses_before_the_primes(self, monkeypatch):
        built = _levels_before_refusal(monkeypatch, ["@", "p", "q"], 2, 3 + 54871**2)
        assert built == [7, 54871]  # no level-2 prime was built

    @pytest.mark.parametrize(
        "atoms, depth, primes, built",
        [
            (["@", "p"], 2, 2 + 99**2, [3, 99]),
            (["@", *"pqrstu"], 1, 7 + 127**2, [127]),
            (["@", *"pqrstuv"], 1, 8 + 255**2, [255]),
        ],
        ids=["at_p-d2", "7_atoms-d1", "8_atoms-d1"],
    )
    def test_byte_cap_refuses_before_the_primes(self, monkeypatch, atoms, depth, primes, built):
        with alarm(2, f"{atoms} at depth {depth} was not refused in 2 s"):
            assert _levels_before_refusal(monkeypatch, atoms, depth, primes) == built

    def test_refuses_a_million_atoms_before_building_one(self, monkeypatch):
        names = ["@", *(f"a{i}" for i in range(10**6 - 1))]

        def atom(name):
            raise AssertionError(f"build_model built Atom({name!r})")

        monkeypatch.setattr("bcd.model.Atom", atom)
        with pytest.raises(LimitExceeded, match="bytes; the cap is"):
            build_model(names, 0)

    def test_three_atoms_depth_one(self):
        assert build_model(["@", "p", "q"], 1).size == 54871

    def test_model_is_frozen(self):
        m = build_model(["@"], 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.carrier = ()


def _reference_build(atoms, depth):
    """The subset enumeration: every nonempty prime subset, deduplicated by
    its prime fingerprint, with both tables filled by fingerprinting each
    entry.  Returns (carrier, meet_table, arrow_table, atom_index)."""
    names = tuple(sorted(set(atoms)))
    cache = DecisionCache()
    atom_exprs = [Atom(a) for a in names]
    carrier = []
    for _ in range(depth + 1):
        primes = atom_exprs + [Arrow(x, y) for x in carrier for y in carrier]
        carrier = []
        fp_index = {}
        for mask in range(1, 1 << len(primes)):
            members = [primes[k] for k in range(len(primes)) if mask >> k & 1]
            cand = slat_canonical(meet_of(members))
            fp = tuple(cache.subseteq(cand, q) for q in primes)
            if fp not in fp_index:
                fp_index[fp] = len(carrier)
                carrier.append(cand)

    def class_of(e):
        return fp_index[tuple(cache.subseteq(e, q) for q in primes)]

    size = len(carrier)
    meet_table = tuple(
        tuple(class_of(Meet(carrier[i], carrier[j])) for j in range(size))
        for i in range(size)
    )
    arrow_table = tuple(
        tuple(
            class_of(dept_normal_form(Arrow(carrier[i], carrier[j]), depth))
            for j in range(size)
        )
        for i in range(size)
    )
    atom_index = {a: class_of(Atom(a)) for a in names}
    return carrier, meet_table, arrow_table, atom_index


class TestReferenceEnumeration:
    @pytest.mark.parametrize(
        "atoms, depth",
        [
            (("@",), 0),
            (("@",), 1),
            (("@", "p"), 0),
            (("@", "p"), 1),
            (("@",), 2),
            (("@", "p", "q"), 0),
        ],
        ids=["at-d0", "at-d1", "at_p-d0", "at_p-d1", "at-d2", "at_p_q-d0"],
    )
    def test_matches_subset_enumeration(self, atoms, depth):
        m = build_model(atoms, depth)
        carrier, meet_table, arrow_table, atom_index = _reference_build(atoms, depth)
        assert len(m.carrier) == len(carrier)
        assert all(x is y for x, y in zip(m.carrier, carrier))
        assert m.meet_table == meet_table
        assert m.arrow_table == arrow_table
        assert {a: m.eval(Atom(a)) for a in m.atoms} == atom_index


# An independent least-subset search: the reference that the closure's
# class order and representatives are checked against.
def _reference_least_subset(mask: int, pmask: list) -> int:
    """Least prime subset (bit k for prime k) whose masks OR to mask.

    Only primes with pmask[k] inside mask can take part.  Minimising the
    subset as an integer means minimising its highest prime first: the
    least m at which the eligible primes up to m cover what is still
    needed.  Prime m must then be in, and the rest is the same problem
    below m for the bits that m leaves uncovered.
    """
    eligible = [(k, pm) for k, pm in enumerate(pmask) if not pm & ~mask]
    need, subset, hi = mask, 0, len(eligible)
    while need:
        cover = 0
        for idx in range(hi):
            cover |= eligible[idx][1]
            if not need & ~cover:
                break
        k, pm = eligible[idx]
        subset |= 1 << k
        need &= ~pm
        hi = idx
    return subset


def _prime_masks(level):
    """Each prime's unit mask, read off the prime's class: the atoms', then
    above depth 0 the arrows' in row-major order."""
    arrows = [c for row in level._arrows for c in row] if level.depth else []
    return [level._masks[c] for c in (*level._atom_classes.values(), *arrows)]


class TestCloseLevel:
    def test_three_atom_level_one_in_least_subset_order(self):
        # the level-1 primes over {@,p,q}: 3 atoms and 49 arrows
        atoms = [Atom(a) for a in ("@", "p", "q")]
        level0 = build_model(["@", "p", "q"], 0).carrier
        primes = atoms + [Arrow(x, y) for x in level0 for y in level0]
        level = _close_level(atoms, _close_level(atoms))
        pmask, masks, carrier = _prime_masks(level), level._masks, level.carrier
        assert len(masks) == len(carrier) == 54_871
        assert len(masks) <= stack_of_twos(2, 4)
        subsets = [_reference_least_subset(m, pmask) for m in masks]
        assert all(a < b for a, b in zip(subsets, subsets[1:]))
        for rep, subset in zip(carrier, subsets):
            members = (primes[k] for k in range(len(primes)) if subset >> k & 1)
            assert rep is slat_canonical(meet_of(members))


_SIX = pytest.mark.parametrize(
    "atoms, depth",
    [
        (("@",), 0),
        (("@",), 1),
        (("@", "p"), 0),
        (("@", "p"), 1),
        (("@",), 2),
        (("@", "p", "q"), 0),
    ],
    ids=["at-d0", "at-d1", "at_p-d0", "at_p-d1", "at-d2", "at_p_q-d0"],
)


class TestLevels:
    @pytest.mark.parametrize(
        "atoms, depth",
        [
            (("@",), 0),
            (("@",), 1),
            (("@", "p"), 0),
            (("@", "p"), 1),
            (("@",), 2),
            (("@", "p", "q"), 0),
            (("@", "p", "q"), 1),
        ],
        ids=["at-d0", "at-d1", "at_p-d0", "at_p-d1", "at-d2", "at_p_q-d0", "at_p_q-d1"],
    )
    def test_each_level_is_the_model_one_depth_down(self, monkeypatch, atoms, depth):
        # every level built on the way to depth n against build_model at the
        # level's own depth
        levels = []

        def close_level(atoms, prev=None):
            levels.append(_close_level(atoms, prev))
            return levels[-1]

        with monkeypatch.context() as patched:
            patched.setattr("bcd.model._close_level", close_level)
            top = build_model(atoms, depth)
        assert len(levels) == depth + 1 and levels[-1] is top
        universe = all_exprs(atoms, 5)
        for k, level in enumerate(levels):
            m = build_model(atoms, k)
            assert (level.atoms, level.depth) == (m.atoms, k)
            assert len(level.carrier) == len(m.carrier)
            assert all(x is y for x, y in zip(level.carrier, m.carrier))
            assert level._masks == m._masks
            assert level._proj == m._proj
            assert level._arrows == m._arrows
            assert [level.eval(e) for e in universe] == [m.eval(e) for e in universe]


class TestNoDecisionInTheBuild:
    """build_model derives every mask and projection from the level below,
    so the tables that criteria 03 and 05 hold against the decider do not
    come from the decider."""

    @_SIX
    def test_builds_with_the_decider_refusing(self, monkeypatch, atoms, depth):
        def refuse(cache, a, b):
            raise AssertionError(f"build_model asked the decider about {a!r} <= {b!r}")

        with monkeypatch.context() as patched:
            patched.setattr(DecisionCache, "subseteq", refuse)
            m = build_model(atoms, depth)
            meet_table, arrow_table = m.meet_table, m.arrow_table
            atom_index = {a: m.eval(Atom(a)) for a in m.atoms}
        reference = _reference_build(atoms, depth)
        assert len(m.carrier) == len(reference[0])
        assert all(x is y for x, y in zip(m.carrier, reference[0]))
        assert (meet_table, arrow_table, atom_index) == reference[1:]

    @pytest.mark.parametrize(
        "atoms, depth",
        [(("@",), 2), (("@", "p"), 1), (("@", "p", "q"), 1)],
        ids=["at-d2", "at_p-d1", "at_p_q-d1"],
    )
    def test_every_structural_prime_mask_is_the_deciders(self, atoms, depth):
        # every bit of every prime's mask, at every level, against
        # cache.subseteq(prime, unit); below 3 atoms also every class's mask
        # and projection
        atom_exprs = [Atom(a) for a in atoms]
        cache = DecisionCache()
        level = None
        for n in range(depth + 1):
            below = level
            primes = list(atom_exprs)
            if below is not None:
                primes += [Arrow(x, y) for x in below.carrier for y in below.carrier]
            level = _close_level(atom_exprs, below)
            assert len(_prime_masks(level)) == len(primes)
            for p, pm in zip(primes, _prime_masks(level)):
                assert pm == _unit_mask(cache, p, level._units)
            if len(atoms) == 3:
                continue
            for c, m, pi in zip(level.carrier, level._masks, level._proj):
                assert m == _unit_mask(cache, c, level._units)
                if below is not None:
                    t = dept_normal_form(c, n - 1)
                    assert pi == below._by_mask[_unit_mask(cache, t, below._units)]

    def test_lookups_build_no_table(self):
        m = build_model(["@", "p"], 1)
        for e in all_exprs(("@", "p"), 5):
            assert m.eval(e) == m.class_index(e)
        assert "meet_table" not in vars(m) and "arrow_table" not in vars(m)
        assert m.meet_table is m.meet_table
        assert m.arrow_table is m.arrow_table


@pytest.fixture(scope="module")
def models():
    return [
        build_model(["@"], 1),
        build_model(["@", "p"], 0),
        build_model(["@", "p"], 1),
        build_model(["@"], 2),
    ]


class TestTables:

    def test_meet_laws_exhaustive(self, models):
        for m in models:
            K = m.size
            mt = m.meet_table
            assert all(mt[i][i] == i for i in range(K))
            assert all(mt[i][j] == mt[j][i] for i in range(K) for j in range(K))
            assert all(
                mt[mt[i][j]][k] == mt[i][mt[j][k]]
                for i in range(K)
                for j in range(K)
                for k in range(K)
            )

    def test_order_is_a_preorder(self, models):
        for m in models:
            K = m.size
            below = [[m.meet_table[i][j] == i for j in range(K)] for i in range(K)]
            assert all(below[i][i] for i in range(K))
            for i in range(K):
                for j in range(K):
                    if not below[i][j]:
                        continue
                    for k in range(K):
                        if below[j][k]:
                            assert below[i][k]

    def test_arrow_monotonicity_exhaustive(self, models):
        # contravariant in the source, covariant in the target; together with
        # transitivity this is the two-sided contravariance law
        for m in models:
            K = m.size
            mt, at = m.meet_table, m.arrow_table
            below = [[mt[i][j] == i for j in range(K)] for i in range(K)]
            for x1 in range(K):
                for x2 in range(K):
                    if below[x2][x1]:
                        assert all(below[at[x1][y]][at[x2][y]] for y in range(K))
            for y1 in range(K):
                for y2 in range(K):
                    if below[y1][y2]:
                        assert all(below[at[x][y1]][at[x][y2]] for x in range(K))

    def test_weak_distributivity_exhaustive(self, models):
        for m in models:
            K = m.size
            mt, at = m.meet_table, m.arrow_table
            below = [[mt[i][j] == i for j in range(K)] for i in range(K)]
            for c in range(K):
                for a in range(K):
                    for b in range(K):
                        assert below[mt[at[c][a]][at[c][b]]][at[c][mt[a][b]]]

    def test_tables_form_a_model(self, models):
        # over all triples, reading x <= y as meet[x][y] == x: meet is a
        # semilattice, arrow distributes over a meet in its target, and arrow
        # is antitone in its source and monotone in its target
        for m in models:
            K = range(m.size)
            mt, at = m.meet_table, m.arrow_table
            for x in K:
                assert mt[x][x] == x
                mx, ax = mt[x], at[x]
                for y in K:
                    assert mx[y] == mt[y][x]
                    mxy, my, ay = mt[mx[y]], mt[y], at[y]
                    x_le_y = mx[y] == x
                    for z in K:
                        assert mxy[z] == mx[my[z]]
                        assert ax[my[z]] == mt[ax[y]][ax[z]]
                        if x_le_y:
                            assert mt[ay[z]][ax[z]] == ay[z]
                            assert mt[at[z][x]][at[z][y]] == at[z][x]


def _at_limit_1000(fn, *args):
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        return fn(*args)
    finally:
        sys.setrecursionlimit(limit)


class TestEval:
    def test_atom(self):
        m = build_model(["@"], 1)
        assert m.carrier[m.eval(Atom("@"))] == Atom("@")

    def test_truncating_arrow(self):
        m = build_model(["@"], 1)
        idx = m.eval(parse("@ -> (@ -> @)"))
        assert m.carrier[idx] == parse("@ -> @")

    def test_meet_lookup(self):
        m = build_model(["@", "p"], 0)
        assert m.carrier[m.eval(parse("p & @"))] == parse("@ & p")

    def test_unknown_atom(self):
        m = build_model(["@"], 1)
        with pytest.raises(UnknownAtom):
            m.eval(parse("q"))
        with pytest.raises(UnknownAtom):
            m.class_index(parse("q -> @"))

    def test_leftmost_unknown_atom_is_named(self):
        m = build_model(["@", "p"], 1)
        with pytest.raises(UnknownAtom, match="'q'"):
            m.eval(parse("(p -> q) & r"))
        with pytest.raises(UnknownAtom, match="'r'"):
            m.eval(parse("(p -> r) & q"))

    def test_deep_arrow_chain_at_recursion_limit_1000(self):
        m = build_model(["@"], 1)
        at = Atom("@")
        chain = at
        for _ in range(100_000):
            chain = Arrow(at, chain)
        assert m.carrier[_at_limit_1000(m.eval, chain)] is parse("@ -> @")
        with pytest.raises(UnknownAtom):
            _at_limit_1000(m.eval, Arrow(chain, Atom("q")))

    def test_deep_meet_spine_at_recursion_limit_1000(self):
        m = build_model(["@"], 1)
        member = parse("@ -> @ -> @")
        spine = Atom("@")
        for _ in range(100_000):
            spine = Meet(spine, member)
        assert m.carrier[_at_limit_1000(m.eval, spine)] is parse("@ & (@ -> @)")

    def test_shared_subterms_are_read_once(self):
        # 2^64 copies of the member as a tree, 64 meets as a DAG
        m = build_model(["@", "p"], 1)
        e = parse("p -> (@ & (p -> @))")
        member = m.eval(e)
        for _ in range(64):
            e = Meet(e, e)
        assert m.eval(e) == member

    def test_class_index_reads_shared_subterms_once(self):
        # 2^200 copies of the member as a tree: atoms_of, the truncation and
        # the decision each walk the 201 distinct subterms, where the tree
        # walks took 0.06, 1.0 and 4.1 s at only 14, 18 and 20 levels
        m = build_model(["@", "p"], 1)
        member, truncated = parse("p -> (@ & (p -> @))"), parse("p -> (@ & @)")
        e = member
        for _ in range(200):
            e, truncated = Meet(e, e), Meet(truncated, truncated)
        assert atoms_of(e) == {"@", "p"}
        assert dept_normal_form(e, 1) is truncated
        assert equiv(e, member)
        assert m.class_index(e) == m.eval(e) == m.eval(member)

    def test_eval_matches_class_index_everywhere(self):
        for atoms, depth in ((("@",), 1), (("@", "p"), 0), (("@", "p"), 1)):
            m = build_model(atoms, depth)
            for e in all_exprs(atoms, 7):
                assert m.eval(e) == m.class_index(e)


class TestSatisfiesEq:
    def test_everything_collapses_at_depth_zero(self):
        assert satisfies_eq(0, parse("a -> b"), parse("c -> d"))

    def test_depth_one_separates(self):
        assert not satisfies_eq(1, parse("a -> b"), parse("c -> d"))

    @given(expr_strategy(max_leaves=8), st.integers(min_value=0, max_value=3))
    def test_reflexive(self, e, n):
        assert satisfies_eq(n, e, e)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            satisfies_eq(-1, Atom("a"), Atom("a"))

    @given(expr_strategy(max_leaves=8), st.integers(min_value=0, max_value=2))
    @settings(max_examples=40)
    def test_congruence_implies_model_equality_any_depth(self, e, n):
        # a sound model: congruent expressions are model-equal at every depth
        rng = random.Random(77)
        other = random_walk(rng, e, 3, witnesses=witness_pool(e))
        assert equiv(e, other)
        assert satisfies_eq(n, e, other)

    def test_completeness_on_shallow_universe(self):
        universe = [e for e in all_exprs(("@", "p"), 5) if arrow_depth(e) < 2]
        cache = DecisionCache()
        for i in range(len(universe)):
            for j in range(i, len(universe)):
                a, b = universe[i], universe[j]
                assert satisfies_eq(1, a, b) == cache.equiv(a, b)

    def test_model_equality_agrees_with_eval(self):
        m = build_model(["@", "p"], 1)
        rng = random.Random(5)
        universe = all_exprs(("@", "p"), 7)
        for _ in range(400):
            a, b = rng.choice(universe), rng.choice(universe)
            assert (m.eval(a) == m.eval(b)) == satisfies_eq(1, a, b)
