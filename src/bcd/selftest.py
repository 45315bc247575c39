"""Acceptance checks runnable at full or reduced scale.

Each criterion returns (ok, detail).  The test suite runs them at their full
stated scale; the CLI selftest verb runs reduced-sample versions of the same
checks.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from .bench import fitted_exponent, scaling_run, time_decision, time_matrix
from .decide import DecisionCache, factors, satisfies_eq, subtype_matrix
from .gen import (
    all_exprs,
    random_expr,
    random_strictly_positive_step,
    random_walk,
)
from .model import build_model, stack_of_twos
from .rewrite import (
    ASSO,
    ASSO_INV,
    COMM,
    DIST,
    IDEM,
    Verdict,
    absp,
    apply,
    apply_nth_restricted,
    convertible_bounded,
    count_restricted,
    dept,
    prune,
    redexes,
    slat_canonical,
    witness_pool,
)
from .syntax import (
    Arrow,
    Atom,
    Expr,
    Meet,
    arrow_depth,
    dept_normal_form,
    node_count,
    parse,
    render,
    subexpressions,
)


def criterion_law_suite(samples: int = 1000):
    """Preorder, meet, arrow, and absorption laws on randomized instances."""
    atoms = ("a", "b", "c")
    rng = random.Random(101)

    def rand() -> Expr:
        return random_expr(rng, rng.randint(1, 30), atoms)

    def law_reflexivity(c):
        a = rand()
        return c.subseteq(a, a)

    def law_transitivity(c):
        bottom, mid_extra, low_extra = rand(), rand(), rand()
        b = Meet(bottom, mid_extra)
        a = Meet(b, low_extra)
        return c.subseteq(a, b) and c.subseteq(b, bottom) and c.subseteq(a, bottom)

    def law_meet_below_left(c):
        a, b = rand(), rand()
        return c.subseteq(Meet(a, b), a)

    def law_meet_below_right(c):
        a, b = rand(), rand()
        return c.subseteq(Meet(a, b), b)

    def law_meet_greatest(c):
        a, b, extra = rand(), rand(), rand()
        low = Meet(Meet(a, b), extra)
        return (
            c.subseteq(low, a)
            and c.subseteq(low, b)
            and c.subseteq(low, Meet(a, b))
        )

    def law_contravariance(c):
        a, u, d, v = rand(), rand(), rand(), rand()
        csrc = Meet(a, u)  # below a
        b = Meet(d, v)  # below d
        return (
            c.subseteq(csrc, a)
            and c.subseteq(b, d)
            and c.subseteq(Arrow(a, b), Arrow(csrc, d))
        )

    def law_weak_distributivity(c):
        a, b, s = rand(), rand(), rand()
        return c.subseteq(Meet(Arrow(s, a), Arrow(s, b)), Arrow(s, Meet(a, b)))

    def law_distributivity(c):
        a, b, s = rand(), rand(), rand()
        return c.equiv(Arrow(s, Meet(a, b)), Meet(Arrow(s, a), Arrow(s, b)))

    def law_absorption(c):
        a, b, w = rand(), rand(), rand()
        return c.equiv(Arrow(a, b), Meet(Arrow(a, b), Arrow(Meet(a, w), b)))

    def law_derived_absorption(c):
        a, b, s = rand(), rand(), rand()
        return c.equiv(
            Arrow(s, Meet(a, b)), Meet(Arrow(s, a), Arrow(s, Meet(a, b)))
        )

    laws = [
        ("reflexivity", law_reflexivity),
        ("transitivity", law_transitivity),
        ("meet below left", law_meet_below_left),
        ("meet below right", law_meet_below_right),
        ("meet greatest lower bound", law_meet_greatest),
        ("contravariance", law_contravariance),
        ("weak distributivity", law_weak_distributivity),
        ("distributivity", law_distributivity),
        ("absorption", law_absorption),
        ("derived absorption", law_derived_absorption),
    ]
    t0 = time.perf_counter()
    failures = Counter()
    for name, law in laws:
        for _ in range(samples):
            if not law(DecisionCache()):
                failures[name] += 1
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    detail = (
        f"{len(laws)} laws x {samples} instances, {sum(failures.values())} failures, "
        f"{elapsed:.2f}s"
    )
    if failures:
        detail += " " + str(dict(failures))
    return ok, detail


def _same_source_pairs(rng: random.Random, count: int) -> list:
    """count pairs whose left side (s -> t) & (s -> u) holds two arrows with
    one source, over the {@,p} expressions with at most 3 nodes.  The right
    side is by turns s -> t & u, congruent by distributivity, and s -> t,
    congruent only when t & u ~ t.  The pairs have 7 to 15 nodes, more than
    the exhaustive universe holds at desk scale."""
    parts = all_exprs(("@", "p"), 3)
    pairs = []
    for k in range(count):
        s, t, u = rng.sample(parts, 3)
        right = Arrow(s, t) if k % 2 else Arrow(s, Meet(t, u))
        pairs.append((Meet(Arrow(s, t), Arrow(s, u)), right))
    return pairs


def _two_absorbed(rng: random.Random, count: int) -> list:
    """count expressions (s -> t) & ((s & c) -> t) & ((s & d) -> t) over the
    {@,p} expressions with at most 3 nodes: s -> t absorbs both other arrows
    when c and d add members to s, so one pass of prune must drop two."""
    parts = all_exprs(("@", "p"), 3)
    out = []
    for _ in range(count):
        s, t, c, d = rng.sample(parts, 4)
        out.append(Meet(Meet(Arrow(s, t), Arrow(Meet(s, c), t)), Arrow(Meet(s, d), t)))
    return out


def criterion_oracle_agreement(budget_false: int = 15, max_nodes: int = 6, same_source: int = 40):
    """Bounded conversion search against the decision procedure on the
    exhaustive two-atom universe, and on seeded pairs that hold two arrows
    with one source.  All searches share one pruned-form memo, which is
    sound because a pruned form depends on its key alone.  A prune that
    leaves a merge undone is still sound, so no verdict shows it: every
    expression of the pairs, and of 200 seeded pairs with one source, must
    also have a pruned form that is its own pruned form when it is pruned
    again in a memo that has not seen it, and so must 20 seeded expressions
    that hold two absorbed arrows."""
    universe = all_exprs(("@", "p"), max_nodes)
    pairs = [(a, b) for i, a in enumerate(universe) for b in universe[i:]]
    pairs += _same_source_pairs(random.Random(102), same_source)
    cache = DecisionCache()
    pruned = {}
    t0 = time.perf_counter()
    disagreements = []
    true_pairs = 0
    for a, b in pairs:
        if cache.equiv(a, b):
            true_pairs += 1
            if convertible_bounded(a, b, budget=10_000, memo=pruned) is not Verdict.CONFIRMED:
                disagreements.append(("equiv but not confirmed", a, b))
        else:
            if convertible_bounded(a, b, budget=budget_false, memo=pruned) is Verdict.CONFIRMED:
                disagreements.append(("confirmed but not equiv", a, b))
    elapsed = time.perf_counter() - t0
    # a memo that holds a pruned form answers the form's own member set from
    # that entry, so each form is pruned again in a memo that has not seen it
    exprs = {e for pair in pairs + _same_source_pairs(random.Random(102), 200) for e in pair}
    exprs.update(_two_absorbed(random.Random(103), 20))
    memo = {}
    forms = {prune(e, memo) for e in exprs}
    unpruned = sum(prune(p, {}) is not p for p in forms)
    ok = not disagreements and not unpruned and elapsed < 300.0
    detail = (
        f"{len(universe)} expressions, {len(pairs)} pairs ({same_source} with one source"
        f" twice; {true_pairs} congruent), {len(disagreements)} disagreements, {elapsed:.1f}s;"
        f" {len(forms)} pruned forms, {unpruned} not their own pruned form"
    )
    return ok, detail


def criterion_finite_model_property(max_nodes: int = 6):
    """The finite model property on the {@,p} expressions with at most
    max_nodes nodes, and the ({@,p}, 1) model's tables against the decider.

    On every pair, in both directions: eval(a) == eval(b) iff
    satisfies_eq(1, a, b), and eval(a & b) == eval(a) iff
    satisfies_eq(1, a & b, a); depth-1 truncation changes 16 of the 74
    expressions at full scale.  The table half asks the same of the {@,p}
    expressions with at most 7 nodes and arrow depth at most 1, against
    a ~ b and a <= b.
    """
    model = build_model(("@", "p"), 1)

    def check(universe, same, below):
        """Disagreements of the model's equality and order, in both
        directions, with same and below on the pairs of universe."""
        values = [model.eval(e) for e in universe]
        bad = 0
        for i, (a, va) in enumerate(zip(universe, values)):
            for b, vb in zip(universe[i:], values[i:]):
                if (
                    (va == vb) != same(a, b)
                    or (model.eval(Meet(a, b)) == va) != below(a, b)
                    or (model.eval(Meet(b, a)) == vb) != below(b, a)
                ):
                    bad += 1
        n = len(universe)
        return bad, f"{n} expressions, {n * (n + 1) // 2} pairs, {bad} disagreements"

    universe = all_exprs(("@", "p"), max_nodes)
    truncated = sum(dept_normal_form(e, 1) is not e for e in universe)
    bad, detail = check(
        universe, lambda a, b: satisfies_eq(1, a, b), lambda a, b: satisfies_eq(1, Meet(a, b), a)
    )
    cache = DecisionCache()
    table_universe = [e for e in all_exprs(("@", "p"), 7) if arrow_depth(e) <= 1]
    table_bad, table_detail = check(table_universe, cache.equiv, cache.subseteq)
    return bad == 0 and table_bad == 0, (
        f"({{@,p}}, 1) against depth-1 truncation: {detail}, {truncated} expressions "
        f"truncated; tables of ({{@,p}}, 1): {table_detail}"
    )


def criterion_carrier_counts():
    """Regression counts and finiteness bounds for the desk-scale models."""
    cases = [
        (("@", "p"), 0, 3),
        (("@",), 1, 3),
        (("@", "p"), 1, 99),
        (("@",), 2, 49),
        (("@", "p", "q"), 1, 54871),
    ]
    problems = []
    sizes = []
    for atoms, depth, expected in cases:
        model = build_model(atoms, depth)
        bound = stack_of_twos(depth + 1, len(atoms) + depth)
        sizes.append(f"|F({depth})| over {{{','.join(atoms)}}} = {model.size} (bound {bound})")
        if model.size != expected:
            problems.append(f"expected {expected}, got {model.size}")
        if model.size > bound:
            problems.append(f"size {model.size} exceeds bound {bound}")
    ok = not problems
    detail = "; ".join(sizes) + ("; " + "; ".join(problems) if problems else "")
    return ok, detail


def criterion_two_path_agreement(max_nodes: int = 7, pair_samples: int = 300):
    """Table evaluation agrees with truncation-based class lookup, and on
    sampled pairs eval(a) == eval(b) iff satisfies_eq(depth, a, b) and
    eval(a & b) == eval(a) iff satisfies_eq(depth, a & b, a)."""
    rng = random.Random(105)
    bad = 0
    total = 0
    details = []
    for atoms, depth in ((("@",), 1), (("@", "p"), 0), (("@", "p"), 1)):
        model = build_model(atoms, depth)
        universe = all_exprs(atoms, max_nodes)
        for e in universe:
            total += 1
            if model.eval(e) != model.class_index(e):
                bad += 1
        for _ in range(pair_samples):
            a, b = rng.choice(universe), rng.choice(universe)
            total += 2
            if (model.eval(a) == model.eval(b)) != satisfies_eq(depth, a, b):
                bad += 1
            if (model.eval(Meet(a, b)) == model.eval(a)) != satisfies_eq(depth, Meet(a, b), a):
                bad += 1
        details.append(f"({len(atoms)} atoms, depth {depth}): carrier {model.size}")
    detail = f"{total} checks ({3 * pair_samples} of the order), {bad} disagreements; "
    return bad == 0, detail + "; ".join(details)


def _random_size(rng: random.Random) -> int:
    # at most 99 internal nodes, so at most 199 nodes
    internal = 1 + min(98, int(rng.expovariate(1.0 / 15.0)))
    return 2 * internal + 1


def termination_runs(runs: int = 10_000):
    """Random restricted dist and dept normalizations, each stopped once it
    passes (node count)^2 steps: yields (steps, final expression, bound).

    Each step draws rng.randrange(count), the draw rng.choice makes over the
    listed redexes, and descends to that redex through per-subterm counts
    kept for the whole normalization."""
    rng = random.Random(106)
    atoms = ("a", "b", "@")
    for k in range(runs):
        e = random_expr(rng, _random_size(rng), atoms)
        bound = node_count(e) ** 2
        steps = 0
        cur = e
        if k % 2 == 0:
            rule = DIST
        else:
            rule = dept(rng.choice((0, 1, 2)))
        memo = {}
        while steps <= bound:
            total = count_restricted(cur, rule, memo)
            if not total:
                break
            cur = apply_nth_restricted(cur, rule, rng.randrange(total), memo)
            steps += 1
        yield steps, cur, bound


def criterion_termination(runs: int = 10_000):
    """Random dist and dept normalizations finish within (node count)^2 steps."""
    violations = sum(steps > bound for steps, _, bound in termination_runs(runs))
    return violations == 0, f"{runs} normalizations, {violations} exceeded the bound"


def criterion_confluence(peaks: int = 1000):
    """Random peaks of restricted reduction steps rejoin under bounded search."""
    rng = random.Random(107)
    atoms = ("a", "b", "c")
    failures = 0
    for _ in range(peaks):
        src = random_expr(rng, rng.randint(1, 12), atoms)
        pool = witness_pool(src)
        a = random_walk(rng, src, 4, witnesses=pool)
        b = random_walk(rng, src, 4, witnesses=pool)
        witnesses = witness_pool(src, a, b)
        if convertible_bounded(a, b, budget=4000, witnesses=witnesses) is not Verdict.CONFIRMED:
            failures += 1
    return failures == 0, f"{peaks} peaks, {failures} failed to rejoin"


def criterion_complete_invariants(samples: int = 1000):
    """Single strictly positive steps preserve factor sets in the stated sense."""
    rng = random.Random(108)
    atoms = ("a", "b", "c")
    failures = 0
    widened_by: Counter = Counter()
    for _ in range(samples):
        before = random_expr(rng, rng.randint(1, 21), atoms)
        rule, pos, after = random_strictly_positive_step(rng, before)
        if not factors(before) <= factors(after):
            failures += 1
            continue
        deltas = list({slat_canonical(s) for _, s in subexpressions(after)})
        ok_here = True
        used_delta = False
        before_factors = list(factors(before))
        for f_after in factors(after):
            candidates = [
                f
                for f in before_factors
                if f.head == f_after.head and f.arity == f_after.arity
            ]
            if any(
                all(
                    slat_canonical(f_after.args[k]) == slat_canonical(f.args[k])
                    for k in range(f_after.arity)
                )
                for f in candidates
            ):
                continue  # matched without widening
            matched = False
            for f_before in candidates:
                all_args = True
                for k in range(f_after.arity):
                    ca = slat_canonical(f_after.args[k])
                    if ca == slat_canonical(f_before.args[k]):
                        continue
                    if any(
                        ca == slat_canonical(Meet(f_before.args[k], d)) for d in deltas
                    ):
                        continue
                    all_args = False
                    break
                if all_args:
                    matched = True
                    used_delta = True
                    break
            if not matched:
                ok_here = False
                break
        if not ok_here:
            failures += 1
        elif used_delta:
            widened_by[rule.kind] += 1
    detail = f"{samples} steps, {failures} failures"
    if widened_by:
        detail += f"; nonempty widening exercised by {dict(widened_by)}"
    return failures == 0, detail


def _conservation_walk(rng: random.Random, start: Expr, steps: int, n: int) -> Expr:
    # mixed reduction that actually reaches for absorption (which creates
    # deep material) and truncation (which erases it)
    cur = start
    for _ in range(steps):
        pool = [s for _, s in subexpressions(cur)]
        weighted = [
            (absp(rng.choice(pool)), 4),
            (dept(n), 4),
            (DIST, 2),
            (ASSO, 1),
            (ASSO_INV, 1),
            (COMM, 1),
            (IDEM, 1),
        ]
        options = []
        for rule, weight in weighted:
            positions = redexes(cur, rule, restricted=True)
            if positions:  # restricted idem matches every atom, so options is never empty
                options.append((rule, positions, weight))
        total = sum(w for _, _, w in options)
        pick = rng.uniform(0, total)
        for rule, positions, weight in options:
            pick -= weight
            if pick <= 0:
                cur = apply(cur, rule, rng.choice(positions))
                break
    return cur


def criterion_conservation(samples: int = 200):
    """Depth-bounded expressions rejoin their truncation-normal reducts
    without any truncation step."""
    rng = random.Random(109)
    atoms = ("a", "b", "@")
    failures = 0
    nontrivial = 0
    for _ in range(samples):
        n = rng.choice((1, 2))
        start = dept_normal_form(random_expr(rng, rng.randint(1, 15), atoms), n)
        walked = _conservation_walk(rng, start, rng.randint(1, 5), n)
        reduct = dept_normal_form(walked, n)
        if slat_canonical(reduct) != slat_canonical(start):
            nontrivial += 1
        pool = witness_pool(start, reduct)
        pool += [dept_normal_form(w, n) for w in pool]
        verdict = convertible_bounded(start, reduct, budget=4000, witnesses=pool)
        if verdict is not Verdict.CONFIRMED:
            failures += 1
    detail = f"{samples} instances ({nontrivial} with a changed reduct), {failures} not reconfirmed"
    return failures == 0, detail


def criterion_scaling(sizes=(200, 400, 800, 1600)):
    """Matrix wall times fit a bounded polynomial; a kilonode instance decides
    fast both as a single query and as a full matrix."""
    pairs = scaling_run(sizes, seed=110)
    exponent = fitted_exponent(pairs)
    decide_seconds = time_decision(1000, seed=110)
    _, matrix_seconds = time_matrix(1000, seed=110)
    ok = exponent <= 5.5 and decide_seconds < 1.0 and matrix_seconds < 1.0
    times = ", ".join(f"{n}:{t * 1000:.0f}ms" for n, t in pairs)
    detail = (
        f"matrix times {times}; fitted exponent {exponent:.2f} (cap 5.5);"
        f" 1000-node query {decide_seconds * 1000:.0f}ms,"
        f" full matrix {matrix_seconds * 1000:.0f}ms (cap 1s)"
    )
    return ok, detail


def criterion_matrix_agreement(roots: int = 100):
    """The matrix agrees pointwise with the memoized recursion, on random roots
    and on 5 meets of separately parsed copies of a few subtrees, whose
    repeated subterms share matrix rows."""
    rng = random.Random(111)
    atoms = ("a", "b", "c")
    exprs = [random_expr(rng, rng.randint(1, 80), atoms) for _ in range(roots)]
    for _ in range(5):
        texts = [render(random_expr(rng, rng.randint(5, 15), atoms)) for _ in range(3)]
        copies = [parse(texts[k % 3]) for k in range(12)]
        root = copies[0]
        for e in copies[1:] + [Arrow(copies[k], copies[k + 4]) for k in range(0, 8, 3)]:
            root = Meet(root, e)
        exprs.append(root)
    mismatches = 0
    entries = 0
    for root in exprs:
        matrix = subtype_matrix(root)
        cache = DecisionCache()
        n = matrix.size
        for i in range(n):
            for j in range(n):
                entries += 1
                if matrix.holds(i, j) != cache.subseteq(matrix.exprs[i], matrix.exprs[j]):
                    mismatches += 1
    detail = f"{roots} random and 5 shared-copy roots, {entries} entries"
    return mismatches == 0, f"{detail}, {mismatches} mismatches"


def _beta_decider():
    """a <= b by beta-soundness, as a function memoized on pairs and
    recursive, that reads no factor walk.  With no top element, a <= b iff
    each member y of b's meet spine is an atom of a's spine, or is c -> d
    where the targets of the arrows s -> t of a's spine with c <= s are not
    none and their meet is <= d."""
    memo, spines = {}, {}

    def spine(e: Expr) -> list:
        out = spines.get(e)
        if out is None:
            out, stack = [], [e]
            while stack:
                x = stack.pop()
                if x.__class__ is Meet:
                    stack += (x.right, x.left)
                else:
                    out.append(x)
            spines[e] = out
        return out

    def below(a: Expr, b: Expr) -> bool:
        got = memo.get((a, b))
        if got is None:
            have = spine(a)
            got = True
            for y in spine(b):
                if y.__class__ is Atom:
                    ok = y in have
                else:
                    meet = None
                    for x in have:
                        if x.__class__ is Arrow and below(y.source, x.source):
                            meet = x.target if meet is None else Meet(meet, x.target)
                    ok = meet is not None and below(meet, y.target)
                if not ok:
                    got = False
                    break
            memo[a, b] = got
        return got

    return below


def criterion_beta_soundness(max_nodes: int = 7, samples: int = 500):
    """The beta-soundness decider against DecisionCache on every ordered pair
    of the {@,p} expressions with at most max_nodes nodes, and on both
    directions of distributivity, absorption, contravariance and covariance
    instances of 20-200 nodes."""
    rng = random.Random(112)
    atoms = ("a", "b", "c")

    def part() -> Expr:
        return random_expr(rng, rng.randint(5, 49), atoms)

    universe = all_exprs(("@", "p"), max_nodes)
    pairs = [(a, b) for a in universe for b in universe]
    for _ in range(samples):
        a, b, s, w = part(), part(), part(), part()
        for lhs, rhs in (
            (Arrow(s, Meet(a, b)), Meet(Arrow(s, a), Arrow(s, b))),
            (Arrow(a, b), Meet(Arrow(a, b), Arrow(Meet(a, w), b))),
            (Arrow(a, b), Arrow(Meet(a, w), b)),
            (Arrow(a, Meet(b, w)), Arrow(a, b)),
        ):
            pairs += ((lhs, rhs), (rhs, lhs))
    t0 = time.perf_counter()
    cache, beta_below = DecisionCache(), _beta_decider()
    true_pairs = disagreements = 0
    for a, b in pairs:
        holds = beta_below(a, b)
        true_pairs += holds
        disagreements += holds != cache.subseteq(a, b)
    elapsed = time.perf_counter() - t0
    detail = (
        f"{len(universe)} expressions ({len(universe) ** 2} ordered pairs) and "
        f"{8 * samples} law pairs, {true_pairs} true, {disagreements} disagreements, "
        f"{elapsed:.2f}s"
    )
    return disagreements == 0, detail


FULL_SCALE = [
    ("01 law suite", criterion_law_suite),
    ("02 oracle agreement", criterion_oracle_agreement),
    ("03 finite model property", criterion_finite_model_property),
    ("04 carrier counts", criterion_carrier_counts),
    ("05 two-path model agreement", criterion_two_path_agreement),
    ("06 termination", criterion_termination),
    ("07 confluence", criterion_confluence),
    ("08 complete invariants", criterion_complete_invariants),
    ("09 conservation", criterion_conservation),
    ("10 scaling", criterion_scaling),
    ("11 matrix agreement", criterion_matrix_agreement),
    ("12 beta soundness", criterion_beta_soundness),
]

DESK_SCALE = {
    "01 law suite": {"samples": 40},
    "02 oracle agreement": {"max_nodes": 4, "budget_false": 8, "same_source": 6},
    "03 finite model property": {"max_nodes": 5},
    "05 two-path model agreement": {"max_nodes": 5, "pair_samples": 50},
    "06 termination": {"runs": 400},
    "07 confluence": {"peaks": 60},
    "08 complete invariants": {"samples": 120},
    "09 conservation": {"samples": 30},
    "10 scaling": {"sizes": (100, 200, 400)},
    "11 matrix agreement": {"roots": 10},
    "12 beta soundness": {"max_nodes": 5, "samples": 40},
}


def run_criteria(full: bool = True) -> bool:
    """Run every criterion, print one timed pass/fail line each, return overall
    result.  A criterion that raises fails with the exception's type and
    message, and the rest still run."""
    all_ok = True
    for name, fn in FULL_SCALE:
        kwargs = {} if full else DESK_SCALE.get(name, {})
        start = time.perf_counter()
        try:
            ok, detail = fn(**kwargs)
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'} {name} ({time.perf_counter() - start:.2f} s): {detail}")
    return all_ok
