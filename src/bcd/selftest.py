"""Acceptance checks runnable at full or reduced scale.

Each criterion returns (ok, detail).  The test suite runs them at their full
stated scale; the CLI selftest verb runs reduced-sample versions of the same
checks.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from .bench import fitted_exponent, scaling_run, time_decision
from .decide import DecisionCache, subtype_matrix
from .factors import factors
from .gen import (
    all_exprs,
    random_expr,
    random_strictly_positive_step,
    random_walk,
    witness_pool,
)
from .model import build_model, satisfies_eq, stack_of_twos
from .rewrite import (
    ASSO,
    ASSO_INV,
    COMM,
    DIST,
    IDEM,
    Verdict,
    absp,
    apply,
    convertible_bounded,
    dept,
    dept_normal_form,
    redexes,
    slat_canonical,
)
from .syntax import Arrow, Expr, Meet, arrow_depth, node_count, subexpressions


def criterion_law_suite(samples: int = 1000, max_nodes: int = 30, seed: int = 101):
    """Preorder, meet, arrow, and absorption laws on randomized instances."""
    atoms = ("a", "b", "c")
    rng = random.Random(seed)

    def rand() -> Expr:
        return random_expr(rng, rng.randint(1, max_nodes), atoms)

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


def criterion_oracle_agreement(
    budget_true: int = 10_000,
    budget_false: int = 15,
    time_limit: float = 300.0,
    max_nodes: int = 6,
):
    """Bounded conversion search against the decision procedure on the
    exhaustive two-atom universe.  All searches share one pruned-form memo,
    which is sound because a pruned form depends on its key alone."""
    universe = all_exprs(("@", "p"), max_nodes)
    cache = DecisionCache()
    pruned = {}
    t0 = time.perf_counter()
    disagreements = []
    true_pairs = 0
    for i in range(len(universe)):
        for j in range(i, len(universe)):
            a, b = universe[i], universe[j]
            if cache.equiv(a, b):
                true_pairs += 1
                verdict = convertible_bounded(a, b, budget=200, memo=pruned)
                if verdict is not Verdict.CONFIRMED:
                    verdict = convertible_bounded(a, b, budget=budget_true, memo=pruned)
                if verdict is not Verdict.CONFIRMED:
                    disagreements.append(("equiv but not confirmed", a, b))
            else:
                if convertible_bounded(a, b, budget=budget_false, memo=pruned) is Verdict.CONFIRMED:
                    disagreements.append(("confirmed but not equiv", a, b))
    elapsed = time.perf_counter() - t0
    pair_total = len(universe) * (len(universe) + 1) // 2
    ok = not disagreements and elapsed < time_limit
    detail = (
        f"{len(universe)} expressions, {pair_total} pairs ({true_pairs} congruent), "
        f"{len(disagreements)} disagreements, {elapsed:.1f}s"
    )
    return ok, detail


def criterion_finite_model_property(depth: int = 2, max_nodes: int = 6):
    """Truncation-model equality matches congruence on the exhaustive universe,
    and the tables of the ({@,p}, 1) model match congruence and the order.

    The first check alone is vacuous at its full scale: every expression of
    its universe has arrow depth at most `depth`, so depth truncation leaves
    it unchanged and satisfies_eq(depth, a, b) is equiv(a, b) itself.  The
    table path evaluates through the model's meet and arrow tables instead,
    on every pair of the {@,p} expressions with at most 7 nodes and arrow
    depth at most 1: eval(a) == eval(b) iff a ~ b, and eval(a & b) == eval(a)
    iff a <= b, in both directions.
    """
    universe = [
        e for e in all_exprs(("@", "p"), max_nodes) if arrow_depth(e) < depth + 1
    ]
    cache = DecisionCache()
    bad = 0
    total = 0
    for i in range(len(universe)):
        for j in range(i, len(universe)):
            a, b = universe[i], universe[j]
            total += 1
            if satisfies_eq(depth, a, b) != cache.equiv(a, b):
                bad += 1

    model = build_model(("@", "p"), 1)
    table_universe = [e for e in all_exprs(("@", "p"), 7) if arrow_depth(e) <= 1]
    values = [model.eval(e) for e in table_universe]
    table_bad = 0
    table_pairs = 0
    for i, (a, va) in enumerate(zip(table_universe, values)):
        for b, vb in zip(table_universe[i:], values[i:]):
            table_pairs += 1
            if (
                (va == vb) != cache.equiv(a, b)
                or (model.eval(Meet(a, b)) == va) != cache.subseteq(a, b)
                or (model.eval(Meet(b, a)) == vb) != cache.subseteq(b, a)
            ):
                table_bad += 1
    ok = bad == 0 and table_bad == 0
    return ok, (
        f"depth {depth}, {total} pairs, {bad} disagreements; "
        f"tables of ({{@,p}}, 1): {len(table_universe)} expressions, "
        f"{table_pairs} pairs, {table_bad} disagreements"
    )


def criterion_carrier_counts():
    """Regression counts and finiteness bounds for the desk-scale models."""
    cases = [
        (("@", "p"), 0, 3),
        (("@",), 1, 3),
        (("@", "p"), 1, 99),
        (("@",), 2, 49),
    ]
    problems = []
    sizes = []
    for atoms, depth, expected in cases:
        model = build_model(atoms, depth, max_depth=2)
        bound = stack_of_twos(depth + 1, len(atoms) + depth)
        sizes.append(f"|F({depth})| over {{{','.join(atoms)}}} = {model.size} (bound {bound})")
        if model.size != expected:
            problems.append(f"expected {expected}, got {model.size}")
        if model.size > bound:
            problems.append(f"size {model.size} exceeds bound {bound}")
    ok = not problems
    detail = "; ".join(sizes) + ("; " + "; ".join(problems) if problems else "")
    return ok, detail


def criterion_two_path_agreement(max_nodes: int = 7, pair_samples: int = 300, seed: int = 105):
    """Table evaluation agrees with truncation-based class lookup."""
    rng = random.Random(seed)
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
            total += 1
            if (model.eval(a) == model.eval(b)) != satisfies_eq(depth, a, b):
                bad += 1
        details.append(f"({len(atoms)} atoms, depth {depth}): carrier {model.size}")
    return bad == 0, f"{total} checks, {bad} disagreements; " + "; ".join(details)


def _random_size(rng: random.Random, cap: int = 199, mean_internal: float = 15.0) -> int:
    internal = 1 + min((cap - 1) // 2 - 1, int(rng.expovariate(1.0 / mean_internal)))
    return 2 * internal + 1


def criterion_termination(runs: int = 10_000, seed: int = 106):
    """Random dist and dept normalizations finish within (node count)^2 steps."""
    rng = random.Random(seed)
    atoms = ("a", "b", "@")
    violations = 0
    for k in range(runs):
        e = random_expr(rng, _random_size(rng), atoms)
        bound = node_count(e) ** 2
        steps = 0
        cur = e
        if k % 2 == 0:
            rule = DIST
        else:
            rule = dept(rng.choice((0, 1, 2)))
        while True:
            positions = redexes(cur, rule, restricted=True)
            if not positions:
                break
            cur = apply(cur, rule, rng.choice(positions))
            steps += 1
            if steps > bound:
                violations += 1
                break
    return violations == 0, f"{runs} normalizations, {violations} exceeded the bound"


def criterion_confluence(peaks: int = 1000, seed: int = 107, budget: int = 4000):
    """Random peaks of restricted reduction steps rejoin under bounded search."""
    rng = random.Random(seed)
    atoms = ("a", "b", "c")
    failures = 0
    for _ in range(peaks):
        src = random_expr(rng, rng.randint(1, 12), atoms)
        pool = witness_pool(src)
        a = random_walk(rng, src, 4, witnesses=pool).final
        b = random_walk(rng, src, 4, witnesses=pool).final
        witnesses = witness_pool(src, a, b)
        if convertible_bounded(a, b, budget=budget, witnesses=witnesses) is not Verdict.CONFIRMED:
            failures += 1
    return failures == 0, f"{peaks} peaks, {failures} failed to rejoin"


def criterion_complete_invariants(samples: int = 1000, seed: int = 108):
    """Single strictly positive steps preserve factor sets in the stated sense."""
    rng = random.Random(seed)
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
            if positions:
                options.append((rule, positions, weight))
        if not options:
            break
        total = sum(w for _, _, w in options)
        pick = rng.uniform(0, total)
        for rule, positions, weight in options:
            pick -= weight
            if pick <= 0:
                cur = apply(cur, rule, rng.choice(positions))
                break
    return cur


def criterion_conservation(samples: int = 200, seed: int = 109, budget: int = 4000):
    """Depth-bounded expressions rejoin their truncation-normal reducts
    without any truncation step."""
    rng = random.Random(seed)
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
        verdict = convertible_bounded(start, reduct, budget=budget, witnesses=pool)
        if verdict is not Verdict.CONFIRMED:
            failures += 1
    detail = f"{samples} instances ({nontrivial} with a changed reduct), {failures} not reconfirmed"
    return failures == 0, detail


def criterion_scaling(
    sizes=(200, 400, 800, 1600),
    seed: int = 110,
    exponent_cap: float = 5.5,
    decide_nodes: int = 1000,
    decide_cap: float = 1.0,
):
    """Matrix wall times fit a bounded polynomial; a kilonode instance decides
    fast both as a single query and as a full matrix."""
    from .bench import time_matrix

    pairs = scaling_run(sizes, seed=seed)
    exponent = fitted_exponent(pairs)
    decide_seconds = time_decision(decide_nodes, seed=seed)
    _, matrix_seconds = time_matrix(decide_nodes, seed=seed)
    ok = (
        exponent <= exponent_cap
        and decide_seconds < decide_cap
        and matrix_seconds < decide_cap
    )
    times = ", ".join(f"{n}:{t * 1000:.0f}ms" for n, t in pairs)
    detail = (
        f"matrix times {times}; fitted exponent {exponent:.2f} (cap {exponent_cap});"
        f" {decide_nodes}-node query {decide_seconds * 1000:.0f}ms,"
        f" full matrix {matrix_seconds * 1000:.0f}ms (cap {decide_cap:.0f}s)"
    )
    return ok, detail


def criterion_matrix_agreement(roots: int = 100, max_nodes: int = 80, seed: int = 111):
    """The matrix agrees pointwise with the memoized recursion."""
    rng = random.Random(seed)
    atoms = ("a", "b", "c")
    mismatches = 0
    entries = 0
    for _ in range(roots):
        root = random_expr(rng, rng.randint(1, max_nodes), atoms)
        matrix = subtype_matrix(root)
        cache = DecisionCache()
        n = matrix.size
        for i in range(n):
            for j in range(n):
                entries += 1
                if matrix.holds(i, j) != cache.subseteq(matrix.exprs[i], matrix.exprs[j]):
                    mismatches += 1
    return mismatches == 0, f"{roots} roots, {entries} entries, {mismatches} mismatches"


FULL_SCALE = [
    ("01 law suite", criterion_law_suite, {}),
    ("02 oracle agreement", criterion_oracle_agreement, {}),
    ("03 finite model property", criterion_finite_model_property, {}),
    ("04 carrier counts", criterion_carrier_counts, {}),
    ("05 two-path model agreement", criterion_two_path_agreement, {}),
    ("06 termination", criterion_termination, {}),
    ("07 confluence", criterion_confluence, {}),
    ("08 complete invariants", criterion_complete_invariants, {}),
    ("09 conservation", criterion_conservation, {}),
    ("10 scaling", criterion_scaling, {}),
    ("11 matrix agreement", criterion_matrix_agreement, {}),
]

DESK_SCALE = {
    "01 law suite": {"samples": 40},
    "02 oracle agreement": {"max_nodes": 4, "budget_false": 8},
    "03 finite model property": {"max_nodes": 5},
    "05 two-path model agreement": {"max_nodes": 5, "pair_samples": 50},
    "06 termination": {"runs": 400},
    "07 confluence": {"peaks": 60},
    "08 complete invariants": {"samples": 120},
    "09 conservation": {"samples": 30},
    "10 scaling": {"sizes": (100, 200, 400)},
    "11 matrix agreement": {"roots": 10},
}


def run_criteria(full: bool = True, write=print) -> bool:
    """Run every criterion, print one timed pass/fail line each, return overall result."""
    all_ok = True
    for name, fn, kwargs in FULL_SCALE:
        if not full:
            kwargs = {**kwargs, **DESK_SCALE.get(name, {})}
        start = time.perf_counter()
        ok, detail = fn(**kwargs)
        all_ok = all_ok and ok
        write(f"{'PASS' if ok else 'FAIL'} {name} ({time.perf_counter() - start:.2f} s): {detail}")
    return all_ok
