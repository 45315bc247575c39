"""The four workloads: their op lists, how one op calls `bcd`, and its check.

Each op is a tuple whose first field is its kind.  `Workload.execute` runs
one op, making every call into `bcd` through the tracer, and returns the raw
answer; `Workload.check` judges it outside the timed region and returns
(ok, verdict), the verdict being a short string for the verdict digest.
Inputs are seeded text from `inputs`; each op parses its own text, as a
`bcd` user does.

Sizes are for scale 1.0, which is one run of `--seconds 15`.  Below 1.0 the
op counts shrink, and so do the node counts of `bulk`.
"""

from __future__ import annotations

import random

import bcd
import inputs as I

# Model configurations: name -> (atoms, depth, known carrier size).
MODEL_CONFIGS = {
    "at-d1": (("@",), 1, 3),
    "at_p-d0": (("@", "p"), 0, 3),
    "at_p-d1": (("@", "p"), 1, 99),
    "at-d2": (("@",), 2, 49),
}

PROPERTY_SAMPLE = 2000  # at most this many ops feed the tree-based properties


def _count(n: float, scale: float, least: int = 1) -> int:
    return max(least, round(n * scale))


class Workload:
    """Timed ops, warm-up ops from a disjoint seed, and CLI calls.

    `make_ops(rng, scale, props)` builds an op list; `props` collects the
    input properties of the timed list and is None for the warm-up list,
    which is small.  Each CLI call is (argv after the program name, op index
    or None, expected exit code or None); None means the exit code matching
    the in-process answer of that op.
    """

    name = ""
    CLI_CALLS = 30

    def __init__(self, seed: int, scale: float):
        self.scale = scale
        self.props = I.Properties()
        self.ops = self.make_ops(random.Random(f"{self.name}-{seed}"), scale, self.props)
        self.warmup = self.make_ops(random.Random(f"{self.name}-warmup-{seed}"), scale, None)
        self.cli = self.make_cli(
            random.Random(f"{self.name}-cli-{seed}"), _count(self.CLI_CALLS, min(scale, 1.0), 3)
        )

    def begin_pass(self, tr) -> dict:
        """Per-pass state shared by the ops of one pass."""
        return {}

    def holds(self, op, answer):
        """The op's yes/no answer, or None for an op that has none."""
        return None

    def extra_report(self, latencies) -> dict:
        return {}


def _parse(tr, text, nodes):
    return tr.call("syntax.parse", bcd.parse, text, work=nodes)


def _sampled(k: int, n: int) -> bool:
    return k % max(1, n // PROPERTY_SAMPLE) == 0


# ---------------------------------------------------------------------------
# queries: one `bcd le`/`bcd eq` request, answered as cli._cmd_compare does.


class Queries(Workload):
    """Per 20 ops: 8 law instances (true), 4 near misses (false), 7 random
    pairs (no independent answer), and 1 small pair that is also explained.
    Law instances sit at a positive position of a random context.  One op in
    BIG_EVERY is instead an `eq` on a distributivity instance with
    components of about 1,300 nodes.  These 20 like ops, at about 20 ms,
    set latency_tail_ms near their median; without them it would measure
    the machine's stalls."""

    name = "queries"
    OPS = 50_000
    BIG_EVERY = 2_500

    def make_ops(self, rng, scale, props):
        n = _count(self.OPS, scale if props is not None else scale * 0.02, 20)
        ops = []
        for k in range(n):
            slot = k % 20
            if k % self.BIG_EVERY == self.BIG_EVERY // 2 + 7:  # in place of a random pair
                trees, op = self._query(rng, "law", "distributivity", (351, 351), (75, 75), False)
            elif slot == 0:
                base = ("law", "near", "random")[(k // 20) % 3]
                law = I.LAWS[(k // 60) % 4]
                trees, op = self._query(rng, base, law, (1, 5), (1, 5), True)
            elif slot <= 8:
                trees, op = self._query(rng, "law", I.LAWS[slot % 4], (3, 9), (1, 9), False)
            elif slot <= 12:
                trees, op = self._query(rng, "near", I.LAWS[slot % 4], (3, 9), (1, 9), False)
            else:
                trees, op = self._query(rng, "random", None, (9, 31), None, False)
            ops.append(op)
            if props is not None:
                props.note(op[4] + op[5])
                if _sampled(k, n):
                    props.add(trees)
        return ops

    @staticmethod
    def _query(rng, base, law, part_nodes, ctx_nodes, explain):
        if base == "random":
            lhs = I.random_tree(rng, rng.randint(*part_nodes))
            rhs = I.random_tree(rng, rng.randint(*part_nodes))
            verb = rng.choice(("le", "eq"))
            expected = None
        else:
            l, r, verb = I.law_instance(rng, law, part_nodes)
            plug = I.positive_context(rng, rng.randint(*ctx_nodes))
            lhs, rhs = plug(l), plug(r)
            expected = True
            if base == "near":
                rhs = I.near_miss(rng, rhs)
                expected = False
        op = ("query", verb, I.text(lhs), I.text(rhs), I.size(lhs), I.size(rhs), expected, explain)
        return (lhs, rhs), op

    def make_cli(self, rng, k):
        # Spread over the list and over the 20 slots of the mix.
        n = len(self.ops)
        calls = []
        for c in range(k):
            idx = ((c * n) // k + c) % n
            _, verb, a, b, _, _, expected, explain = self.ops[idx]
            argv = [verb, a, b] + (["--explain"] if explain else [])
            calls.append((argv, idx, None if expected is None else int(not expected)))
        return calls

    def execute(self, op, tr, state):
        _, verb, a, b, na, nb, _, explain = op
        A = _parse(tr, a, na)
        B = _parse(tr, b, nb)
        cache = bcd.DecisionCache()
        holds = tr.call("decide.subseteq", cache.subseteq, A, B)
        if verb == "eq" and holds:
            holds = tr.call("decide.subseteq", cache.subseteq, B, A)
        trees = None
        if explain:
            trees = [tr.call("decide.explain", bcd.explain, A, B)]
            if verb == "eq":
                trees.append(tr.call("decide.explain", bcd.explain, B, A))
        return holds, trees

    def check(self, op, answer):
        holds, trees = answer
        expected = op[6]
        ok = expected is None or holds == expected
        if trees is not None:
            ok = ok and all(t["holds"] for t in trees) == holds
        return ok, "1" if holds else "0"

    def holds(self, op, answer):
        return answer[0]


# ---------------------------------------------------------------------------
# oracle: criterion 02's decider-then-search check, pair by pair.

UNIVERSE_ATOMS = ("@", "p")
UNIVERSE_NODES = 6
UNIVERSE_CONGRUENT = 201  # congruent pairs among its 2,775 pairs (i <= j)


class Oracle(Workload):
    """All congruent pairs of the criterion-02 universe plus a seeded
    sample of the non-congruent ones, one from each block of consecutive
    pairs, in criterion-02 order and sharing one DecisionCache per pass.
    The warm-up takes other non-congruent pairs only."""

    name = "oracle"
    NONCONGRUENT = 300
    WARMUP = 5

    def __init__(self, seed, scale):
        self.universe = I.universe(UNIVERSE_ATOMS, UNIVERSE_NODES)
        self.texts = [I.text(t) for t in self.universe]
        n = len(self.universe)
        self.pairs = [(i, j) for i in range(n) for j in range(i, n)]
        memo = {}
        self.congruent = {
            (i, j)
            for i, j in self.pairs
            if I.reference_le(self.universe[i], self.universe[j], memo)
            and I.reference_le(self.universe[j], self.universe[i], memo)
        }
        if len(self.congruent) != UNIVERSE_CONGRUENT:
            raise RuntimeError(f"reference found {len(self.congruent)} congruent pairs")
        self._taken = set()
        super().__init__(seed, scale)

    def make_ops(self, rng, scale, props):
        others = [p for p in self.pairs if p not in self.congruent and p not in self._taken]
        k = _count(self.NONCONGRUENT, scale) if props is not None else self.WARMUP
        blocks = [others[b * len(others) // k:(b + 1) * len(others) // k] for b in range(k)]
        picked = {rng.choice(block) for block in blocks}
        self._taken |= picked
        chosen = sorted(picked | self.congruent if props is not None else picked)
        ops = [("pair", i, j, (i, j) in self.congruent) for i, j in chosen]
        if props is not None:
            for i, j in chosen:
                a, b = self.universe[i], self.universe[j]
                props.note(I.size(a) + I.size(b))
                props.add((a, b))
        return ops

    def make_cli(self, rng, k):
        n = len(self.ops)
        calls = []
        for c in range(k):
            _, i, j, congruent = self.ops[(c * n) // k]
            calls.append((["eq", self.texts[i], self.texts[j]], None, 0 if congruent else 1))
        return calls

    def begin_pass(self, tr):
        return {
            "U": [_parse(tr, t, I.size(x)) for t, x in zip(self.texts, self.universe)],
            "cache": bcd.DecisionCache(),
        }

    def execute(self, op, tr, state):
        _, i, j, _ = op
        a, b = state["U"][i], state["U"][j]
        congruent = tr.call("decide.equiv", state["cache"].equiv, a, b)
        tr.count("rewrite.search.pairs")
        if congruent:
            tr.count("rewrite.search.congruent_pairs")
            verdict = tr.call("rewrite.search", bcd.convertible_bounded, a, b, 200)
            if verdict is not bcd.Verdict.CONFIRMED:
                tr.count("rewrite.search.retried_pairs")
                verdict = tr.call("rewrite.search", bcd.convertible_bounded, a, b, 10_000)
        else:
            verdict = tr.call("rewrite.search", bcd.convertible_bounded, a, b, 15)
        confirmed = verdict is bcd.Verdict.CONFIRMED
        if confirmed:
            tr.count("rewrite.search.confirmed_pairs")
        return congruent, confirmed

    def check(self, op, answer):
        congruent, confirmed = answer
        expected = op[3]
        ok = congruent == expected and confirmed == expected
        return ok, f"{int(congruent)}{int(confirmed)}"

    def holds(self, op, answer):
        return answer[0]

    def extra_report(self, latencies):
        """Criterion 02's search time predicted from this pass's pairs."""
        cong = [t for op, t in zip(self.ops, latencies) if op[3]]
        other = [t for op, t in zip(self.ops, latencies) if not op[3]]
        n_other = len(self.pairs) - UNIVERSE_CONGRUENT
        return {
            "mix": {"congruent": len(cong), "noncongruent": len(other),
                    "universe_pairs": len(self.pairs)},
            "criterion_02_predicted_s": sum(cong) + sum(other) / max(1, len(other)) * n_other,
        }


# ---------------------------------------------------------------------------
# models: enumeration (the write side) and lookups (the read side).


class Models(Workload):
    """ROUNDS rounds of: for each of the four models, build it, then do a
    quarter of LOOKUPS lookups on it.  A lookup evaluates two random
    expressions through the tables and through class_index, and compares
    eval(a) == eval(b) with satisfies_eq.  The warm-up builds only the two
    small models."""

    name = "models"
    ROUNDS = 6
    LOOKUPS = 400
    WARMUP_LOOKUPS = 50

    def make_ops(self, rng, scale, props):
        if props is None:
            configs, rounds, lookups = list(MODEL_CONFIGS)[:2], 1, self.WARMUP_LOOKUPS
        else:
            configs = list(MODEL_CONFIGS)
            rounds = _count(self.ROUNDS, scale)
            lookups = _count(self.LOOKUPS, scale * self.ROUNDS / rounds, len(configs))
        ops = []
        for _ in range(rounds):
            for c in configs:
                ops.append(("build", c))
                atoms = MODEL_CONFIGS[c][0]
                for k in range(lookups // len(configs)):
                    a = I.random_tree(rng, rng.randint(1, 15), atoms)
                    b = I.random_tree(rng, rng.randint(1, 15), atoms)
                    ops.append(("lookup", c, I.text(a), I.text(b), I.size(a), I.size(b)))
                    if props is not None:
                        props.note(I.size(a) + I.size(b))
                        if _sampled(k, lookups * rounds // len(configs)):
                            props.add((a, b))
        return ops

    def make_cli(self, rng, k):
        lookups = [idx for idx, op in enumerate(self.ops) if op[0] == "lookup"]
        calls = []
        for c in range(k):
            idx = lookups[(c * len(lookups)) // k]
            _, config, a, b, _, _ = self.ops[idx]
            depth = MODEL_CONFIGS[config][1]
            calls.append((["sat", "--depth", str(depth), a, b], idx, None))
        return calls

    def execute(self, op, tr, state):
        if op[0] == "build":
            config = op[1]
            atoms, depth, _ = MODEL_CONFIGS[config]
            model = tr.call("model.build_model." + config, _build, atoms, depth)
            tr.note("model.carrier_size." + config, model.size)
            state[config] = model
            return model.size
        _, config, a, b, na, nb = op
        model = state[config]
        A = _parse(tr, a, na)
        B = _parse(tr, b, nb)
        ea = tr.call("model.eval", model.eval, A)
        eb = tr.call("model.eval", model.eval, B)
        ca = tr.call("model.class_index", model.class_index, A)
        cb = tr.call("model.class_index", model.class_index, B)
        sat = tr.call("model.satisfies_eq", bcd.satisfies_eq, model.depth, A, B)
        return ea, eb, ca, cb, sat

    def check(self, op, answer):
        if op[0] == "build":
            return answer == MODEL_CONFIGS[op[1]][2], str(answer)
        ea, eb, ca, cb, sat = answer
        return ea == ca and eb == cb and (ea == eb) == sat, f"{ea},{eb},{int(sat)}"

    def holds(self, op, answer):
        return answer[4] if op[0] == "lookup" else None


def _build(atoms, depth):
    return bcd.build_model(list(atoms), depth, max_depth=2)


# ---------------------------------------------------------------------------
# bulk: a few large inputs.

DEEP = (1_000, 10_000, 30_000)


class Bulk(Workload):
    """Per-node cost, memory and depth: parse/render round trips, factors
    and normal forms at 10^5 nodes, the full matrix spot-checked against the
    recursion, equiv on large law instances and near misses, a 200k-node
    meet of 100 separately parsed copies, and deep arrow chains and
    parentheses.  Deep inputs that raise today are failed ops."""

    name = "bulk"

    def make_ops(self, rng, scale, props):
        if props is None:
            scale = min(scale, 1.0) * 0.01
        size = lambda n: max(9, round(n * min(scale, 1.0)))  # noqa: E731
        ops = []

        def sizes(*trees):
            if props is None:
                return [I.size(t) for t in trees]
            found = props.add(trees)
            props.note(sum(found))
            return found

        # Six of the biggest round trips: with the six slower ops above them, the
        # tail (the 11th slowest op) falls inside this group of like ops.
        for n in (1_000,) * 4 + (10_000,) * 4 + (100_000,) * 6:
            tree = I.random_tree(rng, size(n))
            t = I.text(tree)
            ops.append(("roundtrip", t, *sizes(tree), t))
        for kind in ("factors", "slat", "dist", "dept"):
            tree = I.random_tree(rng, size(100_000))
            ops.append((kind, I.text(tree), *sizes(tree), tree if kind == "factors" else None))
        for n in (400, 1_600, 3_200):
            tree = I.random_tree(rng, size(n))
            (m,) = sizes(tree)
            spots = [(rng.randrange(m), rng.randrange(m)) for _ in range(100)]
            ops.append(("matrix", I.text(tree), m, spots))
        for n in (1_000, 2_000, 5_000):
            for law in ("distributivity", "absorption"):
                for k in range(4):
                    part = size(n) // 3
                    l, r, _ = I.law_instance(rng, law, (part, part))
                    if k == 3:
                        r = I.near_miss(rng, r)
                    ops.append(("equiv", I.text(l), I.text(r), *sizes(l, r), k < 3))
        copy = I.random_tree(rng, size(2_000))
        whole = I.meet_all([copy] * 100)
        ops.append(("equiv", I.text(whole), I.text(copy), *sizes(whole, copy), True))
        for n in DEEP if props is not None else DEEP[:1]:
            chain = I.arrow_chain_text(n)
            ops.append(("deep", chain, 2 * n + 1, chain))
            ops.append(("deep", I.nested_parens_text(n), 1, "a"))
            if props is not None:
                props.note(2 * n + 1, n + 1)
                props.note(1, n)
        return ops

    def make_cli(self, rng, k):
        part = max(3, round(300 * min(self.scale, 1.0)))
        calls = []
        for c in range(k):
            l, r, _ = I.law_instance(rng, ("distributivity", "absorption")[c % 2], (part, part))
            expected = c % 4 < 2
            if not expected:
                r = I.near_miss(rng, r)
            calls.append((["eq", I.text(l), I.text(r)], None, 0 if expected else 1))
        return calls

    def execute(self, op, tr, state):
        kind = op[0]
        if kind == "equiv":
            _, a, b, na, nb, _ = op
            A = _parse(tr, a, na)
            B = _parse(tr, b, nb)
            return tr.call("decide.equiv", bcd.DecisionCache().equiv, A, B)
        e = _parse(tr, op[1], op[2])
        if kind in ("roundtrip", "deep"):
            return tr.call("syntax.render", bcd.render, e, work=op[2])
        if kind == "factors":
            return e, tr.call("factors.factors", bcd.factors, e, work=op[2])
        if kind == "slat":
            return tr.call("rewrite.slat_canonical", bcd.slat_canonical, e)
        if kind == "dist":
            return tr.call("rewrite.dist_normal_form", bcd.dist_normal_form, e)
        if kind == "dept":
            return tr.call("rewrite.dept_normal_form", bcd.dept_normal_form, e, 1)
        # matrix, spot-checked against the recursion on sampled entries
        m = tr.call("decide.matrix", bcd.subtype_matrix, e, work=op[2] * op[2])
        cache = bcd.DecisionCache()
        spots = [
            (m.holds(i, j), tr.call("decide.subseteq", cache.subseteq, m.exprs[i], m.exprs[j]))
            for i, j in op[3]
        ]
        return m.size, spots

    def holds(self, op, answer):
        return answer if op[0] == "equiv" else None

    def check(self, op, answer):
        kind = op[0]
        if kind == "equiv":
            return answer == op[5], str(int(answer))
        if kind in ("roundtrip", "deep"):
            return answer == op[3], "1"
        if kind == "factors":
            # Compare as sets of (argument subtree ids, head), with one
            # Interner over the generated tree and the parsed one.
            e, fs = answer
            seen = {}
            ids = I.Interner()
            ids.add(op[3])
            ids.add(to_tree(e, seen))
            got = {(tuple(ids.of(seen[id(a)]) for a in f.args), f.head) for f in fs}
            want = {
                (tuple(ids.of(a) for a in args), h) for args, h in I.reference_factors(op[3])
            }
            return got == want, str(len(got))
        if kind == "matrix":
            size, spots = answer
            ok = size == op[2] and all(x == y for x, y in spots)
            return ok, str(sum(y for _, y in spots))
        # Normal forms share subtrees (dist copies arrow sources), so they
        # are walked as DAGs, and described by their distinct subtrees.
        tree = to_tree(answer)
        ids = I.Interner()
        distinct = str(ids.add(tree) + 1)
        if kind == "slat":
            again = to_tree(bcd.slat_canonical(bcd.parse(I.text(tree))))
            return ids.add(again) == ids.of(tree), distinct
        if kind == "dist":
            return not _arrow_targets_meet(tree), distinct
        return _arrow_depth(tree) <= 1, distinct


# ---------------------------------------------------------------------------
# The benchmark's own walks over `bcd` results.


def to_tree(e, out=None):
    """The tuple tree of a `bcd` expression, read through its fields.

    `out`, if given, receives id(node) -> tuple subtree for every node.  A
    node object met again is converted once, and its tuple is shared.
    """
    out = {} if out is None else out
    stack = [(e, False)]
    while stack:
        x, done = stack.pop()
        if id(x) in out:
            continue
        name = getattr(x, "name", None)
        if name is not None:
            out[id(x)] = name
        elif not done:
            stack.append((x, True))
            kids = (x.source, x.target) if hasattr(x, "source") else (x.left, x.right)
            stack.extend((k, False) for k in kids)
        elif hasattr(x, "source"):
            out[id(x)] = (I.ARROW, out[id(x.source)], out[id(x.target)])
        else:
            out[id(x)] = (I.MEET, out[id(x.left)], out[id(x.right)])
    return out[id(e)]


def _arrow_targets_meet(t) -> bool:
    seen = set()
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, str) or id(x) in seen:
            continue
        seen.add(id(x))
        if x[0] == I.ARROW and not isinstance(x[2], str) and x[2][0] == I.MEET:
            return True
        stack.append(x[1])
        stack.append(x[2])
    return False


def _arrow_depth(t) -> int:
    """Most arrows on one root-to-leaf path, computed once per object."""
    depth = {}
    stack = [(t, False)]
    while stack:
        x, done = stack.pop()
        if isinstance(x, str) or id(x) in depth:
            continue
        if not done:
            stack.append((x, True))
            stack.append((x[1], False))
            stack.append((x[2], False))
            continue
        below = max(0 if isinstance(c, str) else depth[id(c)] for c in x[1:])
        depth[id(x)] = below + (x[0] == I.ARROW)
    return 0 if isinstance(t, str) else depth[id(t)]


WORKLOADS = {w.name: w for w in (Queries, Oracle, Models, Bulk)}
