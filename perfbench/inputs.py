"""Seeded inputs for the benchmark, built without any code from `bcd`.

Trees are plain tuples: an atom is its name (a str), an arrow is
("->", source, target) and a meet is ("&", left, right).  `text` renders a
tree the way users write it: minimal parentheses, " -> " and " & ", which is
also the form `bcd.render` prints, so a parse/render round trip can be
checked against the input text itself.

Nothing here imports `bcd`: a later change to `bcd.gen` or `bcd.render`
cannot change what the benchmark feeds the program.
"""

from __future__ import annotations

import hashlib
import random

ARROW = "->"
MEET = "&"
ATOMS = ("a", "b", "c", "d")
FRESH = "fresh"  # never produced by the generators, so it is fresh everywhere


def arrow(s, t):
    return (ARROW, s, t)


def meet(l, r):
    return (MEET, l, r)


def random_tree(rng: random.Random, nodes: int, atoms=ATOMS):
    """Random tree with the largest odd node count not above `nodes`.

    Each internal node splits its remaining internal nodes uniformly and is
    an arrow or a meet with equal odds, so depth grows like log(nodes).
    """

    def build(k):
        if k == 0:
            return rng.choice(atoms)
        left = rng.randrange(k)
        tag = ARROW if rng.random() < 0.5 else MEET
        return (tag, build(left), build(k - 1 - left))

    return build(max(0, (nodes - 1) // 2))


def text(t) -> str:
    """Minimal-parenthesis rendering, identical to `bcd.render`'s format."""
    out = []
    # Work items: a tree with its context, or a literal string.
    stack = [(t, "top")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        x, ctx = item
        if isinstance(x, str):
            out.append(x)
            continue
        tag = x[0]
        paren = (tag == ARROW and ctx != "top") or (tag == MEET and ctx == "right")
        if paren:
            stack.append(")")
        if tag == ARROW:
            stack.append((x[2], "top"))
            stack.append(" -> ")
            stack.append((x[1], "source"))
        else:
            stack.append((x[2], "right"))
            stack.append(" & ")
            stack.append((x[1], "left"))
        if paren:
            stack.append("(")
    return "".join(out)


def size(t) -> int:
    n = 0
    stack = [t]
    while stack:
        x = stack.pop()
        n += 1
        if not isinstance(x, str):
            stack.append(x[1])
            stack.append(x[2])
    return n


def meet_all(parts):
    acc = parts[0]
    for p in parts[1:]:
        acc = meet(acc, p)
    return acc


# ---------------------------------------------------------------------------
# Law instances: true by construction.


def law_instance(rng: random.Random, law: str, part_nodes):
    """(lhs, rhs, verb) with lhs <= rhs ("le") or lhs ~ rhs ("eq") by a law.

    `part_nodes` is a (lo, hi) node range for each random component.
    """

    def part():
        return random_tree(rng, rng.randint(*part_nodes))

    if law == "distributivity":
        s, x, y = part(), part(), part()
        return arrow(s, meet(x, y)), meet(arrow(s, x), arrow(s, y)), "eq"
    if law == "absorption":
        x, y, w = part(), part(), part()
        return arrow(x, y), meet(arrow(x, y), arrow(meet(x, w), y)), "eq"
    if law == "contravariance":
        x, y, u, v = part(), part(), part(), part()
        return arrow(x, meet(y, v)), arrow(meet(x, u), y), "le"
    if law == "meet_glb":
        x, y, u, v = part(), part(), part(), part()
        return meet(meet(x, u), meet(y, v)), meet(x, y), "le"
    raise ValueError(law)


LAWS = ("distributivity", "absorption", "contravariance", "meet_glb")


def positive_context(rng: random.Random, nodes: int):
    """A random tree with one atom at a positive position marked as the hole.

    Positive means an even number of arrow-source steps from the root, so
    plugging a smaller tree into the hole gives a smaller tree.  Returns a
    function from the plugged tree to the whole tree.
    """
    ctx = random_tree(rng, nodes)
    holes = []
    stack = [((), ctx, 0)]
    while stack:
        path, x, flips = stack.pop()
        if isinstance(x, str):
            if flips % 2 == 0:
                holes.append(path)
            continue
        stack.append((path + (1,), x[1], flips + (x[0] == ARROW)))
        stack.append((path + (2,), x[2], flips))
    hole = rng.choice(holes)  # the rightmost spine always offers one

    def plug(t):
        return _replace(ctx, hole, t)

    return plug


def _replace(t, path, new):
    if not path:
        return new
    k = path[0]
    child = _replace(t[k], path[1:], new)
    return (t[0], child, t[2]) if k == 1 else (t[0], t[1], child)


def near_miss(rng: random.Random, t):
    """t with one strictly positive atom (reached through meets and arrow
    targets only) replaced by FRESH.

    The result has a factor headed FRESH, so nothing without FRESH lies below
    it: x <= near_miss(t) is false for every x built from the ordinary atoms.
    """
    spots = []
    stack = [((), t)]
    while stack:
        path, x = stack.pop()
        if isinstance(x, str):
            spots.append(path)
        elif x[0] == ARROW:
            stack.append((path + (2,), x[2]))
        else:
            stack.append((path + (1,), x[1]))
            stack.append((path + (2,), x[2]))
    return _replace(t, rng.choice(spots), FRESH)


# ---------------------------------------------------------------------------
# Exhaustive universe and deep inputs.


def universe(atoms, max_nodes: int) -> list:
    """Every tree over the atoms with at most max_nodes nodes, smallest first."""
    by_size = {1: list(atoms)}
    out = list(atoms)
    for n in range(3, max_nodes + 1, 2):
        cur = []
        for ln in range(1, n - 1, 2):
            for l in by_size[ln]:
                for r in by_size[n - 1 - ln]:
                    cur.append(arrow(l, r))
                    cur.append(meet(l, r))
        by_size[n] = cur
        out.extend(cur)
    return out


def arrow_chain_text(n: int) -> str:
    """a -> a -> ... -> a with n arrows, right nested."""
    return " -> ".join(["a"] * (n + 1))


def nested_parens_text(n: int) -> str:
    return "(" * n + "a" + ")" * n


# ---------------------------------------------------------------------------
# Input properties.


class Interner:
    """Dense ids for subtrees, equal exactly when the subtrees are equal.

    `add(t)` numbers every subtree of t; afterwards `of(x)` is the id of any
    node x of t.  Works without recursion and without hashing whole
    subtrees, and walks a tuple object met again only once, so trees that
    share objects cost their number of distinct objects.
    """

    def __init__(self):
        self.table = {}
        self.ids = {}

    def add(self, t) -> int:
        stack = [(t, False)]
        while stack:
            x, done = stack.pop()
            if isinstance(x, str):
                key = x
            elif id(x) in self.ids:
                continue
            elif not done:
                stack.append((x, True))
                stack.append((x[2], False))
                stack.append((x[1], False))
                continue
            else:
                key = (x[0], self.of(x[1]), self.of(x[2]))
            i = self.table.get(key)
            if i is None:
                i = self.table[key] = len(self.table)
            self.ids[id(x)] = i
        return self.of(t)

    def of(self, x) -> int:
        return self.table[x] if isinstance(x, str) else self.ids[id(x)]


def analyse(trees) -> tuple:
    """(shared nodes, node count of each tree, greatest depth) of one op.

    A node is shared when it, or a tree above it, is a compound subtree (an
    arrow or a meet) that occurs at least twice among the op's trees; atoms
    alone repeat in every input and do not count.  Interner ids put children
    before parents, so one pass in id order sees children first.
    """
    ids = Interner()
    roots = [ids.add(t) for t in trees]
    kids = [None] * len(ids.table)  # id -> (left id, right id); None for an atom
    for key, i in ids.table.items():
        if not isinstance(key, str):
            kids[i] = key[1:]
    n = len(kids)
    size, depth, occ, shared = [1] * n, [1] * n, [0] * n, [0] * n
    for i, k in enumerate(kids):
        if k:
            size[i] = 1 + size[k[0]] + size[k[1]]
            depth[i] = 1 + max(depth[k[0]], depth[k[1]])
    for r in roots:
        occ[r] += 1
    for i in range(n - 1, -1, -1):
        k = kids[i]
        if k and occ[i]:
            occ[k[0]] += occ[i]
            occ[k[1]] += occ[i]
    for i, k in enumerate(kids):
        if k:
            shared[i] = size[i] if occ[i] >= 2 else shared[k[0]] + shared[k[1]]
    return (
        sum(shared[r] for r in roots),
        [size[r] for r in roots],
        max(depth[r] for r in roots),
    )


def reference_le(a, b, memo: dict) -> bool:
    """a <= b by factor matching on tuple trees, written apart from `bcd`.

    Used on the small oracle universe, to pick its congruent pairs before
    `bcd` runs; `memo` maps (a, b) to the answer.
    """
    key = (a, b)
    v = memo.get(key)
    if v is None:
        fa = reference_factors(a)
        v = all(
            any(
                h == ha
                and len(args) == len(aargs)
                and all(reference_le(x, y, memo) for x, y in zip(args, aargs))
                for aargs, ha in fa
            )
            for args, h in reference_factors(b)
        )
        memo[key] = v
    return v


def reference_factors(t) -> list:
    """Factors of a tuple tree as (argument subtrees, head atom) pairs.

    A list, possibly with repeats: hashing big argument trees is slow.
    """
    if isinstance(t, str):
        return [((), t)]
    if t[0] == MEET:
        return reference_factors(t[1]) + reference_factors(t[2])
    return [((t[1],) + args, h) for args, h in reference_factors(t[2])]


class Properties:
    """Input properties of a workload, gathered op by op.

    `add` takes the trees of one op (ops may be a systematic sample); `note`
    takes the node count of every op.
    """

    def __init__(self):
        self.shared = 0
        self.counted = 0
        self.depth = 0
        self.node_counts = []

    def add(self, trees) -> list:
        """Count one op's trees; returns their node counts."""
        shared, sizes, deepest = analyse(trees)
        self.shared += shared
        self.counted += sum(sizes)
        self.depth = max(self.depth, deepest)
        return sizes

    def note(self, nodes: int, nesting: int = 0) -> None:
        self.node_counts.append(nodes)
        self.depth = max(self.depth, nesting)

    def report(self) -> dict:
        counts = sorted(self.node_counts)
        return {
            "shared_subtree_share": self.shared / self.counted if self.counted else 0.0,
            "nodes_p50": counts[len(counts) // 2] if counts else 0,
            "nodes_max": counts[-1] if counts else 0,
            "max_nesting_depth": self.depth,
        }


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode())
        h.update(b"\x00")
    return h.hexdigest()[:16]
