"""One-step rewriting over intersection type expressions.

Rules (each rewrites exactly one occurrence of its left hand side):

    asso      A & (B & C)  =>  (A & B) & C
    asso_inv  (A & B) & C  =>  A & (B & C)
    comm      A & B        =>  B & A
    idem      A            =>  A & A
    absp      A -> B       =>  (A -> B) & ((A & C) -> B)      (C arbitrary)
    dist      A -> (B & C) =>  (A -> B) & (A -> C)
    dept      any subexpression lying at ebb > n  =>  @

Restricted redex enumeration narrows idem to atoms, comm to meets whose
operands are atoms or arrows, and dept to intersections of atoms and @ -> @
occurrences.  absp is generative (its C is arbitrary), so it never takes part
in normalization; it appears only in the bounded conversion search, with
witnesses drawn from a finite pool.

All operations are pure; the conversion search keeps its frontier call-local,
so the module is safe for unsynchronized concurrent use.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .syntax import (
    ARROW_SOURCE,
    ARROW_TARGET,
    MEET_LEFT,
    MEET_RIGHT,
    TRUNCATION_ATOM,
    Arrow,
    Atom,
    Expr,
    Meet,
    Position,
    ebb,
    from_json_obj,
    node_at,
    render,
    replace_at,
    subexpressions,
    to_json_obj,
)

INFINITE_DEPTH = math.inf

RULE_KINDS = ("asso", "asso_inv", "comm", "idem", "absp", "dist", "dept")


class MissingParameter(ValueError):
    """A rule parameter (absp witness or dept depth) is required but absent."""


class NotARedex(ValueError):
    """The rule's left hand side does not match at the given position."""


@dataclass(frozen=True)
class Rule:
    kind: str
    depth_param: object = None  # natural number or INFINITE_DEPTH, dept only
    absp_witness: object = None  # the C of absp, absp only

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")


ASSO = Rule("asso")
ASSO_INV = Rule("asso_inv")
COMM = Rule("comm")
IDEM = Rule("idem")
DIST = Rule("dist")


def absp(witness: Expr) -> Rule:
    return Rule("absp", absp_witness=witness)


def dept(depth) -> Rule:
    return Rule("dept", depth_param=depth)


# ---------------------------------------------------------------------------
# Meet spines

def meet_members(e: Expr) -> list:
    """Flatten a meet spine into its non-meet members, left to right."""
    out = []
    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Meet):
            stack.append(x.right)
            stack.append(x.left)
        else:
            out.append(x)
    return out


def meet_of(members) -> Expr:
    """Left-nested meet of a nonempty member sequence."""
    members = list(members)
    if not members:
        raise ValueError("meet of an empty sequence")
    acc = members[0]
    for m in members[1:]:
        acc = Meet(acc, m)
    return acc


def _is_meet_of_atoms(e: Expr) -> bool:
    return all(isinstance(m, Atom) for m in meet_members(e))


# ---------------------------------------------------------------------------
# Redex enumeration and rule application

def _check_params(rule: Rule) -> None:
    if rule.kind == "absp" and rule.absp_witness is None:
        raise MissingParameter("absp needs a witness expression")
    if rule.kind == "dept" and rule.depth_param is None:
        raise MissingParameter("dept needs a depth parameter")


def _matches(kind: str, sub: Expr, restricted: bool) -> bool:
    if kind == "asso":
        return isinstance(sub, Meet) and isinstance(sub.right, Meet)
    if kind == "asso_inv":
        return isinstance(sub, Meet) and isinstance(sub.left, Meet)
    if kind == "comm":
        if not isinstance(sub, Meet):
            return False
        if not restricted:
            return True
        return not isinstance(sub.left, Meet) and not isinstance(sub.right, Meet)
    if kind == "idem":
        return isinstance(sub, Atom) if restricted else True
    if kind == "dist":
        return isinstance(sub, Arrow) and isinstance(sub.target, Meet)
    if kind == "absp":
        return isinstance(sub, Arrow)
    raise ValueError(kind)


_AT = Atom(TRUNCATION_ATOM)
_AT_ARROW = Arrow(_AT, _AT)


def _dept_matches(sub: Expr, restricted: bool) -> bool:
    if sub is _AT:
        return False  # rewriting @ to @ is a trivial loop
    if not restricted:
        return True
    return _is_meet_of_atoms(sub) or sub is _AT_ARROW


def redexes(e: Expr, rule: Rule, restricted: bool = False) -> list:
    """All positions where the rule's left hand side matches, in preorder."""
    _check_params(rule)
    if rule.kind == "dept":
        n = rule.depth_param
        out = []
        # carry the arrow count above each node; a node's own ebb adds one
        # more when the node is an arrow
        stack = [((), e, 0)]
        collected = []
        while stack:
            pos, x, above = stack.pop()
            here = above + 1 if isinstance(x, Arrow) else above
            collected.append((pos, x, here))
            if isinstance(x, Arrow):
                stack.append((pos + (ARROW_TARGET,), x.target, here))
                stack.append((pos + (ARROW_SOURCE,), x.source, here))
            elif isinstance(x, Meet):
                stack.append((pos + (MEET_RIGHT,), x.right, here))
                stack.append((pos + (MEET_LEFT,), x.left, here))
        for pos, x, here in collected:
            if here > n and _dept_matches(x, restricted):
                out.append(pos)
        return out
    return [
        pos
        for pos, sub in subexpressions(e)
        if _matches(rule.kind, sub, restricted)
    ]


def _rewrite_once(rule: Rule, sub: Expr) -> Expr:
    kind = rule.kind
    if kind == "asso":
        return Meet(Meet(sub.left, sub.right.left), sub.right.right)
    if kind == "asso_inv":
        return Meet(sub.left.left, Meet(sub.left.right, sub.right))
    if kind == "comm":
        return Meet(sub.right, sub.left)
    if kind == "idem":
        return Meet(sub, sub)
    if kind == "dist":
        return Meet(
            Arrow(sub.source, sub.target.left), Arrow(sub.source, sub.target.right)
        )
    if kind == "absp":
        return Meet(sub, Arrow(Meet(sub.source, rule.absp_witness), sub.target))
    if kind == "dept":
        return _AT
    raise ValueError(kind)


def apply(e: Expr, rule: Rule, pos: Position) -> Expr:
    """Rewrite the single occurrence at pos; raises NotARedex on a mismatch."""
    _check_params(rule)
    sub = node_at(e, pos)
    if rule.kind == "dept":
        if not (ebb(e, pos) > rule.depth_param and _dept_matches(sub, False)):
            raise NotARedex(f"dept does not apply at {pos!r}")
    elif not _matches(rule.kind, sub, False):
        raise NotARedex(f"{rule.kind} does not apply at {pos!r}")
    return replace_at(e, pos, _rewrite_once(rule, sub))


# ---------------------------------------------------------------------------
# Traces

@dataclass(frozen=True)
class TraceStep:
    rule: Rule
    position: Position
    result: Expr


@dataclass(frozen=True)
class Trace:
    """A recorded reduction sequence for audit and confluence testing."""

    start: Expr
    steps: tuple = ()

    @property
    def final(self) -> Expr:
        return self.steps[-1].result if self.steps else self.start

    def extend(self, rule: Rule, pos: Position) -> "Trace":
        return Trace(self.start, self.steps + (TraceStep(rule, pos, apply(self.final, rule, pos)),))

    def verify(self) -> bool:
        """Replay every step and confirm each recorded result."""
        cur = self.start
        for step in self.steps:
            cur = apply(cur, step.rule, step.position)
            if cur is not step.result:
                return False
        return True

    def to_json(self) -> str:
        steps = []
        for step in self.steps:
            obj = {
                "rule": step.rule.kind,
                "pos": list(step.position),
                "result": to_json_obj(step.result),
            }
            if step.rule.absp_witness is not None:
                obj["witness"] = to_json_obj(step.rule.absp_witness)
            if step.rule.depth_param is not None:
                obj["depth"] = (
                    None if step.rule.depth_param == INFINITE_DEPTH
                    else step.rule.depth_param
                )
            steps.append(obj)
        return json.dumps({"start": to_json_obj(self.start), "steps": steps})

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        obj = json.loads(text)
        steps = []
        for raw in obj["steps"]:
            kind = raw["rule"]
            witness = from_json_obj(raw["witness"]) if "witness" in raw else None
            depth = None
            if "depth" in raw:
                depth = INFINITE_DEPTH if raw["depth"] is None else raw["depth"]
            rule = Rule(kind, depth_param=depth, absp_witness=witness)
            steps.append(TraceStep(rule, tuple(raw["pos"]), from_json_obj(raw["result"])))
        return cls(from_json_obj(obj["start"]), tuple(steps))


# ---------------------------------------------------------------------------
# Normal forms

def dist_normal_form(e: Expr) -> Expr:
    """Exhaust dist: the result has no arrow targeting a meet.

    Deterministic innermost strategy; any strategy terminates and yields the
    same normal form up to meet reassociation.
    """
    if isinstance(e, Atom):
        return e
    if isinstance(e, Meet):
        return Meet(dist_normal_form(e.left), dist_normal_form(e.right))
    src = dist_normal_form(e.source)
    tgt = dist_normal_form(e.target)
    return _arrow_dist(src, tgt)


def _arrow_dist(src: Expr, tgt: Expr) -> Expr:
    if isinstance(tgt, Meet):
        return Meet(_arrow_dist(src, tgt.left), _arrow_dist(src, tgt.right))
    return Arrow(src, tgt)


def dept_normal_form(e: Expr, n: int) -> Expr:
    """Outermost depth truncation: every maximal subexpression lying at
    ebb > n is replaced by @.

    The result has no position at ebb > n at all (so it is a dept normal
    form), and it is reachable from e by dept steps at the truncated
    positions.
    """
    if n == INFINITE_DEPTH:
        return e
    if n < 0:
        raise ValueError("depth must be a natural number")

    def go(x: Expr, above: int) -> Expr:
        if isinstance(x, Atom):
            return x
        if isinstance(x, Arrow):
            if above + 1 > n:
                return _AT
            return Arrow(go(x.source, above + 1), go(x.target, above + 1))
        return Meet(go(x.left, above), go(x.right, above))

    return go(e, 0)


def slat_canonical(e: Expr) -> Expr:
    """Canonical representative of e's class under meet associativity,
    commutativity, and idempotence.

    Meet spines are flattened to sets, deduplicated, sorted by rendered
    string, and left-nested; applied recursively inside arrow sources and
    targets.  Idempotent, and invariant under asso/asso_inv/comm/idem steps.
    """
    c = e.__dict__.get("_slat")
    if c is not None:
        return c
    if isinstance(e, Atom):
        c = e
    elif isinstance(e, Arrow):
        c = Arrow(slat_canonical(e.source), slat_canonical(e.target))
    else:
        members = {slat_canonical(m) for m in meet_members(e)}
        c = meet_of(sorted(members, key=render))
    object.__setattr__(e, "_slat", c)
    if c is not e:
        object.__setattr__(c, "_slat", c)
    return c


# ---------------------------------------------------------------------------
# Bounded conversion search

class Verdict(Enum):
    CONFIRMED = "confirmed"
    UNKNOWN = "unknown"


def _spine_set(e: Expr) -> frozenset:
    s = e.__dict__.get("_spine")
    if s is None:
        s = frozenset(meet_members(e))
        object.__setattr__(e, "_spine", s)
    return s


def _merge_cluster(members: list) -> tuple:
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
            target = prune(meet_of(sorted(spine, key=render)))
            out.append(prune(Arrow(src, target)))
    return out, changed


def _drop_absorbed(members: list) -> tuple:
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


def prune(e: Expr) -> Expr:
    """Normalize by reverse-dist merging and absorption removal, bottom up.

    Every step is a sound conversion move, so the result stays inside e's
    congruence class; used to collapse search states quickly.
    """
    p = e.__dict__.get("_pruned")
    if p is not None:
        return p
    c = slat_canonical(e)
    if isinstance(c, Atom):
        result = c
    elif isinstance(c, Arrow):
        result = Arrow(prune(c.source), prune(c.target))
    else:
        members = [prune(m) for m in meet_members(c)]
        while True:
            members, merged = _merge_cluster(members)
            members, dropped = _drop_absorbed(members)
            if not (merged or dropped):
                break
        result = slat_canonical(meet_of(members))
    for node in (e, c, result):
        object.__setattr__(node, "_pruned", result)
    return result


def _neighbors(state: Expr, witnesses: list) -> list:
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


def default_witnesses(*exprs: Expr) -> list:
    """Deduplicated slat-canonical subexpressions of the given expressions."""
    pool = {slat_canonical(sub) for e in exprs for _, sub in subexpressions(e)}
    return sorted(pool, key=render)


def convertible_bounded(
    a: Expr,
    b: Expr,
    budget: int = 1000,
    witnesses=None,
) -> Verdict:
    """Bidirectional breadth-first search for a conversion between a and b.

    States are slat-canonical; moves are dist and absp in both directions,
    with absp instantiated only from the witness pool (by default the
    subexpressions of a and b).  Each side is expanded at most `budget`
    times, with both start states additionally seeded with their pruned
    forms.  CONFIRMED is returned exactly when the explored sets intersect,
    which implies a and b are congruent; UNKNOWN implies nothing.
    """
    if witnesses is None:
        witnesses = default_witnesses(a, b)
    else:
        witnesses = sorted({slat_canonical(w) for w in witnesses}, key=render)

    sides = []
    for root in (a, b):
        canon = slat_canonical(root)
        seen = {canon}
        queue = deque([canon])
        pruned = prune(canon)
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
            spent[idx] += 1
            for nb in _neighbors(state, witnesses):
                for candidate in (nb, prune(nb)):
                    if candidate in other:
                        return Verdict.CONFIRMED
                    if candidate not in seen:
                        seen.add(candidate)
                        queue.append(candidate)
    return Verdict.UNKNOWN
