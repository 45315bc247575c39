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

The conversion search holds each top-level state as the tuple of its meet
members (distinct slat-canonical non-meets, sorted by rendering), so it never
builds or re-flattens a top-level meet spine; meets nested inside arrows stay
expressions.  Its successor memo depends on the witness pool and lives for
one call.  Its pruned-form memo, keyed by node or by member tuple, depends on
the key alone, so a caller may pass one dict to many searches.

All operations are pure, and the search keeps its frontier and memos out of
module state, so the module is safe for unsynchronized concurrent use.  The
only caches kept on nodes are slat_canonical's and the rendering's, both
functions of the node alone.
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


def _sorted_members(members) -> tuple:
    """The distinct members sorted by rendering: for slat-canonical non-meets,
    the member tuple of their meet's slat-canonical form."""
    return tuple(sorted(set(members), key=render))


def _sorted_meet(members) -> Expr:
    """Left-nested meet of the distinct slat-canonical non-meet members,
    sorted by rendering: the slat-canonical form of their meet, recorded as
    its own."""
    c = meet_of(_sorted_members(members))
    object.__setattr__(c, "_slat", c)
    return c


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
        c = _sorted_meet(slat_canonical(m) for m in meet_members(e))
    object.__setattr__(e, "_slat", c)
    if c is not e:
        object.__setattr__(c, "_slat", c)
    return c


# ---------------------------------------------------------------------------
# Bounded conversion search

class Verdict(Enum):
    CONFIRMED = "confirmed"
    UNKNOWN = "unknown"


def _merge_cluster(members: list, memo: dict) -> list:
    """Union the targets of same-source arrow members (reverse dist); merged
    members are re-pruned since their combined targets may expose further
    merges."""
    by_source = {}
    out = []
    for m in members:
        if isinstance(m, Arrow):
            by_source.setdefault(m.source, []).append(m)
        else:
            out.append(m)
    for src, group in by_source.items():
        if len(group) == 1:
            out.append(group[0])
        else:
            target = prune(_sorted_meet(m for g in group for m in meet_members(g.target)), memo)
            out.append(prune(Arrow(src, target), memo))
    return out


def _absorbed(arrows: list) -> list:
    """The arrows made redundant by absorption: those whose source spine
    strictly contains another arrow's source spine, with the same target."""
    spines = [frozenset(meet_members(v.source)) for v in arrows]
    return [
        v
        for v, vs in zip(arrows, spines)
        if any(u.target is v.target and us < vs for u, us in zip(arrows, spines))
    ]


def _prune_members(members, memo: dict) -> tuple:
    """prune's meet step: the member tuple of the pruned meet of the given
    slat-canonical non-meets.

    One pass suffices: pruned sources are fixed points of prune, so the
    merged arrows keep distinct sources, and dropping creates no new
    absorption.
    """
    members = _merge_cluster([prune(m, memo) for m in members], memo)
    dropped = _absorbed([m for m in members if isinstance(m, Arrow)])
    return _sorted_members(m for m in members if m not in dropped)


def prune(e: Expr, memo: dict | None = None) -> Expr:
    """Normalize by reverse-dist merging and absorption removal, bottom up.

    Every step is a sound conversion move, so the result stays inside e's
    congruence class; used to collapse search states quickly.  Results are
    memoized per subexpression in memo, which callers may share across calls.
    """
    if memo is None:
        memo = {}
    result = memo.get(e)
    if result is None:
        c = slat_canonical(e)
        if isinstance(c, Atom):
            result = c
        elif isinstance(c, Arrow):
            result = Arrow(prune(c.source, memo), prune(c.target, memo))
        else:
            result = meet_of(_prune_members(meet_members(c), memo))
        memo[e] = result
    return result


def _member_successors(members: tuple, witnesses: list, memo: dict) -> set:
    """Sound one-move successors of the meet of a member tuple, as member
    tuples.

    The members are distinct slat-canonical non-meets sorted by rendering,
    and so is every result.  The meet-level moves merge two same-source
    arrow members, drop an absorbed one, or replace one member by the
    members of one of its own moves.
    """
    out = set()
    arrows = [m for m in members if isinstance(m, Arrow)]
    for u, v in combinations(arrows, 2):
        if u.source is v.source:
            merged = Arrow(u.source, _sorted_meet(meet_members(u.target) + meet_members(v.target)))
            out.add(_sorted_members([m for m in members if m is not u and m is not v] + [merged]))
    for v in _absorbed(arrows):
        out.add(tuple(m for m in members if m is not v))
    for i, m in enumerate(members):
        rest = members[:i] + members[i + 1:]
        for n in _successors(m, witnesses, memo):
            out.add(_sorted_members(rest + tuple(meet_members(n))))
    return out


def _successors(x: Expr, witnesses: list, memo: dict) -> frozenset:
    """Sound one-move successors of a slat-canonical expression, by structure,
    with absp witnesses drawn from a slat-canonical pool.

    Moves are dist and absp applied in both directions anywhere inside x,
    phrased on meet spines so that the asso/comm/idem orbit never has to be
    searched.  An arrow appends an absorption component from a witness and
    splits one member out of a meet target (with or without retaining the
    original); a maximal meet takes the moves of _member_successors.  A move
    inside a child is lifted through its parent, and every result is
    slat-canonical.  Results are memoized per subexpression in memo, so
    states sharing a subterm share its moves.
    """
    out = memo.get(x)
    if out is not None:
        return out
    out = set()
    if isinstance(x, Arrow):
        src, tgt = x.source, x.target
        sources = meet_members(src)
        for w in witnesses:
            out.add(_sorted_meet([x, Arrow(_sorted_meet(sources + meet_members(w)), tgt)]))
        if isinstance(tgt, Meet):
            members = meet_members(tgt)
            for i, y in enumerate(members):
                rest = members[:i] + members[i + 1:]
                out.add(_sorted_meet([Arrow(src, y), Arrow(src, meet_of(rest))]))
                out.add(_sorted_meet([Arrow(src, y), x]))
        out.update(Arrow(n, tgt) for n in _successors(src, witnesses, memo))
        out.update(Arrow(src, n) for n in _successors(tgt, witnesses, memo))
    elif isinstance(x, Meet):
        out = {meet_of(t) for t in _member_successors(tuple(meet_members(x)), witnesses, memo)}
    out = memo[x] = frozenset(out)
    return out


def _state_key(state: tuple) -> str:
    """render(meet_of(state)), without building the meet."""
    if len(state) == 1:
        return render(state[0])
    return " & ".join("(" + render(m) + ")" if isinstance(m, Arrow) else render(m) for m in state)


def default_witnesses(*exprs: Expr) -> list:
    """Deduplicated slat-canonical subexpressions of the given expressions."""
    pool = {slat_canonical(sub) for e in exprs for _, sub in subexpressions(e)}
    return sorted(pool, key=render)


def convertible_bounded(
    a: Expr,
    b: Expr,
    budget: int = 1000,
    witnesses=None,
    memo: dict | None = None,
) -> Verdict:
    """Bidirectional breadth-first search for a conversion between a and b.

    States are slat-canonical, each held as the tuple of its top-level meet
    members; moves are dist and absp in both directions, with absp
    instantiated only from the witness pool (by default the subexpressions
    of a and b).  Each side is expanded at most `budget` times, in order of
    the states' renderings, and every successor is followed by its pruned
    form.  CONFIRMED is returned exactly when the explored sets intersect,
    which implies a and b are congruent; UNKNOWN implies nothing.  Moves are
    memoized per subexpression for the duration of the call.  Pruned forms
    are memoized in memo, per node and per member tuple; a caller may share
    it across calls, since a pruned form depends on its key alone.
    """
    if witnesses is None:
        witnesses = default_witnesses(a, b)
    else:
        witnesses = sorted({slat_canonical(w) for w in witnesses}, key=render)
    if memo is None:
        memo = {}

    def pruned(state: tuple) -> tuple:
        p = memo.get(state)
        if p is None:
            p = memo[state] = _prune_members(state, memo)
        return p

    moves = {}
    sides = []
    for root in (a, b):
        canon = tuple(meet_members(slat_canonical(root)))
        seen = {canon}
        queue = deque([canon])
        p = pruned(canon)
        if p not in seen:
            seen.add(p)
            queue.append(p)
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
            for nb in sorted(_member_successors(state, witnesses, moves), key=_state_key):
                for candidate in (nb, pruned(nb)):
                    if candidate in other:
                        return Verdict.CONFIRMED
                    if candidate not in seen:
                        seen.add(candidate)
                        queue.append(candidate)
    return Verdict.UNKNOWN
