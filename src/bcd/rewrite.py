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
occurrences.  One predicate tests every rule's redex, restricted or not, for
the listing (a filter over bcd.syntax's preorder walk and its arrow
counts), for a single step and for the counted walk alike.  absp is
generative (its C is arbitrary), so it never takes part in normalization; it
appears only in the bounded conversion search, with witnesses drawn from a
finite pool.  The dept and dist normal forms are bcd.syntax's and
bcd.decide's.  A rule is checked when it is built: an absp rule needs its
witness and a dept rule its depth.

A meet is idempotent, so a meet spine is a set of members, and one walk
reads it for every caller: meet_members lists the distinct non-meet members
in order of first occurrence and enters each distinct meet once.

The conversion search holds each top-level state, and each one-move
successor of a subterm, as the set of its meet members (distinct
slat-canonical non-meets), so it never builds or re-flattens a meet spine at
the top of a state or of a move; it builds a meet node only where a move is
lifted into an arrow's source or target, and meets nested inside arrows stay
expressions.  A state has one form, its member set, whether seen, queued or
expanded.  Members are put in rendering order only where order is read: in
the key by which the search ranks a state, and in a meet node it builds.  No
move leads back to its start: no successor set, of a state or of a subterm,
is its start's own member set, so the search never builds the state it
expands.  One loop checks each successor against the other side and marks
it seen; it ranks and queues the successors only while some of them can
still be expanded, since no order changes the verdict.  The default witness
pool is witness_pool's walk over the distinct subterms of both sides, the
same walk that bcd.gen draws its witnesses from.  The search's successor
memo depends on the witness pool and lives for one call.  Its pruned-form
memo maps a node to its pruned form, and a member set to the member set of
its pruned form.  A meet is keyed by the set of its members' pruned forms,
which is all that merging and absorption read, so they run once per such
set.  A pruned member set keys itself, so the memo holds one object per
distinct pruned form, and it carries the form's meet node once prune has
built it, so each pruned meet node is built once; the search reads the sets
alone.  An entry depends on its key alone, so a caller may pass one dict to
many searches.

All operations are pure, and the search keeps its frontier and memos out of
module state, so the module is safe for unsynchronized concurrent use.  The
caches kept on nodes are functions of the node alone, and none refers back
to its node: slat_canonical's (True on a node that is its own form, the form
itself on any other) and the rendering's, and, for the search and prune
only, a meet's spine member tuple (a non-meet's spine is itself alone, and
is never stored).  So every node that a parse, a normal form, prune or the
search builds is freed by reference counting once the last reference to it
goes, with no collection pass.  slat_canonical is the only writer of its
cache: the search and prune build their arrows and meets from slat-canonical
parts in canonical order, and so never ask for a form.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .syntax import (
    Arrow,
    Atom,
    Expr,
    Meet,
    Position,
    _AT,
    _path,
    _preorder,
    _rebuild,
    render,
)

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
        if self.kind == "absp" and self.absp_witness is None:
            raise MissingParameter("absp needs a witness expression")
        if self.kind == "dept" and self.depth_param is None:
            raise MissingParameter("dept needs a depth parameter")


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
    """The distinct non-meet members of a meet spine, in order of first
    occurrence, left to right.  A meet is idempotent, so a repeated member is
    listed once; each distinct meet of the spine is entered once, so a shared
    meet costs one visit however often it occurs."""
    out = []
    seen, stack = set(), [e]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            if x.__class__ is Meet:
                stack += (x.right, x.left)
            else:
                out.append(x)
    return out


def _members(e: Expr) -> tuple:
    """meet_members(e) as a tuple, cached on e when e is a meet: the search
    and prune ask each node for its spine many times, and the spine is fixed
    by the node.  A non-meet's spine (e,) is built on demand, since caching
    it would make e refer to itself."""
    if e.__class__ is not Meet:
        return (e,)
    members = e.__dict__.get("_members")
    if members is None:
        members = e.__dict__["_members"] = tuple(meet_members(e))
    return members


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

_AT_ARROW = Arrow(_AT, _AT)


def _is_redex(rule: Rule, x: Expr, here: int, restricted: bool) -> bool:
    """Whether rule's left hand side matches x, a node at ebb here; restricted
    narrows idem, comm and dept to their restricted redex forms."""
    kind = rule.kind
    if kind == "dept":
        if here <= rule.depth_param or x is _AT:  # rewriting @ to @ is a trivial loop
            return False
        return not restricted or x is _AT_ARROW or _is_meet_of_atoms(x)
    if kind == "dist":
        return isinstance(x, Arrow) and isinstance(x.target, Meet)
    if kind == "asso":
        return isinstance(x, Meet) and isinstance(x.right, Meet)
    if kind == "asso_inv":
        return isinstance(x, Meet) and isinstance(x.left, Meet)
    if kind == "comm":
        if not isinstance(x, Meet):
            return False
        return not restricted or not (isinstance(x.left, Meet) or isinstance(x.right, Meet))
    if kind == "idem":
        return isinstance(x, Atom) or not restricted
    return isinstance(x, Arrow)  # absp


def redexes(e: Expr, rule: Rule, restricted: bool = False) -> list:
    """All positions where the rule's left hand side matches, in preorder."""
    return [pos for pos, x, here in _preorder(e) if _is_redex(rule, x, here, restricted)]


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
    return _AT  # dept, the one kind left: Rule admits no other


def apply(e: Expr, rule: Rule, pos: Position) -> Expr:
    """Rewrite the single occurrence at pos; raises NotARedex on a mismatch."""
    nodes = _path(e, pos)
    sub = nodes[-1]
    if not _is_redex(rule, sub, sum(x.__class__ is Arrow for x in nodes), False):
        raise NotARedex(f"{rule.kind} does not apply at {pos!r}")
    return _rebuild(nodes, pos, _rewrite_once(rule, sub))


# ---------------------------------------------------------------------------
# Counted restricted redexes: one random step without listing positions
#
# A subterm's count of restricted redexes depends on the subterm alone, and
# for dept(n) also on the arrows above it, capped at n + 1: from there on
# every node lies at ebb > n.  The memo maps each capped arrow count to a
# dict from subterm to count (all at 0 for the other rules); one memo serves
# one rule, and kept across the steps of a normalization it makes each step
# cost one path down and the nodes the step builds.  The arrow count below a
# node, above its children, is the node's own ebb, capped as well.

def _count(e: Expr, above: int, cap: int, rule: Rule, memo: dict) -> int:
    """The count of e at the capped arrow count above, filling memo for
    every subterm it visits; one loop over an explicit stack."""
    stack = [e, above]  # flat (subterm, capped arrow count) pairs
    while stack:
        x, level = stack[-2:]
        counts = memo[level]
        if x in counts:
            del stack[-2:]
            continue
        if x.__class__ is Atom:
            counts[x] = int(_is_redex(rule, x, level, True))
            del stack[-2:]
            continue
        if x.__class__ is Arrow:
            below = level + 1 if level < cap else cap
            first, second = x.source, x.target
        else:
            below = level
            first, second = x.left, x.right
        inner = memo[below]
        n_first, n_second = inner.get(first), inner.get(second)
        if n_first is None or n_second is None:
            if n_second is None:
                stack += (second, below)
            if n_first is None:
                stack += (first, below)
            continue
        counts[x] = _is_redex(rule, x, below, True) + n_first + n_second
        del stack[-2:]
    return memo[above][e]


def count_restricted(e: Expr, rule: Rule, memo: dict) -> int:
    """len(redexes(e, rule, restricted=True)), for any rule but dept at an
    infinite depth, from the per-subterm counts in memo (pass {} to start
    one), which it fills for every subterm not yet counted."""
    cap = rule.depth_param + 1 if rule.kind == "dept" else 0
    for above in range(cap + 1):
        memo.setdefault(above, {})
    return _count(e, 0, cap, rule, memo)


def apply_nth_restricted(e: Expr, rule: Rule, k: int, memo: dict) -> Expr:
    """apply(e, rule, redexes(e, rule, restricted=True)[k]), by descent in
    preorder through the counts that count_restricted(e, rule, memo) left in
    memo.  A node is itself a redex when its count exceeds its children's.
    The rebuild of the path back up counts each node it builds, so memo
    then holds the result's count as well."""
    cap = rule.depth_param + 1 if rule.kind == "dept" else 0
    path = []  # (ancestor, its capped arrow count, whether the descent went left)
    x, above = e, 0
    while True:
        total = memo[above][x]
        if not 0 <= k < total:
            raise IndexError("redex index out of range")
        if x.__class__ is Arrow:
            below = above + 1 if above < cap else cap
            first, second = x.source, x.target
        elif x.__class__ is Meet:
            below = above
            first, second = x.left, x.right
        else:
            break  # an atom with a count of 1 is the redex
        inner = memo[below]
        n_first = inner[first]
        own = total - n_first - inner[second]
        if k < own:
            break
        k -= own
        path.append((x, above, k < n_first))
        if k < n_first:
            x = first
        else:
            k -= n_first
            x = second
        above = below
    new = _rewrite_once(rule, x)
    _count(new, above, cap, rule, memo)
    for x, above, went_left in reversed(path):
        if x.__class__ is Arrow:
            below = above + 1 if above < cap else cap
            left, right = (new, x.target) if went_left else (x.source, new)
            new = Arrow(left, right)
        else:
            below = above
            left, right = (new, x.right) if went_left else (x.left, new)
            new = Meet(left, right)
        inner = memo[below]
        memo[above][new] = _is_redex(rule, new, below, True) + inner[left] + inner[right]
    return new


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


# ---------------------------------------------------------------------------
# Normal forms

def _sorted_members(members) -> tuple:
    """The distinct members sorted by rendering: for slat-canonical non-meets,
    the member tuple of their meet's slat-canonical form."""
    return tuple(sorted(set(members), key=render))


def _meet_node(members: tuple) -> Expr:
    """The left-nested meet of a member tuple of distinct slat-canonical
    non-meets sorted by rendering: a slat-canonical form, with the tuple
    recorded as its spine when it is a meet."""
    x = members[0]
    for m in members[1:]:
        x = Meet(x, m)
    if len(members) > 1:
        x.__dict__["_members"] = members
    return x


def _sorted_meet(members) -> Expr:
    """_meet_node of the distinct slat-canonical non-meet members, sorted."""
    return _meet_node(_sorted_members(members))


def slat_canonical(e: Expr) -> Expr:
    """Canonical representative of e's class under meet associativity,
    commutativity, and idempotence.

    Meet spines are flattened to sets, deduplicated, sorted by rendered
    string, and left-nested; applied recursively inside arrow sources and
    targets.  Idempotent, and invariant under asso/asso_inv/comm/idem steps.
    A spine is read through meet_members, so a shared meet is walked once
    however often it occurs.
    """
    c = e.__dict__.get("_slat")
    if c is not None:
        return e if c is True else c
    if isinstance(e, Atom):
        c = e
    elif isinstance(e, Arrow):
        c = Arrow(slat_canonical(e.source), slat_canonical(e.target))
    else:
        c = meet_of(_sorted_members(slat_canonical(m) for m in meet_members(e)))
    object.__setattr__(c, "_slat", True)
    if c is not e:
        object.__setattr__(e, "_slat", c)
    return c


# ---------------------------------------------------------------------------
# Bounded conversion search

class Verdict(Enum):
    CONFIRMED = "confirmed"
    UNKNOWN = "unknown"


def _merge_cluster(arrows: list, memo: dict) -> list:
    """Merge the pruned arrows that share a source into one arrow to the
    meet of their targets (reverse dist).  The combined target is pruned
    again, straight from its targets' members, since it may expose further
    merges; the merged arrow, from a pruned source to a pruned target, is
    then its own pruned form."""
    by_source = {}
    for v in arrows:
        by_source.setdefault(v.source, []).append(v)
    out = []
    for src, group in by_source.items():
        if len(group) == 1:
            out.append(group[0])
        else:
            target = _pruned_meet([t for g in group for t in _members(g.target)], memo)
            out.append(Arrow(src, target))
    return out


def _absorbed(arrows: list) -> list:
    """The arrows made redundant by absorption: those whose source spine
    strictly contains the source spine of another arrow with the same
    target.  Only arrows that share a target compare their spines, and only
    a meet source can strictly contain a spine; its spine is built as a set
    once per call.  The sources are slat-canonical, so two arrows with one
    target have distinct spines, and one contains the other strictly
    exactly when it holds every member of the other."""
    out = []
    for v in arrows:
        if v.source.__class__ is not Meet:
            continue
        spine = None
        for u in arrows:
            if u.target is v.target and u is not v:
                if spine is None:
                    spine = frozenset(_members(v.source))
                if spine.issuperset(_members(u.source)):
                    out.append(v)
                    break
    return out


def _prune_members(members, memo: dict) -> list:
    """prune's merge and absorption step: the members of the pruned meet of
    the given distinct pruned non-meets, distinct and in no order.

    One pass: same-source arrows are merged, and the absorbed arrows are
    dropped.  Pruned sources are fixed points of prune, so the merged arrows
    keep distinct sources, and dropping creates no new absorption.  The
    result depends on the set of members alone, not on the order of the
    walk.
    """
    out, arrows, sources = [], [], set()
    merge = False
    for m in members:
        if m.__class__ is Arrow:
            if m.source in sources:
                merge = True
            else:
                sources.add(m.source)
            arrows.append(m)
        else:
            out.append(m)
    if merge:
        arrows = _merge_cluster(arrows, memo)
    if len(arrows) > 1:
        dropped = _absorbed(arrows)
        if dropped:
            arrows = [v for v in arrows if v not in dropped]
    out += arrows
    return out


class _PrunedForm(frozenset):
    """The member set of a pruned form, with the form itself as node once
    _pruned_meet has built it (at once for a single member)."""

    __slots__ = ("node",)


def _pruned_form(members, memo: dict) -> _PrunedForm:
    """The pruned form of the meet of the given slat-canonical non-meets,
    as its member set.

    Each member's pruned form comes from memo, and the set of those forms is
    looked up in memo in turn: _prune_members reads that set alone, so it
    runs once per distinct set however many member sets prune to it.  A
    pruned form is its own pruned form, so it keys itself, and the memo
    holds one object per distinct pruned form.
    """
    key = frozenset([memo.get(m) or _prune(m, memo) for m in members])
    p = memo.get(key)
    if p is None:
        out = _prune_members(key, memo)
        p = memo.get(frozenset(out))
        if p is None:
            p = _PrunedForm(out)
            p.node = out[0] if len(out) == 1 else None
            memo[p] = p
        memo[key] = p
    return p


def _pruned_meet(members, memo: dict) -> Expr:
    """prune's meet step: _pruned_form as a node, built once per pruned
    form; the search reads the member set alone and never builds it."""
    p = _pruned_form(members, memo)
    if p.node is None:
        p.node = _sorted_meet(p)
    return p.node


def prune(e: Expr, memo: dict | None = None) -> Expr:
    """Normalize by reverse-dist merging and absorption removal, bottom up.

    Every step is a sound conversion move, so the result, a slat-canonical
    form, stays inside e's congruence class; used to collapse search states
    quickly.  Results are memoized in memo, which callers may share across
    calls: per subexpression, and per set of a meet's members' pruned forms,
    so merging and absorption run once per such set.
    """
    if memo is None:
        memo = {}
    result = memo.get(e)
    if result is None:
        result = memo[e] = _prune(slat_canonical(e), memo)
    return result


def _prune(c: Expr, memo: dict) -> Expr:
    """prune of the slat-canonical c."""
    result = memo.get(c)
    if result is None:
        if c.__class__ is Atom:
            result = c
        elif c.__class__ is Arrow:
            result = Arrow(_prune(c.source, memo), _prune(c.target, memo))
        else:
            result = _pruned_meet(_members(c), memo)
        memo[c] = result
    return result


def _member_successors(members, witnesses: list, memo: dict) -> set:
    """Sound one-move successors of the meet of a member collection, as
    member sets.

    The members are distinct slat-canonical non-meets, in any order; every
    result is a frozenset of distinct slat-canonical non-meets, built by set
    algebra with no sort.  The meet-level moves merge two same-source
    arrow members, drop an absorbed one, or replace one member by the
    member set of one of its own moves.  No move leads back to its start:
    the member set itself is never a result, so a split or absp arrow that
    the meet already holds adds nothing.
    """
    out = set()
    base = frozenset(members)
    arrows = [m for m in members if m.__class__ is Arrow]
    for u, v in combinations(arrows, 2):
        if u.source is v.source:
            merged = Arrow(u.source, _sorted_meet(_members(u.target) + _members(v.target)))
            out.add(base.difference((u, v)).union((merged,)))
    if len(arrows) > 1:
        for v in _absorbed(arrows):
            out.add(base - {v})
    for m in members:
        rest = base - {m}
        for n in _successors(m, witnesses, memo):
            out.add(rest | n)
    out.discard(base)
    return out


def _successors(x: Expr, witnesses: list, memo: dict) -> frozenset:
    """Sound one-move successors of a slat-canonical expression, by structure,
    with absp witnesses drawn from a slat-canonical pool, each as the member
    set of its slat-canonical form: a frozenset of distinct slat-canonical
    non-meets, whose meet in rendering order is the successor.

    Moves are dist and absp applied in both directions anywhere inside x,
    phrased on meet spines so that the asso/comm/idem orbit never has to be
    searched.  An arrow appends an absorption component from a witness and
    splits one member out of a meet target (with or without retaining the
    original); a maximal meet takes the moves of _member_successors as they
    are.  A move inside a child is lifted through its parent, and only there
    is a member set built into a meet node, as the arrow's new source or
    target.  Every arrow or meet built on the way is built from
    slat-canonical parts in canonical order, and so is slat-canonical.
    No move leads back to its start: a witness whose members the source
    already holds is skipped, since it would append x itself, and no
    child's successor is its own member set, so no lifted move rebuilds x.
    Results are memoized per subexpression in memo, so states sharing a
    subterm share its moves.
    """
    out = memo.get(x)
    if out is not None:
        return out
    out = set()
    if x.__class__ is Arrow:
        src, tgt = x.source, x.target
        sources = _members(src)
        spine = frozenset(sources)
        for w in witnesses:
            if not spine.issuperset(_members(w)):
                out.add(frozenset((x, Arrow(_sorted_meet(sources + _members(w)), tgt))))
        if tgt.__class__ is Meet:
            members = _members(tgt)
            for i, y in enumerate(members):
                split = Arrow(src, y)
                rest = _meet_node(members[:i] + members[i + 1:])
                out.add(frozenset((split, Arrow(src, rest))))
                out.add(frozenset((split, x)))
        for n in _successors(src, witnesses, memo):
            out.add(frozenset((Arrow(_sorted_meet(n), tgt),)))
        for n in _successors(tgt, witnesses, memo):
            out.add(frozenset((Arrow(src, _sorted_meet(n)),)))
    elif x.__class__ is Meet:
        out = _member_successors(_members(x), witnesses, memo)
    out = memo[x] = frozenset(out)
    return out


def _state_key(state) -> str:
    """render of the meet of a member set in rendering order, without
    building the meet."""
    if len(state) == 1:
        (m,) = state
        return render(m)
    return " & ".join(
        "(" + render(m) + ")" if m.__class__ is Arrow else render(m) for m in sorted(state, key=render)
    )


def witness_pool(*exprs: Expr) -> list:
    """The distinct subterms of the given expressions, in preorder of their
    first occurrence, source and left operand first: one loop over an
    explicit stack, which enters each distinct subterm once."""
    pool, seen, stack = [], set(), list(reversed(exprs))
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            pool.append(x)
            if x.__class__ is Arrow:
                stack += (x.target, x.source)
            elif x.__class__ is Meet:
                stack += (x.right, x.left)
    return pool


def convertible_bounded(
    a: Expr,
    b: Expr,
    budget: int = 1000,
    witnesses=None,
    memo: dict | None = None,
) -> Verdict:
    """Bidirectional breadth-first search for a conversion between a and b.

    States are slat-canonical, each held, seen and queued as the one set of
    its top-level meet members; moves are dist and absp in both directions,
    with absp instantiated only from the witness pool (by default
    witness_pool(a, b)), taken as the set of its members' slat-canonical
    forms.  Each side is expanded at most `budget` times, in order of the
    states' renderings, and every successor is followed by its pruned form.
    Successors are computed as member sets, down to the subterms, so a move
    builds a meet node only as the source or target of an arrow, and no
    move leads back to its start, so a state is never its own successor.
    One loop checks and marks every successor; it ranks them by rendering
    and queues them only while the side can still expand them, that is
    while the queue holds fewer states than the side has expansions left.
    Past that point they are only checked against the other side, and
    marked seen so that the other side checks against them.
    CONFIRMED is returned exactly when the explored sets intersect, which
    implies a and b are congruent; UNKNOWN implies nothing.  Moves are
    memoized per subexpression for the duration of the call.  Pruned forms
    are memoized in memo, per node and per member set, and a meet's merging
    and absorption run once per set of its members' pruned forms; a caller
    may share memo across calls, since a pruned form depends on its key
    alone.
    """
    if witnesses is None:
        witnesses = witness_pool(a, b)
    witnesses = sorted({slat_canonical(w) for w in witnesses}, key=render)
    if memo is None:
        memo = {}

    def pruned(state: frozenset) -> frozenset:
        p = memo.get(state)
        if p is None:
            p = memo[state] = _pruned_form(state, memo)
        return p

    moves = {}
    sides = []
    for root in (a, b):
        start = frozenset(_members(slat_canonical(root)))
        seen = {start}
        queue = deque([start])
        p = pruned(start)
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
            # The sides' seen sets stay disjoint (a shared state confirms as
            # it is added), so a successor seen here with its pruned form can
            # neither confirm nor be queued: drop it before the sort.  The
            # state itself is never a successor.
            fresh = [
                nb
                for nb in _member_successors(state, witnesses, moves)
                if nb not in seen or pruned(nb) not in seen
            ]
            # Once the queue holds as many states as this side has
            # expansions left, nothing queued now is ever expanded: the
            # successors are neither ranked nor queued, only checked against
            # the other side and marked seen.
            ranks = len(queue) < budget - spent[idx]
            for nb in (sorted(fresh, key=_state_key) if ranks else fresh):
                for candidate in (nb, pruned(nb)):
                    if candidate in other:
                        return Verdict.CONFIRMED
                    if candidate not in seen:
                        seen.add(candidate)
                        if ranks:
                            queue.append(candidate)
    return Verdict.UNKNOWN
