"""The rewrite step against the code it replaced.

bcd.rewrite tests every rule's redex with one predicate, and bcd.syntax walks
a position by one descent and rebuilds it by one loop.  The functions below
are verbatim copies of the redex tests, redexes, apply and the recursive
position operations that this replaced, kept so that the pins compare the
new step with the code it must agree with: the same redex lists, the same
result node at every redex, and the same exception type and message at every
other position, valid or not.  They call the unchanged _rewrite_once and
_is_meet_of_atoms of bcd.rewrite; a Rule checks its own parameter when it
is built, so the copies take only complete rules.
"""

import random

from bcd import rewrite, syntax
from bcd.gen import random_expr
from bcd.rewrite import (
    ASSO,
    ASSO_INV,
    COMM,
    DIST,
    IDEM,
    MissingParameter,
    NotARedex,
    Rule,
    _is_meet_of_atoms,
    _rewrite_once,
    absp,
    dept,
)
from bcd.syntax import (
    ARROW_SOURCE,
    ARROW_TARGET,
    INFINITE_DEPTH,
    MEET_LEFT,
    MEET_RIGHT,
    Arrow,
    Atom,
    Expr,
    InvalidPosition,
    Meet,
    Position,
    node_count,
    subexpressions,
)

_AT = Atom("@")


# ---------------------------------------------------------------------------
# Verbatim copies (then in bcd.syntax; other tests read them as references)

def node_at(e: Expr, pos: Position) -> Expr:
    cur = e
    for step in pos:
        if isinstance(cur, Arrow) and step == ARROW_SOURCE:
            cur = cur.source
        elif isinstance(cur, Arrow) and step == ARROW_TARGET:
            cur = cur.target
        elif isinstance(cur, Meet) and step == MEET_LEFT:
            cur = cur.left
        elif isinstance(cur, Meet) and step == MEET_RIGHT:
            cur = cur.right
        else:
            raise InvalidPosition(f"step {step!r} does not apply at {cur!r}")
    return cur


def replace_at(e: Expr, pos: Position, replacement: Expr) -> Expr:
    if not pos:
        return replacement
    step, rest = pos[0], pos[1:]
    if isinstance(e, Arrow) and step == ARROW_SOURCE:
        return Arrow(replace_at(e.source, rest, replacement), e.target)
    if isinstance(e, Arrow) and step == ARROW_TARGET:
        return Arrow(e.source, replace_at(e.target, rest, replacement))
    if isinstance(e, Meet) and step == MEET_LEFT:
        return Meet(replace_at(e.left, rest, replacement), e.right)
    if isinstance(e, Meet) and step == MEET_RIGHT:
        return Meet(e.left, replace_at(e.right, rest, replacement))
    raise InvalidPosition(f"step {step!r} does not apply at {e!r}")


def ebb(e: Expr, pos: Position = ()) -> int:
    """Count of arrow nodes on the root-to-pos path, including the node at pos
    itself when that node is an arrow.

    Consequently ebb(c -> d, ()) == 1 and the ebb of an atom at the root is 0.
    Extending a position never decreases ebb.
    """
    at = node_at(e, pos)  # validates, raises InvalidPosition
    steps = sum(1 for step in pos if step in (ARROW_SOURCE, ARROW_TARGET))
    return steps + isinstance(at, Arrow)


# ---------------------------------------------------------------------------
# Verbatim copies (then in bcd.rewrite)

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


_AT_ARROW = Arrow(_AT, _AT)


def _dept_matches(sub: Expr, restricted: bool) -> bool:
    if sub is _AT:
        return False  # rewriting @ to @ is a trivial loop
    if not restricted:
        return True
    return _is_meet_of_atoms(sub) or sub is _AT_ARROW


def redexes(e: Expr, rule: Rule, restricted: bool = False) -> list:
    """All positions where the rule's left hand side matches, in preorder."""
    kind, n = rule.kind, rule.depth_param
    out = []
    # carry the arrow count above each node; a node's own ebb adds one more
    # when the node is an arrow
    stack = [((), e, 0)]
    while stack:
        pos, x, above = stack.pop()
        here = above + 1 if isinstance(x, Arrow) else above
        if kind == "dept":
            if here > n and _dept_matches(x, restricted):
                out.append(pos)
        elif _matches(kind, x, restricted):
            out.append(pos)
        if isinstance(x, Arrow):
            stack.append((pos + (ARROW_TARGET,), x.target, here))
            stack.append((pos + (ARROW_SOURCE,), x.source, here))
        elif isinstance(x, Meet):
            stack.append((pos + (MEET_RIGHT,), x.right, here))
            stack.append((pos + (MEET_LEFT,), x.left, here))
    return out


def apply(e: Expr, rule: Rule, pos: Position) -> Expr:
    """Rewrite the single occurrence at pos; raises NotARedex on a mismatch."""
    sub = node_at(e, pos)
    if rule.kind == "dept":
        if not (ebb(e, pos) > rule.depth_param and _dept_matches(sub, False)):
            raise NotARedex(f"dept does not apply at {pos!r}")
    elif not _matches(rule.kind, sub, False):
        raise NotARedex(f"{rule.kind} does not apply at {pos!r}")
    return replace_at(e, pos, _rewrite_once(rule, sub))


# ---------------------------------------------------------------------------
# Pins

def _outcome(fn, *args):
    """fn's result, or its exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:  # the type is compared, so none is hidden
        return type(exc), str(exc)


def _invalid_positions(rng: random.Random, e: Expr) -> list:
    """One step past two sampled nodes that does not apply there: a step of
    the other node kind, a step past an atom, a slot name that is no child,
    and steps that are no strings."""
    out = []
    for pos, x in rng.sample(subexpressions(e), min(2, node_count(e))):
        if isinstance(x, Arrow):
            wrong = (MEET_LEFT, MEET_RIGHT)
        elif isinstance(x, Meet):
            wrong = (ARROW_SOURCE, ARROW_TARGET)
        else:
            wrong = (ARROW_SOURCE, MEET_RIGHT, "name")
        for step in wrong + ("__dict__", 0, None, b"left", [ARROW_TARGET]):
            out.append(pos + (step,))
    return out


DEPTHS = (0, 1, 2, INFINITE_DEPTH)


class TestStepMatchesTheReplacedCode:
    def test_redexes_and_apply_on_seeded_expressions(self):
        rng = random.Random(1400)
        outcomes = {True: 0, False: 0}  # whether the position is a listed redex
        for _ in range(2000):
            e = random_expr(rng, rng.randint(1, 31), ("a", "b", "@"))
            positions = [pos for pos, _ in subexpressions(e)]
            w = random_expr(rng, rng.choice((1, 3)), ("a", "@"))
            for rule in (ASSO, ASSO_INV, COMM, IDEM, DIST, absp(w), *map(dept, DEPTHS)):
                for restricted in (False, True):
                    assert rewrite.redexes(e, rule, restricted) == redexes(e, rule, restricted)
                listed = set(redexes(e, rule))
                for pos in positions:
                    got, want = _outcome(rewrite.apply, e, rule, pos), _outcome(apply, e, rule, pos)
                    assert got is want or (isinstance(want, tuple) and got == want)
                    assert isinstance(want, tuple) is (pos not in listed)
                    outcomes[pos in listed] += 1
        assert min(outcomes.values()) > 10_000

    def test_positions_on_seeded_expressions(self):
        rng = random.Random(1401)
        invalid = 0
        for _ in range(2000):
            e = random_expr(rng, rng.randint(1, 31), ("a", "b", "@"))
            w = Atom(rng.choice(("a", "c")))
            for pos, _ in subexpressions(e):
                path = syntax._path(e, pos)
                assert path[-1] is node_at(e, pos)
                assert syntax._rebuild(path, pos, w) is replace_at(e, pos, w)
            for pos in _invalid_positions(rng, e):
                want = _outcome(node_at, e, pos)
                assert want[0] is InvalidPosition
                assert _outcome(syntax._path, e, pos) == want
                for rule in (IDEM, dept(0)):
                    assert _outcome(rewrite.apply, e, rule, pos) == _outcome(apply, e, rule, pos)
                invalid += 1
        assert invalid > 25_000

    def test_missing_parameters_come_first(self):
        # a rule without its parameter is refused when it is built, so no
        # step, valid position or not, ever sees one
        for build, arg in ((Rule, "absp"), (Rule, "dept"), (absp, None), (dept, None)):
            assert _outcome(build, arg)[0] is MissingParameter
