"""Intersection type expressions: finite binary trees of atoms, arrows, and meets.

Concrete syntax (ascii)::

    expr  := arrow
    arrow := meet ("->" arrow)?          # right associative
    meet  := prim ("&" prim)*            # left associated, binds tighter than ->
    prim  := ATOM | "(" expr ")"
    ATOM  := "@" | [a-z][a-zA-Z0-9_]*

Whitespace is insignificant.  "@" is an ordinary atom everywhere except the
depth-truncation rule and model construction, which use it as the placeholder
for discarded subexpressions.

Nodes are hash-consed: Atom, Arrow and Meet return the one live node of each
structure, so == and hash are identity, O(1) at any depth, and a cache filled
on one occurrence of a subtree serves every occurrence.  The intern table
keys an arrow or meet by its class and its two child nodes themselves, and
holds each node weakly; a key goes with its entry when the node dies, so the
table keeps alive no child that a live parent does not already hold, and a
lookup makes no integer.  Hash order thus follows allocation order; output
is ordered by rendering.
The constructors, and parse for each meet and arrow it closes, look the
live node up inline, so a hit costs no further Python frame.  A miss fills
the new node's slots through their member descriptors, past the immutable
__setattr__, and enters it through the one publish routine, _publish.

parse takes its tokens from one str.split, once one regex search has found
no character outside the grammar, and reads them in one for-loop over an
explicit stack of the open parenthesis groups.  render, to_json_obj, the
nodes' repr, atoms_of and the depth truncation dept_normal_form each run one
loop over an explicit stack too; one preorder walk, _preorder, gives each
position with its node and the arrows on its path, entering arrow sources
or not, to subexpressions, bcd.rewrite's redexes and bcd.gen's
random_strictly_positive_step; pickling, node_count and arrow_depth are one
fold, _fold, linear in distinct subterms; and bcd.rewrite's step walks its
position by one validated descent, _path, and rebuilds that path by one
loop, _rebuild, so no nesting depth reaches the recursion limit.
The truncation lives here, with the module's own @ atom, so that `bcd sat`
(equiv over two truncations) loads no rewriting code; the module imports
no json (the CLI dumps to_json_obj's objects itself).  render caches its
text on the node it was asked for and on no subterm: rendering a chain
keeps one string, not one per suffix, so its memory stays linear in the
text.  A subterm that was itself rendered earlier lends its cached text
whole.

Because a node is the one live copy of its structure, a value computed from
the node alone can be kept on it and serves every occurrence.  No such
node cache refers back to its node, so every node still dies by reference
counting.  They are render's _text; dept_normal_form's _dept, the last depth
asked and its truncation (True when that is the node itself);
bcd.decide.DecisionCache's _groups, the node's factor groups; and
bcd.rewrite's _slat and _members.

All values are immutable after construction and every operation here is pure,
so the module is safe for unsynchronized concurrent use.  Interning is too: a
table entry is added only where none exists and removed only once its node is
dead, so racing constructors of one structure all get the same node.
"""

from __future__ import annotations

import math
import re
import weakref
from operator import length_hint
from typing import Union

from _weakref import _remove_dead_weakref  # what WeakValueDictionary uses

TRUNCATION_ATOM = "@"
INFINITE_DEPTH = math.inf

# Position steps
ARROW_SOURCE = "source"
ARROW_TARGET = "target"
MEET_LEFT = "left"
MEET_RIGHT = "right"

Position = tuple  # tuple of step strings; () is the root


class ParseError(ValueError):
    """Malformed expression text; carries the byte offset and expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        self.offset = offset
        self.expected = frozenset(expected)
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class InvalidPosition(ValueError):
    """A position whose steps do not reach a node of the expression."""


# ---------------------------------------------------------------------------
# Interned nodes

_table: dict = {}  # (Atom, name) or (class, child, child) -> _Ref to the live node
_get = _table.get
_new = object.__new__


class _Ref(weakref.ref):
    __slots__ = ("key",)  # the table key, for the callback


def _forget(ref, _table=_table, _remove=_remove_dead_weakref):
    # Bound as defaults so that callbacks still run while globals are torn
    # down at exit.  The removal is atomic and drops the entry only if dead.
    _remove(_table, ref.key)


def _publish(key: tuple, node: "Expr") -> "Expr":
    """Enter a freshly built node under key; return the node that holds it."""
    mine = _Ref(node, _forget)
    mine.key = key
    while True:  # a live entry never changes; a dead one is dropped, then retried
        winner = _table.setdefault(key, mine)()
        if winner is not None:
            return winner
        _remove_dead_weakref(_table, key)


class _Node:
    __slots__ = ("__dict__", "__weakref__")  # __dict__ holds side caches only

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: expressions are immutable")

    __delattr__ = __setattr__

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):  # pickle re-interns through the constructors
        return _decode, (_encode(self),)

    def __repr__(self):
        """The constructor call that rebuilds the node, by one loop over an
        explicit stack of nodes and of finished text, so that a node nested
        past the recursion limit still has one (InvalidPosition quotes it)."""
        pieces = []
        stack = [self]
        while stack:
            x = stack.pop()
            if not isinstance(x, _Node):
                pieces.append(x)
                continue
            pieces.append(type(x).__name__ + "(")
            stack.append(")")
            fields = x.__slots__
            for k in range(len(fields) - 1, -1, -1):
                value = getattr(x, fields[k])
                stack.append(value if isinstance(value, _Node) else repr(value))
                if k:
                    stack.append(", ")
        return "".join(pieces)


class Atom(_Node):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        if not name:
            raise ValueError("atom name must be nonempty")
        key = (cls, name)
        ref = _get(key)
        node = None if ref is None else ref()
        if node is None:
            node = _new(cls)
            _set_name(node, name)
            node = _publish(key, node)
        return node


class Arrow(_Node):
    __slots__ = ("source", "target")

    def __new__(cls, source: "Expr", target: "Expr"):
        key = (cls, source, target)
        ref = _get(key)
        if ref is None or (node := ref()) is None:
            node = _new(cls)
            _set_source(node, source)
            _set_target(node, target)
            node = _publish(key, node)
        return node


class Meet(_Node):
    __slots__ = ("left", "right")

    def __new__(cls, left: "Expr", right: "Expr"):
        key = (cls, left, right)
        ref = _get(key)
        if ref is None or (node := ref()) is None:
            node = _new(cls)
            _set_left(node, left)
            _set_right(node, right)
            node = _publish(key, node)
        return node


# The slots' member descriptors set a field past _Node.__setattr__.
_set_name = Atom.name.__set__
_set_source, _set_target = Arrow.source.__set__, Arrow.target.__set__
_set_left, _set_right = Meet.left.__set__, Meet.right.__set__

Expr = Union[Atom, Arrow, Meet]


def _fold(e: Expr, combine):
    """The value of e, where each distinct subterm x has the value
    combine(x, v1, v2) of its operands' values (None, None for an atom), by
    one loop over an explicit stack, left operand first."""
    value, stack = {}, [e]
    while stack:
        x = stack[-1]
        if x in value:
            stack.pop()
        elif x.__class__ is Atom:
            value[stack.pop()] = combine(x, None, None)
        else:
            first, second = (x.source, x.target) if x.__class__ is Arrow else (x.left, x.right)
            if first in value and second in value:
                value[stack.pop()] = combine(x, value[first], value[second])
            else:
                stack += (second, first)
    return value[e]


def _encode(root: Expr) -> list:
    """The distinct nodes under root in postorder: an atom as its name, any
    other node as (class, child index, child index)."""
    out = []

    def entry(x, i, j):
        out.append(x.name if i is None else (x.__class__, i, j))
        return len(out) - 1

    _fold(root, entry)
    return out


def _decode(entries: list) -> Expr:
    nodes = []
    for e in entries:
        nodes.append(Atom(e) if isinstance(e, str) else e[0](nodes[e[1]], nodes[e[2]]))
    return nodes[-1]


# ---------------------------------------------------------------------------
# Parsing

_TOKEN = re.compile(r"->|[&()@]|[a-z][a-zA-Z0-9_]*")  # for error offsets only
_ATOM_NAME = re.compile(r"@|[a-z][a-zA-Z0-9_]*")  # a name that parse reads back
# The first character that no token starts or continues: a word character
# that does not follow one and is no lowercase letter starts no atom, and a
# '-' or '>' that is not half of "->" starts or continues no arrow.  Each
# branch starts by matching its character, which lets re skip ahead fast.
# It admits no whitespace but " \t\r\n", so str.split, which splits at any
# Unicode whitespace, splits parse's text only where the grammar does.
_LEXICAL_ERROR = re.compile(r"[^ \t\r\n&()@\w>-]|[A-Z0-9_](?<!\w\w)|-(?!>)|>(?<!->)", re.ASCII)


def _offset(text: str, k: int) -> int:
    """Offset of token k, or of the end of input for k past the last token."""
    for i, m in enumerate(_TOKEN.finditer(text)):
        if i == k:
            return m.start()
    return len(text)


def parse(text: str) -> Expr:
    """Parse the ascii grammar; raises ParseError with offset and expected set.

    Once _LEXICAL_ERROR has found no character that starts no token, the
    tokens are the words of the text with "(", ")", "->", "&" and "@"
    spaced out, by one str.split, and "" ends them.  One for-loop reads
    them, with an explicit stack of the open parenthesis groups, so the
    nesting depth costs no Python frames.  Its state is meet, the meet
    being read, which is None where a primary is wanted; a group holds the
    arrow sources read so far and left, the meet before the last "&".  Each
    meet and arrow is looked up in the intern table here, as its
    constructor would, and the call's atoms are kept by token, so a live
    subterm costs no Python call.  An error takes the failing token's index
    from what the iterator has left, and its offset from _offset.
    """
    bad = _LEXICAL_ERROR.search(text)
    if bad is not None:
        i = bad.start()
        if text[i] == "-":
            raise ParseError("stray '-'", i, ("'->'",))
        raise ParseError(f"unexpected character {text[i]!r}", i, ("atom", "'('", "'->'", "'&'"))
    toks = (
        text.replace("(", " ( ").replace(")", " ) ").replace("->", " -> ")
        .replace("&", " & ").replace("@", " @ ").split()
    )
    toks.append("")  # end of input
    it = iter(toks)
    atoms = {}  # token -> Atom, for this call only
    groups = []  # the enclosing groups' (sources, left)
    sources, left, meet = [], None, None
    for tok in it:
        if meet is None:  # a primary is wanted
            x = atoms.get(tok)
            if x is None:
                if tok == "(":
                    groups.append((sources, left))
                    sources, left = [], None
                    continue
                if tok in ("->", "&", ")", ""):
                    k = len(toks) - length_hint(it) - 1
                    raise ParseError("expected an expression", _offset(text, k), ("atom", "'('"))
                x = atoms[tok] = Atom(tok)
        elif tok == "->":
            sources.append(meet)
            left = meet = None
            continue
        elif tok == "&":
            left, meet = meet, None
            continue
        elif tok == ")" if groups else not tok:  # the meet closes a group or the input
            x = meet
            for s in reversed(sources):
                key = (Arrow, s, x)
                ref = _get(key)
                if ref is None or (node := ref()) is None:
                    node = _new(Arrow)
                    _set_source(node, s)
                    _set_target(node, x)
                    node = _publish(key, node)
                x = node
            if not groups:
                return x
            sources, left = groups.pop()
        else:
            k = len(toks) - length_hint(it) - 1
            if groups:
                raise ParseError("unclosed parenthesis", _offset(text, k), ("')'",))
            raise ParseError("trailing input", _offset(text, k), ("end of input",))
        if left is None:  # x is a complete primary
            meet = x
        else:
            key = (Meet, left, x)
            ref = _get(key)
            if ref is None or (meet := ref()) is None:
                meet = _new(Meet)
                _set_left(meet, left)
                _set_right(meet, x)
                meet = _publish(key, meet)


# ---------------------------------------------------------------------------
# Rendering

def _text(e: Expr) -> str:
    """The ascii text of e, by one loop over an explicit stack of nodes and
    of the strings between them.  A subterm whose text is cached is copied
    whole; nothing is cached here."""
    pieces = []
    stack = [e]
    while stack:
        x = stack.pop()
        if x.__class__ is str:
            pieces.append(x)
        elif x.__class__ is Atom:
            pieces.append(x.name)
        elif (cached := getattr(x, "_text", None)) is not None:
            pieces.append(cached)
        elif x.__class__ is Arrow:
            s = x.source
            stack.append(x.target)
            stack.append(" -> ")
            if s.__class__ is Arrow:
                stack += (")", s, "(")
            else:
                stack.append(s)
        else:
            left, right = x.left, x.right
            if right.__class__ is Atom:
                stack.append(right)
            else:
                stack += (")", right, "(")
            stack.append(" & ")
            if left.__class__ is Arrow:
                stack += (")", left, "(")
            else:
                stack.append(left)
    return "".join(pieces)


def to_json_obj(e: Expr) -> dict:
    """The JSON AST of e as nested dicts, one fresh dict per occurrence, by
    one loop over an explicit stack of (node, the dict it fills) pairs."""
    root = {}
    stack = [(e, root)]
    while stack:
        x, out = stack.pop()
        if isinstance(x, Atom):
            out["atom"] = x.name
            continue
        if isinstance(x, Arrow):
            kind, first, second = "arrow", x.source, x.target
        else:
            kind, first, second = "meet", x.left, x.right
        pair = out[kind] = [{}, {}]
        stack.append((second, pair[1]))
        stack.append((first, pair[0]))
    return root


def render(e: Expr) -> str:
    """Render with minimal parenthesization.

    parse(render(e)) == e for every expression.
    """
    text = getattr(e, "_text", None)
    if text is None:
        text = _text(e)
        object.__setattr__(e, "_text", text)
    return text


# ---------------------------------------------------------------------------
# Positions and structural queries

def _path(e: Expr, pos: Position) -> list:
    """The nodes along pos: e first, the node at pos last.  Each step string
    is the name of the slot that holds the child it leads to."""
    nodes = [e]
    for step in pos:
        cur = nodes[-1]
        if cur.__class__ is Atom or step not in cur.__slots__:
            raise InvalidPosition(f"step {step!r} does not apply at {cur!r}")
        nodes.append(getattr(cur, step))
    return nodes


def _rebuild(nodes: list, pos: Position, new: Expr) -> Expr:
    """The root of nodes = _path(e, pos) with new in place of the node at pos."""
    for x, step in zip(nodes[-2::-1], reversed(pos)):
        cls, (first, second) = x.__class__, x.__slots__
        if step == first:
            new = cls(new, getattr(x, second))
        else:
            new = cls(getattr(x, first), new)
    return new


def _preorder(e: Expr, sources: bool = True):
    """Yield (position, node, arrows on the path including the node's own)
    for every occurrence in e, in preorder, source and left operand first, by
    one loop over an explicit stack; with sources false, enter no arrow
    source.  A caller that keeps few of the positions holds few."""
    stack = [((), e, 0)]
    while stack:
        pos, x, above = stack.pop()
        if x.__class__ is Arrow:
            above += 1
            stack.append((pos + (ARROW_TARGET,), x.target, above))
            if sources:
                stack.append((pos + (ARROW_SOURCE,), x.source, above))
        elif x.__class__ is Meet:
            stack.append((pos + (MEET_RIGHT,), x.right, above))
            stack.append((pos + (MEET_LEFT,), x.left, above))
        yield pos, x, above


def subexpressions(e: Expr) -> list:
    """Depth-first preorder list of (position, subexpression) pairs.

    The whole expression is item 0 and every enclosing expression receives a
    lower index than its subexpressions.
    """
    return [(pos, x) for pos, x, _ in _preorder(e)]


def node_count(e: Expr) -> int:
    """The number of nodes of e as a tree, by one step per distinct subterm."""
    return _fold(e, lambda x, i, j: 1 if i is None else i + j + 1)


def atoms_of(e: Expr) -> frozenset:
    """The atom names of e, by one loop that walks each distinct subterm once."""
    names = set()
    seen = set()
    stack = [e]
    while stack:
        x = stack.pop()
        if x.__class__ is Atom:
            names.add(x.name)
        elif x not in seen:
            seen.add(x)
            if x.__class__ is Arrow:
                stack += (x.source, x.target)
            else:
                stack += (x.left, x.right)
    return frozenset(names)


def arrow_depth(e: Expr) -> int:
    """Maximum ebb over all positions, where the ebb of a position counts the
    arrows on its path, the node's own included; 0 iff the expression has
    no arrow.  One step per distinct subterm."""
    return _fold(e, lambda x, i, j: 0 if i is None else max(i, j) + (x.__class__ is Arrow))


_AT = Atom(TRUNCATION_ATOM)  # held here, so a truncation never looks it up


def dept_normal_form(e: Expr, n: int) -> Expr:
    """Outermost depth truncation: every maximal subexpression lying at
    ebb > n is replaced by @.

    The result has no position at ebb > n at all (so it is a dept normal
    form), and it is reachable from e by dept steps at the truncated
    positions.  One loop over an explicit stack of (node, arrows above it)
    entries, so no depth reaches the recursion limit; a subterm that the
    truncation leaves unchanged is returned as it is, without a lookup, and
    each other subterm's truncation is kept per arrow count for the call, so
    a shared subterm is walked once per count.  The answer is cached on e
    alone as _dept = (n, truncation), or (n, True) when the truncation is e,
    so asking e again at the same depth costs no walk and no node refers to
    itself.
    """
    if n == INFINITE_DEPTH:
        return e
    if n < 0:
        raise ValueError("depth must be a natural number")
    cached = e.__dict__.get("_dept")
    if cached is not None and cached[0] == n:
        t = cached[1]
        return e if t is True else t
    done = []  # truncated subterms, in postorder
    memo = {}  # (node, arrows above it) -> its truncation
    stack = [e, 0]  # flat pairs; a negative count ~above rebuilds the node
    while stack:
        above = stack.pop()
        x = stack.pop()
        cls = x.__class__
        if above < 0:  # both children are done
            y = done.pop()
            w = done.pop()
            if cls is Arrow:
                t = x if w is x.source and y is x.target else Arrow(w, y)
            else:
                t = x if w is x.left and y is x.right else Meet(w, y)
            memo[x, ~above] = t
            done.append(t)
        elif cls is Atom:
            done.append(x)
        elif cls is Arrow:
            if above >= n:
                done.append(_AT)
            elif x.source.__class__ is Atom and x.target.__class__ is Atom:
                done.append(x)
            elif (t := memo.get((x, above))) is not None:
                done.append(t)
            else:
                stack += (x, ~above, x.target, above + 1, x.source, above + 1)
        elif x.left.__class__ is Atom and x.right.__class__ is Atom:
            done.append(x)
        elif (t := memo.get((x, above))) is not None:
            done.append(t)
        else:
            stack += (x, ~above, x.right, above, x.left, above)
    t = done[0]
    e.__dict__["_dept"] = (n, True if t is e else t)
    return t
