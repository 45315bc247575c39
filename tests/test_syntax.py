import copy
import gc
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given

from bcd import syntax
from bcd.decide import (
    DecisionCache,
    dist_normal_form,
    equiv,
    explain,
    factor_groups,
    satisfies_eq,
    sorted_groups,
)
from bcd.gen import random_expr
from bcd.model import build_model
from bcd.rewrite import Verdict, convertible_bounded, prune, slat_canonical, witness_pool
from bcd.syntax import (
    ARROW_SOURCE,
    ARROW_TARGET,
    MEET_LEFT,
    MEET_RIGHT,
    Arrow,
    Atom,
    InvalidPosition,
    Meet,
    ParseError,
    arrow_depth,
    atoms_of,
    node_count,
    parse,
    render,
    rendered_length,
    subexpressions,
    to_json_obj,
)

from conftest import alarm, big_expr_strategy, expr_strategy
from test_step_reference import ebb, node_at

A, B, C = Atom("a"), Atom("b"), Atom("c")


class TestParse:
    def test_single_atom(self):
        assert parse("p") == Atom("p")

    def test_at_atom(self):
        assert parse("@") == Atom("@")

    def test_precedence_meet_tighter(self):
        assert parse("a -> b & c") == Arrow(A, Meet(B, C))

    def test_weak_distributive_left_side(self):
        assert parse("(c->a) & (c->b)") == Meet(Arrow(C, A), Arrow(C, B))

    def test_arrow_right_associative(self):
        assert parse("a -> b -> c") == Arrow(A, Arrow(B, C))

    def test_meet_left_associated(self):
        assert parse("a & b & c") == Meet(Meet(A, B), C)

    def test_meet_in_arrow_source(self):
        assert parse("a & b -> c") == Arrow(Meet(A, B), C)

    def test_whitespace_insignificant(self):
        assert parse(" a&b->c ") == parse("a & b -> c")

    def test_identifier_atoms(self):
        assert parse("foo_1 -> bar") == Arrow(Atom("foo_1"), Atom("bar"))

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("", 0),
            ("a ->", 4),
            ("a -> ", 5),
            ("(a -> b", 7),
            ("a b", 2),
            ("a -> (b &)", 9),
            ("A", 0),
            ("a - b", 2),
        ],
    )
    def test_errors_carry_offsets(self, text, offset):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.offset == offset
        assert info.value.expected

    def test_error_expected_set(self):
        with pytest.raises(ParseError) as info:
            parse("a &")
        assert "atom" in info.value.expected


# ---------------------------------------------------------------------------
# Reference copies of the recursive-descent parser and the recursive renderer
# that parse and render replaced, kept verbatim so that the fuzz pin below
# compares the loops against the code they must agree with.

_ATOM_HEAD = set("abcdefghijklmnopqrstuvwxyz")
_ATOM_TAIL = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _tokenize(text: str) -> list:
    """Return (kind, value, offset) triples; kinds: atom, arrow, meet, lparen, rparen, end."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
        elif c == "@":
            toks.append(("atom", "@", i))
            i += 1
        elif c in _ATOM_HEAD:
            j = i + 1
            while j < n and text[j] in _ATOM_TAIL:
                j += 1
            toks.append(("atom", text[i:j], i))
            i = j
        elif c == "-":
            if i + 1 < n and text[i + 1] == ">":
                toks.append(("arrow", "->", i))
                i += 2
            else:
                raise ParseError("stray '-'", i, ("'->'",))
        elif c == "&":
            toks.append(("meet", "&", i))
            i += 1
        elif c == "(":
            toks.append(("lparen", "(", i))
            i += 1
        elif c == ")":
            toks.append(("rparen", ")", i))
            i += 1
        else:
            raise ParseError(
                f"unexpected character {c!r}", i, ("atom", "'('", "'->'", "'&'")
            )
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, toks: list):
        self.toks = toks
        self.i = 0

    def peek(self) -> tuple:
        return self.toks[self.i]

    def advance(self) -> tuple:
        t = self.toks[self.i]
        self.i += 1
        return t

    def arrow(self):
        left = self.meet()
        if self.peek()[0] == "arrow":
            self.advance()
            return Arrow(left, self.arrow())
        return left

    def meet(self):
        e = self.prim()
        while self.peek()[0] == "meet":
            self.advance()
            e = Meet(e, self.prim())
        return e

    def prim(self):
        kind, value, offset = self.peek()
        if kind == "atom":
            self.advance()
            return Atom(value)
        if kind == "lparen":
            self.advance()
            e = self.arrow()
            kind2, _, offset2 = self.peek()
            if kind2 != "rparen":
                raise ParseError("unclosed parenthesis", offset2, ("')'",))
            self.advance()
            return e
        raise ParseError("expected an expression", offset, ("atom", "'('"))


def _reference_parse(text: str):
    """Parse the ascii grammar; raises ParseError with offset and expected set."""
    p = _Parser(_tokenize(text))
    e = p.arrow()
    kind, _, offset = p.peek()
    if kind != "end":
        raise ParseError("trailing input", offset, ("end of input",))
    return e


def _body(e) -> str:
    # Un-parenthesized rendering, cached on the node; parenthesization is a
    # purely local decision made by _wrap.
    b = e.__dict__.get("_body")
    if b is None:
        if isinstance(e, Atom):
            b = e.name
        elif isinstance(e, Arrow):
            b = _wrap(e.source, "arrow_source") + " -> " + _wrap(e.target, "top")
        else:
            b = _wrap(e.left, "meet_left") + " & " + _wrap(e.right, "meet_right")
        object.__setattr__(e, "_body", b)
    return b


def _wrap(e, ctx: str) -> str:
    # ctx is one of "top", "arrow_source", "meet_left", "meet_right"; arrow
    # targets behave like "top" because -> is right associative.
    b = _body(e)
    if isinstance(e, Arrow) and ctx != "top":
        return "(" + b + ")"
    if isinstance(e, Meet) and ctx == "meet_right":
        return "(" + b + ")"
    return b


def _reference_render(e) -> str:
    return _body(e)


_SOUP = ("a", "b", "foo_1", "@", "->", "&", "(", ")", " ", "\t", "\n",
         "-", ">", "A", "_", "9", "\u00e9", "\x0b")


def _fuzz_text(rng: random.Random) -> str:
    """A rendered expression, a perturbed one, or random token soup."""
    kind = rng.randrange(3)
    if kind == 2:
        return "".join(rng.choice(_SOUP) for _ in range(rng.randrange(12)))
    text = render(random_expr(rng, rng.randrange(1, 24, 2), ("a", "b", "c", "@")))
    if kind == 1:
        for _ in range(rng.randrange(1, 3)):
            i = rng.randrange(len(text) + 1)
            cut = rng.randrange(3)
            text = text[:i] + rng.choice(_SOUP) * rng.randrange(2) + text[i + cut:]
    return text


def _outcome(fn, text):
    try:
        return fn(text)
    except ParseError as exc:
        return str(exc), exc.offset, exc.expected


class TestAgainstReference:
    def test_fuzzed_texts_match_the_recursive_descent(self):
        rng = random.Random(8)
        kinds = {}
        for _ in range(50_000):
            text = _fuzz_text(rng)
            got, want = _outcome(parse, text), _outcome(_reference_parse, text)
            if isinstance(want, tuple):
                assert got == want, text
                message = want[0].split(" at offset ")[0]
                kinds[message] = kinds.get(message, 0) + 1
            else:
                assert got is want, text
                assert render(got) == _reference_render(got)
                kinds["ok"] = kinds.get("ok", 0) + 1
        chars = ("-", ">", "A", "_", "9", "\u00e9", "\x0b")
        assert "stray '-'" in kinds
        for c in chars[1:]:
            assert f"unexpected character {c!r}" in kinds
        for message in ("trailing input", "unclosed parenthesis", "expected an expression", "ok"):
            assert kinds[message] > 100
        assert _outcome(parse, "") == _outcome(_reference_parse, "")

    def test_unicode_whitespace_is_no_separator(self):
        # str.split() would split at these; the grammar's whitespace is " \t\r\n" only.
        spaces = [chr(i) for i in range(sys.maxunicode + 1)
                  if chr(i).isspace() and chr(i) not in " \t\r\n"]
        assert {"\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u3000"} <= set(spaces)
        for c in spaces:
            want = _outcome(_reference_parse, "a" + c + "b")
            assert isinstance(want, tuple), repr(c)
            assert _outcome(parse, "a" + c + "b") == want, repr(c)

    @given(big_expr_strategy())
    def test_render_matches_the_recursive_renderer(self, e):
        assert render(e) == _reference_render(e)


class TestDeepInput:
    """parse and render run in one loop each, so nesting costs no frames."""

    @pytest.mark.parametrize(
        "text,parsed",
        [
            ("(" * 100_000 + "a" + ")" * 100_000, "a"),
            (" -> ".join(["a"] * 100_001), None),
            ("(" * 99_999 + "a" + " -> a)" * 99_999 + " -> a", None),
            ("a & (" * 99_999 + "a & a" + ")" * 99_999, None),
        ],
        ids=["parens", "chain", "source-chain", "right-meets"],
    )
    def test_round_trip_at_a_low_recursion_limit(self, text, parsed):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            e = parse(text)
            rendered = render(e)
            assert rendered == (text if parsed is None else parsed)
            assert parse(rendered) is e
        finally:
            sys.setrecursionlimit(limit)

    def test_rendering_a_chain_keeps_no_subterm_text(self):
        e = Atom("render_memory")
        for _ in range(3000):
            e = Arrow(Atom("render_memory"), e)
        tracemalloc.start()
        try:
            text = render(e)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(text) == 3000 * len(" -> render_memory") + len("render_memory")
        assert peak < 1_000_000


class TestRender:
    def test_atom(self):
        assert render(Atom("@")) == "@"

    def test_arrow_over_meet(self):
        assert render(Arrow(A, Meet(B, C))) == "a -> b & c"

    def test_meet_of_arrows_parenthesized(self):
        assert render(Meet(Arrow(C, A), Arrow(C, B))) == "(c -> a) & (c -> b)"

    def test_right_meet_parenthesized(self):
        assert render(Meet(A, Meet(B, C))) == "a & (b & c)"
        assert render(Meet(Meet(A, B), C)) == "a & b & c"

    def test_nested_arrow_source(self):
        assert render(Arrow(Arrow(A, B), C)) == "(a -> b) -> c"
        assert render(Arrow(A, Arrow(B, C))) == "a -> b -> c"

    def test_json_format(self):
        obj = json.loads(json.dumps(to_json_obj(Arrow(A, Meet(B, C)))))
        assert obj == {"arrow": [{"atom": "a"}, {"meet": [{"atom": "b"}, {"atom": "c"}]}]}

    @given(big_expr_strategy())
    def test_round_trip(self, e):
        assert parse(render(e)) == e

    @given(expr_strategy())
    def test_json_round_trip(self, e):
        assert _reference_from_json_obj(json.loads(json.dumps(to_json_obj(e)))) == e


class TestRenderedLength:
    """rendered_length is the length of each text before it is written, by
    one step per distinct subterm."""

    @given(big_expr_strategy(("a", "bc", "d_9X", "@")))
    def test_each_fold_is_the_length_of_its_text(self, e):
        assert rendered_length(e) == len(render(e))
        assert rendered_length(e, as_json=True) == len(json.dumps(to_json_obj(e)))

    def test_shared_subterms_are_measured_once(self):
        e, length = parse("(a -> b) & (a -> b)"), len("(a -> b) & (a -> b)")
        for _ in range(63):  # the left copy bare, the right in parentheses
            e, length = Meet(e, e), 2 * length + len(" & ()")
        with alarm(10, "rendered_length walks a shared subterm once per copy"):
            assert rendered_length(e) == length


class TestSubexpressions:
    def test_atom(self):
        assert subexpressions(Atom("p")) == [((), Atom("p"))]

    def test_arrow_preorder(self):
        e = Arrow(A, B)
        assert subexpressions(e) == [
            ((), e),
            ((ARROW_SOURCE,), A),
            ((ARROW_TARGET,), B),
        ]

    def test_meet_first(self):
        e = Meet(A, B)
        seq = subexpressions(e)
        assert len(seq) == 3
        assert seq[0] == ((), e)

    @given(expr_strategy())
    def test_every_node_once_parents_earlier(self, e):
        seq = subexpressions(e)
        assert len(seq) == node_count(e)
        index = {pos: i for i, (pos, _) in enumerate(seq)}
        assert len(index) == len(seq)
        for pos, sub in seq:
            assert node_at(e, pos) == sub
            if pos:
                assert index[pos[:-1]] < index[pos]


class TestArrowDepth:
    def test_no_arrows(self):
        assert arrow_depth(parse("p & q")) == 0

    def test_single_arrow(self):
        assert arrow_depth(parse("c -> d")) == 1

    def test_nested_source(self):
        assert arrow_depth(parse("(a -> b) -> c")) == 2

    @given(expr_strategy())
    def test_equals_max_ebb(self, e):
        assert arrow_depth(e) == max(ebb(e, pos) for pos, _ in subexpressions(e))

    @given(expr_strategy(), expr_strategy())
    def test_structural_identities(self, x, y):
        assert arrow_depth(Meet(x, y)) == max(arrow_depth(x), arrow_depth(y))
        assert arrow_depth(Arrow(x, y)) == 1 + max(arrow_depth(x), arrow_depth(y))


class TestStructure:
    def test_atom_name_nonempty(self):
        with pytest.raises(ValueError):
            Atom("")

    def test_structural_equality_not_modulo_theory(self):
        assert Meet(A, B) != Meet(B, A)
        assert Meet(Meet(A, B), C) != Meet(A, Meet(B, C))

    def test_atoms_of(self):
        assert atoms_of(parse("a -> (b & a) -> @")) == frozenset({"a", "b", "@"})


def _chain(n: int):
    e = Atom("a")
    for _ in range(n):
        e = Arrow(Atom("a"), e)
    return e


def _tree(rng: random.Random, size: int, atoms) -> tuple:
    # A plain nested-tuple tree, so no node exists before _build runs.
    if size <= 1:
        return rng.choice(atoms)
    left = rng.randrange(1, size - 1, 2) if size > 2 else 1
    kind = rng.choice(("->", "&"))
    return (kind, _tree(rng, left, atoms), _tree(rng, size - 1 - left, atoms))


class _Gone:
    pass


def _build(t):
    if isinstance(t, str):
        return Atom(t)
    kind, x, y = t
    return (Arrow if kind == "->" else Meet)(_build(x), _build(y))


SRC = str(Path(__file__).resolve().parent.parent / "src")

_HELD_PER_ENTRY = """
import sys, tracemalloc
from bcd import syntax
text = sys.stdin.read()
before = len(syntax._table)
tracemalloc.start()
e = syntax.parse(text)
held = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
print(syntax.node_count(e), held / (len(syntax._table) - before))
"""


class TestInterning:
    @given(big_expr_strategy())
    def test_parse_is_identity(self, e):
        text = render(e)
        assert parse(text) is parse(text) is e

    @given(expr_strategy())
    def test_json_round_trip_is_identity(self, e):
        assert _reference_from_json_obj(to_json_obj(e)) is e

    def test_constructors_return_the_parsed_node(self):
        assert Arrow(A, Meet(B, C)) is parse("a -> b & c")
        assert Meet(Meet(A, B), C) is parse("a & b & c")
        assert Atom("a") is A

    def test_distinct_structures_are_distinct(self):
        assert Meet(A, B) is not Meet(B, A)
        assert Arrow(A, B) is not Meet(A, B)

    @pytest.mark.parametrize("text,field", [("a", "name"), ("a -> b", "source"), ("a & b", "right")])
    def test_assignment_raises(self, text, field):
        e = parse(text)
        with pytest.raises(AttributeError):
            setattr(e, field, A)
        with pytest.raises(AttributeError):
            e.extra = A
        with pytest.raises(AttributeError):
            delattr(e, field)
        assert e is parse(text)

    @given(expr_strategy())
    def test_pickle_and_copy_return_the_same_node(self, e):
        assert pickle.loads(pickle.dumps(e)) is e
        assert copy.copy(e) is e
        assert copy.deepcopy(e) is e

    def test_separately_built_deep_chains_are_one_object(self):
        x = _chain(100_000)
        y = _chain(100_000)
        assert x is y
        assert x == y

    def test_deep_chain_pickles_and_copies_without_recursion(self):
        x = _chain(100_000)
        assert pickle.loads(pickle.dumps(x)) is x
        assert copy.copy(x) is x
        assert copy.deepcopy(x) is x
        assert copy.deepcopy([x, x.target])[1] is x.target

    def test_pickle_keeps_shared_subterms_shared(self):
        x = A
        for _ in range(200):
            x = Meet(x, x)  # 2^201 - 1 nodes as a tree, 201 distinct
        assert len(pickle.dumps(x)) < 10_000
        assert pickle.loads(pickle.dumps(x)) is x

    @pytest.mark.parametrize("normalize", [False, True], ids=["plain", "normalized"])
    def test_unreferenced_expression_dies_in_one_collection(self, normalize):
        rng = random.Random(7)
        e = _build(_tree(rng, 20_001, ("weak_a", "weak_b", "weak_c")))
        assert node_count(e) == 20_001
        if normalize:
            slat_canonical(e)
            prune(e)
        refs = [weakref.ref(x) for _, x in subexpressions(e)]
        del e
        gc.collect()
        assert sum(r() is not None for r in refs) == 0

    def test_dead_entry_is_replaced(self):
        # A node that died but whose table entry is not yet dropped, as seen
        # by a builder racing with the dying node's weakref callback.
        key = (Atom, "dead_entry")
        gone = _Gone()
        syntax._table[key] = weakref.ref(gone)
        del gone
        a = Atom("dead_entry")
        assert a.name == "dead_entry"
        assert Atom("dead_entry") is a
        assert syntax._table[key]() is a

    def test_racing_threads_get_one_object_per_structure(self):
        rng = random.Random(11)
        trees = [_tree(rng, rng.randrange(1, 60, 2), ("race_a", "race_b")) for _ in range(500)]
        barrier = threading.Barrier(4)
        results = [None] * 4

        def work(k):
            barrier.wait(timeout=60)
            results[k] = [_build(t) for t in trees]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for built in zip(*results):
            assert all(x is built[0] for x in built)
        assert len({id(x) for x in results[0]}) == len(set(trees))

    def test_racing_parsers_get_one_object_per_structure(self):
        rng = random.Random(12)
        trees = [_tree(rng, rng.randrange(1, 60, 2), ("prace_a", "prace_b")) for _ in range(500)]
        texts = [_tree_text(t) for t in trees]
        barrier = threading.Barrier(4)
        results = [None] * 4

        def work(k):
            barrier.wait(timeout=60)
            results[k] = [parse(text) for text in texts]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for parsed in zip(*results):
            assert all(x is parsed[0] for x in parsed)
        assert len({id(x) for x in results[0]}) == len(set(trees))
        assert all(x is _build(t) for x, t in zip(results[0], trees))

    def test_parse_replaces_a_dead_meet_entry(self):
        a, b = Atom("pdead_a"), Atom("pdead_b")
        key = (Meet, a, b)
        gone = _Gone()
        syntax._table[key] = weakref.ref(gone)
        del gone
        m = parse("pdead_a & pdead_b")
        assert m.left is a and m.right is b
        assert syntax._table[key]() is m
        assert Meet(a, b) is m

    def test_keys_hold_the_child_nodes(self):
        rng = random.Random(29)
        e = parse(_tree_text(_tree(rng, 2_001, ("key_a", "key_b", "key_c"))))
        seen, stack = set(), [e, slat_canonical(e), prune(e)]
        while stack:
            x = stack.pop()
            if x.__class__ is Atom or x in seen:
                continue
            seen.add(x)
            children = tuple(getattr(x, f) for f in x.__slots__)
            ref = syntax._table.get((type(x), *children))
            assert ref is not None and ref() is x, "a live node is not under its children"
            stack += children
        assert len(seen) > 1_000
        assert not any(isinstance(part, int) for key in list(syntax._table) for part in key)

    def test_a_parsed_entry_holds_under_320_bytes(self):
        # The bytes that a 100,001-node parse holds per new table entry: the
        # node, its weak reference, its key and the table's own growth.  A
        # fresh interpreter grows the table the same way on every run.  Keys
        # of two child ids held two ints more, about 363 bytes.
        text = _tree_text(_tree(random.Random(31), 100_001, ("mem_a", "mem_b", "mem_c")))
        proc = subprocess.run(
            [sys.executable, "-c", _HELD_PER_ENTRY],
            input=text,
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        nodes, per_entry = proc.stdout.split()
        assert int(nodes) == 100_001
        assert float(per_entry) < 320, per_entry

    def test_parsed_expression_dies_and_leaves_the_table_as_it_was(self):
        rng = random.Random(13)
        text = _tree_text(_tree(rng, 20_001, ("pweak_a", "pweak_b", "pweak_c")))
        gc.collect()
        before = len(syntax._table)
        e = parse(text)
        assert node_count(e) == 20_001
        refs = [weakref.ref(x) for _, x in subexpressions(e)]
        del e
        gc.collect()
        assert sum(r() is not None for r in refs) == 0
        assert len(syntax._table) == before

    def test_built_nodes_die_without_a_collection(self, monkeypatch):
        # No node cache refers back to its node, so every node that a parse,
        # the normal forms, prune and the search build dies by reference
        # counting alone.
        built = []
        publish = syntax._publish

        def recording(key, node):
            node = publish(key, node)
            built.append(weakref.ref(node))
            return node

        monkeypatch.setattr(syntax, "_publish", recording)
        rng = random.Random(19)
        text = _tree_text(_tree(rng, 4_001, ("rc_a", "rc_b", "rc_c")))  # 2,001 leaves
        gc.collect()
        before = len(syntax._table)
        enabled = gc.isenabled()
        gc.disable()
        try:
            e = parse(text)
            results = [slat_canonical(e), prune(e), dist_normal_form(e)]
            a = parse("(rc_a -> rc_b) & (rc_c -> rc_a)")
            b = parse("(rc_a & rc_c) -> (rc_b & rc_a)")
            assert not equiv(a, b)
            assert convertible_bounded(a, b, budget=15) is Verdict.UNKNOWN
            assert len(built) > 4_001
            del e, results, a, b
            assert sum(r() is not None for r in built) == 0
            assert len(syntax._table) == before
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_decided_nodes_die_without_a_collection(self, monkeypatch):
        # The node caches that deciding fills, each node's factor groups and
        # last truncation, hold only other nodes, so every node that
        # satisfies_eq, class_index and explain ask about or build dies by
        # reference counting alone, and so does the model's carrier.
        built = []
        publish = syntax._publish

        def recording(key, node):
            node = publish(key, node)
            built.append(weakref.ref(node))
            return node

        monkeypatch.setattr(syntax, "_publish", recording)
        rng = random.Random(23)
        sizes = [2 * rng.randint(1, 20) + 1 for _ in range(60)]
        texts = [_tree_text(_tree(rng, n, ("dd_a", "@"))) for n in sizes]
        gc.collect()
        before = len(syntax._table)
        enabled = gc.isenabled()
        gc.disable()
        try:
            model = build_model(["@", "dd_a"], 1)
            cache = DecisionCache()
            for k in range(0, len(texts), 2):
                a, b = parse(texts[k]), parse(texts[k + 1])
                for n in (2, 0, 1):
                    same = satisfies_eq(n, a, b)
                assert (model.class_index(a) == model.class_index(b)) == same
                assert cache.explain(a, b)["holds"] == cache.subseteq(a, b)
            assert len(built) > 200
            del model, cache, a, b
            assert sum(r() is not None for r in built) == 0
            assert len(syntax._table) == before
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("first", ["parse", "build"])
    def test_one_publication_per_new_subterm(self, monkeypatch, first):
        published = []
        publish = syntax._publish

        def counting(key, node):
            published.append(key)
            return publish(key, node)

        monkeypatch.setattr(syntax, "_publish", counting)
        atoms = tuple(f"{first}_count_{c}" for c in "abc")
        tree = _tree(random.Random(14), 301, atoms)
        text = _tree_text(tree)
        e = parse(text) if first == "parse" else _build(tree)
        assert len(published) == len(_distinct_subtrees(tree))
        published.clear()
        assert parse(text) is e
        assert _build(tree) is e
        assert published == []


def _tree_text(t) -> str:
    if isinstance(t, str):
        return t
    kind, x, y = t
    return f"({_tree_text(x)} {kind} {_tree_text(y)})"


def _distinct_subtrees(t) -> set:
    seen, stack = set(), [t]
    while stack:
        x = stack.pop()
        if x not in seen:
            seen.add(x)
            if not isinstance(x, str):
                stack += x[1:]
    return seen


def _outputs(texts: list) -> list:
    out = []
    for a_text, b_text in zip(texts, texts[1:]):
        a, b = parse(a_text), parse(b_text)
        out.append(render(slat_canonical(a)))
        out.append(render(prune(a)))
        out.append([t for pairs in sorted_groups(factor_groups(a)).values() for t, _ in pairs])
        out.append(sorted({render(slat_canonical(w)) for w in witness_pool(a, b)}))
        out.append(json.dumps(explain(a, b)))
    return out


class TestDeterminism:
    def test_outputs_independent_of_allocation_order(self):
        rng = random.Random(5)
        atoms = ("det_a", "det_b", "det_c")
        texts = [render(random_expr(rng, rng.randrange(5, 40), atoms)) for _ in range(40)]
        before = _outputs(texts)
        gc.collect()
        pool_trees = [_tree(rng, rng.randrange(1, 40, 2), atoms) for _ in range(2000)]
        rng.shuffle(pool_trees)
        pool = [_build(t) for t in pool_trees]
        after = _outputs(texts)
        assert pool
        assert json.dumps(after).encode() == json.dumps(before).encode()


def _recursive_dept_normal_form(e, n):
    """Verbatim copy of the recursive truncation that dept_normal_form
    replaced (then in bcd.rewrite), kept as its reference."""
    _AT = Atom("@")
    INFINITE_DEPTH = syntax.INFINITE_DEPTH
    if n == INFINITE_DEPTH:
        return e
    if n < 0:
        raise ValueError("depth must be a natural number")

    def go(x, above: int):
        if isinstance(x, Atom):
            return x
        if isinstance(x, Arrow):
            if above + 1 > n:
                return _AT
            return Arrow(go(x.source, above + 1), go(x.target, above + 1))
        return Meet(go(x.left, above), go(x.right, above))

    return go(e, 0)


class TestDeptNormalFormLoop:
    """dept_normal_form is one loop over an explicit stack."""

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_same_node_as_the_recursive_reference(self, n):
        rng = random.Random(4100 + n)
        for _ in range(3000):
            e = random_expr(rng, rng.randint(1, 199), ("a", "b", "@"))
            assert syntax.dept_normal_form(e, n) is _recursive_dept_normal_form(e, n)

    def test_one_node_asked_at_shuffled_depths(self):
        # the node keeps only its last answer, so every depth, asked in any
        # order and asked again, is still the uncached truncation
        rng = random.Random(4200)
        for _ in range(300):
            e = random_expr(rng, rng.randint(1, 199), ("a", "b", "@"))
            depths = [0, 1, 2, 3] * 2
            rng.shuffle(depths)
            for n in depths:
                assert syntax.dept_normal_form(e, n) is _recursive_dept_normal_form(e, n)
                assert e.__dict__["_dept"][0] == n

    def test_depth_checks(self):
        e = parse("a -> b")
        assert syntax.dept_normal_form(e, syntax.INFINITE_DEPTH) is e
        with pytest.raises(ValueError):
            syntax.dept_normal_form(e, -1)

    @staticmethod
    def _at_default_limit(fn, *args):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            return fn(*args)
        finally:
            sys.setrecursionlimit(limit)

    def test_deep_arrow_chain(self):
        chain = A
        for _ in range(100_000):
            chain = Arrow(A, chain)
        nf = syntax.dept_normal_form
        assert self._at_default_limit(nf, chain, 2) is Arrow(A, Arrow(A, Atom("@")))
        assert self._at_default_limit(nf, chain, 100_000) is chain
        assert self._at_default_limit(nf, chain, 99_999) is not chain

    def test_deep_meet_spine(self):
        member, truncated = parse("a -> b -> c"), parse("a -> @")
        spine, expected = member, truncated
        for _ in range(100_000):
            spine, expected = Meet(spine, member), Meet(expected, truncated)
        nf = syntax.dept_normal_form
        assert self._at_default_limit(nf, spine, 1) is expected
        assert self._at_default_limit(nf, spine, 2) is spine


_at_limit_1000 = TestDeptNormalFormLoop._at_default_limit


class TestArrowDepthLoop:
    """arrow_depth is one loop over an explicit stack, memoized per call."""

    def test_deep_arrow_chain(self):
        chain = A
        for _ in range(100_000):
            chain = Arrow(A, chain)
        assert _at_limit_1000(arrow_depth, chain) == 100_000

    def test_deep_meet_spine(self):
        member = parse("a -> b -> c")
        spine = member
        for _ in range(100_000):
            spine = Meet(spine, member)
        assert _at_limit_1000(arrow_depth, spine) == 2

    def test_shared_subterms_are_walked_once(self):
        # 2^64 copies of the member as a tree, 64 meets as a DAG: a walk that
        # visited every copy would not end, so an alarm stops it
        e = parse("a -> (b & (c -> d))")
        for _ in range(64):
            e = Meet(e, e)

        def stop(signum, frame):
            raise TimeoutError("arrow_depth walks a shared subterm once per copy")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 10)
        try:
            assert arrow_depth(e) == 2
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class TestNodeCountLoop:
    """node_count is the tree count, by one step per distinct subterm."""

    def test_shared_subterms_are_counted_once(self):
        # 2^66 - 1 nodes as a tree, 66 distinct subterms as a DAG: a walk
        # that visited every copy would not end, so an alarm stops it
        e = parse("a -> b")
        for _ in range(64):
            e = Meet(e, e)
        with alarm(10, "node_count walks a shared subterm once per copy"):
            assert node_count(e) == 2**66 - 1


def _reference_strictly_positive_atom_positions(e):
    """The definition: the atom positions in the preorder of subexpressions
    with no arrow-source step."""
    return [pos for pos, x in subexpressions(e) if isinstance(x, Atom) and ARROW_SOURCE not in pos]


def _strictly_positive_atom_positions(e):
    """The atom positions of the preorder walk that enters no arrow source,
    as bcd.gen's random_strictly_positive_step reads it."""
    return [pos for pos, x, _ in syntax._preorder(e, sources=False) if x.__class__ is Atom]


class TestStrictlyPositiveAtomPositions:
    """The preorder walk with sources false never enters an arrow source, so
    a source costs no memory however large or shared it is."""

    def test_matches_the_definition(self):
        rng = random.Random(18)
        found = 0
        for _ in range(2000):
            e = random_expr(rng, rng.randint(1, 41))
            want = _reference_strictly_positive_atom_positions(e)
            assert _strictly_positive_atom_positions(e) == want
            found += len(want) > 1
        assert found > 500

    @staticmethod
    def _peak(e):
        """_strictly_positive_atom_positions(e) and its peak traced memory."""
        tracemalloc.start()
        try:
            out = _strictly_positive_atom_positions(e)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, peak

    def test_shared_source_is_not_entered(self):
        # the source holds 2^16 copies of a as a tree: a walk that entered
        # it would keep 2^17 - 1 positions, about 10 MB
        source = A
        for _ in range(16):
            source = Meet(source, source)
        out, peak = self._peak(Arrow(source, A))
        assert out == [(ARROW_TARGET,)]
        assert peak < 100_000

    def test_deep_source_is_not_entered(self):
        # positions inside a 3,000-deep left-nested source would hold about
        # 4.5 * 10^6 steps in all, about 36 MB
        source = A
        for _ in range(3000):
            source = Arrow(source, B)
        out, peak = self._peak(Arrow(source, A))
        assert out == [(ARROW_TARGET,)]
        assert peak < 100_000


def _nest(depth: int, steps: tuple):
    """An expression nested depth levels deep along the cycling steps, with b
    beside each step and a at the bottom, and the position of that a."""
    pos = tuple(steps[i % len(steps)] for i in range(depth))
    e = A
    for step in reversed(pos):
        if step == ARROW_SOURCE:
            e = Arrow(e, B)
        elif step == ARROW_TARGET:
            e = Arrow(B, e)
        elif step == MEET_LEFT:
            e = Meet(e, B)
        else:
            e = Meet(B, e)
    return e, pos


def _json_at(obj: dict, pos: tuple) -> dict:
    """The object at pos in a JSON AST, by one loop."""
    for step in pos:
        kind = "arrow" if step in (ARROW_SOURCE, ARROW_TARGET) else "meet"
        obj = obj[kind][step in (ARROW_TARGET, MEET_RIGHT)]
    return obj


_EVERY_STEP = (ARROW_SOURCE, ARROW_TARGET, MEET_LEFT, MEET_RIGHT)
_DEEP = 100_000  # a quarter of the levels are arrow sources, half are arrows

# name -> (depth, steps, call(e, pos), check(result, e, pos))
_GUARDED = {
    "parse": (_DEEP, _EVERY_STEP, lambda e, pos: parse(render(e)), lambda r, e, pos: r is e),
    "render": (_DEEP, _EVERY_STEP, lambda e, pos: render(e), lambda r, e, pos: parse(r) is e),
    "node_count": (
        _DEEP, _EVERY_STEP, lambda e, pos: node_count(e), lambda r, e, pos: r == 2 * _DEEP + 1
    ),
    "atoms_of": (
        _DEEP, _EVERY_STEP, lambda e, pos: atoms_of(e), lambda r, e, pos: r == {"a", "b"}
    ),
    "arrow_depth": (
        _DEEP, _EVERY_STEP, lambda e, pos: arrow_depth(e), lambda r, e, pos: r == _DEEP // 2
    ),
    "dept_normal_form": (
        _DEEP,
        _EVERY_STEP,
        lambda e, pos: syntax.dept_normal_form(e, 1),
        lambda r, e, pos: r is Arrow(Atom("@"), B),
    ),
    "subexpressions": (
        3000,
        _EVERY_STEP,
        lambda e, pos: subexpressions(e),
        lambda r, e, pos: len(r) == 6001 and (pos, A) in r,
    ),
    "to_json_obj": (
        _DEEP,
        _EVERY_STEP,
        lambda e, pos: to_json_obj(e),
        lambda r, e, pos: _json_at(r, pos) == {"atom": "a"},
    ),
    "rendered_length": (
        _DEEP,
        _EVERY_STEP,
        lambda e, pos: (rendered_length(e), rendered_length(e, as_json=True)),
        # json.dumps recurses, so the JSON length is counted by hand: half
        # the levels are arrows ({"arrow": [s, t]}, 15 more characters than
        # s and t), half are meets (14), and each of the _DEEP + 1 atoms
        # is {"atom": "a"} or {"atom": "b"} (13)
        lambda r, e, pos: r == (len(render(e)), _DEEP // 2 * (15 + 14) + 13 * (_DEEP + 1)),
    ),
}


class TestNothingRecurses:
    """Every public function of bcd.syntax answers on an input nested far
    deeper than recursion limit 1,000, through every kind of step that it
    descends, so recursion brought back into any of them fails here.

    subexpressions builds one position tuple per node, so it gets a
    3,000-deep nest: a 10^5 one would need about 5 * 10^9 tuple entries.
    The nodes' repr is guarded below."""

    @pytest.mark.parametrize("name", sorted(_GUARDED))
    def test_deep_input_at_recursion_limit_1000(self, name):
        depth, steps, call, check = _GUARDED[name]
        e, pos = _nest(depth, steps)
        assert check(_at_limit_1000(call, e, pos), e, pos)

    def test_every_public_function_is_guarded(self):
        public = {
            name
            for name, f in vars(syntax).items()
            if callable(f) and getattr(f, "__module__", None) == syntax.__name__
            and not name.startswith("_") and not isinstance(f, type)
        }
        assert public == set(_GUARDED)

    def test_repr_at_recursion_limit_1000(self):
        e, _ = _nest(_DEEP, (ARROW_TARGET,))
        text = _at_limit_1000(repr, e)
        assert text == "Arrow(Atom('b'), " * _DEEP + "Atom('a')" + ")" * _DEEP

    def test_a_bad_step_at_a_deep_node_is_an_invalid_position(self):
        e, _ = _nest(3001, (ARROW_TARGET,))
        with pytest.raises(InvalidPosition) as caught:
            _at_limit_1000(syntax._path, e, (MEET_LEFT,))
        assert str(caught.value) == f"step 'left' does not apply at {e!r}"


# The nodes' repr and the JSON conversions as they were when they recursed,
# verbatim apart from their names (and repr recursing into itself).
def _reference_repr(self):
    args = ", ".join(
        (_reference_repr if isinstance(v, syntax._Node) else repr)(v)
        for v in (getattr(self, f) for f in self.__slots__)
    )
    return f"{type(self).__name__}({args})"


def _reference_to_json_obj(e):
    if isinstance(e, Atom):
        return {"atom": e.name}
    if isinstance(e, Arrow):
        return {"arrow": [_reference_to_json_obj(e.source), _reference_to_json_obj(e.target)]}
    return {"meet": [_reference_to_json_obj(e.left), _reference_to_json_obj(e.right)]}


def _reference_from_json_obj(obj):
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ValueError(f"not an expression object: {obj!r}")
    if "atom" in obj:
        name = obj["atom"]
        if not isinstance(name, str) or not name:
            raise ValueError(f"bad atom name: {name!r}")
        return Atom(name)
    if "arrow" in obj:
        pair = obj["arrow"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("arrow takes exactly two children")
        return Arrow(_reference_from_json_obj(pair[0]), _reference_from_json_obj(pair[1]))
    if "meet" in obj:
        pair = obj["meet"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError("meet takes exactly two children")
        return Meet(_reference_from_json_obj(pair[0]), _reference_from_json_obj(pair[1]))
    raise ValueError(f"unknown expression node: {obj!r}")


def _outcome_of(fn, arg):
    try:
        return fn(arg)
    except Exception as exc:  # noqa: BLE001 -- the type and message are the pin
        return type(exc), str(exc)


class TestReprAndJsonMatchTheRecursiveCode:
    """repr and to_json_obj are one loop each, with the text, objects and
    error messages of the recursive code, and the recursive from_json_obj
    reads each object back to its node."""

    def test_seeded_trees(self):
        rng = random.Random(15)
        for _ in range(3000):
            e = random_expr(rng, rng.randint(1, 40), atoms=("a", "b", "@", "q_x"))
            assert repr(e) == _reference_repr(e)
            obj = to_json_obj(e)
            assert obj == _reference_to_json_obj(e)
            assert _reference_from_json_obj(obj) is e

    def test_fresh_dicts_for_every_occurrence(self):
        obj = to_json_obj(Meet(A, A))
        first, second = obj["meet"]
        assert first == second and first is not second

    def test_non_string_fields(self):
        for e in (Arrow(1, "x"), Meet(Atom(7), (A, B)), Atom(("a", 1))):
            assert repr(e) == _reference_repr(e)
            assert _outcome_of(to_json_obj, e) == _outcome_of(_reference_to_json_obj, e)
