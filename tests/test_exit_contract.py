"""The exit-code contract: every verb gives an answer or a clean refusal.

Each row runs `python -m bcd.cli` in a child process that limits its own
address space to 2 GB, under a timeout, and asserts the exit code and that
stderr holds no traceback.  The shapes are as large as one command-line
argument allows (131,071 bytes): a left-nested chain, a right-nested chain,
an arrow into a 20,000-member meet, a meet of 15,798 atoms nested to the
left and to the right, a meet of 8,812 arrows, and one atom of 131,000
letters, alone and followed by a character no token starts, plus the
explanation family s_k at k = 6.  `model` rows build the largest carrier
that fits and ask past each of its caps, `bench --stdin` rows read from
stdin the chains and a meet of 100 copies of one 2,001-node random tree
(555,197 characters, 729 distinct subterms), and `selftest` runs the
embedded checks; every verb starts at least one row.
A refusal (exit 3) writes nothing to stdout.  A row whose refusal becomes an
answer changes its expected exit code here.
"""

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from bcd.cli import _DISPATCH
from bcd.gen import random_expr
from bcd.syntax import Meet, render

SRC = str(Path(__file__).resolve().parent.parent / "src")
ADDRESS_SPACE = 2 << 30  # bytes
TIMEOUT = 30  # seconds; selftest takes about 2 s on a desk machine, every other row under 1 s


def _left_chain(levels: int, inner: str) -> str:
    """((inner -> a) -> a) ... -> a, with `levels` arrows."""
    return "(" * (levels - 1) + inner + "->a" + ")->a" * (levels - 1)


def _explain_family(k: int) -> str:
    """s_k = s_{k-1} -> (p & q & r & t), s_0 = a."""
    s = "a"
    for _ in range(k):
        s = f"({s})->(p&q&r&t)"
    return s


def _hundred_copies() -> str:
    """The left-nested meet of 100 copies of one 2,001-node random tree."""
    tree = random_expr(random.Random(7), 2001)
    meet = tree
    for _ in range(99):
        meet = Meet(meet, tree)
    return render(meet)


LEFT = _left_chain(26_214, "b")
LEFT_OTHER = _left_chain(26_214, "c")
RIGHT = "a" + "->a" * 43_689
WIDE = "a->(" + "&".join(f"x{i}" for i in range(20_000)) + ")"
S6 = _explain_family(6)
SPINE_ATOMS = [f"x{i}" for i in range(15_798)]
LEFT_MEET = " & ".join(SPINE_ATOMS)
LEFT_MEET_REVERSED = " & ".join(reversed(SPINE_ATOMS))
RIGHT_MEET = "&(".join(SPINE_ATOMS) + ")" * (len(SPINE_ATOMS) - 1)
RIGHT_MEET_REVERSED = "&(".join(reversed(SPINE_ATOMS)) + ")" * (len(SPINE_ATOMS) - 1)
ARROW_MEETS = [f"(x{i} -> a)" for i in range(8_812)]
ARROW_MEET = " & ".join(ARROW_MEETS)
ARROW_MEET_REVERSED = " & ".join(reversed(ARROW_MEETS))
LONG_ATOM = "a" * 131_000
HUNDRED_COPIES = _hundred_copies()


def _meet_rows(name: str, meet: str, reversed_meet: str) -> list:
    """Rows for a meet of atoms; `le` and `sat` compare it with its members
    in reverse order, since one node against itself returns at once."""
    return [
        (f"le-{name}", ["le", meet, reversed_meet], 0),
        (f"le-explain-{name}", ["le", "--explain", meet, reversed_meet], 0),
        (f"eq-{name}-atom", ["eq", meet, "a"], 1),
        (f"factors-{name}", ["factors", meet], 0),
        (f"nf-dist-{name}", ["nf", "--kind", "dist", meet], 0),
        (f"nf-slat-{name}", ["nf", "--kind", "slat", meet], 0),
        (f"sat-depth-1-{name}", ["sat", "--depth", "1", meet, reversed_meet], 0),
        (f"parse-json-{name}", ["parse", "--json", meet], 3),
    ]


ROWS = [
    ("le-left", ["le", LEFT, LEFT_OTHER], 3),
    ("eq-left", ["eq", LEFT, LEFT_OTHER], 3),
    ("le-explain-left", ["le", "--explain", LEFT, LEFT_OTHER], 3),
    ("sat-huge-depth-left", ["sat", "--depth", "1000000000", LEFT, LEFT_OTHER], 3),
    ("parse-json-left", ["parse", "--json", LEFT], 3),
    ("nf-dist-left", ["nf", "--kind", "dist", LEFT], 3),
    ("nf-slat-left", ["nf", "--kind", "slat", LEFT], 3),
    ("parse-left", ["parse", LEFT], 0),
    ("factors-left", ["factors", LEFT], 0),
    ("nf-dept-left", ["nf", "--kind", "dept", "--depth", "3", LEFT], 0),
    ("sat-depth-5-left", ["sat", "--depth", "5", LEFT, LEFT], 0),
    ("le-right", ["le", RIGHT, RIGHT], 0),
    ("eq-right-atom", ["eq", RIGHT, "a"], 1),
    ("nf-dist-wide", ["nf", "--kind", "dist", WIDE], 3),
    ("eq-explain-s6", ["eq", "--explain", S6, S6], 0),
    *_meet_rows("meet-left", LEFT_MEET, LEFT_MEET_REVERSED),
    *_meet_rows("meet-right", RIGHT_MEET, RIGHT_MEET_REVERSED),
    ("le-arrow-meet", ["le", ARROW_MEET, ARROW_MEET_REVERSED], 0),
    ("factors-arrow-meet", ["factors", ARROW_MEET], 0),
    ("nf-dist-arrow-meet", ["nf", "--kind", "dist", ARROW_MEET], 0),
    ("nf-slat-arrow-meet", ["nf", "--kind", "slat", ARROW_MEET], 0),
    ("sat-depth-1-arrow-meet", ["sat", "--depth", "1", ARROW_MEET, ARROW_MEET], 0),
    ("parse-json-arrow-meet", ["parse", "--json", ARROW_MEET], 0),
    ("parse-long-atom", ["parse", LONG_ATOM], 0),
    ("parse-long-atom-dollar", ["parse", LONG_ATOM + "$"], 2),
    ("model-at_p-d2", ["model", "--atoms", "@,p", "--depth", "2"], 3),
    ("model-huge-depth", ["model", "--atoms", "@", "--depth", "1000000000"], 3),
    ("model-8_atoms-d1", ["model", "--atoms", "@,a,b,c,d,e,f,g", "--depth", "1"], 3),
    ("model-at_p_q-d1-tables", ["model", "--atoms", "@,p,q", "--depth", "1", "--tables"], 3),
    ("model-at_p_q-d1-json", ["model", "--atoms", "@,p,q", "--depth", "1", "--json"], 0),
    ("model-12_atoms-d0", ["model", "--atoms", "@," + ",".join("abcdefghijk"), "--depth", "0"], 0),
    ("bench-stdin-left", ["bench", "--stdin"], 3, LEFT),
    ("bench-stdin-right", ["bench", "--stdin"], 3, RIGHT),
    ("bench-stdin-hundred-copies", ["bench", "--stdin"], 0, HUNDRED_COPIES),
    ("selftest", ["selftest"], 0),
]


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def test_shapes_fit_one_argument():
    shapes = (LEFT, LEFT_OTHER, RIGHT, WIDE, LEFT_MEET, LEFT_MEET_REVERSED, RIGHT_MEET,
              RIGHT_MEET_REVERSED, ARROW_MEET, ARROW_MEET_REVERSED, LONG_ATOM + "$")
    assert max(len(text) for text in shapes) <= 131_071


def test_every_verb_has_a_row():
    assert set(_DISPATCH) <= {row[1][0] for row in ROWS}


@pytest.mark.parametrize(
    "argv, code, stdin",
    [(row[1], row[2], row[3] if len(row) > 3 else None) for row in ROWS],
    ids=[row[0] for row in ROWS],
)
def test_exit_code(argv, code, stdin):
    proc = subprocess.run(
        [sys.executable, "-m", "bcd.cli", *argv],
        input=None if stdin is None else stdin.encode(),
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        preexec_fn=_limit_address_space,
        timeout=TIMEOUT,
    )
    assert b"Traceback" not in proc.stderr, proc.stderr[-2000:]
    assert proc.returncode == code, proc.stderr[-2000:]
    if code == 3:
        assert proc.stderr.startswith(b"limit exceeded: ")
        assert proc.stdout == b""
