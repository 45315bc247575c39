import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from bcd import rewrite, selftest
from bcd.cli import run
from bcd.decide import MATRIX_CAP_BYTES, dist_normal_form
from bcd.selftest import DESK_SCALE, FULL_SCALE
from bcd.syntax import parse, rendered_length

from conftest import alarm

DEEP_PARENS = "(" * 30000 + "a" + ")" * 30000
LONG_CHAIN = "->".join(["a"] * 25001)
# ((x -> a) -> a) ... -> a with 25,001 atoms: deciding two of these that
# differ in x recurses through every source
LEFT_CHAINS = tuple("(" * 25000 + x + ") -> a" * 25000 for x in "bc")


class TestCompare:
    def test_le_true(self, capsys):
        assert run(["le", "a & b", "a"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_le_false(self, capsys):
        assert run(["le", "a", "b"]) == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_eq(self):
        assert run(["eq", "c -> (a & b)", "(c -> a) & (c -> b)"]) == 0
        assert run(["eq", "a -> b", "b -> a"]) == 1

    def test_parse_error_exit_2(self, capsys):
        assert run(["le", "a ->", "b"]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and "offset" in err

    def test_json_output(self, capsys):
        assert run(["le", "--json", "a & b", "a"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["holds"] is True

    def test_explain_output(self, capsys):
        assert run(["le", "--explain", "a & b", "a"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["holds"] is True
        assert obj["forward"]["obligations"]

    def test_eq_explain_has_both_directions(self, capsys):
        assert run(["eq", "--explain", "a", "a & a"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["holds"] is True
        assert obj["forward"]["holds"] and obj["backward"]["holds"]


class TestDeepInput:
    @pytest.mark.parametrize("texts", [LEFT_CHAINS], ids=["chain"])
    @pytest.mark.parametrize("verb", ["le", "eq"])
    def test_refused_with_exit_3(self, capsys, verb, texts):
        assert run([verb, *texts]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "limit exceeded: expression nested too deeply" in err

    @pytest.mark.parametrize(
        "argv,code,out",
        [
            (["parse", DEEP_PARENS], 0, "a\n"),
            (["parse", LONG_CHAIN], 0, " -> ".join(["a"] * 25001) + "\n"),
            (["le", DEEP_PARENS, "a"], 0, "true\n"),
            (["eq", DEEP_PARENS, "a"], 0, "true\n"),
            (["le", LONG_CHAIN, "a"], 1, "false\n"),
            (["eq", LONG_CHAIN, "a"], 1, "false\n"),
        ],
        ids=["parse-parens", "parse-chain", "le-parens", "eq-parens", "le-chain", "eq-chain"],
    )
    def test_answered(self, capsys, argv, code, out):
        assert run(argv) == code
        assert capsys.readouterr().out == out


class TestParseVerb:
    def test_round_trip(self, capsys):
        assert run(["parse", "(a->b)"]) == 0
        assert capsys.readouterr().out.strip() == "a -> b"

    def test_json(self, capsys):
        assert run(["parse", "--json", "a & b"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {"meet": [{"atom": "a"}, {"atom": "b"}]}

    def test_bad_input(self, capsys):
        assert run(["parse", "a &&"]) == 2


class TestNf:
    def test_dept_zero(self, capsys):
        assert run(["nf", "--kind", "dept", "--depth", "0", "a->b"]) == 0
        assert capsys.readouterr().out.strip() == "@"

    def test_dept_needs_depth(self, capsys):
        assert run(["nf", "--kind", "dept", "a->b"]) == 2

    def test_dist(self, capsys):
        assert run(["nf", "--kind", "dist", "a -> (b & c)"]) == 0
        assert capsys.readouterr().out.strip() == "(a -> b) & (a -> c)"

    def test_slat(self, capsys):
        assert run(["nf", "--kind", "slat", "(b & a) & b"]) == 0
        assert capsys.readouterr().out.strip() == "a & b"

    @pytest.mark.parametrize("kind", ["dist", "slat"])
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_writes_the_measured_length(self, capsys, kind, flags):
        text = "((a -> b & c) -> d) & (e -> (f -> g) & h)"
        assert run(["nf", "--kind", kind, *flags, text]) == 0
        out = capsys.readouterr().out
        form = json.loads(out)["result"] if flags else out[:-1]
        length = len(json.dumps(form)) if flags else len(form)
        normal = dist_normal_form if kind == "dist" else rewrite.slat_canonical
        assert rendered_length(normal(parse(text)), as_json=bool(flags)) == length

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_refuses_a_text_past_the_cap_before_writing_it(self, capsys, flags):
        # s_12 = s_11 -> (p & q & r & t): its dist form is a DAG of 89
        # distinct subterms whose text has 223,696,201 bytes
        s = "a"
        for _ in range(12):
            s = f"({s}) -> (p & q & r & t)"
        with alarm(5, "nf wrote its text before it measured it"):
            assert run(["nf", "--kind", "dist", *flags, s]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("limit exceeded: the dist normal form's text needs")


class TestFactorsVerb:
    def test_lines(self, capsys):
        assert run(["factors", "(a -> p) & q"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["a -> p", "q"]

    def test_json(self, capsys):
        assert run(["factors", "--json", "a -> (b & c)"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj == {
            "factors": [
                {"args": [{"atom": "a"}], "head": "b"},
                {"args": [{"atom": "a"}], "head": "c"},
            ]
        }


class TestSat:
    def test_depth_zero_collapse(self):
        assert run(["sat", "--depth", "0", "a -> b", "c -> d"]) == 0

    def test_depth_one_separates(self):
        assert run(["sat", "--depth", "1", "a -> b", "c -> d"]) == 1


class TestModelVerb:
    def test_prints_size_and_bound(self, capsys):
        assert run(["model", "--atoms", "@", "--depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "carrier size: 3 (bound 16)" in out

    def test_limit_exit_3(self, capsys):
        assert run(["model", "--atoms", "@,p,q", "--depth", "0"]) == 0
        assert "carrier size: 7" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag", ["--max-depth 2", "--max-atoms 3", "--max-candidates 10"],
        ids=["max-depth", "max-atoms", "max-candidates"],
    )
    def test_removed_cap_flag_is_a_usage_error(self, capsys, flag):
        assert run(["model", "--atoms", "@", "--depth", "0", *flag.split()]) == 2

    def test_carrier_cap_exit_3(self, capsys):
        assert run(["model", "--atoms", "@,p", "--depth", "2"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("limit exceeded:")

    @pytest.mark.parametrize("depth", ["3", "1000000"])
    def test_deep_model_exit_3(self, capsys, depth):
        # depth has no cap of its own: level 3 over {@} is refused in the closure
        with alarm(5, f"--depth {depth} was not refused in 5 s"):
            assert run(["model", "--atoms", "@", "--depth", depth]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("limit exceeded:")

    @pytest.mark.parametrize(
        "atoms, depth, mode, k",
        [
            ("@,p,q", "1", [], 54871),
            ("@,p,q", "1", ["--json"], 54871),
            ("@," + ",".join("abcdefghijk"), "0", [], 4095),
        ],
        ids=["at_p_q-d1", "at_p_q-d1-json", "12_atoms-d0"],
    )
    def test_tables_over_the_byte_cap_exit_3(self, capsys, atoms, depth, mode, k):
        # the two tables of k classes hold 2 * k * k slots of 8 bytes
        assert run(["model", "--atoms", atoms, "--depth", depth, "--tables", *mode]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"limit exceeded: two tables over {k} classes need {16 * k * k} bytes;"
            f" the cap is {MATRIX_CAP_BYTES}\n"
        )

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_tables_that_fit_only_alone_exit_3(self, capsys, monkeypatch, mode):
        # 127 classes over 7 atoms at depth 0: under the lowered cap each
        # table's 8 * 127**2 = 129,032 bytes fits, and both tables' do not
        from bcd.model import build_model

        monkeypatch.setattr("bcd.decide.MATRIX_CAP_BYTES", 240_000)
        atoms = "@,a,b,c,d,e,f"
        assert run(["model", "--atoms", atoms, "--depth", "0", "--tables", *mode]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "limit exceeded: two tables over 127 classes need 258064 bytes; the cap is 240000\n"
        )
        model = build_model(atoms.split(","), 0)
        assert len(model.meet_table) == len(model.arrow_table) == 127

    def test_eleven_atom_tables_print(self, capsys):
        # 2,047 classes: 8 * 2047**2 bytes is under the cap
        atoms = "@," + ",".join("abcdefghij")
        assert run(["model", "--atoms", atoms, "--depth", "0", "--tables", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"carrier_size": 2047' in out and '"arrow_table": [[' in out

    def test_json_tables(self, capsys):
        assert run(["model", "--atoms", "@", "--depth", "1", "--json", "--tables"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["carrier_size"] == 3
        assert obj["bound"] == 16
        assert len(obj["meet_table"]) == 3
        assert len(obj["arrow_table"]) == 3

    def test_json_tables_hold_no_more_than_text(self, capsys):
        # 8 atoms, 255 classes: --json writes the rows from the tables, so it
        # holds neither a copy of a table nor the whole text
        argv = ["model", "--atoms", "@,a,b,c,d,e,f,g", "--depth", "0", "--tables"]
        assert run(argv) == 0  # imports and first-call caches are not measured
        peaks = []
        for mode in ([], ["--json"]):
            capsys.readouterr()
            tracemalloc.start()
            try:
                assert run([*argv, *mode]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_missing_truncation_atom(self, capsys):
        assert run(["model", "--atoms", "p", "--depth", "0"]) == 2

    @pytest.mark.parametrize("atoms", ["@,A", "@,9", "@,a b", "@,x)"])
    def test_bad_atom_name_exit_2(self, capsys, atoms):
        assert run(["model", "--atoms", atoms, "--depth", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: bad atom name")

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("--atoms @ --depth 0", "7040b29205c17b54"),
            ("--atoms @ --depth 1", "3543e3c41fa10c9b"),
            ("--atoms @,p --depth 0", "9c65b2bb3f065560"),
            ("--atoms @,p --depth 1", "c892912f8807bbcc"),
            ("--atoms @ --depth 2", "e5c7e6cba2ad1e70"),
            ("--atoms @,p,q --depth 0", "663e1f8d142db549"),
        ],
    )
    def test_tables_json_golden(self, capsys, args, digest):
        # sha256 prefixes of the subset enumeration's output: carrier order,
        # representatives and both tables stay byte-identical
        assert run(["model", *args.split(), "--tables", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_largest_carrier_json_golden(self, capsys):
        # {@,p,q} at depth 1, the largest carrier that builds (54,871
        # classes; its tables are refused): order and representatives
        assert run(["model", "--atoms", "@,p,q", "--depth", "1", "--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "e4170dcd6f057c1d"

    @pytest.mark.parametrize(
        "args, digest",
        [
            ("--atoms @ --depth 0", "710b84929eb212f6"),
            ("--atoms @ --depth 1", "12769b50709d2a52"),
            ("--atoms @,p --depth 0", "58ce541e6efb9f37"),
            ("--atoms @,p --depth 1", "83cdaede30ec5459"),
            ("--atoms @ --depth 2", "cb3fe112cb6fda15"),
            ("--atoms @,p,q --depth 0", "6527e4969b60920e"),
        ],
    )
    def test_tables_text_golden(self, capsys, args, digest):
        # the same models in text mode: the table rows' layout stays
        # byte-identical too
        assert run(["model", *args.split(), "--tables"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


class TestBench:
    def test_tiny_sizes(self, capsys):
        assert run(["bench", "--sizes", "21,41", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 3  # two measurements plus the fitted exponent
        assert lines[-1].startswith("fitted exponent:")

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("a -> b & c\np & q\n"))
        assert run(["bench", "--stdin", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert [r["nodes"] for r in obj["results"]] == [5, 3]

    def test_stdin_over_the_matrix_cap(self, capsys, monkeypatch):
        import io

        line = " & ".join(["a"] * 50_001)  # 100,001 nodes
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        tracemalloc.start()
        try:
            assert run(["bench", "--stdin"]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out == ""
        assert peak < MATRIX_CAP_BYTES

    def test_sizes_over_the_matrix_cap(self, capsys):
        assert run(["bench", "--sizes", "200000"]) == 3
        assert capsys.readouterr().out == ""


class TestSelftest:
    def test_desk_scale_passes_in_order(self, capsys):
        assert run(["selftest"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(FULL_SCALE)
        for line, (name, _) in zip(lines, FULL_SCALE):
            assert line.startswith(f"PASS {name} (")

    def test_every_criterion_parameter_is_set_at_desk_scale(self):
        # a value that no caller changes is a literal in the criterion
        for name, fn in FULL_SCALE:
            assert set(inspect.signature(fn).parameters) == set(DESK_SCALE.get(name, {})), name

    def test_a_criterion_that_raises_fails_and_the_rest_still_run(self, capsys, monkeypatch):
        # criterion 03 raises, as it did under three of the seeded mutants
        def raises(**kwargs):
            raise KeyError("missing")

        criteria = [(name, raises if name.startswith("03") else fn) for name, fn in FULL_SCALE]
        monkeypatch.setattr(selftest, "FULL_SCALE", criteria)
        assert run(["selftest"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == len(FULL_SCALE)
        fail = r"FAIL 03 finite model property \(\d+\.\d\d s\): KeyError: 'missing'"
        assert re.fullmatch(fail, lines[2])
        assert lines[3].startswith("PASS 04 carrier counts (")
        assert "Traceback" not in captured.out + captured.err

    def test_desk_criterion_02_kills_a_merge_that_keeps_one_target(self, monkeypatch):
        # an unsound prune: of the arrows that share a source, keep the first
        def first_of_each_source(arrows, memo):
            kept = {}
            for v in arrows:
                kept.setdefault(v.source, v)
            return list(kept.values())

        name = "02 oracle agreement"
        criterion, kwargs = dict(FULL_SCALE)[name], DESK_SCALE[name]
        monkeypatch.setattr(rewrite, "_merge_cluster", first_of_each_source)
        assert criterion(**{**kwargs, "same_source": 0})[0]
        ok, detail = criterion(**kwargs)
        assert not ok and " 0 disagreements" not in detail

    def test_desk_criterion_02_kills_a_merge_that_leaves_its_target_unpruned(self, monkeypatch):
        # a sound prune that is not idempotent: merge the arrows that share a
        # source, but leave the meet of their targets as it is
        def unpruned_target(arrows, memo):
            targets = {}
            for v in arrows:
                targets.setdefault(v.source, []).extend(rewrite._members(v.target))
            return [rewrite.Arrow(src, rewrite._sorted_meet(ts)) for src, ts in targets.items()]

        name = "02 oracle agreement"
        criterion, kwargs = dict(FULL_SCALE)[name], DESK_SCALE[name]
        assert criterion(**kwargs)[0]
        monkeypatch.setattr(rewrite, "_merge_cluster", unpruned_target)
        ok, detail = criterion(**kwargs)
        assert not ok and " 0 disagreements" in detail, detail
        assert re.search(r" [1-9]\d* not their own pruned form$", detail), detail

    def test_desk_criterion_02_kills_an_absorption_that_drops_one_arrow_per_pass(
        self, monkeypatch
    ):
        # a sound prune that is not idempotent: of the absorbed arrows, drop
        # the first only; the criterion's expressions with two absorbed
        # arrows leave the second for a later prune
        absorbed = rewrite._absorbed
        name = "02 oracle agreement"
        criterion, kwargs = dict(FULL_SCALE)[name], DESK_SCALE[name]
        assert criterion(**kwargs)[0]
        monkeypatch.setattr(rewrite, "_absorbed", lambda arrows: absorbed(arrows)[:1])
        ok, detail = criterion(**kwargs)
        assert not ok and " 0 disagreements" in detail, detail
        assert re.search(r" [1-9]\d* not their own pruned form$", detail), detail


SRC = str(Path(__file__).resolve().parent.parent / "src")
HASH_SEED_ARGVS = [
    ["model", "--atoms", "@,p", "--depth", "1", "--tables", "--json"],
    ["nf", "--kind", "slat", "(b -> a) & (a & c -> b) & c & (b -> a) & (c -> a & b) & a"],
    ["factors", "--json", "(c -> (b & a) & (a -> c)) & (b -> a & c) & (a & b -> c)"],
    ["eq", "--explain", "(c -> a & b) & (b -> c)", "(b -> c) & (c -> b) & (c -> a)"],
]


class TestHashSeedIndependence:
    @pytest.mark.parametrize("argv", HASH_SEED_ARGVS, ids=[a[0] for a in HASH_SEED_ARGVS])
    def test_output_is_byte_identical(self, argv):
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-m", "bcd.cli", *argv],
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode in (0, 1), proc.stderr
            outs.append(proc.stdout)
        assert outs[0]
        assert outs[0] == outs[1]


# Nodes hash by identity, so hash and allocation order differ from run
# to run; what the CLI prints must not.
DETERMINISM_ARGVS = [
    ["model", "--atoms", "@,p", "--depth", "1", "--tables", "--json"],
    ["model", "--atoms", "@", "--depth", "2", "--tables", "--json"],
    ["eq", "(c->a)&(c->b)", "c->(a&b)", "--explain", "--json"],
    ["factors", "--json", "(c -> (b & a) & (a -> c)) & (b -> a & c) & (a & b -> c)"],
    ["nf", "--kind", "slat", "(b -> a) & (a & c -> b) & c & (b -> a) & (c -> a & b) & a"],
]


class TestDeterminismAcrossHashSeeds:
    @pytest.mark.parametrize(
        "argv", DETERMINISM_ARGVS, ids=["model-at_p-d1", "model-at-d2", "eq", "factors", "nf"]
    )
    def test_stdout_is_byte_identical_under_three_seeds(self, argv):
        outs = []
        for seed in ("0", "1", "7"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
            proc = subprocess.run(
                [sys.executable, "-m", "bcd.cli", *argv],
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0]
        assert outs[0] == outs[1] == outs[2]


class TestReaderLeaves:
    def test_closed_pipe_exits_141_quietly(self):
        # the reader takes two lines and closes the pipe while the carrier of
        # 54,871 classes is still being written: no traceback, and not exit 1,
        # which means "decided false"
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "bcd.cli", "model", "--atoms", "@,p,q", "--depth", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
        assert lines == [b"atoms: @, p, q\n", b"depth: 1\n"]
        assert err == b""


class TestUsage:
    def test_no_verb(self):
        assert run([]) == 2

    def test_unknown_verb(self):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0


# Runs the `bcd` entry point, then prints which `bcd` modules and whether
# `dataclasses` the process loaded; `python -m bcd.cli` runs the same imports.
LOADED_PROBE = (
    "import json, sys\n"
    "from bcd.cli import main\n"
    "try:\n"
    "    main()\n"
    "finally:\n"
    "    print(json.dumps(sorted(m for m in sys.modules\n"
    "                            if m.split('.')[0] in ('bcd', 'dataclasses'))))\n"
)


class TestModulesPerVerb:
    @pytest.mark.parametrize(
        "argv",
        [
            ["le", "a & b", "a"],
            ["eq", "--explain", "--json", "c -> a & b", "(c -> a) & (c -> b)"],
            ["parse", "--json", "a -> b & c"],
            ["factors", "(a -> p) & q"],
        ],
        ids=["le", "eq", "parse", "factors"],
    )
    def test_decide_verbs_load_only_syntax_factors_decide(self, argv):
        proc = subprocess.run(
            [sys.executable, "-c", LOADED_PROBE, *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=SRC),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded == ["bcd", "bcd.cli", "bcd.decide", "bcd.syntax"]


class TestValueErrorExit:
    @pytest.mark.parametrize("make", ["UnknownAtom", "subclass"])
    def test_value_error_subclass_in_a_verb_exits_2(self, capsys, monkeypatch, make):
        from bcd import cli
        from bcd.model import UnknownAtom

        class Odd(ValueError):
            pass

        exc = UnknownAtom("atom 'z' not carried") if make == "UnknownAtom" else Odd("odd")

        def verb(args):
            raise exc

        monkeypatch.setattr(cli, "_cmd_parse", verb)
        assert run(["parse", "a"]) == 2
        assert capsys.readouterr().err == f"error: {exc}\n"


class TestMemoryErrorExit:
    def test_memory_error_in_a_verb_exits_3(self, capsys, monkeypatch):
        # running out of memory is a refused resource, not a "decided false"
        from bcd import cli

        def verb(args):
            raise MemoryError

        monkeypatch.setattr(cli, "_cmd_parse", verb)
        assert run(["parse", "a"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "limit exceeded: out of memory\n"
        assert "Traceback" not in captured.err
        assert captured.out == ""


# Like LOADED_PROBE, but it imports no json (it prints a repr), and it also
# lists the json modules the process loaded.
LOADED_PROBE_NO_JSON = (
    "import sys\n"
    "from bcd.cli import main\n"
    "try:\n"
    "    main()\n"
    "finally:\n"
    "    print(sorted(m for m in sys.modules\n"
    "                 if m.split('.')[0] in ('bcd', 'dataclasses', 'json')))\n"
)

LE_PATH = ["bcd", "bcd.cli", "bcd.decide", "bcd.syntax"]


def _loaded_by(argv):
    import ast

    proc = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE_NO_JSON, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=60,
    )
    assert proc.returncode in (0, 1), proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


class TestModulesOnTheLePath:
    """`sat`, `nf --kind dept` and `nf --kind dist` run on the modules `le`
    loads, and json is loaded only to write JSON."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sat", "--depth", "1", "a -> b -> c", "a -> b -> d"],
            ["sat", "--depth", "0", "a", "a"],
            ["nf", "--kind", "dept", "--depth", "1", "a -> b -> c"],
            ["nf", "--kind", "dist", "a -> b & c"],
            ["le", "a", "a"],
        ],
        ids=["sat-1", "sat-0", "nf-dept", "nf-dist", "le"],
    )
    def test_loads_the_le_modules_and_no_json(self, argv):
        assert _loaded_by(argv) == LE_PATH

    def test_json_output_loads_json(self):
        loaded = _loaded_by(["sat", "--json", "--depth", "1", "a", "a"])
        assert [m for m in loaded if m.startswith("bcd")] == LE_PATH
        assert "json" in loaded

    @pytest.mark.parametrize("kind", ["slat"])
    def test_other_normal_forms_load_rewrite(self, kind):
        loaded = _loaded_by(["nf", "--kind", kind, "a -> b & c"])
        assert "bcd.rewrite" in loaded
        assert "bcd.model" not in loaded


class TestModelVerbModules:
    def test_model_loads_no_rewriting_code(self):
        loaded = _loaded_by(["model", "--atoms", "@,p", "--depth", "1", "--tables"])
        assert loaded == sorted(LE_PATH + ["bcd.model", "dataclasses"])


class TestDeepTruncation:
    def test_nf_dept_answers_a_chain_deeper_than_the_limit(self, capsys):
        # the truncation is a loop: at a depth above the chain's it returns
        # the chain, which the parser and the printer handle at any depth
        assert run(["nf", "--kind", "dept", "--depth", "30000", LONG_CHAIN]) == 0
        assert capsys.readouterr().out == " -> ".join(["a"] * 25001) + "\n"
