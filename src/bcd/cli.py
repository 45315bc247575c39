"""Command line front end.

Exit codes: 0 success or decided true, 1 decided false, 2 usage or parse
error, 3 resource limit exceeded (including input nested too deeply for the
recursion limit, and a MemoryError, reported as "limit exceeded: out of
memory").  Parsing, ascii rendering, depth truncation, arrow depth,
factoring, the dist normal form and single rewrite steps never recurse, so
`parse`, `factors` and `nf --kind dept|dist` answer at any depth.  Deciding
recurses only through arrow sources (a factor's arguments), so `le` and `eq`
answer on a right-nested chain of any length but not on a deep left-nested
one; explanations, the slat normal form and json.dumps recurse too.  Each
raises the RecursionError that deep input turns into exit 3.  `nf` measures
its text first, and refuses one past the byte cap.  --json switches output
to a single JSON object on stdout; diagnostics go to stderr.  Exit 141
(128 + SIGPIPE) means that the reader of stdout left before the output ended.

Only syntax and decide are imported here, which is all that `parse`,
`factors`, `le`, `eq`, `sat` and `nf --kind dept|dist` run; `nf --kind
slat`, `model`, `bench` and `selftest` import their own modules when called,
and json is imported only to write JSON, so a call compiles no code it skips.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .decide import (
    DecisionCache,
    LimitExceeded,
    _check_bytes,
    dist_normal_form,
    factor_groups,
    satisfies_eq,
    sorted_groups,
    subtype_matrix,
)
from .syntax import ParseError, dept_normal_form, parse, render, rendered_length, to_json_obj


def _emit(obj: dict) -> None:
    import json

    print(json.dumps(obj))


def _cmd_parse(args) -> int:
    e = parse(args.expr)
    if args.json:
        _emit(to_json_obj(e))
    else:
        print(render(e))
    return 0


def _cmd_nf(args) -> int:
    e = parse(args.expr)
    if args.kind == "dist":
        result = dist_normal_form(e)
    elif args.kind == "slat":
        from .rewrite import slat_canonical

        result = slat_canonical(e)
    else:
        if args.depth is None:
            print("nf --kind dept requires --depth", file=sys.stderr)
            return 2
        result = dept_normal_form(e, args.depth)
    # a normal form can be a DAG whose text is exponential in its size
    _check_bytes(rendered_length(result, args.json), f"the {args.kind} normal form's text needs")
    if args.json:
        _emit({"kind": args.kind, "result": to_json_obj(result)})
    else:
        print(render(result))
    return 0


def _cmd_factors(args) -> int:
    e = parse(args.expr)
    groups = sorted_groups(factor_groups(e))
    if args.json:
        _emit(
            {
                "factors": [
                    {"args": [to_json_obj(a) for a in fargs], "head": head}
                    for (head, _), pairs in groups.items()
                    for _, fargs in pairs
                ]
            }
        )
    else:
        for pairs in groups.values():
            for text, _ in pairs:
                print(text)
    return 0


def _cmd_compare(args) -> int:
    want_equiv = args.verb == "eq"
    a = parse(args.a)
    b = parse(args.b)
    cache = DecisionCache()
    holds = cache.equiv(a, b) if want_equiv else cache.subseteq(a, b)
    if args.explain:
        tree = {"holds": holds, "forward": cache.explain(a, b)}
        if want_equiv:
            tree["backward"] = cache.explain(b, a)
        _emit(tree)
    elif args.json:
        _emit({"a": args.a, "b": args.b, "holds": holds})
    else:
        print("true" if holds else "false")
    return 0 if holds else 1


def _cmd_sat(args) -> int:
    a = parse(args.a)
    b = parse(args.b)
    holds = satisfies_eq(args.depth, a, b)
    if args.json:
        _emit({"depth": args.depth, "a": args.a, "b": args.b, "holds": holds})
    else:
        print("true" if holds else "false")
    return 0 if holds else 1


def _cmd_model(args) -> int:
    from .model import build_model, stack_of_twos

    atoms = [a.strip() for a in args.atoms.split(",") if a.strip()]
    model = build_model(atoms, args.depth)
    # read before anything is printed, so that a refusal leaves stdout empty
    if args.tables:  # held at once: 8 bytes an entry in each of the two
        _check_bytes(16 * model.size**2, f"two tables over {model.size} classes need")
    tables = (model.meet_table, model.arrow_table) if args.tables else ()
    bound = stack_of_twos(args.depth + 1, len(model.atoms) + args.depth)
    if args.json:
        import json

        head = json.dumps(
            {
                "atoms": list(model.atoms),
                "depth": model.depth,
                "carrier_size": model.size,
                "bound": bound,
                "carrier": [render(e) for e in model.carrier],
            }
        )
        # the tables' rows are written one at a time, as json.dumps would
        # write them, so no copy of a table and no whole text is held
        write = sys.stdout.write
        write(head[:-1])
        for name, table in zip(("meet_table", "arrow_table"), tables):
            write(f', "{name}": [')
            for i, row in enumerate(table):
                write(", " + json.dumps(row) if i else json.dumps(row))
            write("]")
        write("}\n")
    else:
        print(f"atoms: {', '.join(model.atoms)}")
        print(f"depth: {model.depth}")
        print(f"carrier size: {model.size} (bound {bound})")
        for i, e in enumerate(model.carrier):
            print(f"  [{i}] {render(e)}")
        row_format = "  " + " ".join(["%3d"] * model.size)
        for name, table in zip(("meet", "arrow"), tables):
            print(f"{name} table:")
            for row in table:
                print(row_format % row)
    return 0


def _cmd_bench(args) -> int:
    from .bench import fitted_exponent, scaling_run

    if args.stdin:
        results = []
        for line in sys.stdin:
            line = line.strip()
            if not line:
                continue
            e = parse(line)
            t0 = time.perf_counter()
            matrix = subtype_matrix(e)
            results.append((matrix.size, time.perf_counter() - t0))
    else:
        sizes = [int(s) for s in args.sizes.split(",")]
        results = scaling_run(sizes, seed=args.seed)
    exponent = (
        fitted_exponent(results)
        if len({n for n, _ in results}) >= 2
        else None
    )
    if args.json:
        obj = {"results": [{"nodes": n, "seconds": t} for n, t in results]}
        if exponent is not None:
            obj["fitted_exponent"] = exponent
        _emit(obj)
    else:
        for n, t in results:
            print(f"{n} {t:.6f}")
        if exponent is not None:
            print(f"fitted exponent: {exponent:.3f}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_criteria

    ok = run_criteria(full=args.full)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcd",
        description="Intersection type toolkit: parsing, rewriting, subtyping, finite models.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("parse", help="parse and reprint an expression")
    p.set_defaults(run=_cmd_parse)
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("nf", help="normal forms: dist, dept, or slat")
    p.set_defaults(run=_cmd_nf)
    p.add_argument("--kind", choices=("dist", "dept", "slat"), required=True)
    p.add_argument("--depth", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("expr")

    p = sub.add_parser("factors", help="print the factor set")
    p.set_defaults(run=_cmd_factors)
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")

    for verb, help_text in (("le", "decide a below b"), ("eq", "decide congruence")):
        p = sub.add_parser(verb, help=help_text)
        p.set_defaults(run=_cmd_compare)
        p.add_argument("a")
        p.add_argument("b")
        p.add_argument("--json", action="store_true")
        p.add_argument("--explain", action="store_true")

    p = sub.add_parser("sat", help="decide equality in the depth-n model")
    p.set_defaults(run=_cmd_sat)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("model", help="build a finite model and print its carrier")
    p.set_defaults(run=_cmd_model)
    p.add_argument("--atoms", default="@")
    p.add_argument("--depth", type=int, default=0)
    p.add_argument("--tables", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bench", help="time the subtype matrix on random instances")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--sizes", default="200,400,800,1600")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--stdin", action="store_true", help="time expressions read from stdin")

    p = sub.add_parser("selftest", help="run the embedded acceptance checks")
    p.set_defaults(run=_cmd_selftest)
    p.add_argument("--full", action="store_true", help="full scale instead of desk scale")

    return parser


def run(argv) -> int:
    """Dispatch one invocation; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except LimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        print("limit exceeded: expression nested too deeply", file=sys.stderr)
        return 3
    except MemoryError:
        print("limit exceeded: out of memory", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    if sys.getrecursionlimit() < 20000:
        sys.setrecursionlimit(20000)
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has left; point stdout at devnull so that the flush at
        # exit cannot raise again, and exit as a process killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    main()
