"""Command-line interface: build, construct, verify, search, corpus.

Exit codes: 0 = verified / nonempty result, 1 = falsified / empty result,
2 = input or usage error.  All reports are JSON on stdout and are
byte-identical across runs on the same inputs.

``main`` may be called many times in one process, as the tests and the
benchmark do.  The argument parser is built once per process, on the
first call, and every later call parses with the same one: ``parse_args``
only reads the parser and returns a fresh namespace each time.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .algebra import AlgebraError, radical
from .constructors import (build_dual_extension, build_matrix_algebra, build_quiver_algebra,
                           build_simplex_algebra, build_tensor_reedy, matrix_diag_frame)
from .corpus import REEDY_CHECKS, run_corpus, run_qh, run_search
from .serialize import (FormatError, basis_to_json, dumps, load_algebra, load_quiver, load_reedy,
                        parse_field_flag, read_json, reedy_from_json, save_algebra, save_reedy)

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _emit(report: dict, out: str | None) -> None:
    text = dumps(report)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    pres = load_quiver(args.quiver)
    field = parse_field_flag(args.field)
    algebra, frame = build_quiver_algebra(pres, field)
    out = args.out or str(Path(args.quiver).with_suffix("")) + ".alg.json"
    save_algebra(out, algebra, frame)
    _emit({"file": out, "dim": algebra.dim, "radical_dim": radical(algebra).dim}, None)
    return EXIT_TRUE


def _tensor_input(name: str):
    """A tensor factor's Reedy structure: a reedy file, or an algebra file's sibling."""
    path = Path(name)
    if not path.name.endswith(".reedy.json"):
        path = Path(str(path).replace(".alg.json", ".reedy.json"))
        if not path.exists():
            raise FormatError(f"no reedy data found for {name} (expected {path})")
    return load_reedy(path)


def cmd_construct(args) -> int:
    field = parse_field_flag(args.field)
    kind, structure = args.kind, None
    if kind in ("simplex", "matrix"):
        if args.n is None:
            raise FormatError(f"construct {kind} needs --n")
        if kind == "simplex":
            structure = build_simplex_algebra(args.n, field)
        else:
            algebra = build_matrix_algebra(args.n, field)
            frame = matrix_diag_frame(algebra, args.n)
        base = f"{kind}{args.n}"
    elif kind == "dualext":
        if len(args.files) != 2:
            raise FormatError("construct dualext needs two algebra files")
        frames = [load_algebra(name)[1] for name in args.files]
        if any(frame is None or frame.degrees is None for frame in frames):
            raise FormatError("dualext inputs need idempotents and degrees")
        _, structure = build_dual_extension(*frames)
        base = "dualext"
    else:
        if len(args.files) != 2:
            raise FormatError("construct tensor needs two input files")
        structure = build_tensor_reedy(*(_tensor_input(name) for name in args.files))
        base = "tensor"
    if structure is not None:
        algebra, frame = structure.algebra, structure.frame
    files = [f"{args.out or base}.alg.json"]
    save_algebra(files[0], algebra, frame)
    if structure is not None:
        files.append(f"{args.out or base}.reedy.json")
        save_reedy(files[1], structure, Path(files[0]).name)
    _emit({"files": files, "dim": algebra.dim}, None)
    return EXIT_TRUE


def cmd_verify(args) -> int:
    what = args.what
    if args.cut is not None and what != "theorem53":
        raise FormatError("--cut applies only to verify theorem53")
    if what == "qh":
        if len(args.files) != 2:
            raise FormatError("verify qh needs an algebra file and an order file")
        report = run_qh(*args.files)
    else:
        if len(args.files) not in (1, 2):
            raise FormatError(f"verify {what} needs a reedy file "
                              "(optionally preceded by its algebra)")
        reedy_file = Path(args.files[-1])
        data = read_json(reedy_file)
        structure = reedy_from_json(data, reedy_file.parent)
        if len(args.files) == 2:
            referenced = reedy_file.parent / data["algebra"]
            if Path(args.files[0]).resolve() != referenced.resolve():
                raise FormatError(f"{args.files[0]} is not the algebra {reedy_file} references "
                                  f"({referenced})")
        if what == "theorem53" and args.cut is None:
            raise FormatError("verify theorem53 needs --cut")
        report = REEDY_CHECKS[what](structure, args.cut)
        if what == "theorem53":
            report["overall"] = bool(report["hypothesis_product_spans"] and all(report["triple"]))
    _emit(report, args.out)
    return EXIT_TRUE if report["overall"] else EXIT_FALSE


def cmd_search(args) -> int:
    entries = [
        {
            "degrees": dict(zip(s.frame.labels, s.frame.degrees)),
            "aplus_dim": s.aplus.dim,
            "aminus_dim": s.aminus.dim,
            "aplus_basis": basis_to_json(s.aplus),
            "aminus_basis": basis_to_json(s.aminus),
        }
        for s in run_search(args.algebra, args.mode, args.max_levels, "--max-levels")
    ]
    _emit({"count": len(entries), "found": entries}, args.out)
    return EXIT_TRUE if entries else EXIT_FALSE


def cmd_corpus(args) -> int:
    return run_corpus(args.dir, sys.stdout)


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The reedylab parser, built on the first call; later calls return it."""
    parser = argparse.ArgumentParser(
        prog="reedylab",
        description="Exact verification and search for triangular decompositions "
        "and quasi-hereditary structure of finite-dimensional algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an algebra from a quiver presentation")
    p_build.add_argument("quiver")
    p_build.add_argument("--field", default="Q")
    p_build.add_argument("-o", "--out")
    p_build.set_defaults(func=cmd_build)

    p_con = sub.add_parser("construct", help="run a named constructor")
    p_con.add_argument("kind", choices=["simplex", "matrix", "dualext", "tensor"])
    p_con.add_argument("files", nargs="*")
    p_con.add_argument("--n", type=int)
    p_con.add_argument("--field", default="Q")
    p_con.add_argument("-o", "--out")
    p_con.set_defaults(func=cmd_construct)

    p_ver = sub.add_parser("verify", help="verify structures and theorems")
    p_ver.add_argument("what", choices=["reedy", "qh", "borel", "delta", "theorem41", "theorem53"])
    p_ver.add_argument("files", nargs="+")
    p_ver.add_argument("--cut", type=int)
    p_ver.add_argument("--out")
    p_ver.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="search for Reedy structures")
    p_search.add_argument("algebra")
    p_search.add_argument("--mode", choices=["heuristic", "exhaustive"], default="heuristic")
    p_search.add_argument("--max-levels", type=int)
    p_search.add_argument("--out")
    p_search.set_defaults(func=cmd_search)

    p_corpus = sub.add_parser("corpus", help="run the bundled example corpus")
    p_corpus.add_argument("action", choices=["run"])
    p_corpus.add_argument("--dir")
    p_corpus.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, AlgebraError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
