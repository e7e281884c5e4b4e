"""Command-line interface: build, construct, verify, search, corpus.

Exit codes: 0 = verified / nonempty result, 1 = falsified / empty result,
2 = input or usage error.  All reports are JSON on stdout and are
byte-identical across runs on the same inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .algebra import AlgebraError, radical
from .constructors import (
    build_dual_extension,
    build_matrix_algebra,
    build_quiver_algebra,
    build_simplex_algebra,
    build_tensor_reedy,
)
from .corpus import run_corpus
from .qh import exact_borel_check, delta_subalgebra_check, heredity_chain_verify, order_from_degrees
from .reedy import (
    characterization_crosscheck,
    recursive_check,
    search_reedy,
    verify_reedy,
)
from .serialize import (
    FormatError,
    dumps,
    load_algebra,
    load_order,
    load_quiver,
    load_reedy,
    parse_field_flag,
    read_json,
    reedy_from_json,
    save_algebra,
    save_reedy,
)

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


def cmd_construct(args) -> int:
    field = parse_field_flag(args.field)
    if args.kind == "simplex":
        if args.n is None:
            raise FormatError("construct simplex needs --n")
        structure = build_simplex_algebra(args.n, field)
        base = args.out or f"simplex{args.n}"
        alg_file, reedy_file = f"{base}.alg.json", f"{base}.reedy.json"
        save_algebra(alg_file, structure.algebra, structure.frame)
        save_reedy(reedy_file, structure, Path(alg_file).name)
        _emit({"files": [alg_file, reedy_file], "dim": structure.algebra.dim}, None)
        return EXIT_TRUE
    if args.kind == "matrix":
        if args.n is None:
            raise FormatError("construct matrix needs --n")
        algebra = build_matrix_algebra(args.n, field)
        from .constructors import matrix_diag_frame

        frame = matrix_diag_frame(algebra, args.n)
        base = args.out or f"matrix{args.n}"
        alg_file = f"{base}.alg.json"
        save_algebra(alg_file, algebra, frame)
        _emit({"files": [alg_file], "dim": algebra.dim}, None)
        return EXIT_TRUE
    if args.kind == "dualext":
        if len(args.files) != 2:
            raise FormatError("construct dualext needs two algebra files")
        ap, apf = load_algebra(args.files[0])
        am, amf = load_algebra(args.files[1])
        if apf is None or amf is None or apf.degrees is None or amf.degrees is None:
            raise FormatError("dualext inputs need idempotents and degrees")
        algebra, structure = build_dual_extension(ap, apf, am, amf)
        base = args.out or "dualext"
        alg_file, reedy_file = f"{base}.alg.json", f"{base}.reedy.json"
        save_algebra(alg_file, algebra, structure.frame)
        save_reedy(reedy_file, structure, Path(alg_file).name)
        _emit({"files": [alg_file, reedy_file], "dim": algebra.dim}, None)
        return EXIT_TRUE
    if args.kind == "tensor":
        if len(args.files) != 2:
            raise FormatError("construct tensor needs two input files")
        structures = []
        for name in args.files:
            path = Path(name)
            if path.name.endswith(".reedy.json"):
                structures.append(load_reedy(path))
            else:
                sibling = Path(str(path).replace(".alg.json", ".reedy.json"))
                if not sibling.exists():
                    raise FormatError(f"no reedy data found for {name} (expected {sibling})")
                structures.append(load_reedy(sibling))
        structure = build_tensor_reedy(structures[0], structures[1])
        base = args.out or "tensor"
        alg_file, reedy_file = f"{base}.alg.json", f"{base}.reedy.json"
        save_algebra(alg_file, structure.algebra, structure.frame)
        save_reedy(reedy_file, structure, Path(alg_file).name)
        _emit({"files": [alg_file, reedy_file], "dim": structure.algebra.dim}, None)
        return EXIT_TRUE
    raise FormatError(f"unknown construct kind {args.kind!r}")


def cmd_verify(args) -> int:
    what = args.what
    if what == "qh":
        if len(args.files) != 2:
            raise FormatError("verify qh needs an algebra file and an order file")
        algebra, frame = load_algebra(args.files[0])
        if frame is None:
            raise FormatError("algebra file carries no idempotent frame")
        order = load_order(args.files[1], frame)
        report = heredity_chain_verify(algebra, frame, order)
        _emit(report, args.out)
        return EXIT_TRUE if report["overall"] else EXIT_FALSE
    if len(args.files) not in (1, 2):
        raise FormatError(f"verify {what} needs a reedy file (optionally preceded by its algebra)")
    reedy_file = Path(args.files[-1])
    data = read_json(reedy_file)
    structure = reedy_from_json(data, reedy_file.parent)
    if len(args.files) == 2:
        referenced = reedy_file.parent / data["algebra"]
        if Path(args.files[0]).resolve() != referenced.resolve():
            raise FormatError(f"{args.files[0]} is not the algebra {reedy_file} references "
                              f"({referenced})")
    if what == "reedy":
        report = verify_reedy(structure)
        _emit(report, args.out)
        return EXIT_TRUE if report["overall"] else EXIT_FALSE
    if what == "borel":
        order = order_from_degrees(structure.frame)
        report = exact_borel_check(structure.algebra, structure.frame, structure.aminus, order)
        _emit(report, args.out)
        return EXIT_TRUE if report["overall"] else EXIT_FALSE
    if what == "delta":
        order = order_from_degrees(structure.frame)
        report = delta_subalgebra_check(structure.algebra, structure.frame, structure.aplus, order)
        _emit(report, args.out)
        return EXIT_TRUE if report["overall"] else EXIT_FALSE
    if what == "theorem41":
        report = characterization_crosscheck(structure)
        _emit(report, args.out)
        return EXIT_TRUE if report["overall"] else EXIT_FALSE
    if what == "theorem53":
        if args.cut is None:
            raise FormatError("verify theorem53 needs --cut")
        report = recursive_check(structure, args.cut)
        report["overall"] = bool(
            report["hypothesis_product_spans"] and all(report["triple"])
        )
        _emit(report, args.out)
        return EXIT_TRUE if report["overall"] else EXIT_FALSE
    raise FormatError(f"unknown verify target {what!r}")


def cmd_search(args) -> int:
    if args.max_levels is not None and args.max_levels < 1:
        raise FormatError(f"--max-levels must be at least 1, got {args.max_levels}")
    algebra, frame = load_algebra(args.algebra)
    if frame is None:
        raise FormatError("algebra file carries no idempotent frame")
    found = search_reedy(
        algebra, frame.without_degrees(), mode=args.mode, max_levels=args.max_levels
    )
    f = algebra.field
    entries = []
    for s in found:
        entries.append(
            {
                "degrees": {lab: d for lab, d in zip(s.frame.labels, s.frame.degrees)},
                "aplus_dim": s.aplus.dim,
                "aminus_dim": s.aminus.dim,
                "aplus_basis": [[f.show(x) for x in row] for row in s.aplus.space.basis],
                "aminus_basis": [[f.show(x) for x in row] for row in s.aminus.space.basis],
            }
        )
    _emit({"count": len(entries), "found": entries}, args.out)
    return EXIT_TRUE if entries else EXIT_FALSE


def cmd_corpus(args) -> int:
    return run_corpus(args.dir, sys.stdout)


def make_parser() -> argparse.ArgumentParser:
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
    except (FormatError, AlgebraError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
