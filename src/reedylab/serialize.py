"""JSON formats for algebras, Reedy data, weight orders and quiver files.

Scalars are decimal strings ("n" or "n/d") so rational data round-trips
bit-exactly.  Output is canonical (fixed key order, sorted sparse entries,
trailing newline) in one of two layouts.  Reports, order, quiver and index
files are indented by two spaces (``dumps``).  Algebra and Reedy files,
which hold whole tables, put one top-level key per line with its value on
that line (``write_json_by_key``): the C encoder writes that layout at
several times the speed, and it is about a quarter of the size.  Any JSON
layout is read.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import Algebra, AlgebraError, AlgSubspace, IdempotentFrame, subalgebra_closure
from .constructors import QuiverPresentation
from .fields import Field, field_of
from .linalg import sparse, sparse_span
from .qh import WeightOrder
from .reedy import ReedyStructure


class FormatError(Exception):
    pass


def dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=False) + "\n"


def write_json(path, data) -> None:
    Path(path).write_text(dumps(data), encoding="utf-8")


def write_json_by_key(path, data: dict) -> None:
    """Write ``data`` with each top-level key and its whole value on one line."""
    body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in data.items())
    Path(path).write_text("{\n" + body + "\n}\n", encoding="utf-8")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise FormatError(f"{path}: JSON nested too deeply to read") from exc
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def natural(value, label: str) -> int:
    """A JSON integer >= 0 (not a boolean), or a FormatError naming ``label``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise FormatError(f"{label} must be a natural number, got {json.dumps(value)}")
    return value


def scalar(field: Field, value):
    """A decimal string "n" or "n/d" parsed into ``field``, or a FormatError."""
    if not isinstance(value, str):
        raise FormatError(f"scalars must be decimal strings, got {json.dumps(value)}")
    try:
        return field.parse(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{value!r} is not a scalar of {field!r} ({exc})") from exc


def vector(field: Field, value, dim: int, where: str, memo: dict) -> list:
    """A list of ``dim`` string scalars, or a FormatError naming ``where``.

    ``memo`` maps each literal already parsed in this document to its
    scalar (see ``_memo_scalar``).
    """
    if not isinstance(value, list) or len(value) != dim:
        got = f"{len(value)} entries" if isinstance(value, list) else json.dumps(value)
        raise FormatError(f"{where} must be a list of {dim} scalars, got {got}")
    try:
        return [memo[x] for x in value]
    except (KeyError, TypeError):  # a literal not parsed yet, or not a string
        pass
    try:
        return [_memo_scalar(field, x, memo) for x in value]
    except FormatError as exc:
        raise FormatError(f"{where}: {exc}") from None


def _memo_scalar(field: Field, value, memo: dict):
    """``scalar(field, value)``, parsed once per document.

    A document repeats a handful of literals such as "0" and "1" thousands
    of times.  ``memo`` lives for one document and holds only literals that
    parsed, so a bad literal raises wherever it appears.
    """
    try:
        return memo[value]
    except (KeyError, TypeError):
        pass
    x = memo[value] = scalar(field, value)
    return x


def strings(value, what: str) -> list:
    """A JSON list of strings, or a FormatError naming ``what``."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise FormatError(f"{what} must be a list of strings, got {json.dumps(value)}")
    return value


def index(value, dim: int) -> int:
    """A JSON integer in [0, dim), or a FormatError."""
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < dim:
        raise FormatError(f"index must be an integer in [0, {dim}), got {json.dumps(value)}")
    return value


def document(value, kind: str) -> dict:
    """The top level of a ``kind`` document, which must be a JSON object."""
    if not isinstance(value, dict):
        raise FormatError(f"{kind} document must be a JSON object, got {json.dumps(value)}")
    return value


def json_object(value, key: str, values: str) -> dict:
    """A JSON object, or a FormatError naming ``key`` and what it maps to."""
    if not isinstance(value, dict):
        raise FormatError(
            f"{key!r} must be an object mapping labels to {values}, got {json.dumps(value)}"
        )
    return value


def field_to_json(field: Field) -> dict:
    if field.characteristic == 0:
        return {"kind": "Q"}
    return {"kind": "GF", "p": field.characteristic}


def field_from_json(data) -> Field:
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError("field descriptor must be an object with a 'kind'")
    if data["kind"] == "Q":
        return field_of("Q")
    if data["kind"] == "GF":
        return _prime_field(natural(data.get("p"), "field 'p'"), "field 'p'")
    raise FormatError(f"unknown field kind {data['kind']!r}")


def _prime_field(p: int, where: str) -> Field:
    """GF(p), or a FormatError naming ``where`` when p is not a supported prime."""
    try:
        return field_of("GF", p)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def parse_field_flag(text: str) -> Field:
    """Parse a --field flag value: Q or GF:p for a natural number p."""
    if text == "Q":
        return field_of("Q")
    p = text[len("GF:"):] if text.startswith("GF:") else ""
    if not p.isdecimal():
        raise FormatError(f"bad --field value {text!r} (use Q or GF:p)")
    return _prime_field(int(p), f"bad --field value {text!r}")


def algebra_to_json(a: Algebra, frame: IdempotentFrame | None = None) -> dict:
    f = a.field
    mult_rows = []
    for i in range(a.dim):
        for j in range(a.dim):
            pairs = a.mult[i][j]
            if pairs:
                mult_rows.append([i, j, [[k, f.show(c)] for k, c in pairs]])
    data = {
        "field": field_to_json(f),
        "dim": a.dim,
        "labels": list(a.labels),
        "unit": [f.show(x) for x in a.unit],
        "mult": mult_rows,
    }
    if frame is not None:
        data["idempotents"] = {
            lab: [f.show(x) for x in vec]
            for lab, vec in zip(frame.labels, frame.idempotents)
        }
        if frame.degrees is not None:
            data["degrees"] = {lab: d for lab, d in zip(frame.labels, frame.degrees)}
    return data


def _degrees(value, labels) -> list:
    """The degrees of a "degrees" object, in the order of ``labels``, or a
    FormatError naming the first label it misses or has beyond ``labels``."""
    degree_map = json_object(value, "degrees", "natural numbers")
    try:
        degrees = [natural(degree_map[lab], f"degree of {lab!r}") for lab in labels]
    except KeyError as exc:
        raise FormatError(f"degrees missing for idempotent {exc}") from exc
    for lab in degree_map:
        if lab not in labels:
            raise FormatError(f"degrees given for unknown idempotent {lab!r}")
    return degrees


def algebra_from_json(data: dict):
    """Parse an algebra document; returns (algebra, frame-or-None).

    The ``mult`` rows are read in one pass: each row's indices are checked
    and its terms are appended in place to its cell of the table, which
    starts as ``()``.  A row with several terms is then sorted and checked
    for a repeated ``k``, and only then are zero terms dropped.  JSON
    yields exact ``list`` and ``int`` values, so exact type tests pass every
    valid entry at once and ``index`` judges the rest (a boolean index
    among them).
    """
    document(data, "algebra")
    try:
        f = field_from_json(data["field"])
        labels = strings(data["labels"], "'labels'")
        dim = natural(data["dim"], "'dim'")
    except KeyError as exc:
        raise FormatError(f"algebra document missing field {exc}") from exc
    if len(labels) != dim:
        raise FormatError("label count does not match dim")
    memo: dict = {}
    unit = vector(f, data.get("unit"), dim, "'unit'", memo)
    mult = [[()] * dim for _ in range(dim)]
    mult_rows = data.get("mult", [])
    if not isinstance(mult_rows, list):
        raise FormatError(f"'mult' must be a list of rows, got {json.dumps(mult_rows)}")
    # one flag per cell, so that a repeat is caught even after a row with no terms
    seen = bytearray(dim * dim)
    # the literals of nonzero coefficients, so that each entry's zero test is
    # a lookup in the common case; a zero literal takes the slow path every time
    nonzero: dict = {}
    for row in mult_rows:
        if type(row) is not list or len(row) != 3 or type(row[2]) is not list:
            raise FormatError(f"bad mult row {json.dumps(row)}: expected [i, j, [[k, c], ...]]")
        i, j, pairs = row
        try:
            if type(i) is not int or not 0 <= i < dim:
                i = index(i, dim)
            if type(j) is not int or not 0 <= j < dim:
                j = index(j, dim)
            ij = i * dim + j
            if seen[ij]:
                raise FormatError("[i, j] appears more than once")
            seen[ij] = 1
            cells = mult[i]
            zeros = False
            for pair in pairs:
                if type(pair) is not list or len(pair) != 2:
                    raise FormatError(f"entry {json.dumps(pair)} is not a [k, c] pair")
                k, c = pair
                if type(k) is not int or not 0 <= k < dim:
                    k = index(k, dim)
                try:
                    cells[j] += ((k, nonzero[c]),)
                except (KeyError, TypeError):
                    x = _memo_scalar(f, c, memo)
                    if x:
                        nonzero[c] = x
                    else:
                        zeros = True
                    cells[j] += ((k, x),)
            if len(pairs) > 1:
                cell = cells[j] = tuple(sorted(cells[j]))
                for (k, _), (k2, _) in zip(cell, cell[1:]):
                    if k == k2:
                        raise FormatError(f"k = {k} appears more than once")
        except FormatError as exc:
            raise FormatError(f"mult row {json.dumps(row[:2])}: {exc}") from None
        # zero terms are dropped only after the duplicate check has seen them,
        # so the table holds exactly the nonzero terms, as a built one does
        if zeros:
            cells[j] = tuple(e for e in cells[j] if e[1])
    a = Algebra(f, labels, mult, unit)
    frame = None
    if "idempotents" in data:
        idem_map = json_object(data["idempotents"], "idempotents", "vectors")
        idem_labels = list(idem_map)
        idems = []
        for lab in idem_labels:
            idems.append(vector(f, idem_map[lab], dim, f"idempotent {lab!r}", memo))
        degrees = _degrees(data["degrees"], idem_labels) if "degrees" in data else None
        try:
            frame = IdempotentFrame(a, idems, idem_labels, degrees)
        except AlgebraError as exc:
            raise FormatError(f"invalid idempotent frame: {exc}") from exc
    return a, frame


def load_algebra(path):
    return algebra_from_json(read_json(path))


def save_algebra(path, a: Algebra, frame: IdempotentFrame | None = None) -> None:
    write_json_by_key(path, algebra_to_json(a, frame))


def basis_to_json(sub: AlgSubspace) -> list:
    """The canonical basis rows of ``sub``, each scalar as its field shows it."""
    show = sub.algebra.field.show
    return [[show(x) for x in row] for row in sub.space.basis]


def reedy_to_json(r: ReedyStructure, algebra_ref: str) -> dict:
    return {
        "algebra": algebra_ref,
        "degrees": {lab: d for lab, d in zip(r.frame.labels, r.frame.degrees)},
        "aplus": {"basis": basis_to_json(r.aplus)},
        "aminus": {"basis": basis_to_json(r.aminus)},
    }


def _subspace_from_json(a: Algebra, data, name: str, memo: dict) -> AlgSubspace:
    if not isinstance(data, dict):
        raise FormatError(f"{name!r} must be an object with a 'basis' or 'generators', "
                          f"got {json.dumps(data)}")
    key = "basis" if "basis" in data else "generators"
    if key not in data:
        raise FormatError(f"{name}: need 'basis' or 'generators'")
    rows = data[key]
    if not isinstance(rows, list):
        raise FormatError(f"{name}.{key} must be a list of vectors, got {json.dumps(rows)}")
    f = a.field
    vectors = [
        sparse(f, vector(f, row, a.dim, f"{name}.{key}[{r}]", memo)) for r, row in enumerate(rows)
    ]
    if key == "generators":
        return subalgebra_closure(a, vectors)
    sub = AlgSubspace(a, sparse_span(f, a.dim, vectors), AlgSubspace.PLAIN)
    if not sub.is_subalgebra():
        raise FormatError(f"{name}: basis does not span a unital subalgebra")
    return AlgSubspace(a, sub.space, AlgSubspace.SUBALGEBRA)


def reedy_from_json(data: dict, base_dir) -> ReedyStructure:
    if "algebra" not in document(data, "reedy"):
        raise FormatError("reedy document must reference an algebra file")
    alg_ref = data["algebra"]
    if not isinstance(alg_ref, str):
        raise FormatError(f"'algebra' must be a file path string, got {json.dumps(alg_ref)}")
    alg_path = Path(base_dir) / alg_ref
    a, frame = load_algebra(alg_path)
    if frame is None:
        raise FormatError(f"{alg_path}: algebra file carries no idempotent frame")
    degrees_map = data.get("degrees")
    if degrees_map is None:
        if frame.degrees is None:
            raise FormatError("no degree function given (reedy file or algebra file)")
        work = frame
    else:
        work = frame.with_degrees(_degrees(degrees_map, frame.labels))
    memo: dict = {}
    aplus = _subspace_from_json(a, data.get("aplus", {}), "aplus", memo)
    aminus = _subspace_from_json(a, data.get("aminus", {}), "aminus", memo)
    try:
        return ReedyStructure(a, work, aplus, aminus)
    except AlgebraError as exc:
        raise FormatError(str(exc)) from exc


def load_reedy(path) -> ReedyStructure:
    path = Path(path)
    return reedy_from_json(read_json(path), path.parent)


def save_reedy(path, r: ReedyStructure, algebra_ref: str) -> None:
    write_json_by_key(path, reedy_to_json(r, algebra_ref))


def order_from_json(data: dict, frame: IdempotentFrame) -> WeightOrder:
    levels = data.get("levels") if isinstance(data, dict) else None
    if not isinstance(levels, dict):
        raise FormatError("order document needs a 'levels' object")
    for lab in frame.labels:
        if lab in levels:
            natural(levels[lab], f"level of {lab!r}")
    try:
        return WeightOrder.from_json(data, frame.labels)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def load_order(path, frame: IdempotentFrame) -> WeightOrder:
    return order_from_json(read_json(path), frame)


def quiver_from_json(data: dict) -> QuiverPresentation:
    document(data, "quiver")
    for key in ("vertices", "arrows"):
        if key not in data:
            raise FormatError(f"quiver document missing {key!r}")
    vertices = strings(data["vertices"], "'vertices'")
    arrows = data["arrows"]
    if not isinstance(arrows, list):
        raise FormatError(f"'arrows' must be a list of arrows, got {json.dumps(arrows)}")
    for arrow in arrows:
        if not (isinstance(arrow, list) and len(arrow) == 3
                and all(isinstance(x, str) for x in arrow)):
            raise FormatError(f"arrow {json.dumps(arrow)} is not [source, target, label] strings")
    rel_docs = data.get("relations", [])
    if not isinstance(rel_docs, list):
        raise FormatError(f"'relations' must be a list of relations, got {json.dumps(rel_docs)}")
    relations = []
    for ridx, rel in enumerate(rel_docs):
        if not isinstance(rel, list):
            raise FormatError(f"relation {ridx} must be a list of terms, got {json.dumps(rel)}")
        terms = []
        for term in rel:
            if not isinstance(term, dict) or "coeff" not in term or "path" not in term:
                raise FormatError(f"relation {ridx}: terms need 'coeff' and 'path'")
            try:
                # The field comes with the build, so only the syntax is checked here.
                scalar(field_of("Q"), term["coeff"])
                path = strings(term["path"], "'path'")
            except FormatError as exc:
                raise FormatError(f"relation {ridx}: {exc}") from None
            terms.append((term["coeff"], tuple(path)))
        relations.append(terms)
    bound = natural(data.get("nilpotency_bound", 1), "'nilpotency_bound'")
    try:
        return QuiverPresentation(vertices, arrows, relations, bound)
    except AlgebraError as exc:
        raise FormatError(str(exc)) from exc


def quiver_to_json(pres: QuiverPresentation) -> dict:
    return {
        "vertices": list(pres.vertices),
        "arrows": [[s, t, l] for s, t, l in pres.arrows],
        "relations": [
            [{"coeff": str(c), "path": list(p)} for c, p in rel] for rel in pres.relations
        ],
        "nilpotency_bound": pres.nilpotency_bound,
    }


def load_quiver(path) -> QuiverPresentation:
    return quiver_from_json(read_json(path))
