"""Problem-file parsing and deterministic report serialization.

The JSON schemas are small and explicit: groups are tagged by "type", ring
elements are lists of {"word", "re", "im"} terms with rational coefficients
written as ints or "p/q" strings, matrices carry their shape plus an entry
grid, and schemes are tagged "tower" / "folner".  Report emission formats
every float with 12 significant digits and sorts keys, so identical inputs
produce byte-identical output.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction
from functools import partial
from typing import Optional

from .errors import (
    DimensionMismatch,
    MalformedGroup,
    MismatchedGroup,
    ProblemFormatError,
    SchemeError,
    UndefinedGenerator,
    shown,
)
from .groupring import GaussianRational, RingElement
from .groups import (
    CyclicGroup,
    DirectProductGroup,
    FiniteTableGroup,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    Homomorphism,
    QuotientTower,
    TrivialGroup,
    build_boxes_folner,
    product_group,
)
from .matrices import ChainComplexSpec, RingMatrix


def _int(x, what: str) -> int:
    """A JSON integer; bool, float and string are rejected, never converted."""
    if type(x) is not int:
        raise ProblemFormatError(f"{what} must be an integer, got {shown(x)}")
    return x


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise ProblemFormatError(f"{what} must be a list, got {shown(x)}")
    return x


def _ints(x, what: str) -> list:
    return [_int(v, what) for v in _list(x, what)]


_TABLE = "table must be a list of integer rows"


def _table(table) -> list:
    """A JSON list of list rows, as it is.  Its entry types are scanned
    once, by ``FiniteTableGroup``; ``_table_entries`` names a bad entry
    only after that scan fails.  The error names the first offending row,
    never the whole table."""
    if not isinstance(table, list):
        raise ProblemFormatError(f"{_TABLE}, got {type(table).__name__}")
    for i, row in enumerate(table):
        if not isinstance(row, list):
            _table_entries(table[:i])  # a bad entry in an earlier row wins
            raise ProblemFormatError(f"{_TABLE}: row {i} is {type(row).__name__}")
    return table


def _table_entries(table: list) -> None:
    """ProblemFormatError naming the first entry of the rows of ``table``,
    row by row, that is not an int."""
    for i, row in enumerate(table):
        for j, x in enumerate(row):
            if type(x) is not int:
                raise ProblemFormatError(f"{_TABLE}: row {i}, column {j} is {shown(x)}")


# what the group and homomorphism constructors raise on content that does
# not describe a group, an element or a homomorphism: an input error
_GROUP_ERRORS = (MalformedGroup, MismatchedGroup, UndefinedGenerator)


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def parse_group(obj) -> Group:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ProblemFormatError(f"group must be an object with a 'type': {shown(obj)}")
    kind = obj["type"]
    try:
        if kind == "trivial":
            return TrivialGroup()
        if kind == "cyclic":
            return CyclicGroup(_int(obj["n"], "cyclic order"))
        if kind == "free_abelian":
            return FreeAbelianGroup(_int(obj["rank"], "rank"))
        if kind == "free":
            return FreeGroup(_int(obj["rank"], "rank"))
        if kind == "finite_table":
            table = _table(obj["table"])
            names = obj.get("names")
            try:
                if names is not None and any(type(x) is not str for x in _list(names, "names")):
                    raise ProblemFormatError(f"names must be strings: {shown(names)}")
                return FiniteTableGroup(table, names=names)
            except (ProblemFormatError, MalformedGroup):
                _table_entries(table)  # a bad entry wins over every other defect
                raise
        if kind == "product":
            return product_group([parse_group(f) for f in _list(obj["factors"], "factors")])
    except KeyError as exc:
        raise ProblemFormatError(f"group {shown(kind)} is missing field {exc}") from exc
    except _GROUP_ERRORS as exc:
        raise ProblemFormatError(str(exc)) from exc
    raise ProblemFormatError(f"unknown group type {shown(kind)}")


def group_to_json(group: Group):
    if isinstance(group, TrivialGroup):
        return {"type": "trivial"}
    if isinstance(group, CyclicGroup):
        return {"type": "cyclic", "n": group.n}
    if isinstance(group, FreeAbelianGroup):
        return {"type": "free_abelian", "rank": group.rank}
    if isinstance(group, FreeGroup):
        return {"type": "free", "rank": group.rank}
    if isinstance(group, FiniteTableGroup):
        out = {"type": "finite_table", "table": [list(r) for r in group.table]}
        if group.names is not None:
            out["names"] = list(group.names)
        return out
    if isinstance(group, DirectProductGroup):
        return {"type": "product", "factors": [group_to_json(f) for f in group.factors]}
    raise ProblemFormatError(f"cannot serialize group {group}")


def parse_element(group: Group, obj):
    if isinstance(group, TrivialGroup):
        payload = ()
    elif isinstance(group, (CyclicGroup, FiniteTableGroup)):
        payload = _int(obj, "element")
    elif isinstance(group, (FreeAbelianGroup, FreeGroup)):
        payload = tuple(_ints(obj, "word"))
    elif isinstance(group, DirectProductGroup):
        if not isinstance(obj, list) or len(obj) != len(group.factors):
            raise ProblemFormatError(f"element of {group} needs one entry per factor: {shown(obj)}")
        payload = tuple(parse_element(f, x) for f, x in zip(group.factors, obj))
    else:
        raise ProblemFormatError(f"cannot parse elements of {group}")
    try:
        return group.check(payload)
    except _GROUP_ERRORS as exc:
        raise ProblemFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# coefficients, ring elements, matrices
# ---------------------------------------------------------------------------

# an integer or "p/q" string, ASCII digits only
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise ProblemFormatError(f"boolean is not a rational: {shown(x)}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        # Fraction builds 10^e of an exponent string exactly, so a short
        # "1e100000000" would stall the parser: refuse every exponent
        if "e" in x or "E" in x:
            raise ProblemFormatError(f"coefficient {shown(x)} has an exponent; write it as 'p/q'")
        # Fraction also takes decimals, "_" separators, padding and
        # non-ASCII digits, none of which the format has
        if not _RATIONAL.fullmatch(x):
            raise ProblemFormatError(f"coefficient {shown(x)} is not a rational: write it as 'p/q'")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ProblemFormatError(f"coefficient {shown(x)} is not a rational") from exc
    raise ProblemFormatError(
        f"rational coefficients must be ints or 'p/q' strings, got {shown(x)}"
    )


def rational_to_json(fr: Fraction):
    if fr.denominator == 1:
        return int(fr)
    return f"{fr.numerator}/{fr.denominator}"


def parse_ring_element(group: Group, obj) -> RingElement:
    terms = {}
    for term in _list(obj, "ring element"):
        if not isinstance(term, dict) or "word" not in term:
            raise ProblemFormatError(f"term must be an object with a 'word': {shown(term)}")
        g = parse_element(group, term["word"])
        re = parse_rational(term.get("re", 0))
        im = parse_rational(term.get("im", 0))
        coeff = GaussianRational(re, im)
        if g in terms:
            coeff = terms[g] + coeff
        terms[g] = coeff
    return RingElement(group, terms)


def parse_matrix(group: Group, obj) -> RingMatrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ProblemFormatError(f"matrix must be an object with 'entries': {shown(obj)}")
    grid = [_list(row, "matrix row") for row in _list(obj["entries"], "matrix entries")]
    rows = obj.get("rows")
    cols = obj.get("cols")
    if cols is not None and _int(cols, "cols") < 0:
        raise ProblemFormatError(f"declared cols={shown(cols)} is negative")
    entries = [[parse_ring_element(group, e) for e in row] for row in grid]
    try:
        # a matrix with no rows has only its declared column count
        m = RingMatrix(group, entries, cols or 0)
    except DimensionMismatch as exc:
        raise ProblemFormatError(f"matrix: {exc}") from exc
    if rows is not None and _int(rows, "rows") != m.rows:
        raise ProblemFormatError(f"declared rows={shown(rows)} but found {m.rows}")
    if cols is not None and _int(cols, "cols") != m.cols:
        raise ProblemFormatError(f"declared cols={shown(cols)} but found {m.cols}")
    return m


# ---------------------------------------------------------------------------
# schemes and homomorphisms
# ---------------------------------------------------------------------------

def parse_homomorphism(source: Group, obj) -> Homomorphism:
    if not isinstance(obj, dict) or "target" not in obj:
        raise ProblemFormatError(f"homomorphism must be an object with a 'target': {shown(obj)}")
    target = parse_group(obj["target"])
    try:
        if "images" in obj:
            images = [parse_element(target, im) for im in _list(obj["images"], "images")]
            return Homomorphism(source, target, generator_images=images)
        if "element_map" in obj:
            pairs = [_list(p, "element_map entry") for p in _list(obj["element_map"], "element_map")]
            bad = [p for p in pairs if len(p) != 2]
            if bad:
                raise ProblemFormatError(f"element_map entries must be [source, image] pairs, got {shown(bad[0])}")
            emap = {parse_element(source, k): parse_element(target, v) for k, v in pairs}
            return Homomorphism(source, target, element_map=emap)
    except _GROUP_ERRORS as exc:
        raise ProblemFormatError(str(exc)) from exc
    raise ProblemFormatError("homomorphism needs 'images' or 'element_map'")


def parse_scheme(group: Group, obj):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ProblemFormatError(f"scheme must be an object with a 'type': {shown(obj)}")
    kind = obj["type"]
    try:
        if kind == "tower" and "maps" in obj:
            homs = [parse_homomorphism(group, h) for h in _list(obj["maps"], "maps")]
            labels = obj.get("labels")
            labels = None if labels is None else _ints(labels, "tower label")
            build = partial(QuotientTower, group, homs, labels=labels)
        elif kind == "tower":
            levels = _ints(obj["levels"], "tower level")
            if not isinstance(group, FreeAbelianGroup):
                raise ProblemFormatError(
                    "tower levels as moduli need a free abelian group; supply 'maps'"
                )
            build = partial(QuotientTower.zn, group.rank, levels)
        elif kind == "folner":
            boxes = _ints(obj["boxes"], "box size")
            if not isinstance(group, FreeAbelianGroup):
                raise ProblemFormatError("folner boxes need a free abelian group")
            build = partial(build_boxes_folner, group.rank, boxes)
        else:
            raise ProblemFormatError(f"unknown scheme type {shown(kind)}")
    except KeyError as exc:
        raise ProblemFormatError(f"{kind} scheme is missing field {exc}") from exc
    try:
        scheme = build()
    except (MalformedGroup, SchemeError) as exc:
        raise ProblemFormatError(f"{kind} scheme: {exc}") from exc
    if not scheme.labels:
        raise ProblemFormatError(f"{kind} scheme has no levels")
    return scheme


# ---------------------------------------------------------------------------
# problems and complexes
# ---------------------------------------------------------------------------

# the checks a problem may name: name -> (schemes that serve it, None
# meaning no scheme; what it needs beyond them), in evaluation order.
# ``verdicts`` has one function of each name.
VERDICTS = {
    "subgroup": ((None, "tower", "folner"), "embedding"),
    "whitehead": (("tower",), "inverse"),
    "complex": (("tower",), "oracle"),
    "squeeze": (("tower",), "oracle"),
    "sintapr": (("tower",), None),
    "traces": (("folner",), None),
    "norms": (("tower", "folner"), None),
}

# each need and the input error of a check that lacks it
NEEDS = {
    "embedding": "{} check needs an 'embedding'",
    "inverse": "{} check needs an 'inverse' matrix",
    "oracle": "{} needs a self-adjoint matrix over a free abelian group",
}


def require(checks, kind: Optional[str], **have: bool) -> None:
    """Raise the input error of the first of ``checks`` that a scheme of
    this kind (None: no scheme) does not serve, else of the first, in table
    order, whose need ``have`` marks false."""
    for name in checks:
        schemes = VERDICTS[name][0]
        if kind not in schemes:
            raise ProblemFormatError(
                f"{name} check needs a {schemes[0]} scheme"
                if kind
                else "no scheme given (problem 'scheme' or --levels/--boxes)"
            )
    for name, (_, need) in VERDICTS.items():
        if name in checks and need is not None and not have[need]:
            raise ProblemFormatError(NEEDS[need].format(name))


class Problem:
    """A parsed problem: its group and matrix, and the optional scheme,
    oracle grid, lambda grid, checks (None: the defaults; [] runs no
    verdict), inverse and embedding."""

    def __init__(self, group: Group, matrix: RingMatrix, scheme=None, oracle_grid=None,
                 lambda_grid=None, checks=None, inverse=None, embedding=None):
        self.group, self.matrix, self.scheme = group, matrix, scheme
        self.oracle_grid, self.lambda_grid, self.checks = oracle_grid, lambda_grid, checks
        self.inverse, self.embedding = inverse, embedding


def parse_problem(obj: dict) -> Problem:
    if not isinstance(obj, dict):
        raise ProblemFormatError("problem file must contain a JSON object")
    try:
        group = parse_group(obj["group"])
        matrix = parse_matrix(group, obj["matrix"])
    except KeyError as exc:
        raise ProblemFormatError(f"problem is missing field {exc}") from exc
    scheme = parse_scheme(group, obj["scheme"]) if "scheme" in obj else None
    oracle = obj.get("oracle", {})
    if not isinstance(oracle, dict):
        raise ProblemFormatError(f"oracle must be an object, got {shown(oracle)}")
    oracle_grid = _int(oracle["grid"], "oracle grid") if "grid" in oracle else None
    if oracle_grid is not None and oracle_grid < 1:
        raise ProblemFormatError(f"oracle grid must be >= 1, got {shown(oracle_grid)}")
    inverse = parse_matrix(group, obj["inverse"]) if "inverse" in obj else None
    embedding = parse_homomorphism(group, obj["embedding"]) if "embedding" in obj else None
    lambda_grid = obj.get("lambda_grid")
    if lambda_grid is not None:
        if not _list(lambda_grid, "lambda_grid"):
            raise ProblemFormatError("lambda_grid is empty; leave it out for the default grid")
        # json reads NaN and Infinity, which are not JSON numbers, and
        # integers beyond every float, which float() cannot convert
        if any(type(x) not in (int, float) or not abs(x) <= sys.float_info.max for x in lambda_grid):
            raise ProblemFormatError(f"lambda_grid must be a list of finite numbers, got {shown(lambda_grid)}")
        lambda_grid = [float(x) for x in lambda_grid]
    checks = obj.get("checks")
    if checks is not None and any(
        type(c) is not str or c not in VERDICTS for c in _list(checks, "checks")
    ):
        raise ProblemFormatError(f"checks must be a list of names from {list(VERDICTS)}: {shown(checks)}")
    return Problem(
        group=group,
        matrix=matrix,
        scheme=scheme,
        oracle_grid=oracle_grid,
        lambda_grid=lambda_grid,
        checks=checks,
        inverse=inverse,
        embedding=embedding,
    )


def parse_complex(obj: dict) -> ChainComplexSpec:
    if not isinstance(obj, dict):
        raise ProblemFormatError("complex file must contain a JSON object")
    try:
        group = parse_group(obj["group"])
        dims = tuple(_ints(obj["cells"], "cell count"))
        if any(n < 0 for n in dims):
            raise ProblemFormatError(f"cell counts must be >= 0, got {shown(list(dims))}")
        boundaries = tuple(
            parse_matrix(group, b) for b in _list(obj.get("boundaries", []), "boundaries")
        )
    except KeyError as exc:
        raise ProblemFormatError(f"complex is missing field {exc}") from exc
    return ChainComplexSpec(group, dims, boundaries)


def load_json(path: str) -> dict:
    """The parsed JSON of a file; a file that cannot be read, is not UTF-8
    JSON, nests too deep or holds an integer past Python's digit limit is an
    input error.  ``ValueError`` covers the decoding errors and the digit
    limit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ProblemFormatError(str(exc)) from exc


# ---------------------------------------------------------------------------
# deterministic emission
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        x = 0.0  # normalize -0.0
    text = format(x, ".12g")
    return text


def canonical_dumps(obj, indent: int = 0) -> str:
    """JSON text with sorted keys and 12-significant-digit floats."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(rational_to_json(obj)) if obj.denominator != 1 else str(obj)
    if isinstance(obj, GaussianRational):
        return canonical_dumps({"re": obj.re, "im": obj.im}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [canonical_dumps(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = sorted(obj, key=str)
        items = [
            inner + json.dumps(str(k)) + ": " + canonical_dumps(obj[k], indent + 2)
            for k in keys
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}: {obj!r}")


def density_csv(density) -> str:
    lines = ["lambda,F"]
    for pos, f in density.rows():
        lines.append(f"{format_float(float(pos))},{format_float(float(f))}")
    return "\n".join(lines) + "\n"


def density_to_json(density) -> dict:
    return {
        "jumps": [
            {"lambda": float(pos), "mass": count / density.denom}
            for pos, count in density.jumps
        ],
        "total_mass": density.total_mass,
    }


def level_report_to_json(rep, include_timing: bool = False, include_density: bool = False) -> dict:
    out = {
        "level": rep.level,
        "f0": rep.f0,
        "logdet": rep.logdet,
        "matrix_size": rep.matrix_size,
        "max_eigenvalue": rep.max_eigenvalue,
        "norm_bound": rep.norm_bound,
        "norm_bound_ok": rep.norm_bound_ok,
        "moments": {str(k): v for k, v in rep.moments.items()},
        "trace_certified": {str(k): v for k, v in rep.trace_certified.items()},
        "exact_traces": {str(k): v for k, v in rep.exact_traces.items()},
    }
    if rep.defects:
        out["defects"] = {str(k): v for k, v in rep.defects.items()}
    if include_timing:
        out["wall_time"] = rep.wall_time
    if include_density:
        out["density"] = density_to_json(rep.density)
    return out
