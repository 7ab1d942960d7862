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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .cw import ChainComplexSpec
from .errors import L2ApproxError
from .groupring import GaussianRational, RingElement
from .groups import (
    CyclicGroup,
    DirectProductGroup,
    FiniteTableGroup,
    FreeAbelianGroup,
    FreeGroup,
    Group,
    Homomorphism,
    TrivialGroup,
    product_group,
)
from .matrices import RingMatrix
from .schemes import QuotientTower, build_boxes_folner


class ProblemFormatError(L2ApproxError):
    """The problem file does not match the expected schema."""


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def parse_group(obj) -> Group:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ProblemFormatError(f"group must be an object with a 'type': {obj!r}")
    kind = obj["type"]
    try:
        if kind == "trivial":
            return TrivialGroup()
        if kind == "cyclic":
            return CyclicGroup(int(obj["n"]))
        if kind == "free_abelian":
            return FreeAbelianGroup(int(obj["rank"]))
        if kind == "free":
            return FreeGroup(int(obj["rank"]))
        if kind == "finite_table":
            table = obj["table"]
            if (
                not isinstance(table, list)
                or not all(isinstance(row, list) for row in table)
                or any(type(x) is not int for row in table for x in row)
            ):
                raise ProblemFormatError(f"table must be a list of integer rows: {table!r}")
            return FiniteTableGroup(table, names=obj.get("names"))
        if kind == "product":
            return product_group([parse_group(f) for f in obj["factors"]])
    except KeyError as exc:
        raise ProblemFormatError(f"group {kind!r} is missing field {exc}") from exc
    raise ProblemFormatError(f"unknown group type {kind!r}")


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
        factors = []
        g = group
        while isinstance(g, DirectProductGroup):
            factors.insert(0, g.right)
            g = g.left
        factors.insert(0, g)
        return {"type": "product", "factors": [group_to_json(f) for f in factors]}
    raise ProblemFormatError(f"cannot serialize group {group}")


def parse_element(group: Group, obj):
    if isinstance(group, TrivialGroup):
        payload = ()
    elif isinstance(group, (CyclicGroup, FiniteTableGroup)):
        payload = int(obj)
    elif isinstance(group, (FreeAbelianGroup, FreeGroup)):
        payload = tuple(int(x) for x in obj)
    elif isinstance(group, DirectProductGroup):
        if not isinstance(obj, (list, tuple)) or len(obj) != 2:
            raise ProblemFormatError(f"product element must be a pair: {obj!r}")
        payload = (parse_element(group.left, obj[0]), parse_element(group.right, obj[1]))
    else:
        raise ProblemFormatError(f"cannot parse elements of {group}")
    return group.check(payload)


def element_to_json(group: Group, payload):
    if isinstance(group, TrivialGroup):
        return []
    if isinstance(group, (CyclicGroup, FiniteTableGroup)):
        return payload
    if isinstance(group, (FreeAbelianGroup, FreeGroup)):
        return list(payload)
    if isinstance(group, DirectProductGroup):
        return [element_to_json(group.left, payload[0]), element_to_json(group.right, payload[1])]
    raise ProblemFormatError(f"cannot serialize elements of {group}")


# ---------------------------------------------------------------------------
# coefficients, ring elements, matrices
# ---------------------------------------------------------------------------

def parse_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise ProblemFormatError(f"boolean is not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise ProblemFormatError(
        f"rational coefficients must be ints or 'p/q' strings, got {x!r}"
    )


def rational_to_json(fr: Fraction):
    if fr.denominator == 1:
        return int(fr)
    return f"{fr.numerator}/{fr.denominator}"


def parse_ring_element(group: Group, obj) -> RingElement:
    if not isinstance(obj, list):
        raise ProblemFormatError(f"ring element must be a list of terms: {obj!r}")
    terms = {}
    for term in obj:
        g = parse_element(group, term["word"])
        re = parse_rational(term.get("re", 0))
        im = parse_rational(term.get("im", 0))
        coeff = GaussianRational(re, im)
        if g in terms:
            coeff = terms[g] + coeff
        terms[g] = coeff
    return RingElement(group, terms)


def ring_element_to_json(x: RingElement):
    out = []
    for g, c in sorted(x.terms.items(), key=lambda kv: repr(kv[0])):
        term = {"word": element_to_json(x.group, g), "re": rational_to_json(c.re)}
        if c.im != 0:
            term["im"] = rational_to_json(c.im)
        out.append(term)
    return out


def parse_matrix(group: Group, obj) -> RingMatrix:
    if not isinstance(obj, dict) or "entries" not in obj:
        raise ProblemFormatError(f"matrix must be an object with 'entries': {obj!r}")
    entries = [[parse_ring_element(group, e) for e in row] for row in obj["entries"]]
    m = RingMatrix(group, entries)
    rows = obj.get("rows")
    cols = obj.get("cols")
    if rows is not None and int(rows) != m.rows:
        raise ProblemFormatError(f"declared rows={rows} but found {m.rows}")
    if cols is not None and int(cols) != m.cols:
        raise ProblemFormatError(f"declared cols={cols} but found {m.cols}")
    return m


def matrix_to_json(m: RingMatrix):
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[ring_element_to_json(e) for e in row] for row in m.entries],
    }


# ---------------------------------------------------------------------------
# schemes and homomorphisms
# ---------------------------------------------------------------------------

def parse_homomorphism(source: Group, obj) -> Homomorphism:
    target = parse_group(obj["target"])
    if "images" in obj:
        images = [parse_element(target, im) for im in obj["images"]]
        return Homomorphism(source, target, generator_images=images)
    if "element_map" in obj:
        emap = {
            parse_element(source, k): parse_element(target, v)
            for k, v in obj["element_map"]
        }
        return Homomorphism(source, target, element_map=emap)
    raise ProblemFormatError("homomorphism needs 'images' or 'element_map'")


def parse_scheme(group: Group, obj):
    if not isinstance(obj, dict) or "type" not in obj:
        raise ProblemFormatError(f"scheme must be an object with a 'type': {obj!r}")
    kind = obj["type"]
    if kind == "tower":
        if "maps" in obj:
            homs = [parse_homomorphism(group, h) for h in obj["maps"]]
            return QuotientTower(group, homs, labels=obj.get("labels"))
        levels = [int(n) for n in obj["levels"]]
        if not isinstance(group, FreeAbelianGroup):
            raise ProblemFormatError(
                "tower levels as moduli need a free abelian group; supply 'maps'"
            )
        return QuotientTower.zn(group.rank, levels)
    if kind == "folner":
        boxes = [int(m) for m in obj["boxes"]]
        if not isinstance(group, FreeAbelianGroup):
            raise ProblemFormatError("folner boxes need a free abelian group")
        return build_boxes_folner(group.rank, boxes)
    raise ProblemFormatError(f"unknown scheme type {kind!r}")


# ---------------------------------------------------------------------------
# problems and complexes
# ---------------------------------------------------------------------------

@dataclass
class Problem:
    group: Group
    matrix: RingMatrix
    scheme: object = None
    oracle_grid: Optional[int] = None
    lambda_grid: Optional[list] = None
    checks: list = field(default_factory=list)
    inverse: Optional[RingMatrix] = None
    embedding: Optional[Homomorphism] = None
    raw: dict = field(default_factory=dict)


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
    oracle_grid = int(oracle["grid"]) if isinstance(oracle, dict) and "grid" in oracle else None
    inverse = parse_matrix(group, obj["inverse"]) if "inverse" in obj else None
    embedding = parse_homomorphism(group, obj["embedding"]) if "embedding" in obj else None
    lambda_grid = [float(x) for x in obj["lambda_grid"]] if "lambda_grid" in obj else None
    checks = list(obj.get("checks", []))
    return Problem(
        group=group,
        matrix=matrix,
        scheme=scheme,
        oracle_grid=oracle_grid,
        lambda_grid=lambda_grid,
        checks=checks,
        inverse=inverse,
        embedding=embedding,
        raw=obj,
    )


def parse_complex(obj: dict) -> ChainComplexSpec:
    if not isinstance(obj, dict):
        raise ProblemFormatError("complex file must contain a JSON object")
    try:
        group = parse_group(obj["group"])
        dims = tuple(int(c) for c in obj["cells"])
        boundaries = tuple(parse_matrix(group, b) for b in obj.get("boundaries", []))
    except KeyError as exc:
        raise ProblemFormatError(f"complex is missing field {exc}") from exc
    return ChainComplexSpec(group, dims, boundaries)


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
        "exact_traces": {
            str(k): {"re": rational_to_json(v.re), "im": rational_to_json(v.im)}
            for k, v in rep.exact_traces.items()
        },
    }
    if rep.defects:
        out["defects"] = {str(k): v for k, v in rep.defects.items()}
    if include_timing:
        out["wall_time"] = rep.wall_time
    if include_density:
        out["density"] = density_to_json(rep.density)
    return out
