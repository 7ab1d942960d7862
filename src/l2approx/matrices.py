"""Dense matrices over group rings.

Covers the operator-level plumbing: adjoints, products, the positive square
A*A, combinatorial Laplacians assembled from boundary maps, the a-priori
operator-norm bound, and the exact von Neumann trace; and the description of
a cellular chain complex by its boundary matrices, whose invariants ``cw``
computes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, MismatchedGroup, NotAComplex
from .groupring import GaussianRational, RingElement
from .groups import Group, Homomorphism


class RingMatrix:
    """A rows x cols matrix with RingElement entries over one group.

    The column count is read from the rows; a matrix with no rows takes it
    from ``cols``, so a 0 x n map keeps its shape.
    """

    __slots__ = ("group", "rows", "cols", "entries")

    def __init__(self, group: Group, entries: Sequence[Sequence[RingElement]], cols: int = 0):
        entries = tuple(tuple(row) for row in entries)
        rows = len(entries)
        if rows:
            cols = len(entries[0])
        elif cols < 0:
            raise DimensionMismatch(f"column count must be >= 0, got {cols}")
        for row in entries:
            if len(row) != cols:
                raise DimensionMismatch("ragged rows")
            for e in row:
                if not isinstance(e, RingElement):
                    raise TypeError(f"entry {e!r} is not a RingElement")
                if e.group != group:
                    raise MismatchedGroup(f"entry over {e.group}, matrix over {group}")
        self.group = group
        self.rows = rows
        self.cols = cols
        self.entries = entries

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(group: Group, rows: int, cols: int) -> "RingMatrix":
        z = RingElement.zero(group)
        return RingMatrix(group, [[z] * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(group: Group, d: int) -> "RingMatrix":
        z = RingElement.zero(group)
        one = RingElement.one(group)
        return RingMatrix(group, [[one if i == j else z for j in range(d)] for i in range(d)])

    @staticmethod
    def from_element(x: RingElement) -> "RingMatrix":
        return RingMatrix(x.group, [[x]])

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.group == other.group
            and self.shape == other.shape
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.group, self.entries))

    # -- algebra ----------------------------------------------------------

    def adjoint(self) -> "RingMatrix":
        """Conjugate transpose: (M*)_{kl} = (M_{lk})*."""
        return RingMatrix(
            self.group,
            [[self.entries[l][k].star() for l in range(self.rows)] for k in range(self.cols)],
            self.rows,
        )

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"{self.shape} + {other.shape}")
        if self.group != other.group:
            raise MismatchedGroup(f"{self.group} vs {other.group}")
        return RingMatrix(
            self.group,
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ],
            self.cols,
        )

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "RingMatrix":
        return RingMatrix(self.group, [[e * c for e in row] for row in self.entries], self.cols)

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.group != other.group:
            raise MismatchedGroup(f"{self.group} vs {other.group}")
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = RingElement.zero(self.group)
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return RingMatrix(self.group, out, other.cols)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_self_adjoint(self) -> bool:
        """Exact entrywise check adjoint(M) == M."""
        return self.is_square() and self.adjoint() == self

    def is_integral(self) -> bool:
        return all(e.is_integral() for row in self.entries for e in row)

    def support(self) -> set:
        s: set = set()
        for row in self.entries:
            for e in row:
                s |= e.support()
        return s

    def push_forward(self, phi: Homomorphism) -> "RingMatrix":
        """Entrywise image under a homomorphism."""
        return RingMatrix(
            phi.target, [[e.push_forward(phi) for e in row] for row in self.entries], self.cols
        )

    def __str__(self):
        return f"RingMatrix {self.rows}x{self.cols} over {self.group}"


def positive_square(a: RingMatrix) -> RingMatrix:
    """The positive self-adjoint square Delta = A* A."""
    return a.adjoint() @ a


def k_bound(delta: RingMatrix) -> float:
    """d^2 times the largest entrywise L1 norm; an upper bound for the
    operator norm of the matrix and of all its finite-level images."""
    if not delta.is_square():
        raise DimensionMismatch("k_bound needs a square matrix")
    d = delta.rows
    if d == 0:
        return 0.0
    biggest = max(e.l1_norm() for row in delta.entries for e in row)
    return d * d * biggest


def laplacian(boundary_out: RingMatrix, boundary_in: RingMatrix) -> RingMatrix:
    """Combinatorial Laplacian of one chain degree, B* B + B' B'* for the
    boundary B leaving the degree and the boundary B' entering it; at either
    end of a complex the missing one is a zero map."""
    return boundary_out.adjoint() @ boundary_out + boundary_in @ boundary_in.adjoint()


def trace(delta: RingMatrix) -> GaussianRational:
    """Exact von Neumann trace: sum of identity coefficients on the diagonal."""
    if not delta.is_square():
        raise DimensionMismatch("trace needs a square matrix")
    acc = GaussianRational.of(0)
    for i in range(delta.rows):
        acc = acc + delta.entries[i][i].trace_coeff()
    return acc


@dataclass(frozen=True)
class ChainComplexSpec:
    """Cell counts per degree and boundary maps boundaries[p]: C_{p+1} -> C_p."""

    group: Group
    dims: tuple
    boundaries: tuple

    def __post_init__(self):
        if len(self.boundaries) != max(0, len(self.dims) - 1):
            raise NotAComplex(
                None,
                f"{len(self.dims)} degrees need {max(0, len(self.dims) - 1)} boundaries, "
                f"got {len(self.boundaries)}",
            )

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def boundary(self, p: int) -> RingMatrix:
        """The boundary map C_p -> C_{p-1}, 0 <= p <= top + 1; the two ends
        are zero maps, out of C_0 and into C_top."""
        if p == 0:
            return RingMatrix.zero(self.group, 0, self.dims[0])
        if p == len(self.dims):
            return RingMatrix.zero(self.group, self.dims[-1], 0)
        return self.boundaries[p - 1]
