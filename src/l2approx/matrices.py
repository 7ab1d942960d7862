"""Dense matrices over group rings.

Covers the operator-level plumbing: adjoints, products, the positive square
A*A, combinatorial Laplacians assembled from boundary maps, the a-priori
operator-norm bound, and the exact von Neumann trace.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import DimensionMismatch, MismatchedGroup
from .groupring import GaussianRational, RingElement
from .groups import Group, Homomorphism


class RingMatrix:
    """A rows x cols matrix with RingElement entries over one group."""

    __slots__ = ("group", "rows", "cols", "entries")

    def __init__(self, group: Group, entries: Sequence[Sequence[RingElement]]):
        entries = tuple(tuple(row) for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
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
        return RingMatrix(group, [[z] * cols for _ in range(rows)])

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
        )

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        return self + other.scale(-1)

    def scale(self, c) -> "RingMatrix":
        return RingMatrix(
            self.group, [[e * c for e in row] for row in self.entries]
        )

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
        return RingMatrix(self.group, out)

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
            phi.target, [[e.push_forward(phi) for e in row] for row in self.entries]
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


def laplacian(
    boundary_out: Optional[RingMatrix],
    boundary_in: Optional[RingMatrix],
    *,
    group: Optional[Group] = None,
    dim: Optional[int] = None,
) -> RingMatrix:
    """Combinatorial Laplacian of one chain degree.

    ``boundary_out`` maps this degree down and contributes ``B* B``;
    ``boundary_in`` maps into this degree and contributes ``B B*``.  At the
    top/bottom of a complex either argument may be None; if both are None the
    degree is isolated and ``group``/``dim`` fix the zero matrix size.
    """
    if boundary_out is None and boundary_in is None:
        if group is None or dim is None:
            raise DimensionMismatch("isolated degree needs explicit group and dim")
        return RingMatrix.zero(group, dim, dim)
    down = None if boundary_out is None else boundary_out.adjoint() @ boundary_out
    up = None if boundary_in is None else boundary_in @ boundary_in.adjoint()
    if down is not None and up is not None:
        if down.shape != up.shape:
            raise DimensionMismatch(
                f"boundaries are not chain-compatible: {down.shape} vs {up.shape}"
            )
        return down + up
    return down if down is not None else up


def trace(delta: RingMatrix) -> GaussianRational:
    """Exact von Neumann trace: sum of identity coefficients on the diagonal."""
    if not delta.is_square():
        raise DimensionMismatch("trace needs a square matrix")
    acc = GaussianRational.of(0)
    for i in range(delta.rows):
        acc = acc + delta.entries[i][i].trace_coeff()
    return acc
