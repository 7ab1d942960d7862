"""Exact arithmetic in complex group rings.

Elements are finitely supported formal sums over a group, with Gaussian
rational coefficients (exact real and imaginary parts).  Floating point
enters only when an element is handed to the spectral layer.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Union

from .errors import MismatchedGroup
from .groups import Group, Homomorphism

Rational = Union[int, Fraction]


class GaussianRational:
    """Exact complex number re + im*i with rational parts.  Instances are
    treated as immutable; assigning to a part is not prevented."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        self.re, self.im = re, im

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im if other.__class__ is GaussianRational else NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    @staticmethod
    def of(re: Rational = 0, im: Rational = 0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other):
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    def is_integer(self) -> bool:
        return self.im == 0 and self.re.denominator == 1

    def modulus(self) -> float:
        """Complex modulus, computed in floating point."""
        return math.hypot(float(self.re), float(self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


ZERO = GaussianRational.of(0)
ONE = GaussianRational.of(1)


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value), Fraction(0))
    if isinstance(value, complex):
        # exact conversion: binary floats are rationals
        return GaussianRational(Fraction(value.real), Fraction(value.imag))
    if isinstance(value, float):
        return GaussianRational(Fraction(value), Fraction(0))
    raise TypeError(f"cannot interpret {value!r} as an exact coefficient")


class RingElement:
    """Finitely supported sum `sum_g coeff_g * g` over a fixed group.

    The support dict maps canonical element payloads to nonzero coefficients;
    instances are treated as immutable.
    """

    __slots__ = ("group", "terms")

    def __init__(self, group: Group, terms: Mapping = (), *, _trusted=False):
        self.group = group
        if _trusted:
            self.terms = dict(terms)
            return
        clean = {}
        for g, c in dict(terms).items():
            group.check(g)
            c = _coerce(c)
            if not c.is_zero():
                clean[g] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(group: Group) -> "RingElement":
        return RingElement(group, {}, _trusted=True)

    @staticmethod
    def one(group: Group) -> "RingElement":
        return RingElement(group, {group.identity(): ONE}, _trusted=True)

    @staticmethod
    def delta(group: Group, g, coeff=1) -> "RingElement":
        return RingElement(group, {g: coeff})

    @staticmethod
    def scalar(group: Group, coeff) -> "RingElement":
        return RingElement(group, {group.identity(): coeff})

    # -- ring structure ------------------------------------------------

    def _require_same_group(self, other: "RingElement"):
        if self.group != other.group:
            raise MismatchedGroup(f"{self.group} vs {other.group}")

    def __add__(self, other):
        if not isinstance(other, RingElement):
            other = RingElement.scalar(self.group, other)
        self._require_same_group(other)
        terms = dict(self.terms)
        for g, c in other.terms.items():
            s = terms.get(g, ZERO) + c
            if s.is_zero():
                terms.pop(g, None)
            else:
                terms[g] = s
        return RingElement(self.group, terms, _trusted=True)

    __radd__ = __add__

    def __neg__(self):
        return RingElement(
            self.group, {g: -c for g, c in self.terms.items()}, _trusted=True
        )

    def __sub__(self, other):
        if not isinstance(other, RingElement):
            other = RingElement.scalar(self.group, other)
        return self + (-other)

    def __rsub__(self, other):
        return RingElement.scalar(self.group, other) - self

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            c = _coerce(other)
            if c.is_zero():
                return RingElement.zero(self.group)
            return RingElement(
                self.group, {g: x * c for g, x in self.terms.items()}, _trusted=True
            )
        self._require_same_group(other)
        mul = self.group.multiply
        acc: dict = {}
        for g, cg in self.terms.items():
            for h, ch in other.terms.items():
                k = mul(g, h)
                prev = acc.get(k)
                acc[k] = cg * ch if prev is None else prev + cg * ch
        return RingElement(
            self.group, {g: c for g, c in acc.items() if not c.is_zero()}, _trusted=True
        )

    def __rmul__(self, other):
        # scalars commute; group elements are only multiplied via RingElement
        return self.__mul__(other)

    def __eq__(self, other):
        return (
            isinstance(other, RingElement)
            and self.group == other.group
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.group, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure maps -------------------------------------------------

    def star(self) -> "RingElement":
        """The *-involution: (sum c_g g)* = sum conj(c_g) g^-1."""
        inv = self.group.inverse
        return RingElement(
            self.group,
            {inv(g): c.conjugate() for g, c in self.terms.items()},
            _trusted=True,
        )

    def l1_norm(self) -> float:
        """Sum of coefficient moduli."""
        return sum(c.modulus() for c in self.terms.values())

    def trace_coeff(self) -> GaussianRational:
        """Coefficient of the identity element (the von Neumann trace)."""
        return self.terms.get(self.group.identity(), ZERO)

    def push_forward(self, phi: Homomorphism) -> "RingElement":
        """Image under a homomorphism, summing coefficients that collide."""
        if phi.source != self.group:
            raise MismatchedGroup(f"element over {self.group}, hom from {phi.source}")
        acc: dict = {}
        for g, c in self.terms.items():
            k = phi.apply(g)
            prev = acc.get(k)
            acc[k] = c if prev is None else prev + c
        return RingElement(
            phi.target, {g: c for g, c in acc.items() if not c.is_zero()}, _trusted=True
        )

    def support(self) -> set:
        return set(self.terms)

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.terms.values())

    def is_integral(self) -> bool:
        return all(c.is_integer() for c in self.terms.values())

    def __str__(self):
        if not self.terms:
            return "0"
        parts = [f"{c} * {g!r}" for g, c in sorted(self.terms.items(), key=lambda kv: repr(kv[0]))]
        return " + ".join(parts)

    __repr__ = __str__
