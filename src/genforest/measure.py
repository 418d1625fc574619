"""Supports (axis-aligned domain restrictions), uniform masses, and the
strictly proper losses driving the splitting criterion."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, INTEGER, FeatureDomain, Schema


@dataclass(frozen=True)
class NumericInterval:
    """Sub-interval of a numeric domain. The lower end is open when the
    interval came from the right branch of a split; the upper end is always
    closed, so split pairs (lo, t] / (t, hi] tile the parent exactly."""

    lo: float
    hi: float
    lo_open: bool = False

    def contains(self, x: float) -> bool:
        if self.lo_open:
            return self.lo < x <= self.hi
        return self.lo <= x <= self.hi

    def is_empty(self) -> bool:
        return self.hi < self.lo or (self.lo_open and self.hi == self.lo)

    def intersect(self, other: "NumericInterval") -> "NumericInterval":
        if self.lo > other.lo:
            lo, lo_open = self.lo, self.lo_open
        elif other.lo > self.lo:
            lo, lo_open = other.lo, other.lo_open
        else:
            lo, lo_open = self.lo, self.lo_open or other.lo_open
        hi = other.hi if other.hi < self.hi else self.hi  # min(), without a call on the walk's hot path
        # hand back an operand when the result has exactly its fields: saves
        # an allocation on the partition walks; intervals are immutable
        if lo is self.lo and hi is self.hi and lo_open == self.lo_open:
            return self
        if lo is other.lo and hi is other.hi and lo_open == other.lo_open:
            return other
        return NumericInterval(lo, hi, lo_open)


@dataclass(frozen=True)
class IntRange:
    """Closed integer range [a, b] under the counting measure."""

    a: int
    b: int

    def contains(self, x: float) -> bool:
        return self.a <= x <= self.b

    def is_empty(self) -> bool:
        return self.b < self.a

    def intersect(self, other: "IntRange") -> "IntRange":
        if other.a <= self.a and self.b <= other.b:
            return self
        return IntRange(max(self.a, other.a), min(self.b, other.b))

    def count(self) -> int:
        return max(0, self.b - self.a + 1)


@dataclass(frozen=True)
class CatSubset:
    codes: frozenset[int]

    def contains(self, code: int) -> bool:
        return code in self.codes

    def is_empty(self) -> bool:
        return not self.codes

    def intersect(self, other: "CatSubset") -> "CatSubset":
        codes = self.codes & other.codes
        # self when nothing is cut away, as the other restrictions do
        return self if len(codes) == len(self.codes) else CatSubset(codes)


Restriction = NumericInterval | IntRange | CatSubset


def full_restriction(dom: FeatureDomain) -> Restriction:
    if dom.kind == CATEGORICAL:
        return CatSubset(frozenset(range(len(dom.categories))))
    if dom.kind == INTEGER:
        return IntRange(int(dom.lo), int(dom.hi))
    return NumericInterval(dom.lo, dom.hi)


class Support:
    """Product of per-feature restrictions over a schema."""

    __slots__ = ("schema", "restrictions")

    def __init__(self, schema: Schema, restrictions: tuple[Restriction, ...]):
        self.schema = schema
        self.restrictions = restrictions

    @classmethod
    def full(cls, schema: Schema) -> "Support":
        return cls(schema, tuple(full_restriction(d) for d in schema.domains))

    def replace(self, feature: int, r: Restriction) -> "Support":
        rs = list(self.restrictions)
        rs[feature] = r
        return Support(self.schema, tuple(rs))

    def is_empty(self) -> bool:
        return any(r.is_empty() for r in self.restrictions)

    def intersect(self, other: "Support") -> "Support":
        if self.schema is not other.schema and self.schema != other.schema:
            raise ValueError("schema mismatch")
        return Support(
            self.schema,
            tuple(a.intersect(b) for a, b in zip(self.restrictions, other.restrictions)),
        )

    def contains(self, values) -> bool:
        """Membership of a complete observation given as per-feature raw values
        (float for numeric, int code for categorical)."""
        return all(r.contains(v) for r, v in zip(self.restrictions, values))

    def key(self) -> tuple:
        return tuple(
            (r.lo, r.hi, r.lo_open) if isinstance(r, NumericInterval)
            else (r.a, r.b) if isinstance(r, IntRange)
            else tuple(sorted(r.codes))
            for r in self.restrictions
        )

    def __eq__(self, other):
        return isinstance(other, Support) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Support({self.key()})"


def restriction_uniform_fraction(dom: FeatureDomain, r: Restriction) -> float:
    """Uniform-measure fraction of one feature's restriction within its domain."""
    if dom.kind == CATEGORICAL:
        return len(r.codes) / len(dom.categories)
    if dom.kind == INTEGER:
        return r.count() / dom.n_values()
    width = dom.hi - dom.lo
    if width == 0.0:
        # constant column: the whole point carries mass 1, anything else 0
        return 1.0 if (not r.is_empty() and r.contains(dom.lo)) else 0.0
    if r.is_empty():
        return 0.0
    return max(0.0, r.hi - r.lo) / width


def uniform_mass(schema: Schema, s: Support) -> float:
    """Product-measure mass of a support under the uniform measure U."""
    out = 1.0
    for dom, r in zip(schema.domains, s.restrictions):
        out *= restriction_uniform_fraction(dom, r)
        if out == 0.0:
            return 0.0
    return out


# ---------------------------------------------------------------------------
# proper losses


@dataclass(frozen=True)
class LossSpec:
    """A strictly proper loss via its partial losses and pointwise Bayes risk.

    ``kappa`` lower-bounds inf(l'_{-1} - l'_{1}) over (0, 1), the constant
    entering the boosting rate.
    """

    name: str
    kappa: float

    def bayes_risk(self, u):
        u = np.asarray(u, dtype=float)
        if np.any((u < -1e-12) | (u > 1 + 1e-12)):
            raise ValueError("bayes_risk argument outside [0, 1]")
        u = np.clip(u, 0.0, 1.0)
        if self.name == "square":
            out = u * (1.0 - u)
        elif self.name == "log":
            with np.errstate(divide="ignore", invalid="ignore"):
                out = -np.where(u > 0, u * np.log(u), 0.0) - np.where(
                    u < 1, (1.0 - u) * np.log(1.0 - u), 0.0
                )
            out = np.where((u <= 0) | (u >= 1), 0.0, out)
        elif self.name == "matusita":
            out = 2.0 * np.sqrt(u * (1.0 - u))
        else:
            raise ValueError(self.name)
        return out if out.ndim else float(out)


LOSSES = {
    "square": LossSpec("square", kappa=2.0),
    "log": LossSpec("log", kappa=4.0),
    "matusita": LossSpec("matusita", kappa=4.0),
}


def get_loss(name: str) -> LossSpec:
    try:
        return LOSSES[name]
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; choose from {sorted(LOSSES)}") from None


def cell_risk(loss: LossSpec, r, u, pi: float):
    """p_M[C] * L(pi p_R[C] / p_M[C]) for cells given by (empirical, uniform)
    mass pairs; zero-mixture cells contribute 0."""
    r = np.asarray(r, dtype=float)
    u = np.asarray(u, dtype=float)
    pm = pi * r + (1.0 - pi) * u
    if loss.name == "square":
        # pm * q(1-q) with q = pi r / pm simplifies to pi(1-pi) r u / pm
        out = pi * (1.0 - pi) * r * u / np.maximum(pm, 1e-300)
        return out if out.ndim else float(out)
    ratio = np.where(pm > 0, pi * r / np.maximum(pm, 1e-300), 0.0)
    out = np.where(pm > 0, pm * loss.bayes_risk(np.clip(ratio, 0.0, 1.0)), 0.0)
    return out if out.ndim else float(out)
