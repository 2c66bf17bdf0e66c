"""Exact finite-support probability objects and their tensor algebra.

All distributions are dense float64 arrays over named categorical axes.
Values are immutable after construction; every operation returns a new
object, so everything here is safe to share across threads.

Tolerances:

* every entry must be finite (NaN and infinities are rejected);
* total mass of a joint must be within ``MASS_TOL`` of one;
* negative round-off entries in ``(-NEG_TOL, 0)`` are clipped and the
  array renormalized; anything more negative raises
  :class:`~triproxy.errors.InvalidDistribution`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AxisMismatch,
    InvalidDistribution,
    UnknownAxis,
    ZeroConditioningCell,
)

MASS_TOL = 1e-10
NEG_TOL = 1e-12


@dataclass(frozen=True)
class VarSpace:
    """A named categorical variable with optional numeric level values."""

    name: str
    cardinality: int
    levels: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.cardinality < 1:
            raise InvalidDistribution(f"cardinality of {self.name!r} must be >= 1")
        if self.levels is not None:
            levels = tuple(float(v) for v in self.levels)
            if len(levels) != self.cardinality:
                raise InvalidDistribution(
                    f"{self.name!r}: {len(levels)} levels for cardinality {self.cardinality}"
                )
            if not all(np.isfinite(levels)):
                raise InvalidDistribution(f"{self.name!r}: non-finite level values")
            object.__setattr__(self, "levels", levels)

    def level_values(self) -> np.ndarray:
        """Numeric level values; raises if the variable carries none."""
        if self.levels is None:
            from .errors import MissingLevels

            raise MissingLevels(f"variable {self.name!r} has no numeric levels")
        return np.asarray(self.levels, dtype=float)

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "cardinality": self.cardinality}
        if self.levels is not None:
            d["levels"] = list(self.levels)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "VarSpace":
        return cls(d["name"], int(d["cardinality"]),
                   tuple(d["levels"]) if d.get("levels") is not None else None)


def _clean(values: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        raise InvalidDistribution(f"{what}: non-finite entries")
    worst = float(values.min()) if values.size else 0.0
    if worst < -NEG_TOL:
        raise InvalidDistribution(
            f"{what}: entry {worst:.3e} below -{NEG_TOL:.0e}"
        )
    return np.clip(values, 0.0, None)


def _check_unique(axes) -> None:
    names = [a.name for a in axes]
    if len(set(names)) != len(names):
        raise InvalidDistribution(f"duplicate axis names: {names}")


@dataclass(frozen=True)
class ProbTensor:
    """A joint pmf over an ordered tuple of named categorical variables.

    Axis order is part of identity; use :meth:`reorder` to change it.
    """

    axes: tuple[VarSpace, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        axes = tuple(self.axes)
        _check_unique(axes)
        values = np.asarray(self.values, dtype=float)
        if values.shape != tuple(a.cardinality for a in axes):
            raise InvalidDistribution(
                f"shape {values.shape} does not match axes {[a.name for a in axes]}"
            )
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", values)
        self.values.setflags(write=False)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, axes, values) -> "ProbTensor":
        """Validate, clip benign negative round-off, renormalize."""
        values = np.asarray(values, dtype=float)
        values = _clean(values, "ProbTensor")
        mass = values.sum()
        if abs(mass - 1.0) > MASS_TOL:
            raise InvalidDistribution(f"total mass {float(mass)!r} not within {MASS_TOL} of 1")
        return cls(tuple(axes), values / mass)

    # -- bookkeeping ------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axes)

    def axis(self, name: str) -> VarSpace:
        for a in self.axes:
            if a.name == name:
                return a
        raise UnknownAxis(f"no axis named {name!r} in {self.names}")

    def axis_index(self, name: str) -> int:
        for i, a in enumerate(self.axes):
            if a.name == name:
                return i
        raise UnknownAxis(f"no axis named {name!r} in {self.names}")

    def reorder(self, names) -> "ProbTensor":
        names = tuple(names)
        if sorted(names) != sorted(self.names):
            raise UnknownAxis(f"reorder {names} does not match axes {self.names}")
        perm = [self.axis_index(n) for n in names]
        return ProbTensor(tuple(self.axes[i] for i in perm),
                          np.transpose(self.values, perm))

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {"axes": [a.to_dict() for a in self.axes],
                "values": self.values.ravel(order="C").tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ProbTensor":
        axes = tuple(VarSpace.from_dict(a) for a in d["axes"])
        shape = tuple(a.cardinality for a in axes)
        values = np.asarray(d["values"], dtype=float).reshape(shape, order="C")
        return cls.build(axes, values)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "ProbTensor":
        return cls.from_dict(json.loads(s))


@dataclass(frozen=True)
class MarkovKernel:
    """A conditional pmf: ``target`` given an ordered conditioning tuple.

    ``values`` has shape ``(target.cardinality, *given cardinalities)`` and
    every conditional slice sums to one.
    """

    target: VarSpace
    given: tuple[VarSpace, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        given = tuple(self.given)
        _check_unique((self.target,) + given)
        values = np.asarray(self.values, dtype=float)
        shape = (self.target.cardinality,) + tuple(g.cardinality for g in given)
        if values.shape != shape:
            raise InvalidDistribution(f"kernel shape {values.shape}, expected {shape}")
        object.__setattr__(self, "given", given)
        object.__setattr__(self, "values", values)
        self.values.setflags(write=False)

    @classmethod
    def build(cls, target, given, values) -> "MarkovKernel":
        values = np.asarray(values, dtype=float)
        values = _clean(values, "MarkovKernel")
        sums = values.sum(axis=0)
        if np.any(np.abs(sums - 1.0) > MASS_TOL):
            worst = float(np.abs(sums - 1.0).max())
            raise InvalidDistribution(f"kernel slice mass off by {worst:.3e}")
        return cls(target, tuple(given), values / sums)

    @property
    def matrix(self) -> np.ndarray:
        """2-d view for a single conditioning variable."""
        if len(self.given) != 1:
            raise AxisMismatch("matrix view needs exactly one conditioning axis")
        return self.values


# ---------------------------------------------------------------------------
# operations


def marginalize(t: ProbTensor, drop) -> ProbTensor:
    """Sum out the axes named in ``drop``."""
    drop = set(drop)
    unknown = drop - set(t.names)
    if unknown:
        raise UnknownAxis(f"cannot drop {sorted(unknown)}; axes are {t.names}")
    if not drop:
        return t
    idx = tuple(i for i, a in enumerate(t.axes) if a.name in drop)
    keep = tuple(a for a in t.axes if a.name not in drop)
    values = t.values.sum(axis=idx)
    if not keep:
        keep = (VarSpace("_unit", 1),)
        values = values.reshape((1,))
    return ProbTensor(keep, values)


def restrict(t: ProbTensor, assignments: dict, renormalize: bool = True) -> ProbTensor:
    """Fix axes to level indices; optionally renormalize to the conditional."""
    for name in assignments:
        t.axis(name)  # raises UnknownAxis
    indexer = tuple(
        assignments[a.name] if a.name in assignments else slice(None) for a in t.axes
    )
    keep = tuple(a for a in t.axes if a.name not in assignments)
    values = t.values[indexer]
    if renormalize:
        mass = values.sum()
        if mass <= 0:
            raise ZeroConditioningCell(f"stratum {assignments} has zero probability")
        values = values / mass
    if not keep:
        keep = (VarSpace("_unit", 1),)
        values = np.asarray(values).reshape((1,))
    return ProbTensor(keep, values)
