"""Exact finite-support probability objects and their tensor algebra.

All distributions are dense float64 arrays over named categorical axes.
Values are immutable after construction; every operation returns a new
object, so everything here is safe to share across threads.

Tolerances (both from :mod:`triproxy.tolerances`):

* every entry must be finite (NaN and infinities are rejected);
* total mass of a joint must be within ``MASS_TOL`` of one;
* negative round-off entries in ``(-INPUT_NEG_TOL, 0)`` are clipped and
  the array rescaled to unit mass; anything more negative raises
  :class:`~triproxy.errors.InvalidDistribution`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._np import np
from .errors import InvalidDistribution, MissingLevels, UnknownAxis, ZeroConditioningCell
from .tolerances import INPUT_NEG_TOL, MASS_TOL


def _count(d: dict, key: str) -> int:
    """The count ``d[key]`` of a parsed file: a float, a bool or a count
    below one is refused, not truncated or inferred."""
    value = d[key]
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 1):
        raise InvalidDistribution(f"{key} {value!r} is not a positive integer")
    return int(value)


def _flat(values, what: str, integers: bool = False) -> np.ndarray:
    """A flat list of JSON numbers from a parsed file, as an array: a
    string, a boolean or a nested list is refused, not converted, and so is
    a non-integer where ``integers`` is set."""
    if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
        raise InvalidDistribution(f"{what} must be a flat list of JSON numbers")
    array = np.array(values) if integers else np.array(values, dtype=float)
    if integers and array.dtype.kind not in "iu":
        raise InvalidDistribution(f"{what} entries are not integers")
    return array


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
            raise MissingLevels(f"variable {self.name!r} has no numeric levels")
        return np.asarray(self.levels, dtype=float)

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "cardinality": self.cardinality}
        if self.levels is not None:
            d["levels"] = list(self.levels)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "VarSpace":
        if not isinstance(d["name"], str):
            raise InvalidDistribution(f"variable name {d['name']!r} is not a string")
        levels = d.get("levels")
        return cls(d["name"], _count(d, "cardinality"),
                   None if levels is None else tuple(_flat(levels, f"{d['name']!r}: levels")))


@dataclass(frozen=True)
class ProbTensor:
    """A joint pmf over an ordered tuple of named categorical variables.

    Axis order is part of identity; use :meth:`reorder` to change it.
    """

    axes: tuple[VarSpace, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        axes = tuple(self.axes)
        names = [a.name for a in axes]
        if len(set(names)) != len(names):
            raise InvalidDistribution(f"duplicate axis names: {names}")
        values = np.asarray(self.values, dtype=float)
        if values.shape != tuple(a.cardinality for a in axes):
            raise InvalidDistribution(f"shape {values.shape} does not match axes {names}")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", values)
        self.values.setflags(write=False)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(cls, axes, values) -> "ProbTensor":
        """Validate, clip benign negative round-off, rescale to unit mass."""
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise InvalidDistribution("ProbTensor: non-finite entries")
        worst = float(values.min()) if values.size else 0.0
        if worst < -INPUT_NEG_TOL:
            raise InvalidDistribution(f"ProbTensor: entry {worst:.3e} below -{INPUT_NEG_TOL:.0e}")
        values = np.clip(values, 0.0, None)
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
        values = _flat(d["values"], "values").reshape(shape, order="C")
        return cls.build(axes, values)


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
    return ProbTensor(keep, t.values.sum(axis=idx))


def restrict(t: ProbTensor, assignments: dict) -> ProbTensor:
    """Fix axes to level indices: the conditional law of the other axes."""
    for name in assignments:
        t.axis(name)  # raises UnknownAxis
    indexer = tuple(
        assignments[a.name] if a.name in assignments else slice(None) for a in t.axes
    )
    keep = tuple(a for a in t.axes if a.name not in assignments)
    values = t.values[indexer]
    mass = values.sum()
    if mass <= 0:
        raise ZeroConditioningCell(f"stratum {assignments} has zero probability")
    return ProbTensor(keep, values / mass)
