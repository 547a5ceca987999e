"""Invertible index transformations.

A transformation is a sequence of primitive steps, each a bijection on the
array's support:

* ``Permute(perm)``      reorder coordinates; ``perm[k]`` is the source
                         position for target position ``k`` (numpy axes
                         convention).
* ``Translate(dim, k)``  shift one coordinate by a constant.
* ``InsertDim(pos, c)``  add a dimension holding the constant ``c``.
* ``RemoveDim(pos)``     drop a dimension; valid only when the surviving
                         coordinates stay pairwise distinct on the support.
* ``Compact(dim)``       remap the distinct coordinates of one dimension,
                         in sorted order, onto 0..k-1.

Two more step kinds exist so that inverses are expressible: ``RemapDim``
replays a recorded per-coordinate table (the inverse of Compact) and
``InsertFromTable`` re-inserts a dropped dimension from a recorded
index-to-coordinate table (the inverse of RemoveDim).

``apply_steps`` is pure and never mutates its inputs.  RemoveDim and Compact
discard information that their inverses need, so inversion is a two-stage
affair: ``record_steps`` replays a spec against a concrete array and returns
the same steps with the coordinate tables filled in; ``invert_steps`` then
builds the reverse spec, failing with ``NotInvertible`` when a table is
missing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple, Union

from .core import Array, Index
from .errors import BadStep, NotInjective, NotInvertible


@dataclass(frozen=True, slots=True)
class Permute:
    perm: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))


@dataclass(frozen=True, slots=True)
class Translate:
    dim: int
    offset: int


@dataclass(frozen=True, slots=True)
class InsertDim:
    position: int
    constant: int


@dataclass(frozen=True, slots=True)
class RemoveDim:
    position: int
    # recorded: sorted ((surviving index, removed coordinate), ...) pairs,
    # filled in by record_steps; needed to invert.  Excluded from equality:
    # the step itself is the same operation with or without the annotation.
    recorded: Optional[Tuple[Tuple[Index, int], ...]] = field(
        default=None, compare=False
    )


@dataclass(frozen=True, slots=True)
class Compact:
    dim: int
    # recorded: sorted ((new coordinate, old coordinate), ...) pairs.
    recorded: Optional[Tuple[Tuple[int, int], ...]] = field(
        default=None, compare=False
    )


@dataclass(frozen=True, slots=True)
class RemapDim:
    """Replace one dimension's coordinates through an explicit table."""

    dim: int
    table: Tuple[Tuple[int, int], ...]  # (current, target) pairs

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(sorted(self.table)))


@dataclass(frozen=True, slots=True)
class InsertFromTable:
    """Insert a dimension whose coordinate is looked up per index."""

    position: int
    table: Tuple[Tuple[Index, int], ...]  # (index before insertion, coordinate)

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(sorted(self.table)))


Step = Union[Permute, Translate, InsertDim, RemoveDim, Compact, RemapDim, InsertFromTable]

TransformSpec = Sequence[Step]

# the steps that act on one existing dimension, as their errors name them
_DIM_STEPS = {Translate: "translate", Compact: "compact", RemapDim: "remap"}
# the constants each step writes into an index
_WRITTEN = {
    Translate: lambda s: (s.offset,),
    InsertDim: lambda s: (s.constant,),
    RemapDim: lambda s: (c for _, c in s.table),
    InsertFromTable: lambda s: (c for _, c in s.table),
}


def check_step(step: Step, arity: int) -> int:
    """Validate a step against the incoming arity; return the outgoing arity.

    Raises BadStep on malformed permutations, out-of-range positions, and
    offsets, constants or table coordinates that are not ints: the results
    are trusted, so a step must not put anything else into an index.
    """
    for c in _WRITTEN.get(type(step), lambda s: ())(step):
        if not isinstance(c, int) or isinstance(c, bool):
            raise BadStep(f"{type(step).__name__} coordinate {c!r} is not an int")
    if isinstance(step, Permute):
        if sorted(step.perm) != list(range(arity)):
            raise BadStep(
                f"permutation {step.perm!r} is not a permutation of 0..{arity - 1}"
            )
        return arity
    if isinstance(step, (Translate, Compact, RemapDim)):
        if not 0 <= step.dim < arity:
            raise BadStep(
                f"{_DIM_STEPS[type(step)]} dimension {step.dim} out of range for arity {arity}"
            )
        return arity
    if isinstance(step, (InsertDim, InsertFromTable)):
        if not 0 <= step.position <= arity:
            raise BadStep(f"insert position {step.position} out of range for arity {arity}")
        return arity + 1
    if isinstance(step, RemoveDim):
        if arity == 1:
            raise BadStep("cannot remove the only dimension")
        if not 0 <= step.position < arity:
            raise BadStep(f"remove position {step.position} out of range for arity {arity}")
        return arity - 1
    raise BadStep(f"unknown step {step!r}")


def _lookup(table: dict, key, fault: str) -> int:
    """``table[key]``, or BadStep with ``fault`` naming the missing key."""
    try:
        return table[key]
    except KeyError:
        raise BadStep(fault.format(key)) from None


def _step_map(step: Step, support: Iterable[Index]):
    """Return the index function for one step, given the incoming support."""
    if isinstance(step, Permute):
        perm = step.perm
        return lambda i: tuple(i[p] for p in perm)
    if isinstance(step, Translate):
        d, off = step.dim, step.offset
        return lambda i: i[:d] + (i[d] + off,) + i[d + 1 :]
    if isinstance(step, InsertDim):
        p, c = step.position, step.constant
        return lambda i: i[:p] + (c,) + i[p:]
    if isinstance(step, InsertFromTable):
        p, table = step.position, dict(step.table)
        return lambda i: i[:p] + (_lookup(table, i, "no recorded coordinate for index {!r}"),) + i[p:]
    if isinstance(step, RemoveDim):
        p = step.position
        return lambda i: i[:p] + i[p + 1 :]
    if isinstance(step, Compact):
        d = step.dim
        ranks = {c: r for r, c in enumerate(sorted({i[d] for i in support}))}
        return lambda i: i[:d] + (ranks[i[d]],) + i[d + 1 :]
    if isinstance(step, RemapDim):
        d, table = step.dim, dict(step.table)
        fault = "no table entry for coordinate {} on dimension " + str(d)
        return lambda i: i[:d] + (_lookup(table, i[d], fault),) + i[d + 1 :]
    raise BadStep(f"unknown step {step!r}")


def _apply_to_pairs(step: Step, arity: int, pairs: dict) -> tuple:
    """Apply one step to an index->value dict; returns (new_arity, new_pairs)."""
    new_arity = check_step(step, arity)
    f = _step_map(step, pairs.keys())
    out: dict = {}
    sources: dict = {}
    for i, v in pairs.items():
        j = f(i)
        if j in out:
            raise NotInjective(
                f"indices {sources[j]!r} and {i!r} collapse to {j!r}",
                collided=(sources[j], i),
            )
        out[j] = v
        sources[j] = i
    return new_arity, out


def apply_steps(array: Array, steps: TransformSpec) -> Array:
    """Apply a transformation; the association count never changes."""
    arity = array.arity
    # canonical order, so a NotInjective error names the same two indices
    pairs = dict(array.items())
    for step in steps:
        arity, pairs = _apply_to_pairs(step, arity, pairs)
    return Array._of(arity, pairs)


def record_steps(array: Array, steps: TransformSpec) -> list:
    """Replay ``steps`` on ``array`` and fill in the recorded tables.

    The result applies exactly like ``steps`` but RemoveDim and Compact carry
    the coordinate data their inverses need.
    """
    arity = array.arity
    support = set(array.support())
    recorded: list = []
    for step in steps:
        if isinstance(step, RemoveDim):
            check_step(step, arity)
            p = step.position
            table = tuple(sorted((i[:p] + i[p + 1 :], i[p]) for i in support))
            step = RemoveDim(p, recorded=table)
        elif isinstance(step, Compact):
            check_step(step, arity)
            d = step.dim
            table = tuple(
                (rank, old) for rank, old in enumerate(sorted({i[d] for i in support}))
            )
            step = Compact(d, recorded=table)
        arity, pairs = _apply_to_pairs(step, arity, dict.fromkeys(support))
        support = set(pairs)
        recorded.append(step)
    return recorded


def invert_steps(steps: TransformSpec, support_after: Iterable[Index]) -> list:
    """Build the inverse transformation for steps applied to some array.

    ``support_after`` is the support of the transformed array; it is walked
    backwards to confirm the recorded tables actually cover it.  Raises
    NotInvertible when a RemoveDim or Compact lacks its recorded table.
    """
    support = set(support_after)
    inverse: list = []
    for step in reversed(list(steps)):
        if isinstance(step, Permute):
            q = [0] * len(step.perm)
            for k, p in enumerate(step.perm):
                q[p] = k
            inv: Step = Permute(tuple(q))
        elif isinstance(step, Translate):
            inv = Translate(step.dim, -step.offset)
        elif isinstance(step, InsertDim):
            inv = RemoveDim(step.position)
        elif isinstance(step, InsertFromTable):
            inv = RemoveDim(step.position, recorded=step.table)
        elif isinstance(step, RemoveDim):
            if step.recorded is None:
                raise NotInvertible(
                    "RemoveDim has no recorded coordinates; use record_steps first"
                )
            missing = support.difference(i for i, _ in step.recorded)
            if missing:
                raise NotInvertible(
                    f"recorded table does not cover index {sorted(missing)[0]!r}"
                )
            inv = InsertFromTable(step.position, step.recorded)
        elif isinstance(step, Compact):
            if step.recorded is None:
                raise NotInvertible(
                    "Compact has no recorded coordinates; use record_steps first"
                )
            inv = RemapDim(step.dim, step.recorded)
        elif isinstance(step, RemapDim):
            flipped = tuple((b, a) for a, b in step.table)
            if len({b for b, _ in flipped}) != len(flipped):
                raise NotInvertible("remap table is not injective")
            inv = RemapDim(step.dim, flipped)
        else:
            raise BadStep(f"unknown step {step!r}")
        # walk the support backwards through the inverse just built, so the
        # next (earlier) step is validated against the right index set
        f = _step_map(inv, support)
        try:
            new_support = {f(i) for i in support}
        except BadStep as exc:
            raise NotInvertible(str(exc)) from exc
        if len(new_support) != len(support):
            raise NotInvertible("recorded table collapses two indices")
        support = new_support
        inverse.append(inv)
    return inverse
