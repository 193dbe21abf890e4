"""Block designs with bounded subset multiplicity.

A design here is a finite family of blocks over points ``0..point_count-1``
together with a packing ``strength`` m: the design is *m-wise balanced* (as a
packing) when any m pairwise distinct points lie together in at most one
block, every point lies in at least one block, and no block is empty.  The
blocks of a valid strength-2 design are exactly the rows of a rectangle-free
0/1 incidence matrix.

Construction enforces structure only (ids in range, blocks strictly
ascending); the three packing conditions are checked by
:func:`validate_packing`, which reports every violation it finds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Iterator, Optional, Union

# Reports keep at most this many witnesses; the total count is always exact.
MAX_WITNESSES = 100

# The subset scan refuses designs that would register more subsets than this.
MAX_REGISTERED_SUBSETS = 10**7


@dataclass(frozen=True)
class EmptyBlock:
    """Witness: block ``block`` contains no points."""

    block: int

    def __str__(self) -> str:
        return f"block {self.block} is empty"


@dataclass(frozen=True)
class UncoveredPoint:
    """Witness: point ``point`` lies in no block."""

    point: int

    def __str__(self) -> str:
        return f"point {self.point} lies in no block"


@dataclass(frozen=True)
class DuplicatedSubset:
    """Witness: a ``strength``-subset of points shared by two distinct blocks."""

    points: tuple[int, ...]
    first_block: int
    second_block: int

    def __str__(self) -> str:
        kind = "pair" if len(self.points) == 2 else "subset"
        points = "{" + ", ".join(map(str, self.points)) + "}"
        return f"{kind} {points} in blocks {self.first_block} and {self.second_block}"


Violation = Union[EmptyBlock, UncoveredPoint, DuplicatedSubset]


@dataclass(frozen=True)
class Design:
    """An ordered family of blocks over points ``0..point_count-1``.

    ``strength`` is the packing parameter m.  Each block is a strictly
    ascending tuple of point ids; ``labels``, when present, gives one
    human-readable name per point (e.g. a coordinate tuple).  Instances are
    immutable values and safe to share across threads.
    """

    point_count: int
    blocks: tuple[tuple[int, ...], ...]
    strength: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.point_count < 0:
            raise ValueError("point_count must be >= 0")
        if self.strength < 1:
            raise ValueError("strength must be >= 1")
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        for i, block in enumerate(self.blocks):
            for j, p in enumerate(block):
                if not 0 <= p < self.point_count:
                    raise ValueError(f"block {i}: point id {p} out of range")
                if j > 0 and p <= block[j - 1]:
                    raise ValueError(f"block {i} is not strictly ascending")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.point_count:
                raise ValueError("labels length must equal point_count")


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_packing`.

    ``valid`` is derived from ``total_violations``, which counts every
    violation even when the witness list was truncated at ``MAX_WITNESSES``.
    """

    violations: tuple[Violation, ...]
    total_violations: int

    def __post_init__(self) -> None:
        if self.valid and self.violations:
            raise ValueError("a valid report cannot carry witnesses")

    @property
    def valid(self) -> bool:
        return self.total_violations == 0


class InvalidPacking(ValueError):
    """A design failed :func:`validate_packing`; ``report`` says how."""

    def __init__(self, report: ValidationReport) -> None:
        super().__init__(
            f"design violates the packing conditions ({report.total_violations} "
            f"violation(s); first: {report.violations[0]})"
        )
        self.report = report


def _duplicated_subsets(
    blocks: tuple[tuple[int, ...], ...], strength: int
) -> Iterator[DuplicatedSubset]:
    """Yield each ``strength``-subset found in a block after its first owner.

    Raises ValueError, before any subset is registered, when the blocks hold
    more than ``MAX_REGISTERED_SUBSETS`` ``strength``-subsets in total.
    """
    registered = sum(comb(len(block), strength) for block in blocks)
    if registered > MAX_REGISTERED_SUBSETS:
        raise ValueError(
            f"design has {registered} {strength}-subsets to check, above the "
            f"cap of {MAX_REGISTERED_SUBSETS}"
        )
    owner: dict[tuple[int, ...], int] = {}
    for i, block in enumerate(blocks):
        for subset in combinations(block, strength):
            prev = owner.setdefault(subset, i)
            if prev != i:
                yield DuplicatedSubset(subset, prev, i)


def validate_packing(design: Design) -> ValidationReport:
    """Check the three packing conditions and report every violation.

    The conditions: no block is empty, every point is covered, and no
    ``strength``-subset of points lies in two distinct blocks.  The subset
    check registers each block's ``strength``-subsets in a hash map keyed by
    the sorted id tuple, so the cost is linear in the number of registered
    subsets (for strength 2: the per-block pair counts), never in
    ``point_count**2 * len(blocks)``.  Coverage is tracked in a set of the
    covered points, so it too costs O(incidences) whatever ``point_count``
    is; only the reported witnesses are listed.  A design with more than
    ``MAX_REGISTERED_SUBSETS`` subsets to register raises ValueError.

    Structural problems (ids out of range, non-ascending blocks) are errors
    raised at :class:`Design` construction, not report entries.
    """
    violations: list[Violation] = []
    total = 0

    def add(v: Violation) -> None:
        nonlocal total
        total += 1
        if len(violations) < MAX_WITNESSES:
            violations.append(v)

    for i, block in enumerate(design.blocks):
        if not block:
            add(EmptyBlock(i))

    covered = {p for block in design.blocks for p in block}
    missing = design.point_count - len(covered)
    shown = min(missing, MAX_WITNESSES)
    uncovered = (p for p in range(design.point_count) if p not in covered)
    for p in islice(uncovered, shown):
        add(UncoveredPoint(p))
    total += missing - shown

    for duplicate in _duplicated_subsets(design.blocks, design.strength):
        add(duplicate)

    return ValidationReport(violations=tuple(violations), total_violations=total)


def _covers_all(design: Design) -> bool:
    """Whether every ``strength``-subset of points lies in some block."""
    covered: set[tuple[int, ...]] = set()
    for block in design.blocks:
        covered.update(combinations(block, design.strength))
    return len(covered) == comb(design.point_count, design.strength)


def is_steiner(design: Design, k: int) -> bool:
    """True when every block has exactly ``k`` points and every
    ``strength``-subset of points lies in exactly one block.

    Assumes ``design`` already passes :func:`validate_packing` (so subsets
    are covered at most once; this only adds the "at least once" half).
    """
    return all(len(block) == k for block in design.blocks) and _covers_all(design)


def is_pairwise_balanced(design: Design) -> bool:
    """True when every block has at least two points and every point pair
    lies in exactly one block.  Only meaningful for strength-2 designs."""
    if design.strength != 2:
        raise ValueError("pairwise balance is a strength-2 notion")
    return all(len(block) >= 2 for block in design.blocks) and _covers_all(design)


def incidence_count(design: Design) -> int:
    """Number of incidence pairs (x, B) with point x contained in block B."""
    return sum(len(block) for block in design.blocks)


def rectangle_free(design: Design) -> bool:
    """True when the point-by-block incidence matrix has no 2x2 all-ones
    submatrix, i.e. no point pair lies in two distinct blocks.

    For a design that passes :func:`validate_packing` with strength 2 this
    is always true; the check itself does not depend on ``strength``.
    """
    return next(_duplicated_subsets(design.blocks, 2), None) is None


def fisher_holds(design: Design) -> bool:
    """Whether the point count is at most the block count."""
    return design.point_count <= len(design.blocks)


def design_to_json(design: Design) -> str:
    """Serialize to the interchange document; byte-stable for equal designs."""
    doc: dict = {
        "point_count": design.point_count,
        "strength": design.strength,
        "blocks": [list(block) for block in design.blocks],
    }
    if design.labels is not None:
        doc["labels"] = list(design.labels)
    return json.dumps(doc, separators=(",", ":")) + "\n"


def design_from_json(text: str) -> Design:
    """Parse the interchange document, re-validating structure."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a design document: {exc}") from exc
    except RecursionError:  # the decoder recurses once per nesting level
        raise ValueError("not a design document: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("not a design document: expected a JSON object")
    for key in ("point_count", "strength", "blocks"):
        if key not in doc:
            raise ValueError(f"design document is missing {key!r}")
    unknown = set(doc) - {"point_count", "strength", "blocks", "labels"}
    if unknown:
        raise ValueError(f"design document has unknown keys: {sorted(unknown)}")
    point_count = doc["point_count"]
    strength = doc["strength"]
    blocks = doc["blocks"]
    # exact type checks: JSON true/false parse as bool, an int subclass
    if type(point_count) is not int or type(strength) is not int:
        raise ValueError("point_count and strength must be integers")
    if not isinstance(blocks, list) or not all(
        isinstance(b, list) and all(type(p) is int for p in b) for b in blocks
    ):
        raise ValueError("blocks must be a list of integer lists")
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
            raise ValueError("labels must be a list of strings")
    return Design(
        point_count=point_count, blocks=blocks, strength=strength, labels=labels
    )
