"""Domain decomposition across ranks.

Grid datasets are split into a near-cubic process grid (as Nyx does);
particle datasets are split into equal contiguous ranges.  Each rank's piece
is described by a :class:`Partition` carrying the slices into the global
array, so the SPMD runtime and the simulator share one decomposition.

:func:`rank_regions` + :func:`rank_payload` turn that decomposition into
the per-rank ``(fields, region)`` payload of one collective write — the
one layout rule behind every facade flush batch and streamed step.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Partition:
    """One rank's share of a global dataset."""

    rank: int
    slices: tuple[slice, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        """Local shape of this partition."""
        return tuple(s.stop - s.start for s in self.slices)

    @property
    def n_values(self) -> int:
        """Number of elements in this partition."""
        n = 1
        for s in self.shape:
            n *= s
        return n

    def extract(self, data: np.ndarray) -> np.ndarray:
        """Slice this partition out of the global array (a view)."""
        return data[self.slices]


def process_grid(nranks: int, ndim: int = 3) -> tuple[int, ...]:
    """Factor ``nranks`` into a near-cubic ``ndim``-dimensional grid.

    Mirrors ``MPI_Dims_create``: repeatedly assign the largest prime factor
    to the currently smallest grid dimension.
    """
    if nranks <= 0:
        raise ValueError("nranks must be positive")
    dims = [1] * ndim
    factors: list[int] = []
    n = nranks
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for factor in sorted(factors, reverse=True):
        dims[int(np.argmin(dims))] *= factor
    return tuple(sorted(dims, reverse=True))


def _axis_splits(extent: int, parts: int) -> list[slice]:
    """Split one axis of length ``extent`` into ``parts`` near-equal slices."""
    cuts = np.linspace(0, extent, parts + 1).round().astype(int)
    return [slice(int(a), int(b)) for a, b in zip(cuts[:-1], cuts[1:])]


def grid_partition(shape: Sequence[int], nranks: int) -> list[Partition]:
    """Partition an n-D grid across ``nranks`` in a near-cubic layout.

    Every element belongs to exactly one partition; partitions are ordered
    by rank in row-major process-grid order.
    """
    shape = tuple(int(s) for s in shape)
    dims = process_grid(nranks, len(shape))
    if any(d > s for d, s in zip(dims, shape)):
        raise ValueError(
            f"cannot place process grid {dims} on array shape {shape}: "
            "more ranks than cells along an axis"
        )
    per_axis = [_axis_splits(s, d) for s, d in zip(shape, dims)]
    parts: list[Partition] = []
    counts = [len(a) for a in per_axis]
    for rank in range(nranks):
        idx = []
        rem = rank
        for c in reversed(counts):
            idx.append(rem % c)
            rem //= c
        idx.reverse()
        parts.append(
            Partition(rank=rank, slices=tuple(per_axis[ax][i] for ax, i in enumerate(idx)))
        )
    return parts


def slab_partition(shape: Sequence[int], nranks: int) -> list[Partition]:
    """Partition along axis 0 only (contiguous row slabs).

    Slab decomposition keeps every rank's piece contiguous in file order,
    which is what the raw (non-compressed) independent-write baseline needs.
    """
    shape = tuple(int(s) for s in shape)
    if nranks > shape[0]:
        raise ValueError("more ranks than rows along axis 0")
    rows = _axis_splits(shape[0], nranks)
    full = tuple(slice(0, s) for s in shape[1:])
    return [Partition(rank=r, slices=(sl,) + full) for r, sl in enumerate(rows)]


def partition_particles(n_particles: int, nranks: int) -> list[Partition]:
    """Split a 1-D particle dump into ``nranks`` contiguous ranges."""
    if n_particles < nranks:
        raise ValueError("fewer particles than ranks")
    splits = _axis_splits(int(n_particles), nranks)
    return [Partition(rank=r, slices=(sl,)) for r, sl in enumerate(splits)]


# ---------------------------------------------------------------------------
# Per-rank payload of one collective write
# ---------------------------------------------------------------------------

#: ``[[start, stop], ...]`` of one block in the global grid.
Region = list[list[int]]


def region_slices(region: Region) -> tuple[slice, ...]:
    """The indexing tuple selecting ``region`` out of the global array."""
    return tuple(slice(a, b) for a, b in region)


def rank_regions(
    shape: Sequence[int],
    nranks: int,
    *,
    slabs: bool = False,
    tiling: Sequence[Region] | None = None,
) -> list[Region]:
    """The per-rank regions of one collective write over ``shape``.

    A caller's own block ``tiling`` *is* the decomposition whenever the
    storage layout can take it: always for compressed partitions, and for
    raw ``slabs`` only when every block spans the full trailing
    dimensions.  Otherwise the grid is split internally — near-cubic
    blocks across ``nranks``, or contiguous row slabs (never more than
    there are rows; a rejected tiling keeps its rank count).
    """
    if tiling is not None and len(tiling) > 1:
        if not slabs or all(
            a == 0 and b == dim for r in tiling for (a, b), dim in zip(r[1:], shape[1:])
        ):
            return [[list(ab) for ab in r] for r in tiling]
        nranks = len(tiling)
    if slabs:
        parts = slab_partition(shape, min(nranks, max(1, shape[0])))
    else:
        parts = grid_partition(shape, nranks)
    return [[[s.start, s.stop] for s in p.slices] for p in parts]


def assemble_tiles(tiles: Sequence[tuple[Region, np.ndarray]], shape: Sequence[int]) -> np.ndarray:
    """The global array rebuilt from disjoint ``(region, block)`` tiles."""
    out = np.zeros(tuple(shape), dtype=tiles[0][1].dtype)
    for region, block in tiles:
        out[region_slices(region)] = block
    return out


def rank_payload(
    fields: Mapping[str, "np.ndarray | Sequence[tuple[Region, np.ndarray]]"],
    shape: Sequence[int],
    regions: Sequence[Region],
) -> list[tuple[dict[str, np.ndarray], Region]]:
    """Rank *r*'s ``(fields, region)`` for every entry of ``regions``.

    ``fields[name]`` is the field's whole array, or the ``(region, block)``
    tiles it was handed over as.  A rank region that is itself a tile
    takes that block as is; anything else is cut out of the whole array
    (reassembled first when it arrived as several tiles).
    """
    keys = [tuple(map(tuple, r)) for r in regions]
    blocks: dict[str, list[np.ndarray]] = {}
    for name, data in fields.items():
        if isinstance(data, np.ndarray):
            whole = data
        else:
            by_region = {tuple(map(tuple, r)): block for r, block in data}
            if all(k in by_region for k in keys):
                blocks[name] = [by_region[k] for k in keys]
                continue
            whole = data[0][1] if len(data) == 1 else assemble_tiles(data, shape)
        blocks[name] = [np.ascontiguousarray(whole[region_slices(r)]) for r in regions]
    return [({name: blocks[name][r] for name in fields}, reg) for r, reg in enumerate(regions)]
