"""The one adapter between the benchmark and destpass's region counters.

destpass exposes allocation counters through three different channels: a
``counters=`` dict on ``bfs.map_accum_bfs``, a ``stats_out=`` dict on
``sexpr.parse_dps`` (plus the module-global reversal counter of ``sexpr``),
and ``region_stats`` on a live region, which the dlist body calls itself.
Everything the benchmark reads from those channels goes through this
module and comes out as one :class:`Counters` record, so a change to the
channels changes only this file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class Counters:
    """Per-run work counts of the region and case-study layers."""

    cells: int = 0
    bytes: int = 0
    leaf_copies: int = 0
    receiver_cells: int = 0
    visits: int = 0
    concat_cells: int = 0
    reversals: int = 0

    def __add__(self, other: "Counters") -> "Counters":
        return Counters(
            *(getattr(self, f.name) + getattr(other, f.name) for f in fields(self))
        )

    @property
    def region_cells(self) -> int:
        """Every cell the region holds, receiver cells included."""
        return self.cells + self.receiver_cells


def _from_alloc_stats(stats, **extra) -> Counters:
    return Counters(
        cells=stats.cells_allocated,
        bytes=stats.bytes_allocated,
        leaf_copies=stats.leaf_copies,
        receiver_cells=stats.receiver_cells,
        **extra,
    )


def region_snapshot(dp, region) -> Counters:
    """Counters of a live region, read through ``region_stats``."""
    return _from_alloc_stats(dp.region.region_stats(region))


def bfs_counted(dp, f, s0, tree):
    """``map_accum_bfs`` through its ``counters=`` channel."""
    probe: dict = {}
    out = dp.bfs.map_accum_bfs(f, s0, tree, counters=probe)
    return out, _from_alloc_stats(probe["stats"], visits=probe["visits"])


def sexpr_counted(dp, data: bytes):
    """``parse_dps`` through ``stats_out=`` and the module reversal counter."""
    probe: dict = {}
    dp.sexpr.reset_counters()
    out = dp.sexpr.parse_dps(data, stats_out=probe)
    return out, _from_alloc_stats(
        probe["stats"], reversals=dp.sexpr.reversal_count()
    )
