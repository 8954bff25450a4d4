"""Extent placement: where each copy of each stripe column lives.

The filesystem's extent table keys one physical extent (a per-server
region file, paper Sec. III) as ``(key, region_id, server)``; every key
follows one grammar::

    {file}#g{generation}                namespace: copy 0 at its natural home
    {namespace}~r{copy}                 copy >= 1 at its natural home
    {namespace}~r{copy}~b{server}       config server ``server``'s copy, rebuilt

A *placement* is copy ``copy`` of the stripe column config server
``server`` owns in one region. A mirror key is a bucket shared by every
column whose copy lands on that server; a rebuilt (``~b``, "born on") key
belongs to one placement. This module is the only place that formats or
parses keys and decides where a placement lives (DESIGN.md §16).
"""

from __future__ import annotations

import re
from typing import NamedTuple

_NAMESPACE = re.compile(r"(?P<name>.*)#g(?P<generation>[0-9]+)")
#: The shortest namespace whose remainder is a copy suffix: a file name
#: may itself contain ``~r``, but a key always ends in its own suffix.
_KEY = re.compile(r"(?P<ns>.*?)(?:~r(?P<copy>[0-9]+)(?:~b(?P<born_on>[0-9]+))?)?")


def extent_namespace(name: str, generation: int) -> str:
    """The extent namespace of one layout generation of file ``name``."""
    return f"{name}#g{generation}"


def parse_namespace(namespace: str) -> tuple[str, int] | None:
    """``(file name, generation)`` of a namespace, or None if it is not one."""
    match = _NAMESPACE.fullmatch(namespace)
    return None if match is None else (match["name"], int(match["generation"]))


def extent_key(namespace: str, copy: int, born_on: int | None = None) -> str:
    """The key of copy ``copy``: natural home, or rebuilt when ``born_on`` is set."""
    if born_on is not None:
        return f"{namespace}~r{copy}~b{born_on}"
    return namespace if copy == 0 else f"{namespace}~r{copy}"


def parse_extent_key(key: str) -> tuple[str, int, int | None]:
    """``(namespace, copy, born_on)`` of a key; the inverse of :func:`extent_key`."""
    namespace, copy, born_on = _KEY.fullmatch(key).groups()
    return namespace, int(copy or 0), None if born_on is None else int(born_on)


class Placement(NamedTuple):
    """Copy ``copy`` of the stripe column config server ``server`` owns.

    A tuple, so it equals (and hashes like) the plain
    ``(extent_ns, region_id, server, copy)`` key of
    :attr:`PlacementMap.overrides`.
    """

    extent_ns: str
    region_id: int
    server: int
    copy: int


class SubPlacement(NamedTuple):
    """One replicated sub-request: copy 0 physical (override and failover
    route applied), copies >= 1 looked up from ``anchor``."""

    extent_ns: str
    region_id: int
    anchor: int
    sub_offset: int
    size: int
    copies: int
    server: int
    offset: int


class PlacementMap:
    """Resolves placements of one filesystem to physical extents.

    Anchor rule of the request path: while no override exists, copies
    >= 1 are addressed from the routed server of copy 0; once any exists,
    from the config server, where overrides are keyed.
    """

    def __init__(self, pfs):
        self.pfs = pfs
        #: Rebuild-installed relocations: ``Placement -> physical server``.
        #: Empty in rebuild-off runs, so the request path's only cost is
        #: one truthiness check.
        self.overrides: dict[tuple[str, int, int, int], int] = {}
        self._pools: dict[int, list[int]] = {}

    def natural_home(self, server: int, copy: int) -> int:
        """Server of copy ``copy`` of config server ``server``'s column.

        Mirrors land on the *other* performance class (HDA-style,
        arXiv:1510.04868), round-robin so consecutive primaries spread
        their copies; a single-class filesystem uses its other servers.
        """
        if copy == 0:
            return server
        pool = self._pools.get(server)
        if pool is None:
            class_of = self.pfs.health.class_of
            others = [i for i in range(self.pfs.n_servers) if i != server]
            pool = [i for i in others if class_of(i) != class_of(server)] or others
            if not pool:
                raise ValueError("replication needs at least 2 servers")
            self._pools[server] = pool
        return pool[(server + copy - 1) % len(pool)]

    def resolve(self, extent_ns: str, region_id: int, server: int, copy: int) -> tuple[int, str]:
        """Current physical ``(server, key)`` of one placement."""
        if self.overrides:
            target = self.overrides.get((extent_ns, region_id, server, copy))
            if target is not None:
                return target, extent_key(extent_ns, copy, server)
        return self.natural_home(server, copy), extent_key(extent_ns, copy)

    def locate(self, extent_ns: str, region_id: int, server: int, copy: int):
        """``(server, base)`` of the placement's existing extent, or None."""
        target, key = self.resolve(extent_ns, region_id, server, copy)
        base = self.pfs._extent_bases.get((key, region_id, target))
        return None if base is None else (target, base)

    def copy_at(self, sub: SubPlacement, copy: int) -> tuple[int, int]:
        """Physical ``(server, offset)`` of copy ``copy``; allocates on first touch."""
        if copy == 0:
            return sub.server, sub.offset
        target, key = self.resolve(sub.extent_ns, sub.region_id, sub.anchor, copy)
        return target, self.pfs._extent_base(key, sub.region_id, target) + sub.sub_offset
