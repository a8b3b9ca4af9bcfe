"""Mesh geometry, deterministic X-Y routing and path conflict tests.

Routers live on a W x H grid addressed either by id (row-major) or by
(x, y) coordinate.  Every network interface (NI) attaches to exactly one
router; routers may host several NIs.  Links are directed: the east and
west channels between two neighbouring routers are distinct resources.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, List, Optional, Tuple

EAST = "E"
WEST = "W"
NORTH = "N"
SOUTH = "S"

# unit steps in (x, y); y grows northward
_STEP = {EAST: (1, 0), WEST: (-1, 0), NORTH: (0, 1), SOUTH: (0, -1)}
_OPPOSITE = {EAST: WEST, WEST: EAST, NORTH: SOUTH, SOUTH: NORTH}


class TopologyError(ValueError):
    """Malformed mesh parameters or out-of-range endpoints."""


def opposite(direction: str) -> str:
    return _OPPOSITE[direction]


@dataclass(frozen=True)
class MeshConfig:
    """A W x H mesh plus the NI count attached to each router.

    ni_per_router is one entry per router, row-major.  Passing None gives
    every router a single interface.
    """

    width: int
    height: int
    ni_per_router: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise TopologyError("mesh dimensions must be at least 1x1")
        if self.ni_per_router is None:
            object.__setattr__(
                self, "ni_per_router", tuple([1] * (self.width * self.height))
            )
        else:
            object.__setattr__(self, "ni_per_router", tuple(self.ni_per_router))
        if len(self.ni_per_router) != self.width * self.height:
            raise TopologyError("ni_per_router needs one entry per router")
        if any(n < 0 for n in self.ni_per_router):
            raise TopologyError("NI counts cannot be negative")
        if sum(self.ni_per_router) == 0:
            raise TopologyError("mesh has no network interfaces")
        # first NI id hosted by each router, one extra sentinel at the end
        starts = [0]
        for n in self.ni_per_router:
            starts.append(starts[-1] + n)
        object.__setattr__(self, "_ni_starts", tuple(starts))
        # router hosting each NI, indexed by NI id
        object.__setattr__(self, "_ni_router", tuple(
            r for r, n in enumerate(self.ni_per_router) for _ in range(n)
        ))

    @classmethod
    def grid(cls, width: int, height: int, ni_per_router: int = 1) -> "MeshConfig":
        return cls(width, height, tuple([ni_per_router] * (width * height)))

    @classmethod
    def cmp_4x4_51ni(cls) -> "MeshConfig":
        """4x4 CMP-style mesh with 51 interfaces.

        Every tile hosts a core, an L2 bank and a directory slice (3 NIs);
        two DMA engines sit on tiles 0 and 3 and one I/O controller on
        tile 12.  Roles are not modelled, only the counts matter.
        """
        counts = [3] * 16
        counts[0] += 1
        counts[3] += 1
        counts[12] += 1
        return cls(4, 4, tuple(counts))

    @property
    def n_routers(self) -> int:
        return self.width * self.height

    @property
    def n_nis(self) -> int:
        return self._ni_starts[-1]  # type: ignore[attr-defined]

    def coords(self, router: int) -> Tuple[int, int]:
        if not 0 <= router < self.n_routers:
            raise TopologyError(f"router {router} out of range")
        return router % self.width, router // self.width

    def router_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise TopologyError(f"coordinate ({x},{y}) out of range")
        return y * self.width + x

    def router_of_ni(self, ni: int) -> int:
        routers = self._ni_router  # type: ignore[attr-defined]
        if not 0 <= ni < len(routers):
            raise TopologyError(f"NI {ni} out of range")
        return routers[ni]

    def nis_of_router(self, router: int) -> range:
        starts = self._ni_starts  # type: ignore[attr-defined]
        if not 0 <= router < self.n_routers:
            raise TopologyError(f"router {router} out of range")
        return range(starts[router], starts[router + 1])

    def neighbor(self, router: int, direction: str) -> Optional[int]:
        x, y = self.coords(router)
        dx, dy = _STEP[direction]
        nx, ny = x + dx, y + dy
        if 0 <= nx < self.width and 0 <= ny < self.height:
            return self.router_at(nx, ny)
        return None

    def directions_of(self, router: int) -> List[str]:
        """Mesh sides present on this router, in fixed E,W,N,S order."""
        return [d for d in (EAST, WEST, NORTH, SOUTH) if self.neighbor(router, d) is not None]

    def hop_distance(self, router_a: int, router_b: int) -> int:
        xa, ya = self.coords(router_a)
        xb, yb = self.coords(router_b)
        return abs(xa - xb) + abs(ya - yb)


@dataclass(frozen=True)
class DirectedLink:
    """One direction of a physical channel between adjacent routers."""

    src_router: int
    dst_router: int
    direction: str

    def __post_init__(self) -> None:
        if self.src_router == self.dst_router:
            raise TopologyError("a link cannot loop back to its own router")


@dataclass(frozen=True)
class Path:
    """An X-Y route through the mesh as an ordered tuple of directed links."""

    src_router: int
    dst_router: int
    links: Tuple[DirectedLink, ...]

    @property
    def hops(self) -> int:
        return len(self.links)

    @cached_property
    def link_set(self) -> frozenset:
        return frozenset((l.src_router, l.dst_router) for l in self.links)

    def routers(self) -> List[int]:
        return [self.src_router] + [l.dst_router for l in self.links]


def xy_route(mesh: MeshConfig, src_router: int, dst_router: int) -> Path:
    """Dimension-ordered route: X first, then Y.

    Raises TopologyError for out-of-range routers or src == dst (paths are
    never empty).
    """
    if src_router == dst_router:
        raise TopologyError("no path between a router and itself")
    sx, sy = mesh.coords(src_router)
    dx, dy = mesh.coords(dst_router)
    links: List[DirectedLink] = []
    x, y = sx, sy
    while x != dx:
        step = EAST if dx > x else WEST
        nxt = mesh.router_at(x + _STEP[step][0], y)
        links.append(DirectedLink(mesh.router_at(x, y), nxt, step))
        x += _STEP[step][0]
    while y != dy:
        step = NORTH if dy > y else SOUTH
        nxt = mesh.router_at(x, y + _STEP[step][1])
        links.append(DirectedLink(mesh.router_at(x, y), nxt, step))
        y += _STEP[step][1]
    return Path(src_router, dst_router, tuple(links))


def enumerate_pairs(mesh: MeshConfig, granularity: str) -> List[Tuple[int, int]]:
    """All ordered distinct endpoint pairs at NI or router granularity."""
    if granularity == "ni":
        n = mesh.n_nis
    elif granularity == "router":
        n = mesh.n_routers
    else:
        raise TopologyError(f"unknown granularity {granularity!r}")
    return [(a, b) for a in range(n) for b in range(n) if a != b]


def links_conflict(a: Path, b: Path, endpoint_ports: bool = False) -> bool:
    """True when two paths cannot share one circuit-switched subnet.

    Sharing any directed link is always a conflict.  With endpoint_ports
    set (router-granularity circuits) a shared source router or a shared
    destination router also conflicts, because each router exposes a
    single injection and a single ejection port per CS subnet.
    """
    if a.link_set & b.link_set:
        return True
    if endpoint_ports and (a.src_router == b.src_router or a.dst_router == b.dst_router):
        return True
    return False


def iter_links(mesh: MeshConfig) -> Iterator[DirectedLink]:
    """Every directed mesh link, row-major by source router."""
    for r in range(mesh.n_routers):
        for d in mesh.directions_of(r):
            yield DirectedLink(r, mesh.neighbor(r, d), d)  # type: ignore[arg-type]
