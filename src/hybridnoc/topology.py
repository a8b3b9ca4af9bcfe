"""Mesh geometry and deterministic X-Y routing.

Routers live on a W x H grid with row-major ids; coords(r) gives the
(x, y) position, y growing northward.  Every network interface (NI)
attaches to exactly one router; routers may host several NIs.  Links are
directed (src, dst) router pairs: the two channels between neighbouring
routers are distinct resources.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

# most circuit subnets a link layout offers and a plan file names
MAX_CS_SUBNETS = 1024


class ConfigError(ValueError):
    """A config, option or argument value that is out of range or does not
    fit with the others (CLI exit 1); data files raise TraceFormatError."""


# most routers along a mesh side and NIs on a mesh, which size its tables
MAX_MESH_SIDE = 32
MAX_NIS = 1024


@dataclass(frozen=True)
class MeshConfig:
    """A W x H mesh plus the NI count attached to each router.

    ni_per_router is one entry per router, row-major, or one count for
    every router.  Passing None gives every router a single interface.
    """

    width: int
    height: int
    ni_per_router: Union[None, int, Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not (1 <= self.width <= MAX_MESH_SIDE and 1 <= self.height <= MAX_MESH_SIDE):
            raise ConfigError(f"mesh sides must be 1 to {MAX_MESH_SIDE} routers")
        nis = 1 if self.ni_per_router is None else self.ni_per_router
        if isinstance(nis, int):
            nis = (nis,) * (self.width * self.height)
        object.__setattr__(self, "ni_per_router", tuple(nis))
        if len(self.ni_per_router) != self.width * self.height:
            raise ConfigError("ni_per_router needs one entry per router")
        if any(n < 0 for n in self.ni_per_router):
            raise ConfigError("NI counts cannot be negative")
        if not 0 < sum(self.ni_per_router) <= MAX_NIS:
            raise ConfigError(f"a mesh needs 1 to {MAX_NIS} network interfaces")
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
        return cls(width, height, ni_per_router)

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
            raise ConfigError(f"router {router} out of range")
        return router % self.width, router // self.width

    def router_of_ni(self, ni: int) -> int:
        routers = self._ni_router  # type: ignore[attr-defined]
        if not 0 <= ni < len(routers):
            raise ConfigError(f"NI {ni} out of range")
        return routers[ni]

    def nis_of_router(self, router: int) -> range:
        starts = self._ni_starts  # type: ignore[attr-defined]
        if not 0 <= router < self.n_routers:
            raise ConfigError(f"router {router} out of range")
        return range(starts[router], starts[router + 1])

    def neighbors(self, router: int) -> Tuple[int, ...]:
        """Adjacent routers in fixed E, W, N, S order (y grows northward).

        A router's mesh port p leads to neighbors(router)[p].
        """
        x, y = self.coords(router)
        w = self.width
        out = []
        if x + 1 < w:
            out.append(router + 1)
        if x > 0:
            out.append(router - 1)
        if y + 1 < self.height:
            out.append(router + w)
        if y > 0:
            out.append(router - w)
        return tuple(out)

    def xy_next(self, router: int, dst_router: int) -> int:
        """Next router on the X-Y route to dst_router: X first, then Y."""
        w, n = self.width, self.width * self.height
        if not (0 <= router < n and 0 <= dst_router < n):
            raise ConfigError(f"route {router} -> {dst_router} leaves the mesh")
        dx = dst_router % w - router % w
        if dx:
            return router + 1 if dx > 0 else router - 1
        if dst_router != router:  # same column: north when dst_router is above
            return router + w if dst_router > router else router - w
        raise ConfigError(f"router {router} is the destination itself")

    def hop_distance(self, router_a: int, router_b: int) -> int:
        xa, ya = self.coords(router_a)
        xb, yb = self.coords(router_b)
        return abs(xa - xb) + abs(ya - yb)


@dataclass(frozen=True)
class Path:
    """An X-Y route as an ordered tuple of directed (src, dst) router links."""

    src_router: int
    dst_router: int
    links: Tuple[Tuple[int, int], ...]

    @property
    def hops(self) -> int:
        return len(self.links)


def xy_route(mesh: MeshConfig, src_router: int, dst_router: int) -> Path:
    """Dimension-ordered route: X first, then Y.

    Raises ConfigError for out-of-range routers or src == dst (paths are
    never empty).
    """
    if src_router == dst_router:
        raise ConfigError("no path between a router and itself")
    links = []
    r = src_router
    while r != dst_router:
        nxt = mesh.xy_next(r, dst_router)
        links.append((r, nxt))
        r = nxt
    return Path(src_router, dst_router, tuple(links))
