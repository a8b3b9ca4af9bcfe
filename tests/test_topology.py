"""Mesh geometry and X-Y routing checks."""

import pytest
from hypothesis import given, settings, strategies as st

from conflict_reference import links_conflict
from hybridnoc import ConfigError, MeshConfig, xy_route
from hybridnoc.topology import MAX_MESH_SIDE, MAX_NIS

# unit steps in E, W, N, S order; y grows northward
_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))

grids = st.builds(MeshConfig.grid, st.integers(1, 6), st.integers(1, 6))


def router(m, x, y):
    return y * m.width + x


def walk(m, a, b):
    """Routers an X-Y route visits, stepped on coordinates alone."""
    (x, y), (bx, by) = m.coords(a), m.coords(b)
    seq = [(x, y)]
    while x != bx:
        x += 1 if bx > x else -1
        seq.append((x, y))
    while y != by:
        y += 1 if by > y else -1
        seq.append((x, y))
    return [router(m, *xy) for xy in seq]


def test_grid_shape():
    m = MeshConfig.grid(4, 4)
    assert m.n_routers == 16
    assert m.n_nis == 16
    assert m.coords(0) == (0, 0)
    assert m.coords(5) == (1, 1)
    assert m.coords(11) == (3, 2)
    # ids are row-major
    for r in range(m.n_routers):
        assert router(m, *m.coords(r)) == r


def test_xy_route_examples():
    m = MeshConfig.grid(4, 4)
    assert xy_route(m, 0, 3).links == ((0, 1), (1, 2), (2, 3))
    assert xy_route(m, 5, 11).links == ((5, 6), (6, 7), (7, 11))
    # X is exhausted before Y on the way back too
    p = xy_route(m, 14, 0)
    assert p.hops == 5
    assert p.links == ((14, 13), (13, 12), (12, 8), (8, 4), (4, 0))


@settings(max_examples=40)
@given(grids)
def test_xy_route_is_x_then_y_everywhere(m):
    for a in range(m.n_routers):
        for b in range(m.n_routers):
            if a == b:
                continue
            p = xy_route(m, a, b)
            assert p.hops == m.hop_distance(a, b)
            assert p.links[0][0] == a and p.links[-1][1] == b
            seen_y = False
            for src, dst in p.links:
                # every link joins two routers adjacent in both directions
                assert dst in m.neighbors(src) and src in m.neighbors(dst)
                if m.coords(src)[0] == m.coords(dst)[0]:
                    seen_y = True
                else:
                    assert not seen_y, f"X step after Y step on {a}->{b}"
            # links chain up: each hop starts where the previous ended
            for prev, nxt in zip(p.links, p.links[1:]):
                assert prev[1] == nxt[0]


@settings(max_examples=60)
@given(st.integers(1, 8), st.integers(1, 8), st.data())
def test_xy_route_is_the_xy_next_walk(width, height, data):
    # xy_next alone decides X before Y: stepping it from a to b visits the
    # routers of the coordinate walk, and xy_route holds those steps
    m = MeshConfig.grid(width, height)
    a, b = (data.draw(st.integers(0, m.n_routers - 1)) for _ in range(2))
    if a == b:
        with pytest.raises(ConfigError, match="is the destination itself"):
            m.xy_next(a, b)
        return
    seq = [a]
    while seq[-1] != b:
        seq.append(m.xy_next(seq[-1], b))
    assert seq == walk(m, a, b)
    assert xy_route(m, a, b).links == tuple(zip(seq, seq[1:]))


def test_xy_next_rejects_routers_off_the_mesh():
    m = MeshConfig.grid(3, 2)
    for a, b in ((-1, 2), (6, 2), (2, -1), (2, 6), (0, 7)):
        with pytest.raises(ConfigError, match="leaves the mesh"):
            m.xy_next(a, b)
        with pytest.raises(ConfigError, match="leaves the mesh"):
            xy_route(m, a, b)


def test_mesh_sizes_are_bounded_before_any_table_is_built():
    # the largest mesh and NI count are accepted; one more is rejected
    assert MeshConfig.grid(MAX_MESH_SIDE, 1).n_routers == MAX_MESH_SIDE
    assert MeshConfig.grid(1, MAX_MESH_SIDE).n_routers == MAX_MESH_SIDE
    assert MeshConfig(2, 1, (MAX_NIS, 0)).n_nis == MAX_NIS
    for w, h in ((MAX_MESH_SIDE + 1, 1), (1, MAX_MESH_SIDE + 1), (0, 1)):
        with pytest.raises(ConfigError, match=f"mesh sides must be 1 to {MAX_MESH_SIDE}"):
            MeshConfig.grid(w, h)
    with pytest.raises(ConfigError, match=f"1 to {MAX_NIS} network interfaces"):
        MeshConfig.grid(1, 1, MAX_NIS + 1)
    with pytest.raises(ConfigError, match=f"1 to {MAX_NIS} network interfaces"):
        MeshConfig(2, 1, (MAX_NIS, 1))
    # one count for every router is the same mesh as the full tuple
    assert MeshConfig(3, 2, 2) == MeshConfig(3, 2, (2,) * 6) == MeshConfig.grid(3, 2, 2)


def test_xy_route_determinism_and_errors():
    m = MeshConfig.grid(3, 3)
    assert xy_route(m, 0, 8) == xy_route(m, 0, 8)
    with pytest.raises(ConfigError, match="no path between a router and itself"):
        xy_route(m, 2, 2)
    with pytest.raises(ConfigError, match="leaves the mesh"):
        xy_route(m, 0, 9)


def test_hop_distance_symmetric():
    m = MeshConfig.grid(5, 2)
    for a in range(m.n_routers):
        assert m.hop_distance(a, a) == 0
        for b in range(m.n_routers):
            assert m.hop_distance(a, b) == m.hop_distance(b, a)


def test_links_conflict_crossing_diagonals():
    # 2x2: the two diagonals cross in space but share no directed link
    m = MeshConfig.grid(2, 2)
    a = xy_route(m, 0, 3)
    b = xy_route(m, 2, 1)
    assert not links_conflict(a, b)
    # reversed direction over the same wire pair is also no conflict
    assert not links_conflict(xy_route(m, 0, 1), xy_route(m, 1, 0))
    # shared directed link conflicts regardless of endpoint flags
    assert links_conflict(xy_route(m, 0, 3), xy_route(m, 1, 3))
    assert links_conflict(xy_route(m, 0, 3), xy_route(m, 1, 3), endpoint_ports=True)


def test_links_conflict_endpoint_ports():
    m = MeshConfig.grid(2, 2)
    east = xy_route(m, 0, 1)
    north = xy_route(m, 0, 2)
    # same source router: one injection port per subnet
    assert not links_conflict(east, north)
    assert links_conflict(east, north, endpoint_ports=True)
    # same destination router: one ejection port per subnet
    into3_a = xy_route(m, 1, 3)
    into3_b = xy_route(m, 2, 3)
    assert links_conflict(into3_a, into3_b, endpoint_ports=True)
    assert not links_conflict(into3_a, into3_b)
    # source of one being destination of the other is fine either way
    chain_a = xy_route(m, 0, 1)
    chain_b = xy_route(m, 1, 3)
    assert not links_conflict(chain_a, chain_b, endpoint_ports=True)


def test_links_conflict_matches_set_intersection():
    # independent oracle: walk both routes on coordinates and intersect
    # the directed edges
    m = MeshConfig.grid(4, 4)
    pairs = [(a, b) for a in range(16) for b in range(16) if a != b]
    sample = pairs[::7]
    for a_src, a_dst in sample[:20]:
        for b_src, b_dst in sample[20:40]:
            a = xy_route(m, a_src, a_dst)
            b = xy_route(m, b_src, b_dst)
            seq_a, seq_b = walk(m, a_src, a_dst), walk(m, b_src, b_dst)
            edges_a = set(zip(seq_a, seq_a[1:]))
            edges_b = set(zip(seq_b, seq_b[1:]))
            assert links_conflict(a, b) == bool(edges_a & edges_b)


def test_links_conflict_reflexive_and_symmetric():
    m = MeshConfig.grid(3, 3)
    a = xy_route(m, 0, 8)
    b = xy_route(m, 6, 2)
    assert links_conflict(a, a)
    assert links_conflict(a, b) == links_conflict(b, a)


def test_neighbors_count_directed_links():
    # 2 * (W*(H-1) + H*(W-1)) directed links on a W x H mesh
    for w, h in [(1, 1), (2, 2), (4, 4), (3, 2), (1, 4)]:
        m = MeshConfig.grid(w, h)
        links = [(r, n) for r in range(m.n_routers) for n in m.neighbors(r)]
        assert len(links) == 2 * (w * (h - 1) + h * (w - 1))
        assert len(set(links)) == len(links)


def test_neighbors_in_e_w_n_s_order():
    m = MeshConfig.grid(3, 3)
    # corners
    assert m.neighbors(0) == (1, 3)
    assert m.neighbors(2) == (1, 5)
    assert m.neighbors(6) == (7, 3)
    assert m.neighbors(8) == (7, 5)
    # edges
    assert m.neighbors(1) == (2, 0, 4)
    assert m.neighbors(3) == (4, 6, 0)
    assert m.neighbors(5) == (4, 8, 2)
    assert m.neighbors(7) == (8, 6, 4)
    # interior
    assert m.neighbors(4) == (5, 3, 7, 1)
    # every router of other shapes: the unit steps that stay on the mesh,
    # in E, W, N, S order, and adjacency goes both ways
    for w, h in [(1, 1), (1, 4), (4, 1), (2, 2), (5, 3)]:
        m = MeshConfig.grid(w, h)
        for r in range(m.n_routers):
            x, y = m.coords(r)
            expect = tuple(
                router(m, x + dx, y + dy) for dx, dy in _STEPS
                if 0 <= x + dx < w and 0 <= y + dy < h
            )
            assert m.neighbors(r) == expect
            assert all(r in m.neighbors(n) for n in expect)


def test_nis_of_router_partition():
    m = MeshConfig.grid(2, 2, 3)
    seen = []
    for r in range(m.n_routers):
        for ni in m.nis_of_router(r):
            assert m.router_of_ni(ni) == r
            seen.append(ni)
    assert seen == list(range(m.n_nis))


def test_cmp_mesh_counts():
    m = MeshConfig.cmp_4x4_51ni()
    assert m.n_nis == 51
    assert len(m.nis_of_router(0)) == 4
    assert len(m.nis_of_router(3)) == 4
    assert len(m.nis_of_router(12)) == 4
    assert len(m.nis_of_router(5)) == 3


def test_validation_errors():
    with pytest.raises(ConfigError, match="mesh sides must be 1 to"):
        MeshConfig.grid(0, 3)
    with pytest.raises(ConfigError, match="one entry per router"):
        MeshConfig(2, 2, (1, 1, 1))  # wrong length
    with pytest.raises(ConfigError, match="NI counts cannot be negative"):
        MeshConfig(2, 2, (1, 1, 1, -1))
    with pytest.raises(ConfigError, match="network interfaces"):
        MeshConfig(2, 2, (0, 0, 0, 0))
    m = MeshConfig.grid(2, 2)
    with pytest.raises(ConfigError, match="NI 4 out of range"):
        m.router_of_ni(4)
    with pytest.raises(ConfigError, match="router -1 out of range"):
        m.coords(-1)
    with pytest.raises(ConfigError, match="router 4 out of range"):
        m.neighbors(4)
    with pytest.raises(ConfigError, match="router -1 out of range"):
        m.nis_of_router(-1)
    with pytest.raises(ConfigError, match="router 1 is the destination itself"):
        m.xy_next(1, 1)
    with pytest.raises(ConfigError, match="leaves the mesh"):
        m.xy_next(0, 4)
