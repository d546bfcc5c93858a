import functools
import itertools
import random
import time

import networkx as nx
import numpy as np
import pytest
from scipy.spatial import ConvexHull

from oracles import cube_graph, ring_by_sorted_atan2
from symmetria.fullerene import (
    MatchingInfeasibleError,
    PolyhedralGraph,
    automorphism_order,
    build_truncated_icosahedron,
    dodecahedron_graph,
    euler_check,
    face_census,
    graph_to_json,
    hex_hex_edges,
    icosahedron,
    isolated_pentagon_check,
    kekule,
    _rings,
)


@pytest.fixture(scope="module")
def c60():
    return build_truncated_icosahedron()


def combinatorial_truncation():
    """Second construction route: purely table-driven truncation of the
    icosahedron face list, no geometry, used to cross-validate the geometric
    build up to isomorphism."""
    _, faces = icosahedron()
    neighbors = {i: set() for i in range(12)}
    for f in faces:
        for i in range(3):
            a, b = f[i], f[(i + 1) % 3]
            neighbors[a].add(b)
            neighbors[b].add(a)
    index = {}
    for a in range(12):
        for b in sorted(neighbors[a]):
            index[(a, b)] = len(index)
    edges = set()
    for a in range(12):
        for b in neighbors[a]:
            if a < b:
                edges.add(tuple(sorted((index[(a, b)], index[(b, a)]))))
    # pentagon cycles from face-ordering around each vertex: walk the faces
    # incident to a vertex by shared edges
    for v in range(12):
        incident = [f for f in faces if v in f]
        ring = [incident[0]]
        while len(ring) < len(incident):
            last = ring[-1]
            nxt = next(f for f in incident if f not in ring and len(set(f) & set(last)) == 2)
            ring.append(nxt)
        cyc = []
        for f in ring:
            shared_next = set(f) & set(ring[(ring.index(f) + 1) % len(ring)])
            other = (shared_next - {v}).pop()
            cyc.append(index[(v, other)])
        for i in range(5):
            edges.add(tuple(sorted((cyc[i], cyc[(i + 1) % 5]))))
    return sorted(edges)


def test_census(c60):
    assert face_census(c60) == {"V": 60, "E": 90, "F": 32, "pentagons": 12, "hexagons": 20}


def test_euler(c60):
    assert euler_check(c60) == 2
    assert euler_check(cube_graph()) == 2
    dropped = PolyhedralGraph(vertices=c60.vertices, edges=c60.edges, faces=c60.faces[:-1])
    assert euler_check(dropped) == 1


def test_three_regular(c60):
    assert set(c60.degree_sequence()) == {3}


def test_faces_are_simple_cycles(c60):
    for f in c60.faces:
        assert len(f) in (5, 6)
        assert len(set(f)) == len(f)
    c60.validate_face_cover()


def test_matches_combinatorial_route(c60):
    ga = nx.Graph(list(c60.edges))
    gb = nx.Graph(combinatorial_truncation())
    assert nx.is_isomorphic(ga, gb)


def test_isolated_pentagons(c60):
    ok, witness = isolated_pentagon_check(c60)
    assert ok and witness is None


def test_dodecahedron_violates_isolation():
    d = dodecahedron_graph()
    assert face_census(d) == {"V": 20, "E": 30, "F": 12, "pentagons": 12, "hexagons": 0}
    assert euler_check(d) == 2
    ok, witness = isolated_pentagon_check(d)
    assert not ok and witness is not None
    # dual edges: the pairs of icosahedron faces that share two vertices
    _, faces = icosahedron()
    assert d.edges == [(i, j) for i, j in itertools.combinations(range(20), 2)
                       if len(set(faces[i]) & set(faces[j])) == 2]


def test_rings_match_a_sort_of_one_ring_at_a_time():
    rng = np.random.default_rng(83)
    axes = rng.normal(size=(500, 3))
    # a third near x, where the reference direction switches to y
    near_x = np.arange(500) % 3 == 0
    axes[near_x, 1:] = rng.uniform(-0.3, 0.3, (near_x.sum(), 2))
    axes[near_x, 0] = rng.choice((-1.0, 1.0), near_x.sum()) * rng.uniform(1.0, 2.0, near_x.sum())
    axes *= rng.uniform(0.1, 10.0, (500, 1))
    ratio = np.abs(axes[:, 0]) / np.linalg.norm(axes, axis=1)
    assert (ratio[near_x] > 0.9).all()
    for size in (5, 6):
        points = rng.normal(size=(500, size, 3))
        got = _rings(axes, points)
        assert got.shape == (500, size)
        for axis, ring, order in zip(axes, points, got):
            assert order.tolist() == ring_by_sorted_atan2(axis, ring)


def test_merged_pentagon_mutation_detected(c60):
    faces = [list(f) for f in c60.faces]
    pent = [i for i, f in enumerate(faces) if len(f) == 5]
    faces[pent[0]] = list(faces[pent[1]])
    mutated = PolyhedralGraph(vertices=c60.vertices, edges=c60.edges, faces=faces)
    ok, witness = isolated_pentagon_check(mutated)
    assert not ok


def test_edge_partition(c60):
    # edge_faces lists the edges in the order the faces first walk them
    walk = {}
    for fi, f in enumerate(c60.faces):
        for i in range(len(f)):
            walk.setdefault(tuple(sorted((f[i], f[(i + 1) % len(f)]))), []).append(fi)
    ef = c60.edge_faces
    assert list(ef.items()) == list(walk.items())
    sizes = [len(f) for f in c60.faces]
    hh = hex_hex_edges(c60)
    ph = [e for e, fs in ef.items() if {sizes[fs[0]], sizes[fs[1]]} == {5, 6}]
    assert len(hh) == 30 and len(ph) == 60
    assert len(hh) + len(ph) == len(c60.edges)


def test_kekule_canonical(c60):
    bonds = kekule(c60)
    doubles = {e for e, k in bonds.items() if k == "double"}
    assert len(doubles) == 30
    assert doubles == set(hex_hex_edges(c60))
    counts = [0] * 60
    for a, b in doubles:
        counts[a] += 1
        counts[b] += 1
    assert all(c == 1 for c in counts)


def test_kekule_fallback_on_other_graphs():
    # no hexagons to seed the matching, so the blossom search builds all of
    # it: the cube is bipartite, the dodecahedron has odd faces
    for g in (cube_graph(), dodecahedron_graph()):
        bonds = kekule(g)
        doubles = [e for e, k in bonds.items() if k == "double"]
        assert len(doubles) * 2 == len(g.vertices)


def _faceless(nx_graph):
    g = nx.convert_node_labels_to_integers(nx_graph)
    return PolyhedralGraph(vertices=[np.zeros(3)] * g.number_of_nodes(),
                           edges=list(g.edges), faces=[])


def test_kekule_matches_networkx_on_random_cubic_graphs():
    # connected bridgeless cubic graphs, so each has a perfect matching
    # (Petersen 1891); an augmenting search without blossom contraction
    # leaves two vertices unmatched on seeds 24, 151, 161, 211 and 252
    for seed in range(300):
        graph = nx.random_regular_graph(3, 60, seed=seed)
        bonds = kekule(_faceless(graph))
        doubles = [e for e, k in bonds.items() if k == "double"]
        assert len(doubles) == 30, seed
        assert sorted(v for e in doubles for v in e) == list(range(60)), seed
        assert len(nx.max_weight_matching(graph, maxcardinality=True)) == 30, seed


def test_kekule_cubic_graph_without_perfect_matching():
    # three K4s, each with one edge subdivided by a vertex that joins a
    # centre: deleting the centre leaves three odd components (Tutte), so
    # every maximum matching misses two of the 16 vertices
    g = nx.Graph()
    for k in range(3):
        a, b, c, d, mid = (5 * k + i for i in range(5))
        g.add_edges_from([(a, c), (a, d), (b, c), (b, d), (c, d), (a, mid), (mid, b), (mid, 15)])
    assert sorted(d for _, d in g.degree) == [3] * 16
    with pytest.raises(MatchingInfeasibleError) as err:
        kekule(_faceless(g))
    assert len(err.value.unmatched) == 2
    assert len(nx.max_weight_matching(g, maxcardinality=True)) == 7


def test_kekule_odd_vertex_count_infeasible():
    tri = PolyhedralGraph(vertices=[np.zeros(3)] * 3,
                          edges=[(0, 1), (1, 2), (0, 2)], faces=[])
    with pytest.raises(MatchingInfeasibleError):
        kekule(tri)


def test_vertex_transitive_embedding(c60):
    centroid = np.mean(np.array(c60.vertices), axis=0)
    radii = [np.linalg.norm(v - centroid) for v in c60.vertices]
    assert max(radii) - min(radii) < 1e-9


def test_automorphism_order_c60(c60):
    t0 = time.perf_counter()
    assert automorphism_order(c60) == 120
    assert time.perf_counter() - t0 < 10.0


def test_automorphism_order_against_vf2():
    # the VF2 count is cached for the C60 flag-count cases below
    assert _vf2_polyhedron("C60") == 120


def _vf2_count(nx_graph):
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(
        nx_graph, nx_graph).isomorphisms_iter())


def test_automorphism_small_graphs():
    # the count needs the faces of an embedding; a graph without them raises
    pent = PolyhedralGraph(vertices=[np.zeros(3)] * 5,
                           edges=[(i, (i + 1) % 5) for i in range(5)], faces=[])
    empty = PolyhedralGraph(vertices=[], edges=[], faces=[])
    for g in (pent, empty):
        with pytest.raises(ValueError, match="faces of the embedding"):
            automorphism_order(g)
    assert automorphism_order(cube_graph()) == 48
    # a pentagon closed by two faces: swapping them moves no vertex, so the
    # ten vertex maps are counted once each
    twice = PolyhedralGraph(vertices=[np.zeros(3)] * 5,
                            edges=[(i, (i + 1) % 5) for i in range(5)],
                            faces=[list(range(5)), list(range(5))])
    assert automorphism_order(twice) == 10


def test_automorphisms_preserve_face_sizes(c60):
    # every C60 vertex lies on one pentagon and two hexagons, so the face
    # sizes at a vertex cannot tell vertices apart; what an automorphism
    # does keep is the face set itself, checked here on the first VF2 maps
    sizes = {}
    for f in c60.faces:
        for v in f:
            sizes.setdefault(v, []).append(len(f))
    assert all(sorted(s) == [5, 6, 6] for s in sizes.values())
    faces = {frozenset(f) for f in c60.faces}
    gm = nx.algorithms.isomorphism.GraphMatcher(nx.Graph(list(c60.edges)),
                                                nx.Graph(list(c60.edges)))
    for iso in itertools.islice(gm.isomorphisms_iter(), 10):
        assert {frozenset(iso[v] for v in f) for f in faces} == faces


def _planar(nx_graph, scramble=False):
    """The graph with the faces of its planar embedding; with ``scramble``
    every other face is walked backwards and the face list shuffled."""
    g = nx.convert_node_labels_to_integers(nx_graph)
    is_planar, embedding = nx.check_planarity(g)
    assert is_planar
    faces, marked = [], set()
    for u, v in embedding.edges():
        if (u, v) not in marked:
            faces.append(embedding.traverse_face(u, v, mark_half_edges=marked))
    if scramble:
        faces = [f[::-1] if i % 2 else f for i, f in enumerate(faces)]
        random.Random(0).shuffle(faces)
    return PolyhedralGraph(vertices=[np.zeros(3)] * g.number_of_nodes(),
                           edges=list(g.edges), faces=faces)


def _sphere_hull(seed, n=12):
    """Triangulated convex hull of n random points on the sphere: polyhedral,
    and with few automorphisms, so most candidate flags must be rejected."""
    p = np.random.default_rng(seed).normal(size=(n, 3))
    g = nx.Graph()
    for tri in ConvexHull(p / np.linalg.norm(p, axis=1, keepdims=True)).simplices:
        nx.add_cycle(g, tri.tolist())
    return g


POLYHEDRA = {
    "tetrahedron": nx.tetrahedral_graph(),
    "octahedron": nx.octahedral_graph(),
    "cube": nx.cubical_graph(),
    "dodecahedron": nx.dodecahedral_graph(),
    "icosahedron": nx.icosahedral_graph(),
    "truncated-tetrahedron": nx.truncated_tetrahedron_graph(),
    "5-prism": nx.circular_ladder_graph(5),
    "6-prism": nx.circular_ladder_graph(6),
    "C60": nx.Graph(list(build_truncated_icosahedron().edges)),
    **{f"hull-12-seed{s}": _sphere_hull(s) for s in range(3)},
}


@functools.cache
def _vf2_polyhedron(name):
    return _vf2_count(POLYHEDRA[name])


@pytest.mark.parametrize("scramble", [False, True], ids=["embedded", "scrambled"])
@pytest.mark.parametrize("name", list(POLYHEDRA))
def test_flag_count_against_vf2_on_polyhedra(name, scramble):
    g = _planar(POLYHEDRA[name], scramble)
    assert g.faces and euler_check(g) == 2
    assert automorphism_order(g) == _vf2_polyhedron(name), name


def test_flag_count_rejects_faces_that_do_not_close(c60):
    dropped = PolyhedralGraph(vertices=c60.vertices, edges=c60.edges, faces=c60.faces[:-1])
    with pytest.raises(ValueError, match="exactly two faces"):
        automorphism_order(dropped)
    # two tetrahedra glued at vertex 0: every edge lies in two faces, but
    # the corners at vertex 0 form two rings
    tet = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    faces = [list(f) for f in tet] + [[0 if v == 0 else v + 3 for v in f] for f in tet]
    edges = {tuple(sorted((f[i], f[(i + 1) % 3]))) for f in faces for i in range(3)}
    pinched = PolyhedralGraph(vertices=[np.zeros(3)] * 7, edges=sorted(edges), faces=faces)
    with pytest.raises(ValueError, match="one ring"):
        automorphism_order(pinched)


def test_graph_json(c60):
    doc = graph_to_json(c60, kekule(c60))
    assert len(doc["vertices"]) == 60
    assert len(doc["edges"]) == 90
    assert len(doc["faces"]) == 32
    assert sum(1 for v in doc["bonds"].values() if v == "double") == 30


def test_rejects_bad_graphs():
    with pytest.raises(ValueError):
        PolyhedralGraph(vertices=[np.zeros(3)] * 2, edges=[(0, 1), (0, 1)], faces=[])
    with pytest.raises(ValueError):
        PolyhedralGraph(vertices=[np.zeros(3)] * 2, edges=[(0, 0)], faces=[])
    with pytest.raises(ValueError):
        PolyhedralGraph(vertices=[np.zeros(3)] * 3, edges=[(0, 1)], faces=[[0, 1, 2]])
