import time

import networkx as nx
import numpy as np
import pytest

from symmetria.fullerene import (
    MatchingInfeasibleError,
    PolyhedralGraph,
    automorphism_order,
    build_truncated_icosahedron,
    cube_graph,
    dodecahedron_graph,
    euler_check,
    face_census,
    graph_to_json,
    hex_hex_edges,
    icosahedron,
    isolated_pentagon_check,
    kekule,
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


def test_merged_pentagon_mutation_detected(c60):
    faces = [list(f) for f in c60.faces]
    pent = [i for i, f in enumerate(faces) if len(f) == 5]
    faces[pent[0]] = list(faces[pent[1]])
    mutated = PolyhedralGraph(vertices=c60.vertices, edges=c60.edges, faces=faces)
    ok, witness = isolated_pentagon_check(mutated)
    assert not ok


def test_edge_partition(c60):
    ef = c60.edge_face_map()
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
    # cube: bipartite 3-regular; dodecahedron: 3-regular with odd faces
    for g in (cube_graph(), dodecahedron_graph()):
        bonds = kekule(g)
        doubles = [e for e, k in bonds.items() if k == "double"]
        assert len(doubles) * 2 == len(g.vertices)


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


def test_automorphism_order_against_vf2(c60):
    gm = nx.algorithms.isomorphism.GraphMatcher(nx.Graph(list(c60.edges)),
                                                nx.Graph(list(c60.edges)))
    assert sum(1 for _ in gm.isomorphisms_iter()) == 120


def _faceless(nx_graph):
    g = nx.convert_node_labels_to_integers(nx_graph)
    return PolyhedralGraph(vertices=[np.zeros(3)] * g.number_of_nodes(),
                           edges=list(g.edges), faces=[])


def _vf2_count(nx_graph):
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(
        nx_graph, nx_graph).isomorphisms_iter())


@pytest.mark.parametrize("name,graph,order", [
    ("petersen", nx.petersen_graph(), 120),
    ("K4", nx.complete_graph(4), 24),
    ("K33", nx.complete_bipartite_graph(3, 3), 72),
    ("5-prism", nx.circular_ladder_graph(5), 20),
    ("moebius-kantor", nx.moebius_kantor_graph(), 96),
    ("heawood", nx.heawood_graph(), 336),
] + [(f"cubic-12-seed{s}", nx.random_regular_graph(3, 12, seed=s), None) for s in range(5)])
def test_automorphism_order_against_vf2_on_faceless_graphs(name, graph, order):
    expected = _vf2_count(graph)
    if order is not None:
        assert expected == order
    assert automorphism_order(_faceless(graph)) == expected, name


def test_automorphism_small_graphs():
    pent = PolyhedralGraph(vertices=[np.zeros(3)] * 5,
                           edges=[(i, (i + 1) % 5) for i in range(5)], faces=[])
    assert automorphism_order(pent) == 10
    pair = PolyhedralGraph(vertices=[np.zeros(3)] * 2, edges=[(0, 1)], faces=[])
    assert automorphism_order(pair) == 2
    assert automorphism_order(cube_graph()) == 48


def test_automorphisms_preserve_face_sizes(c60):
    # with the face-size invariant in the search, any counted bijection maps
    # pentagon-incident vertices to pentagon-incident vertices; cross-check
    # the invariant is non-degenerate on a hexagon-only neighborhood count
    sizes = {}
    for f in c60.faces:
        for v in f:
            sizes.setdefault(v, []).append(len(f))
    assert all(sorted(s) == [5, 6, 6] for s in sizes.values())


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
