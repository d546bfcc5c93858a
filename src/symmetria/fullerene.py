"""The truncated icosahedron as a polyhedral graph, with the combinatorial
checks behind the C60 model: census, Euler characteristic, 3-regularity,
isolated pentagons, a Kekule bond assignment, and the automorphism count.

Construction is geometric: each edge of the golden-ratio icosahedron is cut
at its 1/3 and 2/3 points, pentagons are recovered by sorting the cut points
around each original vertex, hexagons by walking each original face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class MatchingInfeasibleError(ValueError):
    def __init__(self, unmatched):
        self.unmatched = tuple(unmatched)
        super().__init__(f"no perfect matching: unmatched vertices {self.unmatched}")


@dataclass
class PolyhedralGraph:
    """Vertices with embedding coordinates, undirected edges, and face cycles."""

    vertices: list
    edges: list
    faces: list
    _adj: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.edges = [tuple(sorted(e)) for e in self.edges]
        if len(set(self.edges)) != len(self.edges):
            raise ValueError("duplicate edges")
        if any(a == b for a, b in self.edges):
            raise ValueError("self-loops are not allowed")
        self._adj = {i: set() for i in range(len(self.vertices))}
        for a, b in self.edges:
            self._adj[a].add(b)
            self._adj[b].add(a)
        edge_set = set(self.edges)
        for face in self.faces:
            for i in range(len(face)):
                e = tuple(sorted((face[i], face[(i + 1) % len(face)])))
                if e not in edge_set:
                    raise ValueError(f"face {face} walks a missing edge {e}")

    def adjacency(self, i: int) -> set:
        return self._adj[i]

    def degree_sequence(self) -> list:
        return sorted(len(self._adj[i]) for i in range(len(self.vertices)))

    def edge_face_map(self) -> dict:
        ef = {}
        for fi, face in enumerate(self.faces):
            for i in range(len(face)):
                e = tuple(sorted((face[i], face[(i + 1) % len(face)])))
                ef.setdefault(e, []).append(fi)
        return ef

    def validate_face_cover(self):
        """Every edge must lie in exactly two faces (closed surface)."""
        ef = self.edge_face_map()
        bad = [e for e in self.edges if len(ef.get(e, [])) != 2]
        if bad:
            raise ValueError(f"edges not covered by exactly two faces: {bad[:5]}")


_ICO_VERTICES = None
_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosahedron() -> tuple[np.ndarray, list]:
    """Golden-ratio icosahedron: 12 unit vertices and 20 triangular faces."""
    t = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [(-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
           (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
           (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1)]
    verts = np.array(raw, dtype=float) / math.sqrt(1.0 + t * t)
    return verts, list(_ICO_FACES)


def build_truncated_icosahedron() -> PolyhedralGraph:
    """Cut every icosahedron edge at 1/3 and 2/3: 60 vertices, 90 edges,
    12 pentagons (one per original vertex), 20 hexagons (one per face)."""
    verts, faces = icosahedron()
    neighbors = {i: set() for i in range(12)}
    for f in faces:
        for i in range(3):
            a, b = f[i], f[(i + 1) % 3]
            neighbors[a].add(b)
            neighbors[b].add(a)

    # one cut point per directed icosahedron edge, at 1/3 toward the head
    index = {}
    coords = []
    for a in range(12):
        for b in sorted(neighbors[a]):
            index[(a, b)] = len(coords)
            coords.append(verts[a] + (verts[b] - verts[a]) / 3.0)

    edges = set()
    for a in range(12):
        for b in neighbors[a]:
            if a < b:
                edges.add(tuple(sorted((index[(a, b)], index[(b, a)]))))

    # pentagon at each original vertex: cut points sorted by angle in the
    # plane orthogonal to the vertex direction
    pentagons = []
    for a in range(12):
        axis = verts[a] / np.linalg.norm(verts[a])
        ref = np.array([1.0, 0.0, 0.0])
        if abs(ref @ axis) > 0.9:
            ref = np.array([0.0, 1.0, 0.0])
        e1 = ref - (ref @ axis) * axis
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(axis, e1)

        def angle(b, a=a, e1=e1, e2=e2):
            d = coords[index[(a, b)]]
            return math.atan2(d @ e2, d @ e1)

        ring = sorted(neighbors[a], key=angle)
        cycle = [index[(a, b)] for b in ring]
        pentagons.append(cycle)
        for i in range(5):
            edges.add(tuple(sorted((cycle[i], cycle[(i + 1) % 5]))))

    # hexagon around each original face: walk its boundary
    hexagons = []
    for (a, b, c) in faces:
        hexagons.append([index[(a, b)], index[(b, a)], index[(b, c)],
                         index[(c, b)], index[(c, a)], index[(a, c)]])

    graph = PolyhedralGraph(vertices=[np.array(p) for p in coords],
                            edges=sorted(edges),
                            faces=pentagons + hexagons)
    graph.validate_face_cover()
    return graph


def face_census(g: PolyhedralGraph) -> dict:
    sizes = [len(f) for f in g.faces]
    return {
        "V": len(g.vertices),
        "E": len(g.edges),
        "F": len(g.faces),
        "pentagons": sizes.count(5),
        "hexagons": sizes.count(6),
    }


def euler_check(g: PolyhedralGraph) -> int:
    """V - E + F; 2 for any sphere-like polyhedral graph."""
    return len(g.vertices) - len(g.edges) + len(g.faces)


def isolated_pentagon_check(g: PolyhedralGraph) -> tuple[bool, tuple | None]:
    """True iff every pentagon edge borders a hexagon; otherwise a witness
    pair of pentagon faces sharing an edge."""
    ef = g.edge_face_map()
    sizes = [len(f) for f in g.faces]
    for e, fs in ef.items():
        pents = [fi for fi in fs if sizes[fi] == 5]
        if len(pents) >= 2:
            return False, (pents[0], pents[1])
    return True, None


def hex_hex_edges(g: PolyhedralGraph) -> list:
    ef = g.edge_face_map()
    sizes = [len(f) for f in g.faces]
    return [e for e, fs in ef.items() if len(fs) == 2
            and sizes[fs[0]] == 6 and sizes[fs[1]] == 6]


def _augmenting_matching(n: int, adj: dict) -> dict:
    """Matching grown by alternating-path search from unmatched vertices.
    No blossom contraction: exact on bipartite-like cases, best effort on
    odd cycles (callers fall back to a certified solution)."""
    mate = {}
    for start in range(n):
        if start in mate:
            continue
        # BFS alternating tree rooted at the unmatched vertex
        parent = {start: None}
        queue = [start]
        found = None
        while queue and found is None:
            u = queue.pop(0)
            for w in adj[u]:
                if w not in mate and w != start:
                    found = (u, w)
                    break
                if w in parent or mate.get(w) in parent:
                    continue
                if w in mate:
                    parent[w] = u
                    parent[mate[w]] = w
                    queue.append(mate[w])
        if found is None:
            continue
        u, w = found
        # augment along the tree path from u back to the root
        path = [w, u]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        for i in range(0, len(path) - 1, 2):
            mate[path[i]] = path[i + 1]
            mate[path[i + 1]] = path[i]
    return mate


def kekule(g: PolyhedralGraph) -> dict:
    """Single/double bond assignment: a perfect matching carries the double
    bonds.  For the truncated icosahedron the 30 hexagon-hexagon edges are
    the canonical solution; other 3-regular graphs go through the matching
    search."""
    n = len(g.vertices)
    if n % 2 == 1:
        raise MatchingInfeasibleError(range(n))
    degrees = set(g.degree_sequence())
    if degrees != {3}:
        raise ValueError("bond assignment requires a 3-regular graph")

    double = None
    hh = hex_hex_edges(g)
    touched = [v for e in hh for v in e]
    if len(hh) * 2 == n and len(set(touched)) == n:
        double = set(hh)
    else:
        mate = _augmenting_matching(n, {i: g.adjacency(i) for i in range(n)})
        unmatched = [v for v in range(n) if v not in mate]
        if unmatched:
            raise MatchingInfeasibleError(unmatched)
        double = {tuple(sorted((v, mate[v]))) for v in mate}

    bonds = {e: ("double" if e in double else "single") for e in g.edges}
    per_vertex = [0] * n
    for (a, b), kind in bonds.items():
        if kind == "double":
            per_vertex[a] += 1
            per_vertex[b] += 1
    if any(c != 1 for c in per_vertex):
        raise MatchingInfeasibleError([v for v, c in enumerate(per_vertex) if c != 1])
    return bonds


def automorphism_order(g: PolyhedralGraph) -> int:
    """Order of the combinatorial automorphism group by backtracking over
    adjacency-preserving bijections.

    Vertices are matched in a BFS order so every new vertex already has a
    mapped neighbor; candidates are pruned by an invariant combining degree
    with the sizes of incident faces.
    """
    n = len(g.vertices)
    if n == 0:
        return 1
    adj = [g.adjacency(i) for i in range(n)]

    face_sizes = [[] for _ in range(n)]
    for f in g.faces:
        for v in f:
            face_sizes[v].append(len(f))
    invariant = [(len(adj[v]), tuple(sorted(face_sizes[v]))) for v in range(n)]
    # one refinement round: include the multiset of neighbor invariants
    invariant = [(invariant[v], tuple(sorted(invariant[w] for w in adj[v]))) for v in range(n)]

    bfs = []
    from collections import deque
    dq = deque([0])
    seen = {0}
    while dq:
        u = dq.popleft()
        bfs.append(u)
        for w in sorted(adj[u]):
            if w not in seen:
                seen.add(w)
                dq.append(w)
    if len(bfs) != n:
        raise ValueError("automorphism count requires a connected graph")

    count = 0
    image = [-1] * n
    used = [False] * n

    def place(pos: int):
        nonlocal count
        if pos == n:
            count += 1
            return
        v = bfs[pos]
        mapped_nb = [w for w in adj[v] if image[w] >= 0]
        if mapped_nb:
            candidates = set(adj[image[mapped_nb[0]]])
            for w in mapped_nb[1:]:
                candidates &= adj[image[w]]
        else:
            candidates = set(range(n))
        for cand in sorted(candidates):
            if used[cand] or invariant[cand] != invariant[v]:
                continue
            # cand already neighbours the images of v's mapped neighbours;
            # non-adjacency is preserved too exactly when cand neighbours no
            # other used vertex.  A complete edge-preserving bijection is an
            # automorphism anyway, so this only prunes dead partial maps.
            if sum(used[x] for x in adj[cand]) != len(mapped_nb):
                continue
            image[v] = cand
            used[cand] = True
            place(pos + 1)
            image[v] = -1
            used[cand] = False

    place(0)
    return count


def graph_to_json(g: PolyhedralGraph, bonds: dict | None = None) -> dict:
    doc = {
        "vertices": [[float(c) for c in v] for v in g.vertices],
        "edges": [[int(a), int(b)] for a, b in g.edges],
        "faces": [[int(v) for v in f] for f in g.faces],
    }
    if bonds is not None:
        doc["bonds"] = {f"{a}-{b}": kind for (a, b), kind in sorted(bonds.items())}
    return doc


def dodecahedron_graph() -> PolyhedralGraph:
    """Test fixture: the regular dodecahedron (dual of the icosahedron),
    whose 12 pentagons all touch other pentagons."""
    verts, faces = icosahedron()
    centroids = [np.mean(verts[list(f)], axis=0) for f in faces]
    edges = set()
    for i, f in enumerate(faces):
        for j, g in enumerate(faces):
            if i < j and len(set(f) & set(g)) == 2:
                edges.add((i, j))
    pent_faces = []
    for v in range(12):
        incident = [i for i, f in enumerate(faces) if v in f]
        axis = verts[v] / np.linalg.norm(verts[v])
        ref = np.array([1.0, 0.0, 0.0])
        if abs(ref @ axis) > 0.9:
            ref = np.array([0.0, 1.0, 0.0])
        e1 = ref - (ref @ axis) * axis
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(axis, e1)
        incident.sort(key=lambda i: math.atan2(centroids[i] @ e2, centroids[i] @ e1))
        pent_faces.append(incident)
    return PolyhedralGraph(vertices=[np.array(c) for c in centroids],
                           edges=sorted(edges), faces=pent_faces)


def cube_graph() -> PolyhedralGraph:
    """Test fixture: the 3-cube with its 6 square faces."""
    verts = [np.array([float(x), float(y), float(z)])
             for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    idx = lambda x, y, z: 4 * x + 2 * y + z
    edges = []
    for x in (0, 1):
        for y in (0, 1):
            for z in (0, 1):
                if x == 0:
                    edges.append((idx(0, y, z), idx(1, y, z)))
                if y == 0:
                    edges.append((idx(x, 0, z), idx(x, 1, z)))
                if z == 0:
                    edges.append((idx(x, y, 0), idx(x, y, 1)))
    faces = [
        [idx(0, 0, 0), idx(0, 0, 1), idx(0, 1, 1), idx(0, 1, 0)],
        [idx(1, 0, 0), idx(1, 0, 1), idx(1, 1, 1), idx(1, 1, 0)],
        [idx(0, 0, 0), idx(0, 0, 1), idx(1, 0, 1), idx(1, 0, 0)],
        [idx(0, 1, 0), idx(0, 1, 1), idx(1, 1, 1), idx(1, 1, 0)],
        [idx(0, 0, 0), idx(0, 1, 0), idx(1, 1, 0), idx(1, 0, 0)],
        [idx(0, 0, 1), idx(0, 1, 1), idx(1, 1, 1), idx(1, 0, 1)],
    ]
    return PolyhedralGraph(vertices=verts, edges=edges, faces=faces)
