"""Oracles for the graph tests: a Hamilton path checker and a generic
isomorphism search. The package itself never needs either: its
certificates are Hamilton cycles, and its graphs carry explicit
labellings, so they are compared with ==."""


def verify_hamilton_path(g, path, u, v):
    """True iff path is a Hamilton path of g from u to v."""
    if path is None or len(path) != g.n or len(set(path)) != g.n:
        return False
    if path[0] != u or path[-1] != v:
        return False
    return all(g.has_edge(path[i], path[i + 1]) for i in range(g.n - 1))


def find_isomorphism(g, h, seed=None):
    """A vertex bijection g -> h preserving adjacency, or None; seed may
    prescribe part of the map (e.g. for automorphism searches)."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    if sorted(map(g.degree, range(g.n))) != sorted(map(h.degree, range(h.n))):
        return None
    n = g.n
    # order g's vertices to keep the partial map connected where possible
    order = sorted(range(n), key=lambda v: -g.degree(v))
    if seed:
        order = list(seed) + [v for v in order if v not in seed]
    seen = set()
    seq = []
    for v in order:
        if v in seen:
            continue
        stack = [v]
        seen.add(v)
        while stack:
            u = stack.pop()
            seq.append(u)
            for w in g.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    mapping = {}
    used = [False] * n
    if seed:
        for u, c in seed.items():
            if g.degree(u) != h.degree(c) or used[c]:
                return None
            mapping[u] = c
            used[c] = True
        for u, c in seed.items():
            for w in g.adjacency[u]:
                if w in mapping and not h.has_edge(c, mapping[w]):
                    return None

    def options(u):
        # the images of u consistent with the partial map, in vertex order
        for c in range(n):
            if used[c] or h.degree(c) != g.degree(u):
                continue
            if any(w in mapping and not h.has_edge(c, mapping[w])
                   for w in g.adjacency[u]):
                continue
            if any(h.has_edge(c, cw) and not g.has_edge(u, w)
                   for w, cw in mapping.items()):
                continue
            yield c

    # depth-first over the unseeded vertices on an explicit stack: trail[i]
    # holds the untried images of free[i], so no recursion grows with n
    free = [u for u in seq if u not in mapping]
    trail = [options(free[0])] if free else []
    while trail:
        u = free[len(trail) - 1]
        if u in mapping:  # back from a dead end: undo u's image
            used[mapping.pop(u)] = False
        c = next(trail[-1], None)
        if c is None:
            trail.pop()
            continue
        mapping[u] = c
        used[c] = True
        if len(trail) == len(free):
            return [mapping[v] for v in range(n)]
        trail.append(options(free[len(trail)]))
    return None if free else [mapping[v] for v in range(n)]


def is_isomorphic(g, h):
    return find_isomorphism(g, h) is not None
