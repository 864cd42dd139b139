"""Oracles for the graph tests: a Hamilton path checker, a generic
isomorphism search, and the Hamilton search as it stood before the
forced-edge rule and the incremental usable-neighbour counts. The
package itself never needs the first two: its certificates are Hamilton
cycles, and its graphs carry explicit labellings, so they are compared
with ==. reference_search is kept so that graphs._search can be held to
the same results with no more expansions."""

from pqham.graphs import BudgetExceeded


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


def reference_search(g, start, target, budget):
    """Depth-first Hamilton search on an explicit stack. target None means
    close a cycle at start; otherwise find a Hamilton path ending at
    target. Returns (vertex sequence or None, expansions); None means the
    search proved absence. Raises BudgetExceeded past budget expansions.

    Children are tried by fewest unvisited neighbours. A move is cut when
    the unvisited vertices U provably admit no completion, by the
    connectivity and degree rules of Vandegriend and Culberson (1998).
    Each rule held before the move, so only what the move changed is
    checked. A cut drops only subtrees without a solution, so the first
    path found does not depend on the rules."""
    n = g.n
    adj = g.adjacency
    adjsets = [frozenset(a) for a in adj]
    cycle = target is None
    close_to = adjsets[start]
    visited = [False] * n
    visited[start] = True
    rem = [len(a) for a in adj]  # unvisited neighbours of each vertex
    for x in adj[start]:
        rem[x] -= 1
    path = [start]

    def apart(ends):
        # whether the unvisited vertices ends span more than one
        # component of U
        want = set(ends[1:])
        stack = ends[:1]
        seen = set(stack)
        while want and stack:
            for y in adj[stack.pop()]:
                if not visited[y] and y not in seen:
                    seen.add(y)
                    stack.append(y)
                    want.discard(y)
        return bool(want)

    def split(w):
        # U ∪ {w} was connected, so U is connected iff w's unvisited
        # neighbours share one component of U
        nbrs = [x for x in adj[w] if not visited[x]]
        return len(nbrs) >= 2 and apart(nbrs)

    def starved(u, w):
        # each x in U but the target is interior to the rest of the path:
        # it needs two neighbours among U, the end w and, for a cycle,
        # start, which serves one such x at most. Moving from u to w took
        # u from its neighbours, so only they can newly fall short.
        wset = adjsets[w]
        for x in adj[u]:
            if not visited[x] and x != target:
                have = rem[x] + (x in wset)
                if have < 2 and not (cycle and have == 1 and x in close_to):
                    return True
        return cycle and sum(1 for x in adj[start] if not visited[x]
                             and rem[x] + (x in wset) < 2) > 1

    def cut(u, w):
        if len(path) == n:
            return False
        if cycle and rem[start] == 0:
            return True
        return starved(u, w) or split(w)

    def step(w):
        visited[w] = True
        path.append(w)
        for x in adj[w]:
            rem[x] -= 1

    def back():
        w = path.pop()
        visited[w] = False
        for x in adj[w]:
            rem[x] += 1

    def advance():
        # move to the next child that survives the rules, backtracking out
        # of exhausted vertices; False once the root is exhausted
        while frames:
            u = path[-1]
            for w in frames[-1]:
                if w == target and len(path) < n - 1:
                    continue
                step(w)
                if not cut(u, w):
                    return True
                back()
            frames.pop()
            if frames:
                back()
        return False

    # the rules hold at the root when U = V - start is connected and no
    # vertex other than the two ends has fewer than two neighbours
    if apart([x for x in range(n) if x != start]) or any(
            len(adj[x]) < 2 for x in range(n) if x != start and x != target):
        return None, 0
    expansions = 0
    frames = []  # per expanded path vertex, an iterator over its children
    while True:
        expansions += 1
        if expansions > budget:
            raise BudgetExceeded(expansions)
        u = path[-1]
        if len(path) < n:
            frames.append(iter(sorted((w for w in adj[u] if not visited[w]),
                                      key=rem.__getitem__)))
        elif u in close_to if cycle else u == target:
            return path, expansions
        else:
            back()
        if not advance():
            return None, expansions
