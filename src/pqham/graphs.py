"""Simple graphs, exact Hamilton search with certificates, classical
hamiltonicity certificates, and generalized Petersen machinery."""

from itertools import combinations


class BudgetExceeded(Exception):
    """Raised when a Hamilton search exhausts its expansion budget."""


class Graph:
    """Finite simple undirected graph on vertices 0..n-1 with sorted
    adjacency lists. Immutable after construction.

    Graph(n, edges) is the public constructor: it rejects loops and
    out-of-range ends, and merges repeated edges. Graph._from_rows(rows)
    takes adjacency rows as given and checks nothing; it is for builders
    that have already proven their rows sorted, symmetric and loop-free."""

    def __init__(self, n, edges=()):
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError("loop at %d" % u)
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("edge (%d,%d) out of range" % (u, v))
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self.adjacency = [tuple(sorted(s)) for s in adj]
        self._adjsets = [frozenset(s) for s in adj]

    @classmethod
    def _from_rows(cls, rows):
        """The graph whose row v is rows[v]. Each row must be strictly
        increasing, hold no v, and hold u exactly when rows[u] holds v."""
        g = cls.__new__(cls)
        g.n = len(rows)
        g.adjacency = [tuple(r) for r in rows]
        g._adjsets = [frozenset(r) for r in rows]
        return g

    def neighbors(self, v):
        return self.adjacency[v]

    def degree(self, v):
        return len(self.adjacency[v])

    def has_edge(self, u, v):
        return v in self._adjsets[u]

    def edges(self):
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    @property
    def edge_count(self):
        return sum(len(a) for a in self.adjacency) // 2

    def is_regular(self):
        degs = {self.degree(v) for v in range(self.n)}
        return len(degs) <= 1

    def valency(self):
        if not self.is_regular():
            raise ValueError("graph is not regular")
        return self.degree(0) if self.n else 0

    def is_connected(self):
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            for w in self.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self.adjacency == other.adjacency)

    def __hash__(self):
        return hash((self.n, tuple(self.adjacency)))

    def __repr__(self):
        return "Graph(n=%d, m=%d)" % (self.n, self.edge_count)


def verify_hamilton_cycle(g, cycle):
    """True iff cycle is a Hamilton cycle of g."""
    if cycle is None or len(cycle) != g.n or len(set(cycle)) != g.n:
        return False
    if g.n < 3:
        return False
    return all(g.has_edge(cycle[i], cycle[(i + 1) % g.n])
               for i in range(g.n))


def verify_hamilton_path(g, path, u, v):
    """True iff path is a Hamilton path of g from u to v."""
    if path is None or len(path) != g.n or len(set(path)) != g.n:
        return False
    if path[0] != u or path[-1] != v:
        return False
    return all(g.has_edge(path[i], path[i + 1]) for i in range(g.n - 1))


def _search(g, start, target, budget):
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
    adjsets = g._adjsets
    cycle = target is None
    close_to = adjsets[start]
    visited = [False] * n
    visited[start] = True
    rem = [len(a) for a in adj]  # unvisited neighbours of each vertex
    for x in adj[start]:
        rem[x] -= 1
    path = [start]

    def split(w):
        # U ∪ {w} was connected, so U is connected iff w's unvisited
        # neighbours share one component of U
        nbrs = [x for x in adj[w] if not visited[x]]
        if len(nbrs) < 2:
            return False
        want = set(nbrs[1:])
        seen = {nbrs[0]}
        stack = [nbrs[0]]
        while want and stack:
            for y in adj[stack.pop()]:
                if not visited[y] and y not in seen:
                    seen.add(y)
                    stack.append(y)
                    want.discard(y)
        return bool(want)

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
    if split(start) or any(len(adj[x]) < 2 for x in range(n)
                           if x != start and x != target):
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


def hamilton_cycle(g, budget=10**6):
    """A Hamilton cycle of g as a vertex list, or None when exhaustive
    search proves absence. Raises BudgetExceeded past the expansion
    budget."""
    if g.n < 3 or not g.is_connected():
        return None
    if min(g.degree(v) for v in range(g.n)) < 2:
        return None
    start = min(range(g.n), key=g.degree)
    return _search(g, start, None, budget)[0]


def hamilton_path(g, u, v, budget=10**6):
    """A Hamilton path from u to v, or None when exhaustive search proves
    absence. Raises BudgetExceeded past the expansion budget."""
    if u == v:
        raise ValueError("endpoints must differ")
    if not g.is_connected():
        return None
    return _search(g, u, v, budget)[0]


def chvatal_certifies(g):
    """Degree-threshold certificate: true iff for every i < n/2 either
    |S_i| <= i-1 or |S_{n-i-1}| <= n-i-1, where S_i = {x : deg(x) <= i}."""
    n = g.n
    if n < 3:
        raise ValueError("need n >= 3")
    degs = sorted(g.degree(v) for v in range(n))
    import bisect
    size = lambda i: bisect.bisect_right(degs, i)
    i = 1
    while 2 * i < n:
        if not (size(i) <= i - 1 or size(n - i - 1) <= n - i - 1):
            return False
        i += 1
    return True


def _is_biconnected(g):
    n = g.n
    if n < 3 or not g.is_connected():
        return False
    disc = [0] * n
    low = [0] * n
    timer = [1]
    # iterative articulation-point DFS from vertex 0
    parent = [-1] * n
    stack = [(0, iter(g.adjacency[0]))]
    disc[0] = low[0] = timer[0]
    timer[0] += 1
    root_children = 0
    while stack:
        u, it = stack[-1]
        advanced = False
        for w in it:
            if disc[w] == 0:
                parent[w] = u
                disc[w] = low[w] = timer[0]
                timer[0] += 1
                if u == 0:
                    root_children += 1
                stack.append((w, iter(g.adjacency[w])))
                advanced = True
                break
            elif w != parent[u]:
                low[u] = min(low[u], disc[w])
        if not advanced:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if p != 0 and low[u] >= disc[p]:
                    return False
    return root_children <= 1


def jackson_certifies(g):
    """Regular 2-connected graph with valency at least n/3."""
    return (g.is_regular() and _is_biconnected(g)
            and 3 * g.valency() >= g.n)


def gp(n, k, collapse=False):
    """Generalized Petersen graph: outer n-cycle u_0..u_{n-1} (vertices
    0..n-1), inner k-jump cycle v_0..v_{n-1} (vertices n..2n-1), spokes.
    k = n/2 doubles the inner edges; rejected unless collapse is set."""
    if n < 3 or not 1 <= k <= n - 1:
        raise ValueError("need n >= 3 and 1 <= k <= n-1")
    if 2 * k == n and not collapse:
        raise ValueError("k = n/2 doubles inner edges; pass collapse=True")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((n + i, n + (i + k) % n))
        edges.append((i, n + i))
    return Graph(2 * n, edges)


def gp_is_hamiltonian(n, k):
    """Closed-form hamiltonicity criterion for gp(n, k)."""
    if n < 3 or not 1 <= k <= n - 1:
        raise ValueError("need n >= 3 and 1 <= k <= n-1")
    if n % 6 == 5 and k in {2, n - 2, (n - 1) // 2, (n + 1) // 2}:
        return False
    if 2 * k == n and n % 4 == 0 and n >= 8:
        return False
    return True


def _offset_matches(d, c, n, symmetric):
    # does the difference d (mod n) have an integer representative in
    # [0, n) congruent to c mod 6; same-type pairs also check n-d
    if d % 6 == c % 6:
        return True
    return symmetric and (n - d) % 6 == c % 6


def gp2_path_admissible(n, x, y):
    """Whether a Hamilton path joining x and y is guaranteed in gp(n,2),
    with x,y in the 0..2n-1 labelling of gp. Five cases on n mod 6."""
    if x == y:
        raise ValueError("endpoints must differ")
    r = n % 6
    if r in (1, 3):
        return True
    xu, yu = x < n, y < n
    i, j = x % n, y % n
    d = (j - i) % n
    if r == 0:
        # brute force (n=12,18) shows the offset-6t exclusions are the
        # inner pairs, not the outer ones
        if xu and yu and d in (2, n - 2):
            return False
        if not xu and not yu and _offset_matches(d, 0, n, True):
            return False
        return True
    if r == 2:
        if not xu and not yu and _offset_matches(d, 4, n, True):
            return False
        return True
    if r == 4:
        if xu and yu and d in (2, n - 2):
            return False
        if xu != yu:
            # orient the difference from the outer to the inner index
            du = (j - i) % n if xu else (i - j) % n
            if du in (1, n - 1) or _offset_matches(du, 2, n, False):
                return False
        if not xu and not yu and _offset_matches(d, 4, n, True):
            return False
        return True
    # r == 5: no guarantee for adjacent pairs or inner pairs at offset 3+6t
    adjacent = (
        (xu and yu and d in (1, n - 1))
        or (not xu and not yu and d in (2, n - 2))
        or (xu != yu and d == 0)
    )
    if adjacent:
        return False
    if not xu and not yu and _offset_matches(d, 3, n, True):
        return False
    return True


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


def parse_edge_list(text):
    """Graph from the text format: header "n m", then one "u v" per line.
    ValueError on malformed text."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("empty edge list")
    n, m = map(int, lines[0].split())
    if n < 0:
        raise ValueError("negative vertex count %d" % n)
    edges = [tuple(map(int, l.split())) for l in lines[1 : m + 1]]
    if len(edges) != m:
        raise ValueError("expected %d edges, got %d" % (m, len(edges)))
    return Graph(n, edges)


def format_edge_list(g):
    lines = ["%d %d" % (g.n, g.edge_count)]
    lines += ["%d %d" % e for e in g.edges()]
    return "\n".join(lines) + "\n"


def format_dot(g, name="g"):
    lines = ["graph %s {" % name]
    lines += ["  %d -- %d;" % e for e in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"
