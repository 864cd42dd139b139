"""Simple graphs, exact Hamilton search with certificates, and
generalized Petersen machinery."""

from bisect import bisect_left

DEFAULT_BUDGET = 10 ** 7  # search expansions before a search gives up


class BudgetExceeded(Exception):
    """Raised when a Hamilton search exhausts its expansion budget."""


class Graph:
    """Finite simple undirected graph on vertices 0..n-1, stored only as
    strictly increasing adjacency tuples. Immutable after construction.

    Graph(n, edges) is the public constructor: it rejects loops and
    out-of-range ends, and merges repeated edges. Graph._from_rows(rows,
    automorphisms) takes adjacency rows as given and checks nothing; only
    orbit_graph calls it, once it has proven its rows sorted, symmetric
    and loop-free and every one of the given permutations an
    automorphism. The graph records those in _automorphisms, as tuples;
    Graph(n, edges) records none."""

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
        self._automorphisms = ()

    @classmethod
    def _from_rows(cls, rows, automorphisms):
        """The graph whose row v is rows[v], a list of tuples it keeps. Each
        row must be strictly increasing, hold no v, and hold u exactly when
        rows[u] holds v; each of automorphisms must be an automorphism."""
        g = cls.__new__(cls)
        g.n = len(rows)
        g.adjacency = rows
        g._automorphisms = tuple(map(tuple, automorphisms))
        return g

    def degree(self, v):
        return len(self.adjacency[v])

    def has_edge(self, u, v):
        row = self.adjacency[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self):
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    @property
    def edge_count(self):
        return sum(len(a) for a in self.adjacency) // 2

    def is_regular(self):
        return len(set(map(len, self.adjacency))) <= 1

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


def orbit_walk(start, moves, limit=float("inf")):
    """(order, tree) for the orbit of start under the callables moves:
    order lists the points breadth-first as found, and tree[y] = (i, x),
    with moves[i](x) == y and x earlier in order, for every point y but
    start, whose entry is None. The walk stops once it has found more
    than limit points, limit >= 1."""
    tree = {start: None}
    order = [start]
    indexed = list(enumerate(moves))
    for x in order:
        for i, move in indexed:
            y = move(x)
            if y not in tree:
                tree[y] = (i, x)
                order.append(y)
                if len(order) > limit:
                    return order, tree
    return order, tree


def transversal(gens, base):
    """orbit_walk from base along the permutations gens of range(n).
    ValueError when a generator is not a permutation of range(n), base is
    not in it, or the generators do not act transitively."""
    n = len(gens[0])
    points = set(range(n))
    for perm in gens:
        if len(perm) != n or set(perm) != points:
            raise ValueError("a generator is not a permutation of "
                             "range(%d)" % n)
    if base not in points:
        raise ValueError("the base point is not in range(%d)" % n)
    order, tree = orbit_walk(base, [perm.__getitem__ for perm in gens])
    if len(order) != n:
        raise ValueError("generators do not act transitively")
    return order, tree


def orbit_graph(gens, base, row):
    """The graph whose neighbourhood of base is row and which the group
    generated by the permutations gens preserves: row is carried along
    the transversal's tree of generator moves, N(g[u]) = g(N(u)), and the
    result is proven. ValueError when transversal rejects gens and base,
    row holds base or a point outside range(n), or one of the two proofs
    fails. The graph records gens as proven automorphisms."""
    order, tree = transversal(gens, base)
    n = len(order)
    row = tuple(sorted(set(row)))
    if base in row or not set(range(n)).issuperset(row):
        raise ValueError("need a row of points other than the base point, "
                         "all in range(%d)" % n)
    rows = [None] * n
    rows[base] = row
    for w in order[1:]:
        gi, u = tree[w]
        rows[w] = tuple(sorted(map(gens[gi].__getitem__, rows[u])))
    g = Graph._from_rows(rows, gens)
    # Every generator maps each row onto the row of its image, so the
    # directed pairs form a group-invariant set that holds the base pairs
    # and lies in their orbit: they are exactly that orbit. Tree moves hold
    # by construction.
    if not all(maps_rows(perm, rows, tree, gi)
               for gi, perm in enumerate(gens)):
        raise ValueError("the row is not invariant under the generators")
    # An invariant set of pairs is symmetric when its base row is.
    if not all(g.has_edge(x, base) for x in row):
        raise ValueError("the row is not closed under pairing")
    return g


def maps_rows(perm, rows, tree=None, move=None):
    """Whether the permutation perm maps each row rows[u] onto the row
    rows[perm[u]] of its image. The rows are strictly increasing tuples,
    so the sorted image equals the target row exactly when the two are
    equal sets. Given an orbit_walk tree and the index move of perm in
    it, the rows that tree move carried, tree[perm[u]] == (move, u), are
    skipped."""
    image = perm.__getitem__
    for u, r in enumerate(rows):
        w = perm[u]
        if (tree is None or tree[w] != (move, u)) \
                and tuple(sorted(map(image, r))) != rows[w]:
            return False
    return True


def verify_hamilton_cycle(g, cycle):
    """True iff cycle is a Hamilton cycle of g."""
    if cycle is None or g.n < 3 or sorted(cycle) != list(range(g.n)):
        return False
    return all(g.has_edge(cycle[i], cycle[(i + 1) % g.n])
               for i in range(g.n))


def _search(g, start, target, budget):
    """Depth-first Hamilton search on an explicit stack. target None means
    close a cycle at start; otherwise find a Hamilton path ending at
    target. Returns (vertex sequence or None, expansions); None means the
    search proved absence. Raises BudgetExceeded past budget expansions.

    Children are tried by fewest unvisited neighbours. A move is cut when
    the unvisited vertices U provably admit no completion, by the degree,
    forced-edge and connectivity rules of Vandegriend and Culberson
    (1998). Each rule held before the move, so only what the move changed
    is checked. A cut drops only subtrees without a solution, so the
    first path found does not depend on the rules."""
    n = g.n
    adj = g.adjacency
    cycle = target is None
    close_to = frozenset(adj[start])
    visited = [False] * n
    visited[start] = True
    rem = [len(a) for a in adj]  # unvisited neighbours of each vertex
    # have[x]: the usable neighbours of x, those it may still be joined to
    # on the path: the unvisited ones, the path end and, for a cycle,
    # start. At the root the end is start, which a cycle counts twice.
    have = rem[:]
    for x in adj[start]:
        rem[x] -= 1
        if cycle:
            have[x] += 1
    path = [start]

    def apart(ends):
        # whether the unvisited vertices ends span more than one
        # component of U: a breadth-first walk from the first that stops
        # once it has met all the others
        want = set(ends[1:])
        queue = ends[:1]
        seen = set(queue)
        for v in queue:
            for y in adj[v]:
                if not visited[y] and y not in seen:
                    if y in want:
                        want.remove(y)
                        if not want:
                            return False
                    seen.add(y)
                    queue.append(y)
        return bool(want)

    def cut(u, w):
        # Moving the end from u to w lowered have[x] by one for the
        # neighbours x of u, and nothing else, and left w one free slot.
        # A cycle must still close at start through an unvisited vertex.
        if cycle and rem[start] == 0:
            return True
        # Each x in U but the target is interior to the rest of the path:
        # it needs two usable neighbours, and with exactly two it must use
        # both. No y may then be forced more edges than it has free slots:
        # 2 for an interior vertex, 1 for the target, the end w and, for a
        # cycle, start.
        for x in adj[u]:
            if visited[x] or x == target or have[x] > 2:
                continue
            if have[x] < 2:
                return True
            for y in adj[x]:
                if not visited[y]:
                    free = 1 if y == target else 2
                elif cycle and y == start:
                    free = 1
                else:
                    continue  # not usable, or w, which is checked below
                for z in adj[y]:
                    if not visited[z] and z != target and have[z] == 2:
                        free -= 1
                if free < 0:
                    return True
        free = 1
        for z in adj[w]:
            if not visited[z] and z != target and have[z] == 2:
                free -= 1
        if free < 0:
            return True
        # U and w were connected, so U is connected iff w's unvisited
        # neighbours share one component of U
        ends = [x for x in adj[w] if not visited[x]]
        return len(ends) > 1 and apart(ends)

    # the rules hold at the root when U = V - start is connected and no
    # vertex other than the two ends has fewer than two neighbours
    if apart([x for x in range(n) if x != start]) or any(
            len(adj[x]) < 2 for x in range(n) if x != start and x != target):
        return None, 0
    expansions = 0
    frames = []  # per path vertex, an iterator over its untried children
    done = iter(())  # the frame of a vertex given no children
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
        else:  # a full path that does not close
            frames.append(done)
        # move to the next child that survives the rules, backing out of
        # exhausted vertices; absence once the root is exhausted
        while True:
            u = path[-1]
            w = next(frames[-1], None)
            if w is None:
                frames.pop()
                if not frames:
                    return None, expansions
                path.pop()
                visited[u] = False
                for x in adj[u]:
                    rem[x] += 1
                for x in adj[path[-1]]:
                    have[x] += 1
                continue
            if w == target and len(path) < n - 1:
                continue
            visited[w] = True
            path.append(w)
            for x in adj[w]:
                rem[x] -= 1
            for x in adj[u]:
                have[x] -= 1
            if len(path) == n or not cut(u, w):
                break
            frames.append(done)  # back out of the cut child


def hamilton_cycle(g, budget=DEFAULT_BUDGET):
    """A Hamilton cycle of g as a vertex list, or None when exhaustive
    search proves absence. Raises BudgetExceeded past the expansion
    budget."""
    if g.n < 3:
        return None
    start = min(range(g.n), key=g.degree)
    return _search(g, start, None, budget)[0]


def hamilton_path(g, u, v, budget=DEFAULT_BUDGET):
    """A Hamilton path from u to v, or None when exhaustive search proves
    absence. ValueError unless u and v are distinct vertices of g. Raises
    BudgetExceeded past the expansion budget."""
    if u not in range(g.n) or v not in range(g.n):
        raise ValueError("endpoints must be vertices in range(%d)" % g.n)
    if u == v:
        raise ValueError("endpoints must differ")
    return _search(g, u, v, budget)[0]


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
    with x,y in the 0..2n-1 labelling of gp. Five cases on n mod 6.
    ValueError unless x and y are distinct vertices in range(2n)."""
    if x not in range(2 * n) or y not in range(2 * n):
        raise ValueError("endpoints must be vertices in range(%d)" % (2 * n))
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


def format_dot(g):
    lines = ["graph g {"]
    lines += ["  %d -- %d;" % e for e in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"
