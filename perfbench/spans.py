"""Span tracing of the pqham layers from the benchmark's own files.

`Tracer.install` wraps the public functions of each pqham module, in
every pqham module namespace that imports them, so that a call made
through `engine`'s name for `graphs.hamilton_path` is traced too. Each
call records a span: name, start, end and the span that was open when it
began. Spans stay in memory and are written out once, when the round
ends. The per-layer metrics are aggregated at the same boundaries; a
span's self time is its duration minus that of the traced calls inside
it.
"""

import functools
import inspect
import json
import time
from collections import Counter

LAYERS = ("field", "residues", "graphs", "quotients", "families", "actions",
          "engine", "cli")

# Element-level arithmetic that runs 10^5 to 10^7 times a round. Traced,
# it would mostly measure the tracer; its time stays in its callers' time.
UNTRACED = frozenset({
    "actions.psl2_canon", "actions.psl2_mul", "actions.psl2_inv",
    "actions.psl2_order", "field.classify", "field.sqrt_mod",
    "field.squares", "field.prime_factors", "residues.eq_k_holds",
    "residues.alpha1_holds",
})

# As hot, but its call count is a per-layer metric: a leaf, it is timed
# without a span.
LEAVES = frozenset({"field.is_prime"})

# Spans kept in memory; calls past the cap still count in the aggregates.
SPAN_CAP = 100_000

STRATEGIES = ("quotient-lift", "direct-search", "isomorph-transfer",
              "omega-blocks", "two-factor-splice", "exception")

# Per-layer metrics: name -> unit. "<function>.calls" counts calls and
# "<function>.s" is the time inside the function's outermost calls, its
# callees included; "layer.<module>.s" sums the self time of a module's
# traced functions, so the layers add up to the traced wall time less
# what runs outside them. The rest are counted by the observers below.
PER_LAYER = {
    "field.is_prime.calls": "count",
    "residues.k_of.calls": "count",
    "residues.k_of.s": "s",
    "residues.shape_candidates.count": "count",
    "residues.exceptional_table.records": "count",
    "residues.bound_for_split.s": "s",
    "graphs.hamilton_path.found_calls": "count",
    "graphs.hamilton_path.found_s": "s",
    "graphs.hamilton_path.absent_calls": "count",
    "graphs.hamilton_path.absent_s": "s",
    "graphs.hamilton_cycle.calls": "count",
    "graphs.hamilton_cycle.s": "s",
    **{"engine.strategy." + s: "count" for s in STRATEGIES},
    "engine.build_instance.calls": "count",
    "engine.build_instance.s": "s",
    "engine.prove.s": "s",
    "engine.verify.s": "s",
    "engine.graph_fingerprint.calls": "count",
    "engine.graph_fingerprint.s": "s",
    "quotients.verify_semiregular.calls": "count",
    "quotients.verify_semiregular.s": "s",
    "quotients.quotient.s": "s",
    "quotients.symbol.s": "s",
    "quotients.lift_closed_walk.calls": "count",
    "quotients.lift_closed_walk.full": "count",
    "quotients.lift_closed_walk.s": "s",
    "actions.psl2_elements.s": "s",
    "actions.psl2_subgroup_scan.s": "s",
    "actions.psl2_coset_space.calls": "count",
    "actions.psl2_coset_space.s": "s",
    "actions.omega_model.s": "s",
    "actions.dihedral_model.s": "s",
    "actions.orbital_graph.calls": "count",
    "actions.orbital_graph.s": "s",
    "families.metacirculant.s": "s",
    "families.fermat_graph.s": "s",
    "cli.main.s": "s",
    "cli.stdout_bytes": "bytes",
    **{"layer.%s.s" % m: "s" for m in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def _path_outcome(tracer, frame, result, self_s):
    if isinstance(result, BaseException):
        return
    kind = "absent" if result is None else "found"
    tracer.counts["graphs.hamilton_path.%s_calls" % kind] += 1
    tracer.counts["graphs.hamilton_path.%s_s" % kind] += self_s


def _prove_outcome(tracer, frame, result, self_s):
    # a strategy wins only at the outermost prove: isomorph transfer
    # proves the twin instance from inside
    if any(f[1] == frame[1] for f in tracer.stack):
        return
    if isinstance(result, BaseException):
        if not isinstance(result,
                          tracer.modules["engine"].NotHamiltonianException):
            return
        strategy = "exception"
    else:
        strategy = result.strategy
    tracer.counts["engine.strategy." + strategy] += 1


def _lift_outcome(tracer, frame, result, self_s):
    if not isinstance(result, BaseException) and result.full:
        tracer.counts["quotients.lift_closed_walk.full"] += 1


def _length(metric):
    def observe(tracer, frame, result, self_s):
        if not isinstance(result, BaseException):
            tracer.counts[metric] += len(result)
    return observe


OBSERVERS = {
    "graphs.hamilton_path": _path_outcome,
    "engine.prove": _prove_outcome,
    "quotients.lift_closed_walk": _lift_outcome,
    "residues.shape_candidates": _length("residues.shape_candidates.count"),
    "residues.exceptional_table": _length(
        "residues.exceptional_table.records"),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.calls = []
        self.self_s = []
        self.total_s = []  # outermost calls only, callees included
        self.depth = []  # open calls per function
        self.spans = []  # (id, name index, parent id, start, end)
        self.dropped = 0
        self.counts = Counter()  # filled by the observers
        # open spans, outermost first: [span id, name index, child seconds]
        self.stack = [[-1, -1, 0.0]]
        self.next_id = 0
        self.patched = []  # (module, attribute, original)
        self.modules = {}

    def install(self, modules):
        """Wrap the public functions of the given {layer: module} map in
        every one of those namespaces that holds them."""
        self.modules = modules
        for layer, mod in modules.items():
            for attr, fn in sorted(vars(mod).items()):
                name = "%s.%s" % (layer, attr)
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or name in UNTRACED):
                    continue
                wrapper = self.leaf if name in LEAVES else self.wrap
                traced = wrapper(name, fn)
                for other in modules.values():
                    for key, obj in list(vars(other).items()):
                        if obj is fn:
                            self.patched.append((other, key, fn))
                            setattr(other, key, traced)

    def uninstall(self):
        for mod, key, fn in self.patched:
            setattr(mod, key, fn)
        self.patched = []

    def _register(self, name):
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        self.depth.append(0)
        return len(self.names) - 1

    def leaf(self, name, fn):
        """A wrapper for a function that calls no traced function: its
        calls and time are aggregated, and no span is kept."""
        index = self._register(name)
        stack, clock = self.stack, time.perf_counter
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[index] += 1
                self_s[index] += elapsed
                total_s[index] += elapsed
                stack[-1][2] += elapsed
        return timed

    def wrap(self, name, fn):
        index = self._register(name)
        observe = OBSERVERS.get(name)
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        depth = self.depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1]
            frame = [span_id, index, 0.0]
            stack.append(frame)
            depth[index] += 1
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                result = exc
                raise
            finally:
                end = clock()
                stack.pop()
                depth[index] -= 1
                parent[2] += end - start
                self_s = end - start - frame[2]
                self.calls[index] += 1
                self.self_s[index] += self_s
                if not depth[index]:
                    self.total_s[index] += end - start
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, index, parent[0], start, end))
                else:
                    self.dropped += 1
                if observe is not None:
                    observe(self, frame, result, self_s)
        return traced

    def metrics(self, stdout_bytes, wall_s):
        """Every per-layer metric but trace.overhead_s, which needs an
        untraced round; zero where this workload never calls the
        function."""
        index = {n: i for i, n in enumerate(self.names)}
        out = {"cli.stdout_bytes": stdout_bytes, "trace.wall_s": wall_s}
        for m in LAYERS:
            out["layer.%s.s" % m] = sum(
                s for n, s in zip(self.names, self.self_s)
                if n.split(".")[0] == m)
        for metric in PER_LAYER:
            fn, _, field = metric.rpartition(".")
            if metric in out or metric == "trace.overhead_s":
                continue
            if field in ("calls", "s") and fn.split(".")[0] in LAYERS:
                i = index.get(fn)
                out[metric] = (0 if i is None else
                               self.calls[i] if field == "calls"
                               else self.total_s[i])
            else:
                out[metric] = self.counts[metric]
        return {metric: out[metric] for metric in PER_LAYER if metric in out}

    def dump(self, path, header):
        """Write the spans, with the name table and each function's
        calls, self time and outermost-call time, as one JSON document."""
        doc = dict(header, names=self.names, calls=self.calls,
                   self_s=self.self_s, total_s=self.total_s,
                   dropped_spans=self.dropped,
                   span_fields=["id", "name", "parent", "start", "end"],
                   spans=self.spans)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
