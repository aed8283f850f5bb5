"""Outside-in tracer for coxlow's public functions.

The tracer replaces each listed function, in every coxlow module that
binds it, by a wrapper that records a span: name, start, end, the span
that was open when it started, and a small value taken from the result.
Nothing in coxlow's source changes; ``uninstall`` puts the originals back.
Spans are held in memory and written out by ``write``.

A span's self time is its duration minus the durations of its direct
child spans.  ``elements_by_length`` is a generator, so each ``next()``
on it is one ``elements.walk`` span; the consumer's work between two
``next()`` calls is not part of the walk.
"""

import importlib
import statistics
from array import array
from collections import Counter
from time import perf_counter

MODULES = ("core", "groupfile", "smallroots", "automaton", "elements",
           "conjecture", "projective", "render", "cli")

# (module, function) pairs wrapped as plain spans.  BasedRootSystem's
# root_depth is a method and is wrapped on the class.
FUNCTIONS = (
    ("groupfile", "load_root_system"),
    ("smallroots", "small_roots"),
    ("automaton", "build_automaton"),
    ("automaton", "build_shortlex_automaton"),
    ("automaton", "count_elements"),
    ("automaton", "growth_series"),
    ("automaton", "export_dot"),
    ("elements", "inversion_set"),
    ("elements", "normalize"),
    ("elements", "small_inversion_mask"),
    ("elements", "left_descents"),
    ("elements", "is_low"),
    ("elements", "cone_membership"),
    ("elements", "enumerate_low"),
    ("elements", "enumerate_low_stable"),
    ("conjecture", "build_gbip"),
    ("conjecture", "check_acyclic"),
    ("conjecture", "verify_bijection"),
    ("conjecture", "verify_inversion_polytopes"),
    ("conjecture", "construct_low_from_lambda"),
    ("projective", "projective_hull"),
    ("projective", "hulls_equal"),
    ("render", "render_svg"),
    ("cli", "main"),
)

WALK = "elements.walk"
ROOT_DEPTH = "core.root_depth"
CONSTRUCT = "conjecture.construct_low_from_lambda"


def _size(result):
    return len(result)


def _is_true(result):
    return 1 if result is True else 0


# value recorded on a span, taken from the wrapped call's result
VALUES = {
    "smallroots.small_roots": _size,
    "automaton.build_automaton": _size,
    "automaton.build_shortlex_automaton": _size,
    "elements.inversion_set": _size,
    "elements.is_low": _is_true,
    "projective.hulls_equal": _is_true,
}

# (metric, unit) in the order they are reported
METRICS = (
    ("core.root_depth.calls", "count"),
    ("core.root_depth.self_s", "s"),
    ("groupfile.load_root_system.calls", "count"),
    ("groupfile.load_root_system.self_s", "s"),
    ("smallroots.small_roots.calls", "count"),
    ("smallroots.small_roots.self_s", "s"),
    ("smallroots.sigma_roots", "count"),
    ("automaton.build_automaton.calls", "count"),
    ("automaton.build_automaton.self_s", "s"),
    ("automaton.build_shortlex_automaton.calls", "count"),
    ("automaton.build_shortlex_automaton.self_s", "s"),
    ("automaton.count_elements.calls", "count"),
    ("automaton.count_elements.self_s", "s"),
    ("automaton.growth_series.calls", "count"),
    ("automaton.growth_series.self_s", "s"),
    ("automaton.export_dot.calls", "count"),
    ("automaton.export_dot.self_s", "s"),
    ("automaton.states", "count"),
    ("elements.walk.elements", "count"),
    ("elements.walk.self_s", "s"),
    ("elements.walk.peak_level", "length"),
    ("elements.inversion_set.calls", "count"),
    ("elements.inversion_set.self_s", "s"),
    ("elements.inversion_set.roots", "count"),
    ("elements.normalize.calls", "count"),
    ("elements.normalize.self_s", "s"),
    ("elements.small_inversion_mask.calls", "count"),
    ("elements.small_inversion_mask.self_s", "s"),
    ("elements.left_descents.calls", "count"),
    ("elements.left_descents.self_s", "s"),
    ("elements.is_low.calls", "count"),
    ("elements.is_low.self_s", "s"),
    ("elements.is_low.low_ratio", "ratio"),
    ("elements.cone_membership.calls", "count"),
    ("elements.cone_membership.self_s", "s"),
    ("elements.cone_membership.ambiguous", "count"),
    ("elements.enumerate_low.calls", "count"),
    ("elements.enumerate_low.total_s", "s"),
    ("elements.enumerate_low_stable.calls", "count"),
    ("elements.enumerate_low_stable.total_s", "s"),
    ("conjecture.build_gbip.calls", "count"),
    ("conjecture.build_gbip.self_s", "s"),
    ("conjecture.check_acyclic.calls", "count"),
    ("conjecture.check_acyclic.self_s", "s"),
    ("conjecture.verify_bijection.total_s", "s"),
    ("conjecture.verify_inversion_polytopes.total_s", "s"),
    ("conjecture.construct_low_from_lambda.calls", "count"),
    ("conjecture.construct_low_from_lambda.total_s", "s"),
    ("conjecture.construct_low_from_lambda.fallback_scans", "count"),
    ("projective.projective_hull.calls", "count"),
    ("projective.projective_hull.self_s", "s"),
    ("projective.hulls_equal.calls", "count"),
    ("projective.hull_match_ratio", "ratio"),
    ("render.render_svg.calls", "count"),
    ("render.render_svg.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead", "ratio"),
)


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # one entry per span, indexed by span id (assigned at span start)
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.value = array("l")
        self.outermost = bytearray()
        self.stack = []
        self._active = {}
        self.samples = []           # (start, end, open span) of speed samples
        self.fallback_scans = 0
        self.peak_level = 0
        self.errors = Counter()     # (span name, exception class) -> count
        self._patched = []

    # -- spans ---------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid):
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.value.append(0)
        depth = self._active.get(nid, 0)
        self.outermost.append(depth == 0)
        self._active[nid] = depth + 1
        self.stack.append(sid)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return sid

    def _finish(self, sid, nid, value):
        self.end[sid] = perf_counter()
        self.stack.pop()
        self._active[nid] -= 1
        self.value[sid] = value

    def span(self, name, fn, value_of=None):
        """Wrap ``fn`` so that each call records one span."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            sid = self._begin(nid)
            value = 0
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    value = value_of(result)
                return result
            except Exception as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                self._finish(sid, nid, value)

        traced.__wrapped__ = fn
        return traced

    def walk(self, fn):
        """Wrap ``elements_by_length``: one span per ``next()``; the value
        is the number of elements in the level yielded."""
        nid = self._name_id(WALK)
        construct = self._name_id(CONSTRUCT)

        def levels(gen):
            try:
                while True:
                    sid = self._begin(nid)
                    size = 0
                    try:
                        level = next(gen, None)
                        if level is not None:
                            size = len(level[1])
                            self.peak_level = max(self.peak_level, level[0])
                    finally:
                        self._finish(sid, nid, size)
                    if level is None:
                        return
                    yield level
            finally:
                gen.close()

        def traced(*args, **kwargs):
            if self.stack and self.name_of[self.stack[-1]] == construct:
                self.fallback_scans += 1
            return levels(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def record_sample(self, start, end):
        """Note a speed sample (see clock.py) taken while a span was open,
        so that it counts in no span's self time.  It runs in a signal
        handler, between any two bytecodes of the traced code."""
        self.samples.append((start, end, self.stack[-1] if self.stack else -1))

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every listed function in every coxlow module binding it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        mods = [importlib.import_module("coxlow")] + [
            importlib.import_module("coxlow." + m) for m in MODULES]
        elements = importlib.import_module("coxlow.elements")
        core = importlib.import_module("coxlow.core")
        wrappers = {}
        for mod_name, fn_name in FUNCTIONS:
            mod = importlib.import_module("coxlow." + mod_name)
            name = "%s.%s" % (mod_name, fn_name)
            fn = getattr(mod, fn_name)
            wrappers[id(fn)] = (fn, self.span(name, fn, VALUES.get(name)))
        walk = elements.elements_by_length
        wrappers[id(walk)] = (walk, self.walk(walk))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        cls = core.BasedRootSystem
        method = cls.root_depth
        self._patched.append((cls, "root_depth", method))
        cls.root_depth = self.span(ROOT_DEPTH, method)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- results -------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, self_s, total_s (outermost calls only),
        and the list of recorded values."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        for s_start, s_end, i in self.samples:
            if i >= 0:
                child[i] += max(0.0, min(end[i], s_end) - max(start[i], s_start))
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                        "values": []} for name in self.names}
        for i in range(n):
            st = stats[self.names[self.name_of[i]]]
            dur = end[i] - start[i]
            st["calls"] += 1
            st["self_s"] += dur - child[i]
            if self.outermost[i]:
                st["total_s"] += dur
            st["values"].append(self.value[i])
        return stats

    def metrics(self, passes, traced_walls, untraced_walls):
        """Per-layer metrics per traced pass, keyed as in METRICS."""
        stats = self.aggregate()
        empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "values": []}
        out = {}
        for metric, unit in METRICS:
            layer, _, stat = metric.rpartition(".")
            st = stats.get(layer, empty)
            values = st["values"]
            if stat in ("calls", "self_s", "total_s"):
                value = st[stat] / passes
            elif metric == "trace.overhead":
                value = (statistics.median(traced_walls)
                         / statistics.median(untraced_walls))
            elif metric == "smallroots.sigma_roots":
                value = sum(stats.get("smallroots.small_roots", empty)
                            ["values"]) / passes
            elif metric == "automaton.states":
                value = sum(sum(stats.get(k, empty)["values"]) for k in (
                    "automaton.build_automaton",
                    "automaton.build_shortlex_automaton")) / passes
            elif metric == "elements.walk.elements":
                value = sum(values) / passes
            elif metric == "elements.walk.peak_level":
                value = self.peak_level
            elif metric == "elements.inversion_set.roots":
                value = sum(values) / passes
            elif metric in ("elements.is_low.low_ratio",
                            "projective.hull_match_ratio"):
                key = ("elements.is_low" if stat == "low_ratio"
                       else "projective.hulls_equal")
                vals = stats.get(key, empty)["values"]
                value = sum(vals) / len(vals) if vals else 0.0
            elif metric == "elements.cone_membership.ambiguous":
                value = self.errors["elements.cone_membership",
                                    "NumericallyAmbiguous"] / passes
            elif metric == "conjecture.construct_low_from_lambda.fallback_scans":
                value = self.fallback_scans / passes
            else:
                raise KeyError(metric)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tvalue\n")
            for i in range(len(self.start)):
                fh.write("%d\t%d\t%s\t%.9f\t%.9f\t%d\n" % (
                    i, self.parent[i], self.names[self.name_of[i]],
                    self.start[i], self.end[i], self.value[i]))
