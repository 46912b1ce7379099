"""Spans recorded from outside ``hermann`` by wrapping module-level names.

``Tracer.install`` replaces each target function, in every ``hermann``
module that binds it, with a wrapper that records a span (name, start,
end, parent, operation).  ``Tracer.uninstall`` puts every original back,
so untraced runs never execute a wrapper.  Spans are kept in memory and
written when the run ends.

Self time of a span is its duration minus the durations of its direct
child spans; calls are single-threaded and nested, so children never
overlap.  Work in a function that is not a target counts toward the
innermost target span around it.
"""

import importlib
import json
import time
import weakref

PACKAGE_MODULES = ("hermann", "hermann.cli", "hermann.datum", "hermann.roots",
                   "hermann.alcove", "hermann.exact", "hermann.geometry",
                   "hermann.diagram")

# (module, function): the names through which the layers call each other.
TARGETS = (
    ("cli", "main"),
    ("datum", "catalog"),
    ("roots", "build_root_system"),
    ("roots", "verify_axioms"),
    ("roots", "weyl_group"),
    ("roots", "decompose_and_classify"),
    ("roots", "subsystem"),
    ("alcove", "fundamental_alcove"),
    ("alcove", "alcove_vertices"),
    ("alcove", "alcove_barycenter"),
    ("alcove", "point_in_alcove"),
    ("alcove", "active_roots"),
    ("alcove", "faces"),
    ("alcove", "reduce_to_alcove"),
    ("exact", "cot_eval"),
    ("exact", "format_interval"),
    ("geometry", "orbit_report"),
    ("geometry", "is_austere"),
    ("geometry", "mean_curvature"),
    ("geometry", "symmetry_flags"),
    ("geometry", "shape_spectrum"),
    ("geometry", "scan_austere"),
    ("geometry", "find_minimal"),
)
# alcove entry points whose first argument is the datum; the first of them
# to see a datum is preceded by an "alcove.build" span that constructs it
ALCOVE_ENTRIES = {"fundamental_alcove", "alcove_vertices", "alcove_barycenter",
                  "point_in_alcove", "active_roots", "faces", "reduce_to_alcove"}
DEFAULT_BITS = 192


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op key]
        self._stack = []
        self._op = None
        self._patched = []       # (module, attribute, original)
        self._built = {}         # id(datum) -> weakref, for alcove.build
        self.counts = {"cot_eval_high_bits_calls": 0, "cot_eval_max_bits": 0,
                       "cot_hits": 0, "cot_misses": 0, "weyl_elements": 0,
                       "find_minimal_iterations": 0, "find_minimal_max_bits": 0,
                       "scan_tested": 0, "scan_inside": 0}
        self._build = None

    # -- installation --------------------------------------------------
    def install(self):
        mods = [importlib.import_module(m) for m in PACKAGE_MODULES]
        for modname, fname in TARGETS:
            home = importlib.import_module("hermann." + modname)
            original = getattr(home, fname, None)
            if original is None:  # gone from the program: its metrics read 0
                continue
            wrapper = self._wrap(f"{modname}.{fname}", fname, original)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
            if fname == "fundamental_alcove":
                self._build = original

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording -----------------------------------------------------
    def run(self, op_key, fn, *args, **kwargs):
        """Call ``fn`` as one operation; spans inside it carry ``op_key``."""
        self._op = op_key
        try:
            return fn(*args, **kwargs)
        finally:
            self._op = None

    def note_cache(self, info):
        """``cot_eval.cache_info()`` after an operation that began with an
        empty cache."""
        self.counts["cot_hits"] += info.hits
        self.counts["cot_misses"] += info.misses

    def _span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _first_alcove_use(self, d):
        ref = self._built.get(id(d))
        if ref is not None and ref() is d:
            return False
        self._built[id(d)] = weakref.ref(d)
        return True

    def _wrap(self, name, fname, fn):
        counts = self.counts
        alcove_entry = fname in ALCOVE_ENTRIES

        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if alcove_entry and self._first_alcove_use(args[0]):
                self._span("alcove.build", self._build, args[:1], {})
            if fname == "cot_eval":
                bits = args[1] if len(args) > 1 else kwargs.get("precision_bits", DEFAULT_BITS)
                counts["cot_eval_high_bits_calls"] += bits > DEFAULT_BITS
                counts["cot_eval_max_bits"] = max(counts["cot_eval_max_bits"], bits)
            parent = self.spans[self._stack[-1]][0] if self._stack else None
            result = self._span(name, fn, args, kwargs)
            if fname == "point_in_alcove" and parent == "geometry.scan_austere":
                counts["scan_tested"] += 1
                counts["scan_inside"] += bool(result)
            elif fname == "weyl_group":
                counts["weyl_elements"] += result.order
            elif fname == "find_minimal":
                counts["find_minimal_iterations"] += result.iterations
                counts["find_minimal_max_bits"] = max(counts["find_minimal_max_bits"],
                                                      result.precision_bits)
            return result

        return wrapper

    # -- reduction -----------------------------------------------------
    def self_times(self):
        """(name -> total self seconds, name -> call count)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        selfs, calls = {}, {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            selfs[name] = selfs.get(name, 0.0) + (end - start - c)
            calls[name] = calls.get(name, 0) + 1
        return selfs, calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op}) + "\n")
