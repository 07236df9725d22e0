"""Span tracing of chlab's public layer functions, installed from outside.

``Tracer.install()`` rebinds each listed function to a wrapper in its
defining module and in every ``chlab`` module that imported it by name, so
calls through any of those names are seen.  A wrapper records one span
(name, start, end, parent span, op id) in memory; self time is a span's
duration minus the time its child spans cover.  The numpy ``linalg`` entry
points and a few morse members are counted, not spanned: each count is
charged to the innermost open span.  A listed name that no longer exists is
recorded as absent instead of failing, so the tracer survives refactors.
"""

import functools
import json
import sys
import time

# (module, attribute path) of every function that gets a span
SPANNED = (
    ("czengine", "spectral_flow"),
    ("czengine", "verify_crossing_sign_lemma"),
    ("czengine", "solve_path"),
    ("czengine", "SymmetricPath.from_callable"),
    ("czengine", "path_product"),
    ("czengine", "path_inverse"),
    ("czengine", "path_direct_sum"),
    ("czengine", "cz_axiom_suite"),
    ("czengine", "crossing_records"),
    ("czengine", "cz_crossing_form"),
    ("czengine", "rotation_cz_sp2"),
    ("czengine", "local_model_for"),
    ("groups", "build_group"),
    ("groups", "conjugacy_classes"),
    ("groups", "fixed_points"),
    ("orbits", "enumerate_orbits"),
    ("orbits", "make_orbit"),
    ("cli", "main"),
    ("morse", "orbifold_complex"),
    ("morse", "build_invariant_morse"),
    ("morse", "find_critical_points"),
    ("morse", "count_flow_lines"),
    ("morse", "seifert_index_check"),
    ("homology", "homology_report"),
    ("homology", "build_complex"),
    ("homology", "mckay_check"),
)

# numpy.linalg entry point -> counter kind
LINALG = {"eigvalsh": "eigensolve", "eigh": "eigensolve", "det": "det", "svd": "svd"}

# (module, attribute path, counter, how much one call adds)
COUNTED = (
    ("morse", "InvariantMorseFunction.__init__", "morse.rungs_tried", None),
    ("morse", "InvariantMorseFunction.gradient", "morse.gradient_points", "rows"),
    ("morse", "_newton_refine", "morse.newton_solves", None),
)


def _rows(args):
    """Points in the batch passed to InvariantMorseFunction.gradient(x)."""
    x = args[1] if len(args) > 1 else None
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    rows = 1
    for dim in shape[:-1]:
        rows *= dim
    return rows


class Tracer:
    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1, op id)
        self.stack = []        # open frames: [span index, start, child time, counts]
        self.op_id = -1        # -1 while inputs are generated, then the op index
        self.calls = {}        # span name -> calls
        self.self_s = {}       # span name -> summed self time
        self.inclusive = {}    # (span name, kind) -> count over the span's subtree
        self.exclusive = {}    # (module, kind) -> count charged to innermost spans
        self.linalg_s = {}     # (module, kind) -> summed time inside the call
        self.counters = {}     # counter name -> count
        self.covered_s = 0.0   # top-level span time inside timed ops
        self.absent = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        self.spans.append(None)
        self.stack.append([len(self.spans) - 1, time.perf_counter(), 0.0, {}, name])

    def _exit(self):
        end = time.perf_counter()
        index, start, child, counts, name = self.stack.pop()
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        self.spans[index] = (name, start, end, parent[0] if parent else -1, self.op_id)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        for kind, n in counts.items():
            key = (name, kind)
            self.inclusive[key] = self.inclusive.get(key, 0) + n
        if parent is None:
            if self.op_id >= 0:
                self.covered_s += dur
        else:
            parent[2] += dur
            for kind, n in counts.items():
                parent[3][kind] = parent[3].get(kind, 0) + n

    def _spanned(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    # -- counts -------------------------------------------------------------

    def _linalg(self, kind, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                if tracer.stack:
                    frame = tracer.stack[-1]
                    frame[3][kind] = frame[3].get(kind, 0) + 1
                    key = (frame[4].split(".", 1)[0], kind)
                    tracer.exclusive[key] = tracer.exclusive.get(key, 0) + 1
                    tracer.linalg_s[key] = tracer.linalg_s.get(key, 0.0) + spent

        return wrapper

    def _counted(self, counter, per_call, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n = _rows(args) if per_call == "rows" else 1
            tracer.counters[counter] = tracer.counters.get(counter, 0) + n
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _replace(self, module_name, path, make):
        """Rebind ``module.path`` to ``make(original)``; record it as absent
        when the module or attribute no longer exists."""
        module = sys.modules.get(f"chlab.{module_name}")
        owner_path, _, attr = path.rpartition(".")
        owner = module
        for part in owner_path.split(".") if owner_path else ():
            owner = getattr(owner, part, None)
        raw = getattr(owner, "__dict__", {}).get(attr) if owner is not None else None
        if raw is None:
            self.absent.append(f"{module_name}.{path}")
            return
        if isinstance(raw, classmethod):
            wrapped = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(owner, attr, wrapped)
        if owner is module:
            # the same object imported by name into other chlab modules
            for other_name, other in list(sys.modules.items()):
                if other_name.startswith("chlab.") and other is not module:
                    for key, value in list(vars(other).items()):
                        if value is raw:
                            setattr(other, key, wrapped)

    def install(self):
        import numpy.linalg

        for module_name, path in SPANNED:
            name = f"{module_name}.{path}"
            self._replace(module_name, path, lambda fn, name=name: self._spanned(name, fn))
        for module_name, path, counter, per_call in COUNTED:
            self._replace(module_name, path,
                          lambda fn, c=counter, p=per_call: self._counted(c, p, fn))
        for attr, kind in LINALG.items():
            setattr(numpy.linalg, attr, self._linalg(kind, getattr(numpy.linalg, attr)))

    # -- results ------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics: calls and self time of every spanned function,
        the linalg and morse counts, and the work ratios built from them."""
        out = {}
        for module_name, path in SPANNED:
            name = f"{module_name}.{path}"
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        out["czengine.eigensolve.calls"] = self.exclusive.get(("czengine", "eigensolve"), 0)
        out["czengine.eigensolve.self_s"] = self.linalg_s.get(("czengine", "eigensolve"), 0.0)
        out["czengine.det.calls"] = self.exclusive.get(("czengine", "det"), 0)
        out["czengine.svd.calls"] = self.exclusive.get(("czengine", "svd"), 0)
        out["czengine.eigensolves_per_flow"] = _ratio(
            self.inclusive.get(("czengine.spectral_flow", "eigensolve"), 0),
            self.calls.get("czengine.spectral_flow", 0))
        out["czengine.det_per_search"] = _ratio(
            self.inclusive.get(("czengine.crossing_records", "det"), 0),
            self.calls.get("czengine.crossing_records", 0))
        for _module, _path, counter, _per_call in COUNTED:
            out[counter] = self.counters.get(counter, 0)
        out["morse.rungs_per_build"] = _ratio(
            self.counters.get("morse.rungs_tried", 0),
            self.calls.get("morse.build_invariant_morse", 0))
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0
