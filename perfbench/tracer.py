"""Per-layer tracing by wrapping bioperad's public functions from outside.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
every module attribute and class attribute that refers to a traced function
with a timing wrapper (so ``trees.make_node`` and the ``make_node`` name that
``dgcalc`` imported are both covered), and ``Tracer.uninstall`` puts every
original object back.  The benchmark installs a tracer only in the traced
child processes; untraced processes never import this module.

Two kinds of target:

- hot functions get aggregated counters: calls, total seconds (outermost
  activations only, so recursion is not counted twice) and self seconds
  (duration minus the time covered by traced callees);
- coarse calls additionally record a span: name, start, end, parent span.

Hooks run after a call has been timed and compute the oracle counters
(distinct chain trees, ideal rank, cells, largest coefficient).  Their time
is kept out of every layer's self time and reported as ``hook_s``.
"""

import sys
import time

# (module, attribute path); the metric name is "module.path"
HOT = [
    ("trees", "symmetric_act"),
    ("trees", "make_node"),
    ("trees", "substitute_element"),
    ("trees", "graft"),
    ("trees", "enumerate_basis"),
    ("dgcalc", "Derivation.apply_tree"),
    ("dgcalc", "Derivation.apply"),
    ("dgcalc", "DgTruncation.differential_columns"),
    ("linalg", "Echelon.add"),
    ("linalg", "Echelon.finalize"),
    ("linalg", "Echelon.reduce"),
    ("linalg", "Subspace.from_vectors"),
    ("presentation", "Truncation.reduce_to_element"),
    ("duality", "quadratic_dual"),
    ("duality", "cobar_truncate"),
    ("algebraside", "shlp_ocha_check"),
    ("algebraside", "ce_hochschild_homology"),
    ("algebraside", "check_coderivation_laws"),
]
SPANS = [
    ("presentation", "ideal_spans"),
    ("presentation", "quotient_dims"),
    ("dgcalc", "verify_d_squared"),
    ("dgcalc", "homology_dims"),
]
# every lru_cache model builder in bioperad.models is aggregated under this
MODEL_BUILD = "models.build"


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "accepted", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.accepted = 0
        self.depth = 0


class Tracer:
    """Call counts, self times and spans, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.t0 = clock()
        self.stats = {}
        self.spans = []
        self.hook_s = 0.0
        self._stack = []  # frames: [name, start, child_s, span index]
        self._patches = []  # (owner, attribute, original object)
        # oracle state; references are kept so identities stay unique
        self._trees = {}
        self._ideals = []
        self._cells = set()
        self._dgs = []
        self.max_coeff_bits = 0

    # -- timing ----------------------------------------------------------

    def _enter(self, name, span):
        self.stats[name].depth += 1
        index = None
        if span:
            parent = next((f[3] for f in reversed(self._stack)
                           if f[3] is not None), None)
            index = len(self.spans)
            self.spans.append({"name": name, "start": None, "end": None,
                               "parent": parent})
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = self.clock()
        if index is not None:
            self.spans[index]["start"] = frame[1] - self.t0
        return frame

    def _exit(self, frame):
        end = self.clock()
        name, start, child_s, index = frame
        elapsed = end - start
        self._stack.pop()
        stat = self.stats[name]
        stat.calls += 1
        stat.self_s += elapsed - child_s
        stat.depth -= 1
        if stat.depth == 0:
            stat.total_s += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed
        if index is not None:
            self.spans[index]["end"] = end - self.t0

    def _run_hook(self, hook, args, result):
        h0 = self.clock()
        hook(args, result)
        spent = self.clock() - h0
        self.hook_s += spent
        if self._stack:
            self._stack[-1][2] += spent

    def wrap(self, name, fn, span=False, hook=None):
        """A function that calls fn and accounts it under name."""
        tracer = self
        self.stats.setdefault(name, _Stat())

        def traced(*args, **kwargs):
            frame = tracer._enter(name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                tracer._run_hook(hook, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- oracle hooks ----------------------------------------------------

    def _on_enumerate_basis(self, args, result):
        collection, signature, weight = args[:3]
        self._trees[(collection.key(), str(signature), weight)] = len(result)

    def _on_ideal_spans(self, args, result):
        if any(s is result for s in self._ideals):
            return
        self._ideals.append(result)

    def _on_differential_columns(self, args, result):
        dg, sig_, degree = args[:3]
        for i, seen in enumerate(self._dgs):
            if seen is dg:
                break
        else:
            i = len(self._dgs)
            self._dgs.append(dg)
        self._cells.add((i, str(sig_), degree))

    def _on_echelon_add(self, args, grew):
        if not grew:
            return
        self.stats["linalg.Echelon.add"].accepted += 1
        rows = getattr(args[0], "rows", None)
        if isinstance(rows, dict) and rows:
            row = rows[next(reversed(rows))]  # the row just inserted
            bits = max(max(abs(x.numerator).bit_length(),
                           x.denominator.bit_length()) for x in row.values())
            self.max_coeff_bits = max(self.max_coeff_bits, bits)

    def oracles(self):
        from bioperad.presentation import signatures_within
        ideal_rank = sum(spans.span(s).rank for spans in self._ideals
                         for s in signatures_within(spans.max_inputs))
        return {"trees.chain_trees": sum(self._trees.values()),
                "presentation.ideal_rank": ideal_rank,
                "dgcalc.cells": len(self._cells),
                "linalg.max_coeff_bits": self.max_coeff_bits}

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, original, wrapper):
        """Replace original under every name a bioperad module binds it."""
        for mod_name, mod in sorted(sys.modules.items()):
            if not (mod_name == "bioperad" or mod_name.startswith("bioperad.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def _patch_method(self, cls, attr, name, span=False, hook=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.wrap(name, raw.__func__, span, hook))
        else:
            new = self.wrap(name, raw, span, hook)
        self._patch(cls, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import importlib
        mods = {m: importlib.import_module(f"bioperad.{m}")
                for m in ("algebraside", "dgcalc", "duality", "linalg",
                          "models", "presentation", "trees", "verify")}
        hooks = {"trees.enumerate_basis": self._on_enumerate_basis,
                 "presentation.ideal_spans": self._on_ideal_spans,
                 "dgcalc.DgTruncation.differential_columns":
                     self._on_differential_columns,
                 "linalg.Echelon.add": self._on_echelon_add}
        for targets, span in ((HOT, False), (SPANS, True)):
            for mod_name, path in targets:
                name = f"{mod_name}.{path}"
                hook = hooks.get(name)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    cls = getattr(mods[mod_name], owner_name)
                    self._patch_method(cls, attr, name, span, hook)
                else:
                    original = getattr(mods[mod_name], attr)
                    self._patch_function(
                        original, self.wrap(name, original, span, hook))
        for attr, value in list(vars(mods["models"]).items()):
            if hasattr(value, "cache_info") and \
                    getattr(value, "__module__", None) == "bioperad.models":
                self._patch_function(value, self.wrap(MODEL_BUILD, value))
        verify = mods["verify"]
        checks = [(cid, group, claim,
                   self.wrap(f"verify.{cid}", fn, span=True))
                  for cid, group, claim, fn in verify.CHECKS]
        self._patch(verify, "CHECKS", checks)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def layer_metrics(self):
        """Flat per-layer metrics: <name>.calls, .self_s and .s (inclusive
        seconds of outermost calls) for every wrapped name, plus oracles."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.s"] = st.total_s
        add = self.stats.get("linalg.Echelon.add")
        if add is not None:
            out["linalg.Echelon.add.accepted"] = add.accepted
            out["linalg.Echelon.add.useful_ratio"] = (
                add.accepted / add.calls if add.calls else 0.0)
        out.update(self.oracles())
        out["hook_s"] = self.hook_s
        return out
