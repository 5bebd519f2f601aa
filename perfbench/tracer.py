"""Outside-in tracer for the cycloclass modules.

The program binds most cross-module calls by name (``from .abelian import
snf``), so wrapping a function only where it is defined would let those
calls bypass the tracer.  ``Tracer.install`` therefore replaces every
module-level binding of each traced function, in every loaded
``cycloclass`` module, and patches the two traced methods on their
classes.  It then scans the modules again and refuses to run if any
binding of an original function is left.

Spans are kept in memory as ``[name, start, end, parent, query, failed]``
lists and written out by the caller when the run ends; ``summarize``
derives the per-layer numbers from them.
"""

import sys
import time

# layer -> traced public names; "Class.method" is patched on the class
TRACED = {
    "cli": ("run",),
    "manifoldset": ("classify", "verify", "sweep"),
    "ktheory": ("wh_structure", "a_m", "d_divisibility_bound"),
    "involutive": ("tate", "eigen_set", "norm_image_set"),
    "classnumber": ("hminus", "characters", "b1"),
    "residue": ("residue_units", "lambda_units", "unit_quotient",
                "psi_plus_presentation", "vtilde", "c_bound",
                "FactorField.dlog"),
    "abelian": ("snf", "cokernel", "kernel", "subgroup_generated",
                "IntMatrix.det"),
}

LAYERS = ("startup",) + tuple(TRACED)

# functions reported with .hit_ratio, read from their lru_cache
CACHED = ("classnumber.hminus", "ktheory.wh_structure",
          "residue.residue_units", "residue.lambda_units",
          "residue.unit_quotient", "residue.psi_plus_presentation",
          "residue.vtilde")


def _largest_prime_bits(field):
    # the largest prime order a baby-step table is built for
    factors = getattr(field, "_order_factors", None)
    if factors:
        return max(factors).bit_length()
    return field.unit_order.bit_length()


# name -> (counter, fold, value from the call's positional arguments)
COUNTERS = {
    "abelian.snf": (("cells", sum, lambda a: a[0].rows * a[0].cols),
                    ("max_dim", max, lambda a: max(a[0].rows, a[0].cols))),
    "abelian.IntMatrix.det": (("max_dim", max, lambda a: a[0].rows),),
    "residue.FactorField.dlog": (("max_order_bits", max,
                                  lambda a: _largest_prime_bits(a[0])),),
    "involutive.tate": (("max_rank", max, lambda a: a[0].group.rank),),
}


def _program_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and
            (name == "cycloclass" or name.startswith("cycloclass."))]


class Tracer:
    """Wraps the traced functions of the loaded cycloclass modules."""

    def __init__(self):
        self.spans = []
        self.query = -1
        self.counters = {}
        self.originals = {}
        self.absent = []
        self._stack = []

    def install(self):
        modules = _program_modules()
        for layer, names in TRACED.items():
            home = sys.modules.get(f"cycloclass.{layer}")
            for name in names:
                full = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = owner.__dict__.get(attr) if owner is not None \
                    else None
                if original is None:
                    self.absent.append(full)
                    continue
                self.originals[full] = original
                wrapper = self._wrap(full, original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for mod in modules:
                    for binding, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, binding, wrapper)
        missed = [f"{mod.__name__}.{binding}" for mod in modules
                  for binding, value in vars(mod).items()
                  if any(value is orig for orig in self.originals.values())]
        if missed:
            raise RuntimeError("untraced bindings left: " + ", ".join(missed))

    def begin(self, query):
        """Start a query: close any span a deadline left open."""
        end = time.perf_counter()
        for index in self._stack:
            if self.spans[index][2] == 0.0:
                self.spans[index][2] = end
        self._stack.clear()
        self.query = query

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counters = COUNTERS.get(name, ())
        store = self.counters.setdefault(name, {})
        now = time.perf_counter

        def traced(*args, **kwargs):
            for counter, fold, value in counters if args else ():
                store[counter] = fold((store.get(counter, 0), value(args)))
            span = [name, now(), 0.0, stack[-1] if stack else -1,
                    self.query, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = now()
                stack.pop()

        traced.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def dump(self):
        """What the run keeps: the spans, counters and cache counts."""
        return {"spans": self.spans, "counters": self.counters,
                "cache": self.cache_counts(), "absent": self.absent}

    def cache_counts(self):
        """(hits, misses) of each cached traced function, from its cache."""
        out = {}
        for name in CACHED:
            fn = self.originals.get(name)
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[name] = (info.hits, info.misses)
        return out


def summarize(spans):
    """Per-function calls and self time, per-layer self time and failures,
    and the time covered by top-level spans.

    Self time is a span's duration minus the durations of its direct
    children; a single thread nests spans strictly, so children never
    overlap each other.
    """
    child = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent, _query, _failed in spans:
        if parent >= 0:
            child[parent] += end - start
        else:
            top += end - start
    funcs, layers = {}, {}
    for i, (name, start, end, _parent, _query, failed) in enumerate(spans):
        self_s = end - start - child[i]
        f = funcs.setdefault(name, {"calls": 0, "self_s": 0.0})
        f["calls"] += 1
        f["self_s"] += self_s
        layer = layers.setdefault(name.split(".", 1)[0],
                                  {"self_s": 0.0, "failed": 0})
        layer["self_s"] += self_s
        layer["failed"] += int(failed)
    return funcs, layers, top
