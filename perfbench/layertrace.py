"""Outside-in layer tracing of superscheme, installed only in a traced pass.

Spans wrap the public functions named in ``SPANS``: a method is wrapped on
its class, a function in every superscheme module that imported it by name.
Field operations are counted, not timed.  A name that cannot be found is
skipped and listed, so a renamed or deleted function never breaks a run.
Spans (index, parent, name, job, start, end) are kept in memory and written
out when the pass ends; a span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import sys
from collections import defaultdict, namedtuple
from time import perf_counter

# Extra counts of a span: the keys it reports, an optional hook read before
# the call, and a hook that turns (args, kwargs, result, before) into counts.
Extra = namedtuple("Extra", "keys before after")


def _rref_fresh(args, kwargs):
    return args[0]._rref is None


def _rref_counts(args, kwargs, result, fresh):
    if not fresh:       # the matrix's cached form was returned; nothing was reduced
        return {"cache_hits": 1}
    m = args[0]
    return {"reductions": 1, "cells": m.nrows * m.ncols}


def _cotensor_cells(args, kwargs, result, before):
    m_space, n_space, c_dim = args[2], args[3], args[4]
    nm, nn = m_space.dim, n_space.dim
    return {"cells": (nm * c_dim * nn) * (nm * nn)}


def _scan_counts(args, kwargs, result, before):
    C, R = args[0], args[1]
    even = sum(1 for a in range(R.dim) for m in range(C.dim)
               if (R.parity(a) + C.parity(m)) % 2 == 0)
    return {"candidates": C.field.order ** even, "hits": len(result)}


# (module, qualified name, extra counts or None)
SPANS = [
    ("fields", "poly_roots", None),
    ("superlinear", "Matrix.rref",
     Extra(("reductions", "cache_hits", "cells"), _rref_fresh, _rref_counts)),
    ("superlinear", "Matrix.null_space", None),
    ("superlinear", "Matrix.mul", None),
    ("superlinear", "Matrix.solve", None),
    ("superalgebra", "SuperAlgebra.multiply", None),
    ("superalgebra", "validate_superalgebra", None),
    ("superalgebra", "radical", None),
    ("superalgebra", "local_decomposition", None),
    ("supercoalgebra", "validate_supercoalgebra", None),
    ("supercoalgebra", "SuperCoalgebra.coproduct_map", None),
    ("supercoalgebra", "coradical_filtration", None),
    ("supercoalgebra", "irreducible_components", None),
    ("supercoalgebra", "grouplikes_over",
     Extra(("candidates", "hits"), None, _scan_counts)),
    ("supercomodule", "cotensor_kernel", Extra(("cells",), None, _cotensor_cells)),
    ("supercomodule", "flat_check", None),
    ("formal_scheme", "descent_check", None),
    ("formal_scheme", "is_flat", None),
    ("formal_scheme", "points", None),
    ("formal_scheme", "fiber_product", None),
    ("objfile", "parse_path", None),
    ("objfile", "serialize_document", None),
]
FIELD_CLASSES = {"RationalField": "q", "PrimeField": "fp", "ExtensionField": "ext"}
FIELD_OPS = ("add", "sub", "neg", "mul", "inv", "is_zero")
LAYERS = ["cli"] + list(dict.fromkeys(modname for modname, _, _ in SPANS))


def table_names():
    """The per-layer table, in order: field op counts, then per span its
    calls, self time and extra counts.  The cli.<command> spans are found
    when the tracer is installed and are not listed here."""
    names = [f"fields.{key}.ops" for key in FIELD_CLASSES.values()]
    for modname, qualname, extra in SPANS:
        span = f"{modname}.{qualname}"
        names += [f"{span}.calls", f"{span}.self_s"]
        names += [f"{span}.{key}" for key in (extra.keys if extra else ())]
    return names


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.job = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.count_keys = {}        # span name -> extra count keys, while they work
        self.ops = {}
        self.skipped = []
        self._root = self._span(lambda fn, *args: fn(*args), "cli.run", None)

    # -- installation ------------------------------------------------------

    def install(self, package="superscheme"):
        modules = {name[len(package) + 1:]: mod for name, mod in sys.modules.items()
                   if name.startswith(package + ".") and mod is not None}
        for modname, qualname, extra in SPANS:
            self._wrap_named(modules, modname, qualname, f"{modname}.{qualname}", extra)
        cli = modules.get("cli")
        for attr in sorted(vars(cli)) if cli else ():
            if attr.startswith("cmd_") and callable(getattr(cli, attr)):
                self._wrap_named(modules, "cli", attr, "cli." + attr[4:].replace("_", "-"), None)
        fields = modules.get("fields")
        for clsname, key in FIELD_CLASSES.items():
            cls = getattr(fields, clsname, None)
            if cls is None:
                self.skipped.append(f"fields.{clsname}")
                continue
            missing = [op for op in FIELD_OPS if getattr(cls, op, None) is None]
            if missing:     # a partial count would read as fewer operations
                self.skipped += [f"fields.{clsname}.{op}" for op in missing]
                continue
            cell = self.ops.setdefault(key, [0])
            for op in FIELD_OPS:
                setattr(cls, op, _counting(getattr(cls, op), cell))

    def _wrap_named(self, modules, modname, qualname, span, extra):
        mod = modules.get(modname)
        owner, _, attr = qualname.rpartition(".")
        target = getattr(mod, owner, None) if owner else mod
        orig = getattr(target, attr, None) if target is not None else None
        if orig is None or not callable(orig):
            self.skipped.append(span)
            return
        wrapper = self._span(orig, span, extra)
        if owner:
            setattr(target, attr, wrapper)
            return
        for m in modules.values():
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)

    def _span(self, orig, name, extra):
        nid = len(self.names)
        self.names.append(name)
        tracer = self
        if extra is not None:
            self.count_keys[name] = extra.keys

        def drop_counts():
            # the program changed under a hook; keep the span, drop its counts
            if tracer.count_keys.pop(name, None) is not None:
                tracer.skipped.append(f"{name} counts")

        def wrapper(*args, **kwargs):
            counting = name in tracer.count_keys
            before = None
            if counting and extra.before is not None:
                try:
                    before = extra.before(args, kwargs)
                except (AttributeError, IndexError, TypeError):
                    drop_counts()
                    counting = False
            stack = tracer.stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.spans[idx] = (idx, parent, nid, tracer.job, t0, t1)
            if counting:
                try:
                    work = extra.after(args, kwargs, result, before)
                except (AttributeError, IndexError, TypeError):
                    drop_counts()
                    return result
                for key, val in work.items():
                    tracer.counts[f"{name}.{key}"] += val
            return result
        return wrapper

    # -- running -----------------------------------------------------------

    def run_job(self, job_index, fn, *args):
        """Run one job under a root span named cli.run."""
        self.job = job_index
        return self._root(fn, *args)

    def metrics(self):
        """Every metric of the installed spans; skipped ones are absent."""
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls.get(name, 0)
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
            for key in self.count_keys.get(name, ()):
                out[f"{name}.{key}"] = self.counts.get(f"{name}.{key}", 0)
        for key, cell in self.ops.items():
            out[f"fields.{key}.ops"] = cell[0]
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,job,start_s,end_s\n")
            for idx, parent, nid, job, t0, t1 in filter(None, self.spans):
                fh.write(f"{idx},{parent},{self.names[nid]},{job},{t0:.9f},{t1:.9f}\n")


def _counting(orig, cell):
    def wrapper(*args):
        cell[0] += 1
        return orig(*args)
    return wrapper
