"""Span tracing of chenlie's public functions, installed from outside.

A ``Tracer`` replaces each traced function by a wrapper in every ``chenlie``
module that binds it (modules import each other's functions by name, so
``ts_mul`` lives in both ``chenint`` and ``freegrp``).  Each call records a
span: name, start, end and the index of the enclosing span.  Self time is a
span's duration minus that of its direct children.  Aggregates are kept for
every call; raw spans are kept up to ``SPAN_CAP`` so that memory stays
bounded, and written out when the run ends.
"""

from __future__ import annotations

import sys
import time

# layer -> (chenlie module, functions); metrics are named <layer>.<function>.
# Product kernels also report terms_out.
LAYERS = {
    "chenint": ("chenint", ("path_series", "ts_mul", "ts_inv", "ts_exp",
                            "is_grouplike", "evaluate", "pair_graded")),
    "freegrp": ("freegrp", ("magnus", "lcs_degree", "phi_inverse")),
    "liealg": ("liealg", ("decompose", "is_lie", "hall_basis", "expand")),
    "linalg": ("_linalg", ("frac_solve", "frac_rank")),
    "ncalg": ("ncalg", ("concat_mul", "shuffle", "inner")),
    "melnikov": ("melnikov", ("derive", "melnikov_integrand", "ck", "example_ex_m5",
                              "reduce_to_alpha", "apply_operator")),
    "parser": ("parser", ("parse", "build_poly", "build_gw")),
}
PRODUCT_KERNELS = ("chenint.ts_mul", "ncalg.concat_mul", "ncalg.shuffle", "melnikov.derive")
SPAN_CAP = 50_000


def traced_names():
    return [f"{layer}.{fn}" for layer, (_, fns) in LAYERS.items() for fn in fns]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in traced_names()}  # calls, self_s, terms_out
        self.spans: list = []           # (name, start, end, parent index or -1)
        self.dropped = 0
        self.loop_keys: dict = {}       # (id(model), loop) -> model, for builds_per_loop
        self._stack: list = []          # [span index, start, child seconds]
        self._patched: list = []

    def _wrap(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        terms = name in PRODUCT_KERNELS
        loops = self.loop_keys if name == "chenint.path_series" else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            if index < SPAN_CAP:
                spans.append(None)
            else:
                index = -1
                self.dropped += 1
            frame = [index, clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                stats[0] += 1
                stats[1] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if index >= 0:
                    spans[index] = (name, frame[1], end, parent)
            if terms:
                stats[2] += len(getattr(out, "poly", out).terms)
            if loops is not None and len(args) == 2:
                loops.setdefault((id(args[0]), args[1]), args[0])
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every traced function that exists; a function a later
        version no longer has is skipped and reports zero calls."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "chenlie" or n.startswith("chenlie."))]
        home = {n.split(".")[-1]: m for n, m in sys.modules.items() if n.startswith("chenlie.")}
        for layer, (mod, fns) in LAYERS.items():
            for fn in fns:
                orig = getattr(home.get(mod), fn, None)
                if orig is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fn}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def summary(self) -> dict:
        """calls/self_s/terms_out per function, and the path-series builds
        per distinct (model, loop)."""
        out = {name: {"calls": c, "self_s": s, "terms_out": t}
               for name, (c, s, t) in self.stats.items()}
        out["chenint.path_series"]["distinct_loops"] = len(self.loop_keys)
        return out


def private_counters() -> dict:
    """Counts read from private chenlie names.  A name a later version
    removes makes its counter absent, never an error."""
    out = {}
    liealg = sys.modules.get("chenlie.liealg")
    info = getattr(getattr(liealg, "_projection_data", None), "cache_info", None)
    if info is not None:
        ci = info()
        out["projection_hits"], out["projection_misses"] = ci.hits, ci.misses
    cache = getattr(sys.modules.get("chenlie.ncalg"), "_SHUFFLE_CACHE", None)
    if cache is not None:
        out["shuffle_cache_entries"] = len(cache)
    return out
