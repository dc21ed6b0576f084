"""Span tracing around hornlab's layer boundaries, installed from outside.

hornlab modules import each other's functions by name, so a call such as
`kappa -> lt_inverse -> tropical_gz` looks the callee up in the *calling*
module's namespace.  Tracing a boundary therefore replaces every binding of
the original function object in every loaded `hornlab` module (the defining
module included, for calls inside it), and restores them afterwards.

Spans are aggregated as they close: per boundary the number of calls, the
self time (the span's time minus the time covered by child spans) and,
where a boundary has an outcome probe, how many calls hit that outcome.  A
boundary that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute, end-to-end metric and workload the boundary moves)
BOUNDARIES = (
    ("measure", "sample_hermitian_sum", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("measure", "sample_multiplicative", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("measure", "sample_tropical_kappa", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("measure", "ks_distance", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("linalg", "sample_H_r", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("linalg", "haar_unitary", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("linalg", "eigh", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("linalg", "l_map", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("linalg", "sample_B_r", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("linalg", "singular_l", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("polytope", "PolytopeSampler.step", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("chamber", "kappa", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("chamber", "lt_inverse", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("paths", "tropical_gz", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("paths", "m_k", "items_per_s, item_p50_ms, item_p90_ms on mc-agree-n3"),
    ("chamber", "find_delta0_chamber", "setup_s on mc-agree-n3"),
    ("network", "build_gamma0", "setup_s on mc-agree-n3"),
    ("network", "concatenate", "setup_s on mc-agree-n3"),
    ("hive", "kt_member", "items_per_s, item_p50_ms, item_p90_ms on cone-n4"),
    ("simplex", "feasible_point", "items_per_s, item_p50_ms, item_p90_ms on cone-n4"),
)


def _moved(before, args, result):
    return args[0].coordinates() != before


# boundary -> (ratio metric name, probe run before the call, outcome test).
# member_frac and infeasible_frac are informational: at a fixed seed they are
# set by the input rotation (2/3 members on cone-n4), not by performance, and
# a change in them is a wrong verdict, which the output check reports.
OUTCOMES = {
    "polytope.PolytopeSampler.step": (
        "polytope.step.moved_frac", lambda args: args[0].coordinates(), _moved),
    "hive.kt_member": (
        "hive.kt_member.member_frac", None,
        lambda before, args, result: bool(result)),
    "simplex.feasible_point": (
        "simplex.feasible_point.infeasible_frac", None,
        lambda before, args, result: result is None),
}


def boundary_name(module, attr):
    return "%s.%s" % (module, attr)


class Tracer:
    """Installs span wrappers on every boundary it can find.

    stats maps a boundary name to [calls, self_s, hits].
    """

    def __init__(self):
        self.stats = {}
        self.absent = []
        self._stack = []
        self._patches = []

    def reset(self):
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0]

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "hornlab" or name.startswith("hornlab."))]
        for module, attr, _ in BOUNDARIES:
            name = boundary_name(module, attr)
            try:
                owner = importlib.import_module("hornlab." + module)
            except ImportError:
                self.absent.append(name)
                continue
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                orig = None if cls is None else cls.__dict__.get(meth)
                if orig is None:
                    self.absent.append(name)
                    continue
                probe = OUTCOMES.get(name)
                if probe is not None and not hasattr(cls, "coordinates"):
                    self.absent.append(probe[0])
                    probe = None
                self._patch(cls, meth, orig, self._wrap(name, orig, probe))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig, OUTCOMES.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapper)

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches = []

    def _patch(self, obj, key, orig, wrapper):
        self._patches.append((obj, key, orig))
        setattr(obj, key, wrapper)

    def _wrap(self, name, fn, probe):
        entry = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        _, before, outcome = probe if probe is not None else (None, None, None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            pre = before(args) if before is not None else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                entry[0] += 1
                entry[1] += dur - child
                if stack:
                    stack[-1] += dur
            if outcome is not None and outcome(pre, args, result):
                entry[2] += 1
            return result

        return span

    def metrics(self):
        """Per-boundary calls and self time, plus the outcome ratios."""
        out = {}
        for module, attr, _ in BOUNDARIES:
            name = boundary_name(module, attr)
            calls, self_s, _ = self.stats.get(name, (0, 0.0, 0))
            out[name + ".calls"] = (calls, "count")
            out[name + ".self_s"] = (self_s, "s")
        for name, (ratio, _, _) in OUTCOMES.items():
            calls, _, hits = self.stats.get(name, (0, 0.0, 0))
            out[ratio] = (hits / calls if calls else 0.0, "ratio")
        return out

    def calls(self):
        return {name: entry[0] for name, entry in self.stats.items()}
