"""Span tracer that wraps the package's public functions from outside.

Each wrapped function records a span (name, start, end, parent, op id).
A function is replaced in every ``annulus_tate`` module namespace that
holds it, so a call through a by-name import (``tate`` imports
``build_complex``, ``cli`` imports ``check_equivariance`` and the
``verify_*`` functions) is traced like a call through the defining
module.  Counters are kept at the same boundaries.  Spans stay in memory
until ``dump`` writes them out.
"""

from __future__ import annotations

import functools
import resource
import sys
import time
from collections import defaultdict

# (module, attribute, span name); every ``verify_*`` function of tate
# shares the span "tate.verify".
SPANNED = [
    ("cube", "resolve", "cube.resolve"),
    ("khovanov", "build_complex", "khovanov.build_complex"),
    ("khovanov", "homology_of", "khovanov.homology_of"),
    ("f2algebra", "homology_ranks", "f2algebra.homology_ranks"),
    ("f2algebra", "cancel_shift_level", "f2algebra.cancel_shift_level"),
    ("tate", "hv_pages", "tate.hv_pages"),
    ("tate", "tau_table", "tate.tau_table"),
    ("tate", "check_equivariance", "tate.check_equivariance"),
    ("tate", "verify_*", "tate.verify"),
    ("decat", "check_congruences", "decat.check_congruences"),
    ("cli", "_corpus_word_report", "cli"),
]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.op: str | None = None
        self.counters: dict[str, int] = defaultdict(int)
        self.built: set = set()  # distinct (op, diagram, theory) builds
        self.open_layers: dict[str, int] = defaultdict(int)
        self.rss_rise: dict[str, float] = defaultdict(float)
        self._last_rss = _maxrss_mb()
        self.patched: list[str] = []

    # -- spans ----------------------------------------------------------

    def _rss_tick(self) -> None:
        now = _maxrss_mb()
        if now > self._last_rss:
            for layer, n in self.open_layers.items():
                if n:
                    self.rss_rise[layer] += now - self._last_rss
            self._last_rss = now

    def enter(self, name: str) -> int:
        self._rss_tick()
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        self.open_layers[name.split(".")[0]] += 1
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        self._rss_tick()
        self.open_layers[self.spans[idx][0].split(".")[0]] -= 1

    def span(self, name: str, fn, on_exit=None, op_of=None):
        """``fn`` wrapped in a span; ``on_exit(args, result)`` updates the
        counters, ``op_of(args)`` names a new op for the call's duration."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_op = tracer.op
            if op_of is not None:
                tracer.op = op_of(args)
            idx = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(idx)
                tracer.op = outer_op
            if on_exit is not None:
                on_exit(args, result)
            return result

        return traced

    # -- counters at the wrapped boundaries ----------------------------

    def _count_build(self, args, gc) -> None:
        self.counters["khovanov.generators"] += gc.n_generators
        self.counters["khovanov.arrows"] += gc.n_arrows()
        self.built.add((self.op, gc.diagram, gc.theory))

    def _count_window(self, args, result) -> None:
        self.counters["tate.window_generators"] += args[0].n_generators

    def _wrap_cancel(self, cls) -> None:
        orig = cls.cancel_arrow
        counters = self.counters

        def cancel_arrow(work, k, l):
            preds, succs = orig(work, k, l)
            counters["f2algebra.cancellations"] += 1
            if preds and succs:
                # out[x] ^= succs for x in preds, inc[y] ^= preds for y in succs
                np, ns = preds.bit_count(), succs.bit_count()
                counters["f2algebra.row_xors"] += np + ns
                counters["f2algebra.xor_bytes"] += (
                    np * ((succs.bit_length() + 7) // 8)
                    + ns * ((preds.bit_length() + 7) // 8)
                )
            return preds, succs

        cls.cancel_arrow = cancel_arrow

    def _wrap_cache(self, cli) -> None:
        load, store = cli._cache_load, cli._cache_store
        counters = self.counters

        def _cache_load(cache, key):
            payload = load(cache, key)
            if cache is not None:
                counters["cli.cache_hits" if payload is not None else "cli.cache_misses"] += 1
            return payload

        def _cache_store(cache, key, payload):
            store(cache, key, payload)
            if cache is not None:
                counters["cli.cache_bytes_written"] += len(payload)

        cli._cache_load, cli._cache_store = _cache_load, _cache_store

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every package namespace holding it.
        A function the package no longer has is skipped; its metrics read 0."""
        import annulus_tate.cli  # noqa: F401  (loads every module)

        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("annulus_tate.") and mod is not None
        }
        hooks = {
            "khovanov.build_complex": self._count_build,
            "tate.hv_pages": self._count_window,
        }
        # a corpus word is an op of its own: (braid, strands, window) task
        op_of = {"cli": lambda args: f"{args[0][0]}/{args[0][1]}"}
        for modname, attr, name in SPANNED:
            home = modules.get(modname)
            if home is None:
                continue
            if attr.endswith("*"):
                targets = [a for a in vars(home) if a.startswith(attr[:-1])]
            else:
                targets = [attr] if hasattr(home, attr) else []
            for target in targets:
                orig = getattr(home, target)
                if not callable(orig) or getattr(orig, "__module__", None) != home.__name__:
                    continue
                wrapped = self.span(name, orig, hooks.get(name), op_of.get(name))
                for other_name, other in modules.items():
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, key, wrapped)
                            self.patched.append(f"{other_name}.{key}")
        f2 = modules.get("f2algebra")
        if f2 is not None and hasattr(f2, "FilteredComplex"):
            self._wrap_cancel(f2.FilteredComplex)
        cli = modules.get("cli")
        if cli is not None and hasattr(cli, "_cache_load"):
            self._wrap_cache(cli)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "distinct_builds": len(self.built),
            "rss_rise_mb": dict(self.rss_rise),
            "patched": sorted(self.patched),
        }


def layer_metrics(trace: dict) -> dict[str, float]:
    """Self times, call counts and counters of one traced run.

    A span's self time is its duration minus the durations of its direct
    children (spans nest within one thread, so children never overlap).
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        self_s[name] += (end - start) - child_time[idx]
        calls[name] += 1
    counters = trace["counters"]
    builds = calls["khovanov.build_complex"]
    return {
        "cube.resolve.self_s": self_s["cube.resolve"],
        "cube.resolve.calls": calls["cube.resolve"],
        "khovanov.build_complex.self_s": self_s["khovanov.build_complex"],
        "khovanov.build_complex.calls": builds,
        "khovanov.build_complex.distinct_ratio": (
            trace["distinct_builds"] / builds if builds else 0.0
        ),
        "khovanov.homology_of.self_s": self_s["khovanov.homology_of"],
        "khovanov.generators": counters.get("khovanov.generators", 0),
        "khovanov.arrows": counters.get("khovanov.arrows", 0),
        "khovanov.rss_rise_mb": trace["rss_rise_mb"].get("khovanov", 0.0),
        "f2algebra.homology_ranks.self_s": self_s["f2algebra.homology_ranks"],
        "f2algebra.cancel_shift_level.self_s": self_s["f2algebra.cancel_shift_level"],
        "f2algebra.cancellations": counters.get("f2algebra.cancellations", 0),
        "f2algebra.row_xors": counters.get("f2algebra.row_xors", 0),
        "f2algebra.xor_bytes": counters.get("f2algebra.xor_bytes", 0),
        "tate.hv_pages.self_s": self_s["tate.hv_pages"],
        "tate.tau_table.self_s": self_s["tate.tau_table"],
        "tate.check_equivariance.self_s": self_s["tate.check_equivariance"],
        "tate.verify.self_s": self_s["tate.verify"],
        "tate.window_generators": counters.get("tate.window_generators", 0),
        "tate.rss_rise_mb": trace["rss_rise_mb"].get("tate", 0.0),
        "decat.check_congruences.self_s": self_s["decat.check_congruences"],
        "cli.self_s": self_s["cli"],
        "cli.cache_hits": counters.get("cli.cache_hits", 0),
        "cli.cache_misses": counters.get("cli.cache_misses", 0),
        "cli.cache_bytes_written": counters.get("cli.cache_bytes_written", 0),
    }
