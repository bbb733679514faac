"""Spans and counters recorded around the library's layers from outside.

A ``Tracer`` replaces each measured function by a wrapper at every name the
library looks it up by (the defining module, every module that imported it,
the package namespace), records one span per call, and puts the originals
back on ``restore``. Nothing in ``seaweed`` itself changes.

Self time is a span's duration minus the time its direct child spans cover.
The wrappers run on one thread and nest strictly, so self time is summed
online; stored spans are only for the trace file.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

# layer name -> (module, attribute path) of the function it measures.
LAYERS: dict[str, tuple[str, str]] = {
    "meander.build_meander": ("seaweed.meander", "build_meander"),
    "meander.components": ("seaweed.meander", "components"),
    "standard_form.materialize": ("seaweed.standard_form", "materialize"),
    "standard_form.dual_matrix_to_coeffs": ("seaweed.standard_form", "dual_matrix_to_coeffs"),
    "standard_form.seaweed_dim": ("seaweed.standard_form", "seaweed_dim"),
    "liealg.index_randomized": ("seaweed.liealg", "index_randomized"),
    "liealg.kirillov_matrix": ("seaweed.liealg", "kirillov_matrix"),
    "liealg.bhat_det": ("seaweed.liealg", "bhat_det"),
    "liealg.wedge_volume_coefficient": ("seaweed.liealg", "wedge_volume_coefficient"),
    "exact.RatMatrix.from_rows": ("seaweed.exact", "RatMatrix.from_rows"),
    "exact.det": ("seaweed.exact", "det"),
    "exact.rank": ("seaweed.exact", "rank"),
    "exact.kernel_basis": ("seaweed.exact", "kernel_basis"),
    "kernels.rank_mod": ("seaweed._kernels", "rank_mod"),
    "kernels.rank_int": ("seaweed._kernels", "rank_int"),
    "kernels.det_int": ("seaweed._kernels", "det_int"),
    "kernels.echelon_int": ("seaweed._kernels", "echelon_int"),
    "contact.synthesize_contact": ("seaweed.contact", "synthesize_contact"),
    "contact.case1_contact": ("seaweed.contact", "case1_contact"),
    "contact.case2_contact": ("seaweed.contact", "case2_contact"),
    "contact.verify_certificate": ("seaweed.contact", "verify_certificate"),
    "cli.enumerate": ("seaweed.cli", "cmd_enumerate"),
}

KERNELS = ("kernels.rank_mod", "kernels.rank_int", "kernels.det_int", "kernels.echelon_int")

COUNTERS = (
    "liealg.oracle.trials",
    "liealg.oracle.exact_fallbacks",
    "contact.case1.diag_indices_tried",
    "contact.case2.k_tried",
)

_OBSERVED = frozenset((*KERNELS, "liealg.bhat_det"))

# The backend modules call each other directly (pure.rank_int runs
# pure.echelon_int); their internals count as part of the kernel span that
# the library called, so aliases there are left alone.
_BACKEND_MODULES = ("seaweed._kernels.pure", "seaweed._kernels._fast")

# Spans kept for the trace file; self times and counts cover every call.
MAX_STORED_SPANS = 50_000


def _max_entry_bits(rows) -> int:
    biggest = 0
    for row in rows:
        for x in row:
            if x > biggest:
                biggest = x
            elif -x > biggest:
                biggest = -x
    return biggest.bit_length()


class Tracer:
    """Collects spans, self times and search counters for wrapped layers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.task: int | None = None
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self.ops: Counter[str] = Counter()
        self.max_bits: Counter[str] = Counter()
        self.spans: list[tuple[int, str, float, float, int | None, int | None]] = []
        self.span_count = 0
        self._stack: list[list] = []  # [name, span id, covered seconds]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        """Run ``fn`` as a span called ``name`` under the innermost open span."""
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [name, self.span_count, 0.0]
        self.span_count += 1
        stack.append(frame)
        clock = self.clock
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            if parent is not None:
                parent[2] += duration
            if len(self.spans) < MAX_STORED_SPANS:
                self.spans.append(
                    (frame[1], name, start, end, parent[1] if parent else None, self.task)
                )
        if name in _OBSERVED:
            # Bookkeeping on the arguments is hidden from the parent's self
            # time by counting it as covered; it still shows in the traced
            # wall time.
            t0 = clock()
            self._observe(name, args, result, parent)
            if parent is not None:
                parent[2] += clock() - t0
        return result

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` spent outside the library out of the open span's self time."""
        if self._stack:
            self._stack[-1][2] += seconds

    def _observe(self, name: str, args: tuple, result, parent) -> None:
        if name in KERNELS:
            rows = args[0]
            n = len(rows)
            m = len(rows[0]) if n else 0
            # computed, not measured: rows * cols * rank bound per call
            self.ops[name] += n * m * min(n, m)
            self.max_bits[name] = max(self.max_bits[name], _max_entry_bits(rows))
            if name in ("kernels.rank_mod", "kernels.rank_int") and any(
                f[0] == "liealg.index_randomized" for f in self._stack
            ):
                key = "trials" if name == "kernels.rank_mod" else "exact_fallbacks"
                self.counters["liealg.oracle." + key] += 1
        elif name == "liealg.bhat_det" and parent is not None:
            if parent[0] == "contact.case1_contact":
                self.counters["contact.case1.diag_indices_tried"] += 1
            elif parent[0] == "contact.case2_contact":
                self.counters["contact.case2.k_tried"] += 1

    # -- installing and removing wrappers ----------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs)

        return wrapper

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer at each name the loaded ``seaweed`` modules use."""
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if (key == "seaweed" or key.startswith("seaweed."))
            and key not in _BACKEND_MODULES
            and mod is not None
        ]
        for name, (module_name, path) in LAYERS.items():
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                continue
            wrapped = self._wrap(name, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        self._patch(mod, key, wrapped)

    def restore(self) -> None:
        """Put every original function back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def per_layer(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass values of every layer metric and counter, with units."""
        out: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
        for name in KERNELS:
            out[f"{name}.ops"] = (self.ops[name] / passes, "computed-ops")
            out[f"{name}.max_entry_bits"] = (self.max_bits[name], "bits")
        for name in COUNTERS:
            out[name] = (self.counters[name] / passes, "count")
        trials = self.counters["liealg.oracle.trials"]
        settled = trials - self.counters["liealg.oracle.exact_fallbacks"]
        # base: liealg.oracle.trials; 0 when no oracle trial ran
        out["liealg.oracle.modp_settled_ratio"] = (settled / trials if trials else 0.0, "ratio")
        return out

    def write_spans(self, path: str) -> None:
        """One JSON object per stored span: id, name, start, end, parent, task."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent, task in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "task": task}
                    )
                    + "\n"
                )
