"""Spans around the names through which lensmimo's modules call each other.

install() replaces module attributes with timing wrappers and returns a
function that puts the originals back. A span is (name, start, end,
parent); spans stay in memory until the run writes them out. A name that
no longer exists is skipped, so its metrics read 0.
"""

import functools
import threading
import time
from collections import defaultdict

# (module, attribute, span name). The harness rows are what harness takes
# from array_model and stochastic plus its own block and reduce steps; the
# cli and selfcheck rows are the library calls those two front ends make.
WRAPS = [
    ("harness", "_profile_matrix", "array_model.profile"),
    ("harness", "sample_doas", "stochastic.sample"),
    ("harness", "_trial_block", "harness.block"),
    ("harness", "_empirical_cdf", "harness.reduce"),
    ("harness", "_summary", "harness.reduce"),
    ("harness", "run_scenario", "harness.entry"),
    ("harness", "approximation_quality", "harness.entry"),
    ("cli", "main", "cli.main"),
    ("cli", "sweep_pattern", "interference.sweep"),
    ("cli", "effective_prob_closed", "stochastic.closed"),
    ("cli", "effective_prob_quadrature", "stochastic.quad"),
    ("cli", "theta_pdf", "stochastic.quad"),
    ("cli", "effective_prob_mc", "stochastic.mc"),
    ("cli", "run_scenario", "harness.entry"),
    ("cli", "approximation_quality", "harness.entry"),
    ("cli", "run_checks", "selfcheck.run_checks"),
    ("selfcheck", "pairwise_interference_direct", "interference.scalar"),
    ("selfcheck", "pairwise_interference_closed", "interference.scalar"),
    ("selfcheck", "first_null", "interference.null"),
    ("selfcheck", "sidelobe_ratio_db", "interference.null"),
    ("selfcheck", "_unit_stream", "stochastic.sample"),
    ("selfcheck", "sample_doas", "stochastic.sample"),
    ("selfcheck", "effective_prob_closed", "stochastic.closed"),
    ("selfcheck", "effective_prob_quadrature", "stochastic.quad"),
    ("selfcheck", "theta_pdf", "stochastic.quad"),
    ("selfcheck", "effective_prob_mc", "stochastic.mc"),
    ("selfcheck", "run_scenario", "harness.entry"),
    ("selfcheck", "approximation_quality", "harness.entry"),
]

# Per-layer metric -> span names whose self time it sums.
SELF_TIMES = {
    "array_model.profile_s": ("array_model.profile",),
    "harness.block_s": ("harness.block",),
    "harness.reduce_s": ("harness.reduce",),
    "harness.self_s": ("harness.entry", "harness.block", "harness.reduce"),
    "stochastic.sample_s": ("stochastic.sample",),
    "stochastic.mc_s": ("stochastic.mc",),
    "stochastic.quad_s": ("stochastic.quad",),
    "interference.sweep_s": ("interference.sweep",),
    "interference.null_s": ("interference.null",),
    "cli.self_s": ("cli.main",),
    "selfcheck.self_s": ("selfcheck.run_checks",),
}

COUNTS = ("array_model.profile_elements", "harness.chunks", "harness.chunk_bytes_max")


def _count_profile(counts, args, out):
    counts["array_model.profile_elements"] += getattr(out, "size", 0)


def _count_block(counts, args, out):
    # Bytes of one float64 chunk x L x L array: the size of each of the
    # Gram, power, theta and masked-product intermediates the block computes.
    counts["harness.chunks"] += 1
    shape = getattr(args[1], "shape", ()) if len(args) > 1 else ()
    if len(shape) == 2:
        nbytes = shape[0] * shape[1] * shape[1] * 8
        counts["harness.chunk_bytes_max"] = max(counts["harness.chunk_bytes_max"], nbytes)


COUNTERS = {"array_model.profile": _count_profile, "harness.block": _count_block}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._local = threading.local()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counts, args, out)
            return out

        return traced

    def install(self, modules: dict):
        """Wrap every WRAPS entry found in modules (short name -> module)."""
        undo = []
        for mod_name, attr, span in WRAPS:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                continue
            undo.append((mod, attr, fn))
            setattr(mod, attr, self.wrap(span, fn))

        def restore():
            for mod, attr, fn in reversed(undo):
                setattr(mod, attr, fn)

        return restore

    def job_metrics(self, first_span: int) -> dict:
        """Per-layer metrics of the spans recorded since index first_span."""
        spans = self.spans[first_span:]
        child = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= first_span:
                child[parent] += end - start
        self_by_name = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, _) in enumerate(spans, first_span):
            self_by_name[name] += end - start - child[i]
            calls[name] += 1
        metrics = {key: sum(self_by_name[n] for n in names) for key, names in SELF_TIMES.items()}
        scalar = calls["interference.scalar"]
        metrics["interference.scalar_calls"] = scalar
        metrics["interference.scalar_call_us"] = 1e6 * self_by_name["interference.scalar"] / scalar if scalar else 0.0
        for key in COUNTS:
            metrics[key] = self.counts[key]
        return metrics
