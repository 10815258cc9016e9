"""Span tracing of charmod from outside the program.

``python3 tracer.py <spans.json> cli <charmod arguments...>`` runs the
charmod CLI, and ``python3 tracer.py <spans.json> sweep <in> <out>`` runs
the lattice sweep, with the public functions of every layer wrapped.  Each
wrapped call records a span (name, start, end, parent) in memory; the spans
are written out when the process ends.  The wrappers replace the original
function in every charmod module that bound it by name, so calls between
modules are traced too.

``summarize`` turns spans into per-layer metrics: a span's self time is its
duration minus the time its child spans cover.
"""

import json
import os
import sys
import threading
import time

#: module -> public functions traced under "<layer>.<name>"
FUNCTIONS = {
    "charring": ("witten_character", "multiplicative_class", "calibrate_e8_roots"),
    "exactmath": ("qs_mul", "qs_exp", "qs_inv", "qs_log"),
    "thetamod": (
        "theta_log_ratio",
        "theta_zero_power8",
        "e8_character",
        "e8_lattice_theta",
        "match_modular_basis",
    ),
    "anomaly": ("build_twisted_class", "verify_identity", "run_registry"),
    "cubiclattice": (
        "is_characteristic",
        "solve_bhat",
        "check_cubic_relations",
        "verify_refinement",
    ),
}

#: span names that take a suffix from their first argument
SUFFIXED = {"anomaly.build_twisted_class", "anomaly.verify_identity", "cli.main"}


class Tracer:
    """Records one span per wrapped call, per thread a stack of open spans."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name, start, end):
        with self._lock:
            self.spans.append((name, start, end, None, None))

    def wrap(self, name, fn, work=None):
        tracer = self

        def traced(*args, **kwargs):
            label = name
            if name in SUFFIXED:
                first = args[0] if args else next(iter(kwargs.values()))
                label = "%s.%s" % (name, first[0] if name == "cli.main" else first)
            stack = tracer._stack()
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (
                    label,
                    start,
                    end,
                    parent,
                    work(*args) if work else None,
                )

        return traced


def _mul_pairs(a, b):
    """Term pairs a GradedPoly product visits: len(a) * len(b)."""
    return len(a.coeffs) * (len(b.coeffs) if hasattr(b, "coeffs") else 1)


def install(tracer):
    """Wrap every traced function wherever a charmod module bound it."""
    import charmod
    import charmod.cli
    from charmod.charring import GradedPoly
    from charmod.exactmath import QExpSeries

    modules = [m for n, m in sys.modules.items() if n == "charmod" or n.startswith("charmod.")]
    for layer, names in FUNCTIONS.items():
        home = sys.modules["charmod." + layer]
        for name in names:
            original = getattr(home, name)
            wrapped = tracer.wrap("%s.%s" % (layer, name), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    charmod.cli.main = tracer.wrap("cli.main", charmod.cli.main)

    mul = tracer.wrap("charring.GradedPoly.mul", GradedPoly.__mul__, work=_mul_pairs)
    GradedPoly.__mul__ = GradedPoly.__rmul__ = mul
    QExpSeries.__pow__ = tracer.wrap("exactmath.QExpSeries.pow", QExpSeries.__pow__)


def summarize(span_lists):
    """Per-name call counts, inclusive and self time, and work counts.

    ``span_lists`` holds the span list of each traced process; the result
    sums over all of them.
    """
    out = {}
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, start, end, parent, work in spans:
            if parent is not None:
                child[parent] += end - start
        for index, (name, start, end, parent, work) in enumerate(spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[index]
            entry["work"] += work or 0
    return out


def main(argv):
    spans_path, mode, rest = argv[1], argv[2], argv[3:]
    tracer = Tracer()
    if mode == "cli":
        started = time.perf_counter()
        import charmod.cli  # the entry point, as the console script loads it

        tracer.record("cli.import", started, time.perf_counter())
    install(tracer)
    try:
        if mode == "cli":
            code = charmod.cli.main(rest)
        else:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import sweep

            code = sweep.main([mode] + rest)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
