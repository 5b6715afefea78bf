"""One round of one workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED MODE

run.py starts this with PYTHONHASHSEED pinned and src/ on PYTHONPATH.
The worker prints "ready" once its imports and inputs are built, and for
cli one untimed `massform.cli --help` process has run (the end of
set-up), then, unless MODE is "setup", runs every case once and prints
one JSON line: latencies, failures, the problems the checks found and the
peak resident set size.  MODE "trace" wraps massform's public functions
first and adds per-layer call counts and self times.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import sys
import time
from collections import Counter

import clicases

clock = time.perf_counter_ns

# per-layer name -> (module, attribute path) of the wrapped callable
LAYERS = {
    "cli.run": ("massform.cli", "run"),
    "verify.full_battery": ("massform.verify", "full_battery"),
    "csa.validate": ("massform.csa", "validate"),
    "massengine.mass": ("massform.massengine", "mass"),
    "funcfield.places_of_degree": ("massform.funcfield", "places_of_degree"),
    "funcfield.zeta_special_value": ("massform.funcfield", "zeta_special_value"),
    "orderzeta.order_zeta_closed_form": ("massform.orderzeta", "order_zeta_closed_form"),
    "orderzeta.order_zeta_at_zero": ("massform.orderzeta", "order_zeta_at_zero"),
    "orderzeta.order_zeta_series": ("massform.orderzeta", "order_zeta_series"),
    "algebra.poly_gcd": ("massform.algebra", "poly_gcd"),
    "algebra.ratfun": ("massform.algebra", "ratfun"),
    "algebra.ratfun_mul": ("massform.algebra", "RationalFunctionQ.__mul__"),
    "algebra.series_mul": ("massform.algebra", "series_mul"),
    "algebra.series_pow": ("massform.algebra", "series_pow"),
    "algebra.series_from_ratfun": ("massform.algebra", "series_from_ratfun"),
    "finitefield.FqField.add": ("massform.finitefield", "FqField.add"),
    "finitefield.FqField.mul": ("massform.finitefield", "FqField.mul"),
    "finitefield.TruncatedSeriesFq.mul": ("massform.finitefield", "TruncatedSeriesFq.__mul__"),
    "localmodels.mat_mul": ("massform.localmodels", "mat_mul"),
    "localmodels.phi_of_element": ("massform.localmodels", "phi_of_element"),
    "localmodels.delta_mul": ("massform.localmodels", "delta_mul"),
    "localmodels.in_iwahori": ("massform.localmodels", "in_iwahori"),
}


class Tracer:
    """Call counts, total and self time per wrapped callable.

    Self time is a span's duration minus the durations of the wrapped
    calls made inside it.
    """

    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self._open: list[int] = []   # time spent in children, per open span

    def wrap(self, name, fn):
        calls, total_ns, self_ns, open_spans = self.calls, self.total_ns, self.self_ns, self._open

        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[name] += 1
                total_ns[name] += elapsed
                self_ns[name] += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def install(self) -> None:
        """Replace each layer's callable on its owner and under every name
        a loaded module bound it to."""
        for name, (module_name, path) in LAYERS.items():
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = self.wrap(name, original)
            setattr(owner, attr, wrapped)
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", {})
                for key, value in list(namespace.items()):
                    if value is original:
                        namespace[key] = wrapped

    def layers(self) -> dict:
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
            out[f"{name}.ms"] = self.total_ns[name] / 1e6
        return out


def load(workload: str, traced: bool):
    """(cases, run, check) of a workload."""
    if workload == "cli":
        return clicases.cases, (clicases.run_in_process if traced else clicases.run), clicases.check
    import library

    return library.WORKLOADS[workload]


def run_round(cases, run, check) -> dict:
    """Run every case once, timing each, then check every output."""
    latencies, outputs, errors = [], [], []
    start = clock()
    for case in cases:
        t0 = clock()
        try:
            output = run(case)
        except Exception as exc:  # a crashing operation is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
            outputs.append(None)
            continue
        latencies.append(clock() - t0)
        outputs.append(output)
    timed_ns = clock() - start
    problems = [
        p for case, output in zip(cases, outputs) if output is not None
        for p in check(case, output)
    ]
    return {
        "attempted": len(cases),
        "failed": len(errors),
        "errors": errors,
        "problems": problems,
        "latencies_ns": latencies,
        "timed_ns": timed_ns,
        "outputs": outputs,
    }


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    tracer = None
    if mode == "trace":
        t0 = clock()
        import massform.cli  # noqa: F401  (timed: the whole package and click)
        import_ms = (clock() - t0) / 1e6
        tracer = Tracer()
        tracer.install()
    cases_of, run, check = load(workload, tracer is not None)
    cases = cases_of(seed)
    if workload == "cli" and tracer is None:
        clicases.warm()
    print("ready", flush=True)
    if mode == "setup":
        return 0

    result = run_round(cases, run, check)
    outputs = result.pop("outputs")
    if workload == "cli":
        result["digests"] = [
            hashlib.sha256(out[1].encode()).hexdigest()
            if out is not None and clicases.byte_stable(case) else None
            for case, out in zip(cases, outputs)
        ]
    who = resource.RUSAGE_CHILDREN if workload == "cli" and mode == "round" else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    if tracer is not None:
        layers = tracer.layers()
        layers["cli.import_ms"] = import_ms
        layers["cli.run_ms"] = layers["cli.run.ms"]
        layers["traced_round_ms"] = result["timed_ns"] / 1e6
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
