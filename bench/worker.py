"""One benchmark process: import qpendulum, run a cold and a warm pass.

Started fresh by ``run.py`` for every sample, so the cold pass meets an
empty solve cache, as a CLI invocation does. Writes one JSON record to
``--out``; the parent checks the outputs, this process never does.

    python3 bench/worker.py --src SRC --workload W --seed N --t0 T
                            --out PATH [--trace SPANS.csv] [--setup-only 1]

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is system-wide, so ``setup_s`` spans
interpreter start-up and ``import qpendulum``. ``--src`` is the only
place qpendulum may be imported from.
"""

import sys
import time

from probe import Gauge

_ARGS = dict(zip(sys.argv[1::2], sys.argv[2::2]))
_ROOT_SRC = _ARGS["--src"]
sys.path.insert(0, _ROOT_SRC)

with Gauge() as _gauge:
    import qpendulum  # noqa: E402  (the import is what setup_s measures)
    _IMPORTED = time.perf_counter()
(SETUP_S,), (SETUP_PROBE_S,) = _gauge.rescale([(float(_ARGS["--t0"]), _IMPORTED)])

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _pass(ops, csv_dir: Path, tag: str, gauge: bool):
    """Issue every op in order, each only after the previous returned.

    Returns each op's latency, the local probe time (None without a
    gauge) and its output.
    """
    from workloads import call, to_json

    spans, outputs = [], []
    with Gauge() if gauge else contextlib.nullcontext() as meter:
        for i, op in enumerate(ops):
            csv_path = csv_dir / f"{tag}-{os.getpid()}-{i}.csv"
            start = time.perf_counter()
            try:
                raw = call(op, csv_path)
            except Exception:  # a raised error is a failed op, not a crash
                raw = None
                outputs.append({"error": traceback.format_exc(limit=3)})
            spans.append((start, time.perf_counter()))
            if raw is not None:
                outputs.append(to_json(op["kind"], raw))
    if meter is None:
        return [end - start for start, end in spans], None, outputs
    return (*meter.rescale(spans), outputs)


def main() -> None:
    out = Path(_ARGS["--out"])
    record = {"setup_s": SETUP_S, "setup_probe_s": SETUP_PROBE_S}
    if not Path(qpendulum.__file__).resolve().is_relative_to(Path(_ROOT_SRC).resolve()):
        raise SystemExit(f"qpendulum imported from {qpendulum.__file__}, "
                         f"not from {_ROOT_SRC}")
    if "--setup-only" not in _ARGS:
        from qpendulum import reference
        from inputs import make_ops
        import workloads  # noqa: F401  (loads report/uncertainty before tracing)

        ops = make_ops(_ARGS["--workload"], int(_ARGS["--seed"]), vars(reference))
        tracer = None
        if "--trace" in _ARGS:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        cold_lat, cold_probe, cold_out = _pass(ops, out.parent, "cold", tracer is None)
        cold_end = tracer.mark() if tracer else 0
        warm_lat, warm_probe, warm_out = _pass(ops, out.parent, "warm", tracer is None)
        record.update(
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            cold_latencies=cold_lat, cold_probes=cold_probe,
            warm_latencies=warm_lat, warm_probes=warm_probe,
            cold=cold_out, warm=warm_out)
        if tracer:
            record["layers"] = tracer.metrics(cold_end)
            tracer.write_spans(Path(_ARGS["--trace"]))
    out.write_text(json.dumps(record))


if __name__ == "__main__":
    main()
