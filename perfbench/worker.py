"""Child-process side of the benchmark.

Runs in a fresh interpreter with ``src`` on ``PYTHONPATH``, so its cost and
peak RSS are those of the work alone.  Two modes:

``cli``       one call into ``rcreg.cli.main`` with tracing installed; spans
              are written to ``--spans`` when the call returns.
``identify``  closed-loop batches of ``check_identified``,
              ``partial_id_bounds`` and ``classify_randomness`` calls on the
              inputs in ``--inputs`` for ``--seconds``, with one run of the
              speed reference (``refspeed.py``) before the first batch and
              after each batch; per-call latencies, batch and reference
              times and outputs go to ``--out``, spans to ``--spans`` if
              given.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

import refspeed
import tracing


def _summarize(identify, result):
    """JSON-comparable form of one identify-layer result."""
    if isinstance(result, identify.IdentReport):
        return [bool(result.identified), int(result.achieved_rank), int(result.full_dim),
                list(result.deficient_coordinates)]
    if isinstance(result, identify.VarianceBounds):
        return [float(result.lower), float(result.upper), result.classification.value]
    return result.value


def run_identify(inputs: dict, seconds: float, tracer: tracing.Tracer | None) -> dict:
    from rcreg import identify

    supports = [identify.SupportSpec(tuple(tuple(pts) for pts in spec))
                for spec in inputs["supports"]]
    blocks = [
        identify.PartialIdBlocks(
            cov_b0_b2=np.array(b["cov_b0_b2"], dtype=float),
            cov_b1_b2=np.array(b["cov_b1_b2"], dtype=float),
            var_b0_plus_b1=b["var_b0_plus_b1"],
        )
        for b in inputs["blocks"]
    ]
    calls = [(name, supports[i] if name == "check_identified" else blocks[i])
             for name, i in inputs["calls"]]
    if tracer is not None:
        tracer.install()
    clock = time.perf_counter_ns
    latency, batch_s, errors = [], [], []
    first, mismatches = None, 0
    reference = refspeed.Reference()
    reference.work()  # warm-up, untimed
    started = time.perf_counter()
    ref_s = [reference.seconds()]
    while True:
        t_batch = time.perf_counter()
        outputs = []
        for name, arg in calls:
            fn = getattr(identify, name)  # looked up per call, as callers do
            t0 = clock()
            try:
                result = fn(arg)
            except Exception as exc:  # a failed call is counted, not fatal
                latency.append(clock() - t0)
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
                outputs.append(None)
                continue
            latency.append(clock() - t0)
            outputs.append(_summarize(identify, result))
        batch_s.append(time.perf_counter() - t_batch)
        ref_s.append(reference.seconds())
        if first is None:
            first = outputs
        elif outputs != first:
            mismatches += 1
        elapsed = time.perf_counter() - started
        if elapsed + batch_s[-1] + ref_s[-1] > seconds:
            break
    return {"latency_ns": latency, "batch_s": batch_s, "ref_s": ref_s, "outputs": first,
            "mismatches": mismatches, "errors": errors[:20], "failed_calls": len(errors)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    sub = ap.add_subparsers(dest="mode", required=True)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--spans", required=True)
    p_cli.add_argument("--design-cols", type=int, default=None)
    p_cli.add_argument("argv", nargs=argparse.REMAINDER)
    p_id = sub.add_parser("identify")
    p_id.add_argument("--inputs", required=True)
    p_id.add_argument("--seconds", type=float, required=True)
    p_id.add_argument("--out", required=True)
    p_id.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    if args.mode == "cli":
        import rcreg.cli

        tracer = tracing.Tracer(args.design_cols)
        tracer.install()
        cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        rc = tracer.call("cli.main", rcreg.cli.main, cli_argv)
        tracer.dump(args.spans)
        return rc

    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    tracer = tracing.Tracer() if args.spans else None
    result = run_identify(inputs, args.seconds, tracer)
    if tracer is not None:
        tracer.dump(args.spans)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
