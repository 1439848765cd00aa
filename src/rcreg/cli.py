"""Command-line front end: identify / bounds / fit / simulate.

All structured output is JSON with floats printed to 17 significant
digits (so equal results serialize to identical bytes) plus CSV for
per-replication tables.  Exit codes: 0 success, 2 "not identified"
(identify only), 1 any error; malformed input never produces a traceback.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import stat
import sys
import warnings
from enum import Enum

import numpy as np

from .errors import DomainError, RcregError
# Unused names here are kept for perfbench/tracing.py, which wraps them.
from .estimate import (  # noqa: F401
    _OVERFLOW,
    Dataset,
    SecondStage,
    build_second_stage,
    fit_moments,
    lambda_max,
    lambda_path,
    ols,
)
from .halfvec import half_dim
from .identify import PartialIdBlocks, SupportSpec, check_identified, partial_id_bounds
from .simulate import SimConfig, _run_jobs, monte_carlo

__all__ = ["main", "dump_json"]


class _UsageError(RcregError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); keep 2 for "not identified"
        raise _UsageError(f"{self.prog}: {message}")


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise RcregError(f"cannot serialize non-finite value {x!r}")
    return format(float(x), ".17g")


def dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {dump_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{dump_json(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, Enum):
        return json.dumps(obj.value)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    raise RcregError(f"cannot serialize object of type {type(obj).__name__}")


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise RcregError(f"{path}: malformed JSON ({exc})") from exc
    except OSError as exc:
        raise RcregError(f"{path}: {exc.strerror or exc}") from exc


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _cmd_identify(args) -> int:
    raw = _load_json(args.spec)
    if not isinstance(raw, dict) or "supports" not in raw:
        raise RcregError(f"{args.spec}: expected an object with a 'supports' array")
    supports = raw["supports"]
    if not isinstance(supports, list):
        raise RcregError(f"{args.spec}: 'supports' must be an array of arrays")
    spec = SupportSpec(tuple(supports))
    report = check_identified(spec, rank_tol=args.tol)
    payload = {
        "identified": report.identified,
        "rank": report.achieved_rank,
        "full_dim": report.full_dim,
        "deficient_coordinates": list(report.deficient_coordinates),
        "witness_points": [list(w) for w in report.witness_points],
    }
    _emit(dump_json(payload), args.out)
    return 0 if report.identified else 2


def _cmd_bounds(args) -> int:
    raw = _load_json(args.blocks)
    if not isinstance(raw, dict):
        raise RcregError(f"{args.blocks}: expected a JSON object")
    try:
        blocks = PartialIdBlocks(raw["cov_b0_b2"], raw.get("cov_b1_b2", []), raw["var_b0_plus_b1"])
    except KeyError as exc:
        raise RcregError(f"{args.blocks}: missing required field {exc}") from exc
    bounds = partial_id_bounds(blocks, tol=args.tol)
    payload = {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "classification": bounds.classification,
    }
    _emit(dump_json(payload), args.out)
    return 0


# Bytes of CSV body per parse range: about 90 ms of parsing at the ~45 MB/s measured on
# a 2-vCPU x86-64 VM, several times what starting a forked pool worker costs.
_RANGE_BYTES = 1 << 22


def _parse_bytes(chunk: bytes) -> np.ndarray:
    """numpy's parse of the rows in ``chunk``; input it refuses reads as an empty array.
    Bare-CR line ends, which numpy refuses, read as newlines in a chunk without one."""
    if b"\n" not in chunk:
        chunk = chunk.replace(b"\r", b"\n")
    try:
        with warnings.catch_warnings():  # a body without rows warns "no data"
            warnings.simplefilter("ignore", UserWarning)
            return np.loadtxt(io.BytesIO(chunk), delimiter=",", comments=None, ndmin=2,
                              encoding="utf-8")
    except ValueError:
        return np.empty((0, 0))


def _parse_range(job) -> np.ndarray:
    """The rows in bytes ``[start, stop)`` of the file at ``path``."""
    path, start, stop = job
    with open(path, "rb") as fh:
        fh.seek(start)
        return _parse_bytes(fh.read(stop - start))


def _parse_ranges(fh, start: int, path: str) -> list[np.ndarray]:
    """The body of the regular file ``fh`` from byte ``start``, cut at newlines into ranges
    parsed on the worker pool."""
    size = os.fstat(fh.fileno()).st_size
    body = size - start
    k = max(1, body // _RANGE_BYTES)
    cuts = [start]
    for i in range(1, k):
        fh.seek(max(cuts[-1], start + body * i // k))
        fh.readline()
        cuts.append(fh.tell())
    cuts.append(size)
    jobs = [(path, a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
    return _run_jobs(_parse_range, jobs)


def _read_dataset_csv(path: str) -> Dataset:
    """numpy parses the body; input it refuses, or that has no rows, the wrong width or a
    non-finite value, is read again by a line-numbered ``csv`` scan that names the line."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise RcregError(f"{path}: {exc.strerror or exc}") from exc
    with fh:
        lines = []  # the header's lines: the body starts after their bytes
        try:
            header = [h.strip() for h in next(csv.reader(lines.append(x) or x for x in fh))]
        except StopIteration:
            raise RcregError(f"{path}: empty file") from None
        if not header or header[0] != "y" or len(header) < 2:
            raise RcregError(
                f"{path}: header must be 'y,w1,...,w{{p-1}}', got {','.join(header)!r}"
            )
        start = len("".join(lines).encode("utf-8"))
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            parts = _parse_ranges(fh.buffer, start, path)
        else:  # a pipe has no size to cut and cannot be read twice: hold its bytes
            raw = ("".join(lines) + fh.read()).encode("utf-8")
            fh = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", newline="")
            parts = [_parse_bytes(raw[start:])]
        if parts and all(a.shape[0] and a.shape[1] == len(header) and np.all(np.isfinite(a))
                         for a in parts):
            n = sum(a.shape[0] for a in parts)
            X, Y = np.empty((n, len(header))), np.empty(n)
            X[:, 0] = 1.0
            row = 0
            while parts:  # copy each part in and let it go
                a = parts.pop(0)
                X[row:row + a.shape[0], 1:], Y[row:row + a.shape[0]] = a[:, 1:], a[:, 0]
                row += a.shape[0]
            return Dataset(X=X, Y=Y)
        fh.seek(0)
        rows, line_nos = [], []
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if line_no == 1 or not row:  # the header, checked above, or a blank line
                continue
            if len(row) != len(header):
                raise RcregError(f"{path}: row at line {line_no} has {len(row)} fields, "
                                 f"expected {len(header)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise RcregError(f"{path}: malformed numeric value at line {line_no}") from None
            line_nos.append(line_no)
    if not rows:
        raise RcregError(f"{path}: no data rows")
    arr = np.asarray(rows)
    bad = np.flatnonzero(~np.all(np.isfinite(arr), axis=1))
    if bad.size:
        raise RcregError(f"{path}: non-finite value at line {line_nos[bad[0]]}")
    return Dataset.from_covariates(arr[:, 1:], arr[:, 0])


def _fit_path(stage: SecondStage, pick: bool):
    """Exact second-stage path on a 50-point grid below lmax, and its BIC pick.

    BIC (a data-only heuristic) is evaluated only when ``pick``; the pick is
    an index into the grid, 0 otherwise.  RSS/n = y'y/n + beta'(G beta - 2b).
    """
    lmax = stage.lambda_max()
    grid = np.geomspace(lmax, lmax * 1e-4, 50) if lmax > 0 else np.zeros(1)
    sols = stage.path(grid)
    with np.errstate(over="ignore"):
        n, yy, best, best_bic = stage.ysig.size, float(stage.ysig @ stage.ysig), 0, math.inf
    if pick and not math.isfinite(yy):  # every BIC would be inf, and the pick grid[0]
        raise DomainError(_OVERFLOW)
    for k, sol in enumerate(sols if pick else []):
        mse = yy / n + float(sol.beta @ (stage.G @ sol.beta - 2.0 * stage.b))
        bic = n * math.log(max(mse, 1e-300 / n)) + math.log(n) * sol.active_set.size
        if bic < best_bic:
            best, best_bic = k, bic
    return grid, sols, best


def _cmd_fit(args) -> int:
    if args.lam is not None and args.auto:
        raise _UsageError("rcreg fit: --lambda and --auto are mutually exclusive")
    data = _read_dataset_csv(args.data)
    stage = SecondStage.from_data(data, args.penalize_intercept_variance)
    if args.lam is None or args.path_csv:
        grid, sols, best = _fit_path(stage, pick=args.lam is None)
    fit = stage.moment_fit(sols[best] if args.lam is None else stage.path([args.lam])[0])
    payload = {
        "mu_hat": fit.stage.mu_hat,
        "sigma_hat": fit.solution.beta,
        "Sigma_hat": fit.Sigma_hat,
        "active_set": [int(k) for k in fit.solution.active_set],
        "psd": fit.psd,
        "lambda_used": fit.solution.lam,
    }
    if args.path_csv:
        _write_path_csv(args.path_csv, data.p, grid, sols)
    _emit(dump_json(payload), args.out)
    return 0


def _write_path_csv(path: str, p: int, grid, sols) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        d = half_dim(p)
        writer.writerow(["lambda", "n_active", "kkt_residual"] + [f"beta_{k}" for k in range(d)])
        for lam, sol in zip(grid, sols):
            writer.writerow(
                [_format_float(lam), sol.active_set.size, _format_float(sol.kkt_residual)]
                + [_format_float(v) for v in sol.beta]
            )


def _summary_payload(cfg: SimConfig, report) -> dict:
    return {
        "n": cfg.n,
        "p": cfg.p,
        "covariate_law": cfg.covariate_law,
        "seed": cfg.seed,
        "replications": report.replications,
        "failures": report.failures,
        "lambda_used": report.lambda_used,
        "tuning_fallback": report.tuning_fallback,
        "sign_recovery_rate": report.sign_recovery_rate,
        "fp_histogram": {str(k): v for k, v in report.fp_histogram.items()},
        "fn_histogram": {str(k): v for k, v in report.fn_histogram.items()},
    }


def _cmd_simulate(args) -> int:
    raw = _load_json(args.config)
    if not isinstance(raw, dict):
        raise RcregError(f"{args.config}: expected a JSON object")
    raw = dict(raw)
    n_field = raw.pop("n", None)
    n_values = n_field if isinstance(n_field, list) else [n_field]
    if n_field is None or not n_values:
        raise RcregError(f"{args.config}: required field 'n' is missing or empty")
    lam_field = raw.pop("lambda", "auto")
    lam = None if (lam_field is None or lam_field == "auto") else lam_field
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.replications is not None:
        raw["replications"] = args.replications
    known = {f.name for f in dataclasses.fields(SimConfig)} - {"n", "lam"}
    unknown = set(raw) - known
    if unknown:
        raise RcregError(
            f"{args.config}: unknown fields {sorted(unknown)}; known fields are "
            f"'n', 'lambda' and {sorted(known)}"
        )
    cfgs = [SimConfig(n=n, lam=lam, **raw) for n in n_values]
    os.makedirs(args.out, exist_ok=True)
    summaries = []
    csv_rows = []
    for cfg in cfgs:
        report = monte_carlo(cfg)
        summaries.append(_summary_payload(cfg, report))
        for i, rep in enumerate(report.per_rep):
            csv_rows.append((cfg.n, i, int(rep.sign_ok), rep.fp, rep.fn))
    csv_path = os.path.join(args.out, "replications.csv")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        sweep = len(n_values) > 1
        writer.writerow(["n", "rep", "sign_ok", "fp", "fn"] if sweep else ["rep", "sign_ok", "fp", "fn"])
        for row in csv_rows:
            writer.writerow(row if sweep else row[1:])
    payload = summaries if len(n_values) > 1 else summaries[0]
    _emit(dump_json(payload), os.path.join(args.out, "summary.json"))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="rcreg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identify", help="decide identifiability from a support spec")
    p_id.add_argument("--spec", required=True, help="JSON file with a 'supports' array")
    p_id.add_argument("--tol", type=float, default=1e-10, help="levels closer than tol times "
                      "their coordinate's spread count as one (finite, > 0)")
    p_id.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p_id.set_defaults(handler=_cmd_identify)

    p_b = sub.add_parser("bounds", help="sharp Var(B1) bounds from identified blocks")
    p_b.add_argument("--blocks", required=True, help="JSON file with the identified blocks")
    p_b.add_argument("--tol", type=float, default=1e-9, help="eigenvalues of cov_b0_b2 <= tol "
                     "count as zero; bounds below 10*tol read as zero; 10*tol is the PSD slack")
    p_b.add_argument("--out", default=None)
    p_b.set_defaults(handler=_cmd_bounds)

    p_f = sub.add_parser("fit", help="two-stage moment fit on a CSV dataset")
    p_f.add_argument("--data", required=True, help="CSV with header y,w1,...,w{p-1}")
    p_f.add_argument("--lambda", dest="lam", type=float, default=None, help="penalty level")
    p_f.add_argument("--auto", action="store_true", help="pick the penalty by BIC along a path")
    p_f.add_argument(
        "--penalize-intercept-variance", action="store_true",
        help="also penalize the intercept-variance coordinate",
    )
    p_f.add_argument("--path-csv", default=None, help="write the full penalty path here")
    p_f.add_argument("--out", default=None)
    p_f.set_defaults(handler=_cmd_fit)

    p_s = sub.add_parser("simulate", help="run the Monte Carlo sign-recovery study")
    p_s.add_argument("--config", required=True, help="JSON simulation config")
    p_s.add_argument("--out", required=True, help="output directory")
    p_s.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_s.add_argument("--replications", type=int, default=None, help="override the replication count")
    p_s.set_defaults(handler=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (RcregError, ValueError, KeyError, OSError) as exc:
        print(f"rcreg: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("rcreg: the input needs more memory than is available", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
