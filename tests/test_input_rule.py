"""One number rule for every entry point (``rcreg.errors``): each bad value below is one
``DomainError`` from the library, and exit 1 with one stderr line from the CLI."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rcreg import (
    Dataset,
    DomainError,
    PartialIdBlocks,
    SimConfig,
    SupportSpec,
    adaptive_lasso,
    assemble_covariance,
    check_identified,
    classify_randomness,
    fit_moments,
    kkt_residual,
    lambda_max,
    lambda_path,
    mixed_moments_single_regressor,
    ols,
    partial_id_bounds,
    witness_check,
)
from rcreg.cli import main

BAD = {
    "true": True,
    "str-1": "1",
    "str-x": "x",
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "int-beyond-float": 10**400,
    "bool-in-list": [True, 2],
    "ragged": [[1.0], [1.0, 2.0]],
    "object-array": np.array([1.0, None], dtype=object),
}

_rng = np.random.default_rng(0)
X = np.column_stack([np.ones(20), _rng.normal(size=(20, 2))])
Y = _rng.normal(size=20)
INIT = np.ones(3)
BLOCKS = PartialIdBlocks([[1.0, 0.2], [0.2, 1.0]], [0.1], 1.4)
SPEC = SupportSpec(((0.0, 1.0, 2.0),))
EYE2 = [[1.0, 0.0], [0.0, 1.0]]

ENTRIES = {
    "SupportSpec.supports": lambda v: SupportSpec(v),
    "SupportSpec.coordinate": lambda v: SupportSpec(((0.0, 1.0, 2.0), v)),
    "check_identified.rank_tol": lambda v: check_identified(SPEC, rank_tol=v),
    "PartialIdBlocks.cov_b0_b2": lambda v: PartialIdBlocks(v, [], 1.0),
    "PartialIdBlocks.cov_b1_b2": lambda v: PartialIdBlocks(EYE2, v, 1.0),
    "PartialIdBlocks.var_b0_plus_b1": lambda v: PartialIdBlocks([[1.0]], [], v),
    "partial_id_bounds.tol": lambda v: partial_id_bounds(BLOCKS, tol=v),
    "classify_randomness.tol": lambda v: classify_randomness(BLOCKS, tol=v),
    "mixed_moments.support": lambda v: mixed_moments_single_regressor(v, [0.0, 1.0, 4.0], 2),
    "mixed_moments.cond_moments": lambda v: mixed_moments_single_regressor([-1.0, 0, 1], v, 2),
    "mixed_moments.order": lambda v: mixed_moments_single_regressor([-1.0, 0, 1], [0, 1, 4], v),
    "assemble_covariance.s": lambda v: assemble_covariance(BLOCKS, v),
    "Dataset.X": lambda v: Dataset(X=v, Y=Y),
    "Dataset.Y": lambda v: Dataset(X=X, Y=v),
    "Dataset.from_covariates.W": lambda v: Dataset.from_covariates(v, Y),
    "Dataset.from_covariates.Y": lambda v: Dataset.from_covariates(X[:, 1:], v),
    "ols.Y": lambda v: ols(v, X),
    "ols.X": lambda v: ols(Y, v),
    "adaptive_lasso.lam": lambda v: adaptive_lasso(Y, X, v, INIT),
    "adaptive_lasso.init": lambda v: adaptive_lasso(Y, X, 0.1, v),
    "lambda_max.init": lambda v: lambda_max(Y, X, v),
    "lambda_path.grid": lambda v: lambda_path(Y, X, v, INIT),
    "lambda_path.init": lambda v: lambda_path(Y, X, [0.1], v),
    "kkt_residual.beta": lambda v: kkt_residual(Y, X, v, 0.1, INIT),
    "kkt_residual.lam": lambda v: kkt_residual(Y, X, INIT, v, INIT),
    "kkt_residual.init": lambda v: kkt_residual(Y, X, INIT, 0.1, v),
    "witness_check.lam": lambda v: witness_check(X, Y, [0, 1], v, INIT),
    "witness_check.init": lambda v: witness_check(X, Y, [0, 1], 0.1, v),
    "witness_check.beta_star": lambda v: witness_check(X, Y, [0, 1, 2], 0.0, INIT, v),
    "fit_moments.lambda_sigma": lambda v: fit_moments(Dataset(X=X, Y=Y), v),
    **{f"SimConfig.{name}": (lambda name: lambda v: SimConfig(**{"n": 100, name: v}))(name)
       for name in ("n", "p", "replications", "seed", "pilot_replications", "mu1", "sigma1",
                    "b4", "lam")},
}
# A ragged list is a valid support spec: coordinates may have different numbers of points.
CASES = [(entry, bad) for entry in ENTRIES for bad in BAD
         if (entry, bad) != ("SupportSpec.supports", "ragged")]


def _with(rows, index, v):
    """``rows`` as nested lists with the entry at ``index`` replaced by ``v``."""
    rows = np.asarray(rows, dtype=float).tolist()
    *outer, last = index
    inner = rows
    for i in outer:
        inner = inner[i]
    inner[last] = v
    return rows


SIGMA1 = SimConfig(n=100).sigma1
# The same bad values as one entry of an array of the right shape.
ENTRY_BAD = [name for name, v in BAD.items() if not np.iterable(v) or isinstance(v, str)]
IN_ARRAY = {
    "SupportSpec.coordinate": lambda v: SupportSpec(((0.0, 1.0, 2.0), (0.0, v, 2.0))),
    "PartialIdBlocks.cov_b0_b2": lambda v: PartialIdBlocks(_with(EYE2, (1, 1), v), [0.0], 1.0),
    "PartialIdBlocks.cov_b1_b2": lambda v: PartialIdBlocks(EYE2, [v], 1.0),
    "mixed_moments.support": lambda v: mixed_moments_single_regressor([-1, v, 1], [0, 1, 4], 2),
    "mixed_moments.cond_moments": lambda v: mixed_moments_single_regressor([-1, 0, 1], [0, v, 4],
                                                                           2),
    "Dataset.X": lambda v: Dataset(X=_with(X, (3, 1), v), Y=Y),
    "Dataset.Y": lambda v: Dataset(X=X, Y=_with(Y, (3,), v)),
    "Dataset.from_covariates.W": lambda v: Dataset.from_covariates(_with(X[:, 1:], (3, 0), v), Y),
    "ols.Y": lambda v: ols(_with(Y, (3,), v), X),
    "ols.X": lambda v: ols(Y, _with(X, (3, 1), v)),
    "adaptive_lasso.init": lambda v: adaptive_lasso(Y, X, 0.1, [1.0, v, 1.0]),
    "lambda_max.init": lambda v: lambda_max(Y, X, [1.0, v, 1.0]),
    "lambda_path.grid": lambda v: lambda_path(Y, X, [1.0, v], INIT),
    "kkt_residual.beta": lambda v: kkt_residual(Y, X, [0.0, v, 0.0], 0.1, INIT),
    "kkt_residual.init": lambda v: kkt_residual(Y, X, INIT, 0.1, [1.0, v, 1.0]),
    "witness_check.init": lambda v: witness_check(X, Y, [0, 1], 0.1, [1.0, v, 1.0]),
    "witness_check.beta_star": lambda v: witness_check(X, Y, [0, 1, 2], 0.0, INIT, [1, v, 1]),
    "SimConfig.mu1": lambda v: SimConfig(n=100, mu1=[40.0, v, 0.0, -10.0]),
    "SimConfig.sigma1": lambda v: SimConfig(n=100, sigma1=_with(SIGMA1, (3, 3), v)),
}
ENTRY_CASES = [(entry, bad) for entry in IN_ARRAY for bad in ENTRY_BAD]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry, bad", CASES, ids=[f"{e}-{b}" for e, b in CASES])
def test_library_entry_refuses_bad_number(entry, bad):
    with pytest.raises(DomainError):
        ENTRIES[entry](BAD[bad])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry, bad", ENTRY_CASES, ids=[f"{e}-{b}" for e, b in ENTRY_CASES])
def test_library_entry_refuses_bad_number_in_an_array(entry, bad):
    with pytest.raises(DomainError):
        IN_ARRAY[entry](BAD[bad])


# The CLI reads numbers from JSON, where an object array cannot be written.
JSON_BAD = {name: json.dumps(v) for name, v in BAD.items() if name != "object-array"}
# Flags are parsed as floats from text; "1" is a valid number there.
FLAG_BAD = ["x", "True", "nan", "inf", "-inf", "1e400"]
_BLOCKS = {"cov_b0_b2": "[[1.0, 0.2], [0.2, 1.0]]", "cov_b1_b2": "[0.1]",
           "var_b0_plus_b1": "1.4"}


def _json_case(command, field, text, tmp_path):
    if command == "identify":
        return ["identify", "--spec", _write(tmp_path, '{"supports": [[0, 1, 2], %s]}' % text)]
    if command == "bounds":
        fields = {**_BLOCKS, field: text}
        body = "{%s}" % ", ".join(f'"{k}": {v}' for k, v in fields.items())
        return ["bounds", "--blocks", _write(tmp_path, body)]
    body = '{"n": 100, "lambda": 1.0, "replications": 1, "%s": %s}' % (field, text)
    return ["simulate", "--config", _write(tmp_path, body), "--out", str(tmp_path / "out")]


def _write(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


# grid_size is a retired simulate key: it is refused by name, whatever its value.
JSON_FIELDS = [("identify", "coordinate"), *(("bounds", f) for f in _BLOCKS),
               *(("simulate", f) for f in ("n", "p", "replications", "seed",
                                           "pilot_replications", "grid_size", "mu1",
                                           "sigma1", "b4", "lambda"))]


def _exits_one_with_one_line(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert re.fullmatch(r"rcreg: [^\n]+\n", captured.err), captured.err


@pytest.mark.parametrize("bad", JSON_BAD)
@pytest.mark.parametrize("command, field", JSON_FIELDS)
def test_cli_json_field_refuses_bad_number(command, field, bad, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RCREG_THREADS", "1")
    _exits_one_with_one_line(_json_case(command, field, JSON_BAD[bad], tmp_path), capsys)


@pytest.mark.parametrize("bad", FLAG_BAD)
@pytest.mark.parametrize("flag", ["identify --tol", "bounds --tol", "fit --lambda",
                                  "simulate --seed", "simulate --replications"])
def test_cli_flag_refuses_bad_number(flag, bad, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RCREG_THREADS", "1")
    command, option = flag.split()
    inputs = {
        "identify": ["--spec", _write(tmp_path, '{"supports": [[0, 1, 2]]}')],
        "bounds": ["--blocks", _write(tmp_path, '{"cov_b0_b2": [[1.0]], "var_b0_plus_b1": 1}')],
        "fit": ["--data", str(_csv(tmp_path))],
        "simulate": ["--config", _write(tmp_path, '{"n": 100, "lambda": 1.0}'),
                     "--out", str(tmp_path / "out")],
    }[command]
    _exits_one_with_one_line([command, *inputs, f"{option}={bad}"], capsys)


def _csv(tmp_path) -> Path:
    path = tmp_path / "d.csv"
    rows = "\n".join(",".join(map(repr, [y, *x[1:]])) for y, x in zip(Y, X))
    path.write_text("y,w1,w2\n" + rows + "\n", encoding="utf-8")
    return path


def test_whole_numbers_may_be_written_as_floats(tmp_path, capsys, monkeypatch):
    """``1e4`` and ``2.0`` are whole numbers: a config's ``n`` may be written ``1e4``."""
    cfg = SimConfig(n=1e4, p=6.0, seed=np.float64(3), replications=2.0)
    assert (cfg.n, cfg.p, cfg.seed, cfg.replications) == (10_000, 6, 3, 2)
    assert all(type(v) is int for v in (cfg.n, cfg.p, cfg.seed, cfg.replications))
    monkeypatch.setenv("RCREG_THREADS", "1")
    config = _write(tmp_path, '{"n": 3e2, "lambda": 1.0, "replications": 2.0, "seed": 7.0}')
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert (summary["n"], summary["replications"], summary["seed"]) == (300, 2, 7)
