"""Command line interface.

Subcommands: steady, stability, criteria, sweep, engineer, evolve,
williamson.  Models are supplied as JSON documents, either referencing a
catalog entry

    {"catalog": "OPOThermal", "params": {"epsilon": 0.05, "kappa": 0.8,
     "zeta": 1.5, "nbar": 0.3}}

or spelled out explicitly

    {"n": 1, "hessian": [[0.0, 0.15], [0.15, 0.0]],
     "xi": [0.0, 0.0], "h0": 0.0,
     "lindblad": [{"lambda_re": [0.0, -0.7071067811865476],
                   "lambda_im": [0.7071067811865476, 0.0],
                   "mu_re": 0.0, "mu_im": 0.0}]}

with an optional "tolerances" object ({"eig_zero_band", "stability_margin", "residual_tol"},
each relative to the size of what it compares) in either form.  `engineer` takes a target
covariance V instead (--target, or --catalog TMTSS --params r=...,nbar=...) and builds
the pair (-I/2, V) after refusing an unphysical V; its symplectic_spectrum
is null, and sweep's purity and min_symplectic_eig cells are nan, where
rounding does not resolve the spectrum within the zero band.  All floats
are printed with 17 significant digits; CSV output is deterministic for fixed
inputs.  Output goes to stdout, or with --output FILE to FILE, which gets exactly the
bytes stdout would; a FILE that cannot be written exits 1.

Exit codes: 0 success, 1 invalid input, 2 stability refusal (the requested
computation needs an asymptotically stable model), 3 engineering failure.
A refusal is an exception that `main` maps to its code, printing one
"error: " line on stderr: an UnstableDriftError exits 2, an EngineeringError
3, and any other ValueError 1; its message names the document field or flag
at fault.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import catalog as catalog_mod
from . import criteria as criteria_mod
from . import evolution, lyapunov, scan, williamson
from .core import Tolerances, check_hermitian, read_choice, read_matrix, read_number, read_vector, require_finite
from .model import (
    LindbladVector,
    ModelSpec,
    QuadraticHamiltonian,
    UnstableDriftError,
    require_stable,
    stability_check,
)
from .williamson import EngineeringError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_STABILITY = 2
EXIT_ENGINEERING = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; 2 means "stability refusal" here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _matrix_lines(m: np.ndarray) -> list[str]:
    if np.iscomplexobj(m):
        return ["  ".join(_fmt_complex(z) for z in row) for row in m]
    return ["  ".join(_fmt(x) for x in row) for row in m]


def _csv_rows(table: np.ndarray) -> list[str]:
    """One line per row of a float table, each cell "%.17g" (the format of _fmt), comma-separated.

    A column whose 64-bit pattern is the same in every row is formatted once, from the first row,
    into the row format as a literal; the per-row % fills the other columns.  Comparing bits, not
    values, keeps -0.0 apart from 0.0 and one NaN payload from another.
    """
    bits = table.view(np.int64)
    constant = bits[-1] == bits[0]  # only a column equal in its end rows needs the full comparison
    constant[constant] = (bits[:, constant] == bits[0, constant]).all(axis=0)
    row_format = ",".join(
        "%.17g" % x if fixed else "%.17g" for x, fixed in zip(table[0].tolist(), constant.tolist())
    )
    varying = table[:, ~constant] if constant.any() else table  # a table that varies everywhere is not copied
    return [row_format % tuple(row) for row in varying.tolist()]


def _json_default(obj):
    """What json.dumps writes for a numpy value: a real array as nested lists, a complex one as
    {"re", "im"}, a scalar as its Python number."""
    if isinstance(obj, np.ndarray):
        return {"re": obj.real.tolist(), "im": obj.imag.tolist()} if np.iscomplexobj(obj) else obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def _load_cm(path: str, what: str, tol: Tolerances) -> np.ndarray:
    """The symmetric 2n x 2n matrix of a --cm or --target document, given bare or as {"cm": ...}."""
    doc = _load_json(path)
    data = doc["cm"] if isinstance(doc, dict) and "cm" in doc else doc
    return check_hermitian(read_matrix(data, what), tol, what=what)


# a model document's real vector of a given length, whose finiteness the model judges by its own name
_vector = functools.partial(read_vector, finite=False, form="a numeric vector")


def _parse_tolerances(doc) -> Tolerances | None:
    if "tolerances" not in doc:
        return None
    block = doc["tolerances"]
    if not isinstance(block, dict):
        raise ValueError('"tolerances" must be an object')
    unknown = set(block) - {f.name for f in dataclasses.fields(Tolerances)}
    if unknown:
        raise ValueError(f"unknown tolerance keys: {sorted(unknown)}")
    return Tolerances(**block)


def _parse_model(doc) -> tuple[ModelSpec, Tolerances | None, dict]:
    """Returns (spec, tolerances override, catalog info dict)."""
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    info: dict = {}
    tols = _parse_tolerances(doc)

    if "catalog" in doc:
        if "hessian" in doc:
            raise ValueError('give either "catalog" or an explicit "hessian", not both')
        extra = set(doc) - {"catalog", "params", "tolerances"}
        if extra:
            raise ValueError(f"unknown keys in catalog document: {sorted(extra)}")
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise ValueError('"params" must be an object')
        cid = catalog_mod.catalog_id(doc["catalog"], '"catalog"')
        info = {"catalog": cid, "params": params}
        return catalog_mod.catalog_build(cid, params), tols, info

    if "hessian" not in doc:
        raise ValueError('model document needs either "catalog" or "hessian"')
    extra = set(doc) - {"n", "hessian", "xi", "h0", "lindblad", "tolerances"}
    if extra:
        raise ValueError(f"unknown keys in model document: {sorted(extra)}")
    h = read_matrix(doc["hessian"], '"hessian"', finite=False)  # the model judges finiteness by its own name
    n = h.shape[0] // 2
    # a mode count that is not a whole number never equals n, so it is refused here too
    if "n" in doc and read_number(doc["n"], '"n"') != n:
        raise ValueError(f'"n" = {doc["n"]} contradicts hessian shape {h.shape}')
    xi = _vector(doc["xi"], '"xi"', 2 * n) if "xi" in doc else None
    ham = QuadraticHamiltonian(h, xi, read_number(doc.get("h0", 0.0), '"h0"'))

    vectors = []
    entries = doc.get("lindblad", [])
    if not isinstance(entries, list):
        raise ValueError('"lindblad" must be a list')
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"lindblad[{k}] must be an object")
        extra = set(entry) - {"lambda_re", "lambda_im", "mu_re", "mu_im"}
        if extra:
            raise ValueError(f"unknown keys in lindblad[{k}]: {sorted(extra)}")
        if "lambda_re" not in entry and "lambda_im" not in entry:
            raise ValueError(f"lindblad[{k}] needs lambda_re and/or lambda_im")
        re = _vector(entry.get("lambda_re", np.zeros(2 * n)), f"lindblad[{k}].lambda_re", 2 * n)
        im = _vector(entry.get("lambda_im", np.zeros(2 * n)), f"lindblad[{k}].lambda_im", 2 * n)
        mu = complex(
            read_number(entry.get("mu_re", 0.0), f"lindblad[{k}].mu_re"),
            read_number(entry.get("mu_im", 0.0), f"lindblad[{k}].mu_im"),
        )
        try:
            vectors.append(LindbladVector(re + 1j * im, mu))
        except ValueError as exc:
            raise ValueError(f"lindblad[{k}]: {exc}") from exc
    return ModelSpec(ham, vectors), tols, info


def _resolve_tol(args, doc_tols: Tolerances | None) -> Tolerances:
    tol = doc_tols or Tolerances()
    if args.tol is None:
        return tol
    try:
        return dataclasses.replace(tol, eig_zero_band=args.tol, residual_tol=args.tol)
    except ValueError as exc:
        raise ValueError(f"--tol: {exc}") from exc


def _load_model(args):
    """(dynamics, tolerances) of the model document ``args.model``, --tol applied."""
    spec, doc_tols, _ = _parse_model(_load_json(args.model))
    tol = _resolve_tol(args, doc_tols)
    return spec.build(tol), tol


def _parse_partition(arg: str | None, n: int) -> criteria_mod.Partition:
    if arg is None:
        if n < 2:
            raise ValueError("separability and steerability need at least two modes")
        flipped = frozenset({n - 1})
    else:
        try:
            indices = {int(tok) for tok in arg.split(",") if tok.strip()}
        except ValueError as exc:
            raise ValueError(f"--partition must be comma-separated mode numbers: {exc}") from exc
        if any(k < 1 or k > n for k in indices):
            raise ValueError(f"--partition modes must lie in 1..{n}")
        flipped = frozenset(k - 1 for k in indices)
    try:
        return criteria_mod.Partition(n, flipped)
    except ValueError as exc:
        raise ValueError(f"--partition: {exc}") from exc


# ---------------------------------------------------------------- steady


def cmd_steady(args) -> tuple[int, str | dict]:
    dyn, tol = _load_model(args)
    cm = lyapunov.steady_covariance(dyn, tol)  # the solve refuses an unstable model, on the form read below
    res = lyapunov.residual(dyn.drift_matrix, cm, dyn.diffusion)
    if args.json:
        return EXIT_OK, {
            "n": dyn.n,
            "spectral_abscissa": dyn.drift_schur.abscissa,
            "drift_matrix": dyn.drift_matrix,
            "diffusion": dyn.diffusion,
            "steady_cm": cm,
            "residual": res,
        }
    lines = [f"modes: {dyn.n}", f"spectral abscissa: {_fmt(dyn.drift_schur.abscissa)}", "steady covariance matrix:"]
    lines += _matrix_lines(cm)
    lines.append(f"residual: {_fmt(res)}")
    return EXIT_OK, "\n".join(lines)


# ---------------------------------------------------------------- stability


def cmd_stability(args) -> tuple[int, str | dict]:
    dyn, tol = _load_model(args)
    report = stability_check(dyn, tol)
    code = EXIT_OK if report.is_stable else EXIT_STABILITY  # the report is written either way
    if args.json:
        return code, {
            "is_stable": report.is_stable,
            "spectral_abscissa": report.spectral_abscissa,
            "spectrum": report.spectrum,
        }
    lines = [
        f"asymptotically stable: {'yes' if report.is_stable else 'no'}",
        f"spectral abscissa: {_fmt(report.spectral_abscissa)}",
        "drift spectrum:",
    ]
    lines += ["  " + _fmt_complex(z) for z in report.spectrum]
    if report.is_marginal:
        lines.append("note: marginally stable, no unique steady state")
    return code, "\n".join(lines)


# ---------------------------------------------------------------- criteria


# criterion kinds by name: (needs a partition, constructor from the partition)
_KINDS = {
    "uncertainty": (False, lambda part: criteria_mod.Uncertainty()),
    "classicality": (False, lambda part: criteria_mod.Classicality()),
    "separability": (True, criteria_mod.Separability),
    "steerability_part1": (True, lambda part: criteria_mod.Steerability(part, 1)),
    "steerability_part2": (True, lambda part: criteria_mod.Steerability(part, 2)),
}
# criteria --kind choices: the table entries each one runs
_KIND_CHOICES = {
    "uncertainty": ("uncertainty",),
    "classicality": ("classicality",),
    "separability": ("separability",),
    "steerability": ("steerability_part1", "steerability_part2"),
    "all": tuple(_KINDS),
}


def _make_kinds(names, partition_arg: str | None, n: int) -> dict:
    """Criterion kinds of the named table entries, by name; the partition is parsed once, if it is
    given or needed, so that a --partition no kind reads is still refused when it is invalid."""
    needed = partition_arg is not None or any(_KINDS[k][0] for k in names)
    partition = _parse_partition(partition_arg, n) if needed else None
    return {k: _KINDS[k][1](partition) for k in names}


def _kind_label(kind) -> str:
    if isinstance(kind, criteria_mod.Steerability):
        modes = ",".join(str(m + 1) for m in kind.steered)
        return f"steerability(steered part {kind.steered_part}: modes {modes})"
    if isinstance(kind, criteria_mod.Separability):
        modes = ",".join(str(m + 1) for m in kind.partition.part_two)
        return f"separability(part two: modes {modes})"
    return kind.name


def _result_dict(res: criteria_mod.CriterionResult) -> dict:
    return {
        "kind": res.kind.name,
        "label": _kind_label(res.kind),
        "level": res.level.value,
        "verdict": res.verdict.value,
        "conclusiveness": res.conclusiveness.value,
        "conclusion": res.conclusion,
        "note": res.label,
        "spectrum": res.spectrum,
        "min_eig": float(res.spectrum[0]),
        "inertia": {
            "positive": res.inertia.positive,
            "zero": res.inertia.zero,
            "negative": res.inertia.negative,
        },
    }


def _result_line(res: criteria_mod.CriterionResult) -> str:
    note = f"  [{res.label}]" if res.label else ""
    return (
        f"{res.level.value:<11s}  {_kind_label(res.kind):<44s}  "
        f"conclusion={res.conclusion:<12s} verdict={res.verdict.value:<8s} "
        f"basis={res.conclusiveness.value:<15s} min_eig={_fmt(res.spectrum[0])} "
        f"inertia={res.inertia}{note}"
    )


def cmd_criteria(args) -> tuple[int, str | list]:
    dyn, tol = _load_model(args)
    require_stable(dyn, "criteria", tol)  # before the partition is parsed: an unstable model exits 2
    names = _KIND_CHOICES[args.kind]
    if args.kind == "all" and dyn.n < 2:
        names = tuple(k for k in names if not _KINDS[k][0])
    kinds = _make_kinds(names, args.partition, dyn.n).values()

    results = []
    cm = lyapunov.steady_covariance(dyn, tol) if args.level in ("state", "both") else None
    for kind in kinds:
        if args.level in ("state", "both"):
            results.append(criteria_mod.state_criterion(cm, kind, tol))
        if args.level in ("env", "both"):
            results.append(criteria_mod.environment_criterion(dyn, kind, tol))

    if args.json:
        return EXIT_OK, [_result_dict(r) for r in results]
    return EXIT_OK, "\n".join(_result_line(r) for r in results)


# ---------------------------------------------------------------- sweep


def _fields(arg: str, flag: str, form: str, types) -> list:
    """The colon-separated fields of an option value, each converted by its type."""
    parts = arg.split(":")
    if len(parts) != len(types):
        raise ValueError(f"{flag} must be {form}, got {arg!r}")
    try:
        return [t(part) for t, part in zip(types, parts)]
    except ValueError as exc:
        raise ValueError(f"{flag} must be {form}: {exc}") from exc


def _finite(text: str) -> float:
    require_finite(x := float(text), f"endpoint {text!r}")
    return x


def _sweep_range(arg: str, flag: str) -> np.ndarray:
    lo, hi, count = _fields(arg, flag, "A:B:STEPS", (_finite, _finite, int))
    if count < 1:
        raise ValueError(f"{flag} needs at least one step")
    return np.linspace(lo, hi, count)


# sweep quantities by column name: (quantity, criterion kind name or None)
_QUANTITIES = {
    **{q: (q, None) for q in ("abscissa", "purity", "min_symplectic_eig")},
    **{f"{level}_{kind}_min_eig": (level, kind) for level in ("state", "env") for kind in _KINDS},
}


def _parse_threshold_spec(spec_str: str, cid) -> tuple[str, str, str, tuple[str, ...]]:
    kind_name, level, param = _fields(spec_str, "--threshold", "KIND:LEVEL:PARAM", (str, str, str))
    read_choice(kind_name, "--threshold kind", tuple(_KINDS)[1:])  # not uncertainty, which always holds
    read_choice(level, "--threshold level", ("state", "env"))
    return kind_name, level, param, catalog_mod.resolve_param(cid, param)


def cmd_sweep(args) -> tuple[int, str]:
    # a model is built per grid point from the catalog entry, which the document must name
    spec, doc_tols, info = _parse_model(_load_json(args.model))
    if not info:
        raise ValueError("sweep needs a catalog model (named parameters to vary)")
    tol = _resolve_tol(args, doc_tols)
    cid = info["catalog"]
    base_params = catalog_mod.resolve_params(cid, info["params"])

    # (grid, parameter names it sets together) per swept axis, the first axis outermost
    axes = [(_sweep_range(args.range, "--range"), catalog_mod.resolve_param(cid, args.param))]
    if (args.param2 is None) != (args.range2 is None):
        raise ValueError("--range2 needs --param2" if args.param2 is None else "--param2 needs --range2")
    if args.param2 is not None:
        names = catalog_mod.resolve_param(cid, args.param2)
        if common := [name for name in names if name in axes[0][1]]:
            raise ValueError(f"--param2 {args.param2} sets parameter {common[0]!r}, which --param sets too")
        axes.append((_sweep_range(args.range2, "--range2"), names))

    quantities = args.quantity or ["abscissa"]
    for q in quantities:
        if q not in _QUANTITIES:
            raise ValueError(f"unknown quantity {q!r}; expected one of {', '.join(_QUANTITIES)}")
    columns = [_QUANTITIES[q] for q in quantities]
    thresholds = [_parse_threshold_spec(s, cid) for s in (args.threshold or [])]
    bracket = _fields(args.threshold_range, "--threshold-range", "A:B", (_finite, _finite))
    kinds = _make_kinds([k for _, k in columns if k] + [k for k, _, _, _ in thresholds], args.partition, spec.n)

    header = [args.param] + ([args.param2] if args.param2 is not None else []) + quantities
    header += [f"thr_{k}_{lvl}_{prm}" for (k, lvl, prm, _) in thresholds]
    table, _ = scan.scan(cid, base_params, axes, [(q, kinds.get(k)) for q, k in columns],
                         [(names, lvl, kinds[k]) for k, lvl, _, names in thresholds], bracket, tol)
    return EXIT_OK, "\n".join([",".join(header)] + _csv_rows(table))


# ---------------------------------------------------------------- engineer


def _parse_kv_params(arg: str) -> dict:
    out = {}
    for item in arg.split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise ValueError(f"--params entries must be key=value, got {item!r}")
        key, _, val = item.partition("=")
        key = key.strip()
        if key in out:
            raise ValueError(f"--params gives {key!r} more than once")
        try:
            out[key] = float(val)
        except ValueError as exc:
            raise ValueError(f"--params value for {key!r} is not a number") from exc
    if not out:
        raise ValueError("--params is empty")
    return out


def _load_target_cm(args, tol: Tolerances) -> np.ndarray:
    if args.target and args.catalog:
        raise ValueError("give either --target or --catalog, not both")
    if args.target:
        if args.params is not None:
            raise ValueError("--params needs --catalog; a --target document takes no parameters")
        return _load_cm(args.target, "target covariance matrix", tol)
    if args.catalog:
        if args.params is None:
            raise ValueError("--catalog needs --params")
        cid = catalog_mod.catalog_id(args.catalog, "--catalog")
        return np.asarray(catalog_mod.catalog_analytic(cid, "target_cm", _parse_kv_params(args.params)))
    raise ValueError("engineer needs --target FILE or --catalog ID --params ...")


def cmd_engineer(args) -> tuple[int, str | dict]:
    tol = _resolve_tol(args, None)
    reservoir = williamson.engineer_target(_load_target_cm(args, tol), tol)
    realization = reservoir.realization
    vectors = [
        {"lambda_re": v.coupling.real, "lambda_im": v.coupling.imag} for v in realization.vectors
    ]

    if args.json:
        return EXIT_OK, {
            "target": reservoir.target,
            "symplectic_spectrum": reservoir.symplectic_spectrum,
            "drift_matrix": reservoir.drift_matrix,
            "diffusion": reservoir.diffusion,
            "hessian": realization.hamiltonian.hessian,
            "lindblad": vectors,
            "verification": {
                "steady_cm_max_dev": reservoir.target_deviation,
                "stationary_residual": reservoir.residual,
            },
        }
    lines = ["engineered drift matrix:"]
    lines += _matrix_lines(reservoir.drift_matrix)
    lines.append("engineered diffusion matrix:")
    lines += _matrix_lines(reservoir.diffusion)
    lines.append("hamiltonian hessian:")
    lines += _matrix_lines(realization.hamiltonian.hessian)
    lines.append(f"coupling vectors: {len(vectors)}")
    for k, v in enumerate(realization.vectors):
        lines.append(f"  lambda[{k}]: " + "  ".join(_fmt_complex(z) for z in v.coupling))
    lines.append(f"steady-state deviation from target: {_fmt(reservoir.target_deviation)}")
    lines.append(f"stationary residual of target: {_fmt(reservoir.residual)}")
    return EXIT_OK, "\n".join(lines)


# ---------------------------------------------------------------- evolve


def cmd_evolve(args) -> tuple[int, str | dict]:
    if args.stride < 1:
        raise ValueError(f"--stride must be at least 1, got {args.stride}")
    if read_number(args.v0_scale, "--v0-scale", "finite") < 0:
        raise ValueError(f"--v0-scale must be nonnegative, got {args.v0_scale}")
    for flag, value in (("--t-end", args.t_end), ("--dt", args.dt)):
        if value is not None:
            read_number(value, flag, "positive")
    dyn, tol = _load_model(args)
    t_end = args.t_end
    if t_end is None:
        report = stability_check(dyn, tol)
        if not report.is_stable:
            raise ValueError("--t-end is required for a model that is not asymptotically stable")
        t_end = 40.0 / abs(report.spectral_abscissa)

    dim = 2 * dyn.n
    v0 = args.v0_scale * np.eye(dim)
    x0 = np.zeros(dim)
    try:
        traj = evolution.evolve(dyn, x0, v0, t_end, dt=args.dt, record_every=args.stride)
    except RuntimeError as exc:  # the moments of a model that is not stable diverged
        raise ValueError(str(exc)) from exc

    if args.json:
        return EXIT_OK, {
            "t_end": traj.times[-1],
            "final_mean": traj.final_mean,
            "final_cm": traj.final_cm,
        }
    header = ["t"] + [f"x{i}" for i in range(dim)] + [
        f"V_{i}_{j}" for i in range(dim) for j in range(dim)
    ]
    # one row per record; a column that is the same in every record, such as the means of an
    # undriven model started at 0, is formatted once
    table = np.column_stack([traj.times, traj.means, traj.cms.reshape(len(traj.times), -1)])
    rows = [",".join(header)] + _csv_rows(table)
    return EXIT_OK, "\n".join(rows)


# ---------------------------------------------------------------- williamson


def cmd_williamson(args) -> tuple[int, str | dict]:
    tol = _resolve_tol(args, None)
    if args.cm and args.model:
        raise ValueError("give either a model document or --cm, not both")
    if args.cm:
        cm = _load_cm(args.cm, "covariance matrix", tol)
    elif args.model:
        dyn, tol = _load_model(args)
        cm = lyapunov.steady_covariance(dyn, tol)
    else:
        raise ValueError("williamson needs a model document or --cm FILE")

    decomp = williamson.williamson_decompose(cm, tol)
    if args.json:
        return EXIT_OK, {
            "cm": cm,
            "symplectic_eigenvalues": decomp.mu,
            "s": decomp.s,
            "dev_form": decomp.form_deviation,
            "dev_diag": decomp.diag_deviation,
        }
    lines = ["symplectic eigenvalues (ascending): " + "  ".join(_fmt(v) for v in decomp.mu)]
    lines.append("congruence S:")
    lines += _matrix_lines(decomp.s)
    lines.append(f"|S J S^T - J|_max: {_fmt(decomp.form_deviation)}")
    lines.append(f"|S M S^T - Lambda|_max: {_fmt(decomp.diag_deviation)}")
    return EXIT_OK, "\n".join(lines)


# ---------------------------------------------------------------- parser


@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process, built on first use: parse_args keeps no state between calls."""
    parser = _Parser(prog="lindlyap", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, model=True, json_flag=True):
        if model:
            p.add_argument("model", help="path to a model JSON document")
        if json_flag:
            p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument("--tol", type=float, default=None, help="override eig_zero_band and residual_tol")
        p.add_argument("--output", default=None, help="write output to this file instead of stdout")

    p = sub.add_parser("steady", help="solve for the stationary covariance matrix")
    add_common(p)
    p.set_defaults(func=cmd_steady)

    p = sub.add_parser("stability", help="drift spectrum and stability verdict")
    add_common(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("criteria", help="state- and environment-level criteria")
    add_common(p)
    p.add_argument(
        "--kind",
        choices=list(_KIND_CHOICES),
        default="all",
    )
    p.add_argument(
        "--partition",
        default=None,
        help="comma-separated 1-based modes of part two (default: last mode)",
    )
    p.add_argument("--level", choices=["state", "env", "both"], default="both")
    p.set_defaults(func=cmd_criteria)

    p = sub.add_parser("sweep", help="scan catalog parameters, CSV output")
    add_common(p, json_flag=False)
    p.add_argument("--param", required=True, help="catalog parameter to sweep")
    p.add_argument("--range", required=True, help="A:B:STEPS for --param")
    p.add_argument("--param2", default=None, help="optional second parameter")
    p.add_argument("--range2", default=None, help="A:B:STEPS for --param2")
    p.add_argument(
        "--quantity",
        action="append",
        help="column to report (repeatable): abscissa, purity, min_symplectic_eig, "
        f"or <state|env>_<kind>_min_eig with <kind> one of {', '.join(_KINDS)}; default abscissa",
    )
    p.add_argument(
        "--threshold",
        action="append",
        help="KIND:LEVEL:PARAM threshold column (repeatable), e.g. separability:env:zeta",
    )
    p.add_argument("--threshold-range", default="1e-6:50", help="bracket A:B of the threshold search")
    p.add_argument("--partition", default=None, help="partition for separability/steerability")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("engineer", help="build a reservoir that prepares a target state", description=(
        "Build the reservoir with drift -I/2 and diffusion V, whose unique steady state is the target V. "
        "A V with a symplectic eigenvalue below 1 beyond the zero band and its rounding error exits 3; "
        "the JSON symplectic_spectrum is null where that error exceeds the zero band (TMTSS from about r = 7)."))
    add_common(p, model=False)
    p.add_argument("--target", default=None, help="JSON file with the target covariance matrix")
    p.add_argument("--catalog", default=None, help="catalog id providing a target (TMTSS)")
    p.add_argument("--params", default=None, help="key=value,... parameters of --catalog, each key once")
    p.set_defaults(func=cmd_engineer)

    p = sub.add_parser("evolve", help="propagate the moment equations exactly, CSV output")
    add_common(p)
    p.add_argument("--t-end", type=float, default=None, help="final time (default 40/|abscissa|)")
    p.add_argument("--dt", type=float, default=None, help=(
        "time grid step (the propagation is exact for any step); default min(1e-3, 0.05/||drift||_2), "
        f"but at least t_end/{evolution.MAX_DEFAULT_STEPS}"))
    p.add_argument("--v0-scale", type=float, default=5.0, help="initial covariance scale s >= 0 in s*I")
    p.add_argument("--stride", type=int, default=200, help="record every N-th step in the CSV (N >= 1)")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("williamson", help="symplectic normal form of a covariance matrix")
    add_common(p, model=False)
    p.add_argument("model", nargs="?", default=None, help="model document (uses its steady state)")
    p.add_argument("--cm", default=None, help="JSON file with a covariance matrix")
    p.set_defaults(func=cmd_williamson)

    return parser


def main(argv=None) -> int:
    """The command line as an in-process entry point: parse argv, run it, return the exit code.

    Each command returns its exit code and its output, text or a JSON document, and this is the
    one place that writes the output: with a final newline, to stdout or to the --output file.
    It never exits the interpreter and is safe to call repeatedly; every call in a
    process shares one parser, built on the first.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse --help or usage error
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        code, output = args.func(args)
        text = output if isinstance(output, str) else json.dumps(output, indent=2, default=_json_default)
        text = text if text.endswith("\n") else text + "\n"
        if args.output is not None:
            try:
                with open(args.output, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise ValueError(f"cannot write --output {args.output}: {exc}") from exc
        else:
            sys.stdout.write(text)
        return code
    except UnstableDriftError as exc:
        kind = "marginally stable" if exc.report.is_marginal else "unstable"
        sys.stderr.write(
            f"error: model is {kind} (spectral abscissa {_fmt(exc.abscissa)}); "
            "this computation needs an asymptotically stable drift matrix\n"
        )
        return EXIT_STABILITY
    except EngineeringError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ENGINEERING
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
