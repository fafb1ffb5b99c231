"""Config-driven experiment runner.

One pipeline per invocation: ``fraccalderon <pipeline> --config cfg.json
[--set key=value]...``.  Configs are JSON (schema-validated, unknown keys
rejected); scalar fields can be overridden from the command line.  Every run
writes a manifest recording the config hash, seeds, versions, BLAS thread
settings and the thread counts in force, wall time, the wall seconds of each
stage (``stage_s``: ``assembly``, ``compute`` and ``output``; ``invert``
splits ``compute`` into ``measurement`` and ``reconstruction``), produced
files and the warnings shown during the pipeline (``warnings``: category
and message, also printed to stderr), and exits 0 only if all configured
tolerance gates pass (1: gate failure, 2: invalid config, 4: numeric error).
A run that raises a package error still writes its manifest, with
``error`` (code, message and the module that raised it), no files, and the
stages and records set before the raise.
An ``invert`` manifest also records how each assembled system was factored,
its rcond and 1-norm (``systems``; the trial systems per iteration), and each
Newton iteration's penalty weight, data norm, step norm and step halvings
(``iterations``).

``run`` is the frame of every pipeline: it builds the grid and operator,
hands them to the pipeline with the gate report, times the stages and
writes the files the pipeline returns, ``{name: (header, rows)}`` (a dict
of arrays for a ``.npz``).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import os
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._kernels import matmul, norm
from .dirichlet import (assemble_system, check_condition, dirichlet_spectrum,
                        potential_from_spec, solve_poisson, system_facts)
from .dnmap import assemble_dn, dn_decomposition_check, integral_identity
from .errors import ConfigError, FracCalderonError, LinAlgFailError
from .extension import cs_extend, trace_derivative, trace_ladder, ucp_conditioning
from .fracop import apply_spectral, assemble_quadrature
from .grid import GridFunction, build_grid
from .diffusion import decay_series, dn_cost_check, evolve
from .calderon import (reconstruct_potential, reconstruction_error,
                       simulate_measurements)
from .runge import DEFAULT_ALPHAS, alpha_sweep

PIPELINES = ("validate-op", "spectrum", "dnmap", "runge-sweep", "invert",
             "extend", "diffuse")

# pipeline -> the gate thresholds it reads from ``tolerances`` -> default;
# a pair is the default in 1D and in more dimensions
TOLERANCES = {
    "validate-op": {"oracle_agreement": (5e-3, 2e-2)},
    "spectrum": {},
    "dnmap": {"identity": 1e-12, "identity_loose": 1e-10},
    "runge-sweep": {"runge_residual": 0.10},
    "invert": {"reconstruction_error": 0.15},
    "extend": {"trace_identity": 5e-3},
    "diffuse": {"semigroup": 1e-12, "richardson_band": 0.3},
}


def _tagged(families: dict) -> dict:
    """Schema of an object whose ``type`` names one of ``families`` (kind ->
    (properties, required keys)), with that family's keys and no others.  An
    enum and one if/then per family rather than a oneOf, so that a failure
    names the misspelt, missing or unexpected key."""
    return {"type": "object", "required": ["type"],
            "properties": {"type": {"enum": list(families)}},
            "allOf": [{"if": {"properties": {"type": {"const": kind}},
                              "required": ["type"]},
                       "then": {"additionalProperties": False,
                                "properties": {"type": {}, **properties},
                                "required": required}}
                      for kind, (properties, required) in families.items()]}


_NUMBER = {"type": "number"}

_PAIR = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}

# the number of axes of a disc center or rect is checked against grid.dim by
# grid.build_grid
_GEOMETRY_SCHEMA = _tagged({
    "interval": ({"bounds": _PAIR}, ["bounds"]),
    "disc": ({"center": {"type": "array", "items": _NUMBER}, "radius": _NUMBER},
             ["center", "radius"]),
    "rect": ({"bounds": {"type": "array", "items": _PAIR}}, ["bounds"]),
})

_BUMP = {"amplitude": _NUMBER, "width": _NUMBER,
         "center": {"type": ["number", "array"], "items": _NUMBER}}

# one family per branch of dirichlet.potential_from_spec; a bare number is a
# constant (the object keywords do not apply to a number)
_POTENTIAL_SCHEMA = {**_tagged({
    "constant": ({"value": _NUMBER}, ["value"]),
    "gaussian": (_BUMP, ["amplitude", "width"]),
    "two_bump": ({"bumps": {"type": "array",
                            "items": {"type": "object", "additionalProperties": False,
                                      "properties": _BUMP,
                                      "required": ["amplitude", "width"]}}}, ["bumps"]),
    "nodes": ({"values": {"type": "array", "items": _NUMBER}}, ["values"]),
    "csv": ({"path": {"type": "string"}}, ["path"]),
}), "type": ["number", "object"]}


CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "pipeline", "grid", "s"],
    "properties": {
        "schema_version": {"const": 1},
        "pipeline": {"enum": list(PIPELINES)},
        "grid": {
            "type": "object", "additionalProperties": False,
            "required": ["dim", "h", "R", "omega", "support"],
            "properties": {
                "dim": {"type": "integer", "minimum": 1},
                "h": {"type": "number", "exclusiveMinimum": 0},
                "R": {"type": "number", "exclusiveMinimum": 0},
                "omega": _GEOMETRY_SCHEMA,
                "support": _GEOMETRY_SCHEMA,
                "windows": {"type": "object",
                            "additionalProperties": _GEOMETRY_SCHEMA},
            },
        },
        "s": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "potential": _POTENTIAL_SCHEMA,
        "potential_ref": _POTENTIAL_SCHEMA,
        "potential_true": _POTENTIAL_SCHEMA,
        "source_window": {"type": "string"},
        "observation_window": {"type": "string"},
        "noise": {"type": "object", "additionalProperties": False,
                  "properties": {"sigma": {"type": "number", "minimum": 0},
                                 "seed": {"type": "integer"}}},
        "runge": {"type": "object", "additionalProperties": False,
                  "properties": {"window": {"type": "string"},
                                 # a name or one number per interior node; names
                                 # are checked in a then-branch, not an anyOf, so
                                 # that an unknown name's message lists them
                                 "target": {"type": ["string", "array"], "items": _NUMBER,
                                            "if": {"type": "string"},
                                            "then": {"enum": ["constant", "sign"]}},
                                 "alphas": {"type": "array", "minItems": 1,
                                            "items": {"type": "number", "minimum": 0}}}},
        "invert": {"type": "object", "additionalProperties": False,
                   "properties": {"mode": {"enum": ["constructive", "linearized"]},
                                  "iterations": {"type": "integer", "minimum": 1},
                                  "alpha": {"type": "number", "minimum": 0},
                                  "n_targets": {"type": "integer", "minimum": 1},
                                  "runge_gate": {"type": "number"},
                                  "clean_beta": {"type": "number"}}},
        "extend": {"type": "object", "additionalProperties": False,
                   "properties": {"ucp_window": {"type": "string"}}},
        "diffuse": {"type": "object", "additionalProperties": False,
                    "properties": {"t_values": {"type": "array", "items": _NUMBER}}},
        "operator_export": {"enum": ["none", "csv", "npz"]},
        "pad_factor": {"type": "integer", "minimum": 4},
        "tolerances": {"type": "object", "additionalProperties": _NUMBER},
        "seed": {"type": "integer"},
        "output_dir": {"type": "string"},
    },
    # per pipeline: the keys of tolerances are the gates it reads, so a
    # misspelt gate name fails instead of leaving its default in force, and
    # invert has no default truth to reconstruct
    "allOf": [{"if": {"properties": {"pipeline": {"const": pipeline}}, "required": ["pipeline"]},
               "then": {"properties": {"tolerances": {"propertyNames": {"enum": list(gates)}}},
                        "required": ["potential_true"] if pipeline == "invert" else []}}
              for pipeline, gates in TOLERANCES.items()],
}


@functools.cache
def _validator():
    """The schema's validator, built once per process: jsonschema's own with
    ``number`` redefined as a finite double, since Python's json reads the
    tokens NaN, Infinity and -Infinity, and integers beyond the double range,
    and no schema bound rejects a NaN."""
    from jsonschema.validators import extend, validator_for
    base = validator_for(CONFIG_SCHEMA)
    finite = base.TYPE_CHECKER.redefine("number", lambda _, x: (
        base.TYPE_CHECKER.is_type(x, "number") and abs(x) <= sys.float_info.max))
    return extend(base, type_checker=finite)(CONFIG_SCHEMA)


def validate_config(cfg: dict) -> None:
    """One pass of ``CONFIG_SCHEMA``, whose numbers are finite; the schema
    itself is checked by the tests, not on every call.  The error raised is
    the one ``jsonschema``'s ``best_match`` picks, in its words, after the
    path of its key (``runge.alphas[1]: ...``; none for the config itself)."""
    from jsonschema.exceptions import best_match
    error = best_match(_validator().iter_errors(cfg))
    if error is not None:
        where = f"{error.json_path[2:]}: " if error.absolute_path else ""
        raise ConfigError(where + str(error).splitlines()[0]) from error


def _tolerances(cfg: dict) -> dict:
    """The gate thresholds of the config's pipeline: its ``tolerances``, the
    defaults of ``TOLERANCES`` for the keys it leaves out."""
    one_d = cfg["grid"]["dim"] == 1
    defaults = {key: (value[0] if one_d else value[1]) if isinstance(value, tuple) else value
                for key, value in TOLERANCES[cfg["pipeline"]].items()}
    return {**defaults, **cfg.get("tolerances", {})}


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _format_row(values) -> str:
    values = tuple(values)      # one format operation per row, as np.savetxt makes
    return ",".join(["%.17g"] * len(values)) % values


def _write_csv(path: Path, header: str, rows) -> None:
    """The one CSV writer of the package: ``header`` (a column-name line, or
    ``#`` lines), then one line per row, each value to 17 significant
    digits, which reads back as the same double."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(_format_row(row) + "\n")


# the number of smooth bumps ``validate-op`` applies both operators to
_N_BUMPS = 10


def _smooth_bumps(grid, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(_N_BUMPS):
        ctr = rng.uniform(-0.5, 0.5, size=grid.dim)
        wid = rng.uniform(0.15, 0.2) if grid.dim == 1 else rng.uniform(0.2, 0.3)
        r2 = np.sum((grid.coords - ctr) ** 2, axis=1)
        vals = np.exp(-r2 / (2.0 * wid * wid))
        vals[grid.far] = 0.0
        out.append(vals)
    return out


# the threshold of a gate whose value must not exceed 0: the least positive
# float, so value < AT_MOST_ZERO iff value <= 0 (0 - 0 = 0 passes, as when
# every term underflows), and a NaN still fails
AT_MOST_ZERO = float(np.nextafter(0.0, 1.0))


class GateReport:
    """A run's gates, the facts its pipeline records, the wall seconds of its
    stages, and the thresholds its gates read (``tolerances``)."""

    def __init__(self, tolerances: dict):
        self.gates = {}
        self.records = {}           # pipeline facts copied into the manifest
        self.stage_s = {}
        self.tolerances = tolerances
        self._last_mark = time.perf_counter()

    def mark(self, stage):
        """Record the wall seconds since the previous mark (or since the report
        was made) as ``stage``."""
        now = time.perf_counter()
        self.stage_s[stage] = now - self._last_mark
        self._last_mark = now

    def add(self, name, value, threshold):
        """Record gate ``name``: it passes iff ``value < threshold``, strictly,
        so a NaN value fails.  A lower bound is recorded negated."""
        self.gates[name] = {"value": float(value), "threshold": float(threshold),
                            "pass": bool(value < threshold)}

    @property
    def all_pass(self):
        return all(g["pass"] for g in self.gates.values())


def _build(cfg):
    gcfg = cfg["grid"]
    grid = build_grid(gcfg["dim"], gcfg["h"], gcfg["R"], gcfg["omega"],
                      gcfg["support"], gcfg.get("windows", {}))
    op = assemble_quadrature(grid, cfg["s"])
    return grid, op


def _spectral(cfg, u):
    """``apply_spectral`` at the config's ``pad_factor``, else at its own."""
    pad = {"pad_factor": cfg["pad_factor"]} if "pad_factor" in cfg else {}
    return apply_spectral(u, cfg["s"], **pad)


def _pipeline_validate_op(cfg, grid, op, report):
    """Quadrature against the spectral route on smooth bumps, plus symmetry
    and sign gates, through ``FracOperator.apply`` and the offset table: no
    matrix is gathered but the one ``operator_export`` writes, and the spectral
    route's padded lattice sets the memory."""
    seed, nf = cfg.get("seed", 0), grid.nonfar
    rows = []
    for i, vals in enumerate(_smooth_bumps(grid, seed)):
        spec = _spectral(cfg, GridFunction(grid, vals)).values[nf]
        rows.append((i, float(norm(op.apply(vals, nf) - spec) / norm(spec))))
    report.add("operator_symmetry", _probe_asymmetry(op, seed), SYMMETRY_TOL)
    # the off-diagonal entries are the table's, one per lattice offset d != 0
    report.add("offdiagonal_sign", float(np.max(op.table.ravel()[1:])), 0.0)
    report.add("oracle_agreement", max(rel for _, rel in rows),
               report.tolerances["oracle_agreement"])
    outputs = {"operator_check.csv": ("bump,rel_l2_discrepancy", rows)}
    # the whole matrix, gathered once: N_nf^2 doubles, 193 MB on the 2D
    # disc at h = 0.05, and several times that as csv text
    exp = cfg.get("operator_export", "none")
    if exp == "npz":
        outputs["operator.npz"] = {"matrix": op.matrix, "tail": op.tail, "s": op.s,
                                   "cns": op.cns, "nonfar": nf}
    elif exp == "csv":
        outputs["operator.csv"] = (f"# fractional operator, s={op.s!r}, cns={op.cns!r}, "
                                   f"n={len(nf)}", op.matrix)
    return outputs


# bound of ``_probe_asymmetry``, about 200x its largest value measured (5.1e-17,
# over the committed config and the 1D, 2D and 3D test grids at s = 1/4, 1/2, 3/4)
SYMMETRY_TOL = 1e-14


def _probe_asymmetry(op, seed) -> float:
    """max over 3 seeded random probe pairs (u, v) on the non-FAR nodes of
    |<v, Au> - <u, Av>| / max(|v| |Au|, |u| |Av|), the Cauchy-Schwarz bound."""
    nf = op.grid.nonfar
    probes = np.zeros((6, op.grid.n_nodes))
    probes[:, nf] = np.random.default_rng(seed).standard_normal((6, len(nf)))
    worst = 0.0
    for u, v in zip(probes[::2], probes[1::2]):
        au, av = op.apply(u, nf), op.apply(v, nf)
        scale = max(norm(v) * norm(au), norm(u) * norm(av))
        worst = max(worst, abs(matmul(v[nf], au) - matmul(u[nf], av)) / scale)
    return float(worst)


def _pipeline_spectrum(cfg, grid, op, report):
    sys = assemble_system(op, potential_from_spec(grid, cfg.get("potential", 0.0)))
    spec = dirichlet_spectrum(sys)
    A = sys.interior_matrix             # gathered anew: the system holds its factors only
    resid = float(np.max(np.abs(matmul(A, spec.eigenvectors)
                                - spec.eigenvectors * spec.eigenvalues)))
    scale = float(np.max(np.abs(spec.eigenvalues)))
    report.add("eigen_residual", resid, 1e-10 * scale)
    report.add("condition_margin", *check_condition(sys))
    return {"spectrum.csv": ("index,eigenvalue", list(enumerate(spec.eigenvalues)))}


def _pipeline_dnmap(cfg, grid, op, report):
    sys1 = assemble_system(op, potential_from_spec(grid, cfg.get("potential", 0.0)))
    src = cfg.get("source_window", "W1")
    obs = cfg.get("observation_window", "W2")
    dn = assemble_dn(sys1, src, obs)

    M = assemble_dn(sys1, "EXTERIOR_SUPPORT", "EXTERIOR_SUPPORT").matrix
    sym = float(np.max(np.abs(M - M.T)) / max(np.max(np.abs(M)), 1e-300))
    report.add("dn_self_adjointness", sym, report.tolerances["identity"])

    rng = np.random.default_rng(cfg.get("seed", 0))
    f = np.zeros(len(grid.ext_support))
    _, w1 = grid.exterior_window(src)
    f[w1] = rng.standard_normal(len(w1))
    # one solve per (system, exterior data) pair: u1 serves every gate below
    u1 = solve_poisson(sys1, f)
    point, Mf = op.apply(u1.values, grid.ext_support), matmul(M, f)   # pointwise and bilinear DN f
    agree = float(np.max(np.abs(Mf - point)) / max(np.max(np.abs(Mf)), 1e-300))
    report.add("pointwise_vs_bilinear", agree, report.tolerances["identity_loose"])
    scale = max(float(np.max(np.abs(point))), 1e-300)
    report.add("decomposition_residual", dn_decomposition_check(op, u1) / scale,
               report.tolerances["identity_loose"])

    sys2 = assemble_system(op, potential_from_spec(grid, cfg.get("potential_ref", 1.0)))
    f2 = rng.standard_normal(len(grid.ext_support))
    out = integral_identity(sys1, sys2, u1, solve_poisson(sys2, f2))
    rel = out["residual"] / max(abs(out["lhs"]), 1e-300)
    report.add("integral_identity", rel, report.tolerances["identity_loose"])
    coords = lambda nodes: "; ".join(_format_row(grid.coords[n]) for n in nodes)
    return {"dn_matrix.csv": (f"# source nodes (columns): {coords(dn.source_nodes)}\n"
                              f"# observation nodes (rows): {coords(dn.observation_nodes)}\n"
                              f"# potential fingerprint: {dn.fingerprint}", dn.matrix)}


def _pipeline_runge(cfg, grid, op, report):
    sys = assemble_system(op, potential_from_spec(grid, cfg.get("potential", 0.0)))
    rcfg = cfg.get("runge", {})
    window = rcfg.get("window", "W1")
    tgt_spec = rcfg.get("target", "constant")
    n_int = len(grid.interior)
    if tgt_spec == "constant":
        target = np.ones(n_int)
    elif tgt_spec == "sign":
        target = np.sign(grid.coords[grid.interior, 0])
    else:
        target = np.asarray(tgt_spec, dtype=float)
        if len(target) != n_int:
            raise ConfigError(f"runge.target needs {n_int} values, one per interior node; "
                              f"got {len(target)}")
    alphas = rcfg.get("alphas", DEFAULT_ALPHAS)
    results = alpha_sweep(sys, window, target, alphas=alphas)
    resids = [r.residual for r in results]
    # the largest rise of the residual from one alpha to the next, beyond a
    # relative 1e-9 (NaN propagates); a single alpha has no rise and no gate
    if len(resids) > 1:
        rise = np.max([b - a * (1 + 1e-9) for a, b in zip(resids, resids[1:])])
        report.add("residual_monotone", rise, AT_MOST_ZERO)
    report.add("final_residual", results[-1].relative_residual,
               report.tolerances["runge_residual"])
    return {"runge_sweep.csv": ("alpha,residual,control_norm",
                                [(r.alpha, r.residual, r.control_norm) for r in results])}


def _pipeline_invert(cfg, grid, op, report):
    q_ref = potential_from_spec(grid, cfg.get("potential_ref", 0.0))
    q_true = potential_from_spec(grid, cfg["potential_true"])
    windows = cfg.get("source_window", "W1"), cfg.get("observation_window", "W2")
    # one Dirichlet factor at a time, each system factored once: the true
    # system is measured on the windows (one window solve) and freed, and
    # the reconstruction assembles the reference from the operator and
    # potential that the measurements record and reads the reference's DN
    # map off the source-window solve its first sweep makes anyway
    sys_true = assemble_system(op, q_true)
    facts_true = system_facts(sys_true)
    noise = cfg.get("noise", {})
    meas = simulate_measurements(sys_true, q_ref, *windows,
                                 sigma=noise.get("sigma", 0.0),
                                 seed=noise.get("seed", cfg.get("seed", 0)))
    del sys_true
    report.mark("measurement")
    # the schema's invert keys are reconstruct_potential's keywords and defaults
    out = reconstruct_potential(meas, **cfg.get("invert", {}))
    report.mark("reconstruction")
    report.records["systems"] = {"reference": out["diagnostics"]["reference"],
                                 "true": facts_true}
    report.records["iterations"] = [
        {key: d[key] for key in ("beta", "data_norm", "step_norm", "halvings", "trials")}
        for d in out["diagnostics"]["iterations"]]
    truth = q_true.values - q_ref.values
    est = out["q_diff"]
    x = grid.coords[grid.interior]
    # the axes after the first follow the values, which readers take from
    # the second and third columns
    header = ",".join(["x", "q_diff_true", "q_diff_estimate", *"yz"[:grid.dim - 1]])
    rows = [(x[i, 0], truth[i], est[i], *x[i, 1:]) for i in range(len(est))]
    diag_rows = [(j, k, r) for j, d in enumerate(out["diagnostics"]["iterations"])
                 for k, r in enumerate(d["runge_residuals"])]
    err = reconstruction_error(est, truth, grid.h ** grid.dim)
    report.add("reconstruction_error", err, report.tolerances["reconstruction_error"])
    outputs = {"q_estimate.csv": (header, rows)}
    if diag_rows:       # Runge residuals: constructive mode alone computes them
        outputs["residuals.csv"] = ("iteration,target,runge_residual", diag_rows)
    return outputs


# floor of the smooth double-vanishing constraints' sigma_min.  Measured on
# configs/extend_desk1d.json (h = 0.02, s = 1/2): 1.16e-8, a factor 11.6
# above the floor (6.0e-9 at s = 1/4), while the stack's smallest singular
# value is rounding (7e-19).  Finer grids admit more smooth candidates and
# read lower (7e-14 at h = 0.01), so the floor holds down to h = 0.02.
UCP_SMOOTH_FLOOR = 1e-9


def _pipeline_extend(cfg, grid, op, report):
    s = cfg["s"]
    x = grid.coords[:, 0]
    vals = np.exp(-x * x / (2 * 0.2**2))
    vals[grid.far] = 0.0
    u = GridFunction(grid, vals)
    field = cs_extend(u, s, trace_ladder(grid.h))
    td = trace_derivative(field, s).values[grid.nonfar]
    spec = _spectral(cfg, u).values[grid.nonfar]
    rel = float(norm(td - spec) / norm(spec))
    report.add("trace_identity", rel, report.tolerances["trace_identity"])

    ucp = ucp_conditioning(op, cfg.get("extend", {}).get("ucp_window", "EXTERIOR_SUPPORT"))
    report.add("ucp_smooth_sigma_min", -ucp["smooth_sigma_min"], -UCP_SMOOTH_FLOOR)
    return {"extension_field.csv": ("x,y,w", ((xi, y, w) for y, column in
                                              zip(field.y_levels, field.values.T)
                                              for xi, w in zip(x, column))),
            "ucp_singular_values.csv": ("index,sigma", list(enumerate(ucp["singular_values"])))}


def _pipeline_diffuse(cfg, grid, op, report):
    dcfg = cfg.get("diffuse", {})
    sys = assemble_system(op, potential_from_spec(grid, cfg.get("potential", 0.0)))
    rng = np.random.default_rng(cfg.get("seed", 0))
    f = np.zeros(len(grid.ext_support))
    _, src = grid.exterior_window(cfg.get("source_window", "W1"))
    f[src] = 1.0
    # the steady state of the clamp f, solved once for every check below
    u_f = solve_poisson(sys, f)
    v0 = u_f.values.copy()
    v0[grid.interior] += rng.standard_normal(len(grid.interior))
    times = dcfg.get("t_values", [0.1, 0.5, 1.0, 2.0, 5.0])
    rows = decay_series(sys, GridFunction(grid, v0), u_f, times)

    spec = dirichlet_spectrum(sys)
    lam1 = float(spec.eigenvalues[0])
    hn = grid.h ** grid.dim
    d0 = np.sqrt(hn) * norm(v0 - u_f.values)
    # the largest excess of the distance over its spectral bound, beyond a
    # relative 1e-9 (NaN propagates); no times, no gate
    if rows:
        excess = np.max([d - np.exp(-lam1 * t) * d0 * (1 + 1e-9) for t, d in rows])
        report.add("decay_rate_bound", excess, AT_MOST_ZERO)

    a = evolve(sys, GridFunction(grid, v0), 0.4, steady=u_f)
    b = evolve(sys, a, 0.6, steady=u_f)
    c = evolve(sys, GridFunction(grid, v0), 1.0, steady=u_f)
    semi = float(np.max(np.abs(b.values - c.values)))
    report.add("semigroup", semi, report.tolerances["semigroup"])

    cost = dn_cost_check(sys, u_f)
    ratio = cost["deviation"] / max(cost["deviation_half"], 1e-300)
    report.add("cost_richardson_ratio", abs(ratio - 2.0), report.tolerances["richardson_band"])
    return {"decay.csv": ("t,distance", rows)}


_RUNNERS = {
    "validate-op": _pipeline_validate_op,
    "spectrum": _pipeline_spectrum,
    "dnmap": _pipeline_dnmap,
    "runge-sweep": _pipeline_runge,
    "invert": _pipeline_invert,
    "extend": _pipeline_extend,
    "diffuse": _pipeline_diffuse,
}


# manifest key -> (package, the directory of its bundled OpenBLAS, that
# library's file-name prefix, its thread-count getter)
_BLAS_LIBS = {
    "numpy_blas_threads": (np, "numpy.libs", "libscipy_openblas64_-",
                           "scipy_openblas_get_num_threads64_"),
    "scipy_blas_threads": (scipy, "scipy.libs", "libscipy_openblas-",
                           "scipy_openblas_get_num_threads"),
}


def _blas_threads() -> dict:
    """The thread count that numpy's and scipy's bundled OpenBLAS each have
    in force, read through ctypes from the library the package loaded
    (opening a loaded path returns that library); None where the library
    or its getter is missing.  Every run pays this, so the library is found
    by a directory listing (about 0.05 ms), not a glob (about 0.4 ms)."""
    counts = {}
    for key, (package, libs, prefix, getter) in _BLAS_LIBS.items():
        root = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), libs)
        try:
            name = min(n for n in os.listdir(root) if n.startswith(prefix) and n.endswith(".so"))
            counts[key] = int(getattr(ctypes.CDLL(os.path.join(root, name)), getter)())
        except (ValueError, OSError, AttributeError):   # ValueError: no such library
            counts[key] = None
    return counts


def _raising_module(exc: BaseException) -> str:
    """The innermost package module in the traceback of ``exc``, named by its
    spec, which names ``fraccalderon.cli`` also when it runs as ``__main__``."""
    names = [getattr(f.f_globals.get("__spec__"), "name", "")
             for f, _ in traceback.walk_tb(exc.__traceback__)]
    return next((n for n in reversed(names) if n.startswith("fraccalderon.")), "fraccalderon")


def run(cfg: dict, output_dir: str = None) -> tuple[int, dict]:
    """Execute one pipeline; returns (exit code, manifest).  A package error,
    or a LAPACK error as ``LinAlgFailError``, is raised again after the
    manifest records it."""
    validate_config(cfg)
    out_dir = Path(output_dir or cfg.get("output_dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    report = GateReport(_tolerances(cfg))
    outputs, error = {}, None
    # the warnings shown during the pipeline are recorded, then shown as
    # before, also when the pipeline raises
    try:
        with warnings.catch_warnings(record=True) as caught:
            grid, op = _build(cfg)
            report.mark("assembly")
            outputs = _RUNNERS[cfg["pipeline"]](cfg, grid, op, report)
            if len(report.stage_s) == 1:    # the pipeline marked no stage of its own
                report.mark("compute")
            for name, table in outputs.items():
                if name.endswith(".npz"):
                    np.savez_compressed(out_dir / name, **table)
                else:
                    _write_csv(out_dir / name, *table)
            report.mark("output")
    except FracCalderonError as exc:
        error = exc
    except np.linalg.LinAlgError as exc:    # kept with its traceback, for the module
        error = LinAlgFailError(str(exc)).with_traceback(exc.__traceback__)
    finally:
        for w in caught:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    manifest = {
        "schema_version": 1,
        "package_version": __version__,
        "config_hash": _config_hash(cfg),
        "pipeline": cfg["pipeline"],
        "seed": cfg.get("seed", 0),
        "gates": report.gates,
        **report.records,
        "stage_s": report.stage_s,
        "warnings": [{"category": w.category.__name__, "message": str(w.message)}
                     for w in caught],
        "files": sorted(outputs),
        "wall_time_s": time.perf_counter() - t0,
        # the process's peak resident memory so far, in MB (Linux: ru_maxrss in KB)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy_version": np.__version__, "scipy_version": scipy.__version__,
        **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        **_blas_threads(),
    }
    if error is not None:
        manifest["error"] = {"code": error.code, "message": str(error),
                             "module": _raising_module(error)}
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    if error is not None:
        raise error
    return (0 if report.all_pass else 1), manifest


def _apply_overrides(cfg: dict, pairs) -> None:
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {key}: {part!r} is not an object")
        node[parts[-1]] = value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fraccalderon",
                                     description="fractional exterior-problem laboratory")
    parser.add_argument("pipeline", choices=PIPELINES)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE",
                        help="override a scalar config field (dotted path)")
    parser.add_argument("--output-dir", default=None)
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"CONFIG_INVALID: {exc}", file=sys.stderr)
        return 2
    try:
        if not isinstance(cfg, dict):
            raise ConfigError(f"{args.config}: the top level of a config must be a JSON "
                              f"object, got {type(cfg).__name__}")
        _apply_overrides(cfg, args.overrides)
        if cfg.setdefault("pipeline", args.pipeline) != args.pipeline:
            raise ConfigError(f"the config runs pipeline {cfg['pipeline']!r}, not the "
                              f"{args.pipeline!r} asked for")
        code, manifest = run(cfg, output_dir=args.output_dir)
    except ConfigError as exc:
        print(f"CONFIG_INVALID: {exc}", file=sys.stderr)
        return 2
    except FracCalderonError as exc:
        print(f"{_raising_module(exc)}: {exc.code}: {exc}", file=sys.stderr)
        return 4
    for name, gate in manifest["gates"].items():
        status = "PASS" if gate["pass"] else "FAIL"
        print(f"[{status}] {name}: value={gate['value']:.6g} threshold={gate['threshold']:.6g}")
    print(f"manifest: {Path(args.output_dir or cfg.get('output_dir', 'out')) / 'manifest.json'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
