"""Workloads, output checks and metric aggregation of the pipeline benchmark.

Every operation runs in a fresh process (``child.py``), one after another:
one closed-loop client.  A *batch* is the unit a timing sample is taken
over; its set-up and solve times are summed over its processes:

* ``invert2d``: one ``fraccalderon invert`` run on the 2D disc at h = 0.05;
* ``noise1d``: one process in which one operator and reference system serve
  ``NOISE_DRAWS`` noisy reconstructions on the 1D desk geometry, h = 0.005;
* ``desk1d``: one pass over the committed ``configs/*.json``, each run as
  its own ``fraccalderon <pipeline>`` process.

The parent never imports numpy, so its own memory does not count against
``peak_rss_mb``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import COUNTERS, span_names

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).resolve().parent / "child.py"

# end-to-end metric -> unit
END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB", "recon_err": "1"}

SETUP_PROBES = 4          # set-up-only processes per run where a batch is one process
NOISE_DRAWS = 4           # reconstructions per noise1d process
NOISE_SIGMA = 1e-3
RUN_BUDGET_S = 150.0      # start no batch that would end later than this
RUN_LIMIT_S = 170.0       # kill a process still running at this point
DESK_SEEDED = ("validate-op", "dnmap", "diffuse")   # pipelines that draw from `seed`
DESK_ERR_CONFIG = "invert_desk1d.json"               # desk1d's recon_err source

# grid spacing and the error above which an estimate is a wrong output
SCALES = {
    "invert2d": {"full": (0.05, 0.2), "tiny": (0.2, 1.0)},
    "noise1d": {"full": (0.005, 0.2), "tiny": (0.05, 0.5)},
}


def _disc(x, y, r):
    return {"type": "disc", "center": [x, y], "radius": r}


DESK1D_GRID = {
    "dim": 1, "R": 4.0,
    "omega": {"type": "interval", "bounds": [-1.0, 1.0]},
    "support": {"type": "interval", "bounds": [-2.0, 2.0]},
    "windows": {"W1": {"type": "interval", "bounds": [1.2, 1.8]},
                "W2": {"type": "interval", "bounds": [-1.8, -1.2]}},
}
DISC2D_GRID = {
    "dim": 2, "R": 3.0, "omega": _disc(0.0, 0.0, 1.0), "support": _disc(0.0, 0.0, 2.0),
    "windows": {"W1": _disc(1.5, 0.0, 0.35), "W2": _disc(-1.5, 0.0, 0.35)},
}


def per_layer_units() -> dict:
    """Per-layer metric -> (unit, better)."""
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_s"] = ("s", "lower")
        out[f"{name}.failed"] = ("count", "lower")
    out.update(COUNTERS)
    out["cli.import_s"] = ("s", "lower")
    out["traced.solve_s"] = ("s", "lower")
    return out


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


@dataclass
class Op:
    """One process: its timings, exit status and output check."""
    label: str
    out_dir: Path
    exit_code: int = None
    setup_s: float = math.nan
    solve_s: float = math.nan
    import_s: float = math.nan
    traced_wall_s: float = math.nan
    rss_mb: float = 0.0
    checked: bool = False       # outputs present and consistent
    message: str = ""
    record: dict = field(default_factory=dict)

    @property
    def ran(self) -> bool:
        """The process finished its operation (exit 0 or a gate verdict)."""
        return self.exit_code in (0, 1) and self.record.get("exit_code") is not None


def run_process(op_dir: Path, label: str, spec: dict, deadline: float) -> Op:
    """Run child.py on ``spec`` and wait for it; timings from its record."""
    out_dir = op_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = dict(spec, output_dir=str(out_dir), record=str(op_dir / "record.json"))
    (op_dir / "spec.json").write_text(json.dumps(spec, indent=1))
    op = Op(label, out_dir)
    with open(op_dir / "stdout.txt", "w") as so, open(op_dir / "stderr.txt", "w") as se:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(CHILD), str(op_dir / "spec.json"),
                                 repr(t_spawn)], stdout=so, stderr=se, cwd=ROOT,
                                env=_child_env())
        try:
            op.exit_code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            op.message = "timed out"
        finally:
            if proc.poll() is None:     # timed out or interrupted: leave nothing running
                proc.kill()
                proc.wait()
    t_exit = time.monotonic()
    rec_path = op_dir / "record.json"
    if not rec_path.exists():
        op.message = op.message or "no timing record"
        return op
    op.record = rec = json.loads(rec_path.read_text())
    rec["t_exit"] = t_exit
    op.rss_mb = rec.get("maxrss_mb", 0.0)
    if "t_end" in rec:
        # start-up before the operation plus interpreter exit after it
        op.setup_s = (rec["t_setup"] - t_spawn) + (t_exit - rec["t_record"])
        op.import_s = rec["t_import1"] - rec["t_import0"]
        op.traced_wall_s = rec["t_end"] - rec["t_import1"]
    if rec.get("exit_code") is None and not op.message:
        op.message = "crashed: " + (op_dir / "stderr.txt").read_text()[-400:]
    return op


def _finish(op: Op) -> None:
    """Solve time: the operation in its process plus checking its outputs."""
    rec = op.record
    if "t_end" in rec:
        op.solve_s = (rec["t_end"] - rec["t_setup"]) + (time.monotonic() - rec["t_exit"])


# ---------------------------------------------------------------- output checks

def read_csv(path: Path) -> list:
    """Float rows of a CSV written by the package; header and '#' lines skipped."""
    rows = []
    for line in path.read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            if rows:
                raise
    return rows


def relative_error(truth: list, estimate: list) -> float:
    """Relative weighted L2 error; the uniform cell weight cancels."""
    num = math.sqrt(sum((e - t) ** 2 for t, e in zip(truth, estimate)))
    den = math.sqrt(sum(t * t for t in truth))
    return num / den if den > 0 else num


def _g17(values) -> str:
    return ",".join("%.17g" % v for v in values)


def check_cli_outputs(op: Op, pipeline: str) -> dict:
    """Verify a CLI run's manifest and files.  Sets ``op.checked`` and returns
    the gate values, the reconstruction error (invert) and digest lines."""
    info = {"recon_err": None, "digest": []}
    if not op.ran:
        op.message = op.message or f"exit code {op.exit_code}"
        return info
    problems = []
    try:
        manifest = json.loads((op.out_dir / "manifest.json").read_text())
        gates = manifest["gates"]
        if manifest["pipeline"] != pipeline:
            problems.append(f"manifest pipeline {manifest['pipeline']!r}")
        if not gates:
            problems.append("no gates")
        if (op.exit_code == 0) != all(g["pass"] for g in gates.values()):
            problems.append(f"exit code {op.exit_code} disagrees with the gates")
        problems += [f"gate {k} is not finite" for k, g in gates.items()
                     if not math.isfinite(g["value"])]
        for name in manifest["files"]:
            path = op.out_dir / name
            if path.suffix == ".csv":
                rows = read_csv(path)
                if not rows or not all(math.isfinite(v) for r in rows for v in r):
                    problems.append(f"{name} is empty or not finite")
            elif not path.exists():
                problems.append(f"{name} missing")
        info["digest"] = [f"{op.label}:{k}={g['value']:.17g}" for k, g in sorted(gates.items())]
        if pipeline == "invert":
            rows = read_csv(op.out_dir / "q_estimate.csv")
            estimate = [r[2] for r in rows]
            err = relative_error([r[1] for r in rows], estimate)
            gate = gates["reconstruction_error"]["value"]
            if not abs(err - gate) <= 1e-9 * gate:
                problems.append(f"q_estimate.csv error {err!r} != gate {gate!r}")
            info["recon_err"] = gate
            info["digest"].append(f"{op.label}:estimate={_g17(estimate)}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    op.checked = not problems
    if op.checked and op.exit_code == 1:
        problems = [f"gate {k} failed: {g['value']:.6g} > {g['threshold']:.6g}"
                    for k, g in gates.items() if not g["pass"]]
    op.message = "; ".join(problems)
    return info


# ------------------------------------------------------------------- workloads

@dataclass
class Batch:
    ops: list
    attempted: int = 0
    failed: int = 0
    recon_errs: list = field(default_factory=list)
    digest: list = field(default_factory=list)
    checked: bool = True

    def trace(self) -> dict:
        out = {}
        for op in self.ops:
            for k, v in op.record.get("trace", {}).items():
                out[k] = out.get(k, 0) + v
        return out


def cli_batch(batch_dir: Path, runs: list, trace: bool, env: bool, deadline: float) -> Batch:
    """Run ``(config path, --set pairs)`` CLI operations one after another.

    An operation fails when its process exits other than 0 (a failed gate,
    an invalid config, a numeric error, a crash) or its outputs do not check
    out; ``checked`` stays true while every process that finished wrote
    consistent outputs.
    """
    batch = Batch(ops=[])
    for cfg_path, sets in runs:
        pipeline = json.loads(Path(cfg_path).read_text())["pipeline"]
        op = run_process(batch_dir / Path(cfg_path).stem, Path(cfg_path).name,
                         {"mode": "cli", "pipeline": pipeline, "config": str(cfg_path),
                          "sets": sets, "trace": trace, "env": env and not batch.ops},
                         deadline)
        info = check_cli_outputs(op, pipeline)
        _finish(op)
        batch.ops.append(op)
        batch.attempted += 1
        batch.failed += int(op.exit_code != 0 or not op.checked)
        batch.checked &= op.checked or not op.ran
        batch.digest += info["digest"]
        if info["recon_err"] is not None and (
                len(runs) == 1 or Path(cfg_path).name == DESK_ERR_CONFIG):
            batch.recon_errs.append(info["recon_err"])
    return batch


def _write_config(run_dir: Path, cfg: dict) -> Path:
    path = run_dir / "workload.json"
    path.write_text(json.dumps(cfg, indent=1))
    return path


def _prepare_invert2d(run_dir: Path, seed: int, scale: str) -> dict:
    h, err_limit = SCALES["invert2d"][scale]
    rng = random.Random(seed)
    # the seed moves the true bump by under a fifth of a cell
    center = [rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01)]
    cfg = {"schema_version": 1, "pipeline": "invert", "grid": dict(DISC2D_GRID, h=h),
           "s": 0.5,
           "potential_ref": {"type": "constant", "value": 0.0},
           "potential_true": {"type": "gaussian", "amplitude": 0.5, "center": center,
                              "width": 0.5},
           "source_window": "W1", "observation_window": "W2",
           "noise": {"sigma": 0.0, "seed": seed},
           "invert": {"mode": "linearized", "iterations": 2, "clean_beta": 0.1},
           "tolerances": {"reconstruction_error": err_limit},
           "seed": seed}
    path = _write_config(run_dir, cfg)
    return {"config": path, "label": path.name, "seed": seed}


def _batch_invert2d(batch_dir, inputs, index, trace, env, deadline) -> Batch:
    return cli_batch(batch_dir, [(inputs["config"], [])], trace, env, deadline)


def _prepare_noise1d(run_dir: Path, seed: int, scale: str) -> dict:
    h, err_limit = SCALES["noise1d"][scale]
    cfg = {"schema_version": 1, "pipeline": "invert", "grid": dict(DESK1D_GRID, h=h),
           "s": 0.5,
           "potential_ref": {"type": "constant", "value": 0.0},
           "potential_true": {"type": "gaussian", "amplitude": 0.5, "center": 0.0,
                              "width": 0.4},
           "source_window": "W1", "observation_window": "W2",
           "noise": {"sigma": NOISE_SIGMA, "seed": seed},
           "invert": {"mode": "linearized", "iterations": 4, "clean_beta": 0.1},
           "seed": seed}
    return {"config": _write_config(run_dir, cfg), "label": "noise", "seed": seed,
            "err_limit": err_limit}


def _batch_noise1d(batch_dir, inputs, index, trace, env, deadline) -> Batch:
    """One process; draw seeds follow from the workload seed and batch index."""
    first = inputs["seed"] * 10_000 + index * NOISE_DRAWS
    seeds = list(range(first, first + NOISE_DRAWS))
    op = run_process(batch_dir, "noise", {"mode": "noise", "config": str(inputs["config"]),
                                          "seeds": seeds, "trace": trace, "env": env},
                     deadline)
    batch = Batch(ops=[op], attempted=len(seeds))
    problems = []
    try:
        draws = json.loads((op.out_dir / "draws.json").read_text()) if op.ran else []
        for d in draws:
            if d["error"] is not None:
                problems.append(f"draw {d['seed']}: {d['error'].strip().splitlines()[-1]}")
                continue
            rows = read_csv(op.out_dir / f"draw_{d['seed']}.csv")
            estimate = [r[1] for r in rows]
            err = relative_error([r[0] for r in rows], estimate)
            if not (math.isfinite(err) and err <= inputs["err_limit"]
                    and 1 <= d["iterations"] <= 4):
                problems.append(f"draw {d['seed']}: error {err!r}, "
                                f"{d['iterations']} iterations")
                continue
            batch.recon_errs.append(err)
            batch.digest.append(f"draw {d['seed']}:estimate={_g17(estimate)}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"{type(exc).__name__}: {exc}")
    _finish(op)
    batch.failed = batch.attempted - len(batch.recon_errs)
    op.checked = op.ran and not problems
    batch.checked = op.checked or not op.ran
    op.message = op.message or "; ".join(problems)
    return batch


def _prepare_desk1d(run_dir: Path, seed: int, scale: str) -> dict:
    runs = []
    for path in sorted(CONFIGS.glob("*.json")):
        pipeline = json.loads(path.read_text())["pipeline"]
        runs.append((path, [f"seed={seed}"] if pipeline in DESK_SEEDED else []))
    return {"runs": runs, "seed": seed}


def _batch_desk1d(batch_dir, inputs, index, trace, env, deadline) -> Batch:
    return cli_batch(batch_dir, inputs["runs"], trace, env, deadline)


# name -> (prepare, batch, set-up-only processes per run)
WORKLOADS = {
    "invert2d": (_prepare_invert2d, _batch_invert2d, SETUP_PROBES),
    "noise1d": (_prepare_noise1d, _batch_noise1d, SETUP_PROBES),
    "desk1d": (_prepare_desk1d, _batch_desk1d, 0),
}


# ------------------------------------------------------------------------ runs

def _median(values: list):
    values = [v for v in values if v is not None and math.isfinite(v)]
    return statistics.median(values) if values else None


def _sum_of_medians(ops: list, attr: str):
    """Per process of a batch (by label), the median over the run; summed.
    A slow outlier in one process does not move the sum."""
    by_label = {}
    for op in ops:
        by_label.setdefault(op.label, []).append(getattr(op, attr))
    medians = [_median(v) for v in by_label.values()]
    return None if None in medians or not medians else sum(medians)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str = "full") -> dict:
    """Run one workload for ``seconds`` (at least one batch); returns the
    result record with its metrics, counts, digest and environment."""
    prepare, run_batch, n_probes = WORKLOADS[name]
    run_dir = OUT / f"{name}-{scale}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    inputs = prepare(run_dir, seed, scale)
    t0 = time.monotonic()
    limit = t0 + RUN_LIMIT_S

    probes = []
    if not trace:
        for k in range(n_probes):
            probes.append(run_process(run_dir / f"probe{k}", inputs["label"],
                                      {"mode": "probe", "config": str(inputs["config"]),
                                       "trace": False, "env": k == 0}, limit))
    batches, last = [], 0.0
    while not batches or (time.monotonic() - t0 < seconds
                          and time.monotonic() - t0 + last < RUN_BUDGET_S):
        tb = time.monotonic()
        batches.append(run_batch(run_dir / f"batch{len(batches)}", inputs, len(batches),
                                 trace, not probes and not batches, limit))
        last = time.monotonic() - tb

    ops = probes + [op for b in batches for op in b.ops]
    probe_ok = all(math.isfinite(p.setup_s) and p.exit_code == 0 for p in probes)
    batch_digests = [hashlib.sha256("\n".join(b.digest).encode()).hexdigest()
                     for b in batches]
    result = {
        "workload": name, "scale": scale, "seed": seed, "trace": trace,
        "env": next((op.record["env"] for op in ops if "env" in op.record), None),
        "batches": len(batches), "setup_probes": len(probes),
        "attempted": sum(b.attempted for b in batches),
        "failed": sum(b.failed for b in batches),
        "correct": probe_ok and all(b.checked for b in batches),
        "digest": hashlib.sha256("\n".join(batch_digests).encode()).hexdigest(),
        "batch_digests": batch_digests,
        "failures": [f"{op.label}: {op.message}" for op in ops
                     if op.message or (op.exit_code not in (0, None))],
        "samples": {
            "label": [op.label for op in ops],
            "setup_s": [op.setup_s for op in ops],
            "solve_s": [None] * len(probes) + [op.solve_s for op in ops[len(probes):]],
            "rss_mb": [op.rss_mb for op in ops],
            "recon_err": [e for b in batches for e in b.recon_errs],
        },
    }
    if trace:
        keys = per_layer_units()
        traces = [b.trace() for b in batches]
        metrics = {k: _median([t.get(k, 0) for t in traces]) for k in keys}
        metrics["cli.import_s"] = _sum_of_medians(ops, "import_s")
        metrics["traced.solve_s"] = _sum_of_medians(ops, "solve_s")
        result["traced_wall_s"] = [sum(op.traced_wall_s for op in b.ops) for b in batches]
        result["self_s_sum"] = [sum(v for k, v in t.items() if k.endswith(".self_s"))
                                for t in traces]
        result["metrics"] = {k: (metrics[k], keys[k][0]) for k in keys}
    else:
        s = result["samples"]
        batch_ops = ops[len(probes):]
        metrics = {"setup_s": _sum_of_medians(ops, "setup_s"),
                   "solve_s": _sum_of_medians(batch_ops, "solve_s"),
                   "peak_rss_mb": max(s["rss_mb"]) if s["rss_mb"] else None,
                   "recon_err": statistics.mean(s["recon_err"]) if s["recon_err"] else None}
        result["metrics"] = {k: (metrics[k], END_TO_END[k]) for k in END_TO_END}
    result["correct"] &= all(v is not None for v, _ in result["metrics"].values())
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, default=str))
    return result
