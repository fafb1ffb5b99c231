"""One benchmark process: set up as a CLI run does, then do one operation.

Usage: ``python3 perfbench/child.py SPEC_JSON T_SPAWN``.  SPEC_JSON names
the mode (``probe``: set-up only; ``cli``: ``fraccalderon.cli.main`` on a
config, as the ``fraccalderon`` command runs it; ``noise``: one operator
and reference system serving several noisy reconstructions), its inputs,
whether to trace, and where to write the timing record.  T_SPAWN is the
parent's ``time.monotonic()`` just before it started this process; on Linux
that clock is shared between processes, so set-up includes interpreter
start.
"""

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path


def _environment() -> dict:
    import numpy as np
    import scipy

    from fraccalderon import _kernels

    def blas(show_config):
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "backend": _kernels.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _noise_study(cfg: dict, out_dir: Path, seeds: list) -> int:
    """Reconstruct from several noise draws against one operator and one
    reference system; per draw, write the estimate and a status record."""
    import numpy as np

    from fraccalderon import calderon, dirichlet, fracop, grid as gridmod

    g = cfg["grid"]
    grid = gridmod.build_grid(g["dim"], g["h"], g["R"], g["omega"], g["support"],
                              g.get("windows", {}))
    op = fracop.assemble_quadrature(grid, cfg["s"])
    q_ref = dirichlet.potential_from_spec(grid, cfg["potential_ref"])
    q_true = dirichlet.potential_from_spec(grid, cfg["potential_true"])
    sys_ref = dirichlet.assemble_system(op, q_ref)
    sys_true = dirichlet.assemble_system(op, q_true)
    truth = q_true.values - q_ref.values
    inv = cfg["invert"]
    draws = []
    for seed in seeds:
        rec = {"seed": seed, "error": None, "iterations": None}
        # one draw failing must not stop the others: record it and go on
        try:
            meas = calderon.simulate_measurements(
                sys_true, sys_ref, cfg["source_window"], cfg["observation_window"],
                sigma=cfg["noise"]["sigma"], seed=seed)
            out = calderon.reconstruct_potential(
                meas, sys_ref, iterations=inv["iterations"], mode=inv["mode"],
                clean_beta=inv["clean_beta"])
            rec["iterations"] = len(out["diagnostics"]["iterations"])
            with open(out_dir / f"draw_{seed}.csv", "w") as fh:
                fh.write("q_diff_true,q_diff_estimate\n")
                for t, e in zip(truth, np.asarray(out["q_diff"])):
                    fh.write("%.17g,%.17g\n" % (t, e))
        except Exception:
            rec["error"] = traceback.format_exc()
        draws.append(rec)
    (out_dir / "draws.json").write_text(json.dumps(draws, indent=1))
    return 0 if all(d["error"] is None for d in draws) else 1


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    rec = {"t_spawn": float(sys.argv[2]), "exit_code": None}
    try:
        rec["t_import0"] = time.monotonic()
        import fraccalderon.cli as cli
        rec["t_import1"] = time.monotonic()
        tracer = None
        if spec["trace"]:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        # the CLI validates the config itself, inside the timed solve, so
        # set-up stops at reading it and importing the validator
        import jsonschema  # noqa: F401
        cfg = json.loads(Path(spec["config"]).read_text())
        import numpy as np
        from scipy import linalg
        linalg.eigh(np.eye(4))          # the first LAPACK call
        rec["t_setup"] = time.monotonic()

        out_dir = Path(spec["output_dir"])
        if spec["mode"] == "probe":
            code = 0
        elif spec["mode"] == "cli":
            argv = [spec["pipeline"], "--config", spec["config"], "--output-dir", str(out_dir)]
            for pair in spec.get("sets", []):
                argv += ["--set", pair]
            code = cli.main(argv)
        else:
            cli.validate_config(cfg)
            code = _noise_study(cfg, out_dir, spec["seeds"])
        rec["t_end"] = time.monotonic()
        rec["exit_code"] = code
        if tracer is not None:
            rec["trace"] = tracer.summary()
        if spec.get("env"):
            rec["env"] = _environment()
        return code
    finally:
        rec["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rec["t_record"] = time.monotonic()
        Path(spec["record"]).write_text(json.dumps(rec))


if __name__ == "__main__":
    sys.exit(main())
