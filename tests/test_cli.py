import copy
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy
from jsonschema.validators import validator_for

from fraccalderon import build_grid
from fraccalderon.cli import (CONFIG_SCHEMA, DECAY_TIMES, PIPELINES, TOLERANCES,
                              UCP_SMOOTH_FLOOR, _build, main, run, validate_config)
from fraccalderon.calderon import reconstruct_potential
from fraccalderon.dirichlet import assemble_system, dirichlet_spectrum, potential_from_spec
from fraccalderon.dnmap import assemble_dn
from fraccalderon.errors import ConfigError, IllConditionedWarning
from fraccalderon.extension import trace_ladder
from fraccalderon.runge import DEFAULT_ALPHAS

from conftest import convolve_long_pad

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def load_config(name):
    return json.loads((CONFIG_DIR / name).read_text())


def _refusal(out, err):
    """The error of the manifest that a config refused by the schema leaves
    in ``out``: no gates, stages or files, and the message printed as
    ``err``."""
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["gates"], manifest["stage_s"], manifest["files"]) == ({}, {}, [])
    error = manifest["error"]
    assert error["code"] == "CONFIG_INVALID" and error["module"] == "fraccalderon.cli"
    assert err == f"CONFIG_INVALID: {error['message']}\n"
    return error


def small_invert_config():
    cfg = load_config("invert_desk1d.json")
    return cfg


def test_schema_rejects_bad_s():
    cfg = small_invert_config()
    cfg["s"] = 1.5
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_schema_rejects_unknown_keys():
    cfg = small_invert_config()
    cfg["mystery_knob"] = 1
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg = small_invert_config()
    cfg["grid"]["shape"] = "weird"
    with pytest.raises(ConfigError, match=r"^grid\.shape: .*\('shape' was unexpected\)"):
        validate_config(cfg)
    # extend and diffuse read no keys of their own: extend's ladder is the
    # one trace_ladder works out from h, diffuse's times are DECAY_TIMES
    for name, key, value in (("extend_desk1d.json", "extend", {"ucp_window": "W1"}),
                             ("diffuse_desk1d.json", "diffuse", {"t_values": [0.1]})):
        cfg = load_config(name)
        cfg[key] = value
        with pytest.raises(ConfigError, match=rf"^{key}: .*\('{key}' was unexpected\)"):
            validate_config(cfg)


def test_invert_pipeline_end_to_end(tmp_path):
    cfg = small_invert_config()
    code, manifest = run(cfg, output_dir=str(tmp_path))
    assert code == 0
    assert (tmp_path / "q_estimate.csv").exists()
    # linearized mode computes no Runge residuals, so it writes no residuals.csv
    assert not (tmp_path / "residuals.csv").exists()
    assert (tmp_path / "manifest.json").exists()
    assert manifest["gates"]["reconstruction_error"]["pass"]


def test_bit_reproducibility(tmp_path):
    cfg = small_invert_config()
    code1, man1 = run(cfg, output_dir=str(tmp_path / "a"))
    code2, man2 = run(cfg, output_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "q_estimate.csv").read_bytes() \
        == (tmp_path / "b" / "q_estimate.csv").read_bytes()
    # wall times and peak memory vary between runs; every other field repeats
    for man in (man1, man2):
        assert man.pop("wall_time_s") > 0 and man.pop("peak_rss_mb") > 0
        assert man.pop("stage_s")
    assert man1 == man2


def test_invert_manifest_records_stage_seconds(tmp_path):
    # the wall seconds of operator assembly, measurement, reconstruction and
    # output writing, each positive, in the manifest on disk too; the stages
    # run one after another inside the run, so they sum to at most its wall
    # time
    code, manifest = run(small_invert_config(), output_dir=str(tmp_path))
    stages = manifest["stage_s"]
    assert list(stages) == ["assembly", "measurement", "reconstruction", "output"]
    assert all(seconds > 0 for seconds in stages.values())
    assert sum(stages.values()) <= manifest["wall_time_s"]
    assert json.loads((tmp_path / "manifest.json").read_text())["stage_s"] == stages


def test_invert_manifest_records_systems_and_iterations(tmp_path):
    # each assembled system's factorization, rcond and 1-norm, and each
    # iteration's weight, data norm and step norm, identical across two runs;
    # the reference's 1-norm is that of its gathered matrix
    cfg = small_invert_config()
    manifests = [run(cfg, output_dir=str(tmp_path / name))[1] for name in "ab"]
    grid, op = _build(cfg)
    sys_ref = assemble_system(op, potential_from_spec(grid, cfg["potential_ref"]))
    for man in manifests:
        assert set(man["systems"]) == {"reference", "true"}
        assert man["systems"]["reference"]["anorm"] == sys_ref.anorm
        assert sys_ref.anorm == pytest.approx(np.linalg.norm(sys_ref.interior_matrix, 1),
                                              rel=1e-14)
        assert len(man["iterations"]) == cfg["invert"]["iterations"]
        facts = list(man["systems"].values()) + [
            t for it in man["iterations"] for t in it["trials"]]
        assert len(facts) >= 2 + len(man["iterations"])
        for fact in facts:
            assert fact["factorization"] in ("cholesky", "lu") and fact["rcond"] > 0
            assert fact["anorm"] > 0
        for it in man["iterations"]:
            assert it["beta"] > 0 and it["data_norm"] > 0 and it["step_norm"] >= 0
            # the step halved before the accepted trial (4: every trial
            # failed); every trial here is finite, so each assembled a system
            assert it["halvings"] in range(4) and len(it["trials"]) == it["halvings"] + 1
    on_disk = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert on_disk["systems"] == manifests[0]["systems"]
    assert on_disk["iterations"] == manifests[0]["iterations"]
    assert manifests[0]["systems"] == manifests[1]["systems"]
    assert manifests[0]["iterations"] == manifests[1]["iterations"]


@pytest.mark.parametrize("name,message", [
    ("invert_desk1d_constructive.json", "raised to the resolvable floor"),
    ("runge_desk1d.json", "the exterior control problem is severely ill-posed"),
])
def test_manifest_records_warnings(name, message, tmp_path):
    # the warnings the pipeline shows, as category and message, in the
    # manifest and on disk; they are still shown after the run records them
    with pytest.warns(IllConditionedWarning) as shown:
        code, manifest = run(load_config(name), output_dir=str(tmp_path))
    assert code == 0
    recorded = manifest["warnings"]
    assert recorded == [{"category": w.category.__name__, "message": str(w.message)}
                        for w in shown]
    assert recorded and all(r["category"] == "IllConditionedWarning" for r in recorded)
    assert any(message in r["message"] for r in recorded)
    assert json.loads((tmp_path / "manifest.json").read_text())["warnings"] == recorded


def test_manifest_records_no_warnings_for_a_clean_run(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, manifest = run(small_invert_config(), output_dir=str(tmp_path))
    assert code == 0 and manifest["warnings"] == []


def test_warnings_still_reach_stderr(tmp_path):
    # a CLI process prints the warning it records
    cfg = CONFIG_DIR / "invert_desk1d_constructive.json"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "fraccalderon.cli", "invert", "--config",
                           str(cfg), "--output-dir", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads((tmp_path / "manifest.json").read_text())["warnings"]
    assert len(recorded) == 1
    assert f"IllConditionedWarning: {recorded[0]['message']}" in proc.stderr


def _disc(x, r):
    return {"type": "disc", "center": [x, 0.0], "radius": r}


def _disc_invert_config(h):
    """The 2D disc of the benchmark at spacing h: clean data, linearized,
    2 sweeps."""
    return {"schema_version": 1, "pipeline": "invert",
            "grid": {"dim": 2, "h": h, "R": 3.0, "omega": _disc(0.0, 1.0),
                     "support": _disc(0.0, 2.0),
                     "windows": {"W1": _disc(1.5, 0.35), "W2": _disc(-1.5, 0.35)}},
            "s": 0.5, "potential_ref": {"type": "constant", "value": 0.0},
            "potential_true": {"type": "gaussian", "amplitude": 0.5, "center": [0.0, 0.0],
                               "width": 0.5},
            "source_window": "W1", "observation_window": "W2",
            "invert": {"mode": "linearized", "iterations": 2, "clean_beta": 0.1},
            "tolerances": {"reconstruction_error": 1.0}}


def test_invert_reproducible_across_blas_threads(tmp_path):
    # a 2D invert at h = 0.1 in fresh processes with 1 and 2 BLAS threads,
    # set in each child's environment only.  At one thread count the
    # estimate repeats to the byte (the Newton loop's stop when every trial
    # fails relies on a repeated sweep being exact); across counts it moves
    # by rounding, measured 4.4e-12 relative max-norm, bound 5e-11
    path = tmp_path / "invert2d.json"
    path.write_text(json.dumps(_disc_invert_config(0.1)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    estimates = {}
    for threads in ("1", "2"):
        for run_dir in (tmp_path / f"{threads}a", tmp_path / f"{threads}b"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "fraccalderon.cli", "invert", "--config",
                            str(path), "--output-dir", str(run_dir)],
                           env=env, capture_output=True, check=True)
            estimates.setdefault(threads, []).append((run_dir / "q_estimate.csv").read_bytes())
    for runs in estimates.values():
        assert runs[0] == runs[1]
    one, two = (np.loadtxt(io.BytesIO(runs[0]), delimiter=",", skiprows=1)[:, 2]
                for runs in estimates.values())
    assert np.max(np.abs(one - two)) <= 5e-11 * np.max(np.abs(one))


def test_invert_memory_one_factor_at_a_time(tmp_path):
    # traced peak of a whole 2D invert (cli.run on the setup_2d disc, h =
    # 0.1, n_int = 316), in n_int x n_int float arrays, with the config
    # schema already loaded by this module.  Measured 2.09: the
    # reconstruction (2.05) sets it; the true system (measured and freed)
    # and the reconstruction each hold one Dirichlet factor at a time, and
    # the operator's assembly peaks at 0.88 (2.52 while its FFTs were
    # padded to 3 m - 2 points per axis, when it set the peak at 2.55).
    # Holding the true and reference factors together, and the reference
    # through the reconstruction, read 3.08.  The bound leaves 0.07.
    grid_cfg = _disc_invert_config(0.1)["grid"]
    grid = build_grid(*(grid_cfg[k] for k in ("dim", "h", "R", "omega", "support", "windows")))
    n2_bytes = 8 * len(grid.interior) ** 2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        code, _ = run(_disc_invert_config(0.1), output_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak / n2_bytes <= 2.16


def _count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` from every ``fraccalderon`` module
    that binds it, by wrapping it there."""
    real, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        if (getattr(loaded, "__name__", "").startswith("fraccalderon")
                and getattr(loaded, name, None) is real):
            monkeypatch.setattr(loaded, name, counting)
    return calls


def test_invert_factors_each_system_once(tmp_path, monkeypatch):
    # a clean 2-sweep linearized 2D invert (h = 0.1) factors the true
    # system, the reference and one trial per sweep, once each, and solves
    # one window per measurement, per system's source window and per
    # sweep's observation window: 4 factorizations and 6 window solves (5
    # and 7 while the reference was factored, and its source window solved,
    # once more to simulate the data)
    from fraccalderon import dirichlet
    assembled = _count_calls(monkeypatch, dirichlet, "assemble_system")
    solved = _count_calls(monkeypatch, dirichlet, "solve_window")
    code, manifest = run(_disc_invert_config(0.1), output_dir=str(tmp_path))
    assert code == 0
    trials = [t for it in manifest["iterations"] for t in it["trials"]]
    assert len(manifest["iterations"]) == len(trials) == 2
    assert len(assembled) == 4 and len(solved) == 6
    # the measurement solves the true system, the reconstruction the rest
    assert solved[0] is not solved[1] and solved[1] is solved[2]


def test_shortest_fft_length_moves_the_estimate_by_rounding(tmp_path, monkeypatch):
    # the 2D invert at h = 0.1 with the operator's FFTs at 2 m - 1 points per
    # axis (128^2) against the same at 3 m - 2 (256^2): the estimate and the
    # reconstruction error move by rounding.  Measured: estimate 4.7e-12
    # relative max-norm, error 6.7e-12 relative; on the benchmark's h = 0.05
    # disc (seed 1) 5.6e-11 and 3.4e-11
    from fraccalderon import fracop
    short = run(_disc_invert_config(0.1), output_dir=str(tmp_path / "short"))[1]
    monkeypatch.setattr(fracop, "offset_convolve", convolve_long_pad)
    long = run(_disc_invert_config(0.1), output_dir=str(tmp_path / "long"))[1]
    a, b = (np.loadtxt(tmp_path / name / "q_estimate.csv", delimiter=",", skiprows=1)[:, 2]
            for name in ("short", "long"))
    assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))
    errors = [man["gates"]["reconstruction_error"]["value"] for man in (short, long)]
    assert abs(errors[0] - errors[1]) <= 1e-9 * errors[1]


def test_q_estimate_names_every_axis(tmp_path):
    # the disc of the 2D benchmark at h = 0.2; the estimate keeps columns 2
    # and 3, and in 2D the second axis follows as y
    cfg = _disc_invert_config(0.2)
    grid_cfg = cfg["grid"]
    grid = build_grid(*(grid_cfg[k] for k in ("dim", "h", "R", "omega", "support", "windows")))
    for name, cfg, header, coords in [
            ("2d", cfg, "x,q_diff_true,q_diff_estimate,y", grid.coords[grid.interior]),
            ("1d", small_invert_config(), "x,q_diff_true,q_diff_estimate", None)]:
        code, manifest = run(cfg, output_dir=str(tmp_path / name))
        assert code == 0
        path = tmp_path / name / "q_estimate.csv"
        assert path.read_text().splitlines()[0] == header
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
        assert data.shape[1] == len(header.split(","))
        if coords is not None:
            assert np.array_equal(data[:, [0, 3]], coords)


def _ball(x, r):
    return {"type": "disc", "center": [x, 0.0, 0.0], "radius": r}


def test_invert_3d_ball_through_cli(tmp_path):
    # n = 3 runs the code path of 1D and 2D: a ball of radius 0.5 in a
    # support ball of radius 1, h = 0.25 (32 interior nodes, 280 non-FAR
    # nodes).  Measured recon_err 0.1225 in 0.3 s of wall time; the gate
    # is the default 0.15
    grid_cfg = {"dim": 3, "h": 0.25, "R": 1.5, "omega": _ball(0.0, 0.5),
                "support": _ball(0.0, 1.0),
                "windows": {"W1": _ball(0.75, 0.3), "W2": _ball(-0.75, 0.3)}}
    cfg = {"schema_version": 1, "pipeline": "invert", "grid": grid_cfg, "s": 0.5,
           "potential_ref": {"type": "constant", "value": 0.0},
           "potential_true": {"type": "gaussian", "amplitude": 0.5,
                              "center": [0.0, 0.0, 0.0], "width": 0.5},
           "source_window": "W1", "observation_window": "W2",
           "invert": {"mode": "linearized", "iterations": 2, "clean_beta": 0.1},
           "tolerances": {"reconstruction_error": 0.15}}
    path = tmp_path / "ball3d.json"
    path.write_text(json.dumps(cfg))
    assert main(["invert", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "q_estimate.csv").read_text().splitlines()
    assert lines[0] == "x,q_diff_true,q_diff_estimate,y,z"
    assert len(lines) == 1 + 32


def test_manifest_records_libraries_and_blas_threads(tmp_path, monkeypatch):
    # the versions and thread settings are present, null when unset, and
    # the same across two runs of one config
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    keys = ("numpy_version", "scipy_version", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    facts = []
    for name in ("a", "b"):
        run(small_invert_config(), output_dir=str(tmp_path / name))
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        facts.append({key: manifest[key] for key in keys})
    assert facts[0] == facts[1]
    assert facts[0]["numpy_version"] == np.__version__
    assert facts[0]["scipy_version"] == scipy.__version__
    assert facts[0]["OPENBLAS_NUM_THREADS"] == "1"
    assert facts[0]["OMP_NUM_THREADS"] is None


def test_manifest_records_blas_threads_in_force(tmp_path, monkeypatch):
    # the thread count that numpy's and scipy's OpenBLAS each use, read from
    # the libraries: 1 in a child process started with OPENBLAS_NUM_THREADS=1.
    # A missing library or getter records null and the run still passes
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    subprocess.run([sys.executable, "-m", "fraccalderon.cli", "invert", "--config",
                    str(CONFIG_DIR / "invert_desk1d.json"), "--output-dir",
                    str(tmp_path / "child")], env=env, capture_output=True, check=True)
    manifest = json.loads((tmp_path / "child" / "manifest.json").read_text())
    assert manifest["numpy_blas_threads"] == manifest["scipy_blas_threads"] == 1
    import fraccalderon.cli as cli
    numpy_libs, scipy_libs = cli._BLAS_LIBS.values()
    monkeypatch.setattr(cli, "_BLAS_LIBS", {
        "numpy_blas_threads": (*numpy_libs[:2], "no-such-library-", numpy_libs[3]),
        "scipy_blas_threads": (*scipy_libs[:3], "no_such_getter")})
    code, manifest = run(small_invert_config(), output_dir=str(tmp_path / "missing"))
    assert code == 0
    assert manifest["numpy_blas_threads"] is None and manifest["scipy_blas_threads"] is None


def test_extend_smooth_ucp_gate(tmp_path):
    # on the committed config the stack's smallest singular value reads
    # 6.9e-19, the smooth candidates' 1.16e-8; at h = 0.01 the smooth candidates
    # double and their sigma_min falls to 7e-14, which the floor rejects
    cfg = load_config("extend_desk1d.json")
    for h, code_want in ((0.02, 0), (0.01, 1)):
        cfg["grid"]["h"] = h
        code, manifest = run(cfg, output_dir=str(tmp_path / str(h)))
        gates = manifest["gates"]
        assert code == code_want
        assert gates["ucp_smooth_sigma_min"]["pass"] == (code_want == 0)
        assert gates["ucp_smooth_sigma_min"]["threshold"] == -UCP_SMOOTH_FLOOR
    assert -gates["ucp_smooth_sigma_min"]["value"] < 1e-12


def test_gate_failure_exit_code(tmp_path):
    cfg = small_invert_config()
    cfg["tolerances"]["reconstruction_error"] = 1e-9
    code, manifest = run(cfg, output_dir=str(tmp_path))
    assert code == 1
    assert not manifest["gates"]["reconstruction_error"]["pass"]


def test_main_cli_flow(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_invert_config()))
    code = main(["invert", "--config", str(cfg_path),
                 "--output-dir", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] reconstruction_error" in out


def test_main_set_override_changes_hash(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_invert_config()))
    main(["invert", "--config", str(cfg_path), "--output-dir", str(tmp_path / "a")])
    main(["invert", "--config", str(cfg_path), "--output-dir", str(tmp_path / "b"),
          "--set", "noise.seed=11"])
    man_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    man_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert man_a["config_hash"] != man_b["config_hash"]


def test_main_invalid_config_exit_2(tmp_path, capsys):
    # an out-of-range s; potential specs with a misspelt key, a missing key
    # or a node list of the wrong length; a disc key on an interval geometry;
    # --set through a non-object.  Where given, the message names the fault.
    cases = [
        (lambda cfg: cfg.update(s=2.0), [], None),
        (lambda cfg: cfg["potential_true"].update(centre=cfg["potential_true"].pop("center")),
         [], "('centre' was unexpected)"),
        (lambda cfg: cfg["potential_true"].pop("width"), [], "'width' is a required property"),
        (lambda cfg: cfg.update(potential_true={"type": "nodes", "values": [0.5] * 7}),
         [], "nodes potential"),
        (lambda cfg: cfg["grid"]["omega"].update(radius=1.0), [], "('radius' was unexpected)"),
        (lambda cfg: None, ["--set", "potential_true.centre=0.1"], "('centre' was unexpected)"),
        (lambda cfg: None, ["--set", "s.x=1"], "'s' is not an object"),
        (lambda cfg: None, ["--set", "noise.seed"], "--set expects key=value, got 'noise.seed'"),
        # grid and window faults: a 2-D disc center and a 2-axis rect on the
        # 1D grid, a window that captures no node, a misspelt window name
        (lambda cfg: cfg["grid"]["windows"].update(
            W1={"type": "disc", "center": [1.5, 0.0], "radius": 0.3}), [], "has 2 axes"),
        (lambda cfg: cfg["grid"].update(omega={"type": "rect", "bounds": [[-1, 1], [-1, 1]]}),
         [], "has 2 axes"),
        (lambda cfg: cfg["grid"]["windows"].update(
            W1={"type": "interval", "bounds": [1.501, 1.502]}), [], "captured zero nodes"),
        (lambda cfg: cfg.update(source_window="W9"), [], "unknown region or window 'W9'"),
        (lambda cfg: cfg["grid"].update(dim=0), [], "0 is less than the minimum of 1"),
        # json writes and reads the token NaN, which the schema's finite
        # numbers refuse
        (lambda cfg: cfg["noise"].update(sigma=float("nan")), [],
         "noise.sigma: nan is not of type 'number'"),
        # an integer beyond the double range would overflow float()
        (lambda cfg: cfg["potential_true"].update(amplitude=10**400), [],
         "potential_true.amplitude: 1000"),
    ]
    for k, (edit, sets, message) in enumerate(cases):
        cfg = small_invert_config()
        edit(cfg)
        cfg_path = tmp_path / f"cfg{k}.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["invert", "--config", str(cfg_path),
                     "--output-dir", str(tmp_path / f"out{k}"), *sets])
        assert code == 2
        err = capsys.readouterr().err
        assert "CONFIG_INVALID" in err
        assert message is None or message in err


def test_writes_stay_inside_output_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "artifacts"
    cfg = small_invert_config()
    run(cfg, output_dir=str(out))
    assert list(workdir.iterdir()) == []
    assert (out / "manifest.json").exists()


def test_spectrum_pipeline(tmp_path):
    cfg = {
        "schema_version": 1,
        "pipeline": "spectrum",
        "grid": load_config("invert_desk1d.json")["grid"],
        "s": 0.5,
        "potential": {"type": "constant", "value": 0.0},
        "seed": 0,
    }
    code, manifest = run(cfg, output_dir=str(tmp_path))
    assert code == 0
    data = np.loadtxt(tmp_path / "spectrum.csv", delimiter=",", skiprows=1)
    assert np.all(np.diff(data[:, 1]) >= 0)


def test_constructive_invert_config(tmp_path):
    cfg = load_config("invert_desk1d_constructive.json")
    code, manifest = run(cfg, output_dir=str(tmp_path))
    assert code == 0
    assert manifest["gates"]["reconstruction_error"]["value"] <= 0.08
    rows = np.loadtxt(tmp_path / "residuals.csv", delimiter=",", skiprows=1, ndmin=2)
    assert rows.shape[1] == 3


def test_misspelt_tolerance_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(small_invert_config()))
    code = main(["invert", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out"),
                 "--set", "tolerances.reconstruction_eror=1e-9"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_INVALID: tolerances.reconstruction_eror: ")
    _refusal(tmp_path / "out", err)


def _committed_config(pipeline):
    """The first committed config that runs ``pipeline``."""
    return next(cfg for cfg in map(load_config, sorted(p.name for p in CONFIG_DIR.glob("*.json")))
                if cfg["pipeline"] == pipeline)


# pipeline -> gate -> the key of TOLERANCES that holds its threshold
_GATE_TOLERANCES = {
    "validate-op": {"oracle_agreement": "oracle_agreement"},
    "dnmap": {"dn_self_adjointness": "identity", "pointwise_vs_bilinear": "identity_loose",
              "decomposition_residual": "identity_loose", "integral_identity": "identity_loose"},
    "runge-sweep": {"final_residual": "runge_residual"},
    "invert": {"reconstruction_error": "reconstruction_error"},
    "extend": {"trace_identity": "trace_identity"},
    "diffuse": {"semigroup": "semigroup", "cost_richardson_ratio": "richardson_band"},
}


@pytest.mark.parametrize("pipeline", list(_GATE_TOLERANCES))
def test_every_tolerance_sets_a_gate_threshold(pipeline, tmp_path):
    # the committed run of each pipeline records the thresholds of
    # TOLERANCES (a pair's 1D one), invert's unless its config sets one; the
    # table above names every key of TOLERANCES
    assert {key for gates in _GATE_TOLERANCES.values() for key in gates.values()} \
        == set(TOLERANCES)
    cfg = _committed_config(pipeline)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        _, manifest = run(cfg, output_dir=str(tmp_path))
    want = {}
    for gate, key in _GATE_TOLERANCES[pipeline].items():
        value = cfg.get("tolerances", {}).get(key, TOLERANCES[key])
        want[gate] = value[0] if isinstance(value, tuple) else value   # the grids are 1D
    assert {gate: manifest["gates"][gate]["threshold"] for gate in want} == want


def _resonant(cfg):
    """Shift the config's potential, a constant, by -lambda_1 of its own
    system: zero is then a Dirichlet eigenvalue."""
    grid, op = _build(cfg)
    sys0 = assemble_system(op, potential_from_spec(grid, cfg["potential"]))
    cfg["potential"]["value"] -= float(dirichlet_spectrum(sys0).eigenvalues[0])


@pytest.mark.parametrize("name,edit,code_want,absent", [
    pytest.param("spectrum_desk1d.json", _resonant, 1, None, id="resonant-spectrum"),
    pytest.param("runge_desk1d.json", lambda cfg: cfg["runge"].update(alphas=[0.0]), 0,
                 "residual_monotone", id="one-alpha-runge"),
    pytest.param("diffuse_desk1d.json", lambda cfg: cfg["potential"].update(value=1e4),
                 0, None, id="underflow-diffuse"),
])
def test_every_gate_passes_below_its_threshold(name, edit, code_want, absent, tmp_path):
    # one rule decides every gate, on edited configs too (the committed ones
    # are test_committed_config_runs_through_main's): it passes iff its
    # finite recorded value is below its recorded threshold.  The resonant
    # spectrum fails its condition gate.  Under a potential of 1e4 every
    # exp(-lambda t) at the decay times underflows, so each distance and its
    # bound are 0: an excess of exactly 0, which passes.  A sweep over one
    # alpha has no rise: that gate is absent, not recorded as -inf
    cfg = load_config(name)
    edit(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        code, manifest = run(cfg, output_dir=str(tmp_path))
    gates = manifest["gates"]
    assert gates and absent not in gates
    if cfg["pipeline"] == "diffuse":
        distances = np.loadtxt(tmp_path / "decay.csv", delimiter=",", skiprows=1)[:, 1]
        assert np.all(distances == 0) and gates["decay_rate_bound"]["value"] == 0
    assert all(math.isfinite(g["value"]) and math.isfinite(g["threshold"])
               for g in gates.values())
    assert [k for k, g in gates.items() if g["pass"] != (g["value"] < g["threshold"])] == []
    assert code == code_want


def test_zero_runge_target_reaches_zero_residual(tmp_path):
    # the zero control reaches a zero target exactly: the relative residual
    # of a zero target is its absolute residual, 0, with no divide warning
    cfg = load_config("runge_desk1d.json")
    grid, _ = _build(cfg)
    cfg["runge"]["target"] = [0.0] * len(grid.interior)
    with warnings.catch_warnings(record=True):     # the manifest records each one
        warnings.simplefilter("always")
        code, manifest = run(cfg, output_dir=str(tmp_path))
    assert code == 0
    assert manifest["gates"]["final_residual"]["value"] == 0.0
    assert "RuntimeWarning" not in [w["category"] for w in manifest["warnings"]]


@pytest.mark.parametrize("dim", [1, 2])
def test_runge_sign_target(dim, tmp_path, monkeypatch):
    # runge.target "sign" is the sign of each interior node's first
    # coordinate, in any dimension: the committed sweep's interval, and the
    # 2D disc at h = 0.2 (both halves hold interior nodes, none lies on
    # x1 = 0).  The jump is hard to reach from the window: the final
    # residual reads 0.285 in 1D and 0.782 in 2D, above the default gate
    # 0.10, while the residual still falls along the alpha path
    import fraccalderon.cli as cli
    cfg = load_config("runge_desk1d.json")
    if dim == 2:
        cfg["grid"] = _disc_invert_config(0.2)["grid"]
    cfg["runge"]["target"] = "sign"
    targets, real = [], cli.alpha_sweep

    def spy(sys, window, target, **kwargs):
        targets.append(target)
        return real(sys, window, target, **kwargs)

    monkeypatch.setattr(cli, "alpha_sweep", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IllConditionedWarning)
        code, manifest = run(cfg, output_dir=str(tmp_path))
    grid, _ = _build(cfg)
    x1 = grid.coords[grid.interior, 0]
    assert len(targets) == 1 and np.array_equal(targets[0], np.where(x1 > 0, 1.0, -1.0))
    gates = manifest["gates"]
    assert gates["residual_monotone"]["pass"] and not gates["final_residual"]["pass"]
    assert code == 1


def test_failing_run_writes_its_manifest(tmp_path, capsys):
    # the committed constructive config at the default Runge gate fails on a
    # target residual (exit 4); the manifest records the error, no files, and
    # the stages timed before the raise
    out = tmp_path / "out"
    code = main(["invert", "--config", str(CONFIG_DIR / "invert_desk1d_constructive.json"),
                 "--output-dir", str(out), "--set", "invert.runge_gate=0.05"])
    assert code == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error"]["code"] == "RUNGE_FAIL"
    assert manifest["error"]["module"] == "fraccalderon.calderon"
    # every failing target column is named, not only the first
    assert manifest["error"]["message"].startswith("target controls [1, 2, 3]: ")
    assert f"fraccalderon.calderon: RUNGE_FAIL: {manifest['error']['message']}" \
        in capsys.readouterr().err
    assert manifest["files"] == [] and [p.name for p in out.iterdir()] == ["manifest.json"]
    assert sorted(manifest["stage_s"]) == ["assembly", "measurement"]
    assert manifest["warnings"] == []


@pytest.mark.parametrize("name,override,key", [
    ("invert_desk1d.json", "tolerances.reconstruction_error=abc",
     "tolerances.reconstruction_error"),
    ("runge_desk1d.json", 'runge.alphas=[0.1,"x"]', "runge.alphas[1]"),
    ("runge_desk1d.json", "runge.alphas=[]", "runge.alphas"),
    ("runge_desk1d.json", "runge.target=[1,2,3]", "runge.target"),
    ("runge_desk1d.json", "runge.target=sgn", "runge.target"),
    ("runge_desk1d.json", "runge.alphas=[-1e-3]", "runge.alphas[0]"),
    ("invert_desk1d_constructive.json", "invert.alpha=-1", "invert.alpha"),
    ("invert_desk1d.json", "grid.h=NaN", "grid.h"),
])
def test_config_typo_exits_2_naming_the_key(name, override, key, tmp_path, capsys):
    path = CONFIG_DIR / name
    code = main([load_config(name)["pipeline"], "--config", str(path),
                 "--output-dir", str(tmp_path / "out"), "--set", override])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("CONFIG_INVALID: ") and key in err
    if override == "runge.target=sgn":
        # an unknown target name: the message lists the names accepted
        assert "['constant', 'sign']" in err


@pytest.mark.parametrize("name,override,key,error_code", [
    ("dnmap_desk1d.json", "potential.width=0", "potential.width", None),
    ("dnmap_desk1d.json", "potential.width=-0.4", "potential.width", None),
    ("invert_desk1d_constructive.json", "invert.runge_gate=-1", "invert.runge_gate", None),
    ("invert_desk1d.json", "invert.clean_beta=-5", "invert.clean_beta", None),
    ("extend_desk1d.json", "extend.ucp_window=EXTERIOR_SUPPORT", "extend", None),
    ("diffuse_desk1d.json", "diffuse.t_values=[0.1,0.5]", "diffuse", None),
    ("spectrum_desk1d.json", 'potential={"type":"two_bump","bumps":[]}', "potential.type", None),
    ("invert_desk1d.json", 'potential_true={"type":"csv","path":"q.csv"}', "potential_true.type",
     None),
    ("dnmap_desk1d.json", "source_window=INTERIOR", "source_window", "GEOMETRY"),
    ("invert_desk1d.json", "observation_window=EXTERIOR_FAR", "observation_window", "GEOMETRY"),
    ("runge_desk1d.json", "runge.window=INTERIOR", "runge.window", "GEOMETRY"),
])
def test_config_fault_exits_2_naming_the_key(name, override, key, error_code, tmp_path, capsys):
    # a gaussian width that is not positive, a negative Runge gate or
    # penalty weight, a key of extend or diffuse, which read none, and a
    # potential family there is not are refused by the schema (error_code
    # None); a window outside the exterior support is found by the run.
    # Each exits 2 (not 4, or a run at a weight raised to the floor), names
    # its key first and leaves a manifest that records the error
    out = tmp_path / "out"
    code = main([load_config(name)["pipeline"], "--config", str(CONFIG_DIR / name),
                 "--output-dir", str(out), "--set", override])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"CONFIG_INVALID: {key}: ")
    if error_code is None:
        _refusal(out, err)
    else:
        error = json.loads((out / "manifest.json").read_text())["error"]
        assert error["code"] == error_code and error["message"].startswith(f"{key}: ")


def test_error_module_named_under_python_m(tmp_path):
    # run as ``python -m fraccalderon.cli`` the CLI's frames are ``__main__``;
    # an error raised in cli.py still names fraccalderon.cli
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "fraccalderon.cli", "runge-sweep", "--config",
                           str(CONFIG_DIR / "runge_desk1d.json"), "--output-dir", str(out),
                           "--set", "runge.target=[1,2,3]"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    error = json.loads((out / "manifest.json").read_text())["error"]
    assert error["code"] == "CONFIG_INVALID" and error["module"] == "fraccalderon.cli"


@pytest.mark.parametrize("name,module,attr,where", [
    ("invert_desk1d.json", "fraccalderon.calderon", "_solve_regularized",
     "fraccalderon.calderon"),
    ("diffuse_desk1d.json", "fraccalderon.diffusion", "eigh", "fraccalderon.diffusion"),
    ("extend_desk1d.json", "scipy.linalg", "svdvals", "fraccalderon.extension"),
    ("spectrum_desk1d.json", "scipy.linalg", "eigh", "fraccalderon.dirichlet"),
])
def test_lapack_failure_exits_4_with_its_manifest(name, module, attr, where, tmp_path,
                                                 monkeypatch, capsys):
    # a LAPACK error inside a pipeline is a numeric error (exit 4) that the
    # manifest records, named after the package module it came through
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("penalized normal matrix not positive definite")

    monkeypatch.setattr(f"{module}.{attr}", fail)
    out = tmp_path / "out"
    code = main([load_config(name)["pipeline"], "--config", str(CONFIG_DIR / name),
                 "--output-dir", str(out)])
    assert code == 4
    assert capsys.readouterr().err.startswith(f"{where}: LINALG_FAIL: ")
    error = json.loads((out / "manifest.json").read_text())["error"]
    assert error == {"code": "LINALG_FAIL", "module": where,
                     "message": "penalized normal matrix not positive definite"}


def test_tolerance_of_another_pipeline_rejected():
    cfg = small_invert_config()
    cfg["tolerances"] = {"semigroup": 1e-12}
    with pytest.raises(ConfigError, match="semigroup"):
        validate_config(cfg)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def test_committed_configs_valid(path):
    validate_config(json.loads(path.read_text()))


def _csv_shapes(cfg, grid) -> dict:
    """The (rows, columns) of each CSV that the config's pipeline writes and
    whose shape follows from the config."""
    pipeline = cfg["pipeline"]
    if pipeline == "runge-sweep":
        return {"runge_sweep.csv": (len(cfg.get("runge", {}).get("alphas", DEFAULT_ALPHAS)), 3)}
    if pipeline == "diffuse":
        return {"decay.csv": (len(DECAY_TIMES), 2)}
    if pipeline == "extend":
        return {"extension_field.csv": (grid.n_nodes * len(trace_ladder(grid.h)), 3)}
    if pipeline == "dnmap":
        src, obs = (len(grid.indices_of(cfg.get(key, default))) for key, default in
                    (("source_window", "W1"), ("observation_window", "W2")))
        return {"dn_matrix.csv": (obs, src)}
    return {}


@pytest.fixture(scope="module", params=sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.name)
def committed_run(request, tmp_path_factory):
    """One run of a committed config through ``main``, shared by the two
    tests below so that each config runs once: its config, output directory,
    exit code and manifest."""
    path = request.param
    cfg = json.loads(path.read_text())
    out = tmp_path_factory.mktemp(path.stem) / "out"
    code = main([cfg["pipeline"], "--config", str(path), "--output-dir", str(out)])
    return cfg, out, code, json.loads((out / "manifest.json").read_text())


def test_committed_config_runs_through_main(committed_run):
    # every committed config runs end to end and passes every gate; its
    # stages (invert's four, one compute stage elsewhere) each take positive
    # time and together no more than the run's wall time
    cfg, _, code, manifest = committed_run
    pipeline = cfg["pipeline"]
    assert code == 0
    gates = manifest["gates"]
    assert gates and [name for name, g in gates.items() if not g["pass"]] == []
    # one rule decides every gate: it passes iff its finite value is below
    # its threshold (a lower bound is recorded negated)
    assert all(math.isfinite(g["value"]) for g in gates.values())
    assert [name for name, g in gates.items() if g["pass"] != (g["value"] < g["threshold"])] == []
    stages = manifest["stage_s"]
    work = ["measurement", "reconstruction"] if pipeline == "invert" else ["compute"]
    assert sorted(stages) == sorted(["assembly", *work, "output"])
    assert all(seconds > 0 for seconds in stages.values())
    assert sum(stages.values()) <= manifest["wall_time_s"]


def _readme_gates() -> dict:
    """Pipeline -> gate -> the threshold cell of its row in README's gates
    table."""
    lines = (CONFIG_DIR.parent / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| pipeline | gate |"))
    gates = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = re.split(r"(?<!\\)\|", line)[1:-1]        # a cell may hold an escaped \|
        pipeline, gate = (re.match(r"`([^`]+)`", cell.strip()).group(1) for cell in cells[:2])
        gates.setdefault(pipeline, {})[gate] = cells[3].strip()
    return gates


def test_readme_gates_table_matches_the_committed_runs(committed_run):
    # README's gates table lists exactly the gates the committed configs
    # record: it names the committed configs' pipelines, and each config
    # records its pipeline's rows; a threshold the table gives as a plain
    # number is the one the run records
    cfg, _, _, manifest = committed_run
    table = _readme_gates()
    assert set(table) == {json.loads(path.read_text())["pipeline"]
                          for path in CONFIG_DIR.glob("*.json")}
    rows = table[cfg["pipeline"]]
    assert set(manifest["gates"]) == set(rows)
    plain = {gate: float(cell) for gate, cell in rows.items()
             if re.fullmatch(r"-?[0-9.]+(e-?[0-9]+)?", cell)}
    assert {gate: manifest["gates"][gate]["threshold"] for gate in plain} == plain


def test_committed_config_csv_files(committed_run):
    # the output directory holds the manifest's files and the manifest alone;
    # every CSV of the manifest: one column-name line (dn_matrix.csv: exactly
    # three '#' lines), then finite rows as wide as the header names, in the
    # shape the config implies; the DN matrix reads back bit for bit
    cfg, out, code, manifest = committed_run
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*manifest["files"],
                                                            "manifest.json"])
    grid, op = _build(cfg)
    shapes = _csv_shapes(cfg, grid)
    tables = {}
    for name in manifest["files"]:
        if not name.endswith(".csv"):
            continue
        lines = (out / name).read_text().splitlines()
        head = 3 if name == "dn_matrix.csv" else 1
        assert [line.startswith("#") for line in lines[:head + 1]] == [head == 3] * head + [False]
        rows = tables[name] = np.array([[float(v) for v in line.split(",")]
                                        for line in lines[head:]])
        assert rows.ndim == 2 and np.all(np.isfinite(rows))
        if head == 1:
            assert rows.shape[1] == len(lines[0].split(","))
    assert {name: tables[name].shape for name in shapes} == shapes
    if cfg["pipeline"] == "dnmap":
        sys1 = assemble_system(op, potential_from_spec(grid, cfg.get("potential", 0.0)))
        dn = assemble_dn(sys1, cfg.get("source_window", "W1"), cfg.get("observation_window", "W2"))
        assert np.array_equal(tables["dn_matrix.csv"], dn.matrix)


def test_diffuse_solves_poisson_once(tmp_path, monkeypatch):
    # the clamp's steady state serves the decay series, the semigroup gate
    # and the DN cost check: one Poisson solve (6 while each solved its own)
    from fraccalderon import dirichlet
    solved = _count_calls(monkeypatch, dirichlet, "solve_poisson")
    code, _ = run(load_config("diffuse_desk1d.json"), output_dir=str(tmp_path))
    assert code == 0 and len(solved) == 1


def test_dnmap_solves_each_pair_once(tmp_path, monkeypatch):
    # the dnmap gates share their solutions: one Poisson solve per distinct
    # (system, exterior data) pair, three in all
    import fraccalderon.cli as cli
    import fraccalderon.dnmap as dnmap
    solves = []
    real = dnmap.solve_poisson

    def spy(sys, f):
        solves.append((id(sys), np.asarray(f).tobytes()))
        return real(sys, f)

    monkeypatch.setattr(cli, "solve_poisson", spy)
    monkeypatch.setattr(dnmap, "solve_poisson", spy)
    code, _ = run(load_config("dnmap_desk1d.json"), output_dir=str(tmp_path))
    assert code == 0
    assert len(solves) == 3 and len(set(solves)) == 3


def test_validate_op_pads_as_apply_spectral(tmp_path):
    # without pad_factor the spectral route takes its own default pad, 8
    cfg = load_config("desk1d_grid.json")
    agreement = []
    for pad in (None, 8):
        cfg.pop("pad_factor", None)
        if pad is not None:
            cfg["pad_factor"] = pad
        _, manifest = run(cfg, output_dir=str(tmp_path / str(pad)))
        agreement.append(manifest["gates"]["oracle_agreement"]["value"])
    assert agreement[0] == agreement[1]


def test_validate_op_holds_no_nonfar_squared_array(tmp_path):
    # the checks apply the operator and read its table: the traced peak of a
    # 2D validate-op run (disc, h = 0.1, 1264 non-FAR nodes) stays below one
    # N_nf^2 array (12.2 MB).  Measured 6.8 MB here, 39.8 MB when the
    # checks gathered the matrix.  pad_factor 4 keeps the spectral route's
    # lattice (pad^2 times the box) below that size as well: apply_spectral
    # alone peaks at 1.4 MB at pad 4, 5.5 MB at its default 8, 22 MB at 16
    grid_cfg = {"dim": 2, "h": 0.1, "R": 3.0,
                "omega": {"type": "disc", "center": [0.0, 0.0], "radius": 1.0},
                "support": {"type": "disc", "center": [0.0, 0.0], "radius": 2.0}}
    cfg = {"schema_version": 1, "pipeline": "validate-op", "grid": grid_cfg, "s": 0.5,
           "pad_factor": 4}
    n_nf = len(build_grid(2, 0.1, 3.0, grid_cfg["omega"], grid_cfg["support"]).nonfar)
    tracemalloc.start()
    try:
        code, _ = run(cfg, output_dir=str(tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < n_nf**2 * 8


@pytest.mark.parametrize("window", ["W1", "W2"])
def test_diffuse_drives_source_window(window, tmp_path, monkeypatch):
    # the forcing of the diffusion run sits on the configured source window
    import fraccalderon.cli as cli
    cfg = load_config("diffuse_desk1d.json")
    if window != "W1":
        cfg["source_window"] = window
    forcings = []
    real = cli.solve_poisson

    def spy(sys, f):
        forcings.append(f.copy())
        return real(sys, f)

    monkeypatch.setattr(cli, "solve_poisson", spy)
    code, _ = run(cfg, output_dir=str(tmp_path))
    assert code == 0
    g = cfg["grid"]
    grid = build_grid(g["dim"], g["h"], g["R"], g["omega"], g["support"], g["windows"])
    driven = grid.ext_support[np.flatnonzero(forcings[0])]
    assert np.array_equal(driven, np.sort(grid.indices_of(window)))


def test_config_schema_is_a_valid_schema():
    # validate_config trusts the schema instead of re-checking it per call
    validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)


@pytest.mark.parametrize("edit,message", [
    (lambda cfg: cfg.update(noize={"sigma": 0.0}),
     "Additional properties are not allowed ('noize' was unexpected)"),
    (lambda cfg: cfg.update(s="0.5"), "'0.5' is not of type 'number'"),
])
def test_config_error_messages(edit, message):
    # the first line of the error jsonschema.validate raises, after the
    # path of its key, top-level keys included: the key the edit sets, an
    # unexpected one too
    cfg = small_invert_config()
    edit(cfg)
    (key,) = [k for k in cfg if cfg[k] != small_invert_config().get(k)]
    with pytest.raises(jsonschema.ValidationError) as ref:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    assert str(ref.value).splitlines()[0] == message
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    assert str(exc.value) == f"{key}: {message}"


def _main_on(cfg, tmp_path, capsys):
    """Exit code and stderr of ``fraccalderon invert`` on a config object."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["invert", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    return code, capsys.readouterr().err


def test_config_not_an_object_exits_2(tmp_path, capsys):
    code, err = _main_on([1, 2], tmp_path, capsys)
    assert code == 2
    assert "CONFIG_INVALID" in err and "must be a JSON object" in err


def test_unreadable_config_exits_2(tmp_path, capsys):
    # a config file that is missing, or that is not JSON
    path = tmp_path / "cfg.json"
    for text in (None, '{"s": 0.5,'):
        if text is not None:
            path.write_text(text)
        code = main(["invert", "--config", str(path), "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("CONFIG_INVALID: ")


def test_invert_without_potential_true_exits_2(tmp_path, capsys):
    # a config that names no pipeline runs the positional one, and invert
    # has no default truth to reconstruct
    cfg = load_config("spectrum_desk1d.json")
    del cfg["pipeline"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["invert", "--config", str(path), "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "CONFIG_INVALID: 'potential_true' is a required property\n"


def test_overflowing_potential_exits_2_with_its_manifest(tmp_path, capsys):
    # a gaussian of width 1e-200 squares its width to 0, so at a node on
    # its center the exponent is 0/0: a config fault, recorded in the
    # manifest, not a crash with exit 1
    out = tmp_path / "out"
    cfg = load_config("spectrum_desk1d.json")
    grid, _ = _build(cfg)
    center = float(grid.coords[grid.interior[len(grid.interior) // 3], 0])
    spec = {"type": "gaussian", "amplitude": 1.0, "width": 1e-200, "center": center}
    with pytest.warns(RuntimeWarning) as caught:
        code = main(["spectrum", "--config", str(CONFIG_DIR / "spectrum_desk1d.json"),
                     "--output-dir", str(out), "--set", "potential=" + json.dumps(spec)])
    # -r2 / 0 is -inf off the center and NaN on it
    assert sorted(str(w.message) for w in caught) == [
        "divide by zero encountered in divide", "invalid value encountered in divide"]
    assert code == 2
    assert "the gaussian potential has non-finite values" in capsys.readouterr().err
    error = json.loads((out / "manifest.json").read_text())["error"]
    assert error["code"] == "CONFIG_INVALID" and error["module"] == "fraccalderon.dirichlet"


def test_config_of_another_pipeline_exits_2(tmp_path, capsys):
    # the positional pipeline does not replace the one the config names
    out = tmp_path / "out"
    code = main(["spectrum", "--config", str(CONFIG_DIR / "dnmap_desk1d.json"),
                 "--output-dir", str(out)])
    assert code == 2
    assert capsys.readouterr().err == ("CONFIG_INVALID: the config runs pipeline 'dnmap', "
                                       "not the 'spectrum' asked for\n")
    assert not out.exists()


def _config_keys(schema, path=()):
    """The key paths of ``schema``'s objects, not descending into a geometry
    or potential family (a tagged object: its keys follow its type)."""
    for key, sub in schema.get("properties", {}).items():
        yield path + (key,)
        if "allOf" not in sub:
            yield from _config_keys(sub, path + (key,))


def test_every_config_key_is_set_by_a_committed_config():
    # a key that no committed run sets changes no run: every key of the
    # schema is set by some config in configs/
    configs = [load_config(p.name) for p in sorted(CONFIG_DIR.glob("*.json"))]

    def sets(cfg, path):
        for key in path:
            if not isinstance(cfg, dict) or key not in cfg:
                return False
            cfg = cfg[key]
        return True

    keys = list(_config_keys(CONFIG_SCHEMA))
    assert ("grid", "windows") in keys and ("invert", "clean_beta") in keys
    assert [".".join(path) for path in keys if not any(sets(cfg, path) for cfg in configs)] == []


def test_invert_keys_are_reconstruct_potential_keywords():
    # the invert pipeline passes its config section on as keywords
    params = list(inspect.signature(reconstruct_potential).parameters)
    assert params[:2] == ["meas", "sys_ref"]
    assert sorted(CONFIG_SCHEMA["properties"]["invert"]["properties"]) == sorted(params[2:])


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_unknown_tolerance_exits_2(pipeline, tmp_path, capsys):
    # tolerances holds invert's reconstruction_error alone: any other key,
    # and any key on another pipeline, exits 2 before the pipeline runs,
    # naming the key (invert) or tolerances (the others); a gate's constant
    # threshold cannot be set
    keys = ["no_such_gate", "semigroup"] + (["reconstruction_error"] if pipeline != "invert"
                                            else [])
    for k, key in enumerate(keys):
        cfg = _committed_config(pipeline)
        cfg["tolerances"] = {**cfg.get("tolerances", {}), key: 0.1}
        path = tmp_path / f"cfg{k}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"out{k}"
        code = main([pipeline, "--config", str(path), "--output-dir", str(out)])
        err = capsys.readouterr().err
        where = f"tolerances.{key}" if pipeline == "invert" else "tolerances"
        assert code == 2 and err.startswith(f"CONFIG_INVALID: {where}: "), err
        assert repr(key) in err
        _refusal(out, err)


def _numeric_leaves(schema, path=()):
    """The paths at which ``schema`` admits a number or an integer: object
    keys, ``0`` for an array item, ``"*"`` for any key of an object, and
    ``("family", kind)`` after the key of an object of family ``kind``."""
    types = schema.get("type", [])
    if {"number", "integer"} & set([types] if isinstance(types, str) else types):
        yield path
    for key, sub in schema.get("properties", {}).items():
        yield from _numeric_leaves(sub, path + (key,))
    if isinstance(schema.get("additionalProperties"), dict):
        yield from _numeric_leaves(schema["additionalProperties"], path + ("*",))
    if "items" in schema:
        yield from _numeric_leaves(schema["items"], path + (0,))
    for clause in schema.get("allOf", []):
        kind = clause["if"]["properties"].get("type", {}).get("const")
        yield from _numeric_leaves(clause["then"], path + ((("family", kind),) if kind else ()))


# one schema-valid object of each family with numbers, to write them into
_FAMILIES = {
    "interval": {"type": "interval", "bounds": [1.5, 1.6]},
    "disc": {"type": "disc", "center": [1.5], "radius": 0.1},
    "rect": {"type": "rect", "bounds": [[1.5, 1.6]]},
    "constant": {"type": "constant", "value": 0.5},
    "gaussian": {"type": "gaussian", "amplitude": 0.5, "width": 0.2, "center": [0.0]},
    "nodes": {"type": "nodes", "values": [0.5]},
}

# the pipeline whose committed config reads a top-level key; invert's
# reads every other key with numbers
_READER = {"potential": "spectrum", "potential_ref": "dnmap", "runge": "runge-sweep",
           "pad_factor": "validate-op"}


def _put(node, path, value):
    """Write ``value`` at ``path`` in ``node``, making the objects, the
    non-empty arrays and the family members the path passes through."""
    for key, nxt in zip(path, path[1:]):
        if isinstance(key, tuple):          # the family member is in place
            continue
        if isinstance(nxt, tuple):
            node[key] = copy.deepcopy(_FAMILIES[nxt[1]])
        elif isinstance(node, dict) and isinstance(nxt, int):
            if not (isinstance(node.get(key), list) and node[key]):
                node[key] = [0.5]
        elif isinstance(node, dict):
            node.setdefault(key, {})
        node = node[key]
    node[path[-1]] = value


def test_every_number_in_a_config_refuses_nan_and_infinities(tmp_path, capsys):
    # NaN, Infinity and -Infinity, the tokens Python's json reads, at every
    # place the schema admits a number, in a config of a pipeline that
    # reads it: exit 2 with a message that starts with the key's path, and
    # a manifest that records it
    cases = []
    for leaf in _numeric_leaves(CONFIG_SCHEMA):
        # any window is W1
        leaf = tuple("W1" if key == "*" else key for key in leaf[:-1]) + leaf[-1:]
        cases.append((_READER.get(leaf[0], "invert"), leaf))
    assert ("invert", ("tolerances", "reconstruction_error")) in cases
    families = {key[1] for _, leaf in cases for key in leaf if isinstance(key, tuple)}
    assert families == set(_FAMILIES) and len(cases) > 40
    failed = []
    for k, (pipeline, leaf) in enumerate(cases):
        where = "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                        for key in leaf if not isinstance(key, tuple))[1:]
        for value in (math.nan, math.inf, -math.inf):
            cfg = _committed_config(pipeline)
            _put(cfg, leaf, value)
            path = tmp_path / f"cfg{k}.json"
            path.write_text(json.dumps(cfg))
            out = tmp_path / f"out{k}"
            code = main([pipeline, "--config", str(path), "--output-dir", str(out)])
            err = capsys.readouterr().err
            if code != 2 or not err.startswith(f"CONFIG_INVALID: {where}: "):
                failed.append((pipeline, where, value, code, err))
            _refusal(out, err)
    assert failed == []


def test_invert_run_imports_no_scipy_sparse(tmp_path):
    # the penalty is plain numpy coordinate arrays; scipy.sparse would add
    # its import time to every CLI process
    code = ("import sys; from fraccalderon.cli import main; "
            f"rc = main(['invert', '--config', {str(CONFIG_DIR / 'invert_desk1d.json')!r}, "
            f"'--output-dir', {str(tmp_path)!r}]); "
            "print(rc, 'scipy.sparse' in sys.modules)")
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert out.stdout.split()[-2:] == ["0", "False"]
