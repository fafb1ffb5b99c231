"""The names and call shapes the pipeline benchmark (``perfbench/``) uses.

Its tracer wraps functions by name and reads a few result fields, and its
child process calls a few more; a rename that misses them would break only
``--trace 1`` runs.  Names are resolved here with ``getattr``, without
installing the tracer; the noise study, which calls the package directly
rather than through the CLI, is run at tiny scale.
"""

import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fraccalderon.cli import validate_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Import perfbench/<name>.py as module ``perfbench_<name>``."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def _targets():
    return [(mod, target) for mod, targets in _load("tracer").TARGETS.items()
            for target in targets]


@pytest.mark.parametrize("mod,target", _targets(), ids=lambda v: v)
def test_traced_name_resolves(mod, target):
    obj = importlib.import_module(f"fraccalderon.{mod}")
    for part in target.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_called_names_resolve():
    from fraccalderon import _kernels
    from fraccalderon.fracop import FracOperator
    assert callable(_kernels.backend_name)
    assert isinstance(FracOperator.matrix, property)


def test_traced_result_fields():
    # the tracer's repeat counter keys each DN map on these fields
    from fraccalderon.dnmap import DNMap
    fields = {f.name for f in dataclasses.fields(DNMap)}
    assert {"fingerprint", "source_nodes", "observation_nodes"} <= fields


@pytest.mark.parametrize("workload", ["invert2d", "noise1d"])
def test_written_configs_validate(workload, tmp_path, monkeypatch):
    # the workload configs, potentials included, pass the CLI's schema
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = _load("harness")
    inputs = getattr(harness, f"_prepare_{workload}")(tmp_path, 0, "tiny")
    validate_config(json.loads(Path(inputs["config"]).read_text()))


def test_noise_study_runs(tmp_path, monkeypatch):
    # the noise1d workload's own calls, on its tiny config, for two draws
    monkeypatch.syspath_prepend(str(PERFBENCH))
    inputs = _load("harness")._prepare_noise1d(tmp_path, 0, "tiny")
    cfg = json.loads(Path(inputs["config"]).read_text())
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert _load("child")._noise_study(cfg, out_dir, [0, 1]) == 0
    draws = json.loads((out_dir / "draws.json").read_text())
    assert [d["error"] for d in draws] == [None, None]
