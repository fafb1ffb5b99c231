"""The names the pipeline benchmark (``perfbench/``) looks up in the package.

Its tracer wraps functions by name and its child process calls a few more;
a rename that misses them would break only ``--trace 1`` runs.  Resolved
here with ``getattr``, without installing the tracer.
"""

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


@pytest.mark.parametrize("workload", ["invert2d", "noise1d"])
def test_written_configs_validate(workload, tmp_path, monkeypatch):
    # the workload configs, potentials included, pass the CLI's schema
    monkeypatch.syspath_prepend(str(PERFBENCH))
    harness = _load("harness")
    inputs = getattr(harness, f"_prepare_{workload}")(tmp_path, 0, "tiny")
    validate_config(json.loads(Path(inputs["config"]).read_text()))
