"""One BLAS library (see ``fraccalderon._kernels``), and one module that
writes files.

Every module of the package makes every BLAS call through scipy, so numpy's
OpenBLAS thread pool never competes with scipy's.  The guard reads the
source of every module; the helpers must equal numpy's products and norms
up to rounding, without copying their operands.  Only ``cli`` writes files,
so the output format is decided in one place; the second guard reads the
source of every other module.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fraccalderon import _kernels
from fraccalderon._kernels import matmul, norm, syrk

PACKAGE = Path(_kernels.__file__).resolve().parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
# numpy functions that run numpy's BLAS
NUMPY_BLAS = ("dot", "vdot", "inner", "matmul", "tensordot", "einsum")


def numpy_blas_uses(source: str) -> list:
    """(line, construct) for each construct in ``source`` that calls numpy's
    BLAS: ``@``, a ``.dot(`` call, a numpy product function, any
    ``numpy.linalg`` routine but ``norm``, and ``norm`` with neither ``ord``
    nor ``axis`` (a whole-array norm is a BLAS dot product)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [(node.lineno, f"from {node.module} import {a.name}") for a in node.names]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = ast.unparse(node.func).replace("numpy.", "np.", 1)
            if node.func.attr == "dot" or name in [f"np.{f}" for f in NUMPY_BLAS]:
                found.append((node.lineno, name))
            elif name.startswith("np.linalg."):
                whole_array = len(node.args) < 2 and not any(
                    k.arg in ("ord", "axis") for k in node.keywords)
                if node.func.attr != "norm" or whole_array:
                    found.append((node.lineno, name))
    return found


@pytest.mark.parametrize("module", MODULES)
def test_solve_path_calls_no_numpy_blas(module):
    assert numpy_blas_uses((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("snippet,banned", [
    ("c = a @ b", True),
    ("a @= b", True),
    ("c = np.dot(a, b)", True),
    ("c = a.dot(b)", True),
    ("c = np.matmul(a, b)", True),
    ("c = numpy.einsum('ij,jk', a, b)", True),
    ("x = np.linalg.solve(a, b)", True),
    ("x = np.linalg.inv(a)", True),
    ("x = np.linalg.lstsq(a, b)", True),
    ("x = np.linalg.cholesky(a)", True),
    ("w = np.linalg.eigh(a)", True),
    ("s = np.linalg.svd(a)", True),
    ("r = np.linalg.norm(a)", True),
    ("from numpy.linalg import solve", True),
    ("r = np.linalg.norm(a, 1)", False),
    ("r = np.linalg.norm(a, ord=np.inf)", False),
    ("r = np.linalg.norm(a, axis=0)", False),
    ("c = matmul(a, b)", False),
    ("r = norm(a)", False),
    ("c = a * b", False),
    ("ok = isinstance(err, np.linalg.LinAlgError)", False),
])
def test_guard_flags_each_numpy_blas_construct(snippet, banned):
    assert bool(numpy_blas_uses(snippet)) is banned


# calls that write a file whatever their arguments
FILE_WRITERS = ("savetxt", "save", "savez", "savez_compressed", "tofile",
                "write_text", "write_bytes")


def file_writes(source: str) -> list:
    """(line, construct) for each call in ``source`` that writes a file: one
    of ``FILE_WRITERS``, or ``open`` with a mode that writes, appends,
    creates or updates (``open(path)`` and mode "r" read)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in FILE_WRITERS:
            found.append((node.lineno, name))
        elif name == "open":
            # the mode is the second argument of open, the first of Path.open
            at = 1 if isinstance(func, ast.Name) else 0
            mode = [k.value for k in node.keywords if k.arg == "mode"] + node.args[at:at + 1]
            reads = not mode or (isinstance(mode[0], ast.Constant)
                                 and not set(str(mode[0].value)) & set("wax+"))
            if not reads:
                found.append((node.lineno, ast.unparse(node)))
    return found


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli.py"])
def test_only_the_cli_writes_files(module):
    assert file_writes((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("snippet,writes", [
    ("fh = open(path, 'w', newline='')", True),
    ("fh = open(path, mode='a')", True),
    ("fh = open(path, 'r+')", True),
    ("fh = open(path, mode)", True),
    ("fh = Path(path).open('wb')", True),
    ("np.savetxt(path, a, delimiter=',')", True),
    ("np.savez_compressed(path, matrix=a)", True),
    ("numpy.save(path, a)", True),
    ("path.write_text(text)", True),
    ("fh = open(path)", False),
    ("fh = open(path, 'r')", False),
    ("fh = Path(path).open()", False),
    ("a = np.loadtxt(path, delimiter=',')", False),
    ("text = path.read_text()", False),
])
def test_guard_flags_each_file_write(snippet, writes):
    assert bool(file_writes(snippet)) is writes


# a row times a matrix is taken as a 1-row matrix: matmul has no
# vector-times-matrix form
@pytest.mark.parametrize("a_shape,b_shape", [((7, 5), (5, 3)), ((7, 5), (5,)),
                                             ((1, 5), (5, 3)), ((5,), (5,))])
@pytest.mark.parametrize("a_order,b_order", [("C", "C"), ("C", "F"), ("F", "C"), ("F", "F")])
def test_matmul_equals_numpy(a_shape, b_shape, a_order, b_order):
    rng = np.random.default_rng(0)
    a = np.asarray(rng.standard_normal(a_shape), order=a_order)
    b = np.asarray(rng.standard_normal(b_shape), order=b_order)
    got, want = matmul(a, b), a @ b
    assert np.shape(got) == np.shape(want)
    assert np.allclose(got, want, rtol=1e-13, atol=1e-13)


def test_matmul_strided_empty_and_misaligned():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 6))
    assert np.allclose(matmul(a[::2], a[1:7, ::2]), a[::2] @ a[1:7, ::2])
    assert matmul(np.zeros((0, 3)), np.ones(3)).shape == (0,)
    assert np.array_equal(matmul(np.zeros((2, 0)), np.zeros((0, 4))), np.zeros((2, 4)))
    for a, b in [(np.ones((2, 3)), np.ones((2, 3))), (np.ones(3), np.ones((3, 2)))]:
        with pytest.raises(ValueError, match="do not align"):
            matmul(a, b)


@pytest.mark.parametrize("order", ["C", "F"])
def test_syrk_writes_the_upper_triangle(order):
    # the upper triangle of alpha a a^T, into the given buffer, with its
    # strict lower triangle untouched and the operand not copied
    rng = np.random.default_rng(4)
    a = np.asarray(rng.standard_normal((300, 40)), order=order)
    out = np.full((300, 300), 7.0, order="F")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = syrk(a, 0.5, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is out and peak - base < a.nbytes
    upper = np.triu_indices(300)
    assert np.allclose(out[upper], (0.5 * a @ a.T)[upper], rtol=1e-13, atol=1e-13)
    assert np.all(out[np.tril_indices(300, -1)] == 7.0)


def test_norm_equals_numpy():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((9, 4))
    for x in (a, np.asfortranarray(a), a[::2], a[:, 0], np.zeros(0)):
        assert norm(x) == pytest.approx(np.linalg.norm(x), rel=1e-14, abs=0.0)
    assert isinstance(norm(a), float)


def test_matmul_copies_no_operand():
    # C- and Fortran-ordered operands go to BLAS as views: the product is the
    # only array allocated
    rng = np.random.default_rng(3)
    a = rng.standard_normal((400, 300))
    b = np.asfortranarray(rng.standard_normal((300, 20)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        c = matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < c.nbytes + b.nbytes
