"""Dense solves and products on scipy's LAPACK and BLAS."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import vkstab as vk
from vkstab import linalg
from vkstab.linalg import block_cg, gram, matvec, minres


@pytest.fixture
def system():
    """A symmetric indefinite operator on (2, 150) arrays, its positive
    diagonal preconditioner and a right-hand side."""
    rng = np.random.default_rng(3)
    diag = np.linspace(1.0, 1e4, 300)
    g = rng.standard_normal((300, 300))
    a = np.diag(diag) - 30.0 * (g + g.T) - 200.0 * np.eye(300)
    return a, diag.reshape(2, 150), rng.standard_normal((2, 150))


def _apply(a):
    return lambda x: (a @ x.ravel()).reshape(x.shape)


def test_minres_matches_a_dense_solve(system):
    a, precond, b = system
    assert np.min(np.linalg.eigvalsh(a)) < 0 < np.max(np.linalg.eigvalsh(a))
    x = minres(_apply(a), b, precond)
    assert x.shape == b.shape
    ref = scipy.linalg.solve(a, b.ravel()).reshape(b.shape)
    assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_minres_leaves_its_inputs_alone(system):
    a, precond, b = system
    a0, p0, b0 = a.copy(), precond.copy(), b.copy()
    minres(_apply(a), b, precond)
    assert np.array_equal(a, a0) and np.array_equal(precond, p0) and np.array_equal(b, b0)
    assert np.array_equal(minres(_apply(a), np.zeros_like(b), precond), np.zeros_like(b))


def test_minres_on_a_singular_operator_raises_solver_error():
    with pytest.raises(vk.SolverError, match="singular operator"):
        minres(lambda x: 0.0 * x, np.ones(4), np.ones(4))


def test_minres_that_does_not_converge_names_its_iterations_and_residual(monkeypatch, system):
    a, precond, b = system
    monkeypatch.setattr(linalg, "MINRES_MAXITER", 1)
    with pytest.raises(vk.SolverError, match=r"MINRES did not converge in 1 iterations "
                                             r"\(relative residual \d\.\d{3}e[-+]\d\d\)"):
        minres(_apply(a), b, precond)


def test_matvec_matches_matmul(system):
    a, _, b = system
    b = b.ravel()
    assert np.allclose(matvec(a, b), a @ b, rtol=1e-14, atol=1e-12)
    strided = a[::2, ::2]
    assert np.allclose(matvec(strided, b[::2]), strided @ b[::2], rtol=1e-14, atol=1e-12)


def test_gram_matches_matmul(system):
    a, _, b = system
    rows = a[:40]
    assert np.allclose(gram(rows, a[40:47]), rows @ a[40:47].T, rtol=1e-14, atol=1e-10)
    assert gram(b, b).shape == (2, 2)
    assert np.allclose(gram(b, b), b @ b.T, rtol=1e-14, atol=1e-12)


@pytest.fixture
def spd():
    """A symmetric positive definite operator on rows of (2, 150) arrays,
    the diagonal preconditioner it is dominated by, and five right-hand
    sides, one of them 0."""
    rng = np.random.default_rng(4)
    diag = np.linspace(1.0, 1e3, 300)
    g = rng.standard_normal((300, 300))
    a = np.diag(diag) + 0.1 * np.sqrt(np.outer(diag, diag)) * (g + g.T) / np.sqrt(300)
    b = rng.standard_normal((5, 2, 150))
    b[2] = 0.0
    return a, diag.reshape(2, 150), b


def _apply_rows(a):
    return lambda x: (x.reshape(len(x), -1) @ a).reshape(x.shape)


def test_block_cg_matches_a_dense_solve_row_by_row(spd):
    a, precond, b = spd
    assert np.min(np.linalg.eigvalsh(a)) > 0
    tol = 1e-8
    x, r, its = block_cg(_apply_rows(a), b, precond, np.zeros_like(b), tol)
    ref = scipy.linalg.solve(a, b.reshape(5, -1).T).T.reshape(b.shape)
    assert 0 < its < linalg.CG_MAXITER
    assert np.max(np.linalg.norm(r.reshape(5, -1), axis=1)) <= tol
    assert np.max(np.abs(x - ref)) <= 1e-8 * np.max(np.abs(ref))
    assert np.max(np.abs(r - (b - _apply_rows(a)(x)))) <= 1e-12 * np.max(np.abs(b))
    assert not np.any(x[2]) and not np.any(r[2])
    # started from the solution, it takes no iteration
    assert block_cg(_apply_rows(a), b, precond, ref, tol)[2] == 0


def test_block_cg_that_does_not_converge_names_its_iterations_and_residual(monkeypatch, spd):
    a, precond, b = spd
    monkeypatch.setattr(linalg, "CG_MAXITER", 1)
    with pytest.raises(vk.SolverError, match=r"block CG did not converge in 1 iterations "
                                             r"\(residual \d\.\d{3}e[-+]\d\d, "
                                             r"tolerance 1\.000e-08\)"):
        block_cg(_apply_rows(a), b, precond, np.zeros_like(b), 1e-8)


@pytest.fixture
def sectors():
    """Two positive definite systems of 150 unknowns each, interleaved on the
    last axis of (6, 300) rows (sector 0 on the even slots, sector 1 on the
    odd ones) by an operator that never mixes them, its preconditioner,
    and right-hand sides with an empty sector in row 3 and an empty row 5."""
    rng = np.random.default_rng(5)
    mats = []
    for scale in (0.1, 0.3):
        diag = np.linspace(1.0, 1e3, 150)
        g = rng.standard_normal((150, 150))
        mats.append(np.diag(diag)
                    + scale * np.sqrt(np.outer(diag, diag)) * (g + g.T) / np.sqrt(150))
    precond = np.tile(np.linspace(1.0, 1e3, 150), (2, 1)).T.ravel()

    def apply(x):
        out = np.empty_like(x)
        for s, a in enumerate(mats):
            out[:, s::2] = x[:, s::2] @ a
        return out

    b = rng.standard_normal((6, 300))
    b[3, 1::2] = 0.0
    b[5] = 0.0
    return mats, apply, precond, b


def test_block_cg_with_sectors_matches_a_dense_solve_row_by_row(sectors):
    """Each (row, sector) is solved as its own system would be."""
    mats, apply, precond, b = sectors
    tol = 1e-8
    x, r, its = block_cg(apply, b, precond, np.zeros_like(b), tol, 2)
    assert 0 < its < linalg.CG_MAXITER
    for s, a in enumerate(mats):
        ref = scipy.linalg.solve(a, b[:, s::2].T).T
        assert np.max(np.abs(x[:, s::2] - ref)) <= 1e-8 * np.max(np.abs(ref))
        assert np.max(np.linalg.norm(r[:, s::2], axis=1)) <= tol
    assert np.max(np.abs(r - (b - apply(x)))) <= 1e-12 * np.max(np.abs(b))
    assert not np.any(x[3, 1::2]) and not np.any(x[5]) and not np.any(r[5])
    # one sector alone takes as many iterations as it does interleaved: its
    # step lengths are its own
    alone = [block_cg(lambda y, a=a: y @ a, b[:, s::2], precond[s::2],
                      np.zeros((6, 150)), tol)[2] for s, a in enumerate(mats)]
    assert its == max(alone)


def test_each_sector_stops_on_its_own_residual(sectors):
    """A (row, sector) started at its solution does not move while the
    other sector of the same row iterates."""
    mats, apply, precond, b = sectors
    x0 = np.zeros_like(b)
    x0[:, 1::2] = scipy.linalg.solve(mats[1], b[:, 1::2].T).T
    x, r, its = block_cg(apply, b, precond, x0, 1e-8, 2)
    assert its > 0
    assert np.array_equal(x[:, 1::2], x0[:, 1::2])
    assert np.max(np.linalg.norm(r[:, ::2], axis=1)) <= 1e-8
    # as one sector, a row shares its step lengths: its solved half moves
    moved = block_cg(apply, b, precond, x0, 1e-8)[0]
    assert not any(np.array_equal(moved[i, 1::2], x0[i, 1::2]) for i in range(3))


def test_certify_makes_no_numpy_solve(monkeypatch):
    """The Newton, slope and refinement solves share one BLAS with the
    eigensolves."""
    def no_numpy_solve(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    g = vk.make_grid("line", 20.0, 256)
    profs = (vk.soliton_solve(-1.0, 3.0, g),
             vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g))
    monkeypatch.setattr(np.linalg, "solve", no_numpy_solve)
    for prof in profs:
        assert vk.certify(prof).verdict == "certified_coercive"
    assert vk.soliton_solve(-1.0, 6.0, g).omega == -1.0
    assert vk.coupled_stability_criteria(profs[1])["stable"]


SRC = Path(vk.__file__).parent
MODULES = sorted(path.name for path in SRC.glob("*.py"))
# The numpy products and solves, and the dense n x n builders (circulant,
# block_diag), allowed in the package, by module and qualified function
# name, each with its reason.  Any other product or solve would run on
# numpy's OpenBLAS pool next to scipy's eigensolves; any other dense builder
# would bring back the n x n blocks that the Schur complements and the torus
# modes replace.
NUMPY_BLAS_ALLOWED = {
    "cli.py": {"_cmd_so3": "the norm of a random 6-vector perturbation"},
    "model.py": {"CoupledTorus.resolve": "the 2 x 2 solve of the dispersion relation"},
    "slope.py": {"d2w_tilde": "basis.T @ d2w @ basis, of the size of xi"},
    "spectral.py": {"_circulant": "the public dense D1 and D2, which the package does not "
                                  "call"},
    "so3.py": {
        "_AxisParts.of": "3-vectors projected on the rotation axis",
        "grad_L6": "dot products of the 3-vectors q and p",
        "hessian6": "dot products of the 3-vectors q and p",
        "orbit_distance": "stacked 6-vectors projected on the reference orbit's plane "
                          "(one pair is computed in Python floats, with no product)",
    },
}


DENSE_BUILDERS = ("circulant", "block_diag")


def _numpy_blas_calls(tree):
    """(qualified function name, line, what) of every `@`, `dot`, `matmul`,
    `np.linalg.solve`, `circulant` and `block_diag` in a module."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        what = None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            what = "@"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = ast.unparse(node.func)
            if (node.func.attr in ("dot", "matmul") + DENSE_BUILDERS
                    or name == "np.linalg.solve"):
                what = name
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in DENSE_BUILDERS):
            what = node.func.id
        if what:
            found.append((".".join(scope), node.lineno, what))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_numpy_blas_outside_the_allowlist(module):
    """Dense products and solves go through vkstab.linalg (scipy's BLAS), and no
    n x n matrix is built outside the allowlist."""
    tree = ast.parse((SRC / module).read_text())
    allowed = NUMPY_BLAS_ALLOWED.get(module, {})
    stray = [f"{module}:{line} {what} in {fn}" for fn, line, what in _numpy_blas_calls(tree)
             if fn not in allowed]
    assert not stray, ("numpy BLAS call or dense builder outside the allowlist: "
                       + "; ".join(stray))


# LAPACK's and scipy's eigenvector routines: h2 is decided from the orbit
# tangents' Ritz values, so no eigenvector is computed in the package.
EIGENVECTOR_ROUTINES = ("dormqr", "dstein", "subspace_angles", "eigh")


def _eigenvector_calls(tree):
    """(qualified function name, line, what) of every use of an eigenvector
    routine in a module (a call, an attribute or an import)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        found.extend((".".join(scope), node.lineno, name)
                     for name in names if name in EIGENVECTOR_ROUTINES)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_eigenvector_routine_in_the_package(module):
    tree = ast.parse((SRC / module).read_text())
    stray = [f"{module}:{line} {what} in {fn}" for fn, line, what in _eigenvector_calls(tree)]
    assert not stray, "eigenvector routine in the package: " + "; ".join(stray)


def test_the_eigenvector_guard_sees_what_it_guards():
    tree = ast.parse(
        "from scipy.linalg import eigh, eigvalsh\n"
        "class A:\n    def f(self, a, c, tau, z):\n"
        "        return lapack.dormqr(b'L', b'N', c, tau, z), lapack.dstein(a, z)\n"
        "def g(a, b):\n    return scipy.linalg.subspace_angles(a, b), np.linalg.eigh(a)\n"
        "def h(d):\n    return np.linalg.eigvalsh(d), scipy.linalg.eigvalsh(d, d)\n")
    assert [(fn, what) for fn, _, what in _eigenvector_calls(tree)] == [
        ("", "eigh"), ("A.f", "dormqr"), ("A.f", "dstein"), ("g", "subspace_angles"),
        ("g", "eigh")]


# The dense tridiagonal path that the base grid's spectrum took (a Householder
# reduction of each parity part, then bisection): the Schur complements'
# inertia replaced it, so no part of it may come back.
TRIDIAGONAL_ROUTINES = ("dsytrd", "dsytrd_lwork", "eigh_tridiagonal", "stebz")


def _tridiagonal_uses(tree):
    """(qualified function name, line, what) of every name, attribute,
    import or string constant in a module that names a tridiagonal routine
    (a string: `lapack_driver="stebz"`)."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        names = []
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        found.extend((".".join(scope), node.lineno, name)
                     for name in names if name in TRIDIAGONAL_ROUTINES)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_tridiagonal_routine_in_the_package(module):
    tree = ast.parse((SRC / module).read_text())
    stray = [f"{module}:{line} {what} in {fn}" for fn, line, what in _tridiagonal_uses(tree)]
    assert not stray, "tridiagonal routine in the package: " + "; ".join(stray)


def test_the_tridiagonal_guard_sees_what_it_guards():
    tree = ast.parse(
        "from scipy.linalg import eigh_tridiagonal\n"
        "class A:\n    def f(self, a):\n"
        "        lwork, _ = lapack.dsytrd_lwork(a.shape[0], lower=1)\n"
        "        return lapack.dsytrd(a.T, lower=1, lwork=int(lwork), overwrite_a=1)\n"
        "def g(d, e):\n    return scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True, "
        "select='i',\n                                         lapack_driver='stebz')\n"
        "def h(a):\n    return scipy.linalg.eigvalsh(a), 'a docstring on stebz'\n")
    assert [(fn, what) for fn, _, what in _tridiagonal_uses(tree)] == [
        ("", "eigh_tridiagonal"), ("A.f", "dsytrd_lwork"), ("A.f", "dsytrd"),
        ("g", "eigh_tridiagonal"), ("g", "stebz")]


def test_certify_computes_no_eigenvector(monkeypatch):
    """The line models, the torus and so3 certify with every eigenvector
    routine the package used to call raising."""
    def no_vectors(*args, **kwargs):
        raise AssertionError("eigenvector routine called")

    g = vk.make_grid("line", 20.0, 256)
    profs = (vk.soliton_solve(-1.0, 3.0, g),
             vk.coupled_soliton(-1.0, vk.Coupled(1.0, 1.0, 2.0), g),
             vk.plane_wave(1.0, 1.0, vk.Coupled(-1.0, -1.0, -0.5),
                           vk.make_grid("periodic", 2 * np.pi, 64)))
    for module, name in ((scipy.linalg.lapack, "dormqr"), (scipy.linalg.lapack, "dstein"),
                         (scipy.linalg, "subspace_angles"), (scipy.linalg, "eigh"),
                         (np.linalg, "eigh")):
        monkeypatch.setattr(module, name, no_vectors)
    for prof in profs:
        assert vk.certify(prof).verdict == "certified_coercive"
    assert vk.certify_so3(1.0, 1.0, 1.0).verdict == "certified_coercive"


def test_the_blas_guard_sees_what_it_guards():
    tree = ast.parse("class A:\n    def f(self, a, b):\n        return a @ b + np.dot(a, b)\n"
                     "def g(a, b):\n    return a.dot(b), np.linalg.solve(a, b)\n"
                     "def h(c):\n    return scipy.linalg.circulant(c), block_diag(c, c)\n")
    assert [(fn, what) for fn, _, what in _numpy_blas_calls(tree)] == [
        ("A.f", "@"), ("A.f", "np.dot"), ("g", "a.dot"), ("g", "np.linalg.solve"),
        ("h", "scipy.linalg.circulant"), ("h", "block_diag")]
    for module, entries in NUMPY_BLAS_ALLOWED.items():     # no stale entry
        calls = {fn for fn, _, _ in _numpy_blas_calls(ast.parse((SRC / module).read_text()))}
        assert set(entries) <= calls
