"""Implicit time-stepping for the 1-D time-fractional diffusion equation.

Both schemes run through one level loop over one array of layers.  At each
level the nonlocal time operator contributes ``rho * w_0`` on the new layer
plus a history sum over all previous layers, the right-hand side is
f + rho * hist, and the spatial operator makes the implicit matrix
tridiagonal.  compact4 also applies the fourth-order averaging ``H`` to the
time derivative and to f: its matrix is ``H``-scaled, and ``H``, being
linear, acts once per level on the right-hand side.  The loop runs twice per
solve, with a callable giving each level's weights: first the L1 weights
``a_s`` on a refined subgrid of [0, tau], which bootstraps the first layer
(the quadratic-interpolation weights need three time points), then the L2
weights ``c_s`` (``kernel._l2_levels``) on the main grid.  Both marches run
in the one array: the bootstrap fills its rows 0..M1, row M1 is copied to
row 1, and the main march writes rows 2..M before it reads them.
"""

from __future__ import annotations

import contextlib
import ctypes
import enum
import importlib.machinery
import importlib.util
import math
import os
import queue
import sys
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np
import scipy

from .kernel import AlphaParam, _l2_levels, a_coeff, b_coeff
from .problem import DiffusionProblem, GridSpec

__all__ = [
    "SchemeKind",
    "SolutionHistory",
    "TridiagonalSystem",
    "apply_compact_H",
    "solve",
    "thomas_solve",
]


def _load_flapack():
    """scipy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, without
    running ``scipy.linalg.__init__``, which imports most of the package.

    ``scipy.linalg.lapack`` re-exports this module's functions, so its
    ``dgttrf`` is the very object found here.  The module is registered in
    ``sys.modules`` under its full name before it runs, so a later
    ``import scipy.linalg`` reuses it instead of initialising the extension
    twice; one already there is reused.  Registered this way it is not an
    attribute of ``scipy.linalg``: ``from scipy.linalg import _flapack``
    reaches it, ``scipy.linalg._flapack`` does not.  ``import scipy`` alone
    is cheap and sets up the shared-library paths the extension needs on
    some platforms.  Where no such extension sits in scipy's ``linalg``
    directory, ``scipy.linalg.lapack`` itself is used.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(p, "linalg") for p in scipy.__path__])
    if spec is None:
        from scipy.linalg import lapack

        return lapack
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


lapack = _load_flapack()


class _OneBlasThread:
    """A scope inside which numpy's OpenBLAS runs on one thread; ``solve`` and
    ``analysis.measure_errors`` run in it.

    After each call OpenBLAS's idle workers spin for a while, so a solve's
    short BLAS calls (the history products, the error norms' dots) keep a
    second core busy for no gain, and the look-ahead of ``_march`` finds it
    taken.  The thread count is process-wide, and so is the scope: the first
    thread to enter saves the count and sets 1, the last to leave restores
    it, under one lock, so nested and concurrent scopes leave the count as
    they found it.  ``openblas_{get,set}_num_threads`` are looked up once,
    at the first entry, in the library numpy's core extension links to, with
    the ``scipy_`` prefix and ``64_`` suffix that wheel builds use or
    without them.  Where no setter is found the scope changes nothing.
    """

    _VARIANTS = (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", ""))

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._calls: tuple | None = None  # (get, set); () where none was found; None until looked up
        self._depth = 0
        self._saved = 1

    def _lookup(self) -> tuple:
        if self._calls is None:
            self._calls = ()
            core = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get("numpy.core._multiarray_umath")
            try:
                lib = ctypes.CDLL(core.__file__)
            except (AttributeError, OSError):
                return self._calls
            for prefix, suffix in self._VARIANTS:
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = (), ctypes.c_int
                    put.argtypes, put.restype = (ctypes.c_int,), None
                    self._calls = (get, put)
                    break
        return self._calls

    def found(self) -> bool:
        """Whether the thread-count setter was found; looks it up if not yet done."""
        with self._lock:
            return bool(self._lookup())

    def __enter__(self) -> None:
        with self._lock:
            calls = self._lookup()
            if calls and self._depth == 0:
                self._saved = calls[0]()
                calls[1](1)
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if self._calls and self._depth == 0:
                self._calls[1](self._saved)


_one_blas_thread = _OneBlasThread()

# The fewest spatial subintervals at which a march evaluates each level's
# fields one level ahead on a helper thread.  Table 2 in-process on a 2-core
# box: the look-ahead lost at N = 5000 and gained from N = 10 000 on.
_LOOKAHEAD_MIN_N = 8192


class SchemeKind(str, enum.Enum):
    ORDER2 = "order2"  # second order in space, k = k(x,t)
    COMPACT4 = "compact4"  # fourth order in space, needs k = k(t)


@dataclass(frozen=True)
class TridiagonalSystem:
    """A x = rhs with A tridiagonal (lower/upper of length n-1, diag of length n)."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        n = self.diag.size
        if n < 1:
            raise ValueError("empty system")
        shapes = (self.lower.shape, self.diag.shape, self.upper.shape, self.rhs.shape)
        if shapes != ((n - 1,), (n,), (n - 1,), (n,)):
            raise ValueError(f"lower, diag, upper, rhs must be 1-D of sizes n-1, n, n-1, n; got shapes {list(shapes)}")


def thomas_solve(sys: TridiagonalSystem) -> np.ndarray:
    """Solve a tridiagonal system by LU factorisation in LAPACK: ``dgttrf``
    on A^T (sub- and super-diagonal swapped), then ``dgttrs(trans="T")``.

    The Thomas sweep is Crout elimination on A: c_i = u_i / p_i,
    p_{i+1} = d_{i+1} - l_i c_i, g_i = (r_i - l_{i-1} g_{i-1}) / p_i, then
    x_i = g_i - c_i x_{i+1}.  That is Doolittle elimination on A^T, so where
    dgttrf swaps no rows (it swaps where |p_i| < |u_i|) the result is the
    sweep's, bit for bit up to the sign of a zero (dgttrs adds a term
    ``- 0 * g_{i-2}``).  Every system either scheme assembles is diagonally
    dominant and swaps no rows.  Elsewhere this is LU with partial pivoting:
    backward stable, and it solves systems the sweep cannot, such as
    [[2, 4, 0], [1, 2, 2], [0, 4, 2]].

    A system passed with ``lower is upper``, as both schemes assemble theirs,
    is factored by ``dpttrf`` (L D L^T, no pivoting) in about 40-60 % of
    dgttrf's time at 50 000 rows.  Where dgttrf swaps no rows, dpttrf's D
    and multipliers are dgttrf's pivots and multipliers, by the same
    operations, so the same ``dgttrs`` call gives the same bits; where it
    would swap, the matrix is positive definite and unpivoted L D L^T is
    backward stable.  Where dpttrf meets a pivot <= 0 (the matrix is not
    positive definite) or a pivot under the floor below, the system takes
    the dgttrf path instead, so it is solved, or refused, as any other.

    A NaN or an infinity in any of the four arrays raises ``ValueError``
    naming the array and its first such index.  It makes the pivot floor,
    max_i |p_i| or sum_i x_i^2 non-finite (sums of terms >= 0, which meet
    no inf - inf or inf * 0; ``np.vdot``, unlike ``np.dot``, does not warn
    if x overflows), and only then are the entries searched.  Otherwise a
    pivot of U at or below 1e-15 of the largest |diag|, which for the systems
    assembled here means lost diagonal dominance, raises ``ZeroDivisionError``
    naming the first such row, before the solve.  scipy's dgttrf wrapper
    rejects n <= 2, so those systems get 3 - n decoupled unit rows appended.
    """
    n = sys.diag.size
    lower, diag, upper, rhs = sys.lower, sys.diag, sys.upper, sys.rhs
    if n < 3:
        pad = np.zeros(3 - n)
        lower, diag, upper, rhs = np.r_[lower, pad], np.r_[diag, pad + 1.0], np.r_[upper, pad], np.r_[rhs, pad]
    floor = 1e-300 + 1e-15 * np.maximum.reduce(np.abs(sys.diag))
    factors = None
    if sys.lower is sys.upper:
        p, c, info = lapack.dpttrf(diag, lower)
        pivots = p[:n]  # with info == 0 each is > 0, or NaN, which fails the floor test
        if info == 0 and np.minimum.reduce(pivots) > floor:
            factors = c, p, lower, np.zeros(diag.size - 2), np.arange(1, diag.size + 1, dtype=np.int32)
    if factors is None:
        c, p, l, l2, ipiv, _ = lapack.dgttrf(upper, diag, lower)
        pivots = np.abs(p[:n])
        if not np.minimum.reduce(pivots) > floor:
            _require_finite(sys)
            raise ZeroDivisionError(f"zero pivot in tridiagonal elimination (row {np.flatnonzero(~(pivots > floor))[0]})")
        factors = c, p, l, l2, ipiv
    x = lapack.dgttrs(*factors, rhs, trans="T")[0][:n]
    if not (math.isfinite(np.maximum.reduce(pivots)) and math.isfinite(np.vdot(x, x))):
        _require_finite(sys)
    return x


def _require_finite(sys: TridiagonalSystem) -> None:
    """Raise ``ValueError`` naming the first NaN or infinite entry of the system, if it has one."""
    for name in ("lower", "diag", "upper", "rhs"):
        v = getattr(sys, name)
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"tridiagonal system has a non-finite entry: {name}[{bad[0]}] = {v[bad[0]]}")


def _evaluate(problem: DiffusionProblem, name: str, nodes: np.ndarray, t: float, compact: bool = False) -> np.ndarray:
    """Field ``name`` of the problem at ``nodes`` and time t, checked against
    what the analysis assumes: finite values, k > 0, q >= 0, u0 zero at both
    ends, and for the compact scheme k and q constant in x.  Every value the
    solver uses comes through here, so the paper's c1 is the least k a solve
    evaluates; an error names the field, t and x.
    The least and the greatest value decide every check but the u0 one: a
    NaN anywhere makes both NaN, an infinity shows in one of them, and their
    difference is np.ptp.  The node is searched for only when a check fails.
    """
    v = np.asarray(problem.u0(nodes) if name == "u0" else getattr(problem, name)(nodes, t), dtype=float)
    if v.shape != nodes.shape:
        raise ValueError(f"{name} has shape {v.shape}, not {nodes.shape}, at t={t}, x={nodes[0]}..{nodes[-1]}")
    lo, hi = np.minimum.reduce(v), np.maximum.reduce(v)
    bad = None  # an array whose argmax is the offending node
    if not (math.isfinite(lo) and math.isfinite(hi)):
        what, bad = f"{name} is not finite", ~np.isfinite(v)
    elif name == "k" and lo <= 0.0:
        what, bad = "k is not positive", v <= 0.0
    elif name == "q" and lo < -1e-12:
        what, bad = "q is negative", v < -1e-12
    elif compact and name in ("k", "q") and hi - lo > 1e-12:
        what, bad = f"compact4 needs time-only coefficients but {name} varies in x", np.abs(v - v[0])
    elif name == "u0" and max(abs(v[0]), abs(v[-1])) > 1e-12:
        what, bad = "u0 must vanish at both boundaries", np.r_[abs(v[0]), np.zeros(v.size - 2), abs(v[-1])]
    if bad is not None:
        raise ValueError(f"{what} at t={t}, x={nodes[int(np.argmax(bad))]}")
    return v


def apply_compact_H(v: np.ndarray) -> np.ndarray:
    """Fourth-order averaging operator, v_i + (v_{i+1} - 2 v_i + v_{i-1})/12.

    Endpoints pass through unchanged; downstream they only ever multiply
    homogeneous boundary values.  The second difference is built in place
    by the same operations in the same order, as v_{i+1} + (-2 v_i), which
    IEEE arithmetic rounds exactly as v_{i+1} - 2 v_i.
    """
    v = np.asarray(v, dtype=float)
    out = v.copy()
    d2 = v[1:-1] * -2.0
    d2 += v[2:]
    d2 += v[:-2]
    d2 /= 12.0
    out[1:-1] += d2
    return out


@dataclass(frozen=True)
class SolutionHistory:
    """All computed layers; layers[j, i] = y_i^j.  The nonlocal time operator
    needs every previous layer, so nothing is discarded."""

    layers: np.ndarray
    grid: GridSpec


def _by_parts(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """kappa_0 = w_j and kappa_s = w_{j-s} - w_{j-s+1} of the weights w_0..w_j,
    the bits of np.diff(w[::-1], prepend=0.0), by one subtraction into out[:j+1]."""
    rev = w[::-1]
    kappa = out[: w.size]
    kappa[0] = rev[0]
    np.subtract(rev[1:], rev[:-1], out=kappa[1:])
    return kappa


def _advance(
    grid: GridSpec,
    layers: np.ndarray,
    j: int,
    rho: float,
    w: np.ndarray,
    kappa: np.ndarray,
    fields: tuple[np.ndarray, np.ndarray, np.ndarray],
    compact: bool,
) -> None:
    """Write the interior of layer j+1 from layers 0..j.

    With the level's weights w, the time derivative at t_{j+1} is
    rho * (w_0 y^{j+1} - hist) with
    hist = w_0 y^j - sum_{s=0}^{j-1} w_{j-s} (y^{s+1} - y^s), summed by parts
    as one matrix-vector product of ``_by_parts(w, kappa)`` with the
    contiguous layers 0..j, with no temporary the size of the history.  For
    order2 the implicit matrix is rho w_0 I - Lambda(t_{j+1}) and the
    right-hand side f + rho * hist; for compact4 they are
    (rho w_0 + q) H - k D2, constant since k = k(t), q = q(t), and
    H (f + rho * hist).  ``fields`` holds the level's f at x_i, k at
    x_{i-1/2} and q at x_i, as ``_march`` evaluated them.  The system is
    built in place, by the same operations in the same order as the plain
    expressions, so the bits are theirs.  Kept as its own call so that each
    level's temporaries are freed before the next one is built.  The solve
    looks up the module-level ``thomas_solve`` at each call, so a wrapper
    put there (a profiler's span, a test's reference sweep) sees every solve.
    """
    f, a_half, d = fields
    del fields
    rhs = _by_parts(w, kappa) @ layers[: j + 1]
    rhs *= rho  # f + rho * hist
    rhs += f
    del f
    d = d[1:-1]
    h2 = grid.h * grid.h
    coef = rho * w[0]
    if compact:
        rhs = apply_compact_H(rhs)
        wd = coef + d[0]
        a = a_half[0]
        diag = np.full(grid.N - 1, wd * 10.0 / 12.0 + 2.0 * a / h2)
        off = np.full(grid.N - 2, wd / 12.0 - a / h2)
    else:
        diag = a_half[1:] + a_half[:-1]  # coef + (a_{i+1} + a_i) / h2 + d_i
        diag /= h2
        diag += coef
        diag += d
        off = a_half[1:-1] / -h2
    layers[j + 1, 1:-1] = thomas_solve(TridiagonalSystem(lower=off, diag=diag, upper=off, rhs=rhs[1:-1]))


def _evaluated_ahead(evaluate: Callable[[int], object], levels: range) -> Iterator:
    """evaluate(j) for each level j of ``levels`` in order, each computed on
    one helper thread while the caller works on the level before.

    The helper is asked for level j+1 only once it has delivered level j,
    so the calls come one at a time, in level order, and none past the last
    level.  An exception evaluate(j) raised is raised here when the caller
    asks for level j, and no later level is asked for.  Closing the
    generator (the caller must, as ``contextlib.closing`` does) lets the
    helper finish a pending level, discards it, and joins the thread, so no
    thread outlives the march, whatever ends it.
    """
    requests, results = queue.SimpleQueue(), queue.SimpleQueue()

    def work() -> None:
        for j in iter(requests.get, None):
            try:
                results.put((evaluate(j), None))
            except BaseException as err:  # re-raised on the caller's thread
                results.put((None, err))

    # a Thread, not a concurrent.futures pool: a pool cannot start once the interpreter shuts down
    helper = threading.Thread(target=work, name="fracheat-lookahead")
    requests.put(levels[0])
    helper.start()
    try:
        for after in (*levels[1:], None):
            value, err = results.get()
            if err is not None:
                raise err
            requests.put(after)
            yield value
    finally:
        requests.put(None)
        helper.join()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _march(
    problem: DiffusionProblem,
    grid: GridSpec,
    layers: np.ndarray,
    first: int,
    tau: float,
    alpha: AlphaParam,
    weights: Callable[[int], np.ndarray],
    compact: bool,
) -> None:
    """Fill the interiors of layers[first+1:] in place at time step tau from
    layers[:first+1]; their boundary entries stay as they are, zero.  Rows
    past ``first`` are written before they are read, so ``layers`` may hold
    an earlier march's rows there: ``solve`` runs the bootstrap and the main
    march in one array.

    ``weights(j)`` gives the weights w_0..w_j of level j.  Their differences
    go into one buffer per march: a new small array per level, kept by
    numpy's small-block cache, raised the peak RSS of repeated 50 000-node
    solves by up to 16 MB.  Each level's f, k and q come from ``_evaluate``,
    once per level and in level order, at nodes built once per march.  The
    node arrays are read-only, so a field that writes to its x fails instead
    of moving the nodes of later levels.

    On wide grids (N >= ``_LOOKAHEAD_MIN_N``) with two levels or more, at
    least 2 usable CPUs and OpenBLAS's thread setter found, one helper
    thread evaluates level j+1's fields (``_evaluated_ahead``) while this
    thread forms level j's history, assembles it and solves it; otherwise
    this thread evaluates them itself.  The loop is the same either way.
    """
    rho = tau ** (-alpha.alpha) / alpha.gamma_2ma
    nodes = (grid.x_nodes(), grid.x_half_nodes())
    for x in nodes:
        x.flags.writeable = False
    kappa = np.empty(layers.shape[0] - 1)
    levels = range(first, layers.shape[0] - 1)

    def evaluate(j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x, x_half = nodes
        t_new = (j + 1) * tau
        return (
            _evaluate(problem, "f", x, t_new),
            _evaluate(problem, "k", x_half, t_new, compact),
            _evaluate(problem, "q", x, t_new, compact),
        )

    ahead = grid.N >= _LOOKAHEAD_MIN_N and len(levels) > 1 and _usable_cpus() > 1 and _one_blas_thread.found()
    fields = _evaluated_ahead(evaluate, levels) if ahead else (evaluate(j) for j in levels)
    with contextlib.closing(fields):
        for j in levels:
            _advance(grid, layers, j, rho, weights(j), kappa, next(fields), compact)


def solve(
    problem: DiffusionProblem,
    grid: GridSpec,
    alpha: AlphaParam,
    scheme: SchemeKind = SchemeKind.ORDER2,
) -> SolutionHistory:
    """Run a full solve: layer 0 from u0, layer 1 from the L1 bootstrap, then L2 levels.

    The bootstrap subgrid has M1 = ceil(tau^(-1/(2-alpha))) uniform substeps,
    i.e. a substep tau/M1 = O(tau^((3-alpha)/(2-alpha))), which lifts the L1
    order 2-alpha back to the 3-alpha accuracy the main scheme needs from
    its starting value.  The bootstrap marches in rows 0..M1 of the array
    of layers, whose row M1 is then copied to row 1; the main march
    overwrites rows 2..M.  So the array has max(M, M1) + 1 rows (M1 > M
    where the horizon is short: horizon 0.01 and M = 10 give M1 = 100 at
    alpha = 0.5), and the returned layers are its first M + 1 rows, a
    contiguous view.

    The fields are called once per level, in level order, one call at a
    time, and k and q are called at t > 0 only.  On wide grids
    (N >= 8192, with 2 usable CPUs or more) they are called on a helper
    thread, one level ahead of the solves, so a field must not rely on
    running on the calling thread; the helper is joined before ``solve``
    returns or raises.  An error a field raises at level j still surfaces
    only after level j-1 is written.  numpy's OpenBLAS runs on one thread
    for the whole solve, and its thread count is restored on exit.
    """
    compact = SchemeKind(scheme) is SchemeKind.COMPACT4
    m1 = max(1, math.ceil((1.0 / grid.tau) ** (1.0 / (2.0 - alpha.alpha))))
    with _one_blas_thread:
        rows = np.zeros((max(grid.M, m1) + 1, grid.N + 1))
        rows[0] = _evaluate(problem, "u0", grid.x_nodes(), 0.0)
        rows[0, [0, -1]] = 0.0

        a_l1 = a_coeff(np.arange(m1), alpha)
        _march(problem, grid, rows[: m1 + 1], 0, grid.tau / m1, alpha, lambda j: a_l1[: j + 1], compact)
        rows[1] = rows[m1]

        layers = rows[: grid.M + 1]
        idx = np.arange(grid.M)
        l2_weights = _l2_levels(a_coeff(idx, alpha), b_coeff(idx, alpha))
        _march(problem, grid, layers, 1, grid.tau, alpha, l2_weights, compact)
    return SolutionHistory(layers=layers, grid=grid)
