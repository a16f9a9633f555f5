"""The block scan behind the path recursions, against the sequential one.

``paths._scan(alpha, z0, inc, c)`` gives z_0 = z0, z_{k+1} = alpha z_k +
c inc_k along each row.  The reference is the same recursion as a plain
Python float loop.

Rounding bound.  Both evaluations form z_k as a sum of the terms
z0 alpha^k and c alpha^{k-1-j} inc_j, j < k, each term the product of
its factors, so each is within gamma_m Z_k of the exact value (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., sec. 3.1 and
4.2), where Z_k = |z0| |alpha|^k + sum_j |c| |alpha|^{k-1-j} |inc_j| is
the sum of the terms' sizes (the recursion on absolute values), m the
largest number of roundings on the way of any one term, u = 2^-53 and
gamma_m = m u / (1 - m u).

- The loop rounds a term once when it forms c inc_j and twice per step
  after (times alpha, plus): m_loop = 2k + 1.
- The scan forms a block weight c / alpha^{j+1} with three roundings (a
  power within one ulp, which is two units u, and a quotient) and the
  product with inc_j with one more; every step adds one term to a
  running sum, so a term meets at most k additions in all; and at the
  end of each of the ceil(k / B) blocks it crosses, the product with
  alpha^i costs three (the power and the product).  So m_scan = k +
  3 ceil(k / B) + 4.  In the step form (B = 1) a term costs one rounding
  to form and two per step, which this count covers.

Hence |scan - loop| <= (gamma_{m_scan} + gamma_{m_loop}) Z_k.  Z_k is
itself computed in floats, within gamma_{2k+1} < 1e-10 of its value for
the k here, which the factor 1.01 covers.  Where alpha is subnormal
(lam dt = 745) the products alpha z_k underflow; an underflowed rounding
errs by at most 2^-1075 absolutely, and with |alpha| < 1 no later factor
enlarges it, which adds (m_scan + m_loop) 2^-1075.
"""
import math

import numpy as np
import pytest

from wbou import DomainError, SimulationGrid, wbou_from_increments
from wbou.paths import _SPAN, _scan

U = 2.0**-53
STEPS = [1e-6, 1e-3, 0.01, 1.0, 29.9, 31.0, 745.0, 1000.0]


def _block(h, n):
    """The block length the kernel uses for |ln alpha| = h on n steps."""
    return n if h * n <= _SPAN else max(1, int(_SPAN / h))


def _lengths(h):
    """n a multiple of the block length and n not one: two full blocks and
    two blocks plus seven steps, at most 60 007 steps; at lam dt = 1e-6
    one block covers the whole row."""
    b = min(int(_SPAN / h), 30_000) if h <= _SPAN / 2 else 1
    return [2 * b, 2 * b + 7]


def _loop(alpha, z0, inc, c):
    """The recursion and its absolute-value majorant Z, in Python floats."""
    z, big = [z0], [abs(z0)]
    for x in inc:
        z.append(alpha * z[-1] + c * x)
        big.append(abs(alpha) * big[-1] + abs(c) * abs(x))
    return np.array(z), np.array(big)


def _gamma(m):
    return m * U / (1.0 - m * U)


def _cases():
    for h in STEPS:
        for mode in ("decaying", "growing"):
            if mode == "growing" and h > 709:
                continue  # e^{lam dt} is not a float
            for n in _lengths(h):
                for rows in (1, 5):
                    yield pytest.param(h, mode, n, rows, id=f"{h:g}-{mode}-n{n}-rows{rows}")


def _inputs(h, mode, n, rows, seed):
    """alpha, starts, increments and c for the engine's two recursions
    (c = alpha decaying) or the CARMA replay's growing one (c = -e^{lam dt})."""
    rng = np.random.default_rng(seed)
    alpha = math.exp(-h if mode == "decaying" else h)
    c = alpha if mode == "decaying" else -alpha
    return alpha, rng.normal(1.0, 1.0, rows), rng.normal(0.3, 1.0, (rows, n)), c


@pytest.mark.parametrize("h, mode, n, rows", list(_cases()))
def test_scan_is_the_sequential_recursion_within_its_rounding_bound(h, mode, n, rows):
    alpha, z0, inc, c = _inputs(h, mode, n, rows, seed=int(h * 1000) + n + rows)
    out = _scan(alpha, z0, inc, c)
    assert out.shape == (rows, n + 1) and out.flags.c_contiguous
    b = _block(h, n)
    k = np.arange(n + 1)
    m_scan = k + 3 * -(-k // b) + 4
    m_loop = 2 * k + 1
    for r in range(rows):
        want, big = _loop(alpha, float(z0[r]), inc[r].tolist(), c)
        tol = (1.01 * (_gamma(m_scan) + _gamma(m_loop)) * big
               + (m_scan + m_loop) * 2.0**-1075)
        assert np.all(np.abs(out[r] - want) <= tol)


@pytest.mark.parametrize("h", STEPS)
def test_nonnegative_inputs_give_exactly_nonnegative_output(h):
    rng = np.random.default_rng(5)
    alpha = math.exp(-h)
    for n in _lengths(h):
        inc = rng.exponential(1.0, (3, n)) * (rng.random((3, n)) < 0.1)
        for c in (alpha, 1.0):
            assert _scan(alpha, np.array([0.0, 1e-300, 2.0]), inc, c).min() >= 0.0
            assert _scan(alpha, np.zeros(3), inc, c, reverse=True).min() >= 0.0


@pytest.mark.parametrize("h", STEPS)
def test_each_row_of_a_batch_is_that_row_scanned_alone(h):
    alpha, z0, inc, c = _inputs(h, "decaying", _lengths(h)[1], 4, seed=7)
    for reverse in (False, True):
        batch = _scan(alpha, z0, inc, c, reverse=reverse)
        for r in range(4):
            alone = _scan(alpha, z0[r:r + 1], inc[r:r + 1], c, reverse=reverse)
            assert np.array_equal(batch[r], alone[0])


@pytest.mark.parametrize("h", STEPS)
def test_reverse_runs_the_recursion_from_the_right_end(h):
    """The reversed scan is the scan of the reversed increments, reversed,
    bitwise, and is C-contiguous itself."""
    alpha, z0, inc, _ = _inputs(h, "decaying", _lengths(h)[1], 3, seed=8)
    out = _scan(alpha, z0, inc, 1.0, reverse=True)
    assert out.flags.c_contiguous
    assert np.array_equal(out, _scan(alpha, z0, inc[:, ::-1].copy(), 1.0)[:, ::-1])


@pytest.mark.parametrize("lam, dt", [(1.0, 0.01), (0.05, 0.01), (1.0, 1.0), (100.0, 1.0)])
@pytest.mark.parametrize("scale", [1e290, 1e300, 1e304, 1e306, 1e307])
def test_huge_increments_give_a_finite_path_or_domain_error(lam, dt, scale):
    """The scan weights a block by up to e^{_SPAN}, so it overflows where
    the sequential recursion would not; that ends in DomainError, never
    in a path holding inf or NaN, and no RuntimeWarning escapes."""
    grid = SimulationGrid(100 * dt, dt)
    rng = np.random.default_rng(9)
    dl = scale * rng.random(grid.n)
    past = scale * rng.random(50)
    try:
        path = wbou_from_increments(lam, grid, dl, dl_past=past, dl_tail=past)
    except DomainError as exc:
        assert "must be finite" in str(exc)
    else:
        for a in (path.x, path.x_minus, path.x_plus):
            assert np.isfinite(a).all()


def test_huge_increments_meet_both_outcomes():
    """The sweep above is not vacuous: 1e290 comes out finite, 1e307 is
    refused."""
    grid = SimulationGrid(1.0, 0.01)
    assert np.isfinite(wbou_from_increments(1.0, grid, np.full(grid.n, 1e290)).x).all()
    with pytest.raises(DomainError, match="the path at lam=1, dt=0.01"):
        wbou_from_increments(1.0, grid, np.full(grid.n, 1e307))
