"""Acceptance checklist: one test per release criterion.

Each test prints a single ``criterion NN <name>: PASS/FAIL — detail``
line (run ``pytest -s tests/test_acceptance.py`` to see them all) and
then asserts.  The criteria pin the headline behaviors of the package:
closed forms against independent quadrature, simulation against theory
at Monte Carlo tolerances, the CARMA replay, the estimation pipeline,
and the stochastic-volatility identities.

Criterion 10 checks the explicit integrated-volatility formula against
the trapezoid integral.  For the simulated path, which is continuous and
piecewise exponential, the two agree exactly up to the factor
(h/2) coth(h/2) with h = lam * dt, so their gap is second order in dt.
The test id keeps its historical ``_first_order`` suffix so that run
history stays traceable; see the test docstring for the derivation.
"""
import math

import numpy as np

from wbou import (
    AcfEstimate,
    SecondOrderParams,
    SimulationGrid,
    SvSpec,
    acf_x,
    big_r,
    brownian,
    carma_from_wbou,
    char_fn_x,
    compound_poisson,
    corr_squared_returns,
    deterministic_drift,
    empirical_acf,
    fit_acf,
    gamma_subordinator,
    increment_acf,
    increment_acf_ou,
    integrated_vol_explicit,
    kbar,
    lambda_sign_threshold,
    max_abs_increment,
    rbar_fn,
    simulate_carma,
    simulate_wbou,
    simulate_wbou_ensemble,
    triplet_of_x,
)
from wbou.drivers import ExponentialJumps, NormalJumps, PointMassJumps
from wbou.svmodel import simulate_sv_ensemble

from helpers import (
    coarsen_draws,
    corr_se,
    dense_draws,
    ecf,
    fd_derivative,
    gamma_x_oracle,
    mean_se,
    phi_x_oracle,
    replay_dense,
    rng_for,
    var_se,
)

GAMMA11 = gamma_subordinator(1.0, 1.0)


def _report(num: int, name: str, ok, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {status} — {detail}", flush=True)
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _fine_and_coarse(driver, lam: float, t_max: float, dt: float, rng, levels: int = 1):
    """The dense reference increments on the grid of step dt and their
    pairwise coarsenings, levels times (shared randomness), each with
    its replayed path: a list of (draws, path) from the finest grid."""
    draws = dense_draws(driver, lam, SimulationGrid(t_max, dt), rng=rng)
    out = [(draws, replay_dense(lam, SimulationGrid(t_max, dt), draws))]
    for _ in range(levels):
        dt, draws = 2 * dt, coarsen_draws(draws)
        out.append((draws, replay_dense(lam, SimulationGrid(t_max, dt), draws)))
    return out


# ---------------------------------------------------------------------------
# 1. sign threshold of the first-order increment autocorrelation


def test_criterion_01_sign_threshold():
    lam_star = lambda_sign_threshold()
    err = abs(lam_star - 1.25643)
    _report(1, "sign-threshold", err <= 5e-4,
            f"lambda* = {lam_star:.10f}, |err vs 1.25643| = {err:.2e} <= 5e-4")


# ---------------------------------------------------------------------------
# 2. stationary moments from a large simulated ensemble


def test_criterion_02_stationary_moments():
    lam, dt, t_max, n_paths = 1.0, 1e-3, 7.0, 10_000
    grid = SimulationGrid(t_max, dt)
    idx = {h: round((5.0 + h) / dt) for h in (0.0, 0.5, 1.0, 2.0)}
    rng = rng_for("acceptance", "c02")
    cols = []
    for _ in range(25):
        ens = simulate_wbou_ensemble(GAMMA11, lam, grid, 400, rng=rng)
        cols.append(ens.x[:, sorted(idx.values())])
    x = np.concatenate(cols)          # (n_paths, 4) values at t = 5, 5.5, 6, 7
    assert x.shape == (n_paths, 4)

    x5 = x[:, 0]
    mean_err, mean_band = abs(x5.mean() - 2.0), 4 * mean_se(x5)
    var_err, var_band = abs(x5.var(ddof=1) - 1.0), 4 * var_se(x5)
    checks = [
        (f"mean {x5.mean():.4f} vs 2 (band {mean_band:.4f})", mean_err <= mean_band),
        (f"var {x5.var(ddof=1):.4f} vs 1 (band {var_band:.4f})", var_err <= var_band),
    ]
    for j, h in enumerate((0.5, 1.0, 2.0), start=1):
        r_hat = np.corrcoef(x5, x[:, j])[0, 1]
        r_true = (1 + lam * h) * np.exp(-lam * h)
        band = 4 * corr_se(x5, x[:, j])
        checks.append((f"acf({h}) {r_hat:.4f} vs {r_true:.4f} (band {band:.4f})",
                       abs(r_hat - r_true) <= band))
    _report(2, "stationary-moments", all(ok for _, ok in checks),
            "; ".join(msg for msg, _ in checks))


# ---------------------------------------------------------------------------
# 3. path continuity contrast with the one-sided process


def test_criterion_03_continuity_contrast():
    driver = compound_poisson(5.0, ExponentialJumps(1.0))
    lam, t_max, dt = 1.0, 50.0, 0.005
    ratios_wbou, ratios_ou = [], []
    rng = rng_for("acceptance", "c03")
    for _ in range(100):
        (_, fine), (_, coarse) = _fine_and_coarse(driver, lam, t_max, dt, rng)
        ratios_wbou.append(max_abs_increment(fine.x) / max_abs_increment(coarse.x))
        # the one-sided OU process is the X^- component of the same replay
        ratios_ou.append(max_abs_increment(fine.x_minus) / max_abs_increment(coarse.x_minus))
    rw, ro = np.mean(ratios_wbou), np.mean(ratios_ou)
    _report(3, "continuity-contrast",
            abs(rw - 0.5) <= 0.15 and ro >= 0.9,
            f"two-sided max-increment ratio {rw:.3f} (target 0.5 ± 0.15); "
            f"one-sided ratio {ro:.3f} (target >= 0.9)")


# ---------------------------------------------------------------------------
# 4. derivative identity residual is first order in dt


def test_criterion_04_derivative_identity():
    from wbou import derivative_identity_residual

    lam, t_max, dt = 1.0, 20.0, 0.005
    details = []
    ok = True
    for label, driver in (("brownian", brownian(0.0, 1.0)),
                          ("gamma", GAMMA11)):
        rng = rng_for("acceptance", "c04", label)
        ratios = []
        for _ in range(5):
            (_, fine), (_, coarse) = _fine_and_coarse(driver, lam, t_max, dt, rng)
            ratios.append(derivative_identity_residual(fine)
                          / derivative_identity_residual(coarse))
        r = float(np.mean(ratios))
        details.append(f"{label} ratio {r:.3f}")
        ok = ok and 0.4 <= r <= 0.6
    _report(4, "derivative-identity", ok,
            "; ".join(details) + " (window [0.4, 0.6])")


# ---------------------------------------------------------------------------
# 5. state-space replay reproduces the path


def test_criterion_05_carma_equivalence():
    lam, grid = 1.0, SimulationGrid(10.0, 0.01)   # lam * t_max = 10
    worst = 0.0
    for label, driver in (("gamma", GAMMA11), ("brownian", brownian(0.3, 1.0))):
        path = simulate_wbou(driver, lam, grid,
                             rng=rng_for("acceptance", "c05", label))
        replay = simulate_carma(carma_from_wbou(path), path.dl, grid)
        rel = np.max(np.abs(replay - path.x) / (1.0 + np.abs(path.x)))
        worst = max(worst, rel)
    _report(5, "carma-equivalence", worst <= 1e-8,
            f"worst sup relative gap {worst:.2e} <= 1e-08")


# ---------------------------------------------------------------------------
# 6. marginal triplet against independent quadrature


def test_criterion_06_marginal_triplet():
    families = [
        ("brownian", brownian(0.3, 1.0)),
        ("gamma", gamma_subordinator(1.2, 0.8)),
        ("cp-exp", compound_poisson(5.0, ExponentialJumps(1.0))),
        ("cp-normal", compound_poisson(2.0, NormalJumps(0.3, 0.8))),
        ("cp-point", compound_poisson(1.5, PointMassJumps(2.0))),
        ("drift", deterministic_drift(2.0)),
    ]
    lams = (0.5, 1.0, 2.0)
    worst_gamma = worst_phi = 0.0
    sigma_exact = True
    for label, drv in families:
        for lam in lams:
            trip = triplet_of_x(drv, lam)
            oracle = gamma_x_oracle(drv.triplet, lam)
            worst_gamma = max(worst_gamma,
                              abs(trip.gamma - oracle) / max(1.0, abs(oracle)))
            want = drv.triplet.sigma2 / lam
            sigma_exact = sigma_exact and trip.sigma2 == want
            for y in (0.3, 1.0, 2.0):
                got = trip.measure.tail_pos(y)
                ref = phi_x_oracle(drv.triplet.measure, y, lam)
                worst_phi = max(worst_phi, abs(got - ref) / max(1e-12, abs(ref)))
    ok = worst_gamma <= 1e-8 and sigma_exact and worst_phi <= 1e-8
    _report(6, "marginal-triplet", ok,
            f"gamma_X worst rel err {worst_gamma:.2e}; sigma2 exact: "
            f"{sigma_exact}; mapped-tail worst rel err {worst_phi:.2e}")


# ---------------------------------------------------------------------------
# 7. characteristic function vs a large empirical CF


def test_criterion_07_char_fn_vs_empirical():
    lam, n_draws = 1.0, 100_000
    grid = SimulationGrid(0.1, 0.1)
    rng = rng_for("acceptance", "c07")
    draws = np.concatenate([
        simulate_wbou_ensemble(GAMMA11, lam, grid, 4000, rng=rng).x[:, 0]
        for _ in range(25)
    ])
    assert draws.shape == (n_draws,)
    u = np.linspace(-5.0, 5.0, 101)
    gap = np.max(np.abs(char_fn_x(GAMMA11, lam, u) - ecf(draws, u)))
    _report(7, "char-fn-empirical", gap < 0.02,
            f"sup CF gap {gap:.4f} < 0.02 on [-5, 5] with {n_draws} draws")


# ---------------------------------------------------------------------------
# 8. cumulants of the stationary law vs driver cumulants


def test_criterion_08_cumulant_relation():
    a, b = 1.2, 0.8
    drv = gamma_subordinator(a, b)
    details, ok = [], True
    for n in (1, 2, 3, 4):
        deriv = fd_derivative(lambda t: kbar(drv, t), 0.0, n, h=0.05, levels=3)
        mbar_n = (-1.0) ** n * deriv
        m_n = a * math.factorial(n - 1) / b**n
        rel = abs(m_n - (n / 2.0) * mbar_n) / abs(m_n)
        details.append(f"n={n} rel {rel:.1e}")
        ok = ok and rel < 1e-5
    _report(8, "cumulant-relation", ok,
            "; ".join(details) + " (target < 1e-05)")


# ---------------------------------------------------------------------------
# 9. window covariance identities


def test_criterion_09_window_covariance():
    from scipy.integrate import dblquad

    worst_quad = worst_diff = 0.0
    for lam in (0.5, 1.0, 2.0):
        for delta in (0.5, 1.0):
            ref = dblquad(
                lambda x, u: (lam * x + 1.0) * np.exp(-lam * x),
                0.0, delta, 0.0, lambda u: u,
                epsabs=1e-13, epsrel=1e-13,
            )[0]
            worst_quad = max(worst_quad, abs(rbar_fn(lam, delta) - ref))
            for s in range(1, 11):
                diff2 = (rbar_fn(lam, delta * (s + 1))
                         - 2.0 * rbar_fn(lam, delta * s)
                         + rbar_fn(lam, delta * (s - 1)))
                worst_diff = max(worst_diff, abs(big_r(lam, delta, s) - diff2))
    ok = worst_quad <= 1e-10 and worst_diff <= 1e-10
    _report(9, "window-covariance", ok,
            f"rbar vs nested quadrature worst {worst_quad:.2e}; "
            f"closed R vs second difference worst {worst_diff:.2e} (<= 1e-10)")


# ---------------------------------------------------------------------------
# 10. integrated-volatility identity vs trapezoid under dt-halving


def test_criterion_10_integrated_vol_first_order():
    """Trapezoid vs explicit integrated volatility: exact second-order gap.

    Take one grid step with alpha = e^{-h}, h = lam * dt, a = x^-_k + dl_k
    and b = x^+_{k+1}.  The recursions give x_k = a + alpha b and
    x_{k+1} = alpha a + b.  The explicit formula integrates the step to
    (a + b)(1 - alpha) / lam, the exact integral of the continuous
    piecewise-exponential path; the trapezoid gives
    (dt / 2)(1 + alpha)(a + b).  Hence at every grid point

        trap = explicit * (h/2) coth(h/2),
        trap - explicit = kappa(h) * explicit,
        kappa(h) = (h/2) coth(h/2) - 1 = h^2/12 + O(h^4),

    so the dt-halving factor of the sup gap is kappa(h)/kappa(2h) -> 1/4.
    The test asserts that second-order window and the constant itself at
    each of the three levels.  The id keeps its historical ``_first_order``
    suffix so that run history stays traceable.
    """
    lam, t_max, dt = 1.0, 2.0, 0.005
    rng = rng_for("acceptance", "c10")
    r1s, r2s, resid = [], [], 0.0
    for _ in range(20):
        fine, mid, coarse = (p for _, p in _fine_and_coarse(GAMMA11, lam, t_max, dt, rng, 2))

        def gap(path):
            """Sup gap and worst |gap - kappa(h) explicit| relative to it."""
            dt_ = path.grid.dt
            trap = np.concatenate(
                [[0.0], np.cumsum(0.5 * (path.x[1:] + path.x[:-1]) * dt_)])
            explicit = integrated_vol_explicit(path)
            h = lam * dt_
            kappa = 0.5 * h / math.tanh(0.5 * h) - 1.0
            sup_gap = np.abs(trap - explicit).max()
            worst = np.abs((trap - explicit) - kappa * explicit).max()
            return sup_gap, worst / sup_gap

        (g_f, e_f), (g_m, e_m), (g_c, e_c) = map(gap, (fine, mid, coarse))
        resid = max(resid, e_f, e_m, e_c)
        r1s.append(g_m / g_c)
        r2s.append(g_f / g_m)
    r1, r2 = float(np.mean(r1s)), float(np.mean(r2s))
    ok = 0.2 <= r1 <= 0.3 and 0.2 <= r2 <= 0.3 and resid <= 1e-6
    _report(10, "integrated-vol-identity", ok,
            f"sup-gap dt-halving factors {r1:.3f}, {r2:.3f} vs window "
            f"[0.2, 0.3]; worst |gap - kappa(h)*explicit| / sup-gap = "
            f"{resid:.1e} <= 1e-6")


# ---------------------------------------------------------------------------
# 11. squared-return correlation vs Monte Carlo


def test_criterion_11_squared_return_correlation():
    lam, delta, n_paths = 1.0, 1.0, 10_000
    spec = SvSpec(alpha=0.0, beta=0.0, lam=lam, driver=GAMMA11)
    grid = SimulationGrid(3.0, 0.01)
    rng = rng_for("acceptance", "c11")
    rets = []
    for _ in range(20):
        ens = simulate_sv_ensemble(spec, grid, 500, rng=rng)
        y = ens.y[:, ::100]                        # window endpoints
        rets.append(np.diff(y, axis=1))
    r2 = np.concatenate(rets) ** 2                 # (n_paths, 3) squared returns
    assert r2.shape == (n_paths, 3)
    checks = []
    ok = True
    for s in (1, 2):
        rho_hat = np.corrcoef(r2[:, 0], r2[:, s])[0, 1]
        rho = corr_squared_returns(2.0, 1.0, lam, delta, s)
        band = 4 * corr_se(r2[:, 0], r2[:, s])
        checks.append(f"s={s}: {rho_hat:.4f} vs {rho:.4f} (band {band:.4f})")
        ok = ok and abs(rho_hat - rho) <= band
    _report(11, "squared-return-correlation", ok, "; ".join(checks))


# ---------------------------------------------------------------------------
# 12. rate recovery and model selection


def test_criterion_12_fit_recovery():
    # (a) exact theoretical curve in: the rate comes back to 1e-6
    lags = np.arange(0, 41)
    p = SecondOrderParams(0.8)
    exact = AcfEstimate(lags=lags, rho=acf_x(p, lags.astype(float)), n=0)
    fit = fit_acf(exact, "wbou", (1, 40))
    exact_ok = abs(fit.lambda_hat - 0.8) <= 1e-6 and fit.rss < 1e-20

    # (b) one long simulated path: recovered rate within 10%
    lam_true, dt = 1.5, 0.1
    path = simulate_wbou(GAMMA11, lam_true, SimulationGrid(1e5, dt),
                         rng=rng_for("acceptance", "c12", "path"))
    assert len(path.x) == 1_000_001
    acf_hat = empirical_acf(path.x, 100)
    lam_hat = fit_acf(acf_hat, "wbou", (1, 100)).lambda_hat / dt
    path_ok = abs(lam_hat - lam_true) / lam_true <= 0.10

    # (c) model selection: each generator prefers its own curve
    grid = SimulationGrid(2e4, dt)
    wins_wbou = wins_ou = 0
    n_rep = 50
    for i in range(n_rep):
        xw = simulate_wbou(GAMMA11, lam_true, grid,
                           rng=rng_for("acceptance", "c12", "w", str(i))).x
        a = empirical_acf(xw, 50)
        if fit_acf(a, "wbou", (1, 50)).rss < fit_acf(a, "ou", (1, 50)).rss:
            wins_wbou += 1
        xo = simulate_wbou(GAMMA11, lam_true, grid,
                           rng=rng_for("acceptance", "c12", "o", str(i))).x_minus
        a = empirical_acf(xo, 50)
        if fit_acf(a, "ou", (1, 50)).rss < fit_acf(a, "wbou", (1, 50)).rss:
            wins_ou += 1
    select_ok = wins_wbou >= 45 and wins_ou >= 45

    _report(12, "fit-recovery", exact_ok and path_ok and select_ok,
            f"exact-curve lambda_hat {fit.lambda_hat:.8f} (rss {fit.rss:.1e}); "
            f"path lambda_hat {lam_hat:.3f} vs 1.5; model selection "
            f"{wins_wbou}/{n_rep} and {wins_ou}/{n_rep} (need >= 45)")


# ---------------------------------------------------------------------------
# 13. increment-autocorrelation ranges and the sign flip


def test_criterion_13_range_properties():
    lam_star = lambda_sign_threshold()
    lams = np.geomspace(1e-2, 20.0, 200)
    rho1 = np.array([float(increment_acf(SecondOrderParams(l), 1))
                     for l in lams])
    rho1_ou = np.array([float(increment_acf_ou(SecondOrderParams(l), 1))
                        for l in lams])
    range_ok = (np.all(rho1 > -0.5) and np.all(rho1 < 1.0)
                and np.all(rho1_ou > -0.5) and np.all(rho1_ou < 0.0))
    below, above = lams < lam_star, lams > lam_star
    flip_ok = bool(np.all(rho1[below] > 0.0) and np.all(rho1[above] < 0.0))
    at_star = abs(float(increment_acf(SecondOrderParams(lam_star), 1)))
    _report(13, "range-properties",
            range_ok and flip_ok and at_star < 1e-7,
            f"rho1 in (-0.5, 1), one-sided rho1 in (-0.5, 0) on the log grid; "
            f"sign flips at lambda* (|rho1(lambda*)| = {at_star:.1e})")
