"""Empirical ACF, rate fitting, realized volatility, and table formats."""

import math
import os
import re
import threading

import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from wbou import (
    AcfEstimate,
    DegenerateSeries,
    DomainError,
    EmptyRange,
    LagTooLarge,
    Series,
    SkipTooLarge,
    empirical_acf,
    fit_acf,
    model_curve,
    read_acf_csv,
    read_series_csv,
    realized_volatility,
    signature_plot,
    write_acf_csv,
    write_signature_csv,
)

from wbou import _table
from wbou.estimation import _fast_len, _lag_products

from helpers import rng_for


def brute_acf(x, max_lag):
    """Quadratic-time reference for the n-normalized estimator."""
    d = x - x.mean()
    denom = np.sum(d * d)
    return np.array([np.sum(d[: len(d) - h] * d[h:]) / denom
                     for h in range(max_lag + 1)])


# ---------------------------------------------------------------------------
# series container and empirical ACF
# ---------------------------------------------------------------------------

def test_series_validation():
    with pytest.raises(DomainError):
        Series(np.array([1.0]))
    with pytest.raises(DomainError):
        Series(np.array([[1.0, 2.0]]))
    with pytest.raises(DomainError):
        Series(np.array([1.0, np.nan]))
    assert len(Series(np.array([1.0, 2.0]))) == 2


def test_acf_lag_zero_is_exactly_one():
    x = rng_for("acf0").normal(size=500)
    assert empirical_acf(x, 10).rho[0] == 1.0


def test_acf_matches_quadratic_reference():
    x = rng_for("acfref").normal(size=400).cumsum()
    est = empirical_acf(x, 25)
    assert np.allclose(est.rho, brute_acf(x, 25), rtol=1e-11, atol=1e-13)
    assert np.array_equal(est.lags, np.arange(26))
    assert est.n == 400


def test_acf_of_alternating_series():
    n = 600
    x = (-1.0) ** np.arange(n)
    est = empirical_acf(x, 1)
    assert est.rho[1] == pytest.approx(-(n - 1) / n, rel=1e-12)


def test_acf_bounded_by_one():
    x = rng_for("acfbound").standard_t(df=3, size=2000)
    est = empirical_acf(x, 400)
    assert np.abs(est.rho).max() <= 1.0 + 1e-12


def test_acf_affine_invariance():
    x = rng_for("acfaff").normal(size=300)
    a = empirical_acf(x, 12).rho
    b = empirical_acf(4.0 * x - 7.0, 12).rho
    assert np.allclose(a, b, rtol=1e-10, atol=1e-12)


def test_acf_degenerate_series():
    with pytest.raises(DegenerateSeries):
        empirical_acf(np.full(100, 3.25), 5)


HUGE = [1e200, -1e200, 1e200, 3.0, 2.0, 1.0]


def test_acf_out_of_float_range_refused():
    # the products of 1e200 cells overflow; the message names n and max|x|
    for series in (HUGE[:4], [1.7e308, -1.7e308, 1.0]):
        with pytest.raises(DomainError, match=r"^empirical_acf\[n, max\|x\|\]\(\d+, "):
            empirical_acf(series, 2)


def test_acf_of_a_huge_constant_series_is_degenerate():
    with pytest.raises(DegenerateSeries):
        empirical_acf(np.full(4, 1e200), 2)


def test_fast_len_is_scipys_real_next_fast_len():
    bad = [n for n in range(1, 50_000) if _fast_len(n) != next_fast_len(n, real=True)]
    assert bad == []


@pytest.mark.parametrize("n", [1, 2, 10, 1_000, 4_097, 100_001])
def test_acf_is_scipys_fftconvolve_bitwise(n):
    """The NumPy FFT correlation is scipy's fftconvolve(d, d[::-1]) on the
    same pocketfft: equal bit for bit, lag products and rho alike."""
    x = rng_for("fftacf", n).normal(size=n).cumsum()
    d = x - x.mean()
    ref = fftconvolve(d, d[::-1])[n - 1:]
    assert _lag_products(d, n - 1).tobytes() == ref.tobytes()
    if n > 1:
        max_lag = min(n - 1, 500)
        rho = ref[: max_lag + 1] / ref[0]
        assert empirical_acf(x, max_lag).rho.tobytes() == rho.tobytes()


def test_acf_lag_window_validation():
    x = np.arange(10.0)
    with pytest.raises(LagTooLarge):
        empirical_acf(x, 10)
    with pytest.raises(LagTooLarge):
        empirical_acf(x, -1)


# ---------------------------------------------------------------------------
# model curves and the rate fit
# ---------------------------------------------------------------------------

def test_model_curves():
    assert model_curve("wbou", 1.0, [1.0])[0] == pytest.approx(2 * math.exp(-1))
    assert model_curve("ou", 2.0, [1.0])[0] == pytest.approx(math.exp(-2))
    with pytest.raises(DomainError):
        model_curve("arma", 1.0, [1.0])


def exact_estimate(model, lam, max_lag):
    lags = np.arange(max_lag + 1)
    return AcfEstimate(lags=lags, rho=model_curve(model, lam, lags), n=10_000)


@pytest.mark.parametrize("model,lam", [("wbou", 0.8), ("ou", 1.3)])
def test_fit_recovers_exact_curve(model, lam):
    est = exact_estimate(model, lam, 50)
    fit = fit_acf(est, model, (1, 50))
    assert abs(fit.lambda_hat - lam) <= 1e-6
    assert fit.rss < 1e-20
    assert not fit.at_boundary
    assert fit.lag_range == (1, 50)


def test_fit_is_a_global_minimum_on_a_dense_scan():
    est = exact_estimate("wbou", 0.8, 40)
    # perturb so the optimum is not trivially zero
    rho = est.rho.copy()
    rho[1:] += 0.01 * np.sin(np.arange(1, 41))
    est = AcfEstimate(lags=est.lags, rho=rho, n=est.n)
    fit = fit_acf(est, "wbou", (1, 40))

    lags = np.arange(1, 41, dtype=float)
    def rss(lam):
        return float(np.sum((rho[1:] - model_curve("wbou", lam, lags)) ** 2))
    dense = min(rss(l) for l in np.geomspace(1e-6, 1e2, 10_001))
    assert fit.rss <= dense + 1e-10


def test_fit_flags_boundary():
    est = AcfEstimate(lags=np.arange(21), rho=np.ones(21), n=100)
    fit = fit_acf(est, "ou", (1, 20))
    assert fit.at_boundary
    assert fit.lambda_hat <= 1e-6 * (1 + 1e-6)


def test_fit_window_validation():
    est = exact_estimate("wbou", 1.0, 20)
    with pytest.raises(EmptyRange):
        fit_acf(est, "wbou", (0, 10))
    with pytest.raises(EmptyRange):
        fit_acf(est, "wbou", (5, 3))
    with pytest.raises(EmptyRange):
        fit_acf(est, "wbou", (1, 21))


def test_model_selection_by_rss():
    for truth, other in (("wbou", "ou"), ("ou", "wbou")):
        est = exact_estimate(truth, 1.0, 30)
        rss_truth = fit_acf(est, truth, (1, 30)).rss
        rss_other = fit_acf(est, other, (1, 30)).rss
        assert rss_truth < rss_other


def test_fit_with_noise_stays_close():
    est = exact_estimate("wbou", 1.5, 60)
    rho = est.rho + rng_for("fitnoise").normal(0, 0.003, 61)
    rho[0] = 1.0
    fit = fit_acf(AcfEstimate(est.lags, rho, est.n), "wbou", (1, 60))
    assert fit.lambda_hat == pytest.approx(1.5, rel=0.05)


# ---------------------------------------------------------------------------
# realized volatility and the signature plot
# ---------------------------------------------------------------------------

def test_realized_volatility_examples():
    assert realized_volatility(np.array([2.0, 2.0, 2.0])) == 0.0
    assert realized_volatility(np.array([0.0, 1.0, 0.0, 1.0])) == 3.0


def test_realized_volatility_out_of_float_range_refused():
    with pytest.raises(DomainError, match=r"realized_volatility\[n, max\|x\|\]\(6, 1e\+200\)"):
        realized_volatility(HUGE)
    with pytest.raises(DomainError, match="realized_volatility"):
        signature_plot(HUGE, 2)


def test_realized_volatility_of_brownian_path():
    dt, n = 0.01, 100_000
    dw = rng_for("rvqv").normal(0.0, math.sqrt(dt), n)
    rv = realized_volatility(np.concatenate([[0.0], dw.cumsum()]))
    se = dt * math.sqrt(2.0 * n)
    assert abs(rv - n * dt) < 4 * se


def test_signature_first_row_is_plain_rv():
    x = rng_for("sig1").normal(size=5000).cumsum()
    rows = signature_plot(x, 8)
    assert rows.shape == (8, 2)
    assert np.array_equal(rows[:, 0], np.arange(1, 9))
    assert rows[0, 1] == realized_volatility(x)


def test_signature_decreases_for_iid_noise():
    x = rng_for("sigiid").normal(size=20_001)
    rv = signature_plot(x, 10)[:, 1]
    assert np.all(np.diff(rv) < 0)
    # roughly one over the skip: k=10 keeps about a tenth of the terms
    assert rv[9] == pytest.approx(rv[0] / 10, rel=0.1)


def test_signature_flat_for_brownian():
    dw = rng_for("sigbm").normal(0.0, 0.1, 40_000)
    rv = signature_plot(np.concatenate([[0.0], dw.cumsum()]), 10)[:, 1]
    assert rv.max() / rv.min() < 1.1


def test_signature_skip_validation():
    x = np.arange(20.0)
    with pytest.raises(SkipTooLarge):
        signature_plot(x, 10)
    with pytest.raises(SkipTooLarge):
        signature_plot(x, 0)
    signature_plot(x, 9)  # largest allowed


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------

def test_read_series_single_column(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("x\n1.5\n2.5\n-3.0\n")
    assert np.array_equal(read_series_csv(f), [1.5, 2.5, -3.0])


def test_read_series_with_time_column(tmp_path):
    f = tmp_path / "tx.csv"
    f.write_text("t,x\n0.0,1.0\n0.5,2.0\n1.0,3.0\n")
    assert np.array_equal(read_series_csv(f), [1.0, 2.0, 3.0])


def test_read_series_requires_increasing_time(tmp_path):
    f = tmp_path / "bad.csv"
    f.write_text("t,x\n0.0,1.0\n0.5,2.0\n0.5,3.0\n")
    with pytest.raises(DomainError):
        read_series_csv(f)


def test_read_series_requires_x_column(tmp_path):
    f = tmp_path / "nox.csv"
    f.write_text("a,b\n1,2\n")
    with pytest.raises(DomainError):
        read_series_csv(f)


def test_acf_table_round_trip(tmp_path):
    x = rng_for("acfcsv").normal(size=400).cumsum()
    est = empirical_acf(x, 15)
    fw = fit_acf(est, "wbou", (1, 15))
    fo = fit_acf(est, "ou", (1, 15))
    f = tmp_path / "acf.csv"
    write_acf_csv(f, est, fw, fo)

    header = f.read_text().splitlines()[0]
    assert header == "lag,rho_hat,rho_wbou_fit,rho_ou_fit"
    back = read_acf_csv(f)
    assert np.array_equal(back.lags, est.lags)
    assert np.array_equal(back.rho, est.rho)  # repr round-trips exactly
    assert back.n == 0


def test_acf_table_requires_contiguous_lags(tmp_path):
    f = tmp_path / "gap.csv"
    f.write_text("lag,rho_hat\n0,1.0\n2,0.5\n")
    with pytest.raises(DomainError):
        read_acf_csv(f)
    f2 = tmp_path / "late.csv"
    f2.write_text("lag,rho_hat\n1,0.9\n2,0.5\n")
    with pytest.raises(DomainError):
        read_acf_csv(f2)


#: one bad row at line 3, in a body np.loadtxt reads and in one only the
#: scan reads (CRLF and a trailing blank line)
LOADTXT_TIER = "0,1.0\n1,-inf\n"
SCAN_TIER = "0,1.0\r\n1,-inf\r\n\r\n"


@pytest.mark.parametrize("body, message", [
    ("0,1.0\n1,0.5\n\n2,nan\n", "line 5: rho_hat must be finite, got nan"),
    ("0,1.0\n1,-inf\n2,0.2\n", "line 3: rho_hat must be finite, got -inf"),
    ("0,1.0\n1.7,0.5\n2,0.2\n", "line 3: lags must be contiguous starting at 0; "
                                   "want lag 1, got 1.7"),
    ("0,1.0\n1,0.5\ninf,0.2\n", "line 4: lags must be contiguous starting at 0; "
                                   "want lag 2, got inf"),
    (LOADTXT_TIER, "line 3: rho_hat must be finite, got -inf"),
    (SCAN_TIER, "line 3: rho_hat must be finite, got -inf"),
])
def test_acf_table_rejects_bad_values_by_line(tmp_path, body, message):
    f = tmp_path / "acf.csv"
    f.write_bytes(("lag,rho_hat\n" + body).encode())
    with pytest.raises(DomainError, match=f"^{re.escape(f'{f}: {message}')}$"):
        read_acf_csv(f)


def test_bad_row_bodies_take_the_two_reader_tiers(tmp_path):
    """The line of a bad row is found by the scan whichever tier read
    the values: the plain body on np.loadtxt, the CRLF one with a blank
    line on the scan."""
    f = tmp_path / "acf.csv"
    for body, fast in [(LOADTXT_TIER, True), (SCAN_TIER, False)]:
        f.write_bytes(("lag,rho_hat\n" + body).encode())
        assert (_table._read_fast(f, ("lag", "rho_hat")) is not None) == fast


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_acf_table_from_a_pipe_names_the_bad_row(tmp_path):
    """A pipe cannot be read a second time to find a line, so the error
    names the row instead of waiting for a writer."""
    fifo = tmp_path / "acf.csv"
    os.mkfifo(fifo)
    got = []

    def read():
        try:
            read_acf_csv(fifo)
        except DomainError as exc:
            got.append(str(exc))

    threads = [threading.Thread(target=fifo.write_text,
                                args=("lag,rho_hat\n0,1.0\n\n1,nan\n",), daemon=True),
               threading.Thread(target=read, daemon=True)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert got == [f"{fifo}: row 2: rho_hat must be finite, got nan"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rejects_non_finite_rho_in_window(bad):
    rho = np.array([1.0, 0.6, 0.3, bad])
    acf = AcfEstimate(lags=np.arange(4), rho=rho, n=100)
    with pytest.raises(DomainError, match="not finite"):
        fit_acf(acf, "wbou", (1, 3))
    assert fit_acf(acf, "wbou", (1, 2)).rss < 1e-2  # outside the window it is unused


def test_signature_table(tmp_path):
    rows = signature_plot(rng_for("sigcsv").normal(size=100), 4)
    f = tmp_path / "sig.csv"
    write_signature_csv(f, rows)
    lines = f.read_text().splitlines()
    assert lines[0] == "skip,rv"
    assert len(lines) == 5
    k, rv = lines[2].split(",")
    assert int(k) == 2 and float(rv) == rows[1, 1]
