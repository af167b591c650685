"""Symbolic certificates for the closed forms behind the scan's row bound and
its rho windows (analytic._row_terms, max_concurrence_over_nu, rho_windows).

Each test proves an identity exactly with sympy; the float code still needs
its rounding bounds, which the numeric and mpmath tests check.
"""

import sympy as sp

from cohent.analytic import _amplitudes

lam, rho, nu = sp.symbols("lam rho nu", real=True)
x = sp.symbols("x", positive=True)
# w = |rho + x| and sigma = |lam + x|; n > 0 stands for sqrt(1 - x^2) where
# x does not appear, and e = sqrt(2 (1 - f)) is the window's half-width.
w, sigma, n, e = sp.symbols("w sigma n e", nonnegative=True)


def is_zero(expr):
    return sp.expand(expr) == 0


def h(v):
    return v * sp.sqrt(v**2 + n**2)


# The row terms at mu = 1, p1 = p2 = x, from the code's own amplitudes.
N_X = sp.sqrt(1 - x**2)
A_, B_, C_, D_ = _amplitudes(1, lam, rho, nu, x, x, N_X, N_X)
NORM_SQ = A_**2 + B_**2 + C_**2 + D_**2
L = lam * rho
S, T, U = lam + x, 1 + rho * x, rho + x
Q = T**2 + (1 - x**2) * rho**2
M = (S**2 + 1 - x**2) * Q
K = S * U
D = Q + S**2


def test_norm_is_a_quadratic_in_nu_minus_lam_rho():
    # N^2 = (nu - L)^2 + 2 K (nu - L) + M, so M = N^2 at nu = L
    assert is_zero(NORM_SQ - ((nu - L) ** 2 + 2 * K * (nu - L) + M))


def test_row_terms():
    # q = t^2 + n^2 rho^2 = u^2 + n^2, D = u^2 + A, M = A (u^2 + n^2), K = s u
    a_term = S**2 + 1 - x**2
    assert is_zero(Q - (U**2 + 1 - x**2))
    assert is_zero(D - (U**2 + a_term))
    assert is_zero(M - a_term * (U**2 + 1 - x**2))
    assert is_zero(M - K**2 - (1 - x**2) * D)


def test_concurrence_numerator_and_residual_squares():
    # ad - bc = n^2 (lam rho - nu), so C = 2 |nu - lam rho| n^2 / N^2, and
    # N^2 -+ 2 (ad - bc) = (a -+ d)^2 + (b +- c)^2
    det = A_ * D_ - B_ * C_
    assert is_zero(det - (1 - x**2) * (L - nu))
    for s in (1, -1):
        assert is_zero(NORM_SQ - 2 * s * det - ((A_ - s * D_) ** 2 + (B_ + s * C_) ** 2))


def test_row_bound_square_identity():
    # D^2 - (sqrt M + |s| w)^2 = (w sqrt(w^2 + n^2) - |s| sqrt A)^2, w >= 0
    a_term = sigma**2 + n**2
    d = w**2 + a_term
    root_m = sp.sqrt(a_term) * sp.sqrt(w**2 + n**2)
    assert is_zero(d**2 - (root_m + sigma * w) ** 2
                   - (w * sp.sqrt(w**2 + n**2) - sigma * sp.sqrt(a_term)) ** 2)


def test_sum_of_h_stays_below_d():
    # w^2 + sigma^2 + n^2 - h(w) - h(sigma) is half a sum of two squares
    assert is_zero(w**2 + sigma**2 + n**2 - h(w) - h(sigma)
                   - ((sp.sqrt(w**2 + n**2) - w) ** 2
                      + (sp.sqrt(sigma**2 + n**2) - sigma) ** 2) / 2)


def test_h_minus_square_grows_from_zero_to_half_n_squared():
    # h(w) - w^2 = w n^2 / (sqrt(w^2 + n^2) + w), whose derivative is a
    # square over a positive root: so |h(w) - h(sigma)| >= |w^2 - sigma^2|
    root = sp.sqrt(w**2 + n**2)
    assert sp.simplify(h(w) - w**2 - w * n**2 / (root + w)) == 0
    assert sp.simplify(sp.diff(h(w) - w**2, w) - (root - w) ** 2 / root) == 0
    assert sp.limit(h(w) - w**2, w, sp.oo) == n**2 / 2


def test_window_endpoints_solve_the_condition():
    # |w^2 - sigma^2| <= e (w^2 + sigma^2 + n^2) splits into
    # (1 - e) (w^2 - w_hi^2) <= 0 and (1 + e) (w_lo^2 - w^2) <= 0
    total = w**2 + sigma**2 + n**2
    w_hi_sq = (sigma**2 * (1 + e) + e * n**2) / (1 - e)
    w_lo_sq = (sigma**2 * (1 - e) - e * n**2) / (1 + e)
    assert sp.simplify(w**2 - sigma**2 - e * total - (1 - e) * (w**2 - w_hi_sq)) == 0
    assert sp.simplify(sigma**2 - w**2 - e * total - (1 + e) * (w_lo_sq - w**2)) == 0
