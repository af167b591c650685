"""Symbolic certificates for the closed forms behind the scan's row bound,
its rho and nu windows (analytic._row_terms, max_concurrence_over_nu,
rho_windows, nu_windows), and the two maximal families (classify's
_family_terms): at any overlaps (p1, p2) they are exactly the states of
C = 1, they meet only at v = 0, and at p1 = p2 = x they are the paper's.
The paper's two feasibility quadratics in x are the families' residual
squares (a + d)^2 + (b - c)^2 and (a - d)^2 + (b + c)^2 at mu = 1, their
discriminants factor, and only lam = rho = 0, nu = -1 makes one vanish for
every x.

Each test proves an identity exactly with sympy; the float code still needs
its rounding bounds, which the numeric and mpmath tests check.
"""

import sympy as sp

from cohent.analytic import _amplitudes
from cohent.classify import _family_terms

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


# The amplitudes at any mu, and the family terms P_a v, P_b v and
# mu nu - lam rho, at p1 = p2 = x.
mu = sp.symbols("mu", real=True)
V = (mu, lam, rho, nu)
A4, B4, C4, D4 = _amplitudes(mu, lam, rho, nu, x, x, N_X, N_X)
(PA1, PA2), (PB1, PB2), SEP = _family_terms(mu, lam, rho, nu, x, x, N_X, N_X)


def all_zero(matrix):
    return all(is_zero(entry) for entry in matrix)


def test_family_terms_are_the_planes_rows():
    rows = sp.Matrix([PA1, PA2, PB1, PB2]).jacobian(V)
    assert rows == sp.Matrix([[-1, 0, 0, 1], [2 * x, 1, 1, 0],
                              [0, 1, -1, 0], [1, 2 * x, 0, 1]])
    assert all_zero(sp.Matrix([PA1, PA2, PB1, PB2]) - rows * sp.Matrix(V))


def test_families_are_the_zero_sets_of_the_residual_squares():
    # L_- v = (a + d, b - c) = M_a P_a v and L_+ v = (a - d, b + c) = M_b P_b v
    # with det M_a = det M_b = n > 0, so ker L_- = ker P_a and ker L_+ = ker P_b:
    # maximality_residual's two sums of squares vanish exactly on class (a)
    # and on class (b)
    m_a = sp.Matrix([[x, 1], [-N_X, 0]])
    m_b = sp.Matrix([[1 - 2 * x**2, x], [-2 * x * N_X, N_X]])
    assert all_zero(sp.Matrix([A4 + D4, B4 - C4]) - m_a * sp.Matrix([PA1, PA2]))
    assert all_zero(sp.Matrix([A4 - D4, B4 + C4]) - m_b * sp.Matrix([PB1, PB2]))
    assert is_zero(m_a.det() - N_X)
    assert is_zero(m_b.det() - N_X)


# The paper's two feasibility quadratics in x at mu = 1, p1 = p2 = x, as
# (leading, linear, constant) coefficients: case 1 on the nu > lam rho side
# of the kink |nu - lam rho|, case 2 on the other.
SUM = lam + rho
CASE_1 = (4 * nu, 2 * SUM * (1 + nu), (1 - nu) ** 2 + SUM**2)
CASE_2 = (4 * lam * rho, 2 * SUM * (1 + nu), (1 + nu) ** 2 + (lam - rho) ** 2)


def quadratic(coefficients):
    leading, linear, constant = coefficients
    return leading * x**2 + linear * x + constant


def test_feasibility_quadratics_are_the_residual_squares():
    # case 1 is (a + d)^2 + (b - c)^2 = |M_a P_a v|^2 and case 2 is
    # (a - d)^2 + (b + c)^2 = |M_b P_b v|^2, so by
    # test_families_are_the_zero_sets_of_the_residual_squares a root in
    # 0 < x < 1 exists exactly on class (a) or class (b) at that x
    assert is_zero(quadratic(CASE_1) - ((A_ + D_) ** 2 + (B_ - C_) ** 2))
    assert is_zero(quadratic(CASE_2) - ((A_ - D_) ** 2 + (B_ + C_) ** 2))


def test_feasibility_discriminants_factor():
    # b^2 - 4ac in the factored forms that keep a tangent double root exact
    factored = (4 * (nu - 1) ** 2 * (SUM**2 - 4 * nu),
                4 * (lam - rho) ** 2 * ((1 + nu) ** 2 - 4 * lam * rho))
    for (leading, linear, constant), disc in zip((CASE_1, CASE_2), factored):
        assert is_zero(linear**2 - 4 * leading * constant - disc)


def test_only_the_antisymmetric_state_zeroes_a_quadratic_identically():
    # case 1 never vanishes for every x; case 2 does only at lam = rho = 0,
    # nu = -1, the antisymmetric state, maximal at every overlap
    assert sp.solve(CASE_1, [lam, rho, nu], dict=True) == []
    assert sp.solve(CASE_2, [lam, rho, nu], dict=True) == [{lam: 0, rho: 0, nu: -1}]


def test_separability_term_is_the_concurrence_numerator():
    # ad - bc = -n^2 (mu nu - lam rho), so C = 0 exactly when the term is 0
    assert is_zero(A4 * D4 - B4 * C4 + (1 - x**2) * SEP)


def test_the_two_planes_meet_only_at_zero():
    # det [P_a; P_b] = 4 (1 - x^2) > 0 on 0 < x < 1
    rows = sp.Matrix([PA1, PA2, PB1, PB2]).jacobian(V)
    assert is_zero(rows.det() - 4 * (1 - x**2))


def test_nu_window_discriminant():
    # with B = n^2 - sigma f K, B^2 - f^2 M = n^2 (n^2 - 2 sigma f K - f^2 D)
    f = sp.symbols("f", positive=True)
    n_sq = 1 - x**2
    for sigma in (1, -1):
        b = n_sq - sigma * f * K
        assert is_zero(b**2 - f**2 * M - n_sq * (n_sq - 2 * sigma * f * K - f**2 * D))


# The same at any overlaps: p_i = cos theta_i and n_i = sin theta_i, with
# theta_i in (0, pi/2).
THETA1, THETA2 = sp.symbols("theta1 theta2", positive=True)
P1, P2, N1, N2 = sp.cos(THETA1), sp.cos(THETA2), sp.sin(THETA1), sp.sin(THETA2)
AG, BG, CG, DG = _amplitudes(mu, lam, rho, nu, P1, P2, N1, N2)
(GA1, GA2), (GB1, GB2), SEP_G = _family_terms(mu, lam, rho, nu, P1, P2, N1, N2)
M_A = sp.Matrix([[P1, 1], [-N1, 0]])
M_B = sp.Matrix([[-sp.cos(THETA1 + THETA2), P1], [-sp.sin(THETA1 + THETA2), N1]])


def trig_zero(expr):
    return sp.trigsimp(sp.expand(sp.expand_trig(expr))) == 0


def test_general_terms_factor_the_residual_squares():
    # (a + d, b - c) = M_a P_a v and (a - d, b + c) = M_b P_b v at any overlaps
    class_a = sp.Matrix([AG + DG, BG - CG]) - M_A * sp.Matrix([GA1, GA2])
    class_b = sp.Matrix([AG - DG, BG + CG]) - M_B * sp.Matrix([GB1, GB2])
    assert all(map(trig_zero, class_a))
    assert all(map(trig_zero, class_b))


def test_general_singular_values():
    # M M^T has trace 2 and determinant n1^2 (class a) or n2^2 (class b), so
    # the squared singular values are 1 +- p1 and 1 +- p2: with
    # N^2 (1 - C) = min_f |M_f P_f v|^2, C = 1 exactly on ker P_a and ker P_b
    t = sp.symbols("t")
    for m, p, n in ((M_A, P1, N1), (M_B, P2, N2)):
        gram = m * m.T
        assert trig_zero(gram.trace() - 2)
        assert trig_zero(gram.det() - n**2)
        assert trig_zero(gram.charpoly(t).as_expr() - (t - 1 - p) * (t - 1 + p))


def test_general_planes_meet_only_at_zero():
    # det [P_a; P_b] = 4 n1 n2 > 0 for theta_i in (0, pi/2)
    rows = sp.Matrix([GA1, GA2, GB1, GB2]).jacobian(V)
    assert trig_zero(rows.det() - 4 * N1 * N2)
    assert all_zero(sp.Matrix([GA1, GA2, GB1, GB2]) - rows * sp.Matrix(V))


def test_general_rows_reduce_to_the_common_overlap_rows():
    # at theta1 = theta2 the rows are exactly those at p1 = p2 = cos theta1
    rows = sp.Matrix([GA1, GA2, GB1, GB2]).jacobian(V).subs(THETA2, THETA1)
    common = sp.Matrix([PA1, PA2, PB1, PB2]).jacobian(V).subs(x, P1)
    assert rows == common
    assert is_zero(SEP_G - SEP)
