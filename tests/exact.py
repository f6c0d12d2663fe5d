"""Exact references: the float problem as given, and steering projections, in decimal.

The inputs are binary floats, so the optimum of the problem they define has
an exact value. Each float entry of the channel and the steering vector
converts to decimal exactly, and ||h||^2, ||a_t||^2, h^H a_t, the optimum
and its multiplier, and the powers ||c||^2, |a_t^H c|^2 and |h^H c|^2 of a
float beam c, are then formed in 80-digit decimal. Its rounding is
about 1e-80 relative, some 10^64 times below float's, so the results serve
as the exact values. The same holds for a(phi)^H x at a float angle phi:
sin phi and e^{j theta} come from their series, and the powers of e^{j theta}
from decimal products, all at 80 digits. Standard library only.
"""

from decimal import Context, Decimal, localcontext

_CONTEXT = Context(prec=80)

# pi to 90 digits, so that it rounds once, to the context's 80
_PI = Decimal(
    "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803"
)


def _sin_cos(x):
    """(sin x, cos x) of a Decimal x of modest size, by their Taylor series."""
    x2 = x * x
    sin, cos = x, Decimal(1)
    term_sin, term_cos, k = x, Decimal(1), 1
    while True:
        term_cos = -term_cos * x2 / (k * (k + 1))
        term_sin = -term_sin * x2 / ((k + 1) * (k + 2))
        if sin + term_sin == sin and cos + term_cos == cos:
            return sin, cos
        sin, cos, k = sin + term_sin, cos + term_cos, k + 2


def exact_projections(spacing, angles, x):
    """a(phi)^H x at each float angle phi, as (real, imaginary) Decimal pairs.

    a(phi) is the uniform linear array's steering vector, entry m
    e^{-j m theta} with theta = 2 pi d sin phi and d = ``spacing``, so
    a(phi)^H x = sum_m z^m x_m with z = e^{j theta}. Each float entry of
    ``x`` and each float angle converts to decimal exactly.
    """
    with localcontext(_CONTEXT):
        xs = [(Decimal(v.real), Decimal(v.imag)) for v in x]
        out = []
        for angle in angles:
            sin_phi, _ = _sin_cos(Decimal(angle))
            zi, zr = _sin_cos(2 * _PI * Decimal(spacing) * sin_phi)
            re = im = Decimal(0)
            pr, pi = Decimal(1), Decimal(0)
            for xr, xi in xs:
                re += pr * xr - pi * xi
                im += pr * xi + pi * xr
                pr, pi = pr * zr - pi * zi, pr * zi + pi * zr
            out.append((re, im))
        return out


def _decimals(v):
    """Each complex float entry of ``v`` as an exact (real, imaginary) Decimal pair."""
    return [(Decimal(z.real), Decimal(z.imag)) for z in v.tolist()]


def _norm_sq(x):
    return sum(re * re + im * im for re, im in x)


def _inner_sq(x, y):
    """|x^H y|^2, with x^H y = sum_k conj(x_k) y_k."""
    re = sum(xr * yr + xi * yi for (xr, xi), (yr, yi) in zip(x, y))
    im = sum(xr * yi - xi * yr for (xr, xi), (yr, yi) in zip(x, y))
    return re * re + im * im


def exact_norm_sq(v):
    """||v||^2 of a float vector, as a Decimal."""
    with localcontext(_CONTEXT):
        return _norm_sq(_decimals(v))


def exact_beam_powers(scenario, c):
    """(||c||^2, |a_t^H c|^2, |h^H c|^2) of the float beam ``c``, as Decimals."""
    with localcontext(_CONTEXT):
        x = _decimals(c)
        return (
            _norm_sq(x),
            _inner_sq(_decimals(scenario.target_steering), x),
            _inner_sq(_decimals(scenario.channel), x),
        )


def exact_optimum(scenario, gamma):
    """(P ||h||^2, optimum, lambda) of the problem at ``gamma``, as Decimals.

    The optimum of |h^H c|^2 over ||c||^2 = P and |a_t^H c|^2 >= gamma is
    P ||h||^2 up to the knee g <= rho and P ||h||^2 F(g) above it, with
    F(g) = (sqrt(g rho) + sqrt(w (1 - rho)))^2, g = gamma / (P ||a_t||^2),
    w = 1 - g and rho = |h^H a_t|^2 / (||h||^2 ||a_t||^2). lambda =
    -d(optimum)/d(gamma) = -F'(g) ||h||^2 / ||a_t||^2: 0 up to the knee, and
    None at the top g = 1, where it is unbounded. ``||a_t||^2`` is that of
    the float steering vector, which may differ from M by a few ulps; a
    ``gamma`` above its top P ||a_t||^2 raises ValueError.
    """
    with localcontext(_CONTEXT):
        h, a = _decimals(scenario.channel), _decimals(scenario.target_steering)
        hh, aa = _norm_sq(h), _norm_sq(a)
        power = Decimal(scenario.power_budget)
        unit = power * hh
        rho = _inner_sq(h, a) / (hh * aa)
        g = Decimal(gamma) / (power * aa)
        if g > 1:
            raise ValueError(f"gamma {gamma!r} is above the exact top of the range")
        if g <= rho:
            return unit, unit, Decimal(0)
        root_g, root_rho, root_w, root_free = (v.sqrt() for v in (g, rho, 1 - g, 1 - rho))
        scale = root_g * root_rho + root_w * root_free
        if g == 1:
            return unit, unit * scale * scale, None
        x = scale * (root_free / root_w - root_rho / root_g)
        return unit, unit * scale * scale, x * hh / aa
