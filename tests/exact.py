"""Exact reference for the dual bound: the float problem as given, solved in decimal.

The inputs are binary floats, so the optimum of the problem they define has
an exact value. Each float entry of the channel and the steering vector
converts to decimal exactly, and ||h||^2, ||a_t||^2, h^H a_t, the optimum
and its multiplier are then formed in 80-digit decimal. Its rounding is
about 1e-80 relative, some 10^64 times below float's, so the results serve
as the exact values. Standard library only.
"""

from decimal import Context, Decimal, localcontext

_CONTEXT = Context(prec=80)


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
        h = [(Decimal(z.real), Decimal(z.imag)) for z in scenario.channel.tolist()]
        a = [(Decimal(z.real), Decimal(z.imag)) for z in scenario.target_steering.tolist()]
        hh = sum(x * x + y * y for x, y in h)
        aa = sum(x * x + y * y for x, y in a)
        # h^H a_t = sum_k conj(h_k) a_k
        re = sum(hx * ax + hy * ay for (hx, hy), (ax, ay) in zip(h, a))
        im = sum(hx * ay - hy * ax for (hx, hy), (ax, ay) in zip(h, a))
        power = Decimal(scenario.power_budget)
        unit = power * hh
        rho = (re * re + im * im) / (hh * aa)
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
