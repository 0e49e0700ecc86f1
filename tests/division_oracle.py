"""The division loop that `qec.aq.sigma_divide` replaced, kept as the
differential oracle of both divisions.

Each step of this loop forms the whole of factor * cur - piece * w as
`AqElement` products, and rescales the quotient built so far by the
factor; `qec.aq.sigma_divide` eliminates in place and builds the quotient
in one backward pass.  Both must give the same (g, h, rem), or raise the
same exception with the same message."""

from qec.aq import AqElement, _reflect, degrees, fourier, from_z_form
from qec.errors import PreconditionViolation
from qec.laurent import ONE, qshift


def sigma_divide(r: AqElement, w: AqElement, bottom: bool = False):
    """(g, h, rem) with g*r = h*w + rem and deg_sigma(rem) < deg_sigma(w)."""
    if w.is_zero():
        raise PreconditionViolation("division by zero")
    if r.is_zero():
        return ONE, AqElement.zero(), AqElement.zero()
    dw = degrees(w).deg_sigma
    if degrees(r).deg_sigma < dw:
        raise PreconditionViolation("divisor has larger sigma-degree than dividend")
    wsup = w.sigma_support()
    k = wsup[0] if bottom else wsup[-1]
    wk = w.coefficient(k)
    g_total = ONE
    h_total = AqElement.zero()
    cur = r
    while not cur.is_zero():
        csup = cur.sigma_support()
        if csup[-1] - csup[0] < dw:
            break
        l = csup[0] if bottom else csup[-1]
        factor = qshift(wk, l - k)
        piece = AqElement({l - k: cur.coefficient(l)})
        cur = factor * cur - piece * w
        g_total = factor * g_total
        h_total = factor * h_total + piece
    return g_total, h_total, cur


def z_divide(r: AqElement, w: AqElement, bottom: bool = False):
    """(g, h, rem) with g in K[s,s^-1], g*r = h*w + rem and
    deg_z(rem) < deg_z(w): sigma_divide on the fourier images."""
    if w.is_zero():
        raise PreconditionViolation("division by zero")
    if r.is_zero():
        return ONE, AqElement.zero(), AqElement.zero()
    dw = degrees(w).deg_z
    if degrees(r).deg_z < dw:
        raise PreconditionViolation("divisor has larger z-degree than dividend")
    g, h, rem = sigma_divide(fourier(r), fourier(w), bottom)

    def back(y):
        return from_z_form({j: _reflect(f) for j, f in y.terms()})

    return _reflect(g), back(h), back(rem)
