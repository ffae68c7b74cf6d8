"""The full-count required-OSNR bisection: the reference the search is checked against.

Every point is a whole ``sweep_osnr`` evaluation (probe, load and the
payload count), so every decision of the bisection rests on a counted BER,
and the bottom of the bracket is evaluated second, whatever the bisection
finds.  This is the search as it was first written; ``required_osnr``
steers its bisection by the probe pass alone and counts once, at the edge,
so on a point that loads and counts below the target the two must return
the same float.
"""

from dmtlink.harness import InfeasibleOsnrError, sweep_osnr


def required_osnr_full_count(sc, target_ber=4e-3, tol_db=0.25, seed=0, bracket=(10.0, 50.0)):
    """OSNR needed to reach ``target_ber``, every point counted in full."""
    lo, hi = bracket
    cache = {}

    def ber(osnr_db):
        if osnr_db not in cache:
            cache[osnr_db] = float(sweep_osnr(sc, [osnr_db], seed=seed)[0])
        return cache[osnr_db]

    if ber(hi) >= target_ber:
        raise InfeasibleOsnrError(f"BER {ber(hi):.3e} at {hi:.1f} dB OSNR")
    if ber(lo) < target_ber:
        return lo
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if ber(mid) < target_ber:
            hi = mid
        else:
            lo = mid
    return hi
