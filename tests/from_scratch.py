"""References that the tests compare the package's fast paths against,
evaluated anew at every entry."""

import numpy as np

from shortpacket import awgn


def tail_args(ch, k, n):
    """(nC - k + log2(n)/2) / sqrt(nV), the argument of Q in eps_star, over
    arrays of k and n, unchecked."""
    c, v = awgn._cv(ch)
    k, n = np.asarray(k, dtype=float), np.asarray(n, dtype=float)
    return (n * c - k + 0.5 * np.log2(n)) / np.sqrt(n * v)
