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


def gram_log_dets_full(normals, b):
    """log det(I + b*Z^H Z) for the complex matrices Z given as normals of
    shape (n, m_t, m_r, 2), unchecked, by the estimator's kernel before it
    packed the Gram: the normals copied as float pairs into a batch-last
    layout, the full p x p Gram, p = min(m_t, m_r), and each Schur step over
    the whole trailing block."""
    n, m_t, m_r = normals.shape[:3]
    rows, p = max(m_t, m_r), min(m_t, m_r)
    axes = (1, 2, 0, 3) if m_t >= m_r else (2, 1, 0, 3)
    z = np.empty((rows, p, n), dtype=np.complex128)
    np.copyto(z.view(np.float64).reshape(rows, p, n, 2), normals.transpose(axes))
    z_conj = np.conjugate(z)
    g = np.empty((p, p, n), dtype=np.complex128)
    term = np.empty_like(g)
    col = np.empty((p, n), dtype=np.complex128)
    d = np.empty((p, n))
    np.multiply(z_conj[0][:, None], z[0], out=g)
    for t in range(1, rows):
        g += np.multiply(z_conj[t][:, None], z[t], out=term)
    g *= b
    for k in range(p):
        g[k, k] += 1.0
    for k in range(p):
        d[k] = g[k, k].real
        r = p - 1 - k
        if r:  # Schur complement: G[k+1:, k+1:] -= G[k+1:, k] G[k+1:, k]^H / d_k
            np.divide(np.conjugate(g[k + 1 :, k], out=col[:r]), d[k], out=col[:r])
            g[k + 1 :, k + 1 :] -= np.multiply(g[k + 1 :, k, None], col[:r], out=term[:r, :r])
    return np.log(d, out=d).sum(axis=0)
