"""Every pair-swap sector of an S_z block, each diagonalized on its own, as
the reference for the brute-force tier's one canonical sector per class.

This is the all-sector build the brute-force tier used before it kept one
sector per class (|sigma|, pair 0 odd or not): the same explicit pair sum
and the same sector basis, with every sector sigma of the block built and
labelled. It imports nothing from xxzent but its error type.
"""

from __future__ import annotations

from math import comb

import numpy as np

from xxzent.errors import XxzentError


def _pair_bits(s: np.ndarray, even: int):
    """Masks of the site pairs (2p, 2p + 1) of states s, as bit 2p: d, the
    pairs whose bits differ, and g, those of them turned away from the
    canonical orientation (site 2p up, site 2p + 1 down)."""
    lo = s & even
    d = lo ^ ((s >> 1) & even)
    return d, d & lo


def sector_rows(n: int, k: int):
    """(rows, sigma) of every eigenvector of the flip-flop sum F on every
    pair-swap sector of the block with k down spins (bit k of a basis index
    set: site k down).

    rows holds f, S_z, sum_{i != j} s^z_i s^z_j, <S^2> = f + S_z^2 + n/2,
    the four rho_2 populations of sites (0, 1) and the coherence <01|.|10>;
    sigma is the sector of each column (its odd pairs, as bits 2p). Sectors
    of equal |sigma| are equal in size and share one stacked eigh. A state
    s with representative r (each pair with differing bits d(r) turned
    canonical) and flipped pairs g(s) labels the basis vector
    2^(-|d(r)|/2) sum_{h in d(r)} (-1)^|h & sigma| swap_h(r) of sector
    sigma = g(s); each flip r -> t adds 1/2 2^((|d(r)| - |d(t)|)/2)
    (-1)^|g(t) & sigma| at (r(t), sigma) if sigma lies in d(t).
    """
    ones = np.array([bin(s).count("1") for s in range(2 ** n)])
    pairs, even = n // 2, (4 ** (n // 2) - 1) // 3
    states = np.flatnonzero(ones == k)
    d, g = _pair_bits(states, even)
    order = np.lexsort((g, ones[g]))          # by |sigma|, then sigma
    states, d, g = states[order], d[order], g[order]
    rep = states ^ 3 * g
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    szdiag = 0.5 - ((states[:, None] >> np.arange(n)) & 1)
    sz = szdiag.sum(axis=1)
    zz = (szdiag[:, i] * szdiag[:, j]).sum(axis=1)
    if np.ptp(sz) != 0.0 or np.ptp(zz) != 0.0:
        raise XxzentError("diagonal not constant on the S_z block")
    sz, zz = float(sz[0]), float(zz[0])
    rbits = (rep[:, None] >> np.arange(n)) & 1
    src, ij = np.nonzero(rbits[:, i] != rbits[:, j])
    t = rep[src] ^ (1 << i[ij]) ^ (1 << j[ij])
    sigma = g[src]
    dt, gt = _pair_bits(t, even)
    live = (dt & sigma) == sigma
    src, t, sigma, dt, gt = (a[live] for a in (src, t, sigma, dt, gt))
    val = (0.5 * np.sqrt(2.0 ** (ones[d[src]] - ones[dt]))
           * (1 - 2 * (ones[gt & sigma] & 1)))
    rank = np.empty(2 ** n, dtype=np.intp)
    rank[states] = np.arange(states.size)
    dst = rank[t ^ 3 * (gt ^ sigma)]          # basis vector (r(t), sigma)
    odd, out = ones[g], []
    for js in np.unique(odd):
        lo, hi = np.searchsorted(odd, [js, js + 1])
        count = comb(pairs, int(js))
        m = (hi - lo) // count
        a, b = np.searchsorted(src, [lo, hi])
        F = np.bincount((dst[a:b] - lo) * m + (src[a:b] - lo) % m,
                        weights=val[a:b], minlength=count * m * m)
        F = F.reshape(count, m, m)
        if np.abs(F - F.transpose(0, 2, 1)).max() > 1e-12 * n:
            raise XxzentError("flip-flop sum not symmetric on a sector")
        f, U = np.linalg.eigh(F)
        w, pair0 = U * U, (rep[lo:hi] & 3).reshape(count, m, 1)
        up, mixed, down = ((w * (pair0 == q)).sum(axis=1).ravel()
                           for q in (0, 2, 3))
        sign = 1 - 2 * np.repeat(g[lo:hi:m] & 1, m)   # -1: pair 0 odd
        f = f.ravel()
        out.append(np.stack([f, np.full_like(f, sz), np.full_like(f, zz),
                             f + sz * sz + n / 2.0, up, 0.5 * mixed,
                             0.5 * mixed, down, 0.5 * sign * mixed]))
    return np.concatenate(out, axis=1), g
