"""Inner products of ideal aliased chirps: their conditional orthogonality.

Sampling the ideal chirp basis at the base rate N/T folds its instantaneous
frequency back into the band [-N/(2T), N/(2T)); reinterpreting those samples
as a band-limited signal yields a piecewise chirp whose frequency offset
index jumps at the boundaries t_{n,q}.  Between fold boundaries the c1 terms
of two aliased chirps cancel, so their phase difference is linear in time
with the integer rate

    eta(eps) = (n - n') - N * (floor(eps + n/N) - floor(eps + n'/N))

where t = (k + eps) T / C splits [0, T) into the C = 2 N |c1| fold periods.
Summing over the periods k removes every constant piece of eta that is not a
multiple of C and leaves

    I / T = exp(j 2 pi c2 (n^2 - n'^2)) * sum over pieces with C | eta_p of
            integral over the piece of exp(j 2 pi (eta_p / C) eps) d eps.

Divisibility is therefore necessary for aliasing but not sufficient: the
surviving pieces can cancel, e.g. eta = -16, +16, -16 at N = 32, C = 16 for
the pair (8, 24).  When C >= N, |eta| < N <= C and no piece survives; when
C < N divides N, only separations that are multiples of C can survive.
predict_aliased evaluates this sum for all pairs at once and marks a pair
aliased iff |I| / T exceeds rounding level; for a non-integer C the sum does
not collapse and it returns None.

The grid of all pairs (inner_product_matrix, an (N, N) array of |I|) is
built independently of that integer-C collapse: it sums the piece integrals
at the folds themselves, which holds for any real c1.  The sampled aliased
chirps, their fold edges and Gauss-Legendre quadrature between the folds
are its test oracle.
"""

from __future__ import annotations

import numpy as np

from .transforms import ChirpConfig


def inner_product_matrix(cfg: ChirpConfig) -> np.ndarray:
    """Exact (N, N) matrix |I_{n,n'}| of aliased-chirp inner products over [0, T).

    With s = t / T, chirp n folds at s = (k - n/N) / C for the integers k in
    (n/N, C + n/N).  Between the merged folds of a pair n < n' the phase
    difference is c2 (n^2 - n'^2) + eta s with the integer
    eta = d - N (q_n - q_n'), d = n - n'.  eta starts at eta_- = d and takes
    only one other value, eta_+ = d + N: a fold of n' switches eta_- to
    eta_+ and a fold of n switches it back.  Collecting the piece integrals
    (e^{j 2 pi eta hi} - e^{j 2 pi eta lo}) / (j 2 pi eta) at the folds gives,
    with e(eta, s) = e^{j 2 pi eta s} / eta,

        2 pi |I| / T = | 1/eta_end - 1/d
                         + sum over folds s of n  [e(eta_+, s) - e(eta_-, s)]
                         - sum over folds s of n' [e(eta_+, s) - e(eta_-, s)] |

    where eta_end is eta on the last piece.  The sum is exact for any real
    c1: C need not be an integer, and c1 = 0 has no folds.  |I| does not
    depend on c2.  All pairs are evaluated at once, in row blocks that bound
    the memory.
    """
    big_n = cfg.N
    c = cfg.chirp_span
    idx = np.arange(big_n)
    folds = np.maximum(np.ceil(c + idx / big_n) - 1, 0).astype(int)
    k = np.arange(1, folds.max() + 1)
    live = k[None, :] <= folds[:, None]
    # (N, K) fold positions, padded with 0; K = 0 (an empty array) when C = 0
    at = np.where(live, (k[None, :] - idx[:, None] / big_n) / c, 0.0)

    entries = np.zeros((big_n, big_n))
    # about 1M (pair, fold) terms per block of rows
    rows = max(1, (1 << 20) // (big_n * max(len(k), 1)))
    for r0 in range(0, big_n, rows):
        a, b = np.nonzero(idx[None, :] > idx[r0 : r0 + rows, None])
        a += r0
        eta_minus = (a - b).astype(float)[:, None]
        eta_plus = eta_minus + big_n

        def jumps(n):
            wave = (np.exp(2j * np.pi * eta_plus * at[n]) / eta_plus
                    - np.exp(2j * np.pi * eta_minus * at[n]) / eta_minus)
            return np.sum(wave * live[n], axis=1)

        eta_end = eta_minus[:, 0] + big_n * (folds[b] - folds[a])
        total = 1.0 / eta_end - 1.0 / eta_minus[:, 0] + jumps(a) - jumps(b)
        entries[a, b] = entries[b, a] = cfg.T * np.abs(total) / (2.0 * np.pi)
    np.fill_diagonal(entries, cfg.T)
    return entries


def _integer_fold_grid(cfg: ChirpConfig, c: int) -> np.ndarray:
    """Exact |I_{n,n'}| / T for all pairs at an integer fold count c >= 1.

    The constant pieces of eta are [b_i, b_{i+1}) / N with the integer breaks
    0 <= N - max(n, n') <= N - min(n, n') <= N; on a piece starting at b the
    fold offsets are floor((b + n) / N), so the pieces are found in integer
    arithmetic.  A piece counts iff c divides its eta (see the module
    docstring).  An empty piece adds nothing, and eta = 0, which occurs only
    on the diagonal, integrates to the piece length, so the diagonal is 1.
    The factor exp(j 2 pi c2 (n^2 - n'^2)) has unit modulus and is left out.
    """
    big_n = cfg.N
    n = np.arange(big_n)[:, None]
    n2 = np.arange(big_n)[None, :]
    breaks = (0, big_n - np.maximum(n, n2), big_n - np.minimum(n, n2), big_n)
    total = np.zeros((big_n, big_n), dtype=np.complex128)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        eta = (n - n2) - big_n * ((lo + n) // big_n - (lo + n2) // big_n)
        w = 2j * np.pi * eta / c
        rise = np.exp(w * hi / big_n) - np.exp(w * lo / big_n)
        piece = np.where(eta == 0, (hi - lo) / big_n, rise / np.where(eta == 0, 1.0, w))
        total += np.where(eta % c == 0, piece, 0.0)
    return np.abs(total)


def predict_aliased(cfg: ChirpConfig) -> np.ndarray | None:
    """Closed-form aliasing verdict for every pair of aliased chirps.

    Returns the (N, N) boolean matrix that is True where the exact |I| / T
    exceeds rounding level (1e-9); the diagonal is True.  The sum over fold
    periods collapses only for an integer fold count C = 2 N |c1|, so the
    result is None when C is not an integer to within 1e-9.  C = 0 has no
    folds and gives the identity; for C >= N no piece survives off the
    diagonal, which gives the identity too.  Contributing pieces can still
    cancel, so divisibility alone does not decide a pair.
    """
    c = cfg.chirp_span
    c_int = round(c)
    if abs(c - c_int) > 1e-9:
        return None
    if c_int == 0:
        return np.eye(cfg.N, dtype=bool)
    return _integer_fold_grid(cfg, c_int) > 1e-9
