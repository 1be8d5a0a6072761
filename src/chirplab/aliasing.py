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
not collapse and it returns None.  On a surviving piece eta_p / C is an
integer k, so its integral needs only the N-th roots of unity at the exact
indices (k b) mod N of its integer ends b: one table, no exponentials per
pair.

The grid of all pairs (inner_product_matrix, an (N, N) array of |I|) is
built independently of that integer-C collapse: it sums the piece integrals
at the folds themselves, which holds for any real c1; a chirp's folds are
evenly spaced, so their sum is one geometric series and the grid costs
O(N^2) whatever C.  The term-by-term fold sum and quadrature of the
sampled aliased chirps between their fold edges are its oracles.
"""

from __future__ import annotations

import numpy as np

from .transforms import ChirpConfig


def inner_product_matrix(cfg: ChirpConfig) -> np.ndarray:
    """Exact (N, N) matrix |I_{n,n'}| of aliased-chirp inner products over [0, T).

    With s = t / T, chirp m folds at s = (k - m/N) / C for k = 1..K_m,
    K_m = max(ceil(C + m/N) - 1, 0).  Between the merged folds of a pair
    n < n' = n + d the phase difference is c2 (n^2 - n'^2) + eta s with the
    integer eta, which starts at eta_- = -d and takes only one other value,
    eta_+ = N - d: a fold of n' switches eta_- to eta_+ and a fold of n
    switches it back.  Collecting the piece integrals at the folds gives

        2 pi |I| / T = | 1/eta_end + 1/d + J(n, d) - J(n', d) |

    with eta_end the eta of the last piece, J(m, d) = S(eta_+, m) - S(eta_-, m)
    and the geometric sum S(eta, m) = sum_k e^{j 2 pi eta (k - m/N) / C} / eta =
    e^{-j 2 pi eta m / (N C)} e^{j pi (K_m + 1) f} sin(pi K_m f) / (sin(pi f) eta),
    f = eta / C - round(eta / C) (the ratio of sines is K_m at f = 0).  Every
    phase is reduced modulo a whole turn before it is scaled by 2 pi, which
    keeps each term at rounding level for any real c1, C near an integer too;
    |I| does not depend on c2.  J is built in blocks of separations d, its
    tones e^{j 2 pi m d / (N C)} one per row m times a table shared by all
    blocks: O(N^2) work, at most about N^2 exponentials, whatever C.
    """
    big_n = cfg.N
    c = cfg.chirp_span
    idx = np.arange(big_n)
    folds = np.maximum(np.ceil(c + idx / big_n) - 1, 0)
    entries = np.diag(np.full(big_n, cfg.T))
    if not folds.any():
        return entries  # C <= 1/N: no chirp folds, every pair is orthogonal
    # K_m takes at most two values; S is tabulated per value, without its m phase
    counts, row_k = np.unique(folds, return_inverse=True)
    counts = counts[:, None]

    def tones(e):
        return np.exp(2j * np.pi * (np.fmod(np.multiply.outer(idx, e), big_n * c) / (big_n * c)))

    def fold_sum(eta):
        f = np.fmod(eta, c) / c
        f -= np.rint(f)
        ratio = counts * np.sinc(counts * f) / np.sinc(f)
        return np.exp(1j * np.pi * (counts + 1) * f) * ratio / eta

    # about 64k table entries per block of separations
    cols = min(big_n - 1, max(1, (1 << 16) // big_n))
    shift = tones(np.arange(cols))
    for d0 in range(1, big_n, cols):
        d = np.arange(d0, min(d0 + cols, big_n))
        rise, fall = fold_sum(big_n - d)[row_k], fold_sum(-d)[row_k]
        jump = shift[:, : len(d)] * (tones(d0 - big_n)[:, None] * rise - tones(d0)[:, None] * fall)
        a, j = np.nonzero(idx[:, None] + d < big_n)
        b = a + d[j]
        eta_end = big_n * (folds[b] - folds[a]) - d[j]
        total = 1.0 / eta_end + 1.0 / d[j] + jump[a, j] - jump[b, j]
        entries[a, b] = entries[b, a] = cfg.T * np.abs(total) / (2.0 * np.pi)
    return entries


def _integer_fold_grid(cfg: ChirpConfig, c: int) -> np.ndarray:
    """Exact |I_{n,n'}| / T for all pairs at an integer fold count c >= 1.

    The constant pieces of eta are [b_i, b_{i+1}) / N with the integer breaks
    0 <= N - max(n, n') <= N - min(n, n') <= N; on a piece starting at b the
    fold offsets are floor((b + n) / N), so the pieces are found in integer
    arithmetic.  A piece counts iff c divides its eta (see the module
    docstring); then k = eta / c is an integer and the piece integrates to
    (w^(k hi) - w^(k lo)) / (j 2 pi k) with w = e^{j 2 pi / N}, each power
    read from one table of the N roots of unity at its exact index
    (k b) mod N.  An empty piece adds nothing, and eta = 0, which occurs only
    on the diagonal, integrates to the piece length, so the diagonal is 1.
    The factor exp(j 2 pi c2 (n^2 - n'^2)) has unit modulus and is left out.
    """
    big_n = cfg.N
    n = np.arange(big_n)[:, None]
    n2 = np.arange(big_n)[None, :]
    roots = np.exp(2j * np.pi * np.arange(big_n) / big_n)
    breaks = (0, big_n - np.maximum(n, n2), big_n - np.minimum(n, n2), big_n)
    total = np.zeros((big_n, big_n), dtype=np.complex128)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        eta = (n - n2) - big_n * ((lo + n) // big_n - (lo + n2) // big_n)
        k, rest = np.divmod(eta, c)
        live = np.nonzero(rest == 0)
        k = k[live]
        lo = np.broadcast_to(lo, eta.shape)[live]
        hi = np.broadcast_to(hi, eta.shape)[live]
        rise = roots[k * hi % big_n] - roots[k * lo % big_n]
        piece = rise / (2j * np.pi * np.where(k == 0, 1, k))
        total[live] += np.where(k == 0, (hi - lo) / big_n, piece)
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
