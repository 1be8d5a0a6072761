"""Ideal aliased chirps and their conditional orthogonality.

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

The grid of all pairs (inner_product_matrix) is built independently of that
integer-C collapse: it sums the piece integrals at the folds themselves,
which holds for any real c1.  Gauss-Legendre quadrature between the folds
is its test oracle.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .transforms import ChirpConfig
from .waveform import Waveform


class ChirpPairing(Enum):
    ORTHOGONAL = "orthogonal"
    ALIASED = "aliased"


@dataclass(frozen=True)
class AliasedChirpSpec:
    """One aliased chirp: owning frame configuration and subcarrier index."""

    cfg: ChirpConfig
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n < self.cfg.N:
            raise ValueError(f"chirp index {self.n} outside [0, {self.cfg.N})")

    def boundaries(self) -> np.ndarray:
        """Interval edges 0 = t_0 < t_1 < ... < T where the fold index jumps."""
        cfg = self.cfg
        c = cfg.chirp_span
        if c <= 0:
            return np.array([0.0, cfg.T])
        # interior crossings of (C/T) t + n/N through integers
        q_lo = int(np.floor(self.n / cfg.N)) + 1
        q_hi = int(np.ceil(c + self.n / cfg.N))
        qs = np.arange(q_lo, q_hi)
        interior = (qs - self.n / cfg.N) * cfg.T / c
        interior = interior[(interior > 0) & (interior < cfg.T)]
        return np.concatenate([[0.0], interior, [cfg.T]])


def q_index(cfg: ChirpConfig, n: int, t: float) -> int:
    """Fold interval index q_n(t) = floor((C/T) t + n/N)."""
    if not 0 <= n < cfg.N:
        raise ValueError(f"chirp index {n} outside [0, {cfg.N})")
    t = np.asarray(t, dtype=float)
    if np.any((t < 0) | (t >= cfg.T)):
        raise ValueError("t must lie in [0, T)")
    q = np.floor(cfg.chirp_span * t / cfg.T + n / cfg.N).astype(int)
    return int(q) if q.ndim == 0 else q


def _aliased_phase_rate(cfg: ChirpConfig, n: int, q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Phase (in cycles) of the aliased chirp at times t in fold interval q."""
    dt = cfg.dt
    return (
        cfg.c2 * n**2
        + cfg.c1 * (t / dt) ** 2
        + n * t / cfg.T
        - q * t / dt
    )


def ideal_aliased_chirp(spec: AliasedChirpSpec, oversampling: int) -> Waveform:
    """Sample the piecewise aliased chirp at rate O*N/T on [0, T)."""
    cfg = spec.cfg
    n_samp = cfg.N * oversampling
    t = np.arange(n_samp) * (cfg.T / n_samp)
    q = np.floor(cfg.chirp_span * t / cfg.T + spec.n / cfg.N)
    phase = _aliased_phase_rate(cfg, spec.n, q, t)
    return Waveform(np.exp(2j * np.pi * phase), sample_rate=n_samp / cfg.T, t0=0.0)


@dataclass
class OrthogonalityMatrix:
    """|<phi_hat_n, phi_hat_n'>| for all chirp pairs of one configuration."""

    entries: np.ndarray
    cfg: ChirpConfig
    method: str

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "n_prime", "abs_I_over_T"])
            for n in range(self.cfg.N):
                for n2 in range(self.cfg.N):
                    writer.writerow(
                        [n, n2, f"{self.entries[n, n2] / self.cfg.T:.12g}"]
                    )


def inner_product_matrix(cfg: ChirpConfig) -> OrthogonalityMatrix:
    """Exact matrix |I_{n,n'}| of aliased-chirp inner products over [0, T).

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
    return OrthogonalityMatrix(entries, cfg, method="closed-form")


def _integer_fold_inner_product(cfg: ChirpConfig, n: int, n_prime: int, c: int) -> complex:
    """Exact I_{n,n'} / T for an integer fold count c (see the module docstring).

    The constant pieces of eta are [b_i, b_{i+1}) / N with integer breaks
    b in {0, N - n, N - n', N}; on a piece starting at b the fold offsets are
    floor((b + n) / N), so the pieces are found in integer arithmetic.
    """
    big_n = cfg.N
    breaks = sorted({0, big_n - n, big_n - n_prime, big_n})
    total = 0j
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        # eta != 0 because |n - n'| < N for distinct chirps
        eta = (n - n_prime) - big_n * ((lo + n) // big_n - (lo + n_prime) // big_n)
        if eta % c == 0:
            w = 2j * math.pi * eta / c
            total += (cmath.exp(w * hi / big_n) - cmath.exp(w * lo / big_n)) / w
    return total * cmath.exp(2j * math.pi * cfg.c2 * (n**2 - n_prime**2))


def predict_orthogonality(cfg: ChirpConfig, n: int, n_prime: int) -> ChirpPairing:
    """Closed-form orthogonality verdict for a pair of aliased chirps.

    Evaluates the exact inner product over the (at most three) constant
    pieces of eta on eps in [0, 1) and reports ALIASED iff |I| / T exceeds
    rounding level (1e-9).  A piece contributes only if its eta is divisible
    by the fold count C, which must be a positive integer for the sum over
    fold periods to collapse; contributing pieces can still cancel.
    """
    if n == n_prime:
        raise ValueError("orthogonality prediction needs two distinct chirps")
    for idx in (n, n_prime):
        if not 0 <= idx < cfg.N:
            raise ValueError(f"chirp index {idx} outside [0, {cfg.N})")
    c = cfg.chirp_span
    c_int = round(c)
    if c_int <= 0 or abs(c - c_int) > 1e-9:
        raise ValueError(
            f"prediction requires an integer fold count C = 2N|c1|, got {c}"
        )
    if c_int >= cfg.N:
        return ChirpPairing.ORTHOGONAL
    if abs(_integer_fold_inner_product(cfg, n, n_prime, c_int)) > 1e-9:
        return ChirpPairing.ALIASED
    return ChirpPairing.ORTHOGONAL
