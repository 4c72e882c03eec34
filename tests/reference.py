"""Independent references for the tests: the stored bank and the quadrature oracles.

The library computes one bank path, the streamed bank of
``transform.streamed_bank_transform``.  The references here are the
straightforward forms it is checked against:

- ``g_prime`` / ``g_second`` / ``bank_windows``: the closed forms of the
  window's derivatives, and the six bank windows sampled from them;
- ``BankTensors`` / ``chirplet_bank_transform``: all six bank transforms as
  stored volumes, each one call of ``chirplet_transform``;
- ``whole_h`` and ``whole_codes``: T^h and a field's codes on every row of
  the grid, the aliased rows included, where the library keeps the
  resolvable rows alone; ``resolvable_h``: that T^h with the aliased rows
  zero, the CT baseline's volume;
- ``squeeze_destinations`` and ``conservation_full_volume``: the squeeze's
  rounding and the conservation residual over the whole volume in one pass;
- ``squeeze_whole``, ``conservation_whole`` and ``sources_whole``: the
  squeeze, the conservation residual and source tracing over T^h and the
  codes on every row of the grid, each in one pass;
- ``select_high_energy`` and ``admit_frame_peaks_loop``: the ridge cloud
  selected on a whole |S| volume with a boolean mask, and the per-frame
  peaks peeled one frame at a time;
- ``gaussian_affinity_squareform``: the affinity from the condensed
  distances through ``np.percentile`` and ``squareform``;
- the closed-form transform of a linear chirp, the Fresnel segment, and
  adaptive quadratures of the 1-d chirp transform and of the continuous
  chirplet transform.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad
from scipy.special import fresnel

from tfchirp.errors import DegenerateCloudError, EmptyCloudError, ParameterError, ShapeError
from tfchirp.ridge import TfcPointCloud, _weighted_quantiles
from tfchirp.signal import TfcGrid, WindowBank, WindowFamily, round_half_away
from tfchirp.reassign import ALIASED
from tfchirp.transform import TfcTensor, chirplet_transform, resolvable_slots

# the companions in the argument order of the reassignment rule: T1, T2, U, U1, V
_COMPANIONS = ("h_prime", "h_second", "th", "th_prime", "t2h")


def _poly_term(x, power):
    # x**power with the convention 0**0 == 1; negative powers only occur
    # with a zero coefficient and must not be evaluated.
    if power < 0:
        return np.zeros_like(x)
    if power == 0:
        return np.ones_like(x)
    return x**power


def g_prime(family: WindowFamily, x: np.ndarray) -> np.ndarray:
    """d/dx of g, in closed form."""
    x = np.asarray(x, dtype=float)
    n, a = family.n, family.alpha_w
    poly = n * _poly_term(x, n - 1) - 2 * np.pi * a * _poly_term(x, n + 1)
    return poly * np.exp(-np.pi * a * x * x)


def g_second(family: WindowFamily, x: np.ndarray) -> np.ndarray:
    """d2/dx2 of g, in closed form."""
    x = np.asarray(x, dtype=float)
    n, a = family.n, family.alpha_w
    poly = (
        n * (n - 1) * _poly_term(x, n - 2)
        - 2 * np.pi * a * (2 * n + 1) * _poly_term(x, n)
        + 4 * np.pi**2 * a**2 * _poly_term(x, n + 2)
    )
    return poly * np.exp(-np.pi * a * x * x)


def bank_windows(bank: WindowBank) -> dict:
    """The six windows of the reassignment rule, sampled on the bank's grid:
    ``h``, ``th``, ``t2h`` from the bank, ``g'``, ``g''`` and ``x*g'`` from
    the closed forms."""
    x = bank.offsets_s
    gp = g_prime(bank.family, x)
    return {
        "h": bank.h,
        "h_prime": gp,
        "h_second": g_second(bank.family, x),
        "th": bank.th,
        "th_prime": x * gp,
        "t2h": bank.t2h,
    }


@dataclass(frozen=True)
class BankTensors:
    """The six chirplet transforms of one signal against a window bank."""

    h: TfcTensor
    h_prime: TfcTensor
    h_second: TfcTensor
    th: TfcTensor
    th_prime: TfcTensor
    t2h: TfcTensor
    bank: WindowBank

    @property
    def grid(self):
        return self.h.grid

    @cached_property
    def rows(self):
        """The resolvable rows, as ``StreamedBank.rows``."""
        return np.flatnonzero(resolvable_slots(self.grid, self.bank))

    @cached_property
    def values(self):
        """T^h on the resolvable rows, as ``StreamedBank.values``."""
        return self.h.values.reshape(-1, self.grid.n_time)[self.rows]

    @property
    def peak(self):
        """max |T^h| over the resolvable rows, as ``StreamedBank.peak``."""
        return float(np.abs(self.values).max(initial=0.0))

    def companion_blocks(self, rows, cols=slice(None)):
        """The companions, as ``StreamedBank.companion_blocks``, in one block: ``companions_of(sub, T)``
        is the tuple (T1, T2, U, U1, V) of the flat (chirp, frequency) rows ``rows[sub]`` over the frames
        ``cols``; the stored companions need no ``T``."""
        companions = [getattr(self, name).values for name in _COMPANIONS]
        if len({t.shape for t in companions} | {self.h.values.shape}) != 1:
            raise ShapeError("bank tensors disagree in shape")
        flat = [t.reshape(-1, self.h.grid.n_time) for t in companions]
        yield slice(0, rows.size), lambda sub, T: tuple(t[rows[sub], cols] for t in flat)


def chirplet_bank_transform(signal, bank: WindowBank, grid: TfcGrid) -> BankTensors:
    """All six bank transforms, stored."""
    tensors = {name: chirplet_transform(signal, w, grid) for name, w in bank_windows(bank).items()}
    return BankTensors(bank=bank, **tensors)


def whole_h(banks) -> np.ndarray:
    """T^h of a bank on every row of the grid, [n_chirp, n_freq, n_time]: stored, or one ``chirplet_transform``."""
    if isinstance(banks, BankTensors):
        return banks.h.values
    return chirplet_transform(banks.signal, banks.bank.h, banks.grid).values


def resolvable_h(banks) -> np.ndarray:
    """``whole_h`` with every aliased row 0, [n_chirp, n_freq, n_time]: the volume the CT baseline selects from."""
    return np.where(resolvable_slots(banks.grid, banks.bank)[..., None], whole_h(banks), 0)


def whole_codes(field) -> np.ndarray:
    """The field's codes on every row of the grid, ``ALIASED`` on the rows the field leaves out."""
    grid = field.grid
    codes = np.full((grid.n_chirp * grid.n_freq, grid.n_time), ALIASED, dtype=field.codes.dtype)
    codes[field.banks.rows] = field.codes
    return codes.reshape(grid.n_chirp, grid.n_freq, grid.n_time)


# ---------------------------------------------------------------------------
# The squeeze over the whole volume


def squeeze_destinations(field):
    """Flat source and destination indices of every entry the squeeze moves, in one pass.

    Sources are the defined entries whose rounded (omega, mu) lands inside
    the grid, ascending; each destination is the flat index of its bin in
    the same frame.
    """
    grid = field.grid
    shape = field.defined.shape
    l_src, m_src, frame = np.nonzero(field.defined)
    m_dest = round_half_away(field.omega[l_src, m_src, frame] / grid.freq_step_hz)
    l_dest = round_half_away(field.mu[l_src, m_src, frame] / grid.chirp_step_hzps) + (grid.M - 1)
    ok = (l_dest >= 0) & (l_dest < grid.n_chirp) & (m_dest >= 0) & (m_dest < grid.n_freq)
    src = np.ravel_multi_index((l_src[ok], m_src[ok], frame[ok]), shape)
    dest = np.ravel_multi_index((l_dest[ok].astype(np.intp), m_dest[ok].astype(np.intp), frame[ok]), shape)
    return src, dest


def conservation_full_volume(field, squeezed):
    """The per-frame residual with the contributing set rounded over the whole volume."""
    grid = field.grid
    m_dest = round_half_away(np.where(field.defined, field.omega, np.nan) / grid.freq_step_hz)
    l_dest = round_half_away(np.where(field.defined, field.mu, np.nan) / grid.chirp_step_hzps) + (grid.M - 1)
    with np.errstate(invalid="ignore"):
        contrib = field.defined & (l_dest >= 0) & (l_dest < grid.n_chirp) & (m_dest >= 0) & (m_dest < grid.n_freq)
    lhs = squeezed.values.sum(axis=(0, 1))
    rhs = np.where(contrib, whole_h(field.banks), 0).sum(axis=(0, 1))
    return np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)


def squeeze_whole(h, codes, frames=slice(None)):
    """S over the frames ``frames`` from T^h and the codes on every row of the grid: one ``np.add.at``
    over the contributing entries of those frames in flat order."""
    n_chirp, n_freq, n_time = h.shape
    start, stop, _ = frames.indices(n_time)
    width = stop - start
    codes, values = (x[..., start:stop].reshape(-1, width) for x in (codes, h))
    rows, cols = np.nonzero(codes >= 0)
    out = np.zeros(n_chirp * n_freq * width, dtype=np.complex128)
    np.add.at(out, codes[rows, cols].astype(np.intp) * width + cols, values[rows, cols])
    return out.reshape(n_chirp, n_freq, width)


def conservation_whole(h, codes, squeezed):
    """The per-frame residual with the contributing T^h summed over every row of the grid."""
    lhs = squeezed.sum(axis=(0, 1))
    rhs = np.sum(h, axis=(0, 1), where=codes >= 0)
    return np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)


def sources_whole(field, h, codes, bins, frame_chunk=64):
    """``field.sources(bins)`` from the codes on every row of the grid: the contributing entries whose
    destination is one of the distinct ``bins``, tile by tile in flat order, the index in ``bins`` of
    each one's bin, the field's whole-grid ``omega``/``mu`` and |T^h| there."""
    n_time = h.shape[-1]
    flat = codes.reshape(-1)
    src = np.flatnonzero(flat >= 0)
    dest = flat[src].astype(np.intp) * n_time + src % n_time
    hit = np.isin(dest, bins)
    src, dest = src[hit], dest[hit]
    order = np.lexsort((src, src % n_time // frame_chunk))
    src, dest = src[order], dest[order]
    sorter = np.argsort(bins)
    which = sorter[np.searchsorted(bins, dest, sorter=sorter)]
    return src, which, field.omega.ravel()[src], field.mu.ravel()[src], np.abs(h.ravel()[src])


# ---------------------------------------------------------------------------
# Ridge selection over the whole volume


def admit_frame_peaks_loop(mags, keep, count, suppress=(3, 2)):
    """Mark each frame's ``count`` strongest separated peaks in ``keep``, one frame at a time."""
    n_chirp, n_freq, n_time = mags.shape
    dl, dm = suppress
    for n in range(n_time):
        frame = mags[:, :, n].copy()
        for _ in range(count):
            idx = np.argmax(frame)
            l, m = divmod(idx, n_freq)
            if frame[l, m] <= 0:
                break
            keep[l, m, n] = True
            frame[max(0, l - dl) : l + dl + 1, max(0, m - dm) : m + dm + 1] = 0.0


def select_high_energy(tensor, q, min_per_frame=0):
    """The ridge cloud from the |S| volume, its exact quantile and one selection mask."""
    grid = tensor.grid
    mags = np.abs(tensor.values)
    threshold = np.quantile(mags, q)
    keep = mags > threshold
    if min_per_frame > 0:
        admit_frame_peaks_loop(mags, keep, min_per_frame)
    l_idx, m_idx, n_idx = np.nonzero(keep)
    weights = mags[l_idx, m_idx, n_idx]
    core = weights > threshold
    if not core.any():
        raise EmptyCloudError("no entries above the energy quantile")
    physical = np.column_stack((n_idx / grid.sample_rate_hz, grid.freqs_hz[m_idx], grid.chirps_hzps[l_idx]))
    core_pts = physical[core]
    lo, hi = _weighted_quantiles(core_pts, weights[core], (0.05, 0.95))
    span = hi - lo
    fallback = core_pts.max(axis=0) - core_pts.min(axis=0)
    span = np.where(span > 0, span, np.where(fallback > 0, fallback, 1.0))
    return TfcPointCloud(
        points=(physical - lo) / span,
        physical=physical,
        weights=weights,
        frames=n_idx,
        core=core if min_per_frame > 0 else None,
    )


def gaussian_affinity_squareform(points, sigma_pct):
    """The Gaussian affinity (unit diagonal) and its sigma from the condensed
    distances, ``np.percentile`` of them and ``squareform``."""
    from scipy.spatial.distance import pdist, squareform

    dists = pdist(points)
    sigma = np.percentile(dists, sigma_pct)
    if sigma <= 0:
        raise DegenerateCloudError("all selected points coincide")
    sym = squareform(np.exp(-(dists**2) / (2 * sigma**2)))
    np.fill_diagonal(sym, 1.0)
    return sym, sigma


# ---------------------------------------------------------------------------
# Closed forms and quadratures


def analytic_ct_linear_chirp(xi0, lambda0, alpha_w, t, xi, lam):
    """Continuous chirplet transform of exp(2i*pi*xi0*x + i*pi*lambda0*x^2)
    with window exp(-pi*alpha_w*x^2), principal square root."""
    if not np.all(np.asarray(alpha_w) > 0):
        raise ParameterError("alpha_w must be positive")
    z = alpha_w + 1j * (np.asarray(lam) - lambda0)
    head = np.exp(2j * np.pi * xi0 * np.asarray(t) + 1j * np.pi * lambda0 * np.asarray(t) ** 2)
    shift = np.asarray(xi) - xi0 - lambda0 * np.asarray(t)
    return head / np.sqrt(z) * np.exp(-np.pi * shift**2 / z)


def analytic_ct_linear_chirp_mag(xi0, lambda0, alpha_w, t, xi, lam):
    """Magnitude of the above: (a^2+(l-l0)^2)^(-1/4) * gaussian in frequency."""
    d2 = alpha_w**2 + (np.asarray(lam) - lambda0) ** 2
    shift = np.asarray(xi) - xi0 - lambda0 * np.asarray(t)
    return d2**-0.25 * np.exp(-np.pi * alpha_w * shift**2 / d2)


def chirp_transform_1d(f, lam: float, support: tuple, rtol: float = 1e-9) -> complex:
    """Quadrature of integral f(x) * exp(-1j*pi*lam*x**2) dx over a support.

    ``f`` is a callable.  For large ``lam`` the quadratic phase is absorbed
    by the substitution u = x**2 on each side of the origin, which turns the
    integrand into a linearly oscillating one that scipy's weighted
    Clenshaw-Curtis rule handles at any frequency.
    """
    a, b = support
    if not (a < b):
        raise ParameterError("support must satisfy a < b")
    lam = float(lam)
    if abs(lam) < 1e-12:
        re = quad(lambda x: np.real(f(x)), a, b, limit=400)[0]
        im = quad(lambda x: np.imag(f(x)), a, b, limit=400)[0]
        return complex(re, im)

    omega = np.pi * lam

    tol = dict(epsabs=1e-13, epsrel=1e-10)

    def one_side(fn, upper):
        # integral_0^upper fn(x) exp(-1j*omega*x^2) dx, upper > 0
        total = 0.0 + 0.0j
        # near the origin the phase turns by at most ~pi: plain quadrature
        x_split = min(upper, 1.0 / np.sqrt(abs(lam)))
        total += complex(
            quad(lambda x: np.real(fn(x) * np.exp(-1j * omega * x * x)), 0.0, x_split, limit=200, **tol)[0],
            quad(lambda x: np.imag(fn(x) * np.exp(-1j * omega * x * x)), 0.0, x_split, limit=200, **tol)[0],
        )
        if x_split < upper:
            # u = x^2: integral fn(sqrt(u)) / (2 sqrt(u)) exp(-1j*omega*u) du
            def gu(u):
                su = np.sqrt(u)
                return fn(su) / (2.0 * su)

            u_lo, u_hi = x_split**2, upper**2
            kw = dict(wvar=omega, limit=2000, maxp1=200, **tol)
            c = quad(lambda u: np.real(gu(u)), u_lo, u_hi, weight="cos", **kw)[0]
            s = quad(lambda u: np.real(gu(u)), u_lo, u_hi, weight="sin", **kw)[0]
            ci = quad(lambda u: np.imag(gu(u)), u_lo, u_hi, weight="cos", **kw)[0]
            si = quad(lambda u: np.imag(gu(u)), u_lo, u_hi, weight="sin", **kw)[0]
            # exp(-1j*omega*u) = cos(omega u) - 1j sin(omega u)
            total += complex(c + si, ci - s)
        return total

    total = 0.0 + 0.0j
    if b > 0:
        total += one_side(f, b)
    if a < 0:
        total += one_side(lambda x: f(-x), -a)
    if a > 0:  # support entirely right of the origin
        total -= one_side(f, a)
    if b < 0:  # entirely left
        total -= one_side(lambda x: f(-x), -b)
    return total


def fresnel_segment(a: float, b: float, lam: float) -> complex:
    """integral_a^b exp(-1j*pi*lam*x**2) dx via the Fresnel integrals."""
    if lam <= 0:
        raise ParameterError("lam must be positive")
    s = np.sqrt(2.0 * lam)

    def antider(x):
        sv, cv = fresnel(x * s)
        return (cv - 1j * sv) / s

    return complex(antider(b) - antider(a))


def ct_quadrature(signal_fn, window_fn, t, xi, lam, half_width: float, rtol=1e-10) -> complex:
    """Adaptive quadrature of the continuous chirplet transform.

    Independent oracle for the discrete path: integrates
    f(x) g(x-t) exp(-2i pi xi (x-t)) exp(-i pi lam (x-t)^2) over
    |x - t| <= half_width.
    """

    def integrand(u):
        return signal_fn(t + u) * window_fn(u) * np.exp(-2j * np.pi * xi * u - 1j * np.pi * lam * u * u)

    re = quad(lambda u: np.real(integrand(u)), -half_width, half_width, limit=800, epsabs=1e-13, epsrel=rtol)[0]
    im = quad(lambda u: np.imag(integrand(u)), -half_width, half_width, limit=800, epsabs=1e-13, epsrel=rtol)[0]
    return complex(re, im)
