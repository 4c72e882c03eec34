"""Ridge extraction from a squeezed TFC volume, or from the reassignment field that squeezes it.

Pipeline: quantile selection of high-energy entries, Gaussian-kernel
spectral embedding of the selected (time, frequency, chirp-rate) points,
k-means on the embedding, then per-frame aggregation of each cluster into a
single (frequency, chirp-rate) curve.  The selection is one walk over the
64-frame time tiles of |S| (``FRAME_CHUNK``): a field squeezes each tile of
S and a TFC1 file reads it when the walk reaches it, so S is never held
whole; a bank's tile (the CT baseline) is |T^h|, 0 on the aliased rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateCloudError,
    EmptyCloudError,
    ExtractionError,
    ParameterError,
    ResourceError,
)
from .reassign import FRAME_CHUNK, ReassignmentField, _entry_blocks
from .signal import TfcGrid
from .transform import StreamedBank, TfcTensor

if TYPE_CHECKING:
    from .tensorio import TensorFile


@dataclass(frozen=True)
class TfcPointCloud:
    """High-energy TFC entries in physical coordinates.

    ``points`` holds per-axis affinely rescaled coordinates in [0, 1]^3 (the
    scaling used for all distance computations); ``physical`` the raw
    (t_s, freq_hz, chirp_hzps) triples.  ``core`` marks the points above the
    global energy quantile when per-frame peaks were admitted as well
    (``None``: every point is a core point); the affine maps are fitted to
    the core alone, so every point shares the core's coordinates.
    """

    points: np.ndarray  # [n, 3] normalized
    physical: np.ndarray  # [n, 3]
    weights: np.ndarray  # [n] |S| at the entry
    frames: np.ndarray  # [n] time index
    core: np.ndarray | None = None  # [n] bool

    def __len__(self):
        return self.points.shape[0]

    def core_cloud(self) -> "TfcPointCloud":
        """The core points as a cloud of their own: a subset of the rows.

        Equal to the selection without per-frame peaks.
        """
        if self.core is None:
            return self
        c = self.core
        return TfcPointCloud(self.points[c], self.physical[c], self.weights[c], self.frames[c])


@dataclass(frozen=True)
class RidgeSet:
    """K per-frame (frequency, chirp-rate) curves with validity masks.

    ``observed`` marks frames where the cluster actually had points; gaps
    are filled by linear interpolation (held constant beyond the ends), so
    ``omega_hz``/``mu_hzps`` are total over frames wherever ``valid``.
    """

    omega_hz: np.ndarray  # [K, n_time]
    mu_hzps: np.ndarray  # [K, n_time]
    valid: np.ndarray  # [K, n_time] bool
    observed: np.ndarray  # [K, n_time] bool

    @property
    def n_components(self) -> int:
        return self.omega_hz.shape[0]

    @property
    def n_time(self) -> int:
        return self.omega_hz.shape[1]


@dataclass(frozen=True)
class RidgeParams:
    q: float = 0.9995
    sigma_pct: float = 15.0
    seed: int = 0
    min_per_frame: int = 0


KMEANS_RESTARTS = 50
LLOYD_MAX_ITER = 300
LANCZOS_MAXITER = 100  # eigsh restarts before a non-converging embedding is refused
# robust local-linear smoothing of the curves built from source entries
FIT_HALF_WIDTH_S = 0.5
FIT_ITERS = 4
FIT_CLIP = 4.0


def select_high_energy(
    source: TfcTensor | ReassignmentField | StreamedBank | TensorFile, q: float, min_per_frame: int = 0
) -> TfcPointCloud:
    """Entries with |S| above the q-quantile, as a normalized point cloud.

    ``source`` is S itself, a reassignment field whose S is squeezed a tile at a time, a TFC1 file
    whose S is read a tile at a time, or a bank whose |T^h| (0 on the aliased rows) stands for |S|.
    ``min_per_frame`` additionally admits each frame's strongest nonzero entries, so that frames whose
    ridge mass falls below the global threshold (the threshold chases the loudest spikes) still
    contribute; the quantile entries are then marked in ``core``, and the normalization is fitted to them.
    """
    if not (0 <= q < 1):
        raise ParameterError("q must lie in [0, 1)")
    if min_per_frame < 0:
        raise ParameterError(f"min_per_frame must be >= 0, got {min_per_frame}")
    grid = source.grid
    volume = source.values if isinstance(source, TfcTensor) else source
    threshold, picked, weights = _tile_walk(volume, q, min_per_frame)
    core = weights > threshold
    if not core.any():
        raise EmptyCloudError("no entries above the energy quantile")
    l_idx, m_idx, n_idx = np.unravel_index(picked, (grid.n_chirp, grid.n_freq, grid.n_time))
    t = n_idx / grid.sample_rate_hz  # seconds from the first frame
    physical = np.column_stack((t, grid.freqs_hz[m_idx], grid.chirps_hzps[l_idx]))
    # scale each axis by the core's weighted central range rather than
    # min-max: a handful of heavy-tailed outliers must not compress the axis
    # where the components actually separate
    core_pts = physical[core]
    lo, hi = _weighted_quantiles(core_pts, weights[core], (0.05, 0.95))
    span = hi - lo
    fallback = core_pts.max(axis=0) - core_pts.min(axis=0)
    span = np.where(span > 0, span, np.where(fallback > 0, fallback, 1.0))
    return TfcPointCloud((physical - lo) / span, physical, weights, n_idx, core if min_per_frame > 0 else None)


def _tile_walk(source, q: float, count: int) -> tuple:
    """(``np.quantile(|S|, q)``, the ascending flat indices above it and of each frame's ``count``
    strongest separated peaks, |S| there), in one walk over the ``FRAME_CHUNK``-frame tiles of a
    volume ``source``, or the ``magnitude_tile`` of a field, a TFC1 file or a bank, frame-major.

    A tile's magnitudes, frame-major, feed the quantile ``ENTRY_BLOCK`` at a
    time: those above a rising floor are held with their indices, the rest
    counted.  The floor starts at 0 and rises to the ``keep``-th largest
    whenever more than ``2 * keep`` are held; in any arrival order an entry at
    or below it ranks under numpy's lower order statistic ``prev``, and one final
    sort restores the flat order.  NaN gives a NaN threshold and no indices.
    Then the tile's peaks are peeled greedily, each clearing ``PEAK_SUPPRESS``
    (chirp, frequency) bins around it, so a frame whose weaker component falls
    below the global threshold still contributes its ridge point.
    """
    if isinstance(source, np.ndarray):  # magnitudes frame-major, for the peaks, which peel them in place
        shape, tile_of = source.shape, lambda frames: np.abs(source[..., frames].transpose(2, 0, 1), order="C")
    else:
        shape, tile_of = (source.grid.n_chirp, source.grid.n_freq, source.grid.n_time), source.magnitude_tile
    (n_chirp, n_freq, n_time), n = shape, int(np.prod(shape))
    virtual = (n - 1) * q
    prev = int(np.floor(virtual))
    keep = n - prev  # the entries ranked at or above prev
    dl, dm = PEAK_SUPPRESS
    floor, held, idx, mags, peaks = 0.0, 0, [], [], []
    for t0 in range(0, n_time, FRAME_CHUNK):
        frames = slice(t0, min(t0 + FRAME_CHUNK, n_time))
        tile = tile_of(frames).reshape(-1)
        width = frames.stop - t0
        for b in _entry_blocks(tile.size):
            hit = np.flatnonzero(~(tile[b] <= floor)) + b.start  # NaN is held, and ends the walk
            mags.append(tile[hit])
            if np.isnan(mags[-1]).any():
                return np.nan, hit[:0], mags[-1][:0]
            held += hit.size
            cols, rows = np.divmod(hit, tile.size // width)
            idx.append(rows * n_time + (cols + t0))
            if held > 2 * keep:
                kept = np.concatenate(mags)
                floor = np.partition(kept, held - keep)[held - keep]
                above = kept > floor
                idx, mags = [np.concatenate(idx)[above]], [kept[above]]
                held = mags[0].size
        tile = tile.reshape(width, -1)
        for _ in range(count):
            top = np.argmax(tile, axis=1)
            live = np.flatnonzero(~(tile[np.arange(width), top] <= 0))
            if live.size == 0:
                break
            top = top[live]
            peaks += [top * n_time + (t0 + live), tile[live, top]]
            l, m = np.divmod(top, n_freq)
            ll = l[:, None, None] + np.arange(-dl, dl + 1)[:, None]
            mm = m[:, None, None] + np.arange(-dm, dm + 1)
            inside = (ll >= 0) & (ll < n_chirp) & (mm >= 0) & (mm < n_freq)
            rows = np.broadcast_to(live[:, None, None], inside.shape)
            tile[rows[inside], (ll * n_freq + mm)[inside]] = 0.0
        del tile  # before the next tile is made: the walk holds one tile, not two
    idx, mags = np.concatenate(idx), np.concatenate(mags)
    ranks = [r - n + held for r in (prev, min(prev + 1, n - 1))]  # within the held magnitudes
    part = np.partition(mags, [max(r, 0) for r in ranks]) if ranks[1] >= 0 else mags
    lo, hi = (part[r] if r >= 0 else floor for r in ranks)
    threshold = _lerp(lo, hi, virtual)
    above = mags > threshold
    picked, first = np.unique(np.concatenate((idx[above], *peaks[0::2])), return_index=True)
    return threshold, picked, np.concatenate((mags[above], *peaks[1::2]))[first]


def _lerp(lo, hi, virtual):
    """numpy's quantile between the order statistics ``lo``, ``hi`` at rank ``virtual``, branch for branch."""
    gamma, diff = virtual - np.floor(virtual), hi - lo
    return hi - diff * (1 - gamma) if gamma >= 0.5 else lo + diff * gamma


PEAK_SUPPRESS = (3, 2)  # (chirp, frequency) bins cleared on each side of a peeled peak


def _weighted_quantiles(values: np.ndarray, weights: np.ndarray, qs) -> tuple:
    """Per-column weighted quantiles of an [n, d] array."""
    out = np.empty((len(qs), values.shape[1]))
    for col in range(values.shape[1]):
        order = np.argsort(values[:, col])
        cw = np.cumsum(weights[order])
        idx = np.clip(np.searchsorted(cw, np.asarray(qs) * cw[-1]), 0, order.size - 1)
        out[:, col] = values[order[idx], col]
    return tuple(out)


def spectral_embed(cloud: TfcPointCloud, n_components: int, sigma_pct: float = RidgeParams.sigma_pct) -> np.ndarray:
    """Embed cloud points via the top nontrivial eigenvectors of D^-1 W.

    W is the Gaussian affinity with sigma at the given percentile of the
    pairwise distances; the row-stochastic operator is diagonalized through
    its symmetric conjugate D^-1/2 W D^-1/2 and back-scaled.  Embedding rows
    are normalized to unit length before clustering: without that, a few
    weakly attached outlier points act as near-disconnected components whose
    indicator vectors displace the main cut from the leading eigenvectors.
    Returns an [n, 2*(n_components-1)] embedding.
    """
    from scipy.sparse.linalg import eigsh

    if n_components < 2:
        raise ParameterError("spectral embedding needs at least two clusters")
    if not (0 < sigma_pct <= 100):
        raise ParameterError(f"sigma_pct must lie in (0, 100], got {sigma_pct}")
    n_dim = 2 * (n_components - 1)
    if len(cloud) < n_dim + 2:
        raise ParameterError(f"cloud of {len(cloud)} points cannot support a {n_dim}-dim embedding")
    sym = _gaussian_affinity(cloud.points, sigma_pct)[0]
    d_isqrt = 1.0 / np.sqrt(sym.sum(axis=1))
    sym *= d_isqrt[:, None]  # W -> D^-1/2 W D^-1/2 in place
    sym *= d_isqrt
    # Lanczos for the top n_dim+1 eigenpairs; the fixed start vector makes
    # the result repeatable and is not the trivial eigenvector sqrt(d)
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, len(cloud))
    _, vecs = eigsh(sym, k=n_dim + 1, which="LA", v0=v0, maxiter=LANCZOS_MAXITER)
    # ascending order; drop the trivial top eigenvector
    vecs = vecs[:, ::-1][:, 1:]
    embedding = d_isqrt[:, None] * vecs
    norms = np.linalg.norm(embedding, axis=1, keepdims=True)
    return embedding / np.where(norms > 0, norms, 1.0)


def _gaussian_affinity(points: np.ndarray, sigma_pct: float) -> tuple:
    """The Gaussian affinity (unit diagonal) and its sigma, ``np.percentile`` of the pairwise
    distances, in one n x n buffer that first holds the condensed distances and a partitioned copy."""
    n = points.shape[0]
    size = n * (n - 1) // 2
    sym = np.empty((n, n))
    flat = sym.reshape(-1)
    dists, coords = flat[:size], np.ascontiguousarray(points.T, dtype=float)
    diff = np.empty_like(coords)
    for i in range(n - 1):  # scipy's pdist to the bit: the squares summed in coordinate order, then the root
        d = diff[:, : n - 1 - i]
        np.subtract(coords[:, i, None], coords[:, i + 1 :], out=d)
        d *= d
        np.add.reduce(d, axis=0, out=dists[i * n - i * (i + 1) // 2 :][: n - 1 - i])
    np.sqrt(dists, out=dists)
    part = flat[size : 2 * size]
    part[:] = dists
    virtual = (size - 1) * (sigma_pct / 100)
    ranks = [int(virtual), min(int(virtual) + 1, size - 1)]
    part.partition(ranks)
    sigma = _lerp(*part[ranks], virtual)
    if sigma <= 0:
        raise DegenerateCloudError("all selected points coincide")
    # exp(-(dists**2) / (2 * sigma**2)), the same operations done in place
    np.square(dists, out=dists)
    np.negative(dists, out=dists)
    np.divide(dists, 2 * sigma**2, out=dists)
    np.exp(dists, out=dists)
    for i in range(n - 2, -1, -1):  # row i's condensed distances lie at or before their place
        flat[i * (n + 1) + 1 : (i + 1) * n] = dists[i * n - i * (i + 1) // 2 :][: n - 1 - i]
    for i in range(n):
        sym[i, :i] = sym[:i, i]
    np.fill_diagonal(sym, 1.0)
    return sym, sigma


def kmeans_cluster(embedding: np.ndarray, n_clusters: int, seed: int = 0) -> np.ndarray:
    """Seeded k-means++ with restarts; returns the best-inertia labeling."""
    # column-major: the sums over the few coordinates of each point and the
    # cluster means then run along contiguous columns (about twice as fast)
    pts = np.asfortranarray(embedding, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if n_clusters < 1:
        raise ParameterError("n_clusters must be >= 1")
    if pts.shape[0] < n_clusters:
        raise ParameterError("fewer points than clusters")
    rng = np.random.default_rng(seed)
    best_labels, best_inertia = None, np.inf
    for _ in range(KMEANS_RESTARTS):
        centers = _kmeans_pp_init(pts, n_clusters, rng)
        labels, inertia = _lloyd(pts, centers)
        if best_labels is None or inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels


def _kmeans_pp_init(pts, k, rng):
    n = pts.shape[0]
    centers = np.empty((k, pts.shape[1]))
    centers[0] = pts[rng.integers(n)]
    d2 = ((pts - centers[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[i:] = pts[rng.integers(n, size=k - i)]
            break
        centers[i] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, ((pts - centers[i]) ** 2).sum(axis=1))
    return centers

def _lloyd(pts, centers):
    k = centers.shape[0]
    labels = np.zeros(pts.shape[0], dtype=int)
    for _ in range(LLOYD_MAX_ITER):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for i in range(k):
            sel = new_labels == i
            if sel.any():
                centers[i] = pts[sel].mean(axis=0)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    return labels, d2[np.arange(pts.shape[0]), labels].sum()


def ridges_from_clusters(cloud: TfcPointCloud, labels: np.ndarray, grid: TfcGrid) -> RidgeSet:
    """Aggregate labeled points into per-frame curves.

    Per frame and cluster the curve takes the |S|-weighted centroid of the
    cluster's (frequency, chirp-rate) points; ``_finish_curves`` fills the
    frames without points.
    """

    def centroids(rows, ids):
        # one bincount over (cluster, frame) keys sums each key's points in
        # cloud order, as a bincount over one cluster's points does
        key, size = rows * grid.n_time + cloud.frames, ids.size * grid.n_time
        sums = [np.bincount(key, cloud.weights * cloud.physical[:, axis], size) for axis in (1, 2)]
        with np.errstate(invalid="ignore"):  # 0/0 is NaN: the frames without points
            return (np.stack(sums) / np.bincount(key, cloud.weights, size)).reshape(2, ids.size, -1)

    return _finish_curves(cloud, labels, grid, centroids)


def _finish_curves(cloud: TfcPointCloud, labels: np.ndarray, grid: TfcGrid, estimate) -> RidgeSet:
    """Both aggregators' tail: total curves from per-frame estimates.

    ``estimate(rows, ids)`` maps each point's cluster row and the cluster ids
    to the [2, n_clusters, n_time] (omega, mu) estimates, NaN where there are
    none.  Frames where a cluster has points are ``observed``; NaN frames are
    filled by linear interpolation (held constant beyond the ends).  Curves
    are clipped to the grid and ordered by ascending mean chirp rate.
    """
    labels = np.asarray(labels)
    if labels.shape != (len(cloud),):
        raise ParameterError("labels must cover the cloud")
    ids, rows = np.unique(labels, return_inverse=True)
    omega, mu = estimate(rows, ids)
    observed = np.zeros(omega.shape, dtype=bool)
    observed[rows, cloud.frames] = True
    all_t = np.arange(grid.n_time)
    for row, cid in enumerate(ids):
        for curve in (omega, mu):
            good = np.isfinite(curve[row])
            if not good.any():
                raise ExtractionError(f"cluster {cid} produced an empty curve")
            idx = np.nonzero(good)[0]
            curve[row] = np.interp(all_t, idx, curve[row, idx])
    omega = np.clip(omega, 0.0, grid.sample_rate_hz / 2)
    mu = np.clip(mu, grid.chirps_hzps[0], grid.chirps_hzps[-1])
    order = np.argsort(mu.mean(axis=1), kind="stable")
    omega, mu, observed = omega[order], mu[order], observed[order]
    return RidgeSet(omega_hz=omega, mu_hzps=mu, valid=np.isfinite(omega) & np.isfinite(mu), observed=observed)


def _local_linear_curve(t_pts, y_pts, w_pts, t_eval, half_width, iters, clip):
    """Robust weighted local-linear fit evaluated on a regular time axis.

    Bisquare reweighting suppresses the interference-biased estimates that
    accumulate where components cross; the local model is linear because the
    fitted curves are derivatives of smooth phases.
    """
    order = np.argsort(t_pts, kind="stable")
    t_pts, y_pts, w_pts = t_pts[order], y_pts[order], w_pts[order]
    out = np.full(t_eval.shape, np.nan)
    lo = np.searchsorted(t_pts, t_eval - half_width)
    hi = np.searchsorted(t_pts, t_eval + half_width)
    for i, tc in enumerate(t_eval):
        n = hi[i] - lo[i]
        ts = t_pts[lo[i] : hi[i]] - tc
        ys = y_pts[lo[i] : hi[i]]
        base = w_pts[lo[i] : hi[i]] * (1 - (ts / half_width) ** 2)
        w0 = base.sum()
        if w0 <= 0:  # also an empty window
            continue
        ts2, tys = ts * ts, ts * ys
        mid = (n - 1) // 2  # the median's lower order statistic
        w = base
        for it in range(iters + 1):
            w1, w2, y0, y1 = w @ ts, w @ ts2, w @ ys, w @ tys
            den = w0 * w2 - w1 * w1
            if den > 0:
                a = (w2 * y0 - w1 * y1) / den
                b = (w0 * y1 - w1 * y0) / den
            else:
                a, b = y0 / w0, 0.0
            if it == iters:
                break  # the last fit's reweighting would never be used
            resid = ys - (ts * b + a)
            # np.median to the bit: one partition, the upper order statistic
            # of an even count is the least entry above the lower one (a
            # third of the time of partitioning at both)
            abs_resid = np.abs(resid)
            abs_resid.partition(mid)
            upper = abs_resid[mid] if n % 2 else abs_resid[mid + 1 :].min()
            scale = (abs_resid[mid] + upper) / 2 + 1e-12
            w = base * np.maximum(1 - (resid / (clip * scale)) ** 2, 0) ** 2
            w0 = w.sum()
            if w0 <= 0:
                w, w0 = base, base.sum()
        out[i] = a
    return out


def ridges_from_sources(cloud: TfcPointCloud, labels: np.ndarray, field) -> RidgeSet:
    """Curves from the pre-squeeze entries feeding each cluster's bins.

    Each selected squeezed bin is traced back, through the field's codes, to
    the entries of its T^h that reassigned into it (``field.sources``); their
    continuous (omega, mu) estimates, recomputed for those entries alone and
    weighted by |T|, carry sub-bin precision that the bin coordinates lost.
    A robust local-linear fit along time turns them into curves, which
    ``_finish_curves`` completes.
    """
    grid = field.grid
    n_time = grid.n_time

    def fits(rows, ids):
        l_pt = np.rint(cloud.physical[:, 2] / grid.chirp_step_hzps).astype(np.intp) + grid.M - 1
        m_pt = np.rint(cloud.physical[:, 1] / grid.freq_step_hz).astype(np.intp)
        # sources come tile by tile in (row, frame) order: within each frame
        # the rows ascend, as they do in ascending flat order, so the fit's
        # stable sort by time sees the same order as over ascending sources
        src, which, omega, mu, w_src = field.sources((l_pt * grid.n_freq + m_pt) * n_time + cloud.frames)
        src_row = rows[which]
        t_src = (src % n_time) / grid.sample_rate_hz
        t_axis = np.arange(n_time) / grid.sample_rate_hz
        curves = np.empty((2, ids.size, n_time))
        for row, cid in enumerate(ids):
            hit = src_row == row
            if not hit.any():
                raise ExtractionError(f"cluster {cid} received no source entries")
            for curve, est in zip(curves, (omega, mu)):
                curve[row] = _local_linear_curve(
                    t_src[hit], est[hit], w_src[hit], t_axis, FIT_HALF_WIDTH_S, FIT_ITERS, FIT_CLIP
                )
        return curves

    return _finish_curves(cloud, labels, grid, fits)


def extract_ridges(
    source: TfcTensor | ReassignmentField | StreamedBank | TensorFile,
    n_components: int,
    params: RidgeParams | None = None,
) -> RidgeSet:
    """Full extraction: select, embed, cluster, aggregate.

    Returns exactly ``n_components`` curves or raises ``ExtractionError``.
    ``n_components == 1`` bypasses the clustering and treats every selected
    point as one ridge.  From a volume ``source`` (a ``TfcTensor``, or a TFC1
    file read a tile at a time) or a bank (its |T^h| on the resolvable rows) the curves are the
    per-frame centroids of the selected bins.
    From a reassignment field, the selection squeezes S a tile at a time
    and never holds it whole; the curves are aggregated from
    the entries of the field's T^h behind each selected bin (sub-bin
    precision).  Clustering that runs out of memory raises
    ``ResourceError`` naming the core cloud's size and its affinity's bytes;
    an embedding whose eigensolver does not converge raises ``ExtractionError``.
    """
    params = params or RidgeParams()
    # per-frame peaks keep starved stretches represented in the curve fit,
    # but only the clean quantile (core) cloud votes on cluster identity:
    # the extra points inherit labels from their nearest clustered point
    cloud = select_high_energy(source, params.q, params.min_per_frame)
    core = cloud.core_cloud()
    if n_components == 1:
        labels = np.zeros(len(core), dtype=int)
    else:
        n = len(core)
        if n < 2 * n_components:  # spectral_embed's minimum: the cloud fails, and a lower q mends it
            raise ExtractionError(f"a core cloud of {n} points is too small to embed {n_components} "
                                  f"ridges; lower q (now {params.q}) for a larger cloud")
        from scipy.sparse.linalg import ArpackNoConvergence  # spectral_embed's eigsh loads it in any case

        try:
            embedding = spectral_embed(core, n_components, params.sigma_pct)
        except MemoryError:
            raise ResourceError(
                f"out of memory clustering the {n}-point ridge cloud ({8 * n * n} bytes of affinity); "
                f"raise q (now {params.q}) for a smaller cloud"
            ) from None
        except ArpackNoConvergence:
            raise ExtractionError(f"the spectral embedding of the {n}-point ridge cloud did not converge; "
                                  f"raise sigma_pct (now {params.sigma_pct}) or change q (now {params.q})") from None
        labels = kmeans_cluster(embedding, n_components, seed=params.seed)
        found = np.unique(labels).size
        if found != n_components:
            raise ExtractionError(f"clustering found {found} of {n_components} ridges")
    if core is not cloud:
        labels = _propagate_labels(core, labels, cloud)
    if isinstance(source, ReassignmentField):
        return ridges_from_sources(cloud, labels, source)
    return ridges_from_clusters(cloud, labels, source.grid)


def _propagate_labels(core: TfcPointCloud, core_labels: np.ndarray, aug: TfcPointCloud) -> np.ndarray:
    from scipy.spatial import cKDTree

    _, nearest = cKDTree(core.points).query(aug.points)
    return core_labels[nearest]
