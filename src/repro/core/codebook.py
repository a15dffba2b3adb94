"""Codebook data structures for LUT-NN (paper Section 3.1).

An activation matrix of width ``H`` is split along the feature dimension into
``CB = H / V`` columns of sub-vectors with length ``V``.  Each column owns a
codebook of ``CT`` centroids; a centroid is a length-``V`` vector.  The full
set of codebooks for one linear layer is a (CB, CT, V) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .kmeans import kmeans_columns


@dataclass(frozen=True)
class LUTShape:
    """Workload shape of one LUT operator, in the paper's notation (Table 2).

    Attributes
    ----------
    n: input index row count (batch * sequence length).
    h: activation / weight inner dimension.
    f: output feature length.
    v: sub-vector length.
    ct: centroids per codebook.
    """

    n: int
    h: int
    f: int
    v: int
    ct: int

    def __post_init__(self) -> None:
        if min(self.n, self.h, self.f, self.v, self.ct) <= 0:
            raise ValueError(f"all LUT shape dims must be positive: {self}")
        if self.h % self.v != 0:
            raise ValueError(f"H={self.h} not divisible by V={self.v}")

    @property
    def cb(self) -> int:
        """Number of codebooks (CB = H / V)."""
        return self.h // self.v

    @property
    def lut_elements(self) -> int:
        """Total look-up table entries: CB * CT * F."""
        return self.cb * self.ct * self.f

    @property
    def index_elements(self) -> int:
        """Index matrix entries: N * CB."""
        return self.n * self.cb

    @property
    def output_elements(self) -> int:
        return self.n * self.f


def _check_v_ct(v: int, ct: int) -> None:
    if v <= 0 or ct <= 0:
        raise ValueError(f"V and CT must be positive, got V={v}, CT={ct}")


class Codebooks:
    """Per-column centroid codebooks of one LUT-converted layer.

    Parameters
    ----------
    centroids:
        Array of shape (CB, CT, V).
    """

    def __init__(self, centroids: np.ndarray):
        centroids = np.asarray(centroids, dtype=np.float64)
        if centroids.ndim != 3:
            raise ValueError("centroids must have shape (CB, CT, V)")
        self.centroids = centroids

    @property
    def cb(self) -> int:
        return self.centroids.shape[0]

    @property
    def ct(self) -> int:
        return self.centroids.shape[1]

    @property
    def v(self) -> int:
        return self.centroids.shape[2]

    @property
    def h(self) -> int:
        return self.cb * self.v

    @classmethod
    def from_activations(
        cls,
        activations: np.ndarray,
        v: int,
        ct: int,
        max_iters: int = 25,
        rng: Optional[np.random.Generator] = None,
    ) -> "Codebooks":
        """Cluster activation sub-vectors into codebooks (conversion step 1).

        ``activations`` is an (M, H) matrix gathered from calibration data.
        Each of the H/V columns is clustered independently with k-means,
        in column order, by one batched :func:`kmeans_columns` call.
        """
        _check_v_ct(v, ct)
        activations = np.asarray(activations, dtype=np.float64)
        if activations.ndim != 2:
            raise ValueError("activations must be 2-D (rows, H)")
        m, h = activations.shape
        if h % v != 0:
            raise ValueError(f"H={h} not divisible by V={v}")
        if m < ct:
            raise ValueError(f"need at least CT={ct} calibration rows, got {m}")
        columns = activations.reshape(m, h // v, v).transpose(1, 0, 2)
        centroids, _, _ = kmeans_columns(columns, ct, max_iters=max_iters, rng=rng)
        return cls(centroids)

    @classmethod
    def random_init(
        cls,
        activations: np.ndarray,
        v: int,
        ct: int,
        rng: Optional[np.random.Generator] = None,
    ) -> "Codebooks":
        """Random centroid initialization (paper §6.2 calibration setup).

        Centroids are drawn per column from a Gaussian matched to that
        column's activation statistics, so distances are on the right scale
        but carry no structure — calibration must learn the codebooks.
        """
        _check_v_ct(v, ct)
        activations = np.asarray(activations, dtype=np.float64)
        m, h = activations.shape
        if h % v != 0:
            raise ValueError(f"H={h} not divisible by V={v}")
        rng = rng or np.random.default_rng()
        cb = h // v
        sub = activations.reshape(m, cb, v)
        mean = sub.mean(axis=0)  # (CB, V)
        std = sub.std(axis=0) + 1e-6
        noise = rng.normal(size=(cb, ct, v))
        return cls(mean[:, None, :] + noise * std[:, None, :])

    def split(self, x: np.ndarray) -> np.ndarray:
        """Reshape (N, H) activations into (N, CB, V) sub-vectors."""
        x = np.asarray(x)
        if x.shape[-1] != self.h:
            raise ValueError(f"expected last dim {self.h}, got {x.shape[-1]}")
        return x.reshape(*x.shape[:-1], self.cb, self.v)

    def copy(self) -> "Codebooks":
        return Codebooks(self.centroids.copy())
