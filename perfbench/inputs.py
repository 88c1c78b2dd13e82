"""Seeded input fields, generated here and nowhere else.

The program under test receives only arrays.  Generators live in the
benchmark (not ``repro.data`` / ``repro.core.scenarios``) so a later
change to the library cannot move the load it is measured on.

Four float32 kinds on an n^3 cube with values in [-1, 1].  They differ
in compressibility at the benchmark's absolute bound of 1e-3, which is
the input property the ratio model (Eq. 1/2), the reserved slots and the
overflow path depend on:

``smooth``  Gaussian field with a steep k^-3 amplitude spectrum.
``turb``    Gaussian field with E(k) ~ k^-5/3 (amplitude k^-11/6).
``rough``   ``turb`` plus white noise.
``mixed``   ``smooth`` with sparse noisy 8^3 patches that the ratio
            model's strided 5 % block sample mostly misses: the
            size-misprediction (overflow) case.  The patches sit in the
            same blocks for every seed; their content is seeded.

Every kind is scaled by its *expected* standard deviation (computed from
the spectrum, not from the sample) and clipped at four of them, so the
small-scale statistics that decide compressibility are the same for
every seed: a seed changes the data, not how hard it is.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Iterable

import numpy as np

KINDS = ("smooth", "turb", "rough", "mixed")

#: Absolute error bound every compressed dataset in the benchmark uses.
ERROR_BOUND = 1e-3

#: amplitude-spectrum slopes |u(k)| ~ k^-slope.
_SMOOTH_SLOPE = 3.0
_TURB_SLOPE = 11.0 / 6.0
#: ``rough`` = turb + white noise of this many turb standard deviations.
_ROUGH_NOISE = 0.35
#: ``mixed``: share of 8^3 blocks carrying a noisy patch, and the patch
#: noise in standard deviations of the smooth base.
_PATCH_SHARE = 0.04
_PATCH_NOISE = 2.0
_PATCH_EDGE = 8
#: seeds the patch positions; picked so that the ratio model mispredicts the
#: ``mixed`` partitions by 10-30 % at all three cube sizes the workloads use.
_PATCH_SALT = 8
#: values are x / (_CLIP * sigma), clipped to [-1, 1].
_CLIP = 4.0


@lru_cache(maxsize=8)
def _shaping(n: int, slope: float) -> "tuple[np.ndarray, float]":
    """The k^-slope filter on the rfft grid and the standard deviation a
    unit white-noise cube has after it."""
    k = np.fft.fftfreq(n) * n
    kz = np.fft.rfftfreq(n) * n
    kk = np.sqrt(k[:, None, None] ** 2 + k[None, :, None] ** 2 + kz[None, None, :] ** 2)
    kk[0, 0, 0] = 1.0
    amp = kk ** -slope
    amp[0, 0, 0] = 0.0
    # Parseval over the full spectrum: interior kz planes stand for two.
    weight = np.full(kz.size, 2.0)
    weight[0] = 1.0
    if n % 2 == 0:
        weight[-1] = 1.0
    sigma = float(np.sqrt(((amp**2) * weight).sum() / n**3))
    return amp, sigma


def forget() -> None:
    """Drop the cached spectral filters, so that the next field pays for
    its own (a repeated set-up must cost what the first one did)."""
    _shaping.cache_clear()


def _gaussian(rng: np.random.Generator, n: int, slope: float) -> np.ndarray:
    """A Gaussian random field with amplitude spectrum k^-slope and unit
    expected variance."""
    amp, sigma = _shaping(n, slope)
    spectrum = np.fft.rfftn(rng.standard_normal((n, n, n)))
    return np.fft.irfftn(spectrum * amp, s=(n, n, n)) / sigma


def _unit(a: np.ndarray, sigma: float = 1.0) -> np.ndarray:
    """``a`` (expected standard deviation ``sigma``) as float32 in [-1, 1]."""
    return np.clip(a / (_CLIP * sigma), -1.0, 1.0).astype(np.float32)


def _smooth(rng: np.random.Generator, n: int) -> np.ndarray:
    return _unit(_gaussian(rng, n, _SMOOTH_SLOPE))


def _turb(rng: np.random.Generator, n: int) -> np.ndarray:
    return _unit(_gaussian(rng, n, _TURB_SLOPE))


def _rough(rng: np.random.Generator, n: int) -> np.ndarray:
    a = _gaussian(rng, n, _TURB_SLOPE) + _ROUGH_NOISE * rng.standard_normal((n, n, n))
    return _unit(a, float(np.sqrt(1.0 + _ROUGH_NOISE**2)))


def _mixed(rng: np.random.Generator, n: int) -> np.ndarray:
    a = _gaussian(rng, n, _SMOOTH_SLOPE)
    per_axis = n // _PATCH_EDGE
    nblocks = per_axis**3
    # Where the patches sit does not depend on the seed: which of them the
    # model's sample hits decides the reserved space, and that must be a
    # property of the program, not of the seed.
    where = np.random.default_rng([_PATCH_SALT, n])
    picks = where.choice(nblocks, size=max(1, round(_PATCH_SHARE * nblocks)), replace=False)
    e = _PATCH_EDGE
    for flat in picks:
        i, rem = divmod(int(flat), per_axis * per_axis)
        j, k = divmod(rem, per_axis)
        a[i * e:(i + 1) * e, j * e:(j + 1) * e, k * e:(k + 1) * e] += (
            _PATCH_NOISE * rng.standard_normal((e, e, e))
        )
    return _unit(a)


_GENERATORS = {"smooth": _smooth, "turb": _turb, "rough": _rough, "mixed": _mixed}


def field(kind: str, n: int, seed: int, index: int = 0) -> np.ndarray:
    """The ``index``-th field of ``kind`` on an n^3 cube for ``seed``."""
    rng = np.random.default_rng([int(seed), KINDS.index(kind), int(index), int(n)])
    return _GENERATORS[kind](rng, n)


def digest(arrays: Iterable[np.ndarray]) -> str:
    """SHA-256 over the raw bytes of ``arrays`` in order: two runs that
    print the same digest were measured on identical inputs."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()
