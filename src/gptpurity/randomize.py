"""Randomization experiments: Monte Carlo estimates of the expected local purity.

The central experiment draws a global state of fixed purity, applies a
Haar-random reversible transformation, marginalizes to one party, and
averages the local purity.  The closed forms that an estimate is judged
against are in ``formulas``, which loads no numpy.

Every estimator runs through one Monte Carlo driver, ``_estimate``: samples
come in fixed blocks of ``BLOCK_SIZE``, block b draws from the generator
derived from (seed, b), and the blocks are reduced in order, so a report
depends on the seed and the sample count alone.  An estimator only names a
draw of ``blocks``, Haar kets or permuted distributions, with its count of
bytes and work, which ``_estimate`` checks against the caps before the first
block.  The quantum estimate needs no group element: conjugation fixes the
maximally mixed state mu, so U (t phi + (1-t) mu) U^dagger equals
t |psi><psi| + (1-t) mu for a Haar-random ket psi.  A report carries no
verdict: an ``errors.Check`` judges it (``checks.markov_tail`` for its
histogram).

This module uses no other layer of the package but its kernels, ``errors``
and, for its checks of level counts and of P0, ``formulas``.
"""

from __future__ import annotations

import math
import os
import sys
import threading
import types
from collections.abc import Callable
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .blocks import PRODUCTS_PER_TERM, _ket_draw, _permutation_draw
from .errors import InternalError, RangeError, check_memory, check_work
from .formulas import CLASSICAL, REAL_QUANTUM, _check_levels, _check_p0

HISTOGRAM_BINS = 100
GLOBAL_PURITY_TOL = 1e-9
# Samples per random stream.  It bounds the kernels' working memory; a
# report depends on it, so changing it changes every Monte Carlo value.
BLOCK_SIZE = 1024


# -- Monte Carlo reports -----------------------------------------------------------------


class McReport(NamedTuple):
    """Monte Carlo estimate of an expected local purity.

    ``stderr`` is the sample standard deviation over sqrt(n);
    ``realized_global_purity`` is the mean per-sample global purity.  On the
    Haar-ket path it is computed from each ket's norm (p0 |psi|^4 when mu is
    maximally mixed; a face reports Tr(rho^2)), and on the classical path
    from the permuted joint distribution.  The local values on the Haar-ket
    path come from Tr(rho_A^2) without forming rho_A, and on the classical
    path from the closed form of each A marginal, with no Gram.
    Reversible transformations preserve purity, so it is constant across
    samples; a spread beyond ``GLOBAL_PURITY_TOL`` raises ``InternalError``.
    """

    mean: float
    stderr: float
    n_samples: int
    seed: int
    realized_global_purity: float
    histogram_counts: np.ndarray | None = None
    histogram_edges: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        d = self._asdict()
        counts, edges = d.pop("histogram_counts"), d.pop("histogram_edges")
        if counts is not None:
            d["histogram"] = {"counts": counts.tolist(), "edges": edges.tolist()}
        return d


# Two threads' first draws must not both hold the placeholder below.
_IMPORT_LOCK = threading.Lock()


def _randbits(k: int) -> int:
    """``secrets.randbits``: ``k`` bits of ``os.urandom``, as ``SystemRandom.getrandbits``."""
    return int.from_bytes(os.urandom((k + 7) // 8), "big") >> (-k % 8)


@lru_cache(maxsize=1)
def _pcg64_types() -> tuple[type, type, type]:
    """numpy's ``Generator``, ``PCG64`` and ``SeedSequence``, not all of ``numpy.random``.

    The ``numpy.random`` package also loads the legacy ``RandomState``, three
    other bit generators and ``_pickle``, which no estimator uses.  Unless it
    is loaded already, the three extension modules are imported under a
    placeholder package and a placeholder ``secrets`` (the real one loads
    ``hashlib``) holding the one name ``bit_generator`` takes, ``randbits``.
    Their ``sys.modules`` entries go with the placeholders, so a later
    ``import numpy.random`` runs the package, which imports them again and
    binds them on it: the same modules and types, as a Cython extension
    module is made once per process (``_PACKAGE_AFTER_A_DRAW`` in
    ``tests/test_randomize.py`` fails where it is not).  Any ``ImportError``
    on that route falls back to the package.
    """
    with _IMPORT_LOCK:
        if "numpy.random" not in sys.modules:
            placeholder = types.ModuleType("numpy.random")
            placeholder.__path__ = [os.path.join(np.__path__[0], "random")]
            sys.modules["numpy.random"] = placeholder
            secrets = sys.modules.setdefault("secrets", types.SimpleNamespace(randbits=_randbits))
            try:
                from numpy.random._generator import Generator
                from numpy.random._pcg64 import PCG64
                from numpy.random.bit_generator import SeedSequence

                return Generator, PCG64, SeedSequence
            except ImportError:
                pass
            finally:
                for name in ("", "._generator", "._pcg64", ".bit_generator"):
                    sys.modules.pop("numpy.random" + name, None)
                if secrets.randbits is _randbits:
                    del sys.modules["secrets"]
    from numpy import random

    return random.Generator, random.PCG64, random.SeedSequence


def sample_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for block ``index`` of a run with ``seed``.

    Estimators draw samples in blocks of ``BLOCK_SIZE``; every block owns an
    independent stream derived from (seed, index), so no drawn value depends
    on how the work is scheduled.  It is ``default_rng``'s own construction,
    ``Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(index,))))``,
    built from ``_pcg64_types`` so that drawing loads no more of
    ``numpy.random`` than that.
    """
    generator, pcg64, seed_sequence = _pcg64_types()
    return generator(pcg64(seed_sequence(entropy=seed, spawn_key=(index,))))


def _estimate(n_samples: int, seed: int, draw: Callable, cost: Callable,
              histogram: bool) -> McReport:
    """The one Monte Carlo loop, and the one place that prices a draw.

    Block b holds samples [b BLOCK_SIZE, (b + 1) BLOCK_SIZE) and draws from
    ``sample_rng(seed, b)``; ``draw(rng, size)`` returns the block's sample
    values and global purities (an array or one number), and ``cost(size)``
    a block's bytes and ``size`` samples' products, each with its name.
    Before any draw, a run is refused for fewer than 2 samples, a negative
    seed, per-sample arrays or a first block beyond the memory cap, or
    products beyond the work cap, in that order.  Reversible transformations
    preserve purity, so a spread of the global purities beyond
    ``GLOBAL_PURITY_TOL`` raises ``InternalError``.
    """
    if n_samples < 2:
        raise RangeError(f"need at least 2 samples for a standard error, got {n_samples}")
    if seed < 0:
        raise RangeError(f"the seed must be non-negative, got {seed}")
    # The values, the global purities and one temporary of the reduction
    # (``std``'s deviations or the values' bins).
    check_memory(3 * 8 * n_samples, f"3 arrays of {n_samples} per-sample values")
    check_memory(*cost(min(n_samples, BLOCK_SIZE))[:2])
    _, _, products, what = cost(n_samples)
    check_work(-(-products // PRODUCTS_PER_TERM), what)
    vals = np.empty(n_samples)
    gvals = np.empty(n_samples)
    for b, lo in enumerate(range(0, n_samples, BLOCK_SIZE)):
        hi = min(lo + BLOCK_SIZE, n_samples)
        vals[lo:hi], gvals[lo:hi] = draw(sample_rng(seed, b), hi - lo)
    spread = float(np.ptp(gvals))
    if spread > GLOBAL_PURITY_TOL:
        raise InternalError(f"global purity varied by {spread:.3g} across samples")
    # Freed before the values' reduction, whose temporaries then reuse its pages.
    realized = float(gvals.mean())
    del gvals
    mean = float(vals.mean())
    if math.isnan(mean):
        raise InternalError("the mean of the sample values is NaN")
    counts = edges = None
    if histogram:
        # np.histogram's counts of the values clipped to [0, 1] in ``HISTOGRAM_BINS``
        # bins: a value's bin is the number of inner edges at or below it.
        edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
        counts = np.bincount(np.searchsorted(edges[1:-1], vals, side="right"),
                             minlength=HISTOGRAM_BINS)
    return McReport(mean, float(vals.std(ddof=1) / math.sqrt(n_samples)), n_samples, int(seed),
                    realized, counts, edges)


def estimate_expected_local_purity(
    theory: str,
    n_a: int,
    n_b: int,
    p0: float,
    n_samples: int,
    seed: int,
    *,
    histogram: bool = False,
) -> McReport:
    """Monte Carlo mean of the local purity after global randomization.

    The parts are two quantum, two classical or two real-quantum systems
    with ``n_a`` and ``n_b`` levels.  Each sample takes the global state
    t phi + (1-t) mu of purity ``p0`` = t^2, applies a uniformly random
    reversible transformation of the joint space, and takes the purity of
    the A marginal.  Quantum samples are t |psi><psi| + (1-t) mu for
    Haar-random kets psi, which has the same distribution; real-quantum
    samples take uniformly random real unit kets, the orbit of a pure state
    under Haar-random orthogonal conjugation; classical samples are uniform
    permutations of the joint distribution.

    No Gram is taken: each part's group acts irreducibly, so every purity has
    a closed form (``blocks``).  The report is in generalized-purity units.
    """
    _check_levels(theory, n_a, n_b)
    _check_p0(p0)
    t = math.sqrt(p0)
    if theory == CLASSICAL:
        # t phi + (1-t) mu with phi the first outcome.
        k = n_a * n_b
        draw = _permutation_draw(k, n_a, (1.0 - t) / k, 1, (1.0 - t) / k + t,
                                 f"a {k}-outcome distribution")
    else:
        draw = _ket_draw(t, (n_a, n_b), real=theory == REAL_QUANTUM)
    return _estimate(n_samples, seed, *draw, histogram)
