"""Random mixed states for the tests: no command draws them."""

import numpy as np


def random_mixtures(space, count, rng):
    """Random convex mixtures of K+1 sampled pure states, shape (count, K)."""
    pures = space.sample_pures(rng, space.K + 1)
    weights = rng.dirichlet(np.ones(len(pures)), size=count)
    return np.einsum("mi,ik->mk", weights, pures)
