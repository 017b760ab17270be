"""Deterministic random-number plumbing.

Every stochastic component of the simulator (virtualization jitter,
perf-counter noise, workload generation) draws from a
``numpy.random.Generator`` derived from a *root seed* plus a stable string
key.  This gives three properties the experiments rely on:

1. **Reproducibility** — the same root seed regenerates every figure.
2. **Independence** — noise in one subsystem does not shift the stream of
   another (keys isolate streams).
3. **Stability under refactoring** — adding a new consumer of randomness
   does not perturb existing streams, because streams are keyed, not drawn
   sequentially from a shared generator.
"""

from __future__ import annotations

import hashlib

# Imported here, not on first use: numpy loads ``numpy.random`` lazily, so
# a process would otherwise pay that import inside its first timed plan.
from numpy.random import Generator, default_rng

__all__ = ["spawn_seed", "derive_rng", "DEFAULT_ROOT_SEED"]

#: Root seed used by experiments unless overridden.
DEFAULT_ROOT_SEED: int = 20170843  # ICPP 2017, DOI .43


def spawn_seed(root_seed: int, *keys: object) -> int:
    """Derive a child seed from a root seed and a sequence of keys.

    Keys are stringified and hashed (SHA-256) together with the root seed,
    so any hashable-as-string object works: instance type names,
    application names, (n, a) tuples, run indices.

    >>> spawn_seed(1, "galaxy", 65536) == spawn_seed(1, "galaxy", 65536)
    True
    >>> spawn_seed(1, "galaxy") != spawn_seed(2, "galaxy")
    True
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode())
    for key in keys:
        digest.update(b"\x1f")  # unit separator avoids "ab"+"c" == "a"+"bc"
        digest.update(repr(key).encode())
    return int.from_bytes(digest.digest()[:8], "little")


def derive_rng(root_seed: int, *keys: object) -> Generator:
    """Return an independent ``Generator`` for the given root seed and keys."""
    return default_rng(spawn_seed(root_seed, *keys))
