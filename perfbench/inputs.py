"""Seeded input generation: the only place keys and op mixes come from.

The program under test receives nothing but the lists built here.  Every
stream is derived from the ``--seed`` argument plus a fixed label, so one
seed always yields the same keys, values and op kinds, independent of
the process or of the order the streams are drawn in.
"""

from __future__ import annotations

import random
from typing import List, Tuple

__all__ = ["Zipfian", "stream", "lsm_ops", "ycsb_ops"]

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def stream(seed: int, label: str) -> random.Random:
    """An independent RNG for ``label`` under ``seed`` (str seeds hash
    through SHA-512, so this does not depend on PYTHONHASHSEED)."""
    return random.Random(f"perfbench/{seed}/{label}")


class Zipfian:
    """Scrambled zipfian keys over ``[0, n)`` (Gray et al., as YCSB).

    Rank 0 is the hottest; ranks are scattered over the key space by a
    multiplicative hash so hot keys are not clustered at the low end.
    """

    def __init__(self, n: int, theta: float, rng: random.Random):
        if n < 2 or not 0.0 < theta < 1.0:
            raise ValueError("zipfian needs n >= 2 and 0 < theta < 1")
        self.n = n
        self.theta = theta
        self.rng = rng
        self._zetan = sum(1.0 / i ** theta for i in range(1, n + 1))
        zeta2 = 1.0 + 0.5 ** theta
        self._alpha = 1.0 / (1.0 - theta)
        self._eta = ((1.0 - (2.0 / n) ** (1.0 - theta))
                     / (1.0 - zeta2 / self._zetan))
        self._half = 0.5 ** theta

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            rank = 0
        elif uz < 1.0 + self._half:
            rank = 1
        else:
            rank = min(self.n - 1, int(
                self.n * (self._eta * u - self._eta + 1.0) ** self._alpha))
        return (rank * _GOLDEN & _MASK) % self.n


def lsm_ops(seed: int, worker: int, count: int, num_keys: int,
            theta: float) -> List[Tuple[str, int, int]]:
    """A 50/50 get/put stream: ``("get", key, 0)`` / ``("put", key, v)``.

    Put values are unique per (worker, op) and never 0, so a checker can
    tell which put a read observed.
    """
    rng = stream(seed, f"lsm/worker-{worker}")
    keys = Zipfian(num_keys, theta, rng)
    ops = []
    for index in range(count):
        key = keys.next()
        if rng.random() < 0.5:
            ops.append(("get", key, 0))
        else:
            ops.append(("put", key, ((worker + 1) << 40) | (index + 1)))
    return ops


#: YCSB's "paper" mix (the TokuDB run the paper measured): 40 % read,
#: 40 % update, 20 % insert.  Reads and updates draw zipf keys from the
#: preloaded keys; inserts append new ones.
YCSB_PAPER = (0.4, 0.4, 0.2)


def ycsb_ops(seed: int, count: int, initial_keys: int, theta: float,
             index_share: float, index_keys: List[int]
             ) -> List[Tuple[str, int, int]]:
    """``count`` ops of the paper mix; a ``index_share`` slice of the
    reads become ``("index", key, 0)`` pushdown lookups of ``index_keys``.

    Inserts take fresh keys ``initial_keys, initial_keys + 1, ...``;
    update and insert values are unique and never 0.
    """
    rng = stream(seed, "ycsb")
    keys = Zipfian(initial_keys, theta, rng)
    next_insert = initial_keys
    read, update, _insert = YCSB_PAPER
    ops = []
    for index in range(count):
        u = rng.random()
        value = (1 << 40) | (index + 1)
        if u < read:
            if rng.random() < index_share:
                ops.append(("index",
                            index_keys[rng.randrange(len(index_keys))], 0))
            else:
                ops.append(("get", keys.next(), 0))
        elif u < read + update:
            ops.append(("put", keys.next(), value))
        else:
            ops.append(("put", next_insert, value))
            next_insert += 1
    return ops
