"""Activation-aware token pruning.

Token importance is the attention probability each token assigns to the
start token (position 0), averaged over heads. A block pass hands back only
the per-row entries its readers use, as ``AttentionStats``, never a
(heads, T, T) map. A progressive schedule prunes at m layers with per-layer
ratio gamma = 1 - (1 - beta)^(1/m) so cumulative survivors equal 1 - beta;
sparsity is the layer-averaged pruned fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor_store import as_tensor2d, slice_rows


class PruneError(Exception):
    pass


@dataclass(frozen=True)
class AttentionStats:
    """Three (heads, T) arrays of each query row i's attention probability on
    token 0, on token i - 1 and on token i - 2; 0 where that token does not
    exist."""

    start: np.ndarray
    prev1: np.ndarray
    prev2: np.ndarray

    def __post_init__(self):
        if self.start.ndim != 2 or not self.start.shape == self.prev1.shape == self.prev2.shape:
            raise PruneError("attention statistics must be three (heads, T) arrays")

    @property
    def tokens(self) -> int:
        return self.start.shape[1]


def validate_map(s: AttentionStats) -> None:
    """Reject statistics outside [0, 1], NaN included."""
    for a in (s.start, s.prev1, s.prev2):
        if not ((a >= 0) & (a <= 1)).all():
            raise PruneError("attention probabilities outside [0, 1]")


def score_tokens(s: AttentionStats) -> np.ndarray:
    """Head-mean of each token's attention probability on position 0: its
    start-token attentivity, in [0, 1]."""
    validate_map(s)
    return s.start.mean(axis=0)


@dataclass(frozen=True)
class PruneSchedule:
    prune_layers: tuple[int, ...]
    final_ratio: float  # beta: cumulative fraction pruned after all stages

    def __post_init__(self):
        if not 0.0 <= self.final_ratio < 1.0:
            raise PruneError(f"final ratio must be in [0, 1), got {self.final_ratio}")
        if not self.prune_layers:
            raise PruneError("need at least one prune layer")

    @property
    def per_layer_ratio(self) -> float:
        """gamma = 1 - (1 - beta)^(1/m)."""
        return 1.0 - (1.0 - self.final_ratio) ** (1.0 / len(self.prune_layers))


def _integers(**values) -> None:
    """Raise unless every value is an integer; a bool or a float is not."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise PruneError(f"{name} must be an integer, got {value!r}")


def make_schedule(n: int, start_layer: int, beta: float, m: int) -> PruneSchedule:
    """Place m prune layers evenly from start_layer to the last layer; their
    spacing is at least 1, so the rounded layers are distinct."""
    _integers(n=n, start_layer=start_layer, m=m)
    if start_layer < 0:
        raise PruneError(f"start layer must be non-negative, got {start_layer}")
    if start_layer + m > n:
        raise PruneError(f"cannot fit {m} prune layers starting at {start_layer} in {n}")
    # m < 1 places no layer, which PruneSchedule refuses
    layers = np.round(np.linspace(start_layer, n - 1, max(m, 0))).astype(int)
    return PruneSchedule(prune_layers=tuple(int(l) for l in layers), final_ratio=beta)


def default_start_layer(n: int) -> int:
    """Early layers attend locally, so pruning starts a quarter of the way
    into a stack of n >= 1 layers."""
    _integers(n=n)
    if n < 1:
        raise PruneError(f"n must be at least 1, got {n}")
    return max(1, int(n) // 4)


def prune_step(x, scores, gamma: float):
    """Drop the floor(gamma * (T - 1)) least important non-start tokens,
    by one importance score per token.

    The start token is never pruned. Ties are broken by dropping the later
    position first. Returns the sliced tensor and the kept indices. Raises
    ``PruneError`` unless gamma lies in [0, 1) and the scores are one finite
    value per token.
    """
    x = as_tensor2d(x)
    t = x.shape[0]
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1:
        raise PruneError(f"scores must be 1-D, one per token, got {s.ndim}-D")
    if len(s) != t:
        raise PruneError(f"score length {len(s)} != token count {t}")
    if not 0.0 <= gamma < 1.0:
        raise PruneError(f"prune ratio must be in [0, 1), got {gamma}")
    if not np.isfinite(s).all():
        raise PruneError("importance scores must be finite")
    n_drop = math.floor(gamma * (t - 1))
    if n_drop <= 0:
        return x, list(range(t))
    candidates = sorted(range(1, t), key=lambda i: (s[i], -i))
    dropped = set(candidates[:n_drop])
    kept = [i for i in range(t) if i not in dropped]
    return slice_rows(x, kept), kept


def sparsity(kept_fractions, n: int) -> float:
    """Layer-averaged pruned fraction: 1 - mean of the remaining fractions,
    one for each of the ``n`` layers, each in (0, 1]."""
    r = np.asarray(list(kept_fractions), dtype=np.float64)
    if r.size == 0:
        raise PruneError("need at least one layer fraction")
    if r.size != n:
        raise PruneError(f"{r.size} layer fractions for {n} layers")
    if not ((r > 0) & (r <= 1)).all():  # NaN fails both
        raise PruneError("remaining fractions must lie in (0, 1]")
    return float(1.0 - r.sum() / n)
