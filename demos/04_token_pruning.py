"""Attention-guided token pruning with a progressive cascade schedule.

A token's importance is how much attention it pays to the start token, the
first of the three per-row statistics (``AttentionStats``) a block pass
returns. The cascade prunes at m layers with
a per-layer ratio gamma chosen so the survivors after all stages equal
1 - beta of the input, and the start token is never dropped.
"""

import numpy as np

import agq

# --- schedule algebra -------------------------------------------------------
beta, m, n_layers = 0.3, 4, 8
schedule = agq.make_schedule(n_layers, agq.default_start_layer(n_layers), beta, m)
print(f"beta = {beta}, m = {m}")
print(f"  per-layer ratio gamma = {schedule.per_layer_ratio:.5f}")
print(f"  prune at layers {list(schedule.prune_layers)}")
print(f"  survivor fraction (1 - gamma)^m = "
      f"{(1 - schedule.per_layer_ratio) ** m:.6f} = 1 - beta")

# --- scoring and one prune step ---------------------------------------------
rng = np.random.default_rng(3)
t, heads = 40, 2
probs = np.tril(rng.uniform(0.05, 1.0, (heads, t, t)))
probs /= probs.sum(axis=2, keepdims=True)
# column 0 and the two sub-diagonals; rows without such a token read 0
stats = agq.AttentionStats(start=probs[:, :, 0],
                           prev1=np.pad(probs.diagonal(-1, 1, 2), ((0, 0), (1, 0))),
                           prev2=np.pad(probs.diagonal(-2, 1, 2), ((0, 0), (2, 0))))
scores = agq.score_tokens(stats)  # one float per token
print(f"\nimportance scores: {[f'{s:.3f}' for s in scores]}")

x = rng.standard_normal((t, 4)).astype(np.float32)
pruned, kept = agq.prune_step(x, scores, schedule.per_layer_ratio * 3)
print(f"kept indices after one (exaggerated) step: {kept}")
print(f"start token kept: {0 in kept}")

# --- cascade across a stack --------------------------------------------------
kept_global = list(range(t))
fractions = []
for layer in range(n_layers):
    if layer in schedule.prune_layers:
        x, local = agq.prune_step(x, scores[kept_global], schedule.per_layer_ratio)
        kept_global = [kept_global[i] for i in local]
    fractions.append(len(kept_global) / t)

print(f"\nafter the full cascade: kept {kept_global}")
print(f"token sparsity (layer-averaged pruned fraction): "
      f"{agq.sparsity(fractions, n_layers):.4f}")
