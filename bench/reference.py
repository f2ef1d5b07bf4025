"""Fixed reference task that gauges the machine's current speed.

It imports nothing from opekit, so no change to the program alters it.
Like the CLI runs it starts an interpreter, imports numpy, draws and
indexes arrays, encodes and parses JSON lines, and makes many calls on
small arrays. ``run.py`` times it right before and after each measured
process.

    python3 bench/reference.py
"""

import json

import numpy as np

rng = np.random.default_rng(0)
draws = rng.random(300_000)
picks = np.searchsorted(np.cumsum(np.full(10, 0.1)), draws)
lines = [
    json.dumps({"context": 0, "action": int(action), "p_log": float(p), "p_tgt": 0.9, "reward": 1.0})
    for action, p in zip(picks[:30_000], draws[:30_000])
]
parsed = np.array([json.loads(line)["p_log"] for line in lines])
total = float(np.mean(parsed * parsed))
weights = np.where(draws[:400] < 0.9, 1.0 / 9.0, 9.0)
for i in range(6_000):
    order = rng.permutation(400)
    fold = np.sort(order[:80])
    mean_w = float(np.mean(weights[fold]))
    total += float(np.mean((weights[fold] - mean_w) ** 2)) + mean_w
print(total)
