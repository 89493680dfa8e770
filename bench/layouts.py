"""Seeded layout generation for the benchmark workloads.

Each workload has a fixed base layout, built by the jittered-grid,
short-edge-biased algorithm of ``tests/gen_layouts.synth_layout`` (copied
here so the benchmark does not import the test suite) with base seed
BASE_SEED. The run seed then makes a congruent variant of that base: a
rotation, a node relabelling, a shuffled node and edge order, and a small
positional jitter. The variant has its own bytes, float noise and
tie-breaking, but close to the same edge lengths, crossings and makespan as
the base, so that runs with different seeds measure nearly the same amount
of work. Fully regenerating the graph per seed moves makespans and job times
by 15 to 30 % between seeds, which would swamp the regressions the benchmark
bounds.

The held-out seed is the exception: its variant is made from a different
base layout (HELD_OUT_BASE_SEED), so that a change tuned to the base graph
of the other seeds is confirmed on a graph it was not tuned on.

The program only ever sees the JSON bytes returned by :func:`layout_bytes`.
"""

from __future__ import annotations

import json
import math
import random

#: Generator seed of every workload's base layout.
BASE_SEED = 1
#: Seed reserved for confirming a claimed gain; not used while tuning.
HELD_OUT_SEED = 90_001
#: Generator seed of the held-out seed's base layout.
HELD_OUT_BASE_SEED = 2
#: Grid spacing in pixels; nodes sit up to GRID_JITTER spacings off their cell.
SPACING_PX = 200.0
GRID_JITTER = 0.42
#: Edge acceptance is BIAS * edges / pairs per pair, shortest pairs first.
BIAS = 1.5
#: Perturbation jitter in pixels, against a 200 px grid spacing. Larger jitter
#: starts to move avoidable crossings across the resting ratio, which changes
#: the greedy schedule and its makespan by several per cent.
JITTER_PX = 0.5
#: Offset added to the perturbation seed when validation rejects a variant.
RESEED_STRIDE = 1_000_003


def synth_layout(seed: int, n_nodes: int, density: float) -> dict:
    """Layout document on a shuffled jittered grid with short-biased edges."""
    rng = random.Random(seed)
    n = n_nodes
    d = min(density, (n - 1) / 2.0)
    m = max(1, min(round(d * n), n * (n - 1) // 2))

    cols = math.ceil(math.sqrt(n))
    cells = [(i % cols, i // cols) for i in range(cols * cols)]
    rng.shuffle(cells)
    nodes = []
    for i, (cx, cy) in enumerate(cells[:n]):
        x = cx * SPACING_PX + rng.uniform(-GRID_JITTER, GRID_JITTER) * SPACING_PX
        y = cy * SPACING_PX + rng.uniform(-GRID_JITTER, GRID_JITTER) * SPACING_PX
        nodes.append({"id": f"n{i:02d}", "x": round(x, 3), "y": round(y, 3)})

    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            dx = nodes[i]["x"] - nodes[j]["x"]
            dy = nodes[i]["y"] - nodes[j]["y"]
            pairs.append((dx * dx + dy * dy, nodes[i]["id"], nodes[j]["id"]))
    pairs.sort()

    chosen: list[tuple[str, str]] = []
    chosen_keys: set[tuple[str, str]] = set()
    accept = min(1.0, BIAS * m / len(pairs))
    for _, a, b in pairs:
        if len(chosen) == m:
            break
        if rng.random() < accept:
            chosen.append((a, b))
            chosen_keys.add((a, b))
    for _, a, b in pairs:  # deterministic top-up if the biased pass fell short
        if len(chosen) == m:
            break
        if (a, b) not in chosen_keys:
            chosen.append((a, b))
            chosen_keys.add((a, b))
    return {
        "nodes": nodes,
        "edges": [{"source": a, "target": b} for a, b in chosen],
    }


def perturb(base: dict, seed: int) -> dict:
    """Congruent variant of a layout document: rotate, relabel, shuffle, jitter."""
    rng = random.Random(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    ids = [node["id"] for node in base["nodes"]]
    relabel = dict(zip(ids, rng.sample(ids, len(ids))))
    nodes = []
    for node in base["nodes"]:
        x = node["x"] + rng.uniform(-JITTER_PX, JITTER_PX)
        y = node["y"] + rng.uniform(-JITTER_PX, JITTER_PX)
        nodes.append(
            {
                "id": relabel[node["id"]],
                "x": round(cos_a * x - sin_a * y, 3),
                "y": round(sin_a * x + cos_a * y, 3),
            }
        )
    edges = [
        {"source": relabel[e["source"]], "target": relabel[e["target"]]}
        for e in base["edges"]
    ]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return {"nodes": nodes, "edges": edges}


def layout_bytes(spec, seed: int, accepts) -> bytes:
    """JSON bytes of the workload's layout for a run seed.

    ``accepts`` takes the bytes and returns False when the program rejects
    the layout (collinear overlapping edges); the variant is then rebuilt
    from the next perturbation seed.
    """
    base_seed = HELD_OUT_BASE_SEED if seed == HELD_OUT_SEED else BASE_SEED
    base = synth_layout(base_seed, spec.nodes, spec.density)
    for attempt in range(5):
        raw = json.dumps(perturb(base, seed + RESEED_STRIDE * attempt)).encode()
        if accepts(raw):
            return raw
    raise RuntimeError(f"no valid layout variant for seed {seed}")
