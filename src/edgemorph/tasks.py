"""Topology query tasks over a layout, trial generation, and answer scoring.

Five task kinds are supported, identified T1 through T5:

T1  is there an edge between the two blue nodes (boolean)
T2  how many blue nodes are adjacent to the orange node (count)
T3  is there a path of at most k edges from the blue to the orange node
T4  how many nodes are adjacent to both blue nodes (count)
T5  how many edges run directly between two highlighted node regions (count)

Boolean answers score 0 when right and 1 when wrong; counting answers score
1 - 1 / (1 + |answered - correct|), so an exact count scores 0 and being off
by one scores 0.5.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass, replace

from .errors import RangeError, UsageError
from .graph import GraphLayout, with_color_roles

TASKS = ("T1", "T2", "T3", "T4", "T5")
BOOLEAN_TASKS = ("T1", "T3")


def _node_ids(layout: GraphLayout, ids) -> list[str]:
    out = []
    for node_id in ids:
        layout.node(node_id)  # LookupError for unknown ids
        out.append(node_id)
    return out


def adjacency_query(layout: GraphLayout, a: str, b: str) -> bool:
    """True iff nodes a and b are joined by an edge."""
    _node_ids(layout, (a, b))
    if a == b:
        raise UsageError("adjacency query needs two distinct nodes")
    return layout.has_edge(a, b)


def neighborhood_size(layout: GraphLayout, orange: str, blues) -> int:
    """Number of the blue nodes adjacent to the orange node."""
    blues = _node_ids(layout, blues)
    layout.node(orange)
    if orange in blues:
        raise UsageError("the orange node cannot also be blue")
    neighbors = layout.adjacency[orange]
    return sum(1 for b in set(blues) if b in neighbors)


def bounded_path_exists(layout: GraphLayout, blue: str, orange: str, k: int) -> bool:
    """True iff some path of at most k edges connects blue and orange."""
    _node_ids(layout, (blue, orange))
    if blue == orange:
        raise UsageError("path query needs two distinct nodes")
    if k < 1:
        raise RangeError(f"path bound k must be >= 1, got {k}")
    seen = {blue}
    frontier = deque([(blue, 0)])
    while frontier:
        node, depth = frontier.popleft()
        if depth == k:
            continue
        for neighbor in layout.adjacency[node]:
            if neighbor == orange:
                return True
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, depth + 1))
    return False


def common_neighbors(layout: GraphLayout, a: str, b: str) -> int:
    """Number of nodes adjacent to both a and b, excluding a and b."""
    _node_ids(layout, (a, b))
    if a == b:
        raise UsageError("common-neighbor query needs two distinct nodes")
    shared = layout.adjacency[a] & layout.adjacency[b]
    return len(shared - {a, b})


def inter_region_edges(layout: GraphLayout, region_a, region_b) -> int:
    """Number of edges with one endpoint in each region."""
    set_a = set(_node_ids(layout, region_a))
    set_b = set(_node_ids(layout, region_b))
    if not set_a or not set_b:
        raise UsageError("regions must be non-empty")
    if set_a & set_b:
        raise UsageError(f"regions overlap on {sorted(set_a & set_b)}")
    count = 0
    for edge in layout.edges:
        if (edge.source in set_a and edge.target in set_b) or (
            edge.source in set_b and edge.target in set_a
        ):
            count += 1
    return count


def score_answer(task: str, user_value, ground_truth) -> float:
    """Error of a user answer in [0, 1]; 0 means exactly right."""
    if task not in TASKS:
        raise UsageError(f"unknown task {task!r}")
    if task in BOOLEAN_TASKS:
        if not isinstance(user_value, bool) or not isinstance(ground_truth, bool):
            raise UsageError(f"{task} answers must be booleans")
        return 0.0 if user_value == ground_truth else 1.0
    for name, value in (("answer", user_value), ("ground truth", ground_truth)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise UsageError(f"{task} {name} must be a non-negative integer")
    return 1.0 - 1.0 / (1.0 + abs(user_value - ground_truth))


@dataclass(frozen=True)
class TrialSpec:
    """One generated trial: highlights, task parameter, and the true answer."""

    task: str
    blue: tuple[str, ...] = ()
    orange: str | None = None
    k: int | None = None
    region_a: tuple[str, ...] = ()
    region_b: tuple[str, ...] = ()
    ground_truth: bool | int = False


def ground_truth_for(layout: GraphLayout, trial: TrialSpec) -> bool | int:
    """Recompute the correct answer for a trial from the layout."""
    if trial.task == "T1":
        return adjacency_query(layout, trial.blue[0], trial.blue[1])
    if trial.task == "T2":
        return neighborhood_size(layout, trial.orange, trial.blue)
    if trial.task == "T3":
        return bounded_path_exists(layout, trial.blue[0], trial.orange, trial.k)
    if trial.task == "T4":
        return common_neighbors(layout, trial.blue[0], trial.blue[1])
    if trial.task == "T5":
        return inter_region_edges(layout, trial.region_a, trial.region_b)
    raise UsageError(f"unknown task {trial.task!r}")


# Upper bounds for uniform seeded selection; generation stays feasible on the
# smallest layouts each task supports.
_MAX_T2_BLUES = 8
_MAX_T3_K = 5
_MAX_REGION = 6


def make_trial(layout: GraphLayout, task: str, rng_seed: int) -> TrialSpec:
    """Deterministically generate a trial for a task.

    Highlighted nodes are drawn uniformly at random from the layout under the
    given seed; the ground truth is computed from the layout. Raises
    UsageError when the layout is too small for the task.
    """
    if task not in TASKS:
        raise UsageError(f"unknown task {task!r}")
    rng = random.Random(rng_seed)
    ids = sorted(node.id for node in layout.nodes)
    n = len(ids)

    if task in ("T1", "T4"):
        if n < 2:
            raise UsageError(f"{task} needs at least 2 nodes, layout has {n}")
        pair = tuple(rng.sample(ids, 2))
        trial = TrialSpec(task=task, blue=pair)
    elif task == "T2":
        if n < 2:
            raise UsageError(f"T2 needs at least 2 nodes, layout has {n}")
        orange = rng.choice(ids)
        rest = [i for i in ids if i != orange]
        count = rng.randint(1, min(_MAX_T2_BLUES, len(rest)))
        trial = TrialSpec(task=task, blue=tuple(rng.sample(rest, count)), orange=orange)
    elif task == "T3":
        if n < 2:
            raise UsageError(f"T3 needs at least 2 nodes, layout has {n}")
        blue, orange = rng.sample(ids, 2)
        trial = TrialSpec(
            task=task, blue=(blue,), orange=orange, k=rng.randint(1, _MAX_T3_K)
        )
    else:  # T5
        if n < 4:
            raise UsageError(f"T5 needs at least 4 nodes, layout has {n}")
        size_a = rng.randint(2, min(_MAX_REGION, n // 2))
        size_b = rng.randint(2, min(_MAX_REGION, n - size_a))
        picked = rng.sample(ids, size_a + size_b)
        trial = TrialSpec(
            task=task,
            region_a=tuple(picked[:size_a]),
            region_b=tuple(picked[size_a:]),
        )

    return replace(trial, ground_truth=ground_truth_for(layout, trial))


def apply_trial_roles(layout: GraphLayout, trial: TrialSpec) -> GraphLayout:
    """Layout copy with the trial's blue and orange roles set on its nodes."""
    orange = (trial.orange,) if trial.orange is not None else ()
    return with_color_roles(layout, blue=trial.blue, orange=orange)


def trial_to_dict(trial: TrialSpec) -> dict:
    return {
        "task": trial.task,
        "blue": list(trial.blue),
        "orange": trial.orange,
        "k": trial.k,
        "regionA": list(trial.region_a),
        "regionB": list(trial.region_b),
        "ground_truth": trial.ground_truth,
    }


def trial_to_json(trial: TrialSpec) -> str:
    return json.dumps(trial_to_dict(trial), indent=2)


def trial_from_dict(doc: dict) -> TrialSpec:
    return TrialSpec(
        task=doc["task"],
        blue=tuple(doc.get("blue") or ()),
        orange=doc.get("orange"),
        k=doc.get("k"),
        region_a=tuple(doc.get("regionA") or ()),
        region_b=tuple(doc.get("regionB") or ()),
        ground_truth=doc["ground_truth"],
    )
