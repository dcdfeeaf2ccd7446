"""Seeded instance sets for the four benchmark workloads, emitted as IDNET text.

Every instance is generated from the run seed alone, so the same seed gives
byte-identical inputs on any commit.  Instances are selected only by
properties of the input (sizes, scopes, temporal blocks), never by anything
the solver computes: the one selection rule is `elimination_cells`, which
bounds the work of the dense and potential-engine references.

Each workload has at least 100 instances, so that at least 10 lie beyond
the p90 of the per-instance latencies.  The seed draws only the numbers of
the tables; the structures are fixed.  A solve's cost depends on structure
alone, and with structures drawn per seed the heavy tail of cluster sizes
moved throughput from seed to seed: by about 20% between quartiles on the
dense workloads, and by 15-30% on random_sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from infdiag import diagram

# families: the paper's width-1 (chain) versus width-n (star) separation.
# All draws of one fixture cost about the same, so the latencies form one
# cluster per fixture.  star(56) makes the fixture count odd, so the median
# falls inside the middle fixture's cluster: with 14 fixtures it fell in the
# gap between two clusters and moved by 10% with noise.
FAMILIES = (("chain", (16, 24, 32, 48, 64, 96, 128)),
            ("star", (16, 24, 32, 48, 56, 64, 96, 128)))
FAMILY_NUMBERS = 8  # table draws per fixture

# random_sweep: structures of diagram.random_id in prob mode, drawn from a
# fixed seed, with variables spread evenly over the range.
SWEEP_INSTANCES = 240
SWEEP_STRUCTURE_SEED = 0
SWEEP_VARS = (30, 60)
SWEEP_VARS_PER_DECISION = 8
SWEEP_MAX_DOMAIN = 3
SWEEP_MAX_PARENTS = 3
# Largest table the reverse-temporal elimination of the reference may build.
# Draws above it are skipped: at 40-80 variables one unfiltered draw kept
# the potential engine busy for 47 s.
SWEEP_MAX_CELLS = 3 ** 10

# dense_*: small, densely coupled diagrams whose joint table fits in memory,
# so the reference can fold it directly.
DENSE_INSTANCES = 120
DENSE_STRUCTURE_SEED = 0
DENSE_VARS = 10
DENSE_DOMAIN = 4
DENSE_DECISIONS = 3
DENSE_PARENTS = 3
DENSE_UTILITIES = 5
DENSE_UTILITY_SCOPE = 3
# Caps the heavy tail of cluster sizes, so a pass stays short enough for
# several passes per run.
DENSE_MAX_CELLS = 4 ** 8


@dataclass(frozen=True)
class Instance:
    label: str
    text: str


def elimination_cells(sizes: Sequence[int], scopes: Sequence[Sequence[int]],
                      blocks: Sequence[Sequence[int]]) -> int:
    """Largest table (cells) built by eliminating the moral graph of `scopes`
    block by block in reverse temporal order, min-fill inside a block."""
    adj: list[set[int]] = [set() for _ in sizes]
    for scope in scopes:
        for v in scope:
            adj[v].update(w for w in scope if w != v)

    def fill(v: int) -> int:
        nb = sorted(adj[v])
        return sum(1 for i, a in enumerate(nb) for b in nb[i + 1:] if b not in adj[a])

    worst = 1
    for block in reversed(blocks):
        todo = sorted(block)
        while todo:
            x = min(todo, key=fill)  # ties keep the lowest id
            nb = adj[x]
            worst = max(worst, sizes[x] * math.prod(sizes[v] for v in nb))
            for a in nb:
                adj[a].update(nb - {a})
                adj[a].discard(x)
            adj[x] = set()
            todo.remove(x)
    return worst


def _scopes(d: diagram.InfluenceDiagram) -> list[tuple[int, ...]]:
    return [t.scope for t in d.cpts.values()] + [u.scope for u in d.utilities]


def _fmt(values: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in values)


def _cpt_rows(rng: np.random.Generator, rows: int, size: int, mode: str) -> np.ndarray:
    """Conditional rows: sums of 1 in prob mode, maxima of 1 in poss mode."""
    vals = rng.random((rows, size)) + 0.05
    vals /= vals.sum(1, keepdims=True) if mode == "prob" else vals.max(1, keepdims=True)
    return vals.ravel()


def _utility(rng: np.random.Generator, cells: int, mode: str) -> np.ndarray:
    return rng.random(cells) if mode == "poss" else rng.uniform(-1.0, 1.0, cells)


# --------------------------------------------------------------------------
# families

def families(seed: int) -> list[Instance]:
    draws = np.random.SeedSequence(seed).generate_state(FAMILY_NUMBERS)
    return [Instance(f"{name}({n})#{r}",
                     diagram.serialize(diagram.fixture(name, n, seed=int(s))))
            for name, sizes in FAMILIES for n in sizes
            for r, s in enumerate(draws)]


# --------------------------------------------------------------------------
# random_sweep

def sweep_structures() -> list[diagram.InfluenceDiagram]:
    """random_sweep's fixed structures (with random_id's own numbers)."""
    rng = np.random.default_rng([SWEEP_STRUCTURE_SEED, 1])
    lo, hi = SWEEP_VARS
    out = []
    for i in range(SWEEP_INSTANCES):
        nvars = lo + (hi - lo) * i // (SWEEP_INSTANCES - 1)
        decisions = max(1, round(nvars / SWEEP_VARS_PER_DECISION))
        while True:
            d = diagram.random_id(nvars, decisions, SWEEP_MAX_DOMAIN, SWEEP_MAX_PARENTS,
                                  "prob", seed=int(rng.integers(2 ** 31)))
            if elimination_cells(d.sizes, _scopes(d), d.blocks) <= SWEEP_MAX_CELLS:
                break
        out.append(d)
    return out


def redrawn_text(d: diagram.InfluenceDiagram, rng: np.random.Generator) -> str:
    """IDNET text for `d` with every table value drawn afresh from `rng`."""
    names = [v.name for v in d.variables]
    lines = ["IDNET 1", f"MODE {d.mode}"]
    lines += [f"VAR {v.name} {v.size} {v.kind.upper()}" for v in d.variables]
    for x in d.chance_ids:
        t = d.cpts[x]
        lines.append(f"PROB {names[x]} | {' '.join(names[p] for p in t.scope[:-1])} : "
                     f"{_fmt(_cpt_rows(rng, t.size // t.sizes[-1], t.sizes[-1], d.mode))}")
    for u in d.utilities:
        lines.append(f"UTIL {u.name} {' '.join(names[v] for v in u.scope)} : "
                     f"{_fmt(_utility(rng, u.size, d.mode))}")
    lines.append("ORDER " + " / ".join(" ".join(names[v] for v in b) for b in d.blocks))
    return "\n".join(lines) + "\n"


def random_sweep(seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 1])
    return [Instance(f"random_sweep[{i}]: {len(d.variables)} variables, "
                     f"{len(d.decision_ids)} decisions", redrawn_text(d, rng))
            for i, d in enumerate(sweep_structures())]


# --------------------------------------------------------------------------
# dense_prob / dense_poss

@dataclass(frozen=True)
class DenseStructure:
    """Variable ids follow temporal order; `blocks` alternate chance groups
    and single decisions; `parents[i]` is None for a decision."""

    decisions: tuple[int, ...]
    parents: tuple[tuple[int, ...] | None, ...]
    utilities: tuple[tuple[int, ...], ...]
    blocks: tuple[tuple[int, ...], ...]


def dense_structure(rng: np.random.Generator) -> DenseStructure:
    """Decisions at random positions after the first variable; each chance
    variable draws its parents among all earlier variables; utility j <
    DENSE_DECISIONS contains decision j, so every decision matters."""
    n = DENSE_VARS
    dec = tuple(sorted(int(x) for x in rng.choice(np.arange(1, n), DENSE_DECISIONS,
                                                  replace=False)))
    parents = tuple(None if i in dec else
                    tuple(sorted(int(p) for p in rng.choice(i, min(DENSE_PARENTS, i),
                                                            replace=False)))
                    for i in range(n))
    utilities = []
    for j in range(DENSE_UTILITIES):
        forced = [dec[j]] if j < DENSE_DECISIONS else []
        others = [v for v in range(n) if v not in forced]
        utilities.append(tuple(sorted(forced + [int(v) for v in rng.choice(
            others, DENSE_UTILITY_SCOPE - len(forced), replace=False)])))
    blocks: list[list[int]] = [[]]
    for i in range(n):
        if i in dec:
            blocks += [[i], []]
        else:
            blocks[-1].append(i)
    return DenseStructure(dec, parents, tuple(utilities), tuple(map(tuple, blocks)))


def dense_structures() -> list[DenseStructure]:
    """The dense workloads' fixed structures, shared by both modes."""
    rng = np.random.default_rng(DENSE_STRUCTURE_SEED)
    out = []
    while len(out) < DENSE_INSTANCES:
        s = dense_structure(rng)
        scopes = [(*pa, i) for i, pa in enumerate(s.parents) if pa is not None]
        if elimination_cells([DENSE_DOMAIN] * DENSE_VARS, scopes + list(s.utilities),
                             s.blocks) <= DENSE_MAX_CELLS:
            out.append(s)
    return out


def dense_text(s: DenseStructure, rng: np.random.Generator, mode: str) -> str:
    """IDNET text for one structure with table values drawn from `rng`."""
    dom = DENSE_DOMAIN
    names = [("d" if i in s.decisions else "c") + str(i) for i in range(DENSE_VARS)]
    lines = ["IDNET 1", f"MODE {mode}"]
    lines += [f"VAR {name} {dom} {'DECISION' if pa is None else 'CHANCE'}"
              for name, pa in zip(names, s.parents)]
    for name, pa in zip(names, s.parents):
        if pa is None:
            continue
        lines.append(f"PROB {name} | {' '.join(names[p] for p in pa)} : "
                     f"{_fmt(_cpt_rows(rng, dom ** len(pa), dom, mode))}")
    for j, scope in enumerate(s.utilities):
        lines.append(f"UTIL u{j} {' '.join(names[v] for v in scope)} : "
                     f"{_fmt(_utility(rng, dom ** len(scope), mode))}")
    lines.append("ORDER " + " / ".join(" ".join(names[v] for v in b) for b in s.blocks))
    return "\n".join(lines) + "\n"


def dense(mode: str) -> Callable[[int], list[Instance]]:
    def generate(seed: int) -> list[Instance]:
        rng = np.random.default_rng([seed, 2])
        return [Instance(f"dense_{mode}[{i}]", dense_text(s, rng, mode))
                for i, s in enumerate(dense_structures())]
    return generate


# Instance generators by workload name; BENCHMARK.json says why each exists.
WORKLOADS: dict[str, Callable[[int], list[Instance]]] = {
    "families": families,
    "random_sweep": random_sweep,
    "dense_prob": dense("prob"),
    "dense_poss": dense("poss"),
}


def shape(d: diagram.InfluenceDiagram) -> tuple[int, int, int, int]:
    """(variables, decisions, joint cells, largest input table cells)."""
    tables = list(d.cpts.values()) + list(d.utilities)
    return (len(d.variables), len(d.decision_ids), math.prod(d.sizes),
            max(t.size for t in tables))
