"""Continuous genetic algorithm over normalized budget-split genes.

A chromosome is a pair of genes in ``[-1, 1]`` encoding the two free budget
components (estimation and correctness shares); the secrecy share is whatever
the total leaves over.  A population is a ``(P, 2)`` gene array scored by a
length-``P`` fitness vector.  Selection is elitist and softmax-weighted,
crossover blends genes convexly, and mutation adds clipped Gaussian noise.
Several runs advance in lockstep as an ``(R, P, 2)`` stack, and each
generation of the stack is scored in one call: :func:`run_lockstep` rates
the feasible splits of every run as one batch budget, each row with its own
run's total; :func:`run` is the stack of one.  Infeasible splits are not
errors: they score the worst-fitness marker ``-inf`` and are simply never
selected while anything feasible exists.

Determinism: every run consumes its own ``numpy`` generator in a fixed
stream order — one uniform block for initialization, then per generation one
pairing block, one crossover block, one uniform block and one normal block
for mutation (and, only when a generation must be re-seeded, one uniform
block).  Fitness evaluation draws nothing, so identical seeds give identical
results regardless of how evaluations are scheduled or which runs share a
stack.  Probabilities are normalized by sequential left-to-right sums
(``np.cumsum``), not by the builtin ``sum``, which is compensated from Python
3.12 on, so the stream does not depend on the interpreter version.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .budget import EpsilonBudget, Family, check_fields, libm, map_gene, reconstruct_sec

__all__ = [
    "WORST_FITNESS",
    "CgaConfig",
    "OptimizationResult",
    "initialize",
    "select",
    "softmax_probabilities",
    "pair",
    "crossover",
    "mutate",
    "run",
    "run_lockstep",
]

logger = logging.getLogger(__name__)

#: Ordered sentinel below any finite rate; the score of an infeasible split.
WORST_FITNESS = float("-inf")

#: Per-gene probability that crossover blends instead of copying the mother.
_CROSSOVER_PROB = 0.5


@dataclass(frozen=True)
class CgaConfig:
    """Hyperparameters of the genetic search.

    Defaults follow the tuning used for all shipped experiments: population
    200, 300 generations, half the population eligible as parents, every
    parent surviving, and a 50% per-gene mutation probability with noise
    spread 0.2 on the normalized scale.
    """

    population: int = 200
    iterations: int = 300
    mutation_rate: float = 0.5
    parent_rate: float = 0.5
    survival_rate: float = 1.0
    mutation_sigma: float = 0.2
    rng_seed: int | None = None

    def __post_init__(self) -> None:
        # the parent pool is judged only from a valid population and rate
        pool_judged = self.population >= 2 and 0.0 < self.parent_rate <= 1.0
        checks = [
            (self.population >= 2, "population must hold at least two chromosomes"),
            (self.iterations >= 1, "iterations must be positive"),
            (0.0 <= self.mutation_rate <= 1.0, "mutation_rate must lie in [0, 1]"),
            (0.0 < self.parent_rate <= 1.0, "parent_rate must lie in (0, 1]"),
            (0.0 <= self.survival_rate <= 1.0, "survival_rate must lie in [0, 1]"),
            (self.mutation_sigma > 0.0, "mutation_sigma must be positive"),
            (
                not pool_judged or self.n_parents >= 2,
                "parent_rate too small: the parent pool must keep at least "
                f"two of {self.population} chromosomes",
            ),
            (
                self.rng_seed is None or (isinstance(self.rng_seed, int) and self.rng_seed >= 0),
                f"rng_seed must be a non-negative integer, got {self.rng_seed!r}",
            ),
        ]
        check_fields(self, checks)

    @property
    def n_parents(self) -> int:
        return math.floor(self.population * self.parent_rate)

    @property
    def n_survivors(self) -> int:
        return max(1, math.floor(self.n_parents * self.survival_rate))


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one genetic run, in plain Python floats.

    ``fitness_history`` records the best fitness of each generation's
    evaluated population; elitism makes it non-decreasing.  ``evaluations``
    counts chromosome scorings (population size times generations);
    ``reseeds`` counts generations whose parent pool collapsed below two
    feasible chromosomes and had to be re-drawn.
    """

    best_genes: tuple[float, float]
    best_fitness: float
    best_budget: EpsilonBudget | None
    fitness_history: list[float] = field(repr=False)
    evaluations: int = 0
    reseeds: int = 0


def initialize(config: CgaConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the starting ``(population, 2)`` genes uniformly over the square."""
    return rng.uniform(-1.0, 1.0, size=(config.population, 2))


def _per_run(rngs: list[np.random.Generator], draw: Callable) -> np.ndarray:
    """``draw`` of each run's own generator, stacked along the run axis."""
    return np.array([draw(g) for g in rngs])


def select(fitness: np.ndarray, config: CgaConfig) -> np.ndarray:
    """Return the parent pool as indices into ``fitness``: the first
    ``n_parents`` of a best-first ranking, in which equal fitness keeps the
    original (stable) order.  The survivors are the pool's first
    ``n_survivors``.  A stack of runs, one fitness row each, is ranked row
    by row.
    """
    ranked = np.argsort(-np.asarray(fitness, dtype=float), axis=-1, kind="stable")
    return ranked[..., : config.n_parents]


def softmax_probabilities(fitness: np.ndarray) -> np.ndarray:
    """Selection weights over a parent pool (row by row for a stack).

    Finite fitness values are min-max rescaled to ``[0, 1]`` (keeping the
    softmax well-conditioned whatever the physical rate scale) and
    exponentiated; worst-fitness entries get probability zero.  A pool of
    identical finite values degenerates to the uniform distribution.
    """
    fitness = np.asarray(fitness, dtype=float)
    finite = fitness > WORST_FITNESS
    if not finite.any(axis=-1).all():
        raise ValueError("no finite-fitness chromosomes to select from")
    lo = np.where(finite, fitness, np.inf).min(axis=-1, keepdims=True)
    span = np.fmax.reduce(fitness, axis=-1, keepdims=True) - lo  # fmax skips NaN
    scaled = (fitness - lo) / np.where(span == 0.0, 1.0, span)  # constant pool: all 0
    weights = np.zeros(fitness.shape)
    # math.exp, not np.exp: numpy's SIMD exp may round differently by CPU
    weights[finite] = libm(math.exp, scaled[finite])
    return weights / np.cumsum(weights, axis=-1)[..., -1:]


def _draw_index(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise inverse-CDF draw: first index whose cumulative probability
    exceeds ``u``.  Per run, ``probs`` has one row per draw or a single
    shared row."""
    hit = u[..., None] < np.cumsum(probs, axis=-1)
    index = hit.argmax(axis=-1)
    # u landed in the rounding slack at the top of the CDF: last positive index
    slack = ~hit[..., -1]
    missed = np.broadcast_to(probs, hit.shape)[slack]
    index[slack] = probs.shape[-1] - 1 - (missed[:, ::-1] > 0.0).argmax(axis=-1)
    return index


def pair(
    fitness: np.ndarray, n_pairs: int, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_pairs`` (mother, father) index pairs from each run's parent
    pool, a row of the ``(R, n)`` ``fitness``; ``(R, n_pairs)`` results.

    Mothers follow the softmax weights of ``fitness``; each father follows
    the same weights renormalized with his mother excluded, so the two are
    always distinct.  Run ``r`` consumes one ``(n_pairs, 2)`` uniform block
    of ``rngs[r]``: row ``i`` holds the mother's then the father's draw of
    pair ``i``.
    """
    probs = softmax_probabilities(fitness)
    if (np.sort(probs, axis=1)[:, -2] == 0.0).any():  # second-largest weight
        raise ValueError("pairing needs at least two selectable parents")
    u = _per_run(rngs, lambda g: g.random((n_pairs, 2)))
    shared = probs[:, None, :]
    mothers = _draw_index(shared, u[:, :, 0])
    # row i: the weights with pair i's mother excluded, renormalized
    conditional = np.repeat(shared, n_pairs, axis=1)
    rows = conditional.reshape(-1, probs.shape[1])
    rows[np.arange(len(rows)), mothers.ravel()] = 0.0
    conditional /= np.cumsum(conditional, axis=2)[:, :, -1:]
    return mothers, _draw_index(conditional, u[:, :, 1])


def crossover(
    mothers: np.ndarray, fathers: np.ndarray, rngs: list[np.random.Generator]
) -> np.ndarray:
    """Breed one offspring per row of the ``(R, n, 2)`` parent gene arrays.

    Run ``r`` consumes one ``(n, 4)`` uniform block of ``rngs[r]``: columns
    0–1 are per-gene coins, columns 2–3 blend weights.  A gene whose coin
    falls below 0.5 blends convexly, ``gamma * mother + (1 - gamma) *
    father``; the others copy the mother's gene.  Offspring therefore never
    leave the interval hull of their parents' genes.
    """
    draws = _per_run(rngs, lambda g: g.random((mothers.shape[1], 4)))
    coins, gammas = draws[:, :, :2], draws[:, :, 2:]
    blend = gammas * mothers + (1.0 - gammas) * fathers
    return np.where(coins < _CROSSOVER_PROB, blend, mothers)


def mutate(
    genes: np.ndarray, elite_index: int, config: CgaConfig, rngs: list[np.random.Generator]
) -> np.ndarray:
    """Add Gaussian noise to the ``(R, P, 2)`` genes, sparing each run's
    elite chromosome.

    Run ``r`` consumes one uniform block and one normal block of its genes'
    shape from ``rngs[r]`` regardless of which genes actually mutate, so the
    stream layout does not depend on outcomes.  Each gene mutates with
    probability ``mutation_rate``; results are clipped to ``[-1, 1]``.
    """
    shape, sigma = genes.shape[1:], config.mutation_sigma
    mask = _per_run(rngs, lambda g: g.random(shape)) < config.mutation_rate
    noise = _per_run(rngs, lambda g: g.normal(0.0, sigma, size=shape))
    mask[:, elite_index] = False
    return np.where(mask, np.clip(genes + noise, -1.0, 1.0), genes)


def _breed(
    pool: np.ndarray, pool_fitness: np.ndarray, config: CgaConfig, rngs: list
) -> np.ndarray:
    """The next ``(R, population, 2)`` genes of a stack of runs from their
    parent pools, ranked best-first: the survivors (the pool's first
    ``n_survivors``), then offspring of softmax-drawn parent pairs, all
    mutated except each run's elite (row 0)."""
    n_offspring = config.population - config.n_survivors
    mothers, fathers = pair(pool_fitness, n_offspring, rngs)
    rows = np.arange(len(pool))[:, None]
    offspring = crossover(pool[rows, mothers], pool[rows, fathers], rngs)
    kept = pool[:, : config.n_survivors]
    return mutate(np.concatenate([kept, offspring], axis=1), 0, config, rngs)


def _lockstep(
    config: CgaConfig,
    fitness_fn: Callable[[np.ndarray], np.ndarray],
    rngs: list[np.random.Generator],
) -> list[OptimizationResult]:
    """The generational loop, for ``len(rngs)`` independent runs at once.

    The runs are stacked along a leading axis: ``fitness_fn`` receives the
    ``(R, population, 2)`` genes of a generation, must not modify them, must
    be deterministic, and returns an ``(R, population)`` fitness array;
    :data:`WORST_FITNESS` (or NaN, read as the same) marks infeasible genes.
    Each generation: evaluate, rank, record each run's best, select parents
    and survivors, draw all pairs, breed offspring to refill each
    population, then mutate everything except each elite.  A run with fewer
    than two feasible parents is re-drawn uniformly around its sole best
    chromosome and skips breeding for that generation.  Run ``r`` draws
    only from ``rngs[r]``, in the order a run alone would, so it ends
    exactly as it would alone.
    """
    n_runs = len(rngs)
    runs = np.arange(n_runs)
    genes = np.stack([initialize(config, rng) for rng in rngs])
    history = np.empty((config.iterations, n_runs))
    reseeds = np.zeros(n_runs, dtype=int)
    best_genes = np.empty((n_runs, 2))
    best_fitness = np.full(n_runs, np.nan)  # NaN until the first generation

    for generation in range(config.iterations):
        fitness = np.array(fitness_fn(genes), dtype=float)
        if fitness.shape != genes.shape[:2]:
            raise ValueError(
                f"fitness_fn returned shape {fitness.shape} for "
                f"{genes.shape[:2]} runs by chromosomes"
            )
        fitness[np.isnan(fitness)] = WORST_FITNESS
        parents = select(fitness, config)
        pool, pool_fitness = genes[runs[:, None], parents], fitness[runs[:, None], parents]
        elite = pool_fitness[:, 0]
        better = ~(elite <= best_fitness)  # always in the first generation
        np.copyto(best_genes, pool[:, 0], where=better[:, None])
        np.copyto(best_fitness, elite, where=better)
        history[generation] = elite

        # the pool is ranked best-first: a worst-fitness second parent means
        # fewer than two feasible
        stuck = pool_fitness[:, 1] == WORST_FITNESS
        bred = np.flatnonzero(~stuck)
        next_genes = np.empty_like(genes)
        if bred.size:
            bred_rngs = [rngs[r] for r in bred]
            next_genes[bred] = _breed(pool[bred], pool_fitness[bred], config, bred_rngs)
        for r in np.flatnonzero(stuck):
            logger.info("re-seeding generation: fewer than two feasible parents")
            reseeds[r] += 1
            next_genes[r] = initialize(config, rngs[r])
            next_genes[r, 0] = best_genes[r]
        genes = next_genes

    history = history.T.tolist()
    return [
        OptimizationResult(
            best_genes=tuple(best_genes[r].tolist()),
            best_fitness=float(best_fitness[r]),
            best_budget=None,
            fitness_history=history[r],
            evaluations=config.population * config.iterations,
            reseeds=int(reseeds[r]),
        )
        for r in range(n_runs)
    ]


def run_lockstep(
    config: CgaConfig,
    totals: list[float],
    family: Family,
    rate_fn: Callable[[EpsilonBudget], float | np.ndarray],
    rngs: list[np.random.Generator],
) -> list[OptimizationResult]:
    """Optimize the split of each of ``totals`` together, run ``r`` drawing
    from ``rngs[r]``; each result equals that of :func:`run` alone.

    Each generation makes one ``rate_fn`` call, on a batch budget holding
    the feasible splits of every run, each row with its own run's total;
    it returns their rates (an array, or one number for all).  Splits whose
    secrecy remainder falls below the floor and NaN rates score
    :data:`WORST_FITNESS`, so selection discards them without aborting a
    run; anything ``rate_fn`` raises propagates.
    """
    gene_totals = np.array(totals, dtype=float)[:, None, None]
    row_totals = np.repeat(gene_totals.ravel(), config.population)

    def fitness(genes: np.ndarray) -> np.ndarray:
        eps = map_gene(genes, gene_totals).reshape(-1, 2)
        feasible, budget = reconstruct_sec(row_totals, eps[:, 0], eps[:, 1], family)
        scores = np.full(len(eps), WORST_FITNESS)
        if budget is not None:
            scores[feasible] = rate_fn(budget)
        return scores.reshape(genes.shape[:2])

    results = _lockstep(config, fitness, rngs)
    for i, (total, result) in enumerate(zip(totals, results)):
        if result.best_fitness != WORST_FITNESS:
            eps_pe, eps_cor = map_gene(np.array(result.best_genes), total).tolist()
            budget = reconstruct_sec(total, eps_pe, eps_cor, family)
            results[i] = replace(result, best_budget=budget)
    return results


def run(
    config: CgaConfig,
    total_eps: float,
    family: Family,
    rate_fn: Callable[[EpsilonBudget], float | np.ndarray],
    rng: np.random.Generator | None = None,
) -> OptimizationResult:
    """Optimize the split of ``total_eps`` against a key-rate function.

    Genes map linearly onto ``[component floor, total_eps]``.  Each
    generation makes one ``rate_fn`` call on the feasible splits (see
    :func:`run_lockstep`, of which this is the single-run case).  The
    winning genes are resolved back into a budget (``None`` if the search
    never found a feasible split).
    """
    rng = np.random.default_rng(config.rng_seed) if rng is None else rng
    return run_lockstep(config, [total_eps], family, rate_fn, [rng])[0]
