"""Continuous genetic algorithm over normalized budget-split genes.

A chromosome is a pair of genes in ``[-1, 1]`` encoding the two free budget
components (estimation and correctness shares); the secrecy share is whatever
the total leaves over.  A population is a ``(P, 2)`` gene array scored by a
length-``P`` fitness vector.  Selection is elitist and softmax-weighted,
crossover blends genes convexly, and mutation adds clipped Gaussian noise.
Each generation is scored in one call: :func:`run` rates all of its feasible
splits as one batch budget.  Infeasible splits are not errors: they score the
worst-fitness marker ``-inf`` and are simply never selected while anything
feasible exists.

Determinism: every run consumes a single ``numpy`` generator in a fixed
stream order — one uniform block for initialization, then per generation one
pairing block, one crossover block, one uniform block and one normal block
for mutation (and, only when a generation must be re-seeded, one uniform
block).  Fitness evaluation draws nothing, so identical seeds give identical
results regardless of how evaluations are scheduled.  Probabilities are
normalized by sequential left-to-right sums (``np.cumsum``), not by the
builtin ``sum``, which is compensated from Python 3.12 on, so the stream does
not depend on the interpreter version.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .budget import EpsilonBudget, Family, map_gene, nonfinite_fields, reconstruct_sec

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
    "run_genetic",
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
        bad = nonfinite_fields(self)
        if bad:
            raise ValueError("; ".join(bad))
        if self.population < 2:
            raise ValueError("population must hold at least two chromosomes")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not (0.0 <= self.mutation_rate <= 1.0):
            raise ValueError("mutation_rate must lie in [0, 1]")
        if not (0.0 < self.parent_rate <= 1.0):
            raise ValueError("parent_rate must lie in (0, 1]")
        if not (0.0 <= self.survival_rate <= 1.0):
            raise ValueError("survival_rate must lie in [0, 1]")
        if self.mutation_sigma <= 0.0:
            raise ValueError("mutation_sigma must be positive")
        if self.n_parents < 2:
            raise ValueError(
                "parent_rate too small: the parent pool must keep at least "
                f"two of {self.population} chromosomes"
            )
        if self.rng_seed is not None and (
            not isinstance(self.rng_seed, int) or self.rng_seed < 0
        ):
            raise ValueError(
                f"rng_seed must be a non-negative integer, got {self.rng_seed!r}"
            )

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


def select(fitness: np.ndarray, config: CgaConfig) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(parent pool, survivors)`` as indices into ``fitness``.

    Both are prefixes of one best-first ranking; equal fitness keeps the
    original (stable) order.
    """
    ranked = np.argsort(-np.asarray(fitness, dtype=float), kind="stable")
    return ranked[: config.n_parents], ranked[: config.n_survivors]


def softmax_probabilities(fitness: np.ndarray) -> np.ndarray:
    """Selection weights over a parent pool.

    Finite fitness values are min-max rescaled to ``[0, 1]`` (keeping the
    softmax well-conditioned whatever the physical rate scale) and
    exponentiated; worst-fitness entries get probability zero.  A pool of
    identical finite values degenerates to the uniform distribution.
    """
    fitness = np.asarray(fitness, dtype=float)
    finite = fitness > WORST_FITNESS
    if not finite.any():
        raise ValueError("no finite-fitness chromosomes to select from")
    lo, hi = fitness[finite].min(), fitness[finite].max()
    scaled = (fitness[finite] - lo) / (hi - lo or 1.0)  # constant pool: all 0
    weights = np.zeros(fitness.shape)
    # math.exp, not np.exp: numpy's SIMD exp may round differently by CPU
    weights[finite] = [math.exp(x) for x in scaled.tolist()]
    return weights / np.cumsum(weights)[-1]


def _draw_index(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise inverse-CDF draw: first index whose cumulative probability
    exceeds ``u``.  ``probs`` has one row per draw, or a single shared row."""
    hit = u[:, None] < np.cumsum(probs, axis=1)
    positive = probs > 0.0
    last_positive = probs.shape[1] - 1 - positive[:, ::-1].argmax(axis=1)
    # a row never hit means u landed in the rounding slack at the top of the CDF
    return np.where(hit[:, -1], hit.argmax(axis=1), last_positive)


def pair(
    fitness: np.ndarray, n_pairs: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``n_pairs`` (mother, father) index pairs from a parent pool.

    Mothers follow the softmax weights of ``fitness``; each father follows
    the same weights renormalized with his mother excluded, so the two are
    always distinct.  Consumes one ``(n_pairs, 2)`` uniform block: row ``i``
    holds the mother's then the father's draw of pair ``i``.
    """
    probs = softmax_probabilities(fitness)
    if np.count_nonzero(probs > 0.0) < 2:
        raise ValueError("pairing needs at least two selectable parents")
    u = rng.random((n_pairs, 2))
    mothers = _draw_index(probs[None, :], u[:, 0])
    conditional = np.tile(probs, (n_pairs, 1))
    conditional[np.arange(n_pairs), mothers] = 0.0
    conditional /= np.cumsum(conditional, axis=1)[:, -1:]
    return mothers, _draw_index(conditional, u[:, 1])


def crossover(
    mothers: np.ndarray, fathers: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Breed one offspring per row of the ``(n, 2)`` parent gene arrays.

    Consumes one ``(n, 4)`` uniform block: columns 0–1 are per-gene coins,
    columns 2–3 blend weights.  A gene whose coin falls below 0.5 blends
    convexly, ``gamma * mother + (1 - gamma) * father``; the others copy the
    mother's gene.  Offspring therefore never leave the interval hull of
    their parents' genes.
    """
    draws = rng.random((len(mothers), 4))
    coins, gammas = draws[:, :2], draws[:, 2:]
    blend = gammas * mothers + (1.0 - gammas) * fathers
    return np.where(coins < _CROSSOVER_PROB, blend, mothers)


def mutate(
    genes: np.ndarray, elite_index: int, config: CgaConfig, rng: np.random.Generator
) -> np.ndarray:
    """Add Gaussian noise to genes, sparing the elite chromosome.

    Consumes one uniform block and one normal block of the genes' shape
    regardless of which genes actually mutate, so the stream layout does not
    depend on outcomes.  Each gene mutates with probability
    ``mutation_rate``; results are clipped to ``[-1, 1]``.
    """
    mask = rng.random(genes.shape) < config.mutation_rate
    noise = rng.normal(0.0, config.mutation_sigma, size=genes.shape)
    mask[elite_index] = False
    return np.where(mask, np.clip(genes + noise, -1.0, 1.0), genes)


def run_genetic(
    config: CgaConfig,
    fitness_fn: Callable[[np.ndarray], np.ndarray],
    rng: np.random.Generator | None = None,
) -> OptimizationResult:
    """Core generational loop over an arbitrary gene-space fitness.

    ``fitness_fn`` receives a generation's ``(population, 2)`` gene array,
    must not modify it, must be deterministic, and returns one fitness per
    row; :data:`WORST_FITNESS` (or NaN, read as the same) marks infeasible
    genes.  Each generation: evaluate, rank, record the best, select parents
    and survivors, draw all pairs, breed offspring to refill the population,
    then mutate everything except the elite.  If fewer than two feasible
    parents exist the generation is re-drawn uniformly around the sole best
    chromosome.
    """
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    genes = initialize(config, rng)
    n_offspring = config.population - config.n_survivors
    history: list[float] = []
    reseeds = 0
    best_genes: np.ndarray | None = None
    best_fitness = WORST_FITNESS

    for _ in range(config.iterations):
        fitness = np.array(fitness_fn(genes), dtype=float)
        if fitness.shape != (len(genes),):
            raise ValueError(
                f"fitness_fn returned shape {fitness.shape} for {len(genes)} chromosomes"
            )
        fitness[np.isnan(fitness)] = WORST_FITNESS
        parents, survivors = select(fitness, config)
        elite = parents[0]
        if best_genes is None or fitness[elite] > best_fitness:
            best_genes, best_fitness = genes[elite].copy(), float(fitness[elite])
        history.append(float(fitness[elite]))

        if np.count_nonzero(fitness[parents] > WORST_FITNESS) < 2:
            logger.info("re-seeding generation: fewer than two feasible parents")
            reseeds += 1
            genes = initialize(config, rng)
            genes[0] = best_genes
            continue

        mothers, fathers = pair(fitness[parents], n_offspring, rng)
        offspring = crossover(genes[parents[mothers]], genes[parents[fathers]], rng)
        genes = mutate(np.concatenate([genes[survivors], offspring]), 0, config, rng)

    return OptimizationResult(
        best_genes=tuple(best_genes.tolist()),
        best_fitness=best_fitness,
        best_budget=None,
        fitness_history=history,
        evaluations=config.population * config.iterations,
        reseeds=reseeds,
    )


def run(
    config: CgaConfig,
    total_eps: float,
    family: Family,
    rate_fn: Callable[[EpsilonBudget], float | np.ndarray],
    rng: np.random.Generator | None = None,
) -> OptimizationResult:
    """Optimize the split of ``total_eps`` against a key-rate function.

    Genes map linearly onto ``[component floor, total_eps]``.  Each
    generation makes one ``rate_fn`` call, on a batch budget holding the
    feasible splits, which returns their rates (an array, or one number for
    all).  Splits whose secrecy remainder falls below the floor and NaN
    rates score :data:`WORST_FITNESS`, so selection discards them without
    aborting the run; anything ``rate_fn`` raises propagates.  The winning
    genes are resolved back into a budget (``None`` if the search never
    found a feasible split).
    """

    def fitness(genes: np.ndarray) -> np.ndarray:
        eps = map_gene(genes, total_eps)
        feasible, budget = reconstruct_sec(total_eps, eps[:, 0], eps[:, 1], family)
        scores = np.full(len(genes), WORST_FITNESS)
        if budget is not None:
            scores[feasible] = rate_fn(budget)
        return scores

    result = run_genetic(config, fitness, rng=rng)
    if result.best_fitness == WORST_FITNESS:
        return result
    eps_pe, eps_cor = (map_gene(g, total_eps) for g in result.best_genes)
    return replace(result, best_budget=reconstruct_sec(total_eps, eps_pe, eps_cor, family))
