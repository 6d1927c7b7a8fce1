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
uniform block, split into the pairing, crossover and mutation-mask draws, and
one normal block of mutation noise (or, in a generation that must be
re-seeded, one uniform block).  Fitness evaluation draws nothing, so
identical seeds give identical results regardless of how evaluations are
scheduled or which runs share a stack.  Probabilities are normalized by
sequential left-to-right sums (``np.cumsum``), not by the builtin ``sum``,
which is compensated from Python 3.12 on, so the stream does not depend on
the interpreter version.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .budget import EpsilonBudget, Family, check_fields, map_gene, reconstruct_sec

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
        check_fields(self, lambda: [
            (self.population >= 2, "population must hold at least two chromosomes"),
            (self.iterations >= 1, "iterations must be positive"),
            (0.0 <= self.mutation_rate <= 1.0, "mutation_rate must lie in [0, 1]"),
            (0.0 < self.parent_rate <= 1.0, "parent_rate must lie in (0, 1]"),
            (0.0 <= self.survival_rate <= 1.0, "survival_rate must lie in [0, 1]"),
            (self.mutation_sigma > 0.0, "mutation_sigma must be positive"),
            (
                self.population < 2 or not 0.0 < self.parent_rate <= 1.0 or self.n_parents >= 2,
                "parent_rate too small: the parent pool must keep at least "
                f"two of {self.population} chromosomes",
            ),
            (
                self.rng_seed is None or self.rng_seed >= 0,
                f"rng_seed must be a non-negative integer, got {self.rng_seed!r}",
            ),
        ])

    # computed once per config: the generation loop reads them every generation
    @cached_property
    def n_parents(self) -> int:
        return math.floor(self.population * self.parent_rate)

    @cached_property
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


def select(fitness: np.ndarray, config: CgaConfig) -> np.ndarray:
    """Return the parent pool as indices into ``fitness``: the first
    ``n_parents`` of a best-first ranking, in which equal fitness keeps the
    original (stable) order.  The survivors are the pool's first
    ``n_survivors``.  A stack of runs, one fitness row each, is ranked row
    by row.
    """
    ranked = (-np.asarray(fitness, dtype=float)).argsort(axis=-1, kind="stable")
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
    lo = np.minimum.reduce(np.where(finite, fitness, np.inf), axis=-1, keepdims=True)
    if (lo == np.inf).any():  # a row without a finite value
        raise ValueError("no finite-fitness chromosomes to select from")
    span = np.fmax.reduce(fitness, axis=-1, keepdims=True) - lo  # fmax skips NaN
    scaled = (fitness - lo) / np.where(span == 0.0, 1.0, span)  # constant pool: all 0
    # one math.exp per weight, not np.exp: numpy's SIMD exp may round
    # differently by CPU; exp(-inf) is exactly 0.  map and fromiter drive the
    # calls from C, with no Python loop around them
    x = np.where(finite, scaled, -np.inf).ravel()
    weights = np.fromiter(map(math.exp, x.tolist()), float, x.size).reshape(fitness.shape)
    return weights / weights.cumsum(axis=-1)[..., -1:]


def pair(fitness: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``(R, n_pairs)`` mothers and fathers from each run's parent pool,
    a row of the ``(R, n)`` ``fitness``, with the ``(R, n_pairs, 2)``
    uniforms ``u``: row ``i`` of a run holds pair ``i``'s mother draw, then
    its father draw.

    A draw picks the first index whose left-to-right cumulative weight
    exceeds it or, past the top (only rounding slack allows that), the last
    index of positive weight.  Mothers draw on the softmax weights of
    ``fitness``; each father on the same weights with his mother's zeroed
    and the rest divided by their left-to-right sum, so the two differ.
    """
    probs = softmax_probabilities(fitness)
    n_runs, n = probs.shape
    positive = probs > 0.0
    if (np.add.reduce(positive, axis=1) < 2).any():
        raise ValueError("pairing needs at least two selectable parents")
    # Row r is r + 1j * (0, C[0], ..., C[n - 1], inf), C the run's CDF: as
    # complex numbers sort by real, then imaginary part, one searchsorted
    # places every run's draws among its own CDF values, compared exactly; a
    # draw placed at base + j is below C[j] and not below C[j - 1].
    runs = np.arange(n_runs)[:, None]
    keys = np.zeros((n_runs, n + 2), complex)
    keys.real, cdf = runs, keys.imag
    probs.cumsum(axis=1, out=cdf[:, 1:-1])
    cdf[:, -1] = np.inf
    keys, base = keys.ravel(), runs * (n + 2) + 1
    draws = np.empty(u.shape[:2], complex)
    draws.real, draws.imag = runs, u[..., 0]
    last = n - 1 - positive[:, ::-1].argmax(axis=1)[:, None]
    mothers = np.minimum(keys.searchsorted(draws, "right") - base, last)
    # A father draw covers t = u * (C[-1] - p_m) of the CDF without his
    # mother's weight p_m, shifted past her interval from its start C[m - 1]
    # on (C[m] is C[m - 1] + p_m rounded: no father lands on his mother).
    # The rule's own CDF differs by rounding, under (4 n + 1) half-ulps of 1
    # to first order (three sums of at most n + 1 weights: C, the zeroed
    # row's and the rule's CDF; and a few products), so a draw within
    # 4 (n + 2) ulps of 1 of a CDF value, or past the top, is drawn on its
    # exact conditional row.
    p_m = probs[runs, mothers]
    t = u[..., 1] * (cdf[:, -2:-1] - p_m)
    draws.imag = v = np.where(t < cdf[runs, mothers], t, t + p_m)
    at = keys.searchsorted(draws, "right")
    fathers, bound, band = at - base, keys.imag, 4 * (n + 2) * np.spacing(1.0)
    exact = (fathers == n) | (v - bound[at - 1] <= band) | (bound[at] - v <= band)
    if exact.any():
        r, i = exact.nonzero()
        rows = probs[r]
        rows[np.arange(r.size), mothers[r, i]] = 0.0
        rows /= rows.cumsum(axis=1)[:, -1:]
        hit = u[r, i, 1][:, None] < rows.cumsum(axis=1)
        top = n - 1 - (rows[:, ::-1] > 0.0).argmax(axis=1)
        fathers[r, i] = np.where(hit[:, -1], hit.argmax(axis=1), top)
    return mothers, fathers


def crossover(mothers: np.ndarray, fathers: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Breed one offspring per row of the ``(R, n, 2)`` parent gene arrays
    with the ``(R, n, 4)`` uniforms ``u``: columns 0–1 are per-gene coins,
    columns 2–3 blend weights.

    A gene whose coin falls below 0.5 blends convexly, ``gamma * mother + (1
    - gamma) * father``; the others copy the mother's gene.  Offspring
    therefore never leave the interval hull of their parents' genes.
    """
    coins, gammas = u[..., :2], u[..., 2:]
    blend = gammas * mothers + (1.0 - gammas) * fathers
    return np.where(coins < _CROSSOVER_PROB, blend, mothers)


def mutate(genes: np.ndarray, config: CgaConfig, u: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Add the ``noise`` (spread ``mutation_sigma``) to the ``(R, P, 2)``
    genes, ranked best-first, where their uniforms ``u`` fall below
    ``mutation_rate``, sparing each run's elite (row 0); results are clipped
    to ``[-1, 1]``.
    """
    mask = u < config.mutation_rate
    mask[:, 0] = False
    return np.where(mask, (genes + noise).clip(-1.0, 1.0), genes)


def _breed(
    pool: np.ndarray, pool_fitness: np.ndarray, config: CgaConfig, rngs: list
) -> np.ndarray:
    """The next ``(R, population, 2)`` genes of a stack of runs from their
    parent pools, ranked best-first: the survivors (the pool's first
    ``n_survivors``), then offspring of softmax-drawn parent pairs, all
    mutated except each run's elite (row 0).

    Run ``r`` draws ``6 k + 2 P`` uniforms from ``rngs[r]`` (``k``
    offspring, population ``P``), split into ``(k, 2)`` pairing, ``(k, 4)``
    crossover and ``(P, 2)`` mutation draws, then ``(P, 2)`` normals.
    """
    size, n_survivors, runs = config.population, config.n_survivors, len(rngs)
    k = size - n_survivors
    uniform, noise = np.empty((runs, 6 * k + 2 * size)), np.empty((runs, size, 2))
    for r, rng in enumerate(rngs):
        rng.random(out=uniform[r])
        noise[r] = rng.normal(0.0, config.mutation_sigma, (size, 2))
    mothers, fathers = pair(pool_fitness, uniform[:, : 2 * k].reshape(runs, k, 2))
    rows, cross = np.arange(runs)[:, None], uniform[:, 2 * k : 6 * k].reshape(runs, k, 4)
    offspring = crossover(pool[rows, mothers], pool[rows, fathers], cross)
    genes = np.concatenate([pool[:, :n_survivors], offspring], axis=1)
    return mutate(genes, config, uniform[:, 6 * k :].reshape(runs, size, 2), noise)


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
    runs = np.arange(n_runs)[:, None]
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
        pool, pool_fitness = genes[runs, parents], fitness[runs, parents]
        elite = pool_fitness[:, 0]
        better = ~(elite <= best_fitness)  # always in the first generation
        np.copyto(best_genes, pool[:, 0], where=better[:, None])
        np.copyto(best_fitness, elite, where=better)
        history[generation] = elite

        # the pool is ranked best-first: a worst-fitness second parent means
        # fewer than two feasible
        stuck = pool_fitness[:, 1] == WORST_FITNESS
        genes = np.empty_like(genes)
        bred = (~stuck).nonzero()[0]
        if bred.size:
            genes[bred] = _breed(pool[bred], pool_fitness[bred], config, [rngs[r] for r in bred])
        for r in stuck.nonzero()[0]:
            logger.info("re-seeding generation: fewer than two feasible parents")
            reseeds[r] += 1
            genes[r] = initialize(config, rngs[r])
            genes[r, 0] = best_genes[r]

    history = history.T.tolist()
    return [
        OptimizationResult(
            best_genes=tuple(best_genes[r].tolist()),
            best_fitness=float(best_fitness[r]),
            best_budget=None,
            fitness_history=history[r],
            evaluations=int(config.population * config.iterations),
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
    worst = np.full(row_totals.shape, WORST_FITNESS)

    def fitness(genes: np.ndarray) -> np.ndarray:
        eps = map_gene(genes, gene_totals).reshape(-1, 2)
        feasible, budget = reconstruct_sec(row_totals, eps[:, 0], eps[:, 1], family)
        scores = worst.copy()
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
