"""Continuous genetic algorithm over normalized budget-split genes.

A chromosome is a pair of genes in ``[-1, 1]`` encoding the two free budget
components (estimation and correctness shares); the secrecy share is whatever
the total leaves over.  A population is a ``(P, 2)`` gene array scored by a
length-``P`` fitness vector.  Selection is elitist and softmax-weighted,
crossover blends genes convexly, and mutation adds clipped Gaussian noise.
:func:`run` is the one generational loop.  It advances one run, or several
as an ``(R, P, 2)`` stack, and its only seam is the ``rate`` callable over
budgets: each generation of the stack is scored in one call, which rates the
feasible splits of every run as one batch budget, each row with its own
run's total.  Infeasible splits are not errors: they score the worst-fitness
marker ``-inf`` and are simply never selected while anything feasible
exists.

Determinism: every run consumes its own ``numpy`` generator, keyed by the
seed and its total's value (see :func:`run`), in a fixed stream order — one
uniform block for initialization, then per generation one uniform block,
split into the pairing, crossover and mutation-mask draws, and one normal
block of mutation noise (or, in a generation that must be re-seeded, one
uniform block).  Fitness evaluation draws nothing, so a seeded run gives the
same result however evaluations are scheduled or runs are stacked.
Probabilities are normalized by sequential left-to-right sums
(``np.cumsum``), not by the builtin ``sum``, which is compensated from
Python 3.12 on, so the stream does not depend on the interpreter version.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .budget import EpsilonBudget, Family, check_fields, fits, map_gene, reconstruct_sec

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
]

logger = logging.getLogger(__name__)

#: Ordered sentinel below any finite rate; the score of an infeasible split.
WORST_FITNESS = float("-inf")

#: Per-gene probability that crossover blends instead of copying the mother.
_CROSSOVER_PROB = 0.5

#: Per-gene probability that a chromosome other than the elite is mutated.
_MUTATION_RATE = 0.5

#: Spread of the mutation noise on the normalized gene scale.
_MUTATION_SIGMA = 0.2


@dataclass(frozen=True)
class CgaConfig:
    """Size, length and seed of the genetic search.

    The tuning is the paper's and fixed: the better half of each generation
    is the parent pool and survives whole; offspring of softmax-drawn parent
    pairs refill the population, each gene blending with probability 0.5;
    and every chromosome but the elite mutates each gene with probability
    0.5, by Gaussian noise of spread 0.2 on the normalized scale.  Defaults
    are those of all shipped experiments: population 200, 300 generations.
    """

    population: int = 200
    iterations: int = 300
    rng_seed: int | None = None

    def __post_init__(self) -> None:
        check_fields(self, lambda: [
            # a pool of half the population must hold two parents
            (self.population >= 4, "population must hold at least four chromosomes"),
            (self.iterations >= 1, "iterations must be positive"),
            fits("population", "gene array", self.population, 2),
            fits("iterations", "fitness history", self.iterations),
            (
                self.rng_seed is None or self.rng_seed >= 0,
                f"rng_seed must be a non-negative integer, got {self.rng_seed!r}",
            ),
        ])


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one genetic run, in plain Python floats.

    ``fitness_history`` records the best fitness of each generation's
    evaluated population; elitism makes it non-decreasing.  ``evaluations``
    counts chromosome scorings (population size times generations);
    ``reseeds`` counts generations whose parent pool collapsed below two
    feasible chromosomes and had to be re-drawn.
    """

    best_fitness: float
    best_budget: EpsilonBudget | None
    fitness_history: list[float] = field(repr=False)
    evaluations: int = 0
    reseeds: int = 0


def initialize(config: CgaConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw the starting ``(population, 2)`` genes uniformly over the square."""
    return rng.uniform(-1.0, 1.0, size=(config.population, 2))


def select(fitness: np.ndarray) -> np.ndarray:
    """Return the parent pool as indices into ``fitness``: the better half
    of a best-first ranking, in which equal fitness keeps the original
    (stable) order.  A stack of runs, one fitness row each, is ranked row by
    row.
    """
    fitness = np.asarray(fitness, dtype=float)
    return (-fitness).argsort(axis=-1, kind="stable")[..., : fitness.shape[-1] // 2]


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


def mutate(genes: np.ndarray, u: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Add the ``noise`` to the ``(R, P, 2)`` genes, ranked best-first, where
    their uniforms ``u`` fall below 0.5, sparing each run's elite (row 0);
    results are clipped to ``[-1, 1]``.
    """
    mask = u < _MUTATION_RATE
    mask[:, 0] = False
    return np.where(mask, (genes + noise).clip(-1.0, 1.0), genes)


def _breed(
    pool: np.ndarray, pool_fitness: np.ndarray, config: CgaConfig, rngs: list
) -> np.ndarray:
    """The next ``(R, population, 2)`` genes of a stack of runs from their
    parent pools, ranked best-first: the whole pool, then offspring of
    softmax-drawn parent pairs, all mutated except each run's elite (row 0).

    Run ``r`` draws ``6 k + 2 P`` uniforms from ``rngs[r]`` (``k``
    offspring, population ``P``), split into ``(k, 2)`` pairing, ``(k, 4)``
    crossover and ``(P, 2)`` mutation draws, then ``(P, 2)`` normals.
    """
    size, runs = config.population, len(rngs)
    k = size - pool.shape[1]
    uniform, noise = np.empty((runs, 6 * k + 2 * size)), np.empty((runs, size, 2))
    for r, rng in enumerate(rngs):
        rng.random(out=uniform[r])
        noise[r] = rng.normal(0.0, _MUTATION_SIGMA, (size, 2))
    mothers, fathers = pair(pool_fitness, uniform[:, : 2 * k].reshape(runs, k, 2))
    rows, cross = np.arange(runs)[:, None], uniform[:, 2 * k : 6 * k].reshape(runs, k, 4)
    offspring = crossover(pool[rows, mothers], pool[rows, fathers], cross)
    genes = np.concatenate([pool, offspring], axis=1)
    return mutate(genes, uniform[:, 6 * k :].reshape(runs, size, 2), noise)


def run(
    config: CgaConfig,
    total_eps: float | Sequence[float],
    family: Family,
    rate: Callable[[EpsilonBudget], float | np.ndarray],
) -> OptimizationResult | list[OptimizationResult]:
    """Optimize the split of ``total_eps`` against a key-rate function.

    One total gives one result, a sequence of totals a list.  Each run draws
    only from its own generator, keyed ``[seed, bits, k]``: ``config.rng_seed``,
    its total's IEEE 754 bit pattern as a ``uint64`` and ``k``, the count of
    earlier runs of the call with that total (no seed: fresh entropy).  So a
    result equals ``run`` at its total alone, or run ``k`` of ``k + 1`` repeats.

    The runs are stacked as ``(R, population, 2)`` genes, mapped linearly
    onto ``[component floor, total]``.  Each generation maps them onto
    splits and makes one ``rate`` call, on a batch budget holding the
    feasible splits of every run, each row with its own run's total;
    ``rate`` returns their rates (an array, or one number for all).  Splits
    whose secrecy remainder falls below the floor and NaN rates score
    :data:`WORST_FITNESS`, so selection discards them without aborting a
    run; anything ``rate`` raises propagates.  Then: rank, record each run's
    elite, select the parent pool (which survives whole), draw all pairs,
    breed offspring to refill each population, and mutate everything except
    each elite.  A run with fewer than two feasible parents is re-drawn over
    the whole gene square, its elite kept as row 0, and does not breed.  An
    elite is never mutated and stays first among equals, so the last one is
    the run's best split, the earliest on ties, if ``rate`` gives a split one
    rate in any batch (every package rate does).  It is resolved back into a
    budget (``None`` if the run never found a feasible split).
    """
    one = np.ndim(total_eps) == 0  # a scalar is a batch of one
    totals = np.atleast_1d(np.asarray(total_eps, dtype=float))
    seed, repeats = config.rng_seed, defaultdict(itertools.count)  # k of each total's runs
    keys = [[seed, bits, next(repeats[bits])] for bits in totals.view(np.uint64).tolist()]
    rngs = [np.random.default_rng(None if seed is None else key) for key in keys]
    n_runs = totals.size
    runs = np.arange(n_runs)[:, None]
    row_totals = np.repeat(totals, config.population)
    genes = np.stack([initialize(config, rng) for rng in rngs])
    history = np.empty((config.iterations, n_runs))
    reseeds = np.zeros(n_runs, dtype=int)

    for generation in range(config.iterations):
        eps = map_gene(genes.reshape(-1, 2), row_totals[:, None])
        feasible, budget = reconstruct_sec(row_totals, eps[:, 0], eps[:, 1], family)
        fitness = np.full(row_totals.shape, WORST_FITNESS)
        if budget is not None:
            fitness[feasible] = rate(budget)
        fitness = fitness.reshape(genes.shape[:2])
        fitness[np.isnan(fitness)] = WORST_FITNESS
        parents = select(fitness)
        pool, pool_fitness = genes[runs, parents], fitness[runs, parents]
        history[generation] = pool_fitness[:, 0]

        # the pool is ranked best-first: a worst-fitness second parent means
        # fewer than two feasible
        stuck = pool_fitness[:, 1] == WORST_FITNESS
        genes = np.empty_like(genes)
        bred = (~stuck).nonzero()[0]
        if bred.size:
            genes[bred] = _breed(pool[bred], pool_fitness[bred], config, [rngs[r] for r in bred])
        for r in stuck.nonzero()[0]:
            logger.info("run %d (total %s) re-seeds generation %d: fewer than two feasible "
                        "parents", r, totals[r], generation)
            reseeds[r] += 1
            genes[r] = initialize(config, rngs[r])
            genes[r, 0] = pool[r, 0]

    history = history.T.tolist()
    results = [
        OptimizationResult(
            best_fitness=history[r][-1],
            best_budget=None if history[r][-1] == WORST_FITNESS else reconstruct_sec(
                total, *map_gene(pool[r, 0], total).tolist(), family
            ),
            fitness_history=history[r],
            evaluations=int(config.population * config.iterations),
            reseeds=int(reseeds[r]),
        )
        for r, total in enumerate(totals.tolist())
    ]
    return results[0] if one else results
