import bisect
import functools
import itertools
import logging
import math
import operator

import numpy as np
import pytest

from qkdopt import cga
from qkdopt.budget import MAX_ARRAY_BYTES, Family, field_types, map_gene, reconstruct_sec
from qkdopt.cga import (
    WORST_FITNESS,
    CgaConfig,
    crossover,
    initialize,
    mutate,
    pair,
    run,
    select,
    softmax_probabilities,
)
from qkdopt.cv_rate import CvProtocolParams, cv_key_rate
from qkdopt.dv_rate import DvProtocolParams, dv_key_rate


def dv_rate_fn():
    params = DvProtocolParams()
    return lambda budget: dv_key_rate(params, budget).rate_bits_per_sec


def fixed_population(monkeypatch, *genes):
    """Make every (re-)initialization of a run draw exactly ``genes``."""
    monkeypatch.setattr(cga, "initialize", lambda config, rng: np.array(genes, dtype=float))
    return CgaConfig(population=len(genes), iterations=1, rng_seed=0)


def pair_one(fitness, n_pairs, rng):
    """``pair`` for one run: a stack of one pool, with ``rng``'s next
    ``(n_pairs, 2)`` uniforms."""
    u = np.asarray(rng.random((n_pairs, 2)), dtype=float)
    mothers, fathers = pair(np.asarray(fitness, dtype=float)[None], u[None])
    return mothers[0], fathers[0]


def crossover_one(mothers, fathers, rng):
    return crossover(mothers[None], fathers[None], rng.random((len(mothers), 4))[None])[0]


def mutate_one(genes, u, rng):
    """``mutate`` for one run, each gene masked where its ``u`` is below the
    mutation rate, with ``rng``'s next normals as the noise."""
    noise = rng.normal(0.0, cga._MUTATION_SIGMA, genes.shape)
    return mutate(genes[None], np.broadcast_to(u, genes.shape)[None], noise[None])[0]


def test_config_validation():
    # the parent pool, half the population, must hold two parents
    with pytest.raises(ValueError, match="population must hold at least four chromosomes"):
        CgaConfig(population=3)
    assert CgaConfig(population=4).population == 4
    for seed in (-3, 1.5, "7", True):
        with pytest.raises(ValueError, match="rng_seed"):
            CgaConfig(rng_seed=seed)
    assert CgaConfig(rng_seed=0).rng_seed == 0


@pytest.mark.parametrize("field, largest", [("population", 2**23), ("iterations", 2**24)])
def test_a_config_past_the_array_limit_is_refused(field, largest):
    # the gene array (population x 2 floats) and the history (iterations floats)
    # may take MAX_ARRAY_BYTES; past it the config is refused before a run allocates
    assert 8 * largest * (2 if field == "population" else 1) == MAX_ARRAY_BYTES
    assert getattr(CgaConfig(**{field: largest}), field) == largest
    for value in (largest + 1, 10**12):
        with pytest.raises(ValueError) as err:
            CgaConfig(**{field: value})
        assert str(err.value).startswith(f"{field} too large:")


def test_config_sets_only_size_length_and_seed():
    # the tuning is fixed in the module, not a field to set
    assert list(field_types(CgaConfig)) == ["population", "iterations", "rng_seed"]


@pytest.mark.parametrize("field", ["population", "iterations"])
@pytest.mark.parametrize("value", [20.0, True, "7"])
def test_config_counts_must_be_integers(field, value):
    # numpy cannot size a population or count generations with a float
    with pytest.raises(ValueError) as err:
        CgaConfig(**{field: value})
    assert str(err.value) == f"{field} must be an integer, got {value!r}"


def test_config_takes_numpy_integers():
    cfg = CgaConfig(population=np.int64(20), iterations=np.int64(3), rng_seed=np.int64(3))
    plain = CgaConfig(population=20, iterations=3, rng_seed=3)
    rate = dv_rate_fn()
    result = run(cfg, 1e-12, Family.DV, rate)
    assert result == run(plain, 1e-12, Family.DV, rate)
    assert type(result.evaluations) is int  # the result holds plain Python numbers


def test_initialize_ranges_and_determinism():
    cfg = CgaConfig(population=200)
    pop = initialize(cfg, np.random.default_rng(123))
    assert pop.shape == (200, 2)
    assert np.all((-1.0 <= pop) & (pop <= 1.0))
    # mean of 400 uniform genes: 5 sigma of the sample mean is ~0.14
    assert abs(float(np.mean(pop))) < 0.2
    again = initialize(cfg, np.random.default_rng(123))
    assert np.array_equal(again, pop)


def test_run_scores_feasibility_corners(monkeypatch):
    # genes (1, 1) put eps_pe and eps_cor on the total: no secrecy share left.
    # With one of the two parents feasible the generation re-seeds, and the
    # feasible corner (-1, -1) is the best.
    rate = dv_rate_fn()
    cfg = fixed_population(monkeypatch, (1.0, 1.0), (-1.0, -1.0), (1.0, 1.0), (1.0, 1.0))
    for family, total, fn in ((Family.CV, 1e-9, lambda b: 1.0), (Family.DV, 1e-17, rate)):
        result = run(cfg, total, family, fn)
        assert result.reseeds == 1
        corner = map_gene(np.array([-1.0, -1.0]), total).tolist()
        assert result.best_budget == reconstruct_sec(total, *corner, family)
        assert math.isfinite(result.best_fitness)
        assert result.best_budget is not None
        assert result.best_fitness == fn(result.best_budget)


def test_run_fitness_matches_direct_rate(monkeypatch):
    rate = dv_rate_fn()
    total = 1e-17
    cfg = fixed_population(monkeypatch, *[(-0.9, -0.95)] * 4)
    result = run(cfg, total, Family.DV, rate)
    eps_pe, eps_cor = map_gene(np.array([-0.9, -0.95]), total).tolist()
    budget = reconstruct_sec(total, eps_pe, eps_cor, Family.DV)
    assert result.best_budget == budget
    assert result.best_fitness == rate(budget)
    assert result.fitness_history == [rate(budget)]
    assert type(result.best_fitness) is float


def test_run_scores_nan_rates_worst(monkeypatch):
    def nan_rows(budget):
        return np.full(len(budget.eps_pe), float("nan"))

    cfg = fixed_population(monkeypatch, (-0.5, -0.5), (-0.4, -0.6), (-0.6, -0.4), (-0.3, -0.7))
    for fn in (nan_rows, lambda b: float("nan")):
        result = run(cfg, 1e-9, Family.CV, fn)
        assert result.best_fitness == WORST_FITNESS
        assert result.best_budget is None
        assert result.fitness_history == [WORST_FITNESS]
        assert result.reseeds == 1


def test_run_raises_for_a_rate_function_of_the_wrong_family():
    cfg = CgaConfig(population=20, iterations=5, rng_seed=1)
    with pytest.raises(ValueError, match="family must be DV"):
        run(cfg, 1e-9, Family.CV, dv_rate_fn())
    params = CvProtocolParams()
    with pytest.raises(ValueError, match="family must be CV"):
        run(cfg, 1e-17, Family.DV, lambda b: cv_key_rate(params, b).rate_bits_per_sec)


def test_run_below_the_floor_names_the_cause_in_one_line():
    # the library has no level check of its own: the budget layer's message
    # must name the total, not print the population's arrays
    cfg = CgaConfig(population=200, iterations=2, rng_seed=1)
    with pytest.raises(ValueError) as err:
        run(cfg, 1e-22, Family.DV, dv_rate_fn())
    message = str(err.value)
    assert "\n" not in message and len(message) < 200
    assert "1e-22" in message and "1e-21" in message


def test_run_above_one_names_the_total_in_one_line():
    cfg = CgaConfig(population=200, iterations=2, rng_seed=1)
    with pytest.raises(ValueError) as err:
        run(cfg, 1.5, Family.DV, dv_rate_fn())
    message = str(err.value)
    assert "\n" not in message and len(message) < 200
    assert "1.5" in message


@pytest.mark.parametrize("totals, shape", [([], "(0,)"), (np.array([[1e-9]]), "(1, 1)")])
def test_run_refuses_totals_of_the_wrong_shape_in_one_line(totals, shape):
    cfg = CgaConfig(population=20, iterations=2, rng_seed=1)
    with pytest.raises(ValueError) as err:
        run(cfg, totals, Family.DV, dv_rate_fn())
    assert str(err.value) == f"runs take one total or a 1-d list of totals, got shape {shape}"
    # a numpy scalar is one total, as a float is
    assert run(cfg, np.float64(1e-17), Family.DV, dv_rate_fn()) == run(
        cfg, 1e-17, Family.DV, dv_rate_fn())


def test_run_rates_each_generation_in_one_call():
    calls = []
    rate = dv_rate_fn()

    def counting(budget):
        calls.append(np.size(budget.eps_pe))
        return rate(budget)

    cfg = CgaConfig(population=30, iterations=12, rng_seed=5)
    result = run(cfg, 1e-17, Family.DV, counting)
    assert result.reseeds == 0
    assert len(calls) == 12
    # only feasible rows reach the rate function
    assert all(0 < n <= 30 for n in calls) and sum(calls) < 30 * 12


#: A stack of DV totals.  3e-21 leaves a feasible split only at the floor
#: corner, so its run re-seeds; 2e-15 is rated NaN throughout; 1e-18 is
#: listed twice, so its second run is that total's first repeat.
_STACK = (1e-18, 3e-21, 1e-12, 2e-15, 1e-18, 1e-6)
_NAN_TOTAL = 2e-15


def _nan_at_one_level(rate):
    def rate_fn(budget):
        return np.where(budget.total == _NAN_TOTAL, np.nan, rate(budget))

    return rate_fn


def test_lockstep_runs_equal_their_runs_alone():
    cfg = CgaConfig(population=24, iterations=15, rng_seed=3)
    calls = []
    rate = _nan_at_one_level(dv_rate_fn())

    def counting(budget):
        calls.append(np.size(budget.eps_pe))
        return rate(budget)

    stacked = run(cfg, _STACK, Family.DV, counting)
    assert len(calls) == cfg.iterations  # one rate call per generation for all runs
    # a run is keyed by its total's value: the first run of a total is that
    # total's run alone, and its k-th repeat is run k of k + 1 copies of it
    for i, (total, got) in enumerate(zip(_STACK, stacked)):
        k = _STACK[:i].count(total)
        if k:
            want = run(cfg, [total] * (k + 1), Family.DV, rate)[k]
        else:
            want = run(cfg, total, Family.DV, rate)
        assert got.best_fitness == want.best_fitness, total
        assert got.best_budget == want.best_budget, total
        assert got.fitness_history == want.fitness_history, total
        assert got.reseeds == want.reseeds, total
        assert got.evaluations == want.evaluations, total
        # the elite is never mutated and stays first among equals, so the last
        # generation's elite is the run's best: its fitness ends the history, no
        # generation rated higher, and its budget, rated alone, gives it
        assert got.best_fitness == got.fitness_history[-1] == max(got.fitness_history), total
        if got.best_budget is None:
            assert got.best_fitness == WORST_FITNESS, total
        else:
            assert got.best_fitness == float(rate(got.best_budget)), total
            components = got.best_budget.eps_pe, got.best_budget.eps_cor
            assert got.best_budget == reconstruct_sec(total, *components, Family.DV), total
    by_total = dict(zip(_STACK, stacked))
    assert by_total[3e-21].reseeds > 0 and by_total[_NAN_TOTAL].reseeds == cfg.iterations
    assert by_total[_NAN_TOTAL].best_budget is None
    assert by_total[1e-6].reseeds == 0 and by_total[1e-6].best_budget is not None
    assert stacked[0].best_budget != stacked[4].best_budget


def test_lockstep_of_one_is_run():
    cfg = CgaConfig(population=20, iterations=10, rng_seed=3)
    rate = dv_rate_fn()
    (stacked,) = run(cfg, [1e-17], Family.DV, rate)
    assert stacked == run(cfg, 1e-17, Family.DV, rate)


def test_a_reseed_is_logged_with_its_run_total_and_generation(caplog):
    # at 3e-21 only the floor corner is feasible: the first generation of the
    # second run holds no feasible pair and is re-drawn
    cfg = CgaConfig(population=8, iterations=1, rng_seed=0)
    with caplog.at_level(logging.INFO, logger="qkdopt.cga"):
        results = run(cfg, [1e-12, 3e-21], Family.DV, dv_rate_fn())
    assert [result.reseeds for result in results] == [0, 1]
    assert [record.getMessage() for record in caplog.records] == [
        "run 1 (total 3e-21) re-seeds generation 0: fewer than two feasible parents"
    ]


def test_select_counts():
    fitness = np.arange(200.0)
    parents = select(fitness)
    assert len(parents) == 100
    assert fitness[parents[0]] == 199
    # a stack of runs: each row keeps the better half of its own row
    parents = select(np.array([[1.0, 3.0, 2.0, 0.0], [0.0, 1.0, 2.0, 3.0]]))
    assert parents.tolist() == [[1, 2], [3, 2]]


def test_breed_keeps_the_ranked_survivors(monkeypatch):
    # two runs, each pool ranked best-first; the whole pool survives
    pool = np.random.default_rng(11).uniform(-0.5, 0.5, size=(2, 4, 2))
    pool_fitness = np.array([[4.0, 3.0, 2.0, 1.0], [9.0, 8.0, 7.0, 6.0]])
    cfg = CgaConfig(population=8)
    # no uniform below the mutation rate: nothing mutates
    monkeypatch.setattr(cga, "mutate", lambda genes, u, noise: mutate(genes, u + 1.0, noise))
    genes = cga._breed(pool, pool_fitness, cfg, [np.random.default_rng(s) for s in (1, 2)])
    assert genes.shape == (2, 8, 2)
    assert np.array_equal(genes[:, :4], pool)
    # mutating every gene still spares each run's elite, the pool's best
    monkeypatch.setattr(cga, "mutate", lambda genes, u, noise: mutate(genes, u * 0.0, noise))
    genes = cga._breed(pool, pool_fitness, cfg, [np.random.default_rng(s) for s in (1, 2)])
    assert np.array_equal(genes[:, 0], pool[:, 0])
    assert not np.isclose(genes[:, 1], pool[:, 1]).any()


def test_select_stable_ties():
    parents = select(np.full(6, 5.0))
    assert parents.tolist() == [0, 1, 2]
    parents = select(np.array([1.0, 5.0, 1.0, 5.0, 5.0, 1.0]))
    assert parents.tolist() == [1, 3, 4]


def test_select_prefers_finite_over_worst():
    fitness = np.array(
        [WORST_FITNESS, 1.0, WORST_FITNESS, 2.0, 3.0, WORST_FITNESS, 4.0, WORST_FITNESS]
    )
    parents = select(fitness)
    assert parents.tolist() == [6, 4, 3, 1]


def test_softmax_properties():
    probs = softmax_probabilities([0.3, 0.7, WORST_FITNESS, 0.5])
    assert sum(probs) == pytest.approx(1.0, abs=1e-12)
    assert probs[2] == 0.0
    assert all(p >= 0.0 for p in probs)
    assert softmax_probabilities([5.0, 5.0, 5.0]) == pytest.approx([1 / 3] * 3)
    for row in ([WORST_FITNESS, WORST_FITNESS], [math.inf, math.inf]):
        with pytest.raises(ValueError, match="no finite-fitness chromosomes"):
            softmax_probabilities(row)


def test_softmax_normalizes_left_to_right():
    # Python 3.12's builtin sum is compensated (like math.fsum); the weights
    # must be normalized by the plain left-to-right sum on every version.
    fitness = np.random.default_rng(3).uniform(0.0, 50.0, size=100)
    lo, hi = fitness.min(), fitness.max()
    weights = [math.exp((f - lo) / (hi - lo)) for f in fitness.tolist()]
    norm = functools.reduce(operator.add, weights)
    assert math.fsum(weights) != norm
    assert softmax_probabilities(fitness).tolist() == [w / norm for w in weights]


def test_softmax_calls_math_exp_per_weight():
    # numpy's SIMD exp rounds a few in 100 of these weights differently
    fitness = np.random.default_rng(4).uniform(-3.0, 7.0, size=100_000)
    lo, hi = fitness.min(), fitness.max()
    weights = [math.exp((f - lo) / (hi - lo)) for f in fitness.tolist()]
    norm = functools.reduce(operator.add, weights)
    assert softmax_probabilities(fitness).tolist() == [w / norm for w in weights]


def test_pair_equal_fitness_is_symmetric():
    rng = np.random.default_rng(11)
    trials = 10_000
    mothers, fathers = pair_one(np.array([7.0, 7.0]), trials, rng)
    assert np.all(mothers != fathers)
    # Bernoulli(1/2): 3 sigma of the frequency is 0.015
    assert abs(np.count_nonzero(mothers == 0) / trials - 0.5) < 0.015


def test_pair_softmax_closed_form():
    # normalized fitness {1, 0, 0, 0, 0}: the top parent is drawn as mother
    # with probability e / (e + 4)
    rng = np.random.default_rng(13)
    trials = 100_000
    mothers, fathers = pair_one(np.array([10.0, 4.0, 4.0, 4.0, 4.0]), trials, rng)
    assert np.all(mothers != fathers)
    hits = np.count_nonzero(mothers == 0)
    p = math.e / (math.e + 4.0)
    sigma = math.sqrt(p * (1.0 - p) / trials)
    assert abs(hits / trials - p) < 3.0 * sigma


def test_pair_needs_two_selectable():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        pair_one(np.array([1.0, WORST_FITNESS, WORST_FITNESS]), 3, rng)


def units(probs):
    """Integer pairing weights: each probability in whole units of 2^-40."""
    return [int(p * 2**40) for p in probs]


def test_pair_matches_sequential_inverse_cdf():
    # one (n, 2) block: row i is pair i's mother draw, then its father draw,
    # each the first index whose left-to-right cumulative weight, summed in
    # Python ints, exceeds the draw scaled to the weights' sum
    fitness = np.array([3.0, WORST_FITNESS, 1.0, 2.5, 2.0, WORST_FITNESS])
    mothers, fathers = pair_one(fitness, 500, np.random.default_rng(43))
    u = np.random.default_rng(43).random((500, 2))

    def draw(weights, x):
        t, acc = math.floor(x * sum(weights)), 0  # sums exact in ints
        for i, w in enumerate(weights):
            acc += w
            if t < acc:
                return i

    weights = units(softmax_probabilities(fitness).tolist())
    for i in range(500):
        assert mothers[i] == draw(weights, u[i, 0])
        conditional = list(weights)
        conditional[mothers[i]] = 0
        assert fathers[i] == draw(conditional, u[i, 1])
    assert set(mothers.tolist()) | set(fathers.tolist()) == {0, 2, 3, 4}


def test_pair_rounding_slack_falls_back_to_last_selectable():
    class Top:
        def random(self, size):
            return np.full(size, 1.0 - 2.0**-53)  # the largest uniform rng.random gives

    # even at the largest uniform, u * S rounds to below S: the draw stays in
    # range and picks the last selectable parent, never a trailing
    # worst-fitness one
    mothers, fathers = pair_one(np.array([2.0, 1.0, 3.0, WORST_FITNESS]), 4, Top())
    assert mothers.tolist() == [2] * 4
    assert fathers.tolist() == [1] * 4


def test_pair_is_exact_on_every_conditional_cdf_value():
    # mother draws sit on every boundary C_j / S of a run's integer CDF and
    # one ulp either side of it; for every mother, father draws sit on every
    # boundary of her conditional CDF and one ulp either side, where a float
    # rule would round either way.  pair must give the mother and father that
    # the rule gives in Python ints: the first index whose cumulative weight
    # exceeds floor(x * S), S the weights' sum
    def first_above(cdf, x):
        return bisect.bisect_right(cdf, math.floor(x * cdf[-1]))

    def near_boundaries(cdf):
        edges = (c / cdf[-1] for c in [0, *cdf])
        near = {x for e in edges for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0))}
        return sorted(x for x in near if 0.0 <= x < 1.0)

    rng = np.random.default_rng(17)
    for n in (2, 3, 20, 100):
        random = rng.uniform(0.0, 50.0, n)
        dominant = np.ones(n)
        dominant[n // 2] = 1e9  # the softmax's largest weight ratio, e to 1
        zeros = rng.uniform(0.0, 50.0, n)
        zeros[2::3] = WORST_FITNESS
        fitness = np.stack([random, dominant, zeros])
        cases = []
        for weights in map(units, softmax_probabilities(fitness).tolist()):
            run, mothers = [], set()
            cdf = list(itertools.accumulate(weights))
            for x in near_boundaries(cdf):
                m = first_above(cdf, x)
                conditional = list(itertools.accumulate(weights[:m] + [0] + weights[m + 1 :]))
                for y in [0.5] if m in mothers else near_boundaries(conditional):
                    run.append((x, y, m, first_above(conditional, y)))
                mothers.add(m)
            assert mothers == {i for i, w in enumerate(weights) if w > 0}
            cases.append(run)
        size = max(map(len, cases))
        cases = [list(itertools.islice(itertools.cycle(run), size)) for run in cases]
        u = np.array([[case[:2] for case in run] for run in cases])
        mothers, fathers = pair(fitness, u)
        assert mothers.tolist() == [[case[2] for case in run] for run in cases]
        assert fathers.tolist() == [[case[3] for case in run] for run in cases]


def test_crossover_identical_parents():
    rng = np.random.default_rng(17)
    parents = np.tile([0.25, -0.75], (50, 1))
    child = crossover_one(parents, parents, rng)
    assert np.array_equal(child, parents)


def test_crossover_hull_containment():
    rng = np.random.default_rng(23)
    mothers = rng.uniform(-1.0, 1.0, size=(500, 2))
    fathers = rng.uniform(-1.0, 1.0, size=(500, 2))
    child = crossover_one(mothers, fathers, rng)
    lo = np.minimum(mothers, fathers)
    hi = np.maximum(mothers, fathers)
    assert np.all((lo - 1e-12 <= child) & (child <= hi + 1e-12))


def test_crossover_mother_copy_rate():
    rng = np.random.default_rng(29)
    trials = 10_000
    mothers = np.full((trials, 2), 0.5)
    child = crossover_one(mothers, np.full((trials, 2), -0.5), rng)
    copies = np.count_nonzero(child == mothers)
    # per-gene copy probability 1/2 (a blend hits the mother's gene exactly
    # only at gamma = 1, probability zero); 3 sigma over 2e4 genes is 0.011
    assert abs(copies / (2 * trials) - 0.5) < 0.011


def test_crossover_consumes_coins_then_gammas():
    mothers = np.array([[0.5, -0.5], [0.25, 0.75], [-1.0, 1.0]])
    fathers = np.array([[-0.5, 0.5], [1.0, -1.0], [0.0, 0.0]])
    rng = np.random.default_rng(47)
    child = crossover_one(mothers, fathers, rng)
    draws = np.random.default_rng(47).random((3, 4))
    for i in range(3):
        for j in range(2):
            coin, gamma = draws[i, j], draws[i, 2 + j]
            blend = gamma * mothers[i, j] + (1.0 - gamma) * fathers[i, j]
            assert child[i, j] == (blend if coin < 0.5 else mothers[i, j])
    # the stream moved on by exactly one (3, 4) block
    assert rng.random() == np.random.default_rng(47).random(13)[-1]


def test_mutate_zero_rate_is_identity():
    # every uniform at or above the rate: no gene is masked
    cfg = CgaConfig(population=10)
    rng = np.random.default_rng(31)
    population = initialize(cfg, rng)
    out = mutate_one(population, cga._MUTATION_RATE, rng)
    assert np.array_equal(out, population)


def test_mutate_spares_elite_and_hits_everyone_else():
    rng = np.random.default_rng(37)
    population = np.zeros((50, 2))
    out = mutate_one(population, 0.0, rng)
    assert out[0].tolist() == [0.0, 0.0]
    assert np.all(out[1:] != 0.0)
    assert np.all((-1.0 <= out) & (out <= 1.0))
    assert np.array_equal(population, np.zeros((50, 2)))


def test_each_generation_draws_one_uniform_then_one_normal_block(monkeypatch):
    # two runs, one generation: the bred run draws its pairing, crossover and
    # mutation-mask uniforms as one block, then its noise; the re-seeded run
    # (no feasible chromosome) draws only a fresh population
    cfg = CgaConfig(population=10, iterations=1, rng_seed=5)
    size, k = cfg.population, cfg.population - cfg.population // 2
    default_rng, made = np.random.default_rng, []

    def capturing(key):  # the generators run makes, with their keys
        made.append((key, default_rng(key)))
        return made[-1][1]

    monkeypatch.setattr(np.random, "default_rng", capturing)

    def rate(budget):  # finite on the first run's rows, NaN on the second's
        return np.where(budget.total == 1e-12, budget.eps_pe, np.nan)

    results = run(cfg, [1e-12, 1e-10], Family.DV, rate)
    assert [result.reseeds for result in results] == [0, 1]
    bits = np.array([1e-12, 1e-10]).view(np.uint64).tolist()
    assert [key for key, _ in made] == [[5, bits[0], 0], [5, bits[1], 0]]
    bred, reseeded = (default_rng(key) for key, _ in made)
    initialize(cfg, bred)
    bred.random(6 * k + 2 * size)
    bred.normal(size=(size, 2))
    initialize(cfg, reseeded)
    initialize(cfg, reseeded)
    assert made[0][1].bit_generator.state == bred.bit_generator.state
    assert made[1][1].bit_generator.state == reseeded.bit_generator.state


def on_shares(landscape):
    """A rate that is ``landscape`` of each split's estimation and
    correctness shares of its total."""
    return lambda budget: landscape(budget.eps_pe / budget.total, budget.eps_cor / budget.total)


def test_run_genetic_quadratic_convergence():
    # separable concave landscape with its peak inside the feasible triangle
    def quad(pe, cor):
        return -((pe - 0.3) ** 2) - (cor - 0.2) ** 2

    total = 1e-12
    for seed in range(10):
        best = run(CgaConfig(rng_seed=seed), total, Family.DV, on_shares(quad)).best_budget
        assert abs(best.eps_pe - 0.3 * total) < 0.01 * total
        assert abs(best.eps_cor - 0.2 * total) < 0.01 * total


def test_run_genetic_constant_landscape():
    cfg = CgaConfig(population=20, iterations=15, rng_seed=41)
    result = run(cfg, 1e-12, Family.DV, on_shares(lambda pe, cor: np.full(len(pe), 3.25)))
    assert result.fitness_history == [3.25] * 15
    assert result.best_fitness == 3.25


def test_run_genetic_history_non_decreasing():
    def bumpy(pe, cor):
        return np.sin(7.0 * pe) + np.cos(5.0 * cor)

    for seed in (1, 2, 3):
        cfg = CgaConfig(population=30, iterations=40, rng_seed=seed)
        history = run(cfg, 1e-12, Family.DV, on_shares(bumpy)).fitness_history
        assert len(history) == 40
        assert all(b >= a for a, b in zip(history, history[1:]))


def test_a_rate_of_the_wrong_length_raises():
    cfg = CgaConfig(population=20, iterations=2, rng_seed=0)
    with pytest.raises(ValueError):
        run(cfg, 1e-12, Family.DV, lambda budget: np.zeros(len(budget.eps_pe) + 1))


def test_run_deterministic_and_consistent():
    cfg = CgaConfig(population=40, iterations=30, rng_seed=99)
    rate = dv_rate_fn()
    first = run(cfg, 1e-17, Family.DV, rate)
    second = run(cfg, 1e-17, Family.DV, rate)
    assert first.best_budget == second.best_budget
    assert first.best_fitness == second.best_fitness
    assert first.fitness_history == second.fitness_history
    assert first.evaluations == 40 * 30
    # plain floats: serialized with repr, numpy scalars would print as np.float64(...)
    assert type(first.best_fitness) is float
    best = first.best_budget
    assert all(type(x) is float for x in (best.total, best.eps_pe, best.eps_cor, best.eps_sec))
    assert all(type(f) is float for f in first.fitness_history)
    # the reported fitness is exactly the rate of the reported budget
    assert first.best_budget is not None
    assert first.best_fitness == rate(first.best_budget)


def test_run_all_infeasible_returns_marker():
    def hopeless(budget):
        return np.full(len(budget.eps_pe), float("nan"))

    cfg = CgaConfig(population=10, iterations=5, rng_seed=7)
    result = run(cfg, 1e-17, Family.DV, hopeless)
    assert result.best_budget is None
    assert result.best_fitness == WORST_FITNESS
    assert result.reseeds == 5
