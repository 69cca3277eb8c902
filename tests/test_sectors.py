"""The DPO's a-parity sectors: when a walk holds tau on them, and that it
then ends in the bits of the one-sector layout."""

import dataclasses

import numpy as np
import pytest

import helpers
from contmeas import (EvolutionConfig, GeneratorStack, TestFunction,
                      TruncatedSpace, ValidationError, dpo_laser_field,
                      dpo_model, dpo_observables, duality_check, evolve,
                      model as model_module, oracle, trivial_model)
from contmeas import generator
from contmeas.model import _OperatorCache
from test_generator import _hand_built_members, _trivial_members


def _dpo(n_max, m_max, seed=3, horizon=1.0):
    rng = np.random.default_rng(seed)
    params = helpers.random_dpo_params(rng)
    return (dpo_model(params, TruncatedSpace(n_max, m_max)),
            dpo_observables(params, horizon),
            dpo_laser_field(params, horizon))


def _kappa(*rows, breaks=(0.0, 0.3, 0.7, 1.0)):
    """A test function of the DPO's three observables (photocounters 1
    and 2, homodyne 3) with one row of values per piece."""
    return TestFunction(breaks[:len(rows) + 1], rows)


COUNTING = _kappa([0.4, -0.7, 0.0], [1.1, 0.2, 0.0], [-0.3, 0.9, 0.0])
HOMODYNE = _kappa([0.4, -0.7, 0.5], [1.1, 0.2, 0.0], [-0.3, 0.9, 0.0])
LATER_HOMODYNE = _kappa([0.4, -0.7, 0.0], [1.1, 0.2, -0.8],
                        [-0.3, 0.9, 0.0])


def _vacuum(dim):
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _one_sector(model):
    """The same model without its grading: the one-sector layout."""
    return dataclasses.replace(model, grading=None)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.fixture
def applied(monkeypatch):
    """The shape of every state `_act` is applied to, in order."""
    shapes = []
    act = generator._act

    def recorded(X, ops, ws):
        shapes.append(X.shape)
        return act(X, ops, ws)

    monkeypatch.setattr(generator, "_act", recorded)
    return shapes


def _on_sectors(model, n):
    return (n,) + model.operators.sectors.member


@pytest.mark.parametrize("kappa, on", [(TestFunction.zero(3), True),
                                       (COUNTING, True),
                                       (HOMODYNE, False)],
                         ids=["plain", "counting", "homodyne"])
def test_dpo_runs_on_sectors_unless_an_odd_drift_row_is_live(applied, kappa,
                                                             on):
    # the plain run and a counting-only one meet the odd a-channel
    # operators only in sandwiches, and stay on the sectors throughout;
    # a homodyne component puts the odd channel 3 in the drift from the
    # first block on
    model, obs, field = _dpo(4, 3)
    stack = GeneratorStack(model, obs, field, [kappa])
    evolve(stack, _vacuum(model.space.dim), 1.0, EvolutionConfig(dt=0.05))
    dim = model.space.dim
    assert len(applied) == 4 * 20
    assert set(applied) == {_on_sectors(model, 1) if on else (1, dim, dim)}
    assert stack.sectors is None


def test_an_off_sector_entry_keeps_one_sector(applied):
    # a coherence between n = 0 and n = 1 is odd: the walk never packs
    model, obs, field = _dpo(4, 3)
    dim = model.space.dim
    rho0 = _vacuum(dim)
    rho0[0, 4] = rho0[4, 0] = 1e-3    # (n, m) = (0, 0) and (1, 0)
    evolve(GeneratorStack(model, obs, field, [COUNTING]), rho0, 1.0,
           EvolutionConfig(dt=0.05))
    assert set(applied) == {(1, dim, dim)}


@pytest.mark.parametrize("build", [_trivial_members, _hand_built_members],
                         ids=["trivial", "hand-built"])
def test_models_without_a_grading_have_one_sector(applied, build):
    model, obs, field, kappas, _ = build()
    assert model.grading is None and model.operators.sectors is None
    dim = model.space.dim
    stack = GeneratorStack(model, obs, field, kappas)
    evolve(stack, _vacuum(dim), 1.0,
           EvolutionConfig(dt=0.05, contractivity_check="off"))
    assert set(applied) <= {(len(kappas), dim, dim)}
    assert trivial_model(3).operators.sectors is None


def test_homodyne_in_a_later_segment_merges_once(applied):
    # the first segment runs on the sectors; the homodyne component of
    # the second puts tau on one block at that segment's first step, and
    # it stays there when the third is counting-only again
    model, obs, field = _dpo(4, 3)
    dim = model.space.dim
    config = EvolutionConfig(dt=0.05)
    stack = GeneratorStack(model, obs, field, [LATER_HOMODYNE])
    graded = evolve(stack, _vacuum(dim), 1.0, config)
    first = 4 * stack.segments(1.0)[0][1] / 0.05
    assert applied == ([_on_sectors(model, 1)] * round(first)
                       + [(1, dim, dim)] * (80 - round(first)))
    plain = evolve(GeneratorStack(_one_sector(model), obs, field,
                                  [LATER_HOMODYNE]),
                   _vacuum(dim), 1.0, config)
    for part in ("final", "trace", "max_abs_trace"):
        assert np.array_equal(_bits(getattr(graded, part)),
                              _bits(getattr(plain, part))), part


@pytest.mark.parametrize("block", [5, 6])
def test_a_merge_inside_a_step_keeps_the_bits(monkeypatch, applied, block):
    # the second weight block of 5 or 6 stage times starts at the middle
    # or at the end of the third step; when the stack leaves its sectors
    # there, that whole step is applied on one block, and the run ends
    # in the bits of the one-sector run
    model, obs, field = _dpo(4, 3)
    dim = model.space.dim
    keeps = _OperatorCache.keeps_sectors
    calls = []

    def second_block_leaves(self, *live):
        calls.append(None)
        return len(calls) < 2 and keeps(self, *live)

    monkeypatch.setattr(generator, "BLOCK", block)
    monkeypatch.setattr(_OperatorCache, "keeps_sectors", second_block_leaves)
    config = EvolutionConfig(dt=0.05)
    graded = evolve(GeneratorStack(model, obs, field, [COUNTING]),
                    _vacuum(dim), 0.3, config)
    assert applied == [_on_sectors(model, 1)] * 8 + [(1, dim, dim)] * 16
    monkeypatch.setattr(_OperatorCache, "keeps_sectors", keeps)
    plain = evolve(GeneratorStack(_one_sector(model), obs, field,
                                  [COUNTING]), _vacuum(dim), 0.3, config)
    assert np.array_equal(_bits(graded.final), _bits(plain.final))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("cutoffs", [(2, 2), (4, 3), (12, 8)],
                         ids=["dim9", "dim20", "dim117"])
def test_sector_runs_end_in_the_one_sector_bits(monkeypatch, cutoffs, n):
    # forward runs of n members, the dual stack's forward run and the
    # backward walk of `duality_check` on the dual stack all run on the
    # sectors and end in the bits of the same runs without the grading
    model, obs, field = _dpo(*cutoffs, horizon=0.4)
    kappas = [TestFunction.zero(3), COUNTING,
              _kappa([0.0, 1.3, 0.0], breaks=(0.1, 0.3))][:n]
    dim = model.space.dim
    rho0 = helpers.random_density(dim, np.random.default_rng(5))
    rho0[_on_sectors_mask(model)] = 0.0
    config = EvolutionConfig(dt=0.04)
    walks = []
    walk = oracle._walk

    def recorded(stack, segs, tau, *args):
        result = walk(stack, segs, tau, *args)
        walks.append(result[0])
        return result

    monkeypatch.setattr(oracle, "_walk", recorded)
    held = []
    hold = GeneratorStack.hold
    monkeypatch.setattr(GeneratorStack, "hold", lambda self, sectors: (
        held.append(sectors is not None), hold(self, sectors))[1])
    results = {}
    for graded in (True, False):
        own = model if graded else _one_sector(model)
        stack = GeneratorStack(own, obs, field, kappas)
        ctx = GeneratorStack(own, obs, field, kappas[:1])
        results[graded] = [evolve(stack, rho0, 0.4, config),
                           evolve(stack.dual(), np.eye(dim), 0.4, config),
                           duality_check(ctx, rho0, np.eye(dim), 0.4,
                                         config)]
        assert any(held) == graded
        held.clear()
    for got, want in zip(*results.values()):
        if isinstance(got, dict):
            assert got == want
        else:
            for part in ("final", "trace", "max_abs_trace"):
                assert np.array_equal(_bits(getattr(got, part)),
                                      _bits(getattr(want, part))), part
    assert np.array_equal(_bits(walks[0]), _bits(walks[1]))


def _on_sectors_mask(model):
    """True at the entries of a (dim, dim) matrix off the sectors."""
    odd = model.grading
    return odd[:, None] != odd


def test_a_grading_of_the_wrong_shape_is_refused():
    model = dpo_model(helpers.random_dpo_params(np.random.default_rng(2)),
                      TruncatedSpace(1, 1))
    with pytest.raises(ValidationError, match="one entry per basis state"):
        dataclasses.replace(model, grading=np.zeros(3, dtype=bool))


@pytest.mark.parametrize("wrong", [lambda space: (
    np.arange(space.dim) % (space.m_max + 1) % 2 == 1), lambda space: (
    np.arange(space.dim) // (space.m_max + 1) // 2 % 2 == 1)],
                         ids=["b-parity", "n-div-2-parity"])
def test_a_dpo_model_with_a_wrong_grading_is_refused(monkeypatch, wrong):
    # the b-parity leaves K odd (a^dag^2 b); the parity of n // 2 splits
    # a's entries between even and odd
    params = helpers.random_dpo_params(np.random.default_rng(2))
    monkeypatch.setattr(model_module, "_a_parity", wrong)
    with pytest.raises(ValidationError, match="grading"):
        dpo_model(params, TruncatedSpace(4, 3))
