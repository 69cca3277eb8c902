import json
import pathlib

import numpy as np
import pytest
import scipy.sparse

import helpers
from contmeas import (Constant, DpoParams, EvolutionConfig, FieldProfile,
                      GeneratorContext, IntegrationError, ModelSpec,
                      ObservableSpec, SystemOperator, TestFunction,
                      TruncatedSpace, ValidationError, ZERO,
                      dpo_laser_field, dpo_model, dpo_observables, evolve,
                      generator_at, ladder_a, ladder_b, trivial_model)
from contmeas import generator
from contmeas.cli import Run
from contmeas.fock import csr_product
from contmeas.generator import (BLOCK, GeneratorStack,
                                context_is_piecewise_static, stage_generators,
                                stage_rows)
from contmeas.model import _OperatorCache
from contmeas.statistics import diffusive_axis, on_interval
from contmeas.oracle import _dense_superoperator


CONFIGS = pathlib.Path(__file__).parent.parent / "configs"


def build_setup(seed=0, n_max=4, m_max=3, horizon=2.0):
    rng = np.random.default_rng(seed)
    params = helpers.random_dpo_params(rng)
    model = dpo_model(params, TruncatedSpace(n_max, m_max))
    obs = dpo_observables(params, horizon)
    field = dpo_laser_field(params, horizon)
    return rng, params, model, obs, field


def random_kappa(rng, horizon, m=3):
    breaks = np.concatenate([[0.0], np.sort(rng.uniform(0.1, horizon - 0.1, 2)),
                             [horizon]])
    return TestFunction(breaks, rng.uniform(-1.5, 1.5, (3, m)))


def test_slow_assembly_agrees_with_weights():
    """The oracle's dense superoperator, assembled from the drift and
    channel formulas, must match the weight-based fast path entrywise."""
    rng, params, model, obs, field = build_setup(seed=2)
    kappa = random_kappa(rng, 2.0)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=kappa)
    dim = model.space.dim
    for t in (0.3, 0.9, 1.7):
        assert np.any(kappa.value(t))
        tau = helpers.random_hermitian(dim, rng)
        M = _dense_superoperator(model, obs, field, kappa, t)
        slow = (M @ tau.reshape(-1, order="F")).reshape(dim, dim, order="F")
        fast = generator_at(ctx, t).apply(tau[None])[0]
        assert np.max(np.abs(slow - fast)) < 1e-12


def test_adjoint_is_trace_dual():
    rng, params, model, obs, field = build_setup(seed=5)
    kappa = random_kappa(rng, 2.0)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=kappa)
    g = generator_at(ctx, 0.77)
    g_dual = generator_at(ctx.dual(), 0.77)
    dim = model.space.dim
    for _ in range(5):
        tau = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        X = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lhs = np.trace(X @ g.apply(tau[None])[0])
        rhs = np.trace(g_dual.apply_adjoint(X[None])[0] @ tau)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def _hand_built_context():
    """Five channels: a, a with one entry changed by 1e-9 (same pattern, not
    proportional), a + b, and multiples 2i a and -(a + b)/2 of the first
    and third; a counted on channels 1-2, a quadrature on 3-5."""
    space = TruncatedSpace(3, 2)
    a, b = ladder_a(space).to_dense(), ladder_b(space).to_dense()
    a_changed = a.copy()
    a_changed[tuple(np.argwhere(a)[3])] *= 1 + 1e-9
    R = tuple(SystemOperator(space, M) for M in
              (a, a_changed, a + b, 2j * a, -0.5 * (a + b)))
    K = SystemOperator(space, -(0.3 + 0.7j) * (a.T @ a) + 0.2 * (b.T @ a))
    model = ModelSpec(space=space, d=5, K=K, R=R, S=np.eye(5))
    h = ((ZERO,) * 5, (ZERO, ZERO, Constant(0.4 - 0.3j), Constant(0.2),
                       Constant(0.1j)))
    obs = ObservableSpec(m=2, d=5, horizon=1.0,
                         eigenvalues=[[1.0, 0.5, 0, 0, 0], [0] * 5], h=h,
                         b=(Constant(0.3), ZERO, ZERO, ZERO, Constant(0.2j)),
                         c=(ZERO, Constant(0.1)))
    field = FieldProfile((Constant(0.2 + 0.1j), ZERO, Constant(-0.3), ZERO,
                          Constant(0.05j)), 1.0)
    kappa = TestFunction([0.0, 1.0], [[0.7, -1.3]])
    return GeneratorContext(model=model, observables=obs, field=field,
                            kappa=kappa)


def _dpo_members():
    """The oscillator with its field window ending at 1.5 and three test
    functions stepping at 0.2, 0.9 and 1.3, one of them zero."""
    _, params, model, obs, _ = build_setup(seed=8)
    values = ([[0.5, -0.3, 0.8], [0.0, 0.0, -1.1]],
              [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
              [[-1.2, 0.4, 0.0], [0.3, 0.0, 2.5]])
    return (model, obs, dpo_laser_field(params, 1.5),
            [TestFunction([0.2, 0.9, 1.3], v) for v in values],
            [0.0, 0.2, 0.9, 1.3, 1.5, 2.0])


def _hand_built_members():
    """The five-channel model, whose weights fill every basis row, and
    three test functions on [0, 0.6], one of them zero."""
    ctx = _hand_built_context()
    values = ([[0.7, -1.3]], [[0.0, 0.0]], [[-0.4, 2.1]])
    return (ctx.model, ctx.observables, ctx.field,
            [TestFunction([0.0, 0.6], v) for v in values], [0.0, 0.6, 1.0])


def _stepping_context():
    """The oscillator with its field window ending at 1.5 and one test
    function stepping at 0.2, 0.9 and 1.3, inside the horizon 2."""
    _, params, model, obs, _ = build_setup(seed=4)
    return (model, obs, dpo_laser_field(params, 1.5),
            [TestFunction([0.2, 0.9, 1.3],
                          [[0.5, -0.3, 0.8], [0.0, 0.0, -1.1]])],
            [0.0, 0.2, 0.9, 1.3, 1.5, 2.0])


def _union_per_time(stack):
    """Entries of each kernel operator's data per stage time of `stack`
    on the whole union layout, the most that any live layout holds."""
    c = stack.model.operators
    return len(stack) * (c.basis.shape[1]
                         + sum(len(p[4]) for p in c.sandwich))


def _assert_same_operators(ops, ref):
    for op, ref_op in zip(ops, ref, strict=True):
        assert op[:2] == ref_op[:2]
        for a, b in zip(op[2:], ref_op[2:], strict=True):
            assert np.array_equal(a, b)


def test_stage_generators_match_one_point_assembly(monkeypatch):
    # on every segment, both ends included, across weight blocks, and
    # with sub-blocks of one stage time, several and all of them, the
    # batched assembly equals the one-point assembly at each time on that
    # segment bit for bit, on the stack and on its dual, and the dual's
    # weight rows are the forward ones with the drift parts exchanged;
    # for one member and for three
    for build in (_stepping_context, _dpo_members, _hand_built_members):
        for times_per_block in (1, 7, None):
            _check_stage_assembly(monkeypatch, build, times_per_block)


def _check_stage_assembly(monkeypatch, build, times_per_block):
    model, obs, field, kappas, edges = build()
    stack = GeneratorStack(model, obs, field, kappas)
    dual = stack.dual()
    n, d = len(stack), model.d
    drift = slice(0, 1 + 2 * d)   # of both weight rows
    per_time = _union_per_time(stack)
    monkeypatch.setattr(generator, "OPERAND_BUDGET",
                        10**9 if times_per_block is None
                        else times_per_block * per_time)
    rng = np.random.default_rng(4)
    dim = model.space.dim
    X = (rng.standard_normal((n, dim, dim))
         + 1j * rng.standard_normal((n, dim, dim)))
    segs = stack.segments(edges[-1])
    assert [lo for lo, _ in segs] == edges[:-1]
    for lo, hi in segs:
        inner = rng.uniform(lo, hi, BLOCK // n + 1 if lo == edges[1] else 40)
        times = np.concatenate(([lo], inner, [hi]))
        gens = list(stage_generators(stack, times, lo))
        adjoints = list(stage_generators(dual, times, lo))
        assert len(gens) == len(adjoints) == len(times)
        for k, (t, g, a) in enumerate(zip(times, gens, adjoints)):
            ref = next(stage_generators(stack, (t,), lo))
            ref_dual = next(stage_generators(dual, (t,), lo))
            for name in ("scalar", "left", "right"):
                assert np.array_equal(getattr(g, name), getattr(ref, name))
                assert np.array_equal(getattr(a, name),
                                      getattr(ref_dual, name))
            assert np.array_equal(a.scalar, ref.scalar)
            assert np.array_equal(a.left[:, drift], ref.right[:, drift])
            assert np.array_equal(a.right[:, drift], ref.left[:, drift])
            assert np.array_equal(a.left[:, -1], ref.left[:, -1])   # s
            assert np.array_equal(a.right[:, 1 + 2 * d:],
                                  ref.right[:, 1 + 2 * d:])         # w_g
            _assert_same_operators(g.ops, ref.ops)
            _assert_same_operators(a.ops, ref_dual.ops)
            if k % 16 == 0:
                assert np.array_equal(a.apply_adjoint(X),
                                      ref_dual.apply_adjoint(X))
                assert np.array_equal(g.apply(X), ref.apply(X))


def test_stage_generators_read_each_segment_at_its_start():
    # the end stage on a kappa step carries its own segment's kappa, and
    # the field is on up to the end of its window, that end included
    model, obs, field, (kappa,), _ = _stepping_context()
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=kappa)
    w_left = slice(1, 1 + model.d)            # in the rows of `left`
    mu = slice(1 + model.d, 1 + 2 * model.d)  # -S lam there
    for lo, hi in ctx.segments(2.0):
        gens = list(stage_generators(ctx, np.linspace(lo, hi, 9), lo))
        if hi in kappa.breakpoints():
            held = GeneratorContext(
                model=model, observables=obs, field=field,
                kappa=TestFunction([0.0, 2.0], [kappa.value(lo)]))
            assert np.array_equal(gens[-1].left,
                                  generator_at(held, hi).left)
            assert np.max(np.abs(gens[-1].left[0, w_left]
                                 - generator_at(ctx, hi).left[0, w_left])) \
                > 1e-3
        on = [np.any(g.left[0, mu]) for g in gens]
        assert on == [hi <= 1.5] * len(gens)


@pytest.mark.parametrize("dims", ["117-1", "20-129"])
def test_operand_sub_blocks_stay_in_budget(dims):
    # the data array that a sub-block's generators share holds at most
    # OPERAND_BUDGET entries, or one stage time's of the larger operator
    # if that alone is more, for one member at dim 117 and the 129 members
    # of the shipped dpo_homodyne sweep at dim 20, on the layout of the
    # block's live rows; each generator's data is a row view
    if dims == "117-1":
        rng, params, model, obs, field = build_setup(n_max=12, m_max=8)
        stack = GeneratorStack(model, obs, field, [random_kappa(rng, 2.0)])
    else:
        run = Run(json.loads((CONFIGS / "dpo_homodyne.json").read_text()))
        samples = diffusive_axis(run.run["kappa_max"], run.run["n_points"])
        kappas = on_interval(run.obs.m, run.observable(), run.t_end(),
                             samples[len(samples) // 2:])
        stack = GeneratorStack(run.model, run.obs, run.field, kappas)
    n, model = len(stack), stack.model
    assert (model.space.dim, n) == tuple(map(int, dims.split("-")))
    arrays = {}
    for own in (stack, stack.dual()):
        gens = list(stage_generators(own, np.linspace(0.0, 0.5, 21), 0.0))
        layout, = own.model.operators.layouts.values()
        sizes = (n * len(layout.left) + len(layout.fixed),
                 n * len(layout.right))
        assert max(sizes) <= _union_per_time(stack)
        for g in gens:
            for op, size in zip(g.ops, sizes, strict=True):
                data = op[-1]
                assert data.base is not None and data.base.ndim == 2
                assert data.base.shape[1] == data.size == size
                arrays[id(data.base)] = data.base
    assert all(a.size <= max(generator.OPERAND_BUDGET, a.shape[1])
               for a in arrays.values())
    assert sum(len(a) for a in arrays.values()) == 2 * 2 * 21


def _workload_members(name):
    """The benchmark workload `name` at seed 7: its model, observables
    and field, its test functions (the propagated half of the homodyne
    grid, which starts at kappa = 0, or the workload's own test function
    and a zero one on the same segments, whose weights are those of the
    plain run), and its end time."""
    run = Run(helpers.workload_config(name, 7))
    if name == "homodyne_dpo20":
        samples = diffusive_axis(run.run["kappa_max"], run.run["n_points"])
        kappas = on_interval(run.obs.m, run.observable(), run.t_end(),
                             samples[len(samples) // 2:])
    else:
        kappa = run.kappa
        kappas = [kappa, TestFunction(kappa.breaks,
                                      np.zeros_like(kappa.values))]
    return run.model, run.obs, run.field, kappas, run.t_end()


def _union_layouts(monkeypatch):
    """Lay every stack's kernel operators on the whole union layout, every
    entry of `pattern` and `right_pattern` kept, without the live rows'
    selection of `_OperatorCache.stacked`."""
    def union(self, n, live_left, live_right, sectored=False):
        return self.laid(n, np.arange(self.basis.shape[1]),
                         np.arange(self.right_basis.shape[1]), sectored)

    monkeypatch.setattr(_OperatorCache, "stacked", union)


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


LIVE_BUILDS = {
    "dim9": lambda: _workload_members("oracle_dpo9"),
    "dim20": lambda: _workload_members("homodyne_dpo20"),
    "dim117": lambda: _workload_members("charfunc_dpo117"),
    "dpo": lambda: _dpo_members()[:4] + (2.0,),
    "hand-built": lambda: _hand_built_members()[:4] + (1.0,),
}


@pytest.mark.parametrize("build", LIVE_BUILDS.values(), ids=LIVE_BUILDS)
def test_live_application_equals_union_application(monkeypatch, build):
    # on every segment, at both ends and inside, each stack, each of its
    # one-member stacks and their dual stacks apply their generators on
    # the entries their live rows reach with the bits, signed zeros
    # included, of the whole union layout; a zero X stays +0
    model, obs, field, kappas, t_end = build()
    whole = GeneratorStack(model, obs, field, kappas)
    stacks = [whole] + [GeneratorStack(model, obs, field, [k])
                        for k in kappas[:3]]
    stacks += [stack.dual() for stack in stacks]
    rng = np.random.default_rng(47)
    dim = model.space.dim
    smaller = 0
    for stack in stacks:
        n = len(stack)
        X = (rng.standard_normal((n, dim, dim))
             + 1j * rng.standard_normal((n, dim, dim)))
        for lo, hi in stack.segments(t_end):
            times = np.concatenate(([lo], rng.uniform(lo, hi, 2), [hi]))
            live = list(stage_generators(stack, times, lo))
            with monkeypatch.context() as patch:
                _union_layouts(patch)
                union = list(stage_generators(stack, times, lo))
            for g, ref in zip(live, union, strict=True):
                smaller += g.ops[1][-1].size < ref.ops[1][-1].size
                for Y in (X, np.zeros_like(X)):
                    got = _bits(g.apply(Y))
                    assert np.array_equal(got, _bits(ref.apply(Y)))
                assert not got.any()      # every entry +0 on a zero X
    assert smaller > 0


@pytest.mark.parametrize("name", ["oracle_dpo9", "homodyne_dpo20",
                                  "charfunc_dpo117"])
def test_mixed_stack_members_equal_their_own_runs(monkeypatch, name):
    # a stack mixing a kappa = 0 member with kappa != 0 members lays its
    # operators on the union of their live rows; each member still ends
    # in the bits of its own one-member run, on the smaller layout of its
    # own live rows for the kappa = 0 member
    model, obs, field, kappas, t_end = _workload_members(name)
    kappas = kappas[:4]
    zero = next(j for j, k in enumerate(kappas) if k.is_zero)
    entries = {}
    operands = generator._operands

    def recorded(stack, layout, left, right):
        entries.setdefault(id(stack), set()).add(
            len(layout.left) + len(layout.right))
        return operands(stack, layout, left, right)

    monkeypatch.setattr(generator, "_operands", recorded)
    config = EvolutionConfig(dt=helpers.workload_config(name, 7)
                             ["evolution"]["dt"])
    rho0 = np.zeros((model.space.dim,) * 2, dtype=complex)
    rho0[0, 0] = 1.0
    stack = GeneratorStack(model, obs, field, kappas)
    together = evolve(stack, rho0, t_end, config)
    for j, kappa in enumerate(kappas):
        own = GeneratorStack(model, obs, field, [kappa])
        alone = evolve(own, rho0, t_end, config)
        for part in ("final", "trace", "max_abs_trace"):
            assert np.array_equal(_bits(getattr(together, part)[j]),
                                  _bits(getattr(alone, part)[0])), part
        if j == zero:
            assert max(entries[id(own)]) < min(entries[id(stack)])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_state_fails_as_on_the_union_layout(monkeypatch, bad):
    # a state holding inf or nan, even at an entry that no live row
    # reaches, fails the finiteness check at the same segment end, with
    # the same message, as on the whole union layout.  `evolve` refuses
    # such an initial matrix up front, so that check is bypassed here to
    # put the non-finite entry into the walk
    from contmeas import evolution
    model, obs, field, kappas, t_end = _workload_members("oracle_dpo9")
    config = EvolutionConfig(dt=0.02, contractivity_check="off")
    rho0 = np.zeros((model.space.dim,) * 2, dtype=complex)
    rho0[0, 0], rho0[-1, 2] = 1.0, bad
    errors = []
    monkeypatch.setattr(evolution, "contractivity",
                        lambda config, rho0: config.contractivity_check)
    for union in (False, True):
        with monkeypatch.context() as patch:
            if union:
                _union_layouts(patch)
            for kappa in kappas:
                stack = GeneratorStack(model, obs, field, [kappa])
                first_end = stack.segments(t_end)[0][1]
                with pytest.raises(IntegrationError,
                                   match=f"t = {first_end:.6g};") as err:
                    evolve(stack, rho0, t_end, config)
                errors.append(str(err.value))
    assert errors[:len(kappas)] == errors[len(kappas):]


def test_live_entry_counts():
    # entries per member of the two kernel operators, left / right, on
    # the layout of the live rows of every segment, forward and dual:
    # few of the eight channels carry a field or an observable, so most
    # drift weights are zero over a whole segment.  With every row live
    # the layout is the union one, less the right-hand operator's entries
    # that no row reaches (the DPO's (0, 0), where K is zero and only the
    # left-hand identity has an entry); layouts are memoized on the
    # model's cache
    pinned = {("charfunc_dpo117", False): (821, 820),
              ("charfunc_dpo117", True): (712, 712),
              ("homodyne_dpo20", False): (115, 114),
              ("oracle_dpo9", False): (43, 42),
              ("oracle_dpo9", True): (36, 36)}
    full = {"charfunc_dpo117": 929, "homodyne_dpo20": 131, "oracle_dpo9": 49}
    for (name, plain), want in pinned.items():
        model, obs, field, kappas, t_end = _workload_members(name)
        if name != "homodyne_dpo20":
            kappas = kappas[1:] if plain else kappas[:1]
        stack = GeneratorStack(model, obs, field, kappas)
        n = len(stack)
        for own in (stack, stack.dual()):
            c = own.model.operators
            counts = set()
            for lo, hi in own.segments(t_end):
                for _, left, right in stage_rows(own, np.linspace(lo, hi, 9),
                                                 lo):
                    live = (left.any(axis=(0, 1)), right.any(axis=(0, 1)))
                    layout = c.stacked(n, *live)
                    assert c.stacked(n, *map(np.copy, live)) is layout
                    counts.add((len(layout.left) + len(layout.fixed) // n,
                                len(layout.right)))
            assert counts == {want}, (name, plain)
            union = c.stacked(n, np.ones(c.basis.shape[0], bool),
                              np.ones(c.right_basis.shape[0], bool))
            assert np.array_equal(union.left, np.arange(c.basis.shape[1]))
            assert np.array_equal(union.right,
                                  np.flatnonzero(c.right_basis.any(axis=0)))
            assert len(union.left) + len(union.fixed) // n == full[name]
            assert len(union.right) == full[name] - 1


@pytest.mark.parametrize("build", [_dpo_members, _hand_built_members],
                         ids=["dpo", "hand-built"])
def test_stacked_generators_apply_each_members_generator(build):
    # on every segment, both ends included, across weight blocks, and
    # where a member's kappa is zero, member k of an n-member application
    # is exactly member k's own one-member application
    model, obs, field, kappas, edges = build()
    rng = np.random.default_rng(8)
    stack = GeneratorStack(model, obs, field, kappas)
    contexts = [GeneratorContext(model=model, observables=obs, field=field,
                                 kappa=k) for k in kappas]
    segs = stack.segments(edges[-1])
    assert [lo for lo, _ in segs] == edges[:-1]
    dim = model.space.dim
    X = (rng.standard_normal((len(kappas), dim, dim))
         + 1j * rng.standard_normal((len(kappas), dim, dim)))
    for lo, hi in segs:
        inner = rng.uniform(lo, hi, BLOCK // 2 if lo == 0.0 else 64)
        times = np.concatenate(([lo], inner, [hi]))
        stacked = list(stage_generators(stack, times, lo))
        assert len(stacked) == len(times)
        for k, ctx in enumerate(contexts):
            own = stage_generators(ctx, times, lo)
            for g, g_own in zip(stacked, own):
                assert np.array_equal(g.apply(X)[k],
                                      g_own.apply(X[k:k + 1])[0])


def _trivial_members():
    """The system-free model, whose generator is its scalar rate, and
    three test functions on [0, 1], one of them zero."""
    obs = ObservableSpec.counting_only(2, 1.0, np.array([[1.0, 0.0]]))
    field = FieldProfile((Constant(1.2 - 0.4j), Constant(0.3)), 1.0)
    return (trivial_model(2), obs, field,
            [TestFunction([0.0, 1.0], [[v]]) for v in (0.9, 0.0, -0.4)],
            [0.0, 1.0])


def _per_product_operands(g):
    """The operands of `helpers.per_product_act` for the generator g:
    each member's K_L + s I and right-hand matrix, their data one
    member's weight row times the model's basis at a time, and the
    model's P_g, as scipy CSR matrices."""
    c = g.stack.model.operators

    def csr(pattern, data):
        rows, cols, indptr, indices = pattern
        return scipy.sparse.csr_matrix((data, indices, indptr),
                                       shape=(rows, cols))

    left = [csr(c.pattern, row @ c.basis) for row in g.left]
    right = [csr(c.right_pattern, row @ c.right_basis) for row in g.right]
    return left, right, [csr(p[:4], p[4]) for p in c.sandwich]


@pytest.mark.parametrize("build, n", [(_dpo_members, 1), (_dpo_members, 3),
                                      (_hand_built_members, 1),
                                      (_hand_built_members, 3),
                                      (_trivial_members, 1)],
                         ids=["dpo-1", "dpo-3", "hand-built-1",
                              "hand-built-3", "trivial-1"])
def test_application_matches_per_product_arithmetic(build, n):
    # the two kernel calls of an application, and of the dual stack's,
    # give the bits of one sparse product at a time of each member's
    # generator and of its adjoint, whatever the stack size
    model, obs, field, kappas, edges = build()
    stack = GeneratorStack(model, obs, field, kappas[:n])
    dual = stack.dual()
    rng = np.random.default_rng(31)
    dim = model.space.dim
    for t in rng.uniform(0.0, edges[-1], 3):
        for g in (generator_at(stack, t), generator_at(dual, t)):
            X = (rng.standard_normal((n, dim, dim))
                 + 1j * rng.standard_normal((n, dim, dim)))
            ref = (g.scalar * X if g.ops is None else
                   helpers.per_product_act(X, *_per_product_operands(g)))
            assert np.array_equal(g.apply(X), ref)


def test_workspace_does_not_leak_between_applications():
    # generators of one stack, and stacks of two sizes on one model, used
    # in turn: each result is a fresh stack's single application, and two
    # propagations of one stack end in the same state
    model, obs, field, kappas, _ = _dpo_members()
    three = GeneratorStack(model, obs, field, kappas)
    one = GeneratorStack(model, obs, field, kappas[2:])
    duals = {3: three.dual(), 1: one.dual()}
    rng = np.random.default_rng(37)
    dim = model.space.dim
    gens = {}
    for stack, t, adjoint in [(three, 0.3, False), (three, 1.1, False),
                              (one, 0.3, False), (three, 0.3, True),
                              (one, 1.7, True), (three, 1.1, False),
                              (one, 0.3, False), (three, 1.1, True)]:
        own = duals[len(stack)] if adjoint else stack
        g = gens.setdefault((len(stack), t, adjoint), generator_at(own, t))
        X = (rng.standard_normal((len(stack), dim, dim))
             + 1j * rng.standard_normal((len(stack), dim, dim)))
        fresh = GeneratorStack(model, obs, field, stack.kappas)
        if adjoint:
            fresh = fresh.dual()
        assert np.array_equal(g.apply(X), generator_at(fresh, t).apply(X))
    rho = helpers.random_density(dim, rng)
    config = EvolutionConfig(dt=0.05, contractivity_check="off")
    first = evolve(three, rho, 1.6, config).final
    assert np.array_equal(evolve(three, rho, 1.6, config).final, first)


def test_workspace_views_are_built_once_per_stack():
    # every view a stack hands `_act` lies in one of its three scratch
    # arrays, and stacks of 1 and 3 members on one model share none
    model, obs, field, kappas, _ = _dpo_members()
    stacks = [GeneratorStack(model, obs, field, kappas[:n]) for n in (1, 3)]
    arrays = []
    for stack in stacks:
        ws = stack.workspace
        assert stack.workspace is ws
        assert len(ws.sandwich_t) == len(model.operators.sandwich) > 0
        own = (ws.products, ws.operands, ws.right)
        for name in type(ws).__slots__:
            assert any(np.shares_memory(getattr(ws, name), a)
                       for a in own), name
        arrays += own
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_channel_groups_decline_non_proportional_operators():
    # only exact multiples share a sandwich: {a, 2i a}, {a changed},
    # {a + b, -(a + b)/2}, in the model and in its dual; the fused kernel
    # still matches the dense superoperator and the dual's stays
    # trace-dual to it
    ctx = _hand_built_context()
    model = ctx.model
    dual = ctx.dual()
    for weights in (model.operators.group_weights,
                    model.dual.operators.group_weights):
        assert np.array_equal(weights, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                                        [4, 0, 0], [0, 0, 0.25]])
    rng = np.random.default_rng(23)
    dim = model.space.dim
    for t in (0.2, 0.6):
        g, g_dual = generator_at(ctx, t), generator_at(dual, t)
        M = _dense_superoperator(model, ctx.observables, ctx.field,
                                 ctx.kappas[0], t)
        for _ in range(3):
            tau = rng.standard_normal((dim, dim)) \
                + 1j * rng.standard_normal((dim, dim))
            X = rng.standard_normal((dim, dim)) \
                + 1j * rng.standard_normal((dim, dim))
            dense = (M @ tau.reshape(-1, order="F")).reshape(dim, dim,
                                                             order="F")
            assert np.max(np.abs(g.apply(tau[None])[0] - dense)) < 1e-12
            lhs = np.trace(X @ g.apply(tau[None])[0])
            rhs = np.trace(g_dual.apply_adjoint(X[None])[0] @ tau)
            assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


@pytest.mark.parametrize("build", [_dpo_members, _hand_built_members],
                         ids=["dpo", "hand-built"])
def test_stack_applies_the_dense_generator(build):
    # at stage times inside every segment, member k of the stack's
    # application is the oracle's dense superoperator of member k on the
    # column-stacked member, A[X] = M vec(X)
    model, obs, field, kappas, edges = build()
    stack = GeneratorStack(model, obs, field, kappas)
    rng = np.random.default_rng(43)
    dim, n = model.space.dim, len(kappas)
    assert n == 3
    for lo, hi in stack.segments(edges[-1]):
        times = lo + (hi - lo) * np.array([0.1, 0.5, 0.9])
        for t, g in zip(times, stage_generators(stack, times, lo)):
            X = (rng.standard_normal((n, dim, dim))
                 + 1j * rng.standard_normal((n, dim, dim)))
            got = g.apply(X)
            for k, kappa in enumerate(kappas):
                M = _dense_superoperator(model, obs, field, kappa, t)
                want = (M @ X[k].reshape(-1, order="F")).reshape(
                    dim, dim, order="F")
                assert np.max(np.abs(got[k] - want)) < 1e-12


@pytest.mark.parametrize("build", [_dpo_members, _hand_built_members],
                         ids=["dpo", "hand-built"])
def test_dual_stack_applies_the_dense_adjoint(build):
    # at stage times inside every segment, member k of the dual stack's
    # application is the transpose of the oracle's dense superoperator of
    # member k under the bilinear pairing Tr(X tau) = vec(X^T) . vec(tau)
    # (column-stacked), so A'[X] = (M^T vec(X^T))^T; the dual model keeps
    # the channel groups, and its own dual is the model again
    model, obs, field, kappas, edges = build()
    stack = GeneratorStack(model, obs, field, kappas)
    dual = stack.dual()
    rng = np.random.default_rng(41)
    dim, n = model.space.dim, len(kappas)
    for lo, hi in stack.segments(edges[-1]):
        times = lo + (hi - lo) * np.array([0.1, 0.5, 0.9])
        for t, g in zip(times, stage_generators(dual, times, lo)):
            X = (rng.standard_normal((n, dim, dim))
                 + 1j * rng.standard_normal((n, dim, dim)))
            got = g.apply_adjoint(X)
            for k, kappa in enumerate(kappas):
                M = _dense_superoperator(model, obs, field, kappa, t)
                want = (M.T @ X[k].ravel()).reshape(dim, dim)
                assert np.max(np.abs(got[k] - want)) < 1e-12
    assert np.array_equal(model.dual.operators.group_weights,
                          model.operators.group_weights)
    for op, again in zip((model.K, *model.R),
                         (model.dual.dual.K, *model.dual.dual.R),
                         strict=True):
        assert op.csr[:2] == again.csr[:2]
        for a, b in zip(op.csr[2:], again.csr[2:], strict=True):
            assert np.array_equal(a, b)


def test_kernel_product_matches_scipy():
    # `csr_product` calls scipy's private CSR kernel directly; it must equal
    # scipy's own sparse product bit for bit on every operand `_act` uses
    # (the two stacked operators of a three-member stack, the pair of a
    # one-member dual stack on the transposed pattern, every sandwich
    # operand of two models and of their duals), for C-contiguous and
    # transposed-view inputs alike
    rng, params, model, obs, field = build_setup(seed=5)
    kappas = [random_kappa(rng, 2.0) for _ in range(3)]
    g = generator_at(GeneratorStack(model, obs, field, kappas), 0.7)
    one = next(stage_generators(GeneratorContext(
        model=model, observables=obs, field=field,
        kappa=kappas[0]).dual(), (0.7,), 0.7))
    dim = model.space.dim
    blocks = 1 + len(model.operators.sandwich)
    assert g.ops[0][:2] == (blocks * 3 * dim, 3 * dim)
    assert g.ops[1][:2] == (3 * dim, blocks * 3 * dim)
    ops = [*g.ops, *one.ops]
    for m in (model, _hand_built_context().model):
        assert len(m.operators.sandwich) >= 2
        ops += m.operators.sandwich + m.dual.operators.sandwich
    for op in ops:
        rows, cols, indptr, indices, data = op
        A = scipy.sparse.csr_matrix((data, indices, indptr),
                                    shape=(rows, cols))
        for k in (1, 2 * cols + 1):
            X = rng.standard_normal((cols, k)) \
                + 1j * rng.standard_normal((cols, k))
            Y = (rng.standard_normal((k, cols))
                 + 1j * rng.standard_normal((k, cols))).T
            assert X.flags.c_contiguous
            assert k == 1 or not Y.flags.c_contiguous
            for Z in (X, Y):
                assert np.array_equal(csr_product(op, Z), A @ Z)


def test_operators_are_canonical_csr():
    # every operator holds exactly the arrays of scipy's CSR matrix of the
    # same dense matrix, and a scaled one those of scipy's scalar product,
    # so the kernel sees the operands it saw when scipy built them
    def scipy_csr(dense):
        A = scipy.sparse.csr_matrix(dense)
        A.eliminate_zeros()
        A.sort_indices()
        return A

    def assert_same(op, A):
        assert op.csr[:2] == A.shape
        for mine, theirs in zip(op.csr[2:], (A.indptr, A.indices, A.data)):
            assert np.array_equal(mine, theirs)

    rng = np.random.default_rng(9)
    hand = _hand_built_context().model
    ops = [hand.K, *hand.R]
    for space in (TruncatedSpace(2, 2), TruncatedSpace(12, 8)):
        for ladder in (ladder_a(space), ladder_b(space)):
            c = complex(rng.standard_normal(), rng.standard_normal())
            assert_same(ladder * c, scipy_csr(ladder.to_dense()) * c)
            ops += [ladder, ladder.transpose()]
        model = dpo_model(helpers.random_dpo_params(rng), space)
        ops += [model.K, *model.R, model.dual.K, *model.dual.R]
    assert {op.space.dim for op in ops} == {12, 9, 117}
    for op in ops:
        assert_same(op, scipy_csr(op.to_dense()))


def test_system_free_apply_is_scalar():
    # dim 1, K = 0, R_i = 0: the generator is its scalar rate, and each
    # map is the one product scalar * X, for one member and for several
    model, obs, field, kappas, _ = _trivial_members()
    rng = np.random.default_rng(5)
    for n in (1, 3):
        stack = GeneratorStack(model, obs, field, kappas[:n])
        g = generator_at(stack, 0.5)
        assert g.scalar[0] != 0
        X = rng.standard_normal((n, 1, 1)) + 1j * rng.standard_normal(
            (n, 1, 1))
        assert np.array_equal(g.apply(X), g.scalar * X)
        assert np.array_equal(generator_at(stack.dual(), 0.5)
                              .apply_adjoint(X), g.scalar * X)
        # with no operator to apply, the stack builds no workspace
        assert "workspace" not in stack.__dict__


def test_system_free_apply_on_a_python_complex():
    # the state of a one-member system-free run is a Python complex; apply
    # returns one with the bits of the array product, also where Python's
    # own complex product rounds differently
    model, obs, field, kappas, _ = _trivial_members()
    g = generator_at(GeneratorStack(model, obs, field, kappas[:1]), 0.5)
    scalar = g.scalar.item()
    rng = np.random.default_rng(11)
    python_differs = 0
    for x in rng.standard_normal(400) + 1j * rng.standard_normal(400):
        x = complex(x)
        got = g.apply(x)
        assert type(got) is complex
        assert got == g.apply(np.full((1, 1, 1), x))[0, 0, 0]
        python_differs += scalar * x != got
    assert python_differs > 0


@pytest.mark.parametrize("build", [_dpo_members, _hand_built_members,
                                   _trivial_members],
                         ids=["dpo", "hand-built", "trivial"])
def test_split_member_generator_is_its_own_assembly(build):
    # a part of a split stack, of one member or of two, takes its rows of
    # the group's assembly, made once per time, and gets the bits of its
    # own stack's generators, at every breakpoint
    model, obs, field, kappas, edges = build()
    group = GeneratorStack(model, obs, field, kappas)
    rng = np.random.default_rng(9)
    dim = model.space.dim
    for size in (1, 2):
        parts = list(group.split(size))
        assert [p.kappas for p in parts] == [
            kappas[row:row + size] for row in range(0, len(kappas), size)]
        for t in edges:
            for part in parts:
                g = generator_at(part, t)
                own = generator_at(GeneratorStack(model, obs, field,
                                                  part.kappas), t)
                assert g.stack is part
                for name in ("scalar", "left", "right"):
                    assert np.array_equal(getattr(g, name),
                                          getattr(own, name)), name
                X = (rng.standard_normal((len(part), dim, dim))
                     + 1j * rng.standard_normal((len(part), dim, dim)))
                assert np.array_equal(g.apply(X), own.apply(X))
        assert len(group.frozen_rows) == len(edges)


def test_trace_annihilated_without_test_function():
    # with kappa = 0 the generator is trace-free for any field
    rng, params, model, obs, field = build_setup(seed=7)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction.zero(3))
    for _ in range(5):
        rho = helpers.random_density(model.space.dim, rng)
        # restrict support to the interior so the cutoff plays no role
        sp = model.space
        mask = np.zeros(sp.dim, dtype=bool)
        for n in range(sp.n_max - 1):
            for m in range(sp.m_max - 1):
                mask[sp.index(n, m)] = True
        rho[~mask, :] = 0.0
        rho[:, ~mask] = 0.0
        rho = rho / np.trace(rho)
        out = generator_at(ctx, rng.uniform(0, 1.9)).apply(rho[None])[0]
        assert abs(np.trace(out)) < 1e-12


def test_hermiticity_preserved_without_test_function():
    rng, params, model, obs, field = build_setup(seed=9)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction.zero(3))
    rho = helpers.random_hermitian(model.space.dim, rng)
    out = generator_at(ctx, 0.4).apply(rho[None])[0]
    assert np.max(np.abs(out - out.conj().T)) < 1e-12


def test_generator_matches_master_equation():
    # k = 0 plus laser field realizes the driven master equation
    rng = np.random.default_rng(13)
    n_max, m_max = 6, 4
    params = helpers.random_dpo_params(rng, omega_c=1.0)
    model = dpo_model(params, TruncatedSpace(n_max, m_max))
    obs = dpo_observables(params, 3.0)
    field = dpo_laser_field(params, 3.0)
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction.zero(3))
    for _ in range(5):
        rho = helpers.random_hermitian(model.space.dim, rng)
        t = rng.uniform(0, 2.9)
        lhs = generator_at(ctx, t).apply(rho[None])[0]
        rhs = helpers.master_equation_rhs(params, n_max, m_max, t, rho)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_kernel_coefficient_symmetry():
    # the kernel coefficients (scalar rate c, vector r, diagonal s) obey
    # conj(c(-k)) = c(k), conj(r(-k)) = -conj(r(k)) s(k), conj(s(-k)) = s(k)
    obs = dpo_observables(DpoParams.from_splittings(
        omega_c=1.1, g=0.3, kappa=0.4, kappa_p=0.9, theta3=0.2,
        lambda_drive=0.05), horizon=2.0)
    rng = np.random.default_rng(17)
    for _ in range(200):
        kappa = rng.uniform(-3, 3, 3)
        t = rng.uniform(0, 2.0)
        s = obs.kernel_diagonal(kappa)
        assert np.allclose(np.conj(obs.kernel_diagonal(-kappa)), s,
                           rtol=0, atol=1e-12)
        assert np.allclose(np.conj(obs.r_vector(-kappa, t)),
                           -np.conj(obs.r_vector(kappa, t)) * s,
                           rtol=0, atol=1e-12)
        assert abs(np.conj(obs.coefficients(-kappa, t)[3])
                   - obs.coefficients(kappa, t)[3]) < 1e-12


def test_kernel_coefficient_layout():
    # generator_at folds s, r(+/-kappa), the sandwich weights and the
    # scalar rate into the weights in the layout documented on
    # FrozenGenerator
    rng, params, model, obs, field = build_setup(seed=3)
    kappa = np.array([0.5, -0.2, 0.8])
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction([0.0, 1.0], [kappa]))
    t = 0.3
    g = generator_at(ctx, t)
    lam = field.value(t)
    mu = model.S @ lam
    s = obs.kernel_diagonal(kappa)
    r_p = obs.r_vector(kappa, t)
    r_m = obs.r_vector(-kappa, t)
    w_left = np.conj(r_m) + s * np.conj(mu)
    w_left_dag = -mu
    w_right = -np.conj(mu)
    w_right_dag = r_p + s * mu
    scalar = (-np.vdot(lam, lam).real + np.conj(r_m) @ mu
              + r_p @ np.conj(mu) + s @ np.abs(mu) ** 2
              + obs.coefficients(kappa, t)[3])
    assert g.scalar.item() == pytest.approx(scalar, abs=1e-12)
    assert g.left[0, -1] == g.scalar.item()
    assert np.allclose(g.left[0], np.concatenate(
        ([1], w_left, w_left_dag, [scalar])))
    assert np.allclose(g.right[0], np.concatenate(
        ([1], w_right_dag, w_right, s @ model.operators.group_weights)))


def test_context_validation():
    rng, params, model, obs, field = build_setup()
    with pytest.raises(ValidationError):
        GeneratorContext(model=model, observables=obs, field=field,
                         kappa=TestFunction.zero(2))
    with pytest.raises(ValidationError):
        GeneratorContext(model=model, observables=obs,
                         field=FieldProfile((ZERO,) * 3, 1.0),
                         kappa=TestFunction.zero(3))
    # every member's width is checked, not only the first one's
    with pytest.raises(ValidationError):
        GeneratorStack(model, obs, field, [TestFunction.zero(3),
                                           TestFunction.zero(2),
                                           TestFunction.zero(3)])


def test_context_segments():
    rng, params, model, obs, field = build_setup(horizon=2.0)
    kappa = TestFunction([0.0, 0.5, 1.5], [[0.1, 0, 0], [0, 0.2, 0]])
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=kappa)
    assert ctx.segments(1.8) == [(0.0, 0.5), (0.5, 1.5), (1.5, 1.8)]
    assert ctx.segments(2.5) == [(0.0, 0.5), (0.5, 1.5), (1.5, 2.0),
                                 (2.0, 2.5)]   # field window ends at 2
    assert ctx.segments(1.8, start=0.5) == [(0.5, 1.5), (1.5, 1.8)]
    assert ctx.segments(2.5, start=1.0) == [(1.0, 1.5), (1.5, 2.0),
                                            (2.0, 2.5)]
    assert ctx.segments(1.2, start=0.7) == [(0.7, 1.2)]


def test_static_detection():
    rng, params, model, obs, field = build_setup()
    ctx = GeneratorContext(model=model, observables=obs, field=field,
                           kappa=TestFunction.zero(3))
    assert not context_is_piecewise_static(ctx)   # harmonic h and field
    from contmeas import trivial_model, ObservableSpec
    m = trivial_model(2)
    obs2 = ObservableSpec.counting_only(2, 1.0, np.array([[1.0, 0.0]]))
    f2 = FieldProfile((Constant(1.0), ZERO), 1.0)
    ctx2 = GeneratorContext(model=m, observables=obs2, field=f2,
                            kappa=TestFunction.zero(1))
    assert context_is_piecewise_static(ctx2)
