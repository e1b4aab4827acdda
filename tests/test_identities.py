import dataclasses
import math
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rmx import applications, cli, errors, identities, rmatrix, tensor_ops
from rmx import (
    CalogeroConfig,
    DegenerateArguments,
    DimensionMismatch,
    IdentityReport,
    IndexOutOfRange,
    LatticeParams,
    PoleProximity,
    RMatrixKind,
    RmxError,
    RMatrixSpec,
    SizeCapExceeded,
    UnsupportedDerivOrder,
    UsageError,
    ZeroArgument,
    check_aybe,
    check_cyclic_batch,
    check_hbar_order_relation,
    check_kzb_flatness,
    check_nth_order,
    check_outer_index_independence,
    check_qybe,
    check_skew_symmetry,
    check_trace_power_guess,
    check_unitarity,
    cyclic_sum_cost,
    default_tolerance,
    is_scalar_operator,
    r_matrix,
    weierstrass_p,
)

from dense_oracle import (
    canonical_cyclic_apply, cyclic_orderings, embed_two_site, pair_factors, unitarity_product,
)

RA = LatticeParams(kind="rational")
EL = LatticeParams(kind="elliptic", tau=1j)

YANG_PTS_3 = [0.3, 1.1 + 0.4j, 2.2 - 0.3j]
YANG_PTS_4 = YANG_PTS_3 + [0.7 + 1.1j]
YANG_PTS_5 = YANG_PTS_4 + [1.7 + 0.8j]
EL_PTS_3 = [0.31 + 0.11j, 0.62 + 0.29j, 0.18 + 0.41j]
EL_PTS_4 = EL_PTS_3 + [0.47 + 0.23j]
EL_PTS_5 = EL_PTS_4 + [0.83 + 0.07j]


def yang_spec(N=2, hbar=0.7 + 0.3j):
    return RMatrixSpec(kind="yang", site_dim=N, lattice=RA, hbar=hbar)


def belavin_spec(N=2, hbar=0.17 + 0.09j):
    return RMatrixSpec(kind="belavin", site_dim=N, lattice=EL, hbar=hbar)


class TestTermSequences:
    def test_counts(self):
        for n in range(2, 7):
            assert len(cyclic_orderings(n, 1)) == math.factorial(n - 1)

    def test_four_point_layout_is_lexicographic(self):
        want = [
            (2, 3, 4),
            (2, 4, 3),
            (3, 2, 4),
            (3, 4, 2),
            (4, 2, 3),
            (4, 3, 2),
        ]
        assert cyclic_orderings(4, 1) == want

    def test_five_point_set(self):
        want = {
            (5, 4, 3, 2), (4, 5, 3, 2), (3, 5, 4, 2), (5, 3, 4, 2),
            (3, 4, 5, 2), (4, 3, 5, 2), (2, 5, 4, 3), (2, 4, 5, 3),
            (5, 4, 2, 3), (4, 2, 5, 3), (4, 5, 2, 3), (5, 2, 4, 3),
            (2, 3, 5, 4), (2, 5, 3, 4), (3, 2, 5, 4), (5, 3, 2, 4),
            (3, 5, 2, 4), (5, 2, 3, 4), (2, 3, 4, 5), (2, 4, 3, 5),
            (3, 2, 4, 5), (4, 3, 2, 5), (3, 4, 2, 5), (4, 2, 3, 5),
        }
        got = cyclic_orderings(5, 1)
        assert len(got) == 24
        assert set(got) == want

    def test_excludes_outer_index(self):
        assert cyclic_orderings(3, 2) == [(1, 3), (3, 1)]


def ladder_points(n):
    return [0.1 + 0.07j * k + 0.13 * k for k in range(n)]


def slabs_of(factors, starts):
    """The slabs of the cyclic sums of one factor set from the 0-based outer
    sites ``starts``, in that order."""
    return [(factors, a) for a in starts]


def cyclic_apply(slabs, n, x):
    """S x for each slab (factors, a), stacked in that order: the DP plan of
    the checks run on any x by the contraction code, each slab's factors
    resolved as ``tensor_ops._probe_jobs`` resolves them."""
    plan = identities._dp_plan(n)
    return tensor_ops._run(plan, [tensor_ops._slab(plan, *slab) for slab in slabs], x)[0]


class TestLegOrderDP:
    """The DP keeps each state in the leg order of the product that first
    reached it; the canonical DP of the dense oracle copies every product
    back to site order.  The two do the same arithmetic in the same order,
    so they agree bit for bit."""

    SIZES = [(N, n) for N in (1, 2, 3, 4) for n in range(2, 9)
             if N ** n <= tensor_ops.SIZE_CAP]

    @pytest.mark.parametrize("N, n", SIZES)
    def test_matches_canonical_dp_bit_for_bit(self, N, n):
        factors = pair_factors(belavin_spec(N), n, ladder_points(n))
        D = N ** n
        eye = np.eye(D, dtype=complex)
        # the probe block and uneven column blocks of the identity
        blocks = [identities._probe_block(D), eye[:, :5], eye[:, -3:]]
        for x in blocks:
            for starts in ([0], [n - 1], list(reversed(range(n)))):
                got = cyclic_apply(slabs_of(factors, starts), n, x)
                want = canonical_cyclic_apply(slabs_of(factors, starts), n, x)
                assert got.shape == (len(starts),) + x.shape
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("N, n", [(1, 6), (2, 3), (2, 5), (2, 7), (3, 4)])
    def test_every_pass_size_matches_bit_for_bit(self, monkeypatch, N, n):
        # passes of 1..n slabs give the bits of the canonical DP's passes
        factors = pair_factors(belavin_spec(N), n, ladder_points(n))
        x = identities._probe_block(N ** n)
        starts = list(reversed(range(n)))
        want = canonical_cyclic_apply(slabs_of(factors, starts), n, x)
        for size in range(1, n + 1):
            monkeypatch.setattr(tensor_ops, "_STATE_ENTRIES", size * x.size)
            got = cyclic_apply(slabs_of(factors, starts), n, x)
            assert np.array_equal(got, want)

    def test_plan_sizes_are_pinned(self):
        # the plan builder keeps the DP step for step: (steps, slots) per n
        sizes = {n: (len(identities._dp_plan(n).steps), identities._dp_plan(n).slots)
                 for n in range(2, 9)}
        assert sizes == {2: (2, 1), 3: (6, 2), 4: (18, 5), 5: (56, 11),
                         6: (170, 22), 7: (492, 44), 8: (1358, 87)}

    def test_cost_refuses_fewer_than_two_sites(self):
        for n in (1, 0, -3):
            with pytest.raises(DimensionMismatch, match=f"needs n >= 2, got {n}"):
                cyclic_sum_cost(2, n)
        with pytest.raises(UsageError, match="^n must be an integer, got 3.0"):
            cyclic_sum_cost(2, 3.0)
        with pytest.raises(UsageError, match="^site_dim must be an integer, got 2.5"):
            cyclic_sum_cost(2.5, 3)
        # two steps of 4 x 4 on a 4 x 4 state
        assert cyclic_sum_cost(np.int64(2), np.int32(2)) == 2 * 4 * 4 * 4

    def test_plan_is_cached_and_frees_each_state(self):
        plan = identities._dp_plan(5)
        assert identities._dp_plan(5) is plan
        # one step per DP edge: 2(n - 1) + (n - 1)(n - 2) 2^(n - 3)
        assert len(plan.steps) == 2 * 4 + 4 * 3 * 4
        for n, slots in ((2, 1), (3, 2), (4, 5), (5, 11), (6, 22), (7, 44), (8, 87)):
            plan = identities._dp_plan(n)
            # a state is read from a live slot, which is free after its last
            # read; a new state takes the most recently freed slot, or a new
            # one, and a live state is only added to
            live, free, used = {0}, [], 1
            for step in plan.steps:
                assert step.src in live
                if step.last:
                    live.remove(step.src)
                    free.append(step.src)
                if step.add is None:
                    want = free.pop() if free else used
                    used += want == used
                    assert step.dst == want
                    live.add(step.dst)
                else:
                    assert step.dst in live
            # every state but the sum fed its successors and was dropped
            assert live == {plan.steps[-1].dst}
            assert plan.slots == used == slots

    @pytest.mark.parametrize("n", range(3, 9))
    def test_middle_states_end_in_the_outer_leg(self, n):
        # only the edges out of the input and into the sum act on leg 0, the
        # outer site, and a product stores leg 0 last among its source's other
        # legs; so a middle state, one written by a factor off leg 0, ends in
        # (leg 0, probe columns), and every copy out of it along a middle edge
        # and every add into it moves runs of N k floats, not k
        plan = identities._dp_plan(n)
        # replay each slot's leg order: a product's legs are its source's,
        # read through the copy transpose front
        order, middle, copies, adds = {0: tuple(range(n))}, {0: False}, 0, 0
        for step in plan.steps:
            stored, off_zero = order[step.src], 0 not in plan.keys[step.factor]
            if middle[step.src] and off_zero:
                assert stored[-1] == 0 and step.front[-2] == n + 1
                copies += 1
            if step.add is None:
                order[step.dst] = tuple(stored[axis - 2] for axis in step.front[2:-1])
                middle[step.dst] = off_zero
            elif middle[step.dst]:
                assert step.add[-2] == n + 1
                adds += 1
        # all steps but the n - 1 out of the input, the (n - 1)(n - 2) out of
        # the first layer and the n - 1 into the sum; all adds but n - 2
        assert copies == (n - 1) * (n - 2) * (2 ** (n - 3) - 1)
        assert adds == sum(s.add is not None for s in plan.steps) - (n - 2)


class TestSplitPlanes:
    """The DP runs in real arithmetic: each complex factor A acts as the real
    split [[Re A, -Im A], [Im A, Re A]] on the stacked real and imaginary
    planes of a state."""

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_split_factor_applies_the_complex_factor(self, N):
        rng = np.random.default_rng(N)
        M = N * N

        def rand(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        ops, x = rand(2, M, M), rand(M, 5)
        factors = {(0, 1): ops[0], (1, 0): ops[1]}
        # a plan whose factors act on the legs (0, 1), then (1, 0)
        plan = tensor_ops._plan(2, [("x", "y", (0, 1), (0, 1)),
                                    ("y", "z", (1, 0), (1, 0))], ["z"])
        split = tensor_ops._gather([([factors[key] for key in plan.keys], 0)], plan)
        assert split.shape == (2, 1, 2 * M, 2 * M) and split.dtype == float
        perm = tensor_ops.permutation_operator(N)
        # the factor of the pair (1, 0) acts on the legs in increasing order
        for op, want in zip(split[:, 0], (ops[0] @ x, perm @ ops[1] @ perm @ x)):
            y = op @ np.vstack([x.real, x.imag])
            got = y[:M] + 1j * y[M:]
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("N, n", [(1, 4), (2, 3), (2, 4), (3, 3)])
    def test_complex_operand_matches_dense_sum(self, N, n):
        # a complex x fills both planes of the first state
        for spec, pts in ((yang_spec(N), YANG_PTS_5), (belavin_spec(N), EL_PTS_5)):
            factors = pair_factors(spec, n, pts[:n])
            x = np.eye(N ** n) * (1 + 2j)
            got = cyclic_apply(slabs_of(factors, range(n)), n, x)
            for a in range(n):
                want = dense_cyclic_sum(spec, n, pts[:n], a + 1) @ x
                assert relative_difference(got[a], want) <= 1e-13

    @pytest.mark.parametrize("check", [check_nth_order, check_outer_index_independence])
    def test_check_fails_without_the_imaginary_blocks(self, monkeypatch, check):
        # a split that drops Im A from every factor fails far past tolerance
        spec = belavin_spec(2)
        assert check(spec, 4, EL_PTS_4).passed
        split = tensor_ops._gather

        def real_only(slabs, plan):
            ops = split(slabs, plan)
            M = ops.shape[-1] // 2
            ops[..., :M, M:] = ops[..., M:, :M] = 0
            return ops

        monkeypatch.setattr(tensor_ops, "_gather", real_only)
        rep = check(spec, 4, EL_PTS_4)
        assert not rep.passed
        assert rep.residual > 1e3 * rep.tolerance


class TestWorkspace:
    """The DP runs on one process-wide workspace that grows to the largest
    pass run so far; the step views of each pass shape are built once."""

    def test_alternating_plans_match_canonical_dp(self, monkeypatch):
        monkeypatch.setattr(tensor_ops, "_workspace", tensor_ops._Workspace())
        space = tensor_ops._workspace
        kept = []
        # (2, 8) grows the workspace; the passes after it fit in it
        for N, n in ((2, 5), (2, 8), (2, 5), (3, 5), (2, 7)):
            factors = pair_factors(belavin_spec(N), n, ladder_points(n))
            x = identities._probe_block(N ** n)
            starts = list(reversed(range(n)))
            slabs = slabs_of(factors, starts)
            got = cyclic_apply(slabs, n, x)
            assert np.array_equal(got, canonical_cyclic_apply(slabs, n, x))
            assert not np.shares_memory(got, space.buffer)
            kept.append((got, got.copy()))
            if (N, n) == (2, 8):
                # 2 slabs of 256 x 4 complex entries per pass, 87 state
                # slots; each entry is a real and an imaginary float
                assert space.buffer.size == 2 * (87 + 2) * 2 * 256 * 4
                # the views of the old buffer were dropped
                assert set(space.views) == {(identities._dp_plan(8), 2, 4, 2)}
        assert space.buffer.size == 2 * (87 + 2) * 2 * 256 * 4
        # a returned sum is not touched by the later calls
        for got, copy in kept:
            assert np.array_equal(got, copy)

    def test_views_are_built_once_per_pass_shape(self, monkeypatch):
        monkeypatch.setattr(tensor_ops, "_workspace", tensor_ops._Workspace())
        n, pts = 7, ladder_points(7)
        check_outer_index_independence(belavin_spec(2), n, pts)
        views = dict(tensor_ops._workspace.views)
        # passes of 4 + 3 slabs
        plan = identities._dp_plan(n)
        assert set(views) == {(plan, 2, 4, 4), (plan, 2, 4, 3)}
        check_outer_index_independence(belavin_spec(2), n, pts)
        assert all(tensor_ops._workspace.views[key] is views[key] for key in views)

    def test_threads_take_turns_on_the_workspace(self, monkeypatch):
        # four threads on the one workspace, each cycling through passes of
        # other shapes, must each get the canonical sums
        monkeypatch.setattr(tensor_ops, "_workspace", tensor_ops._Workspace())
        cases = []
        for N, n in ((2, 5), (2, 7), (3, 4), (2, 6)):
            factors = pair_factors(belavin_spec(N), n, ladder_points(n))
            x = identities._probe_block(N ** n)
            starts = list(range(n))
            cases.append((factors, n, starts, x,
                          canonical_cyclic_apply(slabs_of(factors, starts), n, x)))
        results = []

        def work(first):
            for i in range(first, first + 6):
                factors, n, starts, x, want = cases[i % len(cases)]
                got = cyclic_apply(slabs_of(factors, starts), n, x)
                results.append(np.array_equal(got, want))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True] * 24

    def test_one_off_plans_do_not_pile_up_views(self, monkeypatch):
        # each trace power is a plan of its own; the workspace keeps the
        # views of at most 64 pass shapes
        monkeypatch.setattr(tensor_ops, "_workspace", tensor_ops._Workspace())
        cfg = CalogeroConfig(rspec=yang_spec(2), momenta=(0.5, 0.7, 0.9),
                             positions=YANG_PTS_3)
        for power in range(1, 81):
            check_trace_power_guess(cfg, power)
        assert 0 < len(tensor_ops._workspace.views) <= 64

    def test_workspace_holds_the_largest_pass(self, monkeypatch):
        n, N = 8, 2
        # a first call fills the lazy caches (probe block, theta constants,
        # plan); the check on a new workspace then stays within the
        # 4.0 MB of test_peak_memory, the workspace included
        check_outer_index_independence(belavin_spec(N), n, ladder_points(n))
        monkeypatch.setattr(tensor_ops, "_workspace", tensor_ops._Workspace())
        tracemalloc.start()
        try:
            assert check_outer_index_independence(belavin_spec(N), n, ladder_points(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.0e6
        D, k = N ** n, 4
        B = tensor_ops._STATE_ENTRIES // (D * k)
        slots = identities._dp_plan(n).slots
        # each live state slot, the moved operand and an add step's product,
        # as B D k complex entries of two floats each
        assert tensor_ops._workspace.buffer.size == 2 * (slots + 2) * B * D * k
        assert tensor_ops._workspace.buffer.nbytes == 2916352

    def test_deeper_sums_leave_the_process_workspace(self, monkeypatch):
        # the largest pass of rmx verify, outer-7 at N = 3, stays on the
        # process workspace; a pass above _WORKSPACE_BYTES, such as one sum
        # at N = 2, n = 10, runs on a workspace of its own, which the process
        # does not keep
        monkeypatch.setattr(tensor_ops, "_workspace", tensor_ops._Workspace())
        space = tensor_ops._workspace
        check_outer_index_independence(belavin_spec(3), 7, ladder_points(7))
        # one slab of 3^7 x 4 complex entries per pass, 44 state slots
        assert space.buffer.nbytes == 16 * (44 + 2) * 3 ** 7 * 4 == 6438528
        assert space.buffer.nbytes <= tensor_ops._WORKSPACE_BYTES
        buffer, views = space.buffer, dict(space.views)
        n = 10
        factors = pair_factors(belavin_spec(2), n, ladder_points(n))
        x = identities._probe_block(2 ** n)
        slabs = slabs_of(factors, [0])
        got = cyclic_apply(slabs, n, x)
        assert 16 * (identities._dp_plan(n).slots + 2) * x.size > tensor_ops._WORKSPACE_BYTES
        assert tensor_ops._workspace is space and space.buffer is buffer
        assert space.buffer.nbytes == 6438528 and space.views == views
        assert np.array_equal(got, canonical_cyclic_apply(slabs, n, x))

    def test_import_allocates_no_workspace(self):
        src = str(Path(identities.__file__).resolve().parent.parent)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import rmx; "
                "from rmx import identities, tensor_ops; space = tensor_ops._workspace; "
                "print(space.buffer.size, len(space.views))")
        out = subprocess.run([sys.executable, "-c", code, src],
                             capture_output=True, text=True, timeout=60, check=True)
        assert out.stdout.split() == ["0", "0"]


class TestProbeJobs:
    """Every probed product runs through tensor_ops._probe_jobs: a job is
    (plan, slabs), a slab (table, a); the jobs of one plan and N run as the
    slabs of one plan run, and each gets the outputs it gets alone."""

    def test_mixed_jobs_equal_their_lone_runs(self, monkeypatch):
        # the jobs of real checks: DP jobs at a != 0 and at N = 2 and 3, a
        # trace-power job and a QYBE job
        jobs, run = [], tensor_ops._probe_jobs
        for module in (identities, applications):
            monkeypatch.setattr(module, "_probe_jobs", lambda js: jobs.extend(js) or run(js))
        check_nth_order(belavin_spec(2), 4, EL_PTS_4, outer=3)
        check_outer_index_independence(yang_spec(2), 4, YANG_PTS_4)
        check_nth_order(belavin_spec(3), 4, EL_PTS_4, outer=2)
        check_trace_power_guess(CalogeroConfig(rspec=belavin_spec(2), momenta=(0.5, 0.7, 0.9),
                                               positions=EL_PTS_3), 2)
        check_qybe(belavin_spec(2), EL_PTS_3)
        monkeypatch.undo()
        assert [len(slabs) for _, slabs in jobs] == [1, 4, 1, 3, 1]
        assert [a for _, slabs in jobs[:3] for _, a in slabs] == [2, 0, 1, 2, 3, 1]
        error, runs, run = UsageError("kept apart"), [], tensor_ops._run
        monkeypatch.setattr(tensor_ops, "_run", lambda plan, slabs, x: (
            runs.append(len(slabs)) or run(plan, slabs, x)))

        def probe(group):  # an error among the jobs is raised, as an entry raises it
            for job in group:
                if isinstance(job, RmxError):
                    raise job
            return tensor_ops._probe_jobs(group)

        # errors._joint keeps the error's group from the jobs' group
        joint = errors._joint(probe, jobs[:2] + [error] + jobs[2:],
                              lambda job: job is error)
        monkeypatch.undo()
        # the two DP jobs at N = 2 share one plan run
        assert runs == [5, 1, 3, 1]
        assert joint.pop(2) is error
        for job, got in zip(jobs, joint):
            (alone,) = tensor_ops._probe_jobs([job])
            assert got.shape == alone.shape and np.array_equal(got, alone)

    @pytest.mark.parametrize("N, n", [(1, 5), (2, 4), (2, 6), (3, 4)])
    def test_dp_job_matches_canonical_dp(self, N, n):
        factors = pair_factors(belavin_spec(N), n, ladder_points(n))
        slabs = slabs_of(factors, range(n))
        (got,) = tensor_ops._probe_jobs([(identities._dp_plan(n), slabs)])
        x = tensor_ops._probe_block(N ** n)
        assert got.shape == (1, n) + x.shape
        assert np.array_equal(got[0], canonical_cyclic_apply(slabs, n, x))


class TestJointDP:
    """The slabs of different factor sets share the passes of one DP, and
    each sum is the one its factor set gives alone; check_cyclic_batch runs
    one DP per (N, n) and gives each request the report of its check."""

    @pytest.mark.parametrize("N, n", [(1, 5), (2, 3), (2, 5), (2, 7), (2, 8),
                                      (3, 4), (4, 4)])
    def test_each_sum_is_its_sum_alone(self, monkeypatch, N, n):
        shifted = [p + 0.05 + 0.02j for p in ladder_points(n)]
        sets = [(pair_factors(spec, n, pts), starts)
                for spec, pts, starts in (
                    (belavin_spec(N), ladder_points(n), [0]),
                    (yang_spec(N), ladder_points(n), list(reversed(range(n)))),
                    (belavin_spec(N, 0.13 + 0.05j), shifted, [1, 0]))]
        x = identities._probe_block(N ** n)
        want = np.concatenate([canonical_cyclic_apply(slabs_of(factors, starts), n, x)
                               for factors, starts in sets])
        slabs = [slab for factors, starts in sets for slab in slabs_of(factors, starts)]
        # the default passes, then passes of 2 and 3 slabs, which end inside
        # the n slabs of the second set
        for size in (None, 2, 3):
            if size is not None:
                monkeypatch.setattr(tensor_ops, "_STATE_ENTRIES", size * x.size)
            assert np.array_equal(cyclic_apply(slabs, n, x), want)

    def test_each_check_reads_its_own_sums(self):
        spec, n = belavin_spec(2), 5
        factors = pair_factors(spec, n, EL_PTS_5)
        x = identities._probe_block(2 ** n)
        sums = canonical_cyclic_apply(slabs_of(factors, range(n)), n, x)
        coeffs = [tensor_ops._probe_scalar(x, s)[0] for s in sums]
        rep = check_outer_index_independence(spec, n, EL_PTS_5)
        assert rep.details["coefficients"] == coeffs
        for outer in (1, 3, 5):
            rep = check_nth_order(spec, n, EL_PTS_5, outer)
            assert rep.details["coefficient"] == coeffs[outer - 1]

    def test_batch_reports_equal_lone_checks(self, monkeypatch):
        el, el3 = belavin_spec(2), belavin_spec(3)
        requests = [
            (el, 4, EL_PTS_4, 2, None),
            (yang_spec(2), 3, YANG_PTS_3, 1, 1e-3),
            (el, 4, EL_PTS_4, None, None),
            (el, 9, ladder_points(9), 1, None),
            (el, 9, EL_PTS_3, 1, None),
            (el, 4, EL_PTS_3, 1, None),
            (el, 4, EL_PTS_4, 5, None),
            (el, 5, EL_PTS_5, None, 1e-30),
            (el, 1, EL_PTS_3[:1], 1, None),
            (el, 2, EL_PTS_3[:2], 1, None),
            (el, 2, EL_PTS_3[:2], None, None),
            (el3, 4, EL_PTS_4, 3, None),
            (el, 4.0, EL_PTS_4, 1, None),
            (el, 4, EL_PTS_4, 1.5, None),
        ]
        # each error is the first one its check meets alone: the site
        # arguments, then the wp order, then the points
        errors = {3: UnsupportedDerivOrder, 4: UnsupportedDerivOrder,
                  5: DimensionMismatch, 6: IndexOutOfRange, 10: DimensionMismatch,
                  12: UsageError, 13: UsageError}
        runs = []
        run = tensor_ops._run
        monkeypatch.setattr(tensor_ops, "_run", lambda plan, slabs, x: runs.append(
            (math.isqrt(len(slabs[0][0][0])), plan.n, len(slabs))) or run(plan, slabs, x))
        # the core raises the first error it meets, in a head, before any DP;
        # on the requests that raise none it runs one DP for each (N, n),
        # over the slabs of all its requests
        with pytest.raises(UnsupportedDerivOrder):
            identities._cyclic_batch(requests)
        joint = identities._cyclic_batch([r for i, r in enumerate(requests)
                                          if i not in errors])
        assert runs == [(2, 4, 1 + 4), (2, 3, 1), (2, 5, 5), (2, 2, 1), (3, 4, 1)]
        # check_cyclic_batch gives each request its lone outcome
        got = check_cyclic_batch(requests)
        assert [out for i, out in enumerate(got) if i not in errors] == joint
        for i, ((spec, n, pts, outer, tol), out) in enumerate(zip(requests, got)):
            try:
                if outer is None:
                    want = check_outer_index_independence(spec, n, pts, tolerance=tol)
                else:
                    want = check_nth_order(spec, n, pts, outer, tolerance=tol)
            except RmxError as exc:
                assert type(out) is type(exc) is errors[i]
                assert str(out) == str(exc)
            else:
                assert i not in errors
                assert out == want
        assert got[7].passed is False and got[1].passed

    def test_an_error_fails_only_its_request(self, monkeypatch):
        # wp raises at one request's N hbar: the other requests of its
        # (N, n) keep their reports
        specs = [belavin_spec(2, hbar) for hbar in (0.17 + 0.09j, 0.19 + 0.07j)]
        requests = [(spec, 4, EL_PTS_4, outer, None)
                    for spec in specs for outer in (1, None)]
        want = check_cyclic_batch(requests)
        bad = 2 * specs[1].hbar
        wp = identities.weierstrass_p

        def raising(z, *args, **kwargs):
            if np.any(np.asarray(z) == bad):
                raise PoleProximity("forced")
            return wp(z, *args, **kwargs)

        monkeypatch.setattr(identities, "weierstrass_p", raising)
        got = check_cyclic_batch(requests)
        assert [type(out) for out in got] == [IdentityReport] * 2 + [
            PoleProximity, IdentityReport]
        assert got[:2] == want[:2] and got[3] == want[3]
        with pytest.raises(PoleProximity, match="forced"):
            check_nth_order(specs[1], 4, EL_PTS_4)

    def test_a_malformed_request_fails_only_itself(self):
        # a request of four or six fields is a UsageError naming its length,
        # and one that is not a tuple or list names itself
        good = (belavin_spec(), 3, EL_PTS_3, 1, None)
        got = check_cyclic_batch([good, good[:4], good + (None,), None, "abcde", good])
        assert got[0] == got[5] == check_nth_order(*good[:4])
        for out, what in zip(got[1:5], ("4 fields", "6 fields", "None", "'abcde'")):
            assert type(out) is UsageError
            assert str(out) == ("a cyclic-sum request is (spec, n, points, outer, "
                                f"tolerance), got {what}")


ARRAY = np.array([0.3, 0.4])


def isolated(entry):
    """A batch entry run through errors._joint: each request gets its value
    or the RmxError it meets alone."""
    return lambda requests: errors._joint(entry, requests, lambda _: None)


class TestComplexArguments:
    """A malformed complex argument raises a typed error: an array is a
    DimensionMismatch that names its shape, and a value that complex()
    rejects is a UsageError that names the argument."""

    @pytest.mark.parametrize("call, error, match", [
        (lambda: check_unitarity(belavin_spec(), ARRAY), DimensionMismatch,
         r"^z must be a scalar, got shape \(2,\)"),
        (lambda: check_skew_symmetry(belavin_spec(), ARRAY), DimensionMismatch,
         r"^z must be a scalar, got shape \(2,\)"),
        (lambda: check_unitarity(yang_spec(), "x"), UsageError,
         "^z must be a complex number, got 'x'"),
        (lambda: check_aybe(belavin_spec(), EL_PTS_3, [0.2 + 0.1j]), DimensionMismatch,
         r"^second_hbar must be a scalar, got shape \(1,\)"),
        (lambda: check_qybe(belavin_spec(), [ARRAY] + EL_PTS_3[1:]), DimensionMismatch,
         r"^a point must be a scalar, got shape \(2,\)"),
        (lambda: check_nth_order(belavin_spec(), 1, [ARRAY]), DimensionMismatch,
         r"^a point must be a scalar, got shape \(2,\)"),
        (lambda: check_nth_order(yang_spec(), 2, [0.3, ARRAY]), DimensionMismatch,
         r"^a point must be a scalar, got shape \(2,\)"),
        (lambda: check_nth_order(belavin_spec(), 4, EL_PTS_3 + [ARRAY]), DimensionMismatch,
         r"^a point must be a scalar, got shape \(2,\)"),
        (lambda: check_outer_index_independence(yang_spec(), 3, [ARRAY] + YANG_PTS_3[1:]),
         DimensionMismatch, r"^a point must be a scalar, got shape \(2,\)"),
    ], ids=["unitarity-array", "skew-array", "unitarity-string", "aybe-list",
            "qybe-array", "order-1-array", "order-2-array", "order-4-array",
            "outer-array"])
    def test_typed_error(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_scalars_convert_as_before(self):
        spec = belavin_spec()
        want = check_unitarity(spec, 0.3 + 0.2j)
        for z in (np.complex128(0.3 + 0.2j), np.array(0.3 + 0.2j), "0.3+0.2j"):
            assert check_unitarity(spec, z) == want

    def test_a_malformed_argument_fails_only_its_request(self):
        spec = belavin_spec()
        for batch, good, bad, error in (
                (check_cyclic_batch, (spec, 2, [0.3 + 0.2j, 0], 1, None),
                 (spec, 2, ["x", 0], 1, None), UsageError),
                (isolated(identities._skew_symmetry_batch), (spec, 0.3 + 0.2j, None),
                 (spec, ARRAY, None), DimensionMismatch),
                (isolated(identities._qybe_batch), (spec, EL_PTS_3, None),
                 (spec, [ARRAY] + EL_PTS_3[1:], None), DimensionMismatch),
                (isolated(identities._aybe_batch), (spec, EL_PTS_3, 0.05 + 0.02j, None),
                 (spec, EL_PTS_3, [0.05], None), DimensionMismatch),
                (check_cyclic_batch, (spec, 4, EL_PTS_4, 1, None),
                 (spec, 4, EL_PTS_3 + [ARRAY], 1, None), DimensionMismatch)):
            got = batch([good, bad, good])
            assert type(got[1]) is error
            assert got[0] == got[2] == batch([good])[0]


class TestDefaultTolerance:
    def test_frozen_values(self):
        assert default_tolerance("yang") == 1e-13
        assert default_tolerance("rational") == 1e-13
        assert default_tolerance("trigonometric") == 1e-12
        assert default_tolerance("elliptic", 2, 3) == 1e-9
        assert default_tolerance("belavin", 2, 4) == 1e-9
        assert default_tolerance("belavin", 3, 5) == 5e-9

    def test_accepts_enum(self):
        assert default_tolerance(RMatrixKind.YANG) == 1e-13
        assert default_tolerance(EL.kind, 3, 5) == 5e-9

    @pytest.mark.parametrize("kind", ["foo", "Yang", None, 1e-9])
    def test_an_unknown_kind_is_a_usage_error(self, kind):
        with pytest.raises(UsageError, match=rf"^unknown kind {re.escape(repr(kind))}, "
                                             "pick from yang, rational, "):
            default_tolerance(kind, 2, 3)


class TestReport:
    def test_truthiness_follows_passed(self):
        good = IdentityReport(name="x", passed=True, residual=0.0,
                              tolerance=1.0, details={})
        bad = IdentityReport(name="x", passed=False, residual=2.0,
                             tolerance=1.0, details={})
        assert bool(good)
        assert not bool(bad)


# each library check, as (spec, tolerance) -> report, and the n its default
# tolerance is taken at; at N = 3 the elliptic tolerance moves from n = 5 on
VERDICT_CASES = {
    "unitarity": (lambda s, t: check_unitarity(s, 0.41 + 0.23j, tolerance=t), 2),
    "order-1": (lambda s, t: check_nth_order(s, 1, [0.4 + 0.2j], tolerance=t), 2),
    "order-2": (lambda s, t: check_nth_order(s, 2, EL_PTS_3[:2], tolerance=t), 2),
    "order-4": (lambda s, t: check_nth_order(s, 4, EL_PTS_4, tolerance=t), 4),
    "outer-5": (lambda s, t: check_outer_index_independence(
        s, 5, EL_PTS_5, tolerance=t), 5),
    "qybe": (lambda s, t: check_qybe(s, EL_PTS_3, tolerance=t), 3),
    "aybe": (lambda s, t: check_aybe(s, EL_PTS_3, 0.07 + 0.04j, tolerance=t), 3),
    "skew": (lambda s, t: check_skew_symmetry(s, 0.36 + 0.21j, tolerance=t), 2),
    "trace-power-k5": (lambda s, t: check_trace_power_guess(
        CalogeroConfig(s, (0.2, -0.3j, 0.5), EL_PTS_3), 5, tolerance=t), 5),
    "kzb-flatness": (lambda s, t: check_kzb_flatness(s, EL_PTS_3, tolerance=t), 3),
    "hbar-order-5": (lambda s, t: check_hbar_order_relation(
        s, 5, EL_PTS_5, tolerance=t), 3),
}


class TestVerdict:
    @pytest.mark.parametrize("kind", ["yang", "belavin"])
    @pytest.mark.parametrize("case", VERDICT_CASES)
    def test_default_tolerance_and_pass_rule(self, case, kind):
        check, n = VERDICT_CASES[case]
        spec = yang_spec(3) if kind == "yang" else belavin_spec(3)
        rep = check(spec, None)
        assert rep.tolerance == default_tolerance(spec.kind, 3, n)
        assert rep.passed == (rep.residual < rep.tolerance)
        rep = check(spec, 0.5)
        assert rep.tolerance == 0.5
        assert rep.passed == (rep.residual < 0.5)

    def test_another_hbar_is_validated_by_the_spec(self):
        # N hbar = 1 is a lattice point
        with pytest.raises(PoleProximity):
            dataclasses.replace(belavin_spec(2), hbar=0.5)
        with pytest.raises(ZeroArgument):
            dataclasses.replace(yang_spec(), hbar=0)
        spec = dataclasses.replace(belavin_spec(2), hbar=0.11 + 0.05j)
        rep = check_unitarity(spec, 0.41 + 0.23j)
        assert rep.passed
        want = 4 * (weierstrass_p(0.22 + 0.1j, EL) - weierstrass_p(0.41 + 0.23j, EL))
        assert abs(rep.details["expected"] - want) < 1e-12 * abs(want)


class TestUnitarity:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_coefficient_is_the_dense_trace(self, N):
        # the order-2 DP's probed coefficient against trace / D of the dense
        # product R_12(z) P R(-z) P
        z = 0.41 + 0.23j
        for spec in (yang_spec(N), belavin_spec(N)):
            want = np.trace(unitarity_product(spec, z)) / N ** 2
            got = check_unitarity(spec, z).details["coefficient"]
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_elliptic(self):
        for N in (2, 3):
            rep = check_unitarity(belavin_spec(N=N), 0.41 + 0.23j)
            assert rep.passed
            assert rep.residual < 1e-9
            coeff = rep.details["coefficient"]
            assert abs(coeff - rep.details["expected"]) < 1e-9 * (1 + abs(coeff))

    def test_yang_coefficient_closed_form(self):
        N, h, z = 2, 0.7 + 0.3j, 1.3 - 0.4j
        rep = check_unitarity(yang_spec(N, h), z)
        assert rep.passed
        assert rep.residual < 1e-13
        want = 1 / h ** 2 - N * N / z ** 2
        coeff = rep.details["coefficient"]
        assert abs(coeff - want) < 1e-13 * (1 + abs(want))

    def test_unitarity_delegates_to_second_order(self):
        spec = belavin_spec()
        p0, p1 = 0.61 + 0.33j, 0.2 + 0.1j
        via_n = check_nth_order(spec, 2, [p0, p1])
        direct = check_unitarity(spec, p0 - p1)
        assert via_n.name == "order-2 (unitarity)" and direct.name == "unitarity"
        assert via_n.residual == direct.residual
        assert direct.details == via_n.details
        assert direct.details["algorithm"] == "subset-dp-probe"


class TestNthOrder:
    def test_yang_frozen_fourth_order_coefficient(self):
        rep = check_nth_order(yang_spec(2, hbar=2.0), 4, YANG_PTS_4)
        assert rep.passed
        assert rep.residual < 1e-13
        # (n-1)!/hbar^n = 6/16
        assert abs(rep.details["coefficient"] - 0.375) < 1e-12
        assert abs(rep.details["expected"] - 0.375) < 1e-15
        assert rep.details["orderings"] == 6
        assert rep.details["algorithm"] == "subset-dp-probe"
        assert rep.details["probes"] == 4

    def test_yang_coefficient_formula(self):
        h = 0.7 + 0.3j
        for n, pts in ((3, YANG_PTS_3), (4, YANG_PTS_4), (5, YANG_PTS_5)):
            rep = check_nth_order(yang_spec(2, h), n, pts)
            assert rep.passed
            want = math.factorial(n - 1) / h ** n
            got = rep.details["coefficient"]
            assert abs(got - want) < 1e-12 * (1 + abs(want))

    def test_elliptic_third_order(self):
        h = 0.17 + 0.09j
        rep = check_nth_order(belavin_spec(2, h), 3, EL_PTS_3)
        assert rep.passed
        assert rep.residual < 1e-9
        want = -8 * weierstrass_p(2 * h, EL, deriv_order=1)
        got = rep.details["coefficient"]
        assert abs(got - want) < 1e-9 * (1 + abs(want))
        assert rep.details["scalar_cross_residual"] < 1e-10

    def test_elliptic_fourth_order(self):
        rep = check_nth_order(belavin_spec(2), 4, EL_PTS_4)
        assert rep.passed
        assert rep.residual < 1e-9
        assert rep.details["scalar_cross_residual"] < 1e-9

    def test_first_order_is_same_site(self):
        rep = check_nth_order(belavin_spec(2), 1, [0.4 + 0.2j])
        assert rep.name == "same-site"
        assert rep.passed

    def test_first_order_at_zero_is_typed(self):
        with pytest.raises(ZeroArgument):
            check_nth_order(yang_spec(), 1, [0])

    def test_point_count_validation(self):
        spec = yang_spec()
        with pytest.raises(DimensionMismatch):
            check_nth_order(spec, 1, [0.3, 0.4])
        with pytest.raises(DimensionMismatch):
            check_nth_order(spec, 2, YANG_PTS_3)
        with pytest.raises(DimensionMismatch):
            check_nth_order(spec, 3, YANG_PTS_4)


def dense_cyclic_sum(spec, n, points, outer):
    """The literal sum over orderings of dense embedded chain products."""
    N = spec.site_dim
    factors = {
        (i, j): r_matrix(spec, points[i] - points[j])
        for i in range(n)
        for j in range(n)
        if i != j
    }
    return dense_sum_of_factors(factors, N, n, outer)


def dense_sum_of_factors(factors, N, n, outer):
    """The literal sum, from factors keyed by 0-based site pairs."""
    emb = {
        (i + 1, j + 1): embed_two_site(op, i + 1, j + 1, N, n)
        for (i, j), op in factors.items()
    }
    total = np.zeros((N ** n, N ** n), dtype=complex)
    for ordering in cyclic_orderings(n, outer):
        chain = (outer,) + ordering + (outer,)
        prod = emb[chain[0], chain[1]]
        for u, v in zip(chain[1:-1], chain[2:]):
            prod = prod @ emb[u, v]
        total += prod
    return total


def relative_difference(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.fixture(scope="module")
def dense_n3():
    """Dense sums at N = 3 (D = 81 and 243) with outer site 2."""
    spec = belavin_spec(3)
    return {n: dense_cyclic_sum(spec, n, pts, 2)
            for n, pts in ((4, EL_PTS_4), (5, EL_PTS_5))}


def cyclic_sums(spec, n, points, starts):
    """The whole cyclic product sums from the 0-based outer sites ``starts``:
    the lockstep subset DP of the checks run on the identity."""
    factors = pair_factors(spec, n, points)
    eye = np.eye(spec.site_dim ** n, dtype=complex)
    return cyclic_apply(slabs_of(factors, starts), n, eye)


class TestCyclicProductSumOracle:
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_sum(self, N, n):
        for spec, pts in ((yang_spec(N), YANG_PTS_5), (belavin_spec(N), EL_PTS_5)):
            alone = [cyclic_sums(spec, n, pts[:n], [a])[0] for a in range(n)]
            lockstep = cyclic_sums(spec, n, pts[:n], range(n))
            for outer in range(1, n + 1):
                want = dense_cyclic_sum(spec, n, pts[:n], outer)
                assert relative_difference(alone[outer - 1], want) <= 1e-13
                assert relative_difference(lockstep[outer - 1], want) <= 1e-13

    @pytest.mark.parametrize("N, n", [(1, 5), (2, 3), (2, 5), (3, 4)])
    def test_every_pass_size_matches_dense_sum(self, monkeypatch, N, n):
        # the starts run in passes of 1..n slabs; each pass size gives the
        # sums of every outer site, in the order the starts were given
        for spec, pts in ((yang_spec(N), YANG_PTS_5), (belavin_spec(N), EL_PTS_5)):
            want = [dense_cyclic_sum(spec, n, pts[:n], a + 1) for a in range(n)]
            starts = [n - 1 - a for a in range(n)]
            for size in range(1, n + 1):
                monkeypatch.setattr(tensor_ops, "_STATE_ENTRIES",
                                    size * (N ** n) ** 2)
                got = cyclic_sums(spec, n, pts[:n], starts)
                for a, sum_a in zip(starts, got):
                    assert relative_difference(sum_a, want[a]) <= 1e-13

    @pytest.mark.parametrize("width", [2, 4, 5, 81])
    def test_uneven_column_blocks(self, dense_n3, width):
        # the DP on any split of the identity into column blocks gives the
        # columns of the whole sum
        spec = belavin_spec(3)
        for n, pts in ((4, EL_PTS_4), (5, EL_PTS_5)):
            factors = pair_factors(spec, n, pts)
            eye = np.eye(3 ** n, dtype=complex)
            got = np.hstack([
                cyclic_apply([(factors, 1)], n, eye[:, lo:lo + width])[0]
                for lo in range(0, 3 ** n, width)
            ])
            assert relative_difference(got, dense_n3[n]) <= 1e-13

    def test_size_cap_raises_before_any_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(identities, "r_matrix",
                            lambda *a: calls.append(a) or r_matrix(*a))
        # 3**8 = 6561 is above the cap 4096
        spec, pts = yang_spec(3), [0.3 + 0.4 * k + 0.5j * (k % 3) for k in range(8)]
        with pytest.raises(SizeCapExceeded, match=r"3\*\*8 = 6561"):
            check_nth_order(spec, 8, pts)
        with pytest.raises(SizeCapExceeded, match=r"3\*\*8 = 6561"):
            check_outer_index_independence(spec, 8, pts)
        assert calls == []

    @pytest.mark.parametrize("n", [9, 10])
    def test_wp_order_raises_before_any_work(self, monkeypatch, n):
        # order n compares with wp^(n-2), above MAX_WP_DERIV_ORDER = 6 here
        calls = []
        monkeypatch.setattr(identities, "r_matrix",
                            lambda *a: calls.append(a) or r_matrix(*a))
        pts = [0.1 + 0.07j * k + 0.09 * k for k in range(n)]
        with pytest.raises(UnsupportedDerivOrder):
            check_nth_order(belavin_spec(2), n, pts)
        assert calls == []

    def test_factors_built_once_per_point_set(self, monkeypatch):
        calls = []
        monkeypatch.setattr(identities, "r_matrix",
                            lambda *a: calls.append(a) or r_matrix(*a))
        for n in (3, 4, 5):
            calls.clear()
            rep = check_outer_index_independence(belavin_spec(2), n, EL_PTS_5[:n])
            assert rep.passed
            # one broadcast call evaluates the n(n-1) factors, one per z entry
            assert len(calls) == 1
            assert np.size(calls[0][1]) == n * (n - 1)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_factors_laid_out_once_per_check(self, monkeypatch, n):
        # the DP splits and stacks the factors of every pair of legs once per
        # pass: at N = 2 the n starts of the outer check share one pass up
        # to n = 6 and take two (4 + 3) at n = 7
        calls = []
        split = tensor_ops._gather
        monkeypatch.setattr(
            tensor_ops, "_gather",
            lambda slabs, plan: calls.extend(
                (tuple(a for _, a in slabs), k, j) for k, j in plan.keys)
            or split(slabs, plan))
        spec, pts = belavin_spec(2), EL_PTS_5 + [0.52 + 0.33j, 0.26 + 0.47j]
        legs = [(k, j) for k in range(n) for j in range(n) if k != j]
        outer = [tuple(range(n))] if n < 7 else [(0, 1, 2, 3), (4, 5, 6)]
        for check, groups in ((check_nth_order, [(0,)]),
                              (check_outer_index_independence, outer)):
            calls.clear()
            check(spec, n, pts[:n])
            assert sorted(calls) == sorted((g, k, j) for g in groups for k, j in legs)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_cost_counts_the_steps_taken(self, monkeypatch, n):
        # each slab of a matmul is one two-site step of one sum's DP; the
        # outer check runs n sums, so the budget's n * cost is exact
        slabs = []

        class Logged(np.ndarray):
            """A stack of factors that logs the operand of each matmul."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    slabs.append(inputs[1].shape)
                return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

        split = tensor_ops._gather
        monkeypatch.setattr(tensor_ops, "_gather",
                            lambda *args: split(*args).view(Logged))
        pts = [0.1 + 0.07j * k + 0.13 * k for k in range(n)]
        for N in (1, 2):
            spec = RMatrixSpec(kind="belavin", site_dim=N, lattice=EL,
                               hbar=0.21 + 0.13j)
            D = N ** n
            if n == 2:
                # the order-2 check, unitarity, from one and from both outer
                # sites; it has no outer check
                runs = {1: lambda: check_nth_order(spec, n, pts).passed,
                        2: lambda: all(check_cyclic_batch(
                            [(spec, n, pts, 1, None), (spec, n, pts, 2, None)]))}
            else:
                # one batch runs the slab of an order-n check and the n slabs
                # of an outer check
                runs = {1: lambda: check_nth_order(spec, n, pts).passed,
                        n: lambda: check_outer_index_independence(
                            spec, n, pts).passed,
                        n + 1: lambda: all(check_cyclic_batch(
                            [(spec, n, pts, 1, None), (spec, n, pts, None, None)]))}
            for starts, run in runs.items():
                slabs.clear()
                assert run() is not False
                # every operand is a (B, 2 N^2, D k / N^2) moved state: the
                # real and imaginary planes of D k complex entries
                k = min(4, D)
                assert {shape[1:] for shape in slabs} == {(2 * N * N, D * k // (N * N))}
                steps = sum(shape[0] for shape in slabs)
                assert steps * D * N * N * k == starts * cyclic_sum_cost(N, n)

    def test_site_arguments_must_be_integers(self):
        spec = belavin_spec()
        for outer in (1.5, 2.0):
            with pytest.raises(UsageError, match=f"^outer must be an integer, got {outer}"):
                check_nth_order(spec, 4, EL_PTS_4, outer=outer)
        with pytest.raises(UsageError, match="^n must be an integer, got 3.0"):
            check_nth_order(spec, 3.0, EL_PTS_3)
        with pytest.raises(UsageError, match="^n must be an integer, got 4.0"):
            check_outer_index_independence(spec, 4.0, EL_PTS_4)
        # numpy integers are integers
        assert check_nth_order(spec, np.int64(4), EL_PTS_4, outer=np.int32(2))
        assert check_outer_index_independence(spec, np.int64(4), EL_PTS_4)

    def test_bad_site_counts(self):
        with pytest.raises(DimensionMismatch):
            pair_factors(yang_spec(), 1, YANG_PTS_3[:1])
        with pytest.raises(IndexOutOfRange):
            check_nth_order(yang_spec(), 3, YANG_PTS_3, outer=4)

    def test_outer_is_screened_at_every_order(self):
        # n = 1 and 2 had ignored outer and passed
        spec, pts = belavin_spec(), [0.61 + 0.33j, 0.2 + 0.1j]
        with pytest.raises(IndexOutOfRange, match=r"^outer index 5 not in 1\.\.2$"):
            check_nth_order(spec, 2, pts, outer=5)
        with pytest.raises(IndexOutOfRange, match=r"^outer index 7 not in 1\.\.1$"):
            check_nth_order(spec, 1, pts[:1], outer=7)
        # outer = 2 sums R_21 R_12 from the second site
        x = identities._probe_block(4)
        for outer in (1, 2):
            y = cyclic_apply(slabs_of(pair_factors(spec, 2, pts), [outer - 1]), 2, x)[0]
            rep = check_nth_order(spec, 2, pts, outer=outer)
            assert rep.passed
            assert rep.details["coefficient"] == tensor_ops._probe_scalar(x, y)[0]


def gaussian_probes(dim, seed):
    """A D x min(4, D) Gaussian block scaled to norm sqrt(D), like the
    package's own probe block but drawn from ``seed``."""
    x = np.random.default_rng([seed, dim]).standard_normal((dim, min(4, dim)))
    return x * np.sqrt(dim) / np.linalg.norm(x)


def perturbed(factors, eps):
    """The factors with R_{2,3} moved by eps relative, in a fixed direction."""
    rng = np.random.default_rng(7)
    op = factors[1, 2]
    shift = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
    out = dict(factors)
    out[1, 2] = op + eps * np.linalg.norm(op) / np.linalg.norm(shift) * shift
    return out


def perturbing(n, eps):
    """r_matrix with the factor R_{2,3} of each n-site build moved as in
    :func:`perturbed`: the n(n-1) pair differences of a check come as one
    row, in the pair order of ``identities._pair_differences``."""
    k = [(i, j) for i in range(n) for j in range(n) if i != j].index((1, 2))

    def build(spec, z, hbar=None):
        ops = r_matrix(spec, z, hbar)
        for row in ops:
            row[k] = perturbed({(1, 2): row[k]}, eps)[1, 2]
        return ops
    return build


PROBE_CASES = [(2, 4, EL_PTS_4), (2, 6, EL_PTS_5 + [0.57 + 0.38j]),
               (3, 4, EL_PTS_4)]
PROBE_IDS = [f"N{N}-n{n}" for N, n, _ in PROBE_CASES]


class TestProbedCheck:
    """The probed check against the full sum of the dense oracle."""

    def test_probe_block_is_fixed_and_read_only(self):
        for dim in (1, 2, 81, 256):
            x = tensor_ops._probe_block(dim)
            assert x is tensor_ops._probe_block(dim)
            assert x.shape == (dim, min(4, dim))
            assert not x.flags.writeable
            assert abs(np.linalg.norm(x) - np.sqrt(dim)) < 1e-12 * np.sqrt(dim)

    @pytest.mark.parametrize("N, n, pts", PROBE_CASES, ids=PROBE_IDS)
    @pytest.mark.parametrize("eps", [1e-6, 1e-9])
    def test_probed_residual_tracks_the_full_one(self, monkeypatch, N, n, pts,
                                                 eps):
        spec = belavin_spec(N)
        factors = perturbed(pair_factors(spec, n, pts), eps)
        _, _, full = is_scalar_operator(dense_sum_of_factors(factors, N, n, 1))
        assert full > 0.1 * eps  # the perturbation shows, not round-off
        monkeypatch.setattr(identities, "r_matrix", perturbing(n, eps))
        ratios = []
        for seed in range(50):
            for module in (identities, tensor_ops):
                monkeypatch.setattr(module, "_probe_block",
                                    lambda dim: gaussian_probes(dim, seed))
            rep = check_nth_order(spec, n, pts)
            ratios.append(rep.details["nonscalar_residual"] / full)
        assert 0.5 <= min(ratios) and max(ratios) <= 2

    @pytest.mark.parametrize("N, n, pts", PROBE_CASES, ids=PROBE_IDS)
    def test_probed_coefficient_is_the_trace(self, N, n, pts):
        spec = belavin_spec(N)
        want = np.trace(dense_cyclic_sum(spec, n, pts, 1)) / N ** n
        got = check_nth_order(spec, n, pts).details["coefficient"]
        assert abs(got - want) <= 1e-13 * max(abs(want), 1.0)


class TestOuterIndependence:
    def test_yang(self):
        rep = check_outer_index_independence(yang_spec(2), 4, YANG_PTS_4)
        assert rep.passed
        assert rep.residual < 1e-13
        coeffs = rep.details["coefficients"]
        assert len(coeffs) == 4
        spread = max(abs(c - coeffs[0]) for c in coeffs)
        assert spread < 1e-12 * (1 + abs(coeffs[0]))

    def test_elliptic(self):
        rep = check_outer_index_independence(belavin_spec(2), 3, EL_PTS_3)
        assert rep.passed
        assert rep.residual < 1e-9

    def test_scalar_rank_one(self):
        spec = RMatrixSpec(kind="belavin", site_dim=1, lattice=EL,
                           hbar=0.21 + 0.13j)
        rep = check_outer_index_independence(spec, 4, EL_PTS_4)
        assert rep.passed
        assert rep.residual < 1e-12

    def test_needs_three_sites(self):
        with pytest.raises(DimensionMismatch):
            check_outer_index_independence(yang_spec(), 2, YANG_PTS_3[:2])

    def test_details_name_the_algorithm(self):
        for N, probes in ((1, 1), (2, 4)):
            rep = check_outer_index_independence(belavin_spec(N), 3, EL_PTS_3)
            assert rep.details["algorithm"] == "lockstep-subset-dp-probe"
            assert rep.details["probes"] == probes

    @pytest.mark.parametrize("n, limit_mb", [(7, 2.5), (8, 4.0)])
    def test_peak_memory(self, n, limit_mb):
        # the DP frees each state after its fan-out, and a pass stacks at
        # most _STATE_ENTRIES entries per state; a first call fills the lazy
        # caches (probe block, theta constants), which are not the DP's
        pts = [0.1 + 0.07j * k + 0.13 * k for k in range(n)]
        check_outer_index_independence(belavin_spec(2), n, pts)
        tracemalloc.start()
        try:
            assert check_outer_index_independence(belavin_spec(2), n, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6


class TestQybe:
    def test_both_families(self):
        rep = check_qybe(yang_spec(2), YANG_PTS_3)
        assert rep.passed and rep.residual < 1e-13
        rep = check_qybe(belavin_spec(2), EL_PTS_3)
        assert rep.passed and rep.residual < 1e-9

    def test_rank_one_commutes(self):
        spec = RMatrixSpec(kind="belavin", site_dim=1, lattice=EL,
                           hbar=0.21 + 0.13j)
        rep = check_qybe(spec, EL_PTS_3)
        assert rep.residual < 1e-14

    def test_point_count(self):
        with pytest.raises(DimensionMismatch):
            check_qybe(yang_spec(), YANG_PTS_4)


class TestAybe:
    def test_both_families(self):
        rep = check_aybe(yang_spec(2, 0.7 + 0.3j), YANG_PTS_3, 0.4 - 0.1j)
        assert rep.passed and rep.residual < 1e-13
        rep = check_aybe(belavin_spec(2), EL_PTS_3, 0.07 + 0.04j)
        assert rep.passed and rep.residual < 1e-9

    def test_rank_one_is_scalar_shadow(self):
        spec = RMatrixSpec(kind="belavin", site_dim=1, lattice=EL,
                           hbar=0.21 + 0.13j)
        rep = check_aybe(spec, EL_PTS_3, 0.08 + 0.05j)
        assert rep.residual < 1e-12

    def test_equal_parameters_degenerate(self):
        spec = yang_spec(2, 0.7 + 0.3j)
        with pytest.raises(DegenerateArguments):
            check_aybe(spec, YANG_PTS_3, 0.7 + 0.3j)
        spec = belavin_spec(2)
        with pytest.raises(DegenerateArguments):
            check_aybe(spec, EL_PTS_3, spec.hbar)


class TestSkewSymmetry:
    def test_both_families(self):
        rep = check_skew_symmetry(yang_spec(2), 1.2 + 0.5j)
        assert rep.passed and rep.residual < 1e-13
        rep = check_skew_symmetry(belavin_spec(3), 0.36 + 0.21j)
        assert rep.passed and rep.residual < 1e-9


def lone_outcome(check, request):
    """The report of check on request, or the RmxError it raises."""
    try:
        return check(*request)
    except RmxError as exc:
        return exc


def assert_batch_is_lone(batch, check, requests):
    """The batch entry ``batch`` raises one of the errors that the lone
    checks of requests raise.  On the requests whose checks raise none it
    gives each its lone report, and through errors._joint each request gets
    its lone outcome (:func:`assert_outcomes_are_lone`)."""
    lones = [lone_outcome(check, request) for request in requests]
    with pytest.raises(RmxError) as info:
        batch(requests)
    assert (type(info.value), str(info.value)) in {
        (type(lone), str(lone)) for lone in lones if isinstance(lone, RmxError)}
    good = [i for i, lone in enumerate(lones) if not isinstance(lone, RmxError)]
    assert_outcomes_are_lone(batch([requests[i] for i in good]), [lones[i] for i in good])
    assert_outcomes_are_lone(isolated(batch)(requests), lones)


def assert_outcomes_are_lone(outs, lones):
    """Each out is its lone outcome's error, type and text, or its report:
    the same name and verdict, and a residual within 10x of the lone one,
    both floored at eps."""
    eps = np.finfo(float).eps
    assert len(outs) == len(lones)
    for out, lone in zip(outs, lones):
        if isinstance(lone, RmxError):
            assert (type(out), str(out)) == (type(lone), str(lone))
            continue
        assert (out.name, out.passed, out.tolerance) == (lone.name, lone.passed,
                                                         lone.tolerance)
        ratio = max(out.residual, eps) / max(lone.residual, eps)
        assert 0.1 <= ratio <= 10, (out.residual, lone.residual)


MIXED_SPECS = [yang_spec(2), belavin_spec(2), yang_spec(3), belavin_spec(3),
               yang_spec(2, hbar=0.4 + 0.1j), belavin_spec(2, hbar=0.21 + 0.05j)]


class TestBatchCores:
    """The batch core of each probed check on a mixed batch: families, N,
    hbar, tolerances and arguments that raise, in one list.  The core raises,
    runs the requests that raise nothing jointly, and through errors._joint
    gives each request its lone outcome."""

    def test_unitarity_and_skew_symmetry(self):
        zs = [0.43 + 0.21j, 0.37 - 0.12j, 0.29 + 0.33j, 0.51 + 0.08j, 0.0, 0.61 + 0.2j]
        requests = [(spec, z, tol) for spec, z, tol
                    in zip(MIXED_SPECS, zs, [None, None, 1e-30, None, None, None])]
        assert_batch_is_lone(identities._cyclic_batch, lambda s, n, p, o, t: (
            check_nth_order(s, n, p, o, tolerance=t)),
            [(spec, 2, [z, 0], 1, tol) for spec, z, tol in requests])
        assert_batch_is_lone(identities._skew_symmetry_batch, lambda s, z, t: (
            check_skew_symmetry(s, z, tolerance=t)), requests)

    def test_qybe_and_aybe(self):
        pts = [YANG_PTS_3, EL_PTS_3, YANG_PTS_3, EL_PTS_3, YANG_PTS_3[:2],
               [EL_PTS_3[0], EL_PTS_3[0], EL_PTS_3[1]]]
        requests = [(spec, p, None) for spec, p in zip(MIXED_SPECS, pts)]
        assert_batch_is_lone(identities._qybe_batch, lambda s, p, t: (
            check_qybe(s, p, tolerance=t)), requests)
        # eta = hbar degenerates
        etas = [0.31 - 0.2j, 0.05 + 0.04j, 0.7 + 0.3j, 0.06 + 0.02j, 0.2j, 0.11]
        requests = [(spec, EL_PTS_4[k % 2:][:3], eta, None)
                    for k, (spec, eta) in enumerate(zip(MIXED_SPECS, etas))]
        assert_batch_is_lone(identities._aybe_batch, lambda s, p, e, t: (
            check_aybe(s, p, e, tolerance=t)), requests)

    def test_hbar_derivatives(self):
        requests = [(spec, EL_PTS_3[0], z_b, aux) for spec, z_b, aux in zip(
            MIXED_SPECS, [0.13 + 0.07j, 0.2, EL_PTS_3[0], 0.44 + 0.1j, 0.3, 0.5j],
            [None, None, None, 0.93 + 0.44j, None, None])]

        def report(out):  # the structural residual as a report's
            return out if isinstance(out, RmxError) else IdentityReport(
                "deriv-hbar", True, out.structural_residual, 1.0)

        assert_batch_is_lone(
            lambda reqs: [report(o) for o in rmatrix._hbar_derivatives(reqs)],
            lambda *r: report(rmatrix.r_deriv_hbar(*r)), requests)
        good = [request for request in requests
                if not isinstance(lone_outcome(rmatrix.r_deriv_hbar, request), RmxError)]
        for request, out in zip(good, rmatrix._hbar_derivatives(good)):
            lone = rmatrix.r_deriv_hbar(*request).matrix
            assert np.allclose(out.matrix, lone, rtol=1e-14, atol=0)

    def test_trace_powers_and_hbar_order(self):
        momenta = (0.21 - 0.11j, -0.34 + 0.07j, 0.55 + 0.19j, -0.12 + 0.31j)
        configs = [CalogeroConfig(rspec=spec, momenta=momenta[:n],
                                  positions=pts[:n], coupling=0.8 - 0.2j)
                   for spec, pts, n in zip(MIXED_SPECS, [YANG_PTS_4, EL_PTS_4] * 3,
                                           [3, 3, 3, 4, 2, 3])]
        requests = [(config, power, None) for config, power
                    in zip(configs, [2, 3, 2, 3, 0, 2])]
        assert_batch_is_lone(applications._trace_power_batch, lambda c, k, t: (
            check_trace_power_guess(c, k, tolerance=t)), requests)
        requests = [(spec, n, pts[:n], None) for spec, pts, n in zip(
            MIXED_SPECS, [YANG_PTS_4, EL_PTS_4] * 3, [3, 3, 4, 3, 2, 4])]
        assert_batch_is_lone(applications._hbar_order_batch, lambda s, n, p, t: (
            check_hbar_order_relation(s, n, p, tolerance=t)), requests)

    def test_every_entry_raises_on_a_mixed_batch(self):
        # a good and a bad request to each of the nine batch entries
        spec, yang = belavin_spec(2), yang_spec(2)
        config = CalogeroConfig(rspec=spec, momenta=(0.5, 0.7, 0.9), positions=EL_PTS_3)
        coincident = dataclasses.replace(config, positions=EL_PTS_3[:2] + EL_PTS_3[:1])
        cases = [
            (identities._cyclic_batch, (spec, 4, EL_PTS_4, 1, None),
             (spec, 4, EL_PTS_3, 1, None)),
            (identities._qybe_batch, (yang, YANG_PTS_3, None),
             (yang, YANG_PTS_3[:2], None)),
            (identities._aybe_batch, (spec, EL_PTS_3, 0.05 + 0.02j, None),
             (spec, EL_PTS_3, spec.hbar, None)),
            (identities._skew_symmetry_batch, (yang, 0.3 + 0.2j, None), (yang, 0.0, None)),
            (rmatrix._hbar_derivatives, (spec, 0.3, 0.1, None), (spec, 0.3, ARRAY, None)),
            (cli._deriv_hbar_batch, (spec, 0.3, 0.1, None), (spec, 0.3, ARRAY, None)),
            (applications._trace_power_batch, (config, 2, None), (config, 0, None)),
            (applications._hbar_order_batch, (spec, 3, EL_PTS_3, None),
             (spec, 2, EL_PTS_3[:2], None)),
            (applications._lax_matrices, config, coincident),
        ]
        for entry, good, bad in cases:
            with pytest.raises(RmxError) as lone:
                errors._alone(entry, bad)
            want = (type(lone.value), str(lone.value))
            with pytest.raises(RmxError) as info:
                entry([good, bad, good])
            assert (type(info.value), str(info.value)) == want, entry.__name__
            got = isolated(entry)([good, bad, good])
            assert (type(got[1]), str(got[1])) == want
            lone = errors._alone(entry, good)
            assert same(got[0], lone) and same(got[2], lone), entry.__name__


def same(a, b):
    """a and b hold the same values, arrays compared entry by entry."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(x, y) for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)))
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
