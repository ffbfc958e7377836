import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sphlab import ncmax
from sphlab import (
    DomainError,
    DyadicRange,
    HermitianStack,
    InfeasibleScale,
    NonHermitianInput,
    SphereSpec,
    TorusField,
    dyadic_maximal,
    empirical_maximal_ratio,
    lp_norm,
    order_interval_majorant,
    random_hermitian_stack,
    spherical_average,
)
from sphlab.fields import _Scratch
from test_acceptance import grid_oracle_2x2

INF = math.inf
# relative change below which two per-site norms or dual values tie to rounding
TIE = 16.0 * np.finfo(float).eps


def batched_abs_sum(matrices: np.ndarray) -> np.ndarray:
    """sum_k |x_k| per site, via eigendecompositions."""
    out = np.zeros_like(matrices[0])
    for x in matrices:
        vals, vecs = np.linalg.eigh(x)
        out += np.einsum("sab,sb,scb->sac", vecs, np.abs(vals), np.conj(vecs))
    return out


def stack_norm(matrices: np.ndarray, p) -> float:
    """p-norm of a single Hermitian field given as (sites, n, n)."""
    if p == INF:
        return float(np.abs(np.linalg.eigvalsh(matrices)).max())
    return float(np.sqrt(np.sum(np.abs(matrices) ** 2)))


def test_lp_norm_examples():
    single = TorusField.matrix(1, np.diag([3.0, -4.0])[np.newaxis].astype(complex))
    assert lp_norm(single, 2) == pytest.approx(5.0, rel=1e-14)
    assert lp_norm(single, INF) == pytest.approx(4.0, rel=1e-14)
    zero = TorusField.matrix(1, np.zeros((2, 2, 2), dtype=complex))
    assert lp_norm(zero, 2) == 0.0
    assert lp_norm(zero, INF) == 0.0
    with pytest.raises(DomainError):
        lp_norm(single, 3)


def test_stack_validation():
    with pytest.raises(NonHermitianInput):
        HermitianStack(np.ones((1, 1, 2, 2)) * 1j)
    with pytest.raises(DomainError):
        HermitianStack(np.zeros((2, 2, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_stack_rejects_non_finite_entries(bad):
    finite = random_hermitian_stack(2, 3, 2, 200).matrices
    HermitianStack(finite)  # positive control
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for entry in ((0, 1, 0, 0), (1, 2, 1, 0)):
            m = finite.copy()
            m[entry] = bad
            with pytest.raises(NonHermitianInput):
                HermitianStack(m)


def test_stack_rejects_empty_fibers():
    HermitianStack(np.zeros((2, 3, 1, 1)))  # positive control: the smallest fiber
    with pytest.raises(DomainError):
        HermitianStack(np.zeros((2, 3, 0, 0)))


def test_random_stack_over_entry_budget_raises_before_allocating():
    # 3 x 10^15 complex 2 x 2 fibers would need 2 x 10^17 bytes; the check comes first
    with pytest.raises(InfeasibleScale):
        random_hermitian_stack(3, 10**15, 2, 7)


def test_known_two_projection_family():
    fam = np.zeros((2, 1, 2, 2), dtype=complex)
    fam[0, 0] = np.diag([1.0, 0.0])
    fam[1, 0] = np.diag([0.0, 1.0])
    stack = HermitianStack(fam)
    assert order_interval_majorant(stack, INF).value == pytest.approx(1.0, abs=1e-8)
    assert order_interval_majorant(stack, 2).value == pytest.approx(math.sqrt(2), abs=1e-8)


def test_commutative_exactness():
    for trial in range(20):
        stack = random_hermitian_stack(4, 8, 1, 300 + trial)
        sup = np.abs(stack.matrices[:, :, 0, 0]).max(axis=0)
        for p, closed in ((INF, sup.max()), (2, math.sqrt((sup**2).sum()))):
            sol = order_interval_majorant(stack, p, tol=1e-8)
            assert sol.value == pytest.approx(float(closed), abs=1e-8)


def test_commuting_family_closed_form():
    # x_k = U diag(d_k) U* share an eigenbasis, so the optimum is U diag(max_k |d_k|) U*
    rng = np.random.Generator(np.random.Philox(350))
    for n in (2, 4, 8):
        diags = rng.standard_normal((3, 5, n))
        raw = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
        unitary, _ = np.linalg.qr(raw)
        xs = np.einsum("sab,ksb,scb->ksac", unitary, diags, np.conj(unitary))
        stack = HermitianStack((xs + np.conj(np.swapaxes(xs, -1, -2))) / 2)
        closed = math.sqrt(float(np.sum(np.max(diags**2, axis=0))))
        for tol in (1e-6, 1e-8):
            sol = order_interval_majorant(stack, 2, tol=tol)
            # value and closed are two roundings of one number, so the exact
            # lower side 0 is held to 4 ulps of closed
            assert -4 * math.ulp(closed) <= sol.value - closed <= tol
            assert sol.lower_bound <= closed + 1e-12


def test_solution_feasibility_and_bounds():
    for trial in range(10):
        stack = random_hermitian_stack(3, 4, 2, 400 + trial)
        for p in (2, INF):
            sol = order_interval_majorant(stack, p, tol=1e-7)
            assert sol.converged
            assert 0 <= sol.value - sol.lower_bound <= 1e-7
            # feasibility at every site and family member
            for s in range(stack.sites):
                for x in stack.matrices[:, s]:
                    for sign in (1.0, -1.0):
                        low = np.linalg.eigvalsh(sol.majorant[s] + sign * x)[0]
                        assert low >= -1e-7
            # lower bound: each member's norm
            for k in range(stack.family_size):
                assert sol.value >= stack_norm(stack.matrices[k], p) - 1e-6
            # upper bound: the matrix-absolute sum is feasible
            assert sol.value <= stack_norm(batched_abs_sum(stack.matrices), p) + 1e-9


def _fro_sq(m: np.ndarray) -> np.ndarray:
    return np.sum(np.abs(m) ** 2, axis=(-2, -1))


def _psd_part(h: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    clipped = vecs * np.maximum(vals, 0.0)[..., np.newaxis, :]
    return clipped @ np.conj(np.swapaxes(vecs, -1, -2))


def _sweep(v: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Gauss-Seidel: each member in turn takes its exact block maximizer."""
    z = v.copy()
    a = z.sum(axis=0)
    for j, y in enumerate(ys):
        block = _psd_part(z[j] + y - a)
        a += block - z[j]
        z[j] = block
    return z


def _fista_step(v: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Jacobi: every member steps by 1/(2K), the inverse Lipschitz constant, at once."""
    return _psd_part(v + 1.0 / len(ys) * (ys - v.sum(axis=0)))


def _lapack_dual_ascent(xs: np.ndarray, tol: float, max_iter: int, ascend):
    """Accelerated dual ascent for every p = 2 fiber problem at once, on LAPACK ``eigh``.

    The fiber problem min ||a||^2 / 2 subject to a >= y_j for y_j = +-x_k
    has the dual max sum_j <Z_j, y_j> - ||sum_j Z_j||^2 / 2 over Z_j >= 0,
    with primal point a = sum_j Z_j.  ``ascend`` maps the extrapolated
    point V to the next dual iterate.  Each site carries its own momentum t
    and restarts it at 1 when its dual value falls by more than ``TIE`` or
    the gradient test <V - Z_new, Z_new - Z> > 0 fires there
    (O'Donoghue-Candes).  Any dual value d certifies ||a|| >= sqrt(2 d) at
    its site, and a shifted by the identity times its worst infeasibility is
    feasible.  A site whose squared best norm B and bound L satisfy
    B - L <= 2 tol L / sqrt(sum B) is frozen: a mask keeps its B and L from
    changing, while its iterates run on unread.  The solve stops when every
    site is frozen or the summed-in-squares best feasible norm and dual
    bound are within ``tol``.  Returns (majorant, value, lower_bound,
    converged, iterations, site_sweeps).
    """
    ys = np.concatenate([xs, -xs])
    eye = np.eye(xs.shape[-1], dtype=complex)
    # a = 0 repaired is the p = inf closed form, feasible from the start
    best = np.linalg.eigvalsh(ys)[..., -1].max(axis=0)[:, np.newaxis, np.newaxis] * eye
    best_sq = _fro_sq(best)
    lower_sq = np.zeros(xs.shape[1])
    z = v = np.zeros_like(ys)
    t = np.ones(xs.shape[1])
    dual_prev = np.zeros(xs.shape[1])
    live = np.ones(xs.shape[1], dtype=bool)
    converged, iters, site_sweeps = False, 0, 0
    for iters in range(1, max_iter + 1):
        site_sweeps += int(live.sum())
        z_new = ascend(v, ys)
        a = z_new.sum(axis=0)
        dual = np.sum((np.conj(z_new) * ys).real, axis=(0, 2, 3)) - _fro_sq(a) / 2.0
        lower_sq[live] = np.maximum(lower_sq, 2.0 * dual)[live]
        shift = np.maximum(0.0, -np.linalg.eigvalsh(a - ys)[..., 0].min(axis=0))
        cand = a + shift[:, np.newaxis, np.newaxis] * eye
        cand_sq = _fro_sq(cand)
        better = live & (cand_sq <= best_sq * (1.0 + TIE))
        best[better], best_sq[better] = cand[better], cand_sq[better]
        total_sq = best_sq.sum()
        gap = math.sqrt(total_sq) - math.sqrt(lower_sq.sum())
        moved = z_new - z
        gradient_test = np.sum((np.conj(v - z_new) * moved).real, axis=(0, 2, 3)) > 0.0
        restart = gradient_test | (dual < dual_prev * (1.0 - TIE))
        t_next = np.where(restart, 1.0, (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0)
        beta = np.where(restart, 0.0, (t - 1.0) / t_next)
        v = z_new + beta[:, np.newaxis, np.newaxis] * moved
        z, t, dual_prev = z_new, t_next, dual
        live &= (best_sq - lower_sq) * math.sqrt(total_sq) > 2.0 * tol * lower_sq
        if not live.any() or gap <= tol:
            converged = True
            break
    value, lower = math.sqrt(best_sq.sum()), math.sqrt(lower_sq.sum())
    return best, value, lower, converged, iters, site_sweeps


def lapack_solve_p2(xs: np.ndarray, tol: float, max_iter: int):
    """The package's Gauss-Seidel sweep, with every projection by LAPACK ``eigh``."""
    return _lapack_dual_ascent(xs, tol, max_iter, _sweep)


def fista_solve_p2(xs: np.ndarray, tol: float, max_iter: int):
    """FISTA (Beck-Teboulle) on the same dual: a different algorithm, the same optimum."""
    return _lapack_dual_ascent(xs, tol, max_iter, _fista_step)


# Each site keeps its best repaired iterate, and a later one that ties it to
# within TIE replaces it.  Near a site's optimum the squared norm is flat to
# second order, so iterates 1e-8 apart tie to rounding; under a strict
# comparison the Pauli and LAPACK routes kept different ones, up to 1.6e-8
# apart on the stacks below, while their values agreed to 4e-15.  Preferring
# the later tie lands both routes on the same converged iterate, so the site
# norms are held to 1e-12 and the arrays to MAJORANT_ABS.
MAJORANT_ABS = 1e-10


def assert_matches_lapack_oracle(stack: HermitianStack, tol: float = 1e-6) -> None:
    sol = order_interval_majorant(stack, 2, tol=tol)
    majorant, value, lower, converged, iters, site_sweeps = lapack_solve_p2(stack.matrices, tol, 500)
    assert (sol.iterations, sol.converged, sol.site_sweeps) == (iters, converged, site_sweeps)
    assert abs(sol.value - value) <= 1e-12
    assert abs(sol.lower_bound - lower) <= 1e-12
    assert np.abs(_fro_sq(sol.majorant) - _fro_sq(majorant)).max() <= 1e-12
    assert np.abs(sol.majorant - majorant).max() <= MAJORANT_ABS


@pytest.mark.parametrize("sites", [1, 32, 257])
@pytest.mark.parametrize("family", [1, 3, 6])
@pytest.mark.parametrize("real", [False, True])
def test_pauli_kernel_matches_lapack_oracle(real, family, sites):
    stack = random_hermitian_stack(family, sites, 2, 100 * family + sites)
    # the real part of a Hermitian matrix is real symmetric
    assert_matches_lapack_oracle(HermitianStack(stack.matrices.real) if real else stack)


def degenerate_stacks() -> dict[str, HermitianStack]:
    rng = np.random.Generator(np.random.Philox(1300))
    scalars = rng.standard_normal((3, 5))[..., np.newaxis, np.newaxis] * np.eye(2)
    u = rng.standard_normal((3, 5, 2)) + 1j * rng.standard_normal((3, 5, 2))
    signs = rng.choice([-1.0, 1.0], size=(3, 5))[..., np.newaxis, np.newaxis]
    rank_one = signs * np.einsum("ksa,ksb->ksab", u, np.conj(u))
    return {
        "zero": HermitianStack(np.zeros((3, 5, 2, 2))),
        "identity_multiples": HermitianStack(scalars),
        "rank_one": HermitianStack(rank_one),
    }


@pytest.mark.parametrize("name", ["zero", "identity_multiples", "rank_one"])
def test_pauli_kernel_matches_lapack_oracle_on_degenerate_stacks(name):
    stack = degenerate_stacks()[name]
    assert_matches_lapack_oracle(stack)
    if name == "identity_multiples":
        # vector parts vanish: the optimum is max_k |c_k| I at each site
        top = np.abs(stack.matrices[..., 0, 0].real).max(axis=0)
        sol = order_interval_majorant(stack, 2)
        assert abs(sol.value - math.sqrt(2 * float(np.sum(top**2)))) <= 1e-6


def test_oracle_catches_conjugated_pauli_coordinates(monkeypatch):
    # flipping h2 solves the conjugate family: same optimal value, conjugate majorant
    stack = random_hermitian_stack(3, 32, 2, 1400)
    majorant, value, *_ = lapack_solve_p2(stack.matrices, 1e-6, 500)
    assert np.abs(order_interval_majorant(stack, 2).majorant - majorant).max() <= MAJORANT_ABS
    coords = ncmax._LorentzCone.coords
    flip = np.array([1.0, 1.0, -1.0, 1.0])[:, np.newaxis]
    monkeypatch.setattr(ncmax._LorentzCone, "coords", staticmethod(lambda m: coords(m) * flip))
    sol = order_interval_majorant(stack, 2)
    assert abs(sol.value - value) <= 1e-12
    assert np.abs(sol.majorant - majorant).max() > MAJORANT_ABS


@pytest.mark.parametrize("n", [2, 4])
def test_batch_solve_separates_over_sites(n):
    # the fiber problems are independent, so a batch must give each site what
    # it gets alone; at tol 0 no site of these stacks certifies a gap of 0
    # within 10 sweeps, so a budget of 10 runs in full on both sides
    stack = random_hermitian_stack(4, 16, n, n)
    batch = order_interval_majorant(stack, 2, tol=0.0, max_iter=10)
    assert batch.iterations == 10 and not batch.converged
    for s in range(stack.sites):
        alone = order_interval_majorant(
            HermitianStack(stack.matrices[:, s : s + 1]), 2, tol=0.0, max_iter=10
        )
        assert alone.iterations == 10 and not alone.converged
        assert np.abs(alone.majorant[0] - batch.majorant[s]).max() <= MAJORANT_ABS


@pytest.mark.parametrize(
    "family,sites,n,seed,budget",
    [
        # every site certifies a gap of exactly 0 alone, after 14 to 96 sweeps
        (4, 16, 2, 2, 100),
        # under the eigen-free repair few n = 4 sites reach a gap of exactly 0:
        # here 3 of 8 do, after 82, 120 and 135 sweeps, and the rest run out
        (2, 8, 4, 22, 150),
    ],
)
def test_frozen_sites_stop_where_they_stop_alone(family, sites, n, seed, budget):
    # at tol 0 a site freezes exactly when its own gap is 0, so the batch must
    # sweep each site as often as its lone solve does and keep what it keeps
    stack = random_hermitian_stack(family, sites, n, seed)
    batch = order_interval_majorant(stack, 2, tol=0.0, max_iter=budget)
    lone = [
        order_interval_majorant(
            HermitianStack(stack.matrices[:, s : s + 1]), 2, tol=0.0, max_iter=budget
        )
        for s in range(sites)
    ]
    assert batch.site_sweeps == sum(sol.iterations for sol in lone)
    assert batch.site_sweeps < sites * batch.iterations  # some sites froze
    assert batch.converged == all(sol.converged for sol in lone)
    for s, sol in enumerate(lone):
        assert np.abs(sol.majorant[0] - batch.majorant[s]).max() <= MAJORANT_ABS


def test_batch_stopped_by_freezing_every_site_certifies_tol(monkeypatch):
    # frozen sites leave the working arrays through the cone's take, so a last
    # take of no sites shows that the batch stopped because every site froze
    kept = []
    take = ncmax._LorentzCone.take

    def spy(h, sites):
        kept.append(sites.size)
        return take(h, sites)

    monkeypatch.setattr(ncmax._LorentzCone, "take", staticmethod(spy))
    sol = order_interval_majorant(random_hermitian_stack(4, 16, 2, 2), 2, tol=1e-6)
    assert sol.converged and kept and kept[-1] == 0
    assert 0.0 <= sol.value - sol.lower_bound <= 1e-6


def solution_bits(sol) -> tuple:
    """Every field of a solution, the majorant as its bytes."""
    return (sol.value, sol.lower_bound, sol.converged, sol.iterations, sol.site_sweeps,
            sol.majorant.shape, sol.majorant.tobytes())


# (n, family size, seeds of the 1-, 7- and 16-site stacks, tol-0 budget): at tol 0
# the 1-site stack freezes every site within the budget and the 16-site one runs out
BATCH_STACKS = [(2, 4, (201, 207, 216), 50), (4, 2, (19, 407, 416), 60)]


@pytest.mark.parametrize("n,family,seeds,budget", BATCH_STACKS)
@pytest.mark.parametrize("tol", [1e-6, 0.0])
def test_batched_stacks_get_their_lone_bits(n, family, seeds, budget, tol):
    # each stack freezes against its own sum and stops on its own rule, so the
    # batch must give every stack each field it gets alone, bit for bit
    stacks = [random_hermitian_stack(family, sites, n, seed) for sites, seed in zip((1, 7, 16), seeds)]
    max_iter = budget if tol == 0.0 else 500
    lone = [order_interval_majorant(stack, 2, tol=tol, max_iter=max_iter) for stack in stacks]
    batch = ncmax.order_interval_majorants(stacks, 2, tol=tol, max_iter=max_iter)
    assert [solution_bits(sol) for sol in batch] == [solution_bits(sol) for sol in lone]
    if tol == 0.0:
        assert lone[0].converged and lone[0].iterations < budget
        assert lone[0].site_sweeps == lone[0].iterations  # its one site froze
        assert not lone[2].converged and lone[2].iterations == budget
    else:
        assert all(sol.converged for sol in lone)
    inf_lone = [order_interval_majorant(stack, INF) for stack in stacks]
    inf_batch = ncmax.order_interval_majorants(stacks, INF)
    assert [solution_bits(sol) for sol in inf_batch] == [solution_bits(sol) for sol in inf_lone]


def test_stack_batches_fit_the_entry_budget(monkeypatch):
    # 16, 112, 256 and 112 entries under a budget of 200: the first two share a
    # batch, the 256-entry stack is solved alone and the last starts a new batch
    stacks = [random_hermitian_stack(4, sites, 2, 300 + sites) for sites in (1, 7, 16, 7)]
    whole = ncmax.order_interval_majorants(stacks, 2)
    solve = ncmax._solve_p2
    batches = []

    def spy(batch, tol, max_iter):
        batches.append([stack.sites for stack in batch])
        return solve(batch, tol, max_iter)

    monkeypatch.setattr(ncmax, "_solve_p2", spy)
    monkeypatch.setattr(ncmax, "MAX_SITES", 200)
    # a generator: the stacks are read in order, one batch at a time
    split = ncmax.order_interval_majorants((stack for stack in stacks), 2)
    assert batches == [[1, 7], [16], [7]]
    assert [solution_bits(sol) for sol in split] == [solution_bits(sol) for sol in whole]
    monkeypatch.setattr(ncmax, "MAX_SITES", 1 << 26)
    batches.clear()
    assert [solution_bits(sol) for sol in ncmax.order_interval_majorants(stacks, 2)] == [
        solution_bits(sol) for sol in whole
    ]
    assert batches == [[1, 7, 16, 7]]


def test_batch_of_no_stacks_and_of_mixed_stacks():
    assert ncmax.order_interval_majorants((), 2) == ()
    assert ncmax.order_interval_majorants(iter(()), INF) == ()
    base = random_hermitian_stack(3, 4, 2, 1)
    for other in (random_hermitian_stack(2, 4, 2, 2), random_hermitian_stack(3, 4, 3, 3)):
        for p in (2, INF):
            with pytest.raises(DomainError, match="share K and n"):
                ncmax.order_interval_majorants((base, other), p)
    # a different site count is fine
    sols = ncmax.order_interval_majorants((base, random_hermitian_stack(3, 9, 2, 4)), 2)
    assert [sol.majorant.shape for sol in sols] == [(4, 2, 2), (9, 2, 2)]


def _worst_eigenvalue(stack: HermitianStack, majorant: np.ndarray) -> float:
    """Lowest eigenvalue of any a +- x_k, relative to the largest entry of the x_k."""
    xs = stack.matrices
    scale = max(1.0, float(np.abs(xs).max()))
    low = min(float(np.linalg.eigvalsh(majorant[np.newaxis] + sign * xs).min()) for sign in (1, -1))
    return low / scale


def _weyl_infeasible_solves() -> list[tuple[int, int, float]]:
    """(n, max_iter, worst eigenvalue) of every early or converged solve that is not feasible."""
    bad = []
    for n in (3, 4, 8):
        stack = random_hermitian_stack(3, 16, n, 1800 + n)
        for max_iter in (1, 2, 3, 5, 500):
            sol = order_interval_majorant(stack, 2, max_iter=max_iter)
            assert sol.converged or max_iter < 500
            worst = _worst_eigenvalue(stack, sol.majorant)
            if worst < -1e-12:
                bad.append((n, max_iter, worst))
    return bad


def test_weyl_repair_is_feasible_after_any_budget():
    # the matrix cone's shift max_j ||sum_{i>j} (Z_i - V_i)||_F bounds every
    # member's infeasibility by Weyl's inequality, with no eigen step
    assert _weyl_infeasible_solves() == []


def test_weyl_feasibility_catches_a_dropped_suffix_term(monkeypatch):
    def short_repair(self, a, ys, z, v):
        # every suffix sum without the last member's move
        suffix = np.cumsum((z - v)[-2:0:-1], axis=0)
        return np.sqrt(self.sq_norm(suffix).max(axis=0))

    # the converged n = 3 and n = 4 solves then sink to -2e-7 and -2e-9
    monkeypatch.setattr(ncmax._MatrixCone, "repair", short_repair)
    assert _weyl_infeasible_solves()


@pytest.mark.parametrize("n,budget", [(4, 60), (8, 60)])
def test_p2_iterations_within_guard(n, budget):
    # the sweep certifies these in 29 and 43 sweeps; FISTA's Jacobi step needed 126 and 173
    sol = order_interval_majorant(random_hermitian_stack(4, 16, n, n), 2, tol=1e-6)
    assert sol.converged and sol.iterations <= budget


def test_p2_dual_restart_breaks_a_cycling_fiber():
    # under the gradient test alone this fiber's dual cycled: 10,000 sweeps left
    # a gap of 1.3e-4; restarting when the dual value falls certifies 1e-8 in
    # 145 sweeps (the FISTA oracle: 202)
    fiber = random_hermitian_stack(3, 4096, 2, 5).matrices[:, 2415:2416]
    sol = order_interval_majorant(HermitianStack(fiber), 2, tol=1e-8)
    assert sol.converged and sol.iterations <= 250


def test_p2_iterations_within_guard_at_many_sites():
    # the maximal-survey stack at 2,048 sites: 182 sweeps; FISTA needed 552
    sol = order_interval_majorant(random_hermitian_stack(3, 2048, 2, 1007), 2, tol=1e-6)
    assert sol.converged and sol.iterations <= 250


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_sweep_agrees_with_fista_oracle(n):
    # two algorithms on one dual: each value lies within its own certified gap
    # of the optimum, so the two lie within the sum of both gaps
    stack = random_hermitian_stack(3, 24, n, 1700 + n)
    sol = order_interval_majorant(stack, 2, tol=1e-6)
    _, value, lower, converged, *_ = fista_solve_p2(stack.matrices, 1e-6, 2000)
    assert sol.converged and converged
    assert abs(sol.value - value) <= (sol.value - sol.lower_bound) + (value - lower)
    assert max(sol.lower_bound, lower) <= min(sol.value, value)


@pytest.mark.parametrize("tol", [math.nan, -1e-9, -math.inf])
def test_majorant_rejects_bad_tol(tol):
    stack = random_hermitian_stack(2, 3, 2, 1600)
    assert order_interval_majorant(stack, 2, tol=0.0, max_iter=5).iterations == 5
    for p in (2, INF):
        with pytest.raises(DomainError):
            order_interval_majorant(stack, p, tol=tol)


@pytest.mark.parametrize("max_iter", [0, -1])
def test_majorant_rejects_empty_budget(max_iter):
    stack = random_hermitian_stack(2, 3, 2, 1600)
    assert order_interval_majorant(stack, 2, max_iter=1).iterations == 1
    for p in (2, INF):
        with pytest.raises(DomainError):
            order_interval_majorant(stack, p, max_iter=max_iter)


def test_inf_majorant_closed_form_at_n2():
    real = HermitianStack(random_hermitian_stack(3, 17, 2, 1501).matrices.real)  # real symmetric
    stacks = [random_hermitian_stack(3, 17, 2, 1500), real]
    for stack in stacks + list(degenerate_stacks().values()):
        sol = order_interval_majorant(stack, INF)
        spread = np.abs(np.linalg.eigvalsh(stack.matrices)).max(axis=(0, -1))
        assert np.abs(sol.majorant - spread[:, None, None] * np.eye(2)).max() <= 1e-12
        assert abs(sol.value - float(spread.max())) <= 1e-12
        assert sol.value == sol.lower_bound and sol.iterations == 0 and sol.converged


def test_inf_majorant_closed_form_large_fibers():
    for n in (4, 8):
        for trial in range(3):
            stack = random_hermitian_stack(3, 5, n, 450 + 10 * n + trial)
            sol = order_interval_majorant(stack, INF)
            closed = max(
                float(np.abs(np.linalg.eigvalsh(x)).max())
                for k in range(stack.family_size)
                for x in stack.matrices[k]
            )
            assert abs(sol.value - closed) <= 1e-12
            assert sol.iterations == 0
            assert sol.converged
            for s in range(stack.sites):
                for x in stack.matrices[:, s]:
                    for sign in (1.0, -1.0):
                        assert np.linalg.eigvalsh(sol.majorant[s] + sign * x)[0] >= -1e-12


def test_homogeneity():
    stack = random_hermitian_stack(3, 4, 2, 510)
    for p in (2, INF):
        base = order_interval_majorant(stack, p, tol=1e-9, max_iter=2000).value
        for c in (2.0, 0.5, 3.0):
            scaled = order_interval_majorant(
                HermitianStack(c * stack.matrices), p, tol=1e-9, max_iter=2000
            ).value
            assert abs(scaled - c * base) <= 1e-8 * max(1.0, c * base)


def test_monotonicity_under_family_growth():
    for trial in range(10):
        stack = random_hermitian_stack(3, 4, 2, 600 + trial)
        for p in (2, INF):
            small = order_interval_majorant(HermitianStack(stack.matrices[:2]), p, tol=1e-7)
            full = order_interval_majorant(stack, p, tol=1e-7)
            assert full.value >= small.value - 1e-6


def test_grid_oracle_agreement():
    # for real symmetric inputs the optimum over Hermitian majorants may be
    # taken real: conjugation preserves feasibility and the two norms, and the
    # midpoint of a with its conjugate is feasible with no larger norm
    rng = np.random.Generator(np.random.Philox(700))
    for trial in range(8):
        k = int(rng.integers(1, 4))
        raw = rng.standard_normal((k, 1, 2, 2))
        sym = (raw + np.swapaxes(raw, -1, -2)) / 2
        stack = HermitianStack(sym.astype(complex))
        p = INF if trial % 2 else 2
        sol = order_interval_majorant(stack, p, tol=1e-8)
        oracle = grid_oracle_2x2(sym[:, 0], p)
        assert abs(sol.value - oracle) <= 0.05


def square_function_norm(stack: HermitianStack, p) -> float:
    """max of the column norm ||(sum x_k* x_k)^(1/2)||_p and its row analogue."""
    m = stack.matrices
    col = np.einsum("ksab,ksac->sbc", np.conj(m), m)
    row = np.einsum("ksab,kscb->sac", m, np.conj(m))
    if p == 2:
        # ||B^(1/2)||_2^2 = sum of traces of B
        return max(
            math.sqrt(np.trace(col, axis1=-2, axis2=-1).real.sum()),
            math.sqrt(np.trace(row, axis1=-2, axis2=-1).real.sum()),
        )
    col_top = np.linalg.eigvalsh(col)[:, -1].max(initial=0.0)
    row_top = np.linalg.eigvalsh(row)[:, -1].max(initial=0.0)
    return math.sqrt(max(col_top, row_top, 0.0))


def test_square_function_norm():
    single = random_hermitian_stack(1, 3, 2, 800)
    field = TorusField.matrix(1, single.matrices[0])
    for p in (2, INF):
        assert square_function_norm(single, p) == pytest.approx(lp_norm(field, p), rel=1e-10)
    scalar = random_hermitian_stack(4, 5, 1, 801)
    vals = scalar.matrices[:, :, 0, 0].real
    pointwise = np.sqrt((vals**2).sum(axis=0))
    assert square_function_norm(scalar, INF) == pytest.approx(pointwise.max(), rel=1e-12)
    assert square_function_norm(scalar, 2) == pytest.approx(
        math.sqrt((pointwise**2).sum()), rel=1e-12
    )


def test_square_function_dominates_maximal():
    # pilot ceiling for the order-interval / square-function ratio
    worst = 0.0
    for trial in range(10):
        stack = random_hermitian_stack(3, 3, 2, 900 + trial)
        for p in (2, INF):
            value = order_interval_majorant(stack, p, tol=1e-7).value
            square = square_function_norm(stack, p)
            worst = max(worst, value / square)
    assert worst <= 1.2


def test_maximal_norm_commutative():
    rng = np.random.Generator(np.random.Philox(1000))
    f = TorusField.scalar(rng.standard_normal((16, 16)).astype(complex))
    scales = DyadicRange((0, 1))
    for p in (2, INF):
        single = lp_norm(spherical_average(f, SphereSpec(2, 1)), p)
        assert lp_norm(dyadic_maximal(f, scales), p) >= single - 1e-12


def test_empirical_maximal_ratio():
    stats = empirical_maximal_ratio(2, 16, DyadicRange((0,)), trials=5, seed=77)
    assert all(r <= 1 + 1e-10 for r in stats.ratios)
    multi = empirical_maximal_ratio(2, 16, DyadicRange((0, 1, 2)), trials=5, seed=78)
    assert all(r <= 3 for r in multi.ratios)
    assert multi.max_ratio >= multi.mean_ratio
    again = empirical_maximal_ratio(2, 16, DyadicRange((0, 1, 2)), trials=5, seed=78)
    assert stats.ratios != multi.ratios
    assert multi.ratios == again.ratios


@pytest.mark.parametrize(
    "d,side,seed,storage",
    [
        pytest.param(2, 16, 78, float, id="2-16-78"),
        pytest.param(3, 9, 5, float, id="3-9-5"),
        pytest.param(4, 16, 7, float, id="4-16-7"),
        pytest.param(5, 12, 7, float, id="5-12-7"),
        pytest.param(6, 9, 7, float, id="6-9-7"),
        pytest.param(3, 9, 5, complex, id="3-9-5-complex"),
    ],
)
def test_empirical_maximal_ratio_matches_per_scale_route(d, side, seed, storage):
    """Redraw the survey's Philox fields and take the maximum one public average at a time.

    The survey draws each field into its scratch's running maximum; the
    oracle draws them into arrays of their own, and the ratios must agree
    bit for bit.  The complex-storage case runs the survey's loop, one
    scratch shared by every trial, on the same draws stored as complex
    numbers.
    """
    scales = DyadicRange((0, 1, 2))
    rng = np.random.Generator(np.random.Philox(seed))
    fields = [TorusField.scalar(rng.standard_normal((side,) * d).astype(storage)) for _ in range(4)]
    expected = []
    for f in fields:
        mags = [np.abs(spherical_average(f, SphereSpec(d, t * t)).values) for t in scales.scales()]
        expected.append(lp_norm(TorusField(d, np.maximum.reduce(mags)), 2) / lp_norm(f, 2))
    if storage is float:
        ratios = empirical_maximal_ratio(d, side, scales, trials=4, seed=seed).ratios
    else:
        scratch = _Scratch((2,), d, side, (1, 4, 16))
        ratios = tuple(
            lp_norm(dyadic_maximal(f, scales, scratch=scratch), 2) / lp_norm(f, 2)
            for f in fields
        )
    assert ratios == tuple(expected)


def test_empirical_maximal_ratio_peak_memory():
    """One scratch for every scale and trial: the traced peak stays within 5.2 torus arrays.

    At (5, 12) that is the scratch (two work buffers, the spectrum and the
    maximum, into which each trial draws its field: four torus arrays of
    float64) and the three scale symbols, each 7^2 12^3 values held by
    frequency on its first two axes (0.34 of one each).  ``lp_norm`` holds
    no temporary; a separate draw array would add one more, and so would
    fresh transform buffers per scale or per trial.
    """
    d, side = 5, 12
    tracemalloc.start()
    try:
        empirical_maximal_ratio(d, side, DyadicRange((0, 1, 2)), 4, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.2 * side**d * 8
