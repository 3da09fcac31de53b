"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its headline numbers and enforcing its runtime budget."""
import json
import time
import tracemalloc
from math import comb

import numpy as np
import pytest

import kfmc
from kfmc import (KernelSpec, OfflineHyperparams, OnlineHyperparams,
                  ProblemShape, SyntheticSpec)
from kfmc.cli import main as cli_main
from kfmc.dataio import read_json
from kfmc.kernels import kernel_matrix, power_weights
from kfmc.offline import (_dictionary_parts, completion_step, dictionary_step,
                          fit, objective, solve_codes)
from kfmc.online import OnlineModel, update_dictionary


class Timer:
    def __init__(self, budget_s):
        self.budget = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.budget, \
                f"runtime {self.elapsed:.1f}s exceeded budget {self.budget}s"
        return False


@pytest.fixture(scope="module")
def union_problem():
    """Union of 3 nonlinear subspaces at 30% missing, with truth and mask."""
    X_true, _ = kfmc.generate(SyntheticSpec(d=3, p=3, u=3, m=30, n_per=100,
                                            seed=1))
    mask = kfmc.random_mask(30, 300, 0.3, seed=2)
    mm = kfmc.impute_init(np.where(mask.observed, X_true, np.nan), mask)
    return X_true, mask, mm


@pytest.fixture(scope="module")
def lrf_baseline(union_problem):
    X_true, _, mm = union_problem
    best = min(kfmc.relative_error(
        kfmc.lrf_complete(mm, r, ridge=1e-4, iters=100, seed=0), X_true)
        for r in (5, 10, 19, 30))
    return best


def test_criterion_1_rank_predictions():
    with Timer(10) as t:
        presets = ((3, 3, 1, 19), (3, 3, 3, 30), (3, 1, 10, 30))
        for d, p, u, expected in presets:
            for seed in range(20):
                X, _ = kfmc.generate(SyntheticSpec(d=d, p=p, u=u, m=30,
                                                   n_per=100, seed=seed))
                assert kfmc.numerical_rank(X, 1e-8) == expected
        s = ProblemShape(m=20, n=200, d=2, p=4, q=2, u=1)
        assert kfmc.expected_rank_X(s) / min(s.m, s.n) == 0.75
        assert kfmc.expected_rank_phi(s) / min(comb(22, 2), s.n) == 0.225
    print(f"\nACCEPTANCE 1 (rank predictions 19/30/30, ratios 0.75/0.225): "
          f"PASS [{t.elapsed:.1f}s]")


def test_criterion_2_sampling_bounds():
    with Timer(5) as t:
        s1 = ProblemShape(m=20, n=300, d=2, p=2, q=2, u=3)
        s2 = ProblemShape(m=20, n=300, d=2, p=1, q=2, u=10)
        assert abs(kfmc.rho_kfmc(s1) - 0.562) <= 0.005
        assert abs(kfmc.rho_kfmc(s2) - 0.639) <= 0.005
        assert abs(kfmc.rho_lrmc(s1) - 0.906) <= 0.005
        assert kfmc.rho_lrmc(s2) == pytest.approx(1.0)
    print(f"\nACCEPTANCE 2 (sampling bounds 0.562/0.639/0.906/1.0): "
          f"PASS [{t.elapsed:.2f}s]")


def test_criterion_3_twisted_cubic():
    with Timer(60) as t:
        X = kfmc.twisted_cubic(100, seed=5)
        spec = KernelSpec.rbf(1.2)

        def kfmc_rbf_best(mask):
            mm = kfmc.impute_init(np.where(mask.observed, X, np.nan), mask,
                                  strategy="zero")
            runs = [fit(mm, spec, OfflineHyperparams(
                r=10, alpha=0.1, beta=1e-4, eta=0.5, t_max=3000, tol=1e-9,
                seed=s)) for s in (0, 1, 2)]
            best = min(runs, key=lambda m: m.objective_trace[-1])
            return kfmc.relative_error(best.completed, X)

        mask1 = kfmc.random_mask(3, 100, 0.0, seed=6, per_column_exact=1)
        re_kfmc = kfmc_rbf_best(mask1)
        assert re_kfmc < 0.05

        mm1 = kfmc.impute_init(np.where(mask1.observed, X, np.nan), mask1)
        re_lrf = min(kfmc.relative_error(
            kfmc.lrf_complete(mm1, r, ridge=1e-4, iters=200, seed=0), X)
            for r in (1, 2, 3))
        assert re_lrf > 0.3

        mask2 = kfmc.random_mask(3, 100, 0.0, seed=6, per_column_exact=2)
        re_two = kfmc_rbf_best(mask2)
        assert re_two > 0.3
    print(f"\nACCEPTANCE 3 (twisted cubic: kfmc {re_kfmc:.3f}<0.05, "
          f"lrf {re_lrf:.2f}>0.3, two-missing {re_two:.2f}>0.3): "
          f"PASS [{t.elapsed:.0f}s]")


def test_criterion_4_highrank_vs_lowrank(union_problem, lrf_baseline):
    with Timer(300) as t:
        X_true, _, mm = union_problem
        dbar = kfmc.mean_pairwise_distance(mm.completion)
        from kfmc.tuning import best_offline, poly_candidates, rbf_candidates
        candidates = poly_candidates(30) + rbf_candidates(30, dbar)
        best, _ = best_offline(mm, X_true, candidates, seed=0)
        assert best.relative_error < 0.5 * lrf_baseline
    print(f"\nACCEPTANCE 4 (offline kfmc {best.relative_error:.3f} < "
          f"0.5 x lrf {lrf_baseline:.3f}): PASS [{t.elapsed:.0f}s]")


def test_criterion_5_optimization_invariants(rng):
    with Timer(60) as t:
        # finite differences of the exact RBF dictionary gradient and of the
        # completion gradients behind the shipped step (step * tau times the
        # curvature it divides by), RBF and poly of degree 1-3, at m, n, r <= 5
        def fd(f, A, h=1e-6):
            G = np.zeros_like(A)
            for idx in np.ndindex(A.shape):
                Ap, Am = A.copy(), A.copy()
                Ap[idx] += h
                Am[idx] -= h
                G[idx] = (f(Ap) - f(Am)) / (2 * h)
            return G

        for trial in range(5):
            r = np.random.default_rng(trial)
            X = r.standard_normal((4, 5))
            D = r.standard_normal((4, 3))
            Z = r.standard_normal((3, 5))
            spec = KernelSpec.rbf(1.0 + r.uniform())
            alpha, beta = 0.3, 0.1
            g = _dictionary_parts(spec, X, D, Z, alpha)[0]
            g_fd = fd(lambda DD: objective(spec, X, DD, Z, alpha, beta), D)
            assert np.linalg.norm(g - g_fd) <= 1e-5 * np.linalg.norm(g_fd)
            poly = KernelSpec.poly(1 + trial % 3, 0.5 + r.uniform())
            for cspec in (spec, poly):
                step = completion_step(cspec, X, D, Z, 2.0)
                if cspec.is_poly:
                    w1 = (np.sum(X * X, axis=0) + cspec.offset) ** (
                        cspec.degree - 1)
                    g = step * 2.0 * cspec.degree * w1
                else:
                    k_sum = np.sum(Z * kernel_matrix(cspec, D, X), axis=0)
                    g = step * 2.0 * (2.0 / cspec.sigma**2) * np.abs(k_sum)
                g_fd = fd(lambda XX: objective(cspec, XX, D, Z, alpha, beta), X)
                assert np.linalg.norm(g - g_fd) <= 1e-5 * np.linalg.norm(g_fd)

        # eta = 0 objective traces are monotone non-increasing
        X_true, _ = kfmc.generate(SyntheticSpec(d=3, p=3, u=1, m=20,
                                                n_per=60, seed=3))
        mask = kfmc.random_mask(20, 60, 0.3, seed=4)
        mm = kfmc.impute_init(np.where(mask.observed, X_true, np.nan), mask)
        for spec, beta in ((KernelSpec.rbf(3.0), 1e-4),
                           (KernelSpec.poly(2, 1.0), 0.1)):
            model = fit(mm, spec, OfflineHyperparams(
                r=20, alpha=0.1, beta=beta, eta=0.0, t_max=60, tol=0.0, seed=5))
            tr = model.objective_trace
            assert np.all(np.diff(tr) <= 1e-9 * np.maximum(np.abs(tr[:-1]),
                                                           1e-30))

        # Lemma-style sufficient decrease, 100 random frozen-weight instances
        def surrogate_batch(spec, X, D, Z, alpha, W1, W2):
            t1 = -np.sum((W1 * (X.T @ D + spec.offset)) * Z.T)
            M2 = W2 * (D.T @ D + spec.offset)
            return t1 + 0.5 * np.sum(Z * (M2 @ Z)) + 0.5 * alpha * np.trace(M2)

        tau = 2.0
        for trial in range(100):
            r = np.random.default_rng(10_000 + trial)
            X = r.standard_normal((4, 6))
            D = r.standard_normal((4, 3))
            Z = r.standard_normal((3, 6))
            alpha = 0.2 + 0.5 * r.uniform()
            spec = KernelSpec.poly(int(r.integers(2, 4)), 0.3 + r.uniform())
            W1 = power_weights(spec, X.T @ D)
            W2 = power_weights(spec, D.T @ D)
            g = _dictionary_parts(spec, X, D, Z, alpha)[0]
            H = (Z @ Z.T) * W2 + alpha * np.diag(np.diag(W2))
            bound = -np.trace(g @ np.linalg.solve(H, g.T)) / (2 * tau)
            step = dictionary_step(spec, X, D, Z, alpha, tau)
            dec = (surrogate_batch(spec, X, D - step, Z, alpha, W1, W2)
                   - surrogate_batch(spec, X, D, Z, alpha, W1, W2))
            assert dec <= bound + 1e-8

        for trial in range(100):
            r = np.random.default_rng(20_000 + trial)
            D = r.standard_normal((5, 3))
            x = r.standard_normal(5)
            z = r.standard_normal(3)
            alpha = 0.2 + 0.5 * r.uniform()
            spec = KernelSpec.poly(int(r.integers(2, 4)), 0.3 + r.uniform())
            w1 = (x @ D + spec.offset) ** (spec.degree - 1)
            W2 = power_weights(spec, D.T @ D)

            def surrogate_sample(Dc):
                t1 = -np.sum(w1 * (x @ Dc + spec.offset) * z)
                M2 = W2 * (Dc.T @ Dc + spec.offset)
                return t1 + 0.5 * z @ (M2 @ z) + 0.5 * alpha * np.trace(M2)

            grad = (-np.outer(x, w1 * z)
                    + D @ ((np.outer(z, z) + alpha * np.eye(3)) * W2))
            H = np.outer(z, z) * W2 + alpha * np.diag(np.diag(W2))
            tau0 = np.linalg.norm(H, 2)
            model = OnlineModel(D)
            hp = OnlineHyperparams(r=3, alpha=alpha, beta=0.1, tau=tau,
                                   eta=0.0, seed=0)
            update_dictionary(model, x[:, None], z[:, None], spec, hp)
            dec = surrogate_sample(model.dictionary) - surrogate_sample(D)
            assert dec <= -np.sum(grad * grad) / (2 * tau * tau0) + 1e-8
    print(f"\nACCEPTANCE 5 (gradient checks @1e-5, monotone traces, "
          f"sufficient decrease x200): PASS [{t.elapsed:.0f}s]")


def test_criterion_6_online_behavior(union_problem, lrf_baseline):
    with Timer(300) as t:
        X_true, mask, mm = union_problem
        masked = np.where(mask.observed, X_true, np.nan)
        samples = [(masked[:, j], mask.column_split(j)[0]) for j in range(300)]
        dbar = kfmc.mean_pairwise_distance(mm.completion)
        spec = KernelSpec.rbf(dbar)
        finals = {}
        for n_pass in (1, 10):
            hp = OnlineHyperparams(r=60, alpha=0.1, beta=1e-4, eta=0.5,
                                   n_iter=30, n_pass=n_pass, tol=1e-6, seed=0)
            X_hat, model = kfmc.run_stream(samples, spec, hp,
                                           ground_truth=X_true)
            finals[n_pass] = (model.err_trace[-1],
                              kfmc.relative_error(X_hat, X_true))
        assert finals[10][0] <= finals[1][0]
        assert finals[10][1] < lrf_baseline

        # structural memory bound: peak allocation in the online path stays
        # within c * (m*r + r^2) elements, far below any stream-sized buffer
        m, r, n = 40, 10, 1500
        gen = np.random.default_rng(0)
        model = OnlineModel(gen.standard_normal((m, r)))
        hp = OnlineHyperparams(r=r, alpha=0.1, beta=1e-3, eta=0.5, n_iter=5,
                               seed=0)
        sp = KernelSpec.rbf(3.0)
        budget = 100 * (m * r + r * r) * 8
        assert budget < n * m * 8
        peak_inside = 0
        tracemalloc.start()
        try:
            for _ in range(n):
                x = gen.standard_normal(m)
                obs = gen.choice(m, size=25, replace=False)
                xs = np.full(m, np.nan)
                xs[obs] = x[obs]
                tracemalloc.reset_peak()
                kfmc.run_stream([(xs, obs)], sp, hp, model=model)
                _, peak = tracemalloc.get_traced_memory()
                peak_inside = max(peak_inside, peak)
        finally:
            tracemalloc.stop()
        assert peak_inside <= budget
    print(f"\nACCEPTANCE 6 (online: e_t {finals[10][0]:.3f}<={finals[1][0]:.3f}, "
          f"RE {finals[10][1]:.3f}<lrf {lrf_baseline:.3f}, "
          f"peak {peak_inside//1024}KiB<={budget//1024}KiB): PASS [{t.elapsed:.0f}s]")


def test_criterion_7_out_of_sample(tmp_path):
    with Timer(120) as t:
        # checkpoint bitwise unchanged through the CLI surface
        gen_dir = tmp_path / "data"
        cli_main(["gen", "--preset", "single-nonlinear", "--missing", "0.3",
                  "--seed", "9", "--out", str(gen_dir)])
        train_dir = tmp_path / "train"
        cli_main(["stream", "--data", str(gen_dir / "data.csv"),
                  "--mask", str(gen_dir / "mask.csv"), "--kernel", "rbf",
                  "--passes", "2", "--r", "30", "--beta", "1e-4",
                  "--n-iter", "15", "--seed", "4", "--out", str(train_dir)])
        ckpt = train_dir / "model.ckpt"
        before = ckpt.read_bytes()
        ose_dir = tmp_path / "ose"
        assert cli_main(["ose", "--model", str(ckpt),
                         "--input", str(gen_dir / "data.csv"),
                         "--mask", str(gen_dir / "mask.csv"),
                         "--n-iter", "15", "--seed", "0",
                         "--out", str(ose_dir)]) == 0
        assert ckpt.read_bytes() == before

        # per-sample time grows like m*r across {m, 2m} x {r, 2r}
        def per_sample_time(m, r):
            gen = np.random.default_rng(0)
            D = gen.standard_normal((m, r))
            sp = KernelSpec.rbf(float(np.sqrt(m)))
            samples = []
            for _ in range(25):
                x = gen.standard_normal(m)
                obs = gen.choice(m, size=int(0.7 * m), replace=False)
                xs = np.full(m, np.nan)
                xs[obs] = x[obs]
                samples.append((xs, obs))
            kfmc.complete_new(D, samples[:3], sp, beta=1e-4, n_iter=20)
            # best of 3 calls: one call is short enough for host noise to
            # swamp the m*r scaling.  CPU time of this process (BLAS runs
            # single-threaded here) is not inflated by other load on the host.
            best = float("inf")
            for _ in range(3):
                t0 = time.process_time()
                kfmc.complete_new(D, samples, sp, beta=1e-4, n_iter=20, tol=0.0)
                best = min(best, time.process_time() - t0)
            return best / len(samples)

        m0, r0 = 1024, 128
        normalized = []
        for m, r in ((m0, r0), (m0, 2 * r0), (2 * m0, r0), (2 * m0, 2 * r0)):
            normalized.append(per_sample_time(m, r) / (m * r))
        spread = max(normalized) / min(normalized)
        assert spread <= 1.3 / 0.7
    print(f"\nACCEPTANCE 7 (checkpoint unchanged; time/(m*r) spread "
          f"{spread:.2f} <= 1.86): PASS [{t.elapsed:.0f}s]")


def test_criterion_8_cli_determinism(tmp_path):
    with Timer(120) as t:
        outs = []
        for tag in ("a", "b"):
            d = tmp_path / f"gen_{tag}"
            assert cli_main(["gen", "--preset", "union-nonlinear",
                             "--missing", "0.3", "--seed", "7",
                             "--out", str(d)]) == 0
            outs.append(d)
        for fname in ("data.csv", "mask.csv", "manifest.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

        comp = []
        for tag in ("a", "b"):
            d = tmp_path / f"run_{tag}"
            assert cli_main(["complete", "--data", str(outs[0] / "data.csv"),
                             "--mask", str(outs[0] / "mask.csv"),
                             "--method", "kfmc-rbf", "--r", "30",
                             "--t-max", "60", "--seed", "11",
                             "--out", str(d)]) == 0
            comp.append(d)
        for fname in ("completed.csv", "trace.csv"):
            assert (comp[0] / fname).read_bytes() == (comp[1] / fname).read_bytes()
        r0 = read_json(comp[0] / "report.json")
        r1 = read_json(comp[1] / "report.json")
        r0.pop("wall_time_s")
        r1.pop("wall_time_s")
        assert r0 == r1

        streams = []
        for tag in ("a", "b"):
            d = tmp_path / f"st_{tag}"
            assert cli_main(["stream", "--data", str(outs[0] / "data.csv"),
                             "--mask", str(outs[0] / "mask.csv"),
                             "--kernel", "rbf", "--passes", "1", "--r", "30",
                             "--n-iter", "10", "--seed", "3",
                             "--out", str(d)]) == 0
            streams.append(d)
        for fname in ("completed.csv", "trace.csv", "model.ckpt"):
            assert (streams[0] / fname).read_bytes() == (streams[1] / fname).read_bytes()
    print(f"\nACCEPTANCE 8 (seeded CLI runs byte-identical): "
          f"PASS [{t.elapsed:.0f}s]")
