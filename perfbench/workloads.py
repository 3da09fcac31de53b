"""The benchmark workloads: set-up, one timed repetition, output checks.

Every workload is a closed loop with one client in one process.  A
workload object is built from a seed and a :class:`Size`; ``setup()``
makes its inputs from the seed and warms the solvers up, and ``rep(i)``
runs repetition ``i`` of the timed part, timing each call into kfmc from
outside, checking its output and recording the result in ``self.tally``
and ``self.samples``.

* ``batch``: ``kfmc complete`` (RBF, momentum) and ``kfmc complete
  --method kfmc-poly --eta 0`` (guarded) through ``kfmc.cli.main``, on
  datasets from ``kfmc gen --preset union-nonlinear --missing 0.3``.
* ``stream``: ``kfmc stream --passes 2`` (momentum) and ``kfmc stream
  --eta 0 --passes 1`` (guarded) on the same kind of data.
* ``ose``: ``complete_new`` against dictionaries from ``train_dictionary``:
  single-column requests and one bulk call on the same columns for each
  dictionary, then one call at m=1024, r=256.

``batch`` and ``stream`` cycle through several datasets made from the seed,
and ``ose`` through several dictionaries: a relative error depends on the
data, and its median over many inputs varies much less from seed to seed.
"""
from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Calls go through the module attributes, so the tracer's wrappers see them.
from kfmc import checkpoint, cli, masking, offline, ose, synth, tuning
from kfmc.kernels import KernelSpec

BETA_RBF = 1e-4  # the CLI's default beta for the RBF kernel
MISSING = 0.3


@dataclass(frozen=True)
class Size:
    """Problem sizes; :data:`FULL` is the benchmark, :data:`TINY` the smoke test."""

    gen_args: tuple            # `kfmc gen` shape arguments
    batch_datasets: int
    stream_datasets: int
    complete_args: tuple       # extra `kfmc complete` arguments
    stream_args: tuple         # extra `kfmc stream` arguments
    warmup_sweeps: int
    ose_union: tuple           # (m, u, n_per) of the small out-of-sample case
    ose_r: int
    ose_t_max: int
    ose_train: int
    ose_cases: int             # small out-of-sample cases, one dictionary each
    ose_single: int            # columns per case: single requests, then one bulk call
    large_m: int
    large_r: int
    large_cols: int
    re_ceiling: dict           # relative-error ceiling of each output kind


# The full-size ceilings are 3 to 7 times the median relative error seen
# over 60 datasets (the worst RBF dataset was twice the median), so only a
# real loss of accuracy trips them.
FULL = Size(gen_args=("--preset", "union-nonlinear"),
            batch_datasets=12, stream_datasets=5,
            complete_args=(), stream_args=(), warmup_sweeps=5,
            ose_union=(30, 3, 440), ose_r=60, ose_t_max=200, ose_train=300,
            ose_cases=10, ose_single=150,
            large_m=1024, large_r=256, large_cols=60,
            re_ceiling={"batch.rbf": 0.25, "batch.poly": 0.25,
                        "stream.momentum": 0.4, "stream.guarded": 0.6,
                        "ose.small": 0.15, "ose.large": 0.05})

TINY = Size(gen_args=("--d", "2", "--p", "2", "--u", "2", "--m", "8",
                      "--n-per", "10"),
            batch_datasets=2, stream_datasets=1,
            complete_args=("--t-max", "3"), stream_args=("--n-iter", "3"),
            warmup_sweeps=2,
            ose_union=(8, 2, 20), ose_r=8, ose_t_max=3, ose_train=12,
            ose_cases=2, ose_single=10,
            large_m=32, large_r=8, large_cols=4,
            re_ceiling=dict.fromkeys(("batch.rbf", "batch.poly", "stream.momentum",
                                      "stream.guarded", "ose.small", "ose.large"),
                                     1.0))


class Tally:
    """Operations attempted and the failed ones, each with its cause."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: {'; '.join(problems)}")


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def check_output(X_hat, truth, observed, ceiling=np.inf) -> tuple[list[str], float]:
    """Problems with a completed matrix, and its relative error to ``truth``.

    Observed entries must equal the input bitwise, every entry must be
    finite, and the relative error must stay under ``ceiling``.
    """
    problems = []
    if X_hat.shape != truth.shape:
        return [f"shape {X_hat.shape} != {truth.shape}"], float("nan")
    if not np.all(np.isfinite(X_hat)):
        problems.append("non-finite output")
    if not np.array_equal(_bits(X_hat[observed]), _bits(truth[observed])):
        problems.append("observed entries changed")
    re = float(np.linalg.norm(X_hat - truth) / np.linalg.norm(truth))
    if not re <= ceiling:
        problems.append(f"relative error {re:.4g} above ceiling {ceiling}")
    return problems, re


def _quiet_cli(argv) -> int:
    """``kfmc.cli.main`` with its progress line kept off standard output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _warm_up(X, observed, size: Size, seed: int) -> None:
    """A short batch fit and one out-of-sample request on the given data."""
    mm = masking.impute_init(np.where(observed, X, np.nan), masking.Mask(observed))
    spec = KernelSpec.rbf(tuning.mean_pairwise_distance(mm.completion, seed=seed))
    hp = offline.OfflineHyperparams(r=2 * X.shape[0], beta=BETA_RBF,
                                    t_max=size.warmup_sweeps, seed=seed)
    D = offline.fit(mm, spec, hp).dictionary
    ose.complete_new(D, [_sample(X[:, 0], observed[:, 0])], spec, BETA_RBF)


def _sample(x, observed_col):
    return np.where(observed_col, x, np.nan), np.flatnonzero(observed_col)


class CliWorkload:
    """Two ``kfmc`` CLI runs per repetition, cycling over generated datasets.

    ``configs`` holds (key, argv, columns completed per column of data); the
    first is the workload's main run, the second its alternative.
    """

    configs: tuple = ()

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size, self.seed, self.workdir = size, seed, Path(workdir)
        self.tally = Tally()
        self.samples: dict[str, list[float]] = {k: [] for k, _, _ in self.configs}
        self.re: dict[str, dict[int, float]] = {k: {} for k, _, _ in self.configs}
        self._first_bytes: dict[tuple[str, int], bytes] = {}

    def setup(self) -> None:
        self.data = []
        for i in range(self.cycle):
            d = self.workdir / f"data{i}"
            code = _quiet_cli(["gen", *self.size.gen_args, "--missing", MISSING,
                               "--seed", self.seed * 1000 + i, "--out", d])
            if code != 0:
                raise RuntimeError(f"kfmc gen exited with {code}")
            truth = np.loadtxt(d / "data.csv", delimiter=",", ndmin=2)
            observed = np.loadtxt(d / "mask.csv", delimiter=",", ndmin=2) == 1
            self.data.append((d, truth, observed))
        _, truth, observed = self.data[0]
        _warm_up(truth, observed, self.size, self.seed)

    def rep(self, i: int) -> None:
        k = i % self.cycle
        d, truth, observed = self.data[k]
        for key, argv, visits in self.configs:
            out = self.workdir / f"out{k}-{key}"
            full = [*argv, "--data", d / "data.csv", "--mask", d / "mask.csv",
                    "--out", out]
            name = f"{self.name}.{key} dataset {k}"
            t0 = time.perf_counter()
            try:
                code = _quiet_cli(full)
            except Exception as exc:  # a crash is a failed operation
                self.tally.op(name, [f"raised {exc!r}"])
                continue
            wall = time.perf_counter() - t0
            if code != 0:
                self.tally.op(name, [f"exit code {code}"])
                continue
            self.samples[key].append(wall / (visits * truth.shape[1]))
            self.tally.op(name, self._check(key, k, out, truth, observed))

    def _check(self, key, k, out, truth, observed) -> list[str]:
        raw = (out / "completed.csv").read_bytes()
        X_hat = np.loadtxt(io.BytesIO(raw), delimiter=",", ndmin=2)
        problems, re = check_output(X_hat, truth, observed,
                                    self.size.re_ceiling[f"{self.name}.{key}"])
        reported = json.loads((out / "report.json").read_text())["relative_error"]
        if not abs(reported - re) <= 1e-9 * re:
            problems.append(f"report.json relative error {reported} != {re}")
        first = self._first_bytes.setdefault((key, k), raw)
        if raw != first:
            problems.append("completed.csv differs from the first run on "
                            "the same data")
        self.re[key][k] = re
        return problems

    def median_re(self, key) -> float:
        return float(np.median(list(self.re[key].values())))

    def generic(self) -> dict:
        (main, *_), (alt, *_) = self.configs
        return {"main_ms_per_col": 1e3 * np.median(self.samples[main]),
                "alt_ms_per_col": 1e3 * np.median(self.samples[alt]),
                "main_re": self.median_re(main), "alt_re": self.median_re(alt)}


class Batch(CliWorkload):
    name = "batch"
    configs = (("rbf", ("complete",), 1),
               ("poly", ("complete", "--method", "kfmc-poly", "--eta", "0"), 1))

    def __init__(self, size, seed, workdir):
        self.cycle = size.batch_datasets
        self.configs = tuple((k, (*a, *size.complete_args), v)
                             for k, a, v in self.configs)
        super().__init__(size, seed, workdir)

    def named_metrics(self) -> dict:
        n = self.data[0][1].shape[1]
        return {
            "complete_rbf_s": (np.median(self.samples["rbf"]) * n, "s"),
            "complete_poly_s": (np.median(self.samples["poly"]) * n, "s"),
            "complete_rbf_re": (self.median_re("rbf"), "1"),
            "complete_poly_re": (self.median_re("poly"), "1"),
        }


class Stream(CliWorkload):
    name = "stream"
    configs = (("momentum", ("stream", "--kernel", "rbf", "--passes", "2"), 2),
               ("guarded", ("stream", "--kernel", "rbf", "--eta", "0",
                            "--passes", "1"), 1))

    def __init__(self, size, seed, workdir):
        self.cycle = size.stream_datasets
        self.configs = tuple((k, (*a, *size.stream_args), v)
                             for k, a, v in self.configs)
        super().__init__(size, seed, workdir)

    def named_metrics(self) -> dict:
        return {
            "stream_ms_per_sample": (1e3 * np.median(self.samples["momentum"]), "ms"),
            "stream_guarded_ms_per_sample": (1e3 * np.median(self.samples["guarded"]), "ms"),
            "stream_re": (self.median_re("momentum"), "1"),
            "stream_guarded_re": (self.median_re("guarded"), "1"),
        }


@dataclass
class _Case:
    """One small out-of-sample case: a frozen dictionary and its requests."""

    D: np.ndarray
    spec: KernelSpec
    truth: np.ndarray
    observed: np.ndarray
    requests: list
    ckpt: Path
    ckpt_bytes: bytes
    D_bits: np.ndarray


class OutOfSample:
    """Out-of-sample completion against frozen dictionaries (library calls).

    Repetition ``i`` visits small case ``i mod (cases + 1)`` (single
    requests, then one bulk call on the same columns), or the large case
    when ``i mod (cases + 1)`` equals the number of small cases.
    """

    name = "ose"

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size, self.seed, self.workdir = size, seed, Path(workdir)
        self.cycle = size.ose_cases + 1
        self.tally = Tally()
        self.samples = {"single": [], "bulk": [], "large": []}
        self.re = {"single": {}, "bulk": {}, "large": {}}
        self._first: dict = {}

    def setup(self) -> None:
        s = self.size
        m, u, n_per = s.ose_union
        self.cases = []
        for c in range(s.ose_cases):
            case_seed = self.seed * 1000 + c
            rng = np.random.default_rng(case_seed)
            X, _ = synth.generate(synth.SyntheticSpec(d=3, p=3, u=u, m=m,
                                                      n_per=n_per, seed=case_seed))
            perm = rng.permutation(X.shape[1])
            train = X[:, perm[:s.ose_train]]
            truth = X[:, perm[s.ose_train:s.ose_train + s.ose_single]]
            observed = synth.random_mask(m, s.ose_single, MISSING,
                                         seed=int(rng.integers(2**31))).observed
            if c == 0:
                _warm_up(truth, observed, s, case_seed)
            spec = KernelSpec.rbf(tuning.mean_pairwise_distance(train, seed=case_seed))
            hp = offline.OfflineHyperparams(r=s.ose_r, beta=BETA_RBF,
                                            t_max=s.ose_t_max, seed=case_seed)
            ckpt = self.workdir / f"model{c}.ckpt"
            checkpoint.save_checkpoint(ckpt, ose.train_dictionary(train, spec, hp),
                                       spec, metadata={"beta": BETA_RBF})
            D, spec, _ = checkpoint.load_checkpoint(ckpt)
            self.cases.append(_Case(
                D, spec, truth, observed,
                [_sample(truth[:, j], observed[:, j]) for j in range(s.ose_single)],
                ckpt, ckpt.read_bytes(), _bits(D).copy()))

        rng = np.random.default_rng(self.seed)
        XL, _ = synth.generate(synth.SyntheticSpec(
            d=3, p=3, u=1, m=s.large_m, n_per=s.large_r + s.large_cols,
            seed=self.seed))
        self.DL = XL[:, :s.large_r]
        self.truth_large = XL[:, s.large_r:]
        self.observed_large = synth.random_mask(
            s.large_m, s.large_cols, MISSING, seed=int(rng.integers(2**31))).observed
        self.requests_large = [_sample(self.truth_large[:, j],
                                       self.observed_large[:, j])
                               for j in range(s.large_cols)]
        self.spec_large = KernelSpec.rbf(
            tuning.mean_pairwise_distance(self.DL, seed=self.seed))
        ose.complete_new(self.DL, self.requests_large[:1], self.spec_large,
                         BETA_RBF)

    def _call(self, name, D, spec, requests):
        t0 = time.perf_counter()
        try:
            out = ose.complete_new(D, requests, spec, BETA_RBF)
        except Exception as exc:  # a crash is a failed operation
            self.tally.op(name, [f"raised {exc!r}"])
            return None, 0.0
        return out, time.perf_counter() - t0

    def _same_as_first(self, key, out) -> list[str]:
        first = self._first.setdefault(key, out)
        if not np.array_equal(_bits(out), _bits(first)):
            return ["output differs from the first repetition"]
        return []

    def rep(self, i: int) -> None:
        c = i % self.cycle
        if c < len(self.cases):
            self._small(c, self.cases[c])
        else:
            self._large()

    def _small(self, c: int, case: _Case) -> None:
        cols = np.full(case.truth.shape, np.nan)
        for j, request in enumerate(case.requests):
            name = f"ose.single case {c} column {j}"
            out, wall = self._call(name, case.D, case.spec, [request])
            if out is None:
                continue
            self.samples["single"].append(wall)
            problems, _ = check_output(out, case.truth[:, j:j + 1],
                                       case.observed[:, j:j + 1])
            if not problems:
                cols[:, j] = out[:, 0]
                problems = self._same_as_first(("single", c, j), out)
            self.tally.op(name, problems)
        self.re["single"][c] = check_output(cols, case.truth, case.observed)[1]

        name = f"ose.bulk case {c}"
        out, wall = self._call(name, case.D, case.spec, case.requests)
        if out is not None:
            self.samples["bulk"].append(wall / len(case.requests))
            problems, self.re["bulk"][c] = check_output(
                out, case.truth, case.observed, self.size.re_ceiling["ose.small"])
            if not np.array_equal(_bits(out), _bits(cols)):
                problems.append("bulk output differs from single requests")
            problems += self._same_as_first(("bulk", c), out)
            self.tally.op(name, problems)

    def _large(self) -> None:
        s = self.size
        out, wall = self._call("ose.large", self.DL, self.spec_large,
                               self.requests_large)
        if out is not None:
            self.samples["large"].append(wall / s.large_cols)
            problems, self.re["large"][0] = check_output(
                out, self.truth_large, self.observed_large,
                s.re_ceiling["ose.large"])
            problems += self._same_as_first("large", out)
            for c, case in enumerate(self.cases):
                if case.ckpt.read_bytes() != case.ckpt_bytes:
                    problems.append(f"checkpoint of case {c} changed")
                if not np.array_equal(_bits(case.D), case.D_bits):
                    problems.append(f"dictionary of case {c} changed")
            self.tally.op("ose.large", problems)

    def _median_re(self, key) -> float:
        return float(np.median(list(self.re[key].values())))

    def named_metrics(self) -> dict:
        single = np.asarray(self.samples["single"])
        return {
            "ose_p50_ms": (1e3 * np.quantile(single, 0.5), "ms"),
            "ose_p99_ms": (1e3 * np.quantile(single, 0.99), "ms"),
            "ose_bulk_cols_per_s": (1.0 / np.median(self.samples["bulk"]), "cols/s"),
            "ose_large_cols_per_s": (1.0 / np.median(self.samples["large"]), "cols/s"),
            "ose_re": (self._median_re("single"), "1"),
            "ose_large_re": (self._median_re("large"), "1"),
            "ose_single_requests": (len(single), "count"),
        }

    def generic(self) -> dict:
        return {"main_ms_per_col": 1e3 * np.median(self.samples["single"]),
                "alt_ms_per_col": 1e3 * np.median(self.samples["bulk"]),
                "main_re": self._median_re("single"), "alt_re": self._median_re("bulk")}


WORKLOADS = {"batch": Batch, "stream": Stream, "ose": OutOfSample}
