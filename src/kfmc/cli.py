"""Command-line interface: gen | complete | stream | ose | bounds.

Exit codes: 0 on success, 2 for usage or input errors, 3 for numerical
failures or a diverged complete (complete and stream still write the
partial trace.csv).  Every command but bounds takes a --seed and is
reproducible given it.  The KFMC_THREADS environment variable caps BLAS
parallelism when set before the process imports numpy.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import lrf_complete, ose_lrf, svd_basis
from .bounds import ProblemShape, sampling_report
from .checkpoint import kernel_to_dict, load_checkpoint, save_checkpoint
from .dataio import (ensure_dir, read_mask_csv, read_matrix_csv, write_json,
                     write_mask_csv, write_matrix_csv, write_trace_csv)
from .exceptions import NumericalError
from .kernels import KernelSpec
from .masking import Mask, impute_init
from .metrics import numerical_rank, relative_error
from .offline import OfflineHyperparams, fit
from .online import OnlineHyperparams, OnlineModel, run_stream
from .ose import complete_new
from .synth import (SyntheticSpec, continuous_mask, feature_count, generate,
                    random_mask, twisted_cubic)
from .tuning import best_offline, mean_pairwise_distance, poly_candidates, rbf_candidates

PRESETS = {
    "single-nonlinear": dict(d=3, p=3, u=1, m=30, n_per=100),
    "union-nonlinear": dict(d=3, p=3, u=3, m=30, n_per=100),
    "union-linear": dict(d=3, p=1, u=10, m=30, n_per=100),
}


def _add_mask_flags(p):
    p.add_argument("--missing", type=float, default=None,
                   help="missing fraction for a uniform random mask")
    p.add_argument("--per-column-missing", type=int, default=None,
                   help="remove exactly this many entries per column")
    p.add_argument("--continuous-seqs", type=int, default=None,
                   help="number of continuous missing runs per row "
                        "(uses --missing as the rate)")


def _build_mask(args, m, n, seed) -> Mask:
    if args.per_column_missing is not None:
        return random_mask(m, n, 0.0, seed=seed,
                           per_column_exact=args.per_column_missing)
    if args.continuous_seqs is not None:
        if args.missing is None:
            raise ValueError("--continuous-seqs requires --missing")
        return continuous_mask(m, n, args.missing, args.continuous_seqs,
                               seed=seed)
    if args.missing is not None:
        return random_mask(m, n, args.missing, seed=seed)
    return Mask.full(m, n)


def cmd_gen(args) -> int:
    out = ensure_dir(args.out)
    if args.preset == "twisted-cubic":
        X = twisted_cubic(args.n_per, seed=args.seed)
        rank_predicted = 3
        params = {"kind": "twisted-cubic", "n": args.n_per}
    else:
        if args.preset:
            base = dict(PRESETS[args.preset])
        else:
            base = dict(d=args.d, p=args.p, u=args.u, m=args.m,
                        n_per=args.n_per)
        spec = SyntheticSpec(seed=args.seed,
                             include_constant=args.include_constant, **base)
        X, labels = generate(spec)
        nf = feature_count(spec.d, spec.p, spec.include_constant)
        rank_predicted = min(spec.m, spec.n, spec.u * nf)
        params = {"kind": "union-of-subspaces", **base,
                  "include_constant": spec.include_constant,
                  "labels": labels.tolist()}
    m, n = X.shape
    mask = _build_mask(args, m, n, args.seed + 1)
    write_matrix_csv(out / "data.csv", X)
    write_mask_csv(out / "mask.csv", mask)
    write_json(out / "manifest.json", {
        "params": params,
        "seed": args.seed,
        "shape": [m, n],
        "rank_predicted": rank_predicted,
        "rank_numerical": numerical_rank(X),
        "observed_fraction": mask.observed_fraction,
    })
    print(f"wrote {m}x{n} dataset to {out}")
    return 0


def _read_problem(args, path):
    """Read (data, mask, truth) for any command and check them before a solve.

    Without --mask the entries that are not NaN are observed, so an inf is
    an error either way; a fully finite matrix is its own truth unless
    --truth is given, which must be finite."""
    data = read_matrix_csv(path)
    if args.mask:
        mask = read_mask_csv(args.mask)
        if mask.shape != data.shape:
            raise ValueError("mask shape does not match data shape")
    else:
        mask = Mask.from_dense(data)
    if not np.all(np.isfinite(data[mask.observed])):
        raise ValueError("data has non-finite values at observed positions")
    truth = None
    if args.truth:
        truth = read_matrix_csv(args.truth)
        if truth.shape != data.shape:
            raise ValueError("truth shape does not match data shape")
        if not np.all(np.isfinite(truth)):
            raise ValueError(f"{args.truth}: truth has non-finite values")
    elif np.all(np.isfinite(data)):
        truth = data
    return data, mask, truth


def _samples(data, mask: Mask) -> list:
    """The (x, observed_idx) columns taken by run_stream and complete_new."""
    masked = np.where(mask.observed, data, np.nan)
    return [(masked[:, j], mask.column_split(j)[0]) for j in range(mask.n)]


def _mean_distance(data, mask: Mask, seed, if_zero: str) -> float:
    # the bandwidth heuristic and the --grid widths always measure the
    # row-mean-imputed matrix, independent of complete's --init
    reference = impute_init(data, mask, strategy="row_mean")
    dbar = mean_pairwise_distance(reference.completion, seed=seed)
    if dbar == 0:
        raise ValueError("the mean distance between the sampled columns is 0, "
                         f"so {if_zero}")
    return dbar


def _model_settings(args, data, mask, kind, path=None):
    """Kernel, r, beta, dictionary and samples seen of a run.

    With a checkpoint ``path`` each is the checkpoint's, and a --kernel,
    --degree, --offset, --sigma or --r set to another value is refused;
    without one, the kernel is ``kind`` with the flags' parameters (sigma:
    the mean column distance), a flag of the other kernel is refused, and r
    is --r, else 2 m (rbf) or m (poly).
    beta is --beta, else the checkpoint's, else the kernel's default; a
    negative one is refused, since K_DD + beta I need not be definite.  The
    format round-trips any bits, so a non-finite dictionary is refused."""
    flags = {flag: getattr(args, flag, None)
             for flag in ("kernel", "degree", "offset", "sigma", "r")}
    D, seen, metadata = None, 0, {}
    if path is not None:
        D, spec, header = load_checkpoint(path)
        if not np.all(np.isfinite(D)):
            raise ValueError(f"{path}: dictionary has non-finite values")
        metadata = header.get("metadata", {})
        seen = metadata.get("samples_seen", 0)
        if type(seen) is not int or seen < 0:
            raise ValueError(f"{path}: metadata samples_seen must be an "
                             f"integer >= 0, got {seen!r}")
        r = D.shape[1]
        stored = {"kernel": spec.kind, **kernel_to_dict(spec), "r": r}
        for flag, value in flags.items():
            if value is not None and value != stored.get(flag):
                whose = (f"'s r {r}" if flag == "r" else ", whose kernel " + (
                    f"is {spec.kind}" if flag == "kernel" else
                    f"has {flag} {stored[flag]}" if flag in stored else
                    f"has no {flag} ({spec.kind})"))
                raise ValueError(f"--{flag} {value} does not match the "
                                 f"checkpoint{whose}")
    else:
        for flag in ("sigma",) if kind == "poly" else ("degree", "offset"):
            if flags[flag] is not None:
                raise ValueError(f"--{flag} {flags[flag]} does not apply to "
                                 f"the {kind} kernel")
        if kind == "poly":
            spec = KernelSpec.poly(**{k: flags[k] for k in ("degree", "offset")
                                      if flags[k] is not None})
        elif args.sigma is not None:
            spec = KernelSpec.rbf(sigma=args.sigma)
        else:
            spec = KernelSpec.rbf(sigma=_mean_distance(
                data, mask, args.seed,
                "the RBF bandwidth heuristic gives sigma = 0; set --sigma"))
        m = data.shape[0]
        r = args.r if args.r is not None else 2 * m if spec.is_rbf else m
    if args.beta is not None:
        beta, source = args.beta, "--beta"
    else:
        beta = metadata.get("beta", 1e-4 if spec.is_rbf else 0.1)
        source = f"the beta of {path} (set --beta to override it)"
    if type(beta) not in (int, float) or not beta >= 0:
        raise ValueError(f"{source} must be a number >= 0, got {beta!r}")
    return spec, r, beta, D, seen


def _inner_loop_report(iterations: int, hit_limit: int, samples: int) -> dict:
    """Report keys of the per-sample inner loops: their mean iteration count
    and how many stopped at --n-iter."""
    return {"mean_inner_iterations": iterations / samples,
            "samples_hit_iter_limit": hit_limit}


def _write_trace(out, index, **columns) -> None:
    """Write trace.csv: a 1-based ``index`` column, then the named columns."""
    columns = {name: np.asarray(values) for name, values in columns.items()}
    length = next(iter(columns.values())).size
    write_trace_csv(Path(out) / "trace.csv",
                    {index: np.arange(1, length + 1), **columns})


def _finish(args, out, start, X_hat, mask, truth, payload) -> None:
    """Write completed.csv and report.json with the keys all commands share."""
    wall = time.perf_counter() - start
    write_matrix_csv(out / "completed.csv", X_hat)
    write_json(out / "report.json", {
        **payload,
        "observed_fraction": mask.observed_fraction,
        "relative_error": relative_error(X_hat, truth) if truth is not None else None,
        "seed": args.seed,
        "wall_time_s": wall,
    })


def cmd_complete(args) -> int:
    out = ensure_dir(args.out)
    data, mask, truth = _read_problem(args, args.data)
    mm = impute_init(data, mask, strategy=args.init)
    m, n = mm.shape
    start = time.perf_counter()
    if args.method == "lrf":
        rank = args.rank if args.rank is not None else min(m, n) // 2 or 1
        X_hat, trace = lrf_complete(mm, rank, ridge=args.ridge,
                                    iters=args.iters, seed=args.seed,
                                    return_trace=True)
        payload = {
            "method": "lrf",
            "kernel": None,
            "hyperparameters": {"rank": rank, "ridge": args.ridge,
                                "iters": args.iters},
            "iterations": args.iters,
            "converged": None,  # lrf has no stopping rule
        }
    else:
        if args.grid:
            if truth is None:
                raise ValueError("--grid requires ground truth "
                                 "(fully observed --data or --truth)")
            dbar = _mean_distance(data, mask, args.seed, "--grid has no "
                                  "RBF widths (multiples of it) to try")
            candidates = poly_candidates(m) + rbf_candidates(m, dbar)
            best, entries = best_offline(mm, truth, candidates, seed=args.seed)
            spec, hp, model = best.spec, best.hp, best.model
            extra = {"grid": [{"kernel": kernel_to_dict(e.spec),
                               "r": e.hp.r, "alpha": e.hp.alpha, "beta": e.hp.beta,
                               "relative_error": e.relative_error} for e in entries]}
        else:
            spec, r, beta, _, _ = _model_settings(
                args, data, mask, args.method.removeprefix("kfmc-"))
            hp = OfflineHyperparams(r=r, alpha=args.alpha, beta=beta,
                                    tau=args.tau, eta=args.eta, t_max=args.t_max,
                                    tol=args.tol, seed=args.seed)
            try:
                model = fit(mm, spec, hp)
                if model.stop_reason == "diverged":
                    raise NumericalError("objective ended above its first value",
                                         trace=model.objective_trace)
            except NumericalError as exc:
                _write_trace(out, "iteration", objective=exc.trace)
                raise
            extra = {}
        X_hat, trace = model.completed, model.objective_trace
        keys = ("r", "alpha", "beta", "tau", "eta", "t_max", "tol", "seed")
        payload = {
            "method": "kfmc-grid" if args.grid else args.method,
            "kernel": kernel_to_dict(spec),
            "hyperparameters": {k: getattr(hp, k) for k in keys},
            "iterations": model.iterations,
            "converged": model.converged,
            "stop_reason": model.stop_reason,
            **extra,
        }
    _finish(args, out, start, X_hat, mask, truth, payload)
    _write_trace(out, "iteration", objective=trace)
    print(f"completed {m}x{n} matrix; report in {out}")
    return 0


def cmd_stream(args) -> int:
    out = ensure_dir(args.out)
    data, mask, truth = _read_problem(args, args.data)
    n = data.shape[1]
    samples = _samples(data, mask)
    start = time.perf_counter()
    spec, r, beta, D0, seen = _model_settings(
        args, data, mask, args.kernel or "rbf", args.resume)
    # after the checkpoint is read, so that a bad one is named first
    if args.passes < 1:
        raise ValueError("--passes must be >= 1; to complete columns against "
                         "a frozen checkpoint, run kfmc ose --model CKPT")
    hp = OnlineHyperparams(r=r, alpha=args.alpha, beta=beta, tau=args.tau,
                           eta=args.eta, n_iter=args.n_iter,
                           n_pass=args.passes, tol=args.tol, seed=args.seed)
    # the count carries over; the inner-loop totals are this run's
    model = None if D0 is None else OnlineModel(D0, samples_seen=seen)
    try:
        X_hat, model = run_stream(samples, spec, hp, ground_truth=truth,
                                  model=model)
    except NumericalError as exc:
        # run_stream hands over the model it was updating
        _write_trace(out, "t", empirical_cost=exc.model.cost_trace,
                     empirical_error=exc.model.err_trace)
        raise
    keys = ("r", "alpha", "beta", "tau", "eta", "n_iter", "n_pass", "tol")
    _finish(args, out, start, X_hat, mask, truth, {
        "method": f"ol-kfmc-{spec.kind}",
        "kernel": kernel_to_dict(spec),
        "hyperparameters": {k: getattr(hp, k) for k in keys},
        "iterations": model.samples_seen,
        **_inner_loop_report(model.inner_iterations,
                             model.samples_hit_iter_limit, n * args.passes),
    })
    _write_trace(out, "t", empirical_cost=model.cost_trace,
                 empirical_error=model.err_trace)
    save_checkpoint(out / "model.ckpt", model.dictionary, spec, metadata={
        "beta": beta, "samples_seen": model.samples_seen, "seed": args.seed,
        "n_iter": args.n_iter, "eta": args.eta, "tau": args.tau,
    })
    print(f"streamed {n} columns x {args.passes} passes; report in {out}")
    return 0


def cmd_ose(args) -> int:
    out = ensure_dir(args.out)
    data, mask, truth = _read_problem(args, args.input)
    m, n = data.shape
    samples = _samples(data, mask)
    start = time.perf_counter()

    if args.baseline == "ose-lrf":
        if not args.train or args.rank is None:
            raise ValueError("--baseline ose-lrf requires --train and --rank")
        train = read_matrix_csv(args.train)
        if not np.all(np.isfinite(train)):
            raise ValueError("--train matrix must be fully observed")
        if train.shape[0] != m:
            raise ValueError(f"--train has {train.shape[0]} rows, but the "
                             f"input has {m}")
        U = svd_basis(train, args.rank)
        for j, (_, idx) in enumerate(samples):
            if args.ridge == 0 and idx.size < args.rank:
                raise ValueError(
                    f"ose-lrf: column {j} has {idx.size} observed entries, "
                    f"fewer than --rank {args.rank}, so its basis fit is "
                    "singular; pass --ridge > 0")
        cols = [ose_lrf(U, x, idx, ridge=args.ridge) for x, idx in samples]
        X_hat = np.column_stack(cols)
        payload = {"method": "ose-lrf", "kernel": None,
                   "hyperparameters": {"rank": args.rank, "ridge": args.ridge},
                   "iterations": 0}
    else:
        if not args.model:
            raise ValueError("either --model or --baseline ose-lrf is required")
        spec, r, beta, D, _ = _model_settings(args, data, mask, None,
                                              args.model)
        X_hat, infos = complete_new(D, samples, spec, beta, n_iter=args.n_iter,
                                    tol=args.tol, return_info=True)
        payload = {"method": f"ose-kfmc-{spec.kind}",
                   "kernel": kernel_to_dict(spec),
                   "hyperparameters": {"beta": beta, "n_iter": args.n_iter,
                                       "tol": args.tol, "r": r},
                   "iterations": n,
                   **_inner_loop_report(sum(i.iterations for i in infos),
                                        sum(i.hit_iter_limit for i in infos),
                                        n)}
    _finish(args, out, start, X_hat, mask, truth, payload)
    print(f"completed {n} new columns; report in {out}")
    return 0


def cmd_bounds(args) -> int:
    shape = ProblemShape(m=args.m, n=args.n, d=args.d, p=args.p, q=args.q,
                         u=args.u)
    report = sampling_report(shape)
    report["vacuous"] = report["rho_lrmc_vacuous"]
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0


def _add_run_flags(p):
    """Flags shared by complete, stream and ose."""
    p.add_argument("--mask")
    p.add_argument("--truth")
    p.add_argument("--beta", type=float, default=None,
                   help="default: the checkpoint's beta when one is read, "
                        "else 1e-4 (rbf) or 0.1 (poly)")
    p.add_argument("--tol", type=float, default=OnlineHyperparams.tol,
                   help="stop when the relative change falls below this: "
                        "of the objective over one sweep (complete), of a "
                        "column's missing entries over one inner iteration "
                        "(stream, ose, which share the default "
                        "OnlineHyperparams.tol); default %(default)s")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)


def _add_fit_flags(p):
    """Flags shared by complete and stream: the run flags and the kernel."""
    p.add_argument("--data", required=True)
    _add_run_flags(p)
    p.add_argument("--tau", type=float, default=OnlineHyperparams.tau,
                   help="relaxation > 1 of every step (complete), of the "
                        "dictionary step only (stream); default %(default)s")
    p.add_argument("--eta", type=float, default=OnlineHyperparams.eta,
                   help="momentum weight in [0, 1): of every step (complete), "
                        "of the dictionary step only (stream); "
                        "default %(default)s")
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--alpha", type=float, default=OnlineHyperparams.alpha)
    p.add_argument("--degree", type=int, default=None, help="poly; default 2")
    p.add_argument("--offset", type=float, default=None, help="poly; default 1")
    p.add_argument("--sigma", type=float, default=None,
                   help="rbf; default: the mean column distance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfmc",
        description="High-rank matrix completion via kernelized factorization")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset + mask")
    g.add_argument("--preset", choices=[*PRESETS, "twisted-cubic"])
    g.add_argument("--d", type=int, default=3)
    g.add_argument("--p", type=int, default=3)
    g.add_argument("--u", type=int, default=1)
    g.add_argument("--m", type=int, default=30)
    g.add_argument("--n-per", type=int, default=100)
    g.add_argument("--include-constant", action="store_true")
    _add_mask_flags(g)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    c = sub.add_parser("complete", help="batch completion of one matrix")
    _add_fit_flags(c)
    c.add_argument("--init", choices=["row_mean", "zero"], default="row_mean")
    c.add_argument("--method", choices=["kfmc-poly", "kfmc-rbf", "lrf"],
                   default="kfmc-rbf")
    c.add_argument("--grid", action="store_true",
                   help="sweep the default hyperparameter grid, keep best RE")
    c.add_argument("--t-max", type=int, default=OfflineHyperparams.t_max)
    c.add_argument("--rank", type=int, default=None, help="lrf rank")
    c.add_argument("--ridge", type=float, default=1e-4, help="lrf ridge")
    c.add_argument("--iters", type=int, default=100, help="lrf sweeps")
    c.set_defaults(func=cmd_complete, alpha=OfflineHyperparams.alpha,
                   tau=OfflineHyperparams.tau, eta=OfflineHyperparams.eta,
                   tol=OfflineHyperparams.tol)

    s = sub.add_parser("stream", help="online completion, column by column")
    _add_fit_flags(s)
    s.add_argument("--kernel", choices=["poly", "rbf"], default=None,
                   help="default: the checkpoint's kernel with --resume, else rbf")
    s.add_argument("--passes", type=int, default=1)
    s.add_argument("--n-iter", type=int, default=OnlineHyperparams.n_iter)
    s.add_argument("--resume", help="checkpoint to continue from; its "
                   "kernel and r hold, and a kernel flag or --r must agree")
    s.set_defaults(func=cmd_stream)

    o = sub.add_parser("ose", help="complete new columns against a frozen model")
    o.add_argument("--model", help="checkpoint from `kfmc stream`")
    o.add_argument("--input", required=True)
    _add_run_flags(o)
    o.add_argument("--n-iter", type=int, default=OnlineHyperparams.n_iter)
    o.add_argument("--baseline", choices=["ose-lrf"])
    o.add_argument("--train", help="complete training matrix for ose-lrf")
    o.add_argument("--rank", type=int, default=None, help="ose-lrf basis rank")
    o.add_argument("--ridge", type=float, default=0.0)
    o.set_defaults(func=cmd_ose)

    b = sub.add_parser("bounds", help="sampling-rate and rank calculators")
    for name in ("m", "n", "d", "p", "q", "u"):
        b.add_argument(f"--{name}", type=int, required=True)
    b.add_argument("--out")
    b.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"kfmc: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"kfmc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
