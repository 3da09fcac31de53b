"""complete_new keeps the code system of the last frozen dictionary.

One process-wide entry holds (spec, beta, D.shape), a private copy of D and
the system built from it.  A call reuses it only on the same key and the
same bits of D, so every output is bitwise the output of a cold call.
"""
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from kfmc import KernelSpec, NumericalError, complete_new
from kfmc import ose

M, R, BETA = 9, 5, 1e-3
SPEC = KernelSpec.rbf(2.0)


@pytest.fixture
def builds(monkeypatch):
    """Start from no entry and count the code systems built."""
    monkeypatch.setattr(ose, "_frozen", None)
    calls = []
    real = ose._code_system

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ose, "_code_system", counted)
    return calls


def _dictionary(seed, m=M, r=R):
    return np.random.default_rng(seed).standard_normal((m, r))


def _samples(n, seed, m=M):
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        obs = np.sort(rng.choice(m, size=int(0.7 * m), replace=False))
        x = np.full(m, np.nan)
        x[obs] = rng.standard_normal(obs.size)
        samples.append((x, obs))
    return samples


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _cold(D, samples, spec=SPEC, beta=BETA, n_iter=10):
    ose._frozen = None
    out = complete_new(D.copy(), samples, spec, beta, n_iter=n_iter)
    ose._frozen = None
    return out


def test_repeated_calls_on_one_dictionary_build_once(builds):
    D = _dictionary(0)
    samples = _samples(5, 1)
    outs = [complete_new(D, [s], SPEC, BETA, n_iter=10) for s in samples]
    outs.append(complete_new(D, samples, SPEC, BETA, n_iter=10))
    assert len(builds) == 1
    assert np.array_equal(_bits(np.hstack(outs[:-1])), _bits(outs[-1]))


def test_editing_the_dictionary_in_place_rebuilds(builds):
    D = _dictionary(0)
    samples = _samples(4, 1)
    complete_new(D, samples, SPEC, BETA, n_iter=10)
    D[2, 3] = np.nextafter(D[2, 3], np.inf)  # one bit of one entry
    out = complete_new(D, samples, SPEC, BETA, n_iter=10)
    assert len(builds) == 2
    assert np.array_equal(_bits(out), _bits(_cold(D, samples)))


@pytest.mark.parametrize("change", ["beta", "spec", "shape"])
def test_a_changed_key_rebuilds(builds, change):
    D = _dictionary(0)
    samples = _samples(3, 1)
    complete_new(D, samples, SPEC, BETA, n_iter=10)
    spec, beta = SPEC, BETA
    if change == "beta":
        beta = 2 * BETA
    elif change == "spec":
        spec = KernelSpec.rbf(2.5)
    else:  # the same bits in a different shape
        D = D.reshape(R, M)
        samples = _samples(3, 1, m=R)
    out = complete_new(D, samples, spec, beta, n_iter=10)
    assert len(builds) == 2
    assert np.array_equal(_bits(out), _bits(_cold(D, samples, spec, beta)))


def test_a_failing_system_is_never_stored(builds):
    good, bad = _dictionary(0), _dictionary(1)
    bad[4, 2] = np.nan
    samples = _samples(3, 1)
    complete_new(good, samples, SPEC, BETA, n_iter=10)
    assert ose._frozen is not None
    for _ in range(3):
        with pytest.raises(NumericalError):
            complete_new(bad, samples, SPEC, BETA, n_iter=10)
        assert ose._frozen is None
    assert len(builds) == 4


def test_alternating_dictionaries_match_cold_calls(builds):
    D1, D2 = _dictionary(0), _dictionary(1)
    samples = _samples(6, 1)
    cold = {1: _cold(D1, samples), 2: _cold(D2, samples)}
    builds.clear()
    for which, D in ((1, D1), (2, D2), (1, D1), (1, D1)):
        out = complete_new(D, samples, SPEC, BETA, n_iter=10)
        assert np.array_equal(_bits(out), _bits(cold[which]))
    assert len(builds) == 3


def test_the_entry_is_read_only_and_the_caller_keeps_its_array(builds):
    D = _dictionary(0)
    complete_new(D, _samples(2, 1), SPEC, BETA, n_iter=10)
    key, D_copy, system = ose._frozen
    assert key == (SPEC, BETA, D.shape)
    assert D_copy is not D and np.array_equal(_bits(D_copy), _bits(D))
    for a in (D_copy, *system):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
    assert D.flags.writeable
    D[0, 0] = 1.0


def test_threads_sharing_the_entry_get_cold_outputs(builds):
    # two threads on each of two dictionaries: the entry is replaced while
    # the other pair reads it, and every output must be a cold call's
    Ds = _dictionary(0), _dictionary(1)
    samples = _samples(3, 1)
    cold = [_cold(D, samples, n_iter=1) for D in Ds]
    wrong = []

    def work(k):
        for i in range(300):
            try:
                out = complete_new(Ds[k % 2], samples, SPEC, BETA, n_iter=1)
            except Exception as exc:  # a thread's exception would be lost
                wrong.append((k, i, repr(exc)))
                continue
            if not np.array_equal(_bits(out), _bits(cold[k % 2])):
                wrong.append((k, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_a_miss_frees_the_old_entry_before_building(builds):
    # at m = 1024, r = 256 an entry (D, K_DD and the operator) is about
    # 3 MiB; building D2's system while D1's is still held would raise the
    # peak by that much
    m, r = 1024, 256
    D1, D2 = _dictionary(0, m, r), _dictionary(1, m, r)
    samples = _samples(1, 2, m=m)
    spec = KernelSpec.rbf(float(np.sqrt(2 * m)))
    tracemalloc.start()
    try:
        complete_new(D1, samples, spec, BETA, n_iter=5)
        first = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        complete_new(D2, samples, spec, BETA, n_iter=5)
        second = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(builds) == 2
    assert second <= first + 0.5 * 2**20, (first / 2**20, second / 2**20)
