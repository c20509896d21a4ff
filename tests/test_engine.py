"""The batched chain-ket engine behind ``consistency_check``, checked against
per-history chain kets and the sequential Born-rule oracle."""

import itertools
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qhist import cli
from qhist.histories import chain_ket, consistency_check
from qhist.linalg import max_abs
from qhist.oracle import sequential_probability
from qhist.scenario import parse_scenario, resolve

from helpers import full_gram, random_family

BOUND = 1e-12
N_SLOTS_DEEP = 15


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d=st.integers(min_value=2, max_value=4),
    n_slots=st.integers(min_value=1, max_value=4),
    kind=st.sampled_from(["generic", "repeated", "single", "basis"]),
)
@settings(max_examples=150, deadline=None)
def test_engine_matches_per_history_chain_kets_and_oracle(seed, d, n_slots, kind):
    fam = random_family(np.random.default_rng(seed), d, n_slots, kind=kind)
    report = consistency_check(fam)

    assert fam.histories == tuple(itertools.product(*(d.labels for d in fam.slot_decompositions)))
    kets = np.array([chain_ket(fam, labels) for labels in fam.histories])
    for row, i in zip(report.kets, report.support):
        assert max_abs(row - kets[i]) <= BOUND
    assert not np.delete(kets, report.support, axis=0).any()
    gram = np.conjugate(kets) @ kets.T
    oracle = np.array([sequential_probability(fam, labels) for labels in fam.histories])
    assert max_abs(report.probabilities - gram.diagonal().real) <= BOUND
    assert max_abs(report.probabilities - oracle) <= BOUND
    assert max_abs(full_gram(report) - gram) <= BOUND

    off = np.abs(gram)
    np.fill_diagonal(off, 0.0)
    max_offdiag = float(np.max(off))
    assert abs(report.max_offdiag - max_offdiag) <= BOUND
    assert report.consistent == (max_offdiag <= report.threshold)


def test_basis_families_have_exact_zero_kets(rng):
    # the 'basis' kind is what gives the property above exactly-zero kets to drop
    families = [random_family(rng, 4, 4, kind="basis") for _ in range(20)]
    assert any(len(consistency_check(f).support) < f.n_histories for f in families)


def _deep_sigma_z_scenario() -> dict:
    times = [f"t{k}" for k in range(N_SLOTS_DEEP + 1)]
    return {
        "format": 1,
        "name": "deep_sigma_z",
        "systems": [2],
        "initial_state": "up_z",
        "times": times,
        "observers": [
            {
                "name": "O1",
                "measurements": [
                    {"time": t, "observable": "sigma_z"} for t in times[1:]
                ],
            }
        ],
    }


class TestDeepSigmaZChain:
    """sigma_z measured at 15 times on |up>: 32768 histories, one nonzero chain ket."""

    def test_one_surviving_ket(self):
        scn = parse_scenario(json.dumps(_deep_sigma_z_scenario()).encode())
        (record,) = resolve(scn)
        family = record.family
        assert family.n_histories == 2**N_SLOTS_DEEP
        report = consistency_check(family)
        assert len(report.support) == 1
        assert report.consistent
        assert float(np.sum(report.probabilities)) == 1.0
        assert report.probability(["+z"] * N_SLOTS_DEEP) == 1.0
        # neither the histories nor the N x N Gram matrix were built
        assert "histories" not in vars(family)
        assert "gram" not in vars(report)

    def test_analyze_exits_zero(self, capsys, tmp_path):
        path = tmp_path / "deep_sigma_z.json"
        path.write_text(json.dumps(_deep_sigma_z_scenario()))
        assert cli.main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"  {','.join(['+z'] * N_SLOTS_DEEP)}  1\n" in out
        assert len(out.splitlines()) == 2 + 2**N_SLOTS_DEEP
