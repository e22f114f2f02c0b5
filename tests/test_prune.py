"""Candidate pair extraction from the single-bit-flip entries of delta-rho."""

import numpy as np
import pytest

from qxtalk.ingest import AmplitudeVector
from qxtalk.prune import CandidateSet, delta_rho, extract_candidates
from qxtalk.qsim import RegisterLayout, StateVector, from_amplitudes, tensor


def state_from(vec):
    vec = np.asarray(vec, dtype=np.float64)
    vec = vec / np.linalg.norm(vec)
    n = int(np.log2(len(vec)))
    return StateVector(num_qubits=n, amplitudes=vec.astype(complex))


def flip_entries(n, values, dtype=float):
    """A delta-rho array holding ``values[(r, c)]`` at [r, t], where c = r ^ 2**t."""
    dr = np.zeros((1 << n, n), dtype=dtype)
    for (r, c), value in values.items():
        diff = r ^ c
        assert diff and not diff & (diff - 1), "not a single-bit flip"
        dr[r, diff.bit_length() - 1] = value
    return dr


class TestDeltaRho:
    def test_difference_of_projectors(self):
        # mono |00>, co (|00> + |01>)/sqrt2: rho_co - rho_mono is 0.5 at (0, 1)
        # and (1, 0); every other single-flip element vanishes.
        mono = state_from([1, 0, 0, 0])
        co = state_from([1, 1, 0, 0])
        dr = delta_rho(mono, co)
        assert dr.shape == (4, 2)
        assert np.allclose(dr, flip_entries(2, {(0, 1): 0.5, (1, 0): 0.5}))
        dense = np.outer(co.amplitudes, co.amplitudes.conj()) - np.outer(
            mono.amplitudes, mono.amplitudes.conj()
        )
        for r in range(4):
            for t in range(2):
                assert dr[r, t] == dense[r, r ^ (1 << t)]

    def test_identical_states_vanish(self):
        psi = state_from([0.5, 0.5, 0.5, 0.5])
        assert np.allclose(delta_rho(psi, psi), 0.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            delta_rho(state_from([1, 0]), state_from([1, 0, 0, 0]))


class TestExtractCandidates:
    def layout(self, n1=1, n2=2):
        return RegisterLayout(n_ct1=n1, n_ct2=n2)

    def test_single_bit_transition_yields_pairs(self):
        # element (3, 1): 011 vs 001 differ in bit 1,
        # shared active bit 0 -> candidate (control=0, target=1)
        dr = flip_entries(3, {(3, 1): 0.05})
        cands = extract_candidates(dr, self.layout(), threshold=0.01)
        assert cands.pairs == [(0, 1)]

    def test_multiple_shared_bits_emit_one_pair_each(self):
        # (7, 5): 111 vs 101 differ in bit 1; shared bits {0, 2}
        dr = flip_entries(3, {(7, 5): 0.05})
        cands = extract_candidates(dr, self.layout(), threshold=0.01)
        assert cands.pairs == [(0, 1), (2, 1)]

    def test_row_major_scan_defines_order(self):
        dr = flip_entries(3, {
            (7, 5): 0.05,  # -> (0, 1), (2, 1)
            (3, 2): 0.05,  # 011 vs 010 differ bit 0, shared bit 1 -> (1, 0)
            (7, 3): 0.05,  # 111 vs 011 differ bit 2, shared bits {0, 1} -> (0, 2), (1, 2)
        })
        cands = extract_candidates(dr, self.layout(), threshold=0.01)
        # row 7 is scanned in ascending column: 3 before 5
        assert cands.pairs == [(1, 0), (0, 2), (1, 2), (0, 1), (2, 1)]

    def test_first_seen_deduplication(self):
        dr = flip_entries(3, {
            (3, 1): 0.05,  # (0, 1)
            (7, 5): 0.05,  # (0, 1) again, plus (2, 1)
        })
        cands = extract_candidates(dr, self.layout(), threshold=0.01)
        assert cands.pairs == [(0, 1), (2, 1)]

    def test_threshold_filters_small_entries(self):
        dr = flip_entries(3, {(3, 1): 0.009})
        assert extract_candidates(dr, self.layout(), threshold=0.01).pairs == []
        assert extract_candidates(dr, self.layout(), threshold=0.005).pairs == [(0, 1)]

    def test_magnitude_not_sign(self):
        dr = flip_entries(3, {(3, 1): -0.05})
        assert extract_candidates(dr, self.layout(), threshold=0.01).pairs == [(0, 1)]

    def test_diagonal_ignored(self):
        # |001> -> |110> moves population only: rho_co - rho_mono is diagonal,
        # so no single-flip element is set.
        mono = state_from(np.eye(8)[1])
        co = state_from(np.eye(8)[6])
        dr = delta_rho(mono, co)
        assert not dr.any()
        assert extract_candidates(dr, self.layout(), threshold=0.01).pairs == []

    def test_multi_bit_transitions_ignored(self):
        # co = (|000> + |011> + |111>)/sqrt3 is coherent only across two- and
        # three-bit flips (and the one-bit flip 011 <-> 111, bit 2, shared bits
        # {0, 1}); mono = |000> adds nothing off the diagonal.
        mono = state_from(np.eye(8)[0])
        co = state_from([1, 0, 0, 1, 0, 0, 0, 1])
        dr = delta_rho(mono, co)
        assert np.count_nonzero(dr) == 2  # (3, 7) and (7, 3)
        assert extract_candidates(dr, self.layout(), threshold=0.01).pairs == [(0, 2), (1, 2)]

    def test_transition_without_shared_active_bit_yields_nothing(self):
        dr = flip_entries(3, {(1, 0): 0.5})  # 001 vs 000 differ bit 0, no other active bit
        assert extract_candidates(dr, self.layout(), threshold=0.01).pairs == []

    def test_complex_entries_use_magnitude(self):
        dr = flip_entries(3, {(3, 1): 0.03j}, dtype=complex)
        assert extract_candidates(dr, self.layout(), threshold=0.01).pairs == [(0, 1)]

    def test_threshold_monotonicity_on_random_states(self):
        rng = np.random.default_rng(6)
        layout = RegisterLayout(n_ct1=2, n_ct2=2)
        for _ in range(10):
            def rand(n):
                v = rng.uniform(0, 1, size=1 << n)
                v /= np.linalg.norm(v)
                return from_amplitudes(AmplitudeVector(num_qubits=n, amplitudes=v))

            mono = tensor(rand(2), rand(2), layout)
            co = tensor(rand(2), rand(2), layout)
            dr = delta_rho(mono, co)
            loose = set(extract_candidates(dr, layout, threshold=0.01).pairs)
            tight = set(extract_candidates(dr, layout, threshold=0.05).pairs)
            assert tight <= loose

    def test_shape_must_match_layout(self):
        with pytest.raises(ValueError, match="does not match a 3-qubit layout"):
            extract_candidates(np.zeros((4, 2)), self.layout(), threshold=0.01)
        with pytest.raises(ValueError, match="does not match a 3-qubit layout"):
            extract_candidates(np.zeros((8, 8)), self.layout(), threshold=0.01)

    def test_threshold_must_be_positive(self):
        for threshold in (0.0, -0.01, float("nan")):
            with pytest.raises(ValueError, match="threshold must be positive"):
                extract_candidates(np.zeros((8, 3)), self.layout(), threshold=threshold)

    def test_threshold_recorded(self):
        cands = extract_candidates(np.zeros((8, 3)), self.layout(), threshold=0.02)
        assert cands.threshold_used == 0.02


class TestCandidateSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            CandidateSet(pairs=[(0, 1), (0, 1)], threshold_used=0.01)

    def test_rejects_self_pairs(self):
        with pytest.raises(ValueError):
            CandidateSet(pairs=[(1, 1)], threshold_used=0.01)

    def test_len(self):
        assert len(CandidateSet(pairs=[(0, 1), (1, 0)], threshold_used=0.01)) == 2
