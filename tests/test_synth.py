"""Synthetic tissue generator: kernel, GRN cascade, measurement, preset."""

import dataclasses

import numpy as np
import pytest

from qxtalk.synth import (
    _AUTONOMOUS_EDGES,
    _CASCADE_EDGES,
    ACTIVATION_THRESHOLD,
    BASELINE_MEAN,
    EDGE_AUTONOMOUS,
    EDGE_INTERCELLULAR,
    EDGE_INTRACELLULAR,
    GENE_NAMES,
    GROUP_INTERACTING_RECEIVER,
    GROUP_INTERACTING_SENDER,
    GROUP_LONE_RECEIVER,
    GROUP_LONE_SENDER,
    GROUPS,
    TissueConfig,
    benchmark_preset,
    kernel_matrix,
    measure,
    simulate,
)


class TestKernelMatrix:
    def test_hand_values(self):
        pos = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        w = kernel_matrix(pos, sigma=1.0)
        assert w[0, 1] == pytest.approx(np.exp(-0.5))
        assert w[0, 2] == pytest.approx(np.exp(-2.0))
        assert w[1, 2] == pytest.approx(np.exp(-2.5))

    def test_zero_diagonal_and_symmetry(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(size=(20, 2))
        w = kernel_matrix(pos, sigma=0.7)
        assert np.all(np.diag(w) == 0.0)
        assert np.allclose(w, w.T)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_sigma_scales_reach(self):
        pos = np.array([[0.0, 0.0], [3.0, 0.0]])
        narrow = kernel_matrix(pos, sigma=0.5)[0, 1]
        wide = kernel_matrix(pos, sigma=5.0)[0, 1]
        assert narrow < wide

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            kernel_matrix(np.zeros((2, 2)), sigma=0.0)

    def test_positions_shape_checked(self):
        with pytest.raises(ValueError):
            kernel_matrix(np.zeros((4, 3)), sigma=1.0)


class TestTissueConfig:
    def test_defaults(self):
        assert [f.name for f in dataclasses.fields(TissueConfig)] == ["seed"]
        assert TissueConfig().seed == 0
        assert sum(count for _, count, _ in GROUPS) == 200
        assert len(GENE_NAMES) == len(set(GENE_NAMES)) == 100


class TestSimulate:
    def test_shapes_and_labels(self):
        out = simulate(TissueConfig(seed=3))
        assert out.latent.shape == (100, 200)
        assert out.observed.shape == (100, 200)
        assert out.positions.shape == (200, 2)
        assert out.cell_labels == (
            [GROUP_INTERACTING_SENDER] * 60
            + [GROUP_INTERACTING_RECEIVER] * 60
            + [GROUP_LONE_SENDER] * 40
            + [GROUP_LONE_RECEIVER] * 40
        )
        assert out.observed.dtype == np.int64
        assert np.all(out.observed >= 0)

    def test_cluster_geometry(self):
        out = simulate(TissueConfig(seed=4))
        pos = out.positions
        assert np.abs(pos[:60].mean(axis=0) - [0.0, 0.0]).max() < 0.1
        assert np.abs(pos[60:120].mean(axis=0) - [0.5, 0.0]).max() < 0.1
        assert np.abs(pos[120:160].mean(axis=0) - [12.0, 0.0]).max() < 0.1
        assert np.abs(pos[160:200].mean(axis=0) - [-12.0, 0.0]).max() < 0.1

    def test_deterministic_per_seed(self):
        a = simulate(TissueConfig(seed=5))
        b = simulate(TissueConfig(seed=5))
        assert np.array_equal(a.latent, b.latent)
        assert np.array_equal(a.observed, b.observed)
        c = simulate(TissueConfig(seed=6))
        assert not np.array_equal(a.observed, c.observed)

    def test_interaction_drives_receptor_and_feedback(self):
        cfg = TissueConfig(seed=7)
        co = simulate(cfg, interaction_enabled=True)
        mono = simulate(cfg, interaction_enabled=False)
        names = GENE_NAMES
        g60, g90 = names.index("g60"), names.index("g90")
        diff60 = co.latent[g60] - mono.latent[g60]
        diff90 = co.latent[g90] - mono.latent[g90]
        # interacting receivers see a strong receptor shift, lone receivers
        # only the vanishing tail of the Gaussian kernel
        assert diff60[60:120].min() > 1.0
        assert np.abs(diff60[160:200]).max() < 1e-9
        # retrograde feedback lands on interacting senders
        assert diff90[:60].min() > 1.0
        assert np.abs(diff90[120:160]).max() < 1e-9

    def test_genes_outside_cascade_identical_without_interaction(self):
        cfg = TissueConfig(seed=8)
        co = simulate(cfg, interaction_enabled=True)
        mono = simulate(cfg, interaction_enabled=False)
        names = GENE_NAMES
        for gene in ("g50", "g73", "g74", "g75", "g10", "g99"):
            g = names.index(gene)
            assert np.array_equal(co.latent[g], mono.latent[g]), gene

    def test_cascade_propagates_downstream(self):
        cfg = TissueConfig(seed=9)
        co = simulate(cfg, interaction_enabled=True)
        mono = simulate(cfg, interaction_enabled=False)
        names = GENE_NAMES
        for gene in ("g70", "g71", "g72", "g80"):
            g = names.index(gene)
            diff = co.latent[g] - mono.latent[g]
            assert diff[60:120].mean() > 0.5, gene

    def test_ligand_and_autonomous_shifts(self):
        cfg = TissueConfig(seed=10)
        out = simulate(cfg, interaction_enabled=False)
        names = GENE_NAMES
        g50, g73, g10 = names.index("g50"), names.index("g73"), names.index("g10")
        # senders carry the ligand shift, receivers stay at baseline
        assert out.latent[g50, :60].mean() > BASELINE_MEAN + 2.0
        assert abs(out.latent[g50, 60:120].mean() - BASELINE_MEAN) < 0.3
        # the autonomous driver is shifted everywhere
        assert out.latent[g73].min() > BASELINE_MEAN + 2.0
        assert abs(out.latent[g10].mean() - BASELINE_MEAN) < 0.3

    def test_grn_activation_rule(self):
        # At one seed co and mono share the baseline draw, so each arc (r, t) moves
        # t by exactly the difference of f(r) = (r - baseline) gated by the threshold.
        co = simulate(TissueConfig(seed=11), interaction_enabled=True)
        mono = simulate(TissueConfig(seed=11), interaction_enabled=False)
        names = co.gene_names

        def f(v):
            return (v - BASELINE_MEAN) * (v > ACTIVATION_THRESHOLD)

        regulator_values = []
        for regulator, target in _CASCADE_EDGES + _AUTONOMOUS_EDGES:
            r, t = names.index(regulator), names.index(target)
            expected = f(co.latent[r]) - f(mono.latent[r])
            assert np.allclose(co.latent[t] - mono.latent[t], expected, rtol=0, atol=1e-12), (regulator, target)
            regulator_values += [co.latent[r], mono.latent[r]]
        for regulator, target in _AUTONOMOUS_EDGES:
            t = names.index(target)
            assert np.array_equal(co.latent[t], mono.latent[t]), target
        active = np.concatenate(regulator_values) > ACTIVATION_THRESHOLD
        assert active.any() and not active.all()  # both branches exercised

    def test_observed_mostly_sparse_at_defaults(self):
        out = simulate(TissueConfig(seed=12))
        sparsity = float((out.observed == 0).mean())
        assert 0.8 < sparsity < 0.97


class TestMeasure:
    def test_deterministic_per_seed(self):
        latent = np.full((5, 1000), 0.5)
        a = measure(latent, seed=1)
        b = measure(latent, seed=1)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, measure(latent, seed=2))

    def test_thinned_mean(self):
        latent = np.full((1, 100_000), np.log(10.0))
        counts = measure(latent, dispersion=2.0, dropout_rate=0.4, seed=3)
        assert counts.mean() == pytest.approx(10.0 * 0.6, abs=0.15)

    def test_full_dropout_zeroes_everything(self):
        latent = np.full((3, 50), 2.0)
        assert np.all(measure(latent, dropout_rate=1.0, seed=0) == 0)

    def test_no_dropout_keeps_nb_draws(self):
        latent = np.full((1, 100_000), np.log(10.0))
        counts = measure(latent, dispersion=2.0, dropout_rate=0.0, seed=4)
        assert counts.mean() == pytest.approx(10.0, abs=0.2)

    def test_dispersion_validated(self):
        with pytest.raises(ValueError):
            measure(np.zeros((2, 2)), dispersion=0.0)

    def test_dropout_validated(self):
        with pytest.raises(ValueError):
            measure(np.zeros((2, 2)), dropout_rate=-0.1)


class TestBenchmarkPreset:
    def test_panels(self):
        cfg, (ct1, ct2), truth = benchmark_preset()
        assert ct1.cell_type_label == "CT1"
        assert ct1.genes == ["g50", "g90"]
        assert ct2.cell_type_label == "CT2"
        assert ct2.genes == ["g60", "g70", "g71", "g80"]
        assert isinstance(cfg, TissueConfig)

    def test_five_gene_variant_adds_branch(self):
        _, (_, ct2), _ = benchmark_preset(five_gene_ct2=True)
        assert ct2.genes == ["g60", "g70", "g71", "g72", "g80"]

    def test_ground_truth_edges(self):
        """The truth in ground_truth.csv's order, read from the generator's own edges."""
        _, _, truth = benchmark_preset()
        assert [(e.source, e.target, e.kind) for e in truth] == [
            ("g50", "g60", EDGE_INTERCELLULAR),
            ("g60", "g70", EDGE_INTRACELLULAR),
            ("g70", "g71", EDGE_INTRACELLULAR),
            ("g70", "g72", EDGE_INTRACELLULAR),
            ("g70", "g80", EDGE_INTRACELLULAR),
            ("g80", "g90", EDGE_INTERCELLULAR),
            ("g73", "g74", EDGE_AUTONOMOUS),
            ("g73", "g75", EDGE_AUTONOMOUS),
        ]

    def test_seed_passthrough(self):
        cfg, _, _ = benchmark_preset(seed=17)
        assert cfg.seed == 17
