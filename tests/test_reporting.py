"""Report CSV schema and SVG emission."""
import numpy as np
import pytest

from atent.data import Dataset, synth_two_gaussians
from atent.models import build_mlp, predict
from atent.oracle import grid_gibbs_density
from atent.reporting import (
    CSV_HEADER,
    EvalRow,
    decision_grid,
    render_decision_svg,
    render_histogram_svg,
    report_to_csv,
)
from file_helpers import parse_report_csv


def _row(**kw):
    base = dict(defense="sgd", attack="pgd", norm="linf", epsilon=0.3,
                natural_acc=0.99, robust_acc=0.42, seed=7, wall_ms=0)
    base.update(kw)
    return EvalRow(**base)


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == "defense,attack,norm,epsilon,natural_acc,robust_acc,seed,wall_ms"
        assert report_to_csv([]).splitlines()[0] == CSV_HEADER

    def test_empty_report_is_header_only(self):
        assert report_to_csv([]) == CSV_HEADER + "\n"

    def test_round_trip(self):
        report = [_row(), _row(attack="fgsm", epsilon=0.1, robust_acc=0.5)]
        assert parse_report_csv(report_to_csv(report)) == report

    def test_accuracy_bounds_enforced(self):
        for acc in (dict(robust_acc=1.2), dict(natural_acc=-0.1)):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                _row(**acc)

    def test_deterministic_bytes(self):
        # floats are written as repr, which reads back to the same value
        report = [_row(natural_acc=1 / 3, robust_acc=2 / 3)]
        assert report_to_csv(report) == (
            CSV_HEADER + "\nsgd,pgd,linf,0.3,0.3333333333333333,0.6666666666666666,7,0\n")


class TestDecisionPlot:
    def _fixture(self):
        ds = synth_two_gaussians(60, 5.0, seed=2)
        params = build_mlp([2, 8, 2], seed=3)
        return params, ds

    def test_grid_matches_predict_on_spot_points(self):
        params, ds = self._fixture()
        res = 50
        grid = decision_grid(params, [(0.0, 1.0), (0.0, 1.0)], resolution=res)
        rng = np.random.default_rng(0)
        for _ in range(10):
            i, j = rng.integers(0, res, 2)
            x = (i + 0.5) / res
            y = (j + 0.5) / res
            assert grid[i, j] == predict(params, np.array([[x, y]]))[0]

    def test_svg_is_deterministic_and_wellformed(self):
        params, ds = self._fixture()
        a = render_decision_svg(params, ds, resolution=40)
        b = render_decision_svg(params, ds, resolution=40)
        assert a == b
        assert a.startswith("<svg ") and a.rstrip().endswith("</svg>")
        assert a.count("<circle") == ds.n

    def test_rejects_non_2d_datasets(self):
        from atent.data import synth_digits

        params = build_mlp([784, 8, 2], seed=0)
        ds = synth_digits(2, classes=(5, 8), seed=0)
        with pytest.raises(ValueError):
            render_decision_svg(params, ds)

    def test_rejects_a_dataset_with_no_value_range(self):
        params, ds = self._fixture()
        with pytest.raises(ValueError, match="declared value range"):
            render_decision_svg(params, Dataset(ds.inputs, ds.labels))


class TestHistogramPlot:
    def test_wellformed_and_deterministic(self):
        grid = grid_gibbs_density(lambda p: np.zeros(len(p)), 0.0, 4.0, [(-3, 3)], 301)
        samples = np.random.default_rng(1).normal(0, 0.5, 5000)
        a = render_histogram_svg(samples, grid)
        b = render_histogram_svg(samples, grid)
        assert a == b
        assert "<polyline" in a and a.count("<rect") == 60
