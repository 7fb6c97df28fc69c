"""Report and plot text: CSV accuracy tables, decision-region SVGs for
2-D tasks, and sampler-diagnostic histograms. The callers write the files
(``experiment`` a run's, ``cli`` the ``verify`` diagnostic).

SVGs are written by hand with fixed-precision coordinates so identical
inputs produce byte-identical text.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .models import ModelParams, predict
from .oracle import GridDensity

CSV_HEADER = "defense,attack,norm,epsilon,natural_acc,robust_acc,seed,wall_ms"

_CLASS_FILLS = ("#aec7e8", "#ffbb78", "#98df8a", "#ff9896")
_POINT_FILLS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


@dataclass
class EvalRow:
    defense: str
    attack: str
    norm: str
    epsilon: float
    natural_acc: float
    robust_acc: float
    seed: int
    wall_ms: int

    def __post_init__(self):
        if not (0.0 <= self.natural_acc <= 1.0 and 0.0 <= self.robust_acc <= 1.0):
            raise ValueError("accuracies must lie in [0, 1]")


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_csv(rows: list[EvalRow]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            r.defense, r.attack, r.norm, _fmt(float(r.epsilon)),
            _fmt(float(r.natural_acc)), _fmt(float(r.robust_acc)),
            str(r.seed), str(r.wall_ms),
        ]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Decision-region SVG


def decision_grid(params: ModelParams, bounds, resolution: int = 200) -> np.ndarray:
    """Class predictions on a resolution x resolution grid of cell centers;
    entry [i, j] is the cell with x-index i and y-index j."""
    (x_lo, x_hi), (y_lo, y_hi) = bounds
    xs = x_lo + (np.arange(resolution) + 0.5) * (x_hi - x_lo) / resolution
    ys = y_lo + (np.arange(resolution) + 0.5) * (y_hi - y_lo) / resolution
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    points = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)
    out = np.empty(points.shape[0], dtype=np.int64)
    for start in range(0, points.shape[0], 8000):
        out[start:start + 8000] = predict(params, points[start:start + 8000])
    return out.reshape(resolution, resolution)


def render_decision_svg(params: ModelParams, dataset, resolution: int = 200,
                        size: int = 400) -> str:
    """Scatter of the dataset over run-length-encoded decision regions."""
    if dataset.inputs.data.ndim != 2 or dataset.inputs.shape[1] != 2:
        raise ValueError("decision plots need a 2-D dataset")
    lo, hi = dataset.value_range
    grid = decision_grid(params, [(lo, hi), (lo, hi)], resolution)
    cell = size / resolution
    buf = io.StringIO()
    buf.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
    )
    span = hi - lo
    for j in range(resolution):
        i = 0
        while i < resolution:
            k = grid[i, j]
            run = 1
            while i + run < resolution and grid[i + run, j] == k:
                run += 1
            fill = _CLASS_FILLS[int(k) % len(_CLASS_FILLS)]
            y_png = size - (j + 1) * cell  # flip so larger y plots upward
            buf.write(
                f'<rect x="{i * cell:.2f}" y="{y_png:.2f}" '
                f'width="{run * cell:.2f}" height="{cell:.2f}" fill="{fill}"/>\n'
            )
            i += run
    labels = dataset.labels.data.argmax(axis=1)
    for p, lab in zip(dataset.inputs.data, labels):
        cx = (p[0] - lo) / span * size
        cy = size - (p[1] - lo) / span * size
        fill = _POINT_FILLS[int(lab) % len(_POINT_FILLS)]
        buf.write(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2.5" fill="{fill}"/>\n')
    buf.write("</svg>\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Sampler-diagnostic SVG


def render_histogram_svg(samples: np.ndarray, grid: GridDensity,
                         bins: int = 60, width: int = 480, height: int = 320) -> str:
    """Chain-sample histogram (bars) against the grid density (polyline)."""
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    (lo, hi) = grid.bounds[0]
    hist, edges = np.histogram(samples, bins=bins, range=(lo, hi), density=True)
    axis = grid.axes[0]
    cell = axis[1] - axis[0]
    density = grid.probs / cell
    peak = max(float(hist.max()), float(density.max()), 1e-12)
    buf = io.StringIO()
    buf.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
    )
    bar_w = width / bins
    for b in range(bins):
        h = hist[b] / peak * (height - 20)
        buf.write(
            f'<rect x="{b * bar_w:.2f}" y="{height - h:.2f}" '
            f'width="{bar_w:.2f}" height="{h:.2f}" fill="#aec7e8"/>\n'
        )
    pts = []
    for x, d in zip(axis, density):
        px = (x - lo) / (hi - lo) * width
        py = height - d / peak * (height - 20)
        pts.append(f"{px:.2f},{py:.2f}")
    buf.write(
        f'<polyline points="{" ".join(pts)}" fill="none" stroke="#d62728" '
        f'stroke-width="1.5"/>\n'
    )
    buf.write("</svg>\n")
    return buf.getvalue()
