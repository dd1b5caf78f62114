"""Plotting for experiment reports: terminal (ASCII) charts and SVG figures.

The paper's evaluation is presented as figures; this reproduction is a
library-and-harness, so every figure is rendered without any plotting
dependency, in two backends sharing one coordinate-mapping abstraction
(:class:`~repro.plotting.canvas.DataWindow`):

* :mod:`repro.plotting.canvas` -- a character canvas with data-to-character
  coordinate mapping,
* :mod:`repro.plotting.charts` -- line / scatter charts, horizontal bar
  charts and histograms built on the canvas (printed by the CLI and the
  examples),
* :mod:`repro.plotting.svg` -- deterministic SVG line / bar charts used by
  ``python -m repro report`` for the figure artifacts.
"""

from repro.plotting.canvas import Canvas, DataWindow
from repro.plotting.charts import (
    Series,
    bar_chart,
    histogram,
    line_chart,
    residency_chart,
    scatter_chart,
)
from repro.plotting.svg import svg_bar_chart, svg_line_chart

__all__ = [
    "Canvas",
    "DataWindow",
    "Series",
    "bar_chart",
    "histogram",
    "line_chart",
    "residency_chart",
    "scatter_chart",
    "svg_bar_chart",
    "svg_line_chart",
]
