"""Plain-text reporting: ASCII waveform/curve rendering and tables.

The reproduction environment is headless, so every figure-like artefact is
rendered as text: waveforms (Figs. 2-3), Vmin-vs-tau curves (Fig. 4),
scatter summaries (Fig. 5) and coverage tables (Sec. 3).
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".render": ("ascii_waveform", "ascii_curve", "format_table"),
    ".summaries": ("waveform_report", "sensitivity_report",
                   "testability_report_text"),
    ".aggregate": ("build_report", "collect_results", "write_report"),
})
