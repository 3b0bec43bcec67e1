"""Device models: level-1 MOSFETs, passives, independent sources, process data.

These models are the electrical substrate replacing the foundry SPICE decks
used in the paper.  The level-1 (Shichman-Hodges) MOSFET equations capture
every first-order effect the sensing circuit relies on: ratioed conduction,
threshold clamping, channel-length modulation, and series-stack division.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".process": ("ProcessParams", "TransistorParams", "nominal_process",
                 "perturbed_process", "corner_process"),
    ".mosfet": ("Mosfet", "MosfetType"),
    ".passives": ("Capacitor", "Resistor"),
    ".sources": ("DCSource", "PWLSource", "PulseSource", "ClockSource",
                 "clock_pair"),
})
