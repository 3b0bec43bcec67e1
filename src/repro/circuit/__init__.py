"""Netlist representation: nodes, device instances, composition, validation."""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".netlist": ("Netlist", "GROUND"),
    ".validate": ("validate", "NetlistError"),
    ".compose": ("graft", "prefixed_guess"),
})
