"""locsim: energy-aware localization scheduling over synthetic mobility traces.

The package couples a bounded random-walk velocity model with an adaptive
scheduler that estimates velocity by EWMA, picks the cheapest localization
method per unit of usable time, and re-fixes exactly when the accumulated
movement estimate exhausts the accuracy budget. Runs report total fix
energy and the fraction of time the accuracy requirement was met.
"""

__version__ = "0.1.0"
