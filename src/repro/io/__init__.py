"""Files in and out: the Liberty writer and the flow's JSON artifacts.

:func:`write_liberty` emits the characterized library as a ``.lib`` for
ordinary EDA tools; :mod:`repro.io.results` saves and loads exploration
results and mode tables, the artifacts that ``explore`` and
``compile-table`` write and ``serve``/``replay`` read.
"""

from repro.io.liberty import write_liberty
from repro.io.results import (
    load_exploration,
    load_mode_table,
    save_exploration,
    save_mode_table,
)

__all__ = [
    "write_liberty",
    "save_exploration",
    "load_exploration",
    "save_mode_table",
    "load_mode_table",
]
