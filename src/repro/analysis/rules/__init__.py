"""Rule catalogue.

Each rule module exports one or more :class:`repro.analysis.core.Rule`
subclasses; :data:`ALL_RULES` is the ordered registry the runner
instantiates.  To add a rule: subclass ``Rule`` in a new module here,
give it a unique kebab-case ``name``, implement ``visit_<NodeType>`` /
``check_module`` / ``finish`` hooks, append the class to
:data:`ALL_RULES`, and add a violating + clean fixture pair to
``tests/test_analysis.py``.
"""

from __future__ import annotations

from typing import List, Type

from repro.analysis.core import Rule
from repro.analysis.rules.dispatch import DispatchCompleteRule
from repro.analysis.rules.imports import NoUnusedImportRule
from repro.analysis.rules.obsguard import ObsHookGuardRule
from repro.analysis.rules.ordering import NoUnorderedIterationRule
from repro.analysis.rules.randomness import NoUnseededRandomRule
from repro.analysis.rules.slots import SlotsRequiredRule
from repro.analysis.rules.wallclock import NoWallclockRule

ALL_RULES: List[Type[Rule]] = [
    NoWallclockRule,
    NoUnseededRandomRule,
    NoUnorderedIterationRule,
    SlotsRequiredRule,
    DispatchCompleteRule,
    ObsHookGuardRule,
    NoUnusedImportRule,
]

__all__ = ["ALL_RULES"]
