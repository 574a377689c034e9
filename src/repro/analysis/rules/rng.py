"""RPL001 ``rng-discipline`` — all randomness flows through seeded Generators.

Bit-identical replay (``RunResult.digest``, the 23-point digest-parity
grid) requires every random draw in the simulated world to come from a
``numpy.random.Generator`` that was constructed from an explicit seed
and *threaded through* the code that uses it.  The stdlib ``random``
module and numpy's legacy global state (``np.random.uniform`` & co.)
are process-wide singletons: any import-order change, test reordering
or parallel sweep worker perturbs them silently, and the failure shows
up as an opaque run-level digest mismatch instead of a lint error.

Flagged:

* ``import random`` / ``from random import ...`` (stdlib module);
* calls through numpy's legacy global RNG: ``np.random.<fn>(...)`` for
  any ``fn`` other than ``default_rng`` / ``Generator`` / ``SeedSequence``;
* ``default_rng()`` called with *no* arguments — an OS-entropy seed is
  nondeterminism with extra steps.

Allowed: ``np.random.default_rng(seed)`` construction sites, and any
use of a ``Generator`` instance (``rng.integers(...)`` is invisible to
this rule by design — the discipline is enforced at the *source*).

The calls flagged are those :class:`~repro.analysis.dataflow.taint
.SourceDetector` labels ``legacy-rng`` or ``unseeded-rng``; a stdlib
``random`` call is flagged at its import.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.core import FileContext, Finding, Rule, register_rule
from repro.analysis.dataflow.taint import RNG_CONSTRUCTORS, detector_for


@register_rule
class RngDisciplineRule(Rule):
    id = "rng-discipline"
    summary = (
        "randomness must flow through seeded np.random.Generator objects; "
        "stdlib random and numpy's legacy global RNG are banned"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.nodes():
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        yield self.finding(
                            ctx, node,
                            "import of stdlib `random` (process-global RNG); "
                            "thread a seeded np.random.Generator instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        ctx, node,
                        "import from stdlib `random` (process-global RNG); "
                        "thread a seeded np.random.Generator instead",
                    )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in RNG_CONSTRUCTORS:
                            yield self.finding(
                                ctx, node,
                                f"`from numpy.random import {alias.name}` "
                                "draws from the legacy global RNG; use a "
                                "seeded default_rng(...) Generator",
                            )

        detector = detector_for(ctx)
        for node in ctx.nodes():
            if not isinstance(node, ast.Call):
                continue
            source = detector.source_for_call(node)
            if source is None:
                continue
            if source.kind == "legacy-rng":
                yield self.finding(
                    ctx, node,
                    f"`{source.detail}(...)` draws from numpy's "
                    "process-global legacy RNG; use a seeded, threaded "
                    "np.random.Generator",
                )
            elif source.kind == "unseeded-rng":
                yield self.finding(
                    ctx, node,
                    "`default_rng()` without a seed pulls OS entropy — "
                    "every construction site must pass an explicit seed",
                )
