"""Structured results of identity checks."""

from __future__ import annotations

from dataclasses import dataclass, field

from .polynomials import BiPoly, format_bipoly

PASS = "pass"
FAIL = "fail"
HYPOTHESIS_NOT_MET = "hypothesis-not-met"


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of one identity check.

    witness is the exact difference polynomial in exact mode, or the largest
    observed deviation in numeric mode; it is present whenever status is
    "fail".  formula is the formula-side polynomial of an exact check that
    computed one (on a pass, the equal direct-side object), kept for a
    numeric referee; it takes no part in `==`, `repr` or `lines`.
    """

    identity: str
    graph: str
    mode: str  # "exact" | "numeric"
    status: str  # PASS | FAIL | HYPOTHESIS_NOT_MET
    witness: object = None
    detail: str = ""
    formula: BiPoly | None = field(default=None, compare=False, repr=False)

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def lines(self) -> list[str]:
        out = [
            f"identity={self.identity}",
            f"graph={self.graph}",
            f"mode={self.mode}",
            f"status={self.status}",
        ]
        if self.status == FAIL:
            if isinstance(self.witness, BiPoly):
                out.append(f"witness={format_bipoly(self.witness)}")
            else:
                out.append(f"witness={self.witness}")
        if self.detail:
            out.append(f"detail={self.detail}")
        return out
