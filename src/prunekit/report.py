"""Run reports: JSON for machines, an aligned comparison table for humans.

The table lays out one baseline row and one pruned row with the columns
Dataset, Model, Acc/%, Acc.drop/%, Parameters, Parameters.drop/%, FLOPs,
FLOPs.drop/%. The pruned row's Model cell names the clustering operating
point as "epsilon, min_pts". Accuracy drop is baseline minus pruned in
points (negative when pruning helped); parameter and FLOP drops are
percentages of the baseline counts.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .errors import PruneKitError
from .util import round_half_even, write_text_atomic

TABLE_COLUMNS = ("Dataset", "Model", "Acc/%", "Acc.drop/%", "Parameters",
                 "Parameters.drop/%", "FLOPs", "FLOPs.drop/%")


@dataclass
class RunReport:
    dataset_name: str
    template_name: str
    epsilon: float
    min_pts: int
    original_structure: list
    coarse_structure: list
    final_structure: list
    baseline: dict = field(default_factory=dict)   # accuracy, params, flops, epochs
    final: dict = field(default_factory=dict)      # accuracy, params, flops, drops
    retrain_epochs: int = 0
    stage_seconds: dict = field(default_factory=dict)
    normalization: dict = field(default_factory=dict)
    config_hash: str = ""
    seed: int = 0
    failed_stage: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        return cls(**data)

    def comparable_dict(self) -> dict:
        """Report content with wall-clock timing stripped, for equality checks."""
        d = self.to_dict()
        d.pop("stage_seconds")
        return d

    def save(self, path) -> None:
        write_text_atomic(path, json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "RunReport":
        """The report saved at ``path``; a file that does not hold one is an
        error naming the file and what is wrong."""
        try:
            with open(path) as fh:
                return cls.from_dict(json.load(fh))
        except ValueError as exc:
            raise PruneKitError(f"{path} is not valid JSON: {exc}") from exc
        except TypeError as exc:
            raise PruneKitError(f"{path} is not a run report: {exc}") from exc


def _count(count) -> str:
    """A parameter or FLOP count in millions or thousands with two decimals,
    whichever it reaches, else whole."""
    for scale, unit in ((1e6, "M"), (1e3, "K")):
        if count >= scale:
            return f"{count / scale:.2f}{unit}"
    return str(count)


def _pct(value) -> str:
    return f"{round_half_even(value, 2):.2f}%"


def render_table(report: RunReport) -> str:
    """Two-row comparison table in the layout described in the module docstring."""
    base_acc = report.baseline.get("accuracy")
    fin_acc = report.final.get("accuracy")
    rows = [list(TABLE_COLUMNS)]
    rows.append([
        report.dataset_name,
        report.template_name,
        f"{100.0 * base_acc:.2f}" if base_acc is not None else "-",
        "-",
        _count(report.baseline["params"]) if "params" in report.baseline else "-",
        "-",
        _count(report.baseline["flops"]) if "flops" in report.baseline else "-",
        "-",
    ])
    if fin_acc is not None and base_acc is not None:
        acc_drop = f"{100.0 * (base_acc - fin_acc):.2f}"
    else:
        acc_drop = "-"
    rows.append([
        "",
        f"{report.epsilon:.3f}, {report.min_pts}",
        f"{100.0 * fin_acc:.2f}" if fin_acc is not None else "-",
        acc_drop,
        _count(report.final["params"]) if "params" in report.final else "-",
        _pct(report.final["param_drop_percent"]) if "param_drop_percent" in report.final else "-",
        _count(report.final["flops"]) if "flops" in report.final else "-",
        _pct(report.final["flop_drop_percent"]) if "flop_drop_percent" in report.final else "-",
    ])
    widths = [max(len(r[i]) for r in rows) for i in range(len(TABLE_COLUMNS))]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    lines.insert(1, "-" * len(lines[0]))
    return "\n".join(lines) + "\n"
