"""Extensions beyond the paper's evaluated system: the multi-GPU trainer it
names as future work and the time-budget hyper-parameter search of case
study (iii)."""

from .hyperband import BudgetedRun, SearchConfig, SearchSummary, TimeBudgetSearch, paper_search_grid
from .multigpu import MultiGpuGBDTTrainer
from .outofcore import OutOfCoreGBDTTrainer, plan_column_groups

__all__ = [
    "BudgetedRun",
    "SearchConfig",
    "SearchSummary",
    "TimeBudgetSearch",
    "paper_search_grid",
    "MultiGpuGBDTTrainer",
    "OutOfCoreGBDTTrainer",
    "plan_column_groups",
]
