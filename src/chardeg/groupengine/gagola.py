"""Detection of characters vanishing off two classes, and the minimal normal
subgroup data that such a character forces."""

from __future__ import annotations

from typing import NamedTuple

from .dixon import CharacterTable, dixon_character_table
from .table import GroupTable


class GagolaReport(NamedTuple):
    """Outcome of scanning a character table for a character that is nonzero
    on exactly two conjugacy classes.

    vanishing_classes is the number of zero classes of the witness character
    when one exists, otherwise the maximum number of zero classes over all
    characters.  minimal_normal_order is filled only when the group has a
    unique minimal normal subgroup.
    """

    is_gagola: bool
    character_degree: int | None
    vanishing_classes: int
    minimal_normal_count: int
    minimal_normal_order: int | None

    @property
    def has_unique_minimal_normal(self) -> bool:
        return self.minimal_normal_count == 1


def gagola_analyze(group: GroupTable,
                   table: CharacterTable | None = None) -> GagolaReport:
    """The report for `group`, read off `table` (by default its Dixon
    table).  The nonzero counts come from `table.evaluated`, the evaluation
    the build checked, while it is set; a table whose values were edited in
    place needs `table.evaluated = None`, see CharacterTable."""
    if table is None:
        table = dixon_character_table(group)
    k = table.num_classes
    nonzero = table.nonzero_class_counts(table.evaluated)
    witness = next((t for t, count in enumerate(nonzero) if count == 2), None)
    minimal = group.minimal_normal_subgroups()
    unique = len(minimal) == 1
    return GagolaReport(
        is_gagola=witness is not None,
        character_degree=table.degrees[witness] if witness is not None else None,
        vanishing_classes=(k - 2 if witness is not None
                           else k - min(nonzero) if nonzero else 0),
        minimal_normal_count=len(minimal),
        minimal_normal_order=len(minimal[0]) if unique else None,
    )
