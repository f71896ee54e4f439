"""Synthetic restaurant-branch structures ``s_n,k`` over ``sigma0``.

``s_n,k`` has n clients, n tables and k menu entries; dishes share the
menu's names, so ``f`` and ``g`` are identity tables, ``g`` over the
whole of ``pow(Menu)``.  The text is what a user would write: it goes
through ``parse`` and ``bind_structure`` like any ``.hks`` file.

A seed permutes the order of entries, set elements and table rows.
Binding normalises every one of those orders, so all texts of one
``(n, k)`` denote the same structure and behave identically, while the
parser sees different input on every seed.
"""

from __future__ import annotations

import itertools
import random


def names(prefix: str, count: int) -> list[str]:
    width = len(str(count))
    return [f"{prefix}{i:0{width}d}" for i in range(1, count + 1)]


def structure_name(n: int, k: int) -> str:
    return f"s_{n}_{k}"


def structure_text(n: int, k: int, seed: int) -> str:
    """The ``.hks`` text of ``s_n,k``, laid out by ``seed``."""
    if n < 1 or k < 1:
        raise ValueError(f"s_n,k needs n >= 1 and k >= 1, got ({n}, {k})")
    rng = random.Random(seed)

    def set_text(items: list[str]) -> str:
        items = list(items)
        rng.shuffle(items)
        return "{" + ", ".join(items) + "}"

    clients, tables, menu = names("c", n), names("t", n), names("m", k)
    subsets = [list(c) for r in range(k + 1)
               for c in itertools.combinations(menu, r)]
    f_rows = [f"{m} -> {m}" for m in menu]
    g_rows = [f"{set_text(s)} -> {set_text(s)}" for s in subsets]
    rng.shuffle(f_rows)
    rng.shuffle(g_rows)
    # a pow(S) entry must follow the carrier of S; everything else is free
    carriers = [f"Clients = {set_text(clients)};", f"Tables = {set_text(tables)};"]
    dishes = [f"Menu = {set_text(menu)};", "Orders = pow(Menu);"]
    meals = [f"Meal_items = {set_text(menu)};", "Meals = pow(Meal_items);"]
    tables_ = [f"f = {{{', '.join(f_rows)}}};", f"g = {{{', '.join(g_rows)}}};"]
    groups = [carriers, dishes, meals, tables_]
    rng.shuffle(groups)
    body = [line for group in groups for line in group]
    lines = [f"# synthetic branch: {n} clients, {n} tables, {k} menu entries",
             f"structure {structure_name(n, k)} of sigma0 {{"]
    lines += [f"  {line}" for line in body]
    lines.append("}")
    return "\n".join(lines) + "\n"
