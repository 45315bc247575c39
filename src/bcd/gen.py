"""Seeded random and exhaustive expression generation, plus random reduction walks."""

from __future__ import annotations

import random

from .rewrite import (
    ASSO,
    ASSO_INV,
    COMM,
    DIST,
    IDEM,
    _is_redex,
    absp,
    apply,
    redexes,
    witness_pool,
)
from .syntax import Arrow, Atom, Expr, Meet, _preorder


def random_expr(rng: random.Random, size: int, atoms=("a", "b", "c")) -> Expr:
    """Random binary tree with the largest odd node count not above size."""
    internal = max(0, (size - 1) // 2)

    def build(k: int) -> Expr:
        if k == 0:
            return Atom(rng.choice(atoms))
        left = rng.randrange(k)
        a = build(left)
        b = build(k - 1 - left)
        return Arrow(a, b) if rng.random() < 0.5 else Meet(a, b)

    return build(internal)


def all_exprs(atoms, max_nodes: int) -> list:
    """Every expression over the atoms with at most max_nodes nodes."""
    by_size = {1: [Atom(a) for a in atoms]}
    out = list(by_size[1])
    for size in range(3, max_nodes + 1, 2):
        cur = []
        for lsize in range(1, size - 1, 2):
            rsize = size - 1 - lsize
            for a in by_size[lsize]:
                for b in by_size[rsize]:
                    cur.append(Arrow(a, b))
                    cur.append(Meet(a, b))
        by_size[size] = cur
        out.extend(cur)
    return out


def random_walk(rng: random.Random, start: Expr, max_steps: int, witnesses: list) -> Expr:
    """The end of a random restricted reduction of up to max_steps steps.

    Uses the meet rules plus dist and absp with witnesses drawn from the pool.
    """
    cur = start
    for _ in range(rng.randint(0, max_steps)):
        rules = [ASSO, ASSO_INV, COMM, IDEM, DIST]
        if witnesses and rng.random() < 0.25:
            rules.append(absp(rng.choice(witnesses)))
        rng.shuffle(rules)
        for rule in rules:
            positions = redexes(cur, rule, restricted=True)
            if positions:  # restricted idem matches every atom, so some rule does
                cur = apply(cur, rule, rng.choice(positions))
                break
    return cur


def random_strictly_positive_step(rng: random.Random, e: Expr):
    """One random restricted reduction step at a strictly positive position,
    with the absp witness drawn from the subexpressions of e.

    Returns (rule, position, result); atoms always admit at least an idem
    step at the root, so this never fails.
    """
    rules = [ASSO, ASSO_INV, COMM, IDEM, DIST, absp(rng.choice(witness_pool(e)))]
    walk = list(_preorder(e, sources=False))
    options = [(r, pos) for r in rules for pos, x, here in walk if _is_redex(r, x, here, True)]
    rule, pos = rng.choice(options)
    return rule, pos, apply(e, rule, pos)
