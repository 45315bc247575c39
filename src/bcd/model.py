"""Finite models of the theory extended with depth-n truncation.

The carrier of the depth-n model over a given atom set is enumerated level
by level: level-0 primes are the atoms; level-k primes are the atoms plus all
arrows between level-(k-1) carrier members; the carrier is every meet of a
nonempty set of primes, up to congruence.

Each level keys its classes by a bitmask.  The level's units are the
single-factor types factor_to_expr(f) over the factors of its primes, and
the mask of an expression has bit b set when it lies below unit b.  By
factor matching, a type with one factor lies below a meet exactly when it
lies below one of the operands, so the mask of a meet is the OR of its
members' masks; and a meet lies below another exactly when its mask
contains the other's, so two meets are congruent iff their masks are equal.
The carrier is therefore the OR-closure of the primes' masks, which costs
|carrier| * |primes| ORs and one decision per (prime, unit) pair; no subset
of primes is ever visited.

The closure adds the primes one at a time in index order, recording for
each class the prime subset (bit k for prime k) that first reaches it.  A
class first reached by prime k has k as the highest prime of its least
subset, and the first class to reach it while the earlier classes are
scanned in order carries the least subset below k.  So classes come in the
order of their least prime subset, compared as integers, and each is
represented by the slat-canonical meet of that subset: the order and
representatives a walk over all subsets in increasing order would keep.
The meet table ORs two class masks.  The arrow table needs no per-entry
decision either: truncating Arrow(c_i, c_j) at depth n gives Arrow(t_i, t_j)
with t_i the depth-(n-1) truncation of c_i, which is congruent to the
level-n prime Arrow(prev[pi(i)], prev[pi(j)]), where pi(i) is the previous
level's class of t_i.  So the table costs one projection pi per class plus
a lookup per entry.  At depth 0 every arrow is @.

Equality in the depth-n model can be decided without the carrier: truncating
at depth n is a sound model-preserving reduction, and truncated expressions
have arrow depth at most n, where model equality and congruence coincide.
That second path is satisfies_eq, which lives in bcd.decide beside equiv and
is imported back here, so `bcd sat` loads neither this module nor
bcd.rewrite; the table-driven path is Model.eval.

A built Model is immutable and safe to share and query concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .decide import DecisionCache, LimitExceeded, satisfies_eq  # noqa: F401  (its old path)
from .factors import factor_to_expr, factors
from .rewrite import meet_of
from .syntax import (
    INFINITE_DEPTH,
    TRUNCATION_ATOM,
    Arrow,
    Atom,
    Expr,
    Meet,
    atoms_of,
    dept_normal_form,
    render,
)

_OVERFLOW_CAP = 1_000_000


class UnknownAtom(ValueError):
    """An expression uses an atom the model does not carry."""


def stack_of_twos(n: int, m: int) -> int:
    """Iterated exponential: n=0 gives m, each further level is 2**previous.

    Raises OverflowError once the tower would leave a sane machine range;
    bound checks only ever need small instances.
    """
    if n < 0 or m < 0:
        raise ValueError("stack_of_twos takes natural numbers")
    v = m
    for _ in range(n):
        if v > _OVERFLOW_CAP:
            raise OverflowError(
                f"tower value of {v.bit_length()} bits exceeds the supported range"
            )
        v = 2**v
    return v


@dataclass(frozen=True)
class Model:
    """Carrier of canonical representatives with meet and arrow tables."""

    atoms: tuple
    depth: int
    carrier: tuple
    meet_table: tuple
    arrow_table: tuple
    _units: tuple = field(repr=False, compare=False, default=())
    _by_mask: dict = field(repr=False, compare=False, default_factory=dict)
    _atom_index: dict = field(repr=False, compare=False, default_factory=dict)
    _cache: DecisionCache = field(repr=False, compare=False, default_factory=DecisionCache)

    @property
    def size(self) -> int:
        return len(self.carrier)

    def _check_atoms(self, e: Expr) -> None:
        unknown = atoms_of(e) - set(self.atoms)
        if unknown:
            raise UnknownAtom(f"atoms {sorted(unknown)} not carried by this model")

    def eval(self, e: Expr) -> int:
        """Carrier index of e by structural fold through the tables."""
        if isinstance(e, Atom):
            idx = self._atom_index.get(e.name)
            if idx is None:
                raise UnknownAtom(f"atom {e.name!r} not carried by this model")
            return idx
        if isinstance(e, Meet):
            return self.meet_table[self.eval(e.left)][self.eval(e.right)]
        return self.arrow_table[self.eval(e.source)][self.eval(e.target)]

    def class_index(self, e: Expr) -> int:
        """Carrier index of e's congruence class, via truncation and the
        unit mask; independent of the tables."""
        self._check_atoms(e)
        t = dept_normal_form(e, self.depth)
        return self._by_mask[_unit_mask(self._cache, t, self._units)]


def _unit_mask(cache: DecisionCache, e: Expr, units) -> int:
    """Bitmask of the units that e lies below (bit b for units[b])."""
    mask = 0
    for b, u in enumerate(units):
        if cache.subseteq(e, u):
            mask |= 1 << b
    return mask


def _close_level(cache: DecisionCache, primes: list):
    """The carrier over primes, as (units, pmask, masks, carrier).

    masks[i] is the unit mask of carrier class i, and carrier[i] its
    canonical representative.  The primes join the closure one at a time
    in index order, so each class's least prime subset is the one that
    first reaches it and the classes come in least-subset order.
    """
    memo: dict = {}
    units = tuple(
        dict.fromkeys(factor_to_expr(f) for p in primes for f in factors(p, memo))
    )
    pmask = [_unit_mask(cache, p, units) for p in primes]
    least = {0: 0}
    for k, pm in enumerate(pmask):
        bit = 1 << k
        for m, s in list(least.items()):
            least.setdefault(m | pm, s | bit)
    del least[0]
    # The primes are distinct slat-canonical non-meets, so the meet of a
    # subset taken in rendering order is already its slat-canonical form.
    order = sorted(range(len(primes)), key=lambda k: render(primes[k]))
    carrier = [meet_of(primes[k] for k in order if s >> k & 1) for s in least.values()]
    return units, pmask, list(least), carrier


def build_model(
    atoms,
    depth: int,
    *,
    max_atoms: int = 2,
    max_depth: int = 1,
    max_candidates: int = 4096,
) -> Model:
    """Enumerate the depth-n carrier over the given atoms and fill the tables.

    Each level closes its primes' unit masks under OR, prime by prime,
    which orders the classes by least prime subset; the meet table ORs two
    class masks, and the arrow table reads the class of the level prime
    Arrow(prev[pi(i)], prev[pi(j)]), where pi projects a class onto the
    previous level by truncation.  See the module docstring for why.

    Default caps keep the enumeration at desk scale: two atoms, depth one,
    and at most 4096 nonempty prime subsets per level.  That last cap
    checks 2**k - 1 for k primes, an upper bound on the carrier size; the
    closure itself never visits the subsets.  Pass larger caps explicitly
    to override.
    """
    names = tuple(sorted(set(atoms)))
    if TRUNCATION_ATOM not in names:
        raise ValueError(f"model atoms must include {TRUNCATION_ATOM!r}")
    if depth == INFINITE_DEPTH or depth < 0:
        raise ValueError("model depth must be a finite natural number")
    if len(names) > max_atoms:
        raise LimitExceeded(
            f"{len(names)} atoms exceeds the cap of {max_atoms}; override with max_atoms"
        )
    if depth > max_depth:
        raise LimitExceeded(
            f"depth {depth} exceeds the cap of {max_depth}; override with max_depth"
        )

    cache = DecisionCache()
    atom_exprs = [Atom(a) for a in names]
    carrier: list = []
    units: tuple = ()
    by_mask: dict = {}

    for _ in range(depth + 1):
        primes = atom_exprs + [Arrow(x, y) for x in carrier for y in carrier]
        count = (1 << len(primes)) - 1
        if count > max_candidates:
            raise LimitExceeded(
                f"{count} candidate meets exceeds the cap of {max_candidates};"
                " override with max_candidates"
            )
        prev_units, prev_by_mask, prev_size = units, by_mask, len(carrier)
        units, pmask, masks, carrier = _close_level(cache, primes)
        by_mask = {m: i for i, m in enumerate(masks)}

    size = len(carrier)
    prime_class = [by_mask[m] for m in pmask]
    meet_table = tuple(tuple(by_mask[mi | mj] for mj in masks) for mi in masks)
    if depth == 0:
        arrow_table = ((prime_class[names.index(TRUNCATION_ATOM)],) * size,) * size
    else:
        proj = [
            prev_by_mask[_unit_mask(cache, dept_normal_form(c, depth - 1), prev_units)]
            for c in carrier
        ]
        base = len(names)
        arrow_table = tuple(
            tuple(prime_class[base + pi * prev_size + pj] for pj in proj) for pi in proj
        )
    atom_index = {a: prime_class[k] for k, a in enumerate(names)}

    return Model(
        names,
        depth,
        tuple(carrier),
        meet_table,
        arrow_table,
        units,
        by_mask,
        atom_index,
        cache,
    )

