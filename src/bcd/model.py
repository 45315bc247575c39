"""Finite models of the theory extended with depth-n truncation.

The carrier of the depth-n model over a given atom set is enumerated level
by level: level-0 primes are the atoms; level-k primes are the atoms plus all
arrows between level-(k-1) carrier members; the carrier is every meet of a
nonempty set of primes, up to congruence.  Level k is the depth-k Model
itself, and level k+1 is built from its masks, projections and arrows.

Each level keys its classes by a bitmask over its units, the single-factor
types that are the atoms and, at level k, every Arrow(c, u) with c a
level-(k-1) class and u a level-(k-1) unit: every factor of a level-k prime
is one of them.  The mask of an expression has bit b set when it lies below
unit b.  By factor matching, a type with one factor lies below a meet
exactly when it lies below one of the operands, so the mask of a meet is the
OR of its members' masks; and a meet lies below another exactly when its
mask contains the other's, so two meets are congruent iff their masks are
equal.  The carrier is therefore the OR-closure of the primes' masks, which
costs |carrier| * |primes| ORs; no subset of primes is ever visited.

No mask needs a decision, since each follows from the masks of the level
below.  A class is congruent to the meet of the units above it, so class c_k
lies below class c_i exactly when mask(c_k) contains mask(c_i), and c_j lies
below unit u_v exactly when bit v of mask(c_j) is set.  Arrow(c_i, c_j) thus
lies below the unit Arrow(c_k, u_v) iff mask(c_k) contains mask(c_i) and bit
v of mask(c_j) is set: the prime's mask holds a copy of mask(c_j) in the
block of every class k below c_i, and each atom's mask is its own bit.

Nor does the projection pi, which maps a level-k class to the level-(k-1)
class of its truncation at depth k-1.  Truncating a level-k prime at depth
k-1 gives its atom, @ when k = 1, or else Arrow(t_i, t_j) with t_i the
depth-(k-2) truncation of c_i, which is congruent to the level-(k-1) prime
Arrow(prev[pi(i)], prev[pi(j)]).  Truncation commutes with meets and maps
congruent types to congruent ones, so the closure ORs each prime's truncated
mask, held above the bits of its own mask, alongside that mask: the classes
stay the same, and each ends with its projection's mask.

The closure adds the primes one at a time in index order, recording for
each class the prime subset that first reaches it.  A class first reached
by prime k has k as the highest prime of its least subset, and the first
class to reach it while the earlier classes are scanned in order carries
the least subset below k.  So classes come in the
order of their least prime subset, compared as integers, and each is
represented by the slat-canonical meet of that subset: the order and
representatives a walk over all subsets in increasing order would keep.

Model.eval reads the tables without building them.  A meet of classes i and
j is the class of mask(c_i) | mask(c_j).  Truncating Arrow(c_i, c_j) at depth
n gives Arrow(t_i, t_j), congruent to the level-n prime Arrow(prev[pi(i)],
prev[pi(j)]); at depth 0 every arrow is @.  meet_table and arrow_table hold
the same reads for every pair, and are built when first read.

Equality in the depth-n model can be decided without the carrier: truncating
at depth n is a sound model-preserving reduction, and truncated expressions
have arrow depth at most n, where model equality and congruence coincide.
That second path is satisfies_eq, which lives in bcd.decide beside equiv, so
`bcd sat` loads neither this module nor bcd.rewrite.  class_index is a
third: it truncates and then asks the decider which units lie above, so it
shares neither the masks' derivation nor the tables with Model.eval.

A built Model is immutable and safe to share and query concurrently; two
threads that read a table first at once build equal tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .decide import DecisionCache, LimitExceeded, _check_bytes
from .syntax import (
    INFINITE_DEPTH,
    TRUNCATION_ATOM,
    Arrow,
    Atom,
    Expr,
    Meet,
    _ATOM_NAME,
    atoms_of,
    dept_normal_form,
    render,
)

_OVERFLOW_CAP = 1_000_000
CARRIER_CAP = 1 << 16  # classes of one level


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
    """The depth-n model: its carrier of canonical representatives, in
    least-subset order, and its meet and arrow tables on demand.

    Bit b of a mask in _masks stands for _units[b], and _by_mask gives the
    class of each mask.  _proj[i] is the class, in the model one depth down,
    of class i's truncation; _arrows[p][q] is the class of the truncation, at
    this depth, of an arrow between classes that project to p and q.  Every
    arrow truncates to @ at depth 0, so there every class projects to 0 and
    _arrows is ((class of @,),).  _atom_classes holds the class of each atom.
    """

    atoms: tuple
    depth: int
    carrier: tuple
    _masks: tuple = field(repr=False, compare=False)
    _by_mask: dict = field(repr=False, compare=False)
    _proj: tuple = field(repr=False, compare=False)
    _arrows: tuple = field(repr=False, compare=False)
    _atom_classes: dict = field(repr=False, compare=False)
    _units: tuple = field(repr=False, compare=False)
    _cache: DecisionCache = field(repr=False, compare=False, default_factory=DecisionCache)

    @property
    def size(self) -> int:
        return len(self.carrier)

    @cached_property
    def meet_table(self) -> tuple:
        by_mask, masks = self._by_mask, self._masks
        _check_bytes(8 * len(masks) ** 2, f"a table over {len(masks)} classes needs")
        return tuple(tuple(by_mask[mi | mj] for mj in masks) for mi in masks)

    @cached_property
    def arrow_table(self) -> tuple:
        proj, arrows = self._proj, self._arrows
        _check_bytes(8 * len(proj) ** 2, f"a table over {len(proj)} classes needs")
        return tuple(tuple(arrows[pi][pj] for pj in proj) for pi in proj)

    def eval(self, e: Expr) -> int:
        """Carrier index of e, folded through the table reads by one loop over
        an explicit stack.  The atoms' classes seed the values, so a node is
        combined as soon as both operands have one; operands are walked left
        first, and a shared subterm is read once."""
        masks, by_mask, proj, arrows = self._masks, self._by_mask, self._proj, self._arrows
        value = self._atom_classes.copy()
        stack = [e]
        while stack:
            x = stack[-1]
            kind = type(x)
            if kind is Meet:
                a, b = x.left, x.right
            elif kind is Arrow:
                a, b = x.source, x.target
            elif x in value:
                stack.pop()
                continue
            else:
                raise UnknownAtom(f"atom {x.name!r} not carried by this model")
            i = value.get(a)
            j = value.get(b)
            if i is None or j is None:
                if j is None:
                    stack.append(b)
                if i is None:
                    stack.append(a)
                continue
            stack.pop()
            value[x] = by_mask[masks[i] | masks[j]] if kind is Meet else arrows[proj[i]][proj[j]]
        return value[e]

    def class_index(self, e: Expr) -> int:
        """Carrier index of e's congruence class, via truncation and the
        decider's unit mask; independent of the tables."""
        unknown = atoms_of(e).difference(self.atoms)
        if unknown:
            raise UnknownAtom(f"atoms {sorted(unknown)} not carried by this model")
        t = dept_normal_form(e, self.depth)
        return self._by_mask[_unit_mask(self._cache, t, self._units)]


def _unit_mask(cache: DecisionCache, e: Expr, units) -> int:
    """Bitmask of the units that e lies below (bit b for units[b])."""
    mask = 0
    for b, u in enumerate(units):
        if cache.subseteq(e, u):
            mask |= 1 << b
    return mask


def _close_level(atoms: list, prev: Model | None = None) -> Model:
    """The model one depth above prev (depth 0 if prev is None) over the
    atom types.

    Prime k is atoms[k] or, past them, Arrow(prev.carrier[i],
    prev.carrier[j]) in row-major order; unit A + k * U + v, for A atoms and
    U units below, is Arrow(prev.carrier[k], prev._units[v]).  The primes
    join the closure one at a time in index order, so each class's least
    prime subset is the one that first reaches it and the classes come in
    least-subset order.
    """
    pmask = [1 << a for a in range(len(atoms))]
    if prev is None:
        primes, units, keys = list(atoms), tuple(atoms), pmask
    else:
        below, width, base = prev._masks, len(prev._units), len(atoms)
        primes = atoms + [Arrow(x, y) for x in prev.carrier for y in prev.carrier]
        units = (*atoms, *(Arrow(c, u) for c in prev.carrier for u in prev._units))
        for mi in below:
            # a bit at the block of every class k below class i: the masks
            # of the classes there are at most width bits, so no carries
            row = 0
            for k, mk in enumerate(below):
                if not mi & ~mk:
                    row |= 1 << (base + k * width)
            pmask.extend(mj * row for mj in below)
        # each prime's truncation, as a mask on the level below: an atom's
        # is its own bit, the same at every level
        arrows, proj = prev._arrows, prev._proj
        trunc = pmask[:base] + [below[arrows[pi][pj]] for pi in proj for pj in proj]
        keys = [pm | t << len(units) for pm, t in zip(pmask, trunc)]
    # A class's least subset is stored with bit r for the prime of
    # rendering rank r, which leaves the classes and their order alone.
    order = sorted(range(len(primes)), key=lambda k: render(primes[k]))
    rank = [0] * len(primes)
    for r, k in enumerate(order):
        rank[k] = r
    least = {0: 0}
    for k, key in enumerate(keys):
        bit = 1 << rank[k]
        for m, s in list(least.items()):
            least.setdefault(m | key, s | bit)
        if len(least) > CARRIER_CAP + 1:
            raise LimitExceeded(
                f"{len(least) - 1} classes after {k + 1} of {len(keys)} primes"
                f" exceeds the carrier cap of {CARRIER_CAP}"
            )
    del least[0]
    full = (1 << len(units)) - 1
    masks = tuple(key & full for key in least)
    by_mask = {m: i for i, m in enumerate(masks)}
    atom_classes = {a: by_mask[1 << k] for k, a in enumerate(atoms)}
    if prev is None:
        proj = (0,) * len(masks)
        arrows = ((atom_classes[Atom(TRUNCATION_ATOM)],),)
    else:
        proj = tuple(prev._by_mask[key >> len(units)] for key in least)
        size = len(prev.carrier)
        arrows = tuple(
            tuple(by_mask[m] for m in pmask[base + i * size : base + (i + 1) * size])
            for i in range(size)
        )
    # The primes are distinct slat-canonical non-meets, so the left-nested
    # meet of a subset in rendering order is already its slat-canonical
    # form.  Without its last member, that subset is the least subset of an
    # earlier class (a smaller subset reaching the same mask would give a
    # smaller one for this class), so each class adds one Meet to a
    # representative already built.
    rep = {}
    for s in least.values():
        top = s.bit_length() - 1
        rest = s ^ (1 << top)
        rep[s] = Meet(rep[rest], primes[order[top]]) if rest else primes[order[top]]
    names, carrier = tuple(a.name for a in atoms), tuple(rep.values())
    depth = 0 if prev is None else prev.depth + 1
    return Model(names, depth, carrier, masks, by_mask, proj, arrows, atom_classes, units)


def build_model(atoms, depth: int, *, max_depth: int | None = None) -> Model:
    """The depth-n model over the given atoms: the last of the levels built
    for depths 0 to n, each the Model of its depth.

    Each level derives its primes' unit masks from the level below and
    closes them under OR, prime by prime, which orders the classes by least
    prime subset; no decision is made.  The meet and arrow tables are built
    when first read.  See the module docstring for why.

    Depth has no cap of its own (max_depth, if given, refuses a deeper one):
    every atom set is refused by depth 3.  A level whose closure could hold
    more than MATRIX_CAP_BYTES before its carrier check fires is refused with
    LimitExceeded before any node of that level is built; so, from inside
    the closure, is a level of more than CARRIER_CAP classes, and so is a
    table whose 8 * size**2 bytes would exceed MATRIX_CAP_BYTES.
    """
    names = tuple(sorted(set(atoms)))
    for a in names:
        if not (isinstance(a, str) and _ATOM_NAME.fullmatch(a)):
            raise ValueError(f"bad atom name: {a!r}")
    if TRUNCATION_ATOM not in names:
        raise ValueError(f"model atoms must include {TRUNCATION_ATOM!r}")
    if depth == INFINITE_DEPTH or depth < 0:
        raise ValueError("model depth must be a finite natural number")
    if max_depth is not None and depth > max_depth:
        raise LimitExceeded(f"depth {depth} exceeds the cap of {max_depth}")

    atom_exprs = None
    level = None
    for _ in range(depth + 1):
        # The closure's least dict holds up to 2 * (CARRIER_CAP + 1) entries
        # before its check fires, since one prime at most doubles it.  An
        # entry is a key of one bit per unit on this level and the one below,
        # and a subset of one bit per prime.
        size, below = (len(level.carrier), len(level._units)) if level else (0, 0)
        units, primes = len(names) + size * below, len(names) + size**2
        need = 2 * (CARRIER_CAP + 1) * (units + below + primes) // 8
        _check_bytes(need, f"closure over {primes} primes and {units} units could hold")
        atom_exprs = atom_exprs or [Atom(a) for a in names]
        level = _close_level(atom_exprs, level)
    return level
