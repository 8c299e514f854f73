"""Oriented term rewriting on free-algebra elements.

A rule replaces one word (its left-hand side) by an element all of whose
words are strictly smaller under the term order (length, then lexicographic
by generator); this makes every reduction step strictly decrease the
multiset of support words, so normal forms always exist.  Rules are monic:
the left-hand side carries coefficient 1, so a rule applies to a term
regardless of the term's coefficient.

``critical_pairs`` enumerates overlap and containment ambiguities between
left-hand sides; ``complete`` resolves them Knuth-Bendix style up to a
degree bound, orienting each non-joinable difference whose leading
coefficient is a unit of R_n into a new rule and reporting the rest as
failures.  It also counts the critical pairs of the final system above the
bound, which it leaves unexamined; its report calls the system confluent
only when there are neither failures nor unexamined pairs (Bergman's
diamond lemma).

Systems are immutable after construction.  ``normal_form`` is pure, so it
may run concurrently on many inputs.  It takes the steps of ``reduce_once``
(largest reducible word, first rule, leftmost occurrence) in one pass over
the support, largest word first, on words coded as bytes: a generator's
code is its rank in the call's alphabet, so byte order is the term order,
the pending queue is a sorted list of ``(len, bytes)`` tuples and the redex
search is ``bytes.find`` of each coded lhs in rule order.  Only final words
are decoded.  Coefficients take one of two forms, with the same steps and
results:

* Dense (the tori): a coefficient is one int P, an offset e and a bound b.
  Slot j of P, ``DENSE_WIDTH`` (32) bits wide, holds the coefficient of
  A^((e+j)*g/2), g the gcd of every A-exponent of the call (2 on the
  tori).  So ``acc += r*c`` is one big-int product, shift and addition
  (Kronecker substitution), and b grows by |r|_1 * b_c.  Sums and products
  of P are exact; the zero test and the decode are exact while b < 2^31.
* Sparse: maps from packed monomials to ints, each monomial one int in
  balanced base 2^s, wide enough for every monomial the call can form, so
  a monomial product is an int addition.

A call runs dense unless ``_dense_nf`` hands it to the sparse form, in
four cases: a puncture variable in the rules or the input (the spheres,
v1 on F1,1); A-exponents that span more than ``DENSE_SPAN_CAP`` factors of
A^(1/2) in the input or in one rule; a step that adds to a word at an
offset more than the cap from the word's own, so that no shift leaves a
gap wider than the cap; or a word whose bound reaches 2^31.

The one-step reduct of a coefficient-1 word is built by concatenation, so
critical pairs multiply no ring or algebra elements.  Each kernel also takes
an ambiguity ``(word, ia, ib, pos)`` in place of an element: it starts from
the difference of the pair's two reducts, concatenated from the coded rows
of rules ia and ib, and decodes only what remains of it.

A system builds what depends only on its rules once, on first use, and
keeps it in attributes that are not fields: one coded rule table per
kernel, keyed by ``(param, alphabet)`` of its last call (param the packing
width s or the grid g), and the ambiguities of each pair of rules.
Completion only appends rules, which keeps every old rule's index, so the
system ``complete`` extends by a rule (``_extended``) inherits the
ambiguities and both tables whole; only the new rule's ambiguities are
found, and a table whose key still holds only appends the new rule's row.
"""

from __future__ import annotations

import struct
from bisect import insort
from dataclasses import dataclass, field
from math import gcd, inf

from .freealg import AlgElement, Word, word_key, word_str
from .ring import ArityError, LaurentPoly, Monomial

__all__ = [
    "RuleError",
    "StepBudgetExceeded",
    "Rule",
    "RewriteSystem",
    "CriticalPair",
    "ConfluenceReport",
    "critical_pairs",
    "complete",
]


class RuleError(ValueError):
    """The proposed rule does not strictly decrease the term order."""


class StepBudgetExceeded(RuntimeError):
    """normal_form exceeded ``STEP_BUDGET``; the rule set does not terminate."""


# The most reduction steps that one ``normal_form`` call may take.
STEP_BUDGET = 100_000
# The largest distance, in A^(1/2) factors, of the A-exponents of the input
# or of one rule from each other and of the offsets a step adds to each
# other on dense coefficients; more would make sparse data dense.
DENSE_SPAN_CAP = 1024
# The slot width in bits of a dense coefficient; ``_dense_poly`` reads each
# slot as one 4-byte ``struct`` "I".
DENSE_WIDTH = 32


def find_subword(word: Word, sub: Word) -> int:
    """Index of the leftmost occurrence of ``sub`` in ``word``, or -1."""
    n, m = len(word), len(sub)
    for i in range(n - m + 1):
        if word[i : i + m] == sub:
            return i
    return -1


def _max_field(monos) -> int:
    """Largest absolute exponent among the monomials, or 0."""
    return max((abs(f) for m in monos for f in (m.half_a, *m.vexp)), default=0)


def _pack(m: Monomial, s: int) -> int:
    """``h + e1*2^s + ... + en*2^(n*s)``: exact for fields in [-2^(s-1), 2^(s-1))."""
    x = 0
    for f in reversed(m.vexp):
        x = (x << s) + f
    return (x << s) + m.half_a


def _unpack(x: int, s: int, arity: int) -> Monomial:
    """Inverse of ``_pack``: read ``arity + 1`` balanced base-2^s digits."""
    half, mask = 1 << (s - 1), (1 << s) - 1
    fields = []
    for _ in range(arity + 1):
        f = ((x + half) & mask) - half
        fields.append(f)
        x = (x - f) >> s
    return tuple.__new__(Monomial, (fields[0], tuple(fields[1:])))


def _a_grid(monos) -> int | None:
    """The gcd of the A-exponents of ``monos`` (0 if all are 0), or None when
    one has a puncture variable or they span more than ``DENSE_SPAN_CAP``."""
    halves = []
    for m in monos:
        if any(m.vexp):
            return None
        halves.append(m.half_a)
    if halves and max(halves) - min(halves) > DENSE_SPAN_CAP:
        return None
    return gcd(*halves)


@dataclass(frozen=True)
class Rule:
    lhs: Word
    rhs: AlgElement

    def __post_init__(self):
        if not self.lhs:
            raise RuleError("rule lhs must be a nonempty word")
        lk = word_key(self.lhs)
        for w in self.rhs.support():
            if word_key(w) >= lk:
                raise RuleError(
                    f"rule {word_str(self.lhs)} -> {self.rhs} does not decrease the term order"
                )
        # Not fields: what a system needs of each of its rules, found once per rule.
        monos = [m for c in self.rhs._terms.values() for m in c._terms]
        object.__setattr__(self, "_field", _max_field(monos))
        object.__setattr__(self, "_grid", _a_grid(monos))

    def __str__(self) -> str:
        return f"{word_str(self.lhs)} -> {self.rhs}"

    @classmethod
    def orient(cls, diff: AlgElement) -> Rule | None:
        """The monic rule equivalent to ``diff = 0``: leading word -> lower terms.

        None when the leading coefficient is not a unit of R_n.
        """
        lead = diff.leading_word()
        c = diff.coeff(lead)
        cinv = c.try_unit_inverse()
        if cinv is None:
            return None
        return cls(lead, (AlgElement.from_word(lead, diff.arity, c) - diff).scale(cinv))


def _dense_coeff(c: LaurentPoly, g: int) -> tuple[int, int, int]:
    """``(P, e, |c|_1)``: slot j of P holds the coefficient of A^((e+j)*g/2)
    in ``c``; every A-exponent of ``c`` is a multiple of g/2."""
    e = min(m.half_a for m in c._terms) // g
    p = sum(k << (DENSE_WIDTH * (m.half_a // g - e)) for m, k in c._terms.items())
    return p, e, sum(map(abs, c._terms.values()))


def _packed_coeff(c: LaurentPoly, s: int) -> tuple[dict]:
    """``({packed monomial: int},)``: ``c`` as the sparse kernel's coefficient."""
    return ({_pack(m, s): k for m, k in c._terms.items()},)


def _dense_poly(p: int, e: int, g: int, monos: dict, vexp: tuple) -> dict:
    """Inverse of ``_dense_coeff``, as a term map; ``monos`` caches the monomial
    A^(h/2) * v^vexp of each A-exponent h.  Adding 2^31 to each balanced
    digit makes every digit an unsigned 32-bit int, and the zero digit 2^31."""
    half = 1 << (DENSE_WIDTH - 1)
    n = p.bit_length() // DENSE_WIDTH + 2  # the top nonzero digit is below n
    raw = (p + int.from_bytes(b"\0\0\0\x80" * n, "little")).to_bytes(4 * n, "little")
    terms = {}
    for j, d in enumerate(struct.unpack(f"<{n}I", raw)):
        if d != half:
            h = (e + j) * g
            terms[monos.get(h) or monos.setdefault(h, tuple.__new__(Monomial, (h, vexp)))] = d - half
    return terms


def _seed(x, code, rows, coeff, param, neg) -> tuple:
    """The key and the coded terms that a kernel run adds up before its first
    step, each term below the key: the terms of an element, each coefficient
    coded by ``coeff(c, param)``; or for an ambiguity ``(word, ia, ib, pos)``,
    the reduct by rule ia's coded row at 0 minus the reduct by rule ib's at
    pos (``neg`` negates a coded coefficient): the difference of its pair."""
    if isinstance(x, AlgElement):
        return (inf,), [(bytes(map(code, w)), *coeff(c, param)) for w, c in x._terms.items()]
    word, ia, ib, pos = x
    w = bytes(map(code, word))
    (la, ra), (lb, rb) = rows[ia], rows[ib]
    pre, post = w[:pos], w[pos + len(lb) :]
    return (len(w), w), [(u + w[len(la) :], *r) for u, *r in ra] + [(pre + u + post, *neg(*r)) for u, *r in rb]


@dataclass(frozen=True)
class RewriteSystem:
    arity: int
    rules: tuple[Rule, ...]

    def __post_init__(self):
        for r in self.rules:
            if r.rhs.arity != self.arity:
                raise RuleError("rule coefficient arity differs from system arity")
        # Not fields, so ``replace`` and ``==`` do not see them.
        object.__setattr__(self, "_rule_field", max((r._field for r in self.rules), default=0))
        grids = [r._grid for r in self.rules]
        object.__setattr__(self, "_grid", None if None in grids else gcd(*grids))  # None: every call is sparse
        gens = {g for r in self.rules for w in (r.lhs, *r.rhs._terms) for g in w}
        object.__setattr__(self, "_alphabet", tuple(sorted(gens)))
        object.__setattr__(self, "_packed", (None, None, None))  # the last (s, alphabet), its coder, its table
        object.__setattr__(self, "_dense", (None, None, None))  # the last (g, alphabet), its coder, its table
        object.__setattr__(self, "_overlaps", {})  # (ia, ib) -> ((word, pos), ...) of rules ia and ib

    def _extended(self, rule: Rule) -> RewriteSystem:
        """This system with ``rule`` appended.  Appending keeps every old rule's
        index, so the ambiguities and rule tables of the old rules hold for
        the new system, which starts from them."""
        new = RewriteSystem(self.arity, (*self.rules, rule))
        object.__setattr__(new, "_overlaps", dict(self._overlaps))
        object.__setattr__(new, "_packed", self._packed)  # a table is never changed, only replaced
        object.__setattr__(new, "_dense", self._dense)
        return new

    def _coded_rules(self, slot: str, param: int, alphabet: tuple, coeff) -> tuple:
        """The coder of words (generator -> its rank in ``alphabet``, so byte order
        is the term order) and, per rule, its coded lhs and ``[(coded u,
        *coeff(r, param))]`` for its rhs.  The table kept in ``slot`` is rebuilt
        when ``(param, alphabet)`` changes; else the rules it lacks are appended."""
        key, code, rows = getattr(self, slot)
        if key != (param, alphabet):
            if len(alphabet) > 256:
                raise ValueError(f"{len(alphabet)} generators do not fit in one byte each")
            code, rows = {g: i for i, g in enumerate(alphabet)}.__getitem__, []
        if len(rows) < len(self.rules):  # a new list in one tuple, so racing calls never mix two tables
            rows = rows + [
                (bytes(map(code, r.lhs)), [(bytes(map(code, u)), *coeff(c, param)) for u, c in r.rhs._terms.items()])
                for r in self.rules[len(rows) :]
            ]
            object.__setattr__(self, slot, ((param, alphabet), code, rows))
        return code, rows

    def find_redex(self, word: Word) -> tuple[int, int] | None:
        """(rule index, position) of the first matching rule's leftmost match."""
        for ri, rule in enumerate(self.rules):
            pos = find_subword(word, rule.lhs)
            if pos >= 0:
                return ri, pos
        return None

    def apply_at(self, x: AlgElement, word: Word, rule_index: int, pos: int) -> AlgElement:
        """Rewrite the full ``word`` term of ``x`` using one rule occurrence."""
        rule = self.rules[rule_index]
        if word[pos : pos + len(rule.lhs)] != rule.lhs:
            raise ValueError("rule lhs does not occur at the given position")
        c = x.coeff(word)
        if not c:
            raise ValueError("word is not in the support of the element")
        replaced = self._reduct(word, rule_index, pos).scale(c)
        return x - AlgElement.from_word(word, self.arity, c) + replaced

    def _reduct(self, word: Word, rule_index: int, pos: int) -> AlgElement:
        """One step on ``word`` (coefficient 1) by concatenation: ``pre*u*post`` -> r."""
        rule = self.rules[rule_index]
        pre, post = word[:pos], word[pos + len(rule.lhs) :]
        return AlgElement._make(self.arity, {pre + u + post: r for u, r in rule.rhs._terms.items()})

    def reduce_once(self, x: AlgElement) -> AlgElement | None:
        """One reduction step at the largest reducible word, or None if normal.

        Within that word the first rule in system order wins and is applied
        at its leftmost occurrence, so reduction is deterministic.
        """
        for word in sorted(x.support(), key=word_key, reverse=True):
            hit = self.find_redex(word)
            if hit is not None:
                ri, pos = hit
                return self.apply_at(x, word, ri, pos)
        return None

    def normal_form(self, x: AlgElement) -> AlgElement:
        """``reduce_once`` to a fixed point, in one pass from the largest word down,
        on dense coefficients unless ``_dense_nf`` hands the call to sparse ones."""
        if x.arity != self.arity:
            raise ArityError(f"arity mismatch: {self.arity} != {x.arity}")
        terms, _ = self._dense_nf(x) or self._sparse_nf(x)
        return AlgElement._make(self.arity, terms)

    def _call_alphabet(self, x: AlgElement) -> tuple:
        """The rule alphabet plus the generators that only ``x`` uses, sorted."""
        alphabet = self._alphabet
        if extra := set().union(*x._terms).difference(alphabet):
            return tuple(sorted(extra.union(alphabet)))
        return alphabet

    def _sparse_nf(self, x: AlgElement | tuple) -> tuple[dict, int]:
        """The terms of the normal form of ``x`` and the number of steps, on
        coefficients that are maps from packed monomials to ints; ``x`` is an
        element or an ambiguity, whose pair's difference is seeded (``_seed``).

        A monomial the call forms is an input monomial times at most
        ``STEP_BUDGET`` rule monomials (more steps raise), so packing in
        base 2^s with 2^(s-1) above that bound on its fields is exact.
        """
        if isinstance(x, AlgElement):
            monos = {m for c in x._terms.values() for m in c._terms}
            field, alphabet = _max_field(monos), self._call_alphabet(x)
        else:  # an ambiguity: its pair's monomials are the rules'
            monos, field, alphabet = (), self._rule_field, self._alphabet
        s = (field + STEP_BUDGET * self._rule_field).bit_length() + 1
        code, packed = self._coded_rules("_packed", s, alphabet, _packed_coeff)
        key, rhs = _seed(x, code, packed, _packed_coeff, s, lambda r: ({m: -k for m, k in r.items()},))
        pre = post = b""
        c = {0: 1}  # the seed is added once, as a step adds a rule's row
        terms, pending, out = {}, [], {}  # pending: a max-queue of (len, word), pop() is the largest
        steps = 0
        while True:
            for u, r in rhs:
                new = pre + u + post
                assert (len(new), new) < key, "reduction step did not decrease the term order"
                acc = terms.get(new)
                if acc is None:
                    acc = terms[new] = {}
                    insort(pending, (len(new), new))
                for m1, k1 in r.items():  # acc += r * c
                    for m2, k2 in c.items():
                        m = m1 + m2
                        acc[m] = acc.get(m, 0) + k1 * k2
            while pending:
                key = pending.pop()
                word = key[1]
                c = {m: k for m, k in terms.pop(word).items() if k}
                if not c:  # cancelled
                    continue
                for lhs, rhs in packed:  # the first rule, at its leftmost occurrence
                    pos = word.find(lhs)
                    if pos >= 0:
                        break
                else:  # final: later steps only add smaller words
                    out[tuple(map(alphabet.__getitem__, word))] = c
                    continue
                steps += 1
                if steps > STEP_BUDGET:
                    raise StepBudgetExceeded(f"no normal form after {STEP_BUDGET} steps")
                pre, post = word[:pos], word[pos + len(lhs) :]
                break
            else:
                break
        dec = {_pack(m, s): m for m in monos}  # input monomials need no decoding
        for c in out.values():
            for p in c.keys() - dec.keys():
                dec[p] = _unpack(p, s, self.arity)
        terms = {w: LaurentPoly._make(self.arity, {dec[p]: k for p, k in c.items()}) for w, c in out.items()}
        return terms, steps

    def _dense_nf(self, x: AlgElement | tuple) -> tuple[dict, int] | None:
        """``_sparse_nf`` on dense coefficients ``[P, e, b]`` (see the module
        docstring), or None in the four cases that need sparse ones.

        Until a word's bound b reaches 2^31, every zero test is exact, so
        the run takes the sparse kernel's steps and runs out of
        ``STEP_BUDGET`` at the same step.
        """
        if self._grid is None:
            return None
        if not isinstance(x, AlgElement):  # an ambiguity: its pair's monomials are the rules'
            g, alphabet = self._grid or 1, self._alphabet
        elif (grid := _a_grid(m for c in x._terms.values() for m in c._terms)) is None:
            return None
        else:
            g, alphabet = gcd(self._grid, grid) or 1, self._call_alphabet(x)  # 1 if every A-exponent is 0
        code, rows = self._coded_rules("_dense", g, alphabet, _dense_coeff)
        width = DENSE_WIDTH
        limit, reach = 1 << (width - 1), DENSE_SPAN_CAP // g  # reach: the cap in slots
        key, rhs = _seed(x, code, rows, _dense_coeff, g, lambda q, f, c: (-q, f, c))
        pre = post = b""
        p, e, b = 1, 0, 1  # the seed is added once, as a step adds a rule's row
        terms, pending, out = {}, [], []
        steps = 0
        while True:
            for u, q, f, c in rhs:  # acc += r * (p, e, b)
                new = pre + u + post
                nk = (len(new), new)
                assert nk < key, "reduction step did not decrease the term order"
                acc = terms.get(new)
                if acc is None:
                    terms[new] = [q * p, f + e, c * b]
                    insort(pending, nk)
                    continue
                f += e
                d = f - acc[1]
                if not -reach <= d <= reach:
                    return None
                if d >= 0:
                    acc[0] += (q * p) << (width * d)
                else:
                    acc[0] = (acc[0] << (width * -d)) + q * p
                    acc[1] = f
                acc[2] += c * b
            while pending:
                key = pending.pop()
                word = key[1]
                p, e, b = terms.pop(word)
                if b >= limit:
                    return None
                if not p:  # cancelled
                    continue
                for lhs, rhs in rows:
                    pos = word.find(lhs)
                    if pos >= 0:
                        break
                else:
                    out.append((word, p, e))
                    continue
                steps += 1
                if steps > STEP_BUDGET:
                    raise StepBudgetExceeded(f"no normal form after {STEP_BUDGET} steps")
                pre, post = word[:pos], word[pos + len(lhs) :]
                break
            else:
                break
        monos, vexp = {}, (0,) * self.arity
        terms = {
            tuple(map(alphabet.__getitem__, w)): LaurentPoly._make(self.arity, _dense_poly(p, e, g, monos, vexp))
            for w, p, e in out
        }
        return terms, steps


@dataclass(frozen=True)
class CriticalPair:
    """An ambiguity word together with its two one-step reducts."""

    word: Word
    left: AlgElement
    right: AlgElement

    def __str__(self) -> str:
        return f"{word_str(self.word)}: {self.left}  vs  {self.right}"


def _rule_pair_ambiguities(la: Word, lb: Word, ordered: bool) -> tuple:
    """``(word, pos)`` for each ambiguity of left-hand sides ``la`` at 0 and
    ``lb`` at ``pos``; ``ordered`` when la's rule comes before lb's."""
    # Proper suffix/prefix overlaps: la = u s, lb = s w with s nonempty.
    out = [(la + lb[k:], len(la) - k) for k in range(1, min(len(la), len(lb))) if la[-k:] == lb[:k]]
    # Containment: lb a proper subword of la, or equal to it (counted once).
    if len(lb) < len(la) or (la == lb and ordered):
        out += [(la, pos) for pos in range(len(la) - len(lb) + 1) if la[pos : pos + len(lb)] == lb]
    return tuple(out)


def _ambiguities(system: RewriteSystem):
    """``(word, ia, ib, pos)`` for each overlap and containment ambiguity, at
    any length: rule ia applies to ``word`` at 0 and rule ib at ``pos``.  Each
    rule pair's ambiguities are found once per system and kept."""
    found = system._overlaps
    for ia, ra in enumerate(system.rules):
        for ib, rb in enumerate(system.rules):
            amb = found.get((ia, ib))
            if amb is None:
                amb = found[ia, ib] = _rule_pair_ambiguities(ra.lhs, rb.lhs, ia < ib)
            for word, pos in amb:
                yield word, ia, ib, pos


def _bounded_ambiguities(system: RewriteSystem, max_overlap_len: int) -> list[tuple]:
    return [amb for amb in _ambiguities(system) if len(amb[0]) <= max_overlap_len]


def critical_pairs(system: RewriteSystem, max_overlap_len: int) -> list[CriticalPair]:
    """All overlap and containment ambiguities with word length <= the bound.

    Overlaps include self-overlaps of a rule with itself.  Each pair carries
    the two one-step reducts of the ambiguity word (coefficient 1), built on
    each call.
    """
    max_lhs = max((len(r.lhs) for r in system.rules), default=0)
    if system.rules and max_overlap_len < max_lhs:
        raise ValueError(f"max_overlap_len {max_overlap_len} < longest lhs {max_lhs}")
    return [
        CriticalPair(word, system._reduct(word, ia, 0), system._reduct(word, ib, pos))
        for word, ia, ib, pos in _bounded_ambiguities(system, max_overlap_len)
    ]


@dataclass
class ConfluenceReport:
    """Outcome of resolving critical pairs up to a degree bound."""

    joinable: list[CriticalPair] = field(default_factory=list)
    failures: list[tuple[CriticalPair, AlgElement, AlgElement]] = field(default_factory=list)
    added_rules: list[Rule] = field(default_factory=list)
    degree_bound: int = 0
    unexamined: int = 0  # critical pairs of the final system above the degree bound

    @property
    def confluent(self) -> bool:
        """Proved by the diamond lemma: every critical pair was examined and joins."""
        return not self.failures and not self.unexamined

    def lines(self) -> list[str]:
        out = [
            f"critical pairs joinable: {len(self.joinable)}",
            f"critical pairs unexamined (longer than {self.degree_bound}): {self.unexamined}",
            f"rules added: {len(self.added_rules)}",
            f"failures: {len(self.failures)}",
        ]
        for r in self.added_rules:
            out.append(f"  added {r}")
        for cp, n1, n2 in self.failures:
            out.append(f"  FAIL {word_str(cp.word)}: {n1}  !=  {n2}")
        return out

    def to_dict(self) -> dict:
        return {
            "degree_bound": self.degree_bound,
            "joinable": len(self.joinable),
            "unexamined": self.unexamined,
            "added_rules": [str(r) for r in self.added_rules],
            "failures": [
                {"word": word_str(cp.word), "left": str(n1), "right": str(n2)}
                for cp, n1, n2 in self.failures
            ],
        }


def complete(system: RewriteSystem, degree_bound: int) -> tuple[RewriteSystem, ConfluenceReport]:
    """Knuth-Bendix style completion up to ``degree_bound``.

    Scans the ambiguities up to the bound in order and normalizes each
    pair's difference, seeded by its ambiguity from the coded rule rows
    (dense unless that kernel gives up, then sparse), so it is never built
    as an element.  A zero difference joins the pair and is never decoded.
    Otherwise the decoded difference is oriented into a new rule (leading
    word -> lower terms) if its leading coefficient is a unit of R_n, the
    system is extended by it (``_extended``) and the scan restarts; if not,
    the pair fails.  Sound because every added rule is a consequence of the
    existing ones.  No pass builds a reduct: one ``critical_pairs`` call
    after the last pass builds the pairs of the report, each failure with
    nf(left) and nf(right) = nf(left) - nf(difference).

    A joined pair is not normalized again.  ``normal_form`` is linear, since
    the fate of a word depends only on the word, and its redex search tries
    rules in system order; so for S' = S plus appended rules, every S-step
    on a word is its S'-step and nf_S' = nf_S' o nf_S.  A pair that joins
    under S therefore joins under every later system.  The pair a rule comes
    from is joined by it: the other words of the normalized difference are
    below its leading word, so cannot contain it.  Failures are examined
    again in every pass; later rules may join them.

    The report counts the ambiguities of the final system longer than
    ``degree_bound`` as ``unexamined``, without building their reducts.
    """
    sysx = system
    joined: set[tuple] = set()  # ambiguities (word, ia, ib, pos) whose pairs join
    while True:
        ambs, diffs = _bounded_ambiguities(sysx, degree_bound), {}  # diffs: failed ambiguity -> difference
        for amb in ambs:
            if amb not in joined:
                terms, _ = sysx._dense_nf(amb) or sysx._sparse_nf(amb)
                if terms:
                    diff = AlgElement._make(sysx.arity, terms)
                    rule = Rule.orient(diff)
                    if rule is None:
                        diffs[amb] = diff
                        continue
                    sysx = sysx._extended(rule)
                    joined.add(amb)
                    break
                joined.add(amb)
        else:
            break
    joinable, failures = [], []
    for amb, cp in zip(ambs, critical_pairs(sysx, degree_bound)):
        if amb in diffs:
            n1 = sysx.normal_form(cp.left)
            failures.append((cp, n1, n1 - diffs[amb]))
        else:
            joinable.append(cp)
    added = list(sysx.rules[len(system.rules) :])
    unexamined = sum(len(word) > degree_bound for word, *_ in _ambiguities(sysx))
    return sysx, ConfluenceReport(joinable, failures, added, degree_bound, unexamined)
