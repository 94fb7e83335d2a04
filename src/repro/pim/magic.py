"""Gate-level MAGIC NOR simulation: derive bit-serial arithmetic costs.

Digital memristive PIM computes with *only* NOR gates executed one per
cycle inside the crossbar ("arithmetic operations like addition and
multiplication are achieved by performing NOR operations sequentially",
paper §2.3).  Rather than quoting per-operation NOR counts from FloatPIM,
this module *executes* NOR-only netlists for addition and multiplication,
verifying correctness bit-exactly and measuring the cycle counts that
:mod:`repro.pim.arithmetic` turns into latency and energy.

Every logic primitive below is reduced to NOR::

    NOT(a)    = NOR(a)                      1 cycle
    OR(a,b)   = NOT(NOR(a,b))               2 cycles
    AND(a,b)  = NOR(NOT a, NOT b)           3 cycles
    XOR(a,b)  = NOR(NOR(a,b), AND(a,b))     5 cycles (sharing NOTs)

The ripple-carry full adder costs a fixed number of cycles per bit
(measured, exposed as :data:`FULL_ADDER_STEPS`); an N-bit add therefore
costs ``N * FULL_ADDER_STEPS`` cycles, and the shift-add multiplier costs
``O(N^2)`` — the reason the paper calls PIM arithmetic "not as efficient
as other CMOS designs" per op while winning on row-parallelism.

These measured counts are also what the execution-plan engine bakes into
its per-instruction ``nors`` column at lowering time
(:func:`repro.pim.plan.lower_program`), so fault-enabled plan replay
charges NOR wear-out (``FaultModel.record_nor``) with exactly the cycle
counts these netlists measure.
"""

from __future__ import annotations

__all__ = [
    "NorMachine",
    "VectorNorMachine",
    "nor_add",
    "nor_multiply",
    "nor_add_vec",
    "nor_multiply_vec",
    "pack_lanes",
    "unpack_lanes",
    "FULL_ADDER_STEPS",
    "LANES",
    "int_add_steps",
    "int_multiply_steps",
]

#: Lanes of the word-packed NOR path: one Python ``int`` carries one bit
#: position of 64 independent operands (uint64 semantics).
LANES = 64

_MASK64 = (1 << LANES) - 1


class NorMachine:
    """Counts NOR cycles while evaluating NOR-only logic on Python ints (0/1).

    With ``flip_prob > 0`` (and a seeded ``rng``) each NOR output may flip —
    the gate-level view of the transient faults :mod:`repro.faults` injects
    at instruction granularity.  Flips are counted in ``self.flips`` so
    tests can correlate corrupted sums with the injected upsets.
    """

    def __init__(self, flip_prob: float = 0.0, rng=None):
        self.steps = 0
        self.flips = 0
        self.flip_prob = flip_prob
        self._rng = rng

    def nor(self, *inputs: int) -> int:
        """An n-input MAGIC NOR: one crossbar cycle."""
        if not inputs:
            raise ValueError("NOR needs at least one input")
        self.steps += 1
        out = 0 if any(inputs) else 1
        if self.flip_prob > 0.0 and self._rng is not None:
            if self._rng.random() < self.flip_prob:
                self.flips += 1
                out ^= 1
        return out

    def nor_vec(self, *inputs: int) -> int:
        """A word-packed NOR: 64 independent lanes in one crossbar cycle.

        Inputs and output are uint64 words holding one bit of each lane —
        the MAGIC array computes all rows of a crossbar column in parallel
        anyway (§2.3), so a row-parallel gate costs the *same* single cycle
        as the scalar :meth:`nor`; only the Python simulation gets 64×
        cheaper.  Fault flips are drawn per lane, matching 64 scalar
        machines gate-for-gate in distribution.
        """
        if not inputs:
            raise ValueError("NOR needs at least one input")
        self.steps += 1
        acc = 0
        for x in inputs:
            acc |= x
        out = ~acc & _MASK64
        if self.flip_prob > 0.0 and self._rng is not None:
            mask = 0
            for lane in range(LANES):
                if self._rng.random() < self.flip_prob:
                    mask |= 1 << lane
            if mask:
                self.flips += bin(mask).count("1")
                out ^= mask
        return out

    # -- derived gates (each expands to NOR cycles) ---------------------- #

    def not_(self, a: int) -> int:
        return self.nor(a)

    def or_(self, a: int, b: int) -> int:
        return self.nor(self.nor(a, b))

    def and_(self, a: int, b: int) -> int:
        return self.nor(self.nor(a), self.nor(b))

    def xor_(self, a: int, b: int) -> int:
        n1 = self.nor(a, b)
        n2 = self.nor(self.nor(a), self.nor(b))  # AND(a, b)
        return self.nor(n1, n2)

    def full_adder(self, a: int, b: int, c: int) -> tuple[int, int]:
        """One-bit full adder; NOT-sharing keeps it at 12 NOR cycles."""
        n1 = self.nor(a, b)
        na = self.nor(a)
        nb = self.nor(b)
        ab = self.nor(na, nb)  # AND(a, b)
        x1 = self.nor(n1, ab)  # XOR(a, b)
        m1 = self.nor(x1, c)
        nx = self.nor(x1)
        nc = self.nor(c)
        xc = self.nor(nx, nc)  # AND(x1, c)
        s = self.nor(m1, xc)  # XOR(x1, c)
        t = self.nor(ab, xc)
        cout = self.nor(t)  # OR(ab, xc)
        return s, cout


class VectorNorMachine(NorMachine):
    """A :class:`NorMachine` whose gates run 64 word-packed lanes at once.

    :meth:`nor` delegates to :meth:`NorMachine.nor_vec`, so every inherited
    netlist (the derived gates and :meth:`full_adder`) evaluates 64
    independent operand sets per Python gate call with cycle counts
    *identical by construction* to the scalar machine — the netlists are
    shared, only the gate primitive changed.
    """

    def nor(self, *inputs: int) -> int:
        return self.nor_vec(*inputs)


#: Measured NOR cycles of one full-adder invocation (asserted by tests).
FULL_ADDER_STEPS = 12


def _to_bits(value: int, width: int) -> list:
    if value < 0 or value >= (1 << width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def _from_bits(bits) -> int:
    return sum(b << i for i, b in enumerate(bits))


def nor_add(a: int, b: int, width: int = 32, machine: NorMachine | None = None):
    """NOR-only ripple-carry addition of two ``width``-bit unsigned ints.

    Returns ``(sum mod 2^width, carry_out, nor_cycles)``.
    """
    m = machine or NorMachine()
    start = m.steps
    abits = _to_bits(a, width)
    bbits = _to_bits(b, width)
    out = []
    carry = 0
    for i in range(width):
        s, carry = m.full_adder(abits[i], bbits[i], carry)
        out.append(s)
    return _from_bits(out), carry, m.steps - start


def nor_multiply(a: int, b: int, width: int = 16, machine: NorMachine | None = None):
    """NOR-only shift-add multiplication of two ``width``-bit unsigned ints.

    Partial products are formed with one NOR per bit (the multiplicand and
    multiplier bits are pre-inverted once), then accumulated with the
    ripple-carry adder.  Returns ``(product, nor_cycles)``; the product has
    ``2 * width`` bits.
    """
    m = machine or NorMachine()
    start = m.steps
    abits = _to_bits(a, width)
    bbits = _to_bits(b, width)
    na = [m.not_(x) for x in abits]
    nb = [m.not_(x) for x in bbits]
    acc = [0] * (2 * width)
    for i in range(width):
        # partial product i: AND(a_j, b_i) = NOR(na_j, nb_i), one cycle each
        pp = [m.nor(na[j], nb[i]) for j in range(width)]
        # accumulate into acc[i : i + width + 1] with ripple carry
        carry = 0
        for j in range(width):
            s, carry = m.full_adder(acc[i + j], pp[j], carry)
            acc[i + j] = s
        if i + width < 2 * width:
            acc[i + width] = carry
    return _from_bits(acc), m.steps - start


def pack_lanes(values, width: int) -> list:
    """Bit-plane pack: up to 64 ``width``-bit ints -> ``width`` uint64 words.

    Word ``i`` of the result holds bit ``i`` of every lane (lane ``k`` in
    bit position ``k``) — the layout :meth:`NorMachine.nor_vec` operates on.
    """
    vals = list(values)
    if len(vals) > LANES:
        raise ValueError(f"at most {LANES} lanes, got {len(vals)}")
    for v in vals:
        if v < 0 or v >= (1 << width):
            raise ValueError(f"value {v} does not fit in {width} bits")
    return [
        sum(((v >> i) & 1) << lane for lane, v in enumerate(vals))
        for i in range(width)
    ]


def unpack_lanes(planes, n_lanes: int) -> list:
    """Inverse of :func:`pack_lanes`: bit-plane words -> per-lane ints."""
    return [
        sum(((planes[i] >> lane) & 1) << i for i in range(len(planes)))
        for lane in range(n_lanes)
    ]


def _require_vec(machine) -> "NorMachine":
    m = machine or VectorNorMachine()
    if not isinstance(m, VectorNorMachine):
        raise TypeError(
            "word-packed netlists need a VectorNorMachine (a scalar nor() "
            "would misread packed operands as single bits)"
        )
    return m


def nor_add_vec(avals, bvals, width: int = 32, machine=None):
    """64-lane word-packed ripple-carry addition.

    Adds up to 64 pairs of ``width``-bit unsigned ints through the *same*
    full-adder netlist as :func:`nor_add`, one packed word per bit plane.
    Returns ``(sums, carry_outs, nor_cycles)`` where the cycle count equals
    a single scalar :func:`nor_add` — one crossbar cycle per gate serves
    every lane (row-parallelism, §2.3).
    """
    avals, bvals = list(avals), list(bvals)
    if len(avals) != len(bvals):
        raise ValueError("lane counts differ")
    m = _require_vec(machine)
    start = m.steps
    ap = pack_lanes(avals, width)
    bp = pack_lanes(bvals, width)
    out = []
    carry = 0
    for i in range(width):
        s, carry = m.full_adder(ap[i], bp[i], carry)
        out.append(s)
    n = len(avals)
    return unpack_lanes(out, n), unpack_lanes([carry], n), m.steps - start


def nor_multiply_vec(avals, bvals, width: int = 16, machine=None):
    """64-lane word-packed shift-add multiplication.

    The exact gate sequence of :func:`nor_multiply` evaluated on packed
    bit planes; returns ``(products, nor_cycles)`` with a cycle count
    identical to one scalar multiply (``int_multiply_steps``).
    """
    avals, bvals = list(avals), list(bvals)
    if len(avals) != len(bvals):
        raise ValueError("lane counts differ")
    m = _require_vec(machine)
    start = m.steps
    ap = pack_lanes(avals, width)
    bp = pack_lanes(bvals, width)
    na = [m.not_(x) for x in ap]
    nb = [m.not_(x) for x in bp]
    acc = [0] * (2 * width)
    for i in range(width):
        pp = [m.nor(na[j], nb[i]) for j in range(width)]
        carry = 0
        for j in range(width):
            s, carry = m.full_adder(acc[i + j], pp[j], carry)
            acc[i + j] = s
        if i + width < 2 * width:
            acc[i + width] = carry
    return unpack_lanes(acc, len(avals)), m.steps - start


def int_add_steps(width: int) -> int:
    """Closed-form NOR cycles of an N-bit add (tests check vs measurement)."""
    return width * FULL_ADDER_STEPS


def int_multiply_steps(width: int) -> int:
    """Closed-form NOR cycles of an N-bit shift-add multiply.

    ``2 N`` pre-inversions + per iteration ``N`` partial-product NORs and an
    ``N``-bit ripple add.
    """
    return 2 * width + width * (width + width * FULL_ADDER_STEPS)
