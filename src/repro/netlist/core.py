"""Netlist DAG representation, validation, levelisation and evaluation.

A :class:`Netlist` is a combinational DAG whose internal nodes are K-input
LUTs (K <= 4, matching a Cyclone III logic element), plus primary-input and
constant nodes.  Construction is imperative via builder methods; once built,
:meth:`Netlist.compile` freezes the graph into a :class:`CompiledNetlist`
of NumPy arrays that the timing simulator consumes.

Truth-table convention: for a LUT with fanins ``(f0, f1, ..., f_{a-1})``
the row index is ``sum(value(f_k) << k)`` — fanin 0 is the least
significant index bit — and the output is bit ``index`` of the integer
truth table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import NetlistError

__all__ = [
    "Netlist",
    "CompiledNetlist",
    "EvalScratch",
    "NetlistStats",
    "bits_from_ints",
    "ints_from_bits",
]

MAX_LUT_ARITY = 4

# Node kinds
_KIND_INPUT = 0
_KIND_CONST = 1
_KIND_LUT = 2

# Common truth tables (fanin 0 = LSB of the row index).
TT_NOT = 0b01  # 1-input
TT_BUF = 0b10  # 1-input
TT_AND2 = 0b1000
TT_OR2 = 0b1110
TT_XOR2 = 0b0110
TT_NAND2 = 0b0111
TT_NOR2 = 0b0001
TT_XNOR2 = 0b1001
TT_ANDN2 = 0b0010  # a AND NOT b  (index = a + 2b)
TT_XOR3 = 0b10010110
TT_MAJ3 = 0b11101000
TT_MUX = 0b11001010  # fanins (d0, d1, sel): sel ? d1 : d0


def bits_from_ints(values: np.ndarray | Sequence[int], width: int) -> np.ndarray:
    """Unpack integers into a ``(batch, width)`` uint8 LSB-first bit array.

    Negative integers are interpreted in ``width``-bit two's complement.
    Widths up to 64 are supported (the int64 carrier).
    """
    v = np.asarray(values)
    if width < 1:
        raise NetlistError("width must be >= 1")
    if width > 64:
        raise NetlistError(f"{width}-bit words do not fit the int64 carrier")
    v = v.astype(np.int64)
    if width < 64:
        v = v & ((1 << width) - 1)
    # width == 64: int64 already is the 64-bit two's-complement pattern and
    # the arithmetic right shift below extracts sign-extended bits correctly.
    shifts = np.arange(width, dtype=np.int64)
    return ((v[..., None] >> shifts) & 1).astype(np.uint8)


def ints_from_bits(bits: np.ndarray, signed: bool = False) -> np.ndarray:
    """Pack a ``(batch, width)`` LSB-first bit array into integers.

    With ``signed=True`` the most significant bit is a two's-complement
    sign bit.  Signed words up to 64 bits and unsigned words up to 63 bits
    fit the int64 result (a 64-bit unsigned all-ones word does not).
    """
    b = np.asarray(bits)
    if b.ndim != 2:
        raise NetlistError(f"expected 2-D bit array, got shape {b.shape}")
    width = b.shape[1]
    if width > (64 if signed else 63):
        raise NetlistError(
            f"{width}-bit {'signed' if signed else 'unsigned'} words do not "
            "fit the int64 carrier"
        )
    # Weights as int64 without ever forming 2**63 as a positive Python int:
    # the sign weight of a w-bit two's-complement word is -(2**(w-1)).
    weights = np.ones(width, dtype=np.int64)
    np.left_shift(weights[:63], np.arange(min(width, 63), dtype=np.int64),
                  out=weights[:63])
    if signed:
        weights[-1] = (
            np.iinfo(np.int64).min if width == 64 else -(1 << (width - 1))
        )
    return (b.astype(np.int64) * weights).sum(axis=1)


class EvalScratch:
    """Reusable buffer pool for repeated same-shape evaluations.

    The segment-chunked characterisation sweep evaluates the same
    netlist at the same batch size thousands of times; without a
    scratch every call re-allocates the node-value plane and one output
    array per bus.  Passing one ``EvalScratch`` to
    :meth:`CompiledNetlist.evaluate` / :func:`simulate_transitions`
    reuses those buffers across calls.

    The pooled buffers, by key:

    * ``kernel.vals`` — the packed ``(n_nodes, W)`` uint64 word plane of
      every evaluation;
    * ``kernel.out.<bus>`` — :meth:`CompiledNetlist.evaluate`'s
      ``(batch, width)`` output bits;
    * ``timing.unchanged`` — :func:`simulate_transitions`'s ``(n_nodes,
      N - 1)`` bool mask, first of unchanged node-transitions, then of
      the settle plane's -inf entries;
    * ``timing.best`` and ``timing.rows`` — its two float32 level blocks,
      as tall as the widest level, into which each fanin slot's rows are
      gathered (:class:`~repro.kernels.plan.TimingLevel`).

    Contract: arrays handed out for a given key are **overwritten by the
    next call** that uses the same scratch — the output buses
    :meth:`CompiledNetlist.evaluate` returns included, so callers that
    keep them across calls must copy them.  :func:`simulate_transitions`
    pools only its temporaries; its ``values`` and ``settle`` stay
    valid.  A scratch is single-threaded state; use one per worker,
    never share across threads.
    """

    __slots__ = ("_buffers",)

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def array(self, key: str, shape: tuple[int, ...], dtype: object) -> np.ndarray:
        """An uninitialised ``(shape, dtype)`` array, reused when possible."""
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != np.dtype(dtype):
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def __len__(self) -> int:
        return len(self._buffers)


@dataclass(frozen=True)
class NetlistStats:
    """Structural statistics of a netlist."""

    n_luts: int
    n_inputs: int
    n_consts: int
    depth: int  # LUT levels on the longest input->output path
    n_outputs: int

    @property
    def logic_elements(self) -> int:
        """LE estimate: one LUT maps to one logic element."""
        return self.n_luts


class Netlist:
    """Mutable combinational netlist builder.

    Nodes are referenced by dense integer ids in creation order.
    """

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self._kinds: list[int] = []
        self._tts: list[int] = []
        self._fanins: list[tuple[int, ...]] = []
        self._const_values: list[int] = []
        self._const_ids: dict[int, int] = {}
        self._shared_luts: dict[tuple[int, tuple[int, ...]], int] = {}
        self.input_buses: dict[str, list[int]] = {}
        self.output_buses: dict[str, list[int]] = {}
        #: Per-bus two's-complement flags; unsigned when absent (the
        #: default).  The word-level range lattice of
        #: :mod:`repro.analysis.dataflow` reads these to interpret bus
        #: values as integers.
        self.input_bus_signed: dict[str, bool] = {}
        self.output_bus_signed: dict[str, bool] = {}
        #: Free-form generator metadata (e.g. a CCM's declared
        #: ``coefficient``); consumed by the word-level lint rules.
        self.attrs: dict[str, object] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._kinds)

    def _add_node(self, kind: int, tt: int, fanins: tuple[int, ...], const: int = 0) -> int:
        nid = len(self._kinds)
        self._kinds.append(kind)
        self._tts.append(tt)
        self._fanins.append(fanins)
        self._const_values.append(const)
        return nid

    def add_input_bus(self, name: str, width: int, signed: bool = False) -> list[int]:
        """Declare a primary-input bus; returns its bit node ids, LSB first.

        ``signed`` marks the bus as a two's-complement word for word-level
        analyses; the bit-level structure is unaffected.
        """
        if width < 1:
            raise NetlistError("bus width must be >= 1")
        if name in self.input_buses:
            raise NetlistError(f"duplicate input bus {name!r}")
        bits = [self._add_node(_KIND_INPUT, 0, ()) for _ in range(width)]
        self.input_buses[name] = bits
        self.input_bus_signed[name] = bool(signed)
        return bits

    def add_const(self, value: int) -> int:
        """Return the constant-0 or constant-1 node, creating it on first use.

        Constants are deduplicated: repeated requests for the same value
        return the same node id (one tied-off net per value, as a
        synthesiser would emit).
        """
        if value not in (0, 1):
            raise NetlistError("constant must be 0 or 1")
        nid = self._const_ids.get(value)
        if nid is None:
            nid = self._add_node(_KIND_CONST, 0, (), const=value)
            self._const_ids[value] = nid
        return nid

    def const_value(self, nid: int) -> int | None:
        """The constant value of node ``nid``, or ``None`` if not a constant."""
        if not (0 <= nid < self.n_nodes):
            raise NetlistError(f"unknown node {nid}")
        if self._kinds[nid] != _KIND_CONST:
            return None
        return self._const_values[nid]

    def add_lut(self, tt: int, fanins: Iterable[int]) -> int:
        """Add a LUT node with truth table ``tt`` over ``fanins``."""
        f = tuple(int(x) for x in fanins)
        arity = len(f)
        if not (1 <= arity <= MAX_LUT_ARITY):
            raise NetlistError(f"LUT arity must be 1..{MAX_LUT_ARITY}, got {arity}")
        if not (0 <= tt < (1 << (1 << arity))):
            raise NetlistError(f"truth table {tt:#x} out of range for arity {arity}")
        for x in f:
            if not (0 <= x < self.n_nodes):
                raise NetlistError(f"fanin {x} references unknown node")
        return self._add_node(_KIND_LUT, tt, f)

    def add_lut_shared(self, tt: int, fanins: Iterable[int]) -> int:
        """Add a LUT, reusing an existing identical one if present.

        Structural common-subexpression sharing: if a LUT with the same
        truth table over the same fanin tuple was previously created
        *through this method*, its node id is returned instead of growing
        the netlist.  Used by generators for inverter/complement layers
        that naturally repeat (e.g. CSD subtraction), matching what a
        synthesiser's CSE would emit.
        """
        f = tuple(int(x) for x in fanins)
        key = (tt, f)
        nid = self._shared_luts.get(key)
        if nid is None:
            nid = self.add_lut(tt, f)
            self._shared_luts[key] = nid
        return nid

    def set_output_bus(self, name: str, bits: Sequence[int], signed: bool = False) -> None:
        """Declare an output bus from existing node ids, LSB first.

        ``signed`` marks the bus as a two's-complement word for word-level
        analyses; the bit-level structure is unaffected.
        """
        if name in self.output_buses:
            raise NetlistError(f"duplicate output bus {name!r}")
        for x in bits:
            if not (0 <= x < self.n_nodes):
                raise NetlistError(f"output bit {x} references unknown node")
        self.output_buses[name] = list(int(b) for b in bits)
        self.output_bus_signed[name] = bool(signed)

    def prune_dangling(self) -> int:
        """Remove nodes no output depends on (primary inputs are kept).

        Returns the number of removed nodes.  Ids are renumbered but the
        topological order is preserved, so fanins still precede consumers;
        node ids held by the caller are invalidated.  Generators that
        constant-fold call this last to sweep constant nets whose value
        was absorbed into simplified logic (a synthesiser's dead-net
        sweep); outputs must already be set.
        """
        n = self.n_nodes
        live = [False] * n
        for out_bits in self.output_buses.values():
            for b in out_bits:
                live[b] = True
        for nid in range(n - 1, -1, -1):
            if live[nid]:
                for f in self._fanins[nid]:
                    live[f] = True
        for nid, kind in enumerate(self._kinds):
            if kind == _KIND_INPUT:
                live[nid] = True
        if all(live):
            return 0
        remap: dict[int, int] = {}
        kinds: list[int] = []
        tts: list[int] = []
        fanins: list[tuple[int, ...]] = []
        consts: list[int] = []
        for nid in range(n):
            if not live[nid]:
                continue
            remap[nid] = len(kinds)
            kinds.append(self._kinds[nid])
            tts.append(self._tts[nid])
            fanins.append(tuple(remap[f] for f in self._fanins[nid]))
            consts.append(self._const_values[nid])
        self._kinds, self._tts, self._fanins, self._const_values = kinds, tts, fanins, consts
        self._const_ids = {v: remap[i] for v, i in self._const_ids.items() if i in remap}
        self._shared_luts = {
            (tt, tuple(remap[f] for f in key)): remap[i]
            for (tt, key), i in self._shared_luts.items()
            if i in remap
        }
        self.input_buses = {k: [remap[b] for b in v] for k, v in self.input_buses.items()}
        self.output_buses = {k: [remap[b] for b in v] for k, v in self.output_buses.items()}
        return n - len(kinds)

    # ------------------------------------------------------------------
    # gate conveniences
    # ------------------------------------------------------------------
    def NOT(self, a: int) -> int:
        return self.add_lut(TT_NOT, (a,))

    def AND(self, a: int, b: int) -> int:
        return self.add_lut(TT_AND2, (a, b))

    def OR(self, a: int, b: int) -> int:
        return self.add_lut(TT_OR2, (a, b))

    def XOR(self, a: int, b: int) -> int:
        return self.add_lut(TT_XOR2, (a, b))

    def XNOR(self, a: int, b: int) -> int:
        return self.add_lut(TT_XNOR2, (a, b))

    def NAND(self, a: int, b: int) -> int:
        return self.add_lut(TT_NAND2, (a, b))

    def XOR3(self, a: int, b: int, c: int) -> int:
        return self.add_lut(TT_XOR3, (a, b, c))

    def MAJ3(self, a: int, b: int, c: int) -> int:
        return self.add_lut(TT_MAJ3, (a, b, c))

    def MUX(self, d0: int, d1: int, sel: int) -> int:
        return self.add_lut(TT_MUX, (d0, d1, sel))

    def full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        """Full adder mapped to two 3-LUTs; returns ``(sum, carry)``."""
        return self.XOR3(a, b, cin), self.MAJ3(a, b, cin)

    def half_adder(self, a: int, b: int) -> tuple[int, int]:
        """Half adder mapped to two 2-LUTs; returns ``(sum, carry)``."""
        return self.XOR(a, b), self.AND(a, b)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural sanity.

        The builder methods already enforce these invariants at
        construction time, but netlists can be assembled or mutated by
        hand (tests, deserialisation, external generators), so validation
        re-checks everything evaluation and timing depend on: output
        references, LUT arities, truth-table widths, and that every fanin
        strictly precedes its consumer (which is what guarantees
        acyclicity — in particular no self-referential fanins).
        """
        if not self.output_buses:
            raise NetlistError(f"netlist {self.name!r} declares no outputs")
        for name, bits in self.output_buses.items():
            if not bits:
                raise NetlistError(f"output bus {name!r} is empty")
            for b in bits:
                if not (0 <= b < self.n_nodes):
                    raise NetlistError(
                        f"output bus {name!r} references unknown node {b}"
                    )
        for nid, kind in enumerate(self._kinds):
            fanins = self._fanins[nid]
            if kind != _KIND_LUT:
                # Hand-mutated graphs can thread fanins through input or
                # constant nodes, hiding a cycle from the LUT-only check.
                if fanins:
                    raise NetlistError(
                        f"non-LUT node {nid} has fanins {tuple(fanins)}; "
                        "inputs and constants must be sources"
                    )
                continue
            arity = len(fanins)
            if not (1 <= arity <= MAX_LUT_ARITY):
                raise NetlistError(
                    f"LUT node {nid} arity {arity} outside 1..{MAX_LUT_ARITY}"
                )
            tt = self._tts[nid]
            if not (0 <= tt < (1 << (1 << arity))):
                raise NetlistError(
                    f"LUT node {nid} truth table {tt:#x} wider than "
                    f"2**{arity} bits"
                )
            for f in fanins:
                if f == nid:
                    raise NetlistError(f"LUT node {nid} is its own fanin")
                if not (0 <= f < len(self._kinds)):
                    raise NetlistError(
                        f"LUT node {nid} fanin {f} references unknown node"
                    )
                if f > nid:
                    raise NetlistError(
                        f"LUT node {nid} fanin {f} is a forward reference "
                        "(cycle or broken topological construction order)"
                    )

    def node_levels(self) -> np.ndarray:
        """LUT-level depth per node (inputs/consts at level 0)."""
        levels = np.zeros(self.n_nodes, dtype=np.int32)
        for nid in range(self.n_nodes):
            if self._kinds[nid] == _KIND_LUT:
                levels[nid] = 1 + max(levels[f] for f in self._fanins[nid])
        return levels

    def stats(self) -> NetlistStats:
        kinds = np.asarray(self._kinds)
        levels = self.node_levels()
        out_ids = [b for bits in self.output_buses.values() for b in bits]
        depth = int(levels[out_ids].max()) if out_ids else 0
        return NetlistStats(
            n_luts=int((kinds == _KIND_LUT).sum()),
            n_inputs=int((kinds == _KIND_INPUT).sum()),
            n_consts=int((kinds == _KIND_CONST).sum()),
            depth=depth,
            n_outputs=len(out_ids),
        )

    # ------------------------------------------------------------------
    # compilation / evaluation
    # ------------------------------------------------------------------
    def compile(self) -> "CompiledNetlist":
        """Freeze into array form for vectorised evaluation/simulation."""
        self.validate()
        n = self.n_nodes
        kinds = np.asarray(self._kinds, dtype=np.int8)
        arity = np.zeros(n, dtype=np.int8)
        fanin_idx = np.zeros((n, MAX_LUT_ARITY), dtype=np.int32)
        tt_bits = np.zeros((n, 1 << MAX_LUT_ARITY), dtype=np.uint8)
        const_values = np.asarray(self._const_values, dtype=np.uint8)
        for nid in range(n):
            f = self._fanins[nid]
            arity[nid] = len(f)
            fanin_idx[nid, : len(f)] = f
            if kinds[nid] == _KIND_LUT:
                a = len(f)
                tt = self._tts[nid]
                # Expand the truth table over all 16 index rows so unused
                # (padded) fanin index bits are "don't care" = repeat.
                rows = 1 << a
                base = np.array([(tt >> r) & 1 for r in range(rows)], dtype=np.uint8)
                reps = (1 << MAX_LUT_ARITY) // rows
                tt_bits[nid] = np.tile(base, reps)
        levels = self.node_levels()
        order = np.argsort(levels, kind="stable").astype(np.int32)
        # Group nodes by level for level-parallel evaluation.
        max_level = int(levels.max()) if n else 0
        level_groups: list[np.ndarray] = []
        for lv in range(1, max_level + 1):
            ids = np.nonzero(levels == lv)[0].astype(np.int32)
            if ids.size:
                level_groups.append(ids)
        return CompiledNetlist(
            name=self.name,
            kinds=kinds,
            arity=arity,
            fanin_idx=fanin_idx,
            tt_bits=tt_bits,
            const_values=const_values,
            levels=levels,
            topo_order=order,
            level_groups=tuple(level_groups),
            input_buses={k: np.asarray(v, dtype=np.int32) for k, v in self.input_buses.items()},
            output_buses={k: np.asarray(v, dtype=np.int32) for k, v in self.output_buses.items()},
            input_bus_signed=dict(self.input_bus_signed),
            output_bus_signed=dict(self.output_bus_signed),
            attrs=dict(self.attrs),
        )


@dataclass(frozen=True)
class CompiledNetlist:
    """Immutable array-form netlist, ready for batched simulation.

    ``tt_bits[nid]`` always has 16 rows; rows beyond ``2**arity`` repeat
    the table so padded fanins never change the output.
    """

    name: str
    kinds: np.ndarray  # (n,) int8
    arity: np.ndarray  # (n,) int8
    fanin_idx: np.ndarray  # (n, 4) int32
    tt_bits: np.ndarray  # (n, 16) uint8
    const_values: np.ndarray  # (n,) uint8
    levels: np.ndarray  # (n,) int32
    topo_order: np.ndarray  # (n,) int32
    level_groups: tuple[np.ndarray, ...]
    input_buses: dict[str, np.ndarray]
    output_buses: dict[str, np.ndarray]
    # Word-level metadata (defaults keep pickled/legacy constructors working).
    input_bus_signed: dict[str, bool] = field(default_factory=dict)
    output_bus_signed: dict[str, bool] = field(default_factory=dict)
    attrs: dict[str, object] = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return int(self.kinds.shape[0])

    @property
    def n_luts(self) -> int:
        return int((self.kinds == _KIND_LUT).sum())

    @property
    def depth(self) -> int:
        return int(self.levels.max()) if self.n_nodes else 0

    @property
    def lut_mask(self) -> np.ndarray:
        return self.kinds == _KIND_LUT

    def evaluate(
        self,
        inputs: dict[str, np.ndarray],
        scratch: EvalScratch | None = None,
    ) -> dict[str, np.ndarray]:
        """Pure functional evaluation (no timing), batched.

        Runs the bit-sliced execution plan of :mod:`repro.kernels`.

        Parameters
        ----------
        inputs:
            Mapping bus name -> ``(batch, width)`` uint8 bit array.
        scratch:
            Optional :class:`EvalScratch`; reuses the value plane and
            output buffers across repeated same-shape calls (returned
            arrays are then overwritten by the next call).

        Returns
        -------
        dict
            Mapping output bus name -> ``(batch, width)`` uint8 bit array.
        """
        from ..kernels.execute import evaluate_packed

        return evaluate_packed(self, inputs, scratch=scratch)

    def evaluate_ints(
        self, signed_out: bool = False, **int_inputs: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Evaluate with integer inputs/outputs (convenience wrapper)."""
        bit_inputs = {}
        for name, vals in int_inputs.items():
            if name not in self.input_buses:
                raise NetlistError(f"unknown input bus {name!r}")
            width = self.input_buses[name].shape[0]
            bit_inputs[name] = bits_from_ints(np.atleast_1d(vals), width)
        out = self.evaluate(bit_inputs)
        return {name: ints_from_bits(bits, signed=signed_out) for name, bits in out.items()}
