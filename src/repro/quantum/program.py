"""Compile-once circuit programs: parameterized circuits as executable tapes.

A TreeVQA round executes the *same ansatz structure* thousands of times with
different angles.  The PR 2 batched backend already stacked those executions
into per-gate GEMMs, but every round still rebuilt its inputs from scratch:
one freshly bound :class:`~repro.quantum.circuit.QuantumCircuit` per parameter
point, one structure-key recomputation per request, and one per-gate Python
scan over the batch to stack gate matrices.  This module compiles a circuit
**once** into a :class:`CircuitProgram` — the instruction tape, qubit
wirings, parameter-slot mapping, and a precomputed per-gate dispatch plan —
so a whole batch of executions becomes ``program.execute(parameter_matrix,
initial_amplitudes)`` with no circuit objects on the hot path.

Compilation happens through a small persistent (process-wide, LRU-bounded)
cache:

* :func:`compile_circuit_program` — compile a *parameterized* template
  circuit; symbolic parameters become program slots (ordered like
  ``circuit.parameters``, i.e. exactly the order
  :meth:`~repro.ansatz.base.Ansatz.bound_circuit` binds), affine
  :class:`~repro.quantum.circuit.ParameterExpression` factors are folded into
  per-slot ``scale``/``offset`` pairs.  Structurally identical circuits (two
  instances of the same ansatz shape) share one cached program.
* :func:`program_for_bound_circuit` — compile the *structure* of an
  already-bound circuit (every rotation angle promoted to a slot) and extract
  its parameter row.  This is the single place a bound circuit enters the
  program world (an :class:`~repro.quantum.backend.ExecutionRequest` always
  carries a program plus a parameter row): bound circuits sharing a
  gate/wiring sequence share one cached program whatever their angles, so
  they still batch together.

Bit-identity contract
---------------------
This is the one gate kernel for states: :meth:`Statevector.evolve
<repro.quantum.statevector.Statevector.evolve>` runs a bound circuit as a
batch of one through :func:`program_for_bound_circuit`, and measurement
plans run their basis rotations as cached programs.  Every row of every
execution -- any batch composition, solo or stacked, in-process or in a
worker -- gets the same bits.  Four facts make that hold:

* gate matrices for single-angle rotation gates are built with the *same*
  :func:`~repro.quantum.gates.batched_rotation_matrices` elementwise ufuncs
  for every group size (including one), whether the angle is a constant or
  a slot, so template and bound-structure programs build equal matrices;
* affine slot evaluation computes ``scale * value + offset`` with the same
  two IEEE-754 operations, in the same order, as
  :meth:`ParameterExpression.evaluate` did scalar-wise (bare parameters are
  passed through untouched, exactly like ``float(mapping[p])``);
* the execution stream is fixed per program, from the tape's gate names and
  wiring alone (:func:`_blocks`, :func:`_plan_layout`, :func:`_block_ops`).
  The tape is cut into blocks of at most three qubits, and each block is one
  GEMM pass over the state.  A block's per-row ``2^k x 2^k`` matrix is built
  by elementwise builders, Kronecker products and ``np.matmul`` over
  ``(batch, ., .)`` stacks, which compute every row on its own;
  parameterless stretches (CX ladders, basis changes) are multiplied out
  once at compile time, so CX costs no pass of its own;
* every GEMM keeps the operand shape ``(2^k x 2^k) . (2^k x N)`` where
  either N is ``2^(n-k)`` (the gate's qubits lead the state) or
  ``N >= 256`` (:data:`_MIN_GEMM_COLUMNS`).  Each output column is a
  length-``2^k`` dot product of one gate row with one input column; the
  BLAS micro-kernel computes it in the same order whatever the column's
  neighbours are, so the amplitudes do not depend on which columns share a
  GEMM or in what order they sit (below ~256 columns edge kernels take over
  and that stops holding).

Block fusion makes the stream differ from gate-by-gate application in the
last bits, so the oracle is not a second kernel but a tolerance tier:
``tests/quantum/test_program_oracle.py`` checks :meth:`CircuitProgram.execute`
against dense unitaries and a per-gate reference to 1e-12, and
``tests/quantum/test_backend.py::TestCircuitProgram`` and
``tests/core/test_scheduler.py::TestControllerParity`` check the bit-exact
batch-composition contract.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .cache import LRUCache
from .circuit import Instruction, Parameter, ParameterExpression, QuantumCircuit
from .gates import GATE_REGISTRY, batched_rotation_matrices, gate_matrix

__all__ = [
    "CircuitProgram",
    "compile_circuit_program",
    "program_for_bound_circuit",
    "program_cache_stats",
    "clear_program_cache",
    "set_program_cache_limit",
]

#: Dispatch-plan kinds precomputed per tape entry.
_FIXED = 0  #: every parameter is a constant — one precomputed matrix, repeated
_ROTATION = 1  #: single slotted angle with a vectorized matrix builder
_GENERIC = 2  #: slotted parameters without a vectorized builder — per-row build

#: Parameter-spec tags (first element of a spec tuple).
_CONST = "c"  #: ("c", value)
_SLOT = "s"  #: ("s", slot_index, scale, offset)


#: A block runs copy-free -- as GEMMs on a view of the state, with no gather
#: first -- only when at least this many amplitude columns trail its qubit
#: axes.  Narrower GEMMs fall to BLAS edge kernels that round differently
#: (1-2 columns) or run several times slower (<= 16 columns).
_MIN_GEMM_COLUMNS = 256

#: Qubit axes that must trail a copy-free block: ``2**8 == _MIN_GEMM_COLUMNS``.
_TRAILING_QUBITS = _MIN_GEMM_COLUMNS.bit_length() - 1

#: The widest block, in qubits, that one pass applies.  On a 2-vCPU x86 host
#: with one BLAS thread, one GEMM pass over 32 rows of 2^14 amplitudes took
#: 1.6 / 1.75 / 1.9 / 2.9 ms at block width 1 / 2 / 3 / 4 (a gather took
#: 0.75 ms): up to three qubits a pass costs about what one gate's pass did,
#: at four the longer dot products make it half again as dear.
_MAX_BLOCK_QUBITS = 3

#: Build-op kinds of a block's matrix (see :func:`_block_ops`).
_LOCAL = 0  #: (kind, entries, axis): fused gate on local axes ``axis, axis + 1, ...``
_EMBED = 1  #: (kind, (entry,), (rows, columns, mask)): gate on other local axes
_DENSE = 2  #: (kind, matrix, None): parameterless stretch multiplied out


@dataclass(frozen=True)
class _TapeEntry:
    """One precompiled instruction of a program's tape."""

    gate: str
    qubits: tuple[int, ...]
    specs: tuple[tuple, ...]
    kind: int
    matrix: np.ndarray | None


@dataclass(frozen=True)
class _Step:
    """One pass of the execution stream over the state.

    A block of tape entries on at most :data:`_MAX_BLOCK_QUBITS` qubits runs
    as one GEMM of its ``(batch, 2**k, 2**k)`` matrices with a view of the
    state.  Each row's matrix starts as ``start`` and is built by ``ops``
    (:func:`_block_ops`) on local axes ordered like ``qubits``, the order in
    which the block's qubits lie in the state.  ``entries`` and ``qubits``
    are not read at run time; they describe the block for stream checks.
    """

    entries: tuple[_TapeEntry, ...]
    qubits: tuple[int, ...]
    #: transpose order of the ``(batch,) + (2,) * n`` state gathered before
    #: the GEMM (empty: the GEMM runs on the state as it lies)
    gather: tuple[int, ...]
    #: ``(2**p, 2**k, columns)``: the state viewed with the block's k qubit
    #: axes at physical position p
    view: tuple[int, ...]
    #: one factor per local axis -- a run's entries or a constant -- or one
    #: constant for the whole block
    start: tuple
    ops: tuple[tuple, ...]


def _blocks(tape: Sequence[_TapeEntry]) -> list[tuple[list[int], list[_TapeEntry]]]:
    """Group a tape into ``(qubits, entries)`` blocks, one pass each.

    A multi-qubit gate joins the latest block that touches its qubits if
    that block then spans at most :data:`_MAX_BLOCK_QUBITS` qubits (no later
    block touches them, so the gate commutes back to it), and opens a new
    block otherwise.  Each qubit's pending run of single-qubit gates joins
    the block of the gate that cuts it; runs never cut are packed, in order,
    into blocks of up to :data:`_MAX_BLOCK_QUBITS` qubits at the end.
    """
    blocks: list[tuple[list[int], list[_TapeEntry]]] = []
    latest: dict[int, int] = {}  # qubit -> index of the latest block touching it
    runs: dict[int, list[_TapeEntry]] = {}
    for entry in tape:
        if len(entry.qubits) == 1:
            runs.setdefault(entry.qubits[0], []).append(entry)
            continue
        index = max((latest[qubit] for qubit in entry.qubits if qubit in latest), default=-1)
        if index < 0 or len(set(blocks[index][0]).union(entry.qubits)) > _MAX_BLOCK_QUBITS:
            index = len(blocks)
            blocks.append(([], []))
        qubits, entries = blocks[index]
        for qubit in entry.qubits:
            entries.extend(runs.pop(qubit, ()))
            if qubit not in qubits:
                qubits.append(qubit)
            latest[qubit] = index
        entries.append(entry)
    leftover = list(runs.items())
    for start in range(0, len(leftover), _MAX_BLOCK_QUBITS):
        chunk = leftover[start : start + _MAX_BLOCK_QUBITS]
        blocks.append(([qubit for qubit, _ in chunk], [e for _, run in chunk for e in run]))
    return blocks


def _plan_layout(
    num_qubits: int, blocks: Sequence[Sequence[int]]
) -> tuple[list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]], tuple[int, ...]]:
    """Plan the state's physical axis order across a stream's blocks.

    Returns one ``(gather, view, qubits)`` triple per block (see
    :class:`_Step`; ``qubits`` is the block's qubits in the order they lie
    after the gather) and the transpose order restoring canonical qubit order
    after the last GEMM (empty when the state already lies canonically).  A
    block whose qubits lie next to each other, in any order, at position p
    with ``2**(n-p-k)`` trailing columns of at least
    :data:`_MIN_GEMM_COLUMNS`, needs no gather.  Otherwise one gather brings
    its qubits to the front (those the next block shares last), followed by
    the qubits the next blocks touch -- only as many as still leave that
    many trailing columns -- and keeps every other axis in its current
    order, so the copy moves whole contiguous runs.
    Below ``8 + k`` qubits nothing fits that window: every gather is a plain
    move-to-front and every GEMM has the ``(2^k x 2^k) . (2^k x 2^(n-k))``
    shape.
    """
    window = num_qubits - _TRAILING_QUBITS
    layout = list(range(num_qubits))
    steps = []
    for index, qubits in enumerate(blocks):
        k = len(qubits)
        position = min(layout.index(qubit) for qubit in qubits)
        in_place = set(layout[position : position + k]) == set(qubits)
        if not (in_place and (position == 0 or position + k <= window)):
            # The qubits the next block shares go last, next to its others.
            shared = set(blocks[index + 1]) if index + 1 < len(blocks) else set()
            front = sorted(qubits, key=lambda qubit: qubit in shared)
            for later in range(index + 1, len(blocks)):
                if len(front) >= window:
                    break
                front.extend(qubit for qubit in blocks[later] if qubit not in front)
            front = front[: max(window, k)]
            planned = front + [qubit for qubit in layout if qubit not in front]
            gather = (0,) + tuple(1 + layout.index(qubit) for qubit in planned)
            layout, position = planned, 0
        else:
            gather = ()
        columns = 1 << (num_qubits - position - k)
        view = (1 << position, 1 << k, columns)
        steps.append((gather, view, tuple(layout[position : position + k])))
    if layout == list(range(num_qubits)):
        return steps, ()
    return steps, (0,) + tuple(1 + layout.index(qubit) for qubit in range(num_qubits))


def _embedding(axes: tuple[int, ...], width: int) -> tuple[np.ndarray, ...]:
    """Index arrays and mask embedding a gate on local ``axes`` (gate order)
    into a ``width``-qubit block: ``(G[..., rows, columns] * mask)`` is its
    ``2**width x 2**width`` matrix."""
    index = np.arange(1 << width)
    gate_index = np.zeros_like(index)
    others = index
    for axis in axes:
        bit = (index >> (width - 1 - axis)) & 1
        gate_index = 2 * gate_index + bit
        others = others & ~(1 << (width - 1 - axis))
    mask = (others[:, None] == others[None, :]).astype(float)
    return gate_index[:, None], gate_index[None, :], mask


#: Every embedding a block can need, keyed ``(axes, width)``: gates act on
#: one or two qubits and a block spans at most :data:`_MAX_BLOCK_QUBITS`.
_EMBEDDINGS = {
    (axes, width): _embedding(axes, width)
    for width in range(1, _MAX_BLOCK_QUBITS + 1)
    for size in (1, 2)
    for axes in itertools.permutations(range(width), size)
}

#: The matrix of every parameterless gate, keyed by name.
_GATE_MATRICES = {
    gate: gate_matrix(gate)
    for gate, definition in GATE_REGISTRY.items()
    if definition.num_params == 0
}

#: The gates whose single angle has a vectorized builder
#: (:func:`~repro.quantum.gates.batched_rotation_matrices`).
_ROTATION_GATES = frozenset(
    gate for gate in GATE_REGISTRY if batched_rotation_matrices(gate, np.zeros(1)) is not None
)

#: Every parameterless gate on every local axes of every block width, as the
#: block's matrix, keyed ``(gate, axes, width)``; ``("i", (0,), k)`` is the
#: block identity.
_EMBEDDED_GATES = {
    (gate, axes, width): matrix[rows, columns] * mask
    for gate, matrix in _GATE_MATRICES.items()
    for (axes, width), (rows, columns, mask) in _EMBEDDINGS.items()
    if len(axes) == GATE_REGISTRY[gate].num_qubits
}
for _array in itertools.chain(
    *_EMBEDDINGS.values(), _EMBEDDED_GATES.values(), _GATE_MATRICES.values()
):
    _array.flags.writeable = False


def _block_ops(
    entries: Sequence[_TapeEntry], qubits: tuple[int, ...]
) -> tuple[tuple, tuple[tuple, ...]]:
    """The start factors and build ops of one block, on local axes ordered
    like ``qubits``.

    Single-qubit gates that precede every multi-qubit gate on their qubit in
    the block commute to its start: when any of them takes an angle, the
    start is the Kronecker product of one factor per local axis -- that
    qubit's run fused per row, or the identity without a run.  Each stretch
    of the remaining parameterless gates (CX, SWAP, basis changes) is
    multiplied out here, once, into a dense constant; a leading one becomes
    the start.  Every other gate is built per row at run time: a run of
    single-qubit gates on one qubit fused into one ``2 x 2`` stack, a
    multi-qubit gate on its own.  The ops follow from gate names and wiring
    alone, never from angle values, so template and bound-structure programs
    of one circuit build equal matrices.
    """
    width = len(qubits)
    axes = {qubit: axis for axis, qubit in enumerate(qubits)}
    runs: list[list[_TapeEntry]] = [[] for _ in qubits]
    rest: list[_TapeEntry] = []
    cut: set[int] = set()
    for entry in entries:
        if len(entry.qubits) == 1 and entry.qubits[0] not in cut:
            runs[axes[entry.qubits[0]]].append(entry)
        else:
            rest.append(entry)
            cut.update(entry.qubits)
    start: tuple = ()
    if any(entry.specs for run in runs for entry in run):
        start = tuple(tuple(run) or _EMBEDDED_GATES["i", (0,), 1][None] for run in runs)
    else:
        rest = list(entries)
    identity = _EMBEDDED_GATES["i", (0,), width]
    ops: list[tuple] = []
    fixed = identity
    for entry in (*rest, None):
        local = () if entry is None else tuple(axes[qubit] for qubit in entry.qubits)
        if entry is not None and not entry.specs:
            fixed = _EMBEDDED_GATES[entry.gate, local, width] @ fixed
            continue
        if fixed is not identity:
            ops.append((_DENSE, fixed, None))
            fixed = identity
        if entry is None:
            break
        last = ops[-1] if ops else None
        if len(local) == 1 and last and last[0] == _LOCAL and last[1][0].qubits == entry.qubits:
            ops[-1] = (_LOCAL, last[1] + (entry,), local[0])
        elif local == tuple(range(local[0], local[0] + len(local))):
            ops.append((_LOCAL, (entry,), local[0]))
        else:
            ops.append((_EMBED, (entry,), _EMBEDDINGS[local, width]))
    if not start:
        start = ((ops.pop(0)[1] if ops and ops[0][0] == _DENSE else identity)[None],)
    return start, tuple(ops)


def _block_matrices(
    start: tuple, ops: Sequence[tuple], rows: np.ndarray, batch: int
) -> np.ndarray:
    """A block's stacked ``(batch, 2**k, 2**k)`` matrices (see :func:`_block_ops`).

    Every op acts on each row on its own -- elementwise builders and
    products and stacked ``np.matmul`` -- so a row's matrix does not depend
    on the batch it runs in.  Constants stay ``(1, ., .)`` and broadcast
    against the batch.
    """
    matrices = None
    for factor in start:
        if isinstance(factor, tuple):
            factor = _fused(factor, rows, batch)
        if matrices is None:
            matrices = factor
            continue
        dim = matrices.shape[-1] * 2
        matrices = (matrices[:, :, None, :, None] * factor[:, None, :, None, :]).reshape(
            -1, dim, dim
        )
    dim = matrices.shape[-1]
    for kind, payload, where in ops:
        if kind == _DENSE:
            matrices = np.matmul(payload, matrices)
            continue
        gate = _fused(payload, rows, batch)
        if kind == _LOCAL:
            view = matrices.reshape(len(matrices), 1 << where, gate.shape[-1], -1)
            matrices = np.matmul(gate[:, None], view).reshape(batch, dim, dim)
        else:
            gate_rows, gate_columns, mask = where
            matrices = np.matmul(gate[:, gate_rows, gate_columns] * mask, matrices)
    return matrices


def _fused(entries: Sequence[_TapeEntry], rows: np.ndarray, batch: int) -> np.ndarray:
    """``M_k @ ... @ M_1``, stacked per row, for entries on the same qubits."""
    fused = _entry_matrices(entries[0], rows, batch)
    for entry in entries[1:]:
        fused = np.matmul(_entry_matrices(entry, rows, batch), fused)
    return fused


def _entry_matrices(entry: _TapeEntry, rows: np.ndarray, batch: int) -> np.ndarray:
    """Stacked ``(batch, 2**k, 2**k)`` gate matrices for one tape entry."""
    if entry.kind == _FIXED:
        return np.repeat(entry.matrix[None, :, :], batch, axis=0)
    if entry.kind == _ROTATION:
        _, slot, scale, offset = entry.specs[0]
        thetas = rows[:, slot]
        if scale != 1.0 or offset != 0.0:
            thetas = scale * thetas + offset
        return batched_rotation_matrices(entry.gate, thetas)
    return np.stack(
        [
            gate_matrix(entry.gate, *(_evaluate_spec(spec, rows[row]) for spec in entry.specs))
            for row in range(batch)
        ]
    )


def _evaluate_spec(spec: tuple, row: np.ndarray) -> float:
    """Scalar parameter value for one spec — mirrors the legacy bind() math."""
    if spec[0] == _CONST:
        return spec[1]
    _, slot, scale, offset = spec
    value = float(row[slot])
    if scale == 1.0 and offset == 0.0:
        return value
    return scale * value + offset


class CircuitProgram:
    """A compiled, reusable execution plan for one circuit structure.

    Programs are immutable and shareable: one program serves every parameter
    point of every round of every cluster with the same circuit structure.
    Obtain them through :func:`compile_circuit_program` /
    :func:`program_for_bound_circuit` so structurally identical circuits share
    one cached instance.
    """

    __slots__ = (
        "_tape",
        "_steps",
        "_restore",
        "_num_qubits",
        "_num_parameters",
        "_fingerprint",
        "name",
    )

    def __init__(
        self,
        num_qubits: int,
        tape: tuple[_TapeEntry, ...],
        steps: tuple[_Step, ...],
        restore: tuple[int, ...],
        num_parameters: int,
        fingerprint: tuple,
        name: str = "program",
    ) -> None:
        self._num_qubits = num_qubits
        self._tape = tape
        self._steps = steps
        self._restore = restore
        self._num_parameters = num_parameters
        self._fingerprint = fingerprint
        self.name = name

    # -- properties -----------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def num_parameters(self) -> int:
        """Number of parameter slots one execution row must provide."""
        return self._num_parameters

    @property
    def num_instructions(self) -> int:
        return len(self._tape)

    @property
    def fingerprint(self) -> tuple:
        """Hashable structure key: programs with equal fingerprints execute
        identically and may be batched together."""
        return self._fingerprint

    @property
    def tape(self) -> tuple[_TapeEntry, ...]:
        """The compiled instruction tape (read-only), one unfused entry per
        instruction; :meth:`execute` runs the block stream built from it.

        Exposed for alternative executors that re-interpret the same
        structure — the Pauli-propagation kernel walks it in reverse to
        build its conjugation plan, resolving each entry's parameter specs
        exactly like :meth:`execute` does.
        """
        return self._tape

    def __repr__(self) -> str:
        return (
            f"CircuitProgram(name={self.name!r}, num_qubits={self._num_qubits}, "
            f"instructions={len(self._tape)}, parameters={self._num_parameters})"
        )

    # -- execution ------------------------------------------------------------

    def execute(self, parameters: np.ndarray, initial: np.ndarray) -> np.ndarray:
        """Evolve a whole batch of parameter rows as one stacked array.

        ``parameters`` is ``(batch, num_parameters)`` (a single row is
        accepted); ``initial`` is the stacked ``(batch, 2**n)`` initial
        amplitudes, which are never written to.  Returns the prepared
        ``(batch, 2**n)`` amplitudes, bit-identical per row to executing
        each row alone.
        """
        rows = self._rows(parameters)
        batch = rows.shape[0]
        dim = 1 << self._num_qubits
        if initial.shape != (batch, dim):
            raise ValueError(
                f"initial amplitudes must have shape {(batch, dim)}, got {initial.shape}"
            )
        shape = (batch,) + (2,) * self._num_qubits
        state = initial
        for step in self._steps:
            # The layout plan (_plan_layout) decides, once per program, where
            # each block's qubit axes lie; most GEMMs then run on a view and
            # only the planned gathers copy the state.
            matrices = _block_matrices(step.start, step.ops, rows, batch)
            if step.gather:
                state = np.ascontiguousarray(state.reshape(shape).transpose(step.gather))
            state = np.matmul(matrices[:, None], state.reshape((batch,) + step.view))
        if self._restore:
            state = state.reshape(shape).transpose(self._restore)
        return state.reshape(batch, dim)

    def _rows(self, parameters: np.ndarray) -> np.ndarray:
        """``parameters`` as a ``(batch, num_parameters)`` float matrix."""
        rows = np.asarray(parameters, dtype=float)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.shape[1] != self._num_parameters:
            raise ValueError(
                f"program expects {self._num_parameters} parameters per row, "
                f"got {rows.shape[1]}"
            )
        return rows

    def tape_matrices(
        self, parameters: np.ndarray
    ) -> Iterator[tuple[str, tuple[int, ...], np.ndarray]]:
        """Yield ``(gate, qubits, stacked matrices)`` per tape entry, unfused.

        ``parameters`` is ``(batch, num_parameters)`` (a single row is
        accepted); each yielded ``matrices`` is the ``(batch, 2**k, 2**k)``
        stack for that entry, built through the *same* per-entry dispatch
        plan :meth:`execute` builds its per-row factors with (fixed matrices
        repeated, single-angle rotations via the vectorized builders, generic
        entries per row) — so
        executors other than the statevector path (e.g. the density-matrix
        backend's ``U ρ U†`` evolution) consume bit-identical gate matrices.
        """
        rows = self._rows(parameters)
        batch = rows.shape[0]
        for entry in self._tape:
            yield entry.gate, entry.qubits, _entry_matrices(entry, rows, batch)

    # -- materialisation ------------------------------------------------------

    def bound_instruction_params(self, parameters: np.ndarray) -> Iterator[tuple]:
        """Yield ``(gate, qubits, params)`` per tape entry, slots evaluated.

        Lets callers inspect a program execution (e.g. the Clifford backend's
        angle routing) without building circuit objects.  Lazy so consumers
        that reject early (routing checks) never evaluate the full tape.
        """
        row = np.asarray(parameters, dtype=float).ravel()
        for entry in self._tape:
            yield (
                entry.gate,
                entry.qubits,
                tuple(_evaluate_spec(spec, row) for spec in entry.specs),
            )

    def bind(self, parameters: np.ndarray) -> QuantumCircuit:
        """Materialise a fully bound :class:`QuantumCircuit` for one row.

        Only needed by per-request fallback paths (estimators that must
        re-execute circuits, the stabilizer simulator); batched dense
        execution goes through :meth:`execute` without circuit objects.
        """
        row = self._rows(np.ravel(parameters))[0]
        circuit = QuantumCircuit(self._num_qubits, name=self.name)
        instructions = circuit._instructions
        for gate, qubits, params in self.bound_instruction_params(row):
            instructions.append(Instruction(gate, qubits, params))
        return circuit


# -- compilation ----------------------------------------------------------------


def _param_spec(param, slot_index: dict[Parameter, int]) -> tuple:
    """Spec tuple for one instruction parameter of a template circuit."""
    if isinstance(param, Parameter):
        return (_SLOT, slot_index[param], 1.0, 0.0)
    if isinstance(param, ParameterExpression):
        return (_SLOT, slot_index[param.parameter], float(param.scale), float(param.offset))
    return (_CONST, float(param))


def _entry_kind_and_matrix(
    gate: str, specs: tuple[tuple, ...]
) -> tuple[int, np.ndarray | None]:
    """Classify one instruction into a dispatch-plan kind.

    The classification mirrors the legacy per-group stacking logic exactly:
    all-constant parameters use one precomputed matrix (single-angle rotation
    gates still built via the vectorized builder, so constants and slots run
    the same elementwise computation); a single slotted angle with a
    vectorized builder becomes one builder call over the whole batch; anything
    else falls back to per-row ``gate_matrix``.  A parameterless gate's
    matrix is its shared read-only entry of :data:`_GATE_MATRICES`, which
    :func:`_entry_matrices` only ever copies.
    """
    if all(spec[0] == _CONST for spec in specs):
        if not specs and gate in _GATE_MATRICES:
            return _FIXED, _GATE_MATRICES[gate]
        if len(specs) == 1 and gate in _ROTATION_GATES:
            return _FIXED, batched_rotation_matrices(gate, np.array([specs[0][1]]))[0]
        return _FIXED, gate_matrix(gate, *(spec[1] for spec in specs))
    if len(specs) == 1 and specs[0][0] == _SLOT and gate in _ROTATION_GATES:
        return _ROTATION, None
    return _GENERIC, None


def _compile(
    num_qubits: int,
    entries: Sequence[tuple[str, tuple[int, ...], tuple[tuple, ...]]],
    num_parameters: int,
    name: str,
) -> CircuitProgram:
    """Build a program from ``(gate, qubits, specs)`` entries."""
    tape = tuple(
        _TapeEntry(gate, qubits, specs, *_entry_kind_and_matrix(gate, specs))
        for gate, qubits, specs in entries
    )
    blocks = _blocks(tape)
    plan, restore = _plan_layout(num_qubits, [qubits for qubits, _ in blocks])
    steps = tuple(
        _Step(tuple(block), order, gather, view, *_block_ops(block, order))
        for (_, block), (gather, view, order) in zip(blocks, plan)
    )
    fingerprint = (
        num_qubits,
        num_parameters,
        tuple((gate, qubits, specs) for gate, qubits, specs in entries),
    )
    return CircuitProgram(
        num_qubits, tape, steps, restore, num_parameters, fingerprint, name=name
    )


# -- persistent program cache ---------------------------------------------------

_programs: LRUCache[CircuitProgram] = LRUCache("program", 256)


def program_cache_stats() -> dict[str, int]:
    """Current persistent-cache statistics (hits/misses/evictions/size/limit)."""
    return _programs.stats()


def clear_program_cache() -> None:
    """Drop every cached program and reset the statistics."""
    _programs.clear()


def set_program_cache_limit(limit: int) -> None:
    """Set the maximum number of cached programs (LRU eviction beyond it)."""
    _programs.set_limit(limit)


def compile_circuit_program(circuit: QuantumCircuit) -> CircuitProgram:
    """Compile a (possibly parameterized) template circuit into a program.

    Symbolic parameters become program slots ordered like
    ``circuit.parameters`` — the same order :meth:`QuantumCircuit.bind`
    consumes a value sequence in — so an optimizer's parameter vectors feed
    :meth:`CircuitProgram.execute` directly.  The compiled program is cached
    on the circuit's structure fingerprint: structurally identical circuits
    (any two instances of the same ansatz shape) share one program across
    clusters, rounds, and controller runs.
    """
    slot_index = {param: slot for slot, param in enumerate(circuit._parameters)}
    entries = tuple(
        (
            inst.gate,
            inst.qubits,
            tuple(_param_spec(param, slot_index) for param in inst.params),
        )
        for inst in circuit._instructions
    )
    key = ("template", circuit.num_qubits, len(slot_index), entries)
    return _programs.get_or_build(
        key,
        lambda: _compile(circuit.num_qubits, entries, len(slot_index), name=circuit.name),
    )


def program_for_bound_circuit(
    circuit: QuantumCircuit,
) -> tuple[CircuitProgram, np.ndarray]:
    """Program + parameter row for an already-bound circuit.

    Every parameter of every parametric instruction is promoted to a program
    slot (tape order), so bound circuits sharing a gate/wiring sequence share
    one cached program regardless of their angles — exactly the grouping the
    batched backend used before programs existed.  Returns the shared program
    and this circuit's extracted parameter row.
    """
    if not circuit.is_bound():
        raise ValueError(
            "program_for_bound_circuit needs a fully bound circuit; "
            "compile parameterized templates with compile_circuit_program"
        )
    structure = []
    values: list[float] = []
    slot = 0
    for inst in circuit._instructions:
        if inst.params:
            specs = tuple(
                (_SLOT, slot + offset, 1.0, 0.0) for offset in range(len(inst.params))
            )
            slot += len(inst.params)
            values.extend(inst.params)
        else:
            specs = ()
        structure.append((inst.gate, inst.qubits, specs))
    entries = tuple(structure)
    key = ("bound", circuit.num_qubits, slot, entries)
    program = _programs.get_or_build(
        key, lambda: _compile(circuit.num_qubits, entries, slot, name=circuit.name)
    )
    return program, np.asarray(values, dtype=float)
