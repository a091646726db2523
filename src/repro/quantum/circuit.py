"""Parameterised quantum-circuit intermediate representation.

The circuit IR is deliberately small: a list of gate instructions over named
gates from :mod:`repro.quantum.gates`, where any gate angle may be a concrete
float, a symbolic :class:`Parameter`, or a :class:`ParameterExpression`
(an affine function ``scale * parameter + offset``, enough for every ansatz in
the paper).  Simulators consume fully bound circuits.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from .gates import GATE_REGISTRY, gate_num_qubits

__all__ = ["Parameter", "ParameterExpression", "Instruction", "QuantumCircuit"]

_parameter_counter = itertools.count()


class Parameter:
    """A named symbolic circuit parameter."""

    __slots__ = ("name", "_uuid")

    def __init__(self, name: str) -> None:
        self.name = name
        self._uuid = next(_parameter_counter)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r})"

    def __hash__(self) -> int:
        return hash((self.name, self._uuid))

    def __eq__(self, other: object) -> bool:
        return self is other

    def __mul__(self, scale: float) -> "ParameterExpression":
        return ParameterExpression(self, scale=float(scale))

    __rmul__ = __mul__

    def __add__(self, offset: float) -> "ParameterExpression":
        return ParameterExpression(self, offset=float(offset))

    __radd__ = __add__

    def __neg__(self) -> "ParameterExpression":
        return ParameterExpression(self, scale=-1.0)


@dataclass(frozen=True)
class ParameterExpression:
    """An affine expression ``scale * parameter + offset``."""

    parameter: Parameter
    scale: float = 1.0
    offset: float = 0.0

    def evaluate(self, value: float) -> float:
        return self.scale * value + self.offset

    def __mul__(self, scale: float) -> "ParameterExpression":
        return ParameterExpression(self.parameter, self.scale * scale, self.offset * scale)

    __rmul__ = __mul__

    def __neg__(self) -> "ParameterExpression":
        return self * -1.0


ParamValue = float | Parameter | ParameterExpression


@dataclass(frozen=True)
class Instruction:
    """A single gate application."""

    gate: str
    qubits: tuple[int, ...]
    params: tuple[ParamValue, ...] = field(default_factory=tuple)

    def is_bound(self) -> bool:
        """True if every parameter is a concrete number."""
        return all(isinstance(p, (int, float)) for p in self.params)

    def parameters(self) -> list[Parameter]:
        """Symbolic parameters referenced by this instruction."""
        found = []
        for p in self.params:
            if isinstance(p, Parameter):
                found.append(p)
            elif isinstance(p, ParameterExpression):
                found.append(p.parameter)
        return found


class QuantumCircuit:
    """An ordered list of gate instructions on ``num_qubits`` qubits."""

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        self.num_qubits = num_qubits
        self.name = name
        self._instructions: list[Instruction] = []
        self._parameters: list[Parameter] = []
        self._parameter_set: set[Parameter] = set()

    # -- inspection ---------------------------------------------------------

    @property
    def instructions(self) -> list[Instruction]:
        """A copy of the instruction list."""
        return list(self._instructions)

    @property
    def parameters(self) -> list[Parameter]:
        """Symbolic parameters in first-appearance order."""
        return list(self._parameters)

    @property
    def num_parameters(self) -> int:
        return len(self._parameters)

    def __len__(self) -> int:
        return len(self._instructions)

    def __repr__(self) -> str:
        return (
            f"QuantumCircuit(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"gates={len(self._instructions)}, parameters={self.num_parameters})"
        )

    def is_bound(self) -> bool:
        """True if the circuit contains no symbolic parameters."""
        return not self._parameters

    def count_gates(self) -> dict[str, int]:
        """Histogram of gate names."""
        counts: dict[str, int] = {}
        for inst in self._instructions:
            counts[inst.gate] = counts.get(inst.gate, 0) + 1
        return counts

    def depth(self) -> int:
        """Circuit depth: longest chain of instructions on any qubit wire."""
        frontier = [0] * self.num_qubits
        for inst in self._instructions:
            level = max(frontier[q] for q in inst.qubits) + 1
            for q in inst.qubits:
                frontier[q] = level
        return max(frontier, default=0)

    def two_qubit_gate_count(self) -> int:
        """Number of two-qubit gates (a common hardware cost metric)."""
        return sum(1 for inst in self._instructions if len(inst.qubits) == 2)

    # -- construction ---------------------------------------------------------

    def append(
        self, gate: str, qubits: Sequence[int], params: Sequence[ParamValue] = ()
    ) -> "QuantumCircuit":
        """Append a gate; returns self for chaining."""
        if gate not in GATE_REGISTRY:
            raise ValueError(f"unknown gate {gate!r}")
        expected_qubits = gate_num_qubits(gate)
        if len(qubits) != expected_qubits:
            raise ValueError(
                f"gate {gate!r} acts on {expected_qubits} qubits, got {len(qubits)}"
            )
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit index {q} out of range [0, {self.num_qubits})")
        if len(set(qubits)) != len(qubits):
            raise ValueError("duplicate qubit indices in a single gate")
        expected_params = GATE_REGISTRY[gate].num_params
        if len(params) != expected_params:
            raise ValueError(
                f"gate {gate!r} expects {expected_params} parameters, got {len(params)}"
            )
        normalized: list[ParamValue] = []
        for p in params:
            if isinstance(p, (Parameter, ParameterExpression)):
                normalized.append(p)
            else:
                normalized.append(float(p))
        instruction = Instruction(gate, tuple(qubits), tuple(normalized))
        self._instructions.append(instruction)
        for parameter in instruction.parameters():
            if parameter not in self._parameter_set:
                self._parameter_set.add(parameter)
                self._parameters.append(parameter)
        return self

    # Convenience wrappers for the most common gates -------------------------

    def h(self, qubit: int) -> "QuantumCircuit":
        return self.append("h", [qubit])

    def x(self, qubit: int) -> "QuantumCircuit":
        return self.append("x", [qubit])

    def y(self, qubit: int) -> "QuantumCircuit":
        return self.append("y", [qubit])

    def z(self, qubit: int) -> "QuantumCircuit":
        return self.append("z", [qubit])

    def s(self, qubit: int) -> "QuantumCircuit":
        return self.append("s", [qubit])

    def sdg(self, qubit: int) -> "QuantumCircuit":
        return self.append("sdg", [qubit])

    def rx(self, theta: ParamValue, qubit: int) -> "QuantumCircuit":
        return self.append("rx", [qubit], [theta])

    def ry(self, theta: ParamValue, qubit: int) -> "QuantumCircuit":
        return self.append("ry", [qubit], [theta])

    def rz(self, theta: ParamValue, qubit: int) -> "QuantumCircuit":
        return self.append("rz", [qubit], [theta])

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.append("cx", [control, target])

    def cz(self, control: int, target: int) -> "QuantumCircuit":
        return self.append("cz", [control, target])

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.append("swap", [a, b])

    def rzz(self, theta: ParamValue, a: int, b: int) -> "QuantumCircuit":
        return self.append("rzz", [a, b], [theta])

    def rxx(self, theta: ParamValue, a: int, b: int) -> "QuantumCircuit":
        return self.append("rxx", [a, b], [theta])

    def ryy(self, theta: ParamValue, a: int, b: int) -> "QuantumCircuit":
        return self.append("ryy", [a, b], [theta])

    def compose(self, other: "QuantumCircuit") -> "QuantumCircuit":
        """Return a new circuit equal to self followed by ``other``."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("cannot compose circuits with different qubit counts")
        combined = QuantumCircuit(self.num_qubits, name=f"{self.name}+{other.name}")
        for inst in self._instructions + other._instructions:
            combined.append(inst.gate, inst.qubits, inst.params)
        return combined

    def copy(self) -> "QuantumCircuit":
        """A shallow copy (instructions are immutable)."""
        clone = QuantumCircuit(self.num_qubits, name=self.name)
        for inst in self._instructions:
            clone.append(inst.gate, inst.qubits, inst.params)
        return clone

    # -- parameter binding ------------------------------------------------------

    def bind(self, values: Mapping[Parameter, float] | Sequence[float]) -> "QuantumCircuit":
        """Return a fully numeric copy with parameters substituted.

        ``values`` is either a mapping from :class:`Parameter` to float or a
        sequence ordered like :attr:`parameters`.
        """
        mapping = self._as_mapping(values)
        missing = [p for p in self._parameters if p not in mapping]
        if missing:
            names = ", ".join(p.name for p in missing)
            raise ValueError(f"missing values for parameters: {names}")
        # Binding happens once per objective evaluation of every optimizer
        # step, so substitute directly into fresh Instruction tuples instead
        # of re-running append()'s construction-time validation; instructions
        # without parameters are immutable and shared with the template.
        bound = QuantumCircuit(self.num_qubits, name=self.name)
        instructions = bound._instructions
        for inst in self._instructions:
            if not inst.params:
                instructions.append(inst)
                continue
            params = tuple(
                float(mapping[p])
                if isinstance(p, Parameter)
                else p.evaluate(float(mapping[p.parameter]))
                if isinstance(p, ParameterExpression)
                else p
                for p in inst.params
            )
            instructions.append(Instruction(inst.gate, inst.qubits, params))
        return bound

    def _as_mapping(
        self, values: Mapping[Parameter, float] | Sequence[float]
    ) -> Mapping[Parameter, float]:
        if isinstance(values, Mapping):
            return values
        values = list(np.asarray(values, dtype=float).ravel())
        if len(values) != len(self._parameters):
            raise ValueError(
                f"expected {len(self._parameters)} parameter values, got {len(values)}"
            )
        return dict(zip(self._parameters, values))
