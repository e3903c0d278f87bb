"""Unit tests for opcode metadata and the fields an instruction
decodes from it."""

import copy
import pickle

import pytest

from repro.isa.instruction import INSTRUCTION_BYTES, Instruction
from repro.isa.opcodes import (CONTROL_KINDS, Kind, MNEMONICS, Op,
                               OPCODE_TABLE, Unit, info_for)
from repro.isa.semantics import EVALUATORS


def test_every_opcode_has_metadata():
    for op in Op:
        info = info_for(op)
        assert info.latency >= 1
        assert info.mnemonic


def test_mnemonic_map_is_bijective():
    assert len(MNEMONICS) == len(OPCODE_TABLE)
    for mnemonic, op in MNEMONICS.items():
        assert info_for(op).mnemonic == mnemonic


def test_csr_instructions_flush_on_commit():
    for op in (Op.FRFLAGS, Op.FSFLAGS, Op.CSRRW, Op.SRET, Op.ECALL):
        assert info_for(op).flushes_on_commit


def test_serializing_instructions():
    assert info_for(Op.FENCE).serializing
    assert info_for(Op.AMOADD).serializing
    assert not info_for(Op.ADD).serializing


def test_branch_units():
    for op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE):
        assert info_for(op).unit is Unit.BRANCH
        assert info_for(op).kind is Kind.BRANCH


def test_memory_ops_use_mem_unit():
    for op in (Op.LW, Op.LD, Op.FLD, Op.SW, Op.SD, Op.FSD, Op.AMOADD):
        assert info_for(op).unit is Unit.MEM


def test_long_latency_ops():
    assert info_for(Op.DIV).latency > info_for(Op.MUL).latency
    assert info_for(Op.MUL).latency > info_for(Op.ADD).latency
    assert info_for(Op.FDIV).latency > info_for(Op.FADD).latency
    assert info_for(Op.FSQRT).latency >= info_for(Op.FDIV).latency


def test_fp_ops_write_fp_registers():
    assert info_for(Op.FADD).writes_fp
    assert not info_for(Op.FADD).writes_int
    # FP compares produce integer results.
    assert info_for(Op.FEQ).writes_int
    assert not info_for(Op.FEQ).writes_fp


def test_control_kinds_cover_all_block_terminators():
    assert Kind.BRANCH in CONTROL_KINDS
    assert Kind.CALL in CONTROL_KINDS
    assert Kind.RETURN in CONTROL_KINDS
    assert Kind.HALT in CONTROL_KINDS


def test_source_counts():
    assert info_for(Op.ADD).num_sources == 2
    assert info_for(Op.ADDI).num_sources == 1
    assert info_for(Op.FMADD).num_sources == 3
    assert info_for(Op.LUI).num_sources == 0


# -- decode once: precomputed fields equal their OpcodeInfo derivation -------


def _reference_fields(inst):
    """Each opcode-derived field as ``Instruction`` once computed it on
    every access, one ``@property`` body per field."""
    info = info_for(inst.op)
    is_load = info.kind is Kind.LOAD or info.kind is Kind.ATOMIC
    is_store = info.kind is Kind.STORE or info.kind is Kind.ATOMIC
    return {
        "info": info,
        "unit": info.unit,
        "kind": info.kind,
        "latency": info.latency,
        "is_load": is_load,
        "is_store": is_store,
        "is_mem": is_load or is_store,
        "is_branch": info.kind is Kind.BRANCH,
        "is_control": info.kind in (Kind.BRANCH, Kind.JUMP, Kind.CALL,
                                    Kind.RETURN, Kind.SRET),
        "is_call": info.kind is Kind.CALL,
        "is_return": info.kind is Kind.RETURN,
        "is_serializing": info.serializing,
        "flushes_on_commit": info.flushes_on_commit,
        "is_halt": info.kind is Kind.HALT,
        "next_addr": inst.addr + INSTRUCTION_BYTES,
        "evaluator": EVALUATORS[inst.op],
    }


def _sample(op):
    return Instruction(op, rd=5, sources=(6, 7)[:info_for(op).num_sources],
                       imm=-8, addr=0x10040)


@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.value)
def test_decoded_fields_match_opcode_info(op):
    inst = _sample(op)
    for name, expected in _reference_fields(inst).items():
        got = getattr(inst, name)
        assert got == expected and type(got) is type(expected), name


@pytest.mark.parametrize("clone", [
    lambda inst: pickle.loads(pickle.dumps(inst)),
    copy.deepcopy,
], ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("op", list(Op), ids=lambda op: op.value)
def test_decoded_fields_survive_copies(op, clone):
    inst = _sample(op)
    twin = clone(inst)
    assert twin is not inst
    for name in Instruction.__slots__:
        assert getattr(twin, name) == getattr(inst, name), name
    assert twin.evaluator is inst.evaluator
