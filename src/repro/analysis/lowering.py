"""Lowering audit pass (PL*): the execution plan agrees with its stream.

The plan engine (:mod:`repro.pim.plan`) promises that lowering is a pure
re-encoding: one plan row per instruction, the same opcodes, and TRANSFER
routes that match what the chip's topology resolves *today*.  This pass
re-lowers the checked program against the context's chip and audits those
invariants, so ``repro check`` exercises the exact lowered form every
benchmark replays — a plan that drifted from its stream (or carries routes
from a pre-remap epoch) is a silent corruption of every downstream cycle
count, which is precisely the class of defect the static checker exists
to catch before execution.

PL004 extends the audit to reordering: the makespan scheduler
(:mod:`repro.pim.schedule`) may permute the stream, and this pass proves
the permutation it would produce respects every data dependency —
RAW/WAW/WAR word-region edges, host/DRAM channel chains, and BARRIER
fences.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.checker import CheckContext
from repro.analysis.findings import ERROR, Finding
from repro.pim.isa import Instruction, Opcode
from repro.pim.plan import OP_IDS, STEP_TRANSFER

__all__ = ["LoweringPass"]


class LoweringPass:
    """Pass (g): lower the stream and prove the plan mirrors it."""

    name = "lowering"

    def run(self, program: Sequence[Instruction], ctx: CheckContext) -> List[Finding]:
        chip = ctx.chip
        if chip is None:
            return []  # no topology to lower against
        out: List[Finding] = []

        def add(code: str, msg: str, index=None, block=None, tag="") -> None:
            out.append(Finding(code, msg, ERROR, index=index, block=block,
                               tag=tag, passname=self.name))

        program = program if isinstance(program, (list, tuple)) else list(program)
        try:
            from repro.pim.executor import ChipExecutor

            plan = ChipExecutor(chip).lower(program)
        except (ValueError, IndexError):
            # shape/legality defects — the structural passes own those
            # (TR001/TR002/LY004...); a second report here would be noise.
            return out
        except Exception as exc:  # a stream the lowerer rejects outright
            add("PL001", f"lowering failed: {exc}")
            return out

        if plan.n_instructions != len(program):
            add("PL001",
                f"plan has {plan.n_instructions} rows for a stream of "
                f"{len(program)} instructions")
            return out
        if plan.routing_epoch != chip.routing_epoch:
            add("PL003",
                f"plan lowered under routing epoch {plan.routing_epoch}, "
                f"chip is at {chip.routing_epoch}")

        # one row per instruction with the matching opcode; every step the
        # replay engine walks must be accounted for exactly once.
        ops = plan.array["op"]
        for i, inst in enumerate(program):
            if int(ops[i]) != OP_IDS[inst.op]:
                add("PL001",
                    f"plan row {i} encodes opcode id {int(ops[i])}, stream "
                    f"has {inst.op.value}", index=i, block=inst.block,
                    tag=inst.tag)
        covered = plan.n_dispatch + plan.n_transfers + sum(
            payload.n for kind, payload in plan.steps if kind == 0
        )
        if covered != len(program):
            add("PL001",
                f"plan steps cover {covered} of {len(program)} instructions")

        # every lowered TRANSFER route must match a fresh resolution on the
        # chip's current topology (hops, flit count, switch keys).
        transfer_steps = [p for k, p in plan.steps if k == STEP_TRANSFER]
        ti = iter(transfer_steps)
        for i, inst in enumerate(program):
            if inst.op is not Opcode.TRANSFER:
                continue
            step = next(ti, None)
            if step is None:
                add("PL001", "plan has fewer TRANSFER steps than the stream",
                    index=i, block=inst.block, tag=inst.tag)
                break
            try:
                keys, hops, _extra, ic = chip.transfer_path(
                    inst.src_block, inst.block
                )
            except Exception as exc:
                add("PL002", f"route {inst.src_block}->{inst.block} no longer "
                    f"resolves: {exc}", index=i, block=inst.block, tag=inst.tag)
                continue
            flits = -(-(inst.n_rows * inst.words) // ic.flit_words)
            if (step.src, step.dst) != (inst.src_block, inst.block):
                add("PL002",
                    f"plan transfer routes {step.src}->{step.dst}, stream "
                    f"says {inst.src_block}->{inst.block}",
                    index=i, block=inst.block, tag=inst.tag)
            elif step.keys != tuple(keys) or step.hops != hops or step.flits != flits:
                add("PL002",
                    f"route {inst.src_block}->{inst.block}: plan has "
                    f"{step.hops} hops/{step.flits} flits over {len(step.keys)} "
                    f"switches, topology resolves {hops} hops/{flits} flits "
                    f"over {len(keys)}",
                    index=i, block=inst.block, tag=inst.tag)

        # PL004: reorder legality — the makespan scheduler's permutation of
        # this stream must respect every RAW/WAW/WAR edge, the host/DRAM
        # chains and each BARRIER fence (repro.pim.schedule recomputes the
        # DAG and re-runs the list scheduler here, so the audit covers the
        # exact order a `--schedule` run would replay).
        try:
            from repro.pim.schedule import audit_reorder

            for msg in audit_reorder(program, plan, chip):
                add("PL004", f"scheduler reordering is illegal: {msg}")
        except Exception as exc:
            add("PL004", f"reorder-legality audit failed: {exc}")
        return out
