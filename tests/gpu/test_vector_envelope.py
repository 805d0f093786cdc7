"""The vectorized backend's exact envelope, against the interpreter.

The lockstep runner never steps a lane on its own: when a single lane
leaves the exactly vectorisable envelope, or issues an instruction with no
exact vector form, the whole launch falls back to the compiled path.  Each
case below has exactly one of 128 lanes do so and checks that the launch
stays byte-identical to the interpreter and that it fell back exactly once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import MemoryFault
from repro.gpu import GPUSimulator, KernelBuilder, LaunchGeometry, pack_params
from repro.telemetry import Telemetry

LANES = 128
LANE = 77  # the one lane that leaves the envelope
GEOMETRY = LaunchGeometry(grid=(1, 1), block=(LANES, 1))
UNMAPPED = 0xFFFF_FF00  # outside every allocation


def _build(case: str):
    k = KernelBuilder(f"envelope_{case}")
    inp, out = k.params("inp", "out")
    tid, addr, src, v, r = (k.reg(n) for n in ("tid", "addr", "src", "v", "r"))
    f = k.reg("f")
    p = k.pred("p")
    k.cvt("u32", tid, k.tid.x)
    k.set("eq", "u32", p, tid, LANE)
    k.mul("u32", addr, tid, 8)
    k.ld("u32", v, out)
    k.add("u32", addr, addr, v)
    k.mul("u32", src, tid, 4)
    k.ld("u32", v, inp)
    k.add("u32", src, src, v)
    k.st("u32", k.global_ref(addr, 0), tid)  # every lane writes first
    if case == "huge-cvt":
        k.cvt("f64", f, tid)
        k.mov("f64", f, 1e19, guard=(p, "eq"))  # >= 2**63
        k.cvt("u64", r, f)
        k.st("u64", k.global_ref(addr, 0), r)
    elif case == "unmapped-load":
        k.mov("u32", src, UNMAPPED, guard=(p, "eq"))
        k.ld("u32", r, k.global_ref(src, 0))
        k.st("u32", k.global_ref(addr, 4), r)
    else:  # "ex2"
        k.ld("f32", f, k.global_ref(src, 0))
        k.ex2("f32", f, f, guard=(p, "eq"))
        k.st("f32", k.global_ref(addr, 4), f)
    k.retp()
    program = k.build()
    sim = GPUSimulator()
    inp_addr = sim.alloc_array(np.linspace(-3.0, 3.0, LANES, dtype=np.float32))
    out_addr = sim.alloc_zeros(LANES * 8)
    params = pack_params(k.param_layout, {"inp": inp_addr, "out": out_addr})
    return program, params, sim.memory


def _launch(case: str, backend: str):
    """Everything a caller observes, and the launch's fallback count."""
    program, params, initial = _build(case)
    telemetry = Telemetry()
    sim = GPUSimulator(telemetry=telemetry, backend=backend)
    memory = initial.snapshot()
    try:
        result = sim.launch(
            program, GEOMETRY, params, memory=memory,
            record_traces=True, record_write_logs=True, record_read_logs=True,
        )
        observed = (
            result.traces,
            result.cta_write_logs,
            [(a.tolist(), s.tolist()) for a, s in result.cta_read_logs],
            result.instructions,
        )
    except MemoryFault as exc:
        observed = ("MemoryFault", str(exc))
    lo, hi = memory.allocation_span()
    fallbacks = telemetry.metrics.counter_value("vector.fallbacks")
    return observed, memory.raw_window(lo, hi), fallbacks


@pytest.mark.parametrize("case", ["huge-cvt", "unmapped-load", "ex2"])
def test_one_lane_outside_the_envelope_falls_back(case):
    want, want_heap, _ = _launch(case, "interpreter")
    got, got_heap, fallbacks = _launch(case, "vectorized")
    assert got == want
    assert got_heap == want_heap
    assert fallbacks == 1
    assert (want[0] == "MemoryFault") == (case == "unmapped-load")
