"""Launch-level tests: geometry, param packing, slicing, write logs."""

import numpy as np
import pytest

from repro.errors import SimulatorError
from repro.gpu import GPUSimulator, KernelBuilder, LaunchGeometry, pack_params
from repro.gpu.injection import InjectionSpec
from repro.gpu.simulator import LaunchResult

from ..helpers import build_saxpy_instance


class TestLaunchGeometry:
    def test_counts(self):
        geo = LaunchGeometry(grid=(3, 2), block=(4, 2))
        assert geo.n_ctas == 6
        assert geo.threads_per_cta == 8
        assert geo.n_threads == 48

    def test_cta_of_thread(self):
        geo = LaunchGeometry(grid=(3, 1), block=(4, 1))
        assert geo.cta_of_thread(0) == 0
        assert geo.cta_of_thread(4) == 1
        assert geo.cta_of_thread(11) == 2

    def test_specials(self):
        geo = LaunchGeometry(grid=(2, 2), block=(2, 2))
        specials = geo.specials_for(cta=3, slot=3)
        assert specials[("ctaid", "x")] == 1
        assert specials[("ctaid", "y")] == 1
        assert specials[("tid", "x")] == 1
        assert specials[("tid", "y")] == 1
        assert specials[("ntid", "x")] == 2
        assert specials[("nctaid", "y")] == 2


class TestPackParams:
    def test_missing_param_rejected(self):
        k = KernelBuilder("t")
        k.params("a", "b")
        with pytest.raises(SimulatorError):
            pack_params(k.param_layout, {"a": 1})

    def test_extra_param_rejected(self):
        k = KernelBuilder("t")
        k.params("a")
        with pytest.raises(SimulatorError):
            pack_params(k.param_layout, {"a": 1, "zz": 2})

    def test_f32_params_encoded(self):
        k = KernelBuilder("t")
        k.params("a_f32")
        raw = pack_params(k.param_layout, {"a_f32": 1.0})
        assert raw == b"\x00\x00\x80\x3f"


class TestLaunch:
    def test_param_size_checked(self):
        inst = build_saxpy_instance()
        sim = GPUSimulator()
        with pytest.raises(SimulatorError):
            sim.launch(inst.program, inst.geometry, b"\x00")

    def test_golden_run_matches_reference(self):
        inst = build_saxpy_instance()
        sim = GPUSimulator()
        mem = inst.golden_memory()
        sim.launch(inst.program, inst.geometry, inst.param_bytes, memory=mem)
        inst.verify_reference(mem)

    def test_traces_are_per_thread(self):
        inst = build_saxpy_instance(n=12, block=4)
        sim = GPUSimulator()
        result = sim.launch(
            inst.program, inst.geometry, inst.param_bytes,
            memory=inst.golden_memory(), record_traces=True,
        )
        assert len(result.traces) == inst.geometry.n_threads
        assert all(len(t) > 0 for t in result.traces)

    def test_write_logs_grouped_by_cta(self):
        inst = build_saxpy_instance(n=12, block=4)
        sim = GPUSimulator()
        result = sim.launch(
            inst.program, inst.geometry, inst.param_bytes,
            memory=inst.golden_memory(), record_write_logs=True,
        )
        assert len(result.cta_write_logs) == 3
        assert all(len(log) == 4 for log in result.cta_write_logs)

    def test_sliced_launch_runs_one_cta(self):
        inst = build_saxpy_instance(n=12, block=4)
        sim = GPUSimulator()
        mem = inst.golden_memory()
        result = sim.launch(
            inst.program, inst.geometry, inst.param_bytes,
            memory=mem, only_cta=1, record_traces=True,
        )
        assert len(result.traces) == 4
        out = np.frombuffer(
            mem.read_bytes(inst.outputs[0].address, inst.outputs[0].nbytes),
            dtype=np.float32,
        )
        expected = inst.reference["y"]
        # Only elements 4..8 were computed by CTA 1.
        assert np.array_equal(out[4:8], expected[4:8])
        assert not np.array_equal(out[:4], expected[:4])

    def test_sliced_launch_rejects_bad_cta(self):
        inst = build_saxpy_instance()
        sim = GPUSimulator()
        with pytest.raises(SimulatorError):
            sim.launch(
                inst.program, inst.geometry, inst.param_bytes,
                memory=inst.golden_memory(), only_cta=99,
            )

    def test_injection_applied_flag(self):
        inst = build_saxpy_instance()
        sim = GPUSimulator()
        result = sim.launch(
            inst.program, inst.geometry, inst.param_bytes,
            memory=inst.golden_memory(), injection=(0, InjectionSpec(0, 3)),
        )
        assert result.injection_applied

    def test_deterministic_outputs(self):
        inst = build_saxpy_instance()
        sim = GPUSimulator()
        images = []
        for _ in range(2):
            mem = inst.golden_memory()
            sim.launch(inst.program, inst.geometry, inst.param_bytes, memory=mem)
            images.append(inst.output_bytes(mem))
        assert images[0] == images[1]


class TestDeviceBuffers:
    def test_alloc_and_read_roundtrip(self):
        sim = GPUSimulator()
        data = np.arange(10, dtype=np.uint32)
        base = sim.alloc_array(data)
        assert np.array_equal(sim.read_array(base, np.uint32, 10), data)
